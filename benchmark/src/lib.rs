//! # velox-benchmark
//!
//! One command, four workloads, end-to-end and per-layer numbers for the
//! Velox serving path. See `README.md` in this directory for the metric
//! glossary, why each workload exists, and the list of `velox::` functions
//! this harness calls — the only way it touches the system.

#![warn(missing_docs)]

pub mod contract;
pub mod gen;
pub mod ingest;
pub mod inproc;
pub mod layers;
pub mod load;
pub mod rest_cluster;
pub mod result;
pub mod span;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

use result::WorkloadResult;

/// The default seed, and a second one held out from development: a claim
/// made on the first must also hold on the second.
pub const DEFAULT_SEED: u64 = 20150104;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 77045310;

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether to run traced (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Smoke mode: shortest run that still executes every check.
    pub smoke: bool,
    /// Where WAL directories, traces and result files go.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Warm-up before a closed-loop phase, discarded.
    pub fn warmup(&self) -> Duration {
        Duration::from_millis(if self.smoke { 200 } else { 1000 })
    }

    /// How many times set-up is repeated: `full` times, once in smoke
    /// mode. Cheap set-ups are repeated more, so their fast tail is found.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// A fresh scratch directory under the output directory.
    pub fn scratch(&self, label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self.out_dir.join(format!(
            "scratch-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under the output directory");
        dir
    }
}

/// Folds one score into a running checksum, bit-exactly.
pub fn fold_score(sum: u64, score: f64) -> u64 {
    (sum.rotate_left(5) ^ score.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Writes a traced run's harness spans to `trace-<workload>.json`.
pub fn write_trace(args: &RunArgs, workload: &str, lanes: &[span::SpanBuf]) {
    let path = args.out_dir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, span::to_json(workload, lanes).to_string()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<WorkloadResult> {
    // Reset the kernel's peak-RSS mark so `peak_rss_mb` is this workload's
    // own, not an earlier one's in the same process. Best effort.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    match name {
        "inproc_hot_d50" => Some(inproc::run(&inproc::HOT_D50, args)),
        "inproc_cold_d200" => Some(inproc::run(&inproc::COLD_D200, args)),
        "rest_cluster_durable" => Some(rest_cluster::run(args)),
        "ingest_retrain" => Some(ingest::run(args)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_and_bit_sensitive() {
        let a = fold_score(fold_score(0, 1.0), 2.0);
        let b = fold_score(fold_score(0, 2.0), 1.0);
        assert_ne!(a, b);
        assert_ne!(fold_score(0, 0.0), fold_score(0, -0.0));
        assert_eq!(a, fold_score(fold_score(0, 1.0), 2.0));
    }
}
