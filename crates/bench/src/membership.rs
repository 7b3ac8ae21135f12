//! The workload REBALANCE (`abl_rebalance`) and CHAOS-REBALANCE
//! (`abl_chaos_rebalance`) share: a Zipf point-predict + observe stream
//! over a 3→4-node, 2×-replicated cluster, a per-phase availability
//! ledger, and the bit-exact acked-stream replay check.

use std::collections::HashMap;
use std::time::Instant;

use velox_cluster::transport::Transport;
use velox_cluster::{NodeId, PartitionMap, RIDGE_LAMBDA};
use velox_data::{WorkloadConfig, ZipfGenerator};
use velox_linalg::stats::LatencySummary;
use velox_linalg::{IncrementalRidge, Vector};

use crate::print_row;

/// Users in the stream.
pub const N_USERS: u64 = 24;
/// Items in the catalog.
pub const N_ITEMS: u64 = 48;
/// Feature dimension.
pub const DIM: usize = 8;
/// Founding members.
pub const N_NODES: usize = 3;
/// Slots, founding members plus join headroom.
pub const MAX_NODES: usize = 4;
/// Item-popularity skew.
pub const ZIPF_SKEW: f64 = 1.0;

/// Deterministic features of one item.
pub fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 17) as f64 / 16.0).collect()
}

/// The whole catalog, ready to publish.
pub fn seeded_items() -> Vec<(u64, Vec<f64>)> {
    (0..N_ITEMS).map(|i| (i, item_features(i))).collect()
}

/// The request stream.
pub fn zipf_stream(seed: u64) -> ZipfGenerator {
    ZipfGenerator::new(WorkloadConfig {
        n_users: N_USERS as usize,
        n_items: N_ITEMS as usize,
        item_skew: ZIPF_SKEW,
        topk_set_size: 1,
        seed,
    })
}

/// One phase's availability + latency ledger, transport-agnostic.
#[derive(Default)]
pub struct Ledger {
    predict_us: Vec<f64>,
    observe_us: Vec<f64>,
    errors: u64,
}

impl Ledger {
    /// One timed predict.
    pub fn predict(&mut self, t: &dyn Transport, uid: u64, item: u64) {
        let start = Instant::now();
        match t.predict(uid, item) {
            Ok(_) => self.predict_us.push(start.elapsed().as_secs_f64() * 1e6),
            Err(_) => self.errors += 1,
        }
    }

    /// One timed observe; an acknowledged `(uid, item, y)` joins `acked`.
    pub fn observe(
        &mut self,
        t: &dyn Transport,
        acked: &mut Vec<(u64, u64, f64)>,
        uid: u64,
        item: u64,
    ) {
        let y = if (uid + item).is_multiple_of(2) { 1.0 } else { 0.0 };
        let start = Instant::now();
        match t.observe(uid, item, y) {
            Ok(_) => {
                self.observe_us.push(start.elapsed().as_secs_f64() * 1e6);
                acked.push((uid, item, y));
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Requests that failed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Fraction of requests answered (1.0 when none were sent).
    pub fn availability(&self) -> f64 {
        let ok = (self.predict_us.len() + self.observe_us.len()) as f64;
        if ok + self.errors as f64 == 0.0 {
            1.0
        } else {
            ok / (ok + self.errors as f64)
        }
    }

    /// Prints `phase | ok | errors | [availability |] predict p50 | p99`.
    pub fn row(&self, phase: &str, with_availability: bool) {
        let p = LatencySummary::from_samples(&self.predict_us);
        let (p50, p99) = p.map(|s| (s.p50, s.p99)).unwrap_or((0.0, 0.0));
        let mut cells = vec![
            phase.to_string(),
            format!("{}", self.predict_us.len() + self.observe_us.len()),
            format!("{}", self.errors),
        ];
        if with_availability {
            cells.push(format!("{:.4}%", self.availability() * 100.0));
        }
        cells.extend([format!("{p50:.0}"), format!("{p99:.0}")]);
        print_row(&cells);
    }
}

/// Replays the acked stream locally and counts users whose cluster
/// weights diverge from the bit-exact expectation (lost or
/// double-applied acked records).
pub fn replay_divergence(t: &dyn Transport, acked: &[(u64, u64, f64)]) -> u64 {
    let mut replay = HashMap::new();
    for &(uid, item, y) in acked {
        let user = replay.entry(uid).or_insert_with(|| IncrementalRidge::new(DIM, RIDGE_LAMBDA));
        let _ = user.observe(&Vector::from_vec(item_features(item)), y);
    }
    let diverged = replay
        .iter()
        .filter(|(uid, expect)| {
            !matches!(t.fetch_weights(**uid), Ok(Some(got)) if got == expect.weights().as_slice())
        })
        .count();
    diverged as u64
}

/// First partition owned by `node` under `map`.
pub fn partition_owned_by(map: &PartitionMap, node: NodeId) -> u32 {
    (0..map.n_partitions())
        .find(|&p| map.owner_of_partition(p) == node)
        .expect("every founding member owns at least one partition")
}
