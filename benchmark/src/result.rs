//! What a run produces: named metrics with units, correctness checks,
//! provenance — printed for people, written as one JSON file for tools,
//! and summarised on the last line of stdout for the driver.

use std::path::Path;

use velox::rest::json::Json;

use crate::contract::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name from [`crate::contract`].
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// The run's own noise estimate (quartile spread over time slices or
    /// repetitions, as a share of the value); `None` for counts.
    pub spread: Option<f64>,
    /// Samples behind the value, where that means something.
    pub n: Option<usize>,
    /// Per-slice values behind the value, when it came from slices.
    pub slices: Vec<f64>,
}

/// One pass/fail statement about the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short name.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Advisory checks describe the benchmark's design (layer separation,
    /// the budget) and are reported but do not fail the run; the others
    /// are correctness checks and do.
    pub advisory: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Requests issued and failed in one phase, for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCount {
    /// Phase name.
    pub name: String,
    /// Requests issued.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Measured seconds.
    pub seconds: f64,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Requests issued in measured phases.
    pub attempted: u64,
    /// Requests that failed in measured phases (connect errors included).
    pub failed: u64,
    /// Fold of `f64::to_bits` over the verification pass's scores.
    pub checksum: u64,
    /// Metrics by name.
    pub metrics: Vec<Metric>,
    /// Checks, correctness and advisory.
    pub checks: Vec<Check>,
    /// Per-phase request counts.
    pub phases: Vec<PhaseCount>,
}

impl WorkloadResult {
    /// Starts a result for one run.
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        WorkloadResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            ..Default::default()
        }
    }

    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, unit: &str, value: f64) {
        self.set_full(name, unit, value, None, None, Vec::new());
    }

    /// Sets a metric from a slice summary (value, spread, n).
    pub fn set_summary(&mut self, name: &str, unit: &str, s: Option<Summary>) {
        if let Some(s) = s {
            self.set_full(name, unit, s.value, Some(s.spread), Some(s.n), s.slices);
        }
    }

    fn set_full(
        &mut self,
        name: &str,
        unit: &str,
        value: f64,
        spread: Option<f64>,
        n: Option<usize>,
        slices: Vec<f64>,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            spread,
            n,
            slices,
        });
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check { name: name.to_string(), passed, advisory: false, detail });
    }

    /// Records an advisory check.
    pub fn advise(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check { name: name.to_string(), passed, advisory: true, detail });
    }

    /// Records the two verification passes of one seed: both must succeed
    /// and fold to the same checksum, which becomes the run's.
    pub fn check_checksums(&mut self, first: Result<u64, String>, second: Result<u64, String>) {
        match (first, second) {
            (Ok(a), Ok(b)) => {
                self.checksum = a;
                self.check("checksum_repeats", a == b, format!("{a:016x} vs {b:016x}"));
            }
            (a, b) => self.check("verification_pass", false, format!("{a:?}, {b:?}")),
        }
    }

    /// Adds a phase's request counts to the totals.
    pub fn count_phase(&mut self, name: &str, attempted: u64, failed: u64, seconds: f64) {
        self.attempted += attempted;
        self.failed += failed;
        self.phases.push(PhaseCount { name: name.to_string(), attempted, failed, seconds });
    }

    /// Whether every correctness check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed || c.advisory)
    }

    /// The metrics the driver expects on the last line: every end-to-end
    /// metric for an untraced run, every per-layer metric for a traced one
    /// (0 for a layer this workload does not exercise).
    pub fn driver_metrics(&self) -> Vec<Metric> {
        let names: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| {
                self.metrics.iter().find(|m| m.name == name).cloned().unwrap_or(Metric {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: 0.0,
                    spread: None,
                    n: None,
                    slices: Vec::new(),
                })
            })
            .collect()
    }

    /// The driver's one-line summary.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<(String, Json)> = self
            .driver_metrics()
            .into_iter()
            .map(|m| {
                let body = Json::object(vec![
                    ("value", Json::Number(m.value)),
                    ("unit", Json::String(m.unit.clone())),
                ]);
                (m.name, body)
            })
            .collect();
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Number(self.attempted.max(1) as f64)),
            ("failed".to_string(), Json::Number(self.failed as f64)),
            ("metrics".to_string(), Json::Object(metrics)),
        ])
        .to_string()
    }

    /// Prints every metric by name and unit, then the checks.
    pub fn print(&self) {
        println!(
            "\n## {} (seed {}, {} s, {})",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "untraced" }
        );
        for p in &self.phases {
            println!(
                "phase {:<14} attempted {:>9}  failed {:>4}  {:.2} s",
                p.name, p.attempted, p.failed, p.seconds
            );
        }
        for m in &self.metrics {
            let spread = m.spread.map(|s| format!("  spread {:.3}", s)).unwrap_or_default();
            let n = m.n.map(|n| format!("  n={n}")).unwrap_or_default();
            println!("{:<36} {:>16.4} {:<6}{spread}{n}", m.name, m.value, m.unit);
        }
        println!("checksum {:016x}", self.checksum);
        for c in &self.checks {
            let verdict = match (c.passed, c.advisory) {
                (true, _) => "PASS",
                (false, true) => "WARN",
                (false, false) => "FAIL",
            };
            println!("[{verdict}] {}: {}", c.name, c.detail);
        }
    }

    fn to_json(&self) -> Json {
        let metrics: Vec<(String, Json)> = self
            .metrics
            .iter()
            .map(|m| {
                let class = if END_TO_END.iter().any(|e| e.name == m.name) {
                    "end_to_end"
                } else {
                    "per_layer"
                };
                let mut fields = vec![
                    ("value", Json::Number(m.value)),
                    ("unit", Json::String(m.unit.clone())),
                    ("class", Json::String(class.to_string())),
                ];
                if let Some(s) = m.spread {
                    fields.push(("spread", Json::Number(s)));
                }
                if let Some(n) = m.n {
                    fields.push(("n", Json::Number(n as f64)));
                }
                if !m.slices.is_empty() {
                    let slices = m.slices.iter().map(|&v| Json::Number(v)).collect();
                    fields.push(("slices", Json::Array(slices)));
                }
                (m.name.clone(), Json::object(fields))
            })
            .collect();
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|c| {
                Json::object(vec![
                    ("name", Json::String(c.name.clone())),
                    ("passed", Json::Bool(c.passed)),
                    ("advisory", Json::Bool(c.advisory)),
                    ("detail", Json::String(c.detail.clone())),
                ])
            })
            .collect();
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::object(vec![
                    ("name", Json::String(p.name.clone())),
                    ("attempted", Json::Number(p.attempted as f64)),
                    ("failed", Json::Number(p.failed as f64)),
                    ("seconds", Json::Number(p.seconds)),
                ])
            })
            .collect();
        Json::object(vec![
            ("workload", Json::String(self.workload.clone())),
            ("seed", Json::Number(self.seed as f64)),
            ("seconds", Json::Number(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("checksum", Json::String(format!("{:016x}", self.checksum))),
            ("metrics", Json::Object(metrics)),
            ("checks", Json::Array(checks)),
            ("phases", Json::Array(phases)),
        ])
    }
}

/// Where and on what the run happened.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Commit of the measured tree (`unknown` outside a git checkout).
    pub git_sha: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type under the WAL directories: fsync on tmpfs is not a
    /// disk.
    pub wal_fs_type: String,
    /// The output directory the WALs live under.
    pub out_dir: String,
}

impl Provenance {
    /// Collects provenance for a run writing under `out_dir`. The commit
    /// comes from `VELOX_BENCH_GIT_SHA`, which `run.sh` sets.
    pub fn collect(out_dir: &Path) -> Self {
        let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string()).ok();
        Provenance {
            git_sha: std::env::var("VELOX_BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            kernel: read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            wal_fs_type: read("/proc/mounts")
                .and_then(|mounts| fs_type_of(&mounts, out_dir))
                .unwrap_or_else(|| "unknown".into()),
            out_dir: out_dir.display().to_string(),
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("git_sha", Json::String(self.git_sha.clone())),
            ("nproc", Json::Number(self.nproc as f64)),
            ("kernel", Json::String(self.kernel.clone())),
            ("wal_fs_type", Json::String(self.wal_fs_type.clone())),
            ("out_dir", Json::String(self.out_dir.clone())),
        ])
    }
}

/// The filesystem type of the longest mount point that prefixes `path`,
/// from `/proc/mounts` text.
pub fn fs_type_of(mounts: &str, path: &Path) -> Option<String> {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Writes the result file: provenance plus every workload run.
pub fn write_file(
    path: &Path,
    provenance: &Provenance,
    runs: &[WorkloadResult],
) -> std::io::Result<()> {
    let doc = Json::object(vec![
        ("schema", Json::Number(1.0)),
        ("provenance", provenance.to_json()),
        ("workloads", Json::Array(runs.iter().map(WorkloadResult::to_json).collect())),
    ]);
    std::fs::write(path, doc.to_string() + "\n")
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_metrics() {
        let mut r = WorkloadResult::new("w", 1, 2, false);
        r.set("req_per_s", "1/s", 1234.5678);
        r.set("not_in_contract", "x", 1.0);
        r.count_phase("closed", 100, 0, 1.0);
        let doc = Json::parse(&r.driver_line()).unwrap();
        let keys: Vec<String> = doc.object_map().unwrap().into_keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().object_map().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let rps = &metrics["req_per_s"];
        assert_eq!(rps.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(rps.get("unit").and_then(Json::as_str), Some("1/s"));

        let mut t = WorkloadResult::new("w", 1, 2, true);
        t.set("net.forwards", "count", 0.0);
        let doc = Json::parse(&t.driver_line()).unwrap();
        assert_eq!(doc.get("metrics").unwrap().object_map().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_op_or_a_failed_check_makes_the_run_incorrect_but_a_warning_does_not() {
        let mut r = WorkloadResult::new("w", 1, 2, false);
        r.advise("separation", false, "hit ratio".into());
        assert!(r.correct());
        r.check("checksum", false, "differs".into());
        assert!(!r.correct());
        let mut f = WorkloadResult::new("w", 1, 2, false);
        f.count_phase("closed", 10, 1, 1.0);
        assert!(!f.correct());
    }

    #[test]
    fn fs_type_picks_the_longest_matching_mount() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\n/dev/vdb /tmp/deep xfs rw 0 0\n";
        assert_eq!(fs_type_of(mounts, Path::new("/tmp/deep/x")).as_deref(), Some("xfs"));
        assert_eq!(fs_type_of(mounts, Path::new("/tmp/y")).as_deref(), Some("tmpfs"));
        assert_eq!(fs_type_of(mounts, Path::new("/home")).as_deref(), Some("ext4"));
    }
}
