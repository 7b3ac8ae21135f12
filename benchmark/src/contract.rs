//! The benchmark's fixed vocabulary: workloads, metrics, directions and
//! regression bounds. `BENCHMARK.json` at the repository root states the
//! same lists for the driver; a unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, failures).
    Lower,
    /// Larger values are better (rates, ratios of useful work).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named workload and the reason it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "inproc_hot_d50",
        why: "d=50, Zipf items, 80/20 predict/observe: prediction-cache hits and the observe mutexes do the work; linalg and the wire almost none",
    },
    WorkloadSpec {
        name: "inproc_cold_d200",
        why: "d=200, uniform items beyond the caches, 70/10/20 predict/topk/observe: linalg, storage clones and bandit scoring do the work; caches and the wire none",
    },
    WorkloadSpec {
        name: "rest_cluster_durable",
        why: "REST -> serving tier -> 3-node TCP cluster with per-record fsync: rest, serve, net, WAL and the replica ship do the work; model math almost none",
    },
    WorkloadSpec {
        name: "ingest_retrain",
        why: "durable single-thread ingest then ALS retrain, three rounds: the write side of the layers workloads 1-2 read, plus batch; shows a retrain that grows with the log",
    },
];

/// An end-to-end metric: every workload reports every one of these.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end set. What each means on each workload is tabulated in
/// the README ("End-to-end metrics"), as is why the observe latencies and
/// every p99 are *not* here: on the reference box they do not repeat within
/// any bound the driver allows, so they are reported without one.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "req_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "predict_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer (or per-workload) metric reported by the traced run. No
/// bound: these explain a movement, they do not gate one.
pub struct PerLayer {
    /// Metric name, `<crate>.<metric>` for layer timings.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Every metric the traced run emits. A workload that does not exercise a
/// layer reports 0 for it (the README's interaction table says which).
pub const PER_LAYER: [PerLayer; 77] = [
    // End-to-end numbers that carry no bound — too noisy on the reference
    // box to gate on, or present on some workloads only — from the untraced
    // segment of the traced run.
    lower("predict_p99_us", "us"),
    lower("observe_p50_us", "us"),
    lower("observe_p99_us", "us"),
    lower("topk_p50_us", "us"),
    lower("topk_p99_us", "us"),
    lower("slo_miss_frac", "frac"),
    lower("failed_frac", "frac"),
    higher("ingest_obs_per_s", "1/s"),
    lower("retrain_s", "s"),
    lower("rate400.predict_p50_us", "us"),
    lower("rate400.predict_p99_us", "us"),
    lower("rate400.observe_p50_us", "us"),
    lower("rate400.observe_p99_us", "us"),
    lower("rate400.slo_miss_frac", "frac"),
    higher("closed.req_per_s", "1/s"),
    // linalg
    lower("linalg.dot_ns.d50", "ns"),
    lower("linalg.dot_ns.d200", "ns"),
    lower("linalg.sm_update_us.d50", "us"),
    lower("linalg.sm_update_us.d200", "us"),
    // storage
    lower("storage.ns_get_ns.d200", "ns"),
    lower("storage.lru_hit_ns", "ns"),
    lower("storage.obslog_append_ns", "ns"),
    lower("storage.wal_append_us", "us"),
    lower("storage.wal_fsync_us", "us"),
    // models, bandit
    lower("models.features_ns.d200", "ns"),
    lower("bandit.select_us.k100", "us"),
    // core
    lower("core.predict_hit_ns", "ns"),
    lower("core.predict_miss_us.d200", "us"),
    lower("core.observe_us.d50", "us"),
    lower("core.topk_us.k100.d200", "us"),
    higher("core.pred_cache_hit_ratio", "ratio"),
    higher("core.feature_cache_hit_ratio", "ratio"),
    higher("core.observe_scaling_2t", "ratio"),
    lower("core.retrain_round_s.r1", "s"),
    lower("core.retrain_round_s.r2", "s"),
    lower("core.retrain_round_s.r3", "s"),
    lower("core.retrain_log_len.r3", "count"),
    lower("batch.als_train_s", "s"),
    lower("core.post_swap_predict_p50_us", "us"),
    higher("core.heldout_rmse_gain", "ratio"),
    // cluster, net
    lower("cluster.sim_predict_us", "us"),
    lower("net.frame_roundtrip_ns", "ns"),
    lower("net.rpc_predict_p50_us", "us"),
    lower("net.rpc_predict_p99_us", "us"),
    lower("net.observe_durable_p50_us", "us"),
    lower("net.span.route_us", "us"),
    lower("net.span.wire_us", "us"),
    lower("net.span.queue_us", "us"),
    lower("net.span.compute_us", "us"),
    lower("net.span.wal_append_us", "us"),
    lower("net.span.wal_fsync_us", "us"),
    lower("net.span.ship_rt_us", "us"),
    lower("net.span.replica_apply_us", "us"),
    lower("net.span.observe_total_us", "us"),
    lower("net.span.predict_total_us", "us"),
    lower("net.span.predict_route_us", "us"),
    lower("net.span.predict_wire_us", "us"),
    lower("net.span.predict_queue_us", "us"),
    lower("net.span.predict_compute_us", "us"),
    lower("net.forwards", "count"),
    lower("net.ship_failures", "count"),
    lower("net.duplicate_observes", "count"),
    // serve, rest
    lower("serve.lane_overhead_us", "us"),
    higher("serve.mean_batch", "count"),
    lower("serve.slo_violations", "count"),
    lower("rest.overhead_p50_us", "us"),
    lower("rest.observe_overhead_p50_us", "us"),
    lower("rest.http_noop_p50_us", "us"),
    lower("rest.json_parse_ns", "ns"),
    lower("rest.shed_total", "count"),
    // the layer budget and the instrument's own cost
    lower("budget.predict_unattributed_frac", "frac"),
    lower("budget.observe_unattributed_frac", "frac"),
    lower("obs.trace_overhead_frac", "frac"),
    lower("obs.spans_dropped", "count"),
    lower("obs.harness_spans", "count"),
    lower("gen.lateness_p99_us", "us"),
    lower("gen.op_array_wraps", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use velox::rest::json::Json;

    fn names_valid(names: &[&str]) {
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(n.len() <= 64 && !n.is_empty(), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(seen.insert(*n), "duplicate name {n}");
        }
    }

    #[test]
    fn names_follow_the_contract_and_are_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        names_valid(&all);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// harness emits. They must list the same things.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
