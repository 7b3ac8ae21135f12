//! Workloads 1 and 2: the in-process `Velox` deployment under a closed-loop
//! predict / top-k / observe mix.
//!
//! The two differ only in what does the work. `inproc_hot_d50` keeps the
//! working set inside the prediction cache, so cache hits and the observe
//! path's process-wide mutexes dominate. `inproc_cold_d200` draws items
//! uniformly from a catalog far larger than the cache at four times the
//! dimension, so the dot products, the O(d²) update, weight clones and
//! bandit scoring dominate and the caches do nothing.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use velox::bandit::{BanditPolicy, Candidate, LinUcbPolicy};
use velox::batch::AlsConfig;
use velox::core::{Item, Velox, VeloxConfig, VeloxModel};
use velox::linalg::vector::dot_slices;
use velox::linalg::{IncrementalRidge, Vector};
use velox::models::MatrixFactorizationModel;
use velox::storage::{LruCache, Namespace, ObservationLog};

use crate::gen::{generate, ItemDist, Mix, Op, OpKind, OpStream, SplitMix64, Zipf};
use crate::layers::{merge_layers, LaneTrace, FAST_REPS};
use crate::load::{closed_loop, OpResult, PhaseResult, MAX_LANES};
use crate::result::{peak_rss_mb, WorkloadResult};
use crate::stats::{ratio, sliced_percentile, Pick, Summary};
use crate::{fold_score, RunArgs};

/// Shape of one in-process workload.
pub struct InprocSpec {
    /// Workload name.
    pub name: &'static str,
    /// Model dimension.
    pub d: usize,
    /// Users, sized so `users × d² × 8 B` of online state fits comfortably.
    pub users: u64,
    /// Catalog size.
    pub items: u64,
    /// Zipf exponent for item popularity; `None` draws uniformly.
    pub zipf: Option<f64>,
    /// Size of the repeat-view list predicts draw from (0 = every predict
    /// draws a fresh pair). See [`Mix::hot_pairs`].
    pub hot_pairs: usize,
    /// Percent observes.
    pub observe_pct: u64,
    /// Percent top-k ops.
    pub topk_pct: u64,
    /// Ops per second one lane is expected to reach (sizes the op arrays).
    pub lane_rate_hint: usize,
    /// Ops in the single-threaded verification pass.
    pub verify_ops: usize,
    /// A traced lane replays every this-many-th op layer by layer.
    pub replay_every: u64,
}

/// Workload 1.
pub const HOT_D50: InprocSpec = InprocSpec {
    name: "inproc_hot_d50",
    d: 50,
    users: 10_000,
    items: 5_000,
    zipf: Some(1.0),
    hot_pairs: 4_096,
    observe_pct: 20,
    topk_pct: 0,
    lane_rate_hint: 400_000,
    verify_ops: 20_000,
    replay_every: 128,
};

/// Workload 2.
pub const COLD_D200: InprocSpec = InprocSpec {
    name: "inproc_cold_d200",
    d: 200,
    users: 1_000,
    items: 50_000,
    zipf: None,
    hot_pairs: 0,
    observe_pct: 20,
    topk_pct: 10,
    lane_rate_hint: 12_000,
    verify_ops: 1_500,
    replay_every: 4,
};

/// Longest op array generated for one lane.
const MAX_OPS_PER_LANE: usize = 2_000_000;

/// Candidates per top-k op.
const TOPK_CANDIDATES: usize = 100;

/// The verification pass runs on a deployment this much smaller than the
/// measured one (same dimension, same mix), so it stays a fraction of a
/// second.
const VERIFY_SHRINK: u64 = 20;

impl InprocSpec {
    fn mix(&self, users: u64, items: u64) -> Mix {
        Mix {
            users,
            items: match self.zipf {
                Some(s) => ItemDist::Zipf(Zipf::new(items as usize, s)),
                None => ItemDist::Uniform(items),
            },
            observe_pct: self.observe_pct,
            topk_pct: self.topk_pct,
            topk_candidates: TOPK_CANDIDATES,
            hot_pairs: self.hot_pairs,
        }
    }
}

/// A deployed model plus what the harness needs to replay its layers.
struct Deployment {
    velox: Arc<Velox>,
    model: Arc<MatrixFactorizationModel>,
    /// The initial user weights, kept for the layer replay.
    weights: HashMap<u64, Vector>,
}

/// Builds the model and weights from the seed, deploys, and touches every
/// user's online state once so the first-touch allocation of the d×d
/// `A⁻¹` (320 KB per user at d = 200) happens here, not in the timed phase.
fn deploy(spec: &InprocSpec, users: u64, items: u64, seed: u64) -> Deployment {
    let mut rng = SplitMix64::fork(seed, 0xDE9107);
    let table: HashMap<u64, Vector> =
        (0..items).map(|i| (i, Vector::from_vec(rng.unit_vector(spec.d)))).collect();
    let model = Arc::new(
        MatrixFactorizationModel::from_table(
            spec.name,
            table,
            0.0,
            AlsConfig { rank: spec.d, ..Default::default() },
        )
        .expect("factor table has one rank"),
    );
    let weights: HashMap<u64, Vector> =
        (0..users).map(|u| (u, Vector::from_vec(rng.unit_vector(spec.d)))).collect();
    let velox = Arc::new(Velox::deploy(
        Arc::clone(&model) as Arc<dyn VeloxModel>,
        weights.clone(),
        VeloxConfig::default(),
    ));
    for uid in 0..users {
        let item = rng.below(items);
        velox
            .observe(uid, &Item::Id(item), crate::gen::label(uid, item) as f64)
            .expect("set-up observe");
    }
    Deployment { velox, model, weights }
}

fn execute(velox: &Velox, op: &Op, stream: &OpStream) -> OpResult {
    let uid = op.uid as u64;
    match op.kind {
        OpKind::Predict => velox
            .predict(uid, &Item::Id(op.item as u64))
            .map(|p| p.score)
            .map_err(|e| e.to_string()),
        OpKind::Observe => velox
            .observe(uid, &Item::Id(op.item as u64), op.y as f64)
            .map(|o| o.predicted_before)
            .map_err(|e| e.to_string()),
        OpKind::TopK => {
            let items: Vec<Item> = stream.candidates_of(op).iter().map(|&i| Item::Id(i)).collect();
            velox.top_k(uid, &items).map(|r| r.ranked[0].1).map_err(|e| e.to_string())
        }
    }
}

/// Replays a fresh small deployment single-threaded and folds every score.
/// Two calls with one seed must agree bit for bit.
fn verification_checksum(spec: &InprocSpec, seed: u64) -> Result<u64, String> {
    let users = (spec.users / VERIFY_SHRINK).max(8);
    let items = (spec.items / VERIFY_SHRINK).max(TOPK_CANDIDATES as u64);
    let dep = deploy(spec, users, items, seed);
    let stream = generate(&spec.mix(users, items), spec.verify_ops, seed, 0xC0FFEE);
    let mut sum = 0u64;
    for op in &stream.ops {
        let score = execute(&dep.velox, op, &stream)?;
        if !score.is_finite() {
            return Err(format!("non-finite score {score} for {op:?}"));
        }
        sum = fold_score(sum, score);
    }
    Ok(sum)
}

/// Harness-owned instances of the layer types, fed the same inputs the
/// deployment sees, so each layer's public function can be timed alone.
struct LayerRig {
    d: usize,
    weights: Namespace<Vec<f64>>,
    lru: LruCache<(u64, u64), f64>,
    ridge: IncrementalRidge,
    obslog: ObservationLog,
    bandit: LinUcbPolicy,
}

impl LayerRig {
    fn new(dep: &Deployment, d: usize) -> Self {
        let weights = Namespace::new("bench_weights");
        for (&uid, w) in &dep.weights {
            weights.put(uid, w.as_slice().to_vec());
        }
        LayerRig {
            d,
            weights,
            lru: LruCache::new(64 * 1024),
            ridge: IncrementalRidge::new(d, 1.0),
            obslog: ObservationLog::new(),
            bandit: LinUcbPolicy::new(1.0),
        }
    }
}

/// Executes one op on a traced lane; every `replay_every`-th op leaves a
/// root span around the real call and is replayed through the layers
/// beneath it.
fn execute_traced(
    dep: &Deployment,
    rig: &mut LayerRig,
    lane: usize,
    op: &Op,
    stream: &OpStream,
    trace: &mut LaneTrace,
) -> OpResult {
    let replay = trace.next_op();
    let op_id = trace.op_id(lane);
    let root_name = match op.kind {
        OpKind::Predict => "op.predict",
        OpKind::Observe => "op.observe",
        OpKind::TopK => "op.topk",
    };
    let start = trace.spans.now_ns();
    let (result, cached) = match op.kind {
        OpKind::Predict => match dep.velox.predict(op.uid as u64, &Item::Id(op.item as u64)) {
            Ok(p) => (Ok(p.score), p.cached),
            Err(e) => (Err(e.to_string()), false),
        },
        _ => (execute(&dep.velox, op, stream), false),
    };
    let end = trace.spans.now_ns();
    let us = (end - start) as f64 / 1e3;
    let d200 = rig.d == 200;
    match op.kind {
        OpKind::Predict if d200 && !cached => trace.layers.push("core.predict_miss_us.d200", us),
        OpKind::Observe if !d200 => trace.layers.push("core.observe_us.d50", us),
        OpKind::TopK if d200 => trace.layers.push("core.topk_us.k100.d200", us),
        _ => {}
    }
    if !replay {
        return result;
    }

    // Only replayed ops leave spans: at these request rates a span per op
    // would fill the buffer in the first second of the segment.
    let uid = op.uid as u64;
    // The layer spans hang off the op's span and start after it ends: they
    // are a replay of what it did, not a view inside it.
    let parent = trace.spans.push(root_name, start, end, 0, op_id);
    match op.kind {
        OpKind::Predict => {
            let item = Item::Id(op.item as u64);
            trace.probe("core.predict_hit_ns", FAST_REPS, parent, op_id, || {
                dep.velox.predict(uid, &item).map(|p| p.score).unwrap_or(f64::NAN)
            });
            let x = dep.model.features(&item).expect("catalog item");
            if d200 {
                trace.probe("models.features_ns.d200", FAST_REPS, parent, op_id, || {
                    dep.model.features(&item)
                });
                trace.probe("storage.ns_get_ns.d200", FAST_REPS, parent, op_id, || {
                    rig.weights.get(uid)
                });
            }
            let w = rig.weights.get(uid).expect("every user has weights");
            let metric = if d200 { "linalg.dot_ns.d200" } else { "linalg.dot_ns.d50" };
            trace.probe(metric, FAST_REPS, parent, op_id, || {
                dot_slices(std::hint::black_box(&w), std::hint::black_box(x.as_slice()))
            });
            let key = (uid, op.item as u64);
            rig.lru.put(key, 0.5);
            trace.probe("storage.lru_hit_ns", FAST_REPS, parent, op_id, || {
                rig.lru.get(&key).copied()
            });
        }
        OpKind::Observe => {
            let x = dep.model.features(&Item::Id(op.item as u64)).expect("catalog item");
            let metric = if d200 { "linalg.sm_update_us.d200" } else { "linalg.sm_update_us.d50" };
            trace.probe(metric, 1, parent, op_id, || rig.ridge.observe(&x, op.y as f64));
            trace.probe("storage.obslog_append_ns", FAST_REPS, parent, op_id, || {
                rig.obslog.append(uid, op.item as u64, op.y as f64)
            });
        }
        OpKind::TopK => {
            let mut rng = SplitMix64::new(op_id);
            let candidates: Vec<Candidate> = (0..TOPK_CANDIDATES)
                .map(|_| Candidate { score: rng.symmetric(), variance: rng.next_f64() })
                .collect();
            trace.probe("bandit.select_us.k100", FAST_REPS, parent, op_id, || {
                rig.bandit.select(&candidates)
            });
        }
    }
    result
}

/// Cache lookups seen by a deployment so far: `(prediction hits,
/// prediction lookups, feature hits, feature lookups)`. Feature lookups
/// count both the computed-feature cache and the per-node item caches a
/// materialized model reads through.
fn cache_counters(velox: &Velox) -> [u64; 4] {
    let s = velox.stats();
    let (ph, pm, _) = s.prediction_cache;
    let (fh, fm, _) = s.feature_cache;
    let (nh, nm) = s.cluster.nodes.iter().fold((0, 0), |(h, m), n| (h + n.cache.0, m + n.cache.1));
    [ph, ph + pm, fh + nh, fh + fm + nh + nm]
}

/// Runs one in-process workload.
pub fn run(spec: &InprocSpec, args: &RunArgs) -> WorkloadResult {
    let mut out = WorkloadResult::new(spec.name, args.seed, args.seconds, args.trace);
    let measure = Duration::from_secs(args.seconds);
    let warmup = args.warmup();
    // A traced run spends half its time untraced, for the overhead figure.
    let untraced = if args.trace { measure / 2 } else { measure };
    // Every set-up repetition is also measured, for an equal share of the
    // time. How a deployment's tables happen to be laid out in memory moves
    // its latencies by tens of percent for as long as it lives; measuring
    // three deployments and pooling their slices keeps one lucky or unlucky
    // layout from being the run's answer.
    let reps = args.setup_reps(3);
    let part = untraced / reps as u32;
    // Past the cap a lane wraps around its array (counted in
    // `gen.op_array_wraps`), which bounds set-up time and memory.
    let ops_per_lane = ((spec.lane_rate_hint as f64 * (part + warmup).as_secs_f64() * 1.3)
        as usize)
        .min(MAX_OPS_PER_LANE);

    let mut setups = Vec::new();
    let mut phases: Vec<PhaseResult> = Vec::new();
    let mut lookups = [0u64; 4];
    let mut built = None;
    for rep in 0..reps {
        drop(built.take());
        // Set-up: deploy, touch every user, generate the op arrays.
        let started = Instant::now();
        let dep = deploy(spec, spec.users, spec.items, args.seed);
        let mix = spec.mix(spec.users, spec.items);
        let streams: Vec<OpStream> =
            (0..MAX_LANES).map(|l| generate(&mix, ops_per_lane, args.seed, l as u64)).collect();
        setups.push(started.elapsed().as_secs_f64());

        // The untraced closed loop: the end-to-end numbers.
        let before = cache_counters(&dep.velox);
        let phase = closed_loop(&streams, warmup, part, ops_per_lane, &mut [(), ()], |_| {
            |op: &Op, stream: &OpStream, _: &mut ()| execute(&dep.velox, op, stream)
        });
        let after = cache_counters(&dep.velox);
        for (total, (a, b)) in lookups.iter_mut().zip(after.iter().zip(&before)) {
            *total += a - b;
        }
        out.count_phase(
            &format!("closed_{}", rep + 1),
            phase.attempted(),
            phase.failed(),
            phase.seconds,
        );
        if let Some(e) = phase.first_error() {
            out.check("ops_succeed", false, format!("first failure: {e}"));
        }
        phases.push(phase);
        built = Some((dep, streams));
    }
    let (dep, streams) = built.expect("at least one set-up");
    out.set_summary("setup_s", "s", Summary::of(&setups, setups.len(), Pick::Low));

    let untraced_rate = Summary::pool(phases.iter().map(PhaseResult::req_per_s), Pick::High);
    out.set_summary("req_per_s", "1/s", untraced_rate.clone());
    for kind in [OpKind::Predict, OpKind::Observe, OpKind::TopK] {
        for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
            let pooled = Summary::pool(
                phases.iter().map(|p| sliced_percentile(&p.samples(kind), q, 1e-3)),
                Pick::Low,
            );
            out.set_summary(&format!("{}_{label}_us", kind.name()), "us", pooled);
        }
    }
    out.set("failed_frac", "frac", ratio(out.failed, out.attempted));
    let wraps: u64 = phases.iter().flat_map(|p| &p.lanes).map(|l| l.wraps).sum();
    out.set("gen.op_array_wraps", "count", wraps as f64);
    let pred_ratio = ratio(lookups[0], lookups[1]);
    out.set("core.pred_cache_hit_ratio", "ratio", pred_ratio);
    out.set("core.feature_cache_hit_ratio", "ratio", ratio(lookups[2], lookups[3]));
    if spec.hot_pairs > 0 {
        out.advise(
            "hot_set_hits_the_cache",
            pred_ratio > 0.8,
            format!("hit ratio {pred_ratio:.3} > 0.8"),
        );
    } else {
        out.advise(
            "cold_set_misses_the_cache",
            pred_ratio < 0.1,
            format!("hit ratio {pred_ratio:.3} < 0.1"),
        );
    }

    if args.trace {
        traced_segment(spec, args, &dep, &streams, untraced_rate, &mut out);
    }

    // Determinism of the served scores: two fresh replays of one seed.
    out.check_checksums(
        verification_checksum(spec, args.seed),
        verification_checksum(spec, args.seed),
    );
    out.set("peak_rss_mb", "MB", peak_rss_mb());
    out
}

/// The traced half of a traced run: the same closed loop with harness
/// spans and layer replay, then the per-layer rows.
fn traced_segment(
    spec: &InprocSpec,
    args: &RunArgs,
    dep: &Deployment,
    streams: &[OpStream],
    untraced_rate: Option<Summary>,
    out: &mut WorkloadResult,
) {
    let segment = Duration::from_secs(args.seconds) / 2;
    let epoch = Instant::now();
    let mut traces: Vec<LaneTrace> =
        (0..streams.len()).map(|l| LaneTrace::new(epoch, l, spec.replay_every)).collect();
    let phase = closed_loop(streams, args.warmup(), segment, 1 << 16, &mut traces, |lane| {
        let mut rig = LayerRig::new(dep, spec.d);
        move |op: &Op, stream: &OpStream, trace: &mut LaneTrace| {
            execute_traced(dep, &mut rig, lane, op, stream, trace)
        }
    });
    out.count_phase("closed_traced", phase.attempted(), phase.failed(), phase.seconds);
    if let (Some(u), Some(t)) = (untraced_rate, phase.req_per_s()) {
        out.set("obs.trace_overhead_frac", "frac", 1.0 - t.value / u.value);
    }

    let mut layers = merge_layers(&mut traces);
    layers.file_into(out);
    let spans: usize = traces.iter().map(|t| t.spans.spans().len()).sum();
    let dropped: u64 = traces.iter().map(|t| t.spans.dropped()).sum();
    out.set("obs.harness_spans", "count", spans as f64);
    out.set("obs.spans_dropped", "count", dropped as f64);

    if spec.d == 50 {
        observe_scaling(spec, args, dep, out);
    } else {
        // The kernel should own observe time here: share of the observe
        // p50 that one Sherman–Morrison update accounts for.
        if let (Some(sm), Some(obs)) =
            (out.get("linalg.sm_update_us.d200"), out.get("observe_p50_us"))
        {
            out.advise(
                "sm_update_owns_observe_time",
                sm / obs > 0.5,
                format!(
                    "linalg.sm_update_us.d200 {sm:.1} / observe_p50_us {obs:.1} = {:.2} > 0.5",
                    sm / obs
                ),
            );
        }
    }
    let buffers: Vec<_> = traces.into_iter().map(|t| t.spans).collect();
    crate::write_trace(args, spec.name, &buffers);
}

/// Observe-only throughput at two threads over one thread: the process-wide
/// observe mutexes seen from outside. 1.0 means a second thread adds
/// nothing; 2.0 is perfect scaling.
fn observe_scaling(spec: &InprocSpec, args: &RunArgs, dep: &Deployment, out: &mut WorkloadResult) {
    let mix = Mix { observe_pct: 100, topk_pct: 0, ..spec.mix(spec.users, spec.items) };
    let window = Duration::from_millis(if args.smoke { 200 } else { 600 });
    let warm = Duration::from_millis(100);
    let streams: Vec<OpStream> =
        (0..MAX_LANES).map(|l| generate(&mix, 1 << 16, args.seed, 0x5CA1E + l as u64)).collect();
    let rate = |lanes: usize| {
        let mut ctx = vec![(); lanes];
        closed_loop(&streams[..lanes], warm, window, 1 << 16, &mut ctx, |_| {
            |op: &Op, stream: &OpStream, _: &mut ()| execute(&dep.velox, op, stream)
        })
        .req_per_s()
        .map_or(0.0, |s| s.value)
    };
    let one = rate(1);
    let two = rate(2);
    if one > 0.0 {
        out.set("core.observe_scaling_2t", "ratio", two / one);
    }
}
