//! Workload 3: the headline path. `VeloxClient` → `RestServer` →
//! `ServeTier` (cluster backend, default batching) → `NetCluster` (three
//! nodes on loopback TCP, two replicas per user, WAL on disk with an fsync
//! per record).
//!
//! The mirror image of workload 2: the model is a 16-dimensional LMS
//! update, so model math does almost nothing and the REST layer
//! (connection and thread per request), the serving lane, the RPC codec,
//! the WAL fsync and the synchronous replica ship do the work.
//!
//! Three phases share one deployment, interleaved in rounds: an open loop at
//! 400 req/s, an open loop at 1 000 req/s (the latency figures; every op
//! timed from its due time) and a closed loop on two connections (the
//! throughput figure).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use velox::cluster::{Cluster, ClusterConfig, SimTransport, Transport};
use velox::core::{Item, VeloxServer};
use velox::net::frame::{encode_frame_ext, read_frame_ext};
use velox::net::{NetCluster, NetClusterConfig, Request};
use velox::obs::{build_tree, Registry, SpanKind, TraceConfig, TraceNode};
use velox::rest::json::Json;
use velox::rest::{RestHandle, RestServer, RetryPolicy, VeloxClient};
use velox::serve::{ServeConfig, ServeTier, TransportBackend, CLUSTER_BACKEND};
use velox::storage::{Observation, Wal, WalConfig};

use crate::gen::{generate, label, ItemDist, Mix, Op, OpKind, OpStream, SplitMix64};
use crate::layers::{merge_layers, LaneTrace, LayerSamples};
use crate::load::{closed_loop, open_loop, OpResult, OpenLoopPlan, PhaseResult, MAX_LANES};
use crate::result::{peak_rss_mb, WorkloadResult};
use crate::stats::{
    percentile_of, phase_percentile, ratio, sliced_percentile, Pick, Samples, Summary,
};
use crate::{fold_score, RunArgs};

const NAME: &str = "rest_cluster_durable";
const USERS: u64 = 64;
const ITEMS: u64 = 256;
const DIM: usize = 16;
const NODES: usize = 3;
const LEARNING_RATE: f64 = 0.05;
/// The latency limit of the open-loop phases, from each op's due time.
const SLO: Duration = Duration::from_millis(5);
/// Rounds the untraced budget is cut into. Each round runs all three
/// phases, so each phase's figures sample the whole run rather than one
/// stretch of it: this box slows down for seconds at a time, and a phase
/// that ran once, inside such a stretch, had no fast window to report. An
/// open loop also starts every round on schedule, so a stall's backlog
/// ends with its round.
const ROUNDS: usize = 10;
/// The fast tail this workload's figures are read at: the 1st-percentile
/// slice of the 200 a figure has (ten rounds of twenty), not the decile the
/// in-process workloads use. A request here is handed from thread to thread
/// across two virtual CPUs, and what a hand-off onto a halted one costs is
/// the hypervisor's doing: the quiet state is rarer than on a workload that
/// keeps its CPUs busy. Over two sets of ten runs the decile of these
/// slices spread 0.06 and 0.07, their 1st percentile 0.02 and 0.03.
const FAST_TAIL: f64 = 0.01;
/// How long the box is left alone before anything is timed.
const SETTLE: Duration = Duration::from_secs(6);
/// A traced lane replays every this-many-th op layer by layer.
const REPLAY_EVERY: u64 = 8;
/// Ops in the single-threaded verification pass.
const VERIFY_OPS: usize = 400;

fn mix() -> Mix {
    Mix {
        users: USERS,
        items: ItemDist::Uniform(ITEMS),
        observe_pct: 20,
        topk_pct: 0,
        topk_candidates: 1,
        hot_pairs: 0,
    }
}

fn item_table(seed: u64) -> Vec<(u64, Vec<f64>)> {
    let mut rng = SplitMix64::fork(seed, 0x17E5);
    (0..ITEMS).map(|i| (i, rng.unit_vector(DIM))).collect()
}

/// The whole serving stack, front to disk.
struct Stack {
    net: Arc<NetCluster>,
    tier: Arc<ServeTier>,
    rest: RestHandle,
    rest_registry: Arc<Registry>,
    wal_root: PathBuf,
    /// Observes the cluster acknowledged since it started.
    acked: AtomicU64,
    /// Acks that reported a replica count other than one.
    bad_ships: AtomicU64,
}

impl Stack {
    /// Starts the stack: cluster, item table, serving tier, REST listener.
    /// This is the set-up that is timed.
    fn start_cold(args: &RunArgs, trace: TraceConfig) -> Result<Stack, String> {
        let wal_root = args.scratch("wal");
        let net = Arc::new(
            NetCluster::start(NetClusterConfig {
                n_nodes: NODES,
                user_replication: 2,
                lr: LEARNING_RATE,
                wal_root: Some(wal_root.clone()),
                trace,
                ..Default::default()
            })
            .map_err(|e| format!("start cluster: {e}"))?,
        );
        net.publish_item_features(item_table(args.seed));
        let transport: Arc<dyn Transport + Send + Sync> = Arc::clone(&net) as _;
        let tier =
            ServeTier::with_parts(ServeConfig::default(), Arc::new(Registry::new()), net.tracer());
        tier.register(CLUSTER_BACKEND, Arc::new(TransportBackend::new(Arc::clone(&transport))))
            .map_err(|e| format!("register cluster backend: {e}"))?;
        let server = RestServer::new(Arc::new(VeloxServer::new()))
            .with_cluster(transport)
            .with_serving(Arc::clone(&tier));
        let rest_registry = server.registry();
        let rest = server.serve("127.0.0.1:0").map_err(|e| format!("bind REST listener: {e}"))?;
        Ok(Stack {
            net,
            tier,
            rest,
            rest_registry,
            wal_root,
            acked: AtomicU64::new(0),
            bad_ships: AtomicU64::new(0),
        })
    }

    /// Starts the stack and gives every user one durable observe, so no
    /// timed request is a cold start. The observes are the harness's doing
    /// and fsync-bound, so they stay out of `setup_s`.
    fn start(args: &RunArgs, trace: TraceConfig) -> Result<Stack, String> {
        let stack = Stack::start_cold(args, trace)?;
        for uid in 0..USERS {
            let item = uid % ITEMS;
            let ack = stack
                .net
                .observe(uid, item, label(uid, item) as f64)
                .map_err(|e| format!("set-up observe: {e}"))?;
            stack.note_ack(ack.shipped_to);
        }
        Ok(stack)
    }

    fn note_ack(&self, shipped_to: usize) {
        self.acked.fetch_add(1, Ordering::Relaxed);
        if shipped_to != 1 {
            self.bad_ships.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One connection's client: no retries, so a refused connection or a
    /// shed request is a counted failure rather than hidden latency.
    fn client(&self) -> VeloxClient {
        VeloxClient::new(self.rest.addr(), "cluster")
            .with_retry(RetryPolicy { max_attempts: 1, ..Default::default() })
    }

    fn execute(&self, client: &VeloxClient, op: &Op) -> OpResult {
        let (uid, item) = (op.uid as u64, op.item as u64);
        match op.kind {
            OpKind::Observe => {
                let ack =
                    client.cluster_observe(uid, item, op.y as f64).map_err(|e| e.to_string())?;
                self.note_ack(ack.shipped_to);
                Ok(ack.ts as f64)
            }
            _ => client.cluster_predict(uid, item).map(|p| p.score).map_err(|e| e.to_string()),
        }
    }

    /// `(Σ observes applied by owners, forwards, ship failures, duplicate
    /// observes)` over every node.
    fn node_counters(&self) -> [u64; 4] {
        (0..NODES).fold([0; 4], |mut acc, n| {
            let m = self.net.node_metrics(n);
            acc[0] += m.observes.get();
            acc[1] += m.forwards.get();
            acc[2] += m.ship_failures.get();
            acc[3] += m.duplicate_observes.get();
            acc
        })
    }

    /// The durability checks every stack must pass before it is torn down:
    /// each ack reached exactly one replica, and the owners applied exactly
    /// the acknowledged observes (nothing lost, nothing applied twice).
    fn check_acks(&self, label: &str, out: &mut WorkloadResult) {
        let acked = self.acked.load(Ordering::Relaxed);
        let bad = self.bad_ships.load(Ordering::Relaxed);
        let applied = self.node_counters()[0];
        out.check(
            &format!("{label}.every_ack_shipped_to_one_replica"),
            bad == 0,
            format!("{bad} of {acked} acks reported shipped_to != 1"),
        );
        out.check(
            &format!("{label}.applied_equals_acked"),
            applied == acked,
            format!("owners applied {applied}, clients hold {acked} acks"),
        );
    }

    fn shutdown(self) {
        self.rest.shutdown();
        self.tier.shutdown();
        self.net.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_root);
    }
}

fn streams(seed: u64, ops_per_lane: usize, stream_base: u64) -> Vec<OpStream> {
    (0..MAX_LANES).map(|l| generate(&mix(), ops_per_lane, seed, stream_base + l as u64)).collect()
}

fn run_closed(
    stack: &Stack,
    streams: &[OpStream],
    warmup: Duration,
    measure: Duration,
) -> PhaseResult {
    closed_loop(streams, warmup, measure, 1 << 16, &mut [(), ()], |_| {
        let client = stack.client();
        move |op: &Op, _: &OpStream, _: &mut ()| stack.execute(&client, op)
    })
}

fn run_open(stack: &Stack, streams: &[OpStream], rate: f64, duration: Duration) -> PhaseResult {
    let plan = OpenLoopPlan {
        rate_per_s: rate,
        lanes: MAX_LANES,
        duration_ns: duration.as_nanos() as u64,
        slo_ns: SLO.as_nanos() as u64,
    };
    open_loop(streams, &plan, |_| {
        let client = stack.client();
        move |op: &Op, _: &OpStream| stack.execute(&client, op)
    })
}

/// Percentile `q` of samples across threads, in the reported unit.
type Percentile = fn(&[&Samples], f64, f64) -> Option<Summary>;

/// Files the p50 and p99 of both op kinds over `phases` (one per round),
/// pooled. A p50 is taken per slice; a p99 through `p99`, because a slice
/// of a round holds too few samples for one.
fn latency_rows(out: &mut WorkloadResult, prefix: &str, phases: &[PhaseResult], p99: Percentile) {
    let p50: Percentile = sliced_percentile;
    for (kind, stem) in [(OpKind::Predict, "predict"), (OpKind::Observe, "observe")] {
        for (q, label, percentile) in [(0.50, "p50", p50), (0.99, "p99", p99)] {
            let pooled = Summary::pool_at(
                phases.iter().map(|p| percentile(&p.samples(kind), q, 1e-3)),
                Pick::Low,
                FAST_TAIL,
            );
            out.set_summary(&format!("{prefix}{stem}_{label}_us"), "us", pooled);
        }
    }
}

fn count_phases(out: &mut WorkloadResult, name: &str, phases: &[PhaseResult]) {
    out.count_phase(
        name,
        phases.iter().map(PhaseResult::attempted).sum(),
        phases.iter().map(PhaseResult::failed).sum(),
        phases.iter().map(|p| p.seconds).sum(),
    );
}

/// The three untraced phases over `budget` seconds, interleaved in
/// [`ROUNDS`] rounds; files the end-to-end rows and returns the
/// closed-loop rate at the fast decile, for the traced segment to compare
/// its own with.
fn untraced_phases(
    stack: &Stack,
    args: &RunArgs,
    budget: Duration,
    out: &mut WorkloadResult,
) -> Option<Summary> {
    let rounds = if args.smoke { 2 } else { ROUNDS };
    let share = |of_budget: f64| budget.mul_f64(of_budget / rounds as f64);
    // Every round has its own op arrays, generated before anything is timed.
    let ops_per_lane = (4_000.0 * share(1.0).as_secs_f64()) as usize + 1024;
    let streams: Vec<Vec<OpStream>> =
        (0..rounds).map(|r| streams(args.seed, ops_per_lane, (r * MAX_LANES) as u64)).collect();
    // Warm the connection path, the lane and the nodes' worker pools.
    run_closed(stack, &streams[0], Duration::ZERO, args.warmup() / 2);

    let (mut slow, mut fast, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    for streams in &streams {
        slow.push(run_open(stack, streams, 400.0, share(0.15)));
        fast.push(run_open(stack, streams, 1_000.0, share(0.40)));
        closed.push(run_closed(stack, streams, Duration::ZERO, share(0.45)));
    }

    count_phases(out, "open_400", &slow);
    latency_rows(out, "rate400.", &slow, phase_percentile);
    let misses = |phases: &[PhaseResult]| {
        ratio(
            phases.iter().map(PhaseResult::slo_misses).sum(),
            phases.iter().map(PhaseResult::attempted).sum(),
        )
    };
    out.set("rate400.slo_miss_frac", "frac", misses(&slow));

    count_phases(out, "open_1000", &fast);
    latency_rows(out, "", &fast, phase_percentile);
    out.set("slo_miss_frac", "frac", misses(&fast));
    let mut lateness: Vec<f64> = fast
        .iter()
        .flat_map(|p| &p.lanes)
        .flat_map(|l| l.lateness.all().iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    if let Some(p99) = percentile_of(&mut lateness, 0.99) {
        out.set("gen.lateness_p99_us", "us", p99);
    }

    count_phases(out, "closed", &closed);
    let rate = Summary::pool_at(closed.iter().map(PhaseResult::req_per_s), Pick::High, FAST_TAIL);
    out.set_summary("req_per_s", "1/s", rate.clone());
    out.set_summary("closed.req_per_s", "1/s", rate);
    if let Some(e) = slow.iter().chain(&fast).chain(&closed).find_map(PhaseResult::first_error) {
        out.check("ops_succeed", false, format!("first failure: {e}"));
    }
    // The traced segment is one closed loop of twenty slices and reads its
    // rate at their decile; the overhead figure compares like with like.
    Summary::pool(closed.iter().map(PhaseResult::req_per_s), Pick::High)
}

/// Counters that should stay at zero on a healthy run, plus lane stats.
fn file_counters(stack: &Stack, out: &mut WorkloadResult) {
    let [_, forwards, ship_failures, duplicates] = stack.node_counters();
    out.set("net.forwards", "count", forwards as f64);
    out.set("net.ship_failures", "count", ship_failures as f64);
    out.set("net.duplicate_observes", "count", duplicates as f64);
    let shed = stack.rest_registry.snapshot().counter("velox_rest_shed_total");
    out.set("rest.shed_total", "count", shed as f64);
    if let Some(b) = stack.tier.backends().into_iter().find(|b| b.name == CLUSTER_BACKEND) {
        out.set("serve.mean_batch", "count", b.lane.mean_batch);
        out.set("serve.slo_violations", "count", b.lane.slo_violations as f64);
    }
}

/// A fresh untraced stack replayed single-threaded: the REST score must
/// equal the direct `Transport::predict` score bit for bit, and the fold
/// of every answer is the run's checksum.
fn verification_checksum(
    args: &RunArgs,
    out: &mut WorkloadResult,
    label: &str,
) -> Result<u64, String> {
    let stack = Stack::start(args, TraceConfig::off())?;
    let client = stack.client();
    let stream = generate(&mix(), VERIFY_OPS, args.seed, 0xC0FFEE);
    let mut sum = 0u64;
    let mut mismatches = 0u64;
    let mut failure = None;
    for op in &stream.ops {
        match stack.execute(&client, op) {
            Ok(answer) => {
                if op.kind == OpKind::Predict {
                    match stack.net.predict(op.uid as u64, op.item as u64) {
                        Ok(direct) if direct.score.to_bits() == answer.to_bits() => {}
                        _ => mismatches += 1,
                    }
                }
                sum = fold_score(sum, answer);
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    out.check(
        &format!("{label}.rest_score_equals_direct_score"),
        mismatches == 0,
        format!("{mismatches} of the REST predicts differed from Transport::predict"),
    );
    stack.check_acks(label, out);
    stack.shutdown();
    match failure {
        Some(e) => Err(e),
        None => Ok(sum),
    }
}

fn find(node: &TraceNode, kind: SpanKind) -> Option<&TraceNode> {
    if node.span.kind == kind {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, kind))
}

fn child(node: &TraceNode, kind: SpanKind) -> Option<&TraceNode> {
    node.children.iter().find(|c| c.span.kind == kind)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Imports a program span tree under a harness span and files the per-hop
/// rows. Returns whether the tree had the canonical shape.
fn import_tree(
    trace: &mut LaneTrace,
    tree: &TraceNode,
    parent: u32,
    op: u64,
    anchor_ns: u64,
) -> bool {
    // The program's trace clock and the harness clock have different
    // epochs; program spans are re-based so the tree's root starts where
    // the harness span that caused it starts.
    let base = tree.span.start_ns;
    fn walk(t: &mut LaneTrace, n: &TraceNode, parent: u32, op: u64, base: u64, anchor: u64) {
        let id = t.spans.push(
            n.span.kind.as_str(),
            anchor + n.span.start_ns.saturating_sub(base),
            anchor + n.span.end_ns.saturating_sub(base),
            parent,
            op,
        );
        for c in &n.children {
            walk(t, c, id, op, base, anchor);
        }
    }
    walk(trace, tree, parent, op, base, anchor_ns);

    let layers = &mut trace.layers;
    if let Some(front) = find(tree, SpanKind::ClusterPredict) {
        let (Some(route), Some(rpc)) =
            (child(front, SpanKind::Route), child(front, SpanKind::RpcCall))
        else {
            return false;
        };
        let Some(recv) = child(rpc, SpanKind::ServerRecv) else { return false };
        let Some(work) = child(recv, SpanKind::NodePredict) else { return false };
        layers.push("net.span.predict_total_us", us(front.span.duration_ns()));
        layers.push("net.span.predict_route_us", us(route.span.duration_ns()));
        layers.push(
            "net.span.predict_wire_us",
            us(rpc.span.duration_ns().saturating_sub(recv.span.duration_ns())),
        );
        layers.push(
            "net.span.predict_queue_us",
            us(recv.span.duration_ns().saturating_sub(work.span.duration_ns())),
        );
        layers.push("net.span.predict_compute_us", us(work.span.duration_ns()));
        return true;
    }
    let Some(front) = find(tree, SpanKind::ClusterObserve) else { return false };
    let Some(rpc) = child(front, SpanKind::RpcCall) else { return false };
    let Some(recv) = child(rpc, SpanKind::ServerRecv) else { return false };
    let Some(work) = child(recv, SpanKind::NodeObserve) else { return false };
    let Some(ship) = child(work, SpanKind::ShipReplica) else { return false };
    let append = child(work, SpanKind::WalAppend).map_or(0, |n| n.span.duration_ns());
    let fsync = child(work, SpanKind::WalFsync).map_or(0, |n| n.span.duration_ns());
    let shipped = ship.span.duration_ns();
    layers.push("net.span.observe_total_us", us(front.span.duration_ns()));
    if let Some(route) = child(front, SpanKind::Route) {
        layers.push("net.span.route_us", us(route.span.duration_ns()));
    }
    layers.push(
        "net.span.wire_us",
        us(rpc.span.duration_ns().saturating_sub(recv.span.duration_ns())),
    );
    layers.push(
        "net.span.queue_us",
        us(recv.span.duration_ns().saturating_sub(work.span.duration_ns())),
    );
    layers.push(
        "net.span.compute_us",
        us(work.span.duration_ns().saturating_sub(append + fsync + shipped)),
    );
    layers.push("net.span.wal_append_us", us(append));
    layers.push("net.span.wal_fsync_us", us(fsync));
    layers.push("net.span.ship_rt_us", us(shipped));
    if let Some(apply) = find(ship, SpanKind::ShipApply) {
        layers.push("net.span.replica_apply_us", us(apply.span.duration_ns()));
    }
    true
}

/// One op on a traced lane: the real REST call under a root span, and for
/// every [`REPLAY_EVERY`]-th op the layers beneath it — the serving tier
/// and the transport called directly, and the program's own span tree.
fn execute_traced(
    stack: &Stack,
    client: &VeloxClient,
    lane: usize,
    op: &Op,
    trace: &mut LaneTrace,
) -> OpResult {
    let replay = trace.next_op();
    let op_id = trace.op_id(lane);
    let (uid, item) = (op.uid as u64, op.item as u64);
    let tracer = stack.net.tracer();
    let start = trace.spans.now_ns();
    if op.kind == OpKind::Observe {
        // The REST observe route mints the trace root itself and returns
        // its id, so the real request's own tree is the breakdown.
        let ack = client.cluster_observe(uid, item, op.y as f64);
        let end = trace.spans.now_ns();
        let root = trace.spans.push("rest.http_observe", start, end, 0, op_id);
        let ack = ack.map_err(|e| e.to_string())?;
        stack.note_ack(ack.shipped_to);
        trace.layers.push("http_observe_us", us(end - start));
        let id = ack.trace_id.as_deref().and_then(|hex| u64::from_str_radix(hex, 16).ok());
        match id.map(|id| build_tree(&tracer.collect(id))) {
            Some(forest)
                if forest.len() == 1 && import_tree(trace, &forest[0], root, op_id, start) => {}
            _ => trace.layers.push("undecomposed", 1.0),
        }
        return Ok(ack.ts as f64);
    }

    let answer = client.cluster_predict(uid, item);
    let end = trace.spans.now_ns();
    let root = trace.spans.push("rest.http_predict", start, end, 0, op_id);
    let answer = answer.map_err(|e| e.to_string())?;
    trace.layers.push("http_predict_us", us(end - start));
    if !replay {
        return Ok(answer.score);
    }
    // The predict route goes through the batching lane, which does not
    // return a trace id: replay the layers beneath HTTP one by one.
    let id = Item::Id(item);
    let (_, tier_ns, _) = trace.spans.time("serve.tier_predict", root, op_id, || {
        stack.tier.predict(CLUSTER_BACKEND, uid, &id).map(|p| p.score)
    });
    trace.layers.push("tier_predict_us", us(tier_ns));
    let (_, direct_ns, _) = trace.spans.time("serve.predict_direct", root, op_id, || {
        stack.tier.predict_direct(CLUSTER_BACKEND, uid, &id).map(|p| p.score)
    });
    trace.layers.push("tier_direct_us", us(direct_ns));
    let rpc_start = trace.spans.now_ns();
    let (traced, _, rpc_span) = trace
        .spans
        .time("net.transport_predict", root, op_id, || stack.net.predict_traced(uid, item, None));
    match traced.ok().and_then(|p| p.trace_id).map(|id| build_tree(&tracer.collect(id))) {
        Some(forest)
            if forest.len() == 1 && import_tree(trace, &forest[0], rpc_span, op_id, rpc_start) => {}
        _ => trace.layers.push("undecomposed", 1.0),
    }
    Ok(answer.score)
}

/// Single-threaded timings of the layers under the REST route, each
/// through its public function on inputs from the op stream.
fn layer_probes(stack: &Stack, args: &RunArgs, layers: &mut LayerSamples) -> Result<(), String> {
    let n = if args.smoke { 100 } else { 1_000 };
    let stream = generate(&mix(), n, args.seed, 0x9A0BE);
    let client = stack.client();
    let timed = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let t = Instant::now();
        f()?;
        Ok(t.elapsed().as_nanos() as f64)
    };

    // The same model behind the simulator's transport: the no-socket floor.
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: NODES,
        user_replication: 2,
        item_replication: NODES,
        ..Default::default()
    }));
    sim_cluster.publish_item_features(item_table(args.seed));
    let sim = SimTransport::new(sim_cluster, LEARNING_RATE);
    for uid in 0..USERS {
        sim.observe(uid, uid % ITEMS, 0.5).map_err(|e| e.to_string())?;
    }

    for op in &stream.ops {
        let (uid, item) = (op.uid as u64, op.item as u64);
        if op.kind == OpKind::Observe {
            let ns = timed(&mut || {
                let ack = stack.net.observe(uid, item, op.y as f64).map_err(|e| e.to_string())?;
                stack.note_ack(ack.shipped_to);
                Ok(())
            })?;
            layers.push("net.observe_durable_p50_us", ns / 1e3);
            continue;
        }
        let ns =
            timed(&mut || stack.net.predict(uid, item).map(|_| ()).map_err(|e| e.to_string()))?;
        layers.push("net.rpc_predict_p50_us", ns / 1e3);
        let ns = timed(&mut || sim.predict(uid, item).map(|_| ()).map_err(|e| e.to_string()))?;
        layers.push("cluster.sim_predict_us", ns / 1e3);
        let ns = timed(&mut || client.list_models().map(|_| ()).map_err(|e| e.to_string()))?;
        layers.push("rest.http_noop_p50_us", ns / 1e3);

        let body = format!("{{\"uid\":{uid},\"item_id\":{item}}}");
        let t = Instant::now();
        for _ in 0..16 {
            std::hint::black_box(
                Json::parse(std::hint::black_box(&body)).map_err(|e| e.to_string())?,
            );
        }
        layers.push("rest.json_parse_ns", t.elapsed().as_nanos() as f64 / 16.0);

        let payload = Request::Predict { uid, item_id: item, no_forward: false, epoch: 1 }.encode();
        let t = Instant::now();
        for _ in 0..16 {
            let frame = encode_frame_ext(&payload, None).map_err(|e| e.to_string())?;
            let decoded = read_frame_ext(&mut frame.as_slice()).map_err(|e| e.to_string())?;
            std::hint::black_box(decoded);
        }
        layers.push("net.frame_roundtrip_ns", t.elapsed().as_nanos() as f64 / 16.0);
    }

    // The WAL alone, same policy as the nodes': append, then fsync.
    let dir = args.scratch("wal-probe");
    let (mut wal, _) = Wal::open(WalConfig::new(&dir)).map_err(|e| e.to_string())?;
    for ts in 0..(n as u64 / 4).max(50) {
        let timing = wal
            .append_timed(&Observation {
                uid: ts % USERS,
                item_id: ts % ITEMS,
                y: 0.5,
                timestamp: ts,
            })
            .map_err(|e| e.to_string())?;
        layers.push("storage.wal_append_us", us(timing.append_ns));
        layers.push("storage.wal_fsync_us", us(timing.fsync_ns));
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The traced half of a traced run, on its own stack with the program's
/// tracer sampling every request.
fn traced_segment(
    args: &RunArgs,
    budget: Duration,
    untraced_rate: Option<Summary>,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let stack = Stack::start(args, TraceConfig::sample_all())?;
    let streams = streams(args.seed, (4_000.0 * budget.as_secs_f64()) as usize + 1024, 0x7ACE);
    let epoch = Instant::now();
    let mut traces: Vec<LaneTrace> =
        (0..MAX_LANES).map(|l| LaneTrace::new(epoch, l, REPLAY_EVERY)).collect();
    let phase = closed_loop(&streams, args.warmup() / 2, budget, 1 << 14, &mut traces, |lane| {
        let client = stack.client();
        let stack = &stack;
        move |op: &Op, _: &OpStream, trace: &mut LaneTrace| {
            execute_traced(stack, &client, lane, op, trace)
        }
    });
    out.count_phase("closed_traced", phase.attempted(), phase.failed(), phase.seconds);
    if let Some(e) = phase.first_error() {
        out.check("traced_ops_succeed", false, format!("first failure: {e}"));
    }
    if let (Some(u), Some(t)) = (untraced_rate, phase.req_per_s()) {
        out.set("obs.trace_overhead_frac", "frac", 1.0 - t.value / u.value);
    }

    let mut layers = merge_layers(&mut traces);
    layer_probes(&stack, args, &mut layers)?;
    let mut p50 = |name: &str| layers.p50(name).map(|(v, _)| v);

    // Observe budget: the HTTP call, less the cluster front's span inside
    // it, is REST's share; the hops inside the front span are the rest.
    let http_obs = p50("http_observe_us");
    let front_obs = p50("net.span.observe_total_us");
    let observe_hops: Option<f64> = [
        "net.span.route_us",
        "net.span.wire_us",
        "net.span.queue_us",
        "net.span.compute_us",
        "net.span.wal_append_us",
        "net.span.wal_fsync_us",
        "net.span.ship_rt_us",
    ]
    .iter()
    .map(|n| p50(n))
    .sum();
    if let (Some(http), Some(front), Some(hops)) = (http_obs, front_obs, observe_hops) {
        let rest_share = (http - front).max(0.0);
        out.set("rest.observe_overhead_p50_us", "us", rest_share);
        let unattributed = 1.0 - (rest_share + hops) / http;
        out.set("budget.observe_unattributed_frac", "frac", unattributed);
        out.advise(
            "observe_budget_adds_up",
            unattributed.abs() < 0.15,
            format!(
                "layers sum to {:.1} of {http:.1} us; unattributed {unattributed:.3}",
                rest_share + hops
            ),
        );
        if let Some(compute) = p50("net.span.compute_us") {
            out.advise(
                "model_math_is_under_5pct_of_observe",
                compute / http < 0.05,
                format!("update compute {compute:.1} us of {http:.1} us"),
            );
        }
    }

    // Predict budget: HTTP − tier is REST's share, tier − direct the
    // lane's, and the transport's span tree covers the direct call.
    let http_pred = p50("http_predict_us");
    let (tier, direct) = (p50("tier_predict_us"), p50("tier_direct_us"));
    let predict_hops: Option<f64> = [
        "net.span.predict_route_us",
        "net.span.predict_wire_us",
        "net.span.predict_queue_us",
        "net.span.predict_compute_us",
    ]
    .iter()
    .map(|n| p50(n))
    .sum();
    if let (Some(http), Some(tier), Some(direct), Some(hops)) =
        (http_pred, tier, direct, predict_hops)
    {
        let rest_share = (http - tier).max(0.0);
        let lane_share = (tier - direct).max(0.0);
        out.set("rest.overhead_p50_us", "us", rest_share);
        out.set("serve.lane_overhead_us", "us", lane_share);
        let unattributed = 1.0 - (rest_share + lane_share + hops) / http;
        out.set("budget.predict_unattributed_frac", "frac", unattributed);
        out.advise(
            "predict_budget_adds_up",
            unattributed.abs() < 0.15,
            format!(
                "layers sum to {:.1} of {http:.1} us; unattributed {unattributed:.3}",
                rest_share + lane_share + hops
            ),
        );
    }
    // A row is filed at its median; the RPC round trip also gets its p99.
    if let Some((p99, _)) = layers.quantile("net.rpc_predict_p50_us", 0.99) {
        out.set("net.rpc_predict_p99_us", "us", p99);
    }
    layers.file_into(out);
    let undecomposed = layers.p50("undecomposed").map_or(0, |(_, n)| n);
    out.advise(
        "span_trees_have_the_canonical_shape",
        undecomposed == 0,
        format!("{undecomposed} trees undecomposed"),
    );

    let harness_spans: usize = traces.iter().map(|t| t.spans.spans().len()).sum();
    let harness_dropped: u64 = traces.iter().map(|t| t.spans.dropped()).sum();
    out.set("obs.harness_spans", "count", harness_spans as f64);
    out.set(
        "obs.spans_dropped",
        "count",
        (harness_dropped + stack.net.tracer().spans_dropped()) as f64,
    );
    file_counters(&stack, out);
    stack.check_acks("traced", out);
    let buffers: Vec<_> = traces.into_iter().map(|t| t.spans).collect();
    crate::write_trace(args, NAME, &buffers);
    stack.shutdown();
    Ok(())
}

/// Runs workload 3.
pub fn run(args: &RunArgs) -> WorkloadResult {
    let mut out = WorkloadResult::new(NAME, args.seed, args.seconds, args.trace);
    if let Err(e) = run_inner(args, &mut out) {
        out.check("workload_ran", false, e);
    }
    out.set("failed_frac", "frac", ratio(out.failed, out.attempted));
    out.set("peak_rss_mb", "MB", peak_rss_mb());
    out
}

fn run_inner(args: &RunArgs, out: &mut WorkloadResult) -> Result<(), String> {
    let total = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { total / 2 } else { total };

    // Whatever ran before this process leaves the box slow for a while: a
    // run started right after workload 2 exits read 519, 472 and 462 µs at
    // `predict_p50_us`, its first rounds 540–630 µs, where runs started six
    // seconds later read 457, 452 and 411 µs. Nothing is timed until then.
    if !args.smoke {
        std::thread::sleep(SETTLE);
    }

    // Set-up, repeated and timed: the stack alone, torn down again.
    let mut setups = Vec::new();
    for _ in 0..args.setup_reps(60) {
        let started = Instant::now();
        let cold = Stack::start_cold(args, TraceConfig::off())?;
        setups.push(started.elapsed().as_secs_f64());
        cold.shutdown();
    }
    let stack = Stack::start(args, TraceConfig::off())?;
    out.set_summary("setup_s", "s", Summary::of(&setups, setups.len(), Pick::Low));

    let rate = untraced_phases(&stack, args, untraced_budget, out);
    file_counters(&stack, out);
    stack.check_acks("measured", out);
    stack.shutdown();

    if args.trace {
        traced_segment(args, total / 4, rate, out)?;
    }

    let first = verification_checksum(args, out, "verify_a");
    let second = verification_checksum(args, out, "verify_b");
    out.check_checksums(first, second);
    Ok(())
}

/// The connection-per-request soak: a closed loop on two connections for
/// `seconds`, reporting failures (a port-exhausted connect is one).
pub fn soak(args: &RunArgs, seconds: u64) -> WorkloadResult {
    let mut out = WorkloadResult::new("rest_soak", args.seed, seconds, false);
    match Stack::start(args, TraceConfig::off()) {
        Err(e) => out.check("soak_ran", false, e),
        Ok(stack) => {
            let streams = streams(args.seed, 1 << 16, 0x50A4);
            let phase = run_closed(&stack, &streams, args.warmup(), Duration::from_secs(seconds));
            out.count_phase("soak", phase.attempted(), phase.failed(), phase.seconds);
            out.set_summary("req_per_s", "1/s", phase.req_per_s());
            latency_rows(&mut out, "", std::slice::from_ref(&phase), sliced_percentile);
            if let Some(e) = phase.first_error() {
                out.check("no_connect_errors", false, format!("first failure: {e}"));
            }
            file_counters(&stack, &mut out);
            stack.check_acks("soak", &mut out);
            stack.shutdown();
        }
    }
    out.set("failed_frac", "frac", ratio(out.failed, out.attempted));
    out
}
