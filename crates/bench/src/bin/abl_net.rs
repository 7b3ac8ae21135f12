//! NET-LAT — predict/observe latency over real sockets, local vs routed.
//!
//! The paper serves predictions "with low latency" over an RPC boundary
//! (§3, §8) and routes each request to the node holding the user's
//! weights. This experiment prices that boundary on a 3-node loopback TCP
//! cluster (`velox-net`): wall-clock p50/p99 for
//!
//! - `in-process`: the simulator behind the same `Transport` trait — the
//!   no-sockets floor;
//! - `net local`: client-side routing straight to the owning node (one
//!   RPC round trip);
//! - `net routed`: a deliberately mis-addressed request that a non-owner
//!   must forward one hop to the owner (two round trips);
//! - `net observe`: an acknowledged online update — WAL append plus
//!   synchronous log shipping to the replica before the ack.
//!
//! A second, fully traced phase (separate cluster with the WAL on and
//! `sample_all`) breaks each request down **per hop** from its span tree:
//! wire + serialize time (client RPC span minus server recv span), server
//! queue wait (recv span minus the work span), node compute, WAL append
//! and fsync, and the synchronous replica ship round trip. This is the
//! "where did the p99 go" table the histograms alone cannot produce.
//!
//! `--smoke` runs a smaller workload and exits non-zero unless every
//! request is served and routed answers are bit-identical to local ones —
//! the CI gate for the TCP serving path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use velox_bench::{print_header, print_row};
use velox_cluster::{Cluster, ClusterConfig, SimTransport, Transport};
use velox_linalg::stats::LatencySummary;
use velox_net::{NetClientConfig, NetCluster, NetClusterConfig, Request, Response};
use velox_obs::{build_tree, SpanKind, TraceConfig, TraceNode};

const N_USERS: u64 = 64;
const N_ITEMS: u64 = 256;
const DIM: usize = 16;
const N_NODES: usize = 3;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 17) as f64 / 16.0).collect()
}

fn seeded_items() -> Vec<(u64, Vec<f64>)> {
    (0..N_ITEMS).map(|i| (i, item_features(i))).collect()
}

fn summary_row(name: &str, samples: &[f64]) {
    let s = LatencySummary::from_samples(samples).expect("samples");
    print_row(&[
        name.to_string(),
        s.n.to_string(),
        format!("{:.1}", s.p50),
        format!("{:.1}", s.p99),
        format!("{:.1}", s.mean),
        format!("{:.1}", s.max),
    ]);
}

fn timed_us(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e6
}

/// Per-hop latency samples (µs), keyed by row label in display order.
#[derive(Default)]
struct HopAgg {
    rows: BTreeMap<&'static str, Vec<f64>>,
}

impl HopAgg {
    fn push(&mut self, row: &'static str, ns: u64) {
        self.rows.entry(row).or_default().push(ns as f64 / 1e3);
    }
}

fn child_of(node: &TraceNode, kind: SpanKind) -> Option<&TraceNode> {
    node.children.iter().find(|c| c.span.kind == kind)
}

/// Decomposes one predict trace along its known span chain:
/// `cluster_predict(route, rpc_call(server_recv(node_predict)))`.
fn predict_hops(agg: &mut HopAgg, root: &TraceNode) -> bool {
    let (Some(rpc), Some(route)) =
        (child_of(root, SpanKind::RpcCall), child_of(root, SpanKind::Route))
    else {
        return false;
    };
    let Some(sr) = child_of(rpc, SpanKind::ServerRecv) else { return false };
    let Some(work) = child_of(sr, SpanKind::NodePredict) else { return false };
    agg.push("p1 route decision", route.span.duration_ns());
    agg.push("p2 wire + serialize", rpc.span.duration_ns().saturating_sub(sr.span.duration_ns()));
    agg.push("p3 server queue wait", sr.span.duration_ns().saturating_sub(work.span.duration_ns()));
    agg.push("p4 node compute", work.span.duration_ns());
    true
}

/// Decomposes one observe trace: `cluster_observe(route,
/// rpc_call(server_recv(node_observe(wal_append, wal_fsync?,
/// ship_replica(server_recv(ship_apply))))))`. The fsync span is the
/// local wait no ship round trip hid: zero-length when the owner's sync
/// ran inside the ship, absent without a WAL.
fn observe_hops(agg: &mut HopAgg, root: &TraceNode) -> bool {
    let Some(rpc) = child_of(root, SpanKind::RpcCall) else { return false };
    let Some(sr) = child_of(rpc, SpanKind::ServerRecv) else { return false };
    let Some(work) = child_of(sr, SpanKind::NodeObserve) else { return false };
    agg.push("o1 wire + serialize", rpc.span.duration_ns().saturating_sub(sr.span.duration_ns()));
    agg.push("o2 server queue wait", sr.span.duration_ns().saturating_sub(work.span.duration_ns()));
    let mut accounted = 0u64;
    if let Some(append) = child_of(work, SpanKind::WalAppend) {
        agg.push("o3 wal append", append.span.duration_ns());
        accounted += append.span.duration_ns();
    }
    if let Some(fsync) = child_of(work, SpanKind::WalFsync) {
        agg.push("o4 wal fsync", fsync.span.duration_ns());
        accounted += fsync.span.duration_ns();
    }
    let Some(ship) = child_of(work, SpanKind::ShipReplica) else { return false };
    accounted += ship.span.duration_ns();
    agg.push("o5 update compute", work.span.duration_ns().saturating_sub(accounted));
    agg.push("o6 replica ack (ship rt)", ship.span.duration_ns());
    if let Some(rsr) = child_of(ship, SpanKind::ServerRecv) {
        agg.push("o7 ship wire", ship.span.duration_ns().saturating_sub(rsr.span.duration_ns()));
        if let Some(apply) = child_of(rsr, SpanKind::ShipApply) {
            agg.push("o8 replica apply", apply.span.duration_ns());
        }
    }
    true
}

/// The traced phase: a separate durable cluster with `sample_all`, every
/// request's span tree decomposed into the per-hop table.
fn hop_breakdown(iters: usize, smoke: bool) {
    let wal_root = std::env::temp_dir().join(format!("velox-net-lat-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    std::fs::create_dir_all(&wal_root).expect("wal dir");
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        wal_root: Some(wal_root.clone()),
        workers: 8,
        client: NetClientConfig { request_timeout: Duration::from_secs(5), ..Default::default() },
        trace: TraceConfig::sample_all(),
        ..Default::default()
    })
    .expect("start traced cluster");
    net.publish_item_features(seeded_items());
    let tracer = net.tracer();

    let mut agg = HopAgg::default();
    let mut undecomposed = 0usize;
    for i in 0..iters {
        let uid = i as u64 % N_USERS;
        let item = (i as u64 * 7) % N_ITEMS;
        let y = if i % 2 == 0 { 1.0 } else { 0.0 };
        // Collect immediately after each request: the span rings are
        // bounded, so a trace must be read before later ones evict it.
        let ack = net.observe_traced(uid, item, y, None).expect("traced observe");
        let tree = build_tree(&tracer.collect(ack.trace_id.expect("sampled")));
        if !(tree.len() == 1 && observe_hops(&mut agg, &tree[0])) {
            undecomposed += 1;
        }
        let p = net.predict_traced(uid, item, None).expect("traced predict");
        let tree = build_tree(&tracer.collect(p.trace_id.expect("sampled")));
        if !(tree.len() == 1 && predict_hops(&mut agg, &tree[0])) {
            undecomposed += 1;
        }
    }

    print_header(
        "Per-hop latency breakdown from spans (µs; p* = predict hops, o* = observe hops)",
        &["hop", "n", "p50", "p99", "mean", "max"],
    );
    for (row, samples) in &agg.rows {
        summary_row(row, samples);
    }
    println!(
        "\n{} spans recorded, {} dropped, {undecomposed}/{} traces undecomposed",
        tracer.spans_recorded(),
        tracer.spans_dropped(),
        iters * 2
    );
    let _ = std::fs::remove_dir_all(&wal_root);

    if smoke {
        let mut ok = true;
        if undecomposed != 0 {
            eprintln!("SMOKE FAIL: {undecomposed} traces did not match the canonical span chain");
            ok = false;
        }
        for row in
            ["p2 wire + serialize", "p4 node compute", "o3 wal append", "o6 replica ack (ship rt)"]
        {
            let n = agg.rows.get(row).map_or(0, Vec::len);
            if n != iters {
                eprintln!("SMOKE FAIL: hop row '{row}' has {n}/{iters} samples");
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("smoke: per-hop breakdown gates passed");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: usize = if smoke { 2_000 } else { 20_000 };
    let warmup: u64 = 4;

    println!("# NET-LAT: serving latency over real sockets, local vs routed (§3, §8)");
    println!(
        "\n{N_NODES}-node loopback TCP cluster, 2x user replication, {N_USERS} users, \
         {N_ITEMS} items, dim {DIM}, {iters} requests per class"
    );

    // The two backends behind one trait: simulator floor + TCP runtime.
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        item_replication: N_NODES,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        sim_cluster.put_item_features(item, x);
    }
    let sim = SimTransport::new(sim_cluster, 0.0);
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        client: NetClientConfig { request_timeout: Duration::from_secs(5), ..Default::default() },
        ..Default::default()
    })
    .expect("start loopback cluster");
    net.publish_item_features(seeded_items());

    // Warm every user on both backends so predicts are never cold and the
    // backends stay bit-identical.
    for uid in 0..N_USERS {
        for i in 0..warmup {
            let item = (uid + i) % N_ITEMS;
            let y = if (uid + i) % 3 == 0 { 1.0 } else { 0.0 };
            sim.observe(uid, item, y).expect("sim warm");
            net.observe(uid, item, y).expect("net warm");
        }
    }

    let mut lat_sim = Vec::with_capacity(iters);
    let mut lat_local = Vec::with_capacity(iters);
    let mut lat_routed = Vec::with_capacity(iters);
    let mut lat_observe = Vec::with_capacity(iters);
    let mut served = 0usize;
    let mut forwarded = 0usize;
    let mut mismatches = 0usize;

    for i in 0..iters {
        let uid = i as u64 % N_USERS;
        let item = (i as u64 * 7) % N_ITEMS;
        let owner = net.home_of_user(uid);
        let non_owner = net.client((owner + 1) % N_NODES).expect("live non-owner");

        let mut sim_score = f64::NAN;
        lat_sim.push(timed_us(|| sim_score = sim.predict(uid, item).expect("sim predict").score));

        let mut local_score = f64::NAN;
        lat_routed.push(timed_us(|| {
            match non_owner
                .call(&Request::Predict { uid, item_id: item, no_forward: false, epoch: 0 })
                .expect("routed predict")
            {
                Response::Predicted { score, forwarded: f, .. } => {
                    if f {
                        forwarded += 1;
                    }
                    local_score = score; // checked against the local path below
                }
                other => panic!("unexpected routed reply {other:?}"),
            }
        }));
        let routed_score = local_score;

        lat_local.push(timed_us(|| {
            let p = net.predict(uid, item).expect("local predict");
            local_score = p.score;
        }));
        served += 1;

        // The forwarded hop answers with the owner's exact floats; any
        // divergence from the local path (or the simulator) is a bug.
        if routed_score.to_bits() != local_score.to_bits()
            || sim_score.to_bits() != local_score.to_bits()
        {
            mismatches += 1;
        }

        let y = if i % 2 == 0 { 1.0 } else { 0.0 };
        lat_observe.push(timed_us(|| {
            net.observe(uid, item, y).expect("net observe");
        }));
        // Keep the simulator in lockstep (untimed) so scores stay
        // bit-identical next iteration.
        sim.observe(uid, item, y).expect("sim observe");
    }

    print_header(
        "Wall-clock latency per request class (µs)",
        &["class", "n", "p50", "p99", "mean", "max"],
    );
    summary_row("in-process (sim)", &lat_sim);
    summary_row("net local (1 hop)", &lat_local);
    summary_row("net routed (2 hops)", &lat_routed);
    summary_row("net observe (WAL+ship)", &lat_observe);

    println!("\nserved {served}/{iters} predict pairs; {forwarded} routed replies forwarded");
    println!("score mismatches across sim / local / routed paths: {mismatches}");

    hop_breakdown(if smoke { 400 } else { 4_000 }, smoke);

    if smoke {
        let mut ok = true;
        if served != iters {
            eprintln!("SMOKE FAIL: served {served}/{iters}");
            ok = false;
        }
        if forwarded != iters {
            eprintln!("SMOKE FAIL: only {forwarded}/{iters} mis-addressed requests forwarded");
            ok = false;
        }
        if mismatches != 0 {
            eprintln!("SMOKE FAIL: {mismatches} score mismatches between serving paths");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("smoke: all gates passed");
    }
}
