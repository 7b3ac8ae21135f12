//! End-to-end distributed tracing over both transport backends.
//!
//! The claims under test:
//!
//! 1. **Backend identity** — the same deterministic workload served by the
//!    in-process simulator and by the loopback TCP runtime produces
//!    *structurally identical* span trees (same kinds, same nodes, same
//!    nesting) for every request. The simulator emits synthetic spans in
//!    the exact shape the real RPC path records, which is what makes a
//!    trace read the same no matter which backend served it.
//! 2. **Failover visibility** — a request served after its home node is
//!    killed carries an explicit `failover` hop in its trace.
//! 3. **Propagation survives the wire** — node-side spans (server recv,
//!    node work, ship/apply) are recorded on the *receiving* node and
//!    still reassemble under the front's root via the frame-header
//!    extension.

use std::sync::Arc;

use velox_cluster::transport::Transport;
use velox_cluster::{Cluster, ClusterConfig, SimTransport};
use velox_net::{NetCluster, NetClusterConfig};
use velox_obs::{build_tree, structure, SpanKind, TraceConfig, Tracer, FRONT_NODE};

const DIM: usize = 3;
const N_NODES: usize = 3;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 5) as f64 / 4.0).collect()
}

fn seeded_items() -> Vec<(u64, Vec<f64>)> {
    (0..16u64).map(|i| (i, item_features(i))).collect()
}

fn start_net(trace: TraceConfig) -> NetCluster {
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        trace,
        ..Default::default()
    })
    .expect("start loopback cluster");
    net.publish_item_features(seeded_items());
    net
}

fn start_sim(trace: TraceConfig) -> SimTransport {
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        item_replication: N_NODES,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        cluster.put_item_features(item, x);
    }
    SimTransport::with_trace(cluster, trace)
}

/// Structure string of one trace as its backend recorded it.
fn trace_structure(tracer: &Tracer, trace_id: u64) -> String {
    structure(&build_tree(&tracer.collect(trace_id)))
}

/// One request of the deterministic workload: observe or predict.
#[derive(Clone, Copy)]
enum Op {
    Predict(u64, u64),
    Observe(u64, u64, f64),
}

fn workload() -> Vec<Op> {
    // Mix of users (different home nodes) and items; observes first so
    // predicts hit warm weights.
    let mut ops = Vec::new();
    for uid in [1u64, 4, 7, 11] {
        for item in [0u64, 3, 9] {
            ops.push(Op::Observe(uid, item, 1.0));
        }
    }
    for uid in [1u64, 4, 7, 11] {
        ops.push(Op::Predict(uid, 3));
    }
    ops
}

/// Runs one op, returning the structure string of the trace it recorded.
fn run_op(backend: &dyn Transport, tracer: &Tracer, op: Op) -> String {
    let trace_id = match op {
        Op::Predict(uid, item) => {
            backend.predict_traced(uid, item, None).expect("predict").trace_id
        }
        Op::Observe(uid, item, y) => {
            backend.observe_traced(uid, item, y, None).expect("observe").trace_id
        }
    };
    trace_structure(tracer, trace_id.expect("sample_all records every request"))
}

#[test]
fn sim_and_tcp_produce_structurally_identical_span_trees() {
    let sim = start_sim(TraceConfig::sample_all());
    let net = start_net(TraceConfig::sample_all());
    let sim_tracer = Transport::tracer(&sim);
    let net_tracer = net.tracer();

    for (i, op) in workload().into_iter().enumerate() {
        let sim_structure = run_op(&sim, &sim_tracer, op);
        let net_structure = run_op(&net, &net_tracer, op);
        assert_eq!(
            sim_structure, net_structure,
            "op {i}: backends disagree on the span tree shape"
        );
        // Sanity: the tree has real depth (front → rpc → server → work),
        // not just a root.
        assert!(sim_structure.contains("rpc_call@front(server_recv@"), "op {i}: {sim_structure}");
    }
    assert_eq!(net_tracer.spans_dropped(), 0, "sequential workload must not drop spans");
}

#[test]
fn observe_trace_shows_replica_ship_round_trip() {
    let net = start_net(TraceConfig::sample_all());
    let tracer = net.tracer();
    let uid = 7u64;
    let home = net.home_of_user(uid);
    let ack = net.observe_traced(uid, 3, 1.0, None).expect("observe");
    assert_eq!(ack.shipped_to, 1);
    let s = trace_structure(&tracer, ack.trace_id.unwrap());
    let replica = (home + 1) % N_NODES;
    let ship = format!("ship_replica@{home}(server_recv@{replica}(ship_apply@{replica}))");
    assert!(s.contains(&ship), "trace {s} must contain the ship round trip {ship}");
    assert!(s.starts_with("cluster_observe@front(route@front,rpc_call@front("), "trace {s}");
}

#[test]
fn killed_owner_failover_appears_as_a_hop_in_the_trace() {
    let net = start_net(TraceConfig::sample_all());
    let tracer = net.tracer();
    let uid = 4u64;
    let home = net.home_of_user(uid);
    net.observe_traced(uid, 1, 1.0, None).expect("warm observe");
    net.kill_node(home);

    let p = net.predict_traced(uid, 1, None).expect("failover predict");
    assert!(p.routed);
    assert_ne!(p.node, home);
    let s = trace_structure(&tracer, p.trace_id.unwrap());
    assert!(s.contains("failover@front"), "failover hop missing from trace: {s}");
    assert!(
        s.contains(&format!("server_recv@{}(node_predict@{})", p.node, p.node)),
        "trace must show the replica serving: {s}"
    );

    // The simulator shows the same failover shape for the same fault.
    let sim = start_sim(TraceConfig::sample_all());
    let sim_tracer = Transport::tracer(&sim);
    sim.observe_traced(uid, 1, 1.0, None).expect("sim warm observe");
    sim.cluster().kill_node(home);
    let sp = sim.predict_traced(uid, 1, None).expect("sim failover predict");
    let sim_s = trace_structure(&sim_tracer, sp.trace_id.unwrap());
    assert!(sim_s.contains("failover@front"), "sim failover hop missing: {sim_s}");
}

#[test]
fn wal_spans_attribute_fsync_time_when_durability_is_on() {
    let dir = tempdir();
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        wal_root: Some(dir.clone()),
        workers: 8,
        trace: TraceConfig::sample_all(),
        ..Default::default()
    })
    .expect("start durable cluster");
    net.publish_item_features(seeded_items());
    let tracer = net.tracer();

    let ack = net.observe_traced(9, 2, 1.0, None).expect("durable observe");
    let spans = tracer.collect(ack.trace_id.unwrap());
    let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
    assert!(kinds.contains(&SpanKind::WalAppend), "missing wal_append span: {kinds:?}");
    // The owner's WAL append span sits on the owning node, not the front.
    let wal = spans.iter().find(|s| s.kind == SpanKind::WalAppend).unwrap();
    assert_ne!(wal.node, FRONT_NODE);
    assert_eq!(wal.node as usize, ack.node);
    let _ = std::fs::remove_dir_all(&dir);
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("velox-trace-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    dir
}

#[test]
fn untraced_cluster_records_nothing_and_reports_no_ids() {
    let net = start_net(TraceConfig::off());
    let tracer = net.tracer();
    let p = net.predict(3, 1).expect("predict");
    assert!(p.trace_id.is_none());
    assert_eq!(tracer.spans_recorded(), 0);
    assert!(tracer.kept().is_empty());
}

#[test]
fn tail_sampling_keeps_only_slow_requests_under_head_off() {
    // Head sampling off, slow threshold 0 ns: every request is "slow",
    // so every request is kept — exercising the tail path end to end.
    let net = start_net(TraceConfig {
        sample_one_in: 0,
        slow_threshold_ns: Some(0),
        ..TraceConfig::default()
    });
    let tracer = net.tracer();
    net.predict(5, 1).expect("predict");
    let slow = tracer.slow();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].root_kind, SpanKind::ClusterPredict);
}
