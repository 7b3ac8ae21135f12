//! The REST layer fronting a real multi-node TCP cluster: `/cluster/*`
//! routes dispatch over the `Transport` trait, so the same HTTP surface
//! serves the in-process simulator and `velox-net`'s loopback runtime.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use velox_cluster::{Cluster, ClusterConfig, SimTransport};
use velox_net::{NetCluster, NetClusterConfig};
use velox_rest::json::Json;
use velox_rest::{ClientError, ClusterBackend, RestServer, VeloxClient};
use velox_serve::ServeTier;

const DIM: usize = 3;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 5) as f64 / 4.0).collect()
}

fn seeded_items() -> Vec<(u64, Vec<f64>)> {
    (0..16u64).map(|i| (i, item_features(i))).collect()
}

fn start_net_cluster() -> Arc<NetCluster> {
    let cluster = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        ..Default::default()
    })
    .expect("start loopback cluster");
    cluster.publish_item_features(seeded_items());
    Arc::new(cluster)
}

fn rest_over(backend: ClusterBackend) -> velox_rest::RestHandle {
    RestServer::new(Arc::new(ServeTier::new()))
        .with_cluster(backend)
        .serve("127.0.0.1:0")
        .expect("bind")
}

#[test]
fn cluster_routes_serve_over_real_sockets() {
    let net = start_net_cluster();
    let handle = rest_over(Arc::clone(&net) as ClusterBackend);
    let client = VeloxClient::new(handle.addr(), "unused");

    let uid = 7u64;
    let home = net.home_of_user(uid);
    for i in 0..20u64 {
        let ack = client.cluster_observe(uid, i % 16, 1.0).expect("observe over REST");
        assert_eq!(ack.node, home, "observe must land at the owner");
        assert_eq!(ack.shipped_to, 1, "replica ships before the ack");
    }
    let p = client.cluster_predict(uid, 3).expect("predict over REST");
    assert_eq!(p.node, home);
    assert!(!p.routed);
    assert!(!p.cold_start);
    assert!(p.score.is_finite());

    assert_eq!(client.cluster_health().expect("health"), vec!["up", "up", "up"]);
    handle.shutdown();
}

#[test]
fn cluster_health_reports_detector_liveness() {
    let net = start_net_cluster();
    let handle = rest_over(Arc::clone(&net) as ClusterBackend);
    let client = VeloxClient::new(handle.addr(), "unused");

    // Give the heartbeat prober a few rounds to mark every peer alive.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let resp = client.cluster_health_full().expect("health");
        let nodes = resp.get("nodes").and_then(Json::as_array).expect("nodes array");
        assert_eq!(nodes.len(), 3);
        let all_alive = nodes.iter().all(|n| {
            n.get("liveness").and_then(Json::as_str) == Some("alive")
                && n.get("probes").and_then(Json::as_u64).unwrap_or(0) > 0
        });
        for n in nodes {
            assert!(n.get("liveness").is_some(), "liveness field present: {n:?}");
            assert!(n.get("misses").is_some(), "misses field present");
            assert!(n.get("last_rtt_us").is_some(), "last_rtt_us field present");
        }
        if all_alive {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "detector never marked all nodes alive");
        std::thread::sleep(Duration::from_millis(25));
    }
    handle.shutdown();
}

#[test]
fn cluster_routes_survive_node_kill_with_failover() {
    let net = start_net_cluster();
    let handle = rest_over(Arc::clone(&net) as ClusterBackend);
    let client = VeloxClient::new(handle.addr(), "unused");

    let uid = 4u64;
    let home = net.home_of_user(uid);
    client.cluster_observe(uid, 1, 1.0).expect("observe");
    net.kill_node(home);

    let health = client.cluster_health().expect("health");
    assert_eq!(health[home], "down");

    let p = client.cluster_predict(uid, 1).expect("failover predict over REST");
    assert!(p.routed, "predict must fail over off the dead home");
    assert_ne!(p.node, home);
    handle.shutdown();
}

#[test]
fn same_routes_serve_the_in_process_simulator() {
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        item_replication: 3,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        sim_cluster.put_item_features(item, x);
    }
    let sim = Arc::new(SimTransport::new(sim_cluster, 0.0));
    let handle = rest_over(sim as ClusterBackend);
    let client = VeloxClient::new(handle.addr(), "unused");

    client.cluster_observe(3, 2, 1.0).expect("sim observe over REST");
    let p = client.cluster_predict(3, 2).expect("sim predict over REST");
    assert!(!p.cold_start);
    assert!(p.score.is_finite());

    // `1e999` is valid JSON that parses to +∞: a 400, and the weights it
    // would have poisoned still serve the same score.
    let body = r#"{"uid": 3, "item_id": 2, "y": 1e999}"#;
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(
        stream,
        "POST /cluster/observe HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 400"), "non-finite y must be a 400: {response}");
    assert!(response.contains("finite"));
    let again = client.cluster_predict(3, 2).expect("predict after the rejected observe");
    assert_eq!(again.score.to_bits(), p.score.to_bits());
    assert_eq!(client.cluster_health().expect("health"), vec!["up", "up", "up"]);
    handle.shutdown();
}

#[test]
fn membership_routes_reject_rebalance_and_commit_over_http() {
    // A dedicated cluster with join headroom: the happy-path rebalance
    // needs a joinable slot (`max_nodes` > `n_nodes`).
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        max_nodes: 4,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        ..Default::default()
    })
    .expect("start loopback cluster");
    net.publish_item_features(seeded_items());
    let net = Arc::new(net);
    let handle = rest_over(Arc::clone(&net) as ClusterBackend);
    let client = VeloxClient::new(handle.addr(), "unused");

    for uid in 0..12u64 {
        client.cluster_observe(uid, uid % 16, 1.0).expect("seed observe");
    }

    // Typed membership rejections surface as 4xx, not 5xx.
    match client.cluster_rebalance(99) {
        Err(ClientError::Server { status: 400, .. }) => {}
        other => panic!("rebalance to unknown node must 400, got {other:?}"),
    }
    match client.cluster_failover(99) {
        Err(ClientError::Server { status: 400, .. }) => {}
        other => panic!("failover of unknown node must 400, got {other:?}"),
    }
    match client.cluster_failover(0) {
        Err(ClientError::Server { status: 400, .. }) => {}
        other => panic!("failover of a live member must 400, got {other:?}"),
    }

    // The kill switch round-trips through the health view's membership
    // plane.
    let membership = |h: &Json| h.get("membership").cloned().expect("membership plane");
    assert!(!client.cluster_set_auto_rebalance(false).expect("disable auto-rebalance"));
    let m = membership(&client.cluster_health_full().expect("health"));
    assert_eq!(m.get("auto_rebalance").and_then(Json::as_bool), Some(false));
    assert!(client.cluster_set_auto_rebalance(true).expect("re-enable auto-rebalance"));
    let m = membership(&client.cluster_health_full().expect("health"));
    assert_eq!(m.get("auto_rebalance").and_then(Json::as_bool), Some(true));

    // Happy path: join a node directly, then hand partitions to it over
    // HTTP and read the committed outcome back out of the ledger.
    let dst = net.join_node().expect("join");
    let moved = client.cluster_rebalance(dst).expect("rebalance over REST");
    assert!(!moved.is_empty(), "join plan must hand over at least one partition");
    let m = membership(&client.cluster_health_full().expect("health"));
    let migrations = m.get("migrations").and_then(Json::as_array).expect("migrations ledger");
    let committed = migrations
        .iter()
        .filter(|e| e.get("outcome").and_then(Json::as_str) == Some("committed"))
        .count();
    assert_eq!(committed, moved.len(), "one committed ledger entry per moved partition");
    for e in migrations {
        assert!(e.get("chunks_streamed").and_then(Json::as_u64).unwrap_or(0) > 0);
    }
    assert!(m.get("migrations_total").and_then(Json::as_u64).unwrap_or(0) >= moved.len() as u64);

    // Idle cancel reports nothing in flight. Last on purpose: the cancel
    // flag stays armed for the next migration.
    assert!(!client.cluster_cancel_migration().expect("cancel"));
    handle.shutdown();
}

#[test]
fn cluster_routes_404_without_a_backend() {
    let handle = RestServer::new(Arc::new(ServeTier::new())).serve("127.0.0.1:0").expect("bind");
    let client = VeloxClient::new(handle.addr(), "unused");
    match client.cluster_predict(1, 1) {
        Err(ClientError::Server { status: 404, .. }) => {}
        other => panic!("expected 404 without a cluster backend, got {other:?}"),
    }
    handle.shutdown();
}
