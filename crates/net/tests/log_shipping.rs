//! Loopback multi-node integration: end-to-end serving, WAL log
//! shipping, and crash recovery over real TCP sockets.
//!
//! These tests are the acceptance gate for the `velox-net` subsystem:
//!
//! - a 3-node loopback cluster serves predict/observe with routing to the
//!   owning node (both client-side routing and one-hop forwarding);
//! - the TCP backend computes bit-identical scores to the in-process
//!   simulator behind the same `Transport` trait;
//! - killing the owner — even losing its disk — loses **no acknowledged
//!   observation**: replicas hold every shipped record in their own WALs
//!   and recovery replays them in timestamp order;
//! - a scripted `FaultPlan` kills and recovers real servers mid-workload.

use std::collections::HashMap;
use std::sync::Arc;

use velox_cluster::data::linalg::{IncrementalRidge, Vector};
use velox_cluster::transport::{
    ridge_observe, SimTransport, Transport, TransportError, RIDGE_LAMBDA,
};
use velox_cluster::{
    Cluster, ClusterConfig, FaultAction, FaultEvent, FaultPlan, PartitionMap, PeerState,
};
use velox_net::{
    Handler, NetCluster, NetClusterConfig, NodeConfig, NodeMetrics, NodeServer, PeerTable, Request,
    Response,
};
use velox_obs::Tracer;
use velox_storage::{Observation, ScratchDir, Wal, WalConfig};

const DIM: usize = 3;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 5) as f64 / 4.0).collect()
}

fn seeded_items() -> Vec<(u64, Vec<f64>)> {
    (0..24u64).map(|i| (i, item_features(i))).collect()
}

fn start_net(wal_root: Option<&ScratchDir>, user_replication: usize) -> NetCluster {
    let cluster = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        user_replication,
        wal_root: wal_root.map(|d| d.path().to_path_buf()),
        workers: 8,
        ..Default::default()
    })
    .expect("start loopback cluster");
    cluster.publish_item_features(seeded_items());
    cluster
}

/// A deterministic little workload: (uid, item, label) triples.
fn workload(n: usize) -> Vec<(u64, u64, f64)> {
    (0..n as u64).map(|i| (i % 7, i % 24, if (i * i) % 3 == 0 { 1.0 } else { 0.0 })).collect()
}

#[test]
fn three_node_cluster_serves_predict_and_observe_end_to_end() {
    let net = start_net(None, 2);
    for (uid, item, y) in workload(50) {
        let ack = net.observe(uid, item, y).expect("observe acked");
        assert_eq!(ack.node, net.home_of_user(uid), "observe must land at the owner");
        assert_eq!(ack.shipped_to, 1, "one replica must receive the record before the ack");
    }
    for uid in 0..7u64 {
        let p = net.predict(uid, (uid * 3) % 24).expect("predict");
        assert_eq!(p.node, net.home_of_user(uid), "predict must be served by the owner");
        assert!(!p.routed, "client-side routing hits the owner directly");
        assert!(!p.cold_start, "observed users must not be cold");
        assert!(p.score.is_finite());
    }
}

#[test]
fn non_owner_forwards_one_hop_to_the_owner() {
    let net = start_net(None, 1);
    net.observe(5, 2, 1.0).expect("observe");
    let home = net.home_of_user(5);
    let other = (home + 1) % 3;
    let direct = net.client(home).unwrap();
    let via = net.client(other).unwrap();

    let at_home = direct
        .call(&Request::Predict { uid: 5, item_id: 2, no_forward: false, epoch: 0 })
        .expect("direct call");
    let via_other = via
        .call(&Request::Predict { uid: 5, item_id: 2, no_forward: false, epoch: 0 })
        .expect("routed call");
    match (at_home, via_other) {
        (
            Response::Predicted { score: a, forwarded: f1, node: n1, .. },
            Response::Predicted { score: b, forwarded: f2, node: n2, .. },
        ) => {
            assert_eq!(a, b, "forwarded answer must match the owner's");
            assert!(!f1, "owner answers locally");
            assert!(f2, "non-owner must take the forwarding hop");
            assert_eq!(n1, home as u32);
            assert_eq!(n2, home as u32, "forwarded reply reports the owner as the scorer");
        }
        other => panic!("unexpected responses: {other:?}"),
    }
}

/// The same single-threaded workload through the simulator and through
/// real sockets must produce bit-identical scores: both backends share
/// routing (same salts), the ridge update routine, and the accumulation
/// order.
#[test]
fn tcp_backend_agrees_with_in_process_simulator() {
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        item_replication: 3,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        sim_cluster.put_item_features(item, x);
    }
    let sim = SimTransport::new(sim_cluster, 0.0);
    let net = start_net(None, 2);

    for (uid, item, y) in workload(120) {
        let a = sim.observe(uid, item, y).expect("sim observe");
        let b = net.observe(uid, item, y).expect("net observe");
        assert_eq!(a.node, b.node, "both backends must route uid {uid} to the same owner");
    }
    for uid in 0..7u64 {
        for item in 0..24u64 {
            let a = sim.predict(uid, item).expect("sim predict");
            let b = net.predict(uid, item).expect("net predict");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "backends disagree at uid {uid} item {item}: sim {} vs net {}",
                a.score,
                b.score
            );
        }
    }
}

/// An item published with a non-finite feature component is
/// `Unavailable` on both backends, for predicts and observes alike — never
/// a NaN score, never a poisoned weight vector — including an item whose
/// earlier, finite features it replaces. Finite items published in the
/// same batch still serve.
#[test]
fn non_finite_item_features_are_unavailable_on_both_backends() {
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        item_replication: 3,
        ..Default::default()
    }));
    let sim = SimTransport::new(Arc::clone(&sim_cluster), 0.0);
    let net = start_net(None, 2);
    let bad_items = 100..104u64;
    let republished = 103;
    sim_cluster.publish_item_features(vec![(republished, item_features(3))]);
    net.publish_item_features(vec![(republished, item_features(3))]);
    let mut entries: Vec<(u64, Vec<f64>)> = bad_items
        .clone()
        .zip([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN])
        .map(|(item, v)| (item, vec![0.5, v, 0.25]))
        .collect();
    entries.push((104, item_features(4)));
    sim_cluster.publish_item_features(entries.clone());
    net.publish_item_features(entries);

    let backends: [(&str, &dyn Transport); 2] = [("sim", &sim), ("net", &net)];
    for (name, t) in backends {
        for uid in 0..7u64 {
            for item in bad_items.clone() {
                let predict = t.predict(uid, item).map(|p| p.score);
                assert!(
                    matches!(predict, Err(TransportError::Unavailable)),
                    "{name}: predict uid {uid} item {item} gave {predict:?}"
                );
                let observe = t.observe(uid, item, 1.0).map(|o| o.ts);
                assert!(
                    matches!(observe, Err(TransportError::Unavailable)),
                    "{name}: observe uid {uid} item {item} gave {observe:?}"
                );
            }
            t.observe(uid, 104, 1.0).unwrap_or_else(|e| panic!("{name}: observe 104: {e:?}"));
            let p = t.predict(uid, 104).unwrap_or_else(|e| panic!("{name}: predict 104: {e:?}"));
            assert!(p.score.is_finite() && !p.cold_start, "{name}: uid {uid} scored {p:?}");
        }
    }
}

/// An item whose features differ in length from a user's model is
/// refused on both backends — observe and predict, single and batched —
/// before anything is logged, and no worker panics: every refusal is a
/// clean `Rejected`, and the cluster keeps serving the user afterwards.
#[test]
fn a_dimension_mismatch_is_refused_before_anything_is_logged() {
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        item_replication: 3,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        sim_cluster.put_item_features(item, x);
    }
    let sim = SimTransport::new(Arc::clone(&sim_cluster), 0.0);
    let net = start_net(None, 2);
    let wide = 200u64;
    let wide_features = vec![0.5; DIM + 2];
    sim_cluster.put_item_features(wide, wide_features.clone());
    net.publish_item_features(vec![(wide, wide_features)]);
    let log_lens =
        || (0..3).map(|n| net.node_state(n).expect("node up").log_len()).collect::<Vec<_>>();

    let backends: [(&str, &dyn Transport); 2] = [("sim", &sim), ("net", &net)];
    for (name, t) in backends {
        for uid in 0..7u64 {
            t.observe(uid, uid, 1.0).unwrap_or_else(|e| panic!("{name}: observe: {e:?}"));
        }
        let logged = log_lens();
        let weights: Vec<_> = (0..7u64).map(|uid| t.fetch_weights(uid).unwrap()).collect();
        for uid in 0..7u64 {
            let observe = t.observe(uid, wide, 1.0).map(|o| o.ts);
            assert!(
                matches!(observe, Err(TransportError::Rejected(_))),
                "{name}: observe uid {uid} of the wide item gave {observe:?}"
            );
            let predict = t.predict(uid, wide).map(|p| p.score);
            assert!(
                matches!(predict, Err(TransportError::Rejected(_))),
                "{name}: predict uid {uid} of the wide item gave {predict:?}"
            );
            let batch = t.predict_many(&[(uid, wide), (uid, uid)]);
            assert!(
                matches!(batch[0], Err(TransportError::Rejected(_))) && batch[1].is_ok(),
                "{name}: batch for uid {uid} gave {batch:?}"
            );
        }
        assert_eq!(log_lens(), logged, "{name}: a refused observe left a log record");
        let after: Vec<_> = (0..7u64).map(|uid| t.fetch_weights(uid).unwrap()).collect();
        assert_eq!(after, weights, "{name}: a refused observe moved a user's weights");
        // A user first seen through the wide item learns at its width.
        t.observe(99, wide, 1.0).unwrap_or_else(|e| panic!("{name}: wide observe: {e:?}"));
        assert!(!t.predict(99, wide).unwrap().cold_start, "{name}");
        assert!(matches!(t.predict(99, 0), Err(TransportError::Rejected(_))), "{name}");
    }
    assert!((0..3).all(|n| net.node_health(n) == velox_cluster::NodeHealth::Up));
    net.shutdown();
}

/// Two clients hammer one user concurrently. The owner stamps and applies
/// its records in one critical section and ships them in the same order,
/// so the replica never has to repair a user, and the owner's served
/// state, the replica's, and the one the owner rebuilds from its WAL after
/// a restart are the same floats: every node ends where a replay in
/// timestamp order ends.
#[test]
fn concurrent_observes_on_one_user_agree_at_owner_replica_and_after_recovery() {
    let scratch = ScratchDir::new("velox-net-same-user");
    let net = start_net(Some(&scratch), 2);
    let uid = 4u64;
    let owner = net.home_of_user(uid);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for client in 0..2u64 {
            let (net, start) = (&net, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..2_000u64 {
                    let item = (i * 5 + client * 11) % 24;
                    let y = ((i + client) % 4) as f64 / 2.0;
                    net.observe(uid, item, y).expect("observe acked");
                }
            });
        }
    });
    let fetch_at = |node| {
        let reply = net.client(node).unwrap().call(&Request::FetchWeights { uid });
        match reply.expect("fetch") {
            Response::Weights { w: Some(w) } => w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            other => panic!("node {node}: {other:?}"),
        }
    };
    let at_owner = fetch_at(owner);
    let replica = net.map().replicas_of(uid)[1];
    assert_eq!(
        fetch_at(replica),
        at_owner,
        "the replica applied the owner's records in another order"
    );
    let repaired = net.node_metrics(replica).ship_repaired_users.get();
    assert_eq!(repaired, 0, "the owner shipped records out of timestamp order");
    net.kill_node(owner); // the disk survives
    net.recover_node(owner).expect("recover");
    assert_eq!(fetch_at(owner), at_owner, "the rebuilt owner disagrees with the one that served");
    net.shutdown();
}

/// A user's weights after one observe of `item` on top of `prior` (the
/// zero prior when empty) — what either backend must serve.
fn one_update(uid: u64, prior: &[f64], item: u64) -> Vec<u64> {
    let mut users = HashMap::new();
    if !prior.is_empty() {
        let prior = Vector::from_vec(prior.to_vec());
        users.insert(uid, IncrementalRidge::from_prior(&prior, RIDGE_LAMBDA));
    }
    let user = ridge_observe(&mut users, uid, &Vector::from_vec(item_features(item)), 1.0);
    user.unwrap().weights().as_slice().iter().map(|v| v.to_bits()).collect()
}

fn weight_bits(w: Option<Vec<f64>>) -> Option<Vec<u64>> {
    w.map(|w| w.iter().map(|v| v.to_bits()).collect())
}

/// A crash that takes a user's only copy (replication 1, no WAL) loses
/// the user's model on both backends alike: the next observe learns from
/// the zero prior, not from state that outlived the crash. Weights
/// installed in the simulator's slots are the prior of the next update,
/// as checkpoint-installed weights are at a TCP node.
#[test]
fn a_user_lost_in_a_crash_restarts_from_the_zero_prior_on_both_backends() {
    let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 3,
        user_replication: 1,
        item_replication: 3,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        sim_cluster.put_item_features(item, x);
    }
    let sim = SimTransport::new(Arc::clone(&sim_cluster), 0.0);
    let net = start_net(None, 1);
    let uid = 4u64;
    for (u, item, y) in workload(60) {
        sim.observe(u, item, y).expect("sim observe");
        net.observe(u, item, y).expect("net observe");
    }
    let home = net.home_of_user(uid);
    assert_eq!(sim_cluster.home_of_user(uid), home);
    sim_cluster.kill_node(home);
    sim_cluster.recover_node(home);
    net.kill_node(home);
    net.recover_node(home).expect("recover");

    let backends: [(&str, &dyn Transport); 2] = [("sim", &sim), ("net", &net)];
    for (name, t) in backends {
        assert_eq!(t.fetch_weights(uid).unwrap(), None, "{name}: the only copy died");
        t.observe(uid, 5, 1.0).unwrap_or_else(|e| panic!("{name}: observe: {e:?}"));
        let w = weight_bits(t.fetch_weights(uid).unwrap());
        assert_eq!(w, Some(one_update(uid, &[], 5)), "{name}: learned from pre-crash state");
    }
    let installed = [0.25, -0.5, 1.0];
    sim_cluster.put_user_weights(uid, installed.to_vec());
    sim.observe(uid, 6, 1.0).expect("sim observe");
    let w = weight_bits(sim.fetch_weights(uid).unwrap());
    assert_eq!(w, Some(one_update(uid, &installed, 6)), "installed weights are not the prior");
    net.shutdown();
}

/// A replica that receives a user's record after a newer one re-derives
/// that user — and only that user, from its own records — on a log full
/// of other users' records, and ends where an in-order replay ends.
#[test]
fn a_late_shipped_record_re_derives_only_its_user() {
    let metrics = NodeMetrics::new();
    let (mut node, _) = NodeServer::start(
        NodeConfig {
            node_id: 0,
            n_nodes: 1,
            map: Arc::new(PartitionMap::bootstrap(1, 1, velox_cluster::USER_SALT).unwrap()),
            wal_dir: None,
            workers: 1,
            metrics: metrics.clone(),
            tracer: Tracer::disabled(),
        },
        Arc::new(PeerTable::new(1)),
    )
    .expect("start node");
    let state = Arc::clone(node.state());
    assert_eq!(state.seed_items(&seeded_items()), Response::Ok);
    let rec =
        |uid, ts: u64| Observation { uid, item_id: ts % 24, y: (ts % 3) as f64, timestamp: ts };
    let hot = 7u64;
    // 20 000 records over 500 users; every fourth belongs to the hot user.
    let log: Vec<Observation> = (1..=20_000u64)
        .map(|ts| rec(if ts % 4 == 0 { hot } else { 1_000 + ts % 500 }, ts))
        .collect();
    let late = log[9_999].clone();
    assert_eq!(late.uid, hot);
    let ship = |records: Vec<Observation>| {
        let obs_ids = vec![0; records.len()];
        assert_eq!(state.handle(Request::ShipLog { records, obs_ids }), Response::Ok);
    };
    let others = |ts| ts != late.timestamp;
    for chunk in log.iter().filter(|r| others(r.timestamp)).collect::<Vec<_>>().chunks(1_000) {
        ship(chunk.iter().map(|r| (*r).clone()).collect());
    }
    assert_eq!(metrics.ship_repaired_users.get(), 0, "in-order frames repair nothing");
    ship(vec![late]);
    assert_eq!(metrics.ship_repaired_users.get(), 1);

    let mut users = HashMap::new();
    for r in log.iter().filter(|r| r.uid == hot) {
        ridge_observe(&mut users, hot, &Vector::from_vec(item_features(r.item_id)), r.y).unwrap();
    }
    let expected: Vec<u64> = users[&hot].weights().as_slice().iter().map(|v| v.to_bits()).collect();
    match state.handle(Request::FetchWeights { uid: hot }) {
        Response::Weights { w } => assert_eq!(weight_bits(w), Some(expected)),
        other => panic!("fetch: {other:?}"),
    }
    node.shutdown();
}

/// Kill the owner of a user *and destroy its disk*. Every acknowledged
/// observation must survive in the replica's shipped log, serve reads
/// during the outage (failover), and flow back into the reborn owner.
#[test]
fn kill_owner_lose_disk_loses_no_acknowledged_observation() {
    let scratch = ScratchDir::new("velox-net-shipping");
    let net = start_net(Some(&scratch), 2);

    let uid = 4u64;
    let owner = net.home_of_user(uid);
    let mut acked = Vec::new();
    for i in 0..30u64 {
        let item = i % 24;
        let y = if i % 2 == 0 { 1.0 } else { 0.0 };
        let ack = net.observe(uid, item, y).expect("observe acked");
        assert_eq!(ack.shipped_to, 1, "ack implies the record reached the replica");
        acked.push(ack.ts);
    }
    let before = net.fetch_weights(uid).expect("fetch").expect("user has weights");

    net.kill_node_lose_disk(owner);

    // Failover: the replica serves reads from its shipped state.
    let p = net.predict(uid, 3).expect("failover predict");
    assert!(p.routed, "predict must fail over off the dead owner");
    assert_ne!(p.node, owner);

    // Observes keep working during the outage (acting owner = replica).
    let outage_ack = net.observe(uid, 5, 1.0).expect("observe during outage");
    assert_ne!(outage_ack.node, owner);
    assert!(
        outage_ack.ts > *acked.iter().max().unwrap(),
        "acting owner must assign timestamps above everything it has seen"
    );

    // Recover with an empty disk: everything must come back over PullLog.
    let pulled = net.recover_node(owner).expect("recovery");
    assert!(pulled as usize >= acked.len(), "recovery pulled {pulled} < {} acked", acked.len());

    // The reborn owner serves again, with state that includes every
    // acknowledged record (the pre-kill ones and the outage one).
    let p = net.predict(uid, 3).expect("predict after recovery");
    assert_eq!(p.node, owner, "home node serves again after recovery");
    assert!(!p.routed);
    let after = net.fetch_weights(uid).expect("fetch").expect("weights survived");
    assert_eq!(after.len(), before.len());
    for v in &after {
        assert!(v.is_finite());
    }

    // Stronger: replay the acked timestamps out of the reborn owner's log.
    let client = net.client(owner).unwrap();
    match client.call(&Request::PullLog { from_ts: 0 }).expect("pull log") {
        Response::Log { records } => {
            let have: std::collections::HashSet<u64> =
                records.iter().filter(|r| r.uid == uid).map(|r| r.timestamp).collect();
            for ts in &acked {
                assert!(have.contains(ts), "acknowledged record ts={ts} lost in recovery");
            }
            assert!(have.contains(&outage_ack.ts), "outage-time record lost in recovery");
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

/// The ack rule with the local fsync overlapping the ship and both WALs
/// syncing outside the log lock: two concurrent clients' acknowledged
/// observes are all in the owner's WAL *and* in the replica's WAL, and each
/// node's WAL counters agree with what its directory holds.
#[test]
fn acked_observes_are_in_both_wals() {
    let scratch = ScratchDir::new("velox-net-both-wals");
    let net = start_net(Some(&scratch), 2);
    let acked: Vec<(u64, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|client| {
                let net = &net;
                s.spawn(move || {
                    (0..250u64)
                        .map(|i| {
                            let uid = (client * 250 + i) % 11;
                            let ack = net.observe(uid, i % 24, (i % 3) as f64).expect("observe");
                            assert_eq!(ack.shipped_to, 1, "ack implies the replica holds it");
                            (uid, ack.ts)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(acked.len(), 500);
    let replicas: Vec<Vec<usize>> =
        acked.iter().map(|(uid, _)| net.replica_nodes_of_user(*uid)).collect();
    let metrics: Vec<_> = (0..3).map(|node| net.node_metrics(node)).collect();
    net.shutdown();

    let held: Vec<std::collections::HashSet<(u64, u64)>> = (0..3)
        .map(|node| {
            let (_, recovery) =
                Wal::open(WalConfig::new(scratch.path().join(format!("node-{node}"))))
                    .expect("reopen node wal");
            assert!(recovery.torn.is_none(), "node {node}: {:?}", recovery.torn);
            let wal = &metrics[node].wal;
            assert_eq!(wal.appends.get(), recovery.records.len() as u64, "node {node}");
            assert!(wal.fsyncs.get() <= wal.appends.get(), "node {node}: more fsyncs than appends");
            eprintln!(
                "node {node}: {} WAL appends, {} fsyncs",
                wal.appends.get(),
                wal.fsyncs.get()
            );
            recovery.records.iter().map(|r| (r.uid, r.timestamp)).collect()
        })
        .collect();
    for ((uid, ts), nodes) in acked.iter().zip(&replicas) {
        assert_eq!(nodes.len(), 2);
        for &node in nodes {
            assert!(
                held[node].contains(&(*uid, *ts)),
                "acked ({uid}, {ts}) missing from node {node}'s WAL"
            );
        }
    }
}

/// A node whose WAL fails stops taking writes, but its users keep
/// observing: the node fails its `Health` probe, and within a few
/// heartbeats the front routes them to the replica acting as owner.
#[test]
fn a_poisoned_owners_users_fail_over_to_an_acting_owner() {
    let scratch = ScratchDir::new("velox-net-poisoned");
    let victim = 0usize;
    // The victim finds one segment in its WAL directory at start and opens
    // it on its first write. By then the segment's path names a device
    // that takes writes but refuses `fdatasync`, as a failing disk would.
    let dir = scratch.path().join(format!("node-{victim}"));
    let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("seed wal");
    wal.append(&Observation { uid: 0, item_id: 0, y: 0.0, timestamp: 1 }).expect("seed record");
    drop(wal);
    let net = start_net(Some(&scratch), 2);
    let segment = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    std::fs::remove_file(&segment).unwrap();
    std::os::unix::fs::symlink("/dev/null", &segment).unwrap();

    let uid = (0..).find(|&u| net.home_of_user(u) == victim).unwrap();
    let failed = net.observe(uid, 1, 1.0).expect_err("the victim cannot make it durable");
    assert!(failed.to_string().contains("fsync wal segment"), "{failed}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let first = loop {
        match net.observe(uid, 2, 1.0) {
            Ok(ack) => break ack,
            Err(e) if std::time::Instant::now() < deadline => {
                assert!(e.to_string().contains("wal poisoned"), "{e}");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("the victim's users never failed over: {e}"),
        }
    };
    assert_ne!(first.node, victim);
    assert_ne!(net.detector().state(victim as u32), PeerState::Alive);
    let mut last = first.ts;
    for i in 0..20u64 {
        let ack = net.observe(uid, i % 24, 0.5).expect("observe at the acting owner");
        assert_eq!(ack.node, first.node, "the acting owner keeps the partition");
        assert!(ack.ts > last);
        last = ack.ts;
    }
    match net.client(victim).unwrap().call(&Request::Health).expect("health") {
        Response::Error { message, .. } => assert!(message.contains("wal poisoned"), "{message}"),
        other => panic!("a poisoned node must fail its health probe, got {other:?}"),
    }
    net.shutdown();
}

/// Recovery with an intact disk replays the local WAL and only tops up
/// from peers (records acknowledged while the node was down).
#[test]
fn recovery_with_local_wal_replays_and_tops_up() {
    let scratch = ScratchDir::new("velox-net-walrec");
    let net = start_net(Some(&scratch), 2);

    let uid = 9u64;
    let owner = net.home_of_user(uid);
    for i in 0..10u64 {
        net.observe(uid, i % 24, 1.0).expect("observe");
    }
    net.kill_node(owner); // disk survives
    let during = net.observe(uid, 1, 0.0).expect("observe during outage");
    assert_ne!(during.node, owner);
    let pulled = net.recover_node(owner).expect("recover");
    // Only the records shipped while down need pulling; the first ten
    // replay from the local WAL (dedup may still re-offer them).
    assert!(pulled >= 1, "the outage-time record must come back from the replica");
    let p = net.predict(uid, 1).expect("predict after recovery");
    assert_eq!(p.node, owner);
}

/// A scripted fault plan fires against the request clock and kills /
/// recovers *real servers*; the workload keeps being served throughout.
#[test]
fn scripted_fault_plan_runs_over_real_sockets() {
    let scratch = ScratchDir::new("velox-net-chaos");
    let net = start_net(Some(&scratch), 2);

    // Find the owner of uid 0 and script its death and rebirth.
    let victim = net.home_of_user(0);
    net.install_fault_plan(FaultPlan::scripted(vec![
        FaultEvent { at_request: 20, node: victim, action: FaultAction::Kill },
        FaultEvent { at_request: 40, node: victim, action: FaultAction::Recover },
    ]));

    let mut served = 0usize;
    for i in 0..60u64 {
        let uid = i % 5;
        if net.observe(uid, i % 24, 1.0).is_ok() {
            served += 1;
        }
    }
    net.clear_fault_plan();
    assert_eq!(served, 60, "with replication 2 every observe must be acked across the kill window");
    assert_eq!(
        net.node_health(victim),
        velox_cluster::NodeHealth::Up,
        "scripted recovery must have fired"
    );
    // The victim served its partition again after recovery.
    let p = net.predict(0, 0).expect("predict after scripted recovery");
    assert!(p.score.is_finite());
}
