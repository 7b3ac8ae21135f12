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

use std::sync::Arc;

use velox_cluster::transport::{SimTransport, Transport, TransportError};
use velox_cluster::{Cluster, ClusterConfig, FaultAction, FaultEvent, FaultPlan};
use velox_net::{NetCluster, NetClusterConfig, Request, Response};
use velox_storage::ScratchDir;

const DIM: usize = 3;
const LR: f64 = 0.1;

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
        lr: LR,
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
/// routing (same salts), the LMS update routine, and the accumulation
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
    let sim = SimTransport::new(sim_cluster, LR);
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
    let sim = SimTransport::new(Arc::clone(&sim_cluster), LR);
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
