//! One fast pass through the whole membership state machine on a
//! two-node simulator: join → planned rebalance → kill → fail-over, with
//! traffic before, between and after. Also mounted by the root package
//! (`tests/membership_smoke.rs`) so tier-1 `cargo test -q` exercises
//! `velox_cluster::migrate`.

use std::collections::HashMap;
use std::sync::Arc;

use velox_cluster::transport::{SimTransport, Transport};
use velox_cluster::{ridge_observe, Cluster, ClusterConfig, ControlPlane, MigrationOutcome};
use velox_data::linalg::Vector;

const USERS: u64 = 32;

fn features(item: u64) -> Vec<f64> {
    vec![1.0, (item % 4) as f64 / 3.0, 0.5]
}

#[test]
fn two_node_join_rebalance_fail_over_keeps_every_acked_observe() {
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 2,
        max_nodes: 3,
        user_replication: 2,
        item_replication: 2,
        checkpoint_chunk_users: 2,
        ..Default::default()
    }));
    for item in 0..8 {
        cluster.put_item_features(item, features(item));
    }
    let sim = SimTransport::new(Arc::clone(&cluster), 0.0);
    let mut expect = HashMap::new();
    let mut traffic = |from: u64| {
        for i in from..from + 96 {
            let (uid, item, y) = (i % USERS, i % 8, (i % 3) as f64);
            sim.observe(uid, item, y).expect("observe");
            ridge_observe(&mut expect, uid, &Vector::from_vec(features(item)), y).unwrap();
        }
    };

    traffic(0);
    let joined = cluster.join_node().expect("join");
    let moved = cluster.rebalance_join(joined).expect("rebalance");
    assert!(!moved.is_empty(), "a 2→3 rebalance must move partitions");
    assert_eq!(cluster.map_epoch(), 2 + 2 * moved.len() as u64, "join +1, each migration +2");
    let ledger = cluster.migrations();
    assert_eq!(ledger.len(), moved.len());
    assert!(ledger.iter().all(|m| m.phase == "done" && m.outcome == MigrationOutcome::Committed));

    traffic(1000);
    cluster.kill_node(0);
    let copied = cluster.fail_over_dead(0).expect("fail over");
    assert!(copied > 0, "depleted replica sets must be backfilled");
    assert_eq!(cluster.map().members(), [1, 2]);

    traffic(2000);
    for uid in 0..USERS {
        assert_eq!(
            sim.fetch_weights(uid).expect("fetch").as_ref(),
            Some(&expect[&uid].weights().as_slice().to_vec()),
            "user {uid} lost or double-applied an acked observe"
        );
        assert!(!sim.predict(uid, uid % 8).expect("predict").cold_start);
    }
}
