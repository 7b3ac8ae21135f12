//! Fault-tolerance integration tests: replica failover, graceful
//! degradation accounting, and outage buffering with redo-once semantics.
//! All failure injection is driven by seeded RNGs and explicit kill/recover
//! calls, so every run is deterministic.

use std::collections::HashMap;
use std::sync::Arc;

use velox::cluster::{Cluster, SimTransport, Transport, TransportError};
use velox::prelude::*;

/// A deployment on `n_nodes` with both item features and user weights
/// replicated `replication` ways.
fn deploy(n_nodes: usize, replication: usize) -> Arc<Velox> {
    let mut table = HashMap::new();
    for item in 0..40u64 {
        table.insert(
            item,
            Vector::from_vec(vec![(item as f64 * 0.3).sin(), (item as f64 * 0.7).cos()]),
        );
    }
    let model = MatrixFactorizationModel::from_table(
        "ft",
        table,
        3.0,
        AlsConfig { rank: 2, ..Default::default() },
    )
    .unwrap();
    let mut weights = HashMap::new();
    for uid in 0..20u64 {
        weights.insert(uid, Vector::from_vec(vec![0.1 * uid as f64, -0.05 * uid as f64]));
    }
    let config = VeloxConfig {
        cluster: ClusterConfig {
            n_nodes,
            item_replication: replication,
            user_replication: replication,
            ..Default::default()
        },
        ..Default::default()
    };
    Arc::new(Velox::deploy(Arc::new(model), weights, config))
}

/// (4a) With replication ≥ 2, killing any single node leaves every read
/// answerable: all predicts succeed, none have to fall past the Replica
/// degradation level, and the scores survive the failover bit-exactly.
#[test]
fn reads_survive_any_single_node_loss_at_replication_two() {
    for victim in 0..4usize {
        let velox = deploy(4, 2);
        let baseline: Vec<f64> =
            (0..20u64).map(|uid| velox.predict(uid, &Item::Id(uid % 40)).unwrap().score).collect();

        velox.kill_node(victim);

        for uid in 0..20u64 {
            let resp = velox
                .predict(uid, &Item::Id(uid % 40))
                .unwrap_or_else(|e| panic!("victim {victim} uid {uid}: {e}"));
            assert!(
                matches!(resp.degradation, DegradationLevel::Full | DegradationLevel::Replica),
                "victim {victim} uid {uid}: degraded to {:?}",
                resp.degradation
            );
            assert!(
                (resp.score - baseline[uid as usize]).abs() < 1e-12,
                "victim {victim} uid {uid}: failover changed the score"
            );
        }
        let stats = velox.stats();
        assert_eq!(stats.cluster.unavailable_reads, 0, "victim {victim}");
    }
}

/// (4b) Every predict and topK is counted at exactly one degradation
/// level: the ladder counters reconcile with the request count even
/// across a kill/recover cycle.
#[test]
fn degradation_counters_reconcile_with_request_counts() {
    let velox = deploy(4, 2);
    let mut requests = 0u64;
    let candidates: Vec<Item> = (0..8u64).map(Item::Id).collect();

    for uid in 0..20u64 {
        velox.predict(uid, &Item::Id(uid % 40)).unwrap();
        requests += 1;
    }
    velox.kill_node(1);
    for uid in 0..20u64 {
        velox.predict(uid, &Item::Id((uid + 3) % 40)).unwrap();
        velox.top_k(uid, &candidates).unwrap();
        requests += 2;
    }
    velox.recover_node(1);
    for uid in 0..20u64 {
        velox.predict(uid, &Item::Id((uid + 7) % 40)).unwrap();
        requests += 1;
    }

    let stats = velox.stats();
    assert_eq!(
        stats.degraded.total(),
        requests,
        "every request must land on exactly one ladder level: {:?}",
        stats.degraded
    );
    assert!(stats.degraded.full > 0, "healthy phases serve at full fidelity");
}

/// (4c) Observations that arrive while a user's partition has no live
/// replica are buffered and drained exactly once on recovery: the drained
/// count matches the buffered count, a second recovery drains nothing,
/// and the deferred update is actually applied to the user's weights.
#[test]
fn redo_queue_drains_exactly_once_on_recovery() {
    // User weights unreplicated (killing the home node orphans that
    // partition) but item features replicated, so the catch-up and the
    // redo apply still have features to read.
    let mut table = HashMap::new();
    for item in 0..40u64 {
        table.insert(
            item,
            Vector::from_vec(vec![(item as f64 * 0.3).sin(), (item as f64 * 0.7).cos()]),
        );
    }
    let model = MatrixFactorizationModel::from_table(
        "ft",
        table,
        3.0,
        AlsConfig { rank: 2, ..Default::default() },
    )
    .unwrap();
    let mut weights = HashMap::new();
    for uid in 0..20u64 {
        weights.insert(uid, Vector::from_vec(vec![0.1 * uid as f64, -0.05 * uid as f64]));
    }
    let config = VeloxConfig {
        cluster: ClusterConfig {
            n_nodes: 4,
            item_replication: 2,
            user_replication: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let velox = Velox::deploy(Arc::new(model), weights, config);
    let uid = 5u64;
    let home = velox.cluster().replica_nodes_of_user(uid)[0];
    let before = velox.predict(uid, &Item::Id(3)).unwrap().score;

    velox.kill_node(home);
    let outcome = velox.observe(uid, &Item::Id(3), 4.0).unwrap();
    assert!(outcome.deferred, "no live replica: the observation must be buffered");
    assert!(!outcome.trained);
    let outcome2 = velox.observe(uid, &Item::Id(4), 2.0).unwrap();
    assert!(outcome2.deferred);

    let stats = velox.stats();
    assert_eq!(stats.redo.buffered, 2);
    assert_eq!(stats.redo.drained, 0);
    assert_eq!(stats.redo.pending, 2);

    velox.recover_node(home);
    let stats = velox.stats();
    assert_eq!(stats.redo.drained, 2, "recovery drains every buffered observation");
    assert_eq!(stats.redo.pending, 0);
    assert_eq!(stats.redo.shed, 0);

    // Drained exactly once: a second recovery (and an explicit drain)
    // finds nothing left to apply.
    velox.kill_node(home);
    velox.recover_node(home);
    assert_eq!(velox.stats().redo.drained, 2);
    assert_eq!(velox.drain_redo_queue().unwrap(), 0);

    // The deferred feedback reached the online state: the prediction for
    // the trained (uid, item) pair moved.
    let after = velox.predict(uid, &Item::Id(3)).unwrap().score;
    assert!(
        (after - before).abs() > 1e-9,
        "deferred observation was never applied: {before} vs {after}"
    );
}

/// The redo queue is bounded: observations past capacity are shed with a
/// clean `Unavailable` error and counted, never silently dropped.
#[test]
fn redo_queue_sheds_when_full() {
    let mut table = HashMap::new();
    for item in 0..10u64 {
        table.insert(item, Vector::from_vec(vec![1.0, item as f64]));
    }
    let model = MatrixFactorizationModel::from_table(
        "shed",
        table,
        3.0,
        AlsConfig { rank: 2, ..Default::default() },
    )
    .unwrap();
    let config = VeloxConfig {
        cluster: ClusterConfig { n_nodes: 2, ..Default::default() },
        redo_queue_capacity: 2,
        ..Default::default()
    };
    let velox = Velox::deploy(Arc::new(model), HashMap::new(), config);
    let uid = 0u64;
    let home = velox.cluster().replica_nodes_of_user(uid)[0];
    velox.kill_node(home);

    assert!(velox.observe(uid, &Item::Id(0), 1.0).unwrap().deferred);
    assert!(velox.observe(uid, &Item::Id(1), 1.0).unwrap().deferred);
    match velox.observe(uid, &Item::Id(2), 1.0) {
        Err(VeloxError::Unavailable(why)) => assert!(why.contains("shed"), "{why}"),
        other => panic!("expected shed error, got {other:?}"),
    }
    let stats = velox.stats();
    assert_eq!(stats.redo.buffered, 2);
    assert_eq!(stats.redo.shed, 1);
}

/// Scheduled faults drive kill/recover off the request clock, and the
/// whole trajectory — availability, degradation mix, injected failures —
/// is identical for identical seeds.
#[test]
fn scripted_outage_is_deterministic() {
    let run = || {
        let velox = deploy(4, 2);
        velox.install_fault_plan(FaultPlan {
            events: vec![
                FaultEvent { at_request: 20, node: 2, action: FaultAction::Kill },
                FaultEvent { at_request: 60, node: 2, action: FaultAction::Recover },
            ],
            read_failure_prob: 0.1,
            latency_spike_prob: 0.05,
            latency_spike_us: 2_000.0,
            seed: 0xFA_17,
        });
        let mut answered = 0u64;
        for i in 0..200u64 {
            if velox.predict(i % 20, &Item::Id(i % 37)).is_ok() {
                answered += 1;
            }
        }
        let s = velox.stats();
        (
            answered,
            s.degraded.full,
            s.degraded.replica,
            s.cluster.injected_read_failures,
            s.cluster.injected_latency_spikes,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give an identical trajectory");
    assert!(a.0 >= 198, "availability must stay ≥ 99%: {}/200", a.0);
    assert!(a.3 > 0, "read-failure injection must have fired");
    assert!(a.4 > 0, "latency-spike injection must have fired");
}

/// A publish and a kill free what they replace: once a new table is
/// published, or the nodes holding a value are killed, no reference to the
/// superseded vector is left inside the cluster. A user's weights live once,
/// in Velox's serving table, which likewise keeps nothing a write replaced
/// or a kill took; only the last-known-good cache outlives the kill.
#[test]
fn publishes_and_kills_leave_no_reference_to_what_they_replaced() {
    let cluster = Cluster::new(ClusterConfig {
        n_nodes: 2,
        item_replication: 2,
        user_replication: 2,
        ..Default::default()
    });

    cluster.publish_item_features(vec![(1, vec![0.5, 0.25])]);
    let item = cluster.read_item_features(0, 1).value.expect("published");
    assert!(Arc::strong_count(&item) > 1);
    cluster.publish_item_features(vec![(1, vec![0.75, 0.125])]);
    assert_eq!(Arc::strong_count(&item), 1, "a publish kept the superseded item table");

    let velox = deploy(2, 2);
    let user = velox.user_weights(7).expect("deployed");
    assert_eq!(Arc::strong_count(&user), 3, "the serving table and the stale cache share it");
    assert!(velox.observe(7, &Item::Id(1), 1.0).unwrap().trained);
    assert_eq!(Arc::strong_count(&user), 1, "a write kept the superseded user vector");

    let user = velox.user_weights(7).expect("observed");
    let item = cluster.read_item_features(1, 1).value.expect("published");
    cluster.kill_node(0);
    cluster.kill_node(1);
    velox.kill_node(0);
    velox.kill_node(1);
    assert!(velox.user_weights(7).is_none(), "the kill took the partition's last replica");
    assert_eq!(Arc::strong_count(&user), 2, "beyond the stale cache, a kill kept the user");
    assert_eq!(Arc::strong_count(&item), 1, "a kill kept the dead node's item shard");
}

// The crash rules. A user's weights and online state, and an item's
// features, are held once; the cluster decides what a kill takes: whatever
// lost its last live replica. A recovery copies nothing back. Each rule is
// pinned through `Velox` and through the simulator's transport.

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|v| v.to_bits()).collect()
}

/// An item of `velox`'s 40 whose home is not `node`.
fn item_off(velox: &Velox, node: usize, skip: u64) -> Item {
    Item::Id((skip..40).find(|&i| velox.cluster().home_of_item(i) != node).expect("an item"))
}

#[test]
fn velox_serves_a_user_from_the_bootstrap_after_its_last_replica_died() {
    let velox = deploy(4, 1);
    let uid = 3;
    let home = velox.cluster().home_of_user(uid);
    let (a, b) = (item_off(&velox, home, 0), item_off(&velox, home, 20));
    assert!(!velox.predict(uid, &a).unwrap().bootstrapped);
    velox.kill_node(home);
    assert_eq!(velox.predict(uid, &b).unwrap().degradation, DegradationLevel::StaleCache);
    velox.recover_node(home);
    let after = velox.predict(uid, &b).unwrap();
    assert!(after.bootstrapped, "recovery brought back weights the kill took");
    assert_eq!(after.degradation, DegradationLevel::Full);
    assert!(velox.user_weights(uid).is_none());
}

#[test]
fn velox_serves_a_replicated_user_bit_equal_after_a_kill_and_recovery() {
    let (velox, twin) = (deploy(4, 2), deploy(4, 2));
    for v in [&velox, &twin] {
        for uid in 0..20u64 {
            v.observe(uid, &Item::Id((uid * 7) % 40), 0.5 - uid as f64 * 0.1).unwrap();
        }
    }
    let weights = |v: &Velox| (0..20u64).map(|u| v.user_weights(u).map(|w| bits(&w))).collect();
    let before: Vec<Option<Vec<u64>>> = weights(&velox);
    velox.kill_node(1);
    velox.recover_node(1);
    assert_eq!(weights(&velox), before, "a kill that left a replica changed a user");
    assert_eq!(velox.user_store().len(), twin.user_store().len(), "online state was dropped");
    for uid in 0..20u64 {
        let item = Item::Id((uid * 3 + 1) % 40);
        let (got, want) = (velox.predict(uid, &item).unwrap(), twin.predict(uid, &item).unwrap());
        assert_eq!(got.score.to_bits(), want.score.to_bits(), "user {uid}");
    }
    velox.observe(5, &Item::Id(9), 1.0).unwrap();
    twin.observe(5, &Item::Id(9), 1.0).unwrap();
    assert_eq!(velox.user_weights(5).map(|w| bits(&w)), twin.user_weights(5).map(|w| bits(&w)));
}

#[test]
fn velox_loses_a_publish_made_while_every_replica_was_down() {
    let velox = deploy(4, 1);
    let uid = 3;
    let home = velox.cluster().home_of_user(uid);
    let kept = (0..20u64).find(|&u| velox.cluster().home_of_user(u) != home).unwrap();
    for u in 0..20u64 {
        if velox.cluster().home_of_user(u) != home {
            velox.observe(u, &item_off(&velox, home, u), 1.0).unwrap();
        }
    }
    assert_eq!(velox.retrain_offline().unwrap(), 2);
    velox.kill_node(home);
    // Rolling back publishes version 1's table while `uid`'s partition has
    // no live replica: its entry has nowhere to land.
    assert_eq!(velox.rollback(1).unwrap(), 3);
    velox.recover_node(home);
    assert!(velox.user_weights(uid).is_none(), "a publish to a dead partition survived");
    assert!(velox.predict(uid, &item_off(&velox, home, 30)).unwrap().bootstrapped);
    assert!(velox.user_weights(kept).is_some(), "a live partition lost its publish");
}

#[test]
fn velox_loses_an_unreplicated_item_until_the_next_publish() {
    let velox = deploy(4, 1);
    let item = 5u64;
    let item_home = velox.cluster().home_of_item(item);
    let uid = (0..20u64).find(|&u| velox.cluster().home_of_user(u) != item_home).unwrap();
    // Not read before the kill: the serving node's item cache would keep it.
    velox.kill_node(item_home);
    velox.recover_node(item_home);
    match velox.predict(uid, &Item::Id(item)) {
        Err(e) => assert!(e.to_string().contains("unknown item"), "{e}"),
        Ok(r) => panic!("the kill took the item's only replica, yet it served {r:?}"),
    }
    for u in 0..20u64 {
        velox.observe(u, &item_off(&velox, item_home, u), 0.5).unwrap();
    }
    velox.retrain_offline().unwrap();
    assert!(velox.predict(uid, &Item::Id(item)).is_ok(), "the retrain's publish restores it");
}

/// The simulator's transport over `n_nodes` with `replication` copies of
/// every user and item, and items `0..16` seeded.
fn sim(n_nodes: usize, replication: usize) -> SimTransport {
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes,
        user_replication: replication,
        item_replication: replication,
        ..Default::default()
    }));
    for item in 0..16u64 {
        cluster.put_item_features(item, vec![1.0, (item % 4) as f64, 0.5]);
    }
    SimTransport::new(cluster, 0.0)
}

/// An item of the simulator's 16 whose home is not `node`.
fn sim_item_off(t: &SimTransport, node: usize) -> u64 {
    (0..16).find(|&i| t.cluster().home_of_item(i) != node).expect("an item")
}

#[test]
fn sim_serves_a_user_from_the_prior_after_its_last_replica_died() {
    let t = sim(3, 1);
    let uid = 7;
    let home = t.cluster().home_of_user(uid);
    let item = sim_item_off(&t, home);
    t.observe(uid, item, 1.0).unwrap();
    assert!(!t.predict(uid, item).unwrap().cold_start);
    t.cluster().kill_node(home);
    t.cluster().recover_node(home);
    assert_eq!(t.fetch_weights(uid).unwrap(), None, "recovery brought back a lost user");
    let after = t.predict(uid, item).unwrap();
    assert!(after.cold_start);
    assert_eq!(after.score, 0.0);
}

#[test]
fn sim_serves_a_replicated_user_bit_equal_after_a_kill_and_recovery() {
    let t = sim(3, 2);
    for uid in 0..24u64 {
        t.observe(uid, uid % 16, (uid % 3) as f64).unwrap();
    }
    let weights = |t: &SimTransport| -> Vec<Option<Vec<u64>>> {
        (0..24u64).map(|u| t.fetch_weights(u).unwrap().map(|w| bits(&w))).collect()
    };
    let scores = |t: &SimTransport| -> Vec<u64> {
        (0..24u64).map(|u| t.predict(u, (u + 5) % 16).unwrap().score.to_bits()).collect()
    };
    let (w0, s0) = (weights(&t), scores(&t));
    t.cluster().kill_node(0);
    t.cluster().recover_node(0);
    assert_eq!(weights(&t), w0, "a kill that left a replica changed a user");
    assert_eq!(scores(&t), s0);
}

#[test]
fn sim_loses_a_write_made_while_every_replica_was_down() {
    let t = sim(3, 1);
    let uid = 11;
    let home = t.cluster().home_of_user(uid);
    let item = sim_item_off(&t, home);
    t.cluster().kill_node(home);
    assert_eq!(t.observe(uid, item, 1.0).unwrap_err(), TransportError::Unavailable);
    t.cluster().recover_node(home);
    assert_eq!(t.fetch_weights(uid).unwrap(), None, "a write to a dead partition survived");
}

#[test]
fn sim_loses_an_unreplicated_item_until_the_next_publish() {
    let t = sim(3, 1);
    let item = 5u64;
    let item_home = t.cluster().home_of_item(item);
    let uid = (0..64u64).find(|&u| t.cluster().home_of_user(u) != item_home).unwrap();
    // Not read before the kill: the serving node's item cache would keep it.
    t.cluster().kill_node(item_home);
    t.cluster().recover_node(item_home);
    assert_eq!(t.predict(uid, item).unwrap_err(), TransportError::Unavailable);
    t.cluster().publish_item_features((0..16u64).map(|i| (i, vec![1.0, i as f64, 0.5])).collect());
    assert!(t.predict(uid, item).is_ok(), "the publish restores it");
}
