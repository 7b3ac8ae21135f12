//! Fault-tolerance integration tests: replica failover, graceful
//! degradation accounting, and outage buffering with redo-once semantics.
//! All failure injection is driven by seeded RNGs and explicit kill/recover
//! calls, so every run is deterministic.

use std::collections::HashMap;
use std::sync::Arc;

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
/// superseded vector is left inside the cluster.
#[test]
fn publishes_and_kills_leave_no_reference_to_what_they_replaced() {
    let cluster = velox::cluster::Cluster::new(ClusterConfig {
        n_nodes: 2,
        item_replication: 2,
        user_replication: 2,
        ..Default::default()
    });
    let held = |w: Vec<f64>| -> Arc<[f64]> { w.into() };

    cluster.publish_item_features(vec![(1, vec![0.5, 0.25])]);
    let item = cluster.read_item_features(0, 1).value.expect("published");
    assert!(Arc::strong_count(&item) > 1);
    cluster.publish_item_features(vec![(1, vec![0.75, 0.125])]);
    assert_eq!(Arc::strong_count(&item), 1, "a publish kept the superseded item table");

    let user = held(vec![1.0, 2.0]);
    cluster.put_user_weights(7, Arc::clone(&user));
    assert_eq!(Arc::strong_count(&user), 3, "one reference per replica");
    cluster.publish_user_weights(vec![(7, vec![3.0, 4.0])]);
    assert_eq!(Arc::strong_count(&user), 1, "a publish kept the superseded user table");

    let user = held(vec![5.0, 6.0]);
    cluster.put_user_weights(7, Arc::clone(&user));
    let item = cluster.read_item_features(1, 1).value.expect("published");
    cluster.kill_node(0);
    cluster.kill_node(1);
    assert_eq!(Arc::strong_count(&user), 1, "a kill kept the dead node's user shard");
    assert_eq!(Arc::strong_count(&item), 1, "a kill kept the dead node's item shard");
}
