//! One learner on every worker: the in-process `Velox`, the simulator
//! behind `SimTransport` and the socket cluster behind `NetCluster` serve
//! the same model, bit for bit. All three fold observations into each
//! user's `IncrementalRidge` with the same λ and score with the same dot
//! kernel, so every predict — before an observe, after it, through a join
//! migration and across a node restart with its WAL — must agree in
//! `f64::to_bits`. They also agree on a crash: a user's state dies with
//! the last live replica of its partition.
//!
//! Lives in the root package because only the `velox::` facade reaches
//! all three backends.

use std::collections::HashMap;
use std::sync::Arc;

use velox::cluster::{Cluster, ControlPlane, RIDGE_LAMBDA};
use velox::linalg::IncrementalRidge;
use velox::prelude::*;

const DIM: usize = 5;
const USERS: u64 = 12;
const ITEMS: u64 = 16;

fn features(item: u64) -> Vec<f64> {
    (0..DIM as u64).map(|d| ((item * 7 + d * 3) % 11) as f64 / 5.0 - 1.0).collect()
}

fn item_table() -> Vec<(u64, Vec<f64>)> {
    (0..ITEMS).map(|i| (i, features(i))).collect()
}

/// The deterministic workload slice `from..from + n`: `(uid, item, y)`.
fn workload(from: u64, n: u64) -> impl Iterator<Item = (u64, u64, f64)> {
    (from..from + n).map(|i| (i % USERS, (i * 5 + i / USERS) % ITEMS, ((i * i) % 7) as f64 / 3.0))
}

struct Backends {
    velox: Velox,
    sim_cluster: Arc<Cluster>,
    sim: SimTransport,
    net: NetCluster,
    _wal: ScratchDir,
}

/// The in-process deployment: four nodes, one replica per partition.
fn deploy_velox() -> Velox {
    // Zero initial weights keep the bootstrap mean out of every prior:
    // the in-process state starts where a socket node's does.
    let table: HashMap<u64, Vector> =
        item_table().into_iter().map(|(i, x)| (i, Vector::from_vec(x))).collect();
    let als = AlsConfig { rank: DIM, ..Default::default() };
    let model = MatrixFactorizationModel::from_table("one-learner", table, 0.0, als).unwrap();
    let zeros = (0..USERS).map(|uid| (uid, Vector::zeros(DIM))).collect();
    Velox::deploy(Arc::new(model), zeros, VeloxConfig::default())
}

impl Backends {
    fn start() -> Backends {
        let velox = deploy_velox();

        let sim_cluster = Arc::new(Cluster::new(ClusterConfig {
            n_nodes: 3,
            max_nodes: 4,
            user_replication: 2,
            item_replication: 4,
            ..Default::default()
        }));
        sim_cluster.publish_item_features(item_table());
        let sim = SimTransport::new(Arc::clone(&sim_cluster), 0.0);

        let wal = ScratchDir::new("velox-one-learner");
        let net = NetCluster::start(NetClusterConfig {
            n_nodes: 3,
            max_nodes: 4,
            user_replication: 2,
            wal_root: Some(wal.path().to_path_buf()),
            workers: 4,
            ..Default::default()
        })
        .expect("start loopback cluster");
        net.publish_item_features(item_table());
        Backends { velox, sim_cluster, sim, net, _wal: wal }
    }

    /// The three scores of `(uid, item)`, asserted equal in every bit.
    fn predict(&self, uid: u64, item: u64, at: &str) -> f64 {
        let velox = self.velox.predict(uid, &Item::Id(item)).expect("velox predict").score;
        let sim = self.sim.predict(uid, item).expect("sim predict").score;
        let net = self.net.predict(uid, item).expect("net predict").score;
        assert_eq!(
            (velox.to_bits(), sim.to_bits()),
            (net.to_bits(), net.to_bits()),
            "{at}: uid {uid} item {item} scored velox {velox}, sim {sim}, net {net}"
        );
        velox
    }

    /// Predict, observe on all three, then predict the pair again.
    fn run(&self, from: u64, n: u64, at: &str) {
        for (uid, item, y) in workload(from, n) {
            self.predict(uid, item, at);
            self.velox.observe(uid, &Item::Id(item), y).expect("velox observe");
            self.sim.observe(uid, item, y).expect("sim observe");
            self.net.observe(uid, item, y).expect("net observe");
            self.predict(uid, item, at);
        }
    }

    /// Every user against every item; returns how many scores are not
    /// zero, so a sweep over untrained users cannot pass vacuously.
    fn sweep(&self, at: &str) -> usize {
        let scores = (0..USERS).flat_map(|uid| (0..ITEMS).map(move |item| (uid, item)));
        scores.filter(|&(uid, item)| self.predict(uid, item, at) != 0.0).count()
    }
}

#[test]
fn velox_the_simulator_and_the_socket_cluster_serve_the_same_model() {
    let b = Backends::start();
    assert_eq!(b.sweep("cold"), 0);
    b.run(0, 120, "first traffic");
    let pairs = (USERS * ITEMS) as usize;
    assert!(b.sweep("after first traffic") > pairs / 2, "the users learned");

    // Both twins grow by one node and move partitions onto it.
    let sim_node = b.sim_cluster.join_node().expect("sim join");
    let net_node = b.net.join_node().expect("net join");
    assert_eq!(sim_node, net_node);
    let sim_moved = b.sim_cluster.rebalance_join(sim_node).expect("sim rebalance");
    let net_moved = b.net.rebalance_join(net_node).expect("net rebalance");
    assert!(!net_moved.is_empty(), "a 3→4 join must move partitions");
    assert_eq!(sim_moved, net_moved, "the plan is deterministic");
    assert!(b.sweep("after the join migration") > pairs / 2);
    b.run(120, 120, "after the join migration");

    // A socket node restarts from its WAL; its users keep learning on a
    // replica while it is down.
    let victim = b.net.home_of_user(0);
    b.net.kill_node(victim);
    b.run(240, 24, "while a node is down");
    b.net.recover_node(victim).expect("recover");
    assert!(b.sweep("after the restart") > pairs / 2);
    b.run(264, 60, "after the restart");
}

/// A state's packed `A⁻¹` and weights, as bits.
fn state_bits(state: &IncrementalRidge) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (bits(state.packed_a_inv()), bits(state.weights().as_slice()))
}

/// Kill the only replica of a user's partition, recover it, observe once:
/// the user's state must be a fresh one from the deployment's prior after
/// that one observe — not the pre-crash `A⁻¹` — in `Velox` (whose prior is
/// the last-known-good weights) and in the simulator (the zero prior; the
/// crash emptied the slot).
#[test]
fn a_user_state_dies_with_the_last_live_replica_of_its_partition() {
    let (uid, y) = (3, 1.5);
    let velox = deploy_velox();
    // An item the crash does not take with it (each item has one copy).
    let home = velox.cluster().home_of_user(uid);
    let item = (0..ITEMS).find(|&i| velox.cluster().home_of_item(i) != home).unwrap();
    let after_one_observe = |prior: &Vector| {
        let mut fresh = IncrementalRidge::from_prior(prior, RIDGE_LAMBDA);
        fresh.observe(&Vector::from_vec(features(item)), y).unwrap();
        Some(state_bits(&fresh))
    };

    for (u, i, y) in workload(0, 120) {
        velox.observe(u, &Item::Id(i), y).expect("velox observe");
    }
    let prior = velox.user_store().read(uid, |s| s.weights().clone()).expect("the user learned");
    velox.kill_node(home);
    velox.recover_node(home);
    velox.observe(uid, &Item::Id(item), y).expect("velox observe");
    assert_eq!(
        velox.user_store().read(uid, state_bits),
        after_one_observe(&prior),
        "velox: the state outlived its partition's last replica"
    );

    let cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: 3,
        user_replication: 1,
        item_replication: 3,
        ..Default::default()
    }));
    cluster.publish_item_features(item_table());
    let sim = SimTransport::new(Arc::clone(&cluster), 0.0);
    for (u, i, y) in workload(0, 120) {
        sim.observe(u, i, y).expect("sim observe");
    }
    assert!(sim.user_store().read(uid, |s| s.n_obs()).is_some_and(|n| n > 0));
    let home = cluster.home_of_user(uid);
    cluster.kill_node(home);
    cluster.recover_node(home);
    sim.observe(uid, item, y).expect("sim observe");
    assert_eq!(
        sim.user_store().read(uid, state_bits),
        after_one_observe(&Vector::zeros(DIM)),
        "sim: the state outlived its partition's last replica"
    );
}
