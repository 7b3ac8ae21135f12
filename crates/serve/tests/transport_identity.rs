//! Bit-identity of the batched predict pass over cluster transports: the
//! in-process simulator and the real loopback TCP runtime must both come
//! back bit-identical between `predict_batch` and N sequential
//! `predict_one` calls — including when requests flow through the
//! serving tier's batching queue under real concurrency.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use velox_cluster::{Cluster, ClusterConfig, SimTransport, Transport};
use velox_core::Item;
use velox_net::{NetCluster, NetClusterConfig};
use velox_serve::{BatchConfig, PredictBackend, ServeConfig, ServeTier, TransportBackend};

const DIM: usize = 3;
const LR: f64 = 0.1;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 5) as f64 / 4.0).collect()
}

fn seeded_items() -> Vec<(u64, Vec<f64>)> {
    (0..16u64).map(|i| (i, item_features(i))).collect()
}

fn seed_observes(transport: &dyn Transport) {
    for uid in 0..6u64 {
        for i in 0..24u64 {
            let y = ((uid * 7 + i * 3) % 10) as f64 / 3.0;
            transport.observe(uid, i % 16, y).expect("seed observe");
        }
    }
}

fn sim_transport() -> Arc<dyn Transport + Send + Sync> {
    let cluster = Arc::new(Cluster::new(ClusterConfig { n_nodes: 3, ..Default::default() }));
    cluster.publish_item_features(seeded_items());
    let transport = SimTransport::new(cluster, LR);
    seed_observes(&transport);
    Arc::new(transport)
}

fn tcp_transport() -> Arc<dyn Transport + Send + Sync> {
    let cluster = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        lr: LR,
        wal_root: None,
        workers: 8,
        request_timeout: Duration::from_secs(2),
        ..Default::default()
    })
    .expect("start loopback cluster");
    cluster.publish_item_features(seeded_items());
    seed_observes(&cluster);
    Arc::new(cluster)
}

fn requests() -> Vec<(u64, Item)> {
    let mut reqs = Vec::new();
    for uid in 0..6u64 {
        for item in 0..16u64 {
            reqs.push((uid, Item::Id(item)));
        }
    }
    // Duplicate pairs exercise the backend's coalescing memo.
    reqs.push((2, Item::Id(3)));
    reqs.push((2, Item::Id(3)));
    reqs
}

fn assert_backend_bit_identity(transport: Arc<dyn Transport + Send + Sync>, label: &str) {
    let backend = TransportBackend::new(transport);
    let reqs = requests();
    let sequential: Vec<f64> = reqs
        .iter()
        .map(|(uid, item)| backend.predict_one(*uid, item).expect("sequential").score)
        .collect();
    for (i, result) in backend.predict_batch(&reqs).into_iter().enumerate() {
        let got = result.expect("batched").score;
        assert_eq!(
            sequential[i].to_bits(),
            got.to_bits(),
            "{label}: request {i} diverged between batched and sequential"
        );
    }
}

fn assert_tier_bit_identity(transport: Arc<dyn Transport + Send + Sync>, label: &str) {
    // Reference scores through the unbatched path first (no observes run
    // concurrently, so scores are a pure function of the weight table).
    let reference: HashMap<(u64, u64), u64> = {
        let backend = TransportBackend::new(Arc::clone(&transport));
        requests()
            .iter()
            .map(|(uid, item)| {
                let score = backend.predict_one(*uid, item).expect("reference").score;
                ((*uid, item.id().unwrap()), score.to_bits())
            })
            .collect()
    };

    let tier = ServeTier::with_config(ServeConfig {
        batch: BatchConfig {
            slo: Duration::from_millis(250),
            max_batch: 64,
            initial_batch: 1,
            additive_step: 4,
        },
    });
    tier.register("cluster", Arc::new(TransportBackend::new(transport))).unwrap();

    let threads = 32;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let tier = Arc::clone(&tier);
            let reference = reference.clone();
            std::thread::spawn(move || {
                for round in 0..8u64 {
                    let uid = (t as u64 + round) % 6;
                    let item = (t as u64 * 3 + round) % 16;
                    let got =
                        tier.predict("cluster", uid, &Item::Id(item)).expect("tier predict").score;
                    assert_eq!(
                        reference[&(uid, item)],
                        got.to_bits(),
                        "batched tier answer diverged for ({uid}, {item})"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let status = &tier.backends()[0];
    assert_eq!(status.lane.requests, threads as u64 * 8, "{label}: all requests served");
}

#[test]
fn sim_transport_batched_pass_is_bit_identical() {
    assert_backend_bit_identity(sim_transport(), "sim");
}

#[test]
fn tcp_transport_batched_pass_is_bit_identical() {
    assert_backend_bit_identity(tcp_transport(), "tcp");
}

#[test]
fn tier_batching_is_bit_identical_over_sim_transport() {
    assert_tier_bit_identity(sim_transport(), "sim");
}

#[test]
fn tier_batching_is_bit_identical_over_tcp() {
    assert_tier_bit_identity(tcp_transport(), "tcp");
}
