//! `Transport::predict_many` over the loopback TCP runtime: one
//! `PredictBatch` frame per owning node must come back bit-identical to
//! N sequential `Transport::predict` calls, and pairs the batch path
//! cannot answer must fall back to the single-predict path's precise
//! error.

use velox_cluster::{Transport, TransportError};
use velox_net::{NetCluster, NetClusterConfig};

const DIM: usize = 4;
const N_ITEMS: u64 = 16;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 11) as f64 / 10.0).collect()
}

fn start_cluster() -> NetCluster {
    let cluster = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        wal_root: None,
        workers: 4,
        ..Default::default()
    })
    .expect("start loopback cluster");
    cluster.publish_item_features((0..N_ITEMS).map(|i| (i, item_features(i))).collect());
    for uid in 0..8u64 {
        for i in 0..12u64 {
            let y = ((uid * 7 + i * 3) % 10) as f64 / 3.0;
            cluster.observe(uid, i % N_ITEMS, y).expect("seed observe");
        }
    }
    cluster
}

#[test]
fn batched_scores_are_bit_identical_across_owners() {
    let cluster = start_cluster();
    // Users 0..8 spread over all three nodes; uid 70 is never-observed
    // (cold start); duplicates exercise request-order reassembly.
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for uid in 0..8u64 {
        for item in 0..N_ITEMS {
            pairs.push((uid, item));
        }
    }
    pairs.push((3, 5));
    pairs.push((70, 2));

    let sequential: Vec<_> =
        pairs.iter().map(|&(uid, item)| cluster.predict(uid, item).expect("sequential")).collect();
    let batched = cluster.predict_many(&pairs);

    assert_eq!(batched.len(), pairs.len());
    let mut nodes = std::collections::BTreeSet::new();
    for ((seq, got), &(uid, item)) in sequential.iter().zip(&batched).zip(&pairs) {
        let got = got.as_ref().expect("batched predict");
        assert_eq!(
            got.score.to_bits(),
            seq.score.to_bits(),
            "batched score diverged for uid={uid} item={item}"
        );
        assert_eq!(got.cold_start, seq.cold_start, "cold-start flag for uid={uid}");
        assert_eq!(got.node, seq.node, "serving node for uid={uid}");
        nodes.insert(got.node);
    }
    assert!(nodes.len() > 1, "the batch spanned multiple owning nodes, got {nodes:?}");
    cluster.shutdown();
}

#[test]
fn unanswerable_pairs_fall_back_to_the_single_predict_error() {
    let cluster = start_cluster();
    // Item 999 is not seeded anywhere: the batch frame answers it `!ok`
    // and the client retries it on the single-predict path, which
    // produces the same error the sequential call does. The healthy
    // pairs in the same group are unaffected.
    let pairs = vec![(1u64, 2u64), (1, 999), (2, 3)];
    let results = cluster.predict_many(&pairs);
    assert!(results[0].is_ok(), "healthy pair served");
    assert!(results[2].is_ok(), "healthy pair served");
    let sequential = cluster.predict(1, 999).expect_err("unseeded item fails");
    match (&results[1], &sequential) {
        (Err(TransportError::Failed(batch)), TransportError::Failed(seq)) => {
            assert_eq!(batch, seq, "fallback reproduces the sequential error");
        }
        (Err(TransportError::Unavailable), TransportError::Unavailable) => {}
        other => panic!("expected matching unavailable/failed errors, got {other:?}"),
    }
    cluster.shutdown();
}
