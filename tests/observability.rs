//! Integration tests for the observability layer: every counter the
//! registry exposes reconciles exactly with the operations the test issued,
//! and the lifecycle event log records retrains, swaps, and rollbacks.

use std::collections::HashMap;
use std::sync::Arc;

use velox::prelude::*;

const DIM: usize = 3;
const N_ITEMS: u64 = 16;

fn item_attrs(item: u64) -> Vec<f64> {
    (0..DIM).map(|k| ((item as f64 + 1.0) * (k as f64 + 0.7) * 0.41).cos()).collect()
}

fn fresh_velox() -> Arc<Velox> {
    let model = IdentityModel::new("obs-test", DIM, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..N_ITEMS {
        velox.register_item(item, item_attrs(item));
    }
    velox
}

/// Every predict() increments exactly one of {hits, misses}; every
/// observe() records exactly one sample in the observe histogram and one
/// observation counter tick. Nothing is dropped, nothing double-counted.
#[test]
fn counters_reconcile_with_operations() {
    let velox = fresh_velox();
    let mut predict_calls = 0u64;
    let mut observe_calls = 0u64;

    // A deliberate mix: bootstrapped serves (uncacheable), trained users
    // (miss then hit), and repeats.
    for round in 0..4u64 {
        for item in 0..N_ITEMS {
            velox.predict(round, &Item::Id(item)).unwrap();
            predict_calls += 1;
        }
        for item in 0..N_ITEMS / 2 {
            velox.observe(round, &Item::Id(item), (item as f64 * 0.3).sin()).unwrap();
            observe_calls += 1;
        }
        // The user now has online state, so these populate the cache...
        for item in 0..N_ITEMS {
            velox.predict(round, &Item::Id(item)).unwrap();
            predict_calls += 1;
        }
        // ...and identical repeats (no intervening observe) must hit it.
        for item in 0..N_ITEMS {
            velox.predict(round, &Item::Id(item)).unwrap();
            predict_calls += 1;
        }
    }

    let snap = velox.registry().snapshot();
    let hits = snap.counter("velox_prediction_cache_hits_total");
    let misses = snap.counter("velox_prediction_cache_misses_total");
    assert_eq!(
        hits + misses,
        predict_calls,
        "every predict increments exactly one of hits ({hits}) / misses ({misses})"
    );
    assert!(hits > 0, "repeated predictions must produce some hits");
    assert!(misses > 0, "first-time predictions must produce some misses");

    let predict_hist = snap.histogram("velox_predict_latency_ns").expect("predict histogram");
    assert_eq!(predict_hist.count, predict_calls, "one latency sample per predict");

    let observe_hist = snap.histogram("velox_observe_latency_ns").expect("observe histogram");
    assert_eq!(observe_hist.count, observe_calls, "one latency sample per observe");
    assert_eq!(snap.counter("velox_observations_total"), observe_calls);
    assert_eq!(velox.stats().observations, observe_calls, "stats() sources the same registry");

    let update_hist =
        snap.histogram("velox_online_update_latency_ns").expect("online update histogram");
    assert_eq!(update_hist.count, observe_calls, "one online update per observe");
}

/// top_k scores candidates through the prediction cache: each candidate
/// contributes exactly one hit-or-miss tick, so the counters still
/// reconcile when batch scoring is in play.
#[test]
fn topk_candidates_count_as_cache_lookups() {
    let velox = fresh_velox();
    velox.observe(1, &Item::Id(0), 1.0).unwrap();

    let before = velox.registry().snapshot();
    let base = before.counter("velox_prediction_cache_hits_total")
        + before.counter("velox_prediction_cache_misses_total");

    let items: Vec<Item> = (0..8u64).map(Item::Id).collect();
    velox.top_k(1, &items).unwrap();
    velox.top_k(1, &items).unwrap();

    let after = velox.registry().snapshot();
    let total = after.counter("velox_prediction_cache_hits_total")
        + after.counter("velox_prediction_cache_misses_total");
    assert_eq!(total - base, 16, "8 candidates x 2 calls, one tick each");
    assert!(
        after.counter("velox_prediction_cache_hits_total")
            > before.counter("velox_prediction_cache_hits_total"),
        "second top_k over identical candidates must hit"
    );
}

/// Retrain emits RetrainStart, then VersionSwap (the new model going
/// live), then RetrainFinish (the whole operation, swap included); the
/// version in the swap matches what retrain returned.
#[test]
fn lifecycle_events_record_retrain_and_swap() {
    let velox = fresh_velox();
    for item in 0..N_ITEMS {
        velox.observe(0, &Item::Id(item), 0.5).unwrap();
    }
    let new_version = velox.retrain_offline().unwrap();

    let events = velox.registry().recent_events();
    let kinds: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();
    let start = kinds.iter().position(|k| *k == "retrain_start").expect("retrain_start");
    let finish = kinds.iter().position(|k| *k == "retrain_finish").expect("retrain_finish");
    let swap = kinds.iter().position(|k| *k == "version_swap").expect("version_swap");
    assert!(start < swap && swap < finish, "order: start < swap < finish, got {kinds:?}");

    match events[swap].kind {
        EventKind::VersionSwap { to, .. } => assert_eq!(to, new_version),
        _ => unreachable!("position() found version_swap"),
    }
    assert_eq!(velox.registry().snapshot().counter("velox_retrains_total"), 1);

    // Sequence numbers are strictly increasing.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

/// `velox_online_state_bytes` is the resident online state: each user's
/// packed `A⁻¹` plus `b`, `w` and `u`, added when the state is created and
/// taken off when the store drops it — a version swap frees every state
/// (rollback restores weights, not states). Observes of a known user leave
/// it alone.
#[test]
fn online_state_bytes_counts_each_resident_user_state() {
    let per_user = ((DIM * (DIM + 1) / 2 + 3 * DIM) * std::mem::size_of::<f64>()) as i64;
    let velox = fresh_velox();
    let gauge = || velox.registry().snapshot().gauge("velox_online_state_bytes");
    assert_eq!(gauge(), Some(0), "pure serving holds no online state");
    for uid in 0..5 {
        for item in 0..4 {
            velox.observe(uid, &Item::Id(item), 0.5).unwrap();
        }
    }
    assert_eq!(gauge(), Some(5 * per_user));
    // Each retrain frees the live states; the next observe starts the one
    // user it touches afresh.
    for round in 1..=5 {
        velox.retrain_offline().unwrap();
        velox.observe(0, &Item::Id(1), 0.25).unwrap();
        assert_eq!(gauge(), Some(per_user), "after retrain {round}");
    }
}
