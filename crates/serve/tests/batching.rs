//! Batching correctness: batched passes are bit-identical to sequential
//! ones for every in-tree backend, coalescing actually happens under
//! concurrency, AIMD backs off on SLO violations, and a concurrent
//! version swap never serves a request from a half-swapped model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use velox_batch::AlsConfig;
use velox_core::{Item, Velox, VeloxConfig};
use velox_linalg::Vector;
use velox_models::{MatrixFactorizationModel, RandomFourierModel};
use velox_serve::{
    BatchConfig, CustomScorer, PredictBackend, ServeConfig, ServeError, ServeTier, VeloxBackend,
};

const DIM: usize = 4;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 5) as f64 / 4.0 - 0.4).collect()
}

/// A deployed MF model with online state for a handful of users.
fn mf_velox() -> Arc<Velox> {
    let factors: HashMap<u64, Vector> =
        (0..32u64).map(|i| (i, Vector::from_vec(item_features(i)))).collect();
    let als = AlsConfig { rank: DIM, ..Default::default() };
    let model = MatrixFactorizationModel::from_table("mf", factors, 3.2, als).expect("mf model");
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    seed_observes(&velox);
    velox
}

/// A deployed content-basis (random Fourier) model.
fn basis_velox() -> Arc<Velox> {
    let model = RandomFourierModel::new("basis", DIM, 8, 0.7, 0.1, 9);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..32u64 {
        velox.register_item(item, item_features(item));
    }
    seed_observes(&velox);
    velox
}

fn seed_observes(velox: &Velox) {
    for uid in 0..8u64 {
        for item in 0..8u64 {
            let y = ((uid * 7 + item * 3) % 10) as f64 / 3.0;
            velox.observe(uid, &Item::Id(item), y).expect("seed observe");
        }
    }
}

fn requests() -> Vec<(u64, Item)> {
    let mut reqs = Vec::new();
    for uid in 0..10u64 {
        for item in 0..16u64 {
            reqs.push((uid, Item::Id(item)));
        }
    }
    // Duplicates within the batch must also come back identical.
    reqs.push((0, Item::Id(0)));
    reqs.push((3, Item::Id(5)));
    reqs
}

fn assert_bit_identical(backend: &dyn PredictBackend, label: &str) {
    let reqs = requests();
    let sequential: Vec<f64> = reqs
        .iter()
        .map(|(uid, item)| backend.predict_one(*uid, item).expect("sequential predict").score)
        .collect();
    let batched = backend.predict_batch(&reqs);
    assert_eq!(batched.len(), reqs.len());
    for (i, (seq, batch)) in sequential.iter().zip(&batched).enumerate() {
        let got = batch.as_ref().expect("batched predict").score;
        assert_eq!(
            seq.to_bits(),
            got.to_bits(),
            "{label}: request {i} diverged: sequential {seq} vs batched {got}"
        );
    }
    // And in the other order, on a fresh pass: batch-first must agree too
    // (the batch may warm caches; the answers still may not move).
    let batched2 = backend.predict_batch(&reqs);
    for (a, b) in batched.iter().zip(&batched2) {
        assert_eq!(
            a.as_ref().unwrap().score.to_bits(),
            b.as_ref().unwrap().score.to_bits(),
            "{label}: repeated batch diverged"
        );
    }
}

#[test]
fn batched_pass_is_bit_identical_for_every_backend() {
    assert_bit_identical(&VeloxBackend::new(mf_velox()), "velox/mf");
    assert_bit_identical(&VeloxBackend::new(basis_velox()), "velox/basis");
    let table: HashMap<u64, f64> = (0..16u64).map(|i| (i, (i as f64).sin())).collect();
    assert_bit_identical(&CustomScorer::from_table(table, 0.25), "custom/table");
    assert_bit_identical(
        &CustomScorer::from_fn(|uid, item| {
            Ok((uid as f64 + 1.0).ln() + item.id().unwrap_or(0) as f64)
        }),
        "custom/fn",
    );
}

#[test]
fn tier_coalesces_concurrent_predicts_into_batches() {
    let config = ServeConfig {
        batch: BatchConfig {
            slo: Duration::from_millis(250),
            max_batch: 64,
            initial_batch: 1,
            additive_step: 4,
        },
    };
    let tier = ServeTier::with_config(config);
    // A deliberately slow scorer so the queue builds up behind the first
    // batches and coalescing must kick in.
    tier.register(
        "slow",
        Arc::new(CustomScorer::from_fn(|uid, item| {
            std::thread::sleep(Duration::from_micros(300));
            Ok(uid as f64 + item.id().unwrap_or(0) as f64)
        })),
    )
    .unwrap();

    let threads = 16;
    let per_thread = 25;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let tier = Arc::clone(&tier);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let uid = t as u64;
                    let item = Item::Id(i as u64);
                    let got = tier.predict("slow", uid, &item).expect("batched predict");
                    assert_eq!(got.score, uid as f64 + i as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let status = &tier.backends()[0];
    assert_eq!(status.lane.requests, (threads * per_thread) as u64);
    assert!(
        status.lane.batches < status.lane.requests,
        "expected coalescing: {} batches for {} requests",
        status.lane.batches,
        status.lane.requests
    );
    assert!(status.lane.mean_batch > 1.0, "mean batch {}", status.lane.mean_batch);
    // The batch-size histogram saw every batch.
    let hist = tier.registry().snapshot().histogram("velox_serve_batch_size").expect("batch hist");
    assert_eq!(hist.count, status.lane.batches);
}

#[test]
fn aimd_backs_off_to_singleton_batches_on_slo_violation() {
    let config = ServeConfig {
        batch: BatchConfig {
            // Impossible SLO: every batch violates, so multiplicative
            // decrease must pin the target at 1.
            slo: Duration::from_nanos(1),
            max_batch: 64,
            initial_batch: 16,
            additive_step: 4,
        },
    };
    let tier = ServeTier::with_config(config);
    tier.register("m", Arc::new(CustomScorer::from_fn(|_, _| Ok(1.0)))).unwrap();
    for i in 0..40u64 {
        tier.predict("m", i, &Item::Id(i)).unwrap();
    }
    let status = &tier.backends()[0];
    assert!(status.lane.slo_violations > 0, "violations must be counted");
    assert_eq!(status.lane.batch_target, 1, "MD must floor the target at 1");
}

#[test]
fn concurrent_version_swap_never_serves_a_half_swapped_model() {
    let tier = ServeTier::with_config(ServeConfig {
        batch: BatchConfig {
            slo: Duration::from_millis(100),
            max_batch: 32,
            initial_batch: 1,
            additive_step: 2,
        },
    });
    // v1 scores +f(uid, item); v2 scores -f(uid, item). Any mixing of the
    // two inside one answer would produce a third value.
    let f = |uid: u64, id: u64| (uid * 1000 + id) as f64 + 0.5;
    tier.register(
        "m",
        Arc::new(CustomScorer::from_fn(move |uid, item| Ok(f(uid, item.id().unwrap())))),
    )
    .unwrap();
    tier.register(
        "m",
        Arc::new(CustomScorer::from_fn(move |uid, item| Ok(-f(uid, item.id().unwrap())))),
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let flipper = {
        let tier = Arc::clone(&tier);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut v = 2u64;
            while !stop.load(Ordering::Relaxed) {
                tier.flip_alias("m", v).expect("flip");
                v = if v == 2 { 1 } else { 2 };
                std::thread::yield_now();
            }
        })
    };

    let clients: Vec<_> = (0..8)
        .map(|t| {
            let tier = Arc::clone(&tier);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    let uid = t as u64;
                    let expect = f(uid, i);
                    let got = tier.predict("m", uid, &Item::Id(i)).expect("predict").score;
                    assert!(
                        got.to_bits() == expect.to_bits() || got.to_bits() == (-expect).to_bits(),
                        "request saw a half-swapped model: got {got}, want ±{expect}"
                    );
                    // The unbatched path holds the same invariant.
                    let direct = tier.predict_direct("m", uid, &Item::Id(i)).unwrap().score;
                    assert!(
                        direct.to_bits() == expect.to_bits()
                            || direct.to_bits() == (-expect).to_bits()
                    );
                }
            })
        })
        .collect();
    for h in clients {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    flipper.join().unwrap();
}

#[test]
fn shutdown_refuses_new_work_with_typed_error() {
    let tier = ServeTier::with_config(ServeConfig::default());
    tier.register("m", Arc::new(CustomScorer::from_fn(|_, _| Ok(1.0)))).unwrap();
    tier.predict("m", 1, &Item::Id(1)).unwrap();
    tier.shutdown();
    assert_eq!(tier.predict("m", 1, &Item::Id(1)).unwrap_err(), ServeError::ShuttingDown);
}

#[test]
fn tier_retrain_mirrors_the_velox_swap_at_the_manager_level() {
    let tier = ServeTier::with_config(ServeConfig::default());
    let velox = mf_velox();
    tier.register("mf", Arc::new(VeloxBackend::new(Arc::clone(&velox)))).unwrap();
    let before = tier.backends()[0].clone();
    assert_eq!(before.serving_version, 1);
    let new_version = tier.retrain("mf").expect("retrain through the tier");
    assert_eq!(new_version, 2);
    let after = tier.backends()[0].clone();
    assert_eq!(after.serving_version, 2);
    assert_eq!(after.versions, vec![2], "the superseded version retired");
    assert!(
        after.model_version > before.model_version,
        "the Velox deployment's own version lifecycle advanced"
    );
    // The retrained model still serves.
    tier.predict("mf", 1, &Item::Id(3)).expect("predict after swap");
}

#[test]
fn a_free_lane_serves_on_the_callers_thread() {
    let tier = ServeTier::with_config(ServeConfig::default());
    let served_on = Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = Arc::clone(&served_on);
    tier.register(
        "m",
        Arc::new(CustomScorer::from_fn(move |_, _| {
            log.lock().unwrap().push(std::thread::current().id());
            Ok(1.0)
        })),
    )
    .unwrap();
    for i in 0..3u64 {
        tier.predict("m", i, &Item::Id(i)).unwrap();
    }
    // No hand-off to a worker: nothing was queued, so nothing waited.
    let me = std::thread::current().id();
    assert!(served_on.lock().unwrap().iter().all(|&id| id == me));
    let wait =
        tier.registry().snapshot().histogram("velox_serve_queue_wait_ns").expect("wait hist");
    assert_eq!(wait.count, 3, "one queue-wait sample per request");
}

#[test]
fn a_panicking_backend_fails_its_batch_and_the_lane_keeps_serving() {
    let tier = ServeTier::with_config(ServeConfig::default());
    tier.register(
        "m",
        Arc::new(CustomScorer::from_fn(|uid, _| {
            assert!(uid != 13, "unlucky uid");
            Ok(uid as f64)
        })),
    )
    .unwrap();
    assert!(matches!(tier.predict("m", 13, &Item::Id(0)), Err(ServeError::Custom(_))));
    assert_eq!(tier.predict("m", 2, &Item::Id(0)).unwrap().score, 2.0);
}
