//! Model-lifecycle tests (§4.3, §6): online updates improve accuracy,
//! staleness detection triggers retraining, retrains swap versions and
//! repopulate caches, rollback restores prior behaviour, and retraining
//! reads the one observation log in arrival order.

use std::collections::HashMap;
use std::sync::Arc;

use velox::prelude::*;
use velox_data::three_way_split;

fn make_dataset(seed: u64) -> RatingsDataset {
    RatingsDataset::generate(SyntheticConfig {
        n_users: 50,
        n_items: 100,
        rank: 6,
        ratings_per_user: 24,
        noise_std: 0.3,
        seed,
        ..Default::default()
    })
}

fn deploy_from(ds: &RatingsDataset, train: &[Rating], config: VeloxConfig) -> Arc<Velox> {
    let executor = JobExecutor::new(4);
    let als = AlsModel::train(
        train,
        ds.config.n_users,
        ds.config.n_items,
        AlsConfig { rank: 6, lambda: 0.05, iterations: 6, seed: 3 },
        &executor,
    );
    let (model, weights) = MatrixFactorizationModel::from_als("m", &als);
    Arc::new(Velox::deploy(Arc::new(model), weights, config))
}

fn heldout_rmse(velox: &Velox, heldout: &[Rating], mu: f64) -> f64 {
    let mut sse = 0.0;
    for r in heldout {
        let p = velox.predict(r.uid, &Item::Id(r.item_id)).unwrap().score + mu;
        sse += (p - r.value) * (p - r.value);
    }
    (sse / heldout.len() as f64).sqrt()
}

fn mean_rating(ratings: &[Rating]) -> f64 {
    ratings.iter().map(|r| r.value).sum::<f64>() / ratings.len() as f64
}

#[test]
fn online_updates_reduce_heldout_error() {
    let ds = make_dataset(41);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);

    let before = heldout_rmse(&velox, &split.heldout, mu);
    for r in &split.online {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }
    let after = heldout_rmse(&velox, &split.heldout, mu);
    assert!(after < before, "online updates must improve held-out RMSE: {before} -> {after}");
}

#[test]
fn observe_outcome_reports_prequential_loss() {
    let ds = make_dataset(42);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);

    let r = &split.online[0];
    let pred = velox.predict(r.uid, &Item::Id(r.item_id)).unwrap().score;
    let outcome = velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    assert!((outcome.predicted_before - pred).abs() < 1e-9);
    let expected_loss = (r.value - mu - pred) * (r.value - mu - pred);
    assert!((outcome.loss - expected_loss).abs() < 1e-9);
    assert!(outcome.trained);
}

#[test]
fn crossval_holdout_skips_training() {
    let ds = make_dataset(43);
    let split = three_way_split(&ds, 0.5, 0.7);
    let mut config = VeloxConfig::single_node();
    config.crossval_holdout_every = 3;
    let velox = deploy_from(&ds, &split.offline, config);
    let mu = mean_rating(&split.offline);

    let mut trained = 0;
    let mut held = 0;
    for r in split.online.iter().take(99) {
        let outcome = velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
        if outcome.trained {
            trained += 1;
        } else {
            held += 1;
        }
    }
    assert_eq!(held, 33, "every third observation held out");
    assert_eq!(trained, 66);
    assert!(velox.stats().generalization_loss.is_some());
}

#[test]
fn manual_retrain_bumps_version_and_uses_new_data() {
    let ds = make_dataset(44);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);

    assert!(
        matches!(velox.retrain_offline(), Err(VeloxError::RetrainFailed(_))),
        "retrain without any observations must fail loudly"
    );

    for r in &split.online {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }
    let before = heldout_rmse(&velox, &split.heldout, mu);
    let v = velox.retrain_offline().unwrap();
    assert_eq!(v, 2);
    assert_eq!(velox.stats().model_version, 2);
    assert_eq!(velox.stats().retrains, 1);
    let after = heldout_rmse(&velox, &split.heldout, mu);
    assert!(
        after < before * 1.1,
        "retraining on strictly more data should not regress: {before} -> {after}"
    );
}

#[test]
fn retrain_repopulates_hot_cache_entries() {
    let ds = make_dataset(45);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);

    // Warm the cache with hot pairs, then feed data and retrain.
    for uid in 0..10u64 {
        velox.predict(uid, &Item::Id(3)).unwrap();
    }
    for r in split.online.iter().take(200) {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }
    velox.retrain_offline().unwrap();
    // The previously-hot pair should be warm again under the new version
    // (for users whose weights survived the retrain).
    let resp = velox.predict(0, &Item::Id(3)).unwrap();
    assert!(resp.cached, "hot pair must be repopulated at swap time");
}

#[test]
fn staleness_auto_triggers_retrain_on_drift() {
    let ds = make_dataset(46);
    let split = three_way_split(&ds, 0.5, 0.7);
    let mut config = VeloxConfig::single_node();
    config.auto_retrain = true;
    // Squared-error loss streams are bursty; the threshold must tolerate
    // natural fluctuation and fire only on the genuine regime change below.
    config.staleness_threshold = 2.0;
    config.staleness_warmup = 200;
    let velox = deploy_from(&ds, &split.offline, config);
    let mu = mean_rating(&split.offline);

    // Settle into a stable-loss regime.
    for r in &split.online {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }
    assert_eq!(velox.stats().retrains, 0, "no drift yet");

    // World shift: labels invert (a Top-40 churn at catalog scale).
    let mut retrained = false;
    for _ in 0..5 {
        for r in &split.online {
            let shifted = -(r.value - mu) * 2.0;
            let outcome = velox.observe(r.uid, &Item::Id(r.item_id), shifted).unwrap();
            if outcome.retrained {
                retrained = true;
                break;
            }
        }
        if retrained {
            break;
        }
    }
    assert!(retrained, "sustained loss increase must auto-trigger a retrain");
    assert!(velox.stats().retrains >= 1);
    assert!(!velox.is_stale(), "retrain resets the staleness flag");
}

#[test]
fn rollback_restores_prior_predictions() {
    let ds = make_dataset(47);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);

    for r in &split.online {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }
    // Rollback restores a version's end-of-reign state (the weights as they
    // stood when the version was retired, online updates included).
    let probe_score_v1 = velox.predict(1, &Item::Id(2)).unwrap().score;
    velox.retrain_offline().unwrap(); // → v2
    let probe_score_v2 = velox.predict(1, &Item::Id(2)).unwrap().score;
    assert_eq!(velox.rollback_versions(), vec![1]);
    let v = velox.rollback(1).unwrap();
    assert_eq!(v, 3, "rollback serves under a fresh version number");
    let probe_rolled_back = velox.predict(1, &Item::Id(2)).unwrap().score;
    assert!(
        (probe_rolled_back - probe_score_v1).abs() < 1e-9,
        "rollback must restore v1 behaviour: {probe_score_v1} vs {probe_rolled_back}"
    );
    let _ = probe_score_v2;
    // The pre-rollback version is itself recoverable.
    assert!(velox.rollback_versions().contains(&2));
    assert!(matches!(velox.rollback(99), Err(VeloxError::VersionNotFound(99))));
}

#[test]
fn underperforming_users_surface_in_diagnostics() {
    let ds = make_dataset(48);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);

    // Most users behave; user 0 gets adversarial labels.
    for r in &split.online {
        let y = if r.uid == 0 { 25.0 } else { r.value - mu };
        velox.observe(r.uid, &Item::Id(r.item_id), y).unwrap();
    }
    let bad = velox.underperforming_users(3.0, 3);
    assert!(bad.contains(&0), "user 0 must be flagged: {bad:?}");
    assert!(bad.len() < 5, "only genuine outliers flagged: {bad:?}");
}

#[test]
fn async_retrain_swaps_in_background_and_rejects_concurrency() {
    let ds = make_dataset(49);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);
    for r in &split.online {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }

    let handle = velox.retrain_offline_async().unwrap();
    // Serving continues while the retrain runs; a second retrain request
    // (sync or async) is rejected rather than queued.
    let mut rejected = false;
    loop {
        velox.predict(1, &Item::Id(1)).unwrap();
        match velox.retrain_offline() {
            Err(VeloxError::RetrainInProgress) => {
                rejected = true;
            }
            _ => break, // first retrain finished; this one ran (or failed differently)
        }
        if handle.is_finished() {
            break;
        }
    }
    let version = handle.join().unwrap().unwrap();
    assert!(version >= 2);
    assert!(rejected || velox.stats().retrains >= 1);
    // After the async retrain completes, another one is permitted.
    let again = velox.retrain_offline().unwrap();
    assert!(again > version);
}

#[test]
fn observations_during_async_retrain_are_not_lost() {
    let ds = make_dataset(50);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);
    for r in &split.online {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }

    // Launch a retrain in the background and hammer user 7 with a strong
    // signal while it runs; the post-swap replay must carry those
    // observations onto the new version's online state.
    let handle = velox.retrain_offline_async().unwrap();
    let mut mid_retrain = 0u64;
    while !handle.is_finished() {
        velox.observe(7, &Item::Id(3), 10.0).unwrap();
        mid_retrain += 1;
    }
    handle.join().unwrap().unwrap();
    assert_eq!(velox.stats().model_version, 2);

    if mid_retrain > 0 {
        // The strong mid-retrain signal must be visible post-swap: the new
        // version's prediction for (7, 3) reflects the replayed updates
        // rather than only the batch model (which may or may not have seen
        // them depending on snapshot timing).
        let pred = velox.predict(7, &Item::Id(3)).unwrap().score;
        assert!(
            pred > 1.0,
            "{mid_retrain} mid-retrain observations of y=10 must survive the swap: {pred}"
        );
    }
}

/// One log feeds retraining: a computational-model deployment that
/// observes catalog and raw-payload items retrains to exactly the user
/// weights `model.retrain` computes on those examples in arrival order
/// (catalog ids resolved to their attributes), bit for bit.
#[test]
fn retrain_reads_catalog_and_raw_examples_in_arrival_order() {
    let attrs =
        |item: u64| (0..3).map(|k| ((item * 3 + k) as f64 * 0.37).sin()).collect::<Vec<_>>();
    let model: Arc<dyn VeloxModel> =
        Arc::new(RandomFourierModel::new("rff-mix", 3, 16, 1.0, 0.3, 5));
    let config = VeloxConfig { auto_retrain: false, ..VeloxConfig::single_node() };
    let executor = JobExecutor::new(config.training_workers);
    let velox = Velox::deploy(Arc::clone(&model), HashMap::new(), config);
    for item in 0..10 {
        velox.register_item(item, attrs(item));
    }

    let mut examples = Vec::new();
    for i in 0..60u64 {
        let (uid, y) = (i % 5, (i as f64 * 0.23).sin());
        let raw = Item::Raw(Vector::from_vec(attrs(100 + i)));
        let item = if i % 4 == 1 { raw } else { Item::Id(i % 10) };
        velox.observe(uid, &item, y).unwrap();
        let resolved = match item {
            Item::Id(id) => Item::Raw(Vector::from_vec(attrs(id))),
            raw => raw,
        };
        examples.push(TrainingExample { uid, item: resolved, y });
    }
    let warm: HashMap<u64, Vector> =
        velox.user_weight_table().into_iter().map(|(uid, w)| (uid, Vector::from(&w[..]))).collect();
    let direct = model.retrain(&examples, &warm, &executor).unwrap();

    assert_eq!(velox.retrain_offline().unwrap(), 2);
    assert_eq!(direct.user_weights.len(), 5);
    let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (uid, want) in &direct.user_weights {
        let served = velox.user_weights(*uid).unwrap();
        assert_eq!(bits(&served), bits(want.as_slice()), "user {uid}");
    }
}

/// A retired version keeps the serving table's own vectors: retiring one
/// allocates no weight vector, and a rollback reinstalls the very vectors
/// that were served before the swap.
#[test]
fn retiring_a_version_shares_its_weight_vectors() {
    let ds = make_dataset(47);
    let split = three_way_split(&ds, 0.5, 0.7);
    let velox = deploy_from(&ds, &split.offline, VeloxConfig::single_node());
    let mu = mean_rating(&split.offline);
    for r in split.online.iter().filter(|r| r.uid != 0).take(200) {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - mu).unwrap();
    }

    let served = velox.user_weights(0).expect("offline-trained user");
    assert_eq!(Arc::strong_count(&served), 3, "the serving table, the stale cache and this");
    assert_eq!(velox.retrain_offline().unwrap(), 2);
    assert!(!Arc::ptr_eq(&velox.user_weights(0).unwrap(), &served), "v2 serves new weights");
    assert_eq!(Arc::strong_count(&served), 2, "the retired version holds the served vector");

    assert_eq!(velox.rollback(1).unwrap(), 3);
    let restored = velox.user_weights(0).unwrap();
    assert!(Arc::ptr_eq(&restored, &served), "rollback reinstalled a copy");
    assert_eq!(Arc::strong_count(&served), 4, "the table, the stale cache, this and `restored`");
}
