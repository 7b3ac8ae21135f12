//! Multi-model tests: several deployments side by side in one serving
//! tier (the §2 ad-campaigns scenario), computed-feature models over the
//! item catalog, bandit serving, and validation-pool collection.

use std::collections::HashMap;
use std::sync::Arc;

use velox::prelude::*;
use velox_core::config::BanditChoice;
use velox_linalg::Vector;

/// Deploys an identity-feature model over a synthetic catalog where user
/// u's true preference vector is planted; observations follow y = wᵤ*ᵀx.
fn deploy_identity(name: &str, dim: usize, bandit: BanditChoice) -> Arc<Velox> {
    let model = IdentityModel::new(name, dim, 0.1);
    let mut config = VeloxConfig::single_node();
    config.bandit = bandit;
    config.validation_fraction = 0.0;
    let velox = Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), config));
    // Catalog: 40 items with deterministic attributes.
    for item in 0..40u64 {
        let attrs: Vec<f64> =
            (0..dim).map(|k| ((item as f64 + 1.0) * (k as f64 + 1.0) * 0.37).sin()).collect();
        velox.register_item(item, attrs);
    }
    velox
}

/// A serving tier holding one greedy identity deployment per `(name, dim)`.
fn tier_of(models: &[(&str, usize)]) -> ServeTier {
    let tier = ServeTier::new();
    for &(name, dim) in models {
        let velox = deploy_identity(name, dim, BanditChoice::Greedy);
        tier.register(name, Arc::new(VeloxBackend::new(velox))).unwrap();
    }
    tier
}

#[test]
fn server_dispatches_by_schema() {
    let server = tier_of(&[("ads", 4), ("songs", 6)]);

    assert!(server.predict("ads", 1, &Item::Id(3)).is_ok());
    assert!(server.predict("songs", 1, &Item::Id(3)).is_ok());
    assert!(matches!(
        server.predict("nope", 1, &Item::Id(3)),
        Err(ServeError::Registry(RegistryError::UnknownModel(_)))
    ));

    assert_eq!(server.snapshot().names(), vec!["ads", "songs"]);
    assert!(server.manager().remove("ads"));
    assert!(server.predict("ads", 1, &Item::Id(3)).is_err());
}

#[test]
fn deployments_are_isolated() {
    let server = tier_of(&[("a", 4), ("b", 4)]);

    // Feedback to model a must not move model b's predictions.
    let before_b = server.predict("b", 7, &Item::Id(5)).unwrap().score;
    for _ in 0..20 {
        server.velox("a").unwrap().observe(7, &Item::Id(5), 10.0).unwrap();
    }
    let after_a = server.predict("a", 7, &Item::Id(5)).unwrap().score;
    let after_b = server.predict("b", 7, &Item::Id(5)).unwrap().score;
    assert!(after_a > 1.0, "model a learned the strong signal: {after_a}");
    assert_eq!(before_b, after_b, "model b untouched");
}

/// `ServeTier::velox` hands out the deployment behind a name's serving
/// alias, and refuses names that are unknown or not Velox-backed.
#[test]
fn the_tier_resolves_velox_deployments_by_name() {
    let tier = ServeTier::new();
    let ads = deploy_identity("ads", 4, BanditChoice::Greedy);
    tier.register("ads", Arc::new(VeloxBackend::new(Arc::clone(&ads)))).unwrap();
    tier.register("flat", Arc::new(CustomScorer::from_fn(|_, _| Ok(1.0)))).unwrap();

    assert!(Arc::ptr_eq(&tier.velox("ads").unwrap(), &ads));
    assert_eq!(tier.velox("flat").err(), Some(ServeError::NotVelox("flat".into())));
    assert_eq!(
        tier.velox("nope").err(),
        Some(ServeError::Registry(RegistryError::UnknownModel("nope".into())))
    );
}

#[test]
fn computed_model_learns_user_preferences_online() {
    let velox = deploy_identity("ident", 4, BanditChoice::Greedy);
    // Planted preference for user 3.
    let w_true = Vector::from_vec(vec![1.0, -0.5, 0.25, 2.0]);
    // Feed observations over catalog items.
    for round in 0..5 {
        for item in 0..40u64 {
            let attrs: Vec<f64> =
                (0..4).map(|k| ((item as f64 + 1.0) * (k as f64 + 1.0) * 0.37).sin()).collect();
            let y = w_true.dot(&Vector::from_vec(attrs)).unwrap();
            velox.observe(3, &Item::Id(item), y).unwrap();
        }
        let _ = round;
    }
    // Predictions should now track the planted preference closely.
    for item in 0..10u64 {
        let attrs: Vec<f64> =
            (0..4).map(|k| ((item as f64 + 1.0) * (k as f64 + 1.0) * 0.37).sin()).collect();
        let truth = w_true.dot(&Vector::from_vec(attrs)).unwrap();
        let pred = velox.predict(3, &Item::Id(item)).unwrap().score;
        assert!((pred - truth).abs() < 0.05, "item {item}: {pred} vs {truth}");
    }
}

#[test]
fn computed_features_are_cached_by_item() {
    let velox = deploy_identity("ident", 4, BanditChoice::Greedy);
    velox.predict(1, &Item::Id(7)).unwrap();
    velox.predict(2, &Item::Id(7)).unwrap(); // same item, different user
    let stats = velox.stats();
    let (hits, misses, _) = stats.feature_cache;
    assert!(hits >= 1, "second featurization of item 7 must hit: {hits}/{misses}");
}

#[test]
fn raw_items_serve_without_catalog() {
    let velox = deploy_identity("ident", 4, BanditChoice::Greedy);
    velox.observe(1, &Item::Raw(Vector::from_vec(vec![1.0, 0.0, 0.0, 0.0])), 5.0).unwrap();
    let resp = velox.predict(1, &Item::Raw(Vector::from_vec(vec![1.0, 0.0, 0.0, 0.0]))).unwrap();
    assert!(resp.score > 1.0, "learned from raw-item feedback: {}", resp.score);
    assert!(!resp.cached, "raw items are uncacheable");
}

#[test]
fn bandit_topk_explores_validation_pool_collects() {
    let model = IdentityModel::new("v", 3, 0.1);
    let mut config = VeloxConfig::single_node();
    config.bandit = BanditChoice::LinUcb(2.0);
    config.validation_fraction = 0.3;
    config.seed = 99;
    let velox = Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), config));
    for item in 0..20u64 {
        velox.register_item(item, vec![(item as f64).sin(), (item as f64).cos(), 1.0]);
    }
    let items: Vec<Item> = (0..20).map(Item::Id).collect();

    let mut randomized = 0;
    for round in 0..200u64 {
        let uid = round % 5;
        let resp = velox.top_k(uid, &items).unwrap();
        let served_item = &items[resp.served];
        let y = (resp.served as f64) * 0.1; // arbitrary but consistent labels
        if resp.randomized {
            randomized += 1;
            velox.observe_randomized(uid, served_item, y).unwrap();
        } else {
            velox.observe(uid, served_item, y).unwrap();
        }
    }
    let rate = randomized as f64 / 200.0;
    assert!((rate - 0.3).abs() < 0.12, "validation randomization rate {rate}");
    assert!(velox.validation_rmse().is_some(), "pool must be populated");
    let (vrand, vtotal) = velox.stats().validation_decisions;
    assert_eq!(vtotal, 200);
    assert_eq!(vrand, randomized);
}

#[test]
fn greedy_and_linucb_serve_different_items_under_uncertainty() {
    // Same deployment twice, differing only in policy; after sparse
    // feedback the greedy instance repeats its argmax while LinUCB spreads
    // serves across uncertain candidates.
    let serve_counts = |bandit: BanditChoice| -> usize {
        let velox = deploy_identity("p", 4, bandit);
        let items: Vec<Item> = (0..30).map(Item::Id).collect();
        // One observation so scores are non-trivial.
        velox.observe(1, &Item::Id(0), 1.0).unwrap();
        let mut served = std::collections::HashSet::new();
        for _ in 0..60 {
            let resp = velox.top_k(1, &items).unwrap();
            served.insert(resp.served);
            // No feedback → greedy never changes its mind.
        }
        served.len()
    };
    let greedy_distinct = serve_counts(BanditChoice::Greedy);
    let linucb_distinct = serve_counts(BanditChoice::LinUcb(2.0));
    assert_eq!(greedy_distinct, 1, "greedy repeats its argmax");
    // LinUCB without feedback also repeats (uncertainty doesn't change
    // without observations) — but must pick the *most uncertain-adjusted*
    // item, which may differ from greedy's. The real exploration contrast
    // with feedback is covered in the bandit crate and ABL-BANDIT bench;
    // here we just pin that policies plug in and serve valid indices.
    assert!(linucb_distinct >= 1);
}
