//! End-to-end serving tests: deploy a trained matrix-factorization model
//! and exercise the predict/topK API of Listing 1 — caching, routing,
//! bootstrapping, ranking.

use std::sync::Arc;

use velox::prelude::*;

fn deploy(n_nodes: usize) -> (Arc<Velox>, RatingsDataset) {
    let ds = RatingsDataset::generate(SyntheticConfig {
        n_users: 60,
        n_items: 120,
        rank: 8,
        ratings_per_user: 20,
        noise_std: 0.3,
        seed: 2025,
        ..Default::default()
    });
    let executor = JobExecutor::new(4);
    let als = AlsModel::train(
        &ds.ratings,
        60,
        120,
        AlsConfig { rank: 8, lambda: 0.05, iterations: 6, seed: 7 },
        &executor,
    );
    let (model, weights) = MatrixFactorizationModel::from_als("songs", &als);
    let config = VeloxConfig {
        cluster: ClusterConfig { n_nodes, ..Default::default() },
        ..Default::default()
    };
    (Arc::new(Velox::deploy(Arc::new(model), weights, config)), ds)
}

#[test]
fn predictions_match_manual_dot_products() {
    let (velox, ds) = deploy(1);
    let executor = JobExecutor::new(4);
    let als = AlsModel::train(
        &ds.ratings,
        60,
        120,
        AlsConfig { rank: 8, lambda: 0.05, iterations: 6, seed: 7 },
        &executor,
    );
    for r in ds.ratings.iter().take(40) {
        let resp = velox.predict(r.uid, &Item::Id(r.item_id)).unwrap();
        // Velox serves wᵤᵀxᵢ (the μ offset lives in the model object; the
        // latent-factor table holds centered scores).
        let manual = als.predict(r.uid, r.item_id) - als.global_mean;
        assert!(
            (resp.score - manual).abs() < 1e-9,
            "serving score {} vs manual {}",
            resp.score,
            manual
        );
        assert!(!resp.bootstrapped);
    }
}

#[test]
fn repeat_prediction_hits_cache() {
    let (velox, _) = deploy(1);
    let cold = velox.predict(3, &Item::Id(10)).unwrap();
    assert!(!cold.cached);
    let warm = velox.predict(3, &Item::Id(10)).unwrap();
    assert!(warm.cached, "identical request must be served from cache");
    assert_eq!(warm.score, cold.score);
    assert_eq!(warm.virtual_cost_us, 0.0, "cache hits cost no storage reads");
    let stats = velox.stats();
    assert!(stats.prediction_cache.0 >= 1);
}

#[test]
fn observe_invalidates_users_cached_predictions() {
    let (velox, _) = deploy(1);
    let before = velox.predict(5, &Item::Id(20)).unwrap();
    assert!(velox.predict(5, &Item::Id(20)).unwrap().cached);
    // Feedback changes user 5's weights → next prediction must recompute.
    velox.observe(5, &Item::Id(20), 5.0).unwrap();
    let after = velox.predict(5, &Item::Id(20)).unwrap();
    assert!(!after.cached, "user update must version the cache key");
    assert_ne!(before.score, after.score, "feedback must change the score");
    // Another user's cached entries survive.
    velox.predict(6, &Item::Id(20)).unwrap();
    assert!(velox.predict(6, &Item::Id(20)).unwrap().cached);
}

#[test]
fn unknown_user_gets_bootstrap_prediction() {
    let (velox, _) = deploy(1);
    let resp = velox.predict(9999, &Item::Id(10)).unwrap();
    assert!(resp.bootstrapped);
    assert!(resp.score.is_finite());
    // The bootstrap score is the mean-user score, so it should be within
    // the range of individual user scores for the same item.
    let all: Vec<f64> = (0..60).map(|u| velox.predict(u, &Item::Id(10)).unwrap().score).collect();
    let (lo, hi) =
        all.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &s| (l.min(s), h.max(s)));
    assert!(resp.score >= lo - 1e-9 && resp.score <= hi + 1e-9);
}

#[test]
fn unknown_item_is_an_error() {
    let (velox, _) = deploy(1);
    let err = velox.predict(1, &Item::Id(999_999)).unwrap_err();
    assert!(matches!(err, VeloxError::Model(velox_models::ModelError::UnknownItem(_))));
}

#[test]
fn topk_ranks_by_score_descending() {
    let (velox, _) = deploy(1);
    let items: Vec<Item> = (0..30).map(Item::Id).collect();
    let resp = velox.top_k(7, &items).unwrap();
    assert_eq!(resp.ranked.len(), 30);
    for w in resp.ranked.windows(2) {
        assert!(w[0].1 >= w[1].1, "ranking must be descending");
    }
    // Scores agree with point predictions.
    for &(idx, score) in resp.ranked.iter().take(5) {
        let point = velox.predict(7, &items[idx]).unwrap();
        assert!((point.score - score).abs() < 1e-9);
    }
    assert!(resp.served < items.len());
}

#[test]
fn topk_rejects_empty_candidates() {
    let (velox, _) = deploy(1);
    assert!(matches!(velox.top_k(1, &[]), Err(VeloxError::EmptyCandidateSet)));
}

#[test]
fn topk_second_call_is_mostly_cached() {
    let (velox, _) = deploy(1);
    let items: Vec<Item> = (0..50).map(Item::Id).collect();
    let first = velox.top_k(2, &items).unwrap();
    assert_eq!(first.cached_fraction, 0.0);
    let second = velox.top_k(2, &items).unwrap();
    assert!(
        second.cached_fraction > 0.95,
        "overlapping itemset should be cache-served: {}",
        second.cached_fraction
    );
    assert!(second.virtual_cost_us < first.virtual_cost_us);
}

#[test]
fn multinode_serving_keeps_user_reads_local() {
    let (velox, ds) = deploy(8);
    for r in ds.ratings.iter().take(400) {
        velox.predict(r.uid, &Item::Id(r.item_id)).unwrap();
    }
    let stats = velox.stats();
    // User-weight reads are all local under ByUser routing; item reads may
    // be remote but get cached. Overall locality should be high.
    assert!(
        stats.cluster.local_fraction() > 0.5,
        "local fraction {}",
        stats.cluster.local_fraction()
    );
    // Requests spread across nodes.
    let served: Vec<u64> = stats.cluster.nodes.iter().map(|n| n.requests_served).collect();
    assert!(served.iter().filter(|&&s| s > 0).count() >= 6, "{served:?}");
}

#[test]
fn system_stats_reflect_activity() {
    let (velox, _) = deploy(2);
    velox.predict(1, &Item::Id(1)).unwrap();
    velox.observe(1, &Item::Id(1), 4.0).unwrap();
    velox.observe(2, &Item::Id(5), 2.0).unwrap();
    let stats = velox.stats();
    assert_eq!(stats.model_version, 1);
    assert_eq!(stats.retrains, 0);
    assert_eq!(stats.observations, 2);
    assert_eq!(stats.online_users, 2, "online state is created lazily per observing user");
    assert!(stats.mean_loss >= 0.0);
}

#[test]
fn catalog_topk_matches_brute_force() {
    let (velox, _) = deploy(1);
    let k = 10;
    let top = velox.top_k_catalog(7, k).unwrap();
    assert_eq!(top.len(), k);
    // Brute force via point predictions over the whole catalog.
    let mut all: Vec<(u64, f64)> =
        (0..120u64).map(|item| (item, velox.predict(7, &Item::Id(item)).unwrap().score)).collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (got, want) in top.iter().zip(all.iter().take(k)) {
        assert!((got.1 - want.1).abs() < 1e-12, "{got:?} vs {want:?}");
    }
    // Scores strictly descending.
    for w in top.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

#[test]
fn catalog_topk_index_rebuilds_after_retrain() {
    let (velox, ds) = deploy(1);
    let before = velox.top_k_catalog(3, 5).unwrap();
    for r in ds.ratings.iter().take(500) {
        velox.observe(r.uid, &Item::Id(r.item_id), r.value - 3.0).unwrap();
    }
    velox.retrain_offline().unwrap();
    let after = velox.top_k_catalog(3, 5).unwrap();
    // New θ → (almost surely) different scores; and the result must match
    // a fresh brute force under the new model.
    let mut all: Vec<(u64, f64)> =
        (0..120u64).map(|item| (item, velox.predict(3, &Item::Id(item)).unwrap().score)).collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (got, want) in after.iter().zip(all.iter().take(5)) {
        assert!((got.1 - want.1).abs() < 1e-12);
    }
    assert_ne!(before, after, "index must not serve the old model version");
}

/// A seeded factor-table deployment (no ALS run) under the default LinUCB
/// policy: d = 22 so every dot has a two-element tail, one node.
fn deploy_table() -> Arc<Velox> {
    deploy_table_on(ClusterConfig { n_nodes: 1, ..Default::default() })
}

/// The same deployment on another topology.
fn deploy_table_on(cluster: ClusterConfig) -> Arc<Velox> {
    const D: usize = 22;
    let mut rng = VeloxRng::seed_from(0x70_9C);
    let mut vector = |scale: f64| {
        Vector::from_vec((0..D).map(|_| rng.range(-scale, scale)).collect::<Vec<f64>>())
    };
    let table = (0..60u64).map(|item| (item, vector(1.0))).collect();
    let weights = (0..4u64).map(|uid| (uid, vector(0.5))).collect();
    let model = MatrixFactorizationModel::from_table(
        "table",
        table,
        0.0,
        AlsConfig { rank: D, ..Default::default() },
    )
    .unwrap();
    let config = VeloxConfig { cluster, ..VeloxConfig::single_node() };
    Arc::new(Velox::deploy(Arc::new(model), weights, config))
}

/// What `topk_over_mixed_cached_and_uncached_candidates_is_pinned` reads.
/// The ranking fold holds every served score's bits, so it moves whenever
/// a kernel's accumulation order does (it did when `A⁻¹` became a packed
/// triangle); the best candidate and the bandit's choice did not.
const PINNED_BEST: usize = 11;
const PINNED_RANKING: u64 = 0xca56_e7ae_b564_85a3;
const PINNED_SERVED: usize = 41;

/// Ranking and bandit choice for a candidate set that is half cache hits
/// (variance 0) and half misses (variance from the user's `A⁻¹`, five full
/// blocks of the blocked kernel and a remainder of one), pinned: a kernel
/// that moves one bit of a score, or a variance enough to change the
/// bandit's choice, fails it.
#[test]
fn topk_over_mixed_cached_and_uncached_candidates_is_pinned() {
    let velox = deploy_table();
    for step in 0..15u64 {
        let item = (step * 7) % 60;
        velox.observe(3, &Item::Id(item), ((step % 5) as f64 - 2.0) * 0.7).unwrap();
    }
    for item in (0..43u64).step_by(2) {
        velox.predict(3, &Item::Id(item)).unwrap();
    }
    let items: Vec<Item> = (0..43).map(Item::Id).collect();
    let resp = velox.top_k(3, &items).unwrap();
    assert_eq!(resp.cached_fraction, 22.0 / 43.0);
    assert!(!resp.randomized);

    let fold = resp.ranked.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(idx, score)| {
        (h ^ idx as u64 ^ score.to_bits().rotate_left(17)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(resp.ranked[0].0, PINNED_BEST, "best-scoring candidate");
    assert_eq!(fold, PINNED_RANKING, "ranked indices and score bits");
    // LinUCB serves an uncached candidate over the best score: only the
    // misses carry an exploration bonus, so this moves if a variance does.
    assert_eq!(resp.served, PINNED_SERVED, "bandit choice");
}

/// `observe(y = 1e999)` used to fold +∞ into the user's moments; the
/// weights went NaN and the next `top_k` panicked sorting them. Non-finite
/// labels and raw features are now refused at the door, and a refused
/// request changes nothing: the twin that never saw one stays bit-equal.
#[test]
fn non_finite_feedback_is_rejected_and_leaves_the_user_untouched() {
    let (clean, poked) = (deploy_table(), deploy_table());
    let feed = |velox: &Velox, from: u64| {
        for step in from..from + 6 {
            velox.observe(2, &Item::Id(step * 3), 0.5 * step as f64 - 1.0).unwrap();
        }
    };
    feed(&clean, 0);
    feed(&poked, 0);
    let probe = Item::Id(9);
    let before = poked.predict(2, &probe).unwrap();
    let logged = poked.observation_log().len();

    for y in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let err = poked.observe(2, &Item::Id(4), y).unwrap_err();
        assert_eq!(err, VeloxError::NonFiniteInput("y"));
    }
    let raw = Item::Raw(Vector::from_vec(vec![f64::INFINITY; 22]));
    for err in [
        poked.observe(2, &raw, 1.0).unwrap_err(),
        poked.predict(2, &raw).unwrap_err(),
        poked.top_k(2, &[Item::Id(1), raw.clone()]).unwrap_err(),
    ] {
        assert_eq!(err, VeloxError::NonFiniteInput("features"));
    }

    // Version and weights: the probe is still a cache hit with its old bits.
    let after = poked.predict(2, &probe).unwrap();
    assert!(after.cached, "a refused observe must not bump the user's version");
    assert_eq!(after.score.to_bits(), before.score.to_bits());
    assert_eq!(poked.observation_log().len(), logged, "nothing was logged");
    clean.predict(2, &probe).unwrap();

    // A⁻¹: more feedback and a top-k land identically on both twins.
    feed(&clean, 6);
    feed(&poked, 6);
    let items: Vec<Item> = (0..30).map(Item::Id).collect();
    let (want, got) = (clean.top_k(2, &items).unwrap(), poked.top_k(2, &items).unwrap());
    assert_eq!(got.served, want.served);
    let bits = |r: &TopKResponse| -> Vec<(usize, u64)> {
        r.ranked.iter().map(|&(idx, score)| (idx, score.to_bits())).collect()
    };
    assert_eq!(bits(&got), bits(&want));
    assert!(got.ranked.iter().all(|(_, score)| score.is_finite()));
}

/// One pass of `items` for `uid` through one scoring entry point: every
/// score's bits in candidate order, which answers were cache hits, and the
/// degradation level the answer reported for its misses.
struct Pass {
    bits: Vec<u64>,
    hits: usize,
    miss_level: Option<DegradationLevel>,
    bootstrapped: bool,
}

fn pass_of(responses: Vec<PredictResponse>) -> Pass {
    let miss = responses.iter().find(|r| !r.cached);
    Pass {
        bits: responses.iter().map(|r| r.score.to_bits()).collect(),
        hits: responses.iter().filter(|r| r.cached).count(),
        miss_level: miss.map(|r| r.degradation),
        bootstrapped: miss.is_some_and(|r| r.bootstrapped),
    }
}

/// `predict`, `predict_batch` and `top_k` are one scorer behind three
/// entry points. Three identical deployments each answer the same pairs
/// through one of them — pairs that are cached, uncached, a bootstrapped
/// user's, replica-served (home killed) and stale-cache-served (every
/// replica killed) — and must agree on every score bit, on which answers
/// were hits (so: on what each pass left in the cache), and on the
/// degradation level; each deployment counts hits + misses == pairs asked.
///
/// Scores that are never cached are asked of one deployment through all
/// three entry points instead: asking changes nothing there, and a
/// bootstrap mean is only bit-stable within a deployment (it sums the
/// initial weights in `HashMap` order).
#[test]
fn every_scoring_entry_point_agrees_on_bits_cache_fills_and_levels() {
    let twins: Vec<Arc<Velox>> = (0..3)
        .map(|_| {
            let velox = deploy_table_on(ClusterConfig {
                n_nodes: 4,
                user_replication: 2,
                item_replication: 4,
                ..Default::default()
            });
            // Online state for user 3, so top-k's variance path runs too.
            for step in 0..9u64 {
                velox
                    .observe(3, &Item::Id((step * 11) % 60), (step % 4) as f64 * 0.6 - 0.9)
                    .unwrap();
            }
            velox
        })
        .collect();
    const EACH_ITS_OWN: [usize; 3] = [0, 1, 2];
    const ALL_ON_ONE: [usize; 3] = [0, 0, 0];
    let mut asked = [0u64; 3];

    // Asks `items` of `predict` on twin `on[0]`, `predict_batch` on `on[1]`
    // and `top_k` on `on[2]`; returns what they agreed on.
    let mut ask = |on: [usize; 3], uid: u64, items: &[u64], what: &str| -> Pass {
        on.iter().for_each(|&twin| asked[twin] += items.len() as u64);
        let one = pass_of(
            items.iter().map(|&i| twins[on[0]].predict(uid, &Item::Id(i)).unwrap()).collect(),
        );
        // One batch: the user is repeated in every request of it.
        let requests: Vec<(u64, Item)> = items.iter().map(|&i| (uid, Item::Id(i))).collect();
        let batch = pass_of(
            twins[on[1]].predict_batch(&requests).into_iter().map(|r| r.unwrap()).collect(),
        );
        let candidates: Vec<Item> = items.iter().map(|&i| Item::Id(i)).collect();
        let top = twins[on[2]].top_k(uid, &candidates).unwrap();
        let mut top_bits = vec![0u64; items.len()];
        for &(idx, score) in &top.ranked {
            top_bits[idx] = score.to_bits();
        }

        assert_eq!(batch.bits, one.bits, "{what}: predict_batch vs predict");
        assert_eq!(top_bits, one.bits, "{what}: top_k vs predict");
        assert_eq!(batch.hits, one.hits, "{what}: hits, predict_batch vs predict");
        assert_eq!(top.cached_fraction, one.hits as f64 / items.len() as f64, "{what}: top_k hits");
        assert_eq!(batch.miss_level, one.miss_level, "{what}: level, predict_batch vs predict");
        if let Some(level) = one.miss_level {
            assert_eq!(top.degradation, level, "{what}: level, top_k vs predict");
        }
        assert_eq!(batch.bootstrapped, one.bootstrapped, "{what}");
        one
    };

    // Uncached, then a mix of cached and uncached with one pair repeated
    // inside the call (its second occurrence is a hit on the first's fill).
    let cold = ask(EACH_ITS_OWN, 0, &[0, 1, 2, 3], "uncached");
    assert_eq!((cold.hits, cold.miss_level), (0, Some(DegradationLevel::Full)));
    let mixed = ask(EACH_ITS_OWN, 0, &[0, 1, 2, 3, 4, 5, 6, 7, 5], "cached + uncached");
    assert_eq!(mixed.hits, 5);
    assert_eq!(mixed.bits[..4], cold.bits[..], "a hit returns the bits that were filled");
    assert_eq!(ask(EACH_ITS_OWN, 3, &[10, 11, 12, 13, 14], "user with online state").hits, 0);

    // A bootstrapped user's scores come from the population mean: never
    // cached, so every entry point, asked in turn, misses every time.
    let unknown = ask(ALL_ON_ONE, 9999, &[0, 1, 2, 1], "bootstrapped user");
    assert!(unknown.bootstrapped);
    assert_eq!((unknown.hits, unknown.miss_level), (0, Some(DegradationLevel::Full)));

    // Home node down, one replica left: served at `Replica`, still cacheable.
    let home = twins[0].cluster().home_of_user(1);
    twins.iter().for_each(|velox| velox.kill_node(home));
    let failover = ask(EACH_ITS_OWN, 1, &[20, 21, 22, 23], "replica-served");
    assert_eq!((failover.hits, failover.miss_level), (0, Some(DegradationLevel::Replica)));
    assert_eq!(ask(EACH_ITS_OWN, 1, &[20, 21, 22, 23], "replica-served, again").hits, 4);

    // Every replica down: served from the stale-weight cache, and a degraded
    // score must not outlive the outage in the prediction cache.
    for node in twins[0].cluster().replica_nodes_of_user(2) {
        twins.iter().for_each(|velox| velox.kill_node(node));
    }
    let stale = ask(ALL_ON_ONE, 2, &[30, 31, 32, 31], "stale-cache-served");
    assert_eq!((stale.hits, stale.miss_level), (0, Some(DegradationLevel::StaleCache)));

    for (velox, asked) in twins.iter().zip(asked) {
        let (hits, misses, _) = velox.stats().prediction_cache;
        assert_eq!(hits + misses, asked, "every pair is one hit or one miss");
    }
}

/// The fourth caller: after a retrain the scorer refills what was hot. The
/// repopulated entry is a hit whose bits equal what a twin that had nothing
/// hot — and so nothing repopulated — computes cold under its new model.
#[test]
fn repopulated_entries_equal_a_twins_cold_scores() {
    let (hot, cold) = (deploy_table(), deploy_table());
    for velox in [&hot, &cold] {
        for step in 0..24u64 {
            let y = ((step * 5) % 7) as f64 * 0.4 - 1.1;
            velox.observe(step % 4, &Item::Id((step * 13) % 60), y).unwrap();
        }
    }
    let pairs = [(0u64, 2u64), (3, 7), (3, 41), (1, 59)];
    for (uid, item) in pairs {
        hot.predict(uid, &Item::Id(item)).unwrap();
    }
    assert_eq!(hot.retrain_offline().unwrap(), 2);
    assert_eq!(cold.retrain_offline().unwrap(), 2);
    for (uid, item) in pairs {
        let warm = hot.predict(uid, &Item::Id(item)).unwrap();
        let fresh = cold.predict(uid, &Item::Id(item)).unwrap();
        assert!(warm.cached && !fresh.cached, "({uid}, {item})");
        assert_eq!(warm.score.to_bits(), fresh.score.to_bits(), "({uid}, {item})");
    }
}

/// `predict_batch` counts requests as `predict` does: twin deployments
/// answer the same cached and uncached pairs, one at a time or in batches,
/// and route every request, so each node's request count and the request
/// clock a fault plan fires against agree.
#[test]
fn predict_batch_routes_every_request_as_predict_does() {
    let topology = ClusterConfig { n_nodes: 4, ..Default::default() };
    let (one, batched) = (deploy_table_on(topology.clone()), deploy_table_on(topology));
    // One pair ten times (a miss, then hits), then each user over a
    // repeated item.
    let mut pairs: Vec<(u64, u64)> = vec![(1, 7); 10];
    pairs.extend((0..4u64).flat_map(|uid| [(uid, 3), (uid, 9), (uid, 3)]));
    for &(uid, item) in &pairs {
        one.predict(uid, &Item::Id(item)).unwrap();
    }
    for chunk in pairs.chunks(4) {
        let requests: Vec<(u64, Item)> = chunk.iter().map(|&(u, i)| (u, Item::Id(i))).collect();
        for response in batched.predict_batch(&requests) {
            response.unwrap();
        }
    }
    let served = |velox: &Velox| -> Vec<u64> {
        velox.cluster().stats().nodes.iter().map(|n| n.requests_served).collect()
    };
    assert_eq!(one.cluster().request_clock(), pairs.len() as u64);
    assert_eq!(batched.cluster().request_clock(), one.cluster().request_clock());
    assert_eq!(served(&batched), served(&one));
    assert_eq!(batched.stats().prediction_cache.0, one.stats().prediction_cache.0, "same hits");
}
