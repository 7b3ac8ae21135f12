//! Alternating Least Squares matrix factorization — the offline trainer.
//!
//! This is the batch job Velox delegates to "Spark" (§4.2): from the full
//! observation log, learn the latent item factors (the feature parameters
//! `θ` of the paper's generalized linear model) and the user weight table
//! `W`, minimizing
//!
//! ```text
//! λ(||W||² + ||X||²) + Σ_{(u,i)∈Obs} (r_ui − μ − wᵤᵀ xᵢ)²
//! ```
//!
//! exactly the objective of §2. ALS alternates two embarrassingly parallel
//! half-steps — fix `X`, ridge-solve every `wᵤ`; fix `W`, ridge-solve every
//! `xᵢ` — each scheduled across the [`JobExecutor`]. Per-entity solves use
//! the same `velox-linalg` ridge machinery as the online path, so offline
//! and online training are numerically consistent by construction.
//!
//! **How a train runs.** [`AlsModel::train_warm_start`] indexes the log once
//! per train, by user and by item, in CSR form: per-entity offsets into two
//! flat arrays of (other side's id, centred rating), filled by a stable
//! counting sort so each entity's ratings stay in log order. Both factor
//! tables live as flat row-major `n × rank` buffers while training. A
//! half-step is one task per entity: [`ridge_fit_gather`] accumulates the
//! entity's Gram matrix and `Xᵀy` straight from the fixed side's table —
//! the rating relation joined against the factor array in place, nothing
//! copied or allocated per rating — then shifts by `λ·n`, factors and
//! solves. The training RMSE after each iteration is a parallel map
//! (squared errors, a bounded wave of the log per stage) and a serial fold
//! in log order.
//!
//! **Bits.** The output depends on the ratings, the initial factors and the
//! config only — not on the worker count or the schedule: entities are
//! solved independently, each over its ratings in log order, and the Gram
//! kernel's accumulation-order contract makes the gathered solve equal, bit
//! for bit, to stacking the rows into a matrix and calling `ridge_fit`. The
//! curve is folded in the order a serial sum would use.
//! `crates/batch/tests/als_bits.rs` keeps that stacked path as the
//! reference and compares factor tables and curves with `f64::to_bits`.

use velox_data::rng::mix64;
use velox_data::Rating;
use velox_linalg::vector::dot_slices;
use velox_linalg::{ridge_fit_gather, Vector};

use crate::executor::JobExecutor;

/// Ratings per stage of the training-RMSE map. Bounds the squared errors
/// held at once to 1 MB; holding a whole 750 k-rating log's raised the
/// retrain's peak RSS by 13 MB.
const RMSE_WAVE: usize = 1 << 17;

/// ALS hyper-parameters.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Latent dimension.
    pub rank: usize,
    /// L2 regularization constant λ.
    pub lambda: f64,
    /// Number of full (user + item) alternations.
    pub iterations: usize,
    /// Seed for factor initialization.
    pub seed: u64,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig { rank: 10, lambda: 0.1, iterations: 10, seed: 0xA15 }
    }
}

/// A trained matrix-factorization model.
#[derive(Debug, Clone)]
pub struct AlsModel {
    /// Per-user latent factors (index = uid). Users with no training
    /// ratings keep their initialization.
    pub user_factors: Vec<Vector>,
    /// Per-item latent factors (index = item id) — the `θ` table served by
    /// the predictor.
    pub item_factors: Vec<Vector>,
    /// Global rating mean `μ`, subtracted before factorization.
    pub global_mean: f64,
    /// The hyper-parameters used.
    pub config: AlsConfig,
    /// Training RMSE after each iteration (monotone decrease expected).
    pub training_curve: Vec<f64>,
}

/// Deterministic small pseudo-random initializer (splitmix64 → (−0.5, 0.5)
/// scaled by 1/√rank), independent of thread scheduling.
fn init_factor(entity: u64, salt: u64, rank: usize) -> Vector {
    let scale = 1.0 / (rank as f64).sqrt();
    let base = entity.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
    let v: Vec<f64> = (0..rank as u64)
        .map(|k| {
            let z = mix64(base.wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9)));
            let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            (u - 0.5) * scale
        })
        .collect();
    Vector::from_vec(v)
}

/// One side's view of the rating log in CSR form: entity `e`'s ratings are
/// `other[offsets[e]..offsets[e + 1]]` (the other side's ids) with the
/// matching centred values, in log order.
struct RatingIndex {
    offsets: Vec<usize>,
    other: Vec<u32>,
    value: Vec<f64>,
}

impl RatingIndex {
    /// Groups `ratings` by the first id `ids` returns — a stable counting
    /// sort — storing the second id and `value − mean` per rating.
    fn build(ratings: &[Rating], n: usize, mean: f64, ids: impl Fn(&Rating) -> (u64, u64)) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for r in ratings {
            offsets[ids(r).0 as usize + 1] += 1;
        }
        for e in 0..n {
            offsets[e + 1] += offsets[e];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut other = vec![0u32; ratings.len()];
        let mut value = vec![0.0; ratings.len()];
        for r in ratings {
            let (e, o) = ids(r);
            let slot = &mut cursor[e as usize];
            other[*slot] = o as u32;
            value[*slot] = r.value - mean;
            *slot += 1;
        }
        RatingIndex { offsets, other, value }
    }

    fn entities(&self) -> usize {
        self.offsets.len() - 1
    }

    fn ratings(&self, e: usize) -> (&[u32], &[f64]) {
        let span = self.offsets[e]..self.offsets[e + 1];
        (&self.other[span.clone()], &self.value[span])
    }
}

fn flatten(rows: Vec<Vector>, rank: usize) -> Vec<f64> {
    let mut table = Vec::with_capacity(rows.len() * rank);
    for row in rows {
        table.extend_from_slice(row.as_slice());
    }
    table
}

fn unflatten(table: &[f64], rank: usize) -> Vec<Vector> {
    table.chunks_exact(rank).map(Vector::from).collect()
}

impl AlsModel {
    /// Trains from scratch on `ratings`. `n_users`/`n_items` bound the id
    /// spaces (ids must be dense in `[0, n)`).
    pub fn train(
        ratings: &[Rating],
        n_users: usize,
        n_items: usize,
        config: AlsConfig,
        executor: &JobExecutor,
    ) -> Self {
        let user_init: Vec<Vector> =
            (0..n_users as u64).map(|u| init_factor(u, config.seed, config.rank)).collect();
        let item_init: Vec<Vector> = (0..n_items as u64)
            .map(|i| init_factor(i, config.seed ^ 0xDEAD_BEEF, config.rank))
            .collect();
        Self::train_warm_start(ratings, user_init, item_init, config, executor)
    }

    /// Trains starting from existing factor tables — the paper's retraining
    /// path, where "the training procedure ... depends on the current user
    /// weights" (§4.2). Factor tables must have consistent rank matching
    /// `config.rank`.
    pub fn train_warm_start(
        ratings: &[Rating],
        user_factors: Vec<Vector>,
        item_factors: Vec<Vector>,
        config: AlsConfig,
        executor: &JobExecutor,
    ) -> Self {
        let rank = config.rank;
        assert!(rank > 0 && config.lambda > 0.0);
        assert!(user_factors.iter().all(|w| w.len() == rank));
        assert!(item_factors.iter().all(|x| x.len() == rank));
        let n_users = user_factors.len();
        let n_items = item_factors.len();
        assert!(u32::try_from(n_users.max(n_items)).is_ok(), "id spaces must fit in u32");
        for r in ratings {
            assert!((r.uid as usize) < n_users, "uid {} out of range", r.uid);
            assert!((r.item_id as usize) < n_items, "item {} out of range", r.item_id);
        }

        let global_mean = if ratings.is_empty() {
            0.0
        } else {
            ratings.iter().map(|r| r.value).sum::<f64>() / ratings.len() as f64
        };

        let by_user = RatingIndex::build(ratings, n_users, global_mean, |r| (r.uid, r.item_id));
        let by_item = RatingIndex::build(ratings, n_items, global_mean, |r| (r.item_id, r.uid));
        let mut users = flatten(user_factors, rank);
        let mut items = flatten(item_factors, rank);
        let mut training_curve = Vec::with_capacity(config.iterations);
        for _ in 0..config.iterations {
            users = half_step(&by_user, &items, &users, rank, config.lambda, executor);
            items = half_step(&by_item, &users, &items, rank, config.lambda, executor);
            training_curve.push(training_rmse(
                ratings,
                &users,
                &items,
                rank,
                global_mean,
                executor,
            ));
        }
        AlsModel {
            user_factors: unflatten(&users, rank),
            item_factors: unflatten(&items, rank),
            global_mean,
            config,
            training_curve,
        }
    }

    /// Predicted rating `μ + wᵤᵀ xᵢ`.
    pub fn predict(&self, uid: u64, item_id: u64) -> f64 {
        let w = &self.user_factors[uid as usize];
        let x = &self.item_factors[item_id as usize];
        self.global_mean + w.dot(x).expect("consistent rank")
    }

    /// RMSE of the model over a rating set (0.0 on an empty set).
    pub fn rmse(&self, ratings: &[Rating]) -> f64 {
        if ratings.is_empty() {
            return 0.0;
        }
        let sse: f64 = ratings
            .iter()
            .map(|r| {
                let e = self.predict(r.uid, r.item_id) - r.value;
                e * e
            })
            .sum();
        (sse / ratings.len() as f64).sqrt()
    }

    /// The regularized training objective of §2 (useful for asserting that
    /// ALS monotonically decreases it).
    pub fn objective(&self, ratings: &[Rating]) -> f64 {
        let sse: f64 = ratings
            .iter()
            .map(|r| {
                let e = self.predict(r.uid, r.item_id) - r.value;
                e * e
            })
            .sum();
        let reg: f64 = self.user_factors.iter().map(Vector::norm2_squared).sum::<f64>()
            + self.item_factors.iter().map(Vector::norm2_squared).sum::<f64>();
        sse + self.config.lambda * reg
    }
}

/// One ALS half-step: for every left entity with ratings, ridge-solve its
/// factor against the fixed right-side table (flat, `rank` columns), with
/// λ scaled by the rating count (weighted-λ ALS, Zhou et al.), which keeps
/// regularization strength per rating constant. Entities with no ratings
/// keep their row of `current`; a solve that fails yields zeros.
fn half_step(
    by_left: &RatingIndex,
    fixed: &[f64],
    current: &[f64],
    rank: usize,
    lambda: f64,
    executor: &JobExecutor,
) -> Vec<f64> {
    let entities: Vec<usize> = (0..by_left.entities()).collect();
    let solved = executor.execute(entities, |_, &e| {
        let (ids, labels) = by_left.ratings(e);
        if ids.is_empty() {
            return None;
        }
        let lam = lambda * ids.len() as f64;
        Some(
            ridge_fit_gather(fixed, rank, ids, labels, lam).unwrap_or_else(|_| Vector::zeros(rank)),
        )
    });
    let mut next = Vec::with_capacity(current.len());
    for (row, solved) in current.chunks_exact(rank).zip(&solved) {
        next.extend_from_slice(solved.as_ref().map_or(row, Vector::as_slice));
    }
    next
}

/// RMSE of `μ + wᵤᵀxᵢ` over `ratings` (0.0 on an empty log) — the bits of
/// [`AlsModel::rmse`] on the same tables. Each wave of the log is one
/// stage: its squared errors are computed in parallel, one slice per
/// worker, then added to the running sum serially in log order.
fn training_rmse(
    ratings: &[Rating],
    users: &[f64],
    items: &[f64],
    rank: usize,
    mean: f64,
    executor: &JobExecutor,
) -> f64 {
    if ratings.is_empty() {
        return 0.0;
    }
    let squared_errors = |slice: &[Rating]| -> Vec<f64> {
        slice
            .iter()
            .map(|r| {
                let w = &users[r.uid as usize * rank..][..rank];
                let x = &items[r.item_id as usize * rank..][..rank];
                let e = (mean + dot_slices(w, x)) - r.value;
                e * e
            })
            .collect()
    };
    let per_task = RMSE_WAVE.div_ceil(executor.workers());
    let sse: f64 = ratings
        .chunks(RMSE_WAVE)
        .flat_map(|wave| {
            let slices: Vec<&[Rating]> = wave.chunks(per_task).collect();
            executor.execute(slices, |_, slice| squared_errors(slice)).into_iter().flatten()
        })
        .sum();
    (sse / ratings.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use velox_data::{RatingsDataset, SyntheticConfig};

    fn dataset() -> RatingsDataset {
        RatingsDataset::generate(SyntheticConfig {
            n_users: 80,
            n_items: 120,
            rank: 5,
            ratings_per_user: 25,
            noise_std: 0.2,
            seed: 77,
            ..Default::default()
        })
    }

    fn config() -> AlsConfig {
        AlsConfig { rank: 5, lambda: 0.05, iterations: 8, seed: 1 }
    }

    #[test]
    fn fits_planted_factors_better_than_mean() {
        let ds = dataset();
        let ex = JobExecutor::new(4);
        let model = AlsModel::train(&ds.ratings, 80, 120, config(), &ex);
        let rmse = model.rmse(&ds.ratings);
        // Mean-only predictor RMSE:
        let mean = ds.ratings.iter().map(|r| r.value).sum::<f64>() / ds.len() as f64;
        let mean_rmse =
            (ds.ratings.iter().map(|r| (r.value - mean) * (r.value - mean)).sum::<f64>()
                / ds.len() as f64)
                .sqrt();
        assert!(rmse < 0.6 * mean_rmse, "ALS rmse {rmse} should beat mean-only {mean_rmse}");
    }

    #[test]
    fn training_curve_is_monotone_decreasing() {
        let ds = dataset();
        let ex = JobExecutor::new(4);
        let model = AlsModel::train(&ds.ratings, 80, 120, config(), &ex);
        for w in model.training_curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "training RMSE increased: {:?}", model.training_curve);
        }
    }

    #[test]
    fn deterministic_across_parallelism() {
        let ds = dataset();
        let seq = JobExecutor::new(1);
        let par = JobExecutor::new(8);
        let m1 = AlsModel::train(&ds.ratings, 80, 120, config(), &seq);
        let m2 = AlsModel::train(&ds.ratings, 80, 120, config(), &par);
        let bits = |table: &[Vector]| -> Vec<u64> {
            table.iter().flat_map(|v| v.iter().map(|x| x.to_bits())).collect()
        };
        assert_eq!(bits(&m1.user_factors), bits(&m2.user_factors), "user factors");
        assert_eq!(bits(&m1.item_factors), bits(&m2.item_factors), "item factors");
        let curve =
            |m: &AlsModel| -> Vec<u64> { m.training_curve.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(curve(&m1), curve(&m2), "training curve");
    }

    #[test]
    fn warm_start_from_trained_model_stays_good() {
        let ds = dataset();
        let ex = JobExecutor::new(4);
        let m1 = AlsModel::train(&ds.ratings, 80, 120, config(), &ex);
        let rmse1 = m1.rmse(&ds.ratings);
        let mut cfg2 = config();
        cfg2.iterations = 2;
        let m2 = AlsModel::train_warm_start(
            &ds.ratings,
            m1.user_factors.clone(),
            m1.item_factors.clone(),
            cfg2,
            &ex,
        );
        let rmse2 = m2.rmse(&ds.ratings);
        assert!(rmse2 <= rmse1 + 1e-6, "warm start regressed: {rmse1} -> {rmse2}");
    }

    #[test]
    fn empty_ratings_yield_initialization() {
        let ex = JobExecutor::new(2);
        let model = AlsModel::train(&[], 10, 10, config(), &ex);
        assert_eq!(model.global_mean, 0.0);
        assert_eq!(model.user_factors.len(), 10);
        assert!(model.rmse(&[]) == 0.0);
    }

    #[test]
    fn users_without_ratings_keep_initialization() {
        let ds = dataset();
        let ex = JobExecutor::new(2);
        // Train with extra user slots beyond those that appear in data.
        let model = AlsModel::train(&ds.ratings, 100, 120, config(), &ex);
        let fresh = init_factor(95, config().seed, 5);
        assert!(model.user_factors[95].sub(&fresh).unwrap().norm2() < 1e-15);
    }

    #[test]
    fn predictions_are_finite_and_centered() {
        let ds = dataset();
        let ex = JobExecutor::new(4);
        let model = AlsModel::train(&ds.ratings, 80, 120, config(), &ex);
        for r in ds.ratings.iter().take(100) {
            let p = model.predict(r.uid, r.item_id);
            assert!(p.is_finite());
            assert!(p > -5.0 && p < 15.0, "wild prediction {p}");
        }
    }

    #[test]
    fn objective_decreases_with_more_iterations() {
        let ds = dataset();
        let ex = JobExecutor::new(4);
        let mut short = config();
        short.iterations = 1;
        let mut long = config();
        long.iterations = 8;
        let m_short = AlsModel::train(&ds.ratings, 80, 120, short, &ex);
        let m_long = AlsModel::train(&ds.ratings, 80, 120, long, &ex);
        assert!(m_long.objective(&ds.ratings) <= m_short.objective(&ds.ratings) + 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_ids() {
        let ex = JobExecutor::new(1);
        let bad = vec![Rating { uid: 99, item_id: 0, value: 3.0, timestamp: 0 }];
        let _ = AlsModel::train(&bad, 10, 10, config(), &ex);
    }
}
