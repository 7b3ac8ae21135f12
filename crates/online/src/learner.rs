//! Per-user online weight updates — Eq. (2) of the paper, two ways.
//!
//! ```text
//! wᵤ ← (F(X, θ)ᵀ F(X, θ) + λIₙ)⁻¹ F(X, θ)ᵀ Y
//! ```
//!
//! **Naive** (the paper's measured prototype): keep the sufficient
//! statistics `(FᵀF, FᵀY)` and Cholesky-solve from scratch on every
//! observation — O(d²) accumulation + O(d³) solve.
//!
//! **Sherman–Morrison** (the optimization the paper points to): maintain
//! `(FᵀF + λI)⁻¹` directly under rank-one updates — O(d²) per observation,
//! and the inverse doubles as the uncertainty estimate the bandit layer
//! needs.
//!
//! Warm starts: after offline training, a user's weights come back from the
//! batch job without their raw history. [`UserOnlineModel::from_prior`]
//! encodes those weights as the ridge prior — with `b = λ·w₀` and `A = λI`,
//! the solution of the empty problem is exactly `w₀`, and subsequent
//! observations blend data evidence with the prior in the standard Bayesian
//! linear-regression way.

use velox_linalg::{IncrementalRidge, LinalgError, Matrix, RidgeProblem, Vector};

/// Which algorithm maintains the user weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// Accumulate `(FᵀF, FᵀY)`; full Cholesky re-solve per update (O(d³)).
    Naive,
    /// Rank-one maintenance of the inverse (O(d²) per update).
    ShermanMorrison,
}

/// One user's online model state.
#[derive(Debug, Clone)]
pub struct UserOnlineModel {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Naive {
        problem: RidgeProblem,
        /// Weights re-solved after the most recent observation. For an
        /// empty problem with a prior, equals the prior weights.
        weights: Vector,
    },
    Incremental(IncrementalRidge),
}

impl UserOnlineModel {
    /// Creates a cold-start model of dimension `d` (weights start at zero).
    pub fn new(d: usize, lambda: f64, strategy: UpdateStrategy) -> Self {
        let inner = match strategy {
            UpdateStrategy::Naive => {
                Inner::Naive { problem: RidgeProblem::new(d, lambda), weights: Vector::zeros(d) }
            }
            UpdateStrategy::ShermanMorrison => Inner::Incremental(IncrementalRidge::new(d, lambda)),
        };
        UserOnlineModel { inner }
    }

    /// Creates a warm-start model whose initial solution equals `prior`
    /// (typically the user's weights from the last offline retrain, or the
    /// population-mean bootstrap for new users). Implemented by setting the
    /// moment vector to `λ·prior`, which makes the ridge prior mean equal
    /// to `prior`.
    pub fn from_prior(prior: &Vector, lambda: f64, strategy: UpdateStrategy) -> Self {
        let inner = match strategy {
            UpdateStrategy::Naive => {
                let mut b = prior.clone();
                b.scale(lambda);
                // The prior lives in the moments, never as a synthetic
                // observation (that would distort the Gram matrix).
                Inner::Naive {
                    problem: RidgeProblem::with_prior_moments(prior.len(), lambda, b),
                    weights: prior.clone(),
                }
            }
            UpdateStrategy::ShermanMorrison => {
                Inner::Incremental(IncrementalRidge::from_prior(prior, lambda))
            }
        };
        UserOnlineModel { inner }
    }

    /// The strategy in use (derived from the state representation).
    pub fn strategy(&self) -> UpdateStrategy {
        match &self.inner {
            Inner::Naive { .. } => UpdateStrategy::Naive,
            Inner::Incremental(_) => UpdateStrategy::ShermanMorrison,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        match &self.inner {
            Inner::Naive { problem, .. } => problem.dim(),
            Inner::Incremental(inc) => inc.dim(),
        }
    }

    /// Observations folded in since creation.
    pub fn n_obs(&self) -> usize {
        match &self.inner {
            Inner::Naive { problem, .. } => problem.n_obs(),
            Inner::Incremental(inc) => inc.n_obs(),
        }
    }

    /// Current weight vector.
    pub fn weights(&self) -> &Vector {
        match &self.inner {
            Inner::Naive { weights, .. } => weights,
            Inner::Incremental(inc) => inc.weights(),
        }
    }

    /// Predicted score `wᵀx`.
    pub fn predict(&self, x: &Vector) -> Result<f64, LinalgError> {
        self.weights().dot(x)
    }

    /// Folds in one observation and refreshes the weights. This is the
    /// operation Figure 3 times.
    pub fn observe(&mut self, x: &Vector, y: f64) -> Result<(), LinalgError> {
        match &mut self.inner {
            Inner::Naive { problem, weights } => {
                problem.observe(x, y)?;
                *weights = problem.solve()?;
                Ok(())
            }
            Inner::Incremental(inc) => inc.observe(x, y),
        }
    }

    /// Predictive variance proxy `xᵀ(FᵀF + λI)⁻¹x` — the uncertainty score
    /// the bandit layer adds to predictions. O(d²) for Sherman–Morrison
    /// (cached inverse); O(d³) for naive (fresh factorization), one more
    /// reason the serving path prefers the incremental strategy.
    pub fn variance(&self, x: &Vector) -> Result<f64, LinalgError> {
        let row = Matrix::from_row_major(1, x.len(), x.as_slice().to_vec())?;
        Ok(self.variance_many(&row)?[0])
    }

    /// The variance proxy of every candidate (one per row of `xs`), under
    /// one borrow of the state. The Sherman–Morrison path streams `A⁻¹`
    /// once per block of candidates (`IncrementalRidge::variance_many`,
    /// bit-equal to scoring them one at a time); the naive path factors
    /// `FᵀF + λI` once for the whole set.
    pub fn variance_many(&self, xs: &Matrix) -> Result<Vec<f64>, LinalgError> {
        match &self.inner {
            Inner::Naive { problem, .. } => {
                let mut a = problem.gram().clone();
                a.add_scaled_identity(problem.lambda())?;
                let ch = velox_linalg::Cholesky::factor(&a)?;
                (0..xs.rows())
                    .map(|c| {
                        let x = xs.row_vector(c);
                        x.dot(&ch.solve(&x)?)
                    })
                    .collect()
            }
            Inner::Incremental(inc) => inc.variance_many(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_stream(d: usize, n: usize, seed: u64) -> Vec<(Vector, f64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n)
            .map(|_| {
                let x = Vector::from_vec((0..d).map(|_| next()).collect());
                let y = next() * 2.0;
                (x, y)
            })
            .collect()
    }

    #[test]
    fn strategies_agree() {
        let d = 6;
        let mut naive = UserOnlineModel::new(d, 0.5, UpdateStrategy::Naive);
        let mut sm = UserOnlineModel::new(d, 0.5, UpdateStrategy::ShermanMorrison);
        for (x, y) in obs_stream(d, 100, 42) {
            naive.observe(&x, y).unwrap();
            sm.observe(&x, y).unwrap();
            let diff = naive.weights().sub(sm.weights()).unwrap().norm2();
            assert!(diff < 1e-7, "strategies diverged: {diff}");
        }
        assert_eq!(naive.n_obs(), 100);
        assert_eq!(sm.n_obs(), 100);
    }

    #[test]
    fn cold_start_weights_are_zero() {
        for s in [UpdateStrategy::Naive, UpdateStrategy::ShermanMorrison] {
            let m = UserOnlineModel::new(4, 1.0, s);
            assert_eq!(m.weights().norm2(), 0.0);
            assert_eq!(m.n_obs(), 0);
            assert_eq!(m.dim(), 4);
        }
    }

    #[test]
    fn prior_is_exact_before_observations() {
        let prior = Vector::from_vec(vec![1.0, -2.0, 0.5]);
        for s in [UpdateStrategy::Naive, UpdateStrategy::ShermanMorrison] {
            let m = UserOnlineModel::from_prior(&prior, 0.7, s);
            assert!(m.weights().sub(&prior).unwrap().norm2() < 1e-12, "{s:?}");
            let x = Vector::from_vec(vec![1.0, 1.0, 1.0]);
            assert!((m.predict(&x).unwrap() - (-0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn prior_strategies_agree_after_observations() {
        let prior = Vector::from_vec(vec![0.3, -0.1, 0.8, 0.0]);
        let mut naive = UserOnlineModel::from_prior(&prior, 1.0, UpdateStrategy::Naive);
        let mut sm = UserOnlineModel::from_prior(&prior, 1.0, UpdateStrategy::ShermanMorrison);
        for (x, y) in obs_stream(4, 50, 7) {
            naive.observe(&x, y).unwrap();
            sm.observe(&x, y).unwrap();
        }
        assert!(naive.weights().sub(sm.weights()).unwrap().norm2() < 1e-8);
    }

    #[test]
    fn observations_pull_weights_toward_data() {
        // Observe y = 3·x₀ repeatedly; weights should approach [3, 0].
        let mut m = UserOnlineModel::new(2, 0.1, UpdateStrategy::ShermanMorrison);
        let x = Vector::from_vec(vec![1.0, 0.0]);
        for _ in 0..100 {
            m.observe(&x, 3.0).unwrap();
        }
        assert!((m.weights()[0] - 3.0).abs() < 0.01);
        assert!(m.weights()[1].abs() < 1e-12);
    }

    #[test]
    fn prior_fades_with_evidence() {
        let prior = Vector::from_vec(vec![10.0]);
        let mut m = UserOnlineModel::from_prior(&prior, 1.0, UpdateStrategy::ShermanMorrison);
        let x = Vector::from_vec(vec![1.0]);
        // True signal is y = 1·x; prior said 10.
        for _ in 0..200 {
            m.observe(&x, 1.0).unwrap();
        }
        assert!((m.weights()[0] - 1.0).abs() < 0.1, "prior should wash out: {}", m.weights()[0]);
    }

    #[test]
    fn variance_matches_between_strategies_and_shrinks() {
        let d = 4;
        let mut naive = UserOnlineModel::new(d, 1.0, UpdateStrategy::Naive);
        let mut sm = UserOnlineModel::new(d, 1.0, UpdateStrategy::ShermanMorrison);
        let probe = Vector::from_vec(vec![0.5, -0.5, 1.0, 0.25]);
        let mut last = f64::INFINITY;
        for (x, y) in obs_stream(d, 30, 99) {
            naive.observe(&x, y).unwrap();
            sm.observe(&x, y).unwrap();
            let vn = naive.variance(&probe).unwrap();
            let vs = sm.variance(&probe).unwrap();
            assert!((vn - vs).abs() < 1e-8, "variance mismatch {vn} vs {vs}");
            assert!(vs <= last + 1e-12);
            last = vs;
        }
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let mut m = UserOnlineModel::new(3, 1.0, UpdateStrategy::ShermanMorrison);
        assert!(m.observe(&Vector::zeros(2), 1.0).is_err());
        assert!(m.predict(&Vector::zeros(5)).is_err());
    }
}
