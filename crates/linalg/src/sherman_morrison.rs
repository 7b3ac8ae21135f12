//! Incremental ridge maintenance via Sherman–Morrison rank-one updates.
//!
//! The paper (§4.2) observes that while the naive normal-equations solve is
//! cubic in the feature dimension `d`, the updated weights "can be maintained
//! in time quadratic in d using the Sherman–Morrison formula for rank-one
//! updates". This module implements exactly that: maintain
//!
//! ```text
//! A⁻¹ where A = λI + Σᵢ xᵢ xᵢᵀ,    b = Σᵢ yᵢ xᵢ
//! ```
//!
//! and on each new observation `(x, y)` apply
//!
//! ```text
//! A⁻¹ ← A⁻¹ − (A⁻¹ x)(xᵀ A⁻¹) / (1 + xᵀ A⁻¹ x)
//! b   ← b + y·x
//! w   = A⁻¹ b
//! ```
//!
//! Each update is O(d²) time and the state is O(d²) memory per user. The
//! same `A⁻¹` doubles as the covariance proxy the contextual-bandit layer
//! (`velox-bandit`) needs for confidence bounds, so this struct is shared by
//! both the online learner and LinUCB.

use crate::matrix::Matrix;
use crate::vector::{dot_slices, dot_slices_x4, Vector};
use crate::{LinalgError, Result};

/// An incrementally-maintained ridge regression.
///
/// Equivalent (up to floating-point error) to re-solving
/// `(XᵀX + λI) w = Xᵀy` after every observation, but each observation costs
/// O(d²) instead of O(d³).
#[derive(Debug, Clone)]
pub struct IncrementalRidge {
    /// `(λI + XᵀX)⁻¹`, maintained directly.
    a_inv: Matrix,
    /// `Xᵀ y`.
    b: Vector,
    /// Current solution `A⁻¹ b`, refreshed in place on each update.
    w: Vector,
    /// Scratch for `u = A⁻¹ x`, reused across updates so a steady-state
    /// `observe` allocates nothing.
    u: Vec<f64>,
    lambda: f64,
    n_obs: usize,
}

impl IncrementalRidge {
    /// Creates an empty model of dimension `d` with ridge constant
    /// `lambda > 0`. Initially `A = λI`, so `A⁻¹ = I/λ` and `w = 0`.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` (the inverse would not exist).
    pub fn new(d: usize, lambda: f64) -> Self {
        assert!(lambda > 0.0, "ridge lambda must be positive");
        let mut a_inv = Matrix::identity(d);
        a_inv.scale(1.0 / lambda);
        IncrementalRidge {
            a_inv,
            b: Vector::zeros(d),
            w: Vector::zeros(d),
            u: Vec::with_capacity(d),
            lambda,
            n_obs: 0,
        }
    }

    /// Reconstructs an incremental model from batch sufficient statistics
    /// (`gram = XᵀX`, `xty = Xᵀy`). O(d³) — done once when a user's model is
    /// loaded from storage or after an offline retrain, after which all
    /// updates are O(d²).
    pub fn from_sufficient_stats(
        gram: &Matrix,
        xty: &Vector,
        lambda: f64,
        n_obs: usize,
    ) -> Result<Self> {
        if lambda <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
        }
        let mut a = gram.clone();
        a.add_scaled_identity(lambda)?;
        let ch = crate::cholesky::Cholesky::factor(&a)?;
        let a_inv = ch.inverse()?;
        let w = a_inv.matvec(xty)?;
        let u = Vec::with_capacity(xty.len());
        Ok(IncrementalRidge { a_inv, b: xty.clone(), w, u, lambda, n_obs })
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.b.len()
    }

    /// Number of observations folded in.
    pub fn n_obs(&self) -> usize {
        self.n_obs
    }

    /// Ridge constant.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Current weight vector `w = A⁻¹ b`.
    pub fn weights(&self) -> &Vector {
        &self.w
    }

    /// Borrow the moment vector `b = Xᵀy` (plus any prior set through
    /// [`reset_moments`](Self::reset_moments)).
    pub fn moments(&self) -> &Vector {
        &self.b
    }

    /// Borrow the maintained inverse `A⁻¹` (the bandit layer's covariance
    /// proxy).
    pub fn a_inv(&self) -> &Matrix {
        &self.a_inv
    }

    /// Predicted value `wᵀx` for a feature vector.
    pub fn predict(&self, x: &Vector) -> Result<f64> {
        self.w.dot(x)
    }

    /// The quadratic form `xᵀ A⁻¹ x` — the variance proxy used by LinUCB
    /// confidence bounds (larger = the model knows less about direction `x`).
    pub fn variance(&self, x: &Vector) -> Result<f64> {
        let ax = self.a_inv.matvec(x)?;
        x.dot(&ax)
    }

    /// [`variance`](Self::variance) for a whole candidate set, one candidate
    /// per row of `xs`: `out[c]` equals the variance of row `c` in every bit.
    ///
    /// Candidates go four at a time through `dot_slices_x4`, so each row
    /// of `A⁻¹` is loaded once per block instead of once per candidate, and
    /// one scratch buffer serves the whole call.
    pub fn variance_many(&self, xs: &Matrix) -> Result<Vec<f64>> {
        let d = self.dim();
        if xs.cols() != d {
            return Err(LinalgError::DimensionMismatch {
                op: "IncrementalRidge::variance_many",
                expected: d,
                actual: xs.cols(),
            });
        }
        let mut out = Vec::with_capacity(xs.rows());
        // `A⁻¹ x` for the block in flight, one candidate per `d`-stripe.
        let mut ax = vec![0.0; 4 * d];
        let blocked = xs.rows() - xs.rows() % 4;
        for c in (0..blocked).step_by(4) {
            let block = xs.row_block(c);
            for i in 0..d {
                let dots = dot_slices_x4(self.a_inv.row(i), block);
                for (stripe, dot) in dots.into_iter().enumerate() {
                    ax[stripe * d + i] = dot;
                }
            }
            for (stripe, x) in block.into_iter().enumerate() {
                out.push(dot_slices(x, &ax[stripe * d..(stripe + 1) * d]));
            }
        }
        for c in blocked..xs.rows() {
            let x = xs.row(c);
            for (i, axi) in ax[..d].iter_mut().enumerate() {
                *axi = dot_slices(self.a_inv.row(i), x);
            }
            out.push(dot_slices(x, &ax[..d]));
        }
        Ok(out)
    }

    /// Folds in one observation `(x, y)` with a Sherman–Morrison rank-one
    /// update. O(d²), two passes over `A⁻¹`: one for `u = A⁻¹x`, one that
    /// applies `−u uᵀ/denom` to a block of rows and dots the finished rows
    /// with `b` while they are still in cache. The arithmetic — and so every
    /// bit of `A⁻¹`, `b` and `w` — is that of the textbook three-pass form
    /// (`matvec`, `add_outer`, `matvec`).
    pub fn observe(&mut self, x: &Vector, y: f64) -> Result<()> {
        let d = self.dim();
        if x.len() != d {
            return Err(LinalgError::DimensionMismatch {
                op: "IncrementalRidge::observe",
                expected: d,
                actual: x.len(),
            });
        }
        // u = A⁻¹ x   (A⁻¹ is symmetric, so xᵀA⁻¹ = uᵀ)
        self.a_inv.matvec_into(x, &mut self.u)?;
        let denom = 1.0 + dot_slices(x.as_slice(), &self.u);
        // denom = 1 + xᵀA⁻¹x > 0 always holds for SPD A, but guard against
        // accumulated round-off driving it non-positive.
        if denom <= 0.0 || !denom.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
        }
        // b ← b + y x
        self.b.axpy(y, x)?;
        // A⁻¹ ← A⁻¹ − u uᵀ / denom ; w = A⁻¹ b — four rows updated, then
        // dotted with b while they are still in L1.
        let alpha = -1.0 / denom;
        let (u, b, w) = (self.u.as_slice(), self.b.as_slice(), self.w.as_mut_slice());
        let update_row = |a_inv: &mut Matrix, i: usize| {
            let ui = alpha * u[i];
            // Skipping a zero multiplier (rather than adding ±0) is part of
            // the bit contract: `-0.0 + 0.0` would flip a sign bit.
            if ui != 0.0 {
                for (a, &uj) in a_inv.row_mut(i).iter_mut().zip(u) {
                    *a += ui * uj;
                }
            }
        };
        let blocked = d - d % 4;
        for i in (0..blocked).step_by(4) {
            for r in i..i + 4 {
                update_row(&mut self.a_inv, r);
            }
            w[i..i + 4].copy_from_slice(&dot_slices_x4(b, self.a_inv.row_block(i)));
        }
        for (i, wi) in w.iter_mut().enumerate().skip(blocked) {
            update_row(&mut self.a_inv, i);
            *wi = dot_slices(self.a_inv.row(i), b);
        }
        self.n_obs += 1;
        Ok(())
    }

    /// Recomputes `w` from the maintained state. Normally unnecessary
    /// (`observe` already refreshes it); exposed for tests and for recovery
    /// after deserialization.
    pub fn refresh_weights(&mut self) -> Result<()> {
        self.w = self.a_inv.matvec(&self.b)?;
        Ok(())
    }

    /// Replaces the moment vector `b` (used when an offline retrain rewrites
    /// a user's history in a new feature basis of the same dimension) and
    /// refreshes `w`.
    pub fn reset_moments(&mut self, b: Vector) -> Result<()> {
        if b.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "reset_moments",
                expected: self.dim(),
                actual: b.len(),
            });
        }
        self.b = b;
        self.refresh_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ridge::RidgeProblem;

    fn obs() -> (Vec<Vector>, Vec<f64>) {
        let xs: Vec<Vector> = vec![
            vec![1.0, 0.2, -0.3],
            vec![0.4, 1.0, 0.5],
            vec![-0.7, 0.1, 1.0],
            vec![0.2, -0.4, 0.6],
            vec![1.5, 0.9, -1.1],
        ]
        .into_iter()
        .map(Vector::from_vec)
        .collect();
        let ys = vec![1.0, 0.5, -0.25, 0.75, 2.0];
        (xs, ys)
    }

    /// The incremental path must track the naive normal-equations solution
    /// observation-for-observation.
    #[test]
    fn tracks_naive_solution_exactly() {
        let (xs, ys) = obs();
        let lambda = 0.5;
        let mut inc = IncrementalRidge::new(3, lambda);
        let mut naive = RidgeProblem::new(3, lambda);
        for (x, &y) in xs.iter().zip(&ys) {
            inc.observe(x, y).unwrap();
            naive.observe(x, y).unwrap();
            let w_naive = naive.solve().unwrap();
            assert!(
                inc.weights().sub(&w_naive).unwrap().norm2() < 1e-9,
                "diverged after {} obs",
                naive.n_obs()
            );
        }
        assert_eq!(inc.n_obs(), 5);
    }

    #[test]
    fn a_inv_stays_close_to_true_inverse() {
        let (xs, ys) = obs();
        let lambda = 1.0;
        let mut inc = IncrementalRidge::new(3, lambda);
        let mut gram = Matrix::zeros(3, 3);
        for (x, &y) in xs.iter().zip(&ys) {
            inc.observe(x, y).unwrap();
            gram.add_outer(1.0, x).unwrap();
        }
        let mut a = gram.clone();
        a.add_scaled_identity(lambda).unwrap();
        let true_inv = crate::cholesky::Cholesky::factor(&a).unwrap().inverse().unwrap();
        assert!(inc.a_inv().max_abs_diff(&true_inv).unwrap() < 1e-9);
    }

    #[test]
    fn from_sufficient_stats_matches_replay() {
        let (xs, ys) = obs();
        let lambda = 0.7;
        let mut replayed = IncrementalRidge::new(3, lambda);
        let mut gram = Matrix::zeros(3, 3);
        let mut xty = Vector::zeros(3);
        for (x, &y) in xs.iter().zip(&ys) {
            replayed.observe(x, y).unwrap();
            gram.add_outer(1.0, x).unwrap();
            xty.axpy(y, x).unwrap();
        }
        let loaded =
            IncrementalRidge::from_sufficient_stats(&gram, &xty, lambda, xs.len()).unwrap();
        assert!(loaded.weights().sub(replayed.weights()).unwrap().norm2() < 1e-9);
        assert_eq!(loaded.n_obs(), 5);
    }

    #[test]
    fn variance_shrinks_with_observations() {
        let mut inc = IncrementalRidge::new(2, 1.0);
        let x = Vector::from_vec(vec![1.0, 0.0]);
        let v0 = inc.variance(&x).unwrap();
        inc.observe(&x, 1.0).unwrap();
        let v1 = inc.variance(&x).unwrap();
        inc.observe(&x, 1.0).unwrap();
        let v2 = inc.variance(&x).unwrap();
        assert!(v0 > v1 && v1 > v2, "variance must shrink: {v0} {v1} {v2}");
        // Orthogonal direction untouched by these observations keeps its
        // prior variance 1/λ.
        let y_dir = Vector::from_vec(vec![0.0, 1.0]);
        assert!((inc.variance(&y_dir).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_is_dot_with_weights() {
        let mut inc = IncrementalRidge::new(2, 0.1);
        inc.observe(&Vector::from_vec(vec![1.0, 0.0]), 2.0).unwrap();
        inc.observe(&Vector::from_vec(vec![0.0, 1.0]), -1.0).unwrap();
        let x = Vector::from_vec(vec![1.0, 1.0]);
        let p = inc.predict(&x).unwrap();
        assert!((p - inc.weights().dot(&x).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn dimension_checks() {
        let mut inc = IncrementalRidge::new(3, 1.0);
        assert!(inc.observe(&Vector::zeros(2), 1.0).is_err());
        assert!(inc.predict(&Vector::zeros(4)).is_err());
        assert!(inc.variance(&Vector::zeros(1)).is_err());
        assert!(inc.reset_moments(Vector::zeros(2)).is_err());
    }

    #[test]
    fn reset_moments_rewrites_solution() {
        let mut inc = IncrementalRidge::new(2, 1.0);
        inc.observe(&Vector::from_vec(vec![1.0, 0.0]), 1.0).unwrap();
        inc.reset_moments(Vector::zeros(2)).unwrap();
        assert!(inc.weights().norm2() < 1e-15);
    }

    #[test]
    fn long_stream_stays_numerically_sane() {
        // 500 pseudo-random observations in d=8; weights must stay finite
        // and match a final batch solve.
        let d = 8;
        let lambda = 0.5;
        let mut inc = IncrementalRidge::new(d, lambda);
        let mut naive = RidgeProblem::new(d, lambda);
        let mut state = 0x12345678u64;
        let mut next = || {
            // xorshift
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for _ in 0..500 {
            let x = Vector::from_vec((0..d).map(|_| next()).collect());
            let y = next();
            inc.observe(&x, y).unwrap();
            naive.observe(&x, y).unwrap();
        }
        assert!(inc.weights().is_finite());
        let w_batch = naive.solve().unwrap();
        assert!(inc.weights().sub(&w_batch).unwrap().norm2() < 1e-6);
    }
}
