//! Batch ridge regression via the normal equations.
//!
//! This module is the literal implementation of the paper's Eq. (2):
//!
//! ```text
//! w_u ← (F(X, θ)ᵀ F(X, θ) + λ I)⁻¹ F(X, θ)ᵀ y
//! ```
//!
//! [`ridge_fit`] is the "naive implementation" whose latency the paper plots
//! in Figure 3: stack the user's observed feature vectors, form the Gram
//! matrix, Cholesky-factorize, solve. [`RidgeProblem`] keeps the running
//! sufficient statistics `(FᵀF, Fᵀy)` so the Gram matrix itself doesn't have
//! to be recomputed from scratch, which is the stepping stone to the full
//! Sherman–Morrison path in [`crate::sherman_morrison`].

use crate::cholesky::Cholesky;
use crate::matrix::{gram_xty_gather, Matrix};
use crate::vector::Vector;
use crate::{LinalgError, Result};

/// Solves `(XᵀX + λI) w = Xᵀ y` by forming the normal equations from the raw
/// design matrix `x` (one observation per row) and targets `y`.
///
/// Errors if `y.len() != x.rows()`, if `x` is empty, or if `lambda <= 0`
/// left the system singular.
pub fn ridge_fit(x: &Matrix, y: &Vector, lambda: f64) -> Result<Vector> {
    if x.rows() == 0 {
        return Err(LinalgError::Empty { op: "ridge_fit" });
    }
    let (gram, xty) = x.gram_xty(y)?;
    solve_shifted(gram, &xty, lambda)
}

/// [`ridge_fit`] with the design matrix gathered from a row-major table:
/// observation `r` is row `ids[r]` of `table` (`d` columns), its target
/// `y[r]` — the same bits as stacking those rows and calling `ridge_fit`.
///
/// Errors if `ids` is empty or `y.len() != ids.len()`, or if the shifted
/// system is not positive definite.
pub fn ridge_fit_gather(
    table: &[f64],
    d: usize,
    ids: &[u32],
    y: &[f64],
    lambda: f64,
) -> Result<Vector> {
    if ids.is_empty() {
        return Err(LinalgError::Empty { op: "ridge_fit_gather" });
    }
    if y.len() != ids.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "ridge_fit_gather",
            expected: ids.len(),
            actual: y.len(),
        });
    }
    let (gram, xty) = gram_xty_gather(table, d, ids, y);
    solve_shifted(gram, &xty, lambda)
}

/// Solves the ridge system given precomputed sufficient statistics: the Gram
/// matrix `XᵀX` (without the ridge shift) and the moment vector `Xᵀy`.
pub fn ridge_fit_gram(gram: &Matrix, xty: &Vector, lambda: f64) -> Result<Vector> {
    solve_shifted(gram.clone(), xty, lambda)
}

/// `(gram + λI)⁻¹ xty` by Cholesky, shifting `gram` in place.
fn solve_shifted(mut gram: Matrix, xty: &Vector, lambda: f64) -> Result<Vector> {
    gram.add_scaled_identity(lambda)?;
    Cholesky::factor(&gram)?.solve(xty)
}

/// A ridge-regression problem accumulated one observation at a time.
///
/// Maintains the sufficient statistics `G = Σ xᵢxᵢᵀ` and `b = Σ yᵢxᵢ`; each
/// [`solve`](RidgeProblem::solve) call factorizes `G + λI` from scratch
/// (O(d³)). This is exactly the cost profile of the paper's prototype: cheap
/// O(d²) accumulation per observation, cubic solve per update.
#[derive(Debug, Clone)]
pub struct RidgeProblem {
    gram: Matrix,
    xty: Vector,
    lambda: f64,
    n_obs: usize,
}

impl RidgeProblem {
    /// Creates an empty problem of dimension `d` with regularization
    /// `lambda` (must be positive so the system is always solvable).
    pub fn new(d: usize, lambda: f64) -> Self {
        assert!(lambda > 0.0, "ridge lambda must be positive");
        RidgeProblem { gram: Matrix::zeros(d, d), xty: Vector::zeros(d), lambda, n_obs: 0 }
    }

    /// Creates a problem whose empty-data solution equals a prior weight
    /// vector: with zero Gram matrix and moment vector `b`, solving
    /// `(0 + λI) w = b` yields `w = b/λ`. Callers pass `b = λ·w₀` to make
    /// the prior mean exactly `w₀` — the warm-start encoding used when a
    /// user's weights return from offline training without their raw
    /// history.
    ///
    /// # Panics
    /// Panics if `lambda <= 0`.
    pub fn with_prior_moments(d: usize, lambda: f64, b: Vector) -> Self {
        assert!(lambda > 0.0, "ridge lambda must be positive");
        assert_eq!(b.len(), d, "prior moment vector must have dimension d");
        RidgeProblem { gram: Matrix::zeros(d, d), xty: b, lambda, n_obs: 0 }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.xty.len()
    }

    /// Number of observations folded in so far.
    pub fn n_obs(&self) -> usize {
        self.n_obs
    }

    /// Regularization constant.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Folds one observation `(x, y)` into the sufficient statistics.
    pub fn observe(&mut self, x: &Vector, y: f64) -> Result<()> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "RidgeProblem::observe",
                expected: self.dim(),
                actual: x.len(),
            });
        }
        self.gram.add_outer(1.0, x)?;
        self.xty.axpy(y, x)?;
        self.n_obs += 1;
        Ok(())
    }

    /// Solves for the current weight vector — a fresh O(d³) factorization
    /// every call (the naive Figure-3 path).
    pub fn solve(&self) -> Result<Vector> {
        ridge_fit_gram(&self.gram, &self.xty, self.lambda)
    }

    /// Borrow the accumulated (unshifted) Gram matrix.
    pub fn gram(&self) -> &Matrix {
        &self.gram
    }

    /// Borrow the accumulated moment vector `Xᵀy`.
    pub fn xty(&self) -> &Vector {
        &self.xty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noiseless data generated from known weights must be recovered up to
    /// the (small) ridge bias.
    #[test]
    fn recovers_planted_weights() {
        let w_true = Vector::from_vec(vec![2.0, -1.0, 0.5]);
        let rows: Vec<Vector> = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![2.0, -1.0, 0.5],
            vec![0.3, 0.7, -0.2],
        ]
        .into_iter()
        .map(Vector::from_vec)
        .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y = x.matvec(&w_true).unwrap();
        let w = ridge_fit(&x, &y, 1e-9).unwrap();
        assert!(w.sub(&w_true).unwrap().norm2() < 1e-6);
    }

    #[test]
    fn larger_lambda_shrinks_weights() {
        let rows: Vec<Vector> = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.0, -1.0]]
            .into_iter()
            .map(Vector::from_vec)
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y = Vector::from_vec(vec![3.0, 3.0, 0.0]);
        let w_small = ridge_fit(&x, &y, 1e-6).unwrap();
        let w_big = ridge_fit(&x, &y, 100.0).unwrap();
        assert!(w_big.norm2() < w_small.norm2());
    }

    #[test]
    fn underdetermined_is_still_solvable_with_ridge() {
        // One observation, three dimensions: XᵀX is rank-1 but λI fixes it.
        let x = Matrix::from_rows(&[Vector::from_vec(vec![1.0, 2.0, 3.0])]).unwrap();
        let y = Vector::from_vec(vec![1.0]);
        let w = ridge_fit(&x, &y, 0.1).unwrap();
        assert!(w.is_finite());
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::zeros(3, 2);
        let y = Vector::zeros(2);
        assert!(ridge_fit(&x, &y, 1.0).is_err());
        let empty = Matrix::zeros(0, 2);
        assert!(ridge_fit(&empty, &Vector::zeros(0), 1.0).is_err());
    }

    #[test]
    fn problem_accumulation_matches_batch_fit() {
        let rows: Vec<Vector> = vec![
            vec![1.0, 0.5, -0.5],
            vec![0.2, 1.0, 0.8],
            vec![-1.0, 0.3, 0.1],
            vec![0.6, -0.6, 1.0],
        ]
        .into_iter()
        .map(Vector::from_vec)
        .collect();
        let ys = [1.0, -0.5, 0.25, 2.0];
        let lambda = 0.3;

        let mut prob = RidgeProblem::new(3, lambda);
        for (x, &y) in rows.iter().zip(&ys) {
            prob.observe(x, y).unwrap();
        }
        let w_inc = prob.solve().unwrap();

        let x = Matrix::from_rows(&rows).unwrap();
        let y = Vector::from_vec(ys.to_vec());
        let w_batch = ridge_fit(&x, &y, lambda).unwrap();
        assert!(w_inc.sub(&w_batch).unwrap().norm2() < 1e-10);
        assert_eq!(prob.n_obs(), 4);
    }

    #[test]
    fn empty_problem_solves_to_zero() {
        let prob = RidgeProblem::new(4, 0.5);
        let w = prob.solve().unwrap();
        assert!(w.norm2() < 1e-15);
    }

    #[test]
    fn observe_rejects_wrong_dimension() {
        let mut prob = RidgeProblem::new(3, 1.0);
        assert!(prob.observe(&Vector::zeros(2), 1.0).is_err());
        assert_eq!(prob.n_obs(), 0);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_panics() {
        let _ = RidgeProblem::new(3, 0.0);
    }
}
