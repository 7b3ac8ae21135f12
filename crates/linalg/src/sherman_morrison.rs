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
//! Each update is O(d²) time, and the state is the `d(d+1)/2` floats of
//! `A⁻¹`'s upper triangle plus three `d`-vectors per user. The same `A⁻¹`
//! doubles as the covariance proxy the contextual-bandit layer
//! (`velox-bandit`) needs for confidence bounds, so this struct is shared by
//! both the online learner and LinUCB.

use crate::matrix::Matrix;
use crate::vector::{dot_axpy, dot_slices, dot_slices_x4, Vector};
use crate::{LinalgError, Result};

/// An incrementally-maintained ridge regression.
///
/// Equivalent (up to floating-point error) to re-solving
/// `(XᵀX + λI) w = Xᵀy` after every observation, but each observation costs
/// O(d²) instead of O(d³).
///
/// `A⁻¹` is symmetric, so only its upper triangle is kept, row-packed: row
/// `i` is `A⁻¹[i][i..d]`, and the rows follow one another in a single
/// buffer of `d(d+1)/2` floats. That halves the resident state and the
/// bytes every kernel below streams: each reads every stored element once.
#[derive(Debug, Clone)]
pub struct IncrementalRidge {
    /// Upper triangle of `(λI + XᵀX)⁻¹`, row-packed.
    a_inv: Vec<f64>,
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

/// The rows of a packed upper triangle of dimension `d`, in order: row `i`
/// is `d − i` long and starts with the diagonal element.
fn packed_rows(packed: &[f64], d: usize) -> impl Iterator<Item = &[f64]> {
    let mut rest = packed;
    (0..d).map(move |i| {
        let (row, tail) = rest.split_at(d - i);
        rest = tail;
        row
    })
}

/// Row `i`'s share of `out = A x` for the symmetric `A` whose upper
/// triangle is packed (see [`spmv_into`]): `out[i] ← out[i] + row·x[i..]`,
/// and `out[j] += x[i]·row[j − i]` for every `j > i`, skipped when `x[i]`
/// is exactly zero.
#[inline]
fn spmv_row(row: &[f64], i: usize, x: &[f64], out: &mut [f64]) {
    let (x, out) = (&x[i..], &mut out[i..]);
    let acc = out[0];
    // The fused sweep also adds `x[i]·row[0]` to `out[i]`; the store below
    // overwrites it.
    let dot = if x[0] == 0.0 { dot_slices(row, x) } else { dot_axpy(row, x, x[0], out) };
    out[0] = acc + dot;
}

/// `out = A x` for the symmetric `A` whose upper triangle is `packed` — a
/// `dspmv`-style sweep that reads each stored element once.
///
/// **Accumulation-order contract.** Every `out[j]` starts at `+0.0`. Rows
/// go in order `i = 0, 1, …, d − 1`; row `i` first adds
/// `dot_slices(A[i][i..], x[i..])` to `out[i]` — which by then holds the
/// contributions of rows `0..i` — and then adds `x[i]·A[i][j]` to each
/// `out[j]`, `j > i`, unless `x[i]` is exactly `0.0` (either sign). So
///
/// ```text
/// out[j] = ((…(0 + x₀A₀ⱼ) + x₁A₁ⱼ …) + x_{j−1}A_{j−1,j}) + dot_slices(A[j][j..], x[j..])
/// ```
///
/// with the zero-`x` terms left out of the fold.
fn spmv_into(packed: &[f64], x: &[f64], out: &mut Vec<f64>) {
    let d = x.len();
    out.clear();
    out.resize(d, 0.0);
    for (i, row) in packed_rows(packed, d).enumerate() {
        spmv_row(row, i, x, out);
    }
}

impl IncrementalRidge {
    /// Creates an empty model of dimension `d` with ridge constant
    /// `lambda > 0`. Initially `A = λI`, so `A⁻¹ = I/λ` and `w = 0`.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` (the inverse would not exist).
    pub fn new(d: usize, lambda: f64) -> Self {
        assert!(lambda > 0.0, "ridge lambda must be positive");
        let mut a_inv = vec![0.0; d * (d + 1) / 2];
        let mut diag = 0;
        for i in 0..d {
            a_inv[diag] = 1.0 / lambda;
            diag += d - i;
        }
        IncrementalRidge {
            a_inv,
            b: Vector::zeros(d),
            w: Vector::zeros(d),
            u: Vec::with_capacity(d),
            lambda,
            n_obs: 0,
        }
    }

    /// A model whose solution before any observation is `prior`: `A = λI`
    /// and `b = λ·prior`, so the ridge prior mean is `prior` and later
    /// observations blend data evidence with it (Bayesian linear
    /// regression). How a user's offline-trained weights become online
    /// state without their raw history.
    ///
    /// # Panics
    /// Panics if `lambda <= 0`, as [`new`](Self::new) does.
    pub fn from_prior(prior: &Vector, lambda: f64) -> Self {
        let mut model = Self::new(prior.len(), lambda);
        let mut b = prior.clone();
        b.scale(lambda);
        model.reset_moments(b).expect("the prior sets the dimension");
        model
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
        let inverse = crate::cholesky::Cholesky::factor(&a)?.inverse()?;
        let d = inverse.rows();
        let a_inv = (0..d).flat_map(|i| inverse.row(i)[i..].iter().copied()).collect();
        let mut model = IncrementalRidge {
            a_inv,
            b: Vector::zeros(d),
            w: Vector::zeros(d),
            u: Vec::with_capacity(d),
            lambda,
            n_obs,
        };
        model.reset_moments(xty.clone())?;
        Ok(model)
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

    /// The stored upper triangle of `A⁻¹`, row-packed: row `i` is
    /// `A⁻¹[i][i..d]`, `d(d+1)/2` floats in all.
    pub fn packed_a_inv(&self) -> &[f64] {
        &self.a_inv
    }

    /// `A⁻¹` expanded to a dense symmetric matrix (a fresh `d × d` copy;
    /// for tests and diagnostics, not the serving path).
    pub fn a_inv(&self) -> Matrix {
        let d = self.dim();
        let mut dense = Matrix::zeros(d, d);
        for (i, row) in packed_rows(&self.a_inv, d).enumerate() {
            for (j, &v) in (i..d).zip(row) {
                dense.set(i, j, v);
                dense.set(j, i, v);
            }
        }
        dense
    }

    /// Bytes of resident model state: the packed `A⁻¹` plus `b`, `w` and
    /// the `u` scratch, `(d(d+1)/2 + 3d) × 8`.
    pub fn state_bytes(&self) -> usize {
        (self.a_inv.len() + 3 * self.dim()) * std::mem::size_of::<f64>()
    }

    /// Predicted value `wᵀx` for a feature vector.
    pub fn predict(&self, x: &Vector) -> Result<f64> {
        self.w.dot(x)
    }

    /// The quadratic form `xᵀ A⁻¹ x` — the variance proxy used by LinUCB
    /// confidence bounds (larger = the model knows less about direction `x`).
    ///
    /// **Accumulation-order contract.** A left fold from `+0.0` over
    /// `i = 0, 1, …, d − 1` of
    /// `xᵢ·(A[i][i]·xᵢ + 2·dot_slices(A[i][i+1..], x[i+1..]))`: the
    /// symmetric form read off the stored triangle, one pass over it.
    pub fn variance(&self, x: &Vector) -> Result<f64> {
        self.check_width("IncrementalRidge::variance", x.len())?;
        Ok(self.quad_form(x.as_slice()))
    }

    /// [`variance`](Self::variance) of an `x` already checked to be `d` long.
    fn quad_form(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, row) in packed_rows(&self.a_inv, x.len()).enumerate() {
            acc += x[i] * (row[0] * x[i] + 2.0 * dot_slices(&row[1..], &x[i + 1..]));
        }
        acc
    }

    /// [`variance`](Self::variance) for a whole candidate set, one candidate
    /// per row of `xs`: `out[c]` equals the variance of row `c` in every bit.
    ///
    /// Candidates go four at a time through `dot_slices_x4`, so each row
    /// of the packed `A⁻¹` is loaded once per block instead of once per
    /// candidate.
    pub fn variance_many(&self, xs: &Matrix) -> Result<Vec<f64>> {
        let d = self.dim();
        self.check_width("IncrementalRidge::variance_many", xs.cols())?;
        let mut out = Vec::with_capacity(xs.rows());
        let blocked = xs.rows() - xs.rows() % 4;
        for c in (0..blocked).step_by(4) {
            let block = xs.row_block(c);
            let mut acc = [0.0f64; 4];
            for (i, row) in packed_rows(&self.a_inv, d).enumerate() {
                let dots = dot_slices_x4(&row[1..], block.map(|x| &x[i + 1..]));
                for ((acc, x), dot) in acc.iter_mut().zip(block).zip(dots) {
                    *acc += x[i] * (row[0] * x[i] + 2.0 * dot);
                }
            }
            out.extend_from_slice(&acc);
        }
        for c in blocked..xs.rows() {
            out.push(self.quad_form(xs.row(c)));
        }
        Ok(out)
    }

    /// Errs unless an operand of width `actual` matches the model.
    fn check_width(&self, op: &'static str, actual: usize) -> Result<()> {
        if actual != self.dim() {
            return Err(LinalgError::DimensionMismatch { op, expected: self.dim(), actual });
        }
        Ok(())
    }

    /// Folds in one observation `(x, y)` with a Sherman–Morrison rank-one
    /// update. O(d²), two passes over the packed `A⁻¹`: one for
    /// `u = A⁻¹x` ([`spmv_into`]'s order), and one that applies
    /// `−u uᵀ/denom` to each row and, while that row is still in L1, adds
    /// its share of `w = A⁻¹b` — the same sweep, and so the same bits, as
    /// recomputing `w` over the updated triangle. The update of row `i` is
    /// `A[i][j] += (−uᵢ/denom)·uⱼ` for `j ≥ i`, skipped when that
    /// multiplier is exactly zero.
    pub fn observe(&mut self, x: &Vector, y: f64) -> Result<()> {
        let d = self.dim();
        self.check_width("IncrementalRidge::observe", x.len())?;
        // u = A⁻¹ x   (A⁻¹ is symmetric, so xᵀA⁻¹ = uᵀ)
        spmv_into(&self.a_inv, x.as_slice(), &mut self.u);
        let denom = 1.0 + dot_slices(x.as_slice(), &self.u);
        // denom = 1 + xᵀA⁻¹x > 0 always holds for SPD A, but guard against
        // accumulated round-off driving it non-positive.
        if denom <= 0.0 || !denom.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
        }
        // b ← b + y x
        self.b.axpy(y, x)?;
        // A⁻¹ ← A⁻¹ − u uᵀ / denom ; w = A⁻¹ b, row by row.
        let alpha = -1.0 / denom;
        let (u, b, w) = (self.u.as_slice(), self.b.as_slice(), self.w.as_mut_slice());
        w.fill(0.0);
        let mut rest = self.a_inv.as_mut_slice();
        for i in 0..d {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(d - i);
            rest = tail;
            let ui = alpha * u[i];
            // Skipping a zero multiplier (rather than adding ±0) is part of
            // the bit contract: `-0.0 + 0.0` would flip a sign bit.
            if ui != 0.0 {
                for (a, &uj) in row.iter_mut().zip(&u[i..]) {
                    *a += ui * uj;
                }
            }
            spmv_row(row, i, b, w);
        }
        self.n_obs += 1;
        Ok(())
    }

    /// Recomputes `w` from the maintained state. Normally unnecessary
    /// (`observe` already refreshes it); exposed for tests and for recovery
    /// after deserialization.
    pub fn refresh_weights(&mut self) -> Result<()> {
        let mut w = std::mem::take(&mut self.w).into_vec();
        spmv_into(&self.a_inv, self.b.as_slice(), &mut w);
        self.w = Vector::from_vec(w);
        Ok(())
    }

    /// Replaces the moment vector `b` (used when an offline retrain rewrites
    /// a user's history in a new feature basis of the same dimension) and
    /// refreshes `w`.
    pub fn reset_moments(&mut self, b: Vector) -> Result<()> {
        self.check_width("reset_moments", b.len())?;
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
        let expanded = inc.a_inv();
        assert!(expanded.is_symmetric(0.0), "one stored triangle mirrors exactly");
        assert!(expanded.max_abs_diff(&true_inv).unwrap() < 1e-9);
        assert_eq!(inc.packed_a_inv().len(), 3 * 4 / 2);
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
