//! Dense, row-major `f64` matrices and the BLAS-2/3 kernels Velox needs.
//!
//! The matrices that actually occur in Velox are small-to-medium dense
//! blocks: per-user Gram matrices `FᵀF + λI` (d×d, d up to a few thousand),
//! stacked feature matrices `F ∈ R^{n_u × d}` for one user's observations,
//! and the user/item factor tables sliced row-wise. Row-major layout keeps
//! "one row = one entity's vector" a contiguous slice, which is the access
//! pattern of every serving and update path.

use crate::vector::{dot_slices, dot_slices_x4, Vector};
use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data buffer.
    ///
    /// Errors if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_row_major",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by stacking row vectors. All rows must share a
    /// length; errors otherwise or when `rows` is empty.
    pub fn from_rows(rows: &[Vector]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::Empty { op: "from_rows" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access (panics on out-of-bounds, mirroring slice semantics).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment (panics on out-of-bounds).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Rows `r..r + 4`, the operand shape of `dot_slices_x4`.
    #[inline]
    pub(crate) fn row_block(&self, r: usize) -> [&[f64]; 4] {
        [self.row(r), self.row(r + 1), self.row(r + 2), self.row(r + 3)]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a new [`Vector`].
    pub fn row_vector(&self, r: usize) -> Vector {
        Vector::from_vec(self.row(r).to_vec())
    }

    /// Overwrites row `r` with `v`. Errors on length mismatch.
    pub fn set_row(&mut self, r: usize, v: &Vector) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "set_row",
                expected: self.cols,
                actual: v.len(),
            });
        }
        self.row_mut(r).copy_from_slice(v.as_slice());
        Ok(())
    }

    /// Raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(x, &mut out)?;
        Ok(Vector::from_vec(out))
    }

    /// Matrix–vector product `A x` written into a caller-owned buffer
    /// (cleared first; no allocation once `out` has capacity `rows`).
    ///
    /// Row-blocked: four rows share one load of `x`. Element `r` equals
    /// `dot_slices(self.row(r), x)` in every bit.
    pub fn matvec_into(&self, x: &Vector, out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let xs = x.as_slice();
        out.clear();
        let blocked = self.rows - self.rows % 4;
        for r in (0..blocked).step_by(4) {
            out.extend_from_slice(&dot_slices_x4(xs, self.row_block(r)));
        }
        for r in blocked..self.rows {
            out.push(dot_slices(self.row(r), xs));
        }
        Ok(())
    }

    /// Matrix product `A B`.
    ///
    /// ikj loop order: the inner loop streams a row of `B` and a row of the
    /// output, so both are contiguous.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a_ik = self.get(i, k);
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (symmetric, `cols × cols`).
    ///
    /// This is the matrix Velox forms for every online user-weight solve
    /// (Eq. 2). Accumulated by [`gram_fold`], whose order contract it keeps.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        gram_fold(self.cols, self.rows, |r| self.row(r), None, &mut g, &mut []);
        g
    }

    /// The normal-equation operands `(AᵀA, Aᵀy)` of a least-squares
    /// problem with one observation per row, in one sweep over the rows
    /// (see [`gram_fold`]). Errors if `y.len() != rows`.
    pub fn gram_xty(&self, y: &Vector) -> Result<(Matrix, Vector)> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "gram_xty",
                expected: self.rows,
                actual: y.len(),
            });
        }
        let mut g = Matrix::zeros(self.cols, self.cols);
        let mut b = Vector::zeros(self.cols);
        gram_fold(
            self.cols,
            self.rows,
            |r| self.row(r),
            Some(y.as_slice()),
            &mut g,
            b.as_mut_slice(),
        );
        Ok((g, b))
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `alpha` to every diagonal element in place (ridge shift
    /// `A + αI`). Errors if the matrix is not square.
    pub fn add_scaled_identity(&mut self, alpha: f64) -> Result<()> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled_identity",
                expected: self.rows,
                actual: self.cols,
            });
        }
        for i in 0..self.rows {
            self.data[i * self.cols + i] += alpha;
        }
        Ok(())
    }

    /// Rank-one symmetric update `self += alpha * x xᵀ` in place.
    ///
    /// Used to fold a new observation's feature vector into a running Gram
    /// matrix without re-stacking all of a user's history.
    pub fn add_outer(&mut self, alpha: f64, x: &Vector) -> Result<()> {
        if self.rows != x.len() || self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "add_outer",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let xs = x.as_slice();
        for i in 0..self.rows {
            let xi = alpha * xs[i];
            if xi == 0.0 {
                continue;
            }
            let row = self.row_mut(i);
            for (r, &xj) in row.iter_mut().zip(xs) {
                *r += xi * xj;
            }
        }
        Ok(())
    }

    /// Elementwise `self += alpha * other`. Errors on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix axpy",
                expected: self.data.len(),
                actual: other.data.len(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Maximum absolute elementwise difference to `other` — the metric used
    /// by tests to compare factorizations. Errors on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                expected: self.data.len(),
                actual: other.data.len(),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max))
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Whether `|a_ij - a_ji| <= tol` everywhere (used to sanity-check Gram
    /// matrices before Cholesky).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// [`Matrix::gram_xty`] over rows gathered from a row-major table:
/// observation `r` is the row `table[ids[r]·d ..][..d]`, its label `y[r]`.
///
/// This is how an ALS half-step joins one entity's ratings against the
/// fixed side's factor table in place, with no per-rating copy. Panics if
/// `y.len() != ids.len()` or an id addresses a row past the table.
pub(crate) fn gram_xty_gather(table: &[f64], d: usize, ids: &[u32], y: &[f64]) -> (Matrix, Vector) {
    assert_eq!(ids.len(), y.len(), "one label per gathered row");
    let mut g = Matrix::zeros(d, d);
    let mut b = Vector::zeros(d);
    let row = |r: usize| &table[ids[r] as usize * d..][..d];
    gram_fold(d, ids.len(), row, Some(y), &mut g, b.as_mut_slice());
    (g, b)
}

/// The one Gram accumulation loop: `gram += Σᵣ xᵣxᵣᵀ` over the `n` rows
/// `row(0..n)` (each `d` long) and, with labels, `xty += Σᵣ yᵣxᵣ`.
///
/// **Accumulation-order contract.** Each element of the upper triangle,
/// `g[i][j]` with `j ≥ i`, and each `xty[k]`, is a left fold over the rows
/// in order `r = 0, 1, …, n − 1` from the caller's value (`+0.0` for a
/// fresh matrix): `g[i][j] ← g[i][j] + xᵣ[i]·xᵣ[j]` and
/// `xty[k] ← xty[k] + yᵣ·xᵣ[k]`, where a term is skipped when its left
/// factor — `xᵣ[i]`, resp. `yᵣ` — is exactly `0.0` (either sign). The
/// lower triangle is then a copy of the upper.
///
/// Any loop order that keeps each element's fold is bit-identical, so this
/// one folds four rows into an element per load and store of it
/// (`(((g + p₀) + p₁) + p₂) + p₃`), and drops to one row at a time when one
/// of the four left factors is zero. That keeps the skip itself exact: a
/// zero factor times an infinite or NaN component is never formed, so the
/// bits match the one-row-at-a-time loop for every input, non-finite ones
/// included.
fn gram_fold<'a>(
    d: usize,
    n: usize,
    row: impl Fn(usize) -> &'a [f64],
    labels: Option<&[f64]>,
    gram: &mut Matrix,
    xty: &mut [f64],
) {
    debug_assert_eq!(gram.shape(), (d, d));
    let g = &mut gram.data;
    let blocked = n - n % 4;
    for r in (0..blocked).step_by(4) {
        let x = [&row(r)[..d], &row(r + 1)[..d], &row(r + 2)[..d], &row(r + 3)[..d]];
        for i in 0..d {
            fold_terms(&mut g[i * d + i..(i + 1) * d], x.map(|x| (x[i], &x[i..])));
        }
        if let Some(y) = labels {
            fold_terms(xty, [(y[r], x[0]), (y[r + 1], x[1]), (y[r + 2], x[2]), (y[r + 3], x[3])]);
        }
    }
    for r in blocked..n {
        let x = &row(r)[..d];
        for i in 0..d {
            fold_term(&mut g[i * d + i..(i + 1) * d], x[i], &x[i..]);
        }
        if let Some(y) = labels {
            fold_term(xty, y[r], x);
        }
    }
    for i in 0..d {
        for j in (i + 1)..d {
            g[j * d + i] = g[i * d + j];
        }
    }
}

/// `acc[k] += cₜ·xₜ[k]` for the four terms `t` in order — one load and one
/// store of `acc[k]` for four products — skipping zero coefficients.
#[inline(always)]
fn fold_terms(acc: &mut [f64], terms: [(f64, &[f64]); 4]) {
    let [(a, xa), (b, xb), (c, xc), (e, xe)] = terms;
    if a == 0.0 || b == 0.0 || c == 0.0 || e == 0.0 {
        for (coef, x) in terms {
            fold_term(acc, coef, x);
        }
        return;
    }
    let n = acc.len();
    let xs = xa[..n].iter().zip(&xb[..n]).zip(&xc[..n]).zip(&xe[..n]);
    for (s, (((&pa, &pb), &pc), &pe)) in acc.iter_mut().zip(xs) {
        *s = *s + a * pa + b * pb + c * pc + e * pe;
    }
}

/// `acc[k] += coef·x[k]`, or nothing when `coef` is exactly zero.
#[inline(always)]
fn fold_term(acc: &mut [f64], coef: f64, x: &[f64]) {
    if coef == 0.0 {
        return;
    }
    for (s, &v) in acc.iter_mut().zip(x) {
        *s += coef * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x3() -> Matrix {
        Matrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = m2x3();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert!(Matrix::from_row_major(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = Matrix::identity(4);
        let x = Vector::from_vec(vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn from_rows_stacks() {
        let rows = vec![Vector::from_vec(vec![1.0, 2.0]), Vector::from_vec(vec![3.0, 4.0])];
        let m = Matrix::from_rows(&rows).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(Matrix::from_rows(&ragged).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matvec_matches_manual() {
        let m = m2x3();
        let x = Vector::from_vec(vec![1.0, 0.0, -1.0]);
        let y = m.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
        assert!(m.matvec(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn gram_xty_matches_explicit_transpose() {
        let m = m2x3();
        let y = Vector::from_vec(vec![1.0, 2.0]);
        let (g, b) = m.gram_xty(&y).unwrap();
        assert_eq!(g, m.gram());
        assert_eq!(b, m.transpose().matvec(&y).unwrap());
        assert!(m.gram_xty(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn gather_reads_rows_by_id() {
        let table = m2x3();
        let y = [2.0, 0.5, -1.0];
        let (g, b) = gram_xty_gather(table.as_slice(), 3, &[1, 0, 1], &y);
        let stacked =
            Matrix::from_row_major(3, 3, vec![4., 5., 6., 1., 2., 3., 4., 5., 6.]).unwrap();
        let (g_ref, b_ref) = stacked.gram_xty(&Vector::from_vec(y.to_vec())).unwrap();
        assert_eq!((g, b), (g_ref, b_ref));
    }

    #[test]
    fn matmul_against_known_product() {
        let a = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_row_major(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&m2x3().transpose()).is_err());
    }

    #[test]
    fn gram_matches_explicit_ata() {
        let a = m2x3();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&explicit).unwrap() < 1e-12);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn transpose_involution() {
        let m = m2x3();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_scaled_identity_shifts_diagonal() {
        let mut m = Matrix::zeros(3, 3);
        m.add_scaled_identity(2.5).unwrap();
        assert_eq!(m.get(1, 1), 2.5);
        assert_eq!(m.get(0, 1), 0.0);
        let mut rect = Matrix::zeros(2, 3);
        assert!(rect.add_scaled_identity(1.0).is_err());
    }

    #[test]
    fn add_outer_matches_explicit() {
        let x = Vector::from_vec(vec![1.0, 2.0, -1.0]);
        let mut m = Matrix::identity(3);
        m.add_outer(0.5, &x).unwrap();
        // Check a few entries: I + 0.5 x xᵀ
        assert!((m.get(0, 0) - 1.5).abs() < 1e-15);
        assert!((m.get(0, 1) - 1.0).abs() < 1e-15);
        assert!((m.get(2, 1) - (-1.0)).abs() < 1e-15);
        assert!(m.is_symmetric(1e-15));
    }

    #[test]
    fn row_accessors() {
        let mut m = m2x3();
        assert_eq!(m.row_vector(0).as_slice(), &[1.0, 2.0, 3.0]);
        m.set_row(0, &Vector::from_vec(vec![9.0, 8.0, 7.0])).unwrap();
        assert_eq!(m.row(0), &[9.0, 8.0, 7.0]);
        assert!(m.set_row(0, &Vector::zeros(2)).is_err());
    }

    #[test]
    fn frobenius_and_finiteness() {
        let m = Matrix::from_row_major(1, 2, vec![3.0, 4.0]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert!(m.is_finite());
        let bad = Matrix::from_row_major(1, 1, vec![f64::NAN]).unwrap();
        assert!(!bad.is_finite());
    }

    #[test]
    fn symmetry_check() {
        let sym = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(sym.is_symmetric(0.0));
        let asym = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 1.0]).unwrap();
        assert!(!asym.is_symmetric(0.5));
        assert!(!m2x3().is_symmetric(1.0));
    }

    #[test]
    fn matrix_axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::from_row_major(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 2.0, 2.0, 3.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 1.0, 1.0, 1.5]);
        assert!(a.axpy(1.0, &Matrix::zeros(3, 3)).is_err());
    }
}
