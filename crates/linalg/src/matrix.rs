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

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// Implemented as an axpy sweep over rows so the row-major layout is
    /// still traversed contiguously.
    pub fn matvec_transpose(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_transpose",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let alpha = x[r];
            if alpha == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (o, &v) in out.iter_mut().zip(row) {
                *o += alpha * v;
            }
        }
        Ok(Vector::from_vec(out))
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
    /// (Eq. 2); only the upper triangle is computed and then mirrored.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..d {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                let gi = &mut g.data[i * d..(i + 1) * d];
                for j in i..d {
                    gi[j] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..d {
            for j in (i + 1)..d {
                let v = g.data[i * d + j];
                g.data[j * d + i] = v;
            }
        }
        g
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
    fn matvec_transpose_matches_explicit_transpose() {
        let m = m2x3();
        let x = Vector::from_vec(vec![1.0, 2.0]);
        let via_kernel = m.matvec_transpose(&x).unwrap();
        let via_transpose = m.transpose().matvec(&x).unwrap();
        assert_eq!(via_kernel, via_transpose);
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
