//! Dense `f64` vectors and BLAS-1 style kernels.
//!
//! [`Vector`] is a thin, transparent wrapper over `Vec<f64>`; it exists so
//! that linear-algebra intent is visible in signatures across the workspace
//! (user weights, feature vectors, latent factors are all `Vector`s) and so
//! the hot kernels (`dot`, `axpy`) live in one place for optimization.

use crate::{LinalgError, Result};

/// A dense, heap-allocated `f64` vector.
///
/// Cloning is O(n); the serving path avoids clones by borrowing. All
/// arithmetic helpers check dimensions and return [`LinalgError`] rather
/// than panicking, because in Velox these vectors are driven by external
/// request data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` with every element set to `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector { data: vec![value; n] }
    }

    /// Creates a standard-basis vector `e_i` of length `n`.
    ///
    /// Returns an error if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Result<Self> {
        if i >= n {
            return Err(LinalgError::DimensionMismatch { op: "basis", expected: n, actual: i });
        }
        let mut v = Self::zeros(n);
        v.data[i] = 1.0;
        Ok(v)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element access (panics on out-of-bounds, like slice indexing).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Element assignment (panics on out-of-bounds).
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.data[i] = v;
    }

    /// Dot product `self · other`.
    #[inline]
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        dot_checked(&self.data, &other.data)
    }

    /// `self += alpha * x` (the BLAS `axpy` kernel).
    pub fn axpy(&mut self, alpha: f64, x: &Vector) -> Result<()> {
        if self.len() != x.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                expected: self.len(),
                actual: x.len(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(x.data.iter()) {
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

    /// Returns `self + other` as a new vector.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        let mut out = self.clone();
        out.axpy(1.0, other)?;
        Ok(out)
    }

    /// Returns `self - other` as a new vector.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        let mut out = self.clone();
        out.axpy(-1.0, other)?;
        Ok(out)
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Squared Euclidean norm — cheaper than `norm2` when the root is not
    /// needed (e.g. regularization terms `||w||²`).
    pub fn norm2_squared(&self) -> f64 {
        dot_slices(&self.data, &self.data)
    }

    /// L1 norm (sum of absolute values).
    pub fn norm1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// Arithmetic mean of the elements. Errors on an empty vector.
    pub fn mean(&self) -> Result<f64> {
        if self.is_empty() {
            return Err(LinalgError::Empty { op: "mean" });
        }
        Ok(self.data.iter().sum::<f64>() / self.data.len() as f64)
    }

    /// True when all elements are finite (no NaN / ±inf).
    ///
    /// Online updates divide by data-dependent quantities; the model manager
    /// uses this as a guard before publishing an updated user weight vector.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Index and value of the maximum element. Errors on an empty vector.
    pub fn argmax(&self) -> Result<(usize, f64)> {
        if self.is_empty() {
            return Err(LinalgError::Empty { op: "argmax" });
        }
        let mut best = (0usize, self.data[0]);
        for (i, &v) in self.data.iter().enumerate().skip(1) {
            if v > best.1 {
                best = (i, v);
            }
        }
        Ok(best)
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::from_vec(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector::from_vec(v.to_vec())
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

/// Slice dot product — the hot kernel behind `Vector::dot`, every matrix
/// product, MIPS and the model featurizers (every prediction in Velox is
/// at least one `d`-dimensional dot).
///
/// **Accumulation-order contract.** Element `k` of the first `4·⌊n/4⌋`
/// goes into lane `k mod 4` of a four-lane accumulator, the `n mod 4`
/// leftovers into a scalar `tail`, and the result is
/// `(s0 + s1) + (s2 + s3) + tail`. Every kernel in this crate that claims
/// to equal a dot (`dot_slices_x4`, `dot_axpy`, `Matrix::matvec_into`)
/// keeps exactly this order, so their results match `dot_slices` in every
/// bit (`f64::to_bits`) and callers may batch freely without moving a
/// served score.
///
/// Both operands are cut to one length and split into `[f64; 4]` chunks up
/// front, so the loop carries no per-element bounds check and the four
/// lanes live in vector registers; an indexed `a[k] * b[k]` loop keeps a
/// check per element and compiles to scalar code. Callers pass equal
/// lengths (asserted in debug builds).
#[inline]
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a4, a_tail) = a[..n].as_chunks::<4>();
    let (b4, b_tail) = b[..n].as_chunks::<4>();
    let mut s = [0.0f64; 4];
    for (x, y) in a4.iter().zip(b4) {
        mul_add_lanes(&mut s, x, y);
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    sum_lanes(s, tail)
}

/// [`dot_slices`] of two slices that must be one length — a
/// `DimensionMismatch` otherwise, as [`Vector::dot`] reports it.
#[inline]
pub fn dot_checked(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "dot",
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(dot_slices(a, b))
}

/// Four dots against one shared operand in a single sweep:
/// `out[r]` equals `dot_slices(shared, others[r])` bit for bit (same lanes,
/// same tail, same final sum — see the contract on [`dot_slices`]).
///
/// The point is reuse: each chunk of `shared` is loaded once and multiplied
/// into four independent accumulators, so a mat-vec streams `x` once per
/// four rows and a block of bandit candidates streams each row of `A⁻¹`
/// once per four candidates; the eight independent add chains also hide
/// the floating-point add latency that bounds a single dot.
#[inline]
pub(crate) fn dot_slices_x4(shared: &[f64], others: [&[f64]; 4]) -> [f64; 4] {
    let n = shared.len();
    let (x4, x_tail) = shared.as_chunks::<4>();
    let [(a4, a_tail), (b4, b_tail), (c4, c_tail), (d4, d_tail)] = others.map(|o| {
        debug_assert_eq!(o.len(), n);
        o[..n].as_chunks::<4>()
    });
    let mut s = [[0.0f64; 4]; 4];
    for ((((x, a), b), c), d) in x4.iter().zip(a4).zip(b4).zip(c4).zip(d4) {
        mul_add_lanes(&mut s[0], x, a);
        mul_add_lanes(&mut s[1], x, b);
        mul_add_lanes(&mut s[2], x, c);
        mul_add_lanes(&mut s[3], x, d);
    }
    let mut tail = [0.0f64; 4];
    for ((((x, a), b), c), d) in x_tail.iter().zip(a_tail).zip(b_tail).zip(c_tail).zip(d_tail) {
        tail[0] += x * a;
        tail[1] += x * b;
        tail[2] += x * c;
        tail[3] += x * d;
    }
    [
        sum_lanes(s[0], tail[0]),
        sum_lanes(s[1], tail[1]),
        sum_lanes(s[2], tail[2]),
        sum_lanes(s[3], tail[3]),
    ]
}

/// `dot_slices(a, x)` and, in the same sweep, `y[k] += alpha·a[k]` for
/// every `k`: the two uses a symmetric mat-vec over a packed triangle makes
/// of one stored row (its own entry's dot, and its column's share of the
/// entries below it).
///
/// The returned dot is `dot_slices(a, x)` in every bit (same lanes, same
/// tail, same final sum). Each `y[k]` takes one product and one add, so its
/// bits do not depend on the sweep either. Fusing the two loads each chunk
/// of `a` once, and the axpy's work hides the latency of the dot's four add
/// chains. Callers pass equal lengths (asserted in debug builds).
#[inline]
pub(crate) fn dot_axpy(a: &[f64], x: &[f64], alpha: f64, y: &mut [f64]) -> f64 {
    debug_assert!(x.len() == a.len() && y.len() == a.len());
    let n = a.len().min(x.len()).min(y.len());
    let (a4, a_tail) = a[..n].as_chunks::<4>();
    let (x4, x_tail) = x[..n].as_chunks::<4>();
    let (y4, y_tail) = y[..n].as_chunks_mut::<4>();
    let mut s = [0.0f64; 4];
    for ((a, x), y) in a4.iter().zip(x4).zip(y4) {
        mul_add_lanes(&mut s, a, x);
        for lane in 0..4 {
            y[lane] += alpha * a[lane];
        }
    }
    let mut tail = 0.0;
    for ((a, x), y) in a_tail.iter().zip(x_tail).zip(y_tail) {
        tail += a * x;
        *y += alpha * a;
    }
    sum_lanes(s, tail)
}

/// `s[lane] += x[lane] * y[lane]` — one chunk into the four-lane accumulator.
#[inline(always)]
fn mul_add_lanes(s: &mut [f64; 4], x: &[f64; 4], y: &[f64; 4]) {
    for lane in 0..4 {
        s[lane] += x[lane] * y[lane];
    }
}

/// The final sum of the accumulation-order contract.
///
/// Deliberately out of line. Inlined next to the accumulation loop, LLVM's
/// SLP pass pairs `(s0 + s1)` with `(s2 + s3)`, holds the lanes as
/// `[s0, s2] / [s1, s3]` and then needs four shuffles per chunk to feed
/// them from memory order — a d = 200 dot measures 72 ns that way against
/// 38 ns with the lanes kept as they sit in memory, `[s0, s1] / [s2, s3]`.
#[inline(never)]
fn sum_lanes(s: [f64; 4], tail: f64) -> f64 {
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(v.iter().all(|&x| x == 0.0));
        assert!(!v.is_empty());
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn basis_vector() {
        let e2 = Vector::basis(4, 2).unwrap();
        assert_eq!(e2.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(Vector::basis(4, 4).is_err());
    }

    #[test]
    fn dot_product_matches_manual() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        assert!(matches!(a.dot(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn dot_unrolled_matches_naive_on_odd_lengths() {
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot_slices(&a, &b) - naive).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from_vec(vec![1.0, 1.0]);
        let x = Vector::from_vec(vec![2.0, 3.0]);
        a.axpy(0.5, &x).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        let b = Vector::from_vec(vec![0.5, 0.5, 0.5]);
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        for i in 0..3 {
            assert!((back[i] - a[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0, 4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm2_squared(), 25.0);
        assert_eq!(v.norm1(), 7.0);
    }

    #[test]
    fn mean_and_empty() {
        let v = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.mean().unwrap(), 2.0);
        assert!(Vector::zeros(0).mean().is_err());
    }

    #[test]
    fn argmax_finds_peak() {
        let v = Vector::from_vec(vec![1.0, 9.0, 3.0, 9.0]);
        // First maximal element wins.
        assert_eq!(v.argmax().unwrap(), (1, 9.0));
        assert!(Vector::zeros(0).argmax().is_err());
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Vector::from_vec(vec![1.0, 2.0]).is_finite());
        assert!(!Vector::from_vec(vec![1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_vec(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn scale_in_place() {
        let mut v = Vector::from_vec(vec![1.0, -2.0]);
        v.scale(-3.0);
        assert_eq!(v.as_slice(), &[-3.0, 6.0]);
    }

    #[test]
    fn indexing() {
        let mut v = Vector::zeros(3);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        v.set(2, 8.0);
        assert_eq!(v.get(2), 8.0);
    }
}
