//! Bit-identity of the dense kernels against scalar references.
//!
//! The vectorised `dot_slices`, the row-blocked `matvec_into` and the
//! four-row Gram / `Xᵀy` fold (with `ridge_fit` on top) promise the *same
//! bits* (`f64::to_bits`) as the old one-element-at-a-time code they
//! replaced. `IncrementalRidge` keeps its `A⁻¹` as a packed upper triangle;
//! its mat-vec, fused Sherman–Morrison update and blocked bandit variance
//! promise the bits of the scalar loops written here in the accumulation
//! order stated on the kernels. Served scores, bandit choices and the
//! benchmark's verification checksum all hang off those bits. The old
//! dense update formula lives on here, and only here, as a tolerance
//! reference: the packed order moves bits, and the suite shows by how
//! little.
//!
//! The root package's `tests/kernel_bits.rs` mounts this file as a module, so tier-1
//! `cargo test -q` runs the suite too.

// The references are the old indexed loops, kept as they were.
#![allow(clippy::needless_range_loop)]

use velox_data::VeloxRng;
use velox_linalg::vector::dot_slices;
use velox_linalg::{ridge_fit, ridge_fit_gather, Cholesky, IncrementalRidge, Matrix, Vector};

/// Model dimensions: multiples of four, `d mod 4 ∈ {2, 3}`, and the two
/// benchmark dimensions.
const DIMS: [usize; 5] = [16, 20, 50, 200, 203];

/// The pre-vectorisation `dot_slices`, verbatim: four scalar accumulators,
/// indexed loads, `(s0 + s1) + (s2 + s3) + tail`.
fn ref_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..chunks {
        let k = i * 4;
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    let mut tail = 0.0;
    for k in (chunks * 4)..n {
        tail += a[k] * b[k];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `A x`, one reference dot per row.
fn ref_matvec(a: &[f64], cols: usize, x: &[f64]) -> Vec<f64> {
    if cols == 0 {
        return Vec::new();
    }
    a.chunks_exact(cols).map(|row| ref_dot(row, x)).collect()
}

/// The dense three-pass Sherman–Morrison update the packed triangle
/// replaced: `u = A⁻¹x`; `A⁻¹ += (−1/denom)·u uᵀ` over all `d²` entries;
/// `b += y·x`; `w = A⁻¹b`. A tolerance reference only.
struct RefRidge {
    d: usize,
    a_inv: Vec<f64>,
    b: Vec<f64>,
    w: Vec<f64>,
}

impl RefRidge {
    fn new(d: usize, lambda: f64) -> Self {
        let mut a_inv = vec![0.0; d * d];
        for i in 0..d {
            a_inv[i * d + i] = 1.0;
        }
        for v in &mut a_inv {
            *v *= 1.0 / lambda;
        }
        RefRidge { d, a_inv, b: vec![0.0; d], w: vec![0.0; d] }
    }

    fn observe(&mut self, x: &[f64], y: f64) {
        let d = self.d;
        let u = ref_matvec(&self.a_inv, d, x);
        let denom = 1.0 + ref_dot(x, &u);
        assert!(denom > 0.0 && denom.is_finite());
        let alpha = -1.0 / denom;
        for i in 0..d {
            let ui = alpha * u[i];
            if ui == 0.0 {
                continue;
            }
            for j in 0..d {
                self.a_inv[i * d + j] += ui * u[j];
            }
        }
        for j in 0..d {
            self.b[j] += y * x[j];
        }
        self.w = ref_matvec(&self.a_inv, d, &self.b);
    }

    fn variance(&self, x: &[f64]) -> f64 {
        ref_dot(x, &ref_matvec(&self.a_inv, self.d, x))
    }
}

/// The packed model written as plain indexed loops, in the accumulation
/// order the kernels state: the bit reference for `IncrementalRidge`.
struct RefPacked {
    d: usize,
    /// Upper triangle, row `i` = `A⁻¹[i][i..d]` at offset [`Self::at`]`(i, i)`.
    a_inv: Vec<f64>,
    b: Vec<f64>,
    w: Vec<f64>,
    /// `A⁻¹x` of the last observation, before the update.
    u: Vec<f64>,
}

impl RefPacked {
    fn new(d: usize, lambda: f64) -> Self {
        let mut model = RefPacked {
            d,
            a_inv: vec![0.0; d * (d + 1) / 2],
            b: vec![0.0; d],
            w: vec![0.0; d],
            u: vec![],
        };
        for i in 0..d {
            let at = model.at(i, i);
            model.a_inv[at] = 1.0 / lambda;
        }
        model
    }

    /// Offset of `A⁻¹[i][j]`, `j ≥ i`: rows `0..i` hold `d − k` floats each.
    fn at(&self, i: usize, j: usize) -> usize {
        i * (2 * self.d + 1 - i) / 2 + (j - i)
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.a_inv[self.at(i, i)..self.at(i, i) + self.d - i]
    }

    /// `A x`: `out[j]` folds `x[i]·A[i][j]` over the rows above it (zero
    /// `x[i]` skipped), then adds row `j`'s dot with `x[j..]`.
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let d = self.d;
        let mut out = vec![0.0; d];
        for i in 0..d {
            out[i] += ref_dot(self.row(i), &x[i..]);
            if x[i] == 0.0 {
                continue;
            }
            for j in (i + 1)..d {
                out[j] += x[i] * self.a_inv[self.at(i, j)];
            }
        }
        out
    }

    fn observe(&mut self, x: &[f64], y: f64) {
        let d = self.d;
        let u = self.spmv(x);
        let denom = 1.0 + ref_dot(x, &u);
        assert!(denom > 0.0 && denom.is_finite());
        let alpha = -1.0 / denom;
        for i in 0..d {
            let ui = alpha * u[i];
            if ui == 0.0 {
                continue;
            }
            for j in i..d {
                let at = self.at(i, j);
                self.a_inv[at] += ui * u[j];
            }
        }
        for j in 0..d {
            self.b[j] += y * x[j];
        }
        self.w = self.spmv(&self.b);
        self.u = u;
    }

    /// `Σᵢ xᵢ·(A[i][i]·xᵢ + 2·(A[i][i+1..]·x[i+1..]))`, folded in `i` order.
    fn variance(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.d {
            let row = self.row(i);
            acc += x[i] * (row[0] * x[i] + 2.0 * ref_dot(&row[1..], &x[i + 1..]));
        }
        acc
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Values with mixed signs and magnitudes, plus the occasional exact and
/// negative zero (the sign of a zero is a bit too).
fn values(rng: &mut VeloxRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.range(-1e-3, 1e-3),
            _ => rng.range(-4.0, 4.0),
        })
        .collect()
}

/// A reference model and the real one fed the same `n` observations.
fn trained_pair(d: usize, n: usize, seed: u64) -> (RefPacked, IncrementalRidge, VeloxRng) {
    let mut rng = VeloxRng::seed_from(seed);
    let (mut reference, mut ridge) = (RefPacked::new(d, 0.5), IncrementalRidge::new(d, 0.5));
    for _ in 0..n {
        let x = values(&mut rng, d);
        let y = rng.range(-2.0, 2.0);
        reference.observe(&x, y);
        ridge.observe(&Vector::from_vec(x), y).unwrap();
    }
    (reference, ridge, rng)
}

#[test]
fn dot_slices_keeps_the_scalar_kernels_bits() {
    let mut rng = VeloxRng::seed_from(0xD07_0001);
    for len in 0..=67 {
        for _ in 0..8 {
            let (a, b) = (values(&mut rng, len), values(&mut rng, len));
            assert_eq!(dot_slices(&a, &b).to_bits(), ref_dot(&a, &b).to_bits(), "len {len}");
            let (va, vb) = (Vector::from_vec(a.clone()), Vector::from_vec(b));
            assert_eq!(va.dot(&vb).unwrap().to_bits(), dot_slices(&a, vb.as_slice()).to_bits());
        }
    }
}

#[test]
fn matvec_and_matvec_into_keep_the_scalar_kernels_bits() {
    let mut rng = VeloxRng::seed_from(0xD07_0002);
    // Square at the model dimensions, then every row-block remainder
    // against every column remainder.
    let square = DIMS.iter().map(|&d| (d, d));
    let ragged = (0..=9).flat_map(|rows| (0..=9).map(move |cols| (rows, cols)));
    let mut out = vec![f64::NAN; 7]; // stale contents must not leak through
    for (rows, cols) in square.chain(ragged) {
        let a = values(&mut rng, rows * cols);
        let x = values(&mut rng, cols);
        let want = if cols == 0 { vec![0.0; rows] } else { ref_matvec(&a, cols, &x) };
        let m = Matrix::from_row_major(rows, cols, a).unwrap();
        let x = Vector::from_vec(x);
        assert_eq!(bits(m.matvec(&x).unwrap().as_slice()), bits(&want), "{rows}x{cols}");
        m.matvec_into(&x, &mut out).unwrap();
        assert_eq!(bits(&out), bits(&want), "{rows}x{cols} into");
    }
    let m = Matrix::zeros(3, 4);
    assert!(m.matvec_into(&Vector::zeros(3), &mut out).is_err());
}

/// The one-row-at-a-time `Matrix::gram` that the four-row fold replaced:
/// upper triangle, zero left factors skipped, then mirrored.
fn ref_gram(a: &[f64], rows: usize, d: usize) -> Vec<f64> {
    let mut g = vec![0.0; d * d];
    for r in 0..rows {
        let row = &a[r * d..(r + 1) * d];
        for i in 0..d {
            let ri = row[i];
            if ri == 0.0 {
                continue;
            }
            for j in i..d {
                g[i * d + j] += ri * row[j];
            }
        }
    }
    for i in 0..d {
        for j in (i + 1)..d {
            g[j * d + i] = g[i * d + j];
        }
    }
    g
}

/// The old `Matrix::matvec_transpose`: `Aᵀy` as one axpy per row, zero
/// coefficients skipped.
fn ref_matvec_transpose(a: &[f64], rows: usize, d: usize, y: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; d];
    for r in 0..rows {
        if y[r] == 0.0 {
            continue;
        }
        for j in 0..d {
            out[j] += y[r] * a[r * d + j];
        }
    }
    out
}

/// [`values`] with one element in eight replaced by ±∞ — enough for
/// `0·∞` to appear wherever a skipped term would have formed it. (No NaN
/// inputs: two NaNs with different payloads meeting in one add may return
/// either, by operand order, in any kernel.)
fn values_with_infinities(rng: &mut VeloxRng, len: usize) -> Vec<f64> {
    let mut v = values(rng, len);
    for x in v.iter_mut() {
        match rng.below(16) {
            0 => *x = f64::INFINITY,
            1 => *x = f64::NEG_INFINITY,
            _ => {}
        }
    }
    v
}

#[test]
fn gram_and_gram_xty_keep_the_one_row_loops_bits() {
    let mut rng = VeloxRng::seed_from(0xD07_0400);
    for d in [1usize, 4, 5, 20, 203] {
        for rows in 0..=9 {
            for finite in [true, false] {
                let a = if finite {
                    values(&mut rng, rows * d)
                } else {
                    values_with_infinities(&mut rng, rows * d)
                };
                let y = values(&mut rng, rows);
                let m = Matrix::from_row_major(rows, d, a.clone()).unwrap();
                let at = format!("{rows}x{d}, finite {finite}");
                let want = ref_gram(&a, rows, d);
                assert_eq!(bits(m.gram().as_slice()), bits(&want), "gram {at}");
                let (g, b) = m.gram_xty(&Vector::from_vec(y.clone())).unwrap();
                assert_eq!(bits(g.as_slice()), bits(&want), "gram_xty gram {at}");
                let want_b = ref_matvec_transpose(&a, rows, d, &y);
                assert_eq!(bits(b.as_slice()), bits(&want_b), "gram_xty xty {at}");
            }
        }
    }
}

#[test]
fn ridge_fit_and_its_gathered_form_keep_the_old_bits() {
    let mut rng = VeloxRng::seed_from(0xD07_0500);
    for d in [1usize, 4, 5, 20, 21] {
        let table_rows = 12;
        let table = values(&mut rng, table_rows * d);
        for n in 1..=9 {
            let ids: Vec<u32> = (0..n).map(|_| rng.below(table_rows as u64) as u32).collect();
            let y = values(&mut rng, n);
            let stacked: Vec<f64> = ids
                .iter()
                .flat_map(|&id| table[id as usize * d..(id as usize + 1) * d].iter().copied())
                .collect();
            let mut gram = Matrix::from_row_major(d, d, ref_gram(&stacked, n, d)).unwrap();
            gram.add_scaled_identity(0.25 * n as f64).unwrap();
            let xty = Vector::from_vec(ref_matvec_transpose(&stacked, n, d, &y));
            let want = Cholesky::factor(&gram).unwrap().solve(&xty).unwrap();
            let x = Matrix::from_row_major(n, d, stacked).unwrap();
            let fit = ridge_fit(&x, &Vector::from_vec(y.clone()), 0.25 * n as f64).unwrap();
            assert_eq!(bits(fit.as_slice()), bits(want.as_slice()), "ridge_fit d {d} n {n}");
            let gathered = ridge_fit_gather(&table, d, &ids, &y, 0.25 * n as f64).unwrap();
            assert_eq!(bits(gathered.as_slice()), bits(want.as_slice()), "gather d {d} n {n}");
        }
    }
    assert!(ridge_fit_gather(&[], 3, &[], &[], 1.0).is_err());
    assert!(ridge_fit_gather(&[0.0; 3], 3, &[0], &[], 1.0).is_err());
}

#[test]
fn variance_many_matches_variance_and_the_scalar_packed_order() {
    for (i, &d) in DIMS.iter().enumerate() {
        let (reference, ridge, mut rng) = trained_pair(d, 24, 0xD07_0100 + i as u64);
        // Block remainders 0–3, with and without a full block in front.
        for k in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 13] {
            let xs = Matrix::from_row_major(k, d, values(&mut rng, k * d)).unwrap();
            let many = ridge.variance_many(&xs).unwrap();
            assert_eq!(many.len(), k);
            for (c, v) in many.iter().enumerate() {
                let one = ridge.variance(&xs.row_vector(c)).unwrap();
                assert_eq!(v.to_bits(), one.to_bits(), "d {d} k {k}");
                assert_eq!(v.to_bits(), reference.variance(xs.row(c)).to_bits(), "d {d} k {k}");
            }
        }
        assert!(ridge.variance_many(&Matrix::zeros(2, d + 1)).is_err());
    }
    // A zero-dimensional model has zero variance everywhere, block or not.
    let empty = IncrementalRidge::new(0, 1.0);
    assert_eq!(empty.variance_many(&Matrix::zeros(5, 0)).unwrap(), vec![0.0; 5]);
}

#[test]
fn packed_update_trajectory_equals_the_scalar_packed_order() {
    for (i, &d) in DIMS.iter().enumerate() {
        // 500 updates where that is cheap; the d ≈ 200 models take the
        // same code path through fewer of them.
        let updates = if d <= 50 { 500 } else { 40 };
        let mut rng = VeloxRng::seed_from(0xD07_0200 + i as u64);
        let (mut reference, mut ridge) = (RefPacked::new(d, 0.5), IncrementalRidge::new(d, 0.5));
        let unseen = d / 2;
        for step in 0..updates {
            let mut x = values(&mut rng, d);
            if step % 7 == 0 {
                // One feature at zero: its axpy into `u` is skipped.
                x[step % d] = 0.0;
            }
            // A feature the model never sees move, as +0 and −0: its `u`
            // entry stays zero, so its row's update multiplier is zero and
            // the row is skipped, not added as ±0.
            x[unseen] = if step % 2 == 0 { 0.0 } else { -0.0 };
            let y = rng.range(-2.0, 2.0);
            let check_u = d <= 50 || step % 8 == 0;
            // `u = A⁻¹x` is the sweep `refresh_weights` runs over `b`.
            let u = check_u.then(|| {
                let mut probe = ridge.clone();
                probe.reset_moments(Vector::from_vec(x.clone())).unwrap();
                probe.weights().clone()
            });
            reference.observe(&x, y);
            ridge.observe(&Vector::from_vec(x), y).unwrap();
            if let Some(u) = u {
                assert_eq!(bits(u.as_slice()), bits(&reference.u), "u, d {d} step {step}");
            }
            assert_eq!(
                bits(ridge.weights().as_slice()),
                bits(&reference.w),
                "w, d {d} step {step}"
            );
            assert_eq!(
                bits(ridge.moments().as_slice()),
                bits(&reference.b),
                "b, d {d} step {step}"
            );
            if step % 25 == 0 || step + 1 == updates {
                assert_eq!(
                    bits(ridge.packed_a_inv()),
                    bits(&reference.a_inv),
                    "A⁻¹, d {d} step {step}"
                );
            }
        }
        // The unseen feature's row and column still read `e/λ` exactly.
        let dense = ridge.a_inv();
        for j in 0..d {
            let want = if j == unseen { 2.0 } else { 0.0 };
            assert_eq!(dense.get(unseen, j).to_bits(), f64::to_bits(want), "d {d} col {j}");
        }
        assert_eq!(ridge.n_obs(), updates);
    }
}

/// Relative distance `max|a − b| / max|b|` between two vectors.
fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs())) / scale
}

/// The packed order moves bits, not answers: after 2 000 observations per
/// dimension the packed model's weights and variances sit within
/// `1e-10` relative of the dense three-pass formula's. (Measured: at most
/// 2.0e-12 on the weights and 1.0e-13 on the variances, at d = 203.)
#[test]
fn packed_order_is_rounding_away_from_the_dense_formula() {
    const BOUND: f64 = 1e-10;
    for (i, &d) in DIMS.iter().enumerate() {
        let mut rng = VeloxRng::seed_from(0xD07_0600 + i as u64);
        let (mut dense, mut ridge) = (RefRidge::new(d, 0.5), IncrementalRidge::new(d, 0.5));
        for _ in 0..2_000 {
            let x = values(&mut rng, d);
            let y = rng.range(-2.0, 2.0);
            dense.observe(&x, y);
            ridge.observe(&Vector::from_vec(x), y).unwrap();
        }
        let w = rel_diff(ridge.weights().as_slice(), &dense.w);
        assert!(w <= BOUND, "w, d {d}: relative {w:e}");
        let probes = Matrix::from_row_major(6, d, values(&mut rng, 6 * d)).unwrap();
        let many = ridge.variance_many(&probes).unwrap();
        let want: Vec<f64> = (0..6).map(|c| dense.variance(probes.row(c))).collect();
        let v = rel_diff(&many, &want);
        assert!(v <= BOUND, "variance, d {d}: relative {v:e}");
    }
}

#[test]
fn a_rejected_update_leaves_the_model_untouched() {
    let (_, mut ridge, _) = trained_pair(20, 10, 0xD07_0300);
    let before = ridge.clone();
    assert!(ridge.observe(&Vector::zeros(19), 1.0).is_err());
    // 1 + xᵀA⁻¹x overflows: the guard fires before any state is written.
    assert!(ridge.observe(&Vector::filled(20, 1e200), 1.0).is_err());
    assert_eq!(bits(ridge.packed_a_inv()), bits(before.packed_a_inv()));
    assert_eq!(bits(ridge.moments().as_slice()), bits(before.moments().as_slice()));
    assert_eq!(bits(ridge.weights().as_slice()), bits(before.weights().as_slice()));
    assert_eq!(ridge.n_obs(), before.n_obs());
}
