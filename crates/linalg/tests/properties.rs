//! Randomized-property tests for the linear-algebra substrate, driven by
//! the in-tree seeded generator (`VeloxRng`) so every case is reproducible
//! from the constants below — no external property-testing framework.
//!
//! These check the algebraic identities the rest of Velox relies on:
//! Cholesky solves actually solve, Sherman–Morrison tracks the naive normal
//! equations, Gram matrices are consistent with explicit products, and the
//! statistics accumulators match closed-form computation.

use velox_data::VeloxRng;
use velox_linalg::ridge::RidgeProblem;
use velox_linalg::stats::RunningStats;
use velox_linalg::{ridge_fit, Cholesky, IncrementalRidge, Matrix, Vector};

const CASES: usize = 128;

fn vec_of(rng: &mut VeloxRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.range(-10.0, 10.0)).collect()
}

/// A random (dimension, design-matrix rows, targets) triple.
fn design(rng: &mut VeloxRng) -> (usize, Vec<Vec<f64>>, Vec<f64>) {
    let d = 2 + rng.below(4) as usize; // 2..6
    let n = 1 + rng.below(11) as usize; // 1..12
    let rows = (0..n).map(|_| vec_of(rng, d)).collect();
    let ys = (0..n).map(|_| rng.range(-5.0, 5.0)).collect();
    (d, rows, ys)
}

/// dot is commutative.
#[test]
fn dot_commutative() {
    let mut rng = VeloxRng::seed_from(0x11_a1);
    for _ in 0..CASES {
        let n = 2 + rng.below(10) as usize;
        let va = Vector::from_vec(vec_of(&mut rng, n));
        let vb = Vector::from_vec(vec_of(&mut rng, n));
        let ab = va.dot(&vb).unwrap();
        let ba = vb.dot(&va).unwrap();
        assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }
}

/// ||a+b|| <= ||a|| + ||b|| (triangle inequality).
#[test]
fn triangle_inequality() {
    let mut rng = VeloxRng::seed_from(0x11_a2);
    for _ in 0..CASES {
        let n = 2 + rng.below(10) as usize;
        let va = Vector::from_vec(vec_of(&mut rng, n));
        let vb = Vector::from_vec(vec_of(&mut rng, n));
        let sum = va.add(&vb).unwrap();
        assert!(sum.norm2() <= va.norm2() + vb.norm2() + 1e-9);
    }
}

/// (Aᵀ)ᵀ = A and gram(A) = AᵀA for random matrices.
#[test]
fn transpose_and_gram() {
    let mut rng = VeloxRng::seed_from(0x11_a3);
    for _ in 0..CASES {
        let rows = 1 + rng.below(5) as usize;
        let cols = 1 + rng.below(5) as usize;
        let data = vec_of(&mut rng, rows * cols);
        let a = Matrix::from_row_major(rows, cols, data).unwrap();
        assert_eq!(a.transpose().transpose(), a.clone());
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&explicit).unwrap() < 1e-9);
        assert!(g.is_symmetric(1e-12));
    }
}

/// Cholesky of G + λI solves the system it factored.
#[test]
fn cholesky_solves() {
    let mut rng = VeloxRng::seed_from(0x11_a4);
    for _ in 0..CASES {
        let (d, rows, _ys) = design(&mut rng);
        let lambda = rng.range(0.1, 5.0);
        let vrows: Vec<Vector> = rows.into_iter().map(Vector::from_vec).collect();
        let x = Matrix::from_rows(&vrows).unwrap();
        let mut a = x.gram();
        a.add_scaled_identity(lambda).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let b = Vector::from_vec((0..d).map(|i| (i as f64) - 1.0).collect());
        let sol = ch.solve(&b).unwrap();
        let residual = a.matvec(&sol).unwrap().sub(&b).unwrap().norm2();
        assert!(residual < 1e-6, "residual {residual}");
    }
}

/// The incremental (Sherman–Morrison) solution matches the naive batch
/// normal-equations solution after any observation stream.
#[test]
fn sherman_morrison_matches_batch() {
    let mut rng = VeloxRng::seed_from(0x11_a5);
    for _ in 0..CASES {
        let (d, rows, ys) = design(&mut rng);
        let lambda = rng.range(0.1, 5.0);
        let mut inc = IncrementalRidge::new(d, lambda);
        let mut naive = RidgeProblem::new(d, lambda);
        for (r, &y) in rows.iter().zip(&ys) {
            let x = Vector::from_vec(r.clone());
            inc.observe(&x, y).unwrap();
            naive.observe(&x, y).unwrap();
        }
        let w_batch = naive.solve().unwrap();
        let diff = inc.weights().sub(&w_batch).unwrap().norm2();
        assert!(diff < 1e-6, "diff {diff}");
    }
}

/// A model built from a prior answers exactly the prior before any
/// observation, tracks the naive solve over the same prior moments
/// (`b = λ·prior`) afterwards, and lets the prior wash out under evidence.
#[test]
fn from_prior_is_exact_then_tracks_the_naive_prior_solve() {
    let mut rng = VeloxRng::seed_from(0x11_a8);
    for _ in 0..CASES {
        let (d, rows, ys) = design(&mut rng);
        let lambda = rng.range(0.1, 5.0);
        let prior = Vector::from_vec(vec_of(&mut rng, d));
        let mut inc = IncrementalRidge::from_prior(&prior, lambda);
        assert!(inc.weights().sub(&prior).unwrap().norm2() < 1e-12, "prior not exact");
        assert_eq!(inc.n_obs(), 0);
        let mut b = prior.clone();
        b.scale(lambda);
        let mut naive = RidgeProblem::with_prior_moments(d, lambda, b);
        assert!(naive.solve().unwrap().sub(&prior).unwrap().norm2() < 1e-9);
        for (r, &y) in rows.iter().zip(&ys) {
            let x = Vector::from_vec(r.clone());
            inc.observe(&x, y).unwrap();
            naive.observe(&x, y).unwrap();
        }
        let diff = inc.weights().sub(&naive.solve().unwrap()).unwrap().norm2();
        assert!(diff < 1e-6, "diff {diff}");
    }
    // The prior said 10, the data say 1: the evidence wins.
    let mut inc = IncrementalRidge::from_prior(&Vector::from_vec(vec![10.0]), 1.0);
    for _ in 0..200 {
        inc.observe(&Vector::from_vec(vec![1.0]), 1.0).unwrap();
    }
    assert!((inc.weights()[0] - 1.0).abs() < 0.1, "prior did not wash out");
}

/// The bandit's variance proxy `xᵀA⁻¹x` read off the maintained inverse
/// equals the one a fresh factorization of `λI + XᵀX` gives.
#[test]
fn sherman_morrison_variance_matches_a_fresh_factorization() {
    let mut rng = VeloxRng::seed_from(0x11_a9);
    for _ in 0..CASES {
        let (d, rows, ys) = design(&mut rng);
        let lambda = rng.range(0.1, 5.0);
        let probe = Vector::from_vec(vec_of(&mut rng, d));
        let mut inc = IncrementalRidge::new(d, lambda);
        let mut naive = RidgeProblem::new(d, lambda);
        for (r, &y) in rows.iter().zip(&ys) {
            let x = Vector::from_vec(r.clone());
            inc.observe(&x, y).unwrap();
            naive.observe(&x, y).unwrap();
            let mut a = naive.gram().clone();
            a.add_scaled_identity(lambda).unwrap();
            let fresh = probe.dot(&Cholesky::factor(&a).unwrap().solve(&probe).unwrap()).unwrap();
            let maintained = inc.variance(&probe).unwrap();
            assert!(
                (fresh - maintained).abs() <= 1e-6 * fresh.abs().max(1.0),
                "{fresh} vs {maintained}"
            );
        }
    }
}

/// ridge_fit residual is optimal: perturbing the solution never reduces
/// the regularized loss.
#[test]
fn ridge_is_a_minimum() {
    let mut rng = VeloxRng::seed_from(0x11_a6);
    for _ in 0..CASES {
        let (d, rows, ys) = design(&mut rng);
        let lambda = rng.range(0.1, 5.0);
        let vrows: Vec<Vector> = rows.into_iter().map(Vector::from_vec).collect();
        let x = Matrix::from_rows(&vrows).unwrap();
        let y = Vector::from_vec(ys);
        let w = ridge_fit(&x, &y, lambda).unwrap();
        let loss = |w: &Vector| -> f64 {
            let r = x.matvec(w).unwrap().sub(&y).unwrap();
            r.norm2_squared() + lambda * w.norm2_squared()
        };
        let base = loss(&w);
        for i in 0..d {
            for delta in [-1e-3, 1e-3] {
                let mut wp = w.clone();
                wp[i] += delta;
                assert!(loss(&wp) >= base - 1e-9);
            }
        }
    }
}

/// Variance of any direction shrinks (weakly) as observations arrive.
#[test]
fn posterior_variance_monotone() {
    let mut rng = VeloxRng::seed_from(0x11_a7);
    for _ in 0..CASES {
        let (d, rows, ys) = design(&mut rng);
        let probe = Vector::from_vec(vec_of(&mut rng, d));
        let mut inc = IncrementalRidge::new(d, 1.0);
        let mut last = inc.variance(&probe).unwrap();
        for (r, &y) in rows.iter().zip(&ys) {
            inc.observe(&Vector::from_vec(r.clone()), y).unwrap();
            let v = inc.variance(&probe).unwrap();
            assert!(v <= last + 1e-9, "variance grew: {last} -> {v}");
            assert!(v >= -1e-12);
            last = v;
        }
    }
}

/// RunningStats merge is order-independent (associativity of merge).
#[test]
fn stats_merge_associative() {
    let mut rng = VeloxRng::seed_from(0x11_a8);
    for _ in 0..CASES {
        let n = 3 + rng.below(37) as usize;
        let data: Vec<f64> = (0..n).map(|_| rng.range(-100.0, 100.0)).collect();
        let split = 1 + rng.below((n - 1) as u64) as usize;
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..split] {
            a.push(x);
        }
        for &x in &data[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-7);
    }
}
