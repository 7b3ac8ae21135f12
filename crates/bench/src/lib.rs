//! # velox-bench
//!
//! The experiment harness: shared fixtures and reporting utilities used by
//! the figure/table regeneration binaries (`src/bin/*`), including the
//! `microbench` binary that replaced the former Criterion suites.
//!
//! Every binary regenerates one artifact from the paper's evaluation (see
//! DESIGN.md's experiment index) and prints a self-describing table:
//! markdown rows with the same series the paper plots, so EXPERIMENTS.md
//! can record paper-vs-measured side by side.

#![warn(missing_docs)]

pub mod gate;
pub mod membership;

use std::time::Instant;

use velox_linalg::ridge::RidgeProblem;
use velox_linalg::stats::LatencySummary;
use velox_linalg::{IncrementalRidge, Vector};

/// One user's online model as FIG3 and ABL-SM time its update (λ = 1).
pub enum OnlineUpdate {
    /// The paper's prototype: accumulate `(XᵀX, Xᵀy)` and Cholesky-solve
    /// from scratch on every observation, O(d³) — Figure 3's curve.
    Naive(RidgeProblem),
    /// The Sherman–Morrison update every deployment runs, O(d²).
    ShermanMorrison(IncrementalRidge),
}

impl OnlineUpdate {
    /// A cold naive model of dimension `d`.
    pub fn naive(d: usize) -> Self {
        OnlineUpdate::Naive(RidgeProblem::new(d, 1.0))
    }

    /// A cold Sherman–Morrison model of dimension `d`.
    pub fn sherman_morrison(d: usize) -> Self {
        OnlineUpdate::ShermanMorrison(IncrementalRidge::new(d, 1.0))
    }

    /// Folds in `(x, y)` and refreshes the weights: the operation timed.
    pub fn observe(&mut self, x: &Vector, y: f64) {
        match self {
            OnlineUpdate::Naive(problem) => {
                problem.observe(x, y).expect("update succeeds");
                std::hint::black_box(problem.solve().expect("solve succeeds"));
            }
            OnlineUpdate::ShermanMorrison(ridge) => ridge.observe(x, y).expect("update succeeds"),
        }
    }
}

/// Deterministic pseudo-random vector generator for serving-scale fixtures
/// (building d=10000 factor tables through ALS would be absurd; the paper's
/// Figure 4 measures serving cost, which depends only on dimensions).
pub struct FixtureRng {
    state: u64,
}

impl FixtureRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        FixtureRng { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    /// Next uniform in (-1, 1).
    pub fn next_f64(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// A random vector of dimension `d`, scaled by `1/√d` so dot products
    /// stay O(1) regardless of dimension.
    pub fn vector(&mut self, d: usize) -> Vector {
        let scale = 1.0 / (d as f64).sqrt();
        Vector::from_vec((0..d).map(|_| self.next_f64() * scale).collect())
    }

    /// A raw `Vec<f64>` of dimension `d` (for factor tables).
    pub fn raw(&mut self, d: usize) -> Vec<f64> {
        let scale = 1.0 / (d as f64).sqrt();
        (0..d).map(|_| self.next_f64() * scale).collect()
    }
}

/// Times a closure once, in microseconds.
pub fn time_us<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Runs `trials` timed iterations of `f` (after `warmup` untimed ones) and
/// summarizes the latency distribution in microseconds.
pub fn measure<F: FnMut()>(warmup: usize, trials: usize, mut f: F) -> LatencySummary {
    for _ in 0..warmup {
        f();
    }
    let samples: Vec<f64> = (0..trials).map(|_| time_us(&mut f)).collect();
    LatencySummary::from_samples(&samples).expect("trials > 0")
}

/// Prints a markdown table header.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n## {title}\n");
    println!("| {} |", columns.join(" | "));
    println!("|{}|", columns.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Prints one markdown row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats microseconds adaptively (µs / ms / s).
pub fn fmt_us(us: f64) -> String {
    if us < 1_000.0 {
        format!("{us:.1} µs")
    } else if us < 1_000_000.0 {
        format!("{:.2} ms", us / 1_000.0)
    } else {
        format!("{:.3} s", us / 1_000_000.0)
    }
}

/// Adaptive trial count for an O(d^k)-ish operation: keeps total bench time
/// bounded while retaining enough samples for a CI at small sizes.
pub fn adaptive_trials(cost_proxy: f64, budget: f64, min: usize, max: usize) -> usize {
    ((budget / cost_proxy.max(1.0)) as usize).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_rng_is_deterministic_and_scaled() {
        let mut a = FixtureRng::new(1);
        let mut b = FixtureRng::new(1);
        assert_eq!(a.vector(16), b.vector(16));
        let v = a.vector(10_000);
        // 1/√d scaling keeps the norm O(1).
        assert!(v.norm2() < 2.0, "norm {}", v.norm2());
    }

    #[test]
    fn measure_returns_sane_summary() {
        let s = measure(2, 20, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(s.n, 20);
        assert!(s.mean >= 0.0);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn adaptive_trials_clamps() {
        assert_eq!(adaptive_trials(1.0, 1000.0, 5, 100), 100);
        assert_eq!(adaptive_trials(1e9, 1000.0, 5, 100), 5);
    }

    #[test]
    fn fmt_us_units() {
        assert!(fmt_us(12.3).contains("µs"));
        assert!(fmt_us(12_300.0).contains("ms"));
        assert!(fmt_us(12_300_000.0).contains(" s"));
    }
}
