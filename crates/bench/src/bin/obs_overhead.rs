//! Measures the cost of the observability layer itself: the raw price of
//! each instrumentation primitive, and the end-to-end latency of the
//! fully-cached topK hot path (the most metrics-sensitive route in the
//! system — a SpanTimer plus two counter adds per call). Run with:
//!
//! ```text
//! cargo run --release -p velox-bench --bin obs_overhead
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use velox_batch::AlsConfig;
use velox_bench::{fmt_us, measure, print_header, print_row, FixtureRng};
use velox_core::{Item, Velox, VeloxConfig};
use velox_models::MatrixFactorizationModel;
use velox_obs::{Counter, Histogram, SpanTimer};

/// Times `iters` repetitions of `f` and returns ns per op.
fn ns_per_op<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn primitives() {
    print_header("instrumentation primitives", &["primitive", "ns/op"]);
    let counter = Counter::new();
    print_row(&["Counter::inc".into(), format!("{:.1}", ns_per_op(5_000_000, || counter.inc()))]);
    print_row(&[
        "Counter::add(17)".into(),
        format!("{:.1}", ns_per_op(5_000_000, || counter.add(17))),
    ]);
    let hist = Histogram::new();
    let mut x = 1u64;
    print_row(&[
        "Histogram::record".into(),
        format!(
            "{:.1}",
            ns_per_op(5_000_000, || {
                hist.record(x);
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493) >> 32;
            })
        ),
    ]);
    let hist = Arc::new(Histogram::new());
    print_row(&[
        "SpanTimer new+drop".into(),
        format!(
            "{:.1}",
            ns_per_op(2_000_000, || {
                let _span = SpanTimer::new(&hist);
            })
        ),
    ]);
    std::hint::black_box(counter.get());
}

fn cached_topk() {
    let d = 10_000usize;
    let mut rng = FixtureRng::new(7 + d as u64);
    let mut table = HashMap::new();
    for item in 0..2048u64 {
        table.insert(item, rng.vector(d));
    }
    let model = MatrixFactorizationModel::from_table(
        "bench",
        table,
        0.0,
        AlsConfig { rank: d, ..Default::default() },
    )
    .unwrap();
    let mut weights = HashMap::new();
    weights.insert(0u64, rng.vector(d));
    let mut config = VeloxConfig::single_node();
    config.prediction_cache_capacity = 64 * 1024;
    let velox = Velox::deploy(Arc::new(model), weights, config);

    print_header(
        "fully-cached topK (d = 10000, high trial count)",
        &["itemset size", "mean", "p50", "p99"],
    );
    for &n in &[10usize, 100, 1000] {
        let items: Vec<Item> = (0..n as u64).map(Item::Id).collect();
        velox.top_k(0, &items).unwrap(); // warm the cache
        let trials = (2_000_000 / n).clamp(500, 50_000);
        let s = measure(50, trials, || {
            std::hint::black_box(velox.top_k(0, &items).unwrap());
        });
        print_row(&[n.to_string(), fmt_us(s.mean), fmt_us(s.p50), fmt_us(s.p99)]);
    }
}

fn main() {
    println!("# obs_overhead: cost of the metrics layer");
    primitives();
    cached_topk();
}
