//! Micro-benchmarks for the serving hot paths, ported from the former
//! Criterion suites (prediction_latency, sherman_morrison,
//! storage_primitives, update_latency) onto the in-tree harness so the
//! build stays hermetic. Run with:
//!
//! ```text
//! cargo run --release -p velox-bench --bin microbench
//! ```
//!
//! Each section prints a markdown table of mean / p50 / p99 latencies.

use std::collections::HashMap;
use std::sync::Arc;

use velox_batch::AlsConfig;
use velox_bench::{fmt_us, measure, print_header, print_row, FixtureRng};
use velox_core::{Item, Velox, VeloxConfig};
use velox_linalg::{IncrementalRidge, Matrix, RidgeProblem, Vector};
use velox_models::MatrixFactorizationModel;
use velox_online::{UpdateStrategy, UserOnlineModel};
use velox_storage::codec::{decode_vector_table, encode_vector_table};
use velox_storage::{LruCache, Namespace, ObservationLog};

const ROW_COLUMNS: &[&str] = &["benchmark", "mean", "p50", "p99"];

fn row(name: &str, summary: &velox_linalg::stats::LatencySummary) -> Vec<String> {
    vec![name.to_string(), fmt_us(summary.mean), fmt_us(summary.p50), fmt_us(summary.p99)]
}

/// FIG4-shaped: topK serving latency, cached vs uncached, for
/// representative dimensions and itemset sizes.
fn deploy(d: usize, cache_capacity: usize) -> Velox {
    let mut rng = FixtureRng::new(7 + d as u64);
    let mut table = HashMap::new();
    for item in 0..512u64 {
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
    config.prediction_cache_capacity = cache_capacity;
    Velox::deploy(Arc::new(model), weights, config)
}

fn bench_prediction_latency() {
    print_header("topk serving latency (former prediction_latency bench)", ROW_COLUMNS);
    for &d in &[2000usize, 5000] {
        let uncached = deploy(d, 1);
        let cached = deploy(d, 64 * 1024);
        for &n in &[100usize, 400] {
            let items: Vec<Item> = (0..n as u64).map(Item::Id).collect();
            let s = measure(3, 20, || {
                uncached.top_k(0, &items).unwrap();
            });
            print_row(&row(&format!("topk/uncached_d{d}/{n}"), &s));
            cached.top_k(0, &items).unwrap(); // warm
            let s = measure(3, 20, || {
                cached.top_k(0, &items).unwrap();
            });
            print_row(&row(&format!("topk/cached_d{d}/{n}"), &s));
        }
    }
}

/// ABL-SM-shaped: the raw linear-algebra kernels — a Sherman–Morrison
/// rank-one update vs. a fresh Cholesky solve, plus the dot-product kernel
/// every prediction bottoms out in.
fn bench_kernels() {
    print_header("linear-algebra kernels (former sherman_morrison bench)", ROW_COLUMNS);
    for &d in &[100usize, 300, 600] {
        let mut rng = FixtureRng::new(d as u64);
        let xs: Vec<Vector> = (0..32).map(|_| rng.vector(d)).collect();

        let mut inc = IncrementalRidge::new(d, 1.0);
        let mut i = 0;
        let s = measure(5, 100, || {
            inc.observe(&xs[i % xs.len()], 1.0).unwrap();
            i += 1;
        });
        print_row(&row(&format!("kernels/sm_rank_one_update/{d}"), &s));

        let mut prob = RidgeProblem::new(d, 1.0);
        for x in &xs {
            prob.observe(x, 1.0).unwrap();
        }
        let s = measure(3, 30, || {
            std::hint::black_box(prob.solve().unwrap());
        });
        print_row(&row(&format!("kernels/cholesky_solve/{d}"), &s));

        let (a, b) = (&xs[0], &xs[1]);
        let s = measure(10, 200, || {
            std::hint::black_box(a.dot(b).unwrap());
        });
        print_row(&row(&format!("kernels/dot_product/{d}"), &s));
    }

    // The serving dimensions of the benchmark workloads: the mat-vec, the
    // fused rank-one update and the blocked bandit variance, all on a warm
    // (cache-resident) A⁻¹.
    for &d in &[50usize, 200] {
        let mut rng = FixtureRng::new(1000 + d as u64);
        let xs: Vec<Vector> = (0..100).map(|_| rng.vector(d)).collect();
        let mut inc = IncrementalRidge::new(d, 1.0);
        for x in &xs {
            inc.observe(x, 1.0).unwrap();
        }

        let mut out = Vec::with_capacity(d);
        let mut i = 0;
        let s = measure(10, 200, || {
            inc.a_inv().matvec_into(&xs[i % xs.len()], &mut out).unwrap();
            std::hint::black_box(&out);
            i += 1;
        });
        print_row(&row(&format!("kernels/matvec/{d}"), &s));

        let s = measure(10, 200, || {
            inc.observe(&xs[i % xs.len()], 1.0).unwrap();
            i += 1;
        });
        print_row(&row(&format!("kernels/sm_update/{d}"), &s));

        if d == 200 {
            let candidates = Matrix::from_rows(&xs).unwrap();
            let s = measure(3, 50, || {
                std::hint::black_box(inc.variance_many(&candidates).unwrap());
            });
            print_row(&row(&format!("kernels/variance_many/k100/{d}"), &s));
        }
    }
}

/// Storage substrate on the serving hot path: namespace point reads/writes,
/// LRU hits, observation-log appends, and snapshot codec throughput.
fn bench_storage() {
    print_header("storage primitives (former storage_primitives bench)", ROW_COLUMNS);

    let ns: Namespace<Vec<f64>> = Namespace::new("bench");
    for k in 0..10_000u64 {
        ns.put(k, vec![k as f64; 16]);
    }
    let mut k = 0u64;
    let s = measure(10, 200, || {
        std::hint::black_box(ns.get(k % 10_000));
        k += 1;
    });
    print_row(&row("storage/namespace_get", &s));

    let mut k = 0u64;
    let s = measure(10, 200, || {
        ns.put(k % 10_000, vec![1.0; 16]);
        k += 1;
    });
    print_row(&row("storage/namespace_put", &s));

    let mut lru: LruCache<u64, f64> = LruCache::new(1024);
    for k in 0..1024u64 {
        lru.put(k, k as f64);
    }
    let mut k = 0u64;
    let s = measure(10, 200, || {
        std::hint::black_box(lru.get(&(k % 1024)).copied());
        k += 1;
    });
    print_row(&row("storage/lru_hit", &s));

    let log = ObservationLog::new();
    let mut k = 0u64;
    let s = measure(10, 200, || {
        log.append(k % 1000, k % 500, 1.0);
        k += 1;
    });
    print_row(&row("storage/obslog_append", &s));

    let entries: Vec<(u64, Vec<f64>)> = (0..500u64).map(|k| (k, vec![0.5; 64])).collect();
    let s = measure(3, 30, || {
        std::hint::black_box(encode_vector_table(&entries));
    });
    print_row(&row("storage/codec_encode_500x64", &s));
    let encoded = encode_vector_table(&entries);
    let s = measure(3, 30, || {
        std::hint::black_box(decode_vector_table(encoded.clone()).unwrap());
    });
    print_row(&row("storage/codec_decode_500x64", &s));
}

/// FIG3-shaped: one online user-weight update at various model dimensions,
/// naive vs. Sherman–Morrison.
fn bench_updates() {
    print_header("online update latency (former update_latency bench)", ROW_COLUMNS);
    for &d in &[50usize, 100, 200, 400] {
        let mut rng = FixtureRng::new(42 + d as u64);
        let xs: Vec<Vector> = (0..64).map(|_| rng.vector(d)).collect();
        for strategy in [UpdateStrategy::Naive, UpdateStrategy::ShermanMorrison] {
            let name = match strategy {
                UpdateStrategy::Naive => "naive",
                UpdateStrategy::ShermanMorrison => "sherman_morrison",
            };
            let mut model = UserOnlineModel::new(d, 1.0, strategy);
            let mut i = 0;
            let s = measure(5, 60, || {
                model.observe(&xs[i % xs.len()], 0.5).unwrap();
                i += 1;
            });
            print_row(&row(&format!("online_update/{name}/{d}"), &s));
        }
    }
}

fn main() {
    println!("# microbench — hermetic micro-benchmark suite");
    bench_kernels();
    bench_updates();
    bench_storage();
    bench_prediction_latency();
}
