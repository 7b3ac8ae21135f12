//! Micro-benchmarks for the kernels and storage primitives no other
//! experiment prices, on the in-tree harness so the build stays hermetic.
//! Run with:
//!
//! ```text
//! cargo run --release -p velox-bench --bin microbench
//! ```
//!
//! Each section prints a markdown table of mean / p50 / p99 latencies.
//! Rows measured elsewhere are not repeated here: top-K serving is FIG4
//! (`fig4_prediction_latency`), one online update is FIG3
//! (`fig3_update_latency`), Sherman–Morrison vs. a fresh solve is ABL-SM
//! (`abl_sherman_morrison`), and the dot product, LRU hits and
//! observation-log appends are the benchmark harness's `linalg.dot_ns` and
//! `storage.*` probes. Namespace reads are priced here both ways, `Vec`
//! values (the harness's `storage.ns_get_ns`) against the shared
//! `Arc<[f64]>` values the serving tables hold.

use std::sync::Arc;

use velox_bench::{fmt_us, measure, print_header, print_row, FixtureRng};
use velox_linalg::{IncrementalRidge, Matrix, Vector};
use velox_storage::codec::{decode_vector_table, encode_vector_table};
use velox_storage::Namespace;

const ROW_COLUMNS: &[&str] = &["benchmark", "mean", "p50", "p99"];

fn row(name: &str, summary: &velox_linalg::stats::LatencySummary) -> Vec<String> {
    vec![name.to_string(), fmt_us(summary.mean), fmt_us(summary.p50), fmt_us(summary.p99)]
}

/// The serving dimensions of the benchmark workloads: the packed mat-vec
/// `A⁻¹b`, the fused rank-one update and the blocked bandit variance, all
/// on a warm (cache-resident) A⁻¹, and the dense `d × d` mat-vec the
/// packed one replaced, for scale.
fn bench_kernels() {
    print_header("linear-algebra kernels on a warm A⁻¹", ROW_COLUMNS);
    for &d in &[50usize, 200] {
        let mut rng = FixtureRng::new(1000 + d as u64);
        let xs: Vec<Vector> = (0..100).map(|_| rng.vector(d)).collect();
        let mut inc = IncrementalRidge::new(d, 1.0);
        for x in &xs {
            inc.observe(x, 1.0).unwrap();
        }

        let s = measure(10, 200, || {
            inc.refresh_weights().unwrap();
            std::hint::black_box(inc.weights());
        });
        print_row(&row(&format!("kernels/matvec/{d}"), &s));

        let dense = inc.a_inv();
        let mut out = Vec::with_capacity(d);
        let mut i = 0;
        let s = measure(10, 200, || {
            dense.matvec_into(&xs[i % xs.len()], &mut out).unwrap();
            std::hint::black_box(&out);
            i += 1;
        });
        print_row(&row(&format!("kernels/dense_matvec/{d}"), &s));

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

/// Storage substrate: namespace writes and snapshot codec throughput.
fn bench_storage() {
    print_header("storage primitives", ROW_COLUMNS);

    let ns: Namespace<Vec<f64>> = Namespace::new("bench");
    for k in 0..10_000u64 {
        ns.put(k, vec![k as f64; 16]);
    }
    let mut k = 0u64;
    let s = measure(10, 200, || {
        ns.put(k % 10_000, vec![1.0; 16]);
        k += 1;
    });
    print_row(&row("storage/namespace_put", &s));

    // A point read at d = 200, 100 reads per sample: a `Vec` value is
    // cloned out per read, a shared `Arc<[f64]>` one costs a reference
    // count (the serving tables hold the latter).
    let vecs: Namespace<Vec<f64>> = Namespace::new("bench_vec");
    let shared: Namespace<Arc<[f64]>> = Namespace::new("bench_arc");
    for k in 0..1_000u64 {
        vecs.put(k, vec![k as f64; 200]);
        shared.put(k, vec![k as f64; 200].into());
    }
    let s = measure(10, 200, || {
        for k in 0..100u64 {
            std::hint::black_box(vecs.get(k * 7 % 1_000));
        }
    });
    print_row(&row("storage/namespace_get_vec_x100/200", &s));
    let s = measure(10, 200, || {
        for k in 0..100u64 {
            std::hint::black_box(shared.get(k * 7 % 1_000));
        }
    });
    print_row(&row("storage/namespace_get_arc_x100/200", &s));

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

fn main() {
    println!("# microbench — hermetic micro-benchmark suite");
    bench_kernels();
    bench_storage();
}
