//! SERVE-BATCH — the adaptive-batching throughput/latency frontier of the
//! serving tier (`velox-serve`), the Clipper-style layer from ROADMAP open
//! item 4.
//!
//! Drives T concurrent client threads against one backend served three
//! ways:
//!
//! - `direct`: `ServeTier::predict_direct` — the model-abstraction layer
//!   without the queue (one manager snapshot per request, no coalescing);
//! - `tier max_batch=1`: the full serving tier with batching disabled —
//!   every request pays its own queue hand-off, manager snapshot, trace
//!   span, metrics pass, and its own backend call. The classic "serving
//!   system without batching" baseline;
//! - `tier adaptive`: the same tier with AIMD batch sizing against the
//!   latency SLO — concurrent predicts coalesce into batched passes.
//!
//! The headline (gated) table serves a 3-node loopback TCP cluster
//! through `TransportBackend`: a coalesced batch becomes ONE
//! `PredictBatch` RPC per owning node instead of one round trip per
//! request, which is where Clipper-style batching pays — the RPC
//! round trip is the per-call overhead being amortized. A second table
//! (full runs only) serves an in-process Velox deployment, where the
//! amortized costs are the queue hand-off and per-user weight reads —
//! a much smaller win, reported for contrast.
//!
//! `--smoke` runs a shortened sweep and exits non-zero unless, at the top
//! concurrency: adaptive throughput ≥ 2× the unbatched tier, client p99
//! stays within the configured SLO, the lane's SLO-violation rate is
//! below 1%, the learned mean batch size is ≥ 2, and the exported
//! batch-size histogram agrees with the lane's batch counter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use velox_batch::AlsConfig;
use velox_bench::{fmt_us, print_header, print_row, FixtureRng};
use velox_cluster::{ChaosControl, LinkFaultPlan, Transport};
use velox_core::{Item, Velox, VeloxConfig};
use velox_linalg::stats::LatencySummary;
use velox_models::MatrixFactorizationModel;
use velox_net::{NetCluster, NetClusterConfig};
use velox_serve::{
    BatchConfig, LaneStats, PredictBackend, ServeConfig, ServeTier, TransportBackend, VeloxBackend,
};

const DIM: usize = 16;
const N_USERS: u64 = 64;
const N_ITEMS: u64 = 256;
const BACKEND: &str = "bench";
const SLO: Duration = Duration::from_millis(5);
/// Emulated one-way link latency. Single-core loopback answers an RPC in
/// ~10µs, which no real deployment sees; a deterministic injected delay
/// (the chaos layer's latency knob at probability 1.0) restores a
/// realistic same-datacenter round trip, which is exactly the per-call
/// overhead adaptive batching exists to amortize.
const LINK_DELAY: Duration = Duration::from_micros(150);

fn rpc_backend() -> (Arc<dyn PredictBackend>, Arc<NetCluster>) {
    let cluster = NetCluster::start(NetClusterConfig {
        n_nodes: 3,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        ..Default::default()
    })
    .expect("start loopback cluster");
    let mut rng = FixtureRng::new(0x5E7E);
    cluster.publish_item_features((0..N_ITEMS).map(|i| (i, rng.raw(DIM))).collect());
    for uid in 0..N_USERS {
        for i in 0..4u64 {
            cluster.observe(uid, (uid + i * 17) % N_ITEMS, 0.5).expect("seed observe");
        }
    }
    // Seed first (fast, fault-free), then emulate the network link.
    cluster.install_link_faults(LinkFaultPlan {
        delay_prob: 1.0,
        delay_us: LINK_DELAY.as_micros() as u64,
        seed: 0x11A7,
        ..Default::default()
    });
    let cluster = Arc::new(cluster);
    let transport: Arc<dyn Transport + Send + Sync> = Arc::clone(&cluster) as _;
    (Arc::new(TransportBackend::new(transport)), cluster)
}

fn inproc_backend() -> Arc<dyn PredictBackend> {
    let mut rng = FixtureRng::new(0x5E7F);
    let mut table = HashMap::new();
    for item in 0..N_ITEMS {
        table.insert(item, rng.vector(DIM));
    }
    let model = MatrixFactorizationModel::from_table(
        "serve-batch",
        table,
        0.0,
        AlsConfig { rank: DIM, ..Default::default() },
    )
    .unwrap();
    let mut weights = HashMap::new();
    for uid in 0..N_USERS {
        weights.insert(uid, rng.vector(DIM));
    }
    let velox = Arc::new(Velox::deploy(Arc::new(model), weights, VeloxConfig::default()));
    Arc::new(VeloxBackend::new(velox))
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Direct,
    Unbatched,
    Adaptive,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Direct => "direct (no queue)",
            Mode::Unbatched => "tier max_batch=1",
            Mode::Adaptive => "tier adaptive",
        }
    }

    fn batch_config(self) -> BatchConfig {
        match self {
            // `initial_batch: 1` with `max_batch: 1` pins the lane to one
            // request per pass; the AIMD controller has nowhere to go.
            Mode::Direct | Mode::Unbatched => {
                BatchConfig { slo: SLO, max_batch: 1, initial_batch: 1, ..Default::default() }
            }
            Mode::Adaptive => BatchConfig { slo: SLO, ..Default::default() },
        }
    }
}

struct Cell {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    lane: LaneStats,
    hist_batches: u64,
}

fn run_cell(backend: &Arc<dyn PredictBackend>, mode: Mode, threads: usize, run: Duration) -> Cell {
    let tier = ServeTier::with_config(ServeConfig { batch: mode.batch_config() });
    tier.register(BACKEND, Arc::clone(backend)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..threads {
        let tier = Arc::clone(&tier);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = FixtureRng::new(0xC11E + t as u64);
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let uid = (rng.next_f64().abs() * N_USERS as f64) as u64 % N_USERS;
                let item = (rng.next_f64().abs() * N_ITEMS as f64) as u64 % N_ITEMS;
                let start = Instant::now();
                let served = match mode {
                    Mode::Direct => tier.predict_direct(BACKEND, uid, &Item::Id(item)),
                    _ => tier.predict(BACKEND, uid, &Item::Id(item)),
                };
                served.expect("serve predict");
                samples.push(start.elapsed().as_secs_f64() * 1e6);
            }
            samples
        }));
    }
    let start = Instant::now();
    std::thread::sleep(run);
    stop.store(true, Ordering::Relaxed);
    let mut samples = Vec::new();
    for h in handles {
        samples.extend(h.join().unwrap());
    }
    let secs = start.elapsed().as_secs_f64();

    let status = tier.backends().into_iter().find(|b| b.name == BACKEND).expect("backend listed");
    let hist_batches =
        tier.registry().snapshot().histogram("velox_serve_batch_size").map_or(0, |h| h.count);
    tier.shutdown();
    let summary = LatencySummary::from_samples(&samples).expect("served requests");
    Cell {
        throughput: samples.len() as f64 / secs,
        p50_us: summary.p50,
        p99_us: summary.p99,
        lane: status.lane,
        hist_batches,
    }
}

/// Sweeps one backend across modes and concurrency; returns the cells of
/// the top concurrency level keyed by mode label.
fn sweep(
    title: &str,
    backend: &Arc<dyn PredictBackend>,
    levels: &[usize],
    run: Duration,
) -> HashMap<&'static str, Cell> {
    let mut at_top = HashMap::new();
    let top = *levels.last().unwrap();
    for &threads in levels {
        print_header(
            &format!("{title}, {threads} concurrent clients"),
            &["serving path", "req/s", "p50", "p99", "mean batch", "SLO violations"],
        );
        // Warm connection pools and caches at this concurrency level.
        let _ = run_cell(backend, Mode::Direct, threads.min(4), Duration::from_millis(80));
        for mode in [Mode::Direct, Mode::Unbatched, Mode::Adaptive] {
            let cell = run_cell(backend, mode, threads, run);
            let (batch, violations) = if mode == Mode::Direct {
                ("—".to_string(), "—".to_string())
            } else {
                (
                    format!("{:.1}", cell.lane.mean_batch),
                    format!("{}/{}", cell.lane.slo_violations, cell.lane.requests),
                )
            };
            print_row(&[
                mode.label().to_string(),
                format!("{:.0}", cell.throughput),
                fmt_us(cell.p50_us),
                fmt_us(cell.p99_us),
                batch,
                violations,
            ]);
            if threads == top {
                at_top.insert(mode.label(), cell);
            }
        }
    }
    at_top
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let run = if smoke { Duration::from_millis(300) } else { Duration::from_millis(1000) };
    let levels: &[usize] = if smoke { &[8, 32] } else { &[1, 8, 32, 64] };

    println!("# SERVE-BATCH: adaptive batching throughput/latency frontier");
    println!(
        "\nd={DIM}, {N_USERS} users x {N_ITEMS} items, SLO {} ms, {} ms measured per cell.",
        SLO.as_millis(),
        run.as_millis()
    );
    println!("Headline backend: 3-node loopback TCP cluster via `TransportBackend`");
    println!("(a coalesced batch is one `PredictBatch` RPC per owning node),");
    println!(
        "with a {}µs emulated one-way link so the round trip matches a",
        LINK_DELAY.as_micros()
    );
    println!("realistic same-datacenter deployment instead of same-core loopback.");

    let (rpc, cluster) = rpc_backend();
    let at_top = sweep("TCP cluster backend", &rpc, levels, run);

    if !smoke {
        // In-process contrast: the batch amortizes only the queue
        // hand-off and per-user weight reads.
        let inproc = inproc_backend();
        sweep("in-process Velox backend", &inproc, levels, run);
    }

    println!("\nWith batching disabled every request pays its own queue hand-off,");
    println!("manager snapshot, trace/metrics pass, and its own RPC round trip; the");
    println!("adaptive lane amortizes all of it across the coalesced batch, so");
    println!("throughput grows with concurrency while p99 stays under the SLO.");

    let top = *levels.last().unwrap();
    let unbatched = &at_top[Mode::Unbatched.label()];
    let adaptive = &at_top[Mode::Adaptive.label()];
    let ratio = adaptive.throughput / unbatched.throughput;
    let violation_rate = adaptive.lane.slo_violations as f64 / adaptive.lane.requests.max(1) as f64;
    println!(
        "\nAt {top} clients: adaptive {:.0} req/s vs unbatched {:.0} req/s ({ratio:.1}x), \
         mean batch {:.1}, p99 {}, SLO violations {:.2}%.",
        adaptive.throughput,
        unbatched.throughput,
        adaptive.lane.mean_batch,
        fmt_us(adaptive.p99_us),
        violation_rate * 100.0
    );

    if smoke {
        let mut ok = true;
        if ratio < 2.0 {
            eprintln!(
                "SMOKE FAIL: adaptive/unbatched throughput {ratio:.2}x < 2x at {top} clients"
            );
            ok = false;
        }
        if adaptive.p99_us > SLO.as_secs_f64() * 1e6 {
            eprintln!(
                "SMOKE FAIL: adaptive p99 {} exceeds the {} ms SLO",
                fmt_us(adaptive.p99_us),
                SLO.as_millis()
            );
            ok = false;
        }
        if violation_rate >= 0.01 {
            eprintln!(
                "SMOKE FAIL: SLO violation rate {:.2}% >= 1% ({}/{})",
                violation_rate * 100.0,
                adaptive.lane.slo_violations,
                adaptive.lane.requests
            );
            ok = false;
        }
        if adaptive.lane.mean_batch < 2.0 {
            eprintln!(
                "SMOKE FAIL: mean batch {:.2} < 2 at {top} clients",
                adaptive.lane.mean_batch
            );
            ok = false;
        }
        if adaptive.hist_batches != adaptive.lane.batches {
            eprintln!(
                "SMOKE FAIL: batch-size histogram count {} != lane batches {}",
                adaptive.hist_batches, adaptive.lane.batches
            );
            ok = false;
        }
        if !ok {
            cluster.shutdown();
            std::process::exit(1);
        }
        println!("\nsmoke: all gates passed");
    }
    cluster.shutdown();
}
