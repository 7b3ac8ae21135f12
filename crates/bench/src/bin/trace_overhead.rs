//! TRACE-OVERHEAD — what end-to-end tracing costs the hot serving path.
//!
//! Tracing is only free to leave on if the instrumented path — span mint,
//! clock reads, the frame-header trace TLV on every RPC, ring writes on
//! both ends — stays within noise of the untraced path. This experiment
//! prices it directly: two identical 3-node loopback TCP clusters, one
//! with tracing off (legacy frames, zero span writes) and one with the
//! production sampling policy (head 1-in-64 plus tail capture, which
//! records spans for *every* request and indexes the slow ones), driven
//! pairwise: each request runs on the untraced cluster and immediately
//! after on the traced one, so clock drift and scheduler noise hit both
//! sides of every pair. The reported overhead is built from per-pair
//! latency deltas — the paired-sample estimator, far tighter than
//! comparing two independent medians because the noise common to a pair
//! cancels inside its delta.
//!
//! `--smoke` runs a smaller workload and gates what tracing actually
//! costs: the **absolute paired delta** (predict < 1.2 µs, observe <
//! 1.6 µs — roughly 2× the ~0.6 / ~0.8 µs first measured, tight enough
//! to catch the +1.3 µs/predict first cut this experiment originally
//! shaved down), plus a loose 10% ratio bound as a sanity check. The
//! gate moved off a pure ratio (originally 5%) deliberately: the delta is
//! what tracing adds, while the ratio's denominator shifts every time the
//! serving path itself gains or sheds work. Each gate reads the
//! benchmark harness's statistic ([`velox_bench::gate`]): the measured
//! pairs are cut into 20 time slices, each slice contributes its median
//! paired delta, and the fast-decile slice is compared against the
//! threshold — a box that slows down for part of the run slows some
//! slices, not the fast ones. When the run's own spread (fast decile to
//! fast quartile) straddles a threshold, the run says `UNRESOLVED` and
//! exits 0 instead of flipping a coin. `--control` runs the "traced"
//! cluster with tracing off too; its deltas should read ~0, which
//! validates the estimator itself (it exposes any ordering bias in the
//! pairing).

use std::time::{Duration, Instant};

use velox_bench::gate::{SliceReading, Verdict};
use velox_bench::{print_header, print_row};
use velox_cluster::Transport;
use velox_net::{NetClientConfig, NetCluster, NetClusterConfig};
use velox_obs::TraceConfig;

const N_USERS: u64 = 64;
const N_ITEMS: u64 = 256;
const DIM: usize = 16;
const N_NODES: usize = 3;
/// Sanity ceiling on the overhead ratio (%) — it only trips if tracing
/// becomes a different kind of expensive.
const OVERHEAD_GATE_PCT: f64 = 10.0;
/// Regression gates on the absolute traced delta per class (µs): what
/// one traced request pays over its untraced twin.
const PREDICT_DELTA_GATE_US: f64 = 1.2;
const OBSERVE_DELTA_GATE_US: f64 = 1.6;
/// Fresh untraced/traced cluster pairs the measured pairs are spread over,
/// back to back on one time axis. What a traced request costs differs from
/// one deployment to the next by more than within one (±0.2 µs on observe,
/// from where the threads and rings land); the fast-decile slice of
/// several deployments is what repeats, and a regression still moves all
/// of them.
const DEPLOYMENTS: usize = 4;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 17) as f64 / 16.0).collect()
}

fn start_cluster(trace: TraceConfig) -> NetCluster {
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        wal_root: None,
        workers: 8,
        client: NetClientConfig { request_timeout: Duration::from_secs(5), ..Default::default() },
        trace,
        ..Default::default()
    })
    .expect("start loopback cluster");
    net.publish_item_features((0..N_ITEMS).map(|i| (i, item_features(i))).collect());
    net
}

/// One class's measured pairs: `(seconds into the measured time, untraced
/// µs, traced µs)`, the two sides of each pair run back to back.
#[derive(Default)]
struct Paired {
    pairs: Vec<(f64, f64, f64)>,
}

/// One class's readings and verdict.
struct ClassReport {
    untraced: SliceReading,
    traced: SliceReading,
    delta: SliceReading,
    ratio_pct: SliceReading,
    verdict: Verdict,
}

impl Paired {
    /// Reads untraced, traced, delta and delta/untraced per slice of a
    /// `phase_s`-second phase, and judges the delta against `gate_us` and
    /// the ratio against [`OVERHEAD_GATE_PCT`].
    fn report(&self, phase_s: f64, gate_us: f64) -> ClassReport {
        let read = |f: &dyn Fn(f64, f64) -> f64| {
            let samples: Vec<(f64, f64)> =
                self.pairs.iter().map(|&(at, u, t)| (at, f(u, t))).collect();
            SliceReading::of(&samples, phase_s).expect("enough pairs per slice")
        };
        let delta = read(&|u, t| t - u);
        let ratio_pct = read(&|u, t| (t - u) / u * 100.0);
        let verdict = delta.judge(gate_us).max(ratio_pct.judge(OVERHEAD_GATE_PCT));
        ClassReport {
            untraced: read(&|u, _| u),
            traced: read(&|_, t| t),
            delta,
            ratio_pct,
            verdict,
        }
    }
}

/// Runs `reqs` predict+observe pairs, each request on the untraced
/// cluster and immediately after on the traced one, timestamped
/// `offset_s` plus the time since `phase` started.
fn run_pairs(
    untraced: &NetCluster,
    traced: &NetCluster,
    reqs: usize,
    (phase, offset_s): (Instant, f64),
    predict: &mut Paired,
    observe: &mut Paired,
) {
    for i in 0..reqs {
        let uid = i as u64 % N_USERS;
        let item = (i as u64 * 7) % N_ITEMS;
        let y = if i % 2 == 0 { 1.0 } else { 0.0 };
        let at = offset_s + phase.elapsed().as_secs_f64();
        let mut p = [0.0f64; 2];
        let mut o = [0.0f64; 2];
        for (k, net) in [untraced, traced].into_iter().enumerate() {
            let started = Instant::now();
            net.predict(uid, item).expect("predict");
            p[k] = started.elapsed().as_secs_f64() * 1e6;
            let started = Instant::now();
            net.observe(uid, item, y).expect("observe");
            o[k] = started.elapsed().as_secs_f64() * 1e6;
        }
        predict.pairs.push((at, p[0], p[1]));
        observe.pairs.push((at, o[0], o[1]));
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Each of the 20 slices needs enough pairs (800 at 16k) for its
    // median delta to be stable and to hold a few heartbeat rounds of
    // both clusters; too few widens the spread and turns verdicts into
    // UNRESOLVED, not into a stricter gate.
    let pairs: usize = if smoke { 16_000 } else { 32_000 };
    let control = std::env::args().any(|a| a == "--control");

    println!("# TRACE-OVERHEAD: tracing cost on the hot TCP serving path");
    println!(
        "\n{N_NODES}-node loopback clusters (untraced vs head-1-in-64 + tail capture), \
         {pairs} back-to-back predict+observe pairs over {DEPLOYMENTS} deployments"
    );

    let (mut predict, mut observe) = (Paired::default(), Paired::default());
    let (mut phase_s, mut spans, mut dropped, mut kept) = (0.0, 0, 0, 0);
    for _ in 0..DEPLOYMENTS {
        let untraced = start_cluster(TraceConfig::off());
        let traced =
            start_cluster(if control { TraceConfig::off() } else { TraceConfig::default() });
        let reqs = pairs / DEPLOYMENTS;
        // Warm both clusters (weights, socket buffers, branch predictors)
        // before any measured pair.
        let (mut sink_p, mut sink_o) = (Paired::default(), Paired::default());
        let warm = (Instant::now(), 0.0);
        run_pairs(&untraced, &traced, reqs / 8, warm, &mut sink_p, &mut sink_o);

        let phase = Instant::now();
        run_pairs(&untraced, &traced, reqs, (phase, phase_s), &mut predict, &mut observe);
        phase_s += phase.elapsed().as_secs_f64();
        let tracer = traced.tracer();
        spans += tracer.spans_recorded();
        dropped += tracer.spans_dropped();
        kept += tracer.kept().len();
    }

    let classes = [
        ("predict", predict.report(phase_s, PREDICT_DELTA_GATE_US), PREDICT_DELTA_GATE_US),
        ("observe", observe.report(phase_s, OBSERVE_DELTA_GATE_US), OBSERVE_DELTA_GATE_US),
    ];
    print_header(
        "Fast-decile time slice of 20 (µs); delta = per-slice median paired delta",
        &["class", "untraced", "traced", "delta µs", "delta p25 µs", "overhead %", "gate µs"],
    );
    for (name, r, gate) in &classes {
        print_row(&[
            name.to_string(),
            format!("{:.2}", r.untraced.decile),
            format!("{:.2}", r.traced.decile),
            format!("{:+.2}", r.delta.decile),
            format!("{:+.2}", r.delta.quartile),
            format!("{:+.2}", r.ratio_pct.decile),
            format!("{gate}"),
        ]);
    }
    for (name, r, _) in &classes {
        let slices: Vec<String> = r.delta.slices.iter().map(|d| format!("{d:+.2}")).collect();
        println!("{name} delta per slice (µs): {}", slices.join(" "));
    }

    println!("\ntraced clusters: {spans} spans recorded, {dropped} dropped, {kept} traces kept");

    if smoke {
        let mut verdict = Verdict::Pass;
        for (name, r, gate) in &classes {
            let (d, pct) = (&r.delta, &r.ratio_pct);
            println!(
                "{}: {name} traced delta {:+.2}..{:+.2} µs (gate {gate} µs), overhead \
                 {:+.2}..{:+.2}% (sanity bound {OVERHEAD_GATE_PCT}%)",
                r.verdict.label(),
                d.decile,
                d.quartile,
                pct.decile,
                pct.quartile,
            );
            verdict = verdict.max(r.verdict);
        }
        if !control && spans == 0 {
            println!("FAIL: traced cluster recorded no spans — the comparison is vacuous");
            verdict = Verdict::Fail;
        }
        if !control && kept == 0 {
            println!("FAIL: head sampling kept no traces over the whole run");
            verdict = Verdict::Fail;
        }
        if verdict == Verdict::Unresolved {
            eprintln!(
                "UNRESOLVED: this run's slice spread straddles a tracing-overhead gate; \
                 it can neither pass nor fail the change — look at the per-slice deltas"
            );
        }
        println!("trace_overhead: {}", verdict.label());
        if verdict == Verdict::Fail {
            std::process::exit(1);
        }
    }
}
