//! Workload 4: the write side. A durable in-process `Velox` (WAL with an
//! fsync every 64 records, ALS-backed matrix-factorization model of rank
//! 20) goes through three rounds of {ingest N observes on one thread, then
//! `retrain_offline()`}, then serves one batch of predicts on the new
//! version.
//!
//! Workloads 1–2 read the layers this one only writes (WAL append, the
//! training log, per-user online state) and add `batch`. A predict-side
//! gain that taxes observes, or a retrain whose cost grows faster than the
//! log, shows here and nowhere else.
//!
//! Per-user online state is *not* touched in set-up, unlike workloads 1–3:
//! every retrain discards it, so first-touch allocation after a version
//! swap is part of what this workload measures.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use velox::batch::{AlsConfig, AlsModel, JobExecutor};
use velox::core::{DurabilityConfig, Item, Velox, VeloxConfig, VeloxModel};
use velox::data::Rating;
use velox::linalg::Vector;
use velox::models::MatrixFactorizationModel;
use velox::storage::{FsyncPolicy, Observation, ObservationLog, Wal, WalConfig};

use crate::gen::SplitMix64;
use crate::layers::{LaneTrace, FAST_REPS};
use crate::result::{peak_rss_mb, WorkloadResult};
use crate::stats::{ratio, sliced_percentile, Pick, Samples, Summary, SLICES};
use crate::{fold_score, RunArgs};

const NAME: &str = "ingest_retrain";
const RANK: usize = 20;
/// Rank of the planted preferences: lower than the model's, so a few dozen
/// observes per user are enough for a retrain to generalise.
const PLANTED_RANK: usize = 8;
const USERS: u64 = 2_000;
const ITEMS: u64 = 1_000;
const ROUNDS: usize = 3;
/// Observes per round per requested second, sized on the reference box so
/// three rounds take about `--seconds` and the last retrain is their
/// largest part.
const OBS_PER_ROUND_PER_SECOND: usize = 10_000;
const HELD_OUT: usize = 4_000;
/// Predicts per user after each swap: about a third of a second of serving.
const PREDICTS_PER_USER: u64 = 100;
const FSYNC_EVERY: u32 = 64;
/// A traced observe in this many is replayed through the storage layers.
const REPLAY_EVERY: u64 = 16;
/// Observes per untraced / traced block of a traced run.
const TRACE_BLOCK: usize = 512;

fn als_config(seed: u64) -> AlsConfig {
    AlsConfig { rank: RANK, lambda: 0.1, iterations: 10, seed }
}

/// The planted low-rank preference model the labels come from, so a
/// retrain has something to learn and held-out error can fall.
struct Planted {
    users: Vec<Vec<f64>>,
    items: Vec<Vec<f64>>,
}

impl Planted {
    fn new(users: u64, items: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::fork(seed, 0x91A7);
        let mut table = |n: u64| -> Vec<Vec<f64>> {
            (0..n).map(|_| (0..PLANTED_RANK).map(|_| rng.symmetric()).collect()).collect()
        };
        Planted { users: table(users), items: table(items) }
    }

    fn label(&self, uid: u64, item: u64, noise: f64) -> f64 {
        let dot: f64 = self.users[uid as usize]
            .iter()
            .zip(&self.items[item as usize])
            .map(|(a, b)| a * b)
            .sum();
        dot / (PLANTED_RANK as f64).sqrt() + 0.1 * noise
    }

    fn draw(&self, rng: &mut SplitMix64) -> (u64, u64, f64) {
        let uid = rng.below(self.users.len() as u64);
        let item = rng.below(self.items.len() as u64);
        (uid, item, self.label(uid, item, rng.symmetric()))
    }
}

struct Deployment {
    velox: Velox,
    dir: std::path::PathBuf,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.velox.close_durability();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Deploys durably into a fresh directory: random (not planted) item
/// factors, no user weights — everything the model knows it learns from
/// the observes.
fn deploy(args: &RunArgs, items: u64, seed: u64) -> Result<Deployment, String> {
    let dir = args.scratch("ingest");
    let mut rng = SplitMix64::fork(seed, 0xFAC7);
    let table: HashMap<u64, Vector> =
        (0..items).map(|i| (i, Vector::from_vec(rng.unit_vector(RANK)))).collect();
    let config = VeloxConfig {
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::Batched { every: FSYNC_EVERY },
            ..DurabilityConfig::new(&dir)
        }),
        ..VeloxConfig::default()
    };
    let (velox, _) = Velox::deploy_durable(
        move |_| {
            let model = MatrixFactorizationModel::from_table(NAME, table, 0.0, als_config(seed))?;
            Ok(Arc::new(model) as Arc<dyn VeloxModel>)
        },
        HashMap::new(),
        config,
    )
    .map_err(|e| format!("durable deploy: {e}"))?;
    Ok(Deployment { velox, dir })
}

fn rmse(velox: &Velox, held_out: &[(u64, u64, f64)]) -> Result<f64, String> {
    let mut sq = 0.0;
    for &(uid, item, y) in held_out {
        let p = velox.predict(uid, &Item::Id(item)).map_err(|e| e.to_string())?;
        sq += (p.score - y) * (p.score - y);
    }
    Ok((sq / held_out.len() as f64).sqrt())
}

/// A small fresh deployment through one ingest-retrain-predict cycle,
/// folding every score. Two calls with one seed must agree bit for bit.
fn verification_checksum(args: &RunArgs) -> Result<u64, String> {
    let (users, items) = (100, 120);
    let planted = Planted::new(users, items, args.seed);
    let dep = deploy(args, items, args.seed)?;
    let mut rng = SplitMix64::fork(args.seed, 0xC0FFEE);
    let mut sum = 0u64;
    for _ in 0..4_000 {
        let (uid, item, y) = planted.draw(&mut rng);
        let o = dep.velox.observe(uid, &Item::Id(item), y).map_err(|e| e.to_string())?;
        sum = fold_score(sum, o.predicted_before);
    }
    dep.velox.retrain_offline().map_err(|e| e.to_string())?;
    for uid in 0..users {
        let p = dep.velox.predict(uid, &Item::Id(uid % items)).map_err(|e| e.to_string())?;
        if !p.score.is_finite() {
            return Err(format!("non-finite score for user {uid}"));
        }
        sum = fold_score(sum, p.score);
    }
    Ok(sum)
}

/// Harness-owned WAL and log, for timing the storage layer alone on the
/// observes the deployment is ingesting.
struct StorageRig {
    wal: Wal,
    obslog: ObservationLog,
    appended: u64,
    dir: std::path::PathBuf,
}

impl StorageRig {
    fn new(args: &RunArgs) -> Result<Self, String> {
        let dir = args.scratch("wal-probe");
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Batched { every: FSYNC_EVERY };
        let (wal, _) = Wal::open(config).map_err(|e| e.to_string())?;
        Ok(StorageRig { wal, obslog: ObservationLog::new(), appended: 0, dir })
    }
}

impl Drop for StorageRig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn slice_of(i: usize, n: usize) -> usize {
    (i * SLICES / n.max(1)).min(SLICES - 1)
}

/// The first predicts on a new version: every user, [`PREDICTS_PER_USER`]
/// items each, every pair one never asked for before — so no answer comes
/// from the prediction cache or its post-swap repopulation.
fn predicts_after_swap(velox: &Velox, round: u64, out: &mut WorkloadResult) -> Samples {
    let n = (USERS * PREDICTS_PER_USER) as usize;
    let mut latency = Samples::with_capacity(n);
    let mut before = Instant::now();
    for i in 0..n {
        let (uid, pass) = (i as u64 % USERS, i as u64 / USERS);
        let item = (uid * 31 + (round * PREDICTS_PER_USER + pass) * 17) % ITEMS;
        let answer = velox.predict(uid, &Item::Id(item));
        let after = Instant::now();
        out.attempted += 1;
        if answer.is_err() {
            out.failed += 1;
        }
        latency.record(slice_of(i, n), (after - before).as_nanos() as u64);
        before = after;
    }
    latency
}

/// Runs workload 4.
pub fn run(args: &RunArgs) -> WorkloadResult {
    let mut out = WorkloadResult::new(NAME, args.seed, args.seconds, args.trace);
    if let Err(e) = run_inner(args, &mut out) {
        out.check("workload_ran", false, e);
    }
    out.set("failed_frac", "frac", ratio(out.failed, out.attempted));
    out.set("peak_rss_mb", "MB", peak_rss_mb());
    out
}

fn run_inner(args: &RunArgs, out: &mut WorkloadResult) -> Result<(), String> {
    let per_round = OBS_PER_ROUND_PER_SECOND * args.seconds as usize;

    // Set-up, repeated: deploy durably and generate every observe and
    // held-out pair up front.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..args.setup_reps(15) {
        drop(built.take());
        let started = Instant::now();
        let planted = Planted::new(USERS, ITEMS, args.seed);
        let dep = deploy(args, ITEMS, args.seed)?;
        let mut rng = SplitMix64::fork(args.seed, 0x0B5);
        let observes: Vec<(u64, u64, f64)> =
            (0..per_round * ROUNDS).map(|_| planted.draw(&mut rng)).collect();
        let mut held_rng = SplitMix64::fork(args.seed, 0x4E1D);
        let held_out: Vec<(u64, u64, f64)> =
            (0..HELD_OUT).map(|_| planted.draw(&mut held_rng)).collect();
        setups.push(started.elapsed().as_secs_f64());
        built = Some((dep, observes, held_out));
    }
    let (dep, observes, held_out) = built.expect("at least one set-up");
    out.set_summary("setup_s", "s", Summary::of(&setups, setups.len(), Pick::Low));

    let velox = &dep.velox;
    let version_before = velox.model_version();
    let mut trace = args.trace.then(|| LaneTrace::new(Instant::now(), 0, REPLAY_EVERY));
    let mut rig = if args.trace { Some(StorageRig::new(args)?) } else { None };
    // In a traced run, blocks of observes alternate untraced / traced; the
    // two classes' rates give the tracing overhead. `[untraced, traced]`.
    let mut class_ns = [0u64; 2];
    let mut class_n = [0u64; 2];

    let mut retrain_total_s = 0.0;
    // Observes per second within each slice of each round's ingest.
    let mut slice_rates = Vec::with_capacity(ROUNDS * SLICES);
    let mut rmse_before = f64::NAN;
    let mut last_latency = Samples::default();
    let mut post_swap = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let batch = &observes[round * per_round..(round + 1) * per_round];
        let mut latency = Samples::with_capacity(per_round);
        let mut slice_ns = [0u64; SLICES];
        let ingest_started = Instant::now();
        let mut before = ingest_started;
        for (i, &(uid, item, y)) in batch.iter().enumerate() {
            let outcome = velox.observe(uid, &Item::Id(item), y);
            let after = Instant::now();
            out.attempted += 1;
            if let Err(e) = &outcome {
                out.failed += 1;
                if out.failed == 1 {
                    out.check("ops_succeed", false, format!("first failure: {e}"));
                }
            }
            let k = slice_of(i, per_round);
            latency.record(k, (after - before).as_nanos() as u64);
            slice_ns[k] += (after - before).as_nanos() as u64;
            let traced = (i / TRACE_BLOCK) % 2 == 1;
            if let (true, Some(t), Some(rig)) = (traced, trace.as_mut(), rig.as_mut()) {
                // Only replayed observes leave spans: one per observe would
                // fill the buffer within the first round.
                if t.next_op() {
                    trace_observe(t, rig, uid, item, y, before, after)?;
                }
            }
            let done = Instant::now();
            class_ns[traced as usize] += (done - before).as_nanos() as u64;
            class_n[traced as usize] += 1;
            before = done;
        }
        let ingest_s = ingest_started.elapsed().as_secs_f64();
        if round == 0 {
            rmse_before = rmse(velox, &held_out)?;
        }

        let retrain_started = Instant::now();
        let version = velox.retrain_offline().map_err(|e| format!("retrain {}: {e}", round + 1))?;
        let retrain_s = retrain_started.elapsed().as_secs_f64();
        if let Some(t) = trace.as_mut() {
            let end = t.spans.now_ns();
            t.spans.push("core.retrain_offline", end - (retrain_s * 1e9) as u64, end, 0, version);
        }
        retrain_total_s += retrain_s;
        post_swap.push(predicts_after_swap(velox, round as u64, out));
        let round_rates: Vec<f64> = (0..SLICES)
            .map(|k| latency.slice(k).len() as f64 * 1e9 / slice_ns[k].max(1) as f64)
            .collect();
        out.phases.push(crate::result::PhaseCount {
            name: format!("round_{}", round + 1),
            attempted: per_round as u64,
            failed: 0,
            seconds: ingest_s + retrain_s,
        });
        out.set(&format!("core.retrain_round_s.r{}", round + 1), "s", retrain_s);
        if round + 1 == ROUNDS {
            out.set_summary(
                "ingest_obs_per_s",
                "1/s",
                Summary::of(&round_rates, per_round, Pick::High),
            );
            out.set("retrain_s", "s", retrain_s);
            out.set("core.retrain_log_len.r3", "count", velox.stats().observations as f64);
            last_latency = latency;
        }
        slice_rates.extend(round_rates);
    }
    if args.trace && class_n.iter().all(|&n| n > 0) {
        let rate = |c: usize| class_n[c] as f64 / class_ns[c] as f64;
        out.set("obs.trace_overhead_frac", "frac", 1.0 - rate(1) / rate(0));
    }

    // Write throughput including the model maintenance it pays for: the
    // observes of all three rounds over their ingest time (at the
    // fast-decile slice's rate, like every other rate here) plus the three
    // retrains.
    let sent = (per_round * ROUNDS) as f64;
    if let Some(ingest) = Summary::of(&slice_rates, per_round * ROUNDS, Pick::High) {
        out.set("req_per_s", "1/s", sent / (sent / ingest.value + retrain_total_s));
    }
    out.set_summary("observe_p50_us", "us", sliced_percentile(&[&last_latency], 0.50, 1e-3));
    out.set_summary("observe_p99_us", "us", sliced_percentile(&[&last_latency], 0.99, 1e-3));

    // Serving on each new version, pooled: which way a swap happens to lay
    // the new tables out in memory moves predict latency by tens of percent
    // until the next swap, so no one version's figure is the run's answer.
    for (q, name) in [(0.50, "predict_p50_us"), (0.99, "predict_p99_us")] {
        let pooled =
            Summary::pool(post_swap.iter().map(|s| sliced_percentile(&[s], q, 1e-3)), Pick::Low);
        if q == 0.50 {
            out.set_summary("core.post_swap_predict_p50_us", "us", pooled.clone());
        }
        out.set_summary(name, "us", pooled);
    }

    let rmse_after = rmse(velox, &held_out)?;
    out.set("core.heldout_rmse_gain", "ratio", rmse_before / rmse_after);
    let advanced = velox.model_version() - version_before;
    out.check(
        "model_version_advanced_by_3",
        advanced == ROUNDS as u64,
        format!("advanced by {advanced}"),
    );
    out.check(
        "heldout_rmse_does_not_rise",
        rmse_after <= rmse_before,
        format!("held-out RMSE {rmse_before:.4} before the first retrain, {rmse_after:.4} after the last"),
    );
    let stats = velox.stats();
    out.check(
        "every_observe_is_logged",
        stats.observations == (per_round * ROUNDS) as u64
            && stats.durability.wal_appends == stats.observations,
        format!(
            "{} observations, {} WAL appends, {} sent",
            stats.observations,
            stats.durability.wal_appends,
            per_round * ROUNDS
        ),
    );
    let (ph, pm, _) = stats.prediction_cache;
    out.set(
        "core.pred_cache_hit_ratio",
        "ratio",
        if ph + pm == 0 { 0.0 } else { ph as f64 / (ph + pm) as f64 },
    );

    if let Some(mut t) = trace {
        // The batch layer alone, on the log the last retrain saw.
        let ratings: Vec<Rating> = observes
            .iter()
            .enumerate()
            .map(|(ts, &(uid, item_id, value))| Rating {
                uid,
                item_id,
                value,
                timestamp: ts as u64,
            })
            .collect();
        let executor = JobExecutor::new(VeloxConfig::default().training_workers);
        let ((), ns, _) = t.spans.time("batch.als_train", 0, 0, || {
            std::hint::black_box(AlsModel::train(
                &ratings,
                USERS as usize,
                ITEMS as usize,
                als_config(args.seed),
                &executor,
            ));
        });
        out.set("batch.als_train_s", "s", ns as f64 / 1e9);
        t.layers.file_into(out);
        out.set("obs.harness_spans", "count", t.spans.spans().len() as f64);
        out.set("obs.spans_dropped", "count", t.spans.dropped() as f64);
        crate::write_trace(args, NAME, &[t.spans]);
    }
    drop(rig);
    drop(dep);

    out.check_checksums(verification_checksum(args), verification_checksum(args));
    Ok(())
}

/// Records a replayed observe: a root span around the real call (already
/// timed by the caller) and the storage layers beneath it, on the same
/// record.
fn trace_observe(
    t: &mut LaneTrace,
    rig: &mut StorageRig,
    uid: u64,
    item: u64,
    y: f64,
    started: Instant,
    ended: Instant,
) -> Result<(), String> {
    let op_id = t.op_id(0);
    let end_ns = t.spans.now_ns();
    let start_ns = end_ns.saturating_sub((ended - started).as_nanos() as u64);
    let root = t.spans.push("op.observe", start_ns, end_ns, 0, op_id);
    let record = Observation { uid, item_id: item, y, timestamp: rig.appended };
    rig.appended += 1;
    let append_start = t.spans.now_ns();
    let timing = rig.wal.append_timed(&record).map_err(|e| e.to_string())?;
    t.spans.push("storage.wal_append", append_start, append_start + timing.append_ns, root, op_id);
    t.layers.push("storage.wal_append_us", timing.append_ns as f64 / 1e3);
    if timing.fsync_ns > 0 {
        let fsync_start = append_start + timing.append_ns;
        t.spans.push("storage.wal_fsync", fsync_start, fsync_start + timing.fsync_ns, root, op_id);
        t.layers.push("storage.wal_fsync_us", timing.fsync_ns as f64 / 1e3);
    }
    let obslog = &rig.obslog;
    t.probe("storage.obslog_append_ns", FAST_REPS, root, op_id, || obslog.append(uid, item, y));
    Ok(())
}
