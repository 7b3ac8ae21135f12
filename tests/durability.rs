//! End-to-end durability tests over the public facade: acknowledged
//! observations survive process death (simulated by dropping the deployment
//! and rebooting from the same directory), recovery is idempotent, torn WAL
//! tails are handled at every byte offset, a corrupt checkpoint falls
//! back to an older one whose WAL coverage is still intact, a hole in the
//! WAL stops the replay at the hole, an observation the WAL refuses takes
//! no effect, and only catalog records (never raw payloads) replay.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use velox::prelude::*;

const ITEMS: u64 = 16;

fn durable_config(dir: &Path) -> VeloxConfig {
    VeloxConfig {
        durability: Some(DurabilityConfig::new(dir.to_path_buf())),
        ..VeloxConfig::single_node()
    }
}

/// Boots (or recovers) a deployment from `config.durability.dir`. The same
/// call a fresh process makes after a crash.
fn boot_with(config: VeloxConfig) -> (Velox, RecoveryReport) {
    Velox::deploy_durable(
        |_| Ok(Arc::new(IdentityModel::new("dur", 2, 0.5)) as Arc<dyn VeloxModel>),
        HashMap::new(),
        config,
    )
    .expect("durable deploy")
}

fn boot(dir: &Path) -> (Velox, RecoveryReport) {
    boot_with(durable_config(dir))
}

fn register(velox: &Velox) {
    for item in 0..ITEMS {
        velox.register_item(item, vec![(item as f64 * 0.3).sin(), (item as f64 * 0.3).cos()]);
    }
}

/// Observes records `from..from + n` with a deterministic pattern so every
/// boot cycle can extend the exact same sequence.
fn observe_n(velox: &Velox, from: u64, n: u64) {
    for i in from..from + n {
        velox.observe(i % 5, &Item::Id(i % ITEMS), (i as f64 * 0.17).sin()).expect("observe");
    }
}

fn scores(velox: &Velox) -> Vec<f64> {
    (0..5u64).map(|uid| velox.predict(uid, &Item::Id(uid % ITEMS)).unwrap().score).collect()
}

/// Path of the single WAL segment file under `dir` (asserts there is one).
fn only_wal_segment(dir: &Path) -> PathBuf {
    let wal_dir = dir.join("wal");
    let mut files: Vec<PathBuf> = fs::read_dir(&wal_dir)
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "expected one segment: {files:?}");
    files.remove(0)
}

/// (1) The core claim: checkpoint restore plus WAL-tail replay brings back
/// every acknowledged observation — count, durability stats, recovery
/// metrics, lifecycle event — and the deployment keeps serving.
#[test]
fn acknowledged_observations_survive_crash_and_reboot() {
    let scratch = ScratchDir::new("dur-e2e");
    let state = scratch.join("state");

    let (velox, report) = boot(&state);
    assert_eq!(report.checkpoint_seq, None, "fresh directory has nothing to recover");
    assert_eq!(report.replayed, 0);
    register(&velox);
    observe_n(&velox, 0, 10);
    let ckpt = velox.checkpoint().expect("checkpoint");
    assert_eq!(ckpt.seq, 1);
    assert_eq!(ckpt.wal_offset, 10);
    observe_n(&velox, 10, 15); // the WAL tail a crash would strand
    assert_eq!(velox.stats().observations, 25);
    drop(velox); // "crash": the process dies, only the disk survives

    let (revived, report) = boot(&state);
    assert_eq!(report.checkpoint_seq, Some(1));
    assert_eq!(report.checkpoint_wal_offset, 10);
    assert_eq!(report.replayed, 15, "exactly the post-checkpoint tail replays");
    assert_eq!(report.apply_failures, 0, "the checkpointed catalog makes every record appliable");
    assert!(!report.torn);
    assert_eq!(report.wal_quarantined, 0);

    // No re-registration: the catalog must come back from the checkpoint,
    // and the recovered deployment must serve. (Weights are restored as a
    // ridge prior — the paper's warm-start semantic — so scores are
    // deterministic per recovery but not bit-identical to the live
    // pre-crash state; determinism is asserted in the idempotence test.)
    for s in scores(&revived) {
        assert!(s.is_finite(), "recovered model serves finite scores");
    }

    let stats = revived.stats();
    assert_eq!(stats.observations, 25);
    assert!(stats.durability.enabled);
    assert_eq!(stats.durability.recovery_replayed, 15);
    assert_eq!(stats.durability.last_checkpoint_seq, 1);
    assert!(
        revived
            .registry()
            .recent_events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Recovery { replayed: 15, torn: 0 })),
        "recovery emits a lifecycle event"
    );

    // The revived deployment keeps serving and keeps logging durably.
    observe_n(&revived, 25, 3);
    assert_eq!(revived.stats().observations, 28);
}

/// (2) Recovery is idempotent: recovering twice from the same disk state
/// yields the same observation count and the same scores — nothing is
/// double-applied, nothing is lost.
#[test]
fn double_recovery_is_idempotent() {
    let scratch = ScratchDir::new("dur-idem");
    let state = scratch.join("state");

    let (velox, _) = boot(&state);
    register(&velox);
    observe_n(&velox, 0, 8);
    velox.checkpoint().expect("checkpoint");
    observe_n(&velox, 8, 5);
    drop(velox);

    let (first, r1) = boot(&state);
    let first_scores = scores(&first);
    let first_obs = first.stats().observations;
    // Release the WAL file handle before the second recovery takes over.
    drop(first);

    let (second, r2) = boot(&state);
    assert_eq!(r1.replayed, 5);
    assert_eq!(r2.replayed, 5, "the second recovery replays the same tail, not more");
    assert_eq!(first_obs, 13);
    assert_eq!(second.stats().observations, 13, "no duplicated observations");
    assert_eq!(first_scores, scores(&second), "both recoveries land on identical state");
}

/// (3) Torn-tail sweep through the whole stack: cut the WAL segment at
/// every byte offset, reboot the deployment, and check that exactly the
/// fully-persisted records come back — and that the deployment still
/// accepts new observations afterwards. Recovery must never panic.
#[test]
fn reboot_handles_a_torn_wal_tail_at_every_cut_point() {
    const N: u64 = 6;
    const HEADER_LEN: usize = 16;
    const RECORD_LEN: usize = 40;

    let build = ScratchDir::new("dur-torn-build");
    let state = build.join("state");
    let (velox, _) = boot(&state);
    register(&velox);
    observe_n(&velox, 0, N);
    drop(velox);
    let segment = only_wal_segment(&state);
    let name = segment.file_name().unwrap().to_string_lossy().into_owned();
    let full = fs::read(&segment).expect("segment bytes");
    assert_eq!(full.len(), HEADER_LEN + N as usize * RECORD_LEN);

    for cut in 0..=full.len() {
        let scratch = ScratchDir::new("dur-torn-cut");
        let dir = scratch.join("state");
        fs::create_dir_all(dir.join("wal")).expect("mkdir");
        fs::write(dir.join("wal").join(&name), &full[..cut]).expect("plant prefix");

        let (revived, report) = boot(&dir);
        let expected = cut.saturating_sub(HEADER_LEN) / RECORD_LEN;
        assert_eq!(report.replayed as usize, expected, "cut at byte {cut}");
        assert_eq!(revived.stats().observations as usize, expected, "cut at byte {cut}");

        // Still a working deployment: the next observation is accepted and
        // extends the recovered sequence.
        revived.register_item(0, vec![1.0, 0.0]);
        revived.observe(1, &Item::Id(0), 0.5).expect("observe after torn recovery");
        assert_eq!(revived.stats().observations as usize, expected + 1, "cut {cut}");
    }
}

/// (4) A corrupt newest checkpoint falls back to the previous one, and the
/// retention policy guarantees the WAL still covers everything from the
/// older checkpoint forward — even after segment truncation reclaimed the
/// fully-covered prefix.
#[test]
fn corrupt_newest_checkpoint_falls_back_with_full_wal_coverage() {
    let scratch = ScratchDir::new("dur-ckpt-fallback");
    let state = scratch.join("state");
    // Tiny segments (2 records each) so checkpoint-driven truncation
    // actually removes files; retention keeps 2 checkpoints.
    let mut durability = DurabilityConfig::new(state.clone());
    durability.wal_segment_bytes = (16 + 2 * 40) as u64;
    let config = VeloxConfig { durability: Some(durability), ..VeloxConfig::single_node() };

    let (velox, _) = boot_with(config.clone());
    register(&velox);
    observe_n(&velox, 0, 6);
    assert_eq!(velox.checkpoint().expect("first checkpoint").seq, 1);
    observe_n(&velox, 6, 6);
    let second = velox.checkpoint().expect("second checkpoint");
    assert_eq!(second.seq, 2);
    assert!(
        second.wal_segments_removed > 0,
        "small segments must let the checkpoint reclaim WAL files"
    );
    observe_n(&velox, 12, 3);
    drop(velox);

    // Flip a byte inside the newest checkpoint's payload: its CRC check
    // must fail and recovery must fall back to checkpoint 1.
    let newest = state.join("checkpoints").join("ckpt-0000000002.ckpt");
    let mut bytes = fs::read(&newest).expect("checkpoint bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&newest, &bytes).expect("corrupt checkpoint");

    let (revived, report) = boot_with(config.clone());
    assert_eq!(report.checkpoint_seq, Some(1), "fell back past the corrupt checkpoint");
    assert_eq!(report.checkpoint_wal_offset, 6);
    assert_eq!(
        report.replayed, 9,
        "records 6..15 must still be in the WAL because truncation never \
         passes the oldest retained checkpoint"
    );
    assert_eq!(report.apply_failures, 0);
    assert_eq!(revived.stats().observations, 15);
    let first_scores = scores(&revived);
    drop(revived);

    // The fallback path is stable: a second recovery from the same damaged
    // disk lands on the identical state.
    let (again, report) = boot_with(config);
    assert_eq!(report.checkpoint_seq, Some(1));
    assert_eq!(report.replayed, 9);
    assert_eq!(again.stats().observations, 15);
    assert_eq!(first_scores, scores(&again), "fallback recovery is deterministic");
}

/// (5) `checkpoint_every` drives automatic checkpoints from the observe
/// path — no external scheduler involved.
#[test]
fn auto_checkpoint_triggers_on_observation_count() {
    let scratch = ScratchDir::new("dur-auto");
    let mut durability = DurabilityConfig::new(scratch.join("state"));
    durability.checkpoint_every = 5;
    let config = VeloxConfig { durability: Some(durability), ..VeloxConfig::single_node() };

    let (velox, _) = boot_with(config);
    register(&velox);
    observe_n(&velox, 0, 4);
    assert_eq!(velox.stats().durability.checkpoints, 0, "below the threshold");
    observe_n(&velox, 4, 1);
    let stats = velox.stats();
    assert_eq!(stats.durability.checkpoints, 1, "fifth observation crosses the threshold");
    assert_eq!(stats.durability.last_checkpoint_seq, 1);
    assert_eq!(stats.durability.last_checkpoint_wal_offset, 5);

    observe_n(&velox, 5, 5);
    assert_eq!(velox.stats().durability.checkpoints, 2, "the counter keeps advancing");
    assert!(
        velox
            .registry()
            .recent_events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Checkpoint { seq: 2, .. })),
        "automatic checkpoints emit lifecycle events"
    );
}

/// (6) Fsync policy plumbs through `DurabilityConfig` into the attached
/// WAL: per-record syncs once per observation, `Off` never syncs, and both
/// policies recover every record after a clean shutdown.
#[test]
fn fsync_policy_is_honored_and_counted() {
    for (policy, expect_fsyncs) in [(FsyncPolicy::PerRecord, true), (FsyncPolicy::Off, false)] {
        let scratch = ScratchDir::new("dur-fsync");
        let state = scratch.join("state");
        let mut durability = DurabilityConfig::new(state.clone());
        durability.fsync = policy;
        let config =
            VeloxConfig { durability: Some(durability.clone()), ..VeloxConfig::single_node() };

        let (velox, _) = boot_with(config.clone());
        register(&velox);
        observe_n(&velox, 0, 12);
        let stats = velox.stats();
        assert_eq!(stats.durability.wal_appends, 12);
        if expect_fsyncs {
            assert_eq!(stats.durability.wal_fsyncs, 12, "{policy:?}: one sync per append");
        } else {
            assert_eq!(stats.durability.wal_fsyncs, 0, "{policy:?}: no explicit syncs");
        }
        drop(velox);

        // A clean close flushes either way; everything comes back.
        let (_revived, report) = boot_with(config);
        assert_eq!(report.replayed, 12, "{policy:?}");
    }
}

/// (7) Replay takes records only while their offsets continue the log's
/// sequence exactly: a WAL segment lost from the middle leaves readable
/// records on the far side of the hole, and recovery must stop at the hole
/// rather than splice them on — then keep serving.
#[test]
fn a_hole_in_the_wal_stops_replay_at_the_hole() {
    let scratch = ScratchDir::new("dur-hole");
    let state = scratch.join("state");
    let mut durability = DurabilityConfig::new(state.clone());
    durability.wal_segment_bytes = (16 + 2 * 40) as u64; // two records per segment
    let config = VeloxConfig { durability: Some(durability), ..VeloxConfig::single_node() };

    let (velox, _) = boot_with(config.clone());
    register(&velox);
    observe_n(&velox, 0, 6);
    drop(velox);

    let mut segments: Vec<PathBuf> = fs::read_dir(state.join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 3, "six records, two per segment: {segments:?}");
    fs::remove_file(&segments[1]).expect("lose the middle segment");

    let (revived, report) = boot_with(config);
    assert_eq!(report.replayed, 2, "records 0 and 1; 4 and 5 lie past the hole");
    assert_eq!(revived.stats().observations, 2);
    register(&revived);
    revived.observe(1, &Item::Id(0), 0.5).expect("observe after the hole");
    assert_eq!(revived.stats().observations, 3);
}

/// (8) Log before apply: an observation whose WAL append fails returns
/// `Err` and has taken no effect — no fold into the user's `A⁻¹`, no new
/// serving weights, no new score, nothing queued for redo — so a client
/// that retries it applies it once. The WAL is made to fail by giving it
/// one-record segments and replacing its directory with a regular file, so
/// the next append's rotation cannot create a segment.
#[test]
fn an_observation_the_wal_refuses_takes_no_effect() {
    let scratch = ScratchDir::new("dur-refused");
    let state = scratch.join("state");
    let mut durability = DurabilityConfig::new(state.clone());
    durability.wal_segment_bytes = 16 + 40; // a header and one record
    let (velox, _) =
        boot_with(VeloxConfig { durability: Some(durability), ..VeloxConfig::single_node() });
    register(&velox);
    observe_n(&velox, 0, 6);

    fs::remove_dir_all(state.join("wal")).expect("remove the wal directory");
    fs::write(state.join("wal"), b"not a directory").expect("put a file in its place");

    let (uid, probe) = (1, Item::Id(3));
    let user = |velox: &Velox| {
        let a_inv = velox.user_store().read(uid, |s| s.packed_a_inv().to_vec()).expect("state");
        let a_inv: Vec<u64> = a_inv.iter().map(|v| v.to_bits()).collect();
        let weights = velox.user_weights(uid).expect("weights");
        let weights: Vec<u64> = weights.iter().map(|v| v.to_bits()).collect();
        let score = velox.predict(uid, &probe).expect("predict").score.to_bits();
        (a_inv, weights, score, velox.stats().redo.pending)
    };
    let before = user(&velox);
    assert!(velox.observe(uid, &Item::Id(5), 0.7).is_err(), "the WAL refused the record");
    assert_eq!(user(&velox), before, "a refused observation changed the user");
    assert_eq!(velox.stats().observations, 6);

    // The same rule on the outage path: a deferred observation is logged
    // before it is queued.
    velox.kill_node(0);
    assert!(velox.observe(uid, &Item::Id(5), 0.7).is_err(), "the WAL refused the deferral");
    let redo = velox.stats().redo;
    assert_eq!((redo.pending, redo.buffered), (0, 0), "a refused deferral was queued");
}

/// (9) One log, two kinds of entry: a durable deployment logs catalog
/// items through the WAL and raw payloads in memory only. After a restart
/// exactly the catalog records replay, at dense timestamps, and a retrain
/// on the recovered log succeeds.
#[test]
fn only_catalog_records_replay_and_the_recovered_log_retrains() {
    let scratch = ScratchDir::new("dur-mixed");
    let state = scratch.join("state");
    let (velox, _) = boot(&state);
    register(&velox);
    let mut catalog = Vec::new();
    for i in 0..12u64 {
        let (uid, y) = (i % 4, (i as f64 * 0.31).cos());
        if i % 3 == 0 {
            let raw = Item::Raw(Vector::from_vec(vec![0.1 * i as f64, -0.2]));
            velox.observe(uid, &raw, y).expect("observe raw");
        } else {
            velox.observe(uid, &Item::Id(i % ITEMS), y).expect("observe catalog");
            catalog.push((uid, i % ITEMS, y.to_bits()));
        }
    }
    let log = velox.observation_log();
    assert_eq!((log.len(), log.positions()), (8, 12), "8 catalog records among 12 entries");
    assert_eq!(velox.stats().observations, 8);
    drop(velox);

    let (revived, report) = boot(&state);
    assert_eq!(report.replayed, 8, "exactly the catalog records replay");
    let log = revived.observation_log();
    assert_eq!((log.len(), log.positions()), (8, 8), "raw payloads never reach the disk");
    let replayed: Vec<(u64, u64, u64)> = log
        .read_all()
        .iter()
        .enumerate()
        .map(|(i, o)| {
            assert_eq!(o.timestamp, i as u64, "timestamps stay dense");
            (o.uid, o.item_id, o.y.to_bits())
        })
        .collect();
    assert_eq!(replayed, catalog);
    register(&revived);
    assert_eq!(revived.retrain_offline().expect("retrain on the recovered log"), 2);
}
