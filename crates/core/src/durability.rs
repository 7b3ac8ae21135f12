//! Durable-state configuration and reports.
//!
//! The paper's Velox leans on Tachyon/HDFS for persistence (§3); this
//! workspace's in-memory substitute gets real crash durability from two
//! cooperating on-disk structures in `velox_storage`:
//!
//! - a **write-ahead log** ([`velox_storage::wal`]) that every observation
//!   is appended to — and, under [`FsyncPolicy::PerRecord`], fsynced —
//!   *before* the caller's `observe` is acknowledged, and
//! - periodic **checkpoints** ([`velox_storage::checkpoint`]) of the full
//!   [`DeploymentSnapshot`](crate::DeploymentSnapshot) plus the observation
//!   log, after which the WAL prefix they cover is truncated.
//!
//! Recovery ([`Velox::deploy_durable`](crate::Velox::deploy_durable)) loads
//! the newest valid checkpoint and replays the WAL tail through the same
//! online-update path live observations take, stopping cleanly at the
//! first torn or corrupt record. The contract: **no observation whose
//! `observe` call returned `Ok` is ever lost** (per-record fsync), and
//! recovery never panics on arbitrarily mangled files.
//!
//! This module holds the configuration and the plain-data reports; the
//! methods live on [`Velox`](crate::Velox) itself (they need its
//! internals).

use std::path::PathBuf;

use velox_storage::FsyncPolicy;

/// Configuration of the on-disk durability subsystem.
///
/// Attached to a deployment via
/// [`VeloxConfig::durability`](crate::VeloxConfig); `None` (the default)
/// means memory-only operation, exactly as before.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory for durable state. The WAL lives in `<dir>/wal`,
    /// checkpoints in `<dir>/checkpoints`; both are created on demand.
    pub dir: PathBuf,
    /// When appends reach the platter. [`FsyncPolicy::PerRecord`] is the
    /// only policy under which an acknowledged observation is guaranteed
    /// to survive a crash; the others trade that guarantee for throughput.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub wal_segment_bytes: u64,
    /// Take a checkpoint automatically once this many observations have
    /// accumulated past the last one (0 = manual checkpoints only).
    pub checkpoint_every: u64,
}

/// How many checkpoints are retained on disk: the newest plus one
/// fallback for when the newest is found corrupt. The WAL is truncated
/// only to the offset the *oldest* retained checkpoint covers, so every
/// retained checkpoint stays independently recoverable.
pub(crate) const RETAIN_CHECKPOINTS: usize = 2;
const _: () = assert!(RETAIN_CHECKPOINTS >= 2, "need a fallback checkpoint");

impl DurabilityConfig {
    /// Durability rooted at `dir` with safe defaults: fsync per record,
    /// 1 MiB segments, manual checkpoints.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::PerRecord,
            wal_segment_bytes: 1 << 20,
            checkpoint_every: 0,
        }
    }
}

/// What startup recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint restored from (`None` = fresh
    /// boot, nothing on disk).
    pub checkpoint_seq: Option<u64>,
    /// Observation-log length the checkpoint covered (0 on fresh boot).
    pub checkpoint_wal_offset: u64,
    /// WAL records replayed on top of the checkpoint through the
    /// online-update path.
    pub replayed: u64,
    /// Replayed observations whose online update failed (e.g. their item
    /// vanished from the catalog); the observation itself is preserved in
    /// the log either way.
    pub apply_failures: u64,
    /// Whether the WAL scan stopped at a torn/corrupt record (the tail was
    /// truncated back to the last valid record).
    pub torn: bool,
    /// WAL segments quarantined because a segment *before* them was
    /// corrupt mid-log.
    pub wal_quarantined: u64,
    /// Wall-clock nanoseconds the whole recovery took.
    pub duration_ns: u64,
}

/// What a completed checkpoint wrote and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The checkpoint's sequence number.
    pub seq: u64,
    /// Observation-log length it covers.
    pub wal_offset: u64,
    /// WAL segment files deleted because every retained checkpoint now
    /// covers them.
    pub wal_segments_removed: u64,
    /// Total payload bytes written (before framing).
    pub bytes: usize,
}

/// Durable-state counters surfaced in
/// [`SystemStats`](crate::velox::SystemStats). All zero when durability is
/// disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Whether a WAL + checkpoint store is attached.
    pub enabled: bool,
    /// Checkpoints taken by this instance.
    pub checkpoints: u64,
    /// Sequence number of the newest checkpoint (0 = none yet).
    pub last_checkpoint_seq: u64,
    /// Observation-log length the newest checkpoint covers.
    pub last_checkpoint_wal_offset: u64,
    /// Records appended to the WAL by this instance.
    pub wal_appends: u64,
    /// fsync calls issued by the WAL.
    pub wal_fsyncs: u64,
    /// Live WAL segment files on disk.
    pub wal_segments: u64,
    /// WAL records replayed during this instance's recovery.
    pub recovery_replayed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_favor_safety() {
        let c = DurabilityConfig::new("/tmp/x");
        assert_eq!(c.fsync, FsyncPolicy::PerRecord, "default must be the no-loss policy");
        assert_eq!(c.checkpoint_every, 0, "checkpoints are explicit unless opted in");
    }

    #[test]
    fn stats_default_to_disabled() {
        let s = DurabilityStats::default();
        assert!(!s.enabled);
        assert_eq!(s.wal_appends, 0);
    }
}
