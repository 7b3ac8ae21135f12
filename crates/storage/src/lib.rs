//! # velox-storage
//!
//! In-memory distributed-storage substrate — the Tachyon substitute.
//!
//! The paper deploys Velox's model manager and predictor co-located with
//! Tachyon workers and uses Tachyon as the system of record for user weight
//! vectors `W`, feature parameters `θ`, and the stream of observations used
//! for offline retraining (§3, Figure 2). This crate rebuilds that storage
//! layer with the same operational surface:
//!
//! - [`kv::Namespace`]: a sharded, concurrently-accessible,
//!   **versioned** key–value table. Its contents can be swapped
//!   atomically for a retrained copy (the paper's "incrementing the version
//!   and transparently upgrading incoming requests").
//! - [`obslog::ObservationLog`]: the append-only log of `observe()` calls
//!   (catalog items WAL-backed, raw payloads in memory), which is what the
//!   batch retraining jobs consume ("the observation is written to Tachyon
//!   for use by Spark when retraining the model offline", §4.1).
//! - [`lru::LruCache`]: a constant-time LRU with hit/miss instrumentation —
//!   the building block for the predictor's feature and prediction caches
//!   (§5) and for per-node hot-item caches in the cluster simulator.
//! - [`codec`]: a compact self-describing binary codec (on the in-repo
//!   [`bytes`] shim — the workspace is std-only) used to snapshot and
//!   restore tables, standing in for Tachyon's persistence. Every blob
//!   carries a CRC-32 footer ([`crc`]) so corruption is detected, never
//!   decoded.
//! - [`wal::Wal`] and [`checkpoint::CheckpointStore`]: the durable half of
//!   the Tachyon substitute — a segmented, CRC-checksummed write-ahead log
//!   of observations plus atomic-rename checkpoints of deployment
//!   snapshots, so a process crash loses nothing that was acknowledged
//!   (see DESIGN.md "Durability").
//!
//! Everything is in-process and thread-safe; the *distribution* of storage
//! across nodes (partitioning, routing, remote-read costs) is modelled one
//! level up in `velox-cluster`, which composes these primitives per node.

#![warn(missing_docs)]

pub mod bytes;
pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod kv;
pub mod lru;
pub mod obslog;
pub mod tmp;
pub mod wal;

pub use checkpoint::{CheckpointData, CheckpointStore};
pub use crc::{crc32, crc32_begin, crc32_feed, crc32_finish};
pub use kv::Namespace;
pub use lru::LruCache;
pub use obslog::{LogEntry, Observation, ObservationLog};
pub use tmp::ScratchDir;
pub use wal::{FsyncPolicy, Wal, WalAppendTiming, WalConfig, WalRecovery, WalStats};

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A snapshot/restore payload failed to decode.
    Corrupt(String),
    /// A filesystem operation on the durable state (WAL, checkpoint)
    /// failed. Carries the formatted OS error — `std::io::Error` is not
    /// `Clone`/`Eq`, which this enum needs to stay.
    Io(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            StorageError::Io(what) => write!(f, "durable-state io error: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
