//! Append-only observation log.
//!
//! Every `observe(uid, item, label)` call (paper §4.1) does two things:
//! trigger an online update, and durably record the observation "for use by
//! Spark when retraining the model offline". This module is that record —
//! the only one a deployment keeps: a segmented, append-only,
//! concurrently-readable log. Offline retraining scans it from the start,
//! the post-retrain replay scans the stretch that arrived while training
//! ran; nothing is ever rewritten in place.
//!
//! ## Two kinds of entry
//!
//! A catalog item's observation ([`LogEntry::Catalog`]) carries an
//! [`Observation`] whose `timestamp` is its *offset*: its index among the
//! catalog entries alone, dense from 0, and its index in the WAL. A
//! raw-payload item has no id to record, so its entry ([`LogEntry::Raw`])
//! carries the item's attributes and lives in memory only — never in the
//! WAL, never in a checkpoint. Both kinds share one arrival order,
//! addressed by *position*: [`len`] counts offsets, [`positions`] every
//! entry.
//!
//! ## Appends
//!
//! One mutex serializes appends and holds the optional [`Wal`]. A durable
//! append ([`try_append`]) writes the record to disk (honoring the WAL's
//! fsync policy) *before* the entry becomes readable, so an acknowledged
//! observation survives a process crash and the on-disk order is the
//! offset order; a failed write leaves the log as it was. Because appends
//! fill positions in order, every position below [`positions`] is readable:
//! a reader never meets a hole. Readers lock one segment at a time.
//!
//! [`len`]: ObservationLog::len
//! [`positions`]: ObservationLog::positions
//! [`try_append`]: ObservationLog::try_append

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use velox_obs::{Histogram, Timer};

use crate::wal::{Wal, WalStats};
use crate::Result;

/// One recorded interaction: user `uid` gave item `item_id` the label `y`
/// (a rating, a click indicator, etc.) at logical time `timestamp`.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// User identifier.
    pub uid: u64,
    /// Item identifier.
    pub item_id: u64,
    /// Supervised label (rating / click).
    pub y: f64,
    /// Logical timestamp assigned by the log at append time (monotonically
    /// increasing; equals the observation's log offset).
    pub timestamp: u64,
}

/// One log entry, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// A catalog item's observation, WAL-backed when a WAL is attached.
    Catalog(Observation),
    /// A raw-payload item's observation: memory only.
    Raw {
        /// User identifier.
        uid: u64,
        /// The item's attributes, as observed.
        attrs: Box<[f64]>,
        /// Supervised label.
        y: f64,
    },
}

/// Entries per segment. Segments let long logs be scanned without holding a
/// lock across the whole history: readers lock one segment at a time.
const SEGMENT_SIZE: usize = 4096;

/// An append-only, segmented, concurrently-readable observation log, with
/// optional write-ahead durability.
pub struct ObservationLog {
    /// Full segments, then the one being filled; none before the first
    /// append.
    segments: RwLock<Vec<RwLock<Vec<LogEntry>>>>,
    /// Entries appended; moves only under `wal`.
    positions: AtomicU64,
    /// Catalog entries appended (the next offset); moves only under `wal`.
    offsets: AtomicU64,
    /// Per-append wall-clock latency (ns), exposable through a registry.
    append_latency: Arc<Histogram>,
    /// Serializes appends. When a WAL is attached, [`try_append`] persists
    /// records through it before exposing them.
    ///
    /// [`try_append`]: ObservationLog::try_append
    wal: Mutex<Option<Wal>>,
}

impl ObservationLog {
    /// Creates an empty, memory-only log. Allocates no segment until the
    /// first append.
    pub fn new() -> Self {
        ObservationLog {
            segments: RwLock::new(Vec::new()),
            positions: AtomicU64::new(0),
            offsets: AtomicU64::new(0),
            append_latency: Arc::new(Histogram::new()),
            wal: Mutex::new(None),
        }
    }

    /// Shared handle to the append-latency histogram, so a metrics
    /// registry can expose the same atomics this log records into.
    pub fn append_latency_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.append_latency)
    }

    /// Places `entry` at the next position. The caller holds `wal`, so
    /// positions fill in order and a position is published only once its
    /// entry is in place.
    fn push(&self, entry: LogEntry) {
        let pos = self.positions.load(Ordering::Relaxed) as usize;
        if pos.is_multiple_of(SEGMENT_SIZE) {
            let segment = RwLock::new(Vec::with_capacity(SEGMENT_SIZE));
            self.segments.write().unwrap().push(segment);
        }
        self.segments.read().unwrap()[pos / SEGMENT_SIZE].write().unwrap().push(entry);
        self.positions.store(pos as u64 + 1, Ordering::Release);
    }

    /// Appends a catalog observation to a memory-only log, assigning and
    /// returning its offset (which doubles as its logical timestamp). A
    /// durable log (a WAL attached) goes through
    /// [`try_append`](Self::try_append), which reports a failed write
    /// instead of panicking on it.
    pub fn append(&self, uid: u64, item_id: u64, y: f64) -> u64 {
        self.try_append(uid, item_id, y).expect("a WAL write failed: use try_append")
    }

    /// Appends a catalog observation, writing it to the attached WAL (and
    /// syncing, per the WAL's fsync policy) *before* making it readable,
    /// and returns its offset. On an I/O error nothing becomes visible and
    /// no offset is used.
    pub fn try_append(&self, uid: u64, item_id: u64, y: f64) -> Result<u64> {
        let timer = Timer::start();
        let mut wal = self.wal.lock().unwrap();
        let offset = self.offsets.load(Ordering::Relaxed);
        let obs = Observation { uid, item_id, y, timestamp: offset };
        if let Some(w) = wal.as_mut() {
            w.append(&obs)?;
        }
        self.push(LogEntry::Catalog(obs));
        self.offsets.store(offset + 1, Ordering::Release);
        drop(wal);
        timer.observe(&self.append_latency);
        Ok(offset)
    }

    /// Appends a raw-payload observation. It takes a position but no
    /// offset, and never reaches the WAL.
    pub fn append_raw(&self, uid: u64, attrs: Box<[f64]>, y: f64) {
        let timer = Timer::start();
        let wal = self.wal.lock().unwrap();
        self.push(LogEntry::Raw { uid, attrs, y });
        drop(wal);
        timer.observe(&self.append_latency);
    }

    /// Attaches a write-ahead log. Subsequent
    /// [`try_append`](Self::try_append) calls persist through it.
    pub fn attach_wal(&self, wal: Wal) {
        *self.wal.lock().unwrap() = Some(wal);
    }

    /// Detaches and returns the WAL (syncing it first), leaving the log
    /// memory-only. Used when an instance is being replaced so the new
    /// process can take over the files.
    pub fn detach_wal(&self) -> Option<Wal> {
        let mut guard = self.wal.lock().unwrap();
        if let Some(w) = guard.as_mut() {
            let _ = w.sync();
        }
        guard.take()
    }

    /// Runs `f` against the attached WAL, if any. The WAL mutex is held
    /// for the duration, so `f` must not append to this log.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> Option<R> {
        self.wal.lock().unwrap().as_mut().map(f)
    }

    /// Shared WAL counters for registry adoption (None when memory-only).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.lock().unwrap().as_ref().map(|w| w.stats())
    }

    /// Catalog observations appended: the next offset.
    pub fn len(&self) -> u64 {
        self.offsets.load(Ordering::Acquire)
    }

    /// True when no catalog observation has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries of either kind appended: the next position.
    pub fn positions(&self) -> u64 {
        self.positions.load(Ordering::Acquire)
    }

    /// Calls `f` on the entries at `range` (positions, clipped to the log
    /// head) in arrival order, holding one segment's read lock at a time:
    /// an append waits for at most one segment's worth of `f`.
    pub fn scan(&self, range: Range<u64>, mut f: impl FnMut(&LogEntry)) {
        let end = range.end.min(self.positions()) as usize;
        let mut pos = range.start as usize;
        while pos < end {
            let segments = self.segments.read().unwrap();
            let from = pos % SEGMENT_SIZE;
            let to = SEGMENT_SIZE.min(from + (end - pos));
            segments[pos / SEGMENT_SIZE].read().unwrap()[from..to].iter().for_each(&mut f);
            pos += to - from;
        }
    }

    /// Every catalog observation, in offset order — what a checkpoint
    /// stores.
    pub fn read_all(&self) -> Vec<Observation> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.scan(0..u64::MAX, |entry| {
            if let LogEntry::Catalog(obs) = entry {
                out.push(obs.clone());
            }
        });
        out
    }
}

impl Default for ObservationLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    fn scan_all(log: &ObservationLog, range: Range<u64>) -> Vec<LogEntry> {
        let mut out = Vec::new();
        log.scan(range, |e| out.push(e.clone()));
        out
    }

    #[test]
    fn append_assigns_dense_offsets() {
        let log = ObservationLog::new();
        assert!(log.is_empty());
        assert_eq!(log.append(1, 100, 4.5), 0);
        assert_eq!(log.append(2, 200, 3.0), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.positions(), 2);
    }

    #[test]
    fn a_fresh_log_allocates_no_segment() {
        let log = ObservationLog::new();
        assert!(log.segments.read().unwrap().is_empty());
        assert!(scan_all(&log, 0..10).is_empty());
        log.append(1, 2, 3.0);
        assert_eq!(log.segments.read().unwrap().len(), 1);
    }

    #[test]
    fn scan_respects_the_range_and_the_head() {
        let log = ObservationLog::new();
        for i in 0..10 {
            log.append(i, i * 10, i as f64);
        }
        let chunk = scan_all(&log, 3..7);
        assert_eq!(chunk.len(), 4);
        assert_eq!(
            chunk[0],
            LogEntry::Catalog(Observation { uid: 3, item_id: 30, y: 3.0, timestamp: 3 })
        );
        // Reading past the end returns what exists.
        assert_eq!(scan_all(&log, 8..100).len(), 2);
        assert!(scan_all(&log, 100..110).is_empty());
    }

    #[test]
    fn read_all_round_trips() {
        let log = ObservationLog::new();
        log.append(7, 77, 1.5);
        log.append(8, 88, -0.5);
        let all = log.read_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], Observation { uid: 8, item_id: 88, y: -0.5, timestamp: 1 });
    }

    #[test]
    fn raw_entries_take_positions_but_no_offsets() {
        let log = ObservationLog::new();
        log.append(1, 10, 1.0);
        log.append_raw(2, vec![0.5, -0.5].into(), 2.0);
        assert_eq!(log.append(3, 30, 3.0), 1, "offsets stay dense over catalog entries");
        assert_eq!((log.len(), log.positions()), (2, 3));
        let entries = scan_all(&log, 0..3);
        assert_eq!(entries[1], LogEntry::Raw { uid: 2, attrs: vec![0.5, -0.5].into(), y: 2.0 });
        let catalog = log.read_all();
        assert_eq!(
            catalog.iter().map(|o| (o.uid, o.timestamp)).collect::<Vec<_>>(),
            [(1, 0), (3, 1)]
        );
    }

    #[test]
    fn spans_multiple_segments() {
        let log = ObservationLog::new();
        let n = (SEGMENT_SIZE * 2 + 100) as u64;
        for i in 0..n {
            log.append(i, i, i as f64);
        }
        assert_eq!(log.len(), n);
        assert_eq!(log.read_all().len(), n as usize);
        // Spot-check a cross-segment boundary read.
        let start = SEGMENT_SIZE as u64 - 2;
        let boundary = scan_all(&log, start..start + 4);
        assert_eq!(boundary.len(), 4);
        for (i, entry) in boundary.iter().enumerate() {
            let LogEntry::Catalog(obs) = entry else { panic!("catalog entries only") };
            assert_eq!(obs.timestamp, start + i as u64);
        }
    }

    #[test]
    fn concurrent_appends_preserve_density() {
        let log = Arc::new(ObservationLog::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(thread::spawn(move || {
                for i in 0..2000u64 {
                    log.append(t, i, (t * i) as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 16000);
        let all = log.read_all();
        assert_eq!(all.len(), 16000);
        // Offsets are dense and in order.
        for (i, obs) in all.iter().enumerate() {
            assert_eq!(obs.timestamp, i as u64);
            assert!(obs.uid < 8);
        }
    }

    /// A concurrent tail reader must never see a hole or out-of-order
    /// timestamps while appenders are racing.
    #[test]
    fn concurrent_reader_sees_a_dense_prefix() {
        let log = Arc::new(ObservationLog::new());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let log = Arc::clone(&log);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (i, obs) in log.read_all().iter().enumerate() {
                        assert_eq!(obs.timestamp, i as u64, "hole surfaced to a reader");
                    }
                }
            })
        };
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(thread::spawn(move || {
                for i in 0..3000u64 {
                    log.append(t, i, 1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(log.len(), 12000);
    }

    #[test]
    fn try_append_without_wal_behaves_like_append() {
        let log = ObservationLog::new();
        assert_eq!(log.try_append(1, 2, 3.0).unwrap(), 0);
        assert_eq!(log.try_append(4, 5, 6.0).unwrap(), 1);
        assert_eq!(log.read_all().len(), 2);
        assert!(log.wal_stats().is_none());
    }

    #[test]
    fn try_append_with_wal_persists_catalog_records_only() {
        use crate::tmp::ScratchDir;
        use crate::wal::{Wal, WalConfig};
        let dir = ScratchDir::new("velox-obslog-wal");
        let log = ObservationLog::new();
        let (wal, _) = Wal::open(WalConfig::new(dir.path())).unwrap();
        log.attach_wal(wal);
        for i in 0..20u64 {
            assert_eq!(log.try_append(i, i * 2, i as f64).unwrap(), i);
            log.append_raw(i, vec![i as f64].into(), 0.5);
        }
        assert_eq!(log.wal_stats().unwrap().appends.get(), 20);
        drop(log);
        let (_, rec) = Wal::open(WalConfig::new(dir.path())).unwrap();
        assert_eq!(rec.records.len(), 20);
        assert_eq!(rec.records[7], Observation { uid: 7, item_id: 14, y: 7.0, timestamp: 7 });
    }

    /// A WAL write that fails leaves no entry, no offset and no position
    /// behind: the next append takes the same offset.
    #[test]
    fn a_failed_wal_append_leaves_the_log_unchanged() {
        use crate::tmp::ScratchDir;
        use crate::wal::{Wal, WalConfig};
        let dir = ScratchDir::new("velox-obslog-wal-fail");
        let wal_dir = dir.path().join("wal");
        let mut config = WalConfig::new(&wal_dir);
        config.segment_max_bytes = (crate::wal::HEADER_LEN + crate::wal::RECORD_LEN) as u64;
        let (wal, _) = Wal::open(config).unwrap();
        let log = ObservationLog::new();
        log.attach_wal(wal);
        assert_eq!(log.try_append(1, 1, 1.0).unwrap(), 0);
        // The next record needs a new segment, and its directory is gone.
        std::fs::remove_dir_all(&wal_dir).unwrap();
        std::fs::write(&wal_dir, b"not a directory").unwrap();
        assert!(log.try_append(2, 2, 2.0).is_err());
        assert_eq!((log.len(), log.positions()), (1, 1));
        assert_eq!(log.read_all().len(), 1);
        log.detach_wal();
        assert_eq!(log.append(3, 3, 3.0), 1, "the failed append used no offset");
    }
}
