//! Append-only observation log.
//!
//! Every `observe(uid, item, label)` call (paper §4.1) does two things:
//! trigger an online update, and durably record the observation "for use by
//! Spark when retraining the model offline". This module is that record: a
//! segmented, append-only, concurrently-readable log. Offline retraining
//! reads from offset 0; the evaluator tails new entries; nothing is ever
//! rewritten in place.
//!
//! ## Committed prefix
//!
//! Offsets are handed out by a fetch-add, so two threads can land their
//! slots out of order: offset 7's write may finish before offset 6's. A
//! slot only becomes *committed* — visible to readers — once every earlier
//! slot in the log is filled too. Readers ([`read_from`]) therefore see a
//! dense, gap-free prefix and can never observe an in-flight placeholder
//! (the historical bug here was `resize`-with-default placeholders that a
//! concurrent reader could return as real zero-valued records).
//!
//! ## Durability
//!
//! Optionally, a [`Wal`] can be attached: [`try_append`] then writes the
//! record to disk (honoring the WAL's fsync policy) *before* making it
//! visible in memory, so an acknowledged observation survives a process
//! crash. Appends on a durable log are serialized by the WAL mutex, which
//! keeps the on-disk order identical to the offset order.
//!
//! [`read_from`]: ObservationLog::read_from
//! [`try_append`]: ObservationLog::try_append

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

/// Entries per segment. Segments let long logs be scanned without holding a
/// lock across the whole history: readers lock one segment at a time.
const SEGMENT_SIZE: usize = 4096;

/// One segment: optional slots (None = reserved but not yet written) plus
/// the length of its committed (gap-free) prefix.
struct Segment {
    slots: Vec<Option<Observation>>,
    committed: usize,
}

impl Segment {
    fn new() -> Self {
        Segment { slots: Vec::with_capacity(SEGMENT_SIZE), committed: 0 }
    }
}

/// An append-only, segmented, concurrently-readable observation log, with
/// optional write-ahead durability.
pub struct ObservationLog {
    segments: RwLock<Vec<RwLock<Segment>>>,
    next_offset: AtomicU64,
    /// Per-append wall-clock latency (ns), exposable through a registry.
    append_latency: Arc<Histogram>,
    /// Attached write-ahead log; when present, [`try_append`] persists
    /// records before exposing them (and serializes appends).
    ///
    /// [`try_append`]: ObservationLog::try_append
    wal: Mutex<Option<Wal>>,
}

impl ObservationLog {
    /// Creates an empty, memory-only log.
    pub fn new() -> Self {
        ObservationLog {
            segments: RwLock::new(vec![RwLock::new(Segment::new())]),
            next_offset: AtomicU64::new(0),
            append_latency: Arc::new(Histogram::new()),
            wal: Mutex::new(None),
        }
    }

    /// Shared handle to the append-latency histogram, so a metrics
    /// registry can expose the same atomics this log records into.
    pub fn append_latency_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.append_latency)
    }

    /// Places `obs` into its slot and advances the segment's committed
    /// frontier over any now-contiguous run.
    fn insert(&self, offset: u64, obs: Observation) {
        let seg_idx = (offset as usize) / SEGMENT_SIZE;
        loop {
            {
                let segments = self.segments.read().unwrap();
                if let Some(seg) = segments.get(seg_idx) {
                    let mut seg = seg.write().unwrap();
                    let local = (offset as usize) % SEGMENT_SIZE;
                    if seg.slots.len() <= local {
                        seg.slots.resize(local + 1, None);
                    }
                    seg.slots[local] = Some(obs);
                    while seg.committed < seg.slots.len() && seg.slots[seg.committed].is_some() {
                        seg.committed += 1;
                    }
                    return;
                }
            }
            // Need a new segment; take the outer write lock and extend.
            let mut segments = self.segments.write().unwrap();
            while segments.len() <= seg_idx {
                segments.push(RwLock::new(Segment::new()));
            }
        }
    }

    /// Appends an observation in memory only, assigning and returning its
    /// offset (which doubles as its logical timestamp). Durable logs (a
    /// WAL attached) must go through [`try_append`](Self::try_append)
    /// instead — this path never touches disk.
    pub fn append(&self, uid: u64, item_id: u64, y: f64) -> u64 {
        let timer = Timer::start();
        let offset = self.next_offset.fetch_add(1, Ordering::SeqCst);
        self.insert(offset, Observation { uid, item_id, y, timestamp: offset });
        timer.observe(&self.append_latency);
        offset
    }

    /// Appends an observation, writing it to the attached WAL (and
    /// syncing, per the WAL's fsync policy) *before* making it readable.
    /// Without an attached WAL this is exactly [`append`](Self::append).
    /// On an I/O error nothing becomes visible and the offset reservation
    /// is rolled back.
    pub fn try_append(&self, uid: u64, item_id: u64, y: f64) -> Result<u64> {
        let mut wal = self.wal.lock().unwrap();
        let Some(w) = wal.as_mut() else {
            drop(wal);
            return Ok(self.append(uid, item_id, y));
        };
        let timer = Timer::start();
        let offset = self.next_offset.fetch_add(1, Ordering::SeqCst);
        let obs = Observation { uid, item_id, y, timestamp: offset };
        if let Err(e) = w.append(&obs) {
            // Appends on a durable log are serialized by the wal mutex, so
            // nothing can have raced past the reservation; roll it back.
            let _ = self.next_offset.compare_exchange(
                offset + 1,
                offset,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            return Err(e);
        }
        self.insert(offset, obs);
        timer.observe(&self.append_latency);
        Ok(offset)
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

    /// Number of offsets handed out (includes in-flight appends).
    pub fn len(&self) -> u64 {
        self.next_offset.load(Ordering::SeqCst)
    }

    /// Length of the committed (reader-visible, gap-free) prefix. Equal to
    /// [`len`](Self::len) whenever no append is mid-flight.
    pub fn committed_len(&self) -> u64 {
        let segments = self.segments.read().unwrap();
        let mut total = 0u64;
        for seg in segments.iter() {
            let seg = seg.read().unwrap();
            total += seg.committed as u64;
            if seg.committed < SEGMENT_SIZE {
                break;
            }
        }
        total
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads up to `max` observations starting at `from_offset`, in offset
    /// order. Returns fewer than `max` at the log head. Only the committed
    /// prefix is readable: the scan stops at the first in-flight slot, so
    /// a reader never observes a torn or placeholder entry.
    pub fn read_from(&self, from_offset: u64, max: usize) -> Vec<Observation> {
        let end = self.len().min(from_offset.saturating_add(max as u64));
        let mut out = Vec::with_capacity((end.saturating_sub(from_offset)) as usize);
        let segments = self.segments.read().unwrap();
        let mut offset = from_offset;
        while offset < end {
            let seg_idx = (offset as usize) / SEGMENT_SIZE;
            let Some(seg) = segments.get(seg_idx) else { break };
            let seg = seg.read().unwrap();
            let local_start = (offset as usize) % SEGMENT_SIZE;
            let local_end = (SEGMENT_SIZE).min(local_start + (end - offset) as usize);
            let avail_end = local_end.min(seg.committed);
            if avail_end <= local_start {
                break;
            }
            for slot in &seg.slots[local_start..avail_end] {
                out.push(slot.clone().expect("committed prefix has no holes"));
            }
            if avail_end < local_end {
                break; // hit the committed frontier mid-segment
            }
            offset += (avail_end - local_start) as u64;
        }
        out
    }

    /// Reads the entire committed log (used by offline retraining).
    pub fn read_all(&self) -> Vec<Observation> {
        self.read_from(0, self.len() as usize)
    }

    /// All observations for one user, in arrival order. O(len) scan — used
    /// by model reconstruction (rebuilding a user's sufficient statistics
    /// after a feature-parameter change), which is an offline-path
    /// operation.
    pub fn read_user(&self, uid: u64) -> Vec<Observation> {
        self.read_all().into_iter().filter(|o| o.uid == uid).collect()
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

    #[test]
    fn append_assigns_dense_offsets() {
        let log = ObservationLog::new();
        assert!(log.is_empty());
        assert_eq!(log.append(1, 100, 4.5), 0);
        assert_eq!(log.append(2, 200, 3.0), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.committed_len(), 2);
    }

    #[test]
    fn read_from_respects_offset_and_max() {
        let log = ObservationLog::new();
        for i in 0..10 {
            log.append(i, i * 10, i as f64);
        }
        let chunk = log.read_from(3, 4);
        assert_eq!(chunk.len(), 4);
        assert_eq!(chunk[0].uid, 3);
        assert_eq!(chunk[3].uid, 6);
        assert_eq!(chunk[0].timestamp, 3);
        // Reading past the end returns what exists.
        assert_eq!(log.read_from(8, 100).len(), 2);
        assert!(log.read_from(100, 10).is_empty());
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
    fn read_user_filters() {
        let log = ObservationLog::new();
        log.append(1, 10, 1.0);
        log.append(2, 20, 2.0);
        log.append(1, 30, 3.0);
        let user1 = log.read_user(1);
        assert_eq!(user1.len(), 2);
        assert_eq!(user1[0].item_id, 10);
        assert_eq!(user1[1].item_id, 30);
        assert!(log.read_user(99).is_empty());
    }

    #[test]
    fn spans_multiple_segments() {
        let log = ObservationLog::new();
        let n = (SEGMENT_SIZE * 2 + 100) as u64;
        for i in 0..n {
            log.append(i, i, i as f64);
        }
        assert_eq!(log.len(), n);
        assert_eq!(log.committed_len(), n);
        let all = log.read_all();
        assert_eq!(all.len(), n as usize);
        // Spot-check a cross-segment boundary read.
        let boundary = log.read_from(SEGMENT_SIZE as u64 - 2, 4);
        assert_eq!(boundary.len(), 4);
        for (i, obs) in boundary.iter().enumerate() {
            assert_eq!(obs.timestamp, SEGMENT_SIZE as u64 - 2 + i as u64);
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
        assert_eq!(log.committed_len(), 16000);
        let all = log.read_all();
        assert_eq!(all.len(), 16000);
        // Offsets are dense and in order; no placeholder slots remain.
        for (i, obs) in all.iter().enumerate() {
            assert_eq!(obs.timestamp, i as u64);
            assert!(obs.uid < 8);
        }
    }

    /// Regression test for the placeholder hazard: when a later offset
    /// lands before an earlier one, readers must see *neither* until the
    /// gap fills (the old implementation resized with default-valued
    /// placeholder records that a concurrent reader could return).
    #[test]
    fn in_flight_gaps_are_invisible_to_readers() {
        let log = ObservationLog::new();
        // Simulate thread B (offset 1) landing before thread A (offset 0).
        log.next_offset.store(2, Ordering::SeqCst);
        log.insert(1, Observation { uid: 9, item_id: 90, y: 9.0, timestamp: 1 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.committed_len(), 0);
        assert!(log.read_from(0, 10).is_empty(), "gap at offset 0 must hide offset 1");
        assert!(log.read_from(1, 10).is_empty(), "offset 1 is not committed yet");
        assert!(log.read_all().is_empty());
        // The straggler lands; both records become visible atomically.
        log.insert(0, Observation { uid: 5, item_id: 50, y: 5.0, timestamp: 0 });
        assert_eq!(log.committed_len(), 2);
        let all = log.read_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].uid, 5);
        assert_eq!(all[1].uid, 9);
    }

    /// A concurrent tail reader must never see placeholder values or
    /// out-of-order timestamps while appenders are racing.
    #[test]
    fn concurrent_reader_never_sees_placeholders() {
        let log = Arc::new(ObservationLog::new());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let log = Arc::clone(&log);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let tail = log.read_from(0, usize::MAX);
                    for (i, obs) in tail.iter().enumerate() {
                        assert_eq!(obs.timestamp, i as u64, "hole surfaced to a reader");
                        assert_ne!(obs.uid, u64::MAX, "placeholder surfaced to a reader");
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
        assert_eq!(log.committed_len(), 12000);
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
    fn try_append_with_wal_persists_records() {
        use crate::tmp::ScratchDir;
        use crate::wal::{Wal, WalConfig};
        let dir = ScratchDir::new("velox-obslog-wal");
        let log = ObservationLog::new();
        let (wal, _) = Wal::open(WalConfig::new(dir.path())).unwrap();
        log.attach_wal(wal);
        for i in 0..20u64 {
            assert_eq!(log.try_append(i, i * 2, i as f64).unwrap(), i);
        }
        assert_eq!(log.wal_stats().unwrap().appends.get(), 20);
        drop(log);
        let (_, rec) = Wal::open(WalConfig::new(dir.path())).unwrap();
        assert_eq!(rec.records.len(), 20);
        assert_eq!(rec.records[7], Observation { uid: 7, item_id: 14, y: 7.0, timestamp: 7 });
    }
}
