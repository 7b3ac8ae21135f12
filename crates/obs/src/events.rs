//! Structured lifecycle events: a bounded ring of "what the system did".
//!
//! Velox's model lifecycle (§4.2, §6) is a sequence of discrete,
//! operationally interesting transitions — a retrain started, a version
//! was swapped in, a deployment rolled back, staleness tripped. Counters
//! tell you *how many*; this log tells you *which, when, and with what*.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// The kinds of lifecycle transitions Velox records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A retrained (or rolled-back) model version was atomically swapped in.
    VersionSwap {
        /// Version being replaced.
        from: u64,
        /// Version now serving.
        to: u64,
    },
    /// An offline retrain began.
    RetrainStart {
        /// Observation-log length at trigger time.
        observations: u64,
    },
    /// An offline retrain finished and its output was published.
    RetrainFinish {
        /// The version the retrain produced.
        version: u64,
        /// Wall-clock duration of the retrain in microseconds.
        duration_us: u64,
    },
    /// The deployment was rolled back to a retained earlier version.
    Rollback {
        /// Version rolled back from.
        from: u64,
        /// Version restored.
        to: u64,
    },
    /// The staleness detector tripped (prequential error drift), which
    /// triggers an automatic retrain.
    StalenessTrip {
        /// Observations seen when the detector fired.
        observations: u64,
    },
    /// The prediction cache was repopulated with hot keys after a swap.
    CacheRepopulation {
        /// Number of cache entries re-primed.
        entries: u64,
    },
    /// A cluster node went down (fault injection or detected failure).
    NodeDown {
        /// The failed node's id.
        node: u64,
    },
    /// A cluster node finished recovery and is serving again.
    NodeRecovered {
        /// The recovered node's id.
        node: u64,
    },
    /// The observe redo queue was drained after an outage ended.
    RedoDrain {
        /// Buffered observations re-applied to the online state.
        applied: u64,
    },
    /// A durable checkpoint of the deployment was written to disk.
    Checkpoint {
        /// Checkpoint sequence number (monotonic per deployment).
        seq: u64,
        /// Observation-log length the checkpoint covers; WAL records at or
        /// past this offset remain replayable.
        wal_offset: u64,
        /// WAL segment files deleted because every retained checkpoint now
        /// covers them.
        wal_segments_removed: u64,
    },
    /// Startup recovery finished: checkpoint loaded (when one existed) and
    /// the WAL tail replayed through the online-update path.
    Recovery {
        /// WAL records replayed on top of the checkpoint.
        replayed: u64,
        /// 1 when the scan stopped at a torn/corrupt record (truncated
        /// cleanly), 0 when every byte on disk was valid.
        torn: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the event type.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::VersionSwap { .. } => "version_swap",
            EventKind::RetrainStart { .. } => "retrain_start",
            EventKind::RetrainFinish { .. } => "retrain_finish",
            EventKind::Rollback { .. } => "rollback",
            EventKind::StalenessTrip { .. } => "staleness_trip",
            EventKind::CacheRepopulation { .. } => "cache_repopulation",
            EventKind::NodeDown { .. } => "node_down",
            EventKind::NodeRecovered { .. } => "node_recovered",
            EventKind::RedoDrain { .. } => "redo_drain",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Recovery { .. } => "recovery",
        }
    }

    /// The event's payload as `(field, value)` pairs — generic enough for
    /// any serializer (the REST layer renders these as JSON numbers).
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::VersionSwap { from, to } => vec![("from", from), ("to", to)],
            EventKind::RetrainStart { observations } => {
                vec![("observations", observations)]
            }
            EventKind::RetrainFinish { version, duration_us } => {
                vec![("version", version), ("duration_us", duration_us)]
            }
            EventKind::Rollback { from, to } => vec![("from", from), ("to", to)],
            EventKind::StalenessTrip { observations } => {
                vec![("observations", observations)]
            }
            EventKind::CacheRepopulation { entries } => vec![("entries", entries)],
            EventKind::NodeDown { node } => vec![("node", node)],
            EventKind::NodeRecovered { node } => vec![("node", node)],
            EventKind::RedoDrain { applied } => vec![("applied", applied)],
            EventKind::Checkpoint { seq, wal_offset, wal_segments_removed } => vec![
                ("seq", seq),
                ("wal_offset", wal_offset),
                ("wal_segments_removed", wal_segments_removed),
            ],
            EventKind::Recovery { replayed, torn } => {
                vec![("replayed", replayed), ("torn", torn)]
            }
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (1-based, never reused, survives ring
    /// eviction — gaps at the front tell you how much history was lost).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at record time.
    pub at_unix_ms: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded ring buffer of [`Event`]s.
///
/// Recording takes a short mutex — lifecycle events happen at human
/// timescales (retrains, rollbacks), never on the per-request path, so a
/// mutex is the right tool. The ring keeps the most recent `capacity`
/// events; older ones fall off the front but their sequence numbers remain
/// allocated.
#[derive(Debug)]
pub struct EventLog {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    next_seq: AtomicU64,
    /// Events evicted from the ring before ever being read — the overflow
    /// counter operators watch to size the ring.
    dropped: AtomicU64,
}

/// Default ring capacity: enough for hundreds of retrain cycles.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

impl Default for EventLog {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// Creates an event log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records an event now. Returns its sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let at_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let event = Event { seq, at_unix_ms, kind };
        let mut ring = self.ring.lock().expect("event ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
        seq
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.ring.lock().expect("event ring poisoned").iter().cloned().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("event ring poisoned").len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }

    /// Events lost to ring overflow (recorded, then evicted to make room).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_sequence() {
        let log = EventLog::new(8);
        log.record(EventKind::RetrainStart { observations: 10 });
        log.record(EventKind::VersionSwap { from: 1, to: 2 });
        let events = log.recent();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[0].kind.name(), "retrain_start");
        assert_eq!(events[1].kind, EventKind::VersionSwap { from: 1, to: 2 });
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_seq() {
        let log = EventLog::new(3);
        for i in 0..10 {
            log.record(EventKind::CacheRepopulation { entries: i });
        }
        let events = log.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 8, "oldest retained is #8 of 10");
        assert_eq!(log.total_recorded(), 10);
        assert_eq!(log.dropped(), 7, "10 recorded − 3 retained = 7 dropped");
    }

    #[test]
    fn dropped_counter_stays_zero_without_overflow() {
        let log = EventLog::new(4);
        log.record(EventKind::RetrainStart { observations: 1 });
        log.record(EventKind::NodeDown { node: 2 });
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn fields_cover_every_variant() {
        let kinds = [
            EventKind::VersionSwap { from: 1, to: 2 },
            EventKind::RetrainStart { observations: 3 },
            EventKind::RetrainFinish { version: 2, duration_us: 50 },
            EventKind::Rollback { from: 2, to: 1 },
            EventKind::StalenessTrip { observations: 9 },
            EventKind::CacheRepopulation { entries: 4 },
            EventKind::NodeDown { node: 1 },
            EventKind::NodeRecovered { node: 1 },
            EventKind::RedoDrain { applied: 3 },
            EventKind::Checkpoint { seq: 1, wal_offset: 100, wal_segments_removed: 2 },
            EventKind::Recovery { replayed: 40, torn: 1 },
        ];
        for k in kinds {
            assert!(!k.name().is_empty());
            assert!(!k.fields().is_empty());
        }
    }

    #[test]
    fn timestamps_are_sane() {
        let log = EventLog::new(2);
        log.record(EventKind::RetrainStart { observations: 0 });
        let e = &log.recent()[0];
        // After 2020, before 2100.
        assert!(e.at_unix_ms > 1_577_836_800_000);
        assert!(e.at_unix_ms < 4_102_444_800_000);
    }
}
