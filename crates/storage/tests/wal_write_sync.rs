//! Writing and syncing as separate steps: records written by concurrent
//! writers and synced outside the writers' lock all come back from
//! `Wal::open`, in write order, and a segment rotation between a write and
//! its sync loses nothing.
//!
//! Each writer assigns its record's timestamp and writes it under one lock
//! (the shape a node's log has), then syncs outside it.

use std::sync::{Arc, Mutex};
use std::thread;

use velox_storage::{FsyncPolicy, Observation, ScratchDir, Wal, WalConfig};

const HEADER_LEN: u64 = 16;
const RECORD_LEN: u64 = 40;

fn obs(writer: u64, i: u64, ts: u64) -> Observation {
    Observation { uid: writer, item_id: i, y: (writer * 1_000 + i) as f64 * 0.5, timestamp: ts }
}

fn open(dir: &std::path::Path, segment_max_bytes: u64) -> (Wal, Vec<Observation>) {
    let mut config = WalConfig::new(dir);
    config.fsync = FsyncPolicy::PerRecord;
    config.segment_max_bytes = segment_max_bytes;
    let (wal, recovery) = Wal::open(config).expect("open wal");
    assert!(recovery.torn.is_none(), "{:?}", recovery.torn);
    (wal, recovery.records)
}

/// `writers` threads each write `per_writer` records and sync after each.
/// Returns every record in write (= timestamp) order.
fn concurrent_writes(wal: &Arc<Wal>, writers: u64, per_writer: u64) -> Vec<Observation> {
    let clock = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..writers)
        .map(|writer| {
            let (wal, clock) = (Arc::clone(wal), Arc::clone(&clock));
            thread::spawn(move || {
                let mut written = Vec::new();
                for i in 0..per_writer {
                    let rec = {
                        let mut ts = clock.lock().unwrap();
                        let rec = obs(writer, i, *ts);
                        *ts += 1;
                        wal.write(&rec).expect("write");
                        rec
                    };
                    wal.sync().expect("sync");
                    written.push(rec);
                }
                written
            })
        })
        .collect();
    let mut all: Vec<Observation> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    all.sort_by_key(|rec| rec.timestamp);
    all
}

#[test]
fn concurrent_writers_syncing_outside_their_lock_lose_nothing() {
    let dir = ScratchDir::new("wal-write-sync");
    let (wal, _) = open(dir.path(), 1 << 20);
    let wal = Arc::new(wal);
    let written = concurrent_writes(&wal, 4, 1_000);

    let stats = wal.stats();
    assert_eq!(stats.appends.get(), 4_000);
    assert_eq!(stats.fsyncs.get(), 4_000, "one fdatasync per sync call");
    drop(wal);

    let (_, recovered) = open(dir.path(), 1 << 20);
    assert_eq!(recovered, written, "the log holds every record, in write order");
}

#[test]
fn a_rotation_between_write_and_sync_loses_nothing() {
    let dir = ScratchDir::new("wal-write-sync");
    let three_records = HEADER_LEN + 3 * RECORD_LEN;
    let (wal, _) = open(dir.path(), three_records);
    wal.sync().unwrap();
    assert_eq!(wal.stats().fsyncs.get(), 0, "nothing written, nothing to sync");
    // Three records wait for a sync when the fourth write rotates: the
    // rotation syncs the closed segment before the new one takes writes.
    for ts in 0..4 {
        wal.write(&obs(0, ts, ts)).unwrap();
    }
    assert_eq!(wal.segment_count(), 2);
    assert_eq!(wal.stats().fsyncs.get(), 1, "rotation synced the closed segment");
    wal.sync().unwrap();
    assert_eq!(wal.stats().fsyncs.get(), 2);
    drop(wal);
    let (_, recovered) = open(dir.path(), three_records);
    assert_eq!(recovered, (0..4).map(|ts| obs(0, ts, ts)).collect::<Vec<_>>());

    // Concurrent writers across many rotations.
    let dir = ScratchDir::new("wal-write-sync");
    let (wal, _) = open(dir.path(), three_records);
    let wal = Arc::new(wal);
    let written = concurrent_writes(&wal, 4, 150);
    assert_eq!(wal.segment_count(), 200);
    drop(wal);
    let (reopened, recovered) = open(dir.path(), three_records);
    assert_eq!(reopened.segment_count(), 200);
    assert_eq!(recovered, written);
}
