//! The `Migrator` state machine over a scripted fake I/O seam: every
//! branch of the phase sequence, with no cluster underneath.

use std::collections::{HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use velox_cluster::{
    ChunkStep, MembershipError, MigrationIo, MigrationOutcome, Migrator, NodeId, PartitionMap,
    USER_SALT,
};
use velox_obs::Tracer;

/// Plays back scripted chunk steps and replay results, and journals every
/// seam call so tests can assert the exact sequence.
struct FakeIo {
    map: Mutex<Arc<PartitionMap>>,
    down: Mutex<HashSet<NodeId>>,
    chunks: Mutex<VecDeque<ChunkStep>>,
    replays: Mutex<VecDeque<Result<u64, String>>>,
    /// A node that dies while the last scripted chunk is being served.
    dies_with_last_chunk: Option<NodeId>,
    /// When set, every chunk step signals `.0` on entry and then parks
    /// until `.1` yields — how a test holds a migration in flight.
    park: Option<(mpsc::Sender<()>, Mutex<mpsc::Receiver<()>>)>,
    journal: Mutex<Vec<String>>,
}

impl FakeIo {
    /// Three founding members plus joined member 3 (owning nothing).
    fn new(chunks: Vec<ChunkStep>, replays: Vec<Result<u64, String>>) -> Self {
        let map = PartitionMap::bootstrap(3, 2, USER_SALT).unwrap().with_member(3).unwrap();
        FakeIo {
            map: Mutex::new(Arc::new(map)),
            down: Mutex::new(HashSet::new()),
            chunks: Mutex::new(chunks.into()),
            replays: Mutex::new(replays.into()),
            dies_with_last_chunk: None,
            park: None,
            journal: Mutex::new(Vec::new()),
        }
    }

    fn note(&self, call: String) {
        self.journal.lock().unwrap().push(call);
    }

    fn journal(&self) -> Vec<String> {
        self.journal.lock().unwrap().clone()
    }
}

impl MigrationIo for FakeIo {
    fn capacity(&self) -> usize {
        4
    }

    fn node_up(&self, node: NodeId) -> bool {
        !self.down.lock().unwrap().contains(&node)
    }

    fn map(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.map.lock().unwrap())
    }

    fn install_map(&self, map: &Arc<PartitionMap>) {
        self.note(format!("install e{}", map.epoch()));
        *self.map.lock().unwrap() = Arc::clone(map);
    }

    fn stream_chunk(&self, _p: u32, _src: NodeId, _dst: NodeId, cursor: u64) -> ChunkStep {
        self.note(format!("chunk@{cursor}"));
        if let Some((entered, release)) = &self.park {
            entered.send(()).unwrap();
            release.lock().unwrap().recv().unwrap();
        }
        let mut script = self.chunks.lock().unwrap();
        let step = script.pop_front().expect("script exhausted");
        if script.is_empty() {
            self.down.lock().unwrap().extend(self.dies_with_last_chunk);
        }
        step
    }

    fn scrub(&self, _p: u32, dst: NodeId) {
        self.note(format!("scrub {dst}"));
    }

    fn replay_tail(&self, _p: u32, _src: NodeId, _dst: NodeId) -> Result<u64, String> {
        self.note("replay".into());
        self.replays.lock().unwrap().pop_front().expect("replay script exhausted")
    }

    fn finish(&self, _p: u32, dst: NodeId) {
        self.note(format!("finish {dst}"));
    }
}

fn migrator() -> Migrator {
    Migrator::new(None, Tracer::disabled())
}

fn copied(next: u64, users: u64, done: bool) -> ChunkStep {
    ChunkStep::Copied { next, users, done }
}

/// A partition owned by node 0 (the bootstrap map owns `p` at `p % 3`).
const P: u32 = 0;

#[test]
fn commit_walks_the_five_phases_in_order() {
    let io = FakeIo::new(vec![copied(5, 2, false), copied(9, 1, true)], vec![Ok(4), Ok(1)]);
    let m = migrator();
    let e0 = io.map().epoch();
    let status = m.migrate_partition(&io, P, 3).expect("commit");
    assert_eq!(
        io.journal(),
        [
            "chunk@0".to_string(),
            "chunk@5".into(),
            format!("install e{}", e0 + 1),
            "replay".into(),
            format!("install e{}", e0 + 2),
            "replay".into(),
            "finish 3".into(),
        ]
    );
    assert_eq!((status.phase, status.outcome.clone()), ("done", MigrationOutcome::Committed));
    assert_eq!((status.from, status.to), (0, 3));
    assert_eq!((status.epoch_start, status.epoch_end), (e0, e0 + 2));
    assert_eq!((status.users_streamed, status.chunks_streamed, status.records_replayed), (3, 2, 5));
    assert_eq!(io.map().owner_of_partition(P), 3);
    assert!(io.map().replicas_of_partition(P).contains(&0), "old owner stays a replica");
    assert_eq!(m.ledger().len(), 1);
    assert_eq!(m.counters().map(|c| c.get()), [2, 0, 0]);
    assert!(!m.in_flight());
}

#[test]
fn resume_repulls_the_same_cursor_and_a_late_abort_rolls_back() {
    let steps = vec![
        copied(5, 2, false),
        ChunkStep::Resume,
        ChunkStep::Resume,
        ChunkStep::Abort("link gone for good".into()),
    ];
    let io = FakeIo::new(steps, vec![]);
    let m = migrator();
    let e0 = io.map().epoch();
    let err = m.migrate_partition(&io, P, 3).expect_err("abort");
    assert_eq!(err, MembershipError::Aborted("link gone for good".into()));
    assert_eq!(io.journal(), ["chunk@0", "chunk@5", "chunk@5", "chunk@5", "scrub 3"]);
    assert_eq!(io.map().epoch(), e0, "no install before the commit point");
    let ledger = m.ledger();
    assert_eq!((ledger[0].phase, ledger[0].epoch_end), ("aborted", 0));
    assert_eq!((ledger[0].users_streamed, ledger[0].chunks_streamed), (2, 1));
    assert_eq!(m.counters().map(|c| c.get()), [1, 1, 2]);
}

#[test]
fn death_after_the_last_chunk_still_aborts_before_commit() {
    let mut io = FakeIo::new(vec![copied(9, 3, true)], vec![]);
    io.dies_with_last_chunk = Some(3);
    let m = migrator();
    let e0 = io.map().epoch();
    match m.migrate_partition(&io, P, 3) {
        Err(MembershipError::Aborted(reason)) => assert!(reason.contains("destination death")),
        other => panic!("expected the pre-commit check to abort, got {other:?}"),
    }
    assert_eq!(io.journal(), ["chunk@0", "scrub 3"]);
    assert_eq!(io.map().epoch(), e0);
    assert_eq!(io.map().owner_of_partition(P), 0, "source stays authoritative");
}

#[test]
fn failure_past_the_commit_point_is_failed_and_rolls_forward() {
    // Catch-up breaks: the dual-write map stays installed, nothing is
    // scrubbed, and the ledger says `Failed`, not `Aborted`.
    let io = FakeIo::new(vec![copied(9, 3, true)], vec![Err("log pull failed".into())]);
    let m = migrator();
    let e0 = io.map().epoch();
    let err = m.migrate_partition(&io, P, 3).expect_err("failed");
    assert_eq!(err, MembershipError::Failed("log pull failed".into()));
    assert_eq!(
        io.journal(),
        ["chunk@0".to_string(), format!("install e{}", e0 + 1), "replay".into()]
    );
    assert_eq!(io.map().epoch(), e0 + 1);
    assert!(io.map().replicas_of_partition(P).contains(&3), "dual-write replica keeps the data");
    let entry = &m.ledger()[0];
    assert_eq!(entry.phase, "failed");
    assert_eq!(entry.outcome, MigrationOutcome::Failed("log pull failed".into()));
    assert_eq!(m.counters()[1].get(), 0, "a failure is not an abort");

    // Tail replay breaks after the cutover: ownership already moved.
    let io = FakeIo::new(vec![copied(9, 3, true)], vec![Ok(2), Err("log ship failed".into())]);
    let err = m.migrate_partition(&io, P, 3).expect_err("failed");
    assert_eq!(err, MembershipError::Failed("log ship failed".into()));
    assert_eq!(io.map().epoch(), e0 + 2);
    assert_eq!(io.map().owner_of_partition(P), 3);
    assert!(!io.journal().iter().any(|c| c.starts_with("scrub") || c.starts_with("finish")));
    assert!(!m.in_flight(), "a failed migration releases the in-flight flag");
}

#[test]
fn preconditions_are_typed_and_touch_nothing() {
    let io = FakeIo::new(vec![], vec![]);
    let m = migrator();
    let unknown = MembershipError::UnknownNode { node: 9, capacity: 4 };
    assert_eq!(m.migrate_partition(&io, P, 9).unwrap_err(), unknown);
    assert_eq!(m.rebalance_join(&io, 9).unwrap_err(), unknown);
    assert_eq!(m.fail_over_dead(&io, 9).unwrap_err(), unknown);
    assert_eq!(m.fail_over_dead(&io, 1).unwrap_err(), MembershipError::NotDown(1));
    // Migrating a partition to its own owner is a no-op success.
    let status = m.migrate_partition(&io, P, 0).expect("already there");
    assert_eq!((status.phase, status.epoch_end), ("done", status.epoch_start));
    assert!(io.journal().is_empty() && m.ledger().is_empty());
}

#[test]
fn a_second_migration_is_refused_while_one_is_in_flight() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let mut io = FakeIo::new(vec![copied(9, 1, true)], vec![]);
    io.park = Some((entered_tx, Mutex::new(release_rx)));
    let m = migrator();
    std::thread::scope(|scope| {
        let first = scope.spawn(|| m.migrate_partition(&io, P, 3));
        entered_rx.recv().unwrap();
        assert!(m.in_flight());
        assert_eq!(m.migrate_partition(&io, 1, 3).unwrap_err(), MembershipError::MigrationInFlight);
        assert!(m.request_cancel(), "the cancel lands on a running migration");
        release_tx.send(()).unwrap();
        // The chunk that was in flight completes; the cancel is consumed
        // at the pre-commit check.
        assert_eq!(
            first.join().unwrap().unwrap_err(),
            MembershipError::Aborted("operator cancel".into())
        );
    });
}

#[test]
fn fail_over_installs_the_survivor_map_then_backfills_added_holders() {
    // Every backfill: one resumed pull, one chunk of 2 users, 3 replayed.
    let io = FakeIo::new(vec![], vec![]);
    let old = io.map();
    io.down.lock().unwrap().insert(1);
    let new = old.without_member(1).unwrap();
    let added: usize = (0..new.n_partitions())
        .map(|p| {
            let before = old.replicas_of_partition(p);
            new.replicas_of_partition(p).iter().filter(|n| !before.contains(n)).count()
        })
        .sum();
    assert!(added > 0, "losing a member of a 2x-replicated map depletes replica sets");
    for _ in 0..added {
        io.chunks.lock().unwrap().extend([ChunkStep::Resume, copied(9, 2, true)]);
        io.replays.lock().unwrap().push_back(Ok(3));
    }
    let m = migrator();
    assert_eq!(m.fail_over_dead(&io, 1), Ok(5 * added as u64));
    let journal = io.journal();
    assert_eq!(journal[0], format!("install e{}", old.epoch() + 1), "map cut over first");
    assert_eq!(journal.iter().filter(|c| c.starts_with("finish")).count(), added);
    assert!(!io.map().is_member(1));
    assert_eq!(m.counters().map(|c| c.get()), [added as u64, 0, added as u64]);
    assert!(m.ledger().is_empty(), "fail-over is not a migration");

    // A backfill the transport gives up on is a backend fault, not a 4xx.
    let io = FakeIo::new(vec![ChunkStep::Abort("survivor unreachable".into())], vec![]);
    io.down.lock().unwrap().insert(1);
    match m.fail_over_dead(&io, 1) {
        Err(MembershipError::Failed(why)) => assert!(why.contains("survivor unreachable"), "{why}"),
        other => panic!("expected Failed, got {other:?}"),
    }
}
