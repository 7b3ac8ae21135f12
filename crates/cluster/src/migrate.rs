//! The membership / migration protocol, written once for both runtimes.
//!
//! The paper gives every worker the same predictor, model manager and
//! partition-routing protocol (§3, §5). This module is that protocol's
//! control plane: a [`Migrator`] owns the state machine — the in-flight
//! and cancel flags, the deadline, the ledger, the phase sequence, the
//! abort triggers and the rollback — and drives it through the narrow
//! [`MigrationIo`] seam. The simulator ([`Cluster`](crate::Cluster)) fills
//! the seam with steps that move nothing (each user's state is held once,
//! not per node), `velox-net`'s `NetCluster` with chunk/log RPCs; neither
//! carries protocol logic of its own, so "both runtimes plan the same
//! epochs" holds by construction.
//!
//! ## Live migration of partition `p` from its owner `src` to `dst`
//!
//! 1. **chunk_stream** — `src`'s weights for `p` stream into `dst` in
//!    bounded steps ([`MigrationIo::stream_chunk`]), *before* any map
//!    install. Every chunk boundary checks the abort triggers — operator
//!    cancel, deadline, source or destination death — and the transport
//!    may report its own cause ([`ChunkStep::Abort`]). A transient link
//!    fault is not an abort: the step answers [`ChunkStep::Resume`] and the
//!    same cursor is pulled again. One more trigger check runs after the
//!    last chunk. An abort anywhere here rolls back completely: `dst` is
//!    scrubbed, no epoch moved, the source stays authoritative, and the
//!    ledger records `Aborted(reason)`.
//! 2. **dual_write** — epoch `E+1` adds `dst` to `p`'s replica set, so
//!    every new write also reaches `dst`. This is the commit point: from
//!    here the migration only rolls forward, and a failure is recorded as
//!    `Failed`.
//! 3. **catch_up** — [`MigrationIo::replay_tail`] reconciles writes that
//!    raced the chunk stream (idempotent; the source's state wins).
//! 4. **cut_over** — epoch `E+2` makes `dst` the owner; the old owner
//!    stays a replica, so it keeps answering reads routed under the old
//!    epoch and sources the tail replay.
//! 5. **tail_replay** — one more reconcile pass for writes applied between
//!    catch-up and cutover, then [`MigrationIo::finish`] lets the
//!    destination settle (the socket runtime rebuilds the partition in
//!    timestamp order so twin clusters converge bit-identically).
//!
//! [`Migrator::rebalance_join`] walks [`PartitionMap::plan_join`] one
//! migration at a time; [`Migrator::fail_over_dead`] installs
//! [`PartitionMap::without_member`] and backfills every holder the new map
//! added through the same chunk stream.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use velox_obs::{Counter, SpanKind, SpanStatus, TraceContext, Tracer, FRONT_NODE};

use crate::partition::{MembershipError, MigrationOutcome, MigrationStatus, NodeId, PartitionMap};

/// What one [`MigrationIo::stream_chunk`] step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkStep {
    /// A chunk landed at the destination.
    Copied {
        /// Cursor to present on the next step (first uid not yet copied).
        next: u64,
        /// Users in this chunk.
        users: u64,
        /// True when the partition is exhausted.
        done: bool,
    },
    /// A transient fault (dropped link, bad checksum, endpoint not yet
    /// reachable): nothing was applied that a replay would not reproduce;
    /// pull the same cursor again.
    Resume,
    /// The transport cannot complete this transfer; roll back.
    Abort(String),
}

/// The I/O a runtime supplies to the [`Migrator`]. Every call is
/// idempotent, so a step may be replayed after a fault.
pub trait MigrationIo {
    /// Total node slots; valid ids are `0..capacity`.
    fn capacity(&self) -> usize;

    /// Whether `node` is serving.
    fn node_up(&self, node: NodeId) -> bool;

    /// The control plane's current partition map.
    fn map(&self) -> Arc<PartitionMap>;

    /// Adopts `map` cluster-wide (nodes first, the routing tier last).
    fn install_map(&self, map: &Arc<PartitionMap>);

    /// Policy gate for operator-initiated migrations (the simulator's
    /// kill switch); `false` refuses them with
    /// [`MembershipError::RebalanceDisabled`].
    fn migrations_enabled(&self) -> bool {
        true
    }

    /// Copies one bounded chunk of `p`'s weights from `src` to `dst`:
    /// users with `uid ≥ cursor`, ascending, inserted at `dst` without
    /// overwriting anything already there.
    fn stream_chunk(&self, p: u32, src: NodeId, dst: NodeId, cursor: u64) -> ChunkStep;

    /// The rollback: drops everything of `p` at `dst` that the current
    /// map does not place there.
    fn scrub(&self, p: u32, dst: NodeId);

    /// Reconciles `dst` with `src`'s current state for `p`; returns how
    /// many records were replayed.
    fn replay_tail(&self, p: u32, src: NodeId, dst: NodeId) -> Result<u64, String>;

    /// Lets `dst` settle after the last replay (default: nothing to do).
    fn finish(&self, p: u32, dst: NodeId) {
        let _ = (p, dst);
    }
}

/// The membership/migration state machine. One per cluster; the runtime
/// that owns it passes itself as the [`MigrationIo`].
pub struct Migrator {
    /// At-most-one in-flight migration.
    active: AtomicBool,
    /// One-shot operator cancel, consumed by the in-flight (or next)
    /// migration at a chunk boundary.
    cancel: AtomicBool,
    /// Wall-clock budget for one transfer; exceeded → abort.
    deadline: Mutex<Option<Duration>>,
    /// Every migration that reached a terminal state, oldest first.
    ledger: Mutex<Vec<MigrationStatus>>,
    chunks: Arc<Counter>,
    aborts: Arc<Counter>,
    resumes: Arc<Counter>,
    tracer: Arc<Tracer>,
}

impl Migrator {
    /// A state machine whose transfers must finish within `deadline`
    /// (`None` = unbounded) and whose `Migrate` spans go to `tracer`.
    pub fn new(deadline: Option<Duration>, tracer: Arc<Tracer>) -> Self {
        Migrator {
            active: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            deadline: Mutex::new(deadline),
            ledger: Mutex::new(Vec::new()),
            chunks: Arc::new(Counter::new()),
            aborts: Arc::new(Counter::new()),
            resumes: Arc::new(Counter::new()),
            tracer,
        }
    }

    /// Requests that the in-flight (or next) migration abort with
    /// `operator cancel` at its next chunk boundary. Returns whether a
    /// migration was running when the cancel landed.
    pub fn request_cancel(&self) -> bool {
        self.cancel.store(true, Ordering::Release);
        self.in_flight()
    }

    /// Whether a migration is running right now.
    pub fn in_flight(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Replaces the wall-clock budget for subsequent transfers.
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        *self.deadline.lock().unwrap() = deadline;
    }

    /// Committed, aborted and failed migrations, oldest first (the ledger
    /// behind `/cluster/health`).
    pub fn ledger(&self) -> Vec<MigrationStatus> {
        self.ledger.lock().unwrap().clone()
    }

    /// The `[chunks streamed, aborts, resumes]` counters, for metric
    /// registration and stats.
    pub fn counters(&self) -> [&Arc<Counter>; 3] {
        [&self.chunks, &self.aborts, &self.resumes]
    }

    /// Live-migrates partition `p` to `dst` (see the module docs for the
    /// phases). `Ok` carries the committed ledger entry; an abort comes
    /// back as [`MembershipError::Aborted`], a post-commit failure as
    /// [`MembershipError::Failed`] — both are in the ledger too.
    pub fn migrate_partition<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        p: u32,
        dst: NodeId,
    ) -> Result<MigrationStatus, MembershipError> {
        check_slot(io, dst)?;
        if !io.migrations_enabled() {
            return Err(MembershipError::RebalanceDisabled);
        }
        let map0 = io.map();
        if !map0.is_member(dst) {
            return Err(MembershipError::NotAMember(dst));
        }
        let src = map0.owner_of_partition(p);
        let mut status = MigrationStatus {
            partition: p,
            from: src,
            to: dst,
            phase: "chunk_stream",
            epoch_start: map0.epoch(),
            epoch_end: 0,
            users_streamed: 0,
            records_replayed: 0,
            chunks_streamed: 0,
            outcome: MigrationOutcome::InFlight,
        };
        if src == dst {
            // Already there: nothing to move, nothing to record.
            status.phase = "done";
            status.epoch_end = map0.epoch();
            status.outcome = MigrationOutcome::Committed;
            return Ok(status);
        }
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(MembershipError::MigrationInFlight);
        }
        let root = self.tracer.ingress(SpanKind::Migrate, FRONT_NODE);
        let ctx = root.as_ref().map(|r| r.ctx());
        status.outcome = match self.run_migration(io, &map0, &mut status, ctx.as_ref()) {
            Ok(()) => MigrationOutcome::Committed,
            Err(outcome) => outcome,
        };
        if let Some(root) = root {
            self.tracer.end_root(root);
        }
        self.active.store(false, Ordering::Release);
        self.ledger.lock().unwrap().push(status.clone());
        match &status.outcome {
            MigrationOutcome::Aborted(reason) => Err(MembershipError::Aborted(reason.clone())),
            MigrationOutcome::Failed(why) => Err(MembershipError::Failed(why.clone())),
            _ => Ok(status),
        }
    }

    /// Runs the phases, updating `status` as they pass. `Err` carries the
    /// terminal non-committed outcome; `status.phase` is already set.
    fn run_migration<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        map0: &PartitionMap,
        status: &mut MigrationStatus,
        ctx: Option<&TraceContext>,
    ) -> Result<(), MigrationOutcome> {
        let (p, src, dst) = (status.partition, status.from, status.to);
        let started = Instant::now();
        let deadline = *self.deadline.lock().unwrap();

        // Phase 1, before any install: aborting here leaves the cluster
        // bit-identical to never having tried. The triggers get one last
        // look after the final chunk; past that point the migration only
        // rolls forward.
        let triggers = || self.migration_abort_reason(io, src, dst, started, deadline);
        let streamed = self.stream_chunks(io, (p, src, dst), triggers, |users| {
            status.users_streamed += users;
            status.chunks_streamed += 1;
            self.tracer.finish(self.tracer.child(ctx, SpanKind::MigrateChunk, FRONT_NODE));
        });
        if let Err(reason) = streamed.and_then(|()| triggers().map_or(Ok(()), Err)) {
            return Err(self.roll_back(io, status, reason, ctx));
        }

        let failed = |status: &mut MigrationStatus, why: String| {
            status.phase = "failed";
            MigrationOutcome::Failed(why)
        };
        status.phase = "dual_write";
        let map1 = match map0.with_extra_replica(p, dst) {
            Ok(map) => Arc::new(map),
            Err(e) => return Err(failed(status, e.to_string())),
        };
        io.install_map(&map1);

        status.phase = "catch_up";
        match io.replay_tail(p, src, dst) {
            Ok(n) => status.records_replayed += n,
            Err(why) => return Err(failed(status, why)),
        }

        status.phase = "cut_over";
        let map2 = match map1.with_owner(p, dst) {
            Ok(map) => Arc::new(map),
            Err(e) => return Err(failed(status, e.to_string())),
        };
        io.install_map(&map2);

        status.phase = "tail_replay";
        match io.replay_tail(p, src, dst) {
            Ok(n) => status.records_replayed += n,
            Err(why) => return Err(failed(status, why)),
        }
        io.finish(p, dst);

        status.phase = "done";
        status.epoch_end = map2.epoch();
        Ok(())
    }

    /// The chunk stream both a migration and a fail-over backfill run:
    /// pulls cursor after cursor until the partition is exhausted,
    /// re-pulling on [`ChunkStep::Resume`]. `doomed` is consulted before
    /// every step; its reason, or the transport's own, ends the stream.
    fn stream_chunks<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        (p, src, dst): (u32, NodeId, NodeId),
        doomed: impl Fn() -> Option<String>,
        mut copied: impl FnMut(u64),
    ) -> Result<(), String> {
        let mut cursor = 0u64;
        loop {
            if let Some(reason) = doomed() {
                return Err(reason);
            }
            match io.stream_chunk(p, src, dst, cursor) {
                ChunkStep::Copied { next, users, done } => {
                    self.chunks.inc();
                    copied(users);
                    if done {
                        return Ok(());
                    }
                    cursor = next;
                }
                ChunkStep::Resume => self.resumes.inc(),
                ChunkStep::Abort(reason) => return Err(reason),
            }
        }
    }

    /// First satisfied abort trigger for a migration step, if any.
    fn migration_abort_reason<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        src: NodeId,
        dst: NodeId,
        started: Instant,
        deadline: Option<Duration>,
    ) -> Option<String> {
        if self.cancel.swap(false, Ordering::AcqRel) {
            return Some("operator cancel".into());
        }
        transfer_doomed(io, src, dst, started, deadline)
    }

    /// The abort rollback: whatever the chunk stream placed at the
    /// destination is scrubbed. No map was installed, so the epoch did
    /// not move and the source is still authoritative.
    fn roll_back<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        status: &mut MigrationStatus,
        reason: String,
        ctx: Option<&TraceContext>,
    ) -> MigrationOutcome {
        io.scrub(status.partition, status.to);
        self.aborts.inc();
        let mark = self.tracer.child(ctx, SpanKind::MigrateAbort, FRONT_NODE);
        self.tracer.finish_status(mark, SpanStatus::Error);
        status.phase = "aborted";
        MigrationOutcome::Aborted(reason)
    }

    /// Planned handoff for a freshly joined `dst`: migrates the partitions
    /// [`PartitionMap::plan_join`] picks (deterministic, so twin clusters
    /// rebalance identically), one migration at a time. Returns the moved
    /// set.
    pub fn rebalance_join<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        dst: NodeId,
    ) -> Result<Vec<u32>, MembershipError> {
        check_slot(io, dst)?;
        if !io.migrations_enabled() {
            return Err(MembershipError::RebalanceDisabled);
        }
        let plan = io.map().plan_join(dst)?;
        for &p in &plan {
            self.migrate_partition(io, p, dst)?;
        }
        Ok(plan)
    }

    /// Fails the down member `dead` out of the map: its partitions are
    /// re-owned by their first surviving replica, and every holder the new
    /// map added is backfilled from a survivor through the same bounded
    /// chunk stream a migration uses, then reconciled and settled. The map
    /// is cut over first, so new writes route under the survivor topology
    /// while history backfills underneath (both steps are idempotent).
    /// Zero-loss as long as each partition keeps one live replica. Returns
    /// the entries copied.
    pub fn fail_over_dead<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        dead: NodeId,
    ) -> Result<u64, MembershipError> {
        check_slot(io, dead)?;
        let old = io.map();
        if !old.is_member(dead) {
            return Err(MembershipError::NotAMember(dead));
        }
        if io.node_up(dead) {
            return Err(MembershipError::NotDown(dead));
        }
        let new = Arc::new(old.without_member(dead)?);
        io.install_map(&new);
        let mut copied = 0u64;
        for p in 0..new.n_partitions() {
            let (old_set, new_set) = (old.replicas_of_partition(p), new.replicas_of_partition(p));
            let Some(&survivor) = old_set.iter().find(|&&n| n != dead && io.node_up(n)) else {
                continue; // no surviving copy; lost until the next publish
            };
            for &added in new_set.iter().filter(|n| !old_set.contains(n)) {
                if io.node_up(added) {
                    copied += self.backfill(io, p, survivor, added)?;
                }
            }
        }
        Ok(copied)
    }

    /// Streams, reconciles and settles `p` at a holder fail-over added.
    fn backfill<I: MigrationIo + ?Sized>(
        &self,
        io: &I,
        p: u32,
        src: NodeId,
        dst: NodeId,
    ) -> Result<u64, MembershipError> {
        let started = Instant::now();
        let deadline = *self.deadline.lock().unwrap();
        let failed =
            |why: String| MembershipError::Failed(format!("backfill of partition {p}: {why}"));
        let mut copied = 0u64;
        // No rollback on failure: the survivor map is already installed.
        let doomed = || transfer_doomed(io, src, dst, started, deadline);
        self.stream_chunks(io, (p, src, dst), doomed, |users| copied += users).map_err(failed)?;
        copied += io.replay_tail(p, src, dst).map_err(failed)?;
        io.finish(p, dst);
        Ok(copied)
    }
}

/// Rejects ids outside the slot range with a typed error.
fn check_slot<I: MigrationIo + ?Sized>(io: &I, node: NodeId) -> Result<(), MembershipError> {
    let capacity = io.capacity();
    if node >= capacity {
        return Err(MembershipError::UnknownNode { node, capacity });
    }
    Ok(())
}

/// The triggers that doom any `src → dst` transfer: the wall-clock budget
/// ran out, or an endpoint died.
fn transfer_doomed<I: MigrationIo + ?Sized>(
    io: &I,
    src: NodeId,
    dst: NodeId,
    started: Instant,
    deadline: Option<Duration>,
) -> Option<String> {
    if deadline.is_some_and(|limit| started.elapsed() > limit) {
        return Some("deadline exceeded".into());
    }
    if !io.node_up(src) {
        return Some(format!("source death (node {src})"));
    }
    if !io.node_up(dst) {
        return Some(format!("destination death (node {dst})"));
    }
    None
}

/// The membership control plane as callers see it, identical on both
/// runtimes: a runtime implements the [`MigrationIo`] seam, names its
/// [`Migrator`], and gets every operation below.
pub trait ControlPlane: MigrationIo {
    /// The state machine this runtime drives.
    fn migrator(&self) -> &Migrator;

    /// [`Migrator::migrate_partition`] over this runtime.
    fn migrate_partition(&self, p: u32, dst: NodeId) -> Result<MigrationStatus, MembershipError> {
        self.migrator().migrate_partition(self, p, dst)
    }

    /// [`Migrator::rebalance_join`] over this runtime.
    fn rebalance_join(&self, dst: NodeId) -> Result<Vec<u32>, MembershipError> {
        self.migrator().rebalance_join(self, dst)
    }

    /// [`Migrator::fail_over_dead`] over this runtime.
    fn fail_over_dead(&self, dead: NodeId) -> Result<u64, MembershipError> {
        self.migrator().fail_over_dead(self, dead)
    }

    /// [`Migrator::request_cancel`].
    fn request_migration_cancel(&self) -> bool {
        self.migrator().request_cancel()
    }

    /// [`Migrator::set_deadline`].
    fn set_migration_deadline(&self, deadline: Option<Duration>) {
        self.migrator().set_deadline(deadline);
    }

    /// [`Migrator::ledger`].
    fn migrations(&self) -> Vec<MigrationStatus> {
        self.migrator().ledger()
    }
}
