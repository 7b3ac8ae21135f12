//! Control-plane properties every runtime must satisfy, written once
//! against [`ControlPlane`] + [`Transport`] and instantiated per runtime
//! with [`control_plane_suite!`] — by the simulator in this crate's
//! `abort_rollback.rs`, by `velox-net`'s `NetCluster` in its `rebalance.rs`.
//!
//! Membership changes that run to completion lose no acked observe and
//! are deterministic across twins. And the central abort property:
//! **whatever aborts a migration** — operator
//! cancel, deadline, source death, destination death, or a checkpoint link
//! that never heals — the rollback leaves the cluster bit-identical to a
//! twin that never attempted it:
//!
//! - the map epoch did not move (no dual-write or cutover install);
//! - the source is still the partition's owner (authoritative);
//! - after both replay the same post-abort workload, the twins' weights
//!   match each other *and* a local replay of the acked stream exactly;
//! - the ledger records `Aborted{reason}` with phase `aborted`.

use std::collections::HashMap;
use std::time::Duration;

use velox_cluster::transport::{Transport, TransportError};
use velox_cluster::{
    ridge_observe, ControlPlane, MembershipError, MigrationIo, MigrationOutcome, NodeId,
};
use velox_data::linalg::Vector;

pub const DIM: usize = 4;
pub const USERS: u64 = 40;
pub const ITEMS: u64 = 16;

pub fn features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 13 + d as u64 * 5) % 7) as f64 / 6.0).collect()
}

/// One runtime under test: three founding nodes, capacity four,
/// replication two, every item of [`features`] seeded, and checkpoint
/// chunks small enough that a migration takes several boundary checks.
pub trait Twin: Sized {
    type Plane: ControlPlane + Sync;
    fn build() -> Self;
    fn plane(&self) -> &Self::Plane;
    fn transport(&self) -> &dyn Transport;
    fn join(&self) -> NodeId;
    fn kill(&self, node: NodeId);
    /// Cuts the path checkpoint chunks travel from `src` to `dst` so it
    /// never heals on its own; returns the abort reason that must follow.
    fn jam_checkpoint_link(&self, src: NodeId, dst: NodeId) -> &'static str;
    fn heal_links(&self);
    /// Per-node durable log lengths, where the runtime keeps logs.
    fn log_lens(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// The deterministic workload slice `offset..offset + n`.
fn workload(offset: u64, n: u64) -> impl Iterator<Item = (u64, u64, f64)> {
    (offset..offset + n).map(|i| (i % USERS, i % ITEMS, if (i * i) % 3 == 0 { 1.0 } else { 0.0 }))
}

pub fn apply<T: Twin>(twin: &T, offset: u64, n: u64) {
    for (uid, item, y) in workload(offset, n) {
        twin.transport().observe(uid, item, y).expect("observe");
    }
}

fn weights<T: Twin>(twin: &T) -> Vec<(u64, Option<Vec<f64>>)> {
    (0..USERS).map(|uid| (uid, twin.transport().fetch_weights(uid).expect("fetch"))).collect()
}

/// What every user's weights must be if no acked observe was lost and
/// none was applied twice.
fn local_replay(slices: &[(u64, u64)]) -> Vec<(u64, Option<Vec<f64>>)> {
    let mut users = HashMap::new();
    for &(offset, n) in slices {
        for (uid, item, y) in workload(offset, n) {
            ridge_observe(&mut users, uid, &Vector::from_vec(features(item)), y).unwrap();
        }
    }
    (0..USERS).map(|uid| (uid, users.get(&uid).map(|u| u.weights().as_slice().to_vec()))).collect()
}

/// First partition owned by `node` under the current map.
fn partition_owned_by<C: ControlPlane>(plane: &C, node: NodeId) -> u32 {
    let map = plane.map();
    (0..map.n_partitions())
        .find(|&p| map.owner_of_partition(p) == node)
        .expect("every founding member owns at least one partition")
}

/// Runs one abort scenario against a twin pair: both see the same
/// workload and the same environment mutations (`mirror`), but only `a`
/// attempts the migration, which `trigger` must doom with the reason it
/// returns. Asserts the full rollback property.
fn assert_abort_indistinguishable<T: Twin>(
    mirror: impl Fn(&T),
    trigger: impl Fn(&T, NodeId, NodeId) -> &'static str,
) {
    let (a, b) = (T::build(), T::build());
    apply(&a, 0, 300);
    apply(&b, 0, 300);
    let dst = a.join();
    assert_eq!((dst, b.join()), (3, 3), "first free slot");
    let src = 0;
    let p = partition_owned_by(a.plane(), src);
    mirror(&a);
    mirror(&b);
    let expect_reason = trigger(&a, src, dst);

    let epoch_before = a.plane().map().epoch();
    let err = a.plane().migrate_partition(p, dst).expect_err("trigger must abort the migration");
    a.heal_links();
    match &err {
        MembershipError::Aborted(reason) => assert!(
            reason.contains(expect_reason),
            "abort reason {reason:?} should mention {expect_reason:?}"
        ),
        other => panic!("expected Aborted, got {other:?}"),
    }

    // No epoch moved, the source still owns the partition.
    assert_eq!(a.plane().map().epoch(), epoch_before, "abort must not bump the epoch");
    assert_eq!(a.plane().map().owner_of_partition(p), src, "source stays authoritative");

    // The ledger and the abort counter name the terminal outcome.
    let ledger = a.plane().migrations();
    let last = ledger.last().expect("abort is recorded in the ledger");
    assert_eq!(last.phase, "aborted");
    assert_eq!(last.epoch_end, 0, "an aborted migration never reaches an end epoch");
    match &last.outcome {
        MigrationOutcome::Aborted(reason) => assert!(reason.contains(expect_reason)),
        other => panic!("ledger outcome should be Aborted, got {other:?}"),
    }
    assert_eq!(a.plane().migrator().counters()[1].get(), 1, "one abort counted");

    // Replays are bit-identical to the twin that never tried, and to the
    // acked stream itself.
    apply(&a, 5000, 200);
    apply(&b, 5000, 200);
    assert_eq!(a.plane().map().epoch(), b.plane().map().epoch(), "twin epochs diverge");
    assert_eq!(weights(&a), weights(&b), "twin weights diverge after abort");
    assert_eq!(weights(&a), local_replay(&[(0, 300), (5000, 200)]), "acked stream not intact");
}

pub fn operator_cancel_aborts_and_rolls_back<T: Twin>() {
    assert_abort_indistinguishable::<T>(
        |_| {},
        |a, _src, _dst| {
            // Pre-armed cancel: consumed at the migration's first boundary.
            assert!(!a.plane().request_migration_cancel(), "no migration is running yet");
            "operator cancel"
        },
    );
}

pub fn deadline_abort_rolls_back<T: Twin>() {
    assert_abort_indistinguishable::<T>(
        |_| {},
        |a, _src, _dst| {
            a.plane().set_migration_deadline(Some(Duration::ZERO));
            "deadline exceeded"
        },
    );
}

pub fn source_death_aborts_and_rolls_back<T: Twin>() {
    // Both twins lose the source node; only `a` tries to migrate.
    assert_abort_indistinguishable::<T>(|c| c.kill(0), |_a, _src, _dst| "source death");
}

pub fn destination_death_aborts_and_rolls_back<T: Twin>() {
    assert_abort_indistinguishable::<T>(|c| c.kill(3), |_a, _src, _dst| "destination death");
}

pub fn unhealed_checkpoint_link_aborts_and_rolls_back<T: Twin>() {
    assert_abort_indistinguishable::<T>(|_| {}, |a, src, dst| a.jam_checkpoint_link(src, dst));
}

/// An abort must not poison the next attempt: the same partition commits
/// on retry — chunked, two epoch bumps, ownership moved, traffic intact.
pub fn aborted_migration_commits_on_retry<T: Twin>() {
    let a = T::build();
    apply(&a, 0, 120);
    let dst = a.join();
    let p = partition_owned_by(a.plane(), 0);
    let epoch0 = a.plane().map().epoch();
    assert!(!a.plane().request_migration_cancel());
    a.plane().migrate_partition(p, dst).expect_err("cancel must abort");
    apply(&a, 3000, 80);

    let status = a.plane().migrate_partition(p, dst).expect("retry commits");
    assert_eq!(status.outcome, MigrationOutcome::Committed);
    assert_eq!(status.phase, "done");
    assert!(status.chunks_streamed >= 1, "the checkpoint streamed in chunks");
    assert_eq!(status.epoch_end, epoch0 + 2);
    assert_eq!(a.plane().map().epoch(), epoch0 + 2, "commit bumps dual-write + cutover");
    assert_eq!(a.plane().map().owner_of_partition(p), dst);
    apply(&a, 4000, 80);
    assert_eq!(weights(&a), local_replay(&[(0, 120), (3000, 80), (4000, 80)]));
    // Serving is unaffected: predicts still flow for every user.
    for uid in 0..USERS {
        assert!(!a.transport().predict(uid, uid % ITEMS).expect("predict").cold_start);
    }
}

/// Join → planned rebalance → owner death → fail-over, under traffic: no
/// acked observe is lost or applied twice, no user goes cold, the epochs
/// add up and the ledger records every move.
pub fn join_rebalance_and_fail_over_lose_no_acked_observe<T: Twin>() {
    let a = T::build();
    let (plane, t) = (a.plane(), a.transport());
    apply(&a, 0, 150);
    assert_eq!(plane.map().epoch(), 1, "bootstrap map is epoch 1");
    let joined = a.join();
    assert_eq!(joined, 3, "first free slot");
    let moved = plane.rebalance_join(joined).expect("rebalance");
    assert!(!moved.is_empty(), "a 3→4 rebalance must move partitions");
    assert_eq!(
        plane.map().epoch(),
        2 + 2 * moved.len() as u64,
        "join bumps once, each migration bumps twice (dual-write + cutover)"
    );
    for &p in &moved {
        assert_eq!(plane.map().owner_of_partition(p), joined, "cutover re-owned partition {p}");
    }
    apply(&a, 1000, 100);
    assert_eq!(weights(&a), local_replay(&[(0, 150), (1000, 100)]), "after join+rebalance");
    let view = t.membership().expect("transport exposes membership");
    assert_eq!(view.members, vec![0, 1, 2, 3]);
    assert_eq!(view.migrations.len(), moved.len());
    assert!(view.migrations.iter().all(|m| m.phase == "done" && m.to == joined));
    assert!(
        view.migrations.iter().all(|m| m.epoch_end == m.epoch_start + 2),
        "every migration spans a dual-write and a cutover epoch bump"
    );

    // A founding member dies (the socket fixture wipes its disk too):
    // only replicas hold its partitions now.
    a.kill(0);
    plane.fail_over_dead(0).expect("fail over");
    assert_eq!(t.membership().expect("membership").members, vec![1, 2, 3]);
    apply(&a, 2000, 100);
    assert_eq!(
        weights(&a),
        local_replay(&[(0, 150), (1000, 100), (2000, 100)]),
        "after kill + fail-over"
    );
    for uid in 0..USERS {
        assert!(!t.predict(uid, uid % ITEMS).expect("predict").cold_start, "user {uid} went cold");
    }
}

/// The migration plan and the replay order are deterministic: twin
/// clusters fed the same workload through a join + rebalance land on the
/// same epoch, the same plan and bit-identical weights.
pub fn twin_clusters_converge_bit_identically_across_epoch_bumps<T: Twin>() {
    let run = || {
        let a = T::build();
        apply(&a, 0, 120);
        let moved = a.plane().rebalance_join(a.join()).expect("rebalance");
        apply(&a, 500, 80);
        (a.plane().map().epoch(), moved, weights(&a))
    };
    assert_eq!(run(), run());
}

/// Mid-stream cancel race: the cancel lands at an unknown chunk boundary
/// (or after commit). Whichever way it resolves, the cluster must end in
/// one of the two legal states — bit-identical to a twin that never
/// migrated, or bit-identical to a twin that committed the same
/// migration — never anything in between.
pub fn racing_cancel_leaves_only_legal_states<T: Twin>() {
    let a = T::build();
    apply(&a, 0, 300);
    let dst = a.join();
    let p = partition_owned_by(a.plane(), 0);
    let epoch_before = a.plane().map().epoch();

    let plane = a.plane();
    let result = std::thread::scope(|scope| {
        let migrator = scope.spawn(|| plane.migrate_partition(p, dst));
        // Keep requesting cancel until the migration is observed in
        // flight or it already finished.
        while !plane.request_migration_cancel() && !migrator.is_finished() {
            std::hint::spin_loop();
        }
        migrator.join().expect("migration thread")
    });

    let twin = T::build();
    apply(&twin, 0, 300);
    twin.join();
    match result {
        Err(MembershipError::Aborted(_)) => {
            assert_eq!(a.plane().map().epoch(), epoch_before, "abort must not bump the epoch");
            assert_eq!(a.plane().map().owner_of_partition(p), 0, "source stays authoritative");
        }
        Ok(_) => {
            assert_eq!(a.plane().map().epoch(), epoch_before + 2, "dual-write + cutover");
            twin.plane().migrate_partition(p, dst).expect("twin migration");
        }
        Err(other) => panic!("unexpected migration error: {other:?}"),
    }
    apply(&a, 5000, 200);
    apply(&twin, 5000, 200);
    assert_eq!(a.plane().map().epoch(), twin.plane().map().epoch());
    assert_eq!(weights(&a), weights(&twin), "illegal intermediate state");
}

/// Bad membership arguments come back typed from the control plane and
/// as `Rejected` (→ REST 400) from the transport — never a panic.
pub fn membership_errors_are_typed_not_panics<T: Twin>() {
    let c = T::build();
    let (plane, t) = (c.plane(), c.transport());
    // Unknown slot ids: join-rebalance and fail-over both refuse.
    let unknown = MembershipError::UnknownNode { node: 99, capacity: 4 };
    assert_eq!(plane.rebalance_join(99), Err(unknown.clone()));
    assert_eq!(plane.fail_over_dead(99), Err(unknown));
    // A provisioned slot that never joined is not a member.
    assert_eq!(plane.fail_over_dead(3), Err(MembershipError::NotAMember(3)));
    assert!(matches!(plane.migrate_partition(0, 3), Err(MembershipError::NotAMember(3))));
    // Failing over a live member is refused.
    assert_eq!(plane.fail_over_dead(0), Err(MembershipError::NotDown(0)));

    let rejected = |r: Result<(), TransportError>, want: &str| match r {
        Err(TransportError::Rejected(msg)) => assert!(msg.contains(want), "{msg}"),
        other => panic!("expected Rejected({want}), got {other:?}"),
    };
    rejected(t.rebalance_join_node(99).map(drop), "unknown node");
    rejected(t.fail_over_node(99).map(drop), "unknown node");
    rejected(t.fail_over_node(3).map(drop), "not a member");
    rejected(t.fail_over_node(0).map(drop), "not down");

    // The kill switch round-trips through the transport surface.
    let initially = t.auto_rebalance_enabled();
    for on in [true, false, initially] {
        t.set_auto_rebalance(on);
        assert_eq!(t.auto_rebalance_enabled(), on);
        assert_eq!(t.membership().expect("membership").auto_rebalance, on);
    }
    // Cancelling with nothing in flight reports idle.
    assert!(!t.cancel_migration());
}

/// A non-finite label is refused before anything is applied, logged or
/// shipped: the cluster stays bit-identical to a twin that never saw it.
pub fn non_finite_labels_are_refused_and_leave_no_trace<T: Twin>() {
    let (a, b) = (T::build(), T::build());
    apply(&a, 0, 120);
    apply(&b, 0, 120);
    let logs_before = a.log_lens();
    for y in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match a.transport().observe(7, 3, y) {
            Err(TransportError::Rejected(msg)) => assert!(msg.contains("not finite"), "{msg}"),
            other => panic!("y = {y} must be rejected, got {other:?}"),
        }
    }
    assert_eq!(a.log_lens(), logs_before, "a refused label reached a node log");
    assert_eq!(weights(&a), weights(&b), "a refused label changed the model");
    apply(&a, 500, 80);
    apply(&b, 500, 80);
    assert_eq!(weights(&a), weights(&b));
    assert_eq!(weights(&a), local_replay(&[(0, 120), (500, 80)]));
    let score = a.transport().predict(7, 3).expect("predict").score;
    assert!(score.is_finite(), "user 7 degraded to {score}");
}

/// Instantiates every property above as a `#[test]` for one [`Twin`];
/// the including file mounts this module as `#[macro_use] mod props`.
macro_rules! control_plane_suite {
    ($twin:ty) => {
        control_plane_suite!(@tests $twin:
            operator_cancel_aborts_and_rolls_back,
            deadline_abort_rolls_back,
            source_death_aborts_and_rolls_back,
            destination_death_aborts_and_rolls_back,
            unhealed_checkpoint_link_aborts_and_rolls_back,
            aborted_migration_commits_on_retry,
            join_rebalance_and_fail_over_lose_no_acked_observe,
            twin_clusters_converge_bit_identically_across_epoch_bumps,
            racing_cancel_leaves_only_legal_states,
            membership_errors_are_typed_not_panics,
            non_finite_labels_are_refused_and_leave_no_trace,
        );
    };
    (@tests $twin:ty: $($name:ident,)*) => {
        $(
            #[test]
            fn $name() {
                props::$name::<$twin>();
            }
        )*
    };
}
