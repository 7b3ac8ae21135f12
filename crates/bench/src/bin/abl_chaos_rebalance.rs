//! CHAOS-REBALANCE — migration under fire: chunked resumable checkpoint
//! streaming, abort/rollback, and hardened membership, on both backends.
//!
//! REBALANCE (`abl_rebalance`) proves elastic membership works when every
//! migration is *allowed to finish*. This experiment attacks the
//! migrations themselves: Zipf traffic keeps flowing while the transfer
//! path is partitioned, the source or destination node is killed
//! mid-plan, the wall-clock deadline expires, and the operator cancels —
//! on **both** transport backends (loopback TCP `velox-net` and the
//! in-process `SimTransport`) behind the shared `Transport` trait.
//!
//! The scenarios, each run against live traffic:
//!
//! - `abort: dst death` — the destination dies before the checkpoint
//!   commits; the migration aborts, the source stays authoritative, the
//!   epoch does not move.
//! - `abort: src death` — the source dies; same rollback property, and
//!   traffic keeps flowing off replicas through the outage.
//! - `partition mid-stream` — the checkpoint link is cut *during* the
//!   chunk stream. The TCP runtime's cursor-resumable pulls retry at the
//!   same cursor until the link heals, then the migration commits
//!   (resumes observed > 0); the simulator's synchronous transfer
//!   instead aborts with `checkpoint link partitioned`.
//! - `deadline abort` — a zero wall-clock budget aborts the attempt with
//!   `deadline exceeded` before any map install.
//! - `operator cancel` — a pre-armed cancel lands at the first chunk
//!   boundary.
//!
//! Both backends run the one state machine in `velox_cluster::migrate`,
//! so one driver runs every scenario on each; only the partition
//! scenario's expected outcome differs, because the two I/O seams answer
//! a cut link differently (`Resume` vs `Abort`).
//!
//! After the fire drill, the planned `rebalance_join` handoff commits
//! cleanly on the same cluster — aborts must not poison later attempts.
//!
//! Verification is the strongest available: the acked `(uid, item, y)`
//! stream replays locally through a fresh `IncrementalRidge` per user
//! (`velox_bench::membership::replay_divergence`) and every
//! user's weights must match the cluster **bit-for-bit** (zero acked
//! loss, zero double-applies); every backend runs **twice** with the
//! same seed and the two runs' final `(epoch, weights)` must be
//! identical (abort rollback is deterministic, not best-effort); and on
//! the TCP backend no checkpoint frame may exceed the configured chunk
//! budget (the `checkpoint_frame_max` gauge).
//!
//! `--smoke` runs shorter phases and exits non-zero unless, on both
//! backends: **100%** availability in every phase, bit-exact replay,
//! every abort left the epoch untouched with the source authoritative,
//! the resumable stream resumed at least once through the link fault,
//! the ledger's terminal outcomes match the script, and the max
//! checkpoint frame honours the chunk budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use velox_bench::membership::{
    partition_owned_by, replay_divergence, seeded_items, zipf_stream, Ledger, DIM, MAX_NODES,
    N_ITEMS, N_NODES, N_USERS, ZIPF_SKEW,
};
use velox_bench::print_header;
use velox_cluster::transport::{SimTransport, Transport};
use velox_cluster::{
    ChaosControl, Cluster, ClusterConfig, ControlPlane, LinkChaos, LinkFaultPlan, MembershipError,
    MigrationOutcome, NodeId, RetryPolicy, FRONT_PEER,
};
use velox_net::{NetClientConfig, NetCluster, NetClusterConfig};

/// Checkpoint chunk budget on the TCP backend: small enough that a
/// partition's snapshot needs several frames, so the resume cursor and
/// the frame-size gauge are actually exercised.
const CHUNK_BYTES: u32 = 4096;
/// Simulator chunk granularity (users per chunk): several abort-trigger
/// boundary checks per migration.
const CHUNK_USERS: usize = 4;

/// Final cluster state a twin run must reproduce bit-for-bit.
type Fingerprint = (u64, Vec<(u64, Option<Vec<f64>>)>);

fn fingerprint(t: &dyn Transport, epoch: u64) -> Fingerprint {
    let weights = (0..N_USERS).map(|uid| (uid, t.fetch_weights(uid).ok().flatten())).collect();
    (epoch, weights)
}

/// The part of each backend neither `Transport` nor `ControlPlane`
/// covers: process control and the fault the partition scenario injects.
struct Backend<'a> {
    name: &'a str,
    join: Box<dyn Fn() -> Result<NodeId, MembershipError> + 'a>,
    kill: Box<dyn Fn(NodeId) + 'a>,
    recover: Box<dyn Fn(NodeId) + 'a>,
    /// Cuts / heals the checkpoint path `src → dst` travels.
    jam: Box<dyn Fn(NodeId, NodeId) + 'a>,
    heal: Box<dyn Fn() + 'a>,
    /// Whether a cut checkpoint link stalls the stream until it heals and
    /// then commits (TCP: cursor resume) or aborts it (simulator).
    partition_resumes: bool,
    /// The migration deadline to restore after the deadline scenario.
    deadline: Option<Duration>,
    /// Largest checkpoint frame seen, where frames exist.
    frame_max: Option<Box<dyn Fn() -> i64 + 'a>>,
}

/// Asserts a migration attempt aborted for `want`, without an epoch bump
/// and with `src` still the owner; failures accumulate instead of
/// panicking so the smoke report names every broken gate.
fn expect_abort<C: ControlPlane>(
    failures: &mut Vec<String>,
    cp: &C,
    scenario: &str,
    (p, src, dst): (u32, NodeId, NodeId),
    want: &str,
) {
    let epoch0 = cp.map().epoch();
    match cp.migrate_partition(p, dst) {
        Err(MembershipError::Aborted(reason)) if reason.contains(want) => {}
        Err(e) => failures.push(format!("{scenario}: wrong abort error: {e}")),
        Ok(s) => failures.push(format!("{scenario}: migration committed ({s:?})")),
    }
    if cp.map().epoch() != epoch0 {
        failures.push(format!("{scenario}: abort bumped the epoch"));
    }
    if cp.map().owner_of_partition(p) != src {
        failures.push(format!("{scenario}: source lost ownership on abort"));
    }
    match cp.migrations().last() {
        Some(m) if m.phase == "aborted" && m.epoch_end == 0 => {}
        other => failures.push(format!("{scenario}: ledger tail not aborted: {other:?}")),
    }
}

/// Drives every scenario over one backend; returns its gate failures
/// (prefixed with the backend's name) and the final-state fingerprint.
fn run_backend<C: ControlPlane + Sync>(
    cp: &C,
    t: &dyn Transport,
    b: &Backend<'_>,
    scale: u64,
    verbose: bool,
) -> (Vec<String>, Fingerprint) {
    let name = b.name;
    let mut gen = zipf_stream(0x5EBA1B);
    let mut acked: Vec<(u64, u64, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut traffic = |ledger: &mut Ledger, n: u64, skip_home: Option<NodeId>| {
        for _ in 0..n {
            let (uid, item) = gen.next_point();
            if skip_home.is_some_and(|home| cp.map().owner_of(uid) == home) {
                continue;
            }
            ledger.observe(t, &mut acked, uid, item);
            ledger.predict(t, uid, (item * 3) % N_ITEMS);
        }
    };

    if verbose {
        print_header(
            &format!("[{name}] availability per phase (migrations under fire)"),
            &["phase", "ok", "errors", "predict p50 µs", "predict p99 µs"],
        );
    }

    let mut base = Ledger::default();
    traffic(&mut base, 80 * scale, None);

    let dst = (b.join)().expect("join 4th node");
    let src: NodeId = 0;
    let p = partition_owned_by(&cp.map(), src);
    let epoch_join = cp.map().epoch();

    // -- abort: destination dies before the checkpoint commits -------------
    let mut ld_dst = Ledger::default();
    (b.kill)(dst);
    expect_abort(&mut failures, cp, "dst-death", (p, src, dst), "destination death");
    (b.recover)(dst);
    traffic(&mut ld_dst, 30 * scale, None);

    // -- abort: source dies; traffic rides the replicas --------------------
    let mut ld_src = Ledger::default();
    (b.kill)(src);
    expect_abort(&mut failures, cp, "src-death", (p, src, dst), "source death");
    traffic(&mut ld_src, 30 * scale, None);
    (b.recover)(src);
    traffic(&mut ld_src, 20 * scale, None);

    // -- partition mid-stream ----------------------------------------------
    // The checkpoint path is cut while the stream runs. Over TCP the
    // migration must not abort (the deadline is generous): it re-pulls the
    // same cursor and commits once the link heals. The simulator's
    // transfer is synchronous, so the cut link is an abort trigger there.
    let mut ld_part = Ledger::default();
    let [_, aborts, resumes] = cp.migrator().counters();
    let (aborts_before, resumes_before) = (aborts.get(), resumes.get());
    (b.jam)(src, dst);
    let outcome = std::thread::scope(|scope| {
        let migrator = scope.spawn(|| cp.migrate_partition(p, dst));
        // Keep serving while the stream is jammed — a *fixed* number of
        // requests, so the twin run acks an identical stream. Users homed
        // at `src` are skipped: with heartbeats off, nothing re-routes
        // around a severed front→src link, and the availability gate is
        // 100%, not best-effort. Everyone else must be answered.
        traffic(&mut ld_part, 30 * scale, Some(src));
        // Hold the fault until the stream demonstrably retried a cursor
        // (or the attempt ended on its own).
        let jam_started = Instant::now();
        while resumes.get() == resumes_before
            && !migrator.is_finished()
            && jam_started.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        (b.heal)();
        migrator.join().expect("migrator thread")
    });
    let mut committed_here = 0u64;
    match (b.partition_resumes, outcome) {
        (true, Ok(status)) => {
            committed_here = 1;
            if status.chunks_streamed == 0 {
                failures.push("partition: committed without streaming a chunk".into());
            }
            if resumes.get() == resumes_before {
                failures.push("partition: the chunk stream never resumed through the fault".into());
            }
            if aborts.get() != aborts_before {
                failures.push("partition: a resumable fault was turned into an abort".into());
            }
            if cp.map().owner_of_partition(p) != dst {
                failures.push("partition: committed migration left ownership at the source".into());
            }
        }
        (true, Err(e)) => failures.push(format!("partition: resumable migration died: {e}")),
        (false, Err(MembershipError::Aborted(reason))) if reason.contains("link partitioned") => {
            if cp.map().owner_of_partition(p) != src {
                failures.push("partition: source lost ownership on abort".into());
            }
        }
        (false, other) => failures.push(format!("partition: expected a link abort, got {other:?}")),
    }
    if cp.map().epoch() != epoch_join + 2 * committed_here {
        failures.push(format!(
            "partition: epoch {} != {}",
            cp.map().epoch(),
            epoch_join + 2 * committed_here
        ));
    }
    traffic(&mut ld_part, 30 * scale, None);

    // -- abort: deadline exceeded, then operator cancel --------------------
    let p = partition_owned_by(&cp.map(), src);
    cp.set_migration_deadline(Some(Duration::ZERO));
    expect_abort(&mut failures, cp, "deadline", (p, src, dst), "deadline exceeded");
    cp.set_migration_deadline(b.deadline);
    if cp.request_migration_cancel() {
        failures.push("cancel: no migration should be in flight".into());
    }
    expect_abort(&mut failures, cp, "cancel", (p, src, dst), "operator cancel");

    // -- aborts must not poison the planned handoff ------------------------
    let mut ld_fin = Ledger::default();
    let plan = cp.rebalance_join(dst).expect("planned handoff commits after the fire drill");
    traffic(&mut ld_fin, 40 * scale, None);

    // -- verification ------------------------------------------------------
    let diverged = replay_divergence(t, &acked);
    let [chunks, aborts, resumes] = cp.migrator().counters().map(|c| c.get());
    let frame_max = b.frame_max.as_ref().map(|f| f());
    let epoch = cp.map().epoch();
    let ledger = cp.migrations();
    let committed =
        ledger.iter().filter(|m| matches!(m.outcome, MigrationOutcome::Committed)).count() as u64;
    let aborted =
        ledger.iter().filter(|m| matches!(m.outcome, MigrationOutcome::Aborted(_))).count() as u64;

    let part_label = if b.partition_resumes { "partition mid-stream" } else { "abort: partition" };
    let phases = [
        ("baseline", &base),
        ("abort: dst death", &ld_dst),
        ("abort: src death", &ld_src),
        (part_label, &ld_part),
        ("rebalance+final", &ld_fin),
    ];
    if verbose {
        for (phase, l) in &phases {
            l.row(phase, false);
        }
        let frames = frame_max
            .map(|max| format!(", max frame {max} B (budget {CHUNK_BYTES})"))
            .unwrap_or_default();
        println!(
            "\n[{name}] {chunks} chunks streamed, {aborts} aborts, {resumes} resumes{frames}; \
             epoch {epoch}, {committed} committed / {aborted} aborted migrations; {} acked \
             records, {diverged} users diverged",
            acked.len(),
        );
    }

    for (phase, l) in &phases {
        if l.errors() > 0 {
            failures.push(format!("{phase}: {} requests failed (want 100%)", l.errors()));
        }
    }
    if diverged > 0 {
        failures.push(format!(
            "{diverged} users diverged from the acked-stream replay (lost or double-applied \
             records)"
        ));
    }
    // dst death, src death, deadline, cancel — plus the cut link where it
    // aborts instead of resuming.
    let want_aborted = 5 - committed_here;
    if aborted != want_aborted || aborts != want_aborted {
        failures.push(format!(
            "ledger has {aborted} aborted migrations (counter {aborts}), want {want_aborted}"
        ));
    }
    let want_committed = committed_here + plan.len() as u64;
    if committed != want_committed {
        failures
            .push(format!("ledger has {committed} committed migrations, want {want_committed}"));
    }
    if epoch != epoch_join + 2 * want_committed {
        failures.push(format!(
            "epoch arithmetic broken — {epoch} != {epoch_join} + 2·{want_committed}"
        ));
    }
    if plan.is_empty() {
        failures.push("the planned handoff moved no partition".into());
    }
    if frame_max.is_some_and(|max| max <= 0 || max > CHUNK_BYTES as i64) {
        failures.push(format!(
            "max checkpoint frame {frame_max:?} B violates the {CHUNK_BYTES} B chunk budget"
        ));
    }

    let failures = failures.into_iter().map(|f| format!("{name}/{f}")).collect();
    (failures, fingerprint(t, epoch))
}

fn run_net(scale: u64, verbose: bool) -> (Vec<String>, Fingerprint) {
    let deadline = Duration::from_secs(30);
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        max_nodes: MAX_NODES,
        user_replication: 2,
        workers: 4,
        checkpoint_chunk_bytes: CHUNK_BYTES,
        client: NetClientConfig {
            per_try_timeout: Some(Duration::from_millis(100)),
            retry: RetryPolicy {
                max_attempts: 4,
                backoff_base: Duration::from_millis(20),
                backoff_max: Duration::from_millis(60),
                jitter: 0.2,
            },
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("start loopback cluster");
    net.publish_item_features(seeded_items());
    let backend = Backend {
        name: "net",
        join: Box::new(|| net.join_node()),
        kill: Box::new(|n| net.kill_node(n)),
        recover: Box::new(|n| {
            net.recover_node(n).expect("recover node");
        }),
        // The checkpoint pulls flow front → src.
        jam: Box::new(|src, _dst| net.link_chaos().partition(FRONT_PEER, src as u32)),
        heal: Box::new(|| net.link_chaos().heal_all()),
        partition_resumes: true,
        deadline: Some(deadline),
        frame_max: Some(Box::new(|| net.checkpoint_frame_max_bytes())),
    };
    let out = run_backend(&net, &net, &backend, scale, verbose);
    net.shutdown();
    out
}

fn run_sim(scale: u64, verbose: bool) -> (Vec<String>, Fingerprint) {
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: N_NODES,
        max_nodes: MAX_NODES,
        user_replication: 2,
        item_replication: N_NODES,
        checkpoint_chunk_users: CHUNK_USERS,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        cluster.put_item_features(item, x);
    }
    let sim = SimTransport::new(Arc::clone(&cluster), 0.0);
    // A link-fault engine for the checkpoint path only, so serving traffic
    // is untouched by the cut.
    let chaos = Arc::new(LinkChaos::new(LinkFaultPlan::scripted(Vec::new())));
    cluster.set_migration_link_chaos(Arc::clone(&chaos));
    let backend = Backend {
        name: "sim",
        join: Box::new(|| cluster.join_node()),
        kill: Box::new(|n| cluster.kill_node(n)),
        recover: Box::new(|n| {
            cluster.recover_node(n);
        }),
        jam: Box::new(|src, dst| chaos.partition_both(src as u32, dst as u32)),
        heal: Box::new(|| chaos.heal_all()),
        partition_resumes: false,
        deadline: None,
        frame_max: None,
    };
    run_backend(cluster.as_ref(), &sim, &backend, scale, verbose)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { 1 } else { 5 };

    println!("# CHAOS-REBALANCE: migrations under fire — abort/rollback + resumable streams (§3)");
    println!(
        "\n{N_NODES}→{MAX_NODES} nodes, 2x user replication, {N_USERS} users, {N_ITEMS} items, \
         dim {DIM}, Zipf(s={ZIPF_SKEW}) traffic; kill-source, kill-destination, \
         partition-during-checkpoint, deadline and operator-cancel aborts; zero-loss checked by \
         bit-exact replay, rollback determinism by twin runs"
    );

    let mut failures = Vec::new();
    for (name, run) in [("net", run_net as fn(u64, bool) -> _), ("sim", run_sim)] {
        let (first, a) = run(scale, true);
        let (second, b) = run(scale, false);
        failures.extend(first);
        failures.extend(second);
        if a != b {
            failures.push(format!("{name}: twin runs diverged — rollback is not deterministic"));
        } else {
            println!("[{name}] twin runs bit-identical (epoch {})\n", a.0);
        }
    }

    if smoke {
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("smoke: all chaos-rebalance gates passed on both transports");
    } else if failures.is_empty() {
        println!("all chaos-rebalance invariants held on both transports");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
