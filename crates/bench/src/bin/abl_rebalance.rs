//! REBALANCE — availability and zero acked loss through elastic
//! membership: node join, live partition migration, and chaos fail-over.
//!
//! The paper's serving tier must keep answering while the cluster
//! *changes shape* (§3): a new node joins and takes partitions over
//! live, and a dead node is failed out of the map with its partitions
//! re-owned by surviving replicas. This experiment drives the same
//! Zipf-skewed workload through three phases on **both** transport
//! backends — the loopback TCP runtime (`velox-net`) and the in-process
//! simulator (`SimTransport`) — behind the shared `Transport` trait:
//!
//! - `baseline`: the 3-node steady state — the availability and
//!   latency floor;
//! - `join+rebalance`: a 4th node joins mid-traffic and the planned
//!   handoff migrates partitions onto it (dual-write → checkpoint →
//!   catch-up → cut-over → tail-replay), each migration bumping the
//!   map epoch twice;
//! - `kill+failover`: a founding member is killed *and loses its disk*;
//!   traffic keeps flowing off replicas until `fail_over_dead` removes
//!   it from the map and backfills depleted replica sets.
//!
//! The zero-loss check is the strongest one available: the acked
//! `(uid, item, y)` stream is replayed locally through a fresh
//! `IncrementalRidge` per user and every user's final weights must match the
//! cluster **bit-for-bit** — a lost acked record or a double-applied
//! one diverges the floats.
//!
//! `--smoke` runs shorter phases and exits non-zero unless, on both
//! backends: availability ≥ 99.9% in every phase, zero acked records
//! lost and zero double-applied (bit-exact replay), the rebalance moved
//! at least one partition, the map epoch advanced, every migration in
//! the ledger reached `done`, and the dead node left the map.

use std::sync::Arc;

use velox_bench::membership::{
    replay_divergence, seeded_items, zipf_stream, Ledger, DIM, MAX_NODES, N_ITEMS, N_NODES,
    N_USERS, ZIPF_SKEW,
};
use velox_bench::print_header;
use velox_cluster::transport::{SimTransport, Transport};
use velox_cluster::{Cluster, ClusterConfig, ControlPlane, MembershipError, NodeId};
use velox_net::{NetCluster, NetClusterConfig};
use velox_storage::ScratchDir;

/// Process control: the part of each backend neither `Transport` nor
/// `ControlPlane` covers.
struct NodeOps<'a> {
    join: Box<dyn Fn() -> Result<NodeId, MembershipError> + 'a>,
    kill_lose_disk: Box<dyn Fn(NodeId) + 'a>,
}

/// Drives the three phases over one backend and returns its smoke-gate
/// failures (empty = all gates green).
fn run_backend<C: ControlPlane>(
    name: &str,
    cp: &C,
    t: &dyn Transport,
    ops: &NodeOps<'_>,
    scale: u64,
) -> Vec<String> {
    let mut gen = zipf_stream(0x5EBA1A);
    let mut acked: Vec<(u64, u64, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    print_header(
        &format!("[{name}] availability and predict latency per phase"),
        &["phase", "ok", "errors", "availability", "predict p50 µs", "predict p99 µs"],
    );

    // -- Phase 1: baseline, 3 nodes ---------------------------------------
    let mut base = Ledger::default();
    for _ in 0..(120 * scale) {
        let (uid, item) = gen.next_point();
        base.observe(t, &mut acked, uid, item);
        base.predict(t, uid, (item * 3) % N_ITEMS);
    }
    base.row("baseline", true);

    // -- Phase 2: node joins mid-traffic, planned handoff ------------------
    let mut join = Ledger::default();
    for _ in 0..(30 * scale) {
        let (uid, item) = gen.next_point();
        join.observe(t, &mut acked, uid, item);
        join.predict(t, uid, (item * 3) % N_ITEMS);
    }
    let joined = match (ops.join)() {
        Ok(n) => n,
        Err(e) => {
            failures.push(format!("{name}: join failed: {e}"));
            return failures;
        }
    };
    for _ in 0..(30 * scale) {
        let (uid, item) = gen.next_point();
        join.observe(t, &mut acked, uid, item);
        join.predict(t, uid, (item * 3) % N_ITEMS);
    }
    let moved = match cp.rebalance_join(joined) {
        Ok(plan) => plan,
        Err(e) => {
            failures.push(format!("{name}: rebalance failed: {e}"));
            return failures;
        }
    };
    for _ in 0..(60 * scale) {
        let (uid, item) = gen.next_point();
        join.observe(t, &mut acked, uid, item);
        join.predict(t, uid, (item * 3) % N_ITEMS);
    }
    join.row("join+rebalance", true);

    // -- Phase 3: founding member dies, disk gone, failed out of the map --
    let victim: NodeId = 0;
    let mut fail = Ledger::default();
    (ops.kill_lose_disk)(victim);
    for _ in 0..(40 * scale) {
        let (uid, item) = gen.next_point();
        fail.observe(t, &mut acked, uid, item);
        fail.predict(t, uid, (item * 3) % N_ITEMS);
    }
    let backfilled = match cp.fail_over_dead(victim) {
        Ok(n) => n,
        Err(e) => {
            failures.push(format!("{name}: fail-over failed: {e}"));
            return failures;
        }
    };
    for _ in 0..(60 * scale) {
        let (uid, item) = gen.next_point();
        fail.observe(t, &mut acked, uid, item);
        fail.predict(t, uid, (item * 3) % N_ITEMS);
    }
    fail.row("kill+failover", true);

    // -- Verification ------------------------------------------------------
    // Bit-exact replay of the acked stream: any lost acked record or any
    // double-applied one diverges the weights.
    let diverged = replay_divergence(t, &acked);
    let view = t.membership();
    let (epoch, members, n_migrations, done) = view
        .as_ref()
        .map(|v| {
            (
                v.epoch,
                v.members.clone(),
                v.migrations.len(),
                v.migrations.iter().filter(|m| m.phase == "done").count(),
            )
        })
        .unwrap_or((0, Vec::new(), 0, 0));
    println!(
        "\n[{name}] joined node {joined}, moved {} partitions, backfilled {backfilled} after \
         fail-over; epoch {epoch}, members {members:?}, {done}/{n_migrations} migrations done; \
         {} acked records, {diverged} users diverged from replay",
        moved.len(),
        acked.len(),
    );

    for (phase, l) in [("baseline", &base), ("join+rebalance", &join), ("kill+failover", &fail)] {
        if l.availability() < 0.999 {
            failures.push(format!(
                "{name}/{phase}: availability {:.4}% < 99.9%",
                l.availability() * 100.0
            ));
        }
    }
    if moved.is_empty() {
        failures.push(format!("{name}: 3→4 rebalance moved no partition"));
    }
    if diverged > 0 {
        failures.push(format!(
            "{name}: {diverged} users diverged from the acked-stream replay \
             (lost or double-applied records)"
        ));
    }
    if epoch <= 1 {
        failures.push(format!("{name}: map epoch never advanced past bootstrap"));
    }
    if !members.contains(&joined) || members.contains(&victim) {
        failures.push(format!(
            "{name}: membership wrong — want joined {joined} in and victim {victim} out of \
             {members:?}"
        ));
    }
    if n_migrations == 0 || done != n_migrations {
        failures.push(format!("{name}: migration ledger has {done}/{n_migrations} done"));
    }
    failures
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { 1 } else { 5 };

    println!("# REBALANCE: availability and zero acked loss through elastic membership (§3)");
    println!(
        "\n{N_NODES}→{MAX_NODES} nodes, 2x user replication, {N_USERS} users, {N_ITEMS} items, \
         dim {DIM}, Zipf(s={ZIPF_SKEW}) traffic; join + live migration, then owner death with \
         disk loss + fail-over; zero-loss checked by bit-exact replay of the acked stream"
    );

    // -- Backend 1: the loopback TCP runtime -------------------------------
    let scratch = ScratchDir::new("velox-rebalance");
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        max_nodes: MAX_NODES,
        user_replication: 2,
        wal_root: Some(scratch.path().to_path_buf()),
        workers: 8,
        ..Default::default()
    })
    .expect("start loopback cluster");
    net.publish_item_features(seeded_items());
    let net_ops = NodeOps {
        join: Box::new(|| net.join_node()),
        kill_lose_disk: Box::new(|n| net.kill_node_lose_disk(n)),
    };
    let mut failures = run_backend("net", &net, &net, &net_ops, scale);
    net.shutdown();

    // -- Backend 2: the in-process simulator -------------------------------
    println!();
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        n_nodes: N_NODES,
        max_nodes: MAX_NODES,
        user_replication: 2,
        item_replication: N_NODES,
        ..Default::default()
    }));
    for (item, x) in seeded_items() {
        cluster.put_item_features(item, x);
    }
    let sim = SimTransport::new(Arc::clone(&cluster), 0.0);
    let sim_ops = NodeOps {
        join: Box::new(|| cluster.join_node()),
        // The simulator holds no disk; a kill already forgets the node's
        // local state for fail-over purposes.
        kill_lose_disk: Box::new(|n| cluster.kill_node(n)),
    };
    failures.extend(run_backend("sim", cluster.as_ref(), &sim, &sim_ops, scale));

    if smoke {
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("\nsmoke: all rebalance gates passed on both transports");
    }
}
