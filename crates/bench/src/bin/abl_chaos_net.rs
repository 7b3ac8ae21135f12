//! CHAOS-NET — serving availability and tail latency through network
//! faults, on the real-socket backend.
//!
//! The paper's serving tier must stay available and lose no acknowledged
//! update while the network misbehaves (§3, §8). This experiment drives
//! one 3-node loopback TCP cluster (`velox-net`) through five phases of
//! deterministic, seeded link chaos (`LinkChaos`):
//!
//! - `baseline`: clean links — the floor for availability and latency;
//! - `flaky 2% drop`: every front → node link drops 2% of request
//!   frames; budgeted retries must absorb the loss;
//! - `partition replica link`: the owner → replica ship link is cut; the
//!   owner keeps acking (degraded, `shipped_to = 0`) while records queue
//!   in its bounded ship backlog, then the link heals and the backlog
//!   drains;
//! - `slow link + hedging`: injected delays push the primary past the
//!   p99-derived hedge delay, so predicts race a replica and the hedge's
//!   answer wins the tail back;
//! - `finale`: duplicated frames (exactly-once via the observation-id
//!   dedupe window), then the owner is killed *and loses its disk*; the
//!   cluster serves through the outage and the reborn owner recovers
//!   every acknowledged record from its replica's shipped log.
//!
//! `--smoke` runs shorter phases and exits non-zero unless: predict
//! availability ≥ 99.9% in every phase, zero acknowledged observations
//! lost through the kill + recovery, the dedupe window absorbed at least
//! one duplicate, and the backlog drained to zero after heal.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use velox_bench::{print_header, print_row};
use velox_cluster::transport::Transport;
use velox_cluster::{ChaosControl, LinkFaultPlan, RetryPolicy};
use velox_linalg::stats::LatencySummary;
use velox_net::{NetClientConfig, NetCluster, NetClusterConfig, Request, Response};
use velox_storage::ScratchDir;

const N_USERS: u64 = 32;
const N_ITEMS: u64 = 64;
const DIM: usize = 8;
const N_NODES: usize = 3;

fn item_features(item: u64) -> Vec<f64> {
    (0..DIM).map(|d| ((item * 31 + d as u64 * 7) % 17) as f64 / 16.0).collect()
}

/// One phase's availability + latency ledger.
#[derive(Default)]
struct Ledger {
    predict_us: Vec<f64>,
    predict_errors: u64,
    observe_us: Vec<f64>,
    observe_errors: u64,
}

impl Ledger {
    fn predict(&mut self, net: &NetCluster, uid: u64, item: u64) {
        let t = Instant::now();
        match net.predict(uid, item) {
            Ok(_) => self.predict_us.push(t.elapsed().as_secs_f64() * 1e6),
            Err(_) => self.predict_errors += 1,
        }
    }

    fn observe(&mut self, net: &NetCluster, acked: &mut Vec<(u64, u64)>, uid: u64, item: u64) {
        let t = Instant::now();
        match net.observe(uid, item, if (uid + item).is_multiple_of(2) { 1.0 } else { 0.0 }) {
            Ok(ack) => {
                self.observe_us.push(t.elapsed().as_secs_f64() * 1e6);
                acked.push((uid, ack.ts));
            }
            Err(_) => self.observe_errors += 1,
        }
    }

    fn availability(&self) -> f64 {
        let ok = (self.predict_us.len() + self.observe_us.len()) as f64;
        let all = ok + (self.predict_errors + self.observe_errors) as f64;
        if all == 0.0 {
            1.0
        } else {
            ok / all
        }
    }

    fn row(&self, phase: &str) {
        let p = LatencySummary::from_samples(&self.predict_us);
        let (p50, p99) = p.map(|s| (s.p50, s.p99)).unwrap_or((0.0, 0.0));
        print_row(&[
            phase.to_string(),
            format!("{}", self.predict_us.len() + self.observe_us.len()),
            format!("{}", self.predict_errors + self.observe_errors),
            format!("{:.4}%", self.availability() * 100.0),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
        ]);
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { 1 } else { 5 };
    let partition_for = Duration::from_secs(if smoke { 2 } else { 10 });

    println!("# CHAOS-NET: availability and zero acked loss through link faults (§3, §8)");
    println!(
        "\n{N_NODES}-node loopback TCP cluster, 2x user replication, {N_USERS} users, \
         {N_ITEMS} items, dim {DIM}; deterministic seeded chaos"
    );

    let scratch = ScratchDir::new("velox-chaos-net");
    let net = NetCluster::start(NetClusterConfig {
        n_nodes: N_NODES,
        user_replication: 2,
        wal_root: Some(scratch.path().to_path_buf()),
        workers: 8,
        heartbeat_interval: Duration::from_millis(20),
        hedge_predicts: true,
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
    net.publish_item_features((0..N_ITEMS).map(|i| (i, item_features(i))).collect());

    // Every acknowledged observation: (uid, ts). The finale proves each
    // one survives the owner losing its disk.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let victim_uid = 4u64;
    let victim = net.home_of_user(victim_uid);
    let replica = net.replica_nodes_of_user(victim_uid)[1];

    print_header(
        "Availability and predict latency per phase",
        &["phase", "ok", "errors", "availability", "predict p50 µs", "predict p99 µs"],
    );

    // -- Phase 1: baseline ------------------------------------------------
    let mut base = Ledger::default();
    for i in 0..(100 * scale) as u64 {
        base.observe(&net, &mut acked, i % N_USERS, i % N_ITEMS);
        base.predict(&net, i % N_USERS, (i * 3) % N_ITEMS);
    }
    base.row("baseline");

    // -- Phase 2: flaky link, 2% request drop -----------------------------
    net.install_link_faults(LinkFaultPlan { drop_prob: 0.02, seed: 0xF1A2, ..Default::default() });
    let mut flaky = Ledger::default();
    for i in 0..(100 * scale) as u64 {
        flaky.observe(&net, &mut acked, i % N_USERS, i % N_ITEMS);
        flaky.predict(&net, i % N_USERS, (i * 3) % N_ITEMS);
    }
    net.clear_link_faults();
    let drops = net.link_chaos().counters().drops.get();
    flaky.row("flaky 2% drop");

    // -- Phase 3: partition the owner → replica ship link -----------------
    net.link_chaos().partition(victim as u32, replica as u32);
    let mut part = Ledger::default();
    let partition_started = Instant::now();
    let mut i = 0u64;
    while partition_started.elapsed() < partition_for {
        part.observe(&net, &mut acked, victim_uid, i % N_ITEMS);
        part.predict(&net, victim_uid, (i * 3) % N_ITEMS);
        i += 1;
    }
    let queued = net.node_state(victim).map(|s| s.ship_backlog_len()).unwrap_or(0);
    net.link_chaos().heal(victim as u32, replica as u32);
    // The next observe settles the backlog before its own ship.
    part.observe(&net, &mut acked, victim_uid, 0);
    let after_heal = net.node_state(victim).map(|s| s.ship_backlog_len()).unwrap_or(usize::MAX);
    let caught_up = net.node_metrics(victim).ship_catch_up_records.get();
    part.row("partition+heal");
    println!(
        "\npartition: {queued} records queued at owner, {caught_up} caught up on heal, \
         {after_heal} left in backlog"
    );

    // -- Phase 4: slow link; hedged predicts win the tail back ------------
    net.install_link_faults(LinkFaultPlan {
        delay_prob: 0.3,
        delay_us: 5_000,
        seed: 0x51011,
        ..Default::default()
    });
    let mut slow = Ledger::default();
    for i in 0..(60 * scale) as u64 {
        slow.predict(&net, i % N_USERS, (i * 3) % N_ITEMS);
    }
    net.clear_link_faults();
    let (hedged, hedge_wins) = net.hedge_counts();
    slow.row("slow link+hedge");
    println!("\nhedging: {hedged} predicts hedged, {hedge_wins} hedge wins");

    // -- Phase 5 (finale): duplication, then owner kill + disk loss -------
    net.install_link_faults(LinkFaultPlan {
        dup_prob: 0.3,
        drop_prob: 0.05,
        seed: 0xD0B1,
        ..Default::default()
    });
    let mut finale = Ledger::default();
    for i in 0..(40 * scale) as u64 {
        finale.observe(&net, &mut acked, victim_uid, i % N_ITEMS);
    }
    net.clear_link_faults();
    let dedupe_hits: u64 = (0..N_NODES).map(|n| net.node_metrics(n).duplicate_observes.get()).sum();

    net.kill_node_lose_disk(victim);
    for i in 0..(20 * scale) as u64 {
        finale.predict(&net, victim_uid, (i * 3) % N_ITEMS);
        finale.observe(&net, &mut acked, victim_uid, i % N_ITEMS);
    }
    let pulled = net.recover_node(victim).expect("recovery");
    finale.predict(&net, victim_uid, 1);
    finale.row("dup+kill+recover");
    println!("\nfinale: {dedupe_hits} duplicates absorbed by dedupe, {pulled} records re-pulled");

    // Zero acked loss: every acknowledged (uid, ts) with the victim as
    // home must be in the reborn owner's log; and no ts twice.
    let client = net.client(victim).expect("reborn owner client");
    let mut have: HashMap<u64, HashSet<u64>> = HashMap::new();
    let mut lost = 0u64;
    let mut doubled = 0u64;
    match client.call(&Request::PullLog { from_ts: 0 }).expect("pull log") {
        Response::Log { records } => {
            let mut seen = HashSet::new();
            for r in &records {
                if !seen.insert((r.uid, r.timestamp)) {
                    doubled += 1;
                }
                have.entry(r.uid).or_default().insert(r.timestamp);
            }
        }
        other => panic!("unexpected reply {other:?}"),
    }
    for (uid, ts) in &acked {
        if net.home_of_user(*uid) != victim {
            continue;
        }
        if !have.get(uid).is_some_and(|s| s.contains(ts)) {
            lost += 1;
        }
    }
    let acked_at_victim = acked.iter().filter(|(u, _)| net.home_of_user(*u) == victim).count();
    println!(
        "zero-acked-loss: {acked_at_victim} acked at victim, {lost} lost, {doubled} applied twice"
    );

    net.shutdown();

    if smoke {
        let mut failures: Vec<String> = Vec::new();
        for (phase, l) in [
            ("baseline", &base),
            ("flaky", &flaky),
            ("partition", &part),
            ("slow", &slow),
            ("finale", &finale),
        ] {
            if l.availability() < 0.999 {
                failures.push(format!(
                    "{phase}: availability {:.4}% < 99.9%",
                    l.availability() * 100.0
                ));
            }
        }
        if drops == 0 {
            failures.push("flaky phase never dropped a frame (adversary absent)".into());
        }
        if queued == 0 {
            failures.push("partition phase never queued a record".into());
        }
        if after_heal != 0 {
            failures.push(format!("{after_heal} records stuck in backlog after heal"));
        }
        if dedupe_hits == 0 {
            failures.push("no duplicate was absorbed by the dedupe window".into());
        }
        if lost > 0 {
            failures.push(format!("{lost} acknowledged observations lost"));
        }
        if doubled > 0 {
            failures.push(format!("{doubled} records applied twice"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("\nsmoke: all chaos-net gates passed");
    }
}
