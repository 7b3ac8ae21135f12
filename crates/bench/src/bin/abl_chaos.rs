//! CHAOS-AVAIL — fault-tolerant serving under a scripted outage.
//!
//! The paper keeps the materialized tables replicated "for fault tolerance"
//! (§3) but never quantifies what a node loss costs the serving tier. This
//! experiment does: a 4-node deployment with 2× replication of both the
//! item-feature table and the user-weight table serves a Zipfian 80/20
//! predict/observe workload while a fault plan kills one node a quarter of
//! the way in and recovers it at three quarters, with low-rate injected
//! read failures and latency spikes throughout.
//!
//! Reported per phase (pre-kill / outage / post-recovery): availability
//! (answered / issued), the degradation-ladder mix, and the virtual read
//! cost (mean + p99). `--smoke` runs a smaller workload and exits non-zero
//! unless availability stays ≥ 99% with zero panics — the CI gate for the
//! failover path.

use std::collections::HashMap;
use std::sync::Arc;

use velox_batch::AlsConfig;
use velox_bench::{print_header, print_row, FixtureRng};
use velox_cluster::{ClusterConfig, FaultAction, FaultEvent, FaultPlan};
use velox_core::{DegradationLevel, Item, Velox, VeloxConfig};
use velox_data::{VeloxRng, WorkloadConfig, ZipfGenerator};
use velox_linalg::stats::LatencySummary;
use velox_models::MatrixFactorizationModel;

const N_USERS: usize = 1000;
const N_ITEMS: usize = 800;
const DIM: usize = 16;
const N_NODES: usize = 4;
const REPLICATION: usize = 2;
const VICTIM: usize = 2;

/// Per-phase accounting.
#[derive(Default)]
struct Phase {
    issued: u64,
    answered: u64,
    full: u64,
    replica: u64,
    stale_cache: u64,
    bootstrap: u64,
    deferred: u64,
    costs: Vec<f64>,
}

impl Phase {
    fn availability(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.answered as f64 / self.issued as f64
        }
    }

    fn count(&mut self, level: DegradationLevel) {
        match level {
            DegradationLevel::Full => self.full += 1,
            DegradationLevel::Replica => self.replica += 1,
            DegradationLevel::StaleCache => self.stale_cache += 1,
            DegradationLevel::Bootstrap => self.bootstrap += 1,
        }
    }
}

fn deploy() -> Velox {
    let mut rng = FixtureRng::new(0xC4A05);
    let mut table = HashMap::new();
    for item in 0..N_ITEMS as u64 {
        table.insert(item, rng.vector(DIM));
    }
    let model = MatrixFactorizationModel::from_table(
        "chaos",
        table,
        0.0,
        AlsConfig { rank: DIM, ..Default::default() },
    )
    .unwrap();
    let mut weights = HashMap::new();
    for uid in 0..N_USERS as u64 {
        weights.insert(uid, rng.vector(DIM));
    }
    let config = VeloxConfig {
        cluster: ClusterConfig {
            n_nodes: N_NODES,
            item_replication: REPLICATION,
            user_replication: REPLICATION,
            ..Default::default()
        },
        ..Default::default()
    };
    Velox::deploy(Arc::new(model), weights, config)
}

/// Runs the scripted outage over `requests` requests; returns the three
/// phases plus the deployment for counter inspection.
fn run(requests: u64) -> ([Phase; 3], Velox) {
    let velox = deploy();
    let kill_at = requests / 4;
    let recover_at = 3 * requests / 4;
    velox.install_fault_plan(FaultPlan {
        events: vec![
            FaultEvent { at_request: kill_at, node: VICTIM, action: FaultAction::Kill },
            FaultEvent { at_request: recover_at, node: VICTIM, action: FaultAction::Recover },
        ],
        read_failure_prob: 0.01,
        latency_spike_prob: 0.005,
        latency_spike_us: 5_000.0,
        seed: 0xFA_17,
    });

    let mut workload = ZipfGenerator::new(WorkloadConfig {
        n_users: N_USERS,
        n_items: N_ITEMS,
        item_skew: 0.8,
        seed: 0x5EED,
        ..Default::default()
    });
    let mut mix = VeloxRng::seed_from(0xD1CE);
    let mut phases = [Phase::default(), Phase::default(), Phase::default()];

    for i in 0..requests {
        let phase = if i < kill_at {
            0
        } else if i < recover_at {
            1
        } else {
            2
        };
        let phase = &mut phases[phase];
        let (uid, item) = workload.next_point();
        phase.issued += 1;
        if mix.uniform() < 0.8 {
            if let Ok(resp) = velox.predict(uid, &Item::Id(item)) {
                phase.answered += 1;
                phase.count(resp.degradation);
                phase.costs.push(resp.virtual_cost_us);
            }
        } else if let Ok(outcome) = velox.observe(uid, &Item::Id(item), mix.gaussian()) {
            phase.answered += 1;
            if outcome.deferred {
                phase.deferred += 1;
            }
        }
    }
    (phases, velox)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests: u64 = if smoke { 4_000 } else { 40_000 };

    println!("# CHAOS-AVAIL: availability through node loss and recovery (§3 replication)");
    println!(
        "\n{N_USERS} users, {N_ITEMS} items, {N_NODES} nodes, {REPLICATION}x replication, \
         {requests} requests (80% predict / 20% observe)"
    );
    println!(
        "fault plan: kill node {VICTIM} at 25%, recover at 75%; 1% injected read \
         failures, 0.5% latency spikes"
    );

    let (phases, velox) = run(requests);

    print_header(
        "Availability and degradation by phase",
        &[
            "phase",
            "availability",
            "full",
            "replica",
            "stale-cache",
            "bootstrap",
            "deferred obs",
            "mean cost (virtual µs)",
            "p99 cost (virtual µs)",
        ],
    );
    let names = ["pre-kill", "outage", "post-recovery"];
    for (name, phase) in names.iter().zip(&phases) {
        let summary = LatencySummary::from_samples(&phase.costs);
        let (mean, p99) = summary.map_or((0.0, 0.0), |s| (s.mean, s.p99));
        print_row(&[
            name.to_string(),
            format!("{:.4}", phase.availability()),
            phase.full.to_string(),
            phase.replica.to_string(),
            phase.stale_cache.to_string(),
            phase.bootstrap.to_string(),
            phase.deferred.to_string(),
            format!("{mean:.1}"),
            format!("{p99:.1}"),
        ]);
    }

    let stats = velox.stats();
    println!("\ncluster counters:");
    println!("  unavailable reads        {}", stats.cluster.unavailable_reads);
    println!("  failover reads           {}", stats.cluster.failover_reads());
    println!("  injected read failures   {}", stats.cluster.injected_read_failures);
    println!("  injected latency spikes  {}", stats.cluster.injected_latency_spikes);
    println!(
        "  redo queue               buffered {} / drained {} / shed {} / pending {}",
        stats.redo.buffered, stats.redo.drained, stats.redo.shed, stats.redo.pending
    );
    println!("  degradation counters     {:?} (total {})", stats.degraded, stats.degraded.total());

    let issued: u64 = phases.iter().map(|p| p.issued).sum();
    let answered: u64 = phases.iter().map(|p| p.answered).sum();
    let availability = answered as f64 / issued as f64;
    println!("\noverall availability: {answered}/{issued} = {availability:.4}");

    if smoke {
        // CI gate: the outage must cost less than 1% of requests, the
        // ladder must account for every answered predict, and the redo
        // queue must be fully drained after recovery.
        let predicts_answered: u64 =
            phases.iter().map(|p| p.full + p.replica + p.stale_cache + p.bootstrap).sum();
        let mut ok = true;
        if availability < 0.99 {
            eprintln!("SMOKE FAIL: availability {availability:.4} < 0.99");
            ok = false;
        }
        if stats.degraded.total() != predicts_answered {
            eprintln!(
                "SMOKE FAIL: degradation counters {} != answered predicts {predicts_answered}",
                stats.degraded.total()
            );
            ok = false;
        }
        if stats.redo.pending != 0 {
            eprintln!("SMOKE FAIL: {} observations still pending redo", stats.redo.pending);
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("smoke: all gates passed");
    }
}
