//! SCALE — how much memory each user's online state takes at d = 200.
//!
//! Deploys `Velox` over a d-dimensional factor table, observes every user
//! once (which creates that user's online state: the packed `A⁻¹` plus
//! `b`, `w` and `u`), and prints the `velox_online_state_bytes` gauge
//! next to the process's peak resident set (`VmHWM`). Run with:
//!
//! ```text
//! cargo run --release -p velox-bench --bin scale_state -- [users] [d]
//! ```
//!
//! Defaults: 10 000 users at d = 200, over 1 000 items.

use std::collections::HashMap;
use std::sync::Arc;

use velox_batch::AlsConfig;
use velox_bench::FixtureRng;
use velox_core::{Velox, VeloxConfig};
use velox_models::{Item, MatrixFactorizationModel};

const ITEMS: u64 = 1_000;

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>().expect("a count"));
    let users = args.next().unwrap_or(10_000) as u64;
    let d = args.next().unwrap_or(200);
    let mut rng = FixtureRng::new(0x5CA1E);
    let table = (0..ITEMS).map(|item| (item, rng.vector(d))).collect();
    let model = MatrixFactorizationModel::from_table(
        "scale",
        table,
        0.0,
        AlsConfig { rank: d, ..Default::default() },
    )
    .expect("a well-formed table");
    let velox = Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::default());
    let before = peak_rss_mib();
    for uid in 0..users {
        velox.observe(uid, &Item::Id(uid % ITEMS), 0.5).expect("observe");
    }
    let gauge = velox.registry().snapshot().gauge("velox_online_state_bytes").unwrap_or(0);
    let per_user = (d * (d + 1) / 2 + 3 * d) * std::mem::size_of::<f64>();
    let mib = |bytes: f64| bytes / (1024.0 * 1024.0);
    println!("| users | d | state per user | velox_online_state_bytes | VmHWM before observes | VmHWM after |");
    println!("|---|---|---|---|---|---|");
    println!(
        "| {users} | {d} | {:.1} KiB | {:.0} MiB | {before:.0} MiB | {:.0} MiB |",
        per_user as f64 / 1024.0,
        mib(gauge as f64),
        peak_rss_mib()
    );
}
