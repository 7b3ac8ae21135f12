//! Ad targeting with multiple models and bandit exploration.
//!
//! ```text
//! cargo run --release --example ad_targeting
//! ```
//!
//! The §2 scenario: "an advertising service may run a series of ad
//! campaigns, each with separate models over the same set of users." Each
//! campaign is an independent Velox deployment registered by name in one
//! [`ServeTier`], and reached through [`ServeTier::velox`].
//! The example also shows *why* the serving layer owns exploration (§5): a
//! greedy campaign collects feedback only on the ads it already likes and
//! plateaus, while the LinUCB campaign keeps learning.

use std::collections::HashMap;
use std::sync::Arc;

use velox::prelude::*;
use velox_linalg::Vector;

const N_ADS: u64 = 50;
const N_USERS: u64 = 200;
const AD_DIM: usize = 8;
const ROUNDS: usize = 4000;

/// Deterministic ad attribute vectors.
fn ad_attributes(ad: u64) -> Vec<f64> {
    (0..AD_DIM).map(|k| ((ad as f64 + 1.0) * (k as f64 + 1.3) * 0.61).sin()).collect()
}

/// Planted per-user preference over ad attributes: the "true" click model.
fn true_preference(uid: u64) -> Vector {
    Vector::from_vec(
        (0..AD_DIM).map(|k| ((uid as f64 + 2.0) * (k as f64 + 0.7) * 0.39).cos() * 0.5).collect(),
    )
}

/// Simulated click-through: probability follows the planted preference.
fn click(uid: u64, ad: u64, round: usize) -> f64 {
    let affinity = true_preference(uid).dot(&Vector::from_vec(ad_attributes(ad))).unwrap();
    // Deterministic pseudo-random threshold per (uid, ad, round).
    let mut z = uid
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(ad.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(round as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    let p_click = 1.0 / (1.0 + (-3.0 * affinity).exp()); // logistic
    if u < p_click {
        1.0
    } else {
        0.0
    }
}

fn deploy_campaign(name: &str, bandit: BanditChoice) -> Arc<Velox> {
    let model = IdentityModel::new(name, AD_DIM, 1.0);
    let mut config = VeloxConfig::single_node();
    config.bandit = bandit;
    config.seed = 7;
    let velox = Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), config));
    for ad in 0..N_ADS {
        velox.register_item(ad, ad_attributes(ad));
    }
    velox
}

fn run_campaign(campaign: &Velox) -> (f64, usize) {
    let candidates: Vec<Item> = (0..N_ADS).map(Item::Id).collect();
    let mut clicks = 0.0;
    let mut ads_shown = std::collections::HashSet::new();
    for round in 0..ROUNDS {
        let uid = (round as u64 * 17) % N_USERS;
        let resp = campaign.top_k(uid, &candidates).unwrap();
        let ad = resp.ranked[0].0.max(resp.served) as u64; // served ad
        let served_ad = candidates[resp.served].id().unwrap();
        ads_shown.insert(served_ad);
        let y = click(uid, served_ad, round);
        clicks += y;
        campaign.observe(uid, &candidates[resp.served], y).unwrap();
        let _ = ad;
    }
    (clicks / ROUNDS as f64, ads_shown.len())
}

fn main() -> Result<(), ServeError> {
    let tier = ServeTier::new();
    for (name, bandit) in
        [("campaign-greedy", BanditChoice::Greedy), ("campaign-linucb", BanditChoice::LinUcb(1.5))]
    {
        tier.register(name, Arc::new(VeloxBackend::new(deploy_campaign(name, bandit))))?;
    }

    println!("simulating {ROUNDS} ad serves per campaign over {N_USERS} users, {N_ADS} ads\n");

    let (ctr_greedy, coverage_greedy) = run_campaign(&*tier.velox("campaign-greedy")?);
    let (ctr_linucb, coverage_linucb) = run_campaign(&*tier.velox("campaign-linucb")?);

    println!("campaign           CTR      catalog coverage");
    println!("greedy             {:.3}    {coverage_greedy}/{N_ADS} ads", ctr_greedy);
    println!("linucb(α=1.5)      {:.3}    {coverage_linucb}/{N_ADS} ads", ctr_linucb);
    println!();
    if coverage_linucb > coverage_greedy {
        println!(
            "LinUCB explored {}x more of the catalog — the feedback-loop escape of §5.",
            coverage_linucb / coverage_greedy.max(1)
        );
    }

    // Campaigns are isolated: their models diverge even on the same users.
    let g = tier.velox("campaign-greedy")?;
    let l = tier.velox("campaign-linucb")?;
    println!(
        "\nindependent deployments: greedy logged {} observations, linucb {}",
        g.stats().observations,
        l.stats().observations
    );
    Ok(())
}
