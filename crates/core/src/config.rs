//! Deployment configuration for a Velox instance.

use velox_cluster::{ClusterConfig, RIDGE_LAMBDA};

use crate::durability::DurabilityConfig;

/// Bandit policy selection for `topK` serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditChoice {
    /// Pure exploitation (the feedback-loop baseline).
    Greedy,
    /// ε-greedy with the given exploration rate.
    EpsilonGreedy(f64),
    /// LinUCB with the given exploration width α (the paper's choice).
    LinUcb(f64),
    /// Thompson sampling with the given posterior scale.
    Thompson(f64),
}

/// Configuration of one Velox deployment.
#[derive(Debug, Clone)]
pub struct VeloxConfig {
    /// Ridge regularization λ for online user-weight updates (Eq. 2).
    pub lambda: f64,
    /// Prediction-cache capacity (entries across all users).
    pub prediction_cache_capacity: usize,
    /// Feature-cache capacity for computed feature functions (entries).
    pub feature_cache_capacity: usize,
    /// Staleness threshold: relative loss increase that triggers offline
    /// retraining (§6).
    pub staleness_threshold: f64,
    /// Observations before the staleness detector may fire.
    pub staleness_warmup: u64,
    /// Retrain automatically when staleness fires (can be off for manual
    /// lifecycle control or experiments).
    pub auto_retrain: bool,
    /// Hold out every k-th observation for prequential cross-validation
    /// (0 disables; held-out observations are still logged, not trained).
    pub crossval_holdout_every: u64,
    /// Bandit policy used by `topK`.
    pub bandit: BanditChoice,
    /// Fraction of `topK` serves randomized into the validation pool.
    pub validation_fraction: f64,
    /// Capacity of the validation pool.
    pub validation_capacity: usize,
    /// Simulated-cluster topology and cost model.
    pub cluster: ClusterConfig,
    /// Capacity of the stale-weight cache backing graceful degradation:
    /// last-known-good `wᵤ` copies served (flagged stale) when every live
    /// replica of a user is gone.
    pub stale_weight_cache_capacity: usize,
    /// Bounded redo queue for observations that arrive while a user's
    /// partition is unreachable; drained into the online state on recovery.
    /// When full, further observations during the outage are shed (and
    /// counted) rather than growing memory without bound.
    pub redo_queue_capacity: usize,
    /// Worker threads for offline (re)training jobs.
    pub training_workers: usize,
    /// Deterministic seed for serving-side randomness (bandits, validation).
    pub seed: u64,
    /// On-disk durability (WAL + checkpoints). `None` (the default) keeps
    /// the deployment memory-only; set it and deploy through
    /// [`Velox::deploy_durable`](crate::Velox::deploy_durable) to make
    /// acknowledged observations crash-safe.
    pub durability: Option<DurabilityConfig>,
}

impl Default for VeloxConfig {
    fn default() -> Self {
        VeloxConfig {
            // The λ the simulator and the socket nodes fit with.
            lambda: RIDGE_LAMBDA,
            prediction_cache_capacity: 64 * 1024,
            feature_cache_capacity: 16 * 1024,
            staleness_threshold: 0.5,
            staleness_warmup: 200,
            auto_retrain: false,
            crossval_holdout_every: 0,
            bandit: BanditChoice::LinUcb(1.0),
            validation_fraction: 0.0,
            validation_capacity: 4096,
            cluster: ClusterConfig::default(),
            stale_weight_cache_capacity: 16 * 1024,
            redo_queue_capacity: 1024,
            training_workers: 4,
            seed: 0xC1D1,
            durability: None,
        }
    }
}

impl VeloxConfig {
    /// A small single-node configuration for tests and examples: 1 node,
    /// small caches, deterministic.
    pub fn single_node() -> Self {
        VeloxConfig {
            cluster: ClusterConfig { n_nodes: 1, ..Default::default() },
            prediction_cache_capacity: 1024,
            feature_cache_capacity: 1024,
            training_workers: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = VeloxConfig::default();
        assert!(c.lambda > 0.0);
        assert!(c.prediction_cache_capacity > 0);
        assert!(matches!(c.bandit, BanditChoice::LinUcb(_)));
    }

    #[test]
    fn single_node_profile() {
        let c = VeloxConfig::single_node();
        assert_eq!(c.cluster.n_nodes, 1);
    }
}
