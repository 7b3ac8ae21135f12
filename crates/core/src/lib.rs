//! # velox-core
//!
//! The Velox system: low-latency model serving and online model management
//! on top of the batch/storage/cluster substrates.
//!
//! A [`Velox`] instance deploys one model lineage (a [`VeloxModel`] plus its
//! per-user weight table) across a simulated cluster and exposes the
//! paper's front-end API (Listing 1):
//!
//! - [`Velox::predict`] — point prediction `wᵤᵀ f(x, θ)` with prediction
//!   and feature caching (§5).
//! - [`Velox::top_k`] — candidate-set evaluation with contextual-bandit
//!   serving and validation-pool collection (§5, §4.3).
//! - [`Velox::observe`] — feedback ingestion: logs the observation, applies
//!   the online user-weight update (Eq. 2), tracks model quality, and
//!   triggers offline retraining when the model goes stale (§4).
//!
//! Model lifecycle (§4.3, §6) is handled by the manager half:
//! [`Velox::retrain_offline`] delegates to the batch substrate ("Spark"),
//! swaps the new model version in atomically, repopulates caches, and
//! retains history for [`Velox::rollback`].
//!
//! Durable state ([`durability`]) adds crash safety: with
//! [`DurabilityConfig`] set, every observation is written ahead to an
//! on-disk log before acknowledgment, [`Velox::checkpoint`] persists the
//! full deployment atomically, and [`Velox::deploy_durable`] recovers —
//! checkpoint restore plus WAL replay — after a crash.
//!
//! A `Velox` is one deployment. Hosting many side by side — Listing 1's
//! `ModelSchema` parameter, §2's ad campaigns — is `velox-serve`'s
//! `ServeTier`: its registry maps each name to a versioned backend, and
//! a `Velox` serves there behind `VeloxBackend`.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod config;
pub mod durability;
pub mod ensemble;
pub mod error;
pub mod persistence;
pub mod sharded_cache;
pub mod velox;

pub use bootstrap::BootstrapState;
pub use config::VeloxConfig;
pub use durability::{CheckpointReport, DurabilityConfig, DurabilityStats, RecoveryReport};
pub use ensemble::{EnsemblePrediction, EnsembleSelector, WeightScope};
pub use error::VeloxError;
pub use persistence::DeploymentSnapshot;
pub use velox::{
    DegradationCounts, DegradationLevel, ObserveOutcome, PredictResponse, RedoQueueStats,
    SystemStats, TopKResponse, Velox,
};

// Re-export the trait and common types users need to deploy models, so
// downstream code can depend on velox-core alone.
pub use velox_bandit::{
    BanditPolicy, EpsilonGreedyPolicy, GreedyPolicy, LinUcbPolicy, ThompsonPolicy,
};
pub use velox_models::{Item, ModelError, TrainingExample, VeloxModel};
