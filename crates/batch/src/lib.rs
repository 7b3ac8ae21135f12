//! # velox-batch
//!
//! The batch-compute substrate — the Spark substitute.
//!
//! Velox "aggressively exploits" an existing cluster-compute framework for
//! the offline phase (§4.2): full retraining of the feature parameters `θ`
//! and the user-weight table `W` from the accumulated observation log. This
//! crate rebuilds the slice of that framework the paper actually exercises:
//!
//! - [`executor::JobExecutor`]: a fixed-size worker pool executing the tasks
//!   of a stage in parallel, results in task order — the moral equivalent
//!   of a Spark stage scheduler for a single node.
//! - [`als`]: Alternating Least Squares matrix factorization — the offline
//!   trainer for the paper's collaborative-filtering running example. Each
//!   half-step is a bag of independent per-entity ridge regressions
//!   (`velox-linalg`), scheduled across the executor.
//!
//! Determinism: given the same inputs, seeds, and worker counts, training
//! produces identical results; ALS parallel reductions are structured so
//! the result does not depend on task interleaving.

#![warn(missing_docs)]

pub mod als;
pub mod executor;

pub use als::{AlsConfig, AlsModel};
pub use executor::JobExecutor;
