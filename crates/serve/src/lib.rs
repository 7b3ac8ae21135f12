//! # velox-serve
//!
//! The Clipper-style serving tier (PAPERS.md: "Clipper: A Low-Latency
//! Online Prediction Serving System") layered over the Velox runtime:
//! the piece the paper's §6 model lifecycle stops short of.
//!
//! Two pillars:
//!
//! - **Model abstraction** — [`PredictBackend`] gives every scorer (a
//!   full [`velox_core::Velox`] deployment, a cluster transport, a
//!   user-supplied closure) one predict interface; [`ModelManager`]
//!   registers them by name with retained versions and an atomically
//!   flippable serving alias, resolved through immutable per-request
//!   snapshots so no request ever sees a half-swapped model.
//! - **Adaptive batching** — [`ServeTier`] runs one batching lane per
//!   backend that coalesces concurrent predicts into single batched
//!   passes, sizing batches by AIMD against a per-backend latency SLO
//!   (see [`batch`] for the state machine). Batched passes are
//!   bit-identical to sequential ones — batching buys throughput, never
//!   different answers.
//!
//! The tier's registry is the workspace's one name → model map: the REST
//! layer resolves every `/models/<name>/*` route against it — predicts
//! through the name's lane, the rest through [`ServeTier::velox`], the
//! Velox deployment behind the name. Recovering a deployment swaps it in
//! with the same register → flip → retire protocol as any upgrade.
//!
//! The tier exports `velox_serve_*` metrics and `batch`/`backend` trace
//! spans through `velox-obs`.

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod error;
pub mod manager;
pub mod tier;

pub use backend::{
    BackendMeta, CustomScorer, PredictBackend, ServeDetail, ServedPredict, TransportBackend,
    VeloxBackend,
};
pub use batch::{BatchConfig, LaneStats};
pub use error::{RegistryError, ServeError};
pub use manager::{BackendEntry, ManagerSnapshot, ModelManager};
pub use tier::{BackendStatus, ServeConfig, ServeTier, CLUSTER_BACKEND};
