//! # velox-online
//!
//! The online half of Velox's hybrid learning strategy (§4.2).
//!
//! While the feature parameters `θ` evolve slowly and are retrained in
//! batch, the per-user weights `wᵤ` are updated continuously as
//! observations arrive, by re-solving the user's regularized least-squares
//! problem (Eq. 2) with `velox_linalg::IncrementalRidge`'s Sherman–Morrison
//! update. This crate provides what judges those updates — [`evaluation`],
//! the §4.3 model-evaluation machinery: per-user running error aggregates,
//! prequential cross-validation during updates, and a staleness detector
//! that flags a model for offline retraining when its loss "starts to
//! increase faster than a threshold value" (§6).

#![warn(missing_docs)]

pub mod evaluation;

pub use evaluation::{PerUserErrorTracker, PrequentialEvaluator, StalenessDetector};
