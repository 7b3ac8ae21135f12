//! # velox-data
//!
//! Synthetic datasets and workload generators.
//!
//! The paper's experiments run against the MovieLens 10M ratings set and
//! against request streams whose item popularity "often follows a Zipfian
//! distribution" (§5). Neither real traces nor MovieLens are available in
//! this environment, so this crate generates the closest synthetic
//! equivalents (see DESIGN.md, "Substitutions"):
//!
//! - [`ratings`]: a **planted-factor** ratings generator. Ground-truth user
//!   and item factors are drawn from a Gaussian, ratings are noisy inner
//!   products clamped to a rating scale. This preserves the property the
//!   accuracy experiment (§4.2) depends on: the data genuinely has low-rank
//!   structure, so online refinement of user weights against fixed item
//!   factors measurably reduces held-out error.
//! - [`split`]: the §4.2 evaluation protocol — per-user chronological splits
//!   into offline-initialization, online-update, and held-out sets.
//! - [`workload`]: request-stream generation — Zipfian item popularity,
//!   uniform/weighted user selection, top-K candidate-set sampling.
//! - [`rng`]: deterministic random primitives (an in-tree xoshiro256++
//!   generator, Box–Muller Gaussians, inverted-CDF Zipf) so every
//!   experiment is reproducible from a seed with zero external deps.

#![warn(missing_docs)]

/// The dense kernels and the online learner, re-exported so crates that
/// reach this one (but not `velox-linalg` directly) can use them.
pub use velox_linalg as linalg;

pub mod ratings;
pub mod rng;
pub mod split;
pub mod workload;

pub use ratings::{Rating, RatingsDataset, SyntheticConfig};
pub use rng::{VeloxRng, Zipf};
pub use split::{three_way_split, LifecycleSplit};
pub use workload::{TopKRequest, WorkloadConfig, ZipfGenerator};
