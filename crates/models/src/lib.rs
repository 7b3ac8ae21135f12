//! # velox-models
//!
//! The `VeloxModel` interface (paper §6, Listing 2) and its built-in
//! implementations.
//!
//! Velox serves one family of models — personalized generalized linear
//! models `prediction(u, x) = wᵤᵀ f(x, θ)` — but the feature function `f`
//! is pluggable. A data scientist adds a model by implementing the
//! [`VeloxModel`] trait: how to featurize items ([`VeloxModel::features`]),
//! how to retrain offline ([`VeloxModel::retrain`]), and how to score
//! quality ([`VeloxModel::loss`]). Feature functions come in two kinds the
//! paper distinguishes explicitly:
//!
//! - **materialized** — `f` is a table lookup (e.g. the latent item factors
//!   of a matrix-factorization model). Implemented by
//!   [`mf::MatrixFactorizationModel`].
//! - **computational** — `f` evaluates basis functions on raw input data
//!   (e.g. "a set of SVMs with different parameters" or random Fourier
//!   bases approximating an RBF kernel). Implemented by
//!   [`basis::SvmEnsembleModel`], [`basis::RandomFourierModel`], and the
//!   trivial [`basis::IdentityModel`].
//!
//! Named, versioned model registration ("incrementing the version and
//! transparently upgrading incoming prediction requests") lives in
//! `velox-serve`'s `ModelManager`, with its refusals.

#![warn(missing_docs)]

pub mod basis;
pub mod mf;

pub use basis::{IdentityModel, MlpFeatureModel, RandomFourierModel, SvmEnsembleModel};
pub use mf::MatrixFactorizationModel;

use std::collections::HashMap;
use velox_batch::JobExecutor;
use velox_linalg::Vector;

/// Input data for a feature function — the paper's opaque `Data` type.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A reference to a catalog item, resolved through a materialized
    /// feature table.
    Id(u64),
    /// A raw feature payload for computational feature functions (e.g. the
    /// content features of a fresh item never seen by training).
    Raw(Vector),
}

impl Item {
    /// The item id, when this is a catalog reference.
    pub fn id(&self) -> Option<u64> {
        match self {
            Item::Id(id) => Some(*id),
            Item::Raw(_) => None,
        }
    }
}

/// One supervised example for offline retraining: `(uid, item, label)`.
#[derive(Debug, Clone)]
pub struct TrainingExample {
    /// The user who produced the label.
    pub uid: u64,
    /// The item the label refers to.
    pub item: Item,
    /// The label (rating, click, ...).
    pub y: f64,
}

/// The output of an offline retrain: a fresh model (new `θ`) plus the
/// recomputed user-weight table — the paper's
/// `((Data) => Vector, Table[String, Vector])` return of `retrain`.
pub struct RetrainResult {
    /// The retrained model (same name, new parameters).
    pub model: Box<dyn VeloxModel>,
    /// Recomputed per-user weights.
    pub user_weights: HashMap<u64, Vector>,
}

/// Errors surfaced by model implementations.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A materialized lookup missed (unknown item id).
    UnknownItem(u64),
    /// The item payload kind doesn't match the feature function (e.g. a
    /// raw payload passed to a purely materialized model, or vice versa).
    WrongItemKind {
        /// What the model needed.
        expected: &'static str,
    },
    /// A payload had the wrong dimensionality.
    DimensionMismatch {
        /// Expected input dimension.
        expected: usize,
        /// Dimension supplied.
        actual: usize,
    },
    /// Offline training failed (degenerate data, solver failure).
    TrainingFailed(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownItem(id) => write!(f, "unknown item {id}"),
            ModelError::WrongItemKind { expected } => {
                write!(f, "wrong item kind: this model expects {expected}")
            }
            ModelError::DimensionMismatch { expected, actual } => {
                write!(f, "feature input dimension mismatch: expected {expected}, got {actual}")
            }
            ModelError::TrainingFailed(why) => write!(f, "training failed: {why}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The model interface of Listing 2.
///
/// Implementations are immutable once constructed: retraining returns a
/// *new* model rather than mutating in place, which is what makes version
/// swap/rollback in the manager trivially safe.
pub trait VeloxModel: Send + Sync {
    /// User-provided model name.
    fn name(&self) -> &str;

    /// Feature dimension `d` (the length of every `wᵤ` and of `features`
    /// output).
    fn dim(&self) -> usize;

    /// Whether `features` is a materialized table lookup (`true`) or a
    /// computation over raw input (`false`) — the `materialized` flag of
    /// Listing 2.
    fn is_materialized(&self) -> bool;

    /// The feature transformation `f(x, θ)`.
    fn features(&self, item: &Item) -> Result<Vector, ModelError>;

    /// Offline retraining from the full observation history. The current
    /// user weights are passed in because "the training procedure ...
    /// depends on the current user weights" (§4.2, warm start).
    fn retrain(
        &self,
        data: &[TrainingExample],
        user_weights: &HashMap<u64, Vector>,
        executor: &JobExecutor,
    ) -> Result<RetrainResult, ModelError>;

    /// Pointwise quality loss; default is squared error, the paper's choice
    /// for the initial prototype.
    fn loss(&self, y: f64, y_pred: f64, _item: &Item, _uid: u64) -> f64 {
        let e = y - y_pred;
        e * e
    }

    /// The materialized feature table for cluster placement — `(item id,
    /// features)` pairs. Empty for computational models (their `θ` lives in
    /// the model object itself).
    fn materialized_table(&self) -> Vec<(u64, Vec<f64>)> {
        Vec::new()
    }
}

/// Shared retraining helper for computational-feature models: the basis is
/// fixed, so retraining reduces to an independent ridge solve per user over
/// their full history — parallelized across the executor.
pub(crate) fn refit_user_weights(
    model: &dyn VeloxModel,
    data: &[TrainingExample],
    lambda: f64,
    executor: &JobExecutor,
) -> Result<HashMap<u64, Vector>, ModelError> {
    use velox_linalg::RidgeProblem;
    let mut by_user: HashMap<u64, Vec<&TrainingExample>> = HashMap::new();
    for ex in data {
        by_user.entry(ex.uid).or_default().push(ex);
    }
    let users: Vec<(u64, Vec<&TrainingExample>)> = by_user.into_iter().collect();
    let solved: Vec<Result<(u64, Vector), ModelError>> =
        executor.execute(users, |_, (uid, examples)| {
            let mut prob = RidgeProblem::new(model.dim(), lambda);
            for ex in examples {
                let f = model.features(&ex.item)?;
                prob.observe(&f, ex.y).map_err(|e| ModelError::TrainingFailed(e.to_string()))?;
            }
            let w = prob.solve().map_err(|e| ModelError::TrainingFailed(e.to_string()))?;
            Ok((*uid, w))
        });
    solved.into_iter().collect()
}
