//! The unified error type of the Velox front end.

use velox_linalg::LinalgError;
use velox_models::ModelError;
use velox_storage::StorageError;

/// Errors surfaced by Velox API calls.
#[derive(Debug, Clone, PartialEq)]
pub enum VeloxError {
    /// The model implementation rejected the request.
    Model(ModelError),
    /// Numerical failure in an online update or prediction.
    Numeric(LinalgError),
    /// Storage-layer failure.
    Storage(StorageError),
    /// A `topK` call with an empty candidate set.
    EmptyCandidateSet,
    /// A label or raw feature value in the request is NaN or ±∞ (names the
    /// field). Rejected at the API boundary: folded into a user's moments
    /// it would turn their weights non-finite for good.
    NonFiniteInput(&'static str),
    /// Rollback target version not retained.
    VersionNotFound(u64),
    /// Offline retraining failed.
    RetrainFailed(String),
    /// An offline retrain is already running; the request was rejected
    /// rather than queued.
    RetrainInProgress,
    /// The request could not be served — or an observation could not even
    /// be buffered — because every replica of the needed partition is
    /// unreachable and no degraded fallback applied.
    Unavailable(String),
    /// A durability operation (checkpoint, recovery) was requested on a
    /// deployment with no durability configured/attached.
    DurabilityDisabled,
}

impl std::fmt::Display for VeloxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VeloxError::Model(e) => write!(f, "model error: {e}"),
            VeloxError::Numeric(e) => write!(f, "numeric error: {e}"),
            VeloxError::Storage(e) => write!(f, "storage error: {e}"),
            VeloxError::EmptyCandidateSet => write!(f, "topK requires a non-empty candidate set"),
            VeloxError::NonFiniteInput(field) => write!(f, "{field} must be finite"),
            VeloxError::VersionNotFound(v) => write!(f, "model version {v} not retained"),
            VeloxError::RetrainFailed(why) => write!(f, "offline retraining failed: {why}"),
            VeloxError::RetrainInProgress => write!(f, "an offline retrain is already in flight"),
            VeloxError::Unavailable(why) => write!(f, "temporarily unavailable: {why}"),
            VeloxError::DurabilityDisabled => {
                write!(f, "durability is not configured for this deployment")
            }
        }
    }
}

impl std::error::Error for VeloxError {}

impl From<ModelError> for VeloxError {
    fn from(e: ModelError) -> Self {
        VeloxError::Model(e)
    }
}

impl From<LinalgError> for VeloxError {
    fn from(e: LinalgError) -> Self {
        VeloxError::Numeric(e)
    }
}

impl From<StorageError> for VeloxError {
    fn from(e: StorageError) -> Self {
        VeloxError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e: VeloxError = ModelError::UnknownItem(7).into();
        assert!(e.to_string().contains('7'));
        let e: VeloxError = LinalgError::Empty { op: "mean" }.into();
        assert!(e.to_string().contains("mean"));
        let e: VeloxError = StorageError::Corrupt("segment 3".into()).into();
        assert!(e.to_string().contains('3'));
        assert!(VeloxError::EmptyCandidateSet.to_string().contains("non-empty"));
    }
}
