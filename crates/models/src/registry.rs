//! The error vocabulary of model registries.
//!
//! Velox is multi-model ("an advertising service may run a series of ad
//! campaigns, each with separate models", §2). The registry itself —
//! named backends, retained versions, alias flips — is
//! `velox-serve`'s `ModelManager`; the refusals it and the REST layer
//! share are defined here, next to the model trait they are about.

/// Why a registry operation was refused. Every variant is a caller
/// mistake — a name collision or a dangling reference — so the REST layer
/// maps these to `400`, never a `500` (the same discipline
/// `MembershipError` established for the membership plane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// `register` was asked to create a name that already exists (use
    /// `upload` to swap a new version in instead).
    DuplicateModel(String),
    /// The named model is not registered.
    UnknownModel(String),
    /// The named model exists but the requested version is not retained
    /// (never existed, or aged out of the bounded history).
    VersionNotRetained {
        /// The model name.
        name: String,
        /// The version that was requested.
        version: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateModel(name) => {
                write!(f, "model {name:?} is already registered")
            }
            RegistryError::UnknownModel(name) => write!(f, "model {name:?} is not registered"),
            RegistryError::VersionNotRetained { name, version } => {
                write!(f, "model {name:?} has no retained version {version}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}
