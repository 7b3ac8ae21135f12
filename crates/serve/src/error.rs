//! Typed serving-tier errors.

use velox_cluster::TransportError;
use velox_core::VeloxError;

/// Why a registry operation was refused. Every variant is a caller
/// mistake — a name collision or a dangling reference — so the REST layer
/// maps these to `400` (an unknown name on a `/models/<name>/*` route is
/// its `404`), never a `500`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// `register_new` was asked to create a name that already exists (use
    /// `register` + `flip_alias` to swap a new version in instead).
    DuplicateModel(String),
    /// The named model is not registered.
    UnknownModel(String),
    /// The named model exists but the requested version is not retained
    /// (never existed, or retired).
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

/// Why a serving-tier request or management operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A registry-shaped mistake: duplicate name on register, unknown
    /// name on resolve, or a version that is not retained.
    Registry(RegistryError),
    /// `retire` was asked to drop the version currently serving the
    /// alias; flip the alias to another version first.
    RetireServing {
        /// The backend name.
        name: String,
        /// The serving version the caller tried to retire.
        version: u64,
    },
    /// The named backend is not a `Velox` deployment, so it has no
    /// observe, top-k, stats or lifecycle to offer.
    NotVelox(String),
    /// The underlying `Velox` deployment failed the request.
    Velox(VeloxError),
    /// The underlying cluster transport failed the request.
    Transport(TransportError),
    /// The item payload kind doesn't fit the backend (e.g. a raw feature
    /// vector sent to a transport backend that routes by item id).
    WrongItemKind {
        /// What the backend needed.
        expected: &'static str,
    },
    /// A custom scorer rejected the request.
    Custom(String),
    /// The tier is shutting down; the queued request was not served.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Registry(e) => write!(f, "{e}"),
            ServeError::RetireServing { name, version } => {
                write!(f, "backend {name:?} version {version} is the serving alias; flip first")
            }
            ServeError::NotVelox(name) => write!(f, "backend {name:?} is not a Velox deployment"),
            ServeError::Velox(e) => write!(f, "{e}"),
            ServeError::Transport(e) => write!(f, "{e}"),
            ServeError::WrongItemKind { expected } => {
                write!(f, "wrong item kind: this backend expects {expected}")
            }
            ServeError::Custom(msg) => write!(f, "custom scorer failed: {msg}"),
            ServeError::ShuttingDown => write!(f, "serving tier is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        ServeError::Registry(e)
    }
}

impl From<VeloxError> for ServeError {
    fn from(e: VeloxError) -> Self {
        ServeError::Velox(e)
    }
}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Transport(e)
    }
}
