//! # velox
//!
//! Umbrella crate for the Velox reproduction (CIDR 2015): re-exports every
//! workspace crate under one roof so applications can depend on `velox`
//! alone. See the README for the architecture overview and DESIGN.md for
//! the paper-to-module map.

pub use velox_bandit as bandit;
pub use velox_batch as batch;
pub use velox_cluster as cluster;
pub use velox_data as data;
pub use velox_linalg as linalg;
pub use velox_models as models;
pub use velox_net as net;
pub use velox_obs as obs;
pub use velox_online as online;
pub use velox_rest as rest;
pub use velox_serve as serve;
pub use velox_storage as storage;

/// `velox-core`, plus `VeloxServer`: a second name for
/// [`serve::ServeTier`], the one name → model map, kept because the
/// benchmark harness builds its REST server as
/// `RestServer::new(Arc::new(VeloxServer::new())).with_serving(tier)` —
/// an empty tier that `with_serving` replaces.
pub mod core {
    pub use velox_core::*;
    pub use velox_serve::ServeTier as VeloxServer;
}

/// Commonly-used types, one `use velox::prelude::*` away.
pub mod prelude {
    pub use velox_bandit::{BanditPolicy, Candidate};
    pub use velox_batch::{AlsConfig, AlsModel, JobExecutor};
    pub use velox_cluster::{
        ClusterConfig, FaultAction, FaultEvent, FaultPlan, NodeHealth, RoutingPolicy, SimTransport,
        Transport, TransportError, TransportObserve, TransportPredict,
    };
    pub use velox_core::config::BanditChoice;
    pub use velox_core::{
        BootstrapState, CheckpointReport, DegradationLevel, DurabilityConfig, DurabilityStats,
        Item, ObserveOutcome, PredictResponse, RecoveryReport, SystemStats, TopKResponse,
        TrainingExample, Velox, VeloxConfig, VeloxError, VeloxModel,
    };
    pub use velox_data::{
        Rating, RatingsDataset, SyntheticConfig, VeloxRng, WorkloadConfig, ZipfGenerator,
    };
    pub use velox_linalg::{Matrix, Vector};
    pub use velox_models::{
        IdentityModel, MatrixFactorizationModel, MlpFeatureModel, RandomFourierModel,
        SvmEnsembleModel,
    };
    pub use velox_net::{
        NetClient, NetClientConfig, NetCluster, NetClusterConfig, NetServer, NetServerConfig,
    };
    pub use velox_obs::{Counter, EventKind, Gauge, Histogram, Registry, SpanTimer, Timer};
    pub use velox_serve::{
        BatchConfig, CustomScorer, ModelManager, PredictBackend, RegistryError, ServeConfig,
        ServeError, ServeTier, ServedPredict, TransportBackend, VeloxBackend, CLUSTER_BACKEND,
    };
    pub use velox_storage::{FsyncPolicy, ScratchDir};
}
