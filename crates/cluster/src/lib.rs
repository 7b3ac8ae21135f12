//! # velox-cluster
//!
//! A deterministic cluster simulator for Velox's distributed serving layer.
//!
//! The paper (§3, §5) deploys the model manager and predictor co-located
//! with each storage worker and relies on three distribution mechanisms:
//!
//! 1. **uid-hash partitioning of the user-weight table `W`** with "a routing
//!    protocol for incoming user requests to ensure that they are served by
//!    the node containing that user's model" — making every `wᵤ` read and
//!    every online update local, and balancing load.
//! 2. **Partitioned item-feature tables** where evaluating `f` "may involve
//!    a data transfer from a remote machine", mitigated by
//! 3. **per-node LRU caches of hot items**, effective because item
//!    popularity is Zipfian.
//!
//! None of this needs real sockets to study: what the experiments measure
//! is *where* data lives and *what a remote read costs*. The simulator
//! models exactly that — N nodes, the placement of `W` and of the item
//! table across them, an LRU item cache per node, a virtual-time cost
//! model (microseconds per local/remote read) and full access accounting.
//! It keeps no per-node copy of anything: the item table is held once,
//! and each user's state once, by whoever serves it. The ABL-PART and
//! ABL-CACHE experiments, and the serving path of `velox-core`, run on top
//! of this.
//!
//! The [`fault`] module adds the adversary: deterministic node
//! kill/recover schedules, transient read failures, and latency spikes,
//! with replica failover in the cluster itself and one crash rule (a kill
//! drops whatever lost its last live replica) — the substrate for the
//! CHAOS-AVAIL experiment and `velox-core`'s graceful degradation ladder. [`netfault`] extends the adversary to the *links*
//! (seeded drop/delay/duplication/corruption/reset and directional
//! partitions between named peers), [`detector`] turns probe outcomes
//! into suspect/dead liveness verdicts that feed routing, and [`retry`]
//! supplies the budgeted-backoff and observation-dedupe policies both
//! transports share — together the substrate for the CHAOS-NET
//! experiment. [`migrate`] is the elastic-membership control plane — live
//! migration, abort/rollback, join rebalance and fail-over — written once
//! against an I/O seam that this simulator and `velox-net` both fill.
//! [`conn_pool`] is the one TCP accept loop and worker pool that
//! `velox-net`'s frame server and `velox-rest`'s HTTP server both run on.
//! [`user_store`] is the one table of per-user online learner state,
//! sharded by virtual partition, that the in-process `Velox`, the simulator
//! and every `velox-net` node each hold.

#![warn(missing_docs)]

/// The workspace's data helpers (and, through them, its dense kernels),
/// re-exported for crates that reach `velox-data` only through this one.
pub use velox_data as data;

pub mod cluster;
pub mod conn_pool;
pub mod detector;
pub mod fault;
pub mod migrate;
pub mod netfault;
pub mod partition;
pub mod retry;
pub mod transport;
pub mod user_store;

pub use cluster::{
    AccessKind, Cluster, ClusterConfig, ClusterRead, ClusterStats, NodeStats, UserAccess,
    LOCAL_READ_US, REMOTE_READ_US,
};
pub use conn_pool::{ConnPool, PoolConfig};
pub use detector::{FailureDetector, PeerLiveness, PeerState};
pub use fault::{FaultAction, FaultClock, FaultEvent, FaultPlan, HealthTransition, NodeHealth};
pub use migrate::{ChunkStep, ControlPlane, MigrationIo, Migrator};
pub use netfault::{
    ChaosControl, LinkChaos, LinkFaultEvent, LinkFaultKind, LinkFaultPlan, LinkVerdict, FRONT_PEER,
};
pub use partition::{
    HashPartitioner, MembershipError, MembershipView, MigrationOutcome, MigrationStatus, NodeId,
    PartitionError, PartitionMap, RoutingPolicy, ITEM_SALT, PARTITIONS_PER_NODE, USER_SALT,
};
pub use retry::{obs_id_nonce, ObsDedupe, RetryPolicy};
pub use transport::{
    non_finite_label, score, SimTransport, Transport, TransportError, TransportObserve,
    TransportPredict, RIDGE_LAMBDA,
};
pub use user_store::{StoreMetrics, UserStore};
