//! The deployed Velox system: predictor + manager for one model lineage.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

use velox_bandit::{
    BanditPolicy, Candidate, EpsilonGreedyPolicy, GreedyPolicy, LinUcbPolicy, ThompsonPolicy,
    ValidationPool,
};
use velox_batch::JobExecutor;
use velox_cluster::{Cluster, ClusterStats, FaultPlan, NodeHealth, StoreMetrics, UserStore};
use velox_linalg::vector::dot_checked;
use velox_linalg::{IncrementalRidge, Matrix, Vector};
use velox_models::{Item, ModelError, TrainingExample, VeloxModel};
use velox_obs::{Counter, EventKind, Histogram, Registry, SpanTimer, Timer};
use velox_online::{PerUserErrorTracker, PrequentialEvaluator, StalenessDetector};
use velox_storage::codec::{decode_observations, encode_observations};
use velox_storage::wal::{Wal, WalConfig};
use velox_storage::{CheckpointStore, LogEntry, Namespace, ObservationLog, StorageError};

use crate::bootstrap::BootstrapState;
use crate::config::{BanditChoice, VeloxConfig};
use crate::durability::{
    CheckpointReport, DurabilityConfig, DurabilityStats, RecoveryReport, RETAIN_CHECKPOINTS,
};
use crate::error::VeloxError;
use crate::persistence::DeploymentSnapshot;
use crate::sharded_cache::ShardedCache;

/// How gracefully degraded a serving answer was (§3's fault-tolerance
/// story: replication keeps answers flowing when nodes die, at decreasing
/// fidelity).
///
/// The levels form a ladder: the serving path walks down it until
/// something can answer, so a request only errors when even the bootstrap
/// prior is unusable (it never is — `Bootstrap` always answers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationLevel {
    /// The user's primary partition answered — normal operation.
    Full,
    /// The primary was unreachable; a surviving replica answered with
    /// up-to-date weights.
    Replica,
    /// No live replica held the user; a last-known-good cached copy of
    /// their weights answered (may miss recent online updates).
    StaleCache,
    /// Nothing user-specific survived; the bootstrap (population-mean)
    /// model answered.
    Bootstrap,
}

impl DegradationLevel {
    /// Stable snake_case label (metric `level` label values).
    pub fn label(&self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::Replica => "replica",
            DegradationLevel::StaleCache => "stale_cache",
            DegradationLevel::Bootstrap => "bootstrap",
        }
    }

    fn index(&self) -> usize {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::Replica => 1,
            DegradationLevel::StaleCache => 2,
            DegradationLevel::Bootstrap => 3,
        }
    }
}

/// Per-level counts of served requests (each predict/topK counts exactly
/// once, under the level it was served at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationCounts {
    /// Requests served at full fidelity.
    pub full: u64,
    /// Requests served by a surviving replica.
    pub replica: u64,
    /// Requests served from the stale-weight cache.
    pub stale_cache: u64,
    /// Requests served by the bootstrap prior during an outage.
    pub bootstrap: u64,
}

impl DegradationCounts {
    /// Total requests counted across all levels.
    pub fn total(&self) -> u64 {
        self.full + self.replica + self.stale_cache + self.bootstrap
    }
}

/// State of the observe redo queue (outage buffering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedoQueueStats {
    /// Observations buffered because no live replica could take the write.
    pub buffered: u64,
    /// Buffered observations successfully re-applied after recovery.
    pub drained: u64,
    /// Observations shed because the queue was full during the outage.
    pub shed: u64,
    /// Observations currently waiting in the queue.
    pub pending: usize,
}

/// Response of a point prediction.
#[derive(Debug, Clone)]
pub struct PredictResponse {
    /// Predicted score `wᵤᵀ f(x, θ)` (plus the model's internal offsets).
    pub score: f64,
    /// Whether the score came from the prediction cache.
    pub cached: bool,
    /// Whether the user was unknown and served the bootstrap (mean-weight)
    /// model.
    pub bootstrapped: bool,
    /// Virtual serving cost in microseconds (storage/network accesses under
    /// the cluster's cost model; excludes CPU time, which the caller
    /// measures in wall-clock).
    pub virtual_cost_us: f64,
    /// How degraded this answer was (`Full` in normal operation).
    pub degradation: DegradationLevel,
}

/// Response of a `topK` evaluation.
#[derive(Debug, Clone)]
pub struct TopKResponse {
    /// `(input index, score)` pairs, sorted by score descending.
    pub ranked: Vec<(usize, f64)>,
    /// Index (into the input candidate list) of the item the system chose
    /// to *serve* — the bandit's pick, or a validation-pool randomization.
    pub served: usize,
    /// Whether the served item came from validation randomization rather
    /// than the bandit policy.
    pub randomized: bool,
    /// Fraction of candidates scored from the prediction cache.
    pub cached_fraction: f64,
    /// Virtual serving cost in microseconds.
    pub virtual_cost_us: f64,
    /// How degraded this answer was (`Full` in normal operation).
    pub degradation: DegradationLevel,
}

/// Outcome of an `observe` call.
#[derive(Debug, Clone)]
pub struct ObserveOutcome {
    /// Prediction for this pair *before* the update (prequential error).
    pub predicted_before: f64,
    /// Loss of that prediction under the model's loss function.
    pub loss: f64,
    /// Whether the observation was trained on (false = held out for
    /// cross-validation).
    pub trained: bool,
    /// Whether the model is flagged stale after this observation.
    pub stale: bool,
    /// Whether this observation triggered an automatic offline retrain.
    pub retrained: bool,
    /// Whether the online update was deferred into the redo queue because
    /// the user's partition is unreachable (`predicted_before`/`loss` are
    /// NaN in that case — there was no model to predict with).
    pub deferred: bool,
}

/// A snapshot of system-wide observability counters.
#[derive(Debug, Clone)]
pub struct SystemStats {
    /// Current model version.
    pub model_version: u64,
    /// Offline retrains completed since deployment.
    pub retrains: u64,
    /// Observations ingested.
    pub observations: u64,
    /// Users with online state.
    pub online_users: usize,
    /// Prediction-cache `(hits, misses, evictions)`.
    pub prediction_cache: (u64, u64, u64),
    /// Feature-cache `(hits, misses, evictions)` (computed models only).
    pub feature_cache: (u64, u64, u64),
    /// Cluster counters.
    pub cluster: ClusterStats,
    /// Mean loss across all observations since the last retrain.
    pub mean_loss: f64,
    /// Prequential generalization loss, when cross-validation is enabled.
    pub generalization_loss: Option<f64>,
    /// Validation-pool `(randomized serves, total serves)`.
    pub validation_decisions: (u64, u64),
    /// Whether the staleness detector currently flags the model.
    pub stale: bool,
    /// Per-degradation-level serve counts (reconciles with request counts:
    /// every non-cache-bypassing predict/topK lands in exactly one level).
    pub degraded: DegradationCounts,
    /// Redo-queue counters (outage observation buffering).
    pub redo: RedoQueueStats,
    /// Durable-state counters (all zero when durability is disabled).
    pub durability: DurabilityStats,
}

/// Cache key: `(uid, item_id, user weight version, model version)` — version
/// components make stale entries unreachable instead of requiring scans.
type PredKey = (u64, u64, u64, u64);

/// One walk down the degradation ladder for a user's serving weights.
struct ServingWeights {
    /// Shared with the table (or the stale cache) it was read from.
    weights: Arc<[f64]>,
    /// Nothing of the user's own was found: `weights` is the population
    /// mean.
    bootstrapped: bool,
    cost_us: f64,
    level: DegradationLevel,
}

/// What one scoring call (a predict, a batch, a top-K, a repopulation)
/// knows about the model lineage, shared by every pair it scores. Only a
/// prediction-cache miss needs the model object, so `predict` leaves it
/// unset and the scorer takes it on the first miss — a hit touches neither
/// the model lock nor a weight read.
struct ModelRead {
    version: u64,
    model: Option<Arc<dyn VeloxModel>>,
}

/// One user's share of a scoring call: what the cache key needs up front,
/// and the one weight read every miss of that user in the call shares.
struct UserRead {
    uid: u64,
    /// The user's weight-update counter, third component of the cache key.
    /// Read before the weights it keys, so a racing observe can only strand
    /// an entry under a superseded key, never file an old score under the
    /// new one.
    version: u64,
    /// Serving node; routed on the first miss when the caller has not.
    node: Option<usize>,
    /// Read on the first miss unless the caller already holds it.
    weights: Option<ServingWeights>,
}

/// The scorer's answer for one pair.
struct Scored {
    response: PredictResponse,
    /// `f(x, θ)` of a pair that missed the cache (top-K's variances reuse
    /// it).
    features: Option<Arc<[f64]>>,
    /// Whether the miss's score entered the prediction cache.
    filled: bool,
}

/// One retained model version for rollback: the model object plus the full
/// user-weight table at swap time, its vectors shared with the serving
/// table they were taken from (a retired version copies no weights).
struct HistoryEntry {
    version: u64,
    model: Arc<dyn VeloxModel>,
    user_weights: Vec<(u64, Arc<[f64]>)>,
}

/// A weight table as the serving table holds it: one shared vector per
/// user.
fn shared(weights: HashMap<u64, Vector>) -> Vec<(u64, Arc<[f64]>)> {
    weights.into_iter().map(|(uid, w)| (uid, w.as_slice().into())).collect()
}

/// How many superseded versions are retained for rollback.
const VERSION_HISTORY: usize = 4;

/// Live durable-state machinery: the checkpoint store plus bookkeeping
/// about the last checkpoint taken. The WAL itself lives inside the
/// observation log (write path) — this holds everything else.
struct DurabilityRuntime {
    store: CheckpointStore,
    config: DurabilityConfig,
    /// Sequence number of the newest checkpoint (0 = none yet).
    last_seq: u64,
    /// Observation-log length the newest checkpoint covers.
    last_offset: u64,
}

/// A deployed Velox instance serving one model lineage.
pub struct Velox {
    config: VeloxConfig,
    model: RwLock<Arc<dyn VeloxModel>>,
    version: AtomicU64,
    history: Mutex<Vec<HistoryEntry>>,
    /// Where each user's weights and each item's features live, and what
    /// reaching them costs.
    cluster: Cluster,
    /// Every user's serving weights, the only copy: written once per
    /// trained observe and replaced once per version swap. The cluster
    /// models their placement; their partition's last live replica takes
    /// them with it.
    weights: Namespace<Arc<[f64]>>,
    /// Every observation, in arrival order: what retraining reads, and
    /// (catalog items, through the WAL) what recovery replays.
    obslog: ObservationLog,
    /// Raw item attributes for computed feature functions.
    catalog: Namespace<Arc<[f64]>>,
    /// Per-user online learning state, one shard per cluster partition.
    /// A shard's states die with the partition's last live replica.
    user_state: UserStore,
    /// Per-user weight-update counters (prediction-cache keys).
    user_versions: Namespace<u64>,
    prediction_cache: ShardedCache<PredKey, f64>,
    /// Computed-feature cache keyed by `(item_id, model_version)`.
    feature_cache: ShardedCache<(u64, u64), Arc<[f64]>>,
    /// Last-known-good user weights, written through on every weight write
    /// (sharing the serving table's vector) and served (flagged
    /// `StaleCache`) when every live replica is gone.
    stale_weights: ShardedCache<u64, Arc<[f64]>>,
    /// Observations buffered while their user's partition is unreachable,
    /// drained into the online state when a node recovers. Bounded by
    /// `redo_queue_capacity`; overflow is shed and counted.
    redo_queue: Mutex<VecDeque<TrainingExample>>,
    bootstrap: BootstrapState,
    error_tracker: Mutex<PerUserErrorTracker>,
    staleness: Mutex<StalenessDetector>,
    prequential: Mutex<PrequentialEvaluator>,
    bandit: Mutex<Box<dyn BanditPolicy>>,
    validation: Mutex<ValidationPool>,
    executor: JobExecutor,
    stale_flag: AtomicBool,
    /// Metric registry + lifecycle event log for this deployment. The
    /// handles below are adopted into it, so a snapshot sees the same
    /// atomics the serving paths update.
    registry: Registry,
    predict_latency: Arc<Histogram>,
    top_k_latency: Arc<Histogram>,
    observe_latency: Arc<Histogram>,
    online_update_latency: Arc<Histogram>,
    pred_cache_hits: Arc<Counter>,
    pred_cache_misses: Arc<Counter>,
    feat_cache_hits: Arc<Counter>,
    feat_cache_misses: Arc<Counter>,
    observations_total: Arc<Counter>,
    retrains: Arc<Counter>,
    /// Per-degradation-level serve counters, indexed by
    /// `DegradationLevel::index()`.
    degraded: [Arc<Counter>; 4],
    redo_buffered: Arc<Counter>,
    redo_drained: Arc<Counter>,
    redo_shed: Arc<Counter>,
    /// Guards against concurrent offline retrains (sync or async).
    retrain_in_flight: AtomicBool,
    /// Swap gate: observe/ingest write-backs hold it shared; a version
    /// swap holds it exclusive, so no observation can interleave with the
    /// table swap (and the post-retrain replay boundary is exact).
    swap_gate: RwLock<()>,
    /// Lazily-built MIPS index over the catalog's feature vectors, tagged
    /// with the model version it was built against (§8's efficient top-K).
    mips_index: Mutex<Option<(u64, Arc<velox_linalg::MipsIndex>)>>,
    /// Durable-state runtime (checkpoint store + config); `None` when the
    /// deployment is memory-only. The WAL rides inside `obslog`.
    durability: Mutex<Option<DurabilityRuntime>>,
    /// Lets a slow automatic checkpoint shed later triggers instead of
    /// queueing observe threads behind the durability mutex.
    checkpoint_in_flight: AtomicBool,
    recovery_replayed: Arc<Counter>,
    recovery_replay_duration: Arc<Histogram>,
    checkpoints_total: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
}

fn make_policy(choice: BanditChoice, seed: u64) -> Box<dyn BanditPolicy> {
    match choice {
        BanditChoice::Greedy => Box::new(GreedyPolicy),
        BanditChoice::EpsilonGreedy(eps) => Box::new(EpsilonGreedyPolicy::new(eps, seed)),
        BanditChoice::LinUcb(alpha) => Box::new(LinUcbPolicy::new(alpha)),
        BanditChoice::Thompson(scale) => Box::new(ThompsonPolicy::new(scale, seed)),
    }
}

impl Velox {
    /// Deploys a model: places its materialized feature table across the
    /// cluster, installs the initial user weights (from offline training),
    /// and initializes all serving state.
    pub fn deploy(
        model: Arc<dyn VeloxModel>,
        initial_weights: HashMap<u64, Vector>,
        config: VeloxConfig,
    ) -> Self {
        let cluster = Cluster::new(config.cluster.clone());
        cluster.publish_item_features(model.materialized_table());

        // One registry per deployment; serving-path handles are created
        // here once and then updated lock-free.
        let registry = Registry::new();
        let predict_latency = registry.histogram("velox_predict_latency_ns");
        let top_k_latency = registry.histogram("velox_top_k_latency_ns");
        let observe_latency = registry.histogram("velox_observe_latency_ns");
        let online_update_latency = registry
            .histogram_with("velox_online_update_latency_ns", &[("strategy", "sherman_morrison")]);
        let user_state = UserStore::new(&cluster.map(), StoreMetrics::default());
        user_state.metrics().register(&registry, &[]);
        let pred_cache_hits = registry.counter("velox_prediction_cache_hits_total");
        let pred_cache_misses = registry.counter("velox_prediction_cache_misses_total");
        let feat_cache_hits = registry.counter("velox_feature_cache_hits_total");
        let feat_cache_misses = registry.counter("velox_feature_cache_misses_total");
        let observations_total = registry.counter("velox_observations_total");
        let retrains = registry.counter("velox_retrains_total");
        let degraded = [
            DegradationLevel::Full,
            DegradationLevel::Replica,
            DegradationLevel::StaleCache,
            DegradationLevel::Bootstrap,
        ]
        .map(|l| registry.counter_with("velox_degraded_requests_total", &[("level", l.label())]));
        let redo_buffered = registry.counter("velox_redo_buffered_total");
        let redo_drained = registry.counter("velox_redo_drained_total");
        let redo_shed = registry.counter("velox_redo_shed_total");
        let recovery_replayed = registry.counter("velox_recovery_replayed_total");
        let recovery_replay_duration = registry.histogram("velox_recovery_replay_duration_ns");
        let checkpoints_total = registry.counter("velox_checkpoints_total");
        let checkpoint_failures = registry.counter("velox_checkpoint_failures_total");
        cluster.register_metrics(&registry);

        let velox = Velox {
            model: RwLock::new(Arc::clone(&model)),
            version: AtomicU64::new(1),
            history: Mutex::new(Vec::new()),
            weights: Namespace::new("user_weights"),
            obslog: ObservationLog::new(),
            catalog: Namespace::new("item_catalog"),
            user_state,
            user_versions: Namespace::new("user_versions"),
            prediction_cache: ShardedCache::new(config.prediction_cache_capacity),
            feature_cache: ShardedCache::new(config.feature_cache_capacity),
            stale_weights: ShardedCache::new(config.stale_weight_cache_capacity),
            redo_queue: Mutex::new(VecDeque::new()),
            bootstrap: BootstrapState::new(model.dim()),
            error_tracker: Mutex::new(PerUserErrorTracker::new()),
            staleness: Mutex::new(StalenessDetector::new(
                config.staleness_threshold,
                config.staleness_warmup,
            )),
            prequential: Mutex::new(PrequentialEvaluator::new(config.crossval_holdout_every)),
            bandit: Mutex::new(make_policy(config.bandit, config.seed)),
            validation: Mutex::new(ValidationPool::new(
                config.validation_fraction,
                config.validation_capacity,
                config.seed ^ 0x5A11_DA7A,
            )),
            executor: JobExecutor::new(config.training_workers),
            stale_flag: AtomicBool::new(false),
            retrain_in_flight: AtomicBool::new(false),
            swap_gate: RwLock::new(()),
            mips_index: Mutex::new(None),
            registry,
            predict_latency,
            top_k_latency,
            observe_latency,
            online_update_latency,
            pred_cache_hits,
            pred_cache_misses,
            feat_cache_hits,
            feat_cache_misses,
            observations_total,
            retrains,
            degraded,
            redo_buffered,
            redo_drained,
            redo_shed,
            durability: Mutex::new(None),
            checkpoint_in_flight: AtomicBool::new(false),
            recovery_replayed,
            recovery_replay_duration,
            checkpoints_total,
            checkpoint_failures,
            cluster,
            config,
        };
        // Adopt the storage-layer counters so the registry exposes the
        // exact atomics those components bump.
        velox.registry.register_histogram(
            "velox_obslog_append_latency_ns",
            &[],
            velox.obslog.append_latency_histogram(),
        );
        for ns in [
            ("user_weights", velox.weights.reads_counter(), velox.weights.writes_counter()),
            ("item_catalog", velox.catalog.reads_counter(), velox.catalog.writes_counter()),
            (
                "user_versions",
                velox.user_versions.reads_counter(),
                velox.user_versions.writes_counter(),
            ),
        ] {
            velox.registry.register_counter("velox_kv_reads_total", &[("table", ns.0)], ns.1);
            velox.registry.register_counter("velox_kv_writes_total", &[("table", ns.0)], ns.2);
        }
        velox.install_weight_table(shared(initial_weights));
        velox
    }

    /// This deployment's metric registry and lifecycle event log.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Installs a whole user-weight table, at deploy and at every version
    /// swap: the serving table is replaced wholesale (a user absent from
    /// `weights` must not survive the change) and the stale cache and the
    /// bootstrap mean follow. Per-user *online* state (the O(d²) inverse)
    /// is not created here but lazily on a user's first observe, with these
    /// weights as the prior — pure serving never pays the online-learning
    /// memory cost.
    ///
    /// A user whose partition has no live replica takes no entry: the
    /// publish has nowhere to land, so the user stays lost after recovery
    /// (served from the stale cache during the outage).
    fn install_weight_table(&self, mut weights: Vec<(u64, Arc<[f64]>)>) {
        for (uid, w) in &weights {
            self.stale_weights.put(*uid, Arc::clone(w));
            self.bootstrap.contribute(*uid, &Vector::from(&w[..]));
        }
        let dead = self.cluster.dead_partitions();
        if !dead.is_empty() {
            weights.retain(|(uid, _)| !dead.contains(&self.user_state.partition_of(*uid)));
        }
        self.weights.publish_version(weights);
    }

    /// Registers an item's raw attributes in the catalog — required before
    /// computed-feature models can serve `Item::Id` references to it.
    pub fn register_item(&self, item_id: u64, attributes: Vec<f64>) {
        self.catalog.put(item_id, attributes.into());
    }

    /// A fresh online state for a user who has none. Its prior is the
    /// user's current serving weights when they exist (offline-trained
    /// users), falling back to the bootstrap mean for brand-new users (§5's
    /// heuristic).
    fn fresh_user_state(&self, uid: u64) -> IncrementalRidge {
        let prior = match self.weights.get(uid) {
            Some(w) => Vector::from(&w[..]),
            // A dead partition may have taken the serving copy with it; the
            // stale cache is a better prior than the population mean.
            None => self
                .stale_weights
                .get(&uid)
                .map(|w| Vector::from(&w[..]))
                .unwrap_or_else(|| self.bootstrap.mean_weights()),
        };
        IncrementalRidge::from_prior(&prior, self.config.lambda)
    }

    /// Seeds the system with historical training data — the observations
    /// the initial offline training consumed. Eq. 2 solves each user's
    /// weights over *all* of that user's examples, so the per-user online
    /// sufficient statistics must include the offline history, not just a
    /// weak prior around the batch weights; this method replays the history
    /// into them. The examples also enter the observation log so future
    /// offline retrains see the full dataset.
    ///
    /// History is training input, not serving feedback: it does not touch
    /// the quality trackers or staleness detector.
    pub fn ingest_history(&self, examples: &[TrainingExample]) -> Result<(), VeloxError> {
        {
            let _gate = self.swap_gate.read().unwrap();
            for ex in examples {
                self.log_example(ex.uid, &ex.item, ex.y)?;
            }
        }
        self.apply_examples_to_online_state(examples)?;
        self.maybe_checkpoint();
        Ok(())
    }

    /// Current model version.
    pub fn model_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The deployed model's feature dimension.
    pub fn dim(&self) -> usize {
        self.model.read().unwrap().dim()
    }

    /// Whether the staleness detector currently flags the model.
    pub fn is_stale(&self) -> bool {
        self.stale_flag.load(Ordering::Acquire)
    }

    /// Resolves `f(x, θ)` for an item at a serving node, through the
    /// appropriate cache. Returns `(features, virtual cost in µs)`; a
    /// materialized or cached vector is shared, not copied.
    fn features_for(
        &self,
        model: &Arc<dyn VeloxModel>,
        model_version: u64,
        at_node: usize,
        item: &Item,
    ) -> Result<(Arc<[f64]>, f64), VeloxError> {
        Self::check_finite_item(item)?;
        if model.is_materialized() {
            // Materialized: the θ table lives in the cluster, sharded, with
            // per-node hot-item caches.
            match item {
                Item::Id(id) => {
                    let read = self.cluster.read_item_features(at_node, *id);
                    if read.unavailable {
                        return Err(VeloxError::Unavailable(format!(
                            "item {id}: no live replica of its feature partition"
                        )));
                    }
                    let features = read.value.ok_or(ModelError::UnknownItem(*id))?;
                    Ok((features, read.cost_us))
                }
                Item::Raw(_) => {
                    Err(ModelError::WrongItemKind { expected: "catalog item id" }.into())
                }
            }
        } else {
            // Computed: featurization is CPU work; cacheable when the item
            // is a catalog reference.
            match item {
                Item::Id(id) => {
                    if let Some(hit) = self.feature_cache.get(&(*id, model_version)) {
                        self.feat_cache_hits.inc();
                        return Ok((hit, 0.0));
                    }
                    self.feat_cache_misses.inc();
                    let attrs = self.catalog.get(*id).ok_or(ModelError::UnknownItem(*id))?;
                    let features: Arc<[f64]> =
                        model.features(&Item::Raw(Vector::from(&attrs[..])))?.into_vec().into();
                    self.feature_cache.put((*id, model_version), Arc::clone(&features));
                    Ok((features, 0.0))
                }
                Item::Raw(_) => Ok((model.features(item)?.into_vec().into(), 0.0)),
            }
        }
    }

    /// Raw feature payloads come straight from the request: a NaN or ±∞ in
    /// one would reach the user's `A⁻¹` and weights through `observe`.
    fn check_finite_item(item: &Item) -> Result<(), VeloxError> {
        match item {
            Item::Raw(x) if !x.is_finite() => Err(VeloxError::NonFiniteInput("features")),
            _ => Ok(()),
        }
    }

    /// Reads the user's serving weights at a node, walking the degradation
    /// ladder: live replica → stale cached copy → bootstrap mean. Falls
    /// back to the bootstrap mean for unknown users even at full health.
    fn serving_weights(&self, at_node: usize, uid: u64) -> ServingWeights {
        let read = self.cluster.charge_user_read(at_node, uid);
        let (found, level) = if !read.unavailable {
            let level =
                if read.failover { DegradationLevel::Replica } else { DegradationLevel::Full };
            (self.weights.get(uid), level)
        } else {
            match self.stale_weights.get(&uid) {
                Some(w) => (Some(w), DegradationLevel::StaleCache),
                None => (None, DegradationLevel::Bootstrap),
            }
        };
        ServingWeights {
            bootstrapped: found.is_none(),
            weights: found.unwrap_or_else(|| self.bootstrap.mean_weights().into_vec().into()),
            cost_us: read.cost_us,
            level,
        }
    }

    /// Starts a user's share of a scoring call.
    fn user_read(&self, uid: u64, node: Option<usize>) -> UserRead {
        UserRead { uid, version: self.user_versions.get(uid).unwrap_or(0), node, weights: None }
    }

    /// Counts one served request at its degradation level.
    fn note_degradation(&self, level: DegradationLevel) {
        self.degraded[level.index()].inc();
    }

    /// Whether a score computed at `level` may enter the prediction cache.
    /// Degraded scores must not outlive the outage: a stale- or
    /// bootstrap-served score would otherwise keep being served at full
    /// apparent fidelity after the partition comes back.
    fn cacheable(level: DegradationLevel) -> bool {
        matches!(level, DegradationLevel::Full | DegradationLevel::Replica)
    }

    /// Scores one `(user, item)` pair: the one place the serving path
    /// computes `wᵤᵀ f(x, θ)`, and the one place the prediction cache is
    /// probed and filled. `predict`, `predict_batch`, `top_k` and the
    /// post-retrain repopulation differ only in the per-call state they
    /// hand in and in how they count the answer.
    ///
    /// The reported cost covers the reads this pair caused: its features,
    /// plus the weight read when this pair was the one to make it.
    fn score(
        &self,
        call: &mut ModelRead,
        user: &mut UserRead,
        item: &Item,
    ) -> Result<Scored, VeloxError> {
        let uid = user.uid;
        // Only catalog items are cacheable.
        let key = item.id().map(|id| (uid, id, user.version, call.version));
        if let Some(score) = key.and_then(|k| self.prediction_cache.get(&k)) {
            // Only full/replica-fidelity scores enter the cache, so a hit
            // is by construction a full-fidelity answer.
            let response = PredictResponse {
                score,
                cached: true,
                bootstrapped: false,
                virtual_cost_us: 0.0,
                degradation: DegradationLevel::Full,
            };
            return Ok(Scored { response, features: None, filled: false });
        }

        let model = call.model.get_or_insert_with(|| self.current_model());
        let node = *user.node.get_or_insert_with(|| self.cluster.route_request(uid));
        let first_read = user.weights.is_none();
        let read = user.weights.get_or_insert_with(|| self.serving_weights(node, uid));
        let w_cost = if first_read { read.cost_us } else { 0.0 };
        let (features, f_cost) = self.features_for(model, call.version, node, item)?;
        let score = dot_checked(&read.weights, &features)?;
        // Bootstrapped scores are served from the *population mean*, which
        // moves whenever any user's weights change — state the cache key
        // cannot see. Never cache them; likewise degraded scores.
        let filled = match key {
            Some(k) if !read.bootstrapped && Self::cacheable(read.level) => {
                self.prediction_cache.put(k, score);
                true
            }
            _ => false,
        };
        let response = PredictResponse {
            score,
            cached: false,
            bootstrapped: read.bootstrapped,
            virtual_cost_us: w_cost + f_cost,
            degradation: read.level,
        };
        Ok(Scored { response, features: Some(features), filled })
    }

    /// One request of `predict` / `predict_batch`: scores the pair and
    /// counts it once in the cache counters (an uncacheable raw item and a
    /// lookup that failed count as misses, so hits + misses == requests
    /// exactly) and, when answered, once under its degradation level.
    fn predict_pair(
        &self,
        call: &mut ModelRead,
        user: &mut UserRead,
        item: &Item,
    ) -> Result<PredictResponse, VeloxError> {
        let scored = self.score(call, user, item);
        match &scored {
            Ok(s) if s.response.cached => self.pred_cache_hits.inc(),
            _ => self.pred_cache_misses.inc(),
        }
        let response = scored?.response;
        self.note_degradation(response.degradation);
        Ok(response)
    }

    /// Point prediction for `(uid, item)` — Listing 1's `predict`.
    pub fn predict(&self, uid: u64, item: &Item) -> Result<PredictResponse, VeloxError> {
        let _span = SpanTimer::new(&self.predict_latency);
        let node = self.cluster.route_request(uid);
        self.publish_fault_transitions();
        let mut call = ModelRead { version: self.model_version(), model: None };
        self.predict_pair(&mut call, &mut self.user_read(uid, Some(node)), item)
    }

    /// One coalesced predict pass over many `(uid, item)` pairs — the
    /// serving-tier batch entry point (`velox-serve`'s adaptive batcher
    /// drains its queue into this).
    ///
    /// The pass is **bit-identical** to calling [`Velox::predict`] once per
    /// pair in order — both are the same scorer — and counts the same:
    /// every request is routed, so the per-node load and the request clock
    /// that fires a [`FaultPlan`] advance as they would under `predict`.
    /// What it *amortizes* is the per-call overhead: one model snapshot,
    /// one version load, and one serving-weight read per distinct user in
    /// the batch (at the node the user's first request routed to) instead
    /// of per request — which is where the batched-vs-unbatched throughput
    /// gap in SERVE-BATCH comes from.
    pub fn predict_batch(
        &self,
        requests: &[(u64, Item)],
    ) -> Vec<Result<PredictResponse, VeloxError>> {
        let _span = SpanTimer::new(&self.predict_latency);
        // One snapshot of the model lineage for the whole batch: no request
        // in it can observe a half-swapped version.
        let mut call =
            ModelRead { version: self.model_version(), model: Some(self.current_model()) };
        // Per-user reads for this batch only. Weight reads are
        // deterministic given cluster state, so reusing the first read for
        // later requests of the same user changes nothing numerically.
        let mut users: HashMap<u64, UserRead> = HashMap::new();
        requests
            .iter()
            .map(|(uid, item)| {
                let node = self.cluster.route_request(*uid);
                self.publish_fault_transitions();
                let user = users.entry(*uid).or_insert_with(|| self.user_read(*uid, Some(node)));
                self.predict_pair(&mut call, user, item)
            })
            .collect()
    }

    /// Evaluates a candidate set for a user and picks the item to serve —
    /// Listing 1's `topK`, with bandit-based serving (§5) and
    /// validation-pool randomization (§4.3).
    pub fn top_k(&self, uid: u64, items: &[Item]) -> Result<TopKResponse, VeloxError> {
        if items.is_empty() {
            return Err(VeloxError::EmptyCandidateSet);
        }
        let _span = SpanTimer::new(&self.top_k_latency);
        let node = self.cluster.route_request(uid);
        self.publish_fault_transitions();
        let mut call =
            ModelRead { version: self.model_version(), model: Some(self.current_model()) };

        // Read the user's weights once for the whole candidate set — up
        // front, because the answer reports their level even when every
        // candidate is a cache hit.
        let mut user = self.user_read(uid, Some(node));
        let read = self.serving_weights(node, uid);
        let level = read.level;
        let mut virtual_cost = read.cost_us;
        user.weights = Some(read);
        let mut cached = 0usize;

        // The user's online state provides per-candidate uncertainty for
        // the bandit; absent state (pure-serving users) means zero
        // uncertainty, reducing every policy to greedy. Exploitation-only
        // policies never read the variance, so skip the O(d²) quadratic
        // form per candidate for them entirely.
        let wants_uncertainty = self.bandit.lock().unwrap().wants_uncertainty();
        let online = wants_uncertainty && self.user_state.read(uid, |_| ()).is_some();

        let mut candidates = Vec::with_capacity(items.len());
        // Candidates scored from features rather than the prediction cache,
        // kept only when their variance will be read: their indices, and
        // their features copied row after row into one buffer. (Holding the
        // hundred feature vectors themselves until the loop ends leaves the
        // heap a comb of 1.6 KB holes between the cache entries inserted
        // meanwhile, and every later feature or weight clone pays for it.)
        // Cached candidates keep variance 0 — cheaper to treat them as
        // exploitation-only than to recover their features.
        let mut missed: Vec<usize> = Vec::new();
        let mut missed_features: Vec<f64> = Vec::new();
        for (idx, item) in items.iter().enumerate() {
            let Scored { response, features, .. } = self.score(&mut call, &mut user, item)?;
            cached += response.cached as usize;
            virtual_cost += response.virtual_cost_us;
            if let (Some(features), true) = (features, online) {
                if missed.is_empty() {
                    missed_features.reserve((items.len() - idx) * features.len());
                }
                missed.push(idx);
                missed_features.extend_from_slice(&features);
            }
            candidates.push(Candidate { score: response.score, variance: 0.0 });
        }
        // One lock for the whole candidate set: every variance comes from
        // the same `A⁻¹`, which the blocked kernel streams once per block
        // of candidates instead of once per candidate.
        if !missed.is_empty() {
            // The scorer's dot held every row to the weights' length.
            let d = missed_features.len() / missed.len();
            let rows = Matrix::from_row_major(missed.len(), d, missed_features)?;
            if let Some(Ok(variances)) = self.user_state.read(uid, |s| s.variance_many(&rows)) {
                for (&idx, variance) in missed.iter().zip(variances) {
                    candidates[idx].variance = variance;
                }
            }
        }
        // Batched (two atomic adds per call, not two per candidate) to keep
        // the fully-cached hot loop free of per-item metric traffic.
        self.pred_cache_hits.add(cached as u64);
        self.pred_cache_misses.add((items.len() - cached) as u64);

        let mut ranked: Vec<(usize, f64)> =
            candidates.iter().map(|c| c.score).enumerate().collect();
        // `total_cmp`: a total order even over NaN, so a poisoned score can
        // misrank but never panic the serving thread.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

        // Validation randomization takes precedence over the policy.
        let (served, randomized) =
            match self.validation.lock().unwrap().maybe_randomize(items.len()) {
                Some(idx) => (idx, true),
                None => (self.bandit.lock().unwrap().select(&candidates), false),
            };

        // One request, counted once, at the level its weights were read.
        self.note_degradation(level);
        Ok(TopKResponse {
            ranked,
            served,
            randomized,
            cached_fraction: cached as f64 / items.len() as f64,
            virtual_cost_us: virtual_cost,
            degradation: level,
        })
    }

    /// Ingests one observation — Listing 1's `observe`: logs it, updates
    /// the user's weights online (Eq. 2), tracks model quality, and
    /// (optionally) triggers offline retraining on staleness.
    pub fn observe(&self, uid: u64, item: &Item, y: f64) -> Result<ObserveOutcome, VeloxError> {
        let _span = SpanTimer::new(&self.observe_latency);
        // Before anything is logged, deferred or folded into the moments.
        if !y.is_finite() {
            return Err(VeloxError::NonFiniteInput("y"));
        }
        Self::check_finite_item(item)?;
        let node = self.cluster.route_request(uid);
        self.publish_fault_transitions();

        // Every replica of the user's weights is dead: there is no online
        // state to update against and nowhere to write the result. Buffer
        // the observation for redo on recovery instead of erroring.
        if !self.cluster.user_partition_live(uid) {
            return self.defer_observation(uid, item, y);
        }

        // The whole read-model → log → update-state → write-back sequence
        // runs under the swap gate (shared), so a concurrent retrain's
        // version swap (exclusive) can never interleave mid-observation —
        // without the gate, an observe computed against the old θ could
        // overwrite a user's freshly retrained weights in the new table,
        // and the observation could miss both the batch snapshot and the
        // post-swap replay.
        let gate = self.swap_gate.read().unwrap();
        let model_version = self.model_version();
        let model = self.current_model();
        let features = match self.features_for(&model, model_version, node, item) {
            // An unreachable item partition also defers: the update needs
            // f(x, θ). (The gate is released first — the redo path takes
            // it itself.)
            Err(VeloxError::Unavailable(_)) => {
                drop(gate);
                return self.defer_observation(uid, item, y);
            }
            Err(e) => return Err(e),
            Ok((features, _f_cost)) => Vector::from(&features[..]),
        };
        // Logged before it is applied. The acknowledgment is the
        // durability boundary, and a log that refuses the observation (a
        // failed WAL append) must leave the user as they were, or a client
        // retrying the error would apply it twice.
        self.log_example(uid, item, y)?;
        // Under the user's shard lock, created first if the user has no
        // state (bootstrap prior for new users — §5's mean-weight
        // heuristic): prequential evaluation predicts before updating.
        let fresh = || self.fresh_user_state(uid);
        let (predicted_before, trained, loss, new_weights) =
            self.user_state.upsert(uid, fresh, |state| {
                let predicted_before = state.predict(&features)?;
                let loss = model.loss(y, predicted_before, item, uid);
                let trained = self.prequential.lock().unwrap().record(loss);
                if trained {
                    let update_timer = Timer::start();
                    state.observe(&features, y)?;
                    update_timer.observe(&self.online_update_latency);
                }
                Ok::<_, VeloxError>((predicted_before, trained, loss, state.weights().clone()))
            })?;
        if trained {
            self.publish_weights(uid, &new_weights, Some(node));
        }
        // Quality tracking and staleness run with the gate released: the
        // auto-retrain below acquires it exclusively via swap_in.
        drop(gate);

        self.error_tracker.lock().unwrap().record(uid, loss);
        let stale = self.staleness.lock().unwrap().push(loss);
        if stale && !self.stale_flag.swap(true, Ordering::AcqRel) {
            self.registry
                .event(EventKind::StalenessTrip { observations: self.observations_total.get() });
        }
        let mut retrained = false;
        if stale && self.config.auto_retrain {
            // A retrain already in flight will pick this observation up via
            // the post-swap replay — not an error, and the observation has
            // already been committed either way.
            match self.retrain_offline() {
                Ok(_) => retrained = true,
                Err(VeloxError::RetrainInProgress) => {}
                Err(e) => return Err(e),
            }
        }

        // Automatic checkpointing runs here, after every gate/lock from the
        // observation itself is released (taking one inside the gated block
        // would deadlock: the capture needs the gate exclusively).
        self.maybe_checkpoint();

        Ok(ObserveOutcome {
            predicted_before,
            loss,
            trained,
            stale: self.is_stale() && !retrained,
            retrained,
            deferred: false,
        })
    }

    /// Buffers an observation that cannot be applied right now (its user's
    /// partition — or the item's — is unreachable) into the bounded redo
    /// queue, logging it durably so offline retrains still see it. Sheds
    /// (with an error and a counter) when the queue is full.
    fn defer_observation(
        &self,
        uid: u64,
        item: &Item,
        y: f64,
    ) -> Result<ObserveOutcome, VeloxError> {
        // The observation is still real feedback: it enters the log now
        // (under the swap gate, like any other observation) even though its
        // online update waits for recovery, and it is logged before it is
        // queued, so a failed log leaves the queue as it was. The redo
        // drain applies state only — it never re-logs — so each observation
        // is logged exactly once and applied exactly once.
        {
            let _gate = self.swap_gate.read().unwrap();
            let mut queue = self.redo_queue.lock().unwrap();
            if queue.len() >= self.config.redo_queue_capacity {
                self.redo_shed.inc();
                return Err(VeloxError::Unavailable("redo queue full; observation shed".into()));
            }
            self.log_example(uid, item, y)?;
            queue.push_back(TrainingExample { uid, item: item.clone(), y });
        }
        self.redo_buffered.inc();
        self.maybe_checkpoint();
        Ok(ObserveOutcome {
            predicted_before: f64::NAN,
            loss: f64::NAN,
            trained: false,
            stale: self.is_stale(),
            retrained: false,
            deferred: true,
        })
    }

    /// Re-applies every buffered observation to the online state and the
    /// serving tables. Called automatically when a node recovery is
    /// published; callable directly for manual recovery drills. Returns
    /// how many observations were applied. On failure (e.g. the item
    /// partition is still unreachable) the batch is pushed back intact and
    /// retried on the next recovery.
    pub fn drain_redo_queue(&self) -> Result<u64, VeloxError> {
        let pending: Vec<TrainingExample> = {
            let mut queue = self.redo_queue.lock().unwrap();
            queue.drain(..).collect()
        };
        if pending.is_empty() {
            return Ok(0);
        }
        match self.apply_examples_to_online_state(&pending) {
            Ok(()) => {
                let n = pending.len() as u64;
                self.redo_drained.add(n);
                self.registry.event(EventKind::RedoDrain { applied: n });
                Ok(n)
            }
            Err(e) => {
                let mut queue = self.redo_queue.lock().unwrap();
                for ex in pending.into_iter().rev() {
                    queue.push_front(ex);
                }
                Err(e)
            }
        }
    }

    /// Turns health transitions journaled by the cluster into lifecycle
    /// events, and drains the redo queue when a node comes back. Called on
    /// every serving request (cheap when nothing is pending) and by the
    /// explicit kill/recover entry points.
    fn publish_fault_transitions(&self) {
        if !self.cluster.transitions_pending() {
            return;
        }
        for t in self.cluster.take_transitions() {
            match t.health {
                NodeHealth::Down => {
                    // A user's weights and state die with the last live
                    // replica of its partition: reads fall to the stale
                    // cache during the outage and to the bootstrap mean
                    // after it, and the next observe starts over from the
                    // prior `fresh_user_state` picks.
                    if !t.lost_partitions.is_empty() {
                        self.drop_partitions(&t.lost_partitions);
                    }
                    self.registry.event(EventKind::NodeDown { node: t.node as u64 });
                }
                NodeHealth::Up => {
                    self.registry.event(EventKind::NodeRecovered { node: t.node as u64 });
                    // Redo failures here are not fatal to serving: the
                    // batch stays queued and retries on the next recovery
                    // or manual drain.
                    let _ = self.drain_redo_queue();
                }
                NodeHealth::Recovering => {}
            }
        }
    }

    /// Drops every serving weight and online state of partitions `lost`.
    fn drop_partitions(&self, lost: &[u32]) {
        for &p in lost {
            self.user_state.drop_partition(p);
        }
        for uid in self.weights.keys() {
            if lost.contains(&self.user_state.partition_of(uid)) {
                self.weights.remove(uid);
            }
        }
    }

    /// Installs a deterministic fault plan on the underlying cluster (see
    /// [`FaultPlan`]); scheduled events fire as requests are served.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.cluster.install_fault_plan(plan);
    }

    /// Kills a cluster node immediately (chaos drills outside a scripted
    /// plan). The outage is observable right away: the lifecycle event is
    /// published before returning.
    pub fn kill_node(&self, node: usize) {
        self.cluster.kill_node(node);
        self.publish_fault_transitions();
    }

    /// Recovers a cluster node immediately: publishes the lifecycle event
    /// and drains the redo queue. Nothing is copied back: what lost its
    /// last replica stays lost.
    pub fn recover_node(&self, node: usize) {
        self.cluster.recover_node(node);
        self.publish_fault_transitions();
    }

    /// Records a label for a `topK` serve that was validation-randomized,
    /// feeding the unbiased validation pool (§4.3). Also performs the
    /// normal `observe` path (the observation is still real feedback).
    pub fn observe_randomized(
        &self,
        uid: u64,
        item: &Item,
        y: f64,
    ) -> Result<ObserveOutcome, VeloxError> {
        let outcome = self.observe(uid, item, y)?;
        if let Some(id) = item.id() {
            self.validation.lock().unwrap().record(
                velox_bandit::validation::ValidationObservation {
                    uid,
                    item_id: id,
                    predicted: outcome.predicted_before,
                    actual: y,
                },
            );
        }
        Ok(outcome)
    }

    /// Unbiased model RMSE from the validation pool, when populated.
    pub fn validation_rmse(&self) -> Option<f64> {
        self.validation.lock().unwrap().rmse()
    }

    /// Launches [`Velox::retrain_offline`] on a background thread — the
    /// paper's actual deployment shape, where "the maintenance service
    /// triggers Spark, the offline training component" and serving
    /// continues against the current version until the new one swaps in.
    ///
    /// At most one retrain runs at a time: a second call while one is in
    /// flight returns [`VeloxError::RetrainInProgress`] instead of queueing
    /// (the in-flight run will already see the latest observation log).
    /// Join the returned handle for the outcome.
    pub fn retrain_offline_async(
        self: &Arc<Self>,
    ) -> Result<std::thread::JoinHandle<Result<u64, VeloxError>>, VeloxError> {
        self.begin_retrain()?;
        let velox = Arc::clone(self);
        Ok(std::thread::spawn(move || {
            let result = velox.retrain_offline_inner();
            velox.retrain_in_flight.store(false, Ordering::Release);
            result
        }))
    }

    /// Runs a full offline retrain *now* (the manager's "trigger Spark"
    /// path): retrains on the entire observation history warm-started from
    /// the current weights, swaps in the new version, repopulates caches,
    /// and resets quality baselines. Returns the new model version.
    ///
    /// Errors with [`VeloxError::RetrainInProgress`] when an async retrain
    /// is currently running.
    pub fn retrain_offline(&self) -> Result<u64, VeloxError> {
        self.begin_retrain()?;
        let result = self.retrain_offline_inner();
        self.retrain_in_flight.store(false, Ordering::Release);
        result
    }

    /// Claims the single retrain slot or reports one already in flight.
    fn begin_retrain(&self) -> Result<(), VeloxError> {
        self.retrain_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(|_| VeloxError::RetrainInProgress)
    }

    fn retrain_offline_inner(&self) -> Result<u64, VeloxError> {
        // Observations logged after this snapshot keep serving against the
        // old version while training runs; they are replayed onto the new
        // version after the swap so they are lost from neither the batch
        // model nor the online state.
        let snapshot_len = self.obslog.positions();
        if snapshot_len == 0 {
            return Err(VeloxError::RetrainFailed("no observations to train on".into()));
        }
        let mut data = self.logged_examples(0..snapshot_len);
        self.registry.event(EventKind::RetrainStart { observations: snapshot_len });
        let retrain_timer = Timer::start();
        let old_model = self.current_model();

        // Computational models featurize raw payloads; resolve catalog
        // references for them before handing the data to the trainer.
        if !old_model.is_materialized() {
            for ex in &mut data {
                if let Some(id) = ex.item.id() {
                    let attrs = self.catalog.get(id).ok_or_else(|| {
                        VeloxError::RetrainFailed(format!(
                            "observed item {id} no longer in the catalog"
                        ))
                    })?;
                    ex.item = Item::Raw(Vector::from(&attrs[..]));
                }
            }
        }

        // Current user weights as the warm start. The serving table is
        // authoritative: every online update writes through to it.
        let current = self.weights.snapshot_entries();
        let current_weights: HashMap<u64, Vector> =
            current.iter().map(|(uid, w)| (*uid, Vector::from(&w[..]))).collect();

        let result = old_model
            .retrain(&data, &current_weights, &self.executor)
            .map_err(|e| VeloxError::RetrainFailed(e.to_string()))?;
        let new_model: Arc<dyn VeloxModel> = Arc::from(result.model);

        // Snapshot hot keys for cache repopulation before invalidating
        // (§4.2: the batch system "computes all predictions ... that were
        // cached at the time the batch computation was triggered" to
        // repopulate the caches on swap).
        let hot_keys: Vec<PredKey> = self.prediction_cache.keys();

        let old_version = self.version.load(Ordering::Acquire);
        self.retire_version(HistoryEntry {
            version: old_version,
            model: old_model,
            user_weights: current,
        });

        let missed_boundary = self.swap_in(new_model, shared(result.user_weights), old_version + 1);
        // Replay the observations that arrived mid-retrain (they were
        // applied to the discarded old online state and are not in the
        // batch snapshot). The boundary was captured under the exclusive
        // swap gate, so entries past it were observed against the *new*
        // version and must not be double-applied.
        let missed = self.logged_examples(snapshot_len..missed_boundary);
        if !missed.is_empty() {
            self.apply_examples_to_online_state(&missed)?;
        }
        self.repopulate_prediction_cache(&hot_keys);
        self.retrains.inc();
        let new_version = self.model_version();
        self.registry.event(EventKind::RetrainFinish {
            version: new_version,
            duration_us: retrain_timer.elapsed_ns() / 1_000,
        });
        Ok(new_version)
    }

    /// Retains a superseded version for rollback, dropping the oldest past
    /// [`VERSION_HISTORY`].
    fn retire_version(&self, entry: HistoryEntry) {
        let mut history = self.history.lock().unwrap();
        history.push(entry);
        if history.len() > VERSION_HISTORY {
            history.remove(0);
        }
    }

    /// Installs `model` + `weights` as version `new_version` and resets
    /// serving/quality state accordingly. Returns the observation log's
    /// head position at swap time (captured under the exclusive swap
    /// gate), i.e. the boundary up to which observations were applied
    /// against the *old* version.
    fn swap_in(
        &self,
        model: Arc<dyn VeloxModel>,
        weights: Vec<(u64, Arc<[f64]>)>,
        new_version: u64,
    ) -> u64 {
        // Exclusive: no observe/ingest may interleave with the swap (their
        // write-backs run under the shared side of this gate).
        let _gate = self.swap_gate.write().unwrap();
        let from = self.version.load(Ordering::Acquire);
        // New θ table to the cluster (atomically per shard; invalidates
        // per-node item caches).
        self.cluster.publish_item_features(model.materialized_table());
        *self.model.write().unwrap() = model;
        self.version.store(new_version, Ordering::Release);
        self.registry.event(EventKind::VersionSwap { from, to: new_version });

        // New user weights. Online state is freed — each user's history
        // is inside the batch model now (rollback restores weights, not
        // states), and fresh state is recreated lazily on their next
        // observe, with the retrained weights as its prior.
        let bumped: Vec<(u64, u64)> =
            weights.iter().map(|&(uid, _)| (uid, new_version << 32)).collect();
        self.install_weight_table(weights);
        self.user_state.clear();
        // Bump every user's cache version in one publish.
        self.user_versions.publish_version(bumped);

        // Old caches describe the old model.
        self.prediction_cache.clear();
        self.feature_cache.clear();
        self.staleness.lock().unwrap().reset();
        self.error_tracker.lock().unwrap().reset();
        self.validation.lock().unwrap().clear();
        self.stale_flag.store(false, Ordering::Release);
        self.obslog.positions()
    }

    /// The logged observations at positions `range`, in arrival order, as
    /// training examples (catalog items by id).
    fn logged_examples(&self, range: Range<u64>) -> Vec<TrainingExample> {
        let mut out = Vec::with_capacity((range.end - range.start) as usize);
        self.obslog.scan(range, |entry| {
            out.push(match entry {
                LogEntry::Catalog(o) => {
                    TrainingExample { uid: o.uid, item: Item::Id(o.item_id), y: o.y }
                }
                LogEntry::Raw { uid, attrs, y } => {
                    TrainingExample { uid: *uid, item: Item::Raw(Vector::from(&attrs[..])), y: *y }
                }
            })
        });
        out
    }

    /// Applies historical/missed examples to the per-user online state and
    /// serving tables (no logging, no quality tracking) — shared by
    /// [`Velox::ingest_history`] and the post-retrain replay.
    fn apply_examples_to_online_state(
        &self,
        examples: &[TrainingExample],
    ) -> Result<(), VeloxError> {
        let _gate = self.swap_gate.read().unwrap();
        let model = self.current_model();
        let model_version = self.model_version();
        let mut touched: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for ex in examples {
            let home = self.cluster.home_of_user(ex.uid);
            let (features, _) = self.features_for(&model, model_version, home, &ex.item)?;
            let features = Vector::from(&features[..]);
            let fresh = || self.fresh_user_state(ex.uid);
            self.user_state.upsert(ex.uid, fresh, |s| s.observe(&features, ex.y))?;
            touched.insert(ex.uid);
        }
        // Publish the updated weights to the serving table once per user.
        for uid in touched {
            let w =
                self.user_state.upsert(uid, || self.fresh_user_state(uid), |s| s.weights().clone());
            self.publish_weights(uid, &w, None);
        }
        Ok(())
    }

    /// Recomputes predictions for previously-hot `(uid, item)` pairs under
    /// the *new* model so the cache is warm when traffic resumes. This is
    /// not a request: each pair is scored at its user's home node, and
    /// nothing is counted.
    fn repopulate_prediction_cache(&self, old_keys: &[PredKey]) {
        let mut call =
            ModelRead { version: self.model_version(), model: Some(self.current_model()) };
        let mut entries = 0u64;
        for &(uid, item_id, _, _) in old_keys {
            let mut user = self.user_read(uid, Some(self.cluster.home_of_user(uid)));
            if let Ok(scored) = self.score(&mut call, &mut user, &Item::Id(item_id)) {
                entries += scored.filled as u64;
            }
        }
        self.registry.event(EventKind::CacheRepopulation { entries });
    }

    /// Rolls back to a retained prior `version` (restored under a fresh
    /// version number). Returns the new serving version.
    pub fn rollback(&self, version: u64) -> Result<u64, VeloxError> {
        let entry = {
            let mut history = self.history.lock().unwrap();
            let pos = history
                .iter()
                .position(|e| e.version == version)
                .ok_or(VeloxError::VersionNotFound(version))?;
            history.remove(pos)
        };
        let old_version = self.version.load(Ordering::Acquire);
        // Current state goes to history so the rollback is itself
        // reversible.
        self.retire_version(HistoryEntry {
            version: old_version,
            model: self.current_model(),
            user_weights: self.weights.snapshot_entries(),
        });
        self.swap_in(entry.model, entry.user_weights, old_version + 1);
        self.registry.event(EventKind::Rollback { from: old_version, to: version });
        Ok(self.model_version())
    }

    /// Versions currently available for rollback, oldest first.
    pub fn rollback_versions(&self) -> Vec<u64> {
        self.history.lock().unwrap().iter().map(|e| e.version).collect()
    }

    /// Users whose mean loss exceeds `multiple` × the global mean with at
    /// least `min_obs` observations (admin diagnostics, §4.3).
    pub fn underperforming_users(&self, multiple: f64, min_obs: u64) -> Vec<u64> {
        self.error_tracker.lock().unwrap().underperforming_users(multiple, min_obs)
    }

    /// Observability snapshot. Counter-valued fields are read from the
    /// metric registry — the same atomics `GET /metrics` exposes — so every
    /// reporting surface agrees; eviction counts (not registry metrics)
    /// come from the caches, and quality figures from their trackers.
    pub fn stats(&self) -> SystemStats {
        let snap = self.registry.snapshot();
        SystemStats {
            model_version: self.model_version(),
            retrains: snap.counter("velox_retrains_total"),
            observations: snap.counter("velox_observations_total"),
            online_users: self.user_state.len(),
            prediction_cache: (
                snap.counter("velox_prediction_cache_hits_total"),
                snap.counter("velox_prediction_cache_misses_total"),
                self.prediction_cache.stats().2,
            ),
            feature_cache: (
                snap.counter("velox_feature_cache_hits_total"),
                snap.counter("velox_feature_cache_misses_total"),
                self.feature_cache.stats().2,
            ),
            cluster: self.cluster.stats(),
            mean_loss: self.error_tracker.lock().unwrap().global_mean(),
            generalization_loss: self.prequential.lock().unwrap().generalization_loss(),
            validation_decisions: self.validation.lock().unwrap().decision_counts(),
            stale: self.is_stale(),
            degraded: DegradationCounts {
                full: self.degraded[0].get(),
                replica: self.degraded[1].get(),
                stale_cache: self.degraded[2].get(),
                bootstrap: self.degraded[3].get(),
            },
            redo: RedoQueueStats {
                buffered: self.redo_buffered.get(),
                drained: self.redo_drained.get(),
                shed: self.redo_shed.get(),
                pending: self.redo_queue.lock().unwrap().len(),
            },
            durability: self.durability_stats(),
        }
    }

    fn durability_stats(&self) -> DurabilityStats {
        let durability = self.durability.lock().unwrap();
        match durability.as_ref() {
            Some(runtime) => DurabilityStats {
                enabled: true,
                checkpoints: self.checkpoints_total.get(),
                last_checkpoint_seq: runtime.last_seq,
                last_checkpoint_wal_offset: runtime.last_offset,
                wal_appends: self.obslog.wal_stats().map(|s| s.appends.get()).unwrap_or(0),
                wal_fsyncs: self.obslog.wal_stats().map(|s| s.fsyncs.get()).unwrap_or(0),
                wal_segments: self.obslog.with_wal(|w| w.segment_count() as u64).unwrap_or(0),
                recovery_replayed: self.recovery_replayed.get(),
            },
            None => DurabilityStats::default(),
        }
    }

    /// Direct cluster access for experiments (cache ablations, partitioning
    /// studies).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Every user's online state (read access for tests and diagnostics).
    pub fn user_store(&self) -> &UserStore {
        &self.user_state
    }

    /// A user's serving weights, shared with the serving table — a
    /// management-plane read: no routing, no cost accounting. `None` for a
    /// user without weights (never trained, or lost with a partition).
    pub fn user_weights(&self, uid: u64) -> Option<Arc<[f64]>> {
        self.weights.get(uid)
    }

    /// The whole serving table, each vector shared with it — what
    /// snapshots and offline retraining start from.
    pub fn user_weight_table(&self) -> Vec<(u64, Arc<[f64]>)> {
        self.weights.snapshot_entries()
    }

    /// Sets the serving version directly — used by snapshot restore so a
    /// restored deployment reports the version it was captured at.
    pub(crate) fn force_version(&self, version: u64) {
        self.version.store(version.max(1), Ordering::Release);
    }

    /// The currently-served model object.
    pub fn current_model(&self) -> Arc<dyn VeloxModel> {
        Arc::clone(&*self.model.read().unwrap())
    }

    /// Read access to this deployment's configuration.
    pub fn config(&self) -> &VeloxConfig {
        &self.config
    }

    /// Commits one observation to the observation log: a catalog item
    /// WAL-first when one is attached, a raw payload in memory. The
    /// observation counter (catalog items) moves only after the record is
    /// on disk, so anything an external observer can see acknowledged
    /// really is persistent (under per-record fsync).
    ///
    /// A serving caller holds the swap gate (shared), so no example can
    /// fall between a retrain's snapshot and its replay boundary.
    fn log_example(&self, uid: u64, item: &Item, y: f64) -> Result<(), VeloxError> {
        match item {
            Item::Id(id) => {
                self.obslog.try_append(uid, *id, y)?;
                self.observations_total.inc();
            }
            Item::Raw(attrs) => self.obslog.append_raw(uid, attrs.as_slice().into(), y),
        }
        Ok(())
    }

    /// Publishes one user's updated weights everywhere serving reads them:
    /// the serving table, the prediction-cache key version, the bootstrap
    /// mean and the last-known-good cache.
    ///
    /// A live observe passes the node serving it, and the write is charged
    /// to the cost model (local at the home node under ByUser routing); a
    /// replay passes `None` and is not charged. Either way the serving
    /// table takes the write only while a replica of the user's partition
    /// is live. When the last replica died mid-observation the write finds
    /// nowhere to land; the online state already holds the update and
    /// writes through on the next trained observe, so only the serving
    /// copy lags.
    fn publish_weights(&self, uid: u64, weights: &Vector, serving_node: Option<usize>) {
        let w: Arc<[f64]> = weights.as_slice().into();
        let landed = match serving_node {
            Some(node) => self.cluster.charge_user_write(node, uid).is_some(),
            None => self.cluster.user_partition_live(uid),
        };
        if landed {
            self.weights.put(uid, Arc::clone(&w));
        }
        self.user_versions.update_with(uid, || 0, |v| *v += 1);
        self.bootstrap.contribute(uid, weights);
        self.stale_weights.put(uid, w);
    }

    /// Deploys with durability: opens (or creates) the WAL and checkpoint
    /// store under `config.durability`, recovers whatever state they hold,
    /// and attaches them so subsequent observations are crash-safe.
    ///
    /// `factory` builds the model object — from the checkpoint's snapshot
    /// when one exists (`Some`), from scratch on a fresh boot (`None`).
    /// `initial_weights` seed a fresh boot only; a recovered deployment's
    /// weights come from the checkpoint plus the WAL replay.
    ///
    /// Recovery never panics on torn or corrupt files: a corrupt newest
    /// checkpoint falls back to an older retained one, the WAL scan stops
    /// at the last valid record (truncating the torn tail), and the
    /// instance serves from whatever it recovered. Each replayed record
    /// goes through the same online-update path a live `observe` takes,
    /// keyed by its log offset — replaying twice is a no-op.
    pub fn deploy_durable<F>(
        factory: F,
        initial_weights: HashMap<u64, Vector>,
        config: VeloxConfig,
    ) -> Result<(Velox, RecoveryReport), VeloxError>
    where
        F: FnOnce(Option<&DeploymentSnapshot>) -> Result<Arc<dyn VeloxModel>, VeloxError>,
    {
        let durability_config = config.durability.clone().ok_or(VeloxError::DurabilityDisabled)?;
        let timer = Timer::start();
        let store =
            CheckpointStore::open(durability_config.dir.join("checkpoints"), RETAIN_CHECKPOINTS)?;
        let checkpoint = store.load_latest()?;

        let (velox, checkpoint_seq, checkpoint_wal_offset) = match &checkpoint {
            Some(c) => {
                if c.blobs.len() != 4 {
                    return Err(VeloxError::Storage(StorageError::Corrupt(format!(
                        "checkpoint {} carries {} blobs, expected 4",
                        c.seq,
                        c.blobs.len()
                    ))));
                }
                let snapshot = DeploymentSnapshot {
                    model_version: c.model_version,
                    user_weights: c.blobs[0].clone(),
                    item_table: c.blobs[1].clone(),
                    catalog: c.blobs[2].clone(),
                };
                let model = factory(Some(&snapshot))?;
                let velox = Velox::restore(model, &snapshot, config)?;
                // The checkpoint carries the observation log too (4th
                // blob), so retraining history survives WAL truncation.
                // Taken while the timestamps continue the log's offset
                // sequence exactly.
                for o in decode_observations(c.blobs[3].clone())? {
                    if o.timestamp != velox.obslog.len() {
                        break;
                    }
                    velox.log_example(o.uid, &Item::Id(o.item_id), o.y)?;
                }
                (velox, Some(c.seq), c.wal_offset)
            }
            None => {
                let model = factory(None)?;
                (Velox::deploy(model, initial_weights, config), None, 0)
            }
        };

        let mut wal_config = WalConfig::new(durability_config.dir.join("wal"));
        wal_config.fsync = durability_config.fsync;
        wal_config.segment_max_bytes = durability_config.wal_segment_bytes;
        let (wal, scan) = Wal::open(wal_config)?;

        // Replay the WAL tail through the online-update path. Offsets
        // decide idempotence: records the checkpoint already covers skip,
        // an out-of-sequence record (unreachable history past a
        // quarantined segment) stops the replay cleanly.
        let mut replayed = 0u64;
        let mut apply_failures = 0u64;
        for record in &scan.records {
            if record.timestamp < velox.obslog.len() {
                continue;
            }
            if record.timestamp > velox.obslog.len() {
                break;
            }
            let example =
                TrainingExample { uid: record.uid, item: Item::Id(record.item_id), y: record.y };
            velox.log_example(example.uid, &example.item, example.y)?;
            // An individually unappliable record (its item vanished from
            // the catalog, say) must not halt recovery: the observation is
            // preserved in the log; only its online update is lost.
            if velox.apply_examples_to_online_state(std::slice::from_ref(&example)).is_err() {
                apply_failures += 1;
            }
            replayed += 1;
            velox.recovery_replayed.inc();
        }

        velox.obslog.attach_wal(wal);
        if let Some(stats) = velox.obslog.wal_stats() {
            velox.registry.register_counter("velox_wal_appends_total", &[], stats.appends);
            velox.registry.register_counter("velox_wal_fsyncs_total", &[], stats.fsyncs);
            velox.registry.register_counter(
                "velox_wal_bytes_written_total",
                &[],
                stats.bytes_written,
            );
        }

        let duration_ns = timer.elapsed_ns();
        velox.recovery_replay_duration.record(duration_ns);
        let torn = scan.torn.is_some();
        if checkpoint_seq.is_some() || !scan.records.is_empty() || torn || scan.quarantined > 0 {
            velox.registry.event(EventKind::Recovery { replayed, torn: torn as u64 });
        }
        *velox.durability.lock().unwrap() = Some(DurabilityRuntime {
            store,
            config: durability_config,
            last_seq: checkpoint_seq.unwrap_or(0),
            last_offset: checkpoint_wal_offset,
        });

        let report = RecoveryReport {
            checkpoint_seq,
            checkpoint_wal_offset,
            replayed,
            apply_failures,
            torn,
            wal_quarantined: scan.quarantined as u64,
            duration_ns,
        };
        Ok((velox, report))
    }

    /// Writes a durable checkpoint: the full deployment snapshot plus the
    /// observation log, fsynced and atomically installed, then reclaims
    /// the WAL segments every retained checkpoint covers.
    ///
    /// The capture runs under the exclusive swap gate, so the snapshot and
    /// the log length form one consistent cut — no observation can land
    /// half in the snapshot and half in the replayable WAL suffix.
    pub fn checkpoint(&self) -> Result<CheckpointReport, VeloxError> {
        let mut durability = self.durability.lock().unwrap();
        let Some(runtime) = durability.as_mut() else {
            return Err(VeloxError::DurabilityDisabled);
        };
        let (snapshot, observations) = {
            let _gate = self.swap_gate.write().unwrap();
            (self.snapshot(), self.obslog.read_all())
        };
        let wal_offset = observations.len() as u64;
        let model_version = snapshot.model_version;
        let blobs = [
            snapshot.user_weights,
            snapshot.item_table,
            snapshot.catalog,
            encode_observations(&observations),
        ];
        let bytes = blobs.iter().map(|b| b.len()).sum();
        let seq = runtime.store.save(model_version, wal_offset, &blobs)?;
        // Truncate only to what the *oldest* retained checkpoint covers:
        // if the file just written is later found corrupt, the fallback
        // checkpoint still has its entire WAL suffix to replay.
        let covered = runtime.store.covered_offset();
        let removed =
            self.obslog.with_wal(|w| w.truncate_covered(covered)).transpose()?.unwrap_or(0) as u64;
        runtime.last_seq = seq;
        runtime.last_offset = wal_offset;
        self.checkpoints_total.inc();
        self.registry.event(EventKind::Checkpoint {
            seq,
            wal_offset,
            wal_segments_removed: removed,
        });
        Ok(CheckpointReport { seq, wal_offset, wal_segments_removed: removed, bytes })
    }

    /// Takes an automatic checkpoint once `checkpoint_every` observations
    /// have accumulated past the last one. Called after an observation is
    /// fully committed (no gate or lock from it is still held — the
    /// capture needs the swap gate exclusively). Failures are counted, not
    /// surfaced: the triggering observation is already durable in the WAL.
    fn maybe_checkpoint(&self) {
        {
            let durability = self.durability.lock().unwrap();
            let Some(runtime) = durability.as_ref() else { return };
            if runtime.config.checkpoint_every == 0 {
                return;
            }
            if self.obslog.len() < runtime.last_offset + runtime.config.checkpoint_every {
                return;
            }
        }
        if self.checkpoint_in_flight.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.checkpoint().is_err() {
            self.checkpoint_failures.inc();
        }
        self.checkpoint_in_flight.store(false, Ordering::Release);
    }

    /// Detaches the WAL (after a final sync) and drops the checkpoint
    /// store, releasing the on-disk directory so another instance — a
    /// recovery drill, a replacement process — can take it over. Returns
    /// whether durability had been attached.
    pub fn close_durability(&self) -> bool {
        let had = self.durability.lock().unwrap().take().is_some();
        self.obslog.detach_wal().is_some() || had
    }

    /// Exact top-`k` over the **entire catalog** — the paper's §8 future
    /// work ("more efficient top-K support for our linear modeling tasks").
    /// Backed by a norm-pruned exact MIPS index over the catalog's feature
    /// vectors, built lazily per model version: queries terminate early via
    /// the Cauchy–Schwarz bound instead of scoring every item, yet return
    /// exactly what a full scan would.
    ///
    /// Unlike [`Velox::top_k`] this bypasses the per-candidate caches and
    /// bandit layer — it is the "browse the whole catalog" bulk query, not
    /// the serving decision for one impression.
    pub fn top_k_catalog(&self, uid: u64, k: usize) -> Result<Vec<(u64, f64)>, VeloxError> {
        let version = self.model_version();
        let index = self.catalog_index(version)?;
        let node = self.cluster.route_request(uid);
        self.publish_fault_transitions();
        let weights = Vector::from(&self.serving_weights(node, uid).weights[..]);
        let (results, _stats) = index.top_k(&weights, k)?;
        Ok(results.into_iter().map(|s| (s.id, s.score)).collect())
    }

    /// Builds (or returns the cached) MIPS index for `version`.
    fn catalog_index(&self, version: u64) -> Result<Arc<velox_linalg::MipsIndex>, VeloxError> {
        if let Some((v, idx)) = self.mips_index.lock().unwrap().as_ref() {
            if *v == version {
                return Ok(Arc::clone(idx));
            }
        }
        let model = self.current_model();
        let items: Vec<(u64, Vector)> = if model.is_materialized() {
            model
                .materialized_table()
                .into_iter()
                .map(|(id, v)| (id, Vector::from_vec(v)))
                .collect()
        } else {
            // Computational models: featurize every catalog item once.
            let mut out = Vec::new();
            for (id, attrs) in self.catalog.snapshot_entries() {
                let f = model.features(&Item::Raw(Vector::from(&attrs[..])))?;
                out.push((id, f));
            }
            out
        };
        let index = Arc::new(velox_linalg::MipsIndex::build(items)?);
        *self.mips_index.lock().unwrap() = Some((version, Arc::clone(&index)));
        Ok(index)
    }

    /// The raw-attribute catalog contents (for snapshots and diagnostics).
    pub fn catalog_entries(&self) -> Vec<(u64, Vec<f64>)> {
        self.catalog
            .snapshot_entries()
            .into_iter()
            .map(|(id, attrs)| (id, attrs.to_vec()))
            .collect()
    }

    /// The durable observation log (offline jobs read from here).
    pub fn observation_log(&self) -> &ObservationLog {
        &self.obslog
    }
}
