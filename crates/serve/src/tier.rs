//! The serving tier: batching queues in front of the backend registry.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use velox_core::{Item, Velox};
use velox_obs::{Registry, Tracer};

use crate::backend::{PredictBackend, ServedPredict};
use crate::batch::{BatchConfig, Lane, LaneStats};
use crate::error::ServeError;
use crate::manager::{ManagerSnapshot, ModelManager};

/// Conventional backend name for the cluster transport lane; the REST
/// layer routes `/cluster/predict` through the tier when a backend is
/// registered under this name.
pub const CLUSTER_BACKEND: &str = "cluster";

/// Serving-tier configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Batching-queue configuration applied to every lane.
    pub batch: BatchConfig,
}

/// Listing entry for one registered backend (the `GET /models` payload).
#[derive(Debug, Clone)]
pub struct BackendStatus {
    /// Registered name.
    pub name: String,
    /// Backend flavor (`"velox"`, `"cluster"`, `"custom"`).
    pub kind: &'static str,
    /// Feature dimension (0 = not applicable).
    pub dim: usize,
    /// Version the serving alias points at.
    pub serving_version: u64,
    /// All retained versions, ascending.
    pub versions: Vec<u64>,
    /// Internal model version of the serving backend (Velox deployments).
    pub model_version: u64,
    /// Batching-lane statistics.
    pub lane: LaneStats,
}

/// The serving tier: a [`ModelManager`] of versioned backends and one
/// adaptive batching lane per backend name.
///
/// Wrap it in an `Arc` and share freely; every `predict` blocks the
/// calling thread until its batch is served — by that thread itself when
/// the lane is free. The tier owns no threads.
pub struct ServeTier {
    manager: ModelManager,
    config: ServeConfig,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    lanes: Mutex<HashMap<String, Arc<Lane>>>,
}

impl ServeTier {
    /// An empty tier with default configuration, by value (the other
    /// constructors hand out the `Arc` the REST server shares).
    pub fn new() -> ServeTier {
        Self::build(ServeConfig::default(), Arc::new(Registry::new()), Tracer::disabled())
    }

    /// A tier with explicit configuration.
    pub fn with_config(config: ServeConfig) -> Arc<ServeTier> {
        Self::with_parts(config, Arc::new(Registry::new()), Tracer::disabled())
    }

    /// A tier wired to an existing metrics registry and tracer.
    pub fn with_parts(
        config: ServeConfig,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> Arc<ServeTier> {
        Arc::new(Self::build(config, registry, tracer))
    }

    fn build(config: ServeConfig, registry: Arc<Registry>, tracer: Arc<Tracer>) -> ServeTier {
        ServeTier {
            manager: ModelManager::new(),
            config,
            registry,
            tracer,
            lanes: Mutex::new(HashMap::new()),
        }
    }

    /// The backend registry (for direct version management).
    pub fn manager(&self) -> &ModelManager {
        &self.manager
    }

    /// The tier's metrics registry (`velox_serve_*` series).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn ensure_lane(&self, name: &str) {
        self.lanes.lock().unwrap().entry(name.to_string()).or_insert_with(|| {
            Lane::new(
                name,
                self.config.batch,
                &self.registry,
                self.manager.clone(),
                Arc::clone(&self.tracer),
            )
        });
    }

    fn lane(&self, name: &str) -> Option<Arc<Lane>> {
        self.lanes.lock().unwrap().get(name).cloned()
    }

    /// Registers a backend version under `name` (new names start serving
    /// immediately; existing names need a [`ServeTier::flip_alias`]).
    pub fn register(
        &self,
        name: &str,
        backend: Arc<dyn PredictBackend>,
    ) -> Result<u64, ServeError> {
        let version = self.manager.register(name, backend)?;
        self.ensure_lane(name);
        Ok(version)
    }

    /// Registers a name that must not already exist.
    pub fn register_new(
        &self,
        name: &str,
        backend: Arc<dyn PredictBackend>,
    ) -> Result<u64, ServeError> {
        let version = self.manager.register_new(name, backend)?;
        self.ensure_lane(name);
        Ok(version)
    }

    /// Atomically flips the serving alias of `name` to `version`. Returns
    /// the previously serving version.
    pub fn flip_alias(&self, name: &str, version: u64) -> Result<u64, ServeError> {
        self.manager.flip_alias(name, version)
    }

    /// Retires a non-serving version of `name`.
    pub fn retire(&self, name: &str, version: u64) -> Result<(), ServeError> {
        self.manager.retire(name, version)
    }

    /// Whether `name` is registered.
    pub fn has(&self, name: &str) -> bool {
        self.manager.snapshot().has(name)
    }

    /// A point-in-time registry snapshot (one per request).
    pub fn snapshot(&self) -> ManagerSnapshot {
        self.manager.snapshot()
    }

    /// Scores through the adaptive batching queue: blocks until the
    /// request's batch is served.
    pub fn predict(&self, name: &str, uid: u64, item: &Item) -> Result<ServedPredict, ServeError> {
        match self.lane(name) {
            Some(lane) => lane.predict(uid, item),
            None => self.predict_direct(name, uid, item),
        }
    }

    /// Scores immediately, bypassing the batching queue (the unbatched
    /// baseline). One manager snapshot per request.
    pub fn predict_direct(
        &self,
        name: &str,
        uid: u64,
        item: &Item,
    ) -> Result<ServedPredict, ServeError> {
        let snapshot = self.manager.snapshot();
        let entry = snapshot.resolve(name)?;
        entry.backend.predict_one(uid, item)
    }

    /// The `Velox` deployment serving `name`: the backend its alias points
    /// at, when that backend is one. Observe, top-k, stats and the
    /// deployment's own lifecycle (`retrain_offline`, `checkpoint`) go
    /// through this; predicts go through the lane.
    pub fn velox(&self, name: &str) -> Result<Arc<Velox>, ServeError> {
        let entry = self.manager.snapshot().resolve(name)?;
        entry.backend.velox().ok_or_else(|| ServeError::NotVelox(name.to_string()))
    }

    /// Listing of every registered backend with its lane statistics,
    /// sorted by name.
    pub fn backends(&self) -> Vec<BackendStatus> {
        let snapshot = self.manager.snapshot();
        snapshot
            .names()
            .into_iter()
            .filter_map(|name| {
                let entry = snapshot.resolve(&name).ok()?;
                let meta = entry.meta();
                let lane = self.lane(&name)?;
                Some(BackendStatus {
                    name: name.clone(),
                    kind: meta.kind,
                    dim: meta.dim,
                    serving_version: entry.version,
                    versions: snapshot.versions(&name).unwrap_or_default(),
                    model_version: meta.model_version,
                    lane: lane.stats(),
                })
            })
            .collect()
    }

    /// Refuses new predicts with [`ServeError::ShuttingDown`]; requests
    /// already queued are still served. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        for lane in self.lanes.lock().unwrap().values() {
            lane.shutdown();
        }
    }
}

impl Default for ServeTier {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ServeTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}
