//! The model-abstraction layer: [`PredictBackend`] and its built-in
//! implementations.
//!
//! Clipper's model abstraction hides *what* computes a score behind a
//! uniform predict interface so the serving tier can batch, version, and
//! ensemble heterogeneous backends the same way. Three backends ship
//! in-tree:
//!
//! - [`VeloxBackend`] — a full [`Velox`] deployment (MF or content-basis
//!   model, online weights, caches). Its batched pass delegates to
//!   `Velox::predict_batch`, which amortizes the model snapshot and
//!   per-user weight reads while keeping the score computation
//!   bit-identical to the single-predict path.
//! - [`TransportBackend`] — a cluster connection (`SimTransport` or the
//!   TCP `NetCluster`) behind the `velox-cluster` [`Transport`] seam. Its
//!   batched pass coalesces duplicate `(uid, item)` pairs into one RPC.
//! - [`CustomScorer`] — a user-supplied closure or score table, the
//!   escape hatch for models trained outside Velox.

use std::collections::HashMap;
use std::sync::Arc;

use velox_cluster::Transport;
use velox_core::{DegradationLevel, Item, Velox};

use crate::error::ServeError;

/// Static description of a backend, for listings and diagnostics.
#[derive(Debug, Clone)]
pub struct BackendMeta {
    /// Backend flavor: `"velox"`, `"cluster"`, or `"custom"`.
    pub kind: &'static str,
    /// Feature dimension, when the backend has one (0 = not applicable).
    pub dim: usize,
    /// Internal model version, when the backend tracks one (a `Velox`
    /// deployment bumps this on every retrain swap; 0 = not applicable).
    pub model_version: u64,
}

/// Backend-specific detail carried alongside a score so the REST layer
/// can answer with the same fidelity fields as the unbatched paths.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeDetail {
    /// No extra detail (custom scorers).
    Plain,
    /// Detail from a `Velox` deployment's predict path.
    Velox {
        /// Score came from the prediction cache.
        cached: bool,
        /// User was unknown; bootstrap weights answered.
        bootstrapped: bool,
        /// Fault-degradation level of the answer.
        degradation: DegradationLevel,
    },
    /// Detail from a cluster transport predict.
    Cluster {
        /// Node that computed the score.
        node: u32,
        /// Served by a non-home node (forwarded or failed over).
        routed: bool,
        /// No weights existed; the bootstrap prior answered.
        cold_start: bool,
    },
}

/// One served prediction: the score plus backend-specific detail.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedPredict {
    /// The predicted score.
    pub score: f64,
    /// Backend-specific serving detail.
    pub detail: ServeDetail,
}

impl ServedPredict {
    /// A detail-free prediction (custom scorers).
    pub fn plain(score: f64) -> Self {
        ServedPredict { score, detail: ServeDetail::Plain }
    }
}

/// A uniform predict interface over heterogeneous model backends — the
/// serving tier's equivalent of Clipper's model abstraction layer.
///
/// The batched entry point is the contract the batching queue relies on:
/// `predict_batch` MUST be bit-identical to calling `predict_one` once
/// per request in order (same float op order, same cache policy). The
/// default implementation is exactly that loop; backends override it only
/// to amortize overhead (snapshots, weight reads, duplicate RPCs), never
/// to change the math. The `batched_bit_identity` property suite holds
/// every in-tree backend to this.
pub trait PredictBackend: Send + Sync {
    /// Static description of the backend.
    fn meta(&self) -> BackendMeta;

    /// Scores one `(uid, item)` pair.
    fn predict_one(&self, uid: u64, item: &Item) -> Result<ServedPredict, ServeError>;

    /// Scores a batch in one pass. Must be bit-identical to N sequential
    /// [`PredictBackend::predict_one`] calls.
    fn predict_batch(&self, requests: &[(u64, Item)]) -> Vec<Result<ServedPredict, ServeError>> {
        requests.iter().map(|(uid, item)| self.predict_one(*uid, item)).collect()
    }

    /// The wrapped `Velox` deployment, when this backend is one. Lets the
    /// tier drive the existing retrain/version-swap lifecycle through the
    /// manager without downcasting.
    fn velox(&self) -> Option<Arc<Velox>> {
        None
    }
}

/// A full [`Velox`] deployment as a serving backend.
pub struct VeloxBackend {
    velox: Arc<Velox>,
}

impl VeloxBackend {
    /// Wraps a deployment.
    pub fn new(velox: Arc<Velox>) -> Self {
        VeloxBackend { velox }
    }
}

impl PredictBackend for VeloxBackend {
    fn meta(&self) -> BackendMeta {
        BackendMeta {
            kind: "velox",
            dim: self.velox.dim(),
            model_version: self.velox.model_version(),
        }
    }

    fn predict_one(&self, uid: u64, item: &Item) -> Result<ServedPredict, ServeError> {
        let r = self.velox.predict(uid, item)?;
        Ok(ServedPredict {
            score: r.score,
            detail: ServeDetail::Velox {
                cached: r.cached,
                bootstrapped: r.bootstrapped,
                degradation: r.degradation,
            },
        })
    }

    fn predict_batch(&self, requests: &[(u64, Item)]) -> Vec<Result<ServedPredict, ServeError>> {
        self.velox
            .predict_batch(requests)
            .into_iter()
            .map(|r| {
                r.map(|r| ServedPredict {
                    score: r.score,
                    detail: ServeDetail::Velox {
                        cached: r.cached,
                        bootstrapped: r.bootstrapped,
                        degradation: r.degradation,
                    },
                })
                .map_err(ServeError::from)
            })
            .collect()
    }

    fn velox(&self) -> Option<Arc<Velox>> {
        Some(Arc::clone(&self.velox))
    }
}

/// A cluster connection (simulated or TCP) as a serving backend. Items
/// must be catalog references ([`Item::Id`]); the cluster routes by id.
pub struct TransportBackend {
    transport: Arc<dyn Transport + Send + Sync>,
}

impl TransportBackend {
    /// Wraps a transport.
    pub fn new(transport: Arc<dyn Transport + Send + Sync>) -> Self {
        TransportBackend { transport }
    }

    fn item_id(item: &Item) -> Result<u64, ServeError> {
        item.id().ok_or(ServeError::WrongItemKind { expected: "a catalog item id" })
    }
}

impl PredictBackend for TransportBackend {
    fn meta(&self) -> BackendMeta {
        BackendMeta { kind: "cluster", dim: 0, model_version: 0 }
    }

    fn predict_one(&self, uid: u64, item: &Item) -> Result<ServedPredict, ServeError> {
        let id = Self::item_id(item)?;
        let p = self.transport.predict(uid, id)?;
        Ok(ServedPredict {
            score: p.score,
            detail: ServeDetail::Cluster {
                node: p.node as u32,
                routed: p.routed,
                cold_start: p.cold_start,
            },
        })
    }

    /// The distinct `(uid, item)` pairs of the batch go out as ONE
    /// batched transport call — one RPC per owning node instead of one
    /// round trip per request ([`Transport::predict_many`]) — and
    /// duplicates within the batch reuse the first answer. Scores are a
    /// pure function of the weight table between observes, so both the
    /// dedup and the batched wire path are bit-identical to N sequential
    /// predicts.
    fn predict_batch(&self, requests: &[(u64, Item)]) -> Vec<Result<ServedPredict, ServeError>> {
        let mut distinct: Vec<(u64, u64)> = Vec::new();
        let mut index: HashMap<(u64, u64), usize> = HashMap::new();
        let keys: Vec<Result<usize, ServeError>> = requests
            .iter()
            .map(|(uid, item)| {
                let id = Self::item_id(item)?;
                Ok(*index.entry((*uid, id)).or_insert_with(|| {
                    distinct.push((*uid, id));
                    distinct.len() - 1
                }))
            })
            .collect();
        let answers: Vec<Result<ServedPredict, ServeError>> = self
            .transport
            .predict_many(&distinct)
            .into_iter()
            .map(|r| {
                let p = r?;
                Ok(ServedPredict {
                    score: p.score,
                    detail: ServeDetail::Cluster {
                        node: p.node as u32,
                        routed: p.routed,
                        cold_start: p.cold_start,
                    },
                })
            })
            .collect();
        keys.into_iter().map(|k| k.and_then(|i| answers[i].clone())).collect()
    }
}

/// Signature of a user-supplied scoring function.
pub type ScoreFn = dyn Fn(u64, &Item) -> Result<f64, ServeError> + Send + Sync;

/// A user-supplied scoring backend: a closure or a score table. This is
/// the deploy path for models trained outside Velox — anything that can
/// map `(uid, item)` to a score serves through the same batching queue
/// and version-swap protocol as the built-ins.
pub struct CustomScorer {
    dim: usize,
    f: Box<ScoreFn>,
}

impl CustomScorer {
    /// A scorer from a closure.
    pub fn from_fn<F>(f: F) -> Self
    where
        F: Fn(u64, &Item) -> Result<f64, ServeError> + Send + Sync + 'static,
    {
        CustomScorer { dim: 0, f: Box::new(f) }
    }

    /// A table-driven scorer: looks item ids up in a fixed score table,
    /// answering `default` on a miss (and for raw-payload items).
    pub fn from_table(table: HashMap<u64, f64>, default: f64) -> Self {
        CustomScorer {
            dim: 0,
            f: Box::new(move |_uid, item| {
                Ok(item.id().and_then(|id| table.get(&id).copied()).unwrap_or(default))
            }),
        }
    }

    /// Declares the feature dimension the scorer expects (metadata only).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }
}

impl PredictBackend for CustomScorer {
    fn meta(&self) -> BackendMeta {
        BackendMeta { kind: "custom", dim: self.dim, model_version: 0 }
    }

    fn predict_one(&self, uid: u64, item: &Item) -> Result<ServedPredict, ServeError> {
        (self.f)(uid, item).map(ServedPredict::plain)
    }
}
