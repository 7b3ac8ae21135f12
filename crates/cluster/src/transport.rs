//! Backend-agnostic serving transport.
//!
//! The paper's cluster (§3) is reachable two ways in this repo: the
//! in-process simulator ([`Cluster`]) that models locality and cost in
//! virtual time, and the real loopback TCP runtime in `velox-net`. The
//! [`Transport`] trait is the seam between them: a driver written against
//! it — the chaos harness, the REST layer, the NET-LAT bench — runs
//! unchanged over either backend, which is what lets us check that the
//! socket path computes *bit-identical* scores to the simulator
//! (`velox-net`'s backends-agree test).
//!
//! The model served over the transport is the paper's online user model
//! (Eq. 2): per user, a ridge regression `wᵤ` over fixed item features
//! `x`, scored as `wᵤ·x` and updated online with Sherman–Morrison
//! rank-one updates ([`UserStore::observe`]). It is the learner the in-process
//! `Velox` runs — the same `IncrementalRidge`, the same λ
//! ([`RIDGE_LAMBDA`]) and the same dot kernel ([`score`]) — so the
//! in-process deployment, the simulator and the socket cluster serve the
//! same model, bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use velox_data::linalg::{vector::dot_slices, Vector};
use velox_data::VeloxRng;
use velox_obs::{
    ActiveSpan, RootSpan, SpanKind, SpanStatus, TraceConfig, TraceContext, Tracer, FRONT_NODE,
};

use crate::cluster::Cluster;
use crate::detector::{PeerLiveness, PeerState};
use crate::fault::NodeHealth;
use crate::migrate::ControlPlane;
use crate::netfault::{ChaosControl, LinkChaos, FRONT_PEER};
use crate::partition::{MembershipError, MembershipView, NodeId, PartitionMap};
use crate::retry::{obs_id_nonce, ObsDedupe, RetryPolicy};
use crate::user_store::{StoreMetrics, UserStore};

/// Why a transport request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No live replica could serve the request (every candidate node was
    /// down or the key's data is gone).
    Unavailable,
    /// The transport itself failed: socket error, corrupt frame, timeout.
    /// The in-process backend never returns this.
    Failed(String),
    /// The request was refused — bad membership argument, kill switch, a
    /// migration that aborted and rolled back, or a non-finite label. Maps
    /// to a 4xx at the REST layer, never a 5xx.
    Rejected(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unavailable => write!(f, "no live replica available"),
            TransportError::Failed(msg) => write!(f, "transport failed: {msg}"),
            TransportError::Rejected(msg) => write!(f, "request rejected: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Outcome of a predict served over a transport.
#[derive(Debug, Clone)]
pub struct TransportPredict {
    /// The score `wᵤ·x`.
    pub score: f64,
    /// Node that computed the score.
    pub node: NodeId,
    /// True when the request was served by a node other than the user's
    /// home partition (forwarded over the wire, or failed over).
    pub routed: bool,
    /// True when no weight vector existed for the user and the score came
    /// from the all-zeros bootstrap prior.
    pub cold_start: bool,
    /// Trace id recorded for this request, when it was sampled — the key
    /// for `GET /trace/<id>` span-tree reassembly.
    pub trace_id: Option<u64>,
}

/// Outcome of an acknowledged observe.
#[derive(Debug, Clone)]
pub struct TransportObserve {
    /// Node that owns the user's partition and applied the update.
    pub node: NodeId,
    /// Logical timestamp assigned to the observation by the owning node.
    /// Monotone per owner; replicas replay in `ts` order during recovery.
    pub ts: u64,
    /// Replicas the acknowledged record was shipped to (0 when
    /// replication is off or no replica is live).
    pub shipped_to: usize,
    /// Trace id recorded for this request, when it was sampled.
    pub trace_id: Option<u64>,
}

/// A serving-path connection to a Velox cluster, real or simulated.
///
/// An `Ok` from [`Transport::observe`] is an *acknowledgement*: the update
/// is applied at the owner and durable per the backend's policy (WAL +
/// shipped log for the TCP runtime). The log-shipping tests hold every
/// backend to that contract.
pub trait Transport {
    /// Number of nodes in the cluster (fixed at construction).
    fn n_nodes(&self) -> usize;

    /// Current health of `node`.
    fn node_health(&self, node: NodeId) -> NodeHealth;

    /// Scores item `item_id` for user `uid`: routes to the node holding
    /// `wᵤ`, computes `wᵤ·x`, and reports how the request was served.
    fn predict(&self, uid: u64, item_id: u64) -> Result<TransportPredict, TransportError>;

    /// Scores many `(uid, item_id)` pairs, answered in request order.
    /// The default serves each pair through [`Transport::predict`];
    /// batch-capable backends override it to amortize the per-request
    /// round trip (one RPC per owning node instead of one per pair). An
    /// override MUST return scores bit-identical to the sequential path
    /// — batching amortizes overhead, it never changes the math.
    fn predict_many(&self, pairs: &[(u64, u64)]) -> Vec<Result<TransportPredict, TransportError>> {
        pairs.iter().map(|&(uid, item_id)| self.predict(uid, item_id)).collect()
    }

    /// Applies one online observation `(uid, item_id, y)` at the owning
    /// node — one Sherman–Morrison update of the user's state — and
    /// acknowledges it.
    fn observe(&self, uid: u64, item_id: u64, y: f64) -> Result<TransportObserve, TransportError>;

    /// Fetches the current weight vector for `uid` (`None` when the user
    /// has never been observed). Management-plane read.
    fn fetch_weights(&self, uid: u64) -> Result<Option<Vec<f64>>, TransportError>;

    /// [`Transport::predict`] under an optional caller trace context
    /// (e.g. the REST ingress root span). The default ignores the context
    /// — a backend without tracing keeps working; trace-aware backends
    /// override this, record per-hop spans, and mint their own root when
    /// `ctx` is `None`.
    fn predict_traced(
        &self,
        uid: u64,
        item_id: u64,
        ctx: Option<&TraceContext>,
    ) -> Result<TransportPredict, TransportError> {
        let _ = ctx;
        self.predict(uid, item_id)
    }

    /// [`Transport::observe`] under an optional caller trace context.
    fn observe_traced(
        &self,
        uid: u64,
        item_id: u64,
        y: f64,
        ctx: Option<&TraceContext>,
    ) -> Result<TransportObserve, TransportError> {
        let _ = ctx;
        self.observe(uid, item_id, y)
    }

    /// The backend's tracer, when it has one ([`Tracer::disabled`]
    /// otherwise). REST uses this to serve `GET /trace/<id>`.
    fn tracer(&self) -> Arc<Tracer> {
        Tracer::disabled()
    }

    /// Per-peer liveness as seen by the backend's failure detector,
    /// served by `GET /cluster/health`. The default derives a coarse
    /// verdict from [`Transport::node_health`] with no probe statistics;
    /// backends with a real detector override it.
    fn liveness(&self) -> Vec<PeerLiveness> {
        (0..self.n_nodes())
            .map(|i| PeerLiveness {
                node: i as u32,
                state: match self.node_health(i) {
                    NodeHealth::Up => PeerState::Alive,
                    NodeHealth::Recovering => PeerState::Suspect,
                    NodeHealth::Down => PeerState::Dead,
                },
                misses: 0,
                last_rtt_us: 0,
                probes: 0,
                failures: 0,
            })
            .collect()
    }

    /// Membership and migration state (map epoch, members, migration
    /// ledger, wrong-epoch rejections), served by `GET /cluster/health`.
    /// `None` for backends without elastic membership.
    fn membership(&self) -> Option<MembershipView> {
        None
    }

    /// Requests that the in-flight migration (if any) abort at its next
    /// chunk boundary, rolling back to the pre-migration state. Returns
    /// whether a migration was running when the cancel landed. The
    /// default (no migration machinery) reports `false`.
    fn cancel_migration(&self) -> bool {
        false
    }

    /// Flips the auto-rebalance/migration kill switch. A no-op on
    /// backends without membership machinery.
    fn set_auto_rebalance(&self, on: bool) {
        let _ = on;
    }

    /// Current state of the auto-rebalance kill switch (`false` on
    /// backends without membership machinery).
    fn auto_rebalance_enabled(&self) -> bool {
        false
    }

    /// Operator-initiated planned handoff: migrates the planned partition
    /// set onto `node`. Bad arguments (unknown slot, non-member) come
    /// back as [`TransportError::Rejected`], not a panic.
    fn rebalance_join_node(&self, node: NodeId) -> Result<Vec<u32>, TransportError> {
        let _ = node;
        Err(TransportError::Rejected("backend has no membership machinery".into()))
    }

    /// Operator-initiated fail-over of a down member: removes it from the
    /// map and backfills depleted replica sets. Returns the entries
    /// copied during backfill.
    fn fail_over_node(&self, node: NodeId) -> Result<u64, TransportError> {
        let _ = node;
        Err(TransportError::Rejected("backend has no membership machinery".into()))
    }
}

/// Every [`MembershipError`] is an operator-input problem (4xx) except
/// `Failed`, the one backend fault (5xx).
impl From<MembershipError> for TransportError {
    fn from(e: MembershipError) -> Self {
        match e {
            MembershipError::Failed(why) => TransportError::Failed(why),
            refused => TransportError::Rejected(refused.to_string()),
        }
    }
}

/// The refusal both backends give a non-finite label: applying it would
/// turn the user's weights — and every later score — into NaN.
pub fn non_finite_label(y: f64) -> String {
    format!("label y = {y} is not finite")
}

/// Ridge constant λ of every worker's online model (Eq. 2).
/// `VeloxConfig::default()` reads it too, so every deployment fits the
/// same model.
pub const RIDGE_LAMBDA: f64 = 1.0;

/// The refusal both backends give an item whose features differ in length
/// from the user's model — scoring it would read past one of them, and
/// training on it has no meaning — or `Ok` when the widths agree.
pub(crate) fn same_width(user_dim: usize, item_dim: usize) -> Result<(), String> {
    if user_dim == item_dim {
        return Ok(());
    }
    Err(format!("item has {item_dim} features, the user's model {user_dim}"))
}

/// How both backends score `x` for a user with weights `w`: `w·x` through
/// the kernel `Velox` scores with, paired with `cold_start` — a user not
/// seen yet (`None`) scores the all-zeros prior's 0. Refused when the
/// widths differ.
pub fn score(w: Option<&[f64]>, x: &[f64]) -> Result<(f64, bool), String> {
    let Some(w) = w else { return Ok((0.0, true)) };
    same_width(w.len(), x.len())?;
    Ok((dot_slices(w, x), false))
}

/// The in-process backend: [`Transport`] over the simulated [`Cluster`].
///
/// Routing, replication, failover, and fault injection all come from the
/// simulator; this adapter adds only the model — each user's
/// `IncrementalRidge`, held once, which every predict scores with and
/// every observe folds into — and a monotone observation clock, mirroring
/// what `velox-net`'s node servers do on real sockets.
pub struct SimTransport {
    cluster: Arc<Cluster>,
    /// Each user's online state, the only copy: the cluster says whether
    /// and at what cost a replica answers, this says what it answers. A
    /// partition's states die with its last live replica.
    users: Arc<UserStore>,
    ts: AtomicU64,
    tracer: Arc<Tracer>,
    // Network-fault mirror: the same link chaos engine, retry budget, and
    // observation dedupe the TCP runtime uses, so the CHAOS-NET suite
    // runs unchanged over the simulator. All inert by default — with no
    // installed plan the serving path is byte-for-byte the old one.
    chaos: Arc<LinkChaos>,
    retry: RetryPolicy,
    retry_rng: Mutex<VeloxRng>,
    obs_dedupe: Mutex<ObsDedupe<(NodeId, u64, usize)>>,
    obs_nonce: u64,
    obs_seq: AtomicU64,
    dedupe_hits: AtomicU64,
    chaos_retries: AtomicU64,
    // Client-side partition-map cache: every request presents this map's
    // epoch to the cluster exactly like a TCP client stamps its frames.
    // A WrongEpoch rejection refreshes the cache and retries — the same
    // stale-client protocol the socket backend runs.
    map: Mutex<Arc<PartitionMap>>,
    map_refreshes: AtomicU64,
}

impl SimTransport {
    /// Wraps `cluster`. `lr` is ignored (the model has no learning rate);
    /// the parameter stays for callers that pass one. Tracing is off; use
    /// [`SimTransport::with_trace`] to record spans.
    pub fn new(cluster: Arc<Cluster>, lr: f64) -> Self {
        let _ = lr;
        Self::build(cluster, Tracer::disabled())
    }

    /// Like [`SimTransport::new`] but with request tracing per `trace`.
    /// The simulator emits the same span chain as the TCP runtime —
    /// route, failover, RPC, server receive, node work, log shipping —
    /// so span trees are structurally comparable across backends.
    pub fn with_trace(cluster: Arc<Cluster>, trace: TraceConfig) -> Self {
        let tracer = Tracer::new(cluster.n_nodes(), trace);
        Self::build(cluster, tracer)
    }

    fn build(cluster: Arc<Cluster>, tracer: Arc<Tracer>) -> Self {
        let users = Arc::new(UserStore::new(&cluster.map(), StoreMetrics::default()));
        // A migration streams the users this store holds in the partition.
        let census = Arc::clone(&users);
        cluster.set_migration_census(move |p| census.partition_entries(p, |uid, _| uid));
        let map = Mutex::new(cluster.map());
        let chaos = Arc::new(LinkChaos::default());
        // The migration path consults the same link-fault engine the
        // serving path does, so a partition cut by the chaos harness also
        // aborts an in-flight checkpoint transfer.
        cluster.set_migration_link_chaos(Arc::clone(&chaos));
        SimTransport {
            cluster,
            users,
            ts: AtomicU64::new(0),
            tracer,
            chaos,
            retry: RetryPolicy::default(),
            retry_rng: Mutex::new(VeloxRng::seed_from(0x51A1_7E57)),
            obs_dedupe: Mutex::new(ObsDedupe::new(65_536)),
            obs_nonce: obs_id_nonce(),
            obs_seq: AtomicU64::new(0),
            dedupe_hits: AtomicU64::new(0),
            chaos_retries: AtomicU64::new(0),
            map,
            map_refreshes: AtomicU64::new(0),
        }
    }

    /// Replaces the retry policy (builder-style, before sharing).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The wrapped simulator (for fault plans, stats, and seeding).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Every user's online state (read access for tests and diagnostics).
    pub fn user_store(&self) -> &UserStore {
        &self.users
    }

    /// Observes suppressed by the exactly-once dedupe window (duplicate
    /// deliveries plus ack-lost replays).
    pub fn dedupe_hit_count(&self) -> u64 {
        self.dedupe_hits.load(Ordering::Relaxed)
    }

    /// RPC attempts retried because of injected link faults.
    pub fn chaos_retry_count(&self) -> u64 {
        self.chaos_retries.load(Ordering::Relaxed)
    }

    /// Map refreshes forced by `WrongEpoch` rejections (each one is a
    /// stale client catching up to a membership change).
    pub fn map_refresh_count(&self) -> u64 {
        self.map_refreshes.load(Ordering::Relaxed)
    }

    /// Presents the cached map epoch to the cluster before a request, as a
    /// TCP client stamps its frames. A `WrongEpoch` rejection refreshes
    /// the cache from the cluster and re-presents — bounded because the
    /// refreshed epoch is the one the rejection reported (or newer).
    fn admit_with_refresh(&self) {
        loop {
            let epoch = self.map.lock().unwrap().epoch();
            match self.cluster.admit_epoch(epoch) {
                Ok(()) => return,
                Err(_) => {
                    *self.map.lock().unwrap() = self.cluster.map();
                    self.map_refreshes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The crash rule: drops the states of every partition a kill left
    /// without a live replica. Runs after routing (which fires scheduled
    /// faults) and before any read of the store.
    fn drop_lost_partitions(&self) {
        if !self.cluster.transitions_pending() {
            return;
        }
        for t in self.cluster.take_transitions() {
            for &p in &t.lost_partitions {
                self.users.drop_partition(p);
            }
        }
    }

    /// Mints a process-unique observation id.
    fn next_obs_id(&self) -> u64 {
        let id = self.obs_nonce.wrapping_add(self.obs_seq.fetch_add(1, Ordering::Relaxed) + 1);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// `item_id`'s features as node `at` reads them. An item the node
    /// cannot read, or whose published features have a non-finite
    /// component, is `Unavailable` — the socket node refuses to seed such
    /// an item, and scoring or training on it would turn a user's weights
    /// into NaN.
    fn item_features(&self, at: NodeId, item_id: u64) -> Result<Arc<[f64]>, TransportError> {
        let read = self.cluster.read_item_features(at, item_id);
        match read.value {
            Some(x) if !read.unavailable && x.iter().all(|v| v.is_finite()) => Ok(x),
            _ => Err(TransportError::Unavailable),
        }
    }

    /// Marks one chaos-failed attempt: a `Retry` span marker plus
    /// jittered backoff when budget remains.
    fn note_chaos_retry(&self, entry_ctx: Option<&TraceContext>, attempt: u32, budget: u32) {
        self.chaos_retries.fetch_add(1, Ordering::Relaxed);
        let marker = self.tracer.child(entry_ctx, SpanKind::Retry, FRONT_NODE);
        self.tracer.finish_status(marker, SpanStatus::Error);
        if attempt + 1 < budget {
            let pause = self.retry.backoff(attempt, self.retry_rng.lock().unwrap().uniform());
            // Simulated time, real sleeps: chaos plans keep backoff small.
            std::thread::sleep(pause);
        }
    }

    /// Entry span for one request: a child when the caller propagated a
    /// context (REST ingress), a fresh root otherwise.
    fn entry(
        &self,
        kind: SpanKind,
        ctx: Option<&TraceContext>,
    ) -> (Option<RootSpan>, Option<ActiveSpan>) {
        if ctx.is_some() {
            (None, self.tracer.child(ctx, kind, FRONT_NODE))
        } else {
            (self.tracer.ingress(kind, FRONT_NODE), None)
        }
    }

    /// Closes the entry span (and roots' keep decision) after the work.
    fn close_entry(&self, root: Option<RootSpan>, child: Option<ActiveSpan>, status: SpanStatus) {
        self.tracer.finish_status(child, status);
        if let Some(r) = root {
            self.tracer.end_root(r);
        }
    }
}

impl Transport for SimTransport {
    fn n_nodes(&self) -> usize {
        self.cluster.n_nodes()
    }

    fn node_health(&self, node: NodeId) -> NodeHealth {
        self.cluster.node_health(node)
    }

    fn predict(&self, uid: u64, item_id: u64) -> Result<TransportPredict, TransportError> {
        self.predict_traced(uid, item_id, None)
    }

    fn observe(&self, uid: u64, item_id: u64, y: f64) -> Result<TransportObserve, TransportError> {
        self.observe_traced(uid, item_id, y, None)
    }

    fn predict_traced(
        &self,
        uid: u64,
        item_id: u64,
        ctx: Option<&TraceContext>,
    ) -> Result<TransportPredict, TransportError> {
        let tracer = &self.tracer;
        let (root, entry_child) = self.entry(SpanKind::ClusterPredict, ctx);
        let entry_ctx =
            root.as_ref().map(|r| r.ctx()).or_else(|| entry_child.as_ref().map(|c| c.ctx()));

        self.admit_with_refresh();
        let route_span = tracer.child(entry_ctx.as_ref(), SpanKind::Route, FRONT_NODE);
        let at = self.cluster.route_request(uid);
        let home = self.cluster.home_of_user(uid);
        tracer.finish(route_span);
        self.drop_lost_partitions();

        // Chaos failover order: the routed target first, then the user's
        // other live replicas. With no link faults installed, attempt 0
        // on `at` is the only attempt and the path is exactly the
        // chaos-free one.
        let mut candidates = vec![at];
        for r in self.cluster.live_user_replicas(uid) {
            if r != at {
                candidates.push(r);
            }
        }

        let budget = self.retry.max_attempts.max(1);
        let mut served_at = at;
        let mut outcome: Result<(f64, bool), TransportError> =
            Err(TransportError::Failed("chaos: retry budget exhausted".into()));
        for attempt in 0..budget {
            let target = candidates[attempt as usize % candidates.len()];
            let v = self.chaos.verdict(FRONT_PEER, target as u32);
            if v.delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(v.delay_us));
            }
            if v.partitioned_request || v.partitioned_response || v.drop || v.corrupt || v.reset {
                // Predicts are idempotent: any lost request or lost
                // response is safe to retry on the next candidate.
                self.note_chaos_retry(entry_ctx.as_ref(), attempt, budget);
                continue;
            }
            if target != home {
                let fo = tracer.child(entry_ctx.as_ref(), SpanKind::Failover, FRONT_NODE);
                tracer.finish(fo);
            }

            // The simulator has no wire hop; the RPC → recv → work nesting
            // is emitted anyway so both backends produce the same tree
            // shape.
            let rpc_span = tracer.child(entry_ctx.as_ref(), SpanKind::RpcCall, FRONT_NODE);
            let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
            let recv_span = tracer.child(rpc_ctx.as_ref(), SpanKind::ServerRecv, target as u32);
            let recv_ctx = recv_span.as_ref().map(|s| s.ctx());
            let work_span = tracer.child(recv_ctx.as_ref(), SpanKind::NodePredict, target as u32);

            let result = (|| {
                let x = self.item_features(target, item_id)?;
                if self.cluster.charge_user_read(target, uid).unavailable {
                    return Err(TransportError::Unavailable);
                }
                let scored =
                    self.users.read(uid, |user| score(Some(user.weights().as_slice()), &x));
                scored.unwrap_or_else(|| score(None, &x)).map_err(TransportError::Rejected)
            })();

            let status = if result.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
            tracer.finish_status(work_span, status);
            tracer.finish_status(recv_span, status);
            tracer.finish_status(rpc_span, status);
            served_at = target;
            outcome = result;
            // Cluster-level errors (node down, data gone) keep their
            // original single-shot semantics; only link faults retry.
            break;
        }

        let status = if outcome.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
        let trace_id = entry_ctx.map(|c| c.trace_id);
        self.close_entry(root, entry_child, status);

        outcome.map(|(score, cold_start)| TransportPredict {
            score,
            node: served_at,
            routed: served_at != home,
            cold_start,
            trace_id,
        })
    }

    fn observe_traced(
        &self,
        uid: u64,
        item_id: u64,
        y: f64,
        ctx: Option<&TraceContext>,
    ) -> Result<TransportObserve, TransportError> {
        if !y.is_finite() {
            return Err(TransportError::Rejected(non_finite_label(y)));
        }
        let tracer = &self.tracer;
        let (root, entry_child) = self.entry(SpanKind::ClusterObserve, ctx);
        let entry_ctx =
            root.as_ref().map(|r| r.ctx()).or_else(|| entry_child.as_ref().map(|c| c.ctx()));

        // One observation id for the whole logical call: every attempt
        // (including ack-lost replays) carries the same id, so the dedupe
        // window makes the operation exactly-once no matter how the link
        // misbehaves.
        let obs_id = self.next_obs_id();
        self.admit_with_refresh();
        let home = self.cluster.home_of_user(uid);
        let budget = self.retry.max_attempts.max(1);
        let mut outcome: Result<(NodeId, u64, usize), TransportError> =
            Err(TransportError::Failed("chaos: retry budget exhausted".into()));
        for attempt in 0..budget {
            let route_span = if attempt == 0 {
                tracer.child(entry_ctx.as_ref(), SpanKind::Route, FRONT_NODE)
            } else {
                None
            };
            let at = self.cluster.route_request(uid);
            tracer.finish(route_span);
            self.drop_lost_partitions();

            let v = self.chaos.verdict(FRONT_PEER, at as u32);
            if v.delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(v.delay_us));
            }
            // Faults that lose the request *before* the node sees it (or
            // sever the connection before dispatch) are guaranteed
            // not-applied: replaying them is unconditionally safe.
            if v.partitioned_request || v.drop || v.corrupt || v.reset {
                self.note_chaos_retry(entry_ctx.as_ref(), attempt, budget);
                continue;
            }
            if at != home {
                let fo = tracer.child(entry_ctx.as_ref(), SpanKind::Failover, FRONT_NODE);
                tracer.finish(fo);
            }

            let rpc_span = tracer.child(entry_ctx.as_ref(), SpanKind::RpcCall, FRONT_NODE);
            let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
            let recv_span = tracer.child(rpc_ctx.as_ref(), SpanKind::ServerRecv, at as u32);
            let recv_ctx = recv_span.as_ref().map(|s| s.ctx());
            let work_span = tracer.child(recv_ctx.as_ref(), SpanKind::NodeObserve, at as u32);
            let work_ctx = work_span.as_ref().map(|s| s.ctx());

            // Replayed id: the node already applied this observation on a
            // previous attempt whose ack was lost — return the original
            // ack instead of a second update.
            let replayed = self.obs_dedupe.lock().unwrap().hit(obs_id);
            let result = if let Some(ack) = replayed {
                self.dedupe_hits.fetch_add(1, Ordering::Relaxed);
                Ok(ack)
            } else {
                let fresh = (|| {
                    let x = Vector::from(&self.item_features(at, item_id)?[..]);
                    self.cluster.charge_user_write(at, uid).ok_or(TransportError::Unavailable)?;
                    self.users.fits(uid, &x).map_err(TransportError::Rejected)?;
                    // An update the learner refuses (a non-finite
                    // denominator) is acked unapplied, as at a node.
                    let _ = self.users.observe(uid, &x, y);
                    Ok(self.ts.fetch_add(1, Ordering::Relaxed) + 1)
                })();

                match fresh {
                    Err(e) => Err(e),
                    Ok(ts) => {
                        // Mirror the TCP runtime's log shipping: one
                        // replica hop per live replica (owner excluded),
                        // applied synchronously.
                        let mut shipped_to = 0;
                        for replica in self.cluster.live_user_replicas(uid) {
                            if replica == at {
                                continue;
                            }
                            let ship =
                                tracer.child(work_ctx.as_ref(), SpanKind::ShipReplica, at as u32);
                            let ship_ctx = ship.as_ref().map(|s| s.ctx());
                            let rrecv = tracer.child(
                                ship_ctx.as_ref(),
                                SpanKind::ServerRecv,
                                replica as u32,
                            );
                            let rrecv_ctx = rrecv.as_ref().map(|s| s.ctx());
                            let apply = tracer.child(
                                rrecv_ctx.as_ref(),
                                SpanKind::ShipApply,
                                replica as u32,
                            );
                            tracer.finish(apply);
                            tracer.finish(rrecv);
                            tracer.finish(ship);
                            shipped_to += 1;
                        }
                        self.obs_dedupe.lock().unwrap().put(obs_id, (at, ts, shipped_to));
                        if v.duplicate {
                            // The frame was delivered twice: the second
                            // delivery lands in the dedupe window and is
                            // suppressed instead of re-applied.
                            if self.obs_dedupe.lock().unwrap().hit(obs_id).is_some() {
                                self.dedupe_hits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok((at, ts, shipped_to))
                    }
                }
            };

            let status = if result.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
            tracer.finish_status(work_span, status);
            tracer.finish_status(recv_span, status);
            tracer.finish_status(rpc_span, status);

            if result.is_ok() && v.partitioned_response {
                // Applied (and recorded under obs_id), but the ack is
                // lost on the way back. Replay with the same id: if the
                // reverse path stays cut for the whole budget the caller
                // gets an error and never counts the observe acked.
                self.note_chaos_retry(entry_ctx.as_ref(), attempt, budget);
                continue;
            }
            outcome = result;
            break;
        }

        let status = if outcome.is_ok() { SpanStatus::Ok } else { SpanStatus::Error };
        let trace_id = entry_ctx.map(|c| c.trace_id);
        self.close_entry(root, entry_child, status);

        outcome.map(|(node, ts, shipped_to)| TransportObserve { node, ts, shipped_to, trace_id })
    }

    fn fetch_weights(&self, uid: u64) -> Result<Option<Vec<f64>>, TransportError> {
        self.drop_lost_partitions();
        Ok(self.users.read(uid, |user| user.weights().as_slice().to_vec()))
    }

    fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    fn membership(&self) -> Option<MembershipView> {
        let map = self.cluster.map();
        Some(MembershipView {
            epoch: map.epoch(),
            members: map.members().to_vec(),
            n_partitions: map.n_partitions(),
            replication: map.replication(),
            migrations: self.cluster.migrations(),
            wrong_epoch: self.cluster.wrong_epoch_count(),
            map_refreshes: self.map_refresh_count(),
            auto_rebalance: self.cluster.rebalance_enabled(),
        })
    }

    fn cancel_migration(&self) -> bool {
        self.cluster.request_migration_cancel()
    }

    fn set_auto_rebalance(&self, on: bool) {
        self.cluster.set_rebalance_enabled(on);
    }

    fn auto_rebalance_enabled(&self) -> bool {
        self.cluster.rebalance_enabled()
    }

    fn rebalance_join_node(&self, node: NodeId) -> Result<Vec<u32>, TransportError> {
        Ok(self.cluster.rebalance_join(node)?)
    }

    fn fail_over_node(&self, node: NodeId) -> Result<u64, TransportError> {
        Ok(self.cluster.fail_over_dead(node)?)
    }
}

impl ChaosControl for SimTransport {
    fn link_chaos(&self) -> &Arc<LinkChaos> {
        &self.chaos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fault::NodeHealth;

    fn transport(n_nodes: usize, user_replication: usize) -> SimTransport {
        let cluster = Arc::new(Cluster::new(ClusterConfig {
            n_nodes,
            user_replication,
            item_replication: n_nodes,
            ..Default::default()
        }));
        for item in 0..16u64 {
            cluster.put_item_features(item, vec![1.0, (item % 4) as f64, 0.5]);
        }
        SimTransport::new(cluster, 0.0)
    }

    #[test]
    fn observe_then_predict_moves_score_toward_label() {
        let t = transport(3, 1);
        let before = t.predict(7, 3).unwrap();
        assert_eq!(before.score, 0.0);
        assert!(before.cold_start);
        for _ in 0..50 {
            t.observe(7, 3, 1.0).unwrap();
        }
        let after = t.predict(7, 3).unwrap();
        assert!((after.score - 1.0).abs() < 0.05, "score {} should approach 1.0", after.score);
        assert!(!after.cold_start);
    }

    #[test]
    fn observe_acknowledges_with_monotone_ts() {
        let t = transport(3, 2);
        let a = t.observe(1, 0, 1.0).unwrap();
        let b = t.observe(1, 1, 0.0).unwrap();
        assert!(b.ts > a.ts);
        assert_eq!(a.shipped_to, 1);
    }

    #[test]
    fn predict_survives_home_node_kill_with_replication() {
        let t = transport(3, 2);
        t.observe(42, 1, 1.0).unwrap();
        let home = t.cluster().home_of_user(42);
        t.cluster().kill_node(home);
        let read = t.predict(42, 1).unwrap();
        assert!(read.routed, "request should fail over off the dead home");
        assert_eq!(t.node_health(home), NodeHealth::Down);
    }

    #[test]
    fn unreplicated_user_is_unavailable_after_kill() {
        let t = transport(3, 1);
        t.observe(42, 1, 1.0).unwrap();
        let home = t.cluster().home_of_user(42);
        t.cluster().kill_node(home);
        assert_eq!(t.predict(42, 1).unwrap_err(), TransportError::Unavailable);
    }

    #[test]
    fn stale_client_refreshes_map_and_serves_through_rebalance() {
        let cluster = Arc::new(Cluster::new(ClusterConfig {
            n_nodes: 3,
            user_replication: 2,
            item_replication: 3,
            max_nodes: 4,
            ..Default::default()
        }));
        for item in 0..16u64 {
            cluster.put_item_features(item, vec![1.0, (item % 4) as f64, 0.5]);
        }
        let t = SimTransport::new(Arc::clone(&cluster), 0.0);
        for uid in 0..64u64 {
            t.observe(uid, uid % 16, 1.0).unwrap();
        }
        // Membership changes behind the client's back: join + rebalance.
        let new = cluster.join_node().unwrap();
        cluster.rebalance_join(new).unwrap();
        assert_eq!(t.map_refresh_count(), 0, "client still holds the stale map");
        // The next request is rejected as WrongEpoch, refreshes, retries,
        // and serves — no user-visible error.
        for uid in 0..64u64 {
            let read = t.predict(uid, uid % 16).unwrap();
            assert!(!read.cold_start, "weights must survive the rebalance (uid {uid})");
        }
        assert_eq!(t.map_refresh_count(), 1, "one refresh catches the client up");
        assert!(cluster.wrong_epoch_count() >= 1);
        let view = t.membership().expect("sim backend reports membership");
        assert_eq!(view.epoch, cluster.map_epoch());
        assert!(view.members.contains(&new));
        assert!(!view.migrations.is_empty());
        assert!(view.migrations.iter().all(|m| m.phase == "done"));
    }
}
