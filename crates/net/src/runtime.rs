//! The multi-node loopback runtime: N node servers behind one front.
//!
//! [`NetCluster`] is the TCP twin of the simulator in `velox-cluster`: it
//! starts one [`NodeServer`](crate::node::NodeServer) per partition on an
//! ephemeral loopback port, keeps the shared [`PeerTable`] pointing at
//! each node's current incarnation, and implements the
//! [`Transport`] trait so every driver written against the simulator —
//! the chaos ladder, the REST layer, the benches — runs unchanged over
//! real sockets.
//!
//! Fault plans work over TCP too, but here a *kill is a kill*: the node's
//! server is shut down and its in-memory state dropped; only its WAL
//! directory survives (unless [`NetCluster::kill_node_lose_disk`] wipes
//! that as well). Recovery starts a fresh incarnation on a new port,
//! replays the local WAL, re-seeds the item table from the management
//! plane, pulls shipped records from live peers (`PullLog`), and rebuilds
//! the weight table by replaying the merged log in timestamp order.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use velox_cluster::netfault::{ChaosControl, LinkChaos, LinkFaultPlan, FRONT_PEER};
use velox_cluster::retry::obs_id_nonce;
use velox_cluster::transport::{Transport, TransportError, TransportObserve, TransportPredict};
use velox_cluster::{
    ChunkStep, ControlPlane, FailureDetector, FaultAction, FaultClock, FaultPlan, MembershipError,
    MembershipView, MigrationIo, Migrator, NodeHealth, NodeId, PartitionError, PartitionMap,
    PeerLiveness, PeerState, USER_SALT,
};
use velox_obs::{
    Counter, Gauge, Histogram, Registry, RootSpan, SpanKind, SpanStatus, TraceConfig, TraceContext,
    Tracer, FRONT_NODE,
};
use velox_storage::Observation;

use crate::client::{NetClient, NetClientConfig};
use crate::frame::{read_frame, write_frame};
use crate::node::{NodeConfig, NodeMetrics, NodeServer, NodeState, PeerTable};
use crate::rpc::{ErrorCode, Request, Response};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct NetClusterConfig {
    /// Number of nodes at bootstrap.
    pub n_nodes: usize,
    /// Capacity ceiling for elastic growth (`0` means `n_nodes`): slots
    /// `n_nodes..max_nodes` start empty and come alive through
    /// [`NetCluster::join_node`].
    pub max_nodes: usize,
    /// Copies of each user's weights (primary + ring successors).
    pub user_replication: usize,
    /// Unused: the nodes' ridge learner has no learning rate. The field
    /// stays for callers that set it.
    pub lr: f64,
    /// Root directory for per-node WALs (`<root>/node-<i>`); `None`
    /// disables local durability everywhere.
    pub wal_root: Option<PathBuf>,
    /// Worker threads per node server.
    pub workers: usize,
    /// Template for every RPC client the cluster builds: the front → node
    /// deadline, retry budget, backoff and per-try cap.
    pub client: NetClientConfig,
    /// Request-tracing policy. Off by default: untraced requests send
    /// byte-identical legacy frames and skip every span branch.
    pub trace: TraceConfig,
    /// Heartbeat probe period for the failure detector.
    pub heartbeat_interval: Duration,
    /// Hedge slow predict reads: when the home replica has not answered
    /// within a p99-derived delay, race a second replica and take the
    /// first reply. Off by default (costs one helper thread per predict).
    pub hedge_predicts: bool,
    /// Fail dead members out of the partition map automatically: when the
    /// failure detector declares a member `Dead` *and* its process is
    /// down, the next request triggers [`ControlPlane::fail_over_dead`].
    /// Off by default — a detector verdict alone can be wrong (a cut
    /// probe path, not a dead node), so suites that partition and heal
    /// links keep ownership stable unless they opt in.
    pub auto_rebalance: bool,
    /// In-flight budget for one checkpoint chunk (encoded entry bytes per
    /// `PullPartitionChunk`). Bounds every checkpoint transfer frame —
    /// the gauge `velox_net_checkpoint_frame_max` proves it.
    pub checkpoint_chunk_bytes: u32,
}

impl Default for NetClusterConfig {
    fn default() -> Self {
        NetClusterConfig {
            n_nodes: 3,
            max_nodes: 0,
            user_replication: 2,
            lr: 0.1,
            wal_root: None,
            workers: 8,
            client: NetClientConfig::default(),
            trace: TraceConfig::off(),
            heartbeat_interval: Duration::from_millis(50),
            hedge_predicts: false,
            auto_rebalance: false,
            checkpoint_chunk_bytes: 64 * 1024,
        }
    }
}

/// Per-probe deadline (connect + Health round trip).
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(100);
/// Wall-clock budget for one [`ControlPlane::migrate_partition`]: a
/// migration that has not committed by then aborts and rolls back (source
/// stays authoritative, no epoch bump). Tests and benches tighten it at
/// run time with [`ControlPlane::set_migration_deadline`].
const MIGRATION_DEADLINE: Duration = Duration::from_secs(30);
/// Consecutive Dead-and-Down evaluations of a member before auto-rebalance
/// acts on the verdict (hysteresis against detector flaps).
const REBALANCE_HYSTERESIS: u64 = 3;
/// Failed or aborted auto fail-overs tolerated before auto-rebalance gives
/// up until an operator re-enables it (each failure also backs off
/// exponentially).
const REBALANCE_RETRY_CAP: u32 = 5;

/// Exponential-backoff ledger for the automatic fail-over path.
struct AutoRebalanceBackoff {
    /// Consecutive failed/aborted automatic fail-overs.
    failures: u32,
    /// No automatic action before this instant.
    hold_until: Option<Instant>,
}

/// A scored predict reply, plus the clock reading that closed its RPC
/// span (shared with the entry span; `0` when untraced).
#[derive(Clone, Copy)]
struct ServedPredict {
    score: f64,
    at: u32,
    cold_start: bool,
    done_ns: u64,
}

/// What one predict RPC's reply means for the request.
enum PredictReply {
    /// Scored.
    Served(ServedPredict),
    /// `WrongEpoch`: refresh the front map and retry under the new epoch.
    RefreshAndRetry(String),
    /// The node refused, or answered with the wrong frame: fail the call.
    Fatal(TransportError),
    /// The link failed: a different replica may still answer.
    NextCandidate(TransportError),
}

/// Per-node runtime counters that survive node restarts.
struct NodeSlot {
    server: Option<NodeServer>,
    metrics: NodeMetrics,
    requests_routed: Arc<Counter>,
    failover_requests: Arc<Counter>,
    recoveries: Arc<Counter>,
    catch_up_records: Arc<Counter>,
}

/// A running loopback TCP cluster; dropping it stops every node.
pub struct NetCluster {
    config: NetClusterConfig,
    /// Epoch-stamped ownership map: the front's working copy. The control
    /// plane installs new epochs on the nodes first and here last, so a
    /// racing request can be rejected with `WrongEpoch` and refresh like
    /// any other stale client.
    map: RwLock<Arc<PartitionMap>>,
    /// Total node slots (`max_nodes` resolved against `n_nodes`).
    capacity: usize,
    peers: Arc<PeerTable>,
    slots: Vec<Mutex<NodeSlot>>,
    health: Vec<AtomicU8>,
    /// Management-plane master copy of the item table (for re-seeding
    /// recovered nodes).
    items: Mutex<HashMap<u64, Vec<f64>>>,
    request_clock: AtomicU64,
    faults: FaultClock,
    /// Predict round-trip latency (µs) as seen by the front.
    predict_us: Arc<Histogram>,
    /// Observe (ack) round-trip latency (µs) as seen by the front.
    observe_us: Arc<Histogram>,
    /// Requests that found no live replica at all.
    unavailable: Arc<Counter>,
    /// Cluster-wide tracer: per-node span rings plus the front's.
    tracer: Arc<Tracer>,
    /// The CHAOS-NET link-fault engine every client routes through.
    chaos: Arc<LinkChaos>,
    /// Heartbeat-driven per-peer liveness.
    detector: Arc<FailureDetector>,
    hb_stop: Arc<AtomicBool>,
    hb_thread: Mutex<Option<JoinHandle<()>>>,
    /// Predicts that fired a hedge because the primary ran long.
    hedged: Arc<Counter>,
    /// Hedged predicts where the hedge reply was used.
    hedge_wins: Arc<Counter>,
    /// The membership/migration state machine; this runtime is its
    /// socket [`MigrationIo`].
    migrator: Migrator,
    /// Front map refreshes forced by `WrongEpoch` rejections.
    map_refreshes: Arc<Counter>,
    /// Current front map epoch, scrapeable.
    map_epoch_gauge: Arc<Gauge>,
    /// Reentrancy guard for detector-triggered auto fail-over.
    auto_failover_gate: Mutex<()>,
    /// Operator kill switch for detector-triggered rebalancing (REST
    /// togglable; starts at `config.auto_rebalance`).
    auto_rebalance_enabled: AtomicBool,
    /// Per-node consecutive Dead-and-Down evaluations (hysteresis).
    dead_streak: Vec<AtomicU64>,
    /// Backoff + retry-cap state for automatic fail-over.
    auto_backoff: Mutex<AutoRebalanceBackoff>,
    /// Largest checkpoint-chunk response payload seen (bytes) — the
    /// CHAOS-REBALANCE gate asserts this stays within the chunk budget.
    checkpoint_frame_max: Arc<Gauge>,
    /// Observation-id generator: process-random nonce + sequence, so ids
    /// never collide across cluster restarts sharing a node's window.
    obs_nonce: u64,
    obs_seq: AtomicU64,
}

impl NetCluster {
    /// Starts `config.n_nodes` node servers on loopback and wires the
    /// peer table. Blocks until every node is listening.
    pub fn start(config: NetClusterConfig) -> std::io::Result<NetCluster> {
        assert!(config.n_nodes > 0, "cluster needs at least one node");
        let capacity = config.max_nodes.max(config.n_nodes);
        let map = Arc::new(
            PartitionMap::bootstrap(config.n_nodes, config.user_replication, USER_SALT)
                .map_err(|e| std::io::Error::other(e.to_string()))?,
        );
        let tracer = Tracer::new(capacity, config.trace);
        let chaos = Arc::new(LinkChaos::new(LinkFaultPlan::default()));
        let peers = Arc::new(PeerTable::with_chaos(capacity, Arc::clone(&chaos)));
        let detector = Arc::new(FailureDetector::new(capacity));
        // Every slot starts empty and `Down`; founding members are brought
        // up below exactly like later joins and recoveries.
        let slots = (0..capacity)
            .map(|_| {
                Mutex::new(NodeSlot {
                    server: None,
                    metrics: NodeMetrics::new(),
                    requests_routed: Arc::new(Counter::new()),
                    failover_requests: Arc::new(Counter::new()),
                    recoveries: Arc::new(Counter::new()),
                    catch_up_records: Arc::new(Counter::new()),
                })
            })
            .collect();
        let health = (0..capacity).map(|_| AtomicU8::new(NodeHealth::Down.encode())).collect();
        let map_epoch_gauge = Arc::new(Gauge::new());
        map_epoch_gauge.set(map.epoch() as i64);
        let auto_rebalance = config.auto_rebalance;
        let migrator = Migrator::new(Some(MIGRATION_DEADLINE), Arc::clone(&tracer));
        let cluster = NetCluster {
            map: RwLock::new(map),
            capacity,
            config,
            peers,
            slots,
            health,
            items: Mutex::new(HashMap::new()),
            request_clock: AtomicU64::new(0),
            faults: FaultClock::default(),
            predict_us: Arc::new(Histogram::new()),
            observe_us: Arc::new(Histogram::new()),
            unavailable: Arc::new(Counter::new()),
            tracer,
            chaos,
            detector,
            hb_stop: Arc::new(AtomicBool::new(false)),
            hb_thread: Mutex::new(None),
            hedged: Arc::new(Counter::new()),
            hedge_wins: Arc::new(Counter::new()),
            migrator,
            map_refreshes: Arc::new(Counter::new()),
            map_epoch_gauge,
            auto_failover_gate: Mutex::new(()),
            auto_rebalance_enabled: AtomicBool::new(auto_rebalance),
            dead_streak: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            auto_backoff: Mutex::new(AutoRebalanceBackoff { failures: 0, hold_until: None }),
            checkpoint_frame_max: Arc::new(Gauge::new()),
            obs_nonce: obs_id_nonce(),
            obs_seq: AtomicU64::new(0),
        };
        for node in 0..cluster.config.n_nodes {
            let mut slot = cluster.slots[node].lock().unwrap();
            let server = cluster.start_node(node, cluster.map(), slot.metrics.clone())?;
            cluster.publish_node(&mut slot, node, server);
        }
        // The prober starts once there is something to probe.
        *cluster.hb_thread.lock().unwrap() = Some(spawn_heartbeat(
            Arc::clone(&cluster.peers),
            Arc::clone(&cluster.detector),
            Arc::clone(&cluster.chaos),
            Arc::clone(&cluster.hb_stop),
            cluster.config.heartbeat_interval,
            capacity,
        ));
        Ok(cluster)
    }

    /// A fresh observation id: never 0 (0 opts out of dedupe).
    fn next_obs_id(&self) -> u64 {
        let id = self.obs_nonce.wrapping_add(self.obs_seq.fetch_add(1, Ordering::Relaxed) + 1);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &NetClusterConfig {
        &self.config
    }

    /// The front's current partition map.
    pub fn map(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.map.read().unwrap())
    }

    /// Current front map epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map.read().unwrap().epoch()
    }

    /// Front map refreshes forced by `WrongEpoch` rejections.
    pub fn map_refresh_count(&self) -> u64 {
        self.map_refreshes.get()
    }

    /// Adopts `map` on the front if strictly newer; returns whether it
    /// took.
    fn install_front_map(&self, map: Arc<PartitionMap>) -> bool {
        let mut cur = self.map.write().unwrap();
        if map.epoch() <= cur.epoch() {
            return false;
        }
        self.map_epoch_gauge.set(map.epoch() as i64);
        *cur = map;
        true
    }

    /// `WrongEpoch` recovery: pulls the rejecting node's map and adopts
    /// it if newer. Returns whether the front map advanced.
    fn refresh_map_from(&self, client: &NetClient) -> bool {
        if let Ok(Response::Map { map }) = client.call(&Request::GetMap) {
            if self.install_front_map(Arc::new(map)) {
                self.map_refreshes.inc();
                return true;
            }
        }
        false
    }

    /// Home (primary) node of a user.
    pub fn home_of_user(&self, uid: u64) -> NodeId {
        self.map.read().unwrap().owner_of(uid)
    }

    /// Replica set of a user: owner first, then the partition's replicas.
    pub fn replica_nodes_of_user(&self, uid: u64) -> Vec<NodeId> {
        self.map.read().unwrap().replicas_of(uid).to_vec()
    }

    /// The client for `node`'s current incarnation (`None` while down).
    pub fn client(&self, node: NodeId) -> Option<Arc<NetClient>> {
        self.peers.get(node)
    }

    /// Installs item features everywhere (management plane): the master
    /// copy is kept for re-seeding recovered nodes.
    pub fn publish_item_features(&self, entries: Vec<(u64, Vec<f64>)>) {
        self.items.lock().unwrap().extend(entries.iter().cloned());
        let req = Request::SeedItems { entries };
        for node in 0..self.capacity {
            if let Some(client) = self.peers.get(node) {
                let _ = client.call(&req);
            }
        }
    }

    /// Crashes `node`: the server stops, its in-memory state is gone, the
    /// peer table entry clears. The WAL directory survives.
    pub fn kill_node(&self, node: NodeId) {
        let mut slot = self.slots[node].lock().unwrap();
        if let Some(mut server) = slot.server.take() {
            server.shutdown();
        }
        self.peers.set(node, None);
        self.health[node].store(NodeHealth::Down.encode(), Ordering::Release);
        // A deliberate kill needs no probe evidence.
        self.detector.force(node as u32, PeerState::Dead);
    }

    /// [`NetCluster::kill_node`] plus losing the disk: the WAL directory
    /// is deleted, so recovery can only replay from replicas' shipped
    /// logs.
    pub fn kill_node_lose_disk(&self, node: NodeId) {
        self.kill_node(node);
        if let Some(root) = &self.config.wal_root {
            let _ = std::fs::remove_dir_all(root.join(format!("node-{node}")));
        }
    }

    /// Starts a server for slot `node` under `map` (replaying whatever its
    /// WAL directory holds into the log) and seeds its item table from the
    /// management-plane master copy. The caller publishes the endpoint.
    fn start_node(
        &self,
        node: NodeId,
        map: Arc<PartitionMap>,
        metrics: NodeMetrics,
    ) -> std::io::Result<NodeServer> {
        let (server, _) = NodeServer::start(
            NodeConfig {
                node_id: node,
                n_nodes: self.capacity,
                map,
                wal_dir: self.config.wal_root.as_ref().map(|r| r.join(format!("node-{node}"))),
                workers: self.config.workers,
                metrics,
                tracer: Arc::clone(&self.tracer),
            },
            Arc::clone(&self.peers),
        )?;
        let items = self.items.lock().unwrap();
        let entries: Vec<(u64, Vec<f64>)> = items.iter().map(|(k, v)| (*k, v.clone())).collect();
        server.state().seed_items(&entries);
        drop(items);
        Ok(server)
    }

    /// Makes a started `server` the live incarnation of `node`: endpoint
    /// published, health `Up`, detector told.
    fn publish_node(&self, slot: &mut NodeSlot, node: NodeId, server: NodeServer) {
        self.peers.set(node, Some((server.local_addr(), self.config.client.clone())));
        slot.server = Some(server);
        self.health[node].store(NodeHealth::Up.encode(), Ordering::Release);
        self.detector.force(node as u32, PeerState::Alive);
    }

    /// Restarts `node` on a fresh port and runs full recovery: local WAL
    /// replay, item re-seed, `PullLog` from every live peer (keeping only
    /// records in this node's replica sets), weight rebuild in timestamp
    /// order. Returns how many records came back from peers.
    pub fn recover_node(&self, node: NodeId) -> std::io::Result<u64> {
        let mut slot = self.slots[node].lock().unwrap();
        self.health[node].store(NodeHealth::Recovering.encode(), Ordering::Release);

        let server = self.start_node(node, self.map(), slot.metrics.clone())?;
        let state = Arc::clone(server.state());

        // Pull shipped records from live peers; keep only the shards this
        // node participates in.
        let mut pulled = 0u64;
        for peer in 0..self.capacity {
            if peer == node {
                continue;
            }
            let Some(client) = self.peers.get(peer) else { continue };
            if let Ok(Response::Log { records }) = client.call(&Request::PullLog { from_ts: 0 }) {
                let mine: Vec<Observation> =
                    records.into_iter().filter(|r| state.holds_user(r.uid)).collect();
                pulled += state.merge_records(&mine)?;
            }
        }
        state.rebuild(None);
        slot.catch_up_records.add(pulled);
        slot.recoveries.inc();

        self.publish_node(&mut slot, node, server);
        Ok(pulled)
    }

    /// Installs `map` on every live node first and on the front last, so
    /// a request racing the rollout is rejected with `WrongEpoch` and
    /// refreshes — it is never served under a retired epoch.
    fn install_map_cluster(&self, map: &Arc<PartitionMap>) {
        let req = Request::InstallMap { map: (**map).clone() };
        for node in 0..self.capacity {
            if let Some(client) = self.peers.get(node) {
                let _ = client.call(&req);
            }
        }
        self.install_front_map(Arc::clone(map));
    }

    /// Starts a node in the first free slot, seeds its item table from
    /// the management plane, and announces it cluster-wide as a member
    /// owning nothing — ownership then moves partition by partition via
    /// [`ControlPlane::rebalance_join`] / [`ControlPlane::migrate_partition`].
    /// Returns the new node's id.
    pub fn join_node(&self) -> Result<NodeId, MembershipError> {
        let map0 = self.map();
        let node = (0..self.capacity)
            .find(|&n| !map0.is_member(n) && self.slots[n].lock().unwrap().server.is_none())
            .ok_or_else(|| {
                MembershipError::Map(PartitionError::InvalidMap(
                    "no free slot for a joining node (raise max_nodes)".into(),
                ))
            })?;
        let map1 = Arc::new(map0.with_member(node)?);
        let mut slot = self.slots[node].lock().unwrap();
        let server = self
            .start_node(node, Arc::clone(&map1), slot.metrics.clone())
            .map_err(|e| MembershipError::Failed(format!("starting node {node} failed: {e}")))?;
        self.publish_node(&mut slot, node, server);
        drop(slot);
        self.install_map_cluster(&map1);
        Ok(node)
    }

    /// Flips the auto-rebalance kill switch (also resets the retry-cap
    /// ledger, so re-enabling gives the automatic path a fresh budget).
    pub fn set_auto_rebalance_enabled(&self, on: bool) {
        self.auto_rebalance_enabled.store(on, Ordering::Release);
        if on {
            let mut bo = self.auto_backoff.lock().unwrap();
            bo.failures = 0;
            bo.hold_until = None;
        }
    }

    /// Current state of the auto-rebalance kill switch.
    pub fn auto_rebalance_on(&self) -> bool {
        self.auto_rebalance_enabled.load(Ordering::Acquire)
    }

    /// Largest checkpoint-chunk response payload (bytes) pulled so far.
    pub fn checkpoint_frame_max_bytes(&self) -> i64 {
        self.checkpoint_frame_max.get()
    }

    /// Detector-triggered fail-over (the `auto_rebalance` knob), hardened
    /// for deployment:
    ///
    /// - **kill switch** — a REST-togglable enable bit gates the whole
    ///   path;
    /// - **hysteresis** — a member must be `Dead` *and* process-down for
    ///   [`REBALANCE_HYSTERESIS`] consecutive evaluations before the map
    ///   is touched, so one detector flap cannot evict a live node;
    /// - **at-most-one** — fail-over is skipped while a migration is in
    ///   flight;
    /// - **backoff + retry cap** — each failed automatic fail-over backs
    ///   off exponentially, and after [`REBALANCE_RETRY_CAP`] consecutive
    ///   failures the automatic path disables itself until an operator
    ///   re-enables it.
    fn maybe_auto_fail_over(&self) {
        if !self.auto_rebalance_enabled.load(Ordering::Acquire) {
            return;
        }
        let Ok(_gate) = self.auto_failover_gate.try_lock() else { return };
        if self.migrator.in_flight() {
            return;
        }
        {
            let bo = self.auto_backoff.lock().unwrap();
            if bo.failures >= REBALANCE_RETRY_CAP {
                return;
            }
            if let Some(until) = bo.hold_until {
                if Instant::now() < until {
                    return;
                }
            }
        }
        let members = self.map().members().to_vec();
        if members.len() <= 1 {
            return;
        }
        for m in members {
            let verdict = self.detector.state(m as u32) == PeerState::Dead
                && self.node_health(m) == NodeHealth::Down;
            if !verdict {
                self.dead_streak[m].store(0, Ordering::Release);
                continue;
            }
            let streak = self.dead_streak[m].fetch_add(1, Ordering::AcqRel) + 1;
            if streak < REBALANCE_HYSTERESIS {
                continue;
            }
            self.dead_streak[m].store(0, Ordering::Release);
            match self.fail_over_dead(m) {
                Ok(_) => {
                    let mut bo = self.auto_backoff.lock().unwrap();
                    bo.failures = 0;
                    bo.hold_until = None;
                }
                Err(_) => {
                    let mut bo = self.auto_backoff.lock().unwrap();
                    bo.failures += 1;
                    let pause = Duration::from_millis(
                        100u64.saturating_mul(1 << bo.failures.min(6)).min(5_000),
                    );
                    bo.hold_until = Some(Instant::now() + pause);
                }
            }
        }
    }

    /// Installs a deterministic fault plan driven by the request clock.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.faults.install(plan);
    }

    /// Removes the fault plan (scheduled events stop firing).
    pub fn clear_fault_plan(&self) {
        self.faults.clear();
    }

    /// Advances the request clock by one and fires any due fault events.
    /// Returns the latency-spike sleep (µs) this request incurs, plus
    /// whether a transient read failure hits it.
    fn tick_faults(&self) -> (u64, bool) {
        let tick = self.request_clock.fetch_add(1, Ordering::Relaxed) + 1;
        // The kill switch (seeded from `config.auto_rebalance`, REST
        // togglable) gates the whole automatic path inside.
        self.maybe_auto_fail_over();
        if !self.faults.is_active() {
            return (0, false);
        }
        let due = self.faults.due_events(tick);
        let dice = self.faults.roll(|plan, rng| {
            let fail = plan.read_failure_prob > 0.0 && rng.uniform() < plan.read_failure_prob;
            let spike = plan.latency_spike_prob > 0.0 && rng.uniform() < plan.latency_spike_prob;
            (if spike { plan.latency_spike_us as u64 } else { 0 }, fail)
        });
        for (node, action) in due {
            match action {
                FaultAction::Kill => self.kill_node(node),
                FaultAction::Recover => {
                    let _ = self.recover_node(node);
                }
            }
        }
        dice.unwrap_or((0, false))
    }

    /// Live replicas of a user in failover order. Within the health-Up
    /// set, the failure detector decides precedence: peers it believes
    /// alive come first (home leading), suspected peers next, and peers
    /// it has declared dead last — still present because the detector can
    /// be wrong (a cut probe path, not a dead node), but no longer the
    /// first hop, so failover happens on suspicion instead of burning a
    /// request deadline per call. When `skip_primary` (injected transient
    /// failure), the home is dropped.
    fn serving_candidates(&self, map: &PartitionMap, uid: u64, skip_primary: bool) -> Vec<NodeId> {
        let up: Vec<NodeId> = map
            .replicas_of(uid)
            .iter()
            .copied()
            .skip(skip_primary as usize)
            .filter(|&n| self.node_health(n) == NodeHealth::Up)
            .collect();
        let mut ordered = Vec::with_capacity(up.len());
        for want in [PeerState::Alive, PeerState::Suspect, PeerState::Dead] {
            ordered.extend(up.iter().copied().filter(|&n| self.detector.state(n as u32) == want));
        }
        ordered
    }

    /// The failure detector driving routing (snapshot it for tests).
    pub fn detector(&self) -> &Arc<FailureDetector> {
        &self.detector
    }

    /// `node`'s runtime counters (these survive the node's restarts).
    pub fn node_metrics(&self, node: NodeId) -> NodeMetrics {
        self.slots[node].lock().unwrap().metrics.clone()
    }

    /// `node`'s live state, if it is currently running (chaos suites
    /// inspect the ship backlog and WAL length through this).
    pub fn node_state(&self, node: NodeId) -> Option<Arc<NodeState>> {
        self.slots[node].lock().unwrap().server.as_ref().map(|s| Arc::clone(s.state()))
    }

    /// How long a predict's primary may run before a hedge fires: derived
    /// from the live p99, floored so hedges never trigger on healthy
    /// sub-millisecond traffic and capped well under the request deadline.
    fn hedge_delay(&self) -> Duration {
        let p99 = self.predict_us.snapshot().p99();
        Duration::from_micros(p99.clamp(1_000, 100_000))
    }

    /// Predicts that raced a replica / hedges whose reply won.
    pub fn hedge_counts(&self) -> (u64, u64) {
        (self.hedged.get(), self.hedge_wins.get())
    }

    /// Settles one predict RPC: closes its span (sharing the clock read
    /// with the entry span on success) and says what the request does
    /// next.
    fn settle_predict(
        &self,
        reply: Result<Response, crate::client::NetError>,
        rpc_span: Option<velox_obs::ActiveSpan>,
    ) -> PredictReply {
        if let Ok(Response::Predicted { score, node: at, cold_start, .. }) = reply {
            let done_ns = if rpc_span.is_some() { velox_obs::trace::now_ns() } else { 0 };
            self.tracer.finish_status_at(rpc_span, SpanStatus::Ok, done_ns);
            return PredictReply::Served(ServedPredict { score, at, cold_start, done_ns });
        }
        self.tracer.finish_status(rpc_span, SpanStatus::Error);
        match reply {
            Ok(Response::Error { code: ErrorCode::WrongEpoch, message }) => {
                PredictReply::RefreshAndRetry(message)
            }
            Ok(Response::Error { code, message }) => PredictReply::Fatal(map_error(code, message)),
            Ok(other) => {
                PredictReply::Fatal(TransportError::Failed(format!("unexpected reply {other:?}")))
            }
            Err(e) => PredictReply::NextCandidate(TransportError::Failed(e.to_string())),
        }
    }

    /// Success-path bookkeeping for one answered predict: route counters,
    /// the latency histogram, and the result struct. Entry spans are the
    /// caller's to close.
    fn finish_predict(
        &self,
        node: NodeId,
        home: NodeId,
        served: ServedPredict,
        timer: Instant,
        trace_id: Option<u64>,
    ) -> TransportPredict {
        let slot = self.slots[node].lock().unwrap();
        slot.requests_routed.inc();
        if node != home {
            slot.failover_requests.inc();
        }
        drop(slot);
        let us = timer.elapsed().as_micros() as u64;
        match trace_id {
            Some(t) => self.predict_us.record_exemplar(us, t),
            None => self.predict_us.record(us),
        }
        TransportPredict {
            score: served.score,
            node: served.at as NodeId,
            routed: node != home,
            cold_start: served.cold_start,
            trace_id,
        }
    }

    /// Registers runtime and per-node metrics (node-labelled series).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_histogram("velox_net_predict_us", &[], Arc::clone(&self.predict_us));
        registry.register_histogram("velox_net_observe_us", &[], Arc::clone(&self.observe_us));
        registry.register_counter(
            "velox_net_unavailable_total",
            &[],
            Arc::clone(&self.unavailable),
        );
        registry.register_counter("velox_net_hedged_total", &[], Arc::clone(&self.hedged));
        registry.register_counter("velox_net_hedge_wins_total", &[], Arc::clone(&self.hedge_wins));
        registry.register_counter(
            "velox_net_map_refreshes_total",
            &[],
            Arc::clone(&self.map_refreshes),
        );
        registry.register_gauge("velox_net_map_epoch", &[], Arc::clone(&self.map_epoch_gauge));
        let names = [
            "velox_net_migration_chunks_total",
            "velox_net_migration_aborts_total",
            "velox_net_migration_resumes_total",
        ];
        for (name, counter) in names.into_iter().zip(self.migrator.counters()) {
            registry.register_counter(name, &[], Arc::clone(counter));
        }
        registry.register_gauge(
            "velox_net_checkpoint_frame_max",
            &[],
            Arc::clone(&self.checkpoint_frame_max),
        );
        self.detector.register_metrics(registry);
        self.chaos.register_metrics(registry);
        for (id, slot) in self.slots.iter().enumerate() {
            let slot = slot.lock().unwrap();
            let label = id.to_string();
            let labels = [("node", label.as_str())];
            slot.metrics.register(registry, id);
            registry.register_counter(
                "velox_net_requests_routed_total",
                &labels,
                Arc::clone(&slot.requests_routed),
            );
            registry.register_counter(
                "velox_net_failover_requests_total",
                &labels,
                Arc::clone(&slot.failover_requests),
            );
            registry.register_counter(
                "velox_net_recoveries_total",
                &labels,
                Arc::clone(&slot.recoveries),
            );
            registry.register_counter(
                "velox_net_catch_up_records_total",
                &labels,
                Arc::clone(&slot.catch_up_records),
            );
            self.peers.client_metrics(id).register(registry, &labels);
        }
    }

    /// Entry span for one request: a child when the caller propagated a
    /// context (REST ingress), a fresh root otherwise.
    fn trace_entry(
        &self,
        kind: SpanKind,
        ctx: Option<&TraceContext>,
    ) -> (Option<RootSpan>, Option<velox_obs::ActiveSpan>) {
        if ctx.is_some() {
            (None, self.tracer.child(ctx, kind, FRONT_NODE))
        } else {
            (self.tracer.ingress(kind, FRONT_NODE), None)
        }
    }

    /// Closes the entry span (applying the keep policy for roots) at a
    /// shared clock reading; `end_ns == 0` reads the clock.
    fn close_trace_entry(
        &self,
        root: Option<RootSpan>,
        child: Option<velox_obs::ActiveSpan>,
        status: SpanStatus,
        end_ns: u64,
    ) {
        self.tracer.finish_status_at(child, status, end_ns);
        if let Some(r) = root {
            self.tracer.end_root_at(r, end_ns);
        }
    }

    /// Stops every node and the heartbeat prober (also happens on drop).
    pub fn shutdown(&self) {
        self.hb_stop.store(true, Ordering::Release);
        if let Some(handle) = self.hb_thread.lock().unwrap().take() {
            let _ = handle.join();
        }
        for node in 0..self.capacity {
            let mut slot = self.slots[node].lock().unwrap();
            if let Some(mut server) = slot.server.take() {
                server.shutdown();
            }
            self.peers.set(node, None);
        }
    }
}

impl ChaosControl for NetCluster {
    fn link_chaos(&self) -> &Arc<LinkChaos> {
        &self.chaos
    }
}

/// How long the chunk stream idles before re-pulling a cursor a link
/// fault interrupted.
const RESUME_PAUSE: Duration = Duration::from_millis(5);

/// The socket runtime's side of the migration seam: bounded, CRC-checked
/// `PullPartitionChunk` → `PushPartition` steps, `PullLog` → `ShipLog`
/// reconciliation, and a timestamp-ordered rebuild at the destination.
impl MigrationIo for NetCluster {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn node_up(&self, node: NodeId) -> bool {
        node < self.capacity && self.node_health(node) == NodeHealth::Up
    }

    fn map(&self) -> Arc<PartitionMap> {
        NetCluster::map(self)
    }

    fn install_map(&self, map: &Arc<PartitionMap>) {
        self.install_map_cluster(map);
    }

    /// A dropped, reset or partitioned link is a [`ChunkStep::Resume`]:
    /// pulls are pure reads and pushes insert-never-overwrite, so the same
    /// cursor replays safely once the link heals (or the deadline aborts).
    fn stream_chunk(&self, p: u32, src: NodeId, dst: NodeId, cursor: u64) -> ChunkStep {
        let resume_later = || {
            std::thread::sleep(RESUME_PAUSE);
            ChunkStep::Resume
        };
        // An endpoint can be gone before its health flips to Down.
        let (Some(from), Some(to)) = (self.peers.get(src), self.peers.get(dst)) else {
            return resume_later();
        };
        let max_bytes = self.config.checkpoint_chunk_bytes.max(64);
        let pull = Request::PullPartitionChunk { partition: p, cursor, max_bytes };
        let (entries, next, done, crc) = match from.call(&pull) {
            Ok(Response::PartitionChunk { entries, next_cursor, done, crc }) => {
                (entries, next_cursor, done, crc)
            }
            Ok(other) => return ChunkStep::Abort(format!("chunk pull failed: {other:?}")),
            Err(_) => return resume_later(),
        };
        // Reject-before-apply: nothing from a bad chunk lands at `dst`.
        if crate::rpc::verify_chunk(cursor, &entries, next, done, crc).is_some() {
            return ChunkStep::Resume;
        }
        let frame_bytes = crate::rpc::CHUNK_ENVELOPE_BYTES
            + entries.iter().map(|(_, w)| crate::rpc::chunk_entry_bytes(w.len())).sum::<usize>();
        self.checkpoint_frame_max.max(frame_bytes as i64);
        let users = entries.len() as u64;
        if users > 0 {
            match to.call(&Request::PushPartition { entries }) {
                Ok(Response::Ok) => {}
                Ok(other) => return ChunkStep::Abort(format!("chunk push failed: {other:?}")),
                Err(_) => return resume_later(),
            }
        }
        ChunkStep::Copied { next, users, done }
    }

    /// `dst`'s own map proves what it does not hold (no map was installed
    /// for the aborted transfer), so the node scrubs itself.
    fn scrub(&self, p: u32, dst: NodeId) {
        if let Some(state) = self.node_state(dst) {
            state.scrub_partition(p);
        }
    }

    /// Ships every record of `p` in `src`'s log to `dst`; the receiver's
    /// merge dedups by `(uid, ts)`, so re-shipping history is idempotent.
    fn replay_tail(&self, p: u32, src: NodeId, dst: NodeId) -> Result<u64, String> {
        let (Some(from), Some(to)) = (self.peers.get(src), self.peers.get(dst)) else {
            return Err(format!("log replay {src}->{dst}: an endpoint is down"));
        };
        let map = self.map();
        let records = match from.call(&Request::PullLog { from_ts: 0 }) {
            Ok(Response::Log { records }) => records,
            other => return Err(format!("log pull failed: {other:?}")),
        };
        let mine: Vec<Observation> =
            records.into_iter().filter(|r| map.partition_of(r.uid) == p).collect();
        if mine.is_empty() {
            return Ok(0);
        }
        let n = mine.len() as u64;
        // Log history carries no observation ids (only the live queue
        // does), so the dedupe window is not fed here.
        let obs_ids = vec![0u64; mine.len()];
        match to.call(&Request::ShipLog { records: mine, obs_ids }) {
            Ok(Response::Ok) => Ok(n),
            other => Err(format!("log ship failed: {other:?}")),
        }
    }

    /// Deterministic (timestamp-ordered) partition rebuild at `dst`, so
    /// twin clusters converge bit-identically.
    fn finish(&self, p: u32, dst: NodeId) {
        if let Some(state) = self.node_state(dst) {
            state.rebuild(Some(p));
        }
    }
}

impl ControlPlane for NetCluster {
    fn migrator(&self) -> &Migrator {
        &self.migrator
    }
}

/// Starts the failure-detector's prober: every `interval` it probes each
/// peer with a raw Health round trip on a throwaway connection — never
/// through the chaos-linked clients, so probes cost no fault-stream
/// ticks. A chaos partition of the front→peer link still counts as a
/// miss ([`LinkChaos::is_partitioned`] is side-effect free), which is
/// exactly how a real prober would experience it.
fn spawn_heartbeat(
    peers: Arc<PeerTable>,
    detector: Arc<FailureDetector>,
    chaos: Arc<LinkChaos>,
    stop: Arc<AtomicBool>,
    interval: Duration,
    n_nodes: usize,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Acquire) {
            for node in 0..n_nodes {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let Some(addr) = peers.addr(node) else {
                    detector.record_failure(node as u32);
                    continue;
                };
                if chaos.is_partitioned(FRONT_PEER, node as u32) {
                    detector.record_failure(node as u32);
                    continue;
                }
                let started = Instant::now();
                if probe_health(addr) {
                    detector.record_success(node as u32, started.elapsed().as_micros() as u64);
                } else {
                    detector.record_failure(node as u32);
                }
            }
            detector.export();
            // Sleep in short slices so shutdown never waits a full period.
            let wake = Instant::now() + interval;
            while Instant::now() < wake {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5).min(interval));
            }
        }
    })
}

/// One probe: dial, Health, read the ack — each step within
/// [`HEARTBEAT_TIMEOUT`].
fn probe_health(addr: SocketAddr) -> bool {
    let Ok(mut conn) = std::net::TcpStream::connect_timeout(&addr, HEARTBEAT_TIMEOUT) else {
        return false;
    };
    let _ = conn.set_nodelay(true);
    if conn.set_read_timeout(Some(HEARTBEAT_TIMEOUT)).is_err()
        || conn.set_write_timeout(Some(HEARTBEAT_TIMEOUT)).is_err()
    {
        return false;
    }
    if write_frame(&mut conn, &Request::Health.encode()).is_err() {
        return false;
    }
    matches!(read_frame(&mut conn).map(|b| Response::decode(&b)), Ok(Ok(Response::Ok)))
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maps a node-level error response onto the transport error space.
fn map_error(code: ErrorCode, message: String) -> TransportError {
    match code {
        ErrorCode::Unavailable => TransportError::Unavailable,
        ErrorCode::BadRequest => TransportError::Rejected(message),
        _ => TransportError::Failed(message),
    }
}

impl Transport for NetCluster {
    fn n_nodes(&self) -> usize {
        self.capacity
    }

    fn node_health(&self, node: NodeId) -> NodeHealth {
        NodeHealth::decode(self.health[node].load(Ordering::Acquire))
    }

    fn predict(&self, uid: u64, item_id: u64) -> Result<TransportPredict, TransportError> {
        self.predict_traced(uid, item_id, None)
    }

    /// One `PredictBatch` RPC per owning node instead of one round trip
    /// per pair. Pairs are grouped under a single map snapshot; a group
    /// whose frame fails (node down, stale epoch, unseeded item) falls
    /// back pair-by-pair to [`Transport::predict`], which carries the
    /// full retry/hedge/failover machinery — so the batch path can only
    /// ever be a fast path, never a new failure mode.
    fn predict_many(&self, pairs: &[(u64, u64)]) -> Vec<Result<TransportPredict, TransportError>> {
        let mut out: Vec<Option<Result<TransportPredict, TransportError>>> =
            (0..pairs.len()).map(|_| None).collect();
        let map = self.map();
        let epoch = map.epoch();
        let mut groups: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, &(uid, _)) in pairs.iter().enumerate() {
            groups.entry(map.owner_of(uid)).or_default().push(i);
        }
        for (node, idxs) in groups {
            let Some(client) = self.peers.get(node) else { continue };
            let group: Vec<(u64, u64)> = idxs.iter().map(|&i| pairs[i]).collect();
            let timer = Instant::now();
            match client.call(&Request::PredictBatch { pairs: group, epoch }) {
                Ok(Response::PredictedBatch { node: at, scores }) if scores.len() == idxs.len() => {
                    let served = scores.iter().filter(|s| s.ok).count() as u64;
                    for (&i, s) in idxs.iter().zip(&scores) {
                        if s.ok {
                            out[i] = Some(Ok(TransportPredict {
                                score: s.score,
                                node: at as NodeId,
                                routed: at as NodeId != node,
                                cold_start: s.cold_start,
                                trace_id: None,
                            }));
                        }
                    }
                    if served > 0 {
                        self.slots[node].lock().unwrap().requests_routed.add(served);
                        self.predict_us.record(timer.elapsed().as_micros() as u64);
                    }
                }
                // Any other reply (error frame, stale epoch, transport
                // failure) leaves the group unanswered for the fallback.
                _ => {}
            }
        }
        out.iter_mut()
            .enumerate()
            .map(|(i, slot)| slot.take().unwrap_or_else(|| self.predict(pairs[i].0, pairs[i].1)))
            .collect()
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
        let (spike_us, fail) = self.tick_faults();
        if spike_us > 0 {
            std::thread::sleep(Duration::from_micros(spike_us));
        }
        let tracer = &self.tracer;
        let (troot, tchild) = self.trace_entry(SpanKind::ClusterPredict, ctx);
        let entry_ctx =
            troot.as_ref().map(|r| r.ctx()).or_else(|| tchild.as_ref().map(|c| c.ctx()));
        let trace_id = entry_ctx.map(|c| c.trace_id);

        // The route span starts at the entry boundary and ends at one
        // shared clock reading that also starts the RPC span — adjacent
        // spans share boundaries so tracing costs one clock read per hop,
        // not two.
        let entry_start = troot
            .as_ref()
            .map(|r| r.start_ns())
            .or_else(|| tchild.as_ref().map(|c| c.start_ns()))
            .unwrap_or(0);
        let route_span =
            tracer.child_at(entry_ctx.as_ref(), SpanKind::Route, FRONT_NODE, entry_start);
        // One map snapshot serves routing, candidate order, and the epoch
        // stamp — a single lock acquisition on the hot path, not three.
        let map = self.map();
        let home = map.owner_of(uid);
        let candidates = self.serving_candidates(&map, uid, fail);
        let routed_ns = if route_span.is_some() { velox_obs::trace::now_ns() } else { 0 };
        tracer.finish_status_at(route_span, SpanStatus::Ok, routed_ns);

        let timer = Instant::now();
        let mut req = Request::Predict { uid, item_id, no_forward: true, epoch: map.epoch() };
        let mut last = TransportError::Unavailable;
        let mut start_at = 0usize;

        // Hedged fast path: run the first candidate on a helper thread
        // and give it a p99-derived delay to answer; past that, race a
        // replica and take whichever replies first. Reads are idempotent,
        // so the duplicated work is just work.
        if self.config.hedge_predicts && candidates.len() >= 2 {
            if let Some(client) = self.peers.get(candidates[0]) {
                let primary = candidates[0];
                let rpc_span =
                    tracer.child_at(entry_ctx.as_ref(), SpanKind::RpcCall, FRONT_NODE, routed_ns);
                let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
                let (tx, rx) = mpsc::channel();
                {
                    let client = Arc::clone(&client);
                    let req = req.clone();
                    std::thread::spawn(move || {
                        let _ = tx.send(client.call_traced(&req, rpc_ctx.as_ref()));
                    });
                }
                // `(where the primary's reply came from, the candidate the
                // sequential loop resumes at if the link failed)`.
                let mut primary_reply = match rx.recv_timeout(self.hedge_delay()) {
                    Ok(reply) => Some((reply, 1)),
                    Err(_) => None,
                };
                if primary_reply.is_none() {
                    // Primary is slow, not (yet) failed: hedge.
                    self.hedged.inc();
                    let hedge_node = candidates[1];
                    if let Some(hclient) = self.peers.get(hedge_node) {
                        let now_ns =
                            if entry_ctx.is_some() { velox_obs::trace::now_ns() } else { 0 };
                        let mark = tracer.child_at(
                            entry_ctx.as_ref(),
                            SpanKind::Hedge,
                            FRONT_NODE,
                            now_ns,
                        );
                        tracer.finish_status_at(mark, SpanStatus::Ok, now_ns);
                        let hspan = tracer.child_at(
                            entry_ctx.as_ref(),
                            SpanKind::RpcCall,
                            FRONT_NODE,
                            now_ns,
                        );
                        let hctx = hspan.as_ref().map(|s| s.ctx());
                        let reply = hclient.call_traced(&req, hctx.as_ref());
                        if let PredictReply::Served(served) = self.settle_predict(reply, hspan) {
                            // The hedge won the race; the primary's reply
                            // (if it ever lands) is discarded with its span.
                            self.hedge_wins.inc();
                            tracer.finish_status(rpc_span, SpanStatus::Error);
                            let out =
                                self.finish_predict(hedge_node, home, served, timer, trace_id);
                            self.close_trace_entry(troot, tchild, SpanStatus::Ok, served.done_ns);
                            return Ok(out);
                        }
                    }
                    // Hedge lost too — fall back to whatever the primary
                    // produces within the remaining deadline.
                    let remaining =
                        self.config.client.request_timeout.saturating_sub(timer.elapsed());
                    primary_reply = rx.recv_timeout(remaining).ok().map(|reply| (reply, 2));
                }
                match primary_reply {
                    Some((reply, resume_at)) => match self.settle_predict(reply, rpc_span) {
                        PredictReply::Served(served) => {
                            let out = self.finish_predict(primary, home, served, timer, trace_id);
                            self.close_trace_entry(troot, tchild, SpanStatus::Ok, served.done_ns);
                            return Ok(out);
                        }
                        PredictReply::RefreshAndRetry(message) => {
                            // Stale front map: refresh it and run the
                            // sequential loop under the new epoch.
                            self.refresh_map_from(&client);
                            req = Request::Predict {
                                uid,
                                item_id,
                                no_forward: true,
                                epoch: self.map_epoch(),
                            };
                            last = TransportError::Failed(message);
                        }
                        PredictReply::Fatal(e) => {
                            self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
                            return Err(e);
                        }
                        PredictReply::NextCandidate(e) => {
                            last = e;
                            start_at = resume_at;
                        }
                    },
                    None => {
                        tracer.finish_status(rpc_span, SpanStatus::Error);
                        last = TransportError::Failed("predict deadline exceeded".into());
                        start_at = 2;
                    }
                }
            }
        }

        for &node in &candidates[start_at.min(candidates.len())..] {
            let Some(client) = self.peers.get(node) else { continue };
            // A candidate that isn't the home partition is a failover hop;
            // the marker span makes that decision visible in the trace.
            if node != home {
                let fo =
                    tracer.child_at(entry_ctx.as_ref(), SpanKind::Failover, FRONT_NODE, routed_ns);
                tracer.finish_status_at(fo, SpanStatus::Ok, routed_ns);
            }
            // The front routes to the owner (or a live replica) itself, so
            // the node answers from local state — no second hop. One
            // stale-epoch retry per node: a `WrongEpoch` rejection
            // refreshes the front map and replays the same request under
            // the new epoch (the old owner keeps the data across a
            // cutover, so the node can still answer).
            let mut refreshed = false;
            loop {
                let rpc_span =
                    tracer.child_at(entry_ctx.as_ref(), SpanKind::RpcCall, FRONT_NODE, routed_ns);
                let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
                let reply = client.call_traced(&req, rpc_ctx.as_ref());
                match self.settle_predict(reply, rpc_span) {
                    PredictReply::Served(served) => {
                        let out = self.finish_predict(node, home, served, timer, trace_id);
                        self.close_trace_entry(troot, tchild, SpanStatus::Ok, served.done_ns);
                        return Ok(out);
                    }
                    PredictReply::RefreshAndRetry(_) if !refreshed => {
                        refreshed = true;
                        self.refresh_map_from(&client);
                        req = Request::Predict {
                            uid,
                            item_id,
                            no_forward: true,
                            epoch: self.map_epoch(),
                        };
                    }
                    PredictReply::RefreshAndRetry(message) => {
                        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
                        return Err(TransportError::Failed(message));
                    }
                    PredictReply::Fatal(e) => {
                        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
                        return Err(e);
                    }
                    PredictReply::NextCandidate(e) => {
                        last = e;
                        break;
                    }
                }
            }
        }
        if matches!(last, TransportError::Unavailable) {
            self.unavailable.inc();
        }
        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
        Err(last)
    }

    fn observe_traced(
        &self,
        uid: u64,
        item_id: u64,
        y: f64,
        ctx: Option<&TraceContext>,
    ) -> Result<TransportObserve, TransportError> {
        let (spike_us, _) = self.tick_faults();
        if spike_us > 0 {
            std::thread::sleep(Duration::from_micros(spike_us));
        }
        let tracer = &self.tracer;
        let (troot, tchild) = self.trace_entry(SpanKind::ClusterObserve, ctx);
        let entry_ctx =
            troot.as_ref().map(|r| r.ctx()).or_else(|| tchild.as_ref().map(|c| c.ctx()));
        let trace_id = entry_ctx.map(|c| c.trace_id);

        let entry_start = troot
            .as_ref()
            .map(|r| r.start_ns())
            .or_else(|| tchild.as_ref().map(|c| c.start_ns()))
            .unwrap_or(0);
        let route_span =
            tracer.child_at(entry_ctx.as_ref(), SpanKind::Route, FRONT_NODE, entry_start);
        // One map snapshot for routing, candidates, and the epoch stamp.
        let map = self.map();
        let home = map.owner_of(uid);
        let candidates = self.serving_candidates(&map, uid, false);
        let routed_ns = if route_span.is_some() { velox_obs::trace::now_ns() } else { 0 };
        tracer.finish_status_at(route_span, SpanStatus::Ok, routed_ns);

        let timer = Instant::now();
        let mut epoch = map.epoch();
        // One observation id for the whole logical call: every client
        // retry replays the same id, so the applying node's dedupe window
        // collapses replays into the original ack.
        let obs_id = self.next_obs_id();
        let mut last = TransportError::Unavailable;
        for node in candidates {
            let Some(client) = self.peers.get(node) else { continue };
            if node != home {
                let fo =
                    tracer.child_at(entry_ctx.as_ref(), SpanKind::Failover, FRONT_NODE, routed_ns);
                tracer.finish_status_at(fo, SpanStatus::Ok, routed_ns);
            }
            // no_forward: a live replica acts as owner when the home is
            // down (its clock is ahead of every record it has seen). One
            // stale-epoch retry per node: a `WrongEpoch` rejection happens
            // before the observation is applied, so replaying the same
            // `obs_id` under the refreshed epoch can never double-apply.
            let mut refreshed = false;
            'attempt: loop {
                let req = Request::Observe { uid, item_id, y, no_forward: true, obs_id, epoch };
                let rpc_span =
                    tracer.child_at(entry_ctx.as_ref(), SpanKind::RpcCall, FRONT_NODE, routed_ns);
                let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
                match client.call_traced(&req, rpc_ctx.as_ref()) {
                    Ok(Response::Observed { node: at, ts, shipped_to }) => {
                        let done_ns =
                            if rpc_span.is_some() { velox_obs::trace::now_ns() } else { 0 };
                        tracer.finish_status_at(rpc_span, SpanStatus::Ok, done_ns);
                        self.slots[node].lock().unwrap().requests_routed.inc();
                        let us = timer.elapsed().as_micros() as u64;
                        match trace_id {
                            Some(t) => self.observe_us.record_exemplar(us, t),
                            None => self.observe_us.record(us),
                        }
                        self.close_trace_entry(troot, tchild, SpanStatus::Ok, done_ns);
                        return Ok(TransportObserve {
                            node: at as NodeId,
                            ts,
                            shipped_to: shipped_to as usize,
                            trace_id,
                        });
                    }
                    Ok(Response::Error { code: ErrorCode::WrongEpoch, .. }) if !refreshed => {
                        tracer.finish_status(rpc_span, SpanStatus::Error);
                        refreshed = true;
                        self.refresh_map_from(&client);
                        epoch = self.map_epoch();
                    }
                    Ok(Response::Error { code, message }) => {
                        tracer.finish_status(rpc_span, SpanStatus::Error);
                        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
                        return Err(map_error(code, message));
                    }
                    Ok(other) => {
                        tracer.finish_status(rpc_span, SpanStatus::Error);
                        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
                        return Err(TransportError::Failed(format!("unexpected reply {other:?}")));
                    }
                    Err(e) => {
                        tracer.finish_status(rpc_span, SpanStatus::Error);
                        if e.definitely_not_delivered() {
                            // The node never saw the request, so a
                            // different replica may safely act as owner.
                            last = TransportError::Failed(e.to_string());
                            break 'attempt;
                        }
                        // Ambiguous failure past the ack point: `node` may
                        // have applied the observation and lost only the
                        // ack. Acting-owner failover would apply it again
                        // under a fresh timestamp (the dedupe window is
                        // per node), so surface the error — at-most-once,
                        // not at-least-once.
                        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
                        return Err(TransportError::Failed(e.to_string()));
                    }
                }
            }
        }
        if matches!(last, TransportError::Unavailable) {
            self.unavailable.inc();
        }
        self.close_trace_entry(troot, tchild, SpanStatus::Error, 0);
        Err(last)
    }

    fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    fn liveness(&self) -> Vec<PeerLiveness> {
        self.detector.snapshot()
    }

    fn membership(&self) -> Option<MembershipView> {
        let map = self.map();
        let wrong_epoch: u64 =
            self.slots.iter().map(|s| s.lock().unwrap().metrics.wrong_epoch.get()).sum();
        Some(MembershipView {
            epoch: map.epoch(),
            members: map.members().to_vec(),
            n_partitions: map.n_partitions(),
            replication: map.replication(),
            migrations: self.migrator.ledger(),
            wrong_epoch,
            map_refreshes: self.map_refreshes.get(),
            auto_rebalance: self.auto_rebalance_on(),
        })
    }

    fn cancel_migration(&self) -> bool {
        self.migrator.request_cancel()
    }

    fn set_auto_rebalance(&self, on: bool) {
        self.set_auto_rebalance_enabled(on);
    }

    fn auto_rebalance_enabled(&self) -> bool {
        self.auto_rebalance_on()
    }

    fn rebalance_join_node(&self, node: NodeId) -> Result<Vec<u32>, TransportError> {
        Ok(self.rebalance_join(node)?)
    }

    fn fail_over_node(&self, node: NodeId) -> Result<u64, TransportError> {
        Ok(self.fail_over_dead(node)?)
    }

    fn fetch_weights(&self, uid: u64) -> Result<Option<Vec<f64>>, TransportError> {
        let mut last = TransportError::Unavailable;
        for node in self.serving_candidates(&self.map(), uid, false) {
            let Some(client) = self.peers.get(node) else { continue };
            match client.call(&Request::FetchWeights { uid }) {
                Ok(Response::Weights { w }) => return Ok(w),
                Ok(Response::Error { code, message }) => return Err(map_error(code, message)),
                Ok(other) => {
                    return Err(TransportError::Failed(format!("unexpected reply {other:?}")))
                }
                Err(e) => last = TransportError::Failed(e.to_string()),
            }
        }
        Err(last)
    }
}
