//! A node: one partition of `W`, its WAL, and the RPC handlers.
//!
//! Each [`NodeServer`] is what the paper co-locates with a storage worker
//! (§3): the shard of the user-weight table its partition owns (plus the
//! shards shipped to it as a replica), a full copy of the item-feature
//! table, a local write-ahead log, and the serving logic — score `wᵤ·x`,
//! fold each observation into the user's `IncrementalRidge` with the
//! Sherman–Morrison update the in-process `Velox` runs (Eq. 2, held in the
//! node's [`UserStore`]), and replicate acknowledged observations to the
//! partition's replica set before acking (`ShipLog`).
//!
//! ## Durability and ordering
//!
//! An observe is acknowledged only after (1) the record is durable in the
//! owner's WAL and (2) a `ShipLog` round trip to every *reachable*
//! replica completed — and a replica answers `Ok` only once the records
//! are durable in *its* WAL — so losing the owner's disk still leaves
//! every acknowledged record in a replica's WAL. Records carry a logical
//! timestamp from the owner's clock; the clock is `fetch_max`-ed with
//! every shipped/pulled record so an acting owner (failover writer)
//! always assigns timestamps above everything it has seen, and recovery
//! replays strictly in timestamp order. The `(uid, ts)` pair identifies a
//! record: replay and re-shipping are idempotent.
//!
//! The timestamp, the WAL write, the log insert and the update happen
//! under the log lock, so a node applies each user's own-written records
//! in timestamp order, and replaying the log in timestamp order reproduces
//! the exact floating-point op sequence — the property the backends-agree
//! and recovery tests lean on. The same critical section hands out each
//! replica's ship turn, so an owner's records reach a replica in
//! timestamp order too. Records from elsewhere (an acting owner, a healed
//! backlog, a migration's log tail) can still arrive late; a `ShipLog`
//! frame that gives a user a record older than one already applied
//! re-derives that user from its own records once the frame is in
//! (`velox_net_ship_repaired_users_total` counts them). The `fdatasync`
//! runs outside the lock: after the
//! lock is released, and at the owner it runs while the first replica
//! works on the `ShipLog` frame already on the wire, so the two WALs'
//! syncs overlap instead of running back to back.
//!
//! A record is therefore applied in memory before it is durable, and a
//! failed WAL write or sync **poisons the node's log**: that observe (or
//! ship) answers `Internal` and leaves no dedupe-window entry, and every
//! later append at the node — own observes, shipped and merged records —
//! answers the WAL's same poisoned error. No sync is retried (the storage
//! layer never re-issues a failed `fdatasync`), so the in-memory state
//! never outlives a disk that lost its writes by more than the failed
//! request. A poisoned node also fails its `Health` probe, so the front's
//! failure detector routes its users to a replica acting as owner within a
//! few heartbeats. The failed observe's record may already be at the
//! replica (the ship runs alongside the sync): like any request that
//! failed after delivery, it may or may not survive, which the node's
//! restart — WAL scan and `PullLog` from the replicas — settles.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use velox_cluster::netfault::{LinkChaos, FRONT_PEER};
use velox_cluster::retry::ObsDedupe;
use velox_cluster::transport::{non_finite_label, score, RIDGE_LAMBDA};
use velox_cluster::{NodeId, PartitionMap, StoreMetrics, UserStore};
use velox_data::linalg::{IncrementalRidge, Vector};
use velox_obs::{
    trace::now_ns, Counter, Gauge, Histogram, Registry, SpanKind, TraceContext, Tracer,
};
use velox_storage::{Observation, Wal, WalConfig, WalRecovery, WalStats};

use crate::client::{ChaosLink, ClientMetrics, NetClient, NetClientConfig};
use crate::rpc::{build_chunk, BatchScore, ErrorCode, Request, Response};
use crate::server::{Handler, NetServer, NetServerConfig, RpcContext};

/// Observe acks remembered per node for exactly-once replay.
const OBS_DEDUPE_WINDOW: usize = 65_536;

/// An observe ack as a node's dedupe window keeps it: timestamp and
/// replica count in one word — the acking node is always this one. Every
/// observe leaves an entry at its owner and at each replica, so the
/// window's entry size is a per-observe memory cost.
#[derive(Debug, Clone, Copy)]
struct WindowAck(u64);

impl WindowAck {
    /// `None` for an ack that does not fit — a timestamp past 2^56 or more
    /// than 255 replicas, neither reachable in practice — which is then not
    /// remembered, exactly like one that has aged out of the window.
    fn pack(ts: u64, shipped_to: u32) -> Option<WindowAck> {
        (ts >> 56 == 0 && shipped_to <= 0xff).then_some(WindowAck(ts << 8 | shipped_to as u64))
    }

    fn ts(self) -> u64 {
        self.0 >> 8
    }

    fn shipped_to(self) -> u32 {
        (self.0 & 0xff) as u32
    }
}

/// One reachable node incarnation: its address plus the clients built for
/// it so far, one per *calling* peer. Keying clients by caller is what
/// makes partitions directional — the front's link to node 2 and node 0's
/// link to node 2 are separate [`ChaosLink`]s the fault engine can cut
/// independently.
struct PeerEndpoint {
    addr: SocketAddr,
    config: NetClientConfig,
    /// Lazily built clients, keyed by the calling peer id
    /// ([`FRONT_PEER`] for the routing tier).
    clients: Mutex<HashMap<u32, Arc<NetClient>>>,
}

/// Shared, mutable address book: node id → endpoint of its current
/// incarnation (`None` while the node is down). Nodes use it to forward
/// and ship; the runtime rewrites entries as nodes die and come back on
/// new ports. Client attempt/failure counters live here (per destination,
/// shared by every caller) so they survive node restarts.
pub struct PeerTable {
    entries: RwLock<Vec<Option<Arc<PeerEndpoint>>>>,
    /// Installed once at cluster start; every client built afterwards
    /// carries a link into it. Inert plans cost one atomic load per call.
    chaos: Option<Arc<LinkChaos>>,
    metrics: Vec<ClientMetrics>,
}

impl PeerTable {
    /// An address book for `n_nodes`, all initially down, without fault
    /// injection.
    pub fn new(n_nodes: usize) -> Self {
        PeerTable {
            entries: RwLock::new((0..n_nodes).map(|_| None).collect()),
            chaos: None,
            metrics: (0..n_nodes).map(|_| ClientMetrics::new()).collect(),
        }
    }

    /// An address book whose clients all route through `chaos`.
    pub fn with_chaos(n_nodes: usize, chaos: Arc<LinkChaos>) -> Self {
        PeerTable { chaos: Some(chaos), ..PeerTable::new(n_nodes) }
    }

    /// The routing tier's client for `node`, when it is reachable.
    pub fn get(&self, node: NodeId) -> Option<Arc<NetClient>> {
        self.get_from(FRONT_PEER, node)
    }

    /// The client `src` uses to reach `node`, when `node` is reachable.
    /// Built lazily per `(src, node)` edge and cached for the lifetime of
    /// the node's current incarnation.
    pub fn get_from(&self, src: u32, node: NodeId) -> Option<Arc<NetClient>> {
        let endpoint = self.entries.read().unwrap().get(node).cloned().flatten()?;
        let mut clients = endpoint.clients.lock().unwrap();
        if let Some(client) = clients.get(&src) {
            return Some(Arc::clone(client));
        }
        let mut client = NetClient::with_config(endpoint.addr, endpoint.config.clone())
            .with_metrics(self.metrics[node].clone());
        if let Some(chaos) = &self.chaos {
            client =
                client.with_chaos(ChaosLink { chaos: Arc::clone(chaos), src, dst: node as u32 });
        }
        let client = Arc::new(client);
        clients.insert(src, Arc::clone(&client));
        Some(client)
    }

    /// Installs (or clears) the endpoint for `node`. Installing drops
    /// every client built for the previous incarnation, so callers redial
    /// the new port instead of a stale one.
    pub fn set(&self, node: NodeId, endpoint: Option<(SocketAddr, NetClientConfig)>) {
        self.entries.write().unwrap()[node] = endpoint.map(|(addr, config)| {
            Arc::new(PeerEndpoint { addr, config, clients: Mutex::new(HashMap::new()) })
        });
    }

    /// The address of `node`'s current incarnation, when it is up. The
    /// heartbeat prober dials this directly (bypassing the chaos-linked
    /// clients, so probes never perturb the data-plane fault stream).
    pub fn addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.entries.read().unwrap().get(node).cloned().flatten().map(|e| e.addr)
    }

    /// The restart-surviving client counters for calls *to* `node`.
    pub fn client_metrics(&self, node: NodeId) -> &ClientMetrics {
        &self.metrics[node]
    }
}

/// Counters for one node, owned by the runtime so they survive the
/// node's restarts (a reborn node keeps incrementing the same series).
#[derive(Clone)]
pub struct NodeMetrics {
    /// Predict requests answered (locally or via forward).
    pub predicts: Arc<Counter>,
    /// Observations applied at this node as owner or acting owner.
    pub observes: Arc<Counter>,
    /// Requests this node forwarded to the owning node.
    pub forwards: Arc<Counter>,
    /// Log records received (and newly applied) via `ShipLog`.
    pub ship_in_records: Arc<Counter>,
    /// Users a `ShipLog` frame gave a record older than one already
    /// applied, each re-derived from its own records once the frame was in.
    pub ship_repaired_users: Arc<Counter>,
    /// `ShipLog` sends that failed (replica unreachable before deadline).
    pub ship_failures: Arc<Counter>,
    /// Observes answered from the dedupe window (a retry or a chaos
    /// duplicate replayed its original ack instead of updating twice).
    pub duplicate_observes: Arc<Counter>,
    /// Records queued for a replica whose link was down at ship time.
    pub ship_backlog_queued: Arc<Counter>,
    /// Backlogged records delivered to a replica after its link healed.
    pub ship_catch_up_records: Arc<Counter>,
    /// Records currently sitting in bounded per-replica ship queues
    /// (resync markers excluded — their debt lives in the log).
    pub ship_backlog_depth: Arc<Gauge>,
    /// High-watermark of `ship_backlog_depth` over the node's lifetime.
    pub ship_backlog_hwm: Arc<Gauge>,
    /// Requests rejected because the sender's map epoch was stale.
    pub wrong_epoch: Arc<Counter>,
    /// Partition maps adopted via `InstallMap` (newer-epoch installs only).
    pub map_installs: Arc<Counter>,
    /// The node's WAL counters: appends, `fdatasync`s (one per own observe
    /// and per `ShipLog` frame) and each fsync's duration — which the
    /// trace no longer shows where the ship round trip hides it.
    pub wal: WalStats,
    /// The node's user store: resident state bytes and shard-lock waits.
    pub user_store: StoreMetrics,
}

impl NodeMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        NodeMetrics {
            predicts: Arc::new(Counter::new()),
            observes: Arc::new(Counter::new()),
            forwards: Arc::new(Counter::new()),
            ship_in_records: Arc::new(Counter::new()),
            ship_repaired_users: Arc::new(Counter::new()),
            ship_failures: Arc::new(Counter::new()),
            duplicate_observes: Arc::new(Counter::new()),
            ship_backlog_queued: Arc::new(Counter::new()),
            ship_catch_up_records: Arc::new(Counter::new()),
            ship_backlog_depth: Arc::new(Gauge::new()),
            ship_backlog_hwm: Arc::new(Gauge::new()),
            wrong_epoch: Arc::new(Counter::new()),
            map_installs: Arc::new(Counter::new()),
            wal: WalStats { fsync_ns: Some(Arc::new(Histogram::new())), ..WalStats::new() },
            user_store: StoreMetrics::default(),
        }
    }

    /// Registers every counter under `velox_net_*` with a `node` label.
    pub fn register(&self, registry: &Registry, node: NodeId) {
        let id = node.to_string();
        let labels = [("node", id.as_str())];
        for (name, counter) in [
            ("predicts_total", &self.predicts),
            ("observes_total", &self.observes),
            ("forwards_total", &self.forwards),
            ("ship_in_records_total", &self.ship_in_records),
            ("ship_repaired_users_total", &self.ship_repaired_users),
            ("ship_failures_total", &self.ship_failures),
            ("duplicate_observes_total", &self.duplicate_observes),
            ("ship_backlog_queued_total", &self.ship_backlog_queued),
            ("ship_catch_up_records_total", &self.ship_catch_up_records),
            ("wrong_epoch_total", &self.wrong_epoch),
            ("map_installs_total", &self.map_installs),
            ("wal_appends_total", &self.wal.appends),
            ("wal_fsyncs_total", &self.wal.fsyncs),
        ] {
            registry.register_counter(&format!("velox_net_{name}"), &labels, Arc::clone(counter));
        }
        for (name, gauge) in [
            ("ship_backlog_depth", &self.ship_backlog_depth),
            ("ship_backlog_hwm", &self.ship_backlog_hwm),
        ] {
            registry.register_gauge(&format!("velox_net_{name}"), &labels, Arc::clone(gauge));
        }
        if let Some(fsync_ns) = &self.wal.fsync_ns {
            registry.register_histogram("velox_net_wal_fsync_ns", &labels, Arc::clone(fsync_ns));
        }
        self.user_store.register(registry, &labels);
    }
}

impl Default for NodeMetrics {
    fn default() -> Self {
        NodeMetrics::new()
    }
}

/// Records an owner queues per replica while its ship link is down
/// before the queue collapses into a resync marker (re-ship from the log
/// on heal).
const SHIP_BACKLOG_CAP: usize = 1024;

/// Configuration for one node server.
pub struct NodeConfig {
    /// This node's id on the ring.
    pub node_id: NodeId,
    /// Cluster *capacity*: one more than the highest node id the cluster
    /// can ever grow to. Sizes the per-replica backlog slots; the live
    /// member set comes from the partition map.
    pub n_nodes: usize,
    /// The partition map at start. Ownership, replica sets, and
    /// `holds_user` all come from the node's current map, which later
    /// `InstallMap` frames advance.
    pub map: Arc<PartitionMap>,
    /// WAL directory for this node; `None` runs without local durability
    /// (acknowledged records then live only in replicas' WALs).
    pub wal_dir: Option<std::path::PathBuf>,
    /// Worker threads for the node's RPC server.
    pub workers: usize,
    /// Runtime-owned counters (survive restarts).
    pub metrics: NodeMetrics,
    /// Cluster-wide tracer (this node records into its own ring). Use
    /// [`Tracer::disabled`] to run untraced.
    pub tracer: Arc<Tracer>,
}

/// The log half of a node's state: every record this node holds (own
/// writes + shipped-in), ordered by `(timestamp, uid)`. A record is
/// applied here exactly when it is held, so the ordered log is also the
/// idempotency set: a binary search answers "already applied?" without a
/// second copy of every key (a `(uid, ts)` hash set cost more memory per
/// observe than the records themselves). `by_user` holds each user's
/// timestamps, ascending, so one user's records are found without a scan.
struct LogInner {
    records: Vec<Observation>,
    by_user: HashMap<u64, Vec<u64>>,
}

impl LogInner {
    /// The log of `records`, in any order.
    fn new(mut records: Vec<Observation>) -> Self {
        records.sort_by_key(|r| (r.timestamp, r.uid));
        records.dedup_by_key(|r| (r.timestamp, r.uid));
        let mut by_user: HashMap<u64, Vec<u64>> = HashMap::new();
        for r in &records {
            by_user.entry(r.uid).or_default().push(r.timestamp);
        }
        LogInner { records, by_user }
    }

    fn position(&self, uid: u64, ts: u64) -> Result<usize, usize> {
        self.records.binary_search_by(|r| (r.timestamp, r.uid).cmp(&(ts, uid)))
    }

    /// Whether `(rec.uid, rec.timestamp)` is already held (applied).
    fn holds(&self, rec: &Observation) -> bool {
        self.position(rec.uid, rec.timestamp).is_ok()
    }

    /// `uid`'s held records, in timestamp order.
    fn records_of(&self, uid: u64) -> impl Iterator<Item = &Observation> {
        let stamps = self.by_user.get(&uid).map_or(&[][..], Vec::as_slice);
        stamps.iter().filter_map(move |&ts| self.position(uid, ts).ok().map(|i| &self.records[i]))
    }

    /// The held records with `timestamp >= from`, in timestamp order.
    fn since(&self, from: u64) -> &[Observation] {
        &self.records[self.records.partition_point(|r| r.timestamp < from)..]
    }

    /// Holds `rec`, and says whether a newer record of the same user was
    /// already held — `rec` arrived out of timestamp order for its user.
    /// Records arrive close to timestamp order, so this is an append or a
    /// short shift near the end.
    fn insert(&mut self, rec: Observation) -> bool {
        let at = self.position(rec.uid, rec.timestamp).unwrap_or_else(|at| at);
        let stamps = self.by_user.entry(rec.uid).or_default();
        let late = stamps.last().is_some_and(|&newest| newest > rec.timestamp);
        stamps.insert(stamps.partition_point(|&ts| ts < rec.timestamp), rec.timestamp);
        self.records.insert(at, rec);
        late
    }
}

/// What an owner owes one replica whose ship link failed. Queued records
/// preserve ship order; once the bounded queue overflows, the exact
/// backlog no longer fits and the state collapses to "re-ship everything
/// from timestamp `ts` on" — the log holds it all, so nothing acked is
/// ever lost, only re-sent (idempotent by `(uid, ts)`).
enum ShipBacklog {
    /// Link healthy, nothing owed.
    Clear,
    /// `(record, obs_id)` pairs to deliver, in ship order.
    Queue(VecDeque<(Observation, u64)>),
    /// Queue overflowed: on heal, re-ship every log record with
    /// `timestamp >= ts` instead (obs ids are lost for resynced records —
    /// the log does not store them — so only the queued window feeds the
    /// replica's dedupe).
    ResyncFrom(u64),
}

/// All mutable state of one node. Lock order: `log`, then `items`, then
/// one user shard — never two shards at once; a `backlog` slot may take
/// `log` (resync reads the records) but never the other way around.
pub struct NodeState {
    config: NodeConfig,
    /// Current partition map; swapped whole-`Arc` by `InstallMap`.
    map: RwLock<Arc<PartitionMap>>,
    /// Each held user's online state, one shard per partition. Changed
    /// only under `log`, except by checkpoint installs and their scrub.
    users: UserStore,
    items: Mutex<HashMap<u64, Vector>>,
    /// Written under `log` (so disk order is log order), synced outside it.
    wal: Option<Wal>,
    log: Mutex<LogInner>,
    /// Last logical timestamp assigned or seen (Lamport-style).
    clock: AtomicU64,
    peers: Arc<PeerTable>,
    /// Recent observe acks by observation id: a replayed id (client retry
    /// or chaos duplication) answers with its original ack instead of a
    /// second weight update.
    dedupe: Mutex<ObsDedupe<WindowAck>>,
    /// Per-replica ship debt and the next ship turn to run, one slot per
    /// cluster node. Each slot's mutex is held across the drain + ship
    /// RPCs, and own observes take their turns in the order `turns` handed
    /// them out, so records reach a replica in timestamp order.
    backlog: Vec<(Mutex<(ShipBacklog, u64)>, Condvar)>,
    /// The next ship turn per replica slot, handed out under `log`.
    turns: Vec<AtomicU64>,
    /// Observation ids currently being applied. An ack only enters the
    /// dedupe window after the (possibly slow) replica ship, so a client
    /// retry racing its own original attempt parks here until the
    /// original's ack is published instead of re-applying the update.
    inflight: Mutex<HashSet<u64>>,
    /// Signalled whenever an id leaves `inflight`.
    inflight_done: Condvar,
}

impl NodeState {
    /// The node's current partition map.
    pub fn current_map(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.map.read().unwrap())
    }

    /// Adopts `map` if it is newer than the current one (idempotent for
    /// replayed install frames). Returns whether it was adopted.
    pub fn install_map(&self, map: Arc<PartitionMap>) -> bool {
        let mut cur = self.map.write().unwrap();
        if map.epoch() > cur.epoch() {
            *cur = map;
            self.config.metrics.map_installs.inc();
            true
        } else {
            false
        }
    }

    /// Replica set of a user under the current map (owner first).
    fn replica_nodes_of_user(&self, uid: u64) -> Vec<NodeId> {
        self.map.read().unwrap().replicas_of(uid).to_vec()
    }

    /// True when this node is in `uid`'s replica set.
    pub fn holds_user(&self, uid: u64) -> bool {
        let map = self.map.read().unwrap();
        map.holds(self.config.node_id, uid)
    }

    /// Checks a request's map-epoch stamp against the node's map. `0`
    /// (unstamped: server-internal hops, pre-membership tooling) always
    /// passes. A mismatch in either direction means the sender routed
    /// with a different map than this node serves under, so the request
    /// is refused before anything is applied — the sender refreshes
    /// (`GetMap`) and retries under the new map.
    fn admit_epoch(&self, epoch: u64) -> Result<(), Response> {
        if epoch == 0 {
            return Ok(());
        }
        let cur = self.map.read().unwrap().epoch();
        if epoch == cur {
            return Ok(());
        }
        self.config.metrics.wrong_epoch.inc();
        Err(Response::Error {
            code: ErrorCode::WrongEpoch,
            message: format!("stale map epoch {epoch}, node is at {cur}"),
        })
    }

    /// Installs item features (management plane; not logged). An entry
    /// with a non-finite component is refused — scoring or training on it
    /// would turn a user's weights, and every later score, into NaN — and
    /// any earlier entry for that item is dropped with it, so the item
    /// answers `Unavailable` until finite features are published. The
    /// finite entries of the frame are installed either way; the reply is
    /// `BadRequest` when anything was refused.
    pub fn seed_items(&self, entries: &[(u64, Vec<f64>)]) -> Response {
        let mut items = self.items.lock().unwrap();
        let mut refused = Vec::new();
        for (item_id, x) in entries {
            if x.iter().all(|v| v.is_finite()) {
                items.insert(*item_id, Vector::from_vec(x.clone()));
            } else {
                items.remove(item_id);
                refused.push(*item_id);
            }
        }
        if refused.is_empty() {
            return Response::Ok;
        }
        Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("items {refused:?} have non-finite features"),
        }
    }

    /// Merges foreign log records (recovery): records already applied are
    /// skipped; new ones enter the log and the local WAL but do **not**
    /// touch the weights — call [`NodeState::rebuild`] once after
    /// all merges. Returns how many records were new.
    pub fn merge_records(&self, records: &[Observation]) -> io::Result<u64> {
        let mut log = self.log.lock().unwrap();
        let mut fresh: Vec<Observation> = Vec::new();
        for rec in records {
            self.clock.fetch_max(rec.timestamp, Ordering::AcqRel);
            if !log.holds(rec) {
                fresh.push(rec.clone());
            }
        }
        // A recovery merge can be the whole history: append it in bulk and
        // re-sort once (two sorted runs merge in linear time) instead of
        // shifting the log per record.
        fresh.sort_by_key(|r| (r.timestamp, r.uid));
        fresh.dedup_by_key(|r| (r.timestamp, r.uid));
        let (mut appended, mut failure) = (0, None);
        for rec in &fresh {
            if let Some(wal) = &self.wal {
                if let Err(e) = wal.write(rec) {
                    failure = Some(e.to_string());
                    break;
                }
            }
            appended += 1;
        }
        fresh.truncate(appended);
        fresh.extend(std::mem::take(&mut log.records));
        *log = LogInner::new(fresh);
        drop(log);
        match failure.map_or_else(|| self.sync_wal(), Err) {
            Ok(()) => Ok(appended as u64),
            Err(why) => Err(io::Error::other(why)),
        }
    }

    /// Flushes everything written to this node's WAL so far (a no-op
    /// without one). Once the WAL is poisoned, its error.
    fn sync_wal(&self) -> Result<(), String> {
        self.wal.as_ref().map_or(Ok(()), |wal| wal.sync().map_err(|e| e.to_string()))
    }

    /// `Internal` once this node's WAL is poisoned (module docs); `None`
    /// while it accepts writes, and always without a WAL.
    fn wal_refusal(&self) -> Option<Response> {
        let e = self.wal.as_ref()?.check().err()?;
        Some(Response::Error { code: ErrorCode::Internal, message: e.to_string() })
    }

    /// Re-derives every user with records here from the log — only those
    /// of `partition` at a migration cutover, every one at recovery.
    pub fn rebuild(&self, partition: Option<u32>) {
        let map = self.current_map();
        let log = self.log.lock().unwrap();
        let keep = |r: &&Observation| partition.is_none_or(|p| map.partition_of(r.uid) == p);
        self.replay(log.records.iter().filter(keep));
    }

    /// Re-derives, from the zero prior, the user of every record in
    /// `records` — each user's records in timestamp order, the order the
    /// owner first applied them in, so the rebuilt floats are
    /// bit-identical. The one replay recovery, migration cutover and a
    /// replica's ordering repair share; users without records
    /// (checkpoint-only state) are left untouched. Each record takes its
    /// user's shard in turn.
    fn replay<'a>(&self, records: impl Iterator<Item = &'a Observation>) {
        let items = self.items.lock().unwrap();
        let mut reset = HashSet::new();
        for rec in records {
            if reset.insert(rec.uid) {
                self.users.remove(rec.uid);
            }
            // A record whose item is not seeded, or whose features the
            // user's model cannot take, changes nothing — here as when it
            // arrived.
            if let Some(x) = items.get(&rec.item_id) {
                let _ = self.users.observe(rec.uid, x, rec.y);
            }
        }
    }

    /// Number of log records currently held.
    pub fn log_len(&self) -> usize {
        self.log.lock().unwrap().records.len()
    }

    fn respond_predict(
        &self,
        uid: u64,
        item_id: u64,
        no_forward: bool,
        ctx: Option<&TraceContext>,
    ) -> Response {
        let me = self.config.node_id;
        let tracer = &self.config.tracer;
        let owner = self.map.read().unwrap().owner_of(uid);
        if owner != me && !no_forward {
            if let Some(peer) = self.peers.get(owner) {
                // Forwarded leg is unstamped (epoch 0): both hops already
                // run under this node's map, and a mid-flight install
                // must not fail a request that routed correctly.
                let fwd = Request::Predict { uid, item_id, no_forward: true, epoch: 0 };
                let rpc_span = tracer.child(ctx, SpanKind::RpcCall, me as u32);
                let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
                let reply = peer.call_traced(&fwd, rpc_ctx.as_ref());
                tracer.finish(rpc_span);
                if let Ok(Response::Predicted { score, node, cold_start, .. }) = reply {
                    self.config.metrics.forwards.inc();
                    return Response::Predicted { score, node, forwarded: true, cold_start };
                }
            }
            // Owner unreachable: fall through and answer from local state
            // (a replica's shipped copy, or the cold-start prior).
        }
        let work = tracer.child(ctx, SpanKind::NodePredict, me as u32);
        let Some(x) = self.items.lock().unwrap().get(&item_id).cloned() else {
            tracer.finish_status(work, velox_obs::SpanStatus::Error);
            return Response::Error {
                code: ErrorCode::Unavailable,
                message: format!("item {item_id} not seeded at node {me}"),
            };
        };
        let scored = self
            .users
            .read(uid, |u| score(Some(u.weights().as_slice()), x.as_slice()))
            .unwrap_or_else(|| score(None, x.as_slice()));
        let (score, cold_start) = match scored {
            Ok(scored) => scored,
            Err(message) => {
                tracer.finish_status(work, velox_obs::SpanStatus::Error);
                return Response::Error { code: ErrorCode::BadRequest, message };
            }
        };
        self.config.metrics.predicts.inc();
        tracer.finish(work);
        Response::Predicted { score, node: me as u32, forwarded: false, cold_start }
    }

    /// Scores a whole batch at this node. The item table is locked once for
    /// the pass and each pair takes its user's shard in turn (items before
    /// a shard, the node's lock order), so per-pair cost is two map probes,
    /// a shard lock and a dot product. A pair the node cannot score
    /// (unseeded item, features of another width) comes back `!ok` instead
    /// of failing the frame — the sender retries it on the single-predict
    /// path for the precise error. No forwarding: the sender already
    /// grouped pairs by owner under its map, and a stale grouping is
    /// answered from local state exactly like a `no_forward` single
    /// predict.
    fn respond_predict_batch(&self, pairs: &[(u64, u64)], ctx: Option<&TraceContext>) -> Response {
        let me = self.config.node_id;
        let tracer = &self.config.tracer;
        let work = tracer.child(ctx, SpanKind::NodePredict, me as u32);
        let items = self.items.lock().unwrap();
        let scores = pairs
            .iter()
            .map(|&(uid, item_id)| {
                let scored = items.get(&item_id).map(|x| {
                    let x = x.as_slice();
                    let held = self.users.read(uid, |u| score(Some(u.weights().as_slice()), x));
                    held.unwrap_or_else(|| score(None, x))
                });
                match scored {
                    Some(Ok((score, cold_start))) => BatchScore { ok: true, score, cold_start },
                    _ => BatchScore { ok: false, score: 0.0, cold_start: false },
                }
            })
            .collect();
        self.config.metrics.predicts.add(pairs.len() as u64);
        tracer.finish(work);
        Response::PredictedBatch { node: me as u32, scores }
    }

    fn respond_observe(
        &self,
        uid: u64,
        item_id: u64,
        y: f64,
        no_forward: bool,
        obs_id: u64,
        ctx: Option<&TraceContext>,
    ) -> Response {
        // Refused before the forward, the dedupe claim and the WAL append:
        // one non-finite label would turn the user's weights, and every
        // later score, into NaN — here and at every replica it ships to.
        if !y.is_finite() {
            return Response::Error { code: ErrorCode::BadRequest, message: non_finite_label(y) };
        }
        let me = self.config.node_id;
        let tracer = &self.config.tracer;
        let owner = self.map.read().unwrap().owner_of(uid);
        if owner != me && !no_forward {
            if let Some(peer) = self.peers.get_from(me as u32, owner) {
                let fwd = Request::Observe { uid, item_id, y, no_forward: true, obs_id, epoch: 0 };
                let rpc_span = tracer.child(ctx, SpanKind::RpcCall, me as u32);
                let rpc_ctx = rpc_span.as_ref().map(|s| s.ctx());
                let reply = peer.call_traced(&fwd, rpc_ctx.as_ref());
                tracer.finish(rpc_span);
                match reply {
                    Ok(resp @ Response::Observed { .. }) => {
                        self.config.metrics.forwards.inc();
                        return resp;
                    }
                    Ok(other) => return other,
                    Err(_) => {} // owner unreachable → act as owner below
                }
            }
        }
        // Exactly-once past the ack point: a replayed observation id —
        // a client retry after a lost ack, or chaos duplicating the
        // request frame — answers with the original ack, not a second
        // update. Ids still being applied (the ack only enters the
        // dedupe window after the replica ship, which can outlast the
        // client's per-try timeout) park until the original publishes
        // its ack; re-applying concurrently would double-count.
        if obs_id != 0 {
            let mut inflight = self.inflight.lock().unwrap();
            loop {
                if let Some(ack) = self.dedupe.lock().unwrap().hit(obs_id) {
                    self.config.metrics.duplicate_observes.inc();
                    return Response::Observed {
                        node: self.config.node_id as u32,
                        ts: ack.ts(),
                        shipped_to: ack.shipped_to(),
                    };
                }
                if inflight.insert(obs_id) {
                    break;
                }
                inflight = self.inflight_done.wait(inflight).unwrap();
            }
        }
        let resp = self.apply_observe(uid, item_id, y, obs_id, ctx);
        if obs_id != 0 {
            // The ack (if any) is in the dedupe window by now; parked
            // replays wake and answer from it.
            self.inflight.lock().unwrap().remove(&obs_id);
            self.inflight_done.notify_all();
        }
        resp
    }

    /// The owner-side apply: WAL write, ridge update, replica ship with the
    /// local sync overlapped, and dedupe-window publication. Callers hold
    /// the `inflight` claim for `obs_id` (when non-zero) across this call.
    fn apply_observe(
        &self,
        uid: u64,
        item_id: u64,
        y: f64,
        obs_id: u64,
        ctx: Option<&TraceContext>,
    ) -> Response {
        let me = self.config.node_id;
        let tracer = &self.config.tracer;
        let work = tracer.child(ctx, SpanKind::NodeObserve, me as u32);
        let work_ctx = work.as_ref().map(|s| s.ctx());
        let Some(x) = self.items.lock().unwrap().get(&item_id).cloned() else {
            tracer.finish_status(work, velox_obs::SpanStatus::Error);
            return Response::Error {
                code: ErrorCode::Unavailable,
                message: format!("item {item_id} not seeded at node {me}"),
            };
        };
        let (rec, turns) = {
            let mut log = self.log.lock().unwrap();
            // Refused before anything is logged: the user's model cannot
            // take features of another dimension.
            if let Err(message) = self.users.fits(uid, &x) {
                tracer.finish_status(work, velox_obs::SpanStatus::Error);
                return Response::Error { code: ErrorCode::BadRequest, message };
            }
            // Stamped under the lock, so this node's own records reach the
            // log — and the user's state — in timestamp order: the clock
            // is above every held record, and this one is appended last.
            let ts = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
            let rec = Observation { uid, item_id, y, timestamp: ts };
            if let Some(wal) = &self.wal {
                let append_start = if work_ctx.is_some() { now_ns() } else { 0 };
                let written = wal.write(&rec);
                if work_ctx.is_some() {
                    let (kind, end) = (SpanKind::WalAppend, now_ns());
                    tracer.record(work_ctx.as_ref(), kind, me as u32, append_start, end);
                }
                if let Err(e) = written {
                    tracer.finish_status(work, velox_obs::SpanStatus::Error);
                    return Response::Error { code: ErrorCode::Internal, message: e.to_string() };
                }
            }
            log.insert(rec.clone());
            let _ = self.users.observe(uid, &x, y);
            let replicas = self.replica_nodes_of_user(uid).into_iter().filter(|&r| r != me);
            let turns = replicas.map(|r| (r, self.turns[r].fetch_add(1, Ordering::Relaxed)));
            (rec, turns.collect::<Vec<_>>())
        };
        let ts = rec.timestamp;
        // Replicate outside the log lock (two owners shipping to each
        // other must not deadlock); idempotent replay keeps this safe. The
        // local sync runs inside the first ship that reaches the wire,
        // while that replica applies and syncs; the ack waits for both.
        let mut durable: Option<Result<(), String>> = None;
        let mut sync_while_shipping = || {
            if durable.is_none() {
                durable = Some(self.sync_wal());
            }
        };
        let mut shipped_to = 0u32;
        for (replica, turn) in turns {
            // Ships per replica run one at a time, in timestamp order, and
            // settle any backlog first, so records arrive in order even
            // across a heal. Every turn is run, shipped or not.
            let (slot, turn_done) = &self.backlog[replica];
            let mut slot = turn_done.wait_while(slot.lock().unwrap(), |s| s.1 != turn).unwrap();
            let debt = &mut slot.0;
            'ship: {
                let Some(peer) = self.peers.get_from(me as u32, replica) else { break 'ship };
                if !self.settle_backlog(debt, &peer, work_ctx.as_ref()) {
                    // Link still bad: this record joins the debt; the owner
                    // keeps serving (degraded) and catches the replica up
                    // on heal or via its `PullLog` recovery.
                    self.config.metrics.ship_failures.inc();
                    self.push_backlog(debt, rec.clone(), obs_id);
                    break 'ship;
                }
                let ship_span = tracer.child(work_ctx.as_ref(), SpanKind::ShipReplica, me as u32);
                let ship_ctx = ship_span.as_ref().map(|s| s.ctx());
                let ship = Request::ShipLog { records: vec![rec.clone()], obs_ids: vec![obs_id] };
                match peer.call_overlapped(&ship, ship_ctx.as_ref(), &mut sync_while_shipping) {
                    Ok(Response::Ok) => {
                        shipped_to += 1;
                        tracer.finish(ship_span);
                    }
                    _ => {
                        self.config.metrics.ship_failures.inc();
                        self.push_backlog(debt, rec.clone(), obs_id);
                        tracer.finish_status(ship_span, velox_obs::SpanStatus::Error);
                    }
                }
            }
            slot.1 += 1;
            drop(slot);
            turn_done.notify_all();
        }
        // No ship sent a frame (no replica, a backlogged or failed link):
        // wait for the local sync on its own. The `WalFsync` span is only
        // the wait no ship round trip hid — zero-length when one did.
        let traced_wal = self.wal.is_some() && work_ctx.is_some();
        let fsync_start = if traced_wal { now_ns() } else { 0 };
        let hidden = durable.is_some();
        let durable = durable.unwrap_or_else(|| self.sync_wal());
        if traced_wal {
            let fsync_end = if hidden { fsync_start } else { now_ns() };
            tracer.record(work_ctx.as_ref(), SpanKind::WalFsync, me as u32, fsync_start, fsync_end);
        }
        if let Err(message) = durable {
            tracer.finish_status(work, velox_obs::SpanStatus::Error);
            return Response::Error { code: ErrorCode::Internal, message };
        }
        if let Some(ack) = WindowAck::pack(ts, shipped_to) {
            self.dedupe.lock().unwrap().put(obs_id, ack);
        }
        self.config.metrics.observes.inc();
        tracer.finish(work);
        Response::Observed { node: me as u32, ts, shipped_to }
    }

    /// Queues one record a replica missed, collapsing to a resync marker
    /// when the bounded queue is full. Tracks the queued-depth gauge and
    /// its high-watermark.
    fn push_backlog(&self, debt: &mut ShipBacklog, rec: Observation, obs_id: u64) {
        let metrics = &self.config.metrics;
        metrics.ship_backlog_queued.inc();
        match debt {
            ShipBacklog::Clear => {
                *debt = ShipBacklog::Queue(VecDeque::from([(rec, obs_id)]));
                metrics.ship_backlog_depth.add(1);
            }
            ShipBacklog::Queue(q) => {
                if q.len() >= SHIP_BACKLOG_CAP {
                    let oldest = q.front().map(|(r, _)| r.timestamp).unwrap_or(rec.timestamp);
                    metrics.ship_backlog_depth.add(-(q.len() as i64));
                    *debt = ShipBacklog::ResyncFrom(oldest.min(rec.timestamp));
                } else {
                    q.push_back((rec, obs_id));
                    metrics.ship_backlog_depth.add(1);
                }
            }
            ShipBacklog::ResyncFrom(ts) => {
                *debt = ShipBacklog::ResyncFrom(rec.timestamp.min(*ts));
            }
        }
        let depth = metrics.ship_backlog_depth.get();
        if depth > metrics.ship_backlog_hwm.get() {
            metrics.ship_backlog_hwm.set(depth);
        }
    }

    /// Tries to deliver everything owed to one replica. Returns `true`
    /// when the backlog is clear (link usable for fresh ships); on a
    /// failed delivery the debt is kept and `false` says "queue, don't
    /// ship".
    fn settle_backlog(
        &self,
        debt: &mut ShipBacklog,
        peer: &NetClient,
        ctx: Option<&TraceContext>,
    ) -> bool {
        let (records, obs_ids): (Vec<Observation>, Vec<u64>) = match &*debt {
            ShipBacklog::Clear => return true,
            ShipBacklog::Queue(q) => q.iter().cloned().unzip(),
            ShipBacklog::ResyncFrom(ts) => {
                let records = self.log.lock().unwrap().since(*ts).to_vec();
                let ids = vec![0u64; records.len()];
                (records, ids)
            }
        };
        let n = records.len() as u64;
        let queued = matches!(&*debt, ShipBacklog::Queue(_));
        let tracer = &self.config.tracer;
        let ship_span = tracer.child(ctx, SpanKind::ShipReplica, self.config.node_id as u32);
        let ship_ctx = ship_span.as_ref().map(|s| s.ctx());
        match peer.call_traced(&Request::ShipLog { records, obs_ids }, ship_ctx.as_ref()) {
            Ok(Response::Ok) => {
                tracer.finish(ship_span);
                self.config.metrics.ship_catch_up_records.add(n);
                if queued {
                    self.config.metrics.ship_backlog_depth.add(-(n as i64));
                }
                *debt = ShipBacklog::Clear;
                true
            }
            _ => {
                tracer.finish_status(ship_span, velox_obs::SpanStatus::Error);
                false
            }
        }
    }

    /// Total records currently owed to replicas (resync markers count the
    /// log suffix they would re-ship).
    pub fn ship_backlog_len(&self) -> usize {
        let mut total = 0usize;
        for (slot, _) in &self.backlog {
            match &slot.lock().unwrap().0 {
                ShipBacklog::Clear => {}
                ShipBacklog::Queue(q) => total += q.len(),
                ShipBacklog::ResyncFrom(ts) => {
                    total += self.log.lock().unwrap().since(*ts).len();
                }
            }
        }
        total
    }

    fn respond_ship(
        &self,
        records: Vec<Observation>,
        obs_ids: Vec<u64>,
        ctx: Option<&TraceContext>,
    ) -> Response {
        let apply = self.config.tracer.child(ctx, SpanKind::ShipApply, self.config.node_id as u32);
        let resp = self.apply_shipped(records, obs_ids);
        let status = if matches!(resp, Response::Ok) {
            velox_obs::SpanStatus::Ok
        } else {
            velox_obs::SpanStatus::Error
        };
        self.config.tracer.finish_status(apply, status);
        resp
    }

    /// Applies shipped records under the log lock, then answers `Ok` only
    /// once they are durable here — including records already held that
    /// another thread wrote but has not yet synced.
    fn apply_shipped(&self, records: Vec<Observation>, obs_ids: Vec<u64>) -> Response {
        if let Some(refusal) = self.wal_refusal() {
            return refusal;
        }
        let mut log = self.log.lock().unwrap();
        // Users this frame gave a record older than one already applied:
        // re-derived once the frame is in (or a WAL write stopped it), from
        // their own records only.
        let (mut late, mut failure) = (HashSet::new(), None);
        for (i, rec) in records.iter().enumerate() {
            self.clock.fetch_max(rec.timestamp, Ordering::AcqRel);
            // Feed the owner's observation id into this replica's dedupe
            // window even for records it already holds: if a cutover later
            // promotes this replica to owner, an ack-lost client retry
            // routed here answers with the original ack instead of a
            // second update.
            let obs_id = obs_ids.get(i).copied().unwrap_or(0);
            if obs_id != 0 {
                let mut dedupe = self.dedupe.lock().unwrap();
                if let (None, Some(ack)) = (dedupe.hit(obs_id), WindowAck::pack(rec.timestamp, 0)) {
                    dedupe.put(obs_id, ack);
                }
            }
            if log.holds(rec) {
                continue;
            }
            if let Some(Err(e)) = self.wal.as_ref().map(|wal| wal.write(rec)) {
                failure = Some(e.to_string());
                break;
            }
            if log.insert(rec.clone()) {
                late.insert(rec.uid);
            } else if let Some(x) = self.items.lock().unwrap().get(&rec.item_id) {
                let _ = self.users.observe(rec.uid, x, rec.y);
            }
            self.config.metrics.ship_in_records.inc();
        }
        if !late.is_empty() {
            self.config.metrics.ship_repaired_users.add(late.len() as u64);
            self.replay(late.iter().flat_map(|&uid| log.records_of(uid)));
        }
        drop(log);
        match failure.map_or_else(|| self.sync_wal(), Err) {
            Ok(()) => Response::Ok,
            Err(message) => Response::Error { code: ErrorCode::Internal, message },
        }
    }

    fn respond_pull(&self, from_ts: u64) -> Response {
        Response::Log { records: self.log.lock().unwrap().since(from_ts).to_vec() }
    }

    /// One bounded step of the resumable checkpoint stream: the held
    /// `(uid, weights)` pairs of `partition` with `uid ≥ cursor`, uid
    /// ascending, cut off at `max_bytes` of encoded entries and stamped
    /// with a CRC over the chunk body, cursor, and done flag. Pure read —
    /// re-pulling a cursor after a dropped link replays the same chunk.
    fn respond_pull_partition_chunk(
        &self,
        partition: u32,
        cursor: u64,
        max_bytes: u32,
    ) -> Response {
        let mut entries = self
            .users
            .partition_entries(partition, |uid, user| (uid, user.weights().as_slice().to_vec()));
        entries.sort_by_key(|(uid, _)| *uid);
        build_chunk(&entries, cursor, max_bytes)
    }

    /// Drops every user state of `partition` that this node's current
    /// map says it does not hold — the abort rollback for checkpoint
    /// chunks streamed to a destination that never became a replica.
    /// State the map legitimately places here is untouched, so a scrub
    /// after a *committed* migration is a no-op. Returns how many users
    /// were dropped.
    pub fn scrub_partition(&self, partition: u32) -> u64 {
        let map = self.current_map();
        if partition >= map.n_partitions()
            || map.replicas_of_partition(partition).contains(&self.config.node_id)
        {
            return 0;
        }
        self.users.drop_partition(partition) as u64
    }

    /// Installs checkpoint-streamed weights, each as the prior of a fresh
    /// online state, keeping any user this node already has (dual-write
    /// updates that landed here are newer than the snapshot). The
    /// post-cutover replay re-derives every user with records from the
    /// zero prior, so a migration carries log records, not `A⁻¹`.
    fn respond_push_partition(&self, entries: Vec<(u64, Vec<f64>)>) -> Response {
        for (uid, w) in entries {
            self.users
                .install(uid, || IncrementalRidge::from_prior(&Vector::from_vec(w), RIDGE_LAMBDA));
        }
        Response::Ok
    }
}

impl NodeState {
    /// Request dispatch, with the optional span context of the server
    /// receive span wrapping this request.
    fn dispatch(&self, req: Request, ctx: Option<&TraceContext>) -> Response {
        match req {
            Request::Predict { uid, item_id, no_forward, epoch } => {
                if let Err(reject) = self.admit_epoch(epoch) {
                    return reject;
                }
                self.respond_predict(uid, item_id, no_forward, ctx)
            }
            Request::Observe { uid, item_id, y, no_forward, obs_id, epoch } => {
                // Rejected-for-epoch observes were never applied, so the
                // client's same-obs_id retry under the fresh map is safe.
                if let Err(reject) = self.admit_epoch(epoch) {
                    return reject;
                }
                self.respond_observe(uid, item_id, y, no_forward, obs_id, ctx)
            }
            Request::FetchWeights { uid } => {
                Response::Weights { w: self.users.read(uid, |u| u.weights().as_slice().to_vec()) }
            }
            Request::ShipLog { records, obs_ids } => self.respond_ship(records, obs_ids, ctx),
            Request::PullLog { from_ts } => self.respond_pull(from_ts),
            Request::SeedItems { entries } => self.seed_items(&entries),
            // A poisoned WAL fails the liveness probe: the front's detector
            // then routes this node's users to an acting owner.
            Request::Health => self.wal_refusal().unwrap_or(Response::Ok),
            Request::GetMap => Response::Map { map: (*self.current_map()).clone() },
            Request::InstallMap { map } => {
                self.install_map(Arc::new(map));
                Response::Ok
            }
            Request::PushPartition { entries } => self.respond_push_partition(entries),
            Request::PullPartitionChunk { partition, cursor, max_bytes } => {
                self.respond_pull_partition_chunk(partition, cursor, max_bytes)
            }
            Request::PredictBatch { pairs, epoch } => {
                if let Err(reject) = self.admit_epoch(epoch) {
                    return reject;
                }
                self.respond_predict_batch(&pairs, ctx)
            }
        }
    }
}

impl Handler for NodeState {
    fn handle(&self, req: Request) -> Response {
        self.dispatch(req, None)
    }

    fn handle_traced(&self, req: Request, rpc: RpcContext) -> Response {
        // The receive span starts when the frame finished arriving
        // (`rpc.recv_ns`), so its head — before the node work child —
        // is decode + dispatch + queue wait on the server side.
        let recv = self.config.tracer.child_at(
            rpc.trace.as_ref(),
            SpanKind::ServerRecv,
            self.config.node_id as u32,
            rpc.recv_ns,
        );
        let recv_ctx = recv.as_ref().map(|s| s.ctx());
        let resp = self.dispatch(req, recv_ctx.as_ref());
        self.config.tracer.finish(recv);
        resp
    }
}

/// A running node: its state plus its TCP server.
pub struct NodeServer {
    state: Arc<NodeState>,
    server: NetServer,
}

impl NodeServer {
    /// Opens the node's WAL (when configured), loads whatever it held
    /// into the log (weights are *not* rebuilt — recovery seeds items
    /// first, then calls [`NodeState::rebuild`]), and starts
    /// serving on an ephemeral loopback port. Returns the node plus what
    /// the WAL scan found.
    pub fn start(
        config: NodeConfig,
        peers: Arc<PeerTable>,
    ) -> io::Result<(NodeServer, Option<WalRecovery>)> {
        let mut wal = None;
        let mut recovery = None;
        if let Some(dir) = &config.wal_dir {
            let (w, rec) =
                Wal::open(WalConfig::new(dir)).map_err(|e| io::Error::other(e.to_string()))?;
            wal = Some(w.with_stats(config.metrics.wal.clone()));
            recovery = Some(rec);
        }
        let log = LogInner::new(recovery.as_ref().map_or_else(Vec::new, |r| r.records.clone()));
        let clock = log.records.last().map_or(0, |r| r.timestamp);
        let workers = config.workers;
        let n_nodes = config.n_nodes;
        let users = UserStore::new(&config.map, config.metrics.user_store.clone());
        let state = Arc::new(NodeState {
            map: RwLock::new(Arc::clone(&config.map)),
            config,
            users,
            items: Mutex::new(HashMap::new()),
            wal,
            log: Mutex::new(log),
            clock: AtomicU64::new(clock),
            peers,
            dedupe: Mutex::new(ObsDedupe::new(OBS_DEDUPE_WINDOW)),
            backlog: (0..n_nodes)
                .map(|_| (Mutex::new((ShipBacklog::Clear, 0)), Condvar::new()))
                .collect(),
            turns: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            inflight: Mutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
        });
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&state) as Arc<dyn Handler>,
            NetServerConfig { workers, ..Default::default() },
        )?;
        Ok((NodeServer { state, server }, recovery))
    }

    /// The node's state (the runtime drives recovery through it).
    pub fn state(&self) -> &Arc<NodeState> {
        &self.state
    }

    /// The node's listening address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Stops the node's server (simulated crash: in-memory state is
    /// dropped with the handle; the WAL directory survives).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(uid: u64, timestamp: u64) -> Observation {
        Observation { uid, item_id: 0, y: 0.0, timestamp }
    }

    /// A failed local sync answers `Internal` and leaves no dedupe-window
    /// entry (a same-id retry is not acked from it, nor applied again);
    /// every later append at the node answers the WAL's poisoned error, and
    /// so does the liveness probe.
    #[test]
    fn a_failed_wal_sync_poisons_the_node_log() {
        let dir = velox_storage::ScratchDir::new("velox-node-poison");
        let seeded = Observation { uid: 3, item_id: 7, y: 1.0, timestamp: 1 };
        let (mut wal, _) = Wal::open(WalConfig::new(dir.path())).unwrap();
        wal.append(&seeded).unwrap();
        drop(wal);
        let metrics = NodeMetrics::new();
        let (mut node, _) = NodeServer::start(
            NodeConfig {
                node_id: 0,
                n_nodes: 1,
                map: Arc::new(PartitionMap::bootstrap(1, 1, velox_cluster::USER_SALT).unwrap()),
                wal_dir: Some(dir.path().to_path_buf()),
                workers: 1,
                metrics: metrics.clone(),
                tracer: Tracer::disabled(),
            },
            Arc::new(PeerTable::new(1)),
        )
        .unwrap();
        // The node opens the segment it recovered on its first write; by
        // then the path names a device that takes writes but refuses
        // `fdatasync`, as a failing disk would.
        let segment = std::fs::read_dir(dir.path()).unwrap().next().unwrap().unwrap().path();
        std::fs::remove_file(&segment).unwrap();
        std::os::unix::fs::symlink("/dev/null", &segment).unwrap();
        let state = Arc::clone(node.state());
        assert_eq!(state.seed_items(&[(7, vec![1.0, 0.5])]), Response::Ok);
        assert_eq!(state.dispatch(Request::Health, None), Response::Ok);
        let observe = |obs_id| {
            let req =
                Request::Observe { uid: 3, item_id: 7, y: 1.0, no_forward: true, obs_id, epoch: 0 };
            state.dispatch(req, None)
        };
        let weights = || state.dispatch(Request::FetchWeights { uid: 3 }, None);

        let failed = observe(2);
        match &failed {
            Response::Error { code: ErrorCode::Internal, message } => {
                assert!(message.contains("fsync wal segment"), "{message}")
            }
            other => panic!("a failed sync must answer Internal, got {other:?}"),
        }
        assert_eq!(state.log_len(), 2, "applied in memory before the sync failed");
        let after_failure = weights();
        assert_eq!(observe(2), failed, "no ack in the dedupe window to replay");
        assert_eq!(weights(), after_failure, "and no second update");
        assert_eq!(observe(3), failed, "every later append fails the same way");
        let shipped = Observation { uid: 4, item_id: 7, y: 0.5, timestamp: 9 };
        let ship = Request::ShipLog { records: vec![shipped.clone()], obs_ids: vec![0] };
        assert_eq!(state.dispatch(ship, None), failed);
        assert!(state.merge_records(&[shipped]).is_err());
        assert_eq!(state.dispatch(Request::Health, None), failed, "the probe fails too");
        assert_eq!(state.log_len(), 2, "nothing was applied after the failure");
        assert_eq!((metrics.wal.appends.get(), metrics.wal.fsyncs.get()), (1, 0));
        node.shutdown();
    }

    #[test]
    fn window_acks_round_trip_and_refuse_what_does_not_fit() {
        let ack = WindowAck::pack((1 << 56) - 1, 255).expect("fits");
        assert_eq!((ack.ts(), ack.shipped_to()), ((1 << 56) - 1, 255));
        assert!(WindowAck::pack(1 << 56, 0).is_none());
        assert!(WindowAck::pack(7, 256).is_none());
    }

    #[test]
    fn the_ordered_log_is_its_own_idempotency_set() {
        let mut log = LogInner::new(Vec::new());
        for (uid, ts) in [(1, 5), (2, 3), (1, 9), (3, 5), (2, 7)] {
            assert!(!log.holds(&obs(uid, ts)));
            log.insert(obs(uid, ts));
            assert!(log.holds(&obs(uid, ts)));
        }
        // Same timestamp, other user: a different record.
        assert!(!log.holds(&obs(2, 5)));
        let order: Vec<(u64, u64)> = log.records.iter().map(|r| (r.timestamp, r.uid)).collect();
        assert_eq!(order, [(3, 2), (5, 1), (5, 3), (7, 2), (9, 1)]);
        let since: Vec<u64> = log.since(6).iter().map(|r| r.timestamp).collect();
        assert_eq!(since, [7, 9]);
        assert!(log.since(10).is_empty());
    }
}
