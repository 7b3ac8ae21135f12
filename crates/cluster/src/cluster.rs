//! The simulated cluster: placement, health, faults and cost accounting.
//!
//! A [`Cluster`] owns `n_nodes` simulated nodes and answers, for every
//! access, *where* the data lives and *what* reaching it costs. Two tables
//! are placed across the nodes by salted hash partitioning:
//!
//! - `W` (user weights): owned by the user's home node (the partition
//!   map's owner of the user's virtual partition) and replicated to
//!   `user_replication − 1` more nodes; reads and writes at the home node
//!   are local.
//! - item features (`θ` when materialized): owned by the item's home node
//!   and replicated to `item_replication − 1` successors; a read from any
//!   other node is a *remote* read unless that node's LRU item cache holds
//!   it.
//!
//! Placement is a model, not a copy. The cluster stores no user weights at
//! all: each caller (the in-process `Velox`, [`SimTransport`]) holds every
//! user's state once and asks the cluster only for the access's cost and
//! for whether any replica of the user's partition is alive. The item
//! features are held once too, sharded by item home; the per-node item
//! caches are the only per-node data, because what they model — remote
//! reads turned local — is per node.
//!
//! The crash rule follows from that: a kill drops whatever lost its last
//! live replica — the cluster drops such items itself, and reports such
//! user partitions ([`HealthTransition::lost_partitions`]) for the holders
//! of user state to drop before their next read. A recovery copies
//! nothing, and a migration or fail-over runs every [`Migrator`] phase and
//! abort check but moves no data.
//!
//! Costs are virtual time: each access adds [`LOCAL_READ_US`] or
//! [`REMOTE_READ_US`] to the caller's [`AccessKind`]-tagged accounting and to
//! per-node counters. Nothing sleeps; experiments convert virtual
//! microseconds into reported latency. This keeps the ABL-PART / ABL-CACHE /
//! FIG4 experiments deterministic and fast while preserving the paper's
//! locality arguments exactly.
//!
//! [`SimTransport`]: crate::SimTransport

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use velox_obs::{Counter, Registry, Tracer};
use velox_storage::{LruCache, Namespace};

use crate::fault::{FaultAction, FaultClock, FaultPlan, HealthTransition, NodeHealth};
use crate::migrate::{ChunkStep, ControlPlane, MigrationIo, Migrator};
use crate::netfault::LinkChaos;
use crate::partition::{
    HashPartitioner, MembershipError, NodeId, PartitionError, PartitionMap, Router, RoutingPolicy,
};

/// Virtual cost of a node-local read (microseconds).
pub const LOCAL_READ_US: f64 = 1.0;
/// Virtual cost of a remote read (microseconds) — dominated by the network
/// round-trip in the real system. Intra-datacenter RTT ≈ a few hundred µs;
/// the ratio to local memory access is what matters for the experiments.
pub const REMOTE_READ_US: f64 = 300.0;

/// Cluster topology configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated nodes.
    pub n_nodes: usize,
    /// Capacity of each node's LRU item-feature cache (entries).
    pub item_cache_capacity: usize,
    /// How requests are routed to serving nodes.
    pub routing: RoutingPolicy,
    /// Replicas of each item's features across the cluster (≥ 1; clamped
    /// to the node count). The paper pairs partitioning with *replication*
    /// of the materialized feature tables (§3, §8): replicas turn remote
    /// item reads into local ones, and an item survives a kill while one
    /// of its replicas is up.
    pub item_replication: usize,
    /// Replicas of each user's weight vector across the cluster (≥ 1;
    /// clamped to the node count). The paper replicates the materialized
    /// tables for fault tolerance (§3); extending that to `W` means a dead
    /// home partition degrades a user's reads to a replica instead of
    /// losing them.
    pub user_replication: usize,
    /// Maximum nodes the cluster can ever hold (`0` = `n_nodes`, i.e. no
    /// headroom). Slots beyond `n_nodes` are pre-provisioned but start
    /// `Down` and outside the partition map; [`Cluster::join_node`] brings
    /// them into membership.
    pub max_nodes: usize,
    /// Users per checkpoint chunk during a partition migration (`0` = one
    /// unbounded chunk). Bounding the chunk keeps each transfer step small
    /// and gives the abort checks a place to fire.
    pub checkpoint_chunk_users: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_nodes: 4,
            item_cache_capacity: 1024,
            routing: RoutingPolicy::ByUser,
            item_replication: 1,
            user_replication: 1,
            max_nodes: 0,
            checkpoint_chunk_users: 256,
        }
    }
}

/// How an access was satisfied (for accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Satisfied from the serving node's own shard.
    Local,
    /// Satisfied from the serving node's item cache.
    CacheHit,
    /// Required a (virtual) network fetch from the owning node.
    Remote,
    /// The primary was unreachable; a surviving replica served the read
    /// (charged as a remote fetch).
    Failover,
}

/// Outcome of a health-aware item read.
#[derive(Debug, Clone)]
pub struct ClusterRead {
    /// The value, when any live replica held it — shared with the table,
    /// so a read costs a reference count, not a copy.
    pub value: Option<Arc<[f64]>>,
    /// How the access was satisfied (meaningless when `unavailable`).
    pub kind: AccessKind,
    /// Virtual cost in microseconds (including any injected spike).
    pub cost_us: f64,
    /// True when the primary was unreachable and a replica answered.
    pub failover: bool,
    /// True when no live replica could serve the key; `value` is `None`.
    pub unavailable: bool,
}

/// Outcome of a health-aware access to a user's weights: which replica the
/// cost model says answered and what that cost. The weights themselves are
/// the caller's; it reads them from its own table when the access is not
/// `unavailable`.
#[derive(Debug, Clone, Copy)]
pub struct UserAccess {
    /// How the access was satisfied (meaningless when `unavailable`).
    pub kind: AccessKind,
    /// Virtual cost in microseconds (including any injected spike).
    pub cost_us: f64,
    /// True when the primary was unreachable and a replica answered.
    pub failover: bool,
    /// True when no live replica could serve the user.
    pub unavailable: bool,
}

/// Names the users of a virtual partition — the rows a checkpoint chunk of
/// that partition would carry.
type Census = Arc<dyn Fn(u32) -> Vec<u64> + Send + Sync>;

/// One node: its item cache, its health, and its counters.
struct Node {
    item_cache: Mutex<LruCache<u64, Arc<[f64]>>>,
    /// Health state, encoded for lock-free reads ([`NodeHealth::encode`]).
    health: AtomicU8,
    requests_served: Arc<Counter>,
    local_reads: Arc<Counter>,
    remote_reads: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Reads this node served for keys whose primary was unreachable.
    failover_reads: Arc<Counter>,
    /// Reads served at this node that found no live replica anywhere.
    unavailable_reads: Arc<Counter>,
}

const HEALTH_UP: u8 = 0;

/// Per-node counter snapshot.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Requests routed to this node.
    pub requests_served: u64,
    /// Reads satisfied locally (shard or cache).
    pub local_reads: u64,
    /// Reads that went over the simulated network.
    pub remote_reads: u64,
    /// Reads this node served for keys whose primary was unreachable
    /// (a subset of `remote_reads`).
    pub failover_reads: u64,
    /// Reads served at this node that found no live replica anywhere.
    pub unavailable_reads: u64,
    /// Item-cache hit/miss/eviction counters.
    pub cache: (u64, u64, u64),
    /// Current health state.
    pub health: NodeHealth,
}

/// Cluster-wide aggregate statistics.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-node snapshots, index = node id.
    pub nodes: Vec<NodeStats>,
    /// Total virtual microseconds spent on reads since creation/reset.
    pub virtual_read_us: f64,
    /// Reads that found no live replica (served degraded upstream).
    pub unavailable_reads: u64,
    /// Transient shard-read failures injected by the fault plan.
    pub injected_read_failures: u64,
    /// Latency spikes injected by the fault plan.
    pub injected_latency_spikes: u64,
}

impl ClusterStats {
    /// Fraction of all reads that were local (shard or cache). 1.0 when no
    /// reads happened.
    pub fn local_fraction(&self) -> f64 {
        let local: u64 = self.nodes.iter().map(|n| n.local_reads).sum();
        let remote: u64 = self.nodes.iter().map(|n| n.remote_reads).sum();
        if local + remote == 0 {
            1.0
        } else {
            local as f64 / (local + remote) as f64
        }
    }

    /// Load imbalance: max over mean of per-node requests served (1.0 =
    /// perfectly balanced). 1.0 when no requests were served.
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<f64> = self.nodes.iter().map(|n| n.requests_served as f64).collect();
        let total: f64 = loads.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / loads.len() as f64;
        loads.iter().fold(0.0f64, |m, &l| m.max(l)) / mean
    }

    /// Total failover reads across all nodes.
    pub fn failover_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.failover_reads).sum()
    }

    /// Number of nodes currently `Up`.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.health == NodeHealth::Up).count()
    }
}

/// The simulated cluster.
pub struct Cluster {
    config: ClusterConfig,
    nodes: Vec<Node>,
    /// Every item's features, once; an item's replicas are where the cost
    /// model says it lives, not copies.
    items: Namespace<Arc<[f64]>>,
    item_part: HashPartitioner,
    router: Router,
    /// Epoch-stamped partition map — the single source of truth for user
    /// placement. Swapped atomically (whole-`Arc`) on every membership
    /// change.
    map: std::sync::RwLock<Arc<PartitionMap>>,
    /// Requests rejected because the caller presented a stale map epoch.
    wrong_epoch: Arc<Counter>,
    /// The membership/migration state machine; this cluster is its
    /// [`MigrationIo`].
    migrator: Migrator,
    /// Sizes the chunks a migration streams; installed by whoever holds
    /// the users' state.
    census: Mutex<Option<Census>>,
    /// Virtual microseconds accumulated by all reads (scaled ×1000 to keep
    /// three decimal places in an atomic integer).
    virtual_read_nanos: AtomicU64,
    /// Count of routed requests — the clock scheduled faults fire against.
    request_clock: AtomicU64,
    faults: FaultClock,
    /// Health transitions not yet collected by the serving layer.
    transitions: Mutex<Vec<HealthTransition>>,
    transitions_pending: AtomicBool,
    injected_read_failures: Arc<Counter>,
    injected_latency_spikes: Arc<Counter>,
    /// Rebalance kill switch (`false` = operator disabled migrations).
    rebalance_enabled: AtomicBool,
    /// Link-fault engine consulted at every checkpoint chunk: a partition
    /// of the src↔dst link aborts the transfer (the TCP runtime instead
    /// retries and resumes from the cursor).
    migration_link_chaos: Mutex<Option<Arc<LinkChaos>>>,
}

impl Cluster {
    /// Builds a cluster from `config`.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.n_nodes > 0);
        let capacity = config.max_nodes.max(config.n_nodes);
        let nodes = (0..capacity)
            .map(|i| Node {
                item_cache: Mutex::new(LruCache::new(config.item_cache_capacity)),
                // Headroom slots start Down: they are outside the map and
                // join_node flips them Up when membership grows.
                health: AtomicU8::new(if i < config.n_nodes {
                    HEALTH_UP
                } else {
                    NodeHealth::Down.encode()
                }),
                requests_served: Arc::new(Counter::new()),
                local_reads: Arc::new(Counter::new()),
                remote_reads: Arc::new(Counter::new()),
                cache_hits: Arc::new(Counter::new()),
                cache_misses: Arc::new(Counter::new()),
                failover_reads: Arc::new(Counter::new()),
                unavailable_reads: Arc::new(Counter::new()),
            })
            .collect();
        let user_part = HashPartitioner::new(config.n_nodes, crate::partition::USER_SALT)
            .expect("n_nodes asserted positive above");
        let item_part = HashPartitioner::new(config.n_nodes, crate::partition::ITEM_SALT)
            .expect("n_nodes asserted positive above");
        let router = Router::new(config.routing, user_part);
        let map = PartitionMap::bootstrap(
            config.n_nodes,
            config.user_replication,
            crate::partition::USER_SALT,
        )
        .expect("n_nodes asserted positive above");
        Cluster {
            config,
            nodes,
            items: Namespace::new("item_features"),
            item_part,
            router,
            map: std::sync::RwLock::new(Arc::new(map)),
            wrong_epoch: Arc::new(Counter::new()),
            // Synchronous steps: no deadline unless a test sets one, and
            // no tracer of its own.
            migrator: Migrator::new(None, Tracer::disabled()),
            census: Mutex::new(None),
            virtual_read_nanos: AtomicU64::new(0),
            request_clock: AtomicU64::new(0),
            faults: FaultClock::default(),
            transitions: Mutex::new(Vec::new()),
            transitions_pending: AtomicBool::new(false),
            injected_read_failures: Arc::new(Counter::new()),
            injected_latency_spikes: Arc::new(Counter::new()),
            rebalance_enabled: AtomicBool::new(true),
            migration_link_chaos: Mutex::new(None),
        }
    }

    /// Number of provisioned node slots (members plus join headroom).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Snapshot of the current partition map.
    pub fn map(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.map.read().unwrap())
    }

    /// Current partition-map epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map.read().unwrap().epoch()
    }

    /// Installs `map` if it is newer than the current one (idempotent for
    /// same-or-older epochs). Returns true when the map was adopted.
    pub fn install_map(&self, map: Arc<PartitionMap>) -> bool {
        let mut cur = self.map.write().unwrap();
        if map.epoch() > cur.epoch() {
            *cur = map;
            true
        } else {
            false
        }
    }

    /// Epoch admission check — the simulated analogue of the TCP
    /// transport's `WrongEpoch` rejection. A request stamped with a stale
    /// (or future) epoch is refused with the current epoch so the caller
    /// can refresh its cached map and retry; epoch `0` bypasses the check
    /// (server-internal traffic).
    pub fn admit_epoch(&self, epoch: u64) -> Result<(), u64> {
        if epoch == 0 {
            return Ok(());
        }
        let cur = self.map.read().unwrap().epoch();
        if epoch == cur {
            Ok(())
        } else {
            self.wrong_epoch.inc();
            Err(cur)
        }
    }

    /// Requests rejected for presenting a stale map epoch.
    pub fn wrong_epoch_count(&self) -> u64 {
        self.wrong_epoch.get()
    }

    /// Home node of a user.
    pub fn home_of_user(&self, uid: u64) -> NodeId {
        self.map.read().unwrap().owner_of(uid)
    }

    /// Home (primary) node of an item.
    pub fn home_of_item(&self, item_id: u64) -> NodeId {
        self.item_part.node_for(item_id)
    }

    /// The nodes an item homed at `home` is placed on: the home plus
    /// `item_replication − 1` successors on the bootstrap node ring (item
    /// placement does not participate in elastic membership; joined nodes
    /// fetch remotely and fill their caches).
    fn item_replicas_of_home(&self, home: NodeId) -> impl Iterator<Item = NodeId> {
        let n = self.config.n_nodes;
        (0..self.item_replication()).map(move |k| (home + k) % n)
    }

    /// Replicas per item: `item_replication` clamped to the founding nodes.
    fn item_replication(&self) -> usize {
        self.config.item_replication.clamp(1, self.config.n_nodes)
    }

    /// All nodes an item's features are placed on, primary first.
    pub fn replica_nodes_of_item(&self, item_id: u64) -> Vec<NodeId> {
        self.item_replicas_of_home(self.home_of_item(item_id)).collect()
    }

    /// All nodes a user's weights are placed on, owner first, per the
    /// current partition map.
    pub fn replica_nodes_of_user(&self, uid: u64) -> Vec<NodeId> {
        self.map.read().unwrap().replicas_of(uid).to_vec()
    }

    /// Current health of a node.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        NodeHealth::decode(self.nodes[node].health.load(Ordering::Acquire))
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node].health.load(Ordering::Acquire) == HEALTH_UP
    }

    /// Number of nodes currently `Up`.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.health.load(Ordering::Acquire) == HEALTH_UP).count()
    }

    /// Live (`Up`) replicas of a user's weights, failover order: home first.
    pub fn live_user_replicas(&self, uid: u64) -> Vec<NodeId> {
        self.replica_nodes_of_user(uid).into_iter().filter(|&n| self.is_up(n)).collect()
    }

    /// Whether any replica of `uid`'s partition is `Up` — whether a write
    /// of the user's weights has anywhere to land.
    pub fn user_partition_live(&self, uid: u64) -> bool {
        self.map.read().unwrap().replicas_of(uid).iter().any(|&n| self.is_up(n))
    }

    /// User partitions with no `Up` replica right now: a publish has
    /// nowhere to place their users' weights.
    pub fn dead_partitions(&self) -> Vec<u32> {
        self.dead_in(&self.map()).collect()
    }

    /// The partitions of `map` with no `Up` replica.
    fn dead_in<'a>(&'a self, map: &'a PartitionMap) -> impl Iterator<Item = u32> + 'a {
        (0..map.n_partitions())
            .filter(|&p| !map.replicas_of_partition(p).iter().any(|&n| self.is_up(n)))
    }

    /// Moves `node` to `health` and journals the transition. A node going
    /// down reports the user partitions it left without a live replica —
    /// computed now, so a recovery before the serving layer collects the
    /// journal cannot hide the loss.
    fn set_health(&self, node: NodeId, health: NodeHealth) {
        self.nodes[node].health.store(health.encode(), Ordering::Release);
        let lost_partitions = match health {
            NodeHealth::Down => {
                let map = self.map();
                self.dead_in(&map)
                    .filter(|&p| map.replicas_of_partition(p).contains(&node))
                    .collect()
            }
            _ => Vec::new(),
        };
        let t = HealthTransition { node, health, lost_partitions };
        self.transitions.lock().unwrap().push(t);
        self.transitions_pending.store(true, Ordering::Release);
    }

    /// Kills a node: health `Down`, item cache cleared, and every item
    /// whose last live replica this was dropped (the crash loses it). The
    /// user partitions it took with it are journaled for the holders of
    /// user state. Idempotent on an already-down node; a slot id outside
    /// the cluster is ignored.
    pub fn kill_node(&self, node: NodeId) {
        if node >= self.nodes.len() || self.node_health(node) == NodeHealth::Down {
            return;
        }
        self.nodes[node].item_cache.lock().unwrap().clear();
        self.set_health(node, NodeHealth::Down);
        // Item placement covers the founding nodes only: the homes whose
        // replica sets include `node` are its `item_replication − 1`
        // predecessors and itself.
        if node < self.config.n_nodes {
            let n = self.config.n_nodes;
            let lost_homes: Vec<NodeId> = (0..self.item_replication())
                .map(|k| (node + n - k) % n)
                .filter(|&home| !self.item_replicas_of_home(home).any(|r| self.is_up(r)))
                .collect();
            if !lost_homes.is_empty() {
                for item in self.items.keys() {
                    if lost_homes.contains(&self.home_of_item(item)) {
                        self.items.remove(item);
                    }
                }
            }
        }
    }

    /// Recovers a dead node: health `Up`, with an empty item cache. It
    /// copies nothing — whatever lost its last replica stays lost until
    /// the next write or publish (the serving layer degrades it). No-op on
    /// a node that is already `Up`.
    pub fn recover_node(&self, node: NodeId) {
        if node >= self.nodes.len() || self.node_health(node) == NodeHealth::Up {
            return;
        }
        self.set_health(node, NodeHealth::Up);
    }

    /// Brings the next pre-provisioned headroom slot into membership as a
    /// fresh node (health `Up`, owning no partitions). Returns the new
    /// node id; fails when no headroom slot is left (`max_nodes`
    /// exhausted). Partitions move afterwards via
    /// [`ControlPlane::rebalance_join`] / [`ControlPlane::migrate_partition`].
    pub fn join_node(&self) -> Result<NodeId, MembershipError> {
        let mut cur = self.map.write().unwrap();
        let next_id = cur.members().iter().max().map_or(0, |&m| m + 1);
        if next_id >= self.nodes.len() {
            return Err(MembershipError::Map(PartitionError::InvalidMap(format!(
                "no headroom: slot {next_id} exceeds capacity {}",
                self.nodes.len()
            ))));
        }
        *cur = Arc::new(cur.with_member(next_id)?);
        drop(cur);
        self.set_health(next_id, NodeHealth::Up);
        Ok(next_id)
    }

    /// Flips the rebalance kill switch; `false` makes
    /// [`ControlPlane::rebalance_join`] and
    /// [`ControlPlane::migrate_partition`] refuse with
    /// [`MembershipError::RebalanceDisabled`].
    pub fn set_rebalance_enabled(&self, on: bool) {
        self.rebalance_enabled.store(on, Ordering::Release);
    }

    /// Current state of the rebalance kill switch.
    pub fn rebalance_enabled(&self) -> bool {
        self.rebalance_enabled.load(Ordering::Acquire)
    }

    /// Wires a link-fault engine into the migration path: a chunk transfer
    /// that finds the src↔dst link partitioned aborts (the simulator
    /// cannot wait for a heal the way the TCP runtime's cursor-resume
    /// loop does).
    pub fn set_migration_link_chaos(&self, chaos: Arc<LinkChaos>) {
        *self.migration_link_chaos.lock().unwrap() = Some(chaos);
    }

    /// Installs the census a migration sizes its chunks by: the users of a
    /// virtual partition, as the holder of their state knows them. Without
    /// one, a partition streams as a single empty chunk.
    pub fn set_migration_census(&self, census: impl Fn(u32) -> Vec<u64> + Send + Sync + 'static) {
        *self.census.lock().unwrap() = Some(Arc::new(census));
    }

    /// Installs (or replaces) a fault plan. Scheduled events fire against
    /// the request clock as requests are routed; probabilistic failures and
    /// spikes apply to every shard read from now on.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.faults.install(plan);
    }

    /// Removes the installed fault plan (health states are left as-is).
    pub fn clear_fault_plan(&self) {
        self.faults.clear();
    }

    /// True when health transitions await collection via
    /// [`Cluster::take_transitions`].
    pub fn transitions_pending(&self) -> bool {
        self.transitions_pending.load(Ordering::Acquire)
    }

    /// Drains the journal of health transitions (oldest first). The serving
    /// layer turns these into lifecycle events and recovery actions.
    pub fn take_transitions(&self) -> Vec<HealthTransition> {
        let mut journal = self.transitions.lock().unwrap();
        self.transitions_pending.store(false, Ordering::Release);
        std::mem::take(&mut *journal)
    }

    /// The number of requests routed so far (the fault-plan clock).
    pub fn request_clock(&self) -> u64 {
        self.request_clock.load(Ordering::Relaxed)
    }

    /// Fires every scheduled fault event due at or before `tick`.
    fn apply_due_faults(&self, tick: u64) {
        for (node, action) in self.faults.due_events(tick) {
            match action {
                FaultAction::Kill => self.kill_node(node),
                FaultAction::Recover => self.recover_node(node),
            }
        }
    }

    /// Rolls the plan's dice for one shard read: `true` = the read
    /// transiently fails (the caller should fail over).
    fn inject_read_failure(&self) -> bool {
        let fail = self.faults.roll(|plan, rng| {
            plan.read_failure_prob > 0.0 && rng.uniform() < plan.read_failure_prob
        });
        if fail == Some(true) {
            self.injected_read_failures.inc();
            return true;
        }
        false
    }

    /// Extra virtual microseconds from an injected latency spike (usually
    /// 0.0). Added to the caller's cost and the virtual read clock.
    fn latency_spike_us(&self) -> f64 {
        let spike = self.faults.roll(|plan, rng| {
            let hit = plan.latency_spike_prob > 0.0 && rng.uniform() < plan.latency_spike_prob;
            hit.then_some(plan.latency_spike_us)
        });
        let Some(Some(us)) = spike else { return 0.0 };
        self.injected_latency_spikes.inc();
        self.virtual_read_nanos.fetch_add((us * 1000.0) as u64, Ordering::Relaxed);
        us
    }

    /// Picks the serving node for a request from `uid` under the configured
    /// routing policy, counting it against that node's load. Advances the
    /// fault clock; when the routed node is down, the request is redirected
    /// to the first live replica of the user (then any live node).
    pub fn route_request(&self, uid: u64) -> NodeId {
        let tick = self.request_clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.apply_due_faults(tick);
        let mut node = match self.config.routing {
            // ByUser consults the live partition map so routing follows
            // migrations; the static router only drives the round-robin
            // ablation baseline.
            RoutingPolicy::ByUser => self.map.read().unwrap().owner_of(uid),
            RoutingPolicy::RoundRobin => self.router.route(uid),
        };
        if !self.is_up(node) {
            node = self
                .replica_nodes_of_user(uid)
                .into_iter()
                .find(|&n| self.is_up(n))
                .or_else(|| (0..self.nodes.len()).find(|&n| self.is_up(n)))
                .unwrap_or(node);
        }
        self.nodes[node].requests_served.inc();
        node
    }

    /// Counts one access of `kind` at `at` and returns its base virtual
    /// cost in microseconds (also added to the virtual read clock).
    fn charge(&self, at: NodeId, kind: AccessKind) -> f64 {
        let us = match kind {
            AccessKind::Local | AccessKind::CacheHit => {
                self.nodes[at].local_reads.inc();
                LOCAL_READ_US
            }
            AccessKind::Remote => {
                self.nodes[at].remote_reads.inc();
                REMOTE_READ_US
            }
            AccessKind::Failover => {
                // Failover reads go over the network to the surviving
                // replica; counted under remote for locality accounting,
                // plus their own counter.
                self.nodes[at].remote_reads.inc();
                self.nodes[at].failover_reads.inc();
                REMOTE_READ_US
            }
        };
        self.virtual_read_nanos.fetch_add((us * 1000.0) as u64, Ordering::Relaxed);
        us
    }

    /// Health-aware read of a user's weights from serving node `at`: which
    /// replica answers, and at what cost.
    ///
    /// Replicas are tried home-first; `Down`/`Recovering` nodes and reads
    /// the fault plan transiently fails are skipped. A read served by a
    /// non-primary replica is a failover (charged remote). When no live
    /// replica can answer, the access is `unavailable` and the serving
    /// layer degrades (stale cache, then bootstrap prior).
    pub fn charge_user_read(&self, at: NodeId, uid: u64) -> UserAccess {
        let spike = self.latency_spike_us();
        let replicas = self.replica_nodes_of_user(uid);
        for (i, &node) in replicas.iter().enumerate() {
            if !self.is_up(node) || self.inject_read_failure() {
                continue;
            }
            let kind = if i > 0 {
                AccessKind::Failover
            } else if node == at {
                AccessKind::Local
            } else {
                AccessKind::Remote
            };
            let cost_us = self.charge(at, kind) + spike;
            let failover = kind == AccessKind::Failover;
            return UserAccess { kind, cost_us, failover, unavailable: false };
        }
        self.nodes[at].unavailable_reads.inc();
        UserAccess { kind: AccessKind::Remote, cost_us: spike, failover: false, unavailable: true }
    }

    /// Charges a write of a user's weights from node `at`: local when `at`
    /// is the first live replica (under `ByUser` routing and full health,
    /// the paper's "all writes are local"), remote otherwise. Returns the
    /// cost, or `None` when no replica is live — the write has nowhere to
    /// land, and the caller should buffer the update for redo.
    pub fn charge_user_write(&self, at: NodeId, uid: u64) -> Option<f64> {
        let first = *self.live_user_replicas(uid).first()?;
        let kind = if first == at { AccessKind::Local } else { AccessKind::Remote };
        Some(self.charge(at, kind))
    }

    /// Stores an item's features (placement is not a serving-path cost; no
    /// charge).
    pub fn put_item_features(&self, item_id: u64, features: Vec<f64>) {
        self.items.put(item_id, features.into());
    }

    /// Bulk-publishes a new item-feature table (offline retrain output):
    /// the table swaps atomically and every node's item cache is
    /// invalidated (§4.2: retraining "invalidates both prediction and
    /// feature caches").
    pub fn publish_item_features(&self, entries: Vec<(u64, Vec<f64>)>) {
        self.items.publish_version(entries.into_iter().map(|(id, x)| (id, x.into())).collect());
        for node in &self.nodes {
            node.item_cache.lock().unwrap().clear();
        }
    }

    /// Health-aware read of an item's features from serving node `at`:
    /// local replica → cache → fetch from the first live replica (which
    /// populates the cache). A fetch answered by a non-primary replica —
    /// or forced off the local replica by a fault — is a failover. When no
    /// live replica can answer (and the cache is cold), the result is
    /// `unavailable`.
    pub fn read_item_features(&self, at: NodeId, item_id: u64) -> ClusterRead {
        let spike = self.latency_spike_us();
        let replicas = self.replica_nodes_of_item(item_id);
        let at_is_replica = replicas.contains(&at);
        if at_is_replica && self.is_up(at) && !self.inject_read_failure() {
            let cost_us = self.charge(at, AccessKind::Local) + spike;
            return ClusterRead {
                value: self.items.get(item_id),
                kind: AccessKind::Local,
                cost_us,
                failover: false,
                unavailable: false,
            };
        }
        // Try the serving node's cache.
        {
            let mut cache = self.nodes[at].item_cache.lock().unwrap();
            if let Some(hit) = cache.get(&item_id) {
                let value = Arc::clone(hit);
                drop(cache);
                self.nodes[at].cache_hits.inc();
                let cost_us = self.charge(at, AccessKind::CacheHit) + spike;
                return ClusterRead {
                    value: Some(value),
                    kind: AccessKind::CacheHit,
                    cost_us,
                    failover: false,
                    unavailable: false,
                };
            }
        }
        self.nodes[at].cache_misses.inc();
        // Fetch from the first live replica; populate the cache on success —
        // but only if no publish replaced the table mid-fetch, otherwise a
        // pre-publish value could be re-inserted into a freshly cleared
        // cache and served stale until the next publish.
        for (i, &node) in replicas.iter().enumerate() {
            if !self.is_up(node) || self.inject_read_failure() {
                continue;
            }
            // Reaching the fetch loop at all means a local replica failed
            // (if `at` held one); a non-primary source is likewise a
            // failover rather than ordinary remote locality traffic.
            let kind =
                if i > 0 || at_is_replica { AccessKind::Failover } else { AccessKind::Remote };
            let cost_us = self.charge(at, kind) + spike;
            let version_before = self.items.version();
            let fetched = self.items.get(item_id);
            if let Some(ref features) = fetched {
                if self.items.version() == version_before {
                    self.nodes[at].item_cache.lock().unwrap().put(item_id, Arc::clone(features));
                }
            }
            return ClusterRead {
                value: fetched,
                kind,
                cost_us,
                failover: kind == AccessKind::Failover,
                unavailable: false,
            };
        }
        self.nodes[at].unavailable_reads.inc();
        ClusterRead {
            value: None,
            kind: AccessKind::Remote,
            cost_us: spike,
            failover: false,
            unavailable: true,
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> ClusterStats {
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeStats {
                requests_served: n.requests_served.get(),
                local_reads: n.local_reads.get(),
                remote_reads: n.remote_reads.get(),
                failover_reads: n.failover_reads.get(),
                unavailable_reads: n.unavailable_reads.get(),
                cache: n.item_cache.lock().unwrap().stats(),
                health: NodeHealth::decode(n.health.load(Ordering::Acquire)),
            })
            .collect();
        ClusterStats {
            nodes,
            virtual_read_us: self.virtual_read_nanos.load(Ordering::Relaxed) as f64 / 1000.0,
            unavailable_reads: self.nodes.iter().map(|n| n.unavailable_reads.get()).sum(),
            injected_read_failures: self.injected_read_failures.get(),
            injected_latency_spikes: self.injected_latency_spikes.get(),
        }
    }

    /// Resets all access counters (placements, health states, and cache
    /// contents stay).
    pub fn reset_stats(&self) {
        for n in &self.nodes {
            n.requests_served.reset();
            n.local_reads.reset();
            n.remote_reads.reset();
            n.cache_hits.reset();
            n.cache_misses.reset();
            n.failover_reads.reset();
            n.unavailable_reads.reset();
            n.item_cache.lock().unwrap().reset_stats();
        }
        self.virtual_read_nanos.store(0, Ordering::Relaxed);
        self.injected_read_failures.reset();
        self.injected_latency_spikes.reset();
    }

    /// Registers every node's counters with a metrics registry, labelled by
    /// node id: routed requests, local/remote read accounting, and
    /// item-cache hits and misses. The registry exposes the same atomics
    /// the serving path increments.
    pub fn register_metrics(&self, registry: &Registry) {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = i.to_string();
            let labels: [(&str, &str); 1] = [("node", id.as_str())];
            for (name, counter) in [
                ("velox_cluster_requests_total", &node.requests_served),
                ("velox_cluster_local_reads_total", &node.local_reads),
                ("velox_cluster_remote_reads_total", &node.remote_reads),
                ("velox_cluster_item_cache_hits_total", &node.cache_hits),
                ("velox_cluster_item_cache_misses_total", &node.cache_misses),
                ("velox_cluster_failover_reads_total", &node.failover_reads),
                ("velox_cluster_unavailable_reads_total", &node.unavailable_reads),
            ] {
                registry.register_counter(name, &labels, Arc::clone(counter));
            }
        }
        registry.register_counter(
            "velox_cluster_injected_read_failures_total",
            &[],
            Arc::clone(&self.injected_read_failures),
        );
        registry.register_counter(
            "velox_cluster_injected_latency_spikes_total",
            &[],
            Arc::clone(&self.injected_latency_spikes),
        );
        registry.register_counter(
            "velox_cluster_wrong_epoch_total",
            &[],
            Arc::clone(&self.wrong_epoch),
        );
    }
}

/// The simulator's side of the migration seam. The users' state is held
/// once by its owner, so nothing moves: a chunk step checks the link and
/// reports the users the census names, and the rollback and the reconcile
/// passes have nothing to do.
impl MigrationIo for Cluster {
    fn capacity(&self) -> usize {
        self.nodes.len()
    }

    fn node_up(&self, node: NodeId) -> bool {
        self.nodes.get(node).is_some_and(|n| n.health.load(Ordering::Acquire) == HEALTH_UP)
    }

    fn map(&self) -> Arc<PartitionMap> {
        Cluster::map(self)
    }

    fn install_map(&self, map: &Arc<PartitionMap>) {
        Cluster::install_map(self, Arc::clone(map));
    }

    fn migrations_enabled(&self) -> bool {
        self.rebalance_enabled()
    }

    fn stream_chunk(&self, p: u32, src: NodeId, dst: NodeId, cursor: u64) -> ChunkStep {
        if let Some(chaos) = self.migration_link_chaos.lock().unwrap().as_ref() {
            if chaos.is_partitioned(src as u32, dst as u32) {
                return ChunkStep::Abort(format!("checkpoint link partitioned ({src}<->{dst})"));
            }
        }
        let census = self.census.lock().unwrap().clone();
        let mut uids = census.map_or_else(Vec::new, |census| census(p));
        uids.retain(|&uid| uid >= cursor);
        uids.sort_unstable();
        let budget = match self.config.checkpoint_chunk_users {
            0 => usize::MAX,
            n => n,
        };
        let done = uids.len() <= budget;
        uids.truncate(budget);
        let next = uids.last().map_or(cursor, |uid| uid + 1);
        ChunkStep::Copied { next, users: uids.len() as u64, done }
    }

    fn scrub(&self, _p: u32, _dst: NodeId) {}

    fn replay_tail(&self, _p: u32, _src: NodeId, _dst: NodeId) -> Result<u64, String> {
        Ok(0)
    }
}

impl ControlPlane for Cluster {
    fn migrator(&self) -> &Migrator {
        &self.migrator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, routing: RoutingPolicy) -> Cluster {
        Cluster::new(ClusterConfig {
            n_nodes: n,
            routing,
            item_cache_capacity: 8,
            ..Default::default()
        })
    }

    #[test]
    fn user_reads_are_local_under_by_user_routing() {
        let c = cluster(4, RoutingPolicy::ByUser);
        for uid in 0..100u64 {
            let node = c.route_request(uid);
            let read = c.charge_user_read(node, uid);
            assert_eq!(read.kind, AccessKind::Local, "ByUser routing must make W reads local");
            assert_eq!(read.cost_us, LOCAL_READ_US);
        }
        assert_eq!(c.stats().local_fraction(), 1.0);
    }

    #[test]
    fn round_robin_routing_causes_remote_user_reads() {
        let c = cluster(4, RoutingPolicy::RoundRobin);
        for uid in 0..200u64 {
            let node = c.route_request(uid);
            let _ = c.charge_user_read(node, uid);
        }
        let frac = c.stats().local_fraction();
        // With 4 nodes, ~25% of random routes land on the home node.
        assert!(frac < 0.5, "round-robin should be mostly remote, got {frac}");
        assert!(frac > 0.05);
    }

    #[test]
    fn item_reads_local_on_home_node() {
        let c = cluster(2, RoutingPolicy::ByUser);
        c.put_item_features(7, vec![7.0]);
        let home = c.home_of_item(7);
        let read = c.read_item_features(home, 7);
        assert_eq!(read.value.unwrap().to_vec(), vec![7.0]);
        assert_eq!(read.kind, AccessKind::Local);
    }

    #[test]
    fn remote_item_read_populates_cache() {
        let c = cluster(2, RoutingPolicy::ByUser);
        c.put_item_features(7, vec![7.0]);
        let other = 1 - c.home_of_item(7);
        let first = c.read_item_features(other, 7);
        assert_eq!(first.kind, AccessKind::Remote);
        assert_eq!(first.cost_us, REMOTE_READ_US);
        let second = c.read_item_features(other, 7);
        assert_eq!(second.kind, AccessKind::CacheHit);
        assert_eq!(second.value.unwrap().to_vec(), vec![7.0]);
        assert!(second.cost_us < first.cost_us);
    }

    #[test]
    fn missing_item_is_remote_miss_without_cache_pollution() {
        let c = cluster(2, RoutingPolicy::ByUser);
        let other = 1 - c.home_of_item(99);
        let read = c.read_item_features(other, 99);
        assert!(read.value.is_none());
        assert_eq!(read.kind, AccessKind::Remote);
        // Still a miss next time (absence is not cached).
        assert_eq!(c.read_item_features(other, 99).kind, AccessKind::Remote);
    }

    #[test]
    fn publish_invalidates_caches_and_swaps_contents() {
        let c = cluster(2, RoutingPolicy::ByUser);
        c.put_item_features(1, vec![1.0]);
        let other = 1 - c.home_of_item(1);
        let _ = c.read_item_features(other, 1); // cache it remotely
        c.publish_item_features(vec![(1, vec![2.0])]);
        let read = c.read_item_features(other, 1);
        assert_eq!(read.value.unwrap().to_vec(), vec![2.0], "stale cache served after publish");
        assert_eq!(read.kind, AccessKind::Remote, "cache must have been invalidated");
    }

    #[test]
    fn user_writes_are_local_at_home() {
        let c = cluster(4, RoutingPolicy::ByUser);
        let uid = 5;
        let home = c.home_of_user(uid);
        for _ in 0..2 {
            assert_eq!(c.charge_user_write(home, uid), Some(LOCAL_READ_US));
        }
        assert_eq!(c.charge_user_write((home + 1) % 4, uid), Some(REMOTE_READ_US));
        c.kill_node(home);
        assert_eq!(c.charge_user_write(home, uid), None, "no live replica: nowhere to land");
    }

    #[test]
    fn load_imbalance_detects_hotspots() {
        let c = cluster(4, RoutingPolicy::ByUser);
        // All requests from one user → one node takes everything.
        for _ in 0..100 {
            c.route_request(7);
        }
        let imb = c.stats().load_imbalance();
        assert!((imb - 4.0).abs() < 1e-9, "one of four nodes has all load: {imb}");

        c.reset_stats();
        for uid in 0..10_000u64 {
            c.route_request(uid);
        }
        let imb = c.stats().load_imbalance();
        assert!(imb < 1.1, "hash routing should balance: {imb}");
    }

    #[test]
    fn replication_makes_item_reads_local_everywhere() {
        let c = Cluster::new(ClusterConfig {
            n_nodes: 4,
            item_replication: 4, // full replication
            ..Default::default()
        });
        for item in 0..50u64 {
            c.put_item_features(item, vec![item as f64]);
        }
        for node in 0..4 {
            for item in 0..50u64 {
                let read = c.read_item_features(node, item);
                assert_eq!(read.value.unwrap().to_vec(), vec![item as f64]);
                assert_eq!(read.kind, AccessKind::Local, "full replication: always local");
            }
        }
        assert_eq!(c.stats().local_fraction(), 1.0);
    }

    #[test]
    fn partial_replication_covers_replica_set_only() {
        let c =
            Cluster::new(ClusterConfig { n_nodes: 4, item_replication: 2, ..Default::default() });
        c.put_item_features(9, vec![9.0]);
        let replicas = c.replica_nodes_of_item(9);
        assert_eq!(replicas.len(), 2);
        for node in 0..4usize {
            let read = c.read_item_features(node, 9);
            assert_eq!(read.value.unwrap().to_vec(), vec![9.0]);
            if replicas.contains(&node) {
                assert_eq!(read.kind, AccessKind::Local, "replica node {node}");
            } else {
                assert_eq!(read.kind, AccessKind::Remote, "non-replica node {node}");
            }
        }
    }

    #[test]
    fn publish_updates_all_replicas() {
        let c =
            Cluster::new(ClusterConfig { n_nodes: 3, item_replication: 2, ..Default::default() });
        c.put_item_features(1, vec![1.0]);
        c.publish_item_features(vec![(1, vec![2.0])]);
        for node in c.replica_nodes_of_item(1) {
            let read = c.read_item_features(node, 1);
            assert_eq!(
                read.value.unwrap().to_vec(),
                vec![2.0],
                "replica {node} must see the new version"
            );
            assert_eq!(read.kind, AccessKind::Local);
        }
    }

    #[test]
    fn replication_clamps_to_node_count() {
        let c =
            Cluster::new(ClusterConfig { n_nodes: 2, item_replication: 10, ..Default::default() });
        let replicas = c.replica_nodes_of_item(5);
        assert_eq!(replicas.len(), 2);
        let mut sorted = replicas.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2, "replicas are distinct nodes");
    }

    #[test]
    fn virtual_time_accumulates() {
        let c = cluster(2, RoutingPolicy::ByUser);
        c.put_item_features(1, vec![1.0]);
        let other = 1 - c.home_of_item(1);
        let _ = c.read_item_features(other, 1); // remote: 300µs
        let home = c.home_of_item(1);
        let _ = c.read_item_features(home, 1); // local: 1µs
        let stats = c.stats();
        assert!((stats.virtual_read_us - 301.0).abs() < 1e-6, "{}", stats.virtual_read_us);
    }

    #[test]
    fn stats_reset() {
        let c = cluster(2, RoutingPolicy::ByUser);
        c.put_item_features(1, vec![1.0]);
        let node = c.route_request(1);
        let _ = c.charge_user_read(node, 1);
        c.reset_stats();
        let stats = c.stats();
        assert_eq!(stats.nodes.iter().map(|n| n.requests_served).sum::<u64>(), 0);
        assert_eq!(stats.virtual_read_us, 0.0);
        // Placements survive reset.
        assert_eq!(c.read_item_features(c.home_of_item(1), 1).value.unwrap().to_vec(), vec![1.0]);
    }

    fn replicated_cluster(n: usize, r: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            n_nodes: n,
            user_replication: r,
            item_replication: r,
            ..Default::default()
        })
    }

    #[test]
    fn kill_node_marks_down_and_reports_partitions_it_took() {
        let c = replicated_cluster(4, 2);
        c.kill_node(1);
        assert_eq!(c.node_health(1), NodeHealth::Down);
        assert_eq!(c.live_nodes(), 3);
        let transitions = c.take_transitions();
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].health, NodeHealth::Down);
        assert!(transitions[0].lost_partitions.is_empty(), "every partition kept a replica");
        assert!(!c.transitions_pending());

        // The partitions 1 shared with 2 have no replica left once 2 dies.
        c.kill_node(2);
        let map = c.map();
        let both = |p: u32| {
            let replicas = map.replicas_of_partition(p);
            replicas.contains(&1) && replicas.contains(&2)
        };
        let lost = c.take_transitions().remove(0).lost_partitions;
        assert!(!lost.is_empty());
        assert_eq!(lost, (0..map.n_partitions()).filter(|&p| both(p)).collect::<Vec<_>>());
    }

    #[test]
    fn failover_read_survives_single_node_loss() {
        let c = replicated_cluster(4, 2);
        c.kill_node(2);
        for uid in 0..200u64 {
            let at = c.route_request(uid);
            assert_ne!(at, 2, "requests must not route to a dead node");
            let read = c.charge_user_read(at, uid);
            assert!(!read.unavailable, "replication 2 must survive one loss");
            if c.home_of_user(uid) == 2 {
                assert!(read.failover, "home dead → replica must have answered");
            }
        }
        assert!(c.stats().failover_reads() > 0);
    }

    #[test]
    fn unreplicated_read_is_unavailable_when_home_dies() {
        let c = replicated_cluster(2, 1);
        let home = c.home_of_user(7);
        c.kill_node(home);
        let read = c.charge_user_read(1 - home, 7);
        assert!(read.unavailable);
        assert!(!c.user_partition_live(7));
        assert_eq!(c.stats().unavailable_reads, 1);
    }

    #[test]
    fn a_kill_drops_the_items_it_took_and_a_recovery_copies_nothing() {
        let c = replicated_cluster(4, 2);
        for item in 0..100u64 {
            c.put_item_features(item, vec![item as f64]);
        }
        let on_0_and_1 = |item: &u64| {
            let replicas = c.replica_nodes_of_item(*item);
            replicas.contains(&0) && replicas.contains(&1)
        };
        c.kill_node(0);
        assert_eq!(c.items.len(), 100, "every item kept a live replica");
        c.kill_node(1);
        let lost: Vec<u64> = (0..100u64).filter(on_0_and_1).collect();
        assert!(!lost.is_empty());
        assert_eq!(c.items.len(), 100 - lost.len(), "the items both replicas held are gone");
        c.recover_node(0);
        c.recover_node(1);
        assert_eq!(c.node_health(0), NodeHealth::Up);
        for &item in &lost {
            assert!(c.read_item_features(0, item).value.is_none(), "item {item} came back");
        }
        // Recovery journals the node Up; recovering an Up node is a no-op.
        assert_eq!(c.take_transitions().last().unwrap().health, NodeHealth::Up);
        c.recover_node(0);
        assert!(!c.transitions_pending());
        // The next publish restores them.
        c.publish_item_features((0..100u64).map(|i| (i, vec![i as f64])).collect());
        assert_eq!(c.read_item_features(0, lost[0]).value.unwrap().to_vec(), vec![lost[0] as f64]);
    }

    #[test]
    fn scheduled_faults_fire_on_the_request_clock() {
        let c = replicated_cluster(4, 2);
        c.install_fault_plan(FaultPlan::scripted(vec![
            crate::fault::FaultEvent { at_request: 10, node: 1, action: FaultAction::Kill },
            crate::fault::FaultEvent { at_request: 30, node: 1, action: FaultAction::Recover },
        ]));
        for i in 0..9u64 {
            c.route_request(i);
        }
        assert_eq!(c.live_nodes(), 4, "kill not due yet");
        c.route_request(9);
        assert_eq!(c.live_nodes(), 3, "kill fires at request 10");
        for i in 10..29u64 {
            c.route_request(i);
        }
        assert_eq!(c.live_nodes(), 3);
        c.route_request(29);
        assert_eq!(c.live_nodes(), 4, "recover fires at request 30");
        assert_eq!(c.request_clock(), 30);
    }

    #[test]
    fn join_and_rebalance_move_ownership_with_epoch_bumps() {
        let c = Cluster::new(ClusterConfig {
            n_nodes: 3,
            user_replication: 2,
            max_nodes: 4,
            ..Default::default()
        });
        assert_eq!(c.map_epoch(), 1);
        let new = c.join_node().unwrap();
        assert_eq!(new, 3);
        assert_eq!(c.map_epoch(), 2, "join bumps the epoch");
        assert_eq!(c.map().partitions_owned_by(new).len(), 0, "join moves no partition yet");

        let moved = c.rebalance_join(new).unwrap();
        assert_eq!(moved.len(), c.map().n_partitions() as usize / 4);
        assert_eq!(
            c.map_epoch(),
            2 + 2 * moved.len() as u64,
            "each migration is two epoch bumps (dual-write, cutover)"
        );
        assert_eq!(c.map().partitions_owned_by(new).len(), moved.len());

        // Every user is served by its current owner without failover.
        for uid in 0..500u64 {
            let at = c.route_request(uid);
            let read = c.charge_user_read(at, uid);
            assert_eq!(read.kind, AccessKind::Local, "uid {uid} after rebalance");
        }
        // No headroom left: a second join fails with a typed error.
        assert!(c.join_node().is_err());
    }

    #[test]
    fn wrong_epoch_is_rejected_until_refresh() {
        let c = Cluster::new(ClusterConfig {
            n_nodes: 2,
            user_replication: 2,
            max_nodes: 3,
            ..Default::default()
        });
        let stale = c.map_epoch();
        assert!(c.admit_epoch(stale).is_ok());
        c.join_node().unwrap();
        assert_eq!(c.admit_epoch(stale).unwrap_err(), stale + 1, "stale epoch rejected");
        assert_eq!(c.wrong_epoch_count(), 1);
        assert!(c.admit_epoch(c.map_epoch()).is_ok(), "refreshed epoch admitted");
        assert!(c.admit_epoch(0).is_ok(), "epoch 0 bypasses the check");
    }

    #[test]
    fn fail_over_dead_reowns_from_replicas_and_streams_the_census() {
        let c = replicated_cluster(3, 2);
        let salt = c.map().salt();
        let n_partitions = c.map().n_partitions() as usize;
        c.set_migration_census(move |p| {
            (0..300u64)
                .filter(|&uid| crate::partition::partition_index(uid, salt, n_partitions) == p)
                .collect()
        });
        c.kill_node(1);
        assert!(c.fail_over_dead(0).is_err(), "only a down node can be failed over");
        let streamed = c.fail_over_dead(1).unwrap();
        assert!(streamed > 0, "backfilled replicas stream their partitions' users");
        let map = c.map();
        assert!(!map.is_member(1));
        for p in 0..map.n_partitions() {
            assert_eq!(map.replicas_of_partition(p).len(), 2, "replication restored");
        }
        for uid in 0..300u64 {
            let at = c.route_request(uid);
            assert_ne!(at, 1);
            assert!(!c.charge_user_read(at, uid).unavailable, "uid {uid} after fail-over");
        }
    }

    #[test]
    fn injected_read_failures_force_failover_deterministically() {
        let run = |seed: u64| {
            let c = replicated_cluster(4, 2);
            c.install_fault_plan(FaultPlan {
                read_failure_prob: 0.3,
                latency_spike_prob: 0.2,
                seed,
                ..Default::default()
            });
            for uid in 0..100u64 {
                let at = c.route_request(uid);
                let _ = c.charge_user_read(at, uid);
            }
            let s = c.stats();
            (s.injected_read_failures, s.injected_latency_spikes, s.failover_reads())
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed → identical fault noise");
        assert!(a.0 > 0, "some reads must have been failed");
        assert!(a.1 > 0, "some spikes must have fired");
        let c = run(43);
        assert_ne!(a, c, "different seed → different noise");
    }
}
