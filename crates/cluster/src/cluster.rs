//! The simulated cluster: nodes, placed tables, caches, and cost accounting.
//!
//! A [`Cluster`] owns `n_nodes` simulated nodes. Two tables are placed
//! across them by salted hash partitioning:
//!
//! - `W` (user weights): owned by the user's home node; reads and writes
//!   performed at that node are local.
//! - item features (`θ` when materialized): owned by the item's home node;
//!   a read from another node is a *remote* read unless the reading node's
//!   LRU item cache holds it.
//!
//! Costs are virtual time: each access adds [`LOCAL_READ_US`] or
//! [`REMOTE_READ_US`] to the caller's [`AccessKind`]-tagged accounting and to
//! per-node counters. Nothing sleeps; experiments convert virtual
//! microseconds into reported latency. This keeps the ABL-PART / ABL-CACHE /
//! FIG4 experiments deterministic and fast while preserving the paper's
//! locality arguments exactly.

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
    /// Copies of each item's features across the cluster (≥ 1; clamped to
    /// the node count). The paper pairs partitioning with *replication* of
    /// the materialized feature tables (§3, §8): replicas turn remote item
    /// reads into local ones at the cost of `r×` memory and write fan-out
    /// during (infrequent) retrain publishes.
    pub item_replication: usize,
    /// Copies of each user's weight vector across the cluster (≥ 1;
    /// clamped to the node count). The paper replicates the materialized
    /// tables for fault tolerance (§3); extending that to `W` means a dead
    /// home partition degrades a user's reads to a replica instead of
    /// losing them. Online updates fan out to every live replica.
    pub user_replication: usize,
    /// Maximum nodes the cluster can ever hold (`0` = `n_nodes`, i.e. no
    /// headroom). Slots beyond `n_nodes` are pre-provisioned but start
    /// `Down` and outside the partition map; [`Cluster::join_node`] brings
    /// them into membership.
    pub max_nodes: usize,
    /// Users copied per checkpoint chunk during a partition migration
    /// (`0` = one unbounded chunk). Bounding the chunk keeps each transfer
    /// step small and gives the abort checks a place to fire.
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

/// Outcome of a health-aware table read.
#[derive(Debug, Clone)]
pub struct ClusterRead {
    /// The value, when any live replica held it.
    pub value: Option<Vec<f64>>,
    /// How the access was satisfied (meaningless when `unavailable`).
    pub kind: AccessKind,
    /// Virtual cost in microseconds (including any injected spike).
    pub cost_us: f64,
    /// True when the primary was unreachable and a replica answered.
    pub failover: bool,
    /// True when no live replica could serve the key; `value` is `None`.
    pub unavailable: bool,
}

/// One node: its shard of each table, its item cache, and counters.
struct Node {
    user_weights: Namespace<Vec<f64>>,
    item_features: Namespace<Vec<f64>>,
    item_cache: Mutex<LruCache<u64, Vec<f64>>>,
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
    /// Entries this node re-populated from survivors during recoveries.
    catch_up_entries: Arc<Counter>,
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
    /// Entries this node re-populated from survivors during recoveries.
    pub catch_up_entries: u64,
    /// Item-cache hit/miss/eviction counters.
    pub cache: (u64, u64, u64),
    /// Entries in this node's user-weight shard.
    pub users_owned: usize,
    /// Entries in this node's item-feature shard.
    pub items_owned: usize,
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
    /// Entries re-populated from surviving replicas across all recoveries.
    pub catch_up_entries: u64,
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
    item_part: HashPartitioner,
    router: Router,
    /// Epoch-stamped partition map — the single source of truth for user
    /// placement. Swapped atomically (whole-`Arc`) on every membership
    /// change.
    map: std::sync::RwLock<Arc<PartitionMap>>,
    /// Requests rejected because the caller presented a stale map epoch.
    wrong_epoch: Arc<Counter>,
    /// The membership/migration state machine; this cluster is its
    /// in-memory [`MigrationIo`].
    migrator: Migrator,
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
                user_weights: Namespace::new(format!("user_weights@{i}")),
                item_features: Namespace::new(format!("item_features@{i}")),
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
                catch_up_entries: Arc::new(Counter::new()),
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
            item_part,
            router,
            map: std::sync::RwLock::new(Arc::new(map)),
            wrong_epoch: Arc::new(Counter::new()),
            // Synchronous in-memory copies: no deadline unless a test
            // sets one, and no tracer of its own.
            migrator: Migrator::new(None, Tracer::disabled()),
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

    /// All nodes holding a copy of an item's features: the primary plus
    /// `item_replication − 1` successors on the bootstrap node ring (item
    /// placement does not participate in elastic membership; joined nodes
    /// fetch remotely and fill their caches).
    pub fn replica_nodes_of_item(&self, item_id: u64) -> Vec<NodeId> {
        let primary = self.home_of_item(item_id);
        let r = self.config.item_replication.clamp(1, self.config.n_nodes);
        (0..r).map(|k| (primary + k) % self.config.n_nodes).collect()
    }

    /// All nodes holding a copy of a user's weights, owner first, per the
    /// current partition map.
    pub fn replica_nodes_of_user(&self, uid: u64) -> Vec<NodeId> {
        self.map.read().unwrap().replicas_of(uid).to_vec()
    }

    /// Current health of a node.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        NodeHealth::decode(self.nodes[node].health.load(Ordering::Acquire))
    }

    /// Number of nodes currently `Up`.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.health.load(Ordering::Acquire) == HEALTH_UP).count()
    }

    /// Live (`Up`) replicas of a user's weights, failover order: home first.
    pub fn live_user_replicas(&self, uid: u64) -> Vec<NodeId> {
        self.replica_nodes_of_user(uid)
            .into_iter()
            .filter(|&n| self.node_health(n) == NodeHealth::Up)
            .collect()
    }

    fn set_health(&self, node: NodeId, health: NodeHealth, caught_up: u64) {
        self.nodes[node].health.store(health.encode(), Ordering::Release);
        self.transitions.lock().unwrap().push(HealthTransition { node, health, caught_up });
        self.transitions_pending.store(true, Ordering::Release);
    }

    /// Kills a node: shards wiped (the crash loses in-memory state), item
    /// cache cleared, health `Down`. Idempotent on an already-down node;
    /// a slot id outside the cluster is ignored.
    pub fn kill_node(&self, node: NodeId) {
        if node >= self.nodes.len() || self.node_health(node) == NodeHealth::Down {
            return;
        }
        self.nodes[node].user_weights.publish_version(Vec::new());
        self.nodes[node].item_features.publish_version(Vec::new());
        self.nodes[node].item_cache.lock().unwrap().clear();
        self.set_health(node, NodeHealth::Down, 0);
    }

    /// Recovers a dead node: marks it `Recovering`, re-populates every key
    /// whose replica set includes it from surviving `Up` replicas, then
    /// marks it `Up`. Returns the number of entries caught up. Keys with no
    /// surviving replica stay lost until the next write or publish (the
    /// serving layer degrades them). No-op on a node that is already `Up`.
    pub fn recover_node(&self, node: NodeId) -> u64 {
        if node >= self.nodes.len() || self.node_health(node) == NodeHealth::Up {
            return 0;
        }
        self.set_health(node, NodeHealth::Recovering, 0);
        let mut caught_up = 0u64;
        for (other_id, other) in self.nodes.iter().enumerate() {
            if other_id == node || other.health.load(Ordering::Acquire) != HEALTH_UP {
                continue;
            }
            for (uid, w) in other.user_weights.snapshot_entries() {
                if self.replica_nodes_of_user(uid).contains(&node)
                    && !self.nodes[node].user_weights.contains(uid)
                {
                    self.nodes[node].user_weights.put(uid, w);
                    caught_up += 1;
                }
            }
            for (item, feat) in other.item_features.snapshot_entries() {
                if self.replica_nodes_of_item(item).contains(&node)
                    && !self.nodes[node].item_features.contains(item)
                {
                    self.nodes[node].item_features.put(item, feat);
                    caught_up += 1;
                }
            }
        }
        self.nodes[node].catch_up_entries.add(caught_up);
        self.set_health(node, NodeHealth::Up, caught_up);
        caught_up
    }

    /// Brings the next pre-provisioned headroom slot into membership as a
    /// fresh, empty node (health `Up`, owning no partitions). Returns the
    /// new node id; fails when no headroom slot is left (`max_nodes`
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
        self.set_health(next_id, NodeHealth::Up, 0);
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
                FaultAction::Recover => {
                    self.recover_node(node);
                }
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
        if self.node_health(node) != NodeHealth::Up {
            node = self
                .replica_nodes_of_user(uid)
                .into_iter()
                .find(|&n| self.node_health(n) == NodeHealth::Up)
                .or_else(|| (0..self.nodes.len()).find(|&n| self.node_health(n) == NodeHealth::Up))
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

    /// Stores a user's weight vector at every replica node that is not
    /// `Down` (placement is not a serving-path cost; no charge).
    pub fn put_user_weights(&self, uid: u64, w: Vec<f64>) {
        for node in self.replica_nodes_of_user(uid) {
            if self.node_health(node) != NodeHealth::Down {
                self.nodes[node].user_weights.put(uid, w.clone());
            }
        }
    }

    /// Health-aware read of a user's weights from serving node `at`.
    ///
    /// Replicas are tried home-first; `Down`/`Recovering` nodes and reads
    /// the fault plan transiently fails are skipped. A read served by a
    /// non-primary replica is a failover (charged remote). When no live
    /// replica can answer, the result is `unavailable` and the serving
    /// layer degrades (stale cache, then bootstrap prior).
    pub fn read_user_weights(&self, at: NodeId, uid: u64) -> ClusterRead {
        let spike = self.latency_spike_us();
        let replicas = self.replica_nodes_of_user(uid);
        for (i, &node) in replicas.iter().enumerate() {
            if self.node_health(node) != NodeHealth::Up || self.inject_read_failure() {
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
            return ClusterRead {
                value: self.nodes[node].user_weights.get(uid),
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

    /// Applies an in-place update to a user's weights (upserting an empty
    /// vector when absent), fanning the result out to every live
    /// replica. Under `ByUser` routing and full health this is the paper's
    /// "all writes are local" property; when `at` differs from the serving
    /// replica the write is charged as remote. Returns `None` when no live
    /// replica exists — the caller should buffer the update for redo.
    pub fn try_update_user_weights<F>(&self, at: NodeId, uid: u64, f: F) -> Option<f64>
    where
        F: FnOnce(&mut Vec<f64>),
    {
        let live = self.live_user_replicas(uid);
        let (&first, rest) = live.split_first()?;
        let kind = if first == at { AccessKind::Local } else { AccessKind::Remote };
        let cost = self.charge(at, kind);
        self.nodes[first].user_weights.update_with(uid, Vec::new, f);
        if !rest.is_empty() {
            if let Some(w) = self.nodes[first].user_weights.get(uid) {
                for &node in rest {
                    self.nodes[node].user_weights.put(uid, w.clone());
                }
            }
        }
        Some(cost)
    }

    /// Bulk-publishes a new user-weight table (offline retrain output):
    /// contents are re-partitioned across each user's replica set and each
    /// node's shard swaps atomically. `Down` nodes get an empty shard —
    /// their state is whatever recovery later copies back.
    pub fn publish_user_weights(&self, entries: Vec<(u64, Vec<f64>)>) {
        let mut per_node: Vec<Vec<(u64, Vec<f64>)>> =
            (0..self.nodes.len()).map(|_| Vec::new()).collect();
        for (uid, w) in entries {
            for node in self.replica_nodes_of_user(uid) {
                per_node[node].push((uid, w.clone()));
            }
        }
        for ((id, node), mut shard) in self.nodes.iter().enumerate().zip(per_node) {
            if self.node_health(id) == NodeHealth::Down {
                shard = Vec::new();
            }
            node.user_weights.publish_version(shard);
        }
    }

    /// Management-plane read of a user's weights — no routing, no cost
    /// accounting; falls back across replicas so a dead home node does not
    /// hide a surviving copy. Serving paths use
    /// [`Cluster::read_user_weights`] instead.
    pub fn peek_user_weights(&self, uid: u64) -> Option<Vec<f64>> {
        self.replica_nodes_of_user(uid)
            .into_iter()
            .find_map(|node| self.nodes[node].user_weights.get(uid))
    }

    /// Exports the entire user-weight table across all shards — the
    /// management-plane snapshot offline retraining warm-starts from.
    /// Replicated entries are deduplicated (first copy wins; replicas are
    /// kept in sync by the write fan-out).
    pub fn export_user_weights(&self) -> Vec<(u64, Vec<f64>)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for node in &self.nodes {
            for (uid, w) in node.user_weights.snapshot_entries() {
                if seen.insert(uid) {
                    out.push((uid, w));
                }
            }
        }
        out
    }

    /// Stores an item's feature vector at every replica node.
    pub fn put_item_features(&self, item_id: u64, features: Vec<f64>) {
        for node in self.replica_nodes_of_item(item_id) {
            self.nodes[node].item_features.put(item_id, features.clone());
        }
    }

    /// Bulk-publishes a new item-feature table (offline retrain output):
    /// contents are re-partitioned, each node's shard swaps atomically, and
    /// every node's item cache is invalidated (§4.2: retraining
    /// "invalidates both prediction and feature caches").
    pub fn publish_item_features(&self, entries: Vec<(u64, Vec<f64>)>) {
        let mut per_node: Vec<Vec<(u64, Vec<f64>)>> =
            (0..self.nodes.len()).map(|_| Vec::new()).collect();
        for (item, feat) in entries {
            for node in self.replica_nodes_of_item(item) {
                per_node[node].push((item, feat.clone()));
            }
        }
        for (node, shard) in self.nodes.iter().zip(per_node) {
            node.item_features.publish_version(shard);
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
        if at_is_replica && self.node_health(at) == NodeHealth::Up && !self.inject_read_failure() {
            let cost_us = self.charge(at, AccessKind::Local) + spike;
            return ClusterRead {
                value: self.nodes[at].item_features.get(item_id),
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
                let value = hit.clone();
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
        // but only if no publish invalidated the table mid-fetch, otherwise
        // a pre-publish value could be re-inserted into a freshly cleared
        // cache and served stale until the next publish.
        for (i, &node) in replicas.iter().enumerate() {
            if self.node_health(node) != NodeHealth::Up || self.inject_read_failure() {
                continue;
            }
            // Reaching the fetch loop at all means a local replica failed
            // (if `at` held one); a non-primary source is likewise a
            // failover rather than ordinary remote locality traffic.
            let kind =
                if i > 0 || at_is_replica { AccessKind::Failover } else { AccessKind::Remote };
            let cost_us = self.charge(at, kind) + spike;
            let version_before = self.nodes[node].item_features.version();
            let fetched = self.nodes[node].item_features.get(item_id);
            if let Some(ref features) = fetched {
                if self.nodes[node].item_features.version() == version_before {
                    self.nodes[at].item_cache.lock().unwrap().put(item_id, features.clone());
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
                catch_up_entries: n.catch_up_entries.get(),
                cache: n.item_cache.lock().unwrap().stats(),
                users_owned: n.user_weights.len(),
                items_owned: n.item_features.len(),
                health: NodeHealth::decode(n.health.load(Ordering::Acquire)),
            })
            .collect();
        ClusterStats {
            nodes,
            virtual_read_us: self.virtual_read_nanos.load(Ordering::Relaxed) as f64 / 1000.0,
            unavailable_reads: self.nodes.iter().map(|n| n.unavailable_reads.get()).sum(),
            catch_up_entries: self.nodes.iter().map(|n| n.catch_up_entries.get()).sum(),
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
            n.catch_up_entries.reset();
            n.item_cache.lock().unwrap().reset_stats();
        }
        self.virtual_read_nanos.store(0, Ordering::Relaxed);
        self.injected_read_failures.reset();
        self.injected_latency_spikes.reset();
    }

    /// Registers every node's counters with a metrics registry, labelled by
    /// node id: routed requests, local/remote read accounting, item-cache
    /// hits and misses, and the shard tables' raw KV read/write counters.
    /// The registry exposes the same atomics the serving path increments.
    pub fn register_metrics(&self, registry: &Registry) {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = i.to_string();
            let labels: [(&str, &str); 1] = [("node", id.as_str())];
            registry.register_counter(
                "velox_cluster_requests_total",
                &labels,
                Arc::clone(&node.requests_served),
            );
            registry.register_counter(
                "velox_cluster_local_reads_total",
                &labels,
                Arc::clone(&node.local_reads),
            );
            registry.register_counter(
                "velox_cluster_remote_reads_total",
                &labels,
                Arc::clone(&node.remote_reads),
            );
            registry.register_counter(
                "velox_cluster_item_cache_hits_total",
                &labels,
                Arc::clone(&node.cache_hits),
            );
            registry.register_counter(
                "velox_cluster_item_cache_misses_total",
                &labels,
                Arc::clone(&node.cache_misses),
            );
            registry.register_counter(
                "velox_cluster_failover_reads_total",
                &labels,
                Arc::clone(&node.failover_reads),
            );
            registry.register_counter(
                "velox_cluster_unavailable_reads_total",
                &labels,
                Arc::clone(&node.unavailable_reads),
            );
            registry.register_counter(
                "velox_cluster_catch_up_entries_total",
                &labels,
                Arc::clone(&node.catch_up_entries),
            );
            for ns in [&node.user_weights, &node.item_features] {
                let table_labels: [(&str, &str); 2] = [("node", id.as_str()), ("table", ns.name())];
                registry.register_counter(
                    "velox_kv_reads_total",
                    &table_labels,
                    ns.reads_counter(),
                );
                registry.register_counter(
                    "velox_kv_writes_total",
                    &table_labels,
                    ns.writes_counter(),
                );
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

/// The simulator's side of the migration seam: in-memory copies between
/// node shards.
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
        let map = Cluster::map(self);
        let (from, to) = (&self.nodes[src].user_weights, &self.nodes[dst]);
        let mut uids = from.keys();
        uids.retain(|&uid| uid >= cursor && map.partition_of(uid) == p);
        uids.sort_unstable();
        let budget = match self.config.checkpoint_chunk_users {
            0 => usize::MAX,
            n => n,
        };
        let done = uids.len() <= budget;
        uids.truncate(budget);
        for &uid in &uids {
            // Only this chunk's vectors are cloned, never the whole shard.
            if let (false, Some(w)) = (to.user_weights.contains(uid), from.get(uid)) {
                to.user_weights.put(uid, w);
                to.catch_up_entries.inc();
            }
        }
        let next = uids.last().map_or(cursor, |uid| uid + 1);
        ChunkStep::Copied { next, users: uids.len() as u64, done }
    }

    fn scrub(&self, p: u32, dst: NodeId) {
        let map = Cluster::map(self);
        let shard = &self.nodes[dst].user_weights;
        for uid in shard.keys() {
            if map.partition_of(uid) == p && !map.holds(dst, uid) {
                shard.remove(uid);
            }
        }
    }

    /// The source stayed authoritative throughout, so its current values
    /// simply overwrite the destination's.
    fn replay_tail(&self, p: u32, src: NodeId, dst: NodeId) -> Result<u64, String> {
        let map = Cluster::map(self);
        let mut replayed = 0u64;
        for (uid, w) in self.nodes[src].user_weights.snapshot_entries() {
            if map.partition_of(uid) == p {
                self.nodes[dst].user_weights.put(uid, w);
                replayed += 1;
            }
        }
        Ok(replayed)
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
    fn user_weights_round_trip_locally_under_by_user_routing() {
        let c = cluster(4, RoutingPolicy::ByUser);
        for uid in 0..100u64 {
            c.put_user_weights(uid, vec![uid as f64]);
        }
        for uid in 0..100u64 {
            let node = c.route_request(uid);
            let read = c.read_user_weights(node, uid);
            assert_eq!(read.value.unwrap(), vec![uid as f64]);
            assert_eq!(read.kind, AccessKind::Local, "ByUser routing must make W reads local");
            assert_eq!(read.cost_us, LOCAL_READ_US);
        }
        assert_eq!(c.stats().local_fraction(), 1.0);
    }

    #[test]
    fn round_robin_routing_causes_remote_user_reads() {
        let c = cluster(4, RoutingPolicy::RoundRobin);
        for uid in 0..200u64 {
            c.put_user_weights(uid, vec![1.0]);
        }
        for uid in 0..200u64 {
            let node = c.route_request(uid);
            let _ = c.read_user_weights(node, uid);
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
        assert_eq!(read.value.unwrap(), vec![7.0]);
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
        assert_eq!(second.value.unwrap(), vec![7.0]);
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
        assert_eq!(read.value.unwrap(), vec![2.0], "stale cache served after publish");
        assert_eq!(read.kind, AccessKind::Remote, "cache must have been invalidated");
    }

    #[test]
    fn update_user_weights_is_local_at_home() {
        let c = cluster(4, RoutingPolicy::ByUser);
        let uid = 5;
        let home = c.home_of_user(uid);
        c.put_user_weights(uid, vec![0.0]);
        for _ in 0..2 {
            let cost = c.try_update_user_weights(home, uid, |w| w[0] += 1.0);
            assert_eq!(cost, Some(LOCAL_READ_US));
        }
        assert_eq!(c.read_user_weights(home, uid).value.unwrap(), vec![2.0]);
        let stats = c.stats();
        assert_eq!(stats.nodes.iter().map(|n| n.remote_reads).sum::<u64>(), 0);
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
                assert_eq!(read.value.unwrap(), vec![item as f64]);
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
            assert_eq!(read.value.unwrap(), vec![9.0]);
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
            assert_eq!(read.value.unwrap(), vec![2.0], "replica {node} must see the new version");
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
        c.put_user_weights(1, vec![1.0]);
        let node = c.route_request(1);
        let _ = c.read_user_weights(node, 1);
        c.reset_stats();
        let stats = c.stats();
        assert_eq!(stats.nodes.iter().map(|n| n.requests_served).sum::<u64>(), 0);
        assert_eq!(stats.virtual_read_us, 0.0);
        // Ownership survives reset.
        assert_eq!(stats.nodes.iter().map(|n| n.users_owned).sum::<usize>(), 1);
    }

    #[test]
    fn ownership_counts_partition_everything() {
        let c = cluster(8, RoutingPolicy::ByUser);
        for uid in 0..1000 {
            c.put_user_weights(uid, vec![]);
        }
        for item in 0..500 {
            c.put_item_features(item, vec![]);
        }
        let stats = c.stats();
        assert_eq!(stats.nodes.iter().map(|n| n.users_owned).sum::<usize>(), 1000);
        assert_eq!(stats.nodes.iter().map(|n| n.items_owned).sum::<usize>(), 500);
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
    fn user_replication_fans_out_writes() {
        let c = replicated_cluster(4, 2);
        c.put_user_weights(3, vec![3.0]);
        let replicas = c.replica_nodes_of_user(3);
        assert_eq!(replicas.len(), 2);
        for &node in &replicas {
            assert_eq!(c.nodes[node].user_weights.get(3).unwrap(), vec![3.0]);
        }
        c.try_update_user_weights(replicas[0], 3, |w| w[0] = 9.0).unwrap();
        for &node in &replicas {
            assert_eq!(c.nodes[node].user_weights.get(3).unwrap(), vec![9.0], "replica {node}");
        }
    }

    #[test]
    fn kill_node_wipes_state_and_marks_down() {
        let c = replicated_cluster(4, 2);
        for uid in 0..100u64 {
            c.put_user_weights(uid, vec![uid as f64]);
        }
        c.kill_node(1);
        assert_eq!(c.node_health(1), NodeHealth::Down);
        assert_eq!(c.live_nodes(), 3);
        assert_eq!(c.nodes[1].user_weights.len(), 0, "crash loses in-memory state");
        let transitions = c.take_transitions();
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].health, NodeHealth::Down);
        assert!(!c.transitions_pending());
    }

    #[test]
    fn failover_read_survives_single_node_loss() {
        let c = replicated_cluster(4, 2);
        for uid in 0..200u64 {
            c.put_user_weights(uid, vec![uid as f64]);
        }
        c.kill_node(2);
        for uid in 0..200u64 {
            let at = c.route_request(uid);
            assert_ne!(at, 2, "requests must not route to a dead node");
            let read = c.read_user_weights(at, uid);
            assert!(!read.unavailable, "replication 2 must survive one loss");
            assert_eq!(read.value.unwrap(), vec![uid as f64]);
            if c.home_of_user(uid) == 2 {
                assert!(read.failover, "home dead → replica must have answered");
            }
        }
        assert!(c.stats().failover_reads() > 0);
    }

    #[test]
    fn unreplicated_read_is_unavailable_when_home_dies() {
        let c = replicated_cluster(2, 1);
        c.put_user_weights(7, vec![7.0]);
        let home = c.home_of_user(7);
        c.kill_node(home);
        let read = c.read_user_weights(1 - home, 7);
        assert!(read.unavailable);
        assert!(read.value.is_none());
        assert_eq!(c.stats().unavailable_reads, 1);
    }

    #[test]
    fn recovery_catches_up_from_survivors() {
        let c = replicated_cluster(4, 2);
        for uid in 0..300u64 {
            c.put_user_weights(uid, vec![uid as f64]);
        }
        for item in 0..100u64 {
            c.put_item_features(item, vec![item as f64]);
        }
        c.kill_node(0);
        let caught_up = c.recover_node(0);
        assert!(caught_up > 0, "node 0 must re-populate from surviving replicas");
        assert_eq!(c.node_health(0), NodeHealth::Up);
        assert_eq!(c.stats().catch_up_entries, caught_up);
        // Every user whose replica set includes node 0 is back.
        for uid in 0..300u64 {
            if c.replica_nodes_of_user(uid).contains(&0) {
                assert_eq!(c.nodes[0].user_weights.get(uid).unwrap(), vec![uid as f64]);
            }
        }
        // Recovery journals Recovering → Up with the catch-up count.
        let transitions = c.take_transitions();
        let last = transitions.last().unwrap();
        assert_eq!(last.health, NodeHealth::Up);
        assert_eq!(last.caught_up, caught_up);
        // Idempotent: recovering an Up node is a no-op.
        assert_eq!(c.recover_node(0), 0);
    }

    #[test]
    fn scheduled_faults_fire_on_the_request_clock() {
        let c = replicated_cluster(4, 2);
        for uid in 0..50u64 {
            c.put_user_weights(uid, vec![1.0]);
        }
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
        for uid in 0..500u64 {
            c.put_user_weights(uid, vec![uid as f64]);
        }
        assert_eq!(c.map_epoch(), 1);
        let new = c.join_node().unwrap();
        assert_eq!(new, 3);
        assert_eq!(c.map_epoch(), 2, "join bumps the epoch");
        assert_eq!(c.map().partitions_owned_by(new).len(), 0, "join moves no data yet");

        let moved = c.rebalance_join(new).unwrap();
        assert_eq!(moved.len(), c.map().n_partitions() as usize / 4);
        assert_eq!(
            c.map_epoch(),
            2 + 2 * moved.len() as u64,
            "each migration is two epoch bumps (dual-write, cutover)"
        );
        assert_eq!(c.map().partitions_owned_by(new).len(), moved.len());

        // Every user still reads its exact weights, served by the current
        // owner without failover.
        for uid in 0..500u64 {
            let at = c.route_request(uid);
            let read = c.read_user_weights(at, uid);
            assert_eq!(read.value.unwrap(), vec![uid as f64], "uid {uid} after rebalance");
            assert!(!read.failover, "owner must hold the data post-migration");
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
    fn fail_over_dead_reowns_from_replicas_and_backfills() {
        let c = replicated_cluster(3, 2);
        for uid in 0..300u64 {
            c.put_user_weights(uid, vec![uid as f64]);
        }
        c.kill_node(1);
        assert!(c.fail_over_dead(0).is_err(), "only a down node can be failed over");
        let copied = c.fail_over_dead(1).unwrap();
        assert!(copied > 0, "backfilled replicas must copy state");
        let map = c.map();
        assert!(!map.is_member(1));
        for p in 0..map.n_partitions() {
            assert_eq!(map.replicas_of_partition(p).len(), 2, "replication restored");
        }
        for uid in 0..300u64 {
            let at = c.route_request(uid);
            assert_ne!(at, 1);
            let read = c.read_user_weights(at, uid);
            assert!(!read.unavailable);
            assert_eq!(read.value.unwrap(), vec![uid as f64], "uid {uid} after fail-over");
        }
    }

    #[test]
    fn injected_read_failures_force_failover_deterministically() {
        let run = |seed: u64| {
            let c = replicated_cluster(4, 2);
            for uid in 0..100u64 {
                c.put_user_weights(uid, vec![1.0]);
            }
            c.install_fault_plan(FaultPlan {
                read_failure_prob: 0.3,
                latency_spike_prob: 0.2,
                seed,
                ..Default::default()
            });
            for uid in 0..100u64 {
                let at = c.route_request(uid);
                let _ = c.read_user_weights(at, uid);
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
