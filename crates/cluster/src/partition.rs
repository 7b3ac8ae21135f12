//! Hash partitioning, epoch-stamped partition maps, and request routing.
//!
//! Users and items are assigned home nodes by a salted multiplicative hash,
//! so entity id patterns (sequential uids, hot low ids) do not skew
//! placement. The [`RoutingPolicy`] decides which node *serves* a request:
//! `ByUser` is the paper's design (requests routed to the user's home
//! node); `RoundRobin` is the ablation baseline that destroys locality.
//!
//! Elastic membership is layered on top as a [`PartitionMap`]: user ids
//! hash onto a fixed set of virtual partitions ([`PARTITIONS_PER_NODE`] ×
//! the bootstrap node count), and the map assigns each partition an owner
//! and a replica set. The map is immutable and epoch-stamped — every
//! membership change (join, cutover, fail-over) produces a *new* map with
//! `epoch + 1`, so routers and clients can detect staleness by comparing
//! epochs (`WrongEpoch` rejection + refresh) instead of serving from a map
//! that silently drifted. The bootstrap map reproduces the plain
//! [`HashPartitioner`] placement bit-for-bit (owner of partition `p` is
//! `p % n`, and `(z mod 16n) mod n == z mod n`), so a cluster that never
//! rebalances routes exactly as before.

use velox_data::rng::splitmix64;

/// Identifies a node in the simulated cluster.
pub type NodeId = usize;

/// Salt for the user partitioner. Every backend (simulator, TCP runtime)
/// must hash users identically or routing and replica placement disagree.
pub const USER_SALT: u64 = 0x5EED_0001;

/// Salt for the item partitioner (decorrelated from [`USER_SALT`]).
pub const ITEM_SALT: u64 = 0x5EED_0002;

/// Virtual partitions allocated per bootstrap node. A joining node takes
/// over whole virtual partitions, so a finer grain (more partitions per
/// node) moves less data per migration step at the cost of map size.
pub const PARTITIONS_PER_NODE: usize = 16;

/// Typed errors from partitioner and partition-map constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A partitioner or map was requested over zero nodes.
    NoNodes,
    /// A node id is not a member of the map.
    NotAMember(NodeId),
    /// A cutover target is not in the partition's replica set, so it
    /// cannot have the data needed to take ownership.
    NotAReplica {
        /// The partition being cut over.
        partition: u32,
        /// The intended new owner.
        node: NodeId,
    },
    /// Every replica of a partition is gone; ownership cannot move.
    NoSurvivingReplica(u32),
    /// A decoded or assembled map failed structural validation.
    InvalidMap(String),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoNodes => write!(f, "cluster needs at least one node"),
            PartitionError::NotAMember(n) => write!(f, "node {n} is not a member"),
            PartitionError::NotAReplica { partition, node } => {
                write!(f, "node {node} is not a replica of partition {partition}")
            }
            PartitionError::NoSurvivingReplica(p) => {
                write!(f, "partition {p} has no surviving replica")
            }
            PartitionError::InvalidMap(why) => write!(f, "invalid partition map: {why}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Typed errors from membership operations (`rebalance_join`,
/// `fail_over_dead`, `migrate_partition`, kill/recover). These are
/// *caller* mistakes or refused preconditions — REST surfaces them as
/// 4xx — except [`MembershipError::Failed`], the one backend fault. A
/// [`PartitionError`] covers structurally invalid maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// The node id is outside the cluster's slot range entirely.
    UnknownNode {
        /// The offending id.
        node: NodeId,
        /// Total slots (valid ids are `0..capacity`).
        capacity: usize,
    },
    /// The node is already a member (join/backfill would be a no-op).
    AlreadyMember(NodeId),
    /// The node is not a member of the current map.
    NotAMember(NodeId),
    /// Fail-over was requested for a node that is still up.
    NotDown(NodeId),
    /// The auto-rebalance kill switch is off (operator disabled it).
    RebalanceDisabled,
    /// Another migration is already in flight (at-most-one policy).
    MigrationInFlight,
    /// A migration aborted and rolled back; the reason names the trigger
    /// (operator cancel, deadline, source/destination death, link fault).
    Aborted(String),
    /// A migration broke past its commit point, or a fail-over backfill
    /// could not complete: the map already moved and the cluster rolls
    /// forward, so unlike every other variant this is a backend fault
    /// (5xx), not a refused request.
    Failed(String),
    /// The underlying map transition was structurally invalid.
    Map(PartitionError),
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::UnknownNode { node, capacity } => {
                write!(f, "unknown node {node} (valid slots are 0..{capacity})")
            }
            MembershipError::AlreadyMember(n) => write!(f, "node {n} is already a member"),
            MembershipError::NotAMember(n) => write!(f, "node {n} is not a member"),
            MembershipError::NotDown(n) => {
                write!(f, "node {n} is not down (refusing to fail over a live member)")
            }
            MembershipError::RebalanceDisabled => {
                write!(f, "rebalance is disabled by the kill switch")
            }
            MembershipError::MigrationInFlight => {
                write!(f, "another migration is already in flight")
            }
            MembershipError::Aborted(reason) => {
                write!(f, "migration aborted: {reason}")
            }
            MembershipError::Failed(why) => write!(f, "{why}"),
            MembershipError::Map(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MembershipError {}

impl From<PartitionError> for MembershipError {
    fn from(e: PartitionError) -> Self {
        match e {
            PartitionError::NotAMember(n) => MembershipError::NotAMember(n),
            other => MembershipError::Map(other),
        }
    }
}

/// Salted hash partitioner mapping entity ids to nodes.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    n_nodes: usize,
    salt: u64,
}

/// The salted splitmix64 hash shared by [`HashPartitioner`] and
/// [`PartitionMap`]: the first output of a splitmix64 stream seeded with
/// `id ^ salt`. Every backend must hash identically or routing and replica
/// placement disagree.
#[inline]
fn mix(id: u64, salt: u64) -> u64 {
    let mut state = id ^ salt;
    splitmix64(&mut state)
}

/// Virtual partition of `id` among `n_partitions` — [`PartitionMap`]'s
/// placement, shared with the user store's shard choice.
#[inline]
pub(crate) fn partition_index(id: u64, salt: u64, n_partitions: usize) -> u32 {
    (mix(id, salt) % n_partitions as u64) as u32
}

impl HashPartitioner {
    /// Creates a partitioner over `n_nodes` with a salt decorrelating it
    /// from other partitioners (e.g. users vs. items). Returns
    /// [`PartitionError::NoNodes`] for an empty cluster.
    pub fn new(n_nodes: usize, salt: u64) -> Result<Self, PartitionError> {
        if n_nodes == 0 {
            return Err(PartitionError::NoNodes);
        }
        Ok(HashPartitioner { n_nodes, salt })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Home node of an entity.
    #[inline]
    pub fn node_for(&self, id: u64) -> NodeId {
        (mix(id, self.salt) % self.n_nodes as u64) as NodeId
    }
}

/// How incoming requests are assigned to serving nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Route each request to the home node of its user — the paper's
    /// intelligent routing: `wᵤ` reads and online updates are always local.
    ByUser,
    /// Spray requests across nodes ignoring data placement — the ablation
    /// baseline (every user-weight read is a potential remote fetch).
    RoundRobin,
}

/// A stateful router applying a [`RoutingPolicy`].
#[derive(Debug)]
pub struct Router {
    policy: RoutingPolicy,
    partitioner: HashPartitioner,
    rr_next: std::sync::atomic::AtomicUsize,
}

impl Router {
    /// Creates a router over the user partitioner.
    pub fn new(policy: RoutingPolicy, partitioner: HashPartitioner) -> Self {
        Router { policy, partitioner, rr_next: std::sync::atomic::AtomicUsize::new(0) }
    }

    /// The active policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Chooses the serving node for a request from `uid`.
    pub fn route(&self, uid: u64) -> NodeId {
        match self.policy {
            RoutingPolicy::ByUser => self.partitioner.node_for(uid),
            RoutingPolicy::RoundRobin => {
                self.rr_next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    % self.partitioner.n_nodes()
            }
        }
    }
}

/// An epoch-stamped assignment of virtual partitions to nodes.
///
/// The map is the single source of truth for ownership: the front routes
/// with it, nodes decide `holds_user` / ship targets from it, and every
/// request carries the sender's map epoch so a stale sender is rejected
/// (`WrongEpoch`) instead of silently writing to the wrong owner. Maps
/// are immutable; membership changes go through the `with_*` builders,
/// each of which returns a new map at `epoch + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMap {
    epoch: u64,
    salt: u64,
    replication: usize,
    /// Sorted, deduplicated member node ids.
    members: Vec<NodeId>,
    /// Owner per partition; `owners[p] == replicas[p][0]`.
    owners: Vec<NodeId>,
    /// Full replica set per partition, owner first.
    replicas: Vec<Vec<NodeId>>,
}

impl PartitionMap {
    /// The bootstrap map for `n_nodes` nodes at `replication` copies per
    /// partition. Placement is bit-identical to
    /// [`HashPartitioner::node_for`] over `n_nodes`: there are
    /// [`PARTITIONS_PER_NODE`]` × n_nodes` partitions, partition `p` is
    /// owned by `p % n_nodes`, and replicas are the ring successors.
    pub fn bootstrap(
        n_nodes: usize,
        replication: usize,
        salt: u64,
    ) -> Result<PartitionMap, PartitionError> {
        if n_nodes == 0 {
            return Err(PartitionError::NoNodes);
        }
        let n_partitions = PARTITIONS_PER_NODE * n_nodes;
        let r = replication.clamp(1, n_nodes);
        let owners: Vec<NodeId> = (0..n_partitions).map(|p| p % n_nodes).collect();
        let replicas =
            owners.iter().map(|&o| (0..r).map(|k| (o + k) % n_nodes).collect()).collect();
        Ok(PartitionMap {
            // Epoch 1, not 0: on the wire epoch 0 means "no epoch attached,
            // skip the staleness check", so a real map must never carry it.
            epoch: 1,
            salt,
            replication: r,
            members: (0..n_nodes).collect(),
            owners,
            replicas,
        })
    }

    /// Reassembles a map from its parts (the wire decode path), validating
    /// structure: members sorted/deduped/nonempty, one replica set per
    /// partition with the owner first, and every referenced node a member.
    pub fn from_parts(
        epoch: u64,
        salt: u64,
        replication: usize,
        members: Vec<NodeId>,
        owners: Vec<NodeId>,
        replicas: Vec<Vec<NodeId>>,
    ) -> Result<PartitionMap, PartitionError> {
        if members.is_empty() {
            return Err(PartitionError::NoNodes);
        }
        if members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PartitionError::InvalidMap("members not sorted/deduped".into()));
        }
        if owners.is_empty() || owners.len() != replicas.len() {
            return Err(PartitionError::InvalidMap("owners/replicas length mismatch".into()));
        }
        if replication == 0 {
            return Err(PartitionError::InvalidMap("zero replication".into()));
        }
        for (p, set) in replicas.iter().enumerate() {
            if set.is_empty() {
                return Err(PartitionError::InvalidMap(format!("partition {p} has no replicas")));
            }
            if set[0] != owners[p] {
                return Err(PartitionError::InvalidMap(format!(
                    "partition {p}: owner {} is not replicas[0]",
                    owners[p]
                )));
            }
            let mut seen = set.clone();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(PartitionError::InvalidMap(format!(
                    "partition {p}: duplicate replica"
                )));
            }
            for &n in set {
                if members.binary_search(&n).is_err() {
                    return Err(PartitionError::InvalidMap(format!(
                        "partition {p}: replica {n} is not a member"
                    )));
                }
            }
        }
        Ok(PartitionMap { epoch, salt, replication, members, owners, replicas })
    }

    /// Map epoch; bumped by every membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hash salt (shared with the bootstrap [`HashPartitioner`]).
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Target copies per partition.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of virtual partitions (fixed for the map's lifetime).
    pub fn n_partitions(&self) -> u32 {
        self.owners.len() as u32
    }

    /// Sorted live member node ids.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `node` is a member.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Virtual partition of an entity id.
    #[inline]
    pub fn partition_of(&self, id: u64) -> u32 {
        partition_index(id, self.salt, self.owners.len())
    }

    /// Owner of a virtual partition.
    pub fn owner_of_partition(&self, p: u32) -> NodeId {
        self.owners[p as usize]
    }

    /// Replica set of a virtual partition, owner first.
    pub fn replicas_of_partition(&self, p: u32) -> &[NodeId] {
        &self.replicas[p as usize]
    }

    /// Owner node of an entity id.
    #[inline]
    pub fn owner_of(&self, id: u64) -> NodeId {
        self.owners[self.partition_of(id) as usize]
    }

    /// Replica set of an entity id, owner first.
    pub fn replicas_of(&self, id: u64) -> &[NodeId] {
        &self.replicas[self.partition_of(id) as usize]
    }

    /// Whether `node` holds a copy of `id`'s partition.
    pub fn holds(&self, node: NodeId, id: u64) -> bool {
        self.replicas_of(id).contains(&node)
    }

    /// Partitions currently owned by `node`, in ascending order.
    pub fn partitions_owned_by(&self, node: NodeId) -> Vec<u32> {
        (0..self.n_partitions()).filter(|&p| self.owners[p as usize] == node).collect()
    }

    /// A new map at `epoch + 1` with `node` added as a member owning
    /// nothing yet (ownership moves via [`PartitionMap::with_extra_replica`]
    /// and [`PartitionMap::with_owner`] per migrated partition).
    pub fn with_member(&self, node: NodeId) -> Result<PartitionMap, PartitionError> {
        if self.is_member(node) {
            return Err(PartitionError::InvalidMap(format!("node {node} is already a member")));
        }
        let mut next = self.clone();
        next.epoch += 1;
        next.members.push(node);
        next.members.sort_unstable();
        Ok(next)
    }

    /// A new map at `epoch + 1` with `node` appended to partition `p`'s
    /// replica set — the dual-write window of a migration: the owner keeps
    /// serving, but every new observe now also ships to `node`.
    pub fn with_extra_replica(&self, p: u32, node: NodeId) -> Result<PartitionMap, PartitionError> {
        if !self.is_member(node) {
            return Err(PartitionError::NotAMember(node));
        }
        let set = &self.replicas[p as usize];
        if set.contains(&node) {
            return Err(PartitionError::InvalidMap(format!(
                "node {node} is already a replica of partition {p}"
            )));
        }
        let mut next = self.clone();
        next.epoch += 1;
        next.replicas[p as usize].push(node);
        Ok(next)
    }

    /// A new map at `epoch + 1` with partition `p` cut over to `node` as
    /// owner. `node` must already be a replica (it has the data). The old
    /// owner stays in the replica set if the replication target allows,
    /// giving the post-cutover tail replay a live source.
    pub fn with_owner(&self, p: u32, node: NodeId) -> Result<PartitionMap, PartitionError> {
        let set = &self.replicas[p as usize];
        if !set.contains(&node) {
            return Err(PartitionError::NotAReplica { partition: p, node });
        }
        let mut next = self.clone();
        next.epoch += 1;
        let mut order: Vec<NodeId> = vec![node];
        order.extend(set.iter().copied().filter(|&n| n != node));
        order.truncate(self.replication.max(1));
        next.owners[p as usize] = node;
        next.replicas[p as usize] = order;
        Ok(next)
    }

    /// A new map at `epoch + 1` with `dead` removed: its owned partitions
    /// are re-owned by their first surviving replica, and depleted replica
    /// sets are backfilled from the surviving members (ring order after
    /// the new owner). Fails with [`PartitionError::NoSurvivingReplica`]
    /// if any partition loses its last copy.
    pub fn without_member(&self, dead: NodeId) -> Result<PartitionMap, PartitionError> {
        if !self.is_member(dead) {
            return Err(PartitionError::NotAMember(dead));
        }
        if self.members.len() == 1 {
            return Err(PartitionError::NoNodes);
        }
        let mut next = self.clone();
        next.epoch += 1;
        next.members.retain(|&n| n != dead);
        let survivors = next.members.clone();
        for p in 0..next.owners.len() {
            let set = &mut next.replicas[p];
            set.retain(|&n| n != dead);
            if set.is_empty() {
                return Err(PartitionError::NoSurvivingReplica(p as u32));
            }
            let owner = set[0];
            next.owners[p] = owner;
            // Backfill toward the replication target, walking the member
            // ring starting after the owner so load spreads.
            let start = survivors.iter().position(|&n| n == owner).unwrap_or(0);
            let target = self.replication.min(survivors.len());
            let mut i = 1;
            while set.len() < target && i <= survivors.len() {
                let cand = survivors[(start + i) % survivors.len()];
                if !set.contains(&cand) {
                    set.push(cand);
                }
                i += 1;
            }
        }
        Ok(next)
    }

    /// The partitions a freshly joined `node` should take over to level
    /// load: repeatedly takes the lowest-id partition from the most-loaded
    /// owner until `node` would own `n_partitions / members` partitions.
    /// Deterministic, so twin clusters plan identical rebalances.
    pub fn plan_join(&self, node: NodeId) -> Result<Vec<u32>, PartitionError> {
        if !self.is_member(node) {
            return Err(PartitionError::NotAMember(node));
        }
        let target = self.owners.len() / self.members.len();
        let mut owned: Vec<Vec<u32>> =
            self.members.iter().map(|&m| self.partitions_owned_by(m)).collect();
        let me = self.members.iter().position(|&m| m == node).unwrap();
        let mut plan = Vec::new();
        while owned[me].len() + plan.len() < target {
            let donor = (0..self.members.len())
                .filter(|&i| i != me)
                .max_by_key(|&i| (owned[i].len(), std::cmp::Reverse(self.members[i])))
                .ok_or(PartitionError::NoNodes)?;
            if owned[donor].len() <= target {
                break; // nothing left to take without unbalancing the donor
            }
            plan.push(owned[donor].remove(0));
        }
        Ok(plan)
    }
}

/// Terminal (or in-flight) outcome of a migration, recorded in the
/// ledger. An aborted migration rolled back cleanly: the source stayed
/// authoritative and the map epoch did not move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Still running.
    InFlight,
    /// Cutover completed; the destination owns the partition.
    Committed,
    /// Rolled back before the dual-write install: no epoch bump, source
    /// authoritative, destination scrubbed. The reason is one of
    /// `source death`, `destination death`, `deadline exceeded`,
    /// `operator cancel`, or a transfer-level cause.
    Aborted(String),
    /// Failed past the commit point (after the first map install); the
    /// cluster rolls forward — dual-write replicas keep the data safe —
    /// but the ledger records what broke.
    Failed(String),
}

impl std::fmt::Display for MigrationOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationOutcome::InFlight => write!(f, "in_flight"),
            MigrationOutcome::Committed => write!(f, "committed"),
            MigrationOutcome::Aborted(reason) => write!(f, "aborted: {reason}"),
            MigrationOutcome::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// One in-flight or completed partition migration, as exposed by
/// `/cluster/health` and the `membership()` transport hook.
#[derive(Debug, Clone)]
pub struct MigrationStatus {
    /// The virtual partition being moved.
    pub partition: u32,
    /// Previous owner (migration source).
    pub from: NodeId,
    /// New owner (migration destination).
    pub to: NodeId,
    /// Current phase label (`chunk_stream`, `dual_write`, `catch_up`,
    /// `cut_over`, `tail_replay`, `done`, `aborted`, `failed`).
    pub phase: &'static str,
    /// Map epoch when the migration started.
    pub epoch_start: u64,
    /// Map epoch after cutover (0 while still in flight or aborted).
    pub epoch_end: u64,
    /// Users streamed in the checkpoint phase.
    pub users_streamed: u64,
    /// WAL records replayed in catch-up + tail phases.
    pub records_replayed: u64,
    /// Checkpoint chunks transferred (resumes re-pull the same cursor).
    pub chunks_streamed: u64,
    /// Terminal outcome (`Committed` / `Aborted` / `Failed`).
    pub outcome: MigrationOutcome,
}

/// Membership and migration state for health endpoints, identical in
/// shape across `SimTransport` and the TCP runtime.
#[derive(Debug, Clone)]
pub struct MembershipView {
    /// Current map epoch.
    pub epoch: u64,
    /// Live member node ids.
    pub members: Vec<NodeId>,
    /// Virtual partition count.
    pub n_partitions: u32,
    /// Replication target.
    pub replication: usize,
    /// Recent migrations, oldest first.
    pub migrations: Vec<MigrationStatus>,
    /// Requests rejected for a stale map epoch.
    pub wrong_epoch: u64,
    /// Client-side map refreshes triggered by those rejections.
    pub map_refreshes: u64,
    /// Whether detector-driven auto-rebalance is currently enabled (the
    /// operator kill switch; `false` also when the backend never had it).
    pub auto_rebalance: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_assignment_is_stable_and_in_range() {
        let p = HashPartitioner::new(8, 0).unwrap();
        for id in 0..10_000u64 {
            let n = p.node_for(id);
            assert!(n < 8);
            assert_eq!(n, p.node_for(id), "assignment must be deterministic");
        }
    }

    #[test]
    fn assignment_is_balanced() {
        let p = HashPartitioner::new(8, 42).unwrap();
        let mut counts = [0usize; 8];
        for id in 0..80_000u64 {
            counts[p.node_for(id)] += 1;
        }
        let expected = 10_000.0;
        for (n, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "node {n} holds {c} (>{}% off balance)", 5);
        }
    }

    #[test]
    fn salts_decorrelate() {
        let users = HashPartitioner::new(4, 1).unwrap();
        let items = HashPartitioner::new(4, 2).unwrap();
        let same = (0..1000u64).filter(|&id| users.node_for(id) == items.node_for(id)).count();
        // Under independence ~25% collide; assert we're nowhere near 100%.
        assert!(same < 400, "salted partitioners too correlated: {same}/1000");
    }

    #[test]
    fn single_node_cluster() {
        let p = HashPartitioner::new(1, 0).unwrap();
        assert_eq!(p.node_for(123), 0);
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        assert_eq!(HashPartitioner::new(0, 0).unwrap_err(), PartitionError::NoNodes);
        assert_eq!(PartitionMap::bootstrap(0, 1, 0).unwrap_err(), PartitionError::NoNodes);
    }

    #[test]
    fn by_user_routing_matches_partitioner() {
        let p = HashPartitioner::new(4, 7).unwrap();
        let r = Router::new(RoutingPolicy::ByUser, p.clone());
        for uid in 0..100 {
            assert_eq!(r.route(uid), p.node_for(uid));
        }
    }

    #[test]
    fn round_robin_cycles() {
        let r = Router::new(RoutingPolicy::RoundRobin, HashPartitioner::new(3, 0).unwrap());
        let seq: Vec<NodeId> = (0..6).map(|_| r.route(999)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn bootstrap_map_matches_hash_partitioner_bit_for_bit() {
        for n in 1..=6usize {
            let hash = HashPartitioner::new(n, USER_SALT).unwrap();
            let map = PartitionMap::bootstrap(n, 2, USER_SALT).unwrap();
            for uid in 0..5_000u64 {
                assert_eq!(map.owner_of(uid), hash.node_for(uid), "n={n} uid={uid}");
                let expect: Vec<NodeId> =
                    (0..2.min(n)).map(|k| (hash.node_for(uid) + k) % n).collect();
                assert_eq!(map.replicas_of(uid), &expect[..], "n={n} uid={uid}");
            }
        }
    }

    #[test]
    fn builders_bump_epoch_and_preserve_invariants() {
        let map = PartitionMap::bootstrap(3, 2, USER_SALT).unwrap();
        assert_eq!(map.epoch(), 1, "epoch 0 is the wire bypass sentinel");
        let joined = map.with_member(3).unwrap();
        assert_eq!(joined.epoch(), 2);
        assert!(joined.is_member(3));
        assert_eq!(joined.partitions_owned_by(3), Vec::<u32>::new());

        let p = 0u32;
        let dual = joined.with_extra_replica(p, 3).unwrap();
        assert_eq!(dual.epoch(), 3);
        assert!(dual.replicas_of_partition(p).contains(&3));
        assert_eq!(dual.owner_of_partition(p), map.owner_of_partition(p), "owner unchanged");

        let cut = dual.with_owner(p, 3).unwrap();
        assert_eq!(cut.epoch(), 4);
        assert_eq!(cut.owner_of_partition(p), 3);
        assert_eq!(cut.replicas_of_partition(p)[0], 3);
        assert_eq!(cut.replicas_of_partition(p).len(), 2, "trimmed to replication");
        assert!(
            cut.replicas_of_partition(p).contains(&map.owner_of_partition(p)),
            "old owner kept as replica for tail replay"
        );
    }

    #[test]
    fn cutover_to_non_replica_is_rejected() {
        let map = PartitionMap::bootstrap(4, 2, USER_SALT).unwrap();
        // Partition 0 is owned by node 0 with replica 1; node 3 holds nothing.
        assert_eq!(
            map.with_owner(0, 3).unwrap_err(),
            PartitionError::NotAReplica { partition: 0, node: 3 }
        );
    }

    #[test]
    fn member_removal_reowns_and_backfills() {
        let map = PartitionMap::bootstrap(3, 2, USER_SALT).unwrap();
        let next = map.without_member(1).unwrap();
        assert_eq!(next.epoch(), 2);
        assert_eq!(next.members(), &[0, 2]);
        for p in 0..next.n_partitions() {
            let set = next.replicas_of_partition(p);
            assert!(!set.contains(&1), "dead node evicted from partition {p}");
            assert_eq!(set.len(), 2, "replication restored for partition {p}");
            assert_eq!(set[0], next.owner_of_partition(p));
        }
        // Partitions owned by the dead node moved to their surviving replica.
        for p in map.partitions_owned_by(1) {
            assert_ne!(next.owner_of_partition(p), 1);
        }
    }

    #[test]
    fn removing_last_copy_fails_closed() {
        let map = PartitionMap::bootstrap(2, 1, USER_SALT).unwrap();
        // Replication 1: node 0's partitions have no surviving replica.
        assert!(matches!(
            map.without_member(0).unwrap_err(),
            PartitionError::NoSurvivingReplica(_)
        ));
    }

    #[test]
    fn join_plan_levels_load_and_is_deterministic() {
        let map = PartitionMap::bootstrap(3, 2, USER_SALT).unwrap().with_member(3).unwrap();
        let plan = map.plan_join(3).unwrap();
        assert_eq!(plan.len(), map.n_partitions() as usize / 4);
        assert_eq!(plan, map.plan_join(3).unwrap(), "plan must be deterministic");
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), plan.len(), "no partition planned twice");
        // Applying the plan levels ownership.
        let mut cur = map.clone();
        for p in &plan {
            cur = cur.with_extra_replica(*p, 3).unwrap().with_owner(*p, 3).unwrap();
        }
        for &m in cur.members() {
            let owned = cur.partitions_owned_by(m).len();
            assert_eq!(owned, 12, "member {m} owns {owned}, want 12");
        }
    }

    #[test]
    fn from_parts_validates_structure() {
        let ok = PartitionMap::bootstrap(2, 2, 7).unwrap();
        let back = PartitionMap::from_parts(
            ok.epoch(),
            ok.salt(),
            ok.replication(),
            ok.members().to_vec(),
            (0..ok.n_partitions()).map(|p| ok.owner_of_partition(p)).collect(),
            (0..ok.n_partitions()).map(|p| ok.replicas_of_partition(p).to_vec()).collect(),
        )
        .unwrap();
        assert_eq!(back, ok);

        assert!(matches!(
            PartitionMap::from_parts(0, 0, 1, vec![], vec![0], vec![vec![0]]),
            Err(PartitionError::NoNodes)
        ));
        assert!(PartitionMap::from_parts(0, 0, 1, vec![0, 0], vec![0], vec![vec![0]]).is_err());
        assert!(
            PartitionMap::from_parts(0, 0, 1, vec![0, 1], vec![1], vec![vec![0]]).is_err(),
            "owner must be replicas[0]"
        );
        assert!(
            PartitionMap::from_parts(0, 0, 1, vec![0], vec![0], vec![vec![0, 5]]).is_err(),
            "replica must be a member"
        );
    }
}
