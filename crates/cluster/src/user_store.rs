//! Each user's online state, held once per deployment and sharded by
//! virtual partition.
//!
//! The paper co-locates a user's predictor and model manager on the worker
//! that owns the user (§3), so every `wᵤ` read and every online update is
//! local. [`UserStore`] is that worker-side table of Sherman–Morrison
//! states (`IncrementalRidge`), and the in-process `Velox`, the simulator
//! behind [`SimTransport`](crate::SimTransport) and each `velox-net` node
//! hold exactly one. Its shard is the user's virtual partition
//! ([`PartitionMap::partition_of`]) — fixed for a cluster's lifetime
//! because the partition count is fixed at bootstrap — so the operations a
//! partition goes through (a crash that takes its last replica, a
//! migration's scrub, checkpoint streaming) touch one shard, and two users
//! contend only when they share a partition.
//!
//! A shard is taken with `try_lock` first; only an acquisition that has to
//! wait reads the clock, into `velox_user_store_lock_wait_ns`. The store
//! keeps `velox_online_state_bytes` equal to the bytes of the states it
//! holds, from creation to removal, clear, or the store's own drop.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use velox_data::linalg::{IncrementalRidge, Vector};
use velox_obs::{Gauge, Histogram, Registry, Timer};

use crate::partition::{partition_index, PartitionMap};
use crate::transport::{same_width, RIDGE_LAMBDA};

type Shard = HashMap<u64, IncrementalRidge>;

/// The store's two instruments. Shared handles, so a node's survive its
/// restarts and a deployment can adopt them into its registry.
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Resident bytes of every state the store holds
    /// (`IncrementalRidge::state_bytes`).
    pub state_bytes: Arc<Gauge>,
    /// Nanoseconds waited for a shard lock that was held on arrival.
    pub lock_wait_ns: Arc<Histogram>,
}

impl StoreMetrics {
    /// Adopts both into `registry` as `velox_online_state_bytes` and
    /// `velox_user_store_lock_wait_ns` under `labels`.
    pub fn register(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_gauge("velox_online_state_bytes", labels, Arc::clone(&self.state_bytes));
        registry.register_histogram(
            "velox_user_store_lock_wait_ns",
            labels,
            Arc::clone(&self.lock_wait_ns),
        );
    }
}

/// Every user's `IncrementalRidge`, one mutex-guarded map per virtual
/// partition. No operation holds two shards at once.
pub struct UserStore {
    shards: Box<[Mutex<Shard>]>,
    salt: u64,
    metrics: StoreMetrics,
}

fn bytes(state: &IncrementalRidge) -> i64 {
    state.state_bytes() as i64
}

impl UserStore {
    /// An empty store with one shard per partition of `map` (no shard
    /// allocates until its first user arrives).
    pub fn new(map: &PartitionMap, metrics: StoreMetrics) -> Self {
        let shards = (0..map.n_partitions()).map(|_| Mutex::default()).collect();
        UserStore { shards, salt: map.salt(), metrics }
    }

    /// The store's gauge and lock-wait histogram.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The shard `uid` lives in: its partition under the map the store was
    /// built from, and under every later map of the same cluster.
    pub fn partition_of(&self, uid: u64) -> u32 {
        partition_index(uid, self.salt, self.shards.len())
    }

    /// Locks partition `p`'s shard, timing the wait only when the lock was
    /// already held.
    fn shard(&self, p: u32) -> MutexGuard<'_, Shard> {
        const POISONED: &str = "a closure panicked under this user store shard";
        let shard = &self.shards[p as usize];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let wait = Timer::start();
                let guard = shard.lock().expect(POISONED);
                wait.observe(&self.metrics.lock_wait_ns);
                guard
            }
            Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
        }
    }

    fn shard_of(&self, uid: u64) -> MutexGuard<'_, Shard> {
        self.shard(self.partition_of(uid))
    }

    /// Runs `f` on `uid`'s state under its shard lock, first creating the
    /// state from `prior()` when the user has none. `f` may replace the
    /// state; the gauge follows.
    pub fn upsert<R>(
        &self,
        uid: u64,
        prior: impl FnOnce() -> IncrementalRidge,
        f: impl FnOnce(&mut IncrementalRidge) -> R,
    ) -> R {
        let mut shard = self.shard_of(uid);
        let (before, state) = match shard.entry(uid) {
            Entry::Occupied(held) => (bytes(held.get()), held.into_mut()),
            Entry::Vacant(slot) => (0, slot.insert(prior())),
        };
        let out = f(state);
        // Most calls change no byte; they leave the shared gauge's cache
        // line alone.
        let delta = bytes(state) - before;
        if delta != 0 {
            self.metrics.state_bytes.add(delta);
        }
        out
    }

    /// `f` of `uid`'s state, or `None` when the user has none.
    pub fn read<R>(&self, uid: u64, f: impl FnOnce(&IncrementalRidge) -> R) -> Option<R> {
        self.shard_of(uid).get(&uid).map(f)
    }

    /// Whether `uid`'s state can take `x`: always for a user without one.
    /// The refusal names both widths.
    pub fn fits(&self, uid: u64, x: &Vector) -> Result<(), String> {
        self.read(uid, |user| same_width(user.dim(), x.len())).unwrap_or(Ok(()))
    }

    /// Folds `(x, y)` into `uid`'s state — one Sherman–Morrison update —
    /// creating the state at the zero prior (λ = [`RIDGE_LAMBDA`]) on first
    /// sight. An `x` of another width is refused and changes nothing.
    pub fn observe(&self, uid: u64, x: &Vector, y: f64) -> Result<(), String> {
        let zero = || IncrementalRidge::new(x.len(), RIDGE_LAMBDA);
        self.upsert(uid, zero, |user| {
            same_width(user.dim(), x.len())?;
            user.observe(x, y).map_err(|e| e.to_string())
        })
    }

    /// Installs `state` for `uid` unless the user already has one (which
    /// is kept). Returns whether it was installed.
    pub fn install(&self, uid: u64, state: impl FnOnce() -> IncrementalRidge) -> bool {
        let mut installed = false;
        self.upsert(
            uid,
            || {
                installed = true;
                state()
            },
            |_| {},
        );
        installed
    }

    /// Drops `uid`'s state. Returns whether there was one.
    pub fn remove(&self, uid: u64) -> bool {
        let removed = self.shard_of(uid).remove(&uid);
        removed.map(|state| self.metrics.state_bytes.add(-bytes(&state))).is_some()
    }

    /// `f(uid, state)` for every user of partition `p`, in no set order
    /// (none for a partition the store does not have).
    pub fn partition_entries<R>(
        &self,
        p: u32,
        mut f: impl FnMut(u64, &IncrementalRidge) -> R,
    ) -> Vec<R> {
        if p as usize >= self.shards.len() {
            return Vec::new();
        }
        self.shard(p).iter().map(|(&uid, state)| f(uid, state)).collect()
    }

    /// Drops every state of partition `p`. Returns how many there were.
    pub fn drop_partition(&self, p: u32) -> usize {
        if p as usize >= self.shards.len() {
            return 0;
        }
        let dropped = std::mem::take(&mut *self.shard(p));
        self.metrics.state_bytes.add(-dropped.values().map(bytes).sum::<i64>());
        dropped.len()
    }

    /// Drops every state, one shard at a time.
    pub fn clear(&self) {
        for p in 0..self.shards.len() as u32 {
            self.drop_partition(p);
        }
    }

    /// Users with a state.
    pub fn len(&self) -> usize {
        (0..self.shards.len() as u32).map(|p| self.shard(p).len()).sum()
    }

    /// Whether no user has a state.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The states leave with the store (a node's restart drops its store), and
/// so do their bytes.
impl Drop for UserStore {
    fn drop(&mut self) {
        let resident: i64 = self
            .shards
            .iter_mut()
            .flat_map(|s| s.get_mut().map(|m| m.values().map(bytes).sum::<i64>()))
            .sum();
        self.metrics.state_bytes.add(-resident);
    }
}
