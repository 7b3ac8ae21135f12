//! Sharded, versioned, in-memory key–value tables.
//!
//! A [`Namespace`] is one logical table (e.g. `user_weights`, `item_factors`)
//! sharded over `S` independently-locked segments so concurrent readers and
//! writers on different keys never contend. Namespaces are *versioned*: an
//! offline retrain builds a complete replacement map and publishes it with
//! [`Namespace::publish_version`], which swaps the contents and bumps the
//! version counter. The superseded contents are freed; rolling a model back
//! (§2's "simple rollbacks to earlier model versions") is the deployment's
//! job, which keeps its own version history.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use velox_obs::Counter;

/// Number of lock-sharded segments per namespace. A power of two so the
/// shard index is a mask of the key hash.
const DEFAULT_SHARDS: usize = 16;

/// Cheap deterministic u64 hash (splitmix64 finalizer). Keys in Velox are
/// entity ids, often sequential; this decorrelates them across shards.
/// A copy of `velox_data::rng::splitmix64`'s first output: velox-storage
/// depends on velox-data only for its tests, and a normal dependency would
/// change the dependency graph the benchmark's lock file pins.
#[inline]
fn hash_key(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Shard<V> {
    map: RwLock<HashMap<u64, V>>,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard { map: RwLock::new(HashMap::new()) }
    }
}

/// One logical, sharded, versioned table keyed by `u64` entity ids.
///
/// All operations are O(1) expected and take a single shard lock; bulk
/// operations (`publish_version`, `snapshot_entries`) take shard locks one
/// at a time, so they never deadlock against point operations.
pub struct Namespace<V> {
    name: String,
    shards: Vec<Shard<V>>,
    version: AtomicU64,
    reads: Arc<Counter>,
    writes: Arc<Counter>,
}

impl<V: Clone> Namespace<V> {
    /// Creates an empty namespace with the default shard count.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_shards(name, DEFAULT_SHARDS)
    }

    /// Creates an empty namespace with `shards` lock shards (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(name: impl Into<String>, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Namespace {
            name: name.into(),
            shards: (0..n).map(|_| Shard::new()).collect(),
            version: AtomicU64::new(1),
            reads: Arc::new(Counter::new()),
            writes: Arc::new(Counter::new()),
        }
    }

    /// The namespace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current published version: bumped by every
    /// [`publish_version`](Self::publish_version), so a reader can tell
    /// whether a publish ran between two of its reads.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    #[inline]
    fn shard_for(&self, key: u64) -> &Shard<V> {
        let idx = (hash_key(key) as usize) & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Point read. Clones the value out so the shard lock is held only for
    /// the copy.
    pub fn get(&self, key: u64) -> Option<V> {
        self.reads.inc();
        self.shard_for(key).map.read().unwrap().get(&key).cloned()
    }

    /// Point write. Returns the previous value.
    pub fn put(&self, key: u64, value: V) -> Option<V> {
        self.writes.inc();
        self.shard_for(key).map.write().unwrap().insert(key, value)
    }

    /// Atomically applies `f` to the value at `key` (inserting
    /// `default_with()` first when absent), under the shard's write lock.
    ///
    /// This is the primitive behind online user-weight updates: read-modify-
    /// write of one user's model without a global lock.
    pub fn update_with<F, D>(&self, key: u64, default_with: D, f: F)
    where
        F: FnOnce(&mut V),
        D: FnOnce() -> V,
    {
        self.writes.inc();
        let mut map = self.shard_for(key).map.write().unwrap();
        f(map.entry(key).or_insert_with(default_with));
    }

    /// Removes a key, returning its value.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.writes.inc();
        self.shard_for(key).map.write().unwrap().remove(&key)
    }

    /// True when the key exists.
    pub fn contains(&self, key: u64) -> bool {
        self.shard_for(key).map.read().unwrap().contains_key(&key)
    }

    /// Number of stored entries (sums shard sizes; O(shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().unwrap().len()).sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out all `(key, value)` pairs — the input to snapshotting and
    /// offline retraining. Shard-by-shard, so point ops interleave freely.
    pub fn snapshot_entries(&self) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let map = shard.map.read().unwrap();
            out.extend(map.iter().map(|(k, v)| (*k, v.clone())));
        }
        out
    }

    /// All keys currently stored.
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.map.read().unwrap().keys().copied());
        }
        out
    }

    /// Atomically replaces the entire contents with `entries` and bumps the
    /// version. The superseded contents are dropped. Returns the new
    /// version.
    ///
    /// This is the "switch to the newly trained model" step of §4.2: the
    /// offline retrain produces a complete new table which is published in
    /// one step so no reader ever sees a half-updated model.
    pub fn publish_version(&self, entries: Vec<(u64, V)>) -> u64 {
        // fetch_add allocates a unique version even under concurrent
        // publishers (load+1 could hand two publishers the same number).
        let new_version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        // Build the replacement shard maps outside any lock.
        let mut new_maps: Vec<HashMap<u64, V>> =
            (0..self.shards.len()).map(|_| HashMap::new()).collect();
        for (k, v) in entries {
            let idx = (hash_key(k) as usize) & (self.shards.len() - 1);
            new_maps[idx].insert(k, v);
        }
        // Swap in shard-by-shard; the old contents drop outside the lock.
        for (shard, new_map) in self.shards.iter().zip(new_maps) {
            let old = std::mem::replace(&mut *shard.map.write().unwrap(), new_map);
            drop(old);
        }
        new_version
    }

    /// `(reads, writes)` counters since creation.
    pub fn access_counts(&self) -> (u64, u64) {
        (self.reads.get(), self.writes.get())
    }

    /// Shared handle to the read counter, so a metrics registry can expose
    /// the same atomic this namespace increments.
    pub fn reads_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.reads)
    }

    /// Shared handle to the write counter.
    pub fn writes_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_ops() {
        let ns: Namespace<Vec<f64>> = Namespace::new("w");
        assert!(ns.get(1).is_none());
        assert!(ns.put(1, vec![1.0, 2.0]).is_none());
        assert_eq!(ns.get(1).unwrap(), vec![1.0, 2.0]);
        assert!(ns.contains(1));
        assert_eq!(ns.put(1, vec![3.0]), Some(vec![1.0, 2.0]));
        assert_eq!(ns.remove(1), Some(vec![3.0]));
        assert!(!ns.contains(1));
        assert!(ns.is_empty());
    }

    #[test]
    fn update_with_inserts_default() {
        let ns: Namespace<i64> = Namespace::new("c");
        ns.update_with(5, || 0, |v| *v += 10);
        ns.update_with(5, || 0, |v| *v += 10);
        assert_eq!(ns.get(5), Some(20));
    }

    #[test]
    fn publish_version_replaces_everything() {
        let ns: Namespace<i32> = Namespace::new("t");
        ns.put(1, 10);
        ns.put(2, 20);
        let v = ns.publish_version(vec![(2, 200), (3, 300)]);
        assert_eq!(v, 2);
        assert_eq!(ns.version(), 2);
        assert!(ns.get(1).is_none(), "old-only keys are gone");
        assert_eq!(ns.get(2), Some(200));
        assert_eq!(ns.get(3), Some(300));
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn snapshot_and_keys() {
        let ns: Namespace<i32> = Namespace::new("s");
        for k in 0..100u64 {
            ns.put(k, k as i32 * 2);
        }
        let mut snap = ns.snapshot_entries();
        snap.sort_by_key(|(k, _)| *k);
        assert_eq!(snap.len(), 100);
        assert_eq!(snap[50], (50, 100));
        let mut keys = ns.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn access_counters() {
        let ns: Namespace<i32> = Namespace::new("a");
        ns.put(1, 1);
        ns.get(1);
        ns.get(2);
        let (r, w) = ns.access_counts();
        assert_eq!((r, w), (2, 1));
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let ns: Arc<Namespace<u64>> = Arc::new(Namespace::new("mt"));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let ns = Arc::clone(&ns);
            handles.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    let key = t * 1000 + i;
                    ns.put(key, key * 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ns.len(), 8000);
        assert_eq!(ns.get(4321), Some(4321 * 3));
    }

    #[test]
    fn concurrent_update_with_is_atomic() {
        let ns: Arc<Namespace<u64>> = Arc::new(Namespace::new("cnt"));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ns = Arc::clone(&ns);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    ns.update_with(42, || 0, |v| *v += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ns.get(42), Some(8000));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let ns: Namespace<i32> = Namespace::with_shards("p", 5);
        // 5 → 8 shards; behaviour identical from the outside.
        for k in 0..64 {
            ns.put(k, k as i32);
        }
        assert_eq!(ns.len(), 64);
    }
}
