//! A lock-sharded LRU cache for the serving hot path.
//!
//! A multi-threaded hit-heavy mix (today `inproc_hot_d50` in
//! `benchmark/`) showed a single `Mutex<LruCache>` prediction cache
//! *negatively* scaling with client threads — every cache-hit predict
//! serialized on one lock. Sharding by
//! key hash bounds contention to 1/S of traffic per lock while keeping LRU
//! behaviour per shard (global LRU order is approximated by per-shard
//! order, the standard trade in concurrent caches).

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use velox_storage::LruCache;

/// Number of lock shards (power of two).
const SHARDS: usize = 16;

/// A fixed-capacity, lock-sharded LRU cache.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates a cache with `capacity` total entries spread over the
    /// shards (each shard gets `capacity / SHARDS`, minimum 1).
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        ShardedCache { shards: (0..SHARDS).map(|_| Mutex::new(LruCache::new(per_shard))).collect() }
    }

    #[inline]
    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Looks up and clones the value, promoting it in its shard's LRU.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().unwrap().get(key).cloned()
    }

    /// Inserts or replaces a key.
    pub fn put(&self, key: K, value: V) {
        self.shard(&key).lock().unwrap().put(key, value);
    }

    /// Clears every shard (statistics are preserved, like
    /// [`LruCache::clear`]).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }

    /// Aggregated `(hits, misses, evictions)` across shards.
    pub fn stats(&self) -> (u64, u64, u64) {
        let mut total = (0, 0, 0);
        for shard in &self.shards {
            let (h, m, e) = shard.lock().unwrap().stats();
            total.0 += h;
            total.1 += m;
            total.2 += e;
        }
        total
    }

    /// All cached keys, shard by shard, each shard in MRU order. Used to
    /// snapshot hot keys for cache repopulation at version swaps.
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().keys_mru_order());
        }
        out
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_get_put_clear() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(64);
        assert!(c.get(&1).is_none());
        c.put(1, 10);
        c.put(2, 20);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn stats_aggregate() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(64);
        c.put(1, 1);
        c.get(&1);
        c.get(&2);
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 1), "one hit on key 1, one miss on key 2");
    }

    #[test]
    fn capacity_is_respected_per_shard() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(32);
        for k in 0..10_000u64 {
            c.put(k, k);
        }
        assert!(c.len() <= 32, "total stays within budget: {}", c.len());
    }

    #[test]
    fn keys_cover_all_shards() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(256);
        for k in 0..100u64 {
            c.put(k, k);
        }
        let mut keys = c.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let c: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(1024));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..5000u64 {
                    let k = (t * 131 + i) % 512;
                    c.put(k, k * 3);
                    if let Some(v) = c.get(&k) {
                        assert_eq!(v % 3, 0);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
