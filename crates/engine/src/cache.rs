//! The prepared-plan cache: a small LRU map behind one lock.
//!
//! The engine's working set is "the distinct query texts a service replays",
//! which is small (hundreds, not millions), so the map favours simplicity
//! over asymptotics: entries carry a monotone use stamp and eviction scans
//! for the minimum. That is O(capacity) per insert-at-capacity, which is
//! negligible next to the parse + typecheck work a hit saves. One mutex
//! guards the map — held for a hash probe and a stamp refresh, never across
//! a preparation — and the hit/miss counters are atomics beside it.

use crate::session::CacheMetrics;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An LRU map with a fixed capacity. A capacity of `0` disables storage
/// entirely (every lookup misses, every insert is dropped): the engine's
/// uncached "cold" mode.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    stamp: u64,
    map: HashMap<K, (u64, V)>,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    pub(crate) fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            stamp: 0,
            map: HashMap::new(),
            evictions: 0,
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|slot| {
            slot.0 = stamp;
            slot.1.clone()
        })
    }

    /// Insert a key, evicting the least recently used entry at capacity.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.stamp += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (self.stamp, value));
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// An internally locked [`LruCache`] with hit/miss accounting — the engine's
/// prepared-plan cache. Eviction is exact LRU over the whole cache.
#[derive(Debug)]
pub(crate) struct SharedLru<K, V> {
    map: Mutex<LruCache<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> SharedLru<K, V> {
    pub(crate) fn new(capacity: usize) -> SharedLru<K, V> {
        SharedLru {
            map: Mutex::new(LruCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a key, counting a hit or miss.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let found = self.map.lock().unwrap().get(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Double-checked insert: if `key` was inserted by a racing thread since
    /// the caller's miss, adopt and return the existing value (preserving the
    /// same-`Arc` contract for plan handles); otherwise insert `value` and
    /// return it. Does not touch the hit/miss counters — the race's losers
    /// already counted their misses.
    pub(crate) fn insert_if_absent(&self, key: K, value: V) -> V {
        let mut map = self.map.lock().unwrap();
        if let Some(existing) = map.get(&key) {
            return existing;
        }
        map.insert(key, value.clone());
        value
    }

    /// One consistent snapshot of the counters, taken under the lock.
    pub(crate) fn metrics(&self) -> CacheMetrics {
        let map = self.map.lock().unwrap();
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: map.evictions(),
            len: map.len(),
            capacity: map.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut c: LruCache<&str, u32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // refresh a; b is now the LRU entry
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b was evicted");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c: LruCache<&str, u32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"b"), Some(2));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c: LruCache<&str, u32> = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn eviction_is_exact_lru_at_every_capacity() {
        for capacity in [3usize, 256] {
            let c: SharedLru<usize, usize> = SharedLru::new(capacity);
            for k in 0..capacity {
                assert_eq!(c.insert_if_absent(k, k), k);
            }
            let full = c.metrics();
            assert_eq!(
                (full.len, full.capacity, full.evictions),
                (capacity, capacity, 0)
            );
            assert_eq!(c.get(&0), Some(0)); // refresh 0; 1 is the LRU entry
            c.insert_if_absent(capacity, capacity);
            assert_eq!(c.get(&1), None, "1 was the least recently used");
            assert_eq!(c.get(&0), Some(0));
            assert_eq!(c.get(&capacity), Some(capacity));
            let m = c.metrics();
            assert_eq!((m.hits, m.misses, m.evictions, m.len), (3, 1, 1, capacity));
        }
    }

    #[test]
    fn insert_if_absent_returns_the_winner() {
        let c: SharedLru<&str, u32> = SharedLru::new(4);
        assert_eq!(c.insert_if_absent("k", 1), 1);
        assert_eq!(c.insert_if_absent("k", 2), 1, "first insert wins");
        assert_eq!(c.get(&"k"), Some(1));
    }

    #[test]
    fn zero_capacity_shared_cache_stores_nothing() {
        let c: SharedLru<&str, u32> = SharedLru::new(0);
        c.insert_if_absent("a", 1);
        assert_eq!(c.get(&"a"), None);
        let m = c.metrics();
        assert_eq!((m.len, m.misses), (0, 1));
    }
}
