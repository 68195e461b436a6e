//! An LRU cache for slice and top-k results.
//!
//! Entry queries are point lookups — cheap and rarely repeated — but
//! slice and top-k reconstructions walk a whole mode, and dashboards ask
//! for the same popular slices over and over. Values are `Arc`-shared so
//! a hit hands back the cached buffer without copying, and keys carry the
//! model *version*, so publishing a new version naturally misses instead
//! of serving stale results.
//!
//! The LRU list is intrusive over a slab (`prev`/`next` indices into one
//! `Vec`), so steady-state hits and inserts touch no allocator once the
//! slab is full: eviction recycles slots in place.

use splatt_rt::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: model identity (name + version) plus the full query shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    Slice {
        model: String,
        version: u64,
        mode: u8,
        index: u32,
    },
    TopK {
        model: String,
        version: u64,
        mode: u8,
        k: u32,
        fixed: Vec<u32>,
    },
}

/// Cached result payload, shared by reference on hit.
#[derive(Debug, Clone)]
pub(crate) enum CacheValue {
    Slice(Arc<Vec<f64>>),
    TopK(Arc<Vec<(u32, f64)>>),
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: CacheValue,
    prev: usize,
    next: usize,
}

struct LruInner {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruInner {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// Bounded LRU result cache; see the module docs.
pub(crate) struct ResultCache {
    capacity: usize,
    inner: Mutex<LruInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results; 0 disables caching
    /// (every lookup misses, every insert is dropped).
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(LruInner {
                map: HashMap::with_capacity(capacity),
                slab: Vec::with_capacity(capacity),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look `key` up, promoting it to most-recent on hit.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<CacheValue> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).copied() {
            Some(i) => {
                inner.unlink(i);
                inner.push_front(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.slab[i].value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recent entry when
    /// at capacity.
    pub(crate) fn insert(&self, key: CacheKey, value: CacheValue) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(&i) = inner.map.get(&key) {
            inner.slab[i].value = value;
            inner.unlink(i);
            inner.push_front(i);
            return;
        }
        let slot = if inner.map.len() >= self.capacity {
            // Recycle the least-recent slot in place.
            let victim = inner.tail;
            inner.unlink(victim);
            let old_key = inner.slab[victim].key.clone();
            inner.map.remove(&old_key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            inner.slab[victim].key = key.clone();
            inner.slab[victim].value = value;
            victim
        } else if let Some(free) = inner.free.pop() {
            inner.slab[free] = Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            free
        } else {
            inner.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            inner.slab.len() - 1
        };
        inner.push_front(slot);
        inner.map.insert(key, slot);
    }

    /// Drop every entry belonging to `model` (any version when
    /// `version == 0`) — called on model eviction.
    pub(crate) fn invalidate_model(&self, model: &str, version: u64) {
        let mut inner = self.inner.lock();
        let doomed: Vec<usize> = inner
            .map
            .iter()
            .filter(|(k, _)| {
                let (name, ver) = match k {
                    CacheKey::Slice { model, version, .. } => (model, *version),
                    CacheKey::TopK { model, version, .. } => (model, *version),
                };
                name == model && (version == 0 || ver == version)
            })
            .map(|(_, &i)| i)
            .collect();
        for i in doomed {
            let key = inner.slab[i].key.clone();
            inner.map.remove(&key);
            inner.unlink(i);
            inner.free.push(i);
        }
    }

    /// Live entry count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Hits since construction.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses since construction.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions since construction.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> CacheKey {
        CacheKey::Slice {
            model: "m".into(),
            version: 1,
            mode: 0,
            index: i,
        }
    }

    fn val(v: f64) -> CacheValue {
        CacheValue::Slice(Arc::new(vec![v]))
    }

    fn slice_of(v: &CacheValue) -> f64 {
        match v {
            CacheValue::Slice(s) => s[0],
            CacheValue::TopK(_) => panic!("expected slice"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), val(1.0));
        cache.insert(key(2), val(2.0));
        assert_eq!(slice_of(&cache.get(&key(1)).unwrap()), 1.0); // 1 now MRU
        cache.insert(key(3), val(3.0)); // evicts 2
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(slice_of(&cache.get(&key(1)).unwrap()), 1.0);
        assert_eq!(slice_of(&cache.get(&key(3)).unwrap()), 3.0);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_without_evicting() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), val(1.0));
        cache.insert(key(1), val(9.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(slice_of(&cache.get(&key(1)).unwrap()), 9.0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn version_is_part_of_the_key() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), val(1.0));
        let v2 = CacheKey::Slice {
            model: "m".into(),
            version: 2,
            mode: 0,
            index: 1,
        };
        assert!(cache.get(&v2).is_none());
    }

    #[test]
    fn invalidate_model_frees_slots_for_reuse() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), val(1.0));
        cache.insert(key(2), val(2.0));
        let other = CacheKey::TopK {
            model: "other".into(),
            version: 1,
            mode: 1,
            k: 3,
            fixed: vec![0, 0],
        };
        cache.insert(other.clone(), CacheValue::TopK(Arc::new(vec![(0, 1.0)])));
        cache.invalidate_model("m", 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&other).is_some());
        // Freed slots get recycled.
        cache.insert(key(7), val(7.0));
        cache.insert(key(8), val(8.0));
        assert_eq!(cache.len(), 3);
        assert_eq!(slice_of(&cache.get(&key(7)).unwrap()), 7.0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), val(1.0));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.len(), 0);
    }
}
