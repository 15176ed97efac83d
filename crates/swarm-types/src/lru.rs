//! An O(1) least-recently-used cache, the one eviction policy every
//! cache in the workspace uses: the client's fragment and stripe-info
//! caches, the server's read-cache shards and the services' block cache.
//! A hash map indexes an intrusive doubly-linked list kept in a slab, so
//! a hit, an insert and an eviction each cost one map probe.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// An O(1) least-recently-used cache.
///
/// # Example
///
/// ```
/// use swarm_types::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a");          // refresh "a"
/// cache.insert("c", 3);     // evicts "b", the coldest
/// assert_eq!(cache.get(&"b"), None);
/// assert_eq!(cache.get(&"a"), Some(&1));
/// ```
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            None => {
                self.misses += 1;
                None
            }
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                self.slots[idx].value.as_ref()
            }
        }
    }

    /// Looks up without touching recency or stats (for tests/diagnostics).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slots[idx].value.as_ref())
    }

    /// Inserts (or replaces) an entry, evicting the coldest if full.
    /// Returns the evicted entry, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = Some(value);
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let slot = &mut self.slots[victim];
            self.map.remove(&slot.key);
            let old_key = slot.key.clone();
            let old_val = slot.value.take().expect("occupied slot has a value");
            self.free.push(victim);
            evicted = Some((old_key, old_val));
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes an entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slots[idx].value.take()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_lru_eviction_order() {
        let mut c = LruCache::new(3);
        c.insert(1, "one");
        c.insert(2, "two");
        c.insert(3, "three");
        c.get(&1); // 1 hot; 2 coldest
        let evicted = c.insert(4, "four");
        assert_eq!(evicted, Some((2, "two")));
        assert!(c.peek(&2).is_none());
        assert_eq!(c.len(), 3);
    }

    /// A `get` refreshes its entry, so the least-*recently*-used entry
    /// goes first, not the least-recently-*inserted* one (LRU, not FIFO).
    #[test]
    fn get_refreshes_so_eviction_is_lru_not_fifo() {
        let mut c = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert!(c.get(&1).is_some());
        c.insert(3, "three");
        assert!(c.get(&1).is_some(), "recently-used entry evicted");
        assert!(c.get(&2).is_none(), "stale entry survived");
        assert!(c.get(&3).is_some());
    }

    #[test]
    fn reinsert_refreshes_and_replaces() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh + replace: "b" is now coldest
        c.insert("c", 3);
        assert_eq!(c.peek(&"a"), Some(&10));
        assert_eq!(c.peek(&"b"), None);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(2);
        c.insert(1, "x");
        assert_eq!(c.remove(&1), Some("x"));
        assert!(c.is_empty());
        c.insert(2, "y");
        c.insert(3, "z");
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&2), Some(&"y"));
        assert_eq!(c.peek(&3), Some(&"z"));
    }

    /// Chaos runs the client fragment cache at capacity 0: such a cache
    /// must hold nothing, not one entry.
    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.get(&1);
        c.get(&2);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        c.insert(9, 9);
        assert_eq!(c.peek(&9), Some(&9));
    }

    proptest! {
        /// The cache agrees with a naive model under arbitrary op
        /// sequences.
        #[test]
        fn prop_matches_naive_model(
            ops in proptest::collection::vec((0u8..3, 0u16..12, any::<u32>()), 1..300),
            cap in 1usize..6,
        ) {
            let mut cache = LruCache::new(cap);
            // Model: Vec<(key, value)> in MRU→LRU order.
            let mut model: Vec<(u16, u32)> = Vec::new();
            for (op, key, value) in ops {
                match op {
                    0 => {
                        // insert
                        cache.insert(key, value);
                        model.retain(|(k, _)| *k != key);
                        model.insert(0, (key, value));
                        model.truncate(cap);
                    }
                    1 => {
                        // get
                        let got = cache.get(&key).copied();
                        let pos = model.iter().position(|(k, _)| *k == key);
                        let want = pos.map(|p| {
                            let e = model.remove(p);
                            model.insert(0, e);
                            e.1
                        });
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        // remove
                        let got = cache.remove(&key);
                        let pos = model.iter().position(|(k, _)| *k == key);
                        let want = pos.map(|p| model.remove(p).1);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(cache.len(), model.len());
            }
        }
    }
}
