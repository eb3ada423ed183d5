//! Byte-budgeted LRU record cache.
//!
//! A classic intrusive doubly-linked list threaded through a slab, with a
//! `HashMap` for key lookup. Entries are charged `key + value + OVERHEAD`
//! bytes against the budget; inserting past the budget evicts from the cold
//! end until the new entry fits.

use std::collections::HashMap;

/// Fixed per-entry bookkeeping charge (slab node + map entry, rounded).
pub const ENTRY_OVERHEAD: usize = 64;

const NIL: usize = usize::MAX;

/// Typed rejection for an entry whose charge exceeds the whole budget.
///
/// Admitting such an entry would evict everything else and still not fit,
/// so [`LruCache::put`] refuses it up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizeEntry {
    /// Bytes the entry would have charged (including `ENTRY_OVERHEAD`).
    pub charge: usize,
    /// The cache's whole budget.
    pub budget: usize,
}

impl std::fmt::Display for OversizeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entry of {} bytes exceeds whole cache budget of {} bytes",
            self.charge, self.budget
        )
    }
}

impl std::error::Error for OversizeEntry {}

#[derive(Debug)]
struct Node {
    key: Box<[u8]>,
    value: Box<[u8]>,
    prev: usize,
    next: usize,
}

/// An LRU cache holding byte-string keys and values under a byte budget.
#[derive(Debug)]
pub struct LruCache {
    budget: usize,
    used: usize,
    map: HashMap<Box<[u8]>, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    evictions: u64,
}

impl LruCache {
    /// A cache that will hold at most `budget` bytes of entries.
    pub fn new(budget: usize) -> Self {
        LruCache {
            budget,
            used: 0,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    fn charge(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + ENTRY_OVERHEAD
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let &idx = self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&self.slab[idx].value)
    }

    /// Inserts or replaces `key`, evicting cold entries as needed.
    ///
    /// An entry larger than the whole budget is refused with a typed
    /// [`OversizeEntry`]; resident entries are undisturbed.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), OversizeEntry> {
        let charge = Self::charge(key, value);
        if charge > self.budget {
            return Err(OversizeEntry {
                charge,
                budget: self.budget,
            });
        }
        if let Some(&idx) = self.map.get(key) {
            // Replace in place, adjust charge.
            self.used -= Self::charge(&self.slab[idx].key, &self.slab[idx].value);
            self.slab[idx].value = value.into();
            self.used += charge;
            self.unlink(idx);
            self.push_front(idx);
        } else {
            let idx = self.alloc(key.into(), value.into());
            self.map.insert(key.into(), idx);
            self.push_front(idx);
            self.used += charge;
        }
        while self.used > self.budget && self.tail != NIL {
            self.evict_coldest();
        }
        Ok(())
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn evict_coldest(&mut self) {
        let idx = self.tail;
        self.unlink(idx);
        let key = std::mem::take(&mut self.slab[idx].key);
        let value = std::mem::take(&mut self.slab[idx].value);
        self.used -= Self::charge(&key, &value);
        self.map.remove(&key);
        self.free.push(idx);
        self.evictions += 1;
    }

    fn alloc(&mut self, key: Box<[u8]>, value: Box<[u8]>) -> usize {
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.slab[idx] = node;
            idx
        } else {
            self.slab.push(node);
            self.slab.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_for(entries: usize, entry_bytes: usize) -> LruCache {
        LruCache::new(entries * (entry_bytes + ENTRY_OVERHEAD))
    }

    #[test]
    fn get_after_put() {
        let mut c = cache_for(4, 2);
        c.put(b"a", b"1").unwrap();
        c.put(b"b", b"2").unwrap();
        assert_eq!(c.get(b"a"), Some(&b"1"[..]));
        assert_eq!(c.get(b"b"), Some(&b"2"[..]));
        assert_eq!(c.get(b"z"), None);
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache_for(2, 2);
        c.put(b"a", b"1").unwrap();
        c.put(b"b", b"2").unwrap();
        c.get(b"a"); // promote a; b is now coldest
        c.put(b"c", b"3").unwrap();
        assert_eq!(c.evictions(), 1);
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"b").is_none());
        assert!(c.get(b"c").is_some());
    }

    #[test]
    fn replace_updates_value_and_charge() {
        let mut c = cache_for(2, 16);
        c.put(b"k", b"short").unwrap();
        let before = c.used_bytes();
        c.put(b"k", b"a-much-longer-value").unwrap();
        assert!(c.used_bytes() > before);
        assert_eq!(c.get(b"k"), Some(&b"a-much-longer-value"[..]));
        assert_eq!(c.map.len(), 1);
    }

    #[test]
    fn oversized_entry_is_a_typed_rejection() {
        let mut c = LruCache::new(32);
        let err = c.put(b"big", &[0u8; 1000]).unwrap_err();
        assert_eq!(err.charge, 3 + 1000 + ENTRY_OVERHEAD);
        assert_eq!(err.budget, 32);
        assert_eq!(c.map.len(), 0);
        assert_eq!(c.get(b"big"), None);
    }

    #[test]
    fn oversized_put_leaves_residents_undisturbed() {
        let mut c = cache_for(2, 2);
        c.put(b"a", b"1").unwrap();
        let err = c.put(b"big", &[0u8; 1000]).unwrap_err();
        assert!(err.charge > err.budget);
        assert_eq!(c.get(b"a"), Some(&b"1"[..]));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn budget_boundary_is_exact() {
        // charge == budget: fits.
        let mut c = LruCache::new(1 + 1 + ENTRY_OVERHEAD);
        c.put(b"a", b"1").unwrap();
        assert_eq!((c.map.len(), c.evictions()), (1, 0));
        assert_eq!(c.used_bytes(), c.budget);
        // charge == budget + 1: rejected, not silently dropped.
        let mut c = LruCache::new(1 + 1 + ENTRY_OVERHEAD - 1);
        let err = c.put(b"a", b"1").unwrap_err();
        assert_eq!(err.charge, err.budget + 1);
        assert!(c.map.is_empty());
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c = cache_for(1, 2);
        for i in 0..100u8 {
            c.put(&[i], b"v").unwrap();
        }
        // Only one resident at a time; slab should not grow unbounded.
        assert_eq!(c.map.len(), 1);
        assert!(c.slab.len() <= 2, "slab grew to {}", c.slab.len());
    }

    #[test]
    fn eviction_order_is_exact_lru() {
        let mut c = cache_for(3, 2);
        c.put(b"a", b"1").unwrap();
        c.put(b"b", b"2").unwrap();
        c.put(b"c", b"3").unwrap();
        c.get(b"a");
        c.get(b"c");
        // LRU order now: b (coldest), a, c.
        c.put(b"d", b"4").unwrap();
        assert!(!c.map.contains_key(&b"b"[..]) && c.map.contains_key(&b"a"[..]));
        c.put(b"e", b"5").unwrap();
        assert!(!c.map.contains_key(&b"a"[..]));
        for resident in [b"c", b"d", b"e"] {
            assert!(c.map.contains_key(&resident[..]));
        }
    }
}
