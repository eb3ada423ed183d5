//! The per-key index behind the in-memory partial stores.
//!
//! [`PartialMap`] is the one data structure every absorb-heavy component
//! shares — the reduce-side [`InMemoryStore`](super::InMemoryStore), the
//! [`SpillMergeStore`](super::SpillMergeStore)'s live run, and the
//! map-side [`CombinerBuffer`](crate::combine::CombinerBuffer). It wraps
//! either an ordered map (the paper's TreeMap) or an FxHash map
//! ([`crate::hash`]), selected by [`StoreIndex`].
//!
//! The contract that keeps the two interchangeable: **insertion order
//! never leaks**. Probes and inserts are order-free, and the only way
//! entries come back out is key-sorted — [`drain_sorted`] (spill runs,
//! combiner drains) and [`into_sorted_iter`] (finalize). Under `Ordered`
//! that is a plain in-order walk (no intermediate collection); under
//! `Hashed` the keys are sorted once at the drain, amortizing the
//! ordering cost the TreeMap paid on every insert. Because keys within
//! one map are unique, the sort has no equal elements and both indexes
//! produce byte-identical drains.
//!
//! The absorb path probes with a *borrowed* key — a
//! [`KeyView`](crate::codec::KeyView) read out of a shuffle batch, or a
//! map function's scratch key — and builds an owned key only on a miss.
//! A hit must hand the application the stored key and its state
//! together, and `std`'s maps lend a key only beside a shared reference
//! to its value, so each state sits in a [`RefCell`]: the probe borrows
//! the entry shared and the cell lends the state mutably.
//!
//! [`drain_sorted`]: PartialMap::drain_sorted
//! [`into_sorted_iter`]: PartialMap::into_sorted_iter

use crate::config::StoreIndex;
use crate::hash::FxHashMap;
use crate::size::{SizeEstimate, ENTRY_OVERHEAD};
use std::borrow::{Borrow, Cow};
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::hash::Hash;

/// A per-key map with order-free writes and key-sorted drains.
#[derive(Debug, Clone)]
pub enum PartialMap<K, V> {
    /// Keys kept sorted on every insert (`BTreeMap`).
    Ordered(BTreeMap<K, RefCell<V>>),
    /// O(1) expected probes; sorted once at drain (`FxHashMap`).
    Hashed(FxHashMap<K, RefCell<V>>),
}

impl<K: Ord + Hash + Eq, V> PartialMap<K, V> {
    /// An empty map using the given index strategy.
    pub fn new(index: StoreIndex) -> Self {
        match index {
            StoreIndex::Ordered => PartialMap::Ordered(BTreeMap::new()),
            StoreIndex::Hashed => PartialMap::Hashed(FxHashMap::default()),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        match self {
            PartialMap::Ordered(m) => m.len(),
            PartialMap::Hashed(m) => m.len(),
        }
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `key`'s state, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let cell = match self {
            PartialMap::Ordered(m) => m.get_mut(key),
            PartialMap::Hashed(m) => m.get_mut(key),
        };
        cell.map(RefCell::get_mut)
    }

    /// Inserts a fresh entry (replacing any entry for `key`).
    pub fn insert(&mut self, key: K, value: V) {
        let value = RefCell::new(value);
        match self {
            PartialMap::Ordered(m) => {
                m.insert(key, value);
            }
            PartialMap::Hashed(m) => {
                m.insert(key, value);
            }
        }
    }

    /// Empties the map (keeping its strategy) and returns every entry in
    /// ascending key order — the amortized sort the hot path skipped.
    /// The ordered index streams straight out of the tree; only the
    /// hashed index materializes (to sort).
    pub fn drain_sorted(&mut self) -> SortedDrain<K, V> {
        match self {
            PartialMap::Ordered(m) => SortedDrain::Ordered(std::mem::take(m).into_iter()),
            PartialMap::Hashed(m) => {
                let mut entries: Vec<(K, RefCell<V>)> = m.drain().collect();
                // Keys are unique, so an unstable sort is deterministic.
                entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                SortedDrain::Hashed(entries.into_iter())
            }
        }
    }

    /// Consumes the map, yielding every entry in ascending key order.
    pub fn into_sorted_iter(mut self) -> SortedDrain<K, V> {
        self.drain_sorted()
    }

    /// A *frozen view*: every live entry by reference, in ascending key
    /// order, leaving the map untouched. This is what snapshots walk —
    /// the same key ordering as [`drain_sorted`](PartialMap::drain_sorted)
    /// without consuming anything, so observation never perturbs spill
    /// cadence, byte accounting or final output. The ordered index
    /// streams its tree walk; the hashed index pays one reference sort.
    pub fn sorted_view(&self) -> Vec<(&K, Ref<'_, V>)> {
        let entries: Vec<(&K, &RefCell<V>)> = match self {
            PartialMap::Ordered(m) => m.iter().collect(),
            PartialMap::Hashed(m) => {
                let mut entries: Vec<_> = m.iter().collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
                entries
            }
        };
        entries.into_iter().map(|(k, v)| (k, v.borrow())).collect()
    }

    /// The absorb hot path, shared by every store and the combiner:
    /// probes with `key` borrowed and folds into its entry via `absorb`,
    /// or — on a miss — builds the owned key (a clone only if `key` is
    /// borrowed), creates its state with `init` and folds into that.
    /// Returns the signed change in estimated bytes — the state delta on
    /// a hit; key + state + [`ENTRY_OVERHEAD`] on a miss — for the
    /// caller's accounting (see [`apply_byte_delta`]).
    #[inline]
    pub fn upsert<Q>(
        &mut self,
        key: Cow<'_, Q>,
        init: impl FnOnce(&K) -> V,
        absorb: impl FnOnce(&K, &mut V),
    ) -> isize
    where
        K: Borrow<Q> + SizeEstimate,
        V: SizeEstimate,
        Q: ?Sized + Hash + Ord + ToOwned<Owned = K>,
    {
        let hit = match self {
            PartialMap::Ordered(m) => m.get_key_value(&*key),
            PartialMap::Hashed(m) => m.get_key_value(&*key),
        };
        if let Some((stored, cell)) = hit {
            let state = &mut *cell.borrow_mut();
            let before = state.estimated_bytes();
            absorb(stored, state);
            return state.estimated_bytes() as isize - before as isize;
        }
        let key = key.into_owned();
        let mut state = init(&key);
        absorb(&key, &mut state);
        let added = key.estimated_bytes() + state.estimated_bytes() + ENTRY_OVERHEAD;
        self.insert(key, state);
        added as isize
    }

    /// [`upsert`](PartialMap::upsert) with an owned key, moved in on a
    /// miss.
    #[inline]
    pub fn upsert_with(
        &mut self,
        key: K,
        init: impl FnOnce(&K) -> V,
        absorb: impl FnOnce(&K, &mut V),
    ) -> isize
    where
        K: Clone + SizeEstimate,
        V: SizeEstimate,
    {
        self.upsert::<K>(Cow::Owned(key), init, absorb)
    }
}

/// Applies a signed byte delta from [`PartialMap::upsert`] to a
/// byte counter, saturating at zero (states can shrink — e.g. a
/// selection evicting values — so the delta is not assumed non-negative).
#[inline]
pub fn apply_byte_delta(total: u64, delta: isize) -> u64 {
    if delta >= 0 {
        total + delta as u64
    } else {
        total.saturating_sub(delta.unsigned_abs() as u64)
    }
}

/// Key-ascending draining iterator over a [`PartialMap`]'s entries.
pub enum SortedDrain<K, V> {
    /// Streaming straight out of the ordered tree.
    Ordered(std::collections::btree_map::IntoIter<K, RefCell<V>>),
    /// Walking the just-sorted entries of the hashed index.
    Hashed(std::vec::IntoIter<(K, RefCell<V>)>),
}

impl<K, V> Iterator for SortedDrain<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let (key, cell) = match self {
            SortedDrain::Ordered(it) => it.next(),
            SortedDrain::Hashed(it) => it.next(),
        }?;
        Some((key, cell.into_inner()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SortedDrain::Ordered(it) => it.size_hint(),
            SortedDrain::Hashed(it) => it.size_hint(),
        }
    }
}

impl<K, V> ExactSizeIterator for SortedDrain<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(index: StoreIndex) -> PartialMap<String, u64> {
        let mut m = PartialMap::new(index);
        for word in ["delta", "alpha", "charlie", "bravo"] {
            m.insert(word.to_string(), 1);
        }
        *m.get_mut(&"alpha".to_string()).expect("present") += 9;
        m
    }

    #[test]
    fn both_indexes_drain_in_identical_key_order() {
        let ordered: Vec<_> = filled(StoreIndex::Ordered).into_sorted_iter().collect();
        let hashed: Vec<_> = filled(StoreIndex::Hashed).into_sorted_iter().collect();
        assert_eq!(ordered, hashed);
        assert_eq!(ordered[0].0, "alpha");
        assert_eq!(ordered[0].1, 10);
    }

    #[test]
    fn sorted_view_is_key_ordered_and_non_destructive() {
        for index in [StoreIndex::Ordered, StoreIndex::Hashed] {
            let m = filled(index);
            let view: Vec<(String, u64)> = m
                .sorted_view()
                .into_iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(
                view.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                vec!["alpha", "bravo", "charlie", "delta"],
                "index {index:?}"
            );
            // Nothing consumed: the drain still sees everything.
            assert_eq!(m.len(), 4);
            let drained: Vec<(String, u64)> = m.into_sorted_iter().collect();
            assert_eq!(drained, view, "view diverged from drain under {index:?}");
        }
    }

    #[test]
    fn drain_sorted_resets_but_keeps_the_strategy() {
        for index in [StoreIndex::Ordered, StoreIndex::Hashed] {
            let mut m = filled(index);
            assert_eq!(m.len(), 4);
            let first = m.drain_sorted();
            assert_eq!(first.len(), 4, "ExactSizeIterator under {index:?}");
            assert_eq!(first.count(), 4);
            assert!(m.is_empty());
            m.insert("echo".to_string(), 5);
            let again: Vec<_> = m.drain_sorted().collect();
            assert_eq!(again, vec![("echo".to_string(), 5)]);
        }
    }

    #[test]
    fn upsert_reports_miss_and_hit_deltas() {
        for index in [StoreIndex::Ordered, StoreIndex::Hashed] {
            let mut m: PartialMap<u64, Vec<u64>> = PartialMap::new(index);
            let miss = m.upsert_with(1, |_| Vec::new(), |_, v| v.push(9));
            assert!(miss > 0, "miss must charge key+state+overhead");
            let grow = m.upsert_with(1, |_| Vec::new(), |_, v| v.push(9));
            assert!(grow > 0);
            let shrink = m.upsert_with(1, |_| Vec::new(), |_, v| v.clear());
            assert!(shrink < 0, "shrinking state must report a negative delta");
            assert_eq!(apply_byte_delta(100, 8), 108);
            assert_eq!(apply_byte_delta(100, -8), 92);
            assert_eq!(apply_byte_delta(4, -8), 0, "saturates at zero");
        }
    }

    #[test]
    fn probe_misses_and_hits() {
        for index in [StoreIndex::Ordered, StoreIndex::Hashed] {
            let mut m: PartialMap<u64, u64> = PartialMap::new(index);
            assert!(m.get_mut(&7).is_none());
            m.insert(7, 1);
            *m.get_mut(&7).expect("hit") += 1;
            assert_eq!(m.into_sorted_iter().collect::<Vec<_>>(), vec![(7, 2)]);
        }
    }
}
