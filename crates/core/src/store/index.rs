//! The per-key index behind the in-memory partial stores.
//!
//! [`PartialMap`] is the one data structure every absorb-heavy component
//! shares — the reduce-side [`InMemoryStore`](super::InMemoryStore), the
//! [`SpillMergeStore`](super::SpillMergeStore)'s live run, and the
//! map-side [`CombinerBuffer`](crate::combine::CombinerBuffer). It wraps
//! an FxHash map ([`crate::hash`]) where the paper's prototype kept a
//! TreeMap.
//!
//! The contract that makes the swap invisible: **insertion order never
//! leaks**. Probes and inserts are order-free, and the only way entries
//! come back out is key-sorted — [`drain_sorted`] (spill runs, combiner
//! drains), [`into_sorted_iter`] (finalize) and [`sorted_view`]
//! (snapshots). The keys are sorted once at the drain, amortizing the
//! ordering cost the TreeMap paid on every insert; keys within one map
//! are unique, so the sort has no equal elements and the drain is the
//! ordered walk the TreeMap gave.
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
//! [`sorted_view`]: PartialMap::sorted_view

use crate::hash::FxHashMap;
use crate::size::{SizeEstimate, ENTRY_OVERHEAD};
use std::borrow::{Borrow, Cow};
use std::cell::{Ref, RefCell};
use std::hash::Hash;

/// A per-key map with order-free writes and key-sorted drains.
#[derive(Debug, Clone)]
pub struct PartialMap<K, V> {
    map: FxHashMap<K, RefCell<V>>,
}

impl<K, V> Default for PartialMap<K, V> {
    fn default() -> Self {
        PartialMap {
            map: FxHashMap::default(),
        }
    }
}

impl<K: Ord + Hash + Eq, V> PartialMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `key`'s state, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key).map(RefCell::get_mut)
    }

    /// Inserts a fresh entry (replacing any entry for `key`).
    pub fn insert(&mut self, key: K, value: V) {
        self.map.insert(key, RefCell::new(value));
    }

    /// Empties the map and returns every entry in ascending key order —
    /// the amortized sort the hot path skipped.
    pub fn drain_sorted(&mut self) -> SortedDrain<K, V> {
        let mut entries: Vec<(K, RefCell<V>)> = self.map.drain().collect();
        // Keys are unique, so an unstable sort is deterministic.
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        SortedDrain(entries.into_iter())
    }

    /// Consumes the map, yielding every entry in ascending key order.
    pub fn into_sorted_iter(mut self) -> SortedDrain<K, V> {
        self.drain_sorted()
    }

    /// A *frozen view*: every live entry by reference, in ascending key
    /// order, leaving the map untouched. This is what snapshots walk —
    /// the same key ordering as [`drain_sorted`](PartialMap::drain_sorted)
    /// without consuming anything, so observation never perturbs spill
    /// cadence, byte accounting or final output. It pays one reference
    /// sort.
    pub fn sorted_view(&self) -> Vec<(&K, Ref<'_, V>)> {
        let mut entries: Vec<(&K, &RefCell<V>)> = self.map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
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
        Q: ?Sized + Hash + Eq + ToOwned<Owned = K>,
    {
        if let Some((stored, cell)) = self.map.get_key_value(&*key) {
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
pub struct SortedDrain<K, V>(std::vec::IntoIter<(K, RefCell<V>)>);

impl<K, V> Iterator for SortedDrain<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let (key, cell) = self.0.next()?;
        Some((key, cell.into_inner()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> ExactSizeIterator for SortedDrain<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const WORDS: [&str; 4] = ["delta", "alpha", "charlie", "bravo"];

    fn filled() -> PartialMap<String, u64> {
        let mut m = PartialMap::new();
        for word in WORDS {
            m.insert(word.to_string(), 1);
        }
        *m.get_mut(&"alpha".to_string()).expect("present") += 9;
        m
    }

    /// The same entries as [`filled`], folded into an ordered map — the
    /// other index the tests compare against.
    fn oracle() -> Vec<(String, u64)> {
        let mut m: BTreeMap<String, u64> = WORDS.iter().map(|w| (w.to_string(), 1)).collect();
        *m.get_mut("alpha").expect("present") += 9;
        m.into_iter().collect()
    }

    #[test]
    fn both_indexes_drain_in_identical_key_order() {
        let drained: Vec<_> = filled().into_sorted_iter().collect();
        assert_eq!(drained, oracle());
        assert_eq!(drained[0], ("alpha".to_string(), 10));
    }

    #[test]
    fn sorted_view_is_key_ordered_and_non_destructive() {
        let m = filled();
        let view: Vec<(String, u64)> = m
            .sorted_view()
            .into_iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(view, oracle());
        // Nothing consumed: the drain still sees everything.
        assert_eq!(m.len(), 4);
        let drained: Vec<(String, u64)> = m.into_sorted_iter().collect();
        assert_eq!(drained, view);
    }

    #[test]
    fn drain_sorted_resets_but_keeps_the_strategy() {
        // A drained map is empty and still sorts at its next drain.
        let mut m = filled();
        assert_eq!(m.len(), 4);
        let first = m.drain_sorted();
        assert_eq!(first.len(), 4, "ExactSizeIterator");
        assert_eq!(first.count(), 4);
        assert!(m.is_empty());
        for (key, value) in [("foxtrot", 6), ("echo", 5)] {
            m.insert(key.to_string(), value);
        }
        let again: Vec<_> = m.drain_sorted().collect();
        assert_eq!(
            again,
            vec![("echo".to_string(), 5), ("foxtrot".to_string(), 6)]
        );
    }

    #[test]
    fn upsert_reports_miss_and_hit_deltas() {
        let mut m: PartialMap<u64, Vec<u64>> = PartialMap::new();
        let miss = m.upsert(Cow::Owned(1), |_| Vec::new(), |_, v| v.push(9));
        assert!(miss > 0, "miss must charge key+state+overhead");
        let grow = m.upsert(Cow::Owned(1), |_| Vec::new(), |_, v| v.push(9));
        assert!(grow > 0);
        let shrink = m.upsert(Cow::Owned(1), |_| Vec::new(), |_, v| v.clear());
        assert!(shrink < 0, "shrinking state must report a negative delta");
        assert_eq!(apply_byte_delta(100, 8), 108);
        assert_eq!(apply_byte_delta(100, -8), 92);
        assert_eq!(apply_byte_delta(4, -8), 0, "saturates at zero");
    }

    #[test]
    fn probe_misses_and_hits() {
        let mut m: PartialMap<u64, u64> = PartialMap::new();
        assert!(m.get_mut(&7).is_none());
        m.insert(7, 1);
        *m.get_mut(&7).expect("hit") += 1;
        assert_eq!(m.into_sorted_iter().collect::<Vec<_>>(), vec![(7, 2)]);
    }
}
