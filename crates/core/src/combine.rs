//! Map-side combining: pre-aggregating map output before the shuffle.
//!
//! Shuffle volume dominates the barrier-less pipeline's cost — every
//! record crosses the network the moment it is produced. The classic
//! lever is Hadoop's combiner, and this codebase gets one *for free*: the
//! incremental form (`init`/`absorb`/`merge`) already is a per-key
//! aggregator, so the map side can run the same fold over its own output
//! and ship the partial results instead of the raw records.
//!
//! [`CombinerBuffer`] holds per-key partials under a byte budget
//! (measured with the same [`SizeEstimate`](crate::size::SizeEstimate)
//! accounting the reduce-side stores use) in a hashed map whose keys are
//! sorted once per drain. The buffer drains in key order, converting
//! each partial back into shuffle records via
//! [`Application::combiner_emit`], so re-run map tasks reproduce
//! byte-identical shuffle output. Both executors use it: the
//! local runner inside its map workers, the cluster simulator inside
//! `map_write`.

use crate::config::StoreIndex;
use crate::store::index::{apply_byte_delta, PartialMap};
use crate::traits::{Application, Emit, FnEmit};
use std::borrow::Cow;

/// An [`Emit`] that rejects output: map-side combining runs `absorb`
/// outside any reduce task, so a combinable application emitting from
/// `absorb` is a contract violation, caught loudly here.
struct NoOutput;

impl<K, V> Emit<K, V> for NoOutput {
    fn emit(&mut self, _key: K, _value: V) {
        panic!(
            "combiner contract violated: absorb() emitted job output during \
             map-side combining; combine_enabled() applications must only \
             aggregate into their per-key state"
        );
    }
}

/// Byte-budgeted map-side pre-aggregator for one shuffle partition.
///
/// Records pushed in are folded into per-key partial results with the
/// application's `init`/`absorb`; [`drain`](CombinerBuffer::drain)
/// converts the partials back into `(MapKey, MapValue)` shuffle records
/// in key order (deterministic, so re-run map tasks reproduce identical
/// output). [`push`](CombinerBuffer::push) drains automatically when the
/// modelled footprint exceeds the budget, bounding map-side memory the
/// same way the paper bounds reduce-side partial results.
pub struct CombinerBuffer<A: Application> {
    entries: PartialMap<A::MapKey, A::State>,
    bytes: usize,
    budget_bytes: usize,
    /// Scratch shared state for `absorb` calls; combinable applications
    /// must not use it (see [`Application::combine_enabled`]), it exists
    /// only to satisfy the signature.
    shared: A::Shared,
    records_in: u64,
    records_out: u64,
}

impl<A: Application> CombinerBuffer<A> {
    /// An empty buffer that drains whenever its modelled footprint
    /// exceeds `budget_bytes`. `_index` is kept only so the benchmark
    /// compiles; ROADMAP item 1 removes it.
    pub fn new(app: &A, budget_bytes: usize, _index: StoreIndex) -> Self {
        debug_assert!(
            app.uses_keyed_state(),
            "combining requires per-key state (uses_keyed_state)"
        );
        CombinerBuffer {
            entries: PartialMap::new(),
            bytes: 0,
            budget_bytes,
            shared: app.new_shared(),
            records_in: 0,
            records_out: 0,
        }
    }

    /// Folds one map-output record into its key's partial result. When
    /// the buffer exceeds its budget, every partial is drained through
    /// `emit` as combined shuffle records.
    pub fn push<F: FnMut(A::MapKey, A::MapValue)>(
        &mut self,
        app: &A,
        key: A::MapKey,
        value: A::MapValue,
        emit: &mut F,
    ) {
        self.fold(app, Cow::Owned(key), value, emit);
    }

    /// [`push`](CombinerBuffer::push) with the key owned or borrowed: a
    /// borrowed key is cloned only when it is new to the buffer, so a
    /// map function's scratch key costs one allocation per distinct key.
    pub(crate) fn fold<F: FnMut(A::MapKey, A::MapValue)>(
        &mut self,
        app: &A,
        key: Cow<'_, A::MapKey>,
        value: A::MapValue,
        emit: &mut F,
    ) {
        self.records_in += 1;
        let shared = &mut self.shared;
        let delta = self.entries.upsert::<A::MapKey>(
            key,
            |k| app.init(k),
            |k, state| app.absorb(k, state, value, shared, &mut NoOutput),
        );
        self.bytes = apply_byte_delta(self.bytes as u64, delta) as usize;
        if self.bytes > self.budget_bytes {
            self.drain(app, emit);
        }
    }

    /// Drains every buffered partial result through `emit`, in key order
    /// (the hashed index pays its one amortized sort here). Also used for
    /// the end-of-task flush.
    pub fn drain<F: FnMut(A::MapKey, A::MapValue)>(&mut self, app: &A, emit: &mut F) {
        let entries = self.entries.drain_sorted();
        self.bytes = 0;
        let mut out = 0u64;
        {
            let mut sink = FnEmit(|k: A::MapKey, v: A::MapValue| {
                out += 1;
                emit(k, v);
            });
            for (key, state) in entries {
                app.combiner_emit(key, state, &mut sink);
            }
        }
        self.records_out += out;
    }

    /// Buffered partials right now.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Modelled heap footprint of the buffered partials.
    pub fn modelled_bytes(&self) -> usize {
        self.bytes
    }

    /// Raw map-output records pushed in so far.
    pub fn records_in(&self) -> u64 {
        self.records_in
    }

    /// Combined records emitted into the shuffle so far (drained only).
    pub fn records_out(&self) -> u64 {
        self.records_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::WordCountApp;

    fn collect(buf: &mut CombinerBuffer<WordCountApp>) -> Vec<(String, u64)> {
        let mut got = Vec::new();
        buf.drain(&WordCountApp, &mut |k, v| got.push((k, v)));
        got
    }

    #[test]
    fn combines_duplicate_keys_into_one_record() {
        let mut buf = CombinerBuffer::new(&WordCountApp, 1 << 20, StoreIndex::Hashed);
        let mut spilled = Vec::new();
        for _ in 0..10 {
            buf.push(&WordCountApp, "a".to_string(), 1, &mut |k, v| {
                spilled.push((k, v))
            });
        }
        buf.push(&WordCountApp, "b".to_string(), 1, &mut |k, v| {
            spilled.push((k, v))
        });
        assert!(spilled.is_empty(), "under budget: nothing drains early");
        assert_eq!(buf.entries(), 2);
        assert_eq!(buf.records_in(), 11);
        let got = collect(&mut buf);
        assert_eq!(got, vec![("a".to_string(), 10), ("b".to_string(), 1)]);
        assert_eq!(buf.records_out(), 2);
        assert_eq!(buf.entries(), 0);
        assert_eq!(buf.modelled_bytes(), 0);
    }

    #[test]
    fn tiny_budget_forces_early_drains_without_losing_counts() {
        // A budget below one entry's footprint drains on every push; the
        // shuffle then carries multiple partials per key, which the
        // reduce side's merge/absorb re-combines. Totals must survive.
        let mut buf = CombinerBuffer::new(&WordCountApp, 1, StoreIndex::Hashed);
        let mut spilled: Vec<(String, u64)> = Vec::new();
        for i in 0..20u64 {
            let word = if i % 2 == 0 { "x" } else { "y" };
            buf.push(&WordCountApp, word.to_string(), 1, &mut |k, v| {
                spilled.push((k, v))
            });
        }
        let rest = collect(&mut buf);
        let total: u64 = spilled.iter().chain(rest.iter()).map(|(_, v)| v).sum();
        assert_eq!(total, 20);
        assert!(
            buf.records_out() >= 2,
            "early drains should have emitted partials"
        );
    }

    #[test]
    fn drain_emits_in_key_order_under_both_indexes() {
        // The buffer's hashed index drains what an ordered (`BTreeMap`)
        // fold of the same pushes holds, in the same order.
        let words = ["c", "a", "b", "a", "d", "c", "a"];
        let mut buf = CombinerBuffer::new(&WordCountApp, 1 << 20, StoreIndex::Hashed);
        let mut ordered: std::collections::BTreeMap<String, u64> = Default::default();
        for word in words {
            buf.push(&WordCountApp, word.to_string(), 1, &mut |_, _| {});
            *ordered.entry(word.to_string()).or_default() += 1;
        }
        assert_eq!(collect(&mut buf), ordered.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn byte_accounting_grows_and_resets() {
        let mut buf = CombinerBuffer::new(&WordCountApp, usize::MAX, StoreIndex::Hashed);
        assert_eq!(buf.modelled_bytes(), 0);
        let mut last = 0;
        for i in 0..50u64 {
            buf.push(&WordCountApp, format!("key-{i}"), 1, &mut |_, _| {});
            assert!(buf.modelled_bytes() > last);
            last = buf.modelled_bytes();
        }
        collect(&mut buf);
        assert_eq!(buf.modelled_bytes(), 0);
    }
}
