//! The programming model: one [`Application`] trait carrying both the
//! classic grouped form and the paper's barrier-less incremental form.
//!
//! In the paper, converting an application means rewriting its `run()` and
//! `reduce()` (Algorithm 1 → Algorithm 2). Here the two forms are methods
//! on the same trait so a single app definition can run under either
//! engine and be checked for output equivalence; the per-app modules in
//! `mr-apps` keep the two forms in separate source files so Table 2's
//! lines-of-code comparison stays honest.

use crate::codec::{Codec, KeyView};
use crate::size::SizeEstimate;
use std::hash::Hash;

/// Intermediate key requirements: shuffled, compared, hashed, spilled,
/// and probed through a [`KeyView`] borrowed from the shuffle batch.
pub trait Key: Clone + Ord + Hash + Send + Codec + KeyView + SizeEstimate + 'static {}
impl<T: Clone + Ord + Hash + Send + Codec + KeyView + SizeEstimate + 'static> Key for T {}

/// Intermediate value requirements: shuffled alongside the key, so they
/// share its [`Codec`] bound — the pipelined shuffle ships records as
/// encoded bytes, not as per-record heap objects.
pub trait Value: Clone + Send + Codec + SizeEstimate + 'static {}
impl<T: Clone + Send + Codec + SizeEstimate + 'static> Value for T {}

/// Output sink passed to map / reduce functions.
pub trait Emit<K, V> {
    /// Emits one record.
    fn emit(&mut self, key: K, value: V);

    /// Emits one record the caller keeps, so a map function can reuse
    /// one scratch key for every record it emits. The default clones
    /// into [`emit`](Emit::emit), which is what a sink that keeps
    /// records does anyway; the shuffle's map-side sink overrides it to
    /// encode (or combine) straight from the references, and so
    /// allocates nothing per record.
    fn emit_ref(&mut self, key: &K, value: &V)
    where
        K: Clone,
        V: Clone,
    {
        self.emit(key.clone(), value.clone());
    }
}

impl<K, V> Emit<K, V> for Vec<(K, V)> {
    fn emit(&mut self, key: K, value: V) {
        self.push((key, value));
    }
}

/// Sink for an application instance's *cache identity* — the parameters
/// that shape its output. Implemented by the shared result cache's key
/// builder; applications only ever write into it through
/// [`Application::cache_identity`].
///
/// Multi-byte writes are length-prefixed by the implementation, so
/// consecutive writes cannot alias by concatenation.
pub trait IdentityWriter {
    /// Absorbs one `u64`.
    fn write_u64(&mut self, v: u64);
    /// Absorbs a byte slice.
    fn write_bytes(&mut self, bytes: &[u8]);
    /// Absorbs a string's UTF-8 bytes.
    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }
    /// Absorbs an `i64` (two's-complement bits).
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    /// Absorbs an `f64`'s IEEE-754 bit pattern (`-0.0` ≠ `0.0`).
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

/// An `Emit` that counts records and forwards to a closure; used by
/// engines to meter output volume.
pub struct FnEmit<F>(pub F);

impl<K, V, F: FnMut(K, V)> Emit<K, V> for FnEmit<F> {
    fn emit(&mut self, key: K, value: V) {
        (self.0)(key, value);
    }
}

/// A complete MapReduce program: the Map function plus *both* Reduce
/// forms, and the metadata the engines need (sorting contract, secondary
/// sort, cost hints live elsewhere).
///
/// # The two Reduce forms
///
/// * [`reduce_grouped`](Application::reduce_grouped) is Hadoop's contract:
///   called once per key group with every value, after the barrier.
/// * [`init`](Application::init) / [`absorb`](Application::absorb) /
///   [`merge`](Application::merge) / [`finalize`](Application::finalize)
///   is the barrier-less contract: `absorb` is called once per *record* in
///   arrival order, updating a per-key partial result ([`Application::State`]);
///   `finalize` runs when all input has been seen. `merge` combines two
///   partial results for the same key — the spill-and-merge store needs it
///   (the paper notes this function "is often functionally the same as the
///   combiner", §5.1).
///
/// # Per-reducer shared state
///
/// Cross-key operations (§4.6) and single-reducer aggregations (§4.7) keep
/// state *across* keys — a window of individuals, a running sum — rather
/// than per key. [`Application::Shared`] models that: one value per reduce
/// task, threaded through every call, flushed at the end. Applications
/// whose classes need no per-key store return `false` from
/// [`uses_keyed_state`](Application::uses_keyed_state) and the engine
/// skips the store entirely, giving the O(1)/O(window) memory of Table 1.
pub trait Application: Send + Sync + 'static {
    /// Input key (e.g. document id).
    type InKey: Clone + Send + Sync + 'static;
    /// Input value (e.g. document text).
    type InValue: Clone + Send + Sync + 'static;
    /// Intermediate (shuffle) key.
    type MapKey: Key;
    /// Intermediate (shuffle) value.
    type MapValue: Value;
    /// Final output key.
    type OutKey: Clone + Ord + Send + 'static;
    /// Final output value.
    type OutValue: Clone + Send + 'static;
    /// Per-key partial result (barrier-less engine).
    type State: SizeEstimate + Codec + Send + 'static;
    /// Per-reduce-task state shared across keys.
    type Shared: Send + 'static;

    /// The Map function.
    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        out: &mut dyn Emit<Self::MapKey, Self::MapValue>,
    );

    /// Fresh shared state for one reduce task.
    fn new_shared(&self) -> Self::Shared;

    /// Classic barrier-mode Reduce: one call per key group.
    fn reduce_grouped(
        &self,
        key: &Self::MapKey,
        values: Vec<Self::MapValue>,
        shared: &mut Self::Shared,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    );

    /// Whether the barrier-less engine keeps a per-key partial result.
    /// Identity, cross-key and single-reducer-aggregation classes say no.
    fn uses_keyed_state(&self) -> bool {
        true
    }

    /// A fresh partial result for `key` (barrier-less engine).
    fn init(&self, key: &Self::MapKey) -> Self::State;

    /// Folds one record into the partial result (barrier-less engine).
    fn absorb(
        &self,
        key: &Self::MapKey,
        state: &mut Self::State,
        value: Self::MapValue,
        shared: &mut Self::Shared,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    );

    /// Combines two partial results for the same key (spill-and-merge).
    fn merge(&self, key: &Self::MapKey, a: Self::State, b: Self::State) -> Self::State;

    /// Emits the final output for `key` once all records are absorbed.
    fn finalize(
        &self,
        key: Self::MapKey,
        state: Self::State,
        shared: &mut Self::Shared,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    );

    /// Flushes shared state at end of task (window remnants, running sums).
    fn flush_shared(&self, shared: Self::Shared, out: &mut dyn Emit<Self::OutKey, Self::OutValue>) {
        let _ = (shared, out);
    }

    /// Grouping predicate used by the barrier engine after sorting.
    ///
    /// The barrier sorts by [`MapKey`](Application::MapKey)'s `Ord` —
    /// Hadoop's default key comparator, stable in fetch order — so a
    /// *secondary sort* is a composite key type whose `Ord` orders the
    /// records within a group (wrap a component in
    /// [`std::cmp::Reverse`] for descending) plus an override of this
    /// predicate that looks at the grouping component only (kNN groups
    /// `(exp_value, distance)` keys by `exp_value`).
    ///
    /// The engine relies on three things: keys that compare equal under
    /// `Ord` are group-equal; a group is contiguous under `Ord` (no key
    /// of another group sorts between two of its keys); and the
    /// predicate is asked as `group_eq(first key of the open group,
    /// candidate)`. Defaults to key equality.
    fn group_eq(&self, a: &Self::MapKey, b: &Self::MapKey) -> bool {
        a == b
    }

    /// Whether the job's contract includes key-sorted output (the Sorting
    /// class). The barrier engine gets this for free; the barrier-less
    /// engine must pay for it in the Reduce function.
    fn requires_sorted_output(&self) -> bool {
        false
    }

    /// Whether the map side may pre-aggregate this application's records
    /// with a combiner derived from the incremental form (the paper notes
    /// `merge` "is often functionally the same as the combiner", §5.1).
    ///
    /// Returning `true` is a contract with three clauses, all required
    /// for the byte-exact output invariant to survive combining:
    ///
    /// 1. [`absorb`](Application::absorb) is a *pure fold* into
    ///    `State` — it emits no output and ignores `shared`;
    /// 2. absorbing values is order-insensitive (the combiner reorders
    ///    records within a map task);
    /// 3. [`combiner_emit`](Application::combiner_emit) re-encodes a
    ///    partial result as shuffle records that, absorbed or grouped
    ///    downstream, yield exactly the output the raw records would
    ///    have. Deterministic emission order is required so re-run map
    ///    tasks reproduce identical output for fault recovery.
    ///
    /// Requires [`uses_keyed_state`](Application::uses_keyed_state);
    /// unkeyed applications have nothing to combine per key.
    fn combine_enabled(&self) -> bool {
        false
    }

    /// Converts one combined partial result back into shuffle records.
    /// Called when the map-side [`CombinerBuffer`](crate::combine::CombinerBuffer)
    /// drains; must be overridden by applications returning `true` from
    /// [`combine_enabled`](Application::combine_enabled). The drained
    /// key is handed over by value, so emitting it costs no clone.
    fn combiner_emit(
        &self,
        key: Self::MapKey,
        state: Self::State,
        out: &mut dyn Emit<Self::MapKey, Self::MapValue>,
    ) {
        let _ = (key, state, out);
        unimplemented!("combine_enabled() applications must implement combiner_emit()")
    }

    /// Emits this key's contribution to a *snapshot* — an early estimate
    /// of the final answer built from the live partial result, published
    /// mid-job under a [`SnapshotPolicy`](crate::SnapshotPolicy).
    ///
    /// The default clones the partial result through its [`Codec`]
    /// round-trip and runs [`finalize`](Application::finalize) on the
    /// clone against throwaway shared state, so any application whose
    /// finalize is a pure projection of `State` gets snapshots for free.
    /// Override to emit a cheaper or smarter estimate (e.g. confidence
    /// bounds). Must not mutate anything: snapshots are read-only over a
    /// frozen view and may never perturb the final output.
    fn snapshot_emit(
        &self,
        key: &Self::MapKey,
        state: &Self::State,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    ) {
        let mut scratch = self.new_shared();
        let bytes = state.to_bytes();
        // An asymmetric State codec is an application bug (the spill
        // store's round-trips would corrupt output too); fail loudly
        // rather than silently omit the key from the estimate.
        let clone = Self::State::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!(
                "snapshot_emit: State codec round-trip failed ({e}); \
                 a lossless encode/decode pair is required"
            )
        });
        self.finalize(key.clone(), clone, &mut scratch, out);
    }

    /// Accuracy of a snapshot `estimate` against the final `truth`, as an
    /// error in `[0, 1]` (0 = exact). Both slices must be in canonical
    /// key-sorted order (what
    /// [`JobOutput::into_sorted_output`](crate::JobOutput::into_sorted_output)
    /// yields). The default measures key coverage — the fraction of final
    /// output keys the estimate has *not* produced yet — which is
    /// meaningful for any application; apps override it with a
    /// value-aware metric (WordCount uses relative count error, kNN the
    /// fraction of wrong neighbours).
    fn snapshot_error(
        &self,
        estimate: &[(Self::OutKey, Self::OutValue)],
        truth: &[(Self::OutKey, Self::OutValue)],
    ) -> f64 {
        if truth.is_empty() {
            return 0.0;
        }
        let mut covered = 0usize;
        let mut total = 0usize;
        let mut est = estimate.iter().map(|(k, _)| k).peekable();
        let mut last: Option<&Self::OutKey> = None;
        for (key, _) in truth {
            if last.is_some_and(|l| l == key) {
                continue; // count each distinct truth key once
            }
            last = Some(key);
            total += 1;
            while est.peek().is_some_and(|e| *e < key) {
                est.next();
            }
            if est.peek().is_some_and(|e| *e == key) {
                covered += 1;
            }
        }
        1.0 - covered as f64 / total as f64
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        "application"
    }

    /// Folds this *instance's* parameters — every field that changes map
    /// or reduce output — into the shared result cache's key, returning
    /// `true` iff the identity is complete.
    ///
    /// The cache keys artifacts by input content plus application
    /// identity; two instances whose outputs can differ must never key
    /// identically (`Grep { pattern: "foo" }` vs `"bar"`, `TopK { k: 5 }`
    /// vs `{ k: 10 }`). The type name alone cannot see instance fields,
    /// so parameterized applications must write each output-shaping
    /// field here.
    ///
    /// The default returns `true` only for zero-sized types — a unit
    /// struct provably carries no parameters to omit — and `false`
    /// otherwise, which makes every cached entry point
    /// ([`LocalRunner::run_cached`], `serve`) **bypass the cache** for
    /// that application (counted as `cache.bypass.count`) rather than
    /// risk serving another configuration's results. Overriding this is
    /// how a parameterized application opts in.
    ///
    /// [`LocalRunner::run_cached`]: crate::local::LocalRunner::run_cached
    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool
    where
        Self: Sized,
    {
        let _ = w;
        std::mem::size_of::<Self>() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_emit_collects() {
        let mut out: Vec<(u32, u32)> = Vec::new();
        out.emit(1, 2);
        out.emit(3, 4);
        assert_eq!(out, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn fn_emit_forwards() {
        let mut n = 0u32;
        {
            let mut sink = FnEmit(|k: u32, v: u32| n += k + v);
            sink.emit(1, 2);
            sink.emit(10, 20);
        }
        assert_eq!(n, 33);
    }
}
