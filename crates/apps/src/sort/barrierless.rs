//! Barrier-less Sort reduce logic (§6.1.1).
//!
//! Without the framework sort, the Reduce side must order keys itself.
//! Following the paper: "We use a Red-Black tree implementation (Java
//! TreeMap) to store a per-key count value. This count value is
//! incremented so that duplicate values do not consume memory. Then, we
//! emit the key count number of times in the end."
//!
//! The key order comes from the engine's partial-result store (a hashed
//! map sorted once at finalize, where the paper kept its TreeMap); this
//! module supplies the per-key state transitions. None of the partial
//! results can be emitted until every value has been seen, so the store
//! grows to O(records) — Table 1's worst case — and in the paper the
//! whole job becomes a race between the framework's merge sort and these
//! tree insertions, which merge sort wins by 2–9% (Figure 6a).

use mr_core::Emit;

/// A fresh duplicate counter for a newly seen key.
pub fn init(_key: u64) -> u64 {
    0
}

/// One more duplicate of `key` has arrived.
pub fn absorb(_key: u64, count: &mut u64, _out: &mut dyn Emit<u64, ()>) {
    *count += 1;
}

/// Two spilled counters for the same key combine additively.
pub fn merge(_key: u64, a: u64, b: u64) -> u64 {
    a + b
}

/// All input seen: emit `key` once per counted duplicate, in key order
/// (the store guarantees ordered finalization).
pub fn finalize(key: u64, count: u64, out: &mut dyn Emit<u64, ()>) {
    for _ in 0..count {
        out.emit(key, ());
    }
}
