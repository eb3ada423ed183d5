//! In-tree FxHash-style hasher for the absorb hot path.
//!
//! Once the stage barrier is gone, every shuffled record becomes one
//! probe into a partial-result store, so per-probe cost *is* the reduce
//! hot path. `std`'s default SipHash is DoS-resistant but slow for the
//! short keys MapReduce shuffles around; the classic answer (rustc's
//! `FxHashMap`, Firefox's original) is a multiply-rotate hash that
//! compiles to a handful of instructions per word. External crates are
//! off-limits in this workspace (see the README's offline dependency
//! policy), so the algorithm is implemented here, same policy as the
//! shims.
//!
//! DoS resistance is deliberately *not* a goal: keys come from the job's
//! own map output, not from an adversary sharing a hash table with other
//! tenants.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant from rustc's FxHash (a truncation of
/// π·2⁶² — any odd constant with well-mixed bits works).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher: for each word `w`,
/// `hash = (hash.rotate_left(5) ^ w) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (head, tail) = rest.split_at(8);
            self.add_to_hash(u64::from_le_bytes(head.try_into().expect("8 bytes")));
            rest = tail;
        }
        if rest.len() >= 4 {
            let (head, tail) = rest.split_at(4);
            self.add_to_hash(u32::from_le_bytes(head.try_into().expect("4 bytes")) as u64);
            rest = tail;
        }
        if rest.len() >= 2 {
            let (head, tail) = rest.split_at(2);
            self.add_to_hash(u16::from_le_bytes(head.try_into().expect("2 bytes")) as u64);
            rest = tail;
        }
        if let [byte] = rest {
            self.add_to_hash(*byte as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s; zero-sized, so maps carry no
/// per-instance seed state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by [`FxHasher`] — the index behind
/// [`PartialMap`](crate::store::PartialMap).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hashers() {
        for key in ["", "a", "word", "a-much-longer-key-spanning-words"] {
            assert_eq!(hash_of(&key), hash_of(&key));
        }
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(7u32, -3i64)), hash_of(&(7u32, -3i64)));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn write_chunking_covers_every_tail_length() {
        // 0..=16 bytes exercises the 8/4/2/1 chunk ladder end to end;
        // prefixes must not collide with each other.
        let bytes: Vec<u8> = (1..=16).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=bytes.len() {
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            assert!(seen.insert(h.finish()), "collision at prefix {len}");
        }
    }

    #[test]
    fn spreads_sequential_keys_across_buckets() {
        // A smoke check that the mix is usable: 10k sequential u64 keys
        // should not pile into a handful of low-bit patterns.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            low_bits.insert(hash_of(&i) & 0xff);
        }
        assert!(low_bits.len() > 200, "only {} buckets hit", low_bits.len());
    }

    #[test]
    fn fx_hashmap_behaves_like_a_map() {
        let mut m: FxHashMap<String, u64> = FxHashMap::default();
        for i in 0..100u64 {
            *m.entry(format!("k{}", i % 10)).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m["k3"], 10);
    }
}
