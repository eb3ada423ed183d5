//! Heap-size estimation for partial results.
//!
//! The barrier-less engine must know how much memory the partial-result
//! store is holding — it is what triggers spills (§5.1) and what Figure 5
//! plots. Estimates model the JVM-style cost the paper measured: per-object
//! headers and container entry overheads, not just payload bytes.

use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-container-entry bookkeeping charge (tree node / bucket entry).
pub const ENTRY_OVERHEAD: usize = 48;

/// Best-effort estimate of the heap bytes a value occupies.
pub trait SizeEstimate {
    /// Estimated resident bytes, including owned allocations.
    fn estimated_bytes(&self) -> usize;
}

macro_rules! fixed_size {
    ($($t:ty),*) => {$(
        impl SizeEstimate for $t {
            fn estimated_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

fixed_size!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl SizeEstimate for () {
    fn estimated_bytes(&self) -> usize {
        0
    }
}

/// Charged by length, not capacity: the estimate drives the shuffle's
/// batch cuts and the stores' spill cadence, which must be a function of
/// the content alone, not of how the string was allocated (a map
/// function's reused scratch key carries spare capacity).
impl SizeEstimate for String {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<String>() + self.len()
    }
}

impl<T: SizeEstimate> SizeEstimate for Vec<T> {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Vec<T>>() + self.iter().map(T::estimated_bytes).sum::<usize>()
    }
}

impl<T: SizeEstimate> SizeEstimate for Option<T> {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Option<T>>() + self.as_ref().map_or(0, |v| v.estimated_bytes())
    }
}

impl<T: SizeEstimate> SizeEstimate for std::cmp::Reverse<T> {
    fn estimated_bytes(&self) -> usize {
        self.0.estimated_bytes()
    }
}

impl<T: SizeEstimate> SizeEstimate for Box<T> {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<usize>() + (**self).estimated_bytes()
    }
}

impl<K: SizeEstimate, V: SizeEstimate> SizeEstimate for BTreeMap<K, V> {
    fn estimated_bytes(&self) -> usize {
        self.iter()
            .map(|(k, v)| k.estimated_bytes() + v.estimated_bytes() + ENTRY_OVERHEAD)
            .sum()
    }
}

impl<K: SizeEstimate, V: SizeEstimate> SizeEstimate for HashMap<K, V> {
    fn estimated_bytes(&self) -> usize {
        self.iter()
            .map(|(k, v)| k.estimated_bytes() + v.estimated_bytes() + ENTRY_OVERHEAD)
            .sum()
    }
}

impl<T: SizeEstimate> SizeEstimate for HashSet<T> {
    fn estimated_bytes(&self) -> usize {
        self.iter()
            .map(|v| v.estimated_bytes() + ENTRY_OVERHEAD)
            .sum()
    }
}

macro_rules! tuple_size {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: SizeEstimate),+> SizeEstimate for ($($name,)+) {
            fn estimated_bytes(&self) -> usize {
                0 $(+ self.$idx.estimated_bytes())+
            }
        }
    )*};
}

tuple_size! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_their_size() {
        assert_eq!(5u64.estimated_bytes(), 8);
        assert_eq!(1u8.estimated_bytes(), 1);
        assert_eq!(2.5f64.estimated_bytes(), 8);
        assert_eq!(().estimated_bytes(), 0);
    }

    #[test]
    fn equal_strings_estimate_alike_whatever_their_capacity() {
        let mut roomy = String::with_capacity(100);
        roomy.push_str("abc");
        let tight = "abc".to_string();
        assert_eq!(roomy.estimated_bytes(), tight.estimated_bytes());
        assert_eq!(tight.estimated_bytes(), 3 + std::mem::size_of::<String>());
    }

    #[test]
    fn containers_charge_per_entry_overhead() {
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        assert_eq!(m.estimated_bytes(), 0);
        for i in 0..10 {
            m.insert(i, i);
        }
        assert_eq!(m.estimated_bytes(), 10 * (8 + 8 + ENTRY_OVERHEAD));

        let mut s: HashSet<u32> = HashSet::new();
        s.insert(1);
        s.insert(2);
        assert_eq!(s.estimated_bytes(), 2 * (4 + ENTRY_OVERHEAD));
    }

    #[test]
    fn nesting_compounds() {
        let v: Vec<Vec<u64>> = vec![vec![1, 2], vec![3]];
        let inner = std::mem::size_of::<Vec<u64>>();
        assert_eq!(
            v.estimated_bytes(),
            std::mem::size_of::<Vec<Vec<u64>>>() + (inner + 16) + (inner + 8)
        );
        let t = (1u64, "ab".to_string());
        assert!(t.estimated_bytes() > 8);
    }

    #[test]
    fn growth_is_monotone_in_content() {
        let mut set: HashSet<u64> = HashSet::new();
        let mut last = set.estimated_bytes();
        for i in 0..100 {
            set.insert(i);
            let now = set.estimated_bytes();
            assert!(now > last);
            last = now;
        }
    }
}
