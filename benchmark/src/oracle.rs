//! The correctness oracle: single-threaded reference computations that
//! share no code with the program under test, and an order-insensitive
//! digest to compare a round's output against them outside the clock.

use std::collections::HashMap;

/// Order-insensitive digest of a multiset of records: how many there
/// were and the wrapping sum of their (well-mixed) hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, record_hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(record_hash);
    }
}

/// FNV-1a over `bytes`, then a SplitMix64 finalizer so that summing
/// hashes does not cancel structure FNV leaves in the low bits.
fn hash_bytes(bytes: &[u8], salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Digest of `(word, count)` records in any order.
pub fn digest_counts<'a>(records: impl IntoIterator<Item = (&'a str, u64)>) -> Digest {
    let mut d = Digest::default();
    for (word, count) in records {
        d.add(hash_bytes(word.as_bytes(), count));
    }
    d
}

/// Digest of a job's output partitions of `(word, count)` records.
pub fn digest_partitions(partitions: &[Vec<(String, u64)>]) -> Digest {
    digest_counts(partitions.iter().flatten().map(|(w, c)| (w.as_str(), *c)))
}

/// Reference word count: one std hash map, one thread, no engine. (An
/// ordered map costs four times as long on the 400 k-word vocabulary,
/// and the digest does not care about order.)
pub fn word_counts<'a>(lines: impl IntoIterator<Item = &'a str>) -> HashMap<&'a str, u64> {
    let mut counts = HashMap::new();
    for line in lines {
        for word in line.split_whitespace() {
            *counts.entry(word).or_insert(0u64) += 1;
        }
    }
    counts
}

/// Digest of [`word_counts`] over `splits`.
pub fn word_count_digest(splits: &[Vec<(u64, String)>]) -> Digest {
    let counts = word_counts(splits.iter().flatten().map(|(_, line)| line.as_str()));
    digest_counts(counts.iter().map(|(w, c)| (*w, *c)))
}

/// Reference top-`k` by *(count descending, word ascending)*.
pub fn top_k(counts: &HashMap<&str, u64>, k: usize) -> Vec<(String, u64)> {
    let mut all: Vec<(&str, u64)> = counts.iter().map(|(w, c)| (*w, *c)).collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    all.into_iter()
        .take(k)
        .map(|(w, c)| (w.to_string(), c))
        .collect()
}

/// Reference for `grep → sort`: the keys of the lines containing
/// `pattern`, ascending.
pub fn matching_keys_sorted(splits: &[Vec<(u64, String)>], pattern: &str) -> Vec<u64> {
    let mut keys: Vec<u64> = splits
        .iter()
        .flatten()
        .filter(|(_, line)| line.contains(pattern))
        .map(|(k, _)| *k)
        .collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = digest_counts([("x", 1), ("y", 2), ("z", 3)]);
        let b = digest_counts([("z", 3), ("x", 1), ("y", 2)]);
        assert_eq!(a, b);
        assert_ne!(a, digest_counts([("x", 1), ("y", 2), ("z", 4)]));
        assert_ne!(a, digest_counts([("x", 2), ("y", 1), ("z", 3)]));
        assert_ne!(a, digest_counts([("x", 1), ("y", 2)]));
        assert_ne!(a, digest_counts([("x", 1), ("y", 2), ("z", 3), ("z", 3)]));
    }

    #[test]
    fn reference_word_count_and_top_k() {
        let lines = ["b a b", "c b a"];
        let mut counts: Vec<_> = word_counts(lines).into_iter().collect();
        counts.sort_unstable();
        assert_eq!(counts, [("a", 2), ("b", 3), ("c", 1)]);
        let counts = word_counts(lines);
        assert_eq!(
            top_k(&counts, 2),
            [("b".to_string(), 3), ("a".to_string(), 2)]
        );
        let split = vec![vec![(0u64, "b a b".to_string()), (1, "c b a".to_string())]];
        assert_eq!(
            word_count_digest(&split),
            digest_counts([("c", 1), ("a", 2), ("b", 3)])
        );
    }

    #[test]
    fn reference_grep_sort() {
        let splits = vec![
            vec![(9u64, "an error".to_string()), (2, "fine".to_string())],
            vec![(4, "error again".to_string())],
        ];
        assert_eq!(matching_keys_sorted(&splits, "error"), [4, 9]);
    }
}
