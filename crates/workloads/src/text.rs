//! Wikipedia-stand-in text: Zipf-distributed synthetic prose.

use crate::dist::Zipf;
use crate::seeds::mix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates lines of text whose word frequencies follow a Zipf law, the
/// statistical shape that drives WordCount and Distributed Grep in the
/// paper (3–16 GB Wikipedia dumps).
#[derive(Debug, Clone)]
pub struct TextWorkload {
    /// Master seed.
    pub seed: u64,
    /// Vocabulary size (distinct words; sets reducer key cardinality).
    pub vocab: usize,
    /// Zipf exponent (1.0 ≈ natural language).
    pub zipf_s: f64,
    /// Lines generated per chunk.
    pub lines_per_chunk: usize,
    /// Words per line.
    pub words_per_line: usize,
}

impl TextWorkload {
    /// Wikipedia-like defaults: 50 k-word vocabulary, Zipf(1.0), 200
    /// lines of 10 words per chunk (scaled-down record volume).
    pub fn wikipedia(seed: u64) -> Self {
        TextWorkload {
            seed,
            vocab: 50_000,
            zipf_s: 1.0,
            lines_per_chunk: 200,
            words_per_line: 10,
        }
    }

    /// The word spelled for rank `rank` (1-based).
    pub fn word(rank: usize) -> String {
        format!("w{rank:06}")
    }

    /// The lines of chunk `chunk`, keyed by global line number.
    pub fn chunk(&self, chunk: u64) -> Vec<(u64, String)> {
        let zipf = Zipf::new(self.vocab, self.zipf_s);
        let mut rng = StdRng::seed_from_u64(mix(self.seed, chunk));
        let base = chunk * self.lines_per_chunk as u64;
        (0..self.lines_per_chunk)
            .map(|i| {
                let words: Vec<String> = (0..self.words_per_line)
                    .map(|_| Self::word(zipf.sample(&mut rng)))
                    .collect();
                (base + i as u64, words.join(" "))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_deterministic_and_distinct() {
        let w = TextWorkload::wikipedia(11);
        assert_eq!(w.chunk(0), w.chunk(0));
        assert_ne!(w.chunk(0), w.chunk(1));
        let w2 = TextWorkload::wikipedia(12);
        assert_ne!(w.chunk(0), w2.chunk(0));
    }

    #[test]
    fn line_keys_are_globally_unique() {
        let w = TextWorkload {
            seed: 3,
            vocab: 100,
            zipf_s: 1.0,
            lines_per_chunk: 50,
            words_per_line: 5,
        };
        let mut keys = Vec::new();
        for c in 0..4 {
            keys.extend(w.chunk(c).into_iter().map(|(k, _)| k));
        }
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn word_frequencies_are_skewed() {
        let w = TextWorkload {
            seed: 7,
            vocab: 1000,
            zipf_s: 1.0,
            lines_per_chunk: 2000,
            words_per_line: 10,
        };
        let mut counts = std::collections::HashMap::new();
        for (_, line) in w.chunk(0) {
            for word in line.split_whitespace() {
                *counts.entry(word.to_string()).or_insert(0u32) += 1;
            }
        }
        let top = counts.get(&TextWorkload::word(1)).copied().unwrap_or(0);
        let median_rank = counts.get(&TextWorkload::word(500)).copied().unwrap_or(0);
        assert!(
            top > 50 * median_rank.max(1) / 10,
            "top {top}, mid {median_rank}"
        );
    }

    #[test]
    fn shape_matches_config() {
        let w = TextWorkload {
            seed: 1,
            vocab: 10,
            zipf_s: 1.0,
            lines_per_chunk: 7,
            words_per_line: 3,
        };
        let lines = w.chunk(2);
        assert_eq!(lines.len(), 7);
        assert!(lines.iter().all(|(_, l)| l.split_whitespace().count() == 3));
    }
}
