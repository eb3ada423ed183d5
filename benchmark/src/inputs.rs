//! Frozen workload sizes and the seeded input generators. Sizes are
//! reference values measured once on a 2-core box and then frozen: the
//! benchmark never calibrates itself to the machine it runs on, so two
//! commits always see the same work.

use crate::json::Value;
use mr_workloads::{mix, TextWorkload};

/// Input splits as the local executor's by-value API takes them.
pub type Splits = Vec<Vec<(u64, String)>>;

/// Every size constant of the benchmark. `FULL` is what results are
/// compared at; `quick()` is the ⅛-size smoke variant.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `wc_*`: splits × lines × words map-output records.
    pub wc_splits: usize,
    pub wc_lines: usize,
    pub wc_words: usize,
    /// `wc_pipeline` / `wc_barrier` / `wc_combined` vocabulary, Zipf 1.0.
    pub wc_vocab: usize,
    /// `wc_spill` vocabulary (Zipf 0.6: wide and flat) and spill threshold.
    pub spill_vocab: usize,
    pub spill_threshold_bytes: u64,
    /// Records of the `wc_spill` stream the KV-store layer replay absorbs.
    pub kv_prefix_records: usize,
    /// `chain_stream`: splits × log lines.
    pub chain_splits: usize,
    pub chain_lines: usize,
    /// `tenants`: jobs per round, distinct job inputs they cycle over,
    /// and each job's 2 splits × lines × words.
    pub tenant_jobs: usize,
    pub tenant_inputs: usize,
    pub tenant_lines: usize,
    pub tenant_words: usize,
    pub tenant_vocab: usize,
    /// `cache_churn`: nine distinct inputs of splits × lines × words.
    pub churn_splits: usize,
    pub churn_lines: usize,
    pub churn_words: usize,
    pub churn_vocab: usize,
    /// `sim_suite`: 64 MB chunks of the single-job and chain runs, and
    /// jobs of the service run.
    pub sim_chunks: u64,
    pub sim_chain_chunks: u64,
    pub sim_service_jobs: usize,
}

pub const FULL: Sizes = Sizes {
    wc_splits: 32,
    wc_lines: 5_000,
    wc_words: 10,
    wc_vocab: 50_000,
    spill_vocab: 400_000,
    spill_threshold_bytes: 256 << 10,
    kv_prefix_records: 300_000,
    chain_splits: 64,
    chain_lines: 40_000,
    tenant_jobs: 4_096,
    tenant_inputs: 256,
    tenant_lines: 100,
    tenant_words: 8,
    tenant_vocab: 2_000,
    churn_splits: 8,
    churn_lines: 2_500,
    churn_words: 10,
    churn_vocab: 20_000,
    sim_chunks: 256,
    sim_chain_chunks: 128,
    sim_service_jobs: 2_048,
};

impl Sizes {
    /// One eighth of the work per round; results are not comparable
    /// with full-size ones and are stamped so.
    pub fn quick(self) -> Sizes {
        Sizes {
            wc_splits: self.wc_splits / 8,
            kv_prefix_records: self.kv_prefix_records / 8,
            chain_splits: self.chain_splits / 8,
            tenant_jobs: self.tenant_jobs / 8,
            tenant_inputs: self.tenant_inputs / 8,
            churn_splits: self.churn_splits / 8,
            sim_chunks: self.sim_chunks / 8,
            sim_chain_chunks: self.sim_chain_chunks / 8,
            sim_service_jobs: self.sim_service_jobs / 8,
            ..self
        }
    }

    /// The sizes as a JSON object for the result header.
    pub fn to_json(self) -> Value {
        Value::obj()
            .set("wc_splits", self.wc_splits)
            .set("wc_lines", self.wc_lines)
            .set("wc_words", self.wc_words)
            .set("wc_vocab", self.wc_vocab)
            .set("spill_vocab", self.spill_vocab)
            .set("spill_threshold_bytes", self.spill_threshold_bytes)
            .set("kv_prefix_records", self.kv_prefix_records)
            .set("chain_splits", self.chain_splits)
            .set("chain_lines", self.chain_lines)
            .set("tenant_jobs", self.tenant_jobs)
            .set("tenant_inputs", self.tenant_inputs)
            .set("tenant_lines", self.tenant_lines)
            .set("tenant_words", self.tenant_words)
            .set("tenant_vocab", self.tenant_vocab)
            .set("churn_splits", self.churn_splits)
            .set("churn_lines", self.churn_lines)
            .set("churn_words", self.churn_words)
            .set("churn_vocab", self.churn_vocab)
            .set("sim_chunks", self.sim_chunks)
            .set("sim_chain_chunks", self.sim_chain_chunks)
            .set("sim_service_jobs", self.sim_service_jobs)
    }
}

/// Generator stream ids, mixed with `--seed` so no two inputs share an
/// RNG stream.
pub mod stream {
    pub const WC: u64 = 1;
    pub const SPILL: u64 = 2;
    pub const CHAIN: u64 = 3;
    pub const TENANTS: u64 = 4;
    pub const CHURN: u64 = 5;
    pub const SIM: u64 = 6;
}

/// Splits generated per `TextWorkload` chunk. The generator rebuilds
/// its Zipf table per chunk (O(vocab) `powf` calls), so one chunk is cut
/// into several splits to keep set-up time out of the 400 k-word
/// vocabulary's shadow.
const SPLITS_PER_CHUNK: usize = 8;

/// `splits` splits of `lines` lines of `words` Zipf(`zipf_s`) words over
/// a `vocab`-word vocabulary, keyed by globally unique line number.
pub fn text_splits(
    seed: u64,
    splits: usize,
    lines: usize,
    words: usize,
    vocab: usize,
    zipf_s: f64,
) -> Splits {
    let w = TextWorkload {
        seed,
        vocab,
        zipf_s,
        lines_per_chunk: lines * SPLITS_PER_CHUNK.min(splits),
        words_per_line: words,
    };
    let mut out: Splits = Vec::with_capacity(splits);
    let mut chunk = 0;
    while out.len() < splits {
        let mut rest = w.chunk(chunk);
        chunk += 1;
        while !rest.is_empty() && out.len() < splits {
            let tail = rest.split_off(lines.min(rest.len()));
            out.push(rest);
            rest = tail;
        }
    }
    out
}

/// `splits` splits of `lines` service-log lines keyed by line number.
/// One line in three (by a hash of the seed and line number, so the
/// pattern is not periodic) carries `level=error`.
pub fn log_splits(seed: u64, splits: usize, lines: usize) -> Splits {
    (0..splits)
        .map(|s| {
            (0..lines)
                .map(|l| {
                    let ts = (s * lines + l) as u64;
                    let text = if mix(seed, ts).is_multiple_of(3) {
                        format!("ts={ts} level=error svc=db disk wobbled badly")
                    } else {
                        format!("ts={ts} level=info all good here today")
                    };
                    (ts, text)
                })
                .collect()
        })
        .collect()
}

/// The `(word, 1)` records WordCount's map emits for `splits`, i.e. its
/// map-output record count.
pub fn word_count(splits: &[Vec<(u64, String)>]) -> u64 {
    splits
        .iter()
        .flatten()
        .map(|(_, line)| line.split_whitespace().count() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_splits_have_the_asked_shape_and_unique_keys() {
        let s = text_splits(7, 11, 20, 3, 50, 1.0);
        assert_eq!(s.len(), 11);
        assert!(s.iter().all(|split| split.len() == 20));
        assert_eq!(word_count(&s), 11 * 20 * 3);
        let mut keys: Vec<u64> = s.iter().flatten().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 11 * 20);
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(
            text_splits(3, 4, 5, 6, 30, 0.6),
            text_splits(3, 4, 5, 6, 30, 0.6)
        );
        assert_ne!(
            text_splits(3, 4, 5, 6, 30, 0.6),
            text_splits(4, 4, 5, 6, 30, 0.6)
        );
        assert_eq!(log_splits(3, 2, 50), log_splits(3, 2, 50));
        assert_ne!(log_splits(3, 2, 50), log_splits(4, 2, 50));
    }

    #[test]
    fn about_a_third_of_log_lines_match() {
        let s = log_splits(9, 4, 3_000);
        let hits = s
            .iter()
            .flatten()
            .filter(|(_, l)| l.contains("level=error"))
            .count();
        assert!((3_600..4_400).contains(&hits), "{hits} of 12000");
    }

    #[test]
    fn quick_is_an_eighth() {
        let q = FULL.quick();
        assert_eq!(q.wc_splits * 8, FULL.wc_splits);
        assert_eq!(q.tenant_jobs * 8, FULL.tenant_jobs);
        assert_eq!(q.sim_chunks * 8, FULL.sim_chunks);
        assert_eq!(q.wc_lines, FULL.wc_lines);
    }
}
