//! WordCount — the Aggregation class (§3.2, §4.3, §6.1.2).
//!
//! The paper's running example: Algorithms 1 and 2, and the appendix
//! listing. Original reduce logic in [`original`], barrier-less rewrite in
//! [`barrierless`] (the +20% LoC row of Table 2).

pub mod barrierless;
pub mod original;

use mr_core::{Application, Emit};

/// Counts occurrences of each whitespace-separated word.
#[derive(Debug, Clone, Default)]
pub struct WordCount;

impl Application for WordCount {
    type InKey = u64;
    type InValue = String;
    type MapKey = String;
    type MapValue = u64;
    type OutKey = String;
    type OutValue = u64;
    type State = u64;
    type Shared = ();

    /// Algorithm 1's map: "for each word in value, emit (word, 1)". One
    /// scratch key serves every word of the line, emitted by reference:
    /// the shuffle encodes (or combines) it without taking ownership.
    fn map(&self, _doc: &u64, text: &String, out: &mut dyn Emit<String, u64>) {
        let mut word_buf = String::new();
        for word in text.split_whitespace() {
            word_buf.clear();
            word_buf.push_str(word);
            out.emit_ref(&word_buf, &1);
        }
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &String,
        values: Vec<u64>,
        _shared: &mut (),
        out: &mut dyn Emit<String, u64>,
    ) {
        original::reduce(key, &values, out);
    }

    fn init(&self, key: &String) -> u64 {
        barrierless::init(key)
    }

    fn absorb(
        &self,
        key: &String,
        state: &mut u64,
        value: u64,
        _shared: &mut (),
        _out: &mut dyn Emit<String, u64>,
    ) {
        barrierless::absorb(key, state, value);
    }

    fn merge(&self, key: &String, a: u64, b: u64) -> u64 {
        barrierless::merge(key, a, b)
    }

    fn finalize(&self, key: String, state: u64, _shared: &mut (), out: &mut dyn Emit<String, u64>) {
        barrierless::finalize(key, state, out);
    }

    /// Counting is a commutative fold: the classic combinable app.
    fn combine_enabled(&self) -> bool {
        true
    }

    /// A combined partial count ships as a single `(word, n)` record.
    fn combiner_emit(&self, key: String, state: u64, out: &mut dyn Emit<String, u64>) {
        out.emit(key, state);
    }

    /// Snapshot accuracy for counting: relative L1 error of the counts,
    /// `Σ|estimate − truth| / Σtruth` over the union of words (a word
    /// the estimate has not seen yet contributes its whole true count).
    /// Mid-job estimates undercount — every absorbed record closes the
    /// gap monotonically, which is what `fig_snapshot_accuracy` plots.
    fn snapshot_error(&self, estimate: &[(String, u64)], truth: &[(String, u64)]) -> f64 {
        let total: u64 = truth.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        let mut gap = 0u64;
        let mut est = estimate.iter().peekable();
        for (word, count) in truth {
            while est.peek().is_some_and(|(w, _)| w < word) {
                gap += est.next().expect("peeked").1; // spurious word
            }
            if est.peek().is_some_and(|(w, _)| w == word) {
                let (_, have) = est.next().expect("peeked");
                gap += count.abs_diff(*have);
            } else {
                gap += count;
            }
        }
        gap += est.map(|(_, n)| n).sum::<u64>();
        (gap as f64 / total as f64).min(1.0)
    }

    fn name(&self) -> &'static str {
        "wordcount"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::local::LocalRunner;
    use mr_core::{Engine, JobConfig, MemoryPolicy};
    use mr_workloads::TextWorkload;
    use std::collections::BTreeMap;

    fn splits(chunks: u64) -> Vec<Vec<(u64, String)>> {
        let w = TextWorkload {
            seed: 42,
            vocab: 500,
            zipf_s: 1.0,
            lines_per_chunk: 100,
            words_per_line: 8,
        };
        (0..chunks).map(|c| w.chunk(c)).collect()
    }

    fn reference_counts(splits: &[Vec<(u64, String)>]) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for (_, line) in splits.iter().flatten() {
            for word in line.split_whitespace() {
                *m.entry(word.to_string()).or_insert(0) += 1;
            }
        }
        m
    }

    #[test]
    fn engines_agree_with_reference_counts() {
        let input = splits(4);
        let expect = reference_counts(&input);
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let cfg = JobConfig::new(4).engine(engine.clone());
            let out = LocalRunner::new(4)
                .run(&WordCount, input.clone(), &cfg)
                .unwrap();
            let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect, "engine {engine:?} wrong");
        }
    }

    #[test]
    fn all_memory_policies_agree() {
        let input = splits(4);
        let expect = reference_counts(&input);
        for memory in [
            MemoryPolicy::InMemory,
            MemoryPolicy::SpillMerge {
                threshold_bytes: 4 << 10,
            },
            MemoryPolicy::KvStore {
                cache_bytes: 8 << 10,
            },
        ] {
            let cfg = JobConfig::new(2)
                .engine(Engine::BarrierLess { memory })
                .scratch_dir(std::env::temp_dir().join("mr-apps-wc"));
            let out = LocalRunner::new(4)
                .run(&WordCount, input.clone(), &cfg)
                .unwrap();
            let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn combiner_output_is_identical_under_both_engines() {
        use mr_core::counters::names;
        use mr_core::CombinerPolicy;
        let input = splits(4);
        let expect = reference_counts(&input);
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let cfg = JobConfig::new(3)
                .engine(engine.clone())
                .combiner(CombinerPolicy::enabled());
            let out = LocalRunner::new(4)
                .run(&WordCount, input.clone(), &cfg)
                .unwrap();
            assert!(
                out.counters.get(names::COMBINE_OUTPUT_RECORDS)
                    < out.counters.get(names::COMBINE_INPUT_RECORDS),
                "combiner did not reduce records under {engine:?}"
            );
            let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect, "engine {engine:?} with combiner wrong");
        }
    }

    #[test]
    fn snapshot_error_measures_relative_count_gap() {
        let truth = vec![
            ("alpha".to_string(), 6u64),
            ("beta".to_string(), 2),
            ("gamma".to_string(), 2),
        ];
        assert_eq!(WordCount.snapshot_error(&[], &truth), 1.0);
        assert_eq!(WordCount.snapshot_error(&truth, &truth), 0.0);
        // Half the mass seen: (3 + 1 + 1) missing out of 10.
        let half = vec![
            ("alpha".to_string(), 3u64),
            ("beta".to_string(), 1),
            ("gamma".to_string(), 1),
        ];
        assert_eq!(WordCount.snapshot_error(&half, &truth), 0.5);
        // A word truth never saw is pure error mass, capped at 1.
        let wrong = vec![("zzz".to_string(), 50u64)];
        assert_eq!(WordCount.snapshot_error(&wrong, &truth), 1.0);
        assert_eq!(WordCount.snapshot_error(&[], &[]), 0.0);
    }

    #[test]
    fn snapshots_converge_to_zero_error_per_reducer() {
        use mr_core::SnapshotPolicy;
        let input = splits(4);
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .snapshots(SnapshotPolicy::EveryRecords { records: 300 });
        let out = mr_core::local::LocalRunner::new(4)
            .run(&WordCount, input, &cfg)
            .unwrap();
        assert!(out.snapshot_count() >= 4);
        for (r, snaps) in out.snapshots.iter().enumerate() {
            let truth = &out.partitions[r];
            let errors: Vec<f64> = snaps
                .iter()
                .map(|s| WordCount.snapshot_error(&s.estimate, truth))
                .collect();
            // Counting converges monotonically, ending exact.
            for pair in errors.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-12, "error went up: {errors:?}");
            }
            assert_eq!(*errors.last().unwrap(), 0.0);
            assert!(errors[0] > 0.0, "first snapshot already exact? {errors:?}");
        }
    }

    #[test]
    fn partial_results_scale_with_keys_not_records() {
        // Table 1: aggregation keeps O(keys) state. Doubling the records
        // over a fixed vocabulary must not double peak entries.
        let small = {
            let cfg = JobConfig::new(1).engine(Engine::barrierless());
            LocalRunner::new(2)
                .run(&WordCount, splits(2), &cfg)
                .unwrap()
                .total_peak_entries()
        };
        let large = {
            let cfg = JobConfig::new(1).engine(Engine::barrierless());
            LocalRunner::new(2)
                .run(&WordCount, splits(8), &cfg)
                .unwrap()
                .total_peak_entries()
        };
        // 4x the records, same 500-word vocabulary: peaks stay ~vocab.
        assert!(large <= 500 && small <= 500);
        assert!(
            (large as f64) < (small as f64) * 2.0,
            "entries grew with records: {small} -> {large}"
        );
    }
}
