//! Last.fm unique listens — the Post-reduction-processing class (§4.5,
//! §6.1.4).
//!
//! Counts the distinct users who listened to each track: records are
//! first collected into a per-key deduplicating structure (the
//! *processing* step), and the count is taken only when the key is
//! complete (the *post-processing* step). Original logic in [`original`],
//! barrier-less rewrite in [`barrierless`] (the +25% LoC row of Table 2).

pub mod barrierless;
pub mod original;

use mr_core::{Application, Emit};
use std::collections::HashSet;

/// Unique-users-per-track counter.
#[derive(Debug, Clone, Default)]
pub struct UniqueListens;

impl Application for UniqueListens {
    type InKey = u64;
    type InValue = (u32, u32);
    type MapKey = u32;
    type MapValue = u32;
    type OutKey = u32;
    type OutValue = u64;
    type State = HashSet<u32>;
    type Shared = ();

    /// `(user, track)` event → `(track, user)` record.
    fn map(&self, _event: &u64, listen: &(u32, u32), out: &mut dyn Emit<u32, u32>) {
        let (user, track) = *listen;
        out.emit(track, user);
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &u32,
        values: Vec<u32>,
        _shared: &mut (),
        out: &mut dyn Emit<u32, u64>,
    ) {
        original::reduce(*key, &values, out);
    }

    fn init(&self, key: &u32) -> HashSet<u32> {
        barrierless::init(*key)
    }

    fn absorb(
        &self,
        key: &u32,
        state: &mut HashSet<u32>,
        user: u32,
        _shared: &mut (),
        _out: &mut dyn Emit<u32, u64>,
    ) {
        barrierless::absorb(*key, state, user);
    }

    fn merge(&self, key: &u32, a: HashSet<u32>, b: HashSet<u32>) -> HashSet<u32> {
        barrierless::merge(*key, a, b)
    }

    fn finalize(
        &self,
        key: u32,
        state: HashSet<u32>,
        _shared: &mut (),
        out: &mut dyn Emit<u32, u64>,
    ) {
        barrierless::finalize(key, state, out);
    }

    /// Deduplication combines: a map task's repeated `(track, user)`
    /// pairs collapse to one record each before the shuffle.
    fn combine_enabled(&self) -> bool {
        true
    }

    /// Ships the deduplicated user set, one record per distinct user —
    /// sorted so re-run map tasks emit byte-identical output.
    fn combiner_emit(&self, key: u32, state: HashSet<u32>, out: &mut dyn Emit<u32, u32>) {
        let mut users: Vec<u32> = state.into_iter().collect();
        users.sort_unstable();
        for user in users {
            out.emit(key, user);
        }
    }

    /// Snapshot accuracy for distinct-counting: relative L1 error of the
    /// per-track unique-user counts over the union of tracks. Distinct
    /// counts only grow as records arrive, so mid-job estimates are
    /// monotone under-counts converging to zero error.
    fn snapshot_error(&self, estimate: &[(u32, u64)], truth: &[(u32, u64)]) -> f64 {
        let total: u64 = truth.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        let mut gap = 0u64;
        let mut est = estimate.iter().peekable();
        for (track, count) in truth {
            while est.peek().is_some_and(|(t, _)| t < track) {
                gap += est.next().expect("peeked").1;
            }
            if est.peek().is_some_and(|(t, _)| t == track) {
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
        "lastfm-unique-listens"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::local::LocalRunner;
    use mr_core::{Engine, JobConfig, MemoryPolicy};
    use mr_workloads::LastFmWorkload;
    use std::collections::BTreeMap;

    #[allow(clippy::type_complexity)]
    fn splits(chunks: u64) -> Vec<Vec<(u64, (u32, u32))>> {
        let w = LastFmWorkload {
            seed: 13,
            users: 50,
            tracks: 200,
            listens_per_chunk: 300,
        };
        (0..chunks).map(|c| w.chunk(c)).collect()
    }

    fn reference(splits: &[Vec<(u64, (u32, u32))>]) -> BTreeMap<u32, u64> {
        let mut sets: BTreeMap<u32, std::collections::HashSet<u32>> = BTreeMap::new();
        for (_, (user, track)) in splits.iter().flatten() {
            sets.entry(*track).or_default().insert(*user);
        }
        sets.into_iter().map(|(t, s)| (t, s.len() as u64)).collect()
    }

    #[test]
    fn engines_agree_on_unique_counts() {
        let input = splits(4);
        let expect = reference(&input);
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let out = LocalRunner::new(4)
                .run(
                    &UniqueListens,
                    input.clone(),
                    &JobConfig::new(3).engine(engine),
                )
                .unwrap();
            let got: BTreeMap<u32, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn spill_merge_unions_user_sets_correctly() {
        // Duplicates of a user for one track may land in different spill
        // runs; the set-union merge must not double count.
        let input = splits(6);
        let expect = reference(&input);
        let cfg = JobConfig::new(2)
            .engine(Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 4096,
                },
            })
            .scratch_dir(std::env::temp_dir().join("mr-apps-lastfm"));
        let out = LocalRunner::new(4)
            .run(&UniqueListens, input, &cfg)
            .unwrap();
        assert!(
            out.reports.iter().any(|r| r.store.spill_files > 0),
            "test should spill"
        );
        let got: BTreeMap<u32, u64> = out.into_sorted_output().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn combiner_dedup_matches_uncombined_counts() {
        use mr_core::counters::names;
        use mr_core::CombinerPolicy;
        // Heavy listen duplication (50 users × 200 tracks × 1800 events)
        // gives the dedup combiner real work; distinct counts must not
        // change.
        let input = splits(6);
        let expect = reference(&input);
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let cfg = JobConfig::new(3)
                .engine(engine.clone())
                .combiner(CombinerPolicy::enabled());
            let out = LocalRunner::new(4)
                .run(&UniqueListens, input.clone(), &cfg)
                .unwrap();
            assert!(
                out.counters.get(names::COMBINE_OUTPUT_RECORDS)
                    < out.counters.get(names::COMBINE_INPUT_RECORDS),
                "dedup combiner removed nothing under {engine:?}"
            );
            let got: BTreeMap<u32, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect, "engine {engine:?} with combiner wrong");
        }
    }

    #[test]
    fn snapshot_error_tracks_distinct_count_gap() {
        let truth = vec![(1u32, 4u64), (2, 4), (3, 2)];
        assert_eq!(UniqueListens.snapshot_error(&[], &truth), 1.0);
        assert_eq!(UniqueListens.snapshot_error(&truth, &truth), 0.0);
        let partial = vec![(1u32, 2u64), (3, 1)];
        // Missing mass: 2 (track 1) + 4 (track 2) + 1 (track 3) = 7/10.
        assert_eq!(UniqueListens.snapshot_error(&partial, &truth), 0.7);
    }

    #[test]
    fn snapshots_of_dedup_sets_stay_self_consistent() {
        use mr_core::SnapshotPolicy;
        // The HashSet state round-trips through the codec (sorted
        // encoding) inside the default snapshot_emit; estimates must be
        // bounded by the user population and end exact.
        let input = splits(5);
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .snapshots(SnapshotPolicy::EveryRecords { records: 250 });
        let out = mr_core::local::LocalRunner::new(4)
            .run(&UniqueListens, input, &cfg)
            .unwrap();
        assert!(out.snapshot_count() >= 4);
        for (r, snaps) in out.snapshots.iter().enumerate() {
            for snap in snaps {
                assert!(snap.estimate.iter().all(|(_, n)| *n <= 50));
                for pair in snap.estimate.windows(2) {
                    assert!(pair[0].0 < pair[1].0, "snapshot not key-sorted");
                }
            }
            assert_eq!(snaps.last().unwrap().estimate, out.partitions[r]);
        }
    }

    #[test]
    fn counts_are_bounded_by_user_population() {
        let input = splits(8);
        let out = LocalRunner::new(2)
            .run(
                &UniqueListens,
                input,
                &JobConfig::new(1).engine(Engine::barrierless()),
            )
            .unwrap();
        assert!(out
            .into_sorted_output()
            .iter()
            .all(|(_, count)| *count <= 50));
    }
}
