//! k-Nearest Neighbours — the Selection class (§4.4, §6.1.3).
//!
//! The one application where the paper's original and barrier-less
//! versions have *different map output types*, so they are two separate
//! programs here, exactly as a Hadoop programmer would have written them:
//!
//! * [`KnnBarrier`] ([`original`]) — composite `(exp_value, distance)`
//!   keys with a secondary sort; the Reducer takes the first k values of
//!   each group. Only meaningful under the barrier engine.
//! * [`KnnBarrierless`] ([`barrierless`]) — plain `exp_value` keys; a
//!   size-k ordered list per key is maintained on a running basis.

pub mod barrierless;
pub mod original;

use mr_core::{Application, Emit, IdentityWriter};

/// Both kNN forms share their output-shaping parameters: `k` and the
/// broadcast experimental set.
fn write_knn_identity(w: &mut dyn IdentityWriter, k: usize, experimental: &[i64]) {
    w.write_u64(k as u64);
    w.write_u64(experimental.len() as u64);
    for &e in experimental {
        w.write_i64(e);
    }
}

/// Original formulation: secondary sort on distance (barrier engine only).
#[derive(Debug, Clone)]
pub struct KnnBarrier {
    /// Neighbours to keep per experimental value.
    pub k: usize,
    /// The broadcast experimental (query) set.
    pub experimental: Vec<i64>,
}

/// Barrier-less formulation: running size-k selection per key.
#[derive(Debug, Clone)]
pub struct KnnBarrierless {
    /// Neighbours to keep per experimental value.
    pub k: usize,
    /// The broadcast experimental (query) set.
    pub experimental: Vec<i64>,
}

impl Application for KnnBarrier {
    type InKey = u64;
    type InValue = i64;
    /// Composite key: `(exp_value, distance)` — the secondary-sort trick.
    type MapKey = (i64, i64);
    type MapValue = i64;
    type OutKey = i64;
    type OutValue = i64;
    type State = ();
    type Shared = usize; // values already emitted for the current group

    fn map(&self, _id: &u64, train: &i64, out: &mut dyn Emit<(i64, i64), i64>) {
        original::map(&self.experimental, *train, out);
    }

    fn new_shared(&self) -> usize {
        0
    }

    fn reduce_grouped(
        &self,
        key: &(i64, i64),
        values: Vec<i64>,
        _shared: &mut usize,
        out: &mut dyn Emit<i64, i64>,
    ) {
        original::reduce(self.k, key, &values, out);
    }

    /// Group by experimental value only, ignoring the distance component
    /// — the composite key's `Ord` (experimental value, then distance
    /// ascending) is the secondary sort.
    fn group_eq(&self, a: &(i64, i64), b: &(i64, i64)) -> bool {
        a.0 == b.0
    }

    fn init(&self, _key: &(i64, i64)) {}

    fn absorb(
        &self,
        _key: &(i64, i64),
        _state: &mut (),
        _value: i64,
        _shared: &mut usize,
        _out: &mut dyn Emit<i64, i64>,
    ) {
        unimplemented!(
            "KnnBarrier relies on the framework's secondary sort; \
             run it under Engine::Barrier or use KnnBarrierless"
        );
    }

    fn merge(&self, _key: &(i64, i64), _a: (), _b: ()) {}

    fn finalize(
        &self,
        _key: (i64, i64),
        _state: (),
        _shared: &mut usize,
        _out: &mut dyn Emit<i64, i64>,
    ) {
    }

    fn name(&self) -> &'static str {
        "knn-original"
    }

    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool {
        write_knn_identity(w, self.k, &self.experimental);
        true
    }
}

impl Application for KnnBarrierless {
    type InKey = u64;
    type InValue = i64;
    /// Plain key: "the Mapper emits an integer exp_value as the key and a
    /// tuple (train_value, distance) as the value … because no secondary
    /// sort is being performed".
    type MapKey = i64;
    type MapValue = (i64, i64);
    type OutKey = i64;
    type OutValue = i64;
    /// The "size-k ordered linked list": (distance, train) ascending.
    type State = Vec<(i64, i64)>;
    type Shared = ();

    fn map(&self, _id: &u64, train: &i64, out: &mut dyn Emit<i64, (i64, i64)>) {
        barrierless::map(&self.experimental, *train, out);
    }

    fn new_shared(&self) {}

    /// Grouped fallback so the rewritten app still runs under the barrier
    /// engine (all values at once, select k smallest).
    fn reduce_grouped(
        &self,
        key: &i64,
        values: Vec<(i64, i64)>,
        _shared: &mut (),
        out: &mut dyn Emit<i64, i64>,
    ) {
        let mut list: Vec<(i64, i64)> = Vec::new();
        for (train, dist) in values {
            barrierless::insert_bounded(&mut list, self.k, dist, train);
        }
        for (_, train) in list {
            out.emit(*key, train);
        }
    }

    fn init(&self, key: &i64) -> Vec<(i64, i64)> {
        barrierless::init(*key)
    }

    fn absorb(
        &self,
        key: &i64,
        state: &mut Vec<(i64, i64)>,
        value: (i64, i64),
        _shared: &mut (),
        out: &mut dyn Emit<i64, i64>,
    ) {
        barrierless::absorb(self.k, *key, state, value, out);
    }

    fn merge(&self, key: &i64, a: Vec<(i64, i64)>, b: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
        barrierless::merge(self.k, *key, a, b)
    }

    fn finalize(
        &self,
        key: i64,
        state: Vec<(i64, i64)>,
        _shared: &mut (),
        out: &mut dyn Emit<i64, i64>,
    ) {
        barrierless::finalize(key, state, out);
    }

    /// Selection combines: only a map task's k nearest candidates per
    /// experimental value can survive the final top-k, so the shuffle
    /// never needs more than k records per (map task, key).
    fn combine_enabled(&self) -> bool {
        true
    }

    /// Ships the bounded candidate list, nearest first (the list is kept
    /// distance-ascending, so emission order is deterministic).
    fn combiner_emit(&self, key: i64, state: Vec<(i64, i64)>, out: &mut dyn Emit<i64, (i64, i64)>) {
        for (dist, train) in state {
            out.emit(key, (train, dist));
        }
    }

    /// Snapshot accuracy for selection: the fraction of final
    /// `(exp_value, neighbour)` pairs the estimate has *wrong* — missing
    /// or replaced by a farther candidate. A mid-job top-k list can hold
    /// interim neighbours that later records evict, so unlike the
    /// counting apps this error is not monotone record-by-record; it
    /// still converges to zero by end of input.
    fn snapshot_error(&self, estimate: &[(i64, i64)], truth: &[(i64, i64)]) -> f64 {
        if truth.is_empty() {
            return 0.0;
        }
        let mut matched = 0usize;
        let mut t = 0usize;
        while t < truth.len() {
            let key = truth[t].0;
            let t_end = truth[t..].iter().take_while(|(k, _)| *k == key).count() + t;
            let e_start = estimate.partition_point(|(k, _)| *k < key);
            let e_end = estimate[e_start..]
                .iter()
                .take_while(|(k, _)| *k == key)
                .count()
                + e_start;
            // Multiset intersection of the neighbour values for this key.
            let mut want: Vec<i64> = truth[t..t_end].iter().map(|(_, v)| *v).collect();
            want.sort_unstable();
            let mut have: Vec<i64> = estimate[e_start..e_end].iter().map(|(_, v)| *v).collect();
            have.sort_unstable();
            let (mut i, mut j) = (0, 0);
            while i < want.len() && j < have.len() {
                match want[i].cmp(&have[j]) {
                    std::cmp::Ordering::Equal => {
                        matched += 1;
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                }
            }
            t = t_end;
        }
        1.0 - matched as f64 / truth.len() as f64
    }

    fn name(&self) -> &'static str {
        "knn-barrierless"
    }

    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool {
        write_knn_identity(w, self.k, &self.experimental);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::local::LocalRunner;
    use mr_core::{Engine, JobConfig};
    use mr_workloads::KnnWorkload;
    use std::collections::BTreeMap;

    fn setup() -> (Vec<i64>, Vec<Vec<(u64, i64)>>) {
        let w = KnnWorkload {
            seed: 21,
            experimental: 20,
            train_per_chunk: 150,
            value_range: 1_000_000,
        };
        let exp = w.experimental_set();
        let splits = (0..4).map(|c| w.chunk(c)).collect();
        (exp, splits)
    }

    /// Reference top-k distances per experimental value.
    fn reference(exp: &[i64], splits: &[Vec<(u64, i64)>], k: usize) -> BTreeMap<i64, Vec<i64>> {
        let mut out = BTreeMap::new();
        for &e in exp {
            let mut dists: Vec<i64> = splits
                .iter()
                .flatten()
                .map(|(_, t)| (e - t).abs())
                .collect();
            dists.sort();
            dists.truncate(k);
            out.insert(e, dists);
        }
        out
    }

    fn distances_of(exp: i64, trains: &[i64]) -> Vec<i64> {
        let mut d: Vec<i64> = trains.iter().map(|t| (exp - t).abs()).collect();
        d.sort();
        d
    }

    #[test]
    fn original_under_barrier_matches_reference() {
        let (exp, splits) = setup();
        let app = KnnBarrier {
            k: 10,
            experimental: exp.clone(),
        };
        let out = LocalRunner::new(4)
            .run_with_partitioner(
                &app,
                splits.clone(),
                &JobConfig::new(3),
                &original::ExpPartitioner,
            )
            .unwrap();
        let mut got: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for (e, train) in out.into_sorted_output() {
            got.entry(e).or_default().push(train);
        }
        let reference = reference(&exp, &splits, 10);
        assert_eq!(got.len(), reference.len());
        for (e, trains) in &got {
            assert_eq!(
                distances_of(*e, trains),
                reference[e],
                "wrong neighbours for exp {e}"
            );
        }
    }

    #[test]
    fn barrierless_matches_original() {
        let (exp, splits) = setup();
        let k = 10;
        let reference = reference(&exp, &splits, k);
        let app = KnnBarrierless {
            k,
            experimental: exp,
        };
        let out = LocalRunner::new(4)
            .run(
                &app,
                splits,
                &JobConfig::new(3).engine(Engine::barrierless()),
            )
            .unwrap();
        let mut got: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for (e, train) in out.into_sorted_output() {
            got.entry(e).or_default().push(train);
        }
        assert_eq!(got.len(), reference.len());
        for (e, trains) in &got {
            assert_eq!(distances_of(*e, trains), reference[e]);
        }
    }

    #[test]
    fn combiner_truncation_preserves_nearest_neighbours() {
        use mr_core::counters::names;
        use mr_core::CombinerPolicy;
        let (exp, splits) = setup();
        let k = 10;
        let reference = reference(&exp, &splits, k);
        let app = KnnBarrierless {
            k,
            experimental: exp,
        };
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let cfg = JobConfig::new(3)
                .engine(engine.clone())
                .combiner(CombinerPolicy::enabled());
            let out = LocalRunner::new(4).run(&app, splits.clone(), &cfg).unwrap();
            // 150 trains/chunk × k=10 per (split, key): real truncation.
            assert!(
                out.counters.get(names::COMBINE_OUTPUT_RECORDS)
                    < out.counters.get(names::COMBINE_INPUT_RECORDS),
                "top-k combiner truncated nothing under {engine:?}"
            );
            let mut got: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for (e, train) in out.into_sorted_output() {
                got.entry(e).or_default().push(train);
            }
            assert_eq!(got.len(), reference.len());
            for (e, trains) in &got {
                assert_eq!(
                    distances_of(*e, trains),
                    reference[e],
                    "wrong neighbours for exp {e} under {engine:?} with combiner"
                );
            }
        }
    }

    #[test]
    fn partial_state_is_bounded_by_k_per_key() {
        let (exp, splits) = setup();
        let n_exp = exp.len();
        let app = KnnBarrierless {
            k: 5,
            experimental: exp,
        };
        let out = LocalRunner::new(2)
            .run(
                &app,
                splits,
                &JobConfig::new(1).engine(Engine::barrierless()),
            )
            .unwrap();
        // Table 1: O(k * keys).
        assert!(out.reports[0].store.peak_entries <= n_exp);
        assert_eq!(out.record_count(), n_exp * 5);
    }

    #[test]
    fn snapshot_error_counts_wrong_neighbours() {
        let app = KnnBarrierless {
            k: 2,
            experimental: vec![10, 20],
        };
        let truth = vec![(10i64, 9i64), (10, 11), (20, 19), (20, 21)];
        assert_eq!(app.snapshot_error(&[], &truth), 1.0);
        assert_eq!(app.snapshot_error(&truth, &truth), 0.0);
        // One of four pairs wrong: an interim neighbour (40) that the
        // true neighbour 21 later evicts.
        let interim = vec![(10i64, 9i64), (10, 11), (20, 19), (20, 40)];
        assert_eq!(app.snapshot_error(&interim, &truth), 0.25);
        // A whole key missing: half the pairs wrong.
        let missing = vec![(10i64, 9i64), (10, 11)];
        assert_eq!(app.snapshot_error(&missing, &truth), 0.5);
    }

    #[test]
    fn snapshots_of_topk_lists_end_exact_under_both_policies() {
        use mr_core::{MemoryPolicy, SnapshotPolicy};
        let (exp, splits) = setup();
        let app = KnnBarrierless {
            k: 5,
            experimental: exp,
        };
        for memory in [
            MemoryPolicy::InMemory,
            MemoryPolicy::SpillMerge {
                threshold_bytes: 2048,
            },
        ] {
            let cfg = JobConfig::new(2)
                .engine(Engine::BarrierLess { memory })
                .snapshots(SnapshotPolicy::EveryRecords { records: 400 })
                .scratch_dir(std::env::temp_dir().join("mr-apps-knn-snap"));
            let out = mr_core::local::LocalRunner::new(4)
                .run(&app, splits.clone(), &cfg)
                .unwrap();
            assert!(out.snapshot_count() >= 2);
            for (r, snaps) in out.snapshots.iter().enumerate() {
                let last = snaps.last().unwrap();
                assert_eq!(last.estimate, out.partitions[r]);
                assert_eq!(app.snapshot_error(&last.estimate, &out.partitions[r]), 0.0);
            }
        }
    }

    #[test]
    fn fewer_trains_than_k_emits_what_exists() {
        let app = KnnBarrierless {
            k: 10,
            experimental: vec![100],
        };
        let splits = vec![vec![(0u64, 90i64), (1, 105)]];
        let out = LocalRunner::new(1)
            .run(
                &app,
                splits,
                &JobConfig::new(1).engine(Engine::barrierless()),
            )
            .unwrap();
        assert_eq!(out.record_count(), 2);
    }
}
