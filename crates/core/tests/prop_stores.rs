//! Property tests for the partial-result stores: for any record stream
//! and any spill threshold / cache size, all three §5 policies must
//! produce byte-identical results — equal to an ordered (`BTreeMap`)
//! fold of the records — and spilling may not change what a reducer
//! emits.

use mr_core::engine::pipeline::{
    reduce_partition_barrierless, reduce_partition_barrierless_traced,
};
use mr_core::{Application, Counters, Emit, Engine, JobConfig, Key, MemoryPolicy, SnapshotPolicy};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

static SERIAL: AtomicU64 = AtomicU64::new(0);

fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mr-core-prop-{}-{}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Max-per-key with a vector state — exercises shrinking/growing states
/// and non-trivial merges.
struct MaxTracker;

impl Application for MaxTracker {
    type InKey = u64;
    type InValue = (u32, i64);
    type MapKey = u32;
    type MapValue = i64;
    type OutKey = u32;
    type OutValue = i64;
    /// Keeps the top-3 values seen, sorted descending.
    type State = Vec<i64>;
    type Shared = ();

    fn map(&self, _k: &u64, v: &(u32, i64), out: &mut dyn Emit<u32, i64>) {
        out.emit(v.0, v.1);
    }
    fn new_shared(&self) {}
    fn reduce_grouped(&self, k: &u32, mut vs: Vec<i64>, _s: &mut (), out: &mut dyn Emit<u32, i64>) {
        vs.sort_by(|a, b| b.cmp(a));
        for v in vs.into_iter().take(3) {
            out.emit(*k, v);
        }
    }
    fn init(&self, _k: &u32) -> Vec<i64> {
        Vec::new()
    }
    fn absorb(
        &self,
        _k: &u32,
        state: &mut Vec<i64>,
        v: i64,
        _s: &mut (),
        _o: &mut dyn Emit<u32, i64>,
    ) {
        let pos = state.partition_point(|&x| x >= v);
        state.insert(pos, v);
        state.truncate(3);
    }
    fn merge(&self, _k: &u32, mut a: Vec<i64>, b: Vec<i64>) -> Vec<i64> {
        for v in b {
            let pos = a.partition_point(|&x| x >= v);
            a.insert(pos, v);
        }
        a.truncate(3);
        a
    }
    fn finalize(&self, k: u32, state: Vec<i64>, _s: &mut (), out: &mut dyn Emit<u32, i64>) {
        for v in state {
            out.emit(k, v);
        }
    }
}

/// Pure count-sum (WordCount's shape on u32 keys): the class whose
/// snapshot estimates are provably monotone in records absorbed.
struct CountSum;

impl Application for CountSum {
    type InKey = u64;
    type InValue = (u32, u64);
    type MapKey = u32;
    type MapValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    type State = u64;
    type Shared = ();

    fn map(&self, _k: &u64, v: &(u32, u64), out: &mut dyn Emit<u32, u64>) {
        out.emit(v.0, v.1);
    }
    fn new_shared(&self) {}
    fn reduce_grouped(&self, k: &u32, vs: Vec<u64>, _s: &mut (), out: &mut dyn Emit<u32, u64>) {
        out.emit(*k, vs.into_iter().sum());
    }
    fn init(&self, _k: &u32) -> u64 {
        0
    }
    fn absorb(&self, _k: &u32, state: &mut u64, v: u64, _s: &mut (), _o: &mut dyn Emit<u32, u64>) {
        *state += v;
    }
    fn merge(&self, _k: &u32, a: u64, b: u64) -> u64 {
        a + b
    }
    fn finalize(&self, k: u32, state: u64, _s: &mut (), out: &mut dyn Emit<u32, u64>) {
        out.emit(k, state);
    }
}

/// Fold order made visible: a key's state is the arrival tags of its
/// records in the order they were folded, and `merge` concatenates. A
/// spill store's output (and every snapshot) equals the in-memory
/// store's only if it folds a key's partials in spill order with the
/// live map last.
struct Concat<K>(PhantomData<fn() -> K>);

impl<K: Key> Application for Concat<K> {
    type InKey = ();
    type InValue = ();
    type MapKey = K;
    type MapValue = u32;
    type OutKey = K;
    type OutValue = Vec<u32>;
    type State = Vec<u32>;
    type Shared = ();

    fn map(&self, _k: &(), _v: &(), _out: &mut dyn Emit<K, u32>) {}
    fn new_shared(&self) {}
    fn reduce_grouped(&self, k: &K, tags: Vec<u32>, _s: &mut (), out: &mut dyn Emit<K, Vec<u32>>) {
        out.emit(k.clone(), tags);
    }
    fn init(&self, _k: &K) -> Vec<u32> {
        Vec::new()
    }
    fn absorb(
        &self,
        _k: &K,
        state: &mut Vec<u32>,
        tag: u32,
        _s: &mut (),
        _o: &mut dyn Emit<K, Vec<u32>>,
    ) {
        state.push(tag);
    }
    fn merge(&self, _k: &K, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
        a.extend(b);
        a
    }
    fn finalize(&self, k: K, state: Vec<u32>, _s: &mut (), out: &mut dyn Emit<K, Vec<u32>>) {
        out.emit(k, state);
    }
}

/// Tags `keys` by arrival and runs them through `Concat` with a snapshot
/// every `interval` records: under `InMemory`, then under `SpillMerge`.
/// Output and every snapshot must agree.
fn concat_spill_matches_in_memory<K: Key + Debug>(
    keys: Vec<K>,
    threshold: u64,
    interval: u64,
) -> Result<(), TestCaseError> {
    let records: Vec<(K, u32)> = keys.into_iter().zip(0..).collect();
    let run = |memory: MemoryPolicy| {
        let cfg = JobConfig::new(1)
            .engine(Engine::BarrierLess { memory })
            .snapshots(SnapshotPolicy::EveryRecords { records: interval })
            .scratch_dir(scratch());
        let (out, _, snaps) = reduce_partition_barrierless_traced(
            &Concat(PhantomData),
            &cfg,
            0,
            records.clone(),
            &mut Counters::new(),
        )
        .expect("run");
        let estimates: Vec<Vec<(K, Vec<u32>)>> = snaps.into_iter().map(|s| s.estimate).collect();
        (out, estimates)
    };
    let want = run(MemoryPolicy::InMemory);
    let got = run(MemoryPolicy::SpillMerge {
        threshold_bytes: threshold,
    });
    prop_assert_eq!(&got, &want);
    Ok(())
}

/// Words that tie often: duplicates, keys that are all prefix (at most
/// seven bytes), and keys of eight bytes and more sharing their first
/// seven — inexact prefix ties only `cmp_encoded` can order.
fn colliding_words() -> impl Strategy<Value = String> {
    (0usize..4, "[ab]{0,2}")
        .prop_map(|(stem, tail)| format!("{}{tail}", ["", "x", "shared-", "shared-prefix-"][stem]))
}

fn run_policy(records: &[(u32, i64)], policy: MemoryPolicy) -> Vec<(u32, i64)> {
    let cfg = JobConfig::new(1)
        .engine(Engine::BarrierLess { memory: policy })
        .scratch_dir(scratch());
    let (out, _) =
        reduce_partition_barrierless(&MaxTracker, &cfg, 0, records.to_vec(), &mut Counters::new())
            .expect("run");
    out
}

/// `MaxTracker`'s answer without any store: each key's three largest
/// values, descending, keys ascending — folded in a `BTreeMap`.
fn ordered_fold(records: &[(u32, i64)]) -> Vec<(u32, i64)> {
    let mut by_key: BTreeMap<u32, Vec<i64>> = BTreeMap::new();
    for &(k, v) in records {
        by_key.entry(k).or_default().push(v);
    }
    by_key
        .into_iter()
        .flat_map(|(k, mut vs)| {
            vs.sort_unstable_by(|a, b| b.cmp(a));
            vs.into_iter().take(3).map(move |v| (k, v))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any threshold (including absurdly small, forcing a spill per
    /// handful of records) must leave the output unchanged.
    #[test]
    fn spill_threshold_is_invisible(
        records in prop::collection::vec((0u32..30, -1000i64..1000), 1..250),
        threshold in 64u64..4096,
    ) {
        let reference = run_policy(&records, MemoryPolicy::InMemory);
        let spilled = run_policy(&records, MemoryPolicy::SpillMerge { threshold_bytes: threshold });
        prop_assert_eq!(reference, spilled);
    }

    /// Any KV cache size — from nearly nothing (every absorb hits disk)
    /// to ample — must leave the output unchanged.
    #[test]
    fn kv_cache_size_is_invisible(
        records in prop::collection::vec((0u32..30, -1000i64..1000), 1..250),
        cache in 128usize..8192,
    ) {
        let reference = run_policy(&records, MemoryPolicy::InMemory);
        let kv = run_policy(&records, MemoryPolicy::KvStore { cache_bytes: cache });
        prop_assert_eq!(reference, kv);
    }

    /// The hashed index (amortized sort-at-drain) is invisible: for
    /// every memory policy the output equals an ordered (`BTreeMap`)
    /// fold of the records.
    #[test]
    fn store_index_is_invisible_under_every_policy(
        records in prop::collection::vec((0u32..30, -1000i64..1000), 1..250),
        threshold in 64u64..4096,
        cache in 128usize..8192,
    ) {
        let want = ordered_fold(&records);
        for policy in [
            MemoryPolicy::InMemory,
            MemoryPolicy::SpillMerge { threshold_bytes: threshold },
            MemoryPolicy::KvStore { cache_bytes: cache },
        ] {
            let got = run_policy(&records, policy.clone());
            prop_assert_eq!(&got, &want, "policy {:?}", policy);
        }
    }

    /// Snapshots are invisible: for every memory policy, any snapshot interval — down to the pathological every-1-record
    /// policy — leaves the final output byte-identical to the
    /// snapshot-free run, and every snapshot is key-sorted and
    /// duplicate-free (the spill store's snapshots must merge its runs
    /// with the live map, or a key split across runs would appear twice).
    #[test]
    fn snapshot_policy_is_invisible_under_every_store(
        records in prop::collection::vec((0u32..30, -1000i64..1000), 1..200),
        threshold in 64u64..2048,
        cache in 128usize..4096,
        interval in 1u64..40,
    ) {
        for policy in [
            MemoryPolicy::InMemory,
            MemoryPolicy::SpillMerge { threshold_bytes: threshold },
            MemoryPolicy::KvStore { cache_bytes: cache },
        ] {
            let reference = run_policy(&records, policy.clone());
            let cfg = JobConfig::new(1)
                .engine(Engine::BarrierLess { memory: policy.clone() })
                .snapshots(SnapshotPolicy::EveryRecords { records: interval })
                .scratch_dir(scratch());
            let (out, _, snaps) = reduce_partition_barrierless_traced(
                &MaxTracker,
                &cfg,
                0,
                records.to_vec(),
                &mut Counters::new(),
            )
            .expect("snapshotted run");
            prop_assert_eq!(
                &reference, &out,
                "snapshots every {} changed output under {:?}", interval, policy
            );
            // One snapshot per full interval plus the end-of-input
            // one (when the stream length is a multiple of the
            // interval the last interval snapshot and the final
            // snapshot both fire — two identical estimates, two
            // distinct seqs).
            let expected = records.len() as u64 / interval + 1;
            prop_assert_eq!(snaps.len() as u64, expected);
            for snap in &snaps {
                for pair in snap.estimate.windows(2) {
                    prop_assert!(
                        pair[0].0 <= pair[1].0,
                        "snapshot keys unsorted under {:?}", policy
                    );
                }
                // MaxTracker emits at most 3 records per key: a key
                // fragmented across spill runs that was not merged
                // would show up as >3 entries for one key.
                let mut per_key = std::collections::BTreeMap::new();
                for (k, _) in &snap.estimate {
                    *per_key.entry(*k).or_insert(0usize) += 1;
                }
                prop_assert!(
                    per_key.values().all(|&n| n <= 3),
                    "unmerged key fragments in snapshot under {:?}", policy
                );
            }
            // The last snapshot equals the final output exactly.
            prop_assert_eq!(&snaps.last().expect("final").estimate, &out);
        }
    }

    /// Monotone convergence for the pure count-sum class: successive
    /// snapshot estimates only grow — per key and in total — with
    /// records absorbed, and the last snapshot equals finalize output
    /// exactly. (This is what makes barrier-less early answers *usable*:
    /// an observer knows every count is a lower bound.)
    #[test]
    fn count_sum_snapshots_are_monotone_and_end_exact(
        records in prop::collection::vec((0u32..20, 1u64..50), 1..150),
        interval in 1u64..30,
    ) {
        let cfg = JobConfig::new(1)
            .engine(Engine::BarrierLess { memory: MemoryPolicy::InMemory })
            .snapshots(SnapshotPolicy::EveryRecords { records: interval })
            .scratch_dir(scratch());
        let input: Vec<(u32, u64)> = records.clone();
        let (out, _, snaps) = reduce_partition_barrierless_traced(
            &CountSum,
            &cfg,
            0,
            input,
            &mut Counters::new(),
        )
        .expect("run");
        prop_assert!(!snaps.is_empty());
        let mut prev: BTreeMap<u32, u64> = BTreeMap::new();
        let mut prev_total = 0u64;
        let mut prev_records = 0u64;
        for snap in &snaps {
            prop_assert!(snap.records_absorbed >= prev_records);
            prev_records = snap.records_absorbed;
            let now: BTreeMap<u32, u64> = snap.estimate.iter().cloned().collect();
            let total: u64 = now.values().sum();
            prop_assert!(
                total >= prev_total,
                "total estimate shrank: {} -> {}", prev_total, total
            );
            for (k, v) in &prev {
                prop_assert!(
                    now.get(k).is_some_and(|n| n >= v),
                    "key {} regressed from {}", k, v
                );
            }
            prev = now;
            prev_total = total;
        }
        // Last snapshot is byte-exact the finalize output.
        prop_assert_eq!(&snaps.last().expect("final").estimate, &out);
        // And it accounts every absorbed record.
        prop_assert_eq!(prev_records, records.len() as u64);
    }

    /// Equal keys fold in spill order with the live map last, whatever
    /// the key type's prefix says: inexact `String` ties, the reversed
    /// order, tuples (never exact, so `cmp_encoded` decodes) and `u64`
    /// (always exact).
    #[test]
    fn spill_merge_folds_in_arrival_order_for_every_key_kind(
        words in prop::collection::vec(colliding_words(), 1..250),
        pairs in prop::collection::vec((0u32..3, colliding_words()), 1..250),
        numbers in prop::collection::vec(0u64..40, 1..250),
        threshold in 64u64..4096,
        interval in 1u64..40,
    ) {
        concat_spill_matches_in_memory(words.clone(), threshold, interval)?;
        concat_spill_matches_in_memory(
            words.into_iter().map(Reverse).collect(),
            threshold,
            interval,
        )?;
        concat_spill_matches_in_memory(pairs, threshold, interval)?;
        concat_spill_matches_in_memory(numbers, threshold, interval)?;
    }

    /// The incremental form agrees with the grouped form: top-3 per key.
    #[test]
    fn incremental_matches_grouped_semantics(
        records in prop::collection::vec((0u32..20, -1000i64..1000), 1..200),
    ) {
        let got = run_policy(&records, MemoryPolicy::InMemory);
        let mut expect: BTreeMap<u32, Vec<i64>> = BTreeMap::new();
        for &(k, v) in &records {
            expect.entry(k).or_default().push(v);
        }
        let expect: Vec<(u32, i64)> = expect
            .into_iter()
            .flat_map(|(k, mut vs)| {
                vs.sort_by(|a, b| b.cmp(a));
                vs.truncate(3);
                vs.into_iter().map(move |v| (k, v))
            })
            .collect();
        prop_assert_eq!(got, expect);
    }
}
