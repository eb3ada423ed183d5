//! Barrier-mode reduce: sort, group, reduce (Figure 2 of the paper).
//!
//! Like Hadoop's sort-merge reduce, the barrier orders *serialized*
//! records through an index and raw comparators; it never builds a key
//! object per record to sort it. `reduce_encoded_runs` is the one
//! kernel: the local executor hands it the shuffle batches a reducer held
//! (already bytes), and [`reduce_partition_barrier`] — the typed entry
//! point the simulators and the service use — encodes its records into
//! one run and calls the same kernel.

use crate::codec::{Codec, CodecError};
use crate::counters::{names, Counters};
use crate::error::MrResult;
use crate::traits::Application;
use std::cmp::Ordering;

/// Runs one reduce partition the classic way.
///
/// `records` is everything the shuffle delivered for this partition, in
/// fetch order. The engine sorts it by the map key's [`Ord`] — Hadoop's
/// default key comparator; stable, like its merge sort, so equal keys
/// stay in fetch order — walks key groups using
/// [`group_eq`](Application::group_eq), and hands each group to
/// `reduce_grouped`. A secondary sort is a key type whose `Ord` says so
/// (see [`std::cmp::Reverse`]) plus a coarser `group_eq`.
pub fn reduce_partition_barrier<A: Application>(
    app: &A,
    records: Vec<(A::MapKey, A::MapValue)>,
    counters: &mut Counters,
) -> MrResult<Vec<(A::OutKey, A::OutValue)>> {
    let mut bytes = Vec::new();
    for (key, value) in &records {
        key.encode(&mut bytes);
        value.encode(&mut bytes);
    }
    let run = (bytes.as_slice(), records.len());
    drop(records);
    reduce_encoded_runs(app, &[run], counters)
}

/// Where one indexed record lies: which run, and the offsets of its key
/// and value in that run's bytes (the key ends where the value starts).
#[derive(Clone, Copy)]
struct Loc {
    run: u32,
    key: u32,
    val: u32,
}

/// The group the walk has open.
struct Group<'a, A: Application> {
    /// Its first key: what `group_eq` and `reduce_grouped` are given.
    first: A::MapKey,
    /// The bytes of the key last decoded into it.
    last: &'a [u8],
    values: Vec<A::MapValue>,
}

const INDEX_OVERFLOW: CodecError = CodecError::Corrupt("shuffle run too large for the sort index");

/// The barrier's sort-group-reduce over encoded records.
///
/// `runs` are `(bytes, record count)` pairs in fetch order, each the
/// [`Codec`] encoding of its records laid end to end (`key, value, …`).
/// Three passes over bytes that stay where they are:
///
/// 1. **Index.** [`Codec::sort_prefix`] over the key, then the value, of
///    every record finds the record boundaries and yields one integer
///    entry per record: the key's prefix above the record's arrival
///    number above the prefix's *exact* flag. A run that ends early, has
///    bytes left over, or does not fit the index's 32-bit fields is a
///    typed error.
/// 2. **Sort.** The entries sort as plain integers — by prefix, ties in
///    arrival order. Where equal prefixes are not exact the tied stretch
///    is re-sorted, stably, by [`Codec::cmp_encoded`]. Prefixes preserve
///    the key's order, so together this is exactly the stable sort by
///    `MapKey: Ord`.
/// 3. **Walk.** Records are visited in sorted order; each value is
///    decoded once, a key only where its bytes differ from the previous
///    record's, and `group_eq` is asked only then (against the group's
///    first key).
pub(crate) fn reduce_encoded_runs<A: Application>(
    app: &A,
    runs: &[(&[u8], usize)],
    counters: &mut Counters,
) -> MrResult<Vec<(A::OutKey, A::OutValue)>> {
    // 1. Index. The bound on the reservation keeps a corrupt record
    // count from sizing an allocation.
    let fit = |n: usize| u32::try_from(n).map_err(|_| INDEX_OVERFLOW);
    let total = runs
        .iter()
        .try_fold(0usize, |n, (_, records)| n.checked_add(*records))
        .ok_or(INDEX_OVERFLOW)?;
    fit(total)?;
    let total_bytes: usize = runs.iter().map(|(bytes, _)| bytes.len()).sum();
    let reserve = total.min(total_bytes);
    let mut index: Vec<u128> = Vec::with_capacity(reserve);
    let mut locs: Vec<Loc> = Vec::with_capacity(reserve);
    for (run, &(bytes, records)) in runs.iter().enumerate() {
        let run = fit(run)?;
        fit(bytes.len())?;
        let mut input = bytes;
        for _ in 0..records {
            let key = (bytes.len() - input.len()) as u32;
            let (prefix, exact) = A::MapKey::sort_prefix(&mut input)?;
            let val = (bytes.len() - input.len()) as u32;
            A::MapValue::sort_prefix(&mut input)?;
            index.push((prefix as u128) << 64 | (locs.len() as u128) << 1 | exact as u128);
            locs.push(Loc { run, key, val });
        }
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes in shuffle batch").into());
        }
    }
    counters.add(names::REDUCE_INPUT_RECORDS, total as u64);

    // 2. Sort. Entries are distinct (the arrival number is), so the
    // unstable sort has no ties to reorder.
    index.sort_unstable();
    // An entry's key bytes, and the run's bytes from its value on.
    let record = |entry: u128| {
        let loc = locs[(entry as u64 >> 1) as usize];
        let bytes = runs[loc.run as usize].0;
        let (key, val) = (loc.key as usize, loc.val as usize);
        (&bytes[key..val], &bytes[val..])
    };
    let mut scratch = Vec::new();
    let mut at = 0;
    while at < index.len() {
        let prefix = index[at] >> 64;
        let tied = index[at..]
            .iter()
            .take_while(|&&entry| entry >> 64 == prefix)
            .count();
        if tied > 1 && index[at] & 1 == 0 {
            try_stable_sort(&mut index[at..at + tied], &mut scratch, &mut |a, b| {
                A::MapKey::cmp_encoded(record(a).0, record(b).0)
            })?;
        }
        at += tied;
    }

    // 3. Walk.
    let mut out: Vec<(A::OutKey, A::OutValue)> = Vec::new();
    let mut shared = app.new_shared();
    let mut close = |group: Group<A>| {
        counters.incr(names::REDUCE_GROUPS);
        app.reduce_grouped(&group.first, group.values, &mut shared, &mut out);
    };
    let mut open: Option<Group<A>> = None;
    for &entry in &index {
        let (key_bytes, mut value_bytes) = record(entry);
        let value = A::MapValue::decode(&mut value_bytes)?;
        let first = match &mut open {
            Some(group) if group.last == key_bytes => {
                group.values.push(value);
                continue;
            }
            Some(group) => {
                let key = A::MapKey::from_bytes(key_bytes)?;
                if app.group_eq(&group.first, &key) {
                    group.last = key_bytes;
                    group.values.push(value);
                    continue;
                }
                key
            }
            None => A::MapKey::from_bytes(key_bytes)?,
        };
        let next = Group {
            first,
            last: key_bytes,
            values: vec![value],
        };
        if let Some(done) = open.replace(next) {
            close(done);
        }
    }
    if let Some(done) = open {
        close(done);
    }
    app.flush_shared(shared, &mut out);
    counters.add(names::REDUCE_OUTPUT_RECORDS, out.len() as u64);
    Ok(out)
}

/// Stable merge sort under a comparison that can fail: the first error
/// ends the sort and is returned, which `slice::sort_by` cannot offer
/// (it has no early exit and may panic on an inconsistent order). Runs
/// already in order — every duplicate of one long key — cost one
/// comparison per element.
fn try_stable_sort(
    v: &mut [u128],
    scratch: &mut Vec<u128>,
    cmp: &mut impl FnMut(u128, u128) -> Result<Ordering, CodecError>,
) -> Result<(), CodecError> {
    if v.len() < 2 {
        return Ok(());
    }
    let mid = v.len() / 2;
    try_stable_sort(&mut v[..mid], scratch, cmp)?;
    try_stable_sort(&mut v[mid..], scratch, cmp)?;
    if cmp(v[mid - 1], v[mid])? != Ordering::Greater {
        return Ok(());
    }
    // Merge the saved left half with the right half in place: the write
    // position never passes the right half's read position.
    scratch.clear();
    scratch.extend_from_slice(&v[..mid]);
    let (mut left, mut right, mut write) = (0, mid, 0);
    while left < mid && right < v.len() {
        if cmp(v[right], scratch[left])? == Ordering::Less {
            v[write] = v[right];
            right += 1;
        } else {
            v[write] = scratch[left];
            left += 1;
        }
        write += 1;
    }
    v[write..write + mid - left].copy_from_slice(&scratch[left..]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MrError;
    use crate::testutil::{ArrivalOrder, SecondaryMax, WordCountApp};
    use crate::traits::Emit;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::fmt::Debug;

    /// The typed sort-group-reduce the kernel replaced — decode, stable
    /// `sort_by` on the key, `group_eq` walk against the group's first
    /// key — kept as the reference the kernel must reproduce exactly.
    fn reference<A: Application>(
        app: &A,
        mut records: Vec<(A::MapKey, A::MapValue)>,
        counters: &mut Counters,
    ) -> Vec<(A::OutKey, A::OutValue)> {
        counters.add(names::REDUCE_INPUT_RECORDS, records.len() as u64);
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(A::OutKey, A::OutValue)> = Vec::new();
        let mut shared = app.new_shared();
        let mut iter = records.into_iter().peekable();
        while let Some((key, value)) = iter.next() {
            let mut values = vec![value];
            while let Some((_, v)) = iter.next_if(|(next_key, _)| app.group_eq(&key, next_key)) {
                values.push(v);
            }
            counters.incr(names::REDUCE_GROUPS);
            app.reduce_grouped(&key, values, &mut shared, &mut out);
        }
        app.flush_shared(shared, &mut out);
        counters.add(names::REDUCE_OUTPUT_RECORDS, out.len() as u64);
        out
    }

    /// Encodes `records` as runs cut at `cuts` (empty runs included),
    /// runs the kernel over them, and checks output and the three
    /// reduce counters against the reference.
    fn kernel_matches_reference<A: Application>(
        app: &A,
        records: Vec<(A::MapKey, A::MapValue)>,
        cuts: &[prop::sample::Index],
    ) -> Result<(), TestCaseError>
    where
        A::OutKey: Debug,
        A::OutValue: Debug + PartialEq,
    {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(records.len() + 1)).collect();
        bounds.extend([0, records.len()]);
        bounds.sort_unstable();
        let encoded: Vec<(Vec<u8>, usize)> = bounds
            .windows(2)
            .map(|w| {
                let mut bytes = Vec::new();
                for (key, value) in &records[w[0]..w[1]] {
                    key.encode(&mut bytes);
                    value.encode(&mut bytes);
                }
                (bytes, w[1] - w[0])
            })
            .collect();
        let runs: Vec<(&[u8], usize)> = encoded.iter().map(|(b, n)| (b.as_slice(), *n)).collect();
        let (mut got_counters, mut want_counters) = (Counters::new(), Counters::new());
        let got = reduce_encoded_runs(app, &runs, &mut got_counters).expect("valid runs");
        let want = reference(app, records, &mut want_counters);
        prop_assert_eq!(got, want);
        for name in [
            names::REDUCE_INPUT_RECORDS,
            names::REDUCE_GROUPS,
            names::REDUCE_OUTPUT_RECORDS,
        ] {
            prop_assert_eq!(got_counters.get(name), want_counters.get(name), "{}", name);
        }
        Ok(())
    }

    /// kNN's shape: `(group, rank)` keys grouped by `group` alone, so
    /// one group spans many distinct keys; the reducer emits the
    /// group's values in the order it received them.
    struct RankedGroups;

    impl Application for RankedGroups {
        type InKey = ();
        type InValue = ();
        type MapKey = (i64, i64);
        type MapValue = i64;
        type OutKey = i64;
        type OutValue = i64;
        type State = ();
        type Shared = ();

        fn map(&self, _: &(), _: &(), _: &mut dyn Emit<(i64, i64), i64>) {}
        fn new_shared(&self) {}
        fn reduce_grouped(
            &self,
            key: &(i64, i64),
            values: Vec<i64>,
            _shared: &mut (),
            out: &mut dyn Emit<i64, i64>,
        ) {
            for value in values {
                out.emit(key.0, value);
            }
        }
        fn group_eq(&self, a: &(i64, i64), b: &(i64, i64)) -> bool {
            a.0 == b.0
        }
        fn init(&self, _: &(i64, i64)) {}
        fn absorb(
            &self,
            _: &(i64, i64),
            _: &mut (),
            _: i64,
            _: &mut (),
            _: &mut dyn Emit<i64, i64>,
        ) {
        }
        fn merge(&self, _: &(i64, i64), _: (), _: ()) {}
        fn finalize(&self, _: (i64, i64), _: (), _: &mut (), _: &mut dyn Emit<i64, i64>) {}
    }

    /// Words that collide often: duplicates, keys that are all prefix
    /// (at most seven bytes), and long keys sharing their first seven
    /// and eight bytes so that only `cmp_encoded` can order them.
    fn colliding_words() -> impl Strategy<Value = String> {
        (0usize..4, "[ab]{0,2}").prop_map(|(stem, tail)| {
            format!("{}{tail}", ["", "x", "shared-", "shared-prefix-"][stem])
        })
    }

    fn cuts() -> impl Strategy<Value = Vec<prop::sample::Index>> {
        prop::collection::vec(any::<prop::sample::Index>(), 0..6)
    }

    proptest! {
        #[test]
        fn kernel_matches_the_typed_reference_on_word_count(
            records in prop::collection::vec((colliding_words(), 0u64..5), 0..80),
            cuts in cuts(),
        ) {
            kernel_matches_reference(&WordCountApp, records, &cuts)?;
        }

        #[test]
        fn kernel_matches_the_typed_reference_on_a_secondary_sort(
            records in prop::collection::vec(((0u64..4, -3i64..3), any::<i64>()), 0..80),
            cuts in cuts(),
        ) {
            let records = records
                .into_iter()
                .map(|((group, metric), v)| ((group, Reverse(metric)), v))
                .collect();
            kernel_matches_reference(&SecondaryMax, records, &cuts)?;
        }

        #[test]
        fn kernel_keeps_fetch_order_within_a_key(
            records in prop::collection::vec((0u8..3, ".{0,6}"), 0..80),
            cuts in cuts(),
        ) {
            kernel_matches_reference(&ArrivalOrder, records, &cuts)?;
        }

        #[test]
        fn kernel_groups_across_many_distinct_keys(
            records in prop::collection::vec(((-2i64..2, -20i64..20), any::<i64>()), 0..80),
            cuts in cuts(),
        ) {
            kernel_matches_reference(&RankedGroups, records, &cuts)?;
        }
    }

    fn word_run(words: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for word in words {
            (word.len() as u32).encode(&mut bytes);
            bytes.extend_from_slice(word);
            1u64.encode(&mut bytes);
        }
        bytes
    }

    fn kernel_error(runs: &[(&[u8], usize)]) -> CodecError {
        match reduce_encoded_runs(&WordCountApp, runs, &mut Counters::new()) {
            Err(MrError::Codec(e)) => e,
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_runs_are_typed_errors() {
        let good = word_run(&[b"alpha", b"beta"]);
        assert!(reduce_encoded_runs(&WordCountApp, &[(&good, 2)], &mut Counters::new()).is_ok());
        // A run that ends early, one with bytes left over, a count the
        // bytes cannot back.
        let short = &good[..good.len() - 1];
        assert_eq!(
            kernel_error(&[(&good, 2), (short, 2)]),
            CodecError::UnexpectedEof
        );
        assert_eq!(kernel_error(&[(&good, 3)]), CodecError::UnexpectedEof);
        assert_eq!(
            kernel_error(&[(&good, 1)]),
            CodecError::Corrupt("trailing bytes in shuffle batch")
        );
        // More records than the index can number: refused before any
        // of them is read (or any memory reserved for them).
        assert_eq!(kernel_error(&[(&[], usize::MAX)]), INDEX_OVERFLOW);
        assert_eq!(
            kernel_error(&[(&good, 2), (&[], u32::MAX as usize - 1)]),
            INDEX_OVERFLOW
        );
    }

    #[test]
    fn an_undecodable_key_that_ties_with_a_valid_one_is_a_typed_error() {
        // Same first eight bytes, so the two keys meet in `cmp_encoded`
        // (which orders raw bytes and cannot fail) and the invalid
        // UTF-8 surfaces when the walk decodes the key.
        let run = word_run(&[b"shared-prefix", b"shared-p\xFF", b"shared-prefix"]);
        assert_eq!(kernel_error(&[(&run, 3)]), CodecError::Corrupt("utf8"));
    }

    #[test]
    fn groups_all_values_per_key() {
        let app = WordCountApp;
        let records = vec![
            ("b".to_string(), 1u64),
            ("a".to_string(), 1),
            ("b".to_string(), 1),
            ("a".to_string(), 1),
            ("a".to_string(), 1),
        ];
        let mut counters = Counters::new();
        let out = reduce_partition_barrier(&app, records, &mut counters).unwrap();
        assert_eq!(out, vec![("a".to_string(), 3), ("b".to_string(), 2)]);
        assert_eq!(counters.get(names::REDUCE_GROUPS), 2);
        assert_eq!(counters.get(names::REDUCE_INPUT_RECORDS), 5);
        assert_eq!(counters.get(names::REDUCE_OUTPUT_RECORDS), 2);
    }

    #[test]
    fn output_is_key_sorted_for_free() {
        let app = WordCountApp;
        let records: Vec<(String, u64)> = ["zeta", "alpha", "mid", "alpha"]
            .iter()
            .map(|w| (w.to_string(), 1))
            .collect();
        let out = reduce_partition_barrier(&app, records, &mut Counters::new()).unwrap();
        let keys: Vec<&str> = out.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn empty_partition_produces_nothing() {
        let app = WordCountApp;
        let out = reduce_partition_barrier(&app, Vec::new(), &mut Counters::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn secondary_sort_orders_within_group() {
        // SecondaryMax uses composite (group, metric) keys sorted by
        // metric descending within a group; the reducer takes the first
        // value per group — Hadoop's classic top-1 selection pattern.
        let app = SecondaryMax;
        let records = vec![
            ((1u64, Reverse(5i64)), 50i64),
            ((2u64, Reverse(9i64)), 90),
            ((1u64, Reverse(8i64)), 80),
            ((1u64, Reverse(2i64)), 20),
            ((2u64, Reverse(1i64)), 10),
        ];
        let out = reduce_partition_barrier(&app, records, &mut Counters::new()).unwrap();
        assert_eq!(out, vec![(1, 80), (2, 90)]);
    }
}
