//! Named job counters, Hadoop-style.

use mr_trace::{Label, TraceLog, TraceQuery};
use std::collections::BTreeMap;
use std::fmt;

/// A typed counter name: every well-known counter the engines maintain,
/// as an enum instead of a loose `&'static str`. A typo'd name is now a
/// compile error rather than a silently separate counter, while
/// [`as_str`](CounterName::as_str) keeps the wire/report strings
/// byte-identical to what the string constants always were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum CounterName {
    /// Records produced by map functions.
    MapOutputRecords,
    /// Records consumed by the reduce side.
    ReduceInputRecords,
    /// Raw map-output records fed into map-side combiners. A job run
    /// through [`serve`](crate::local::service::serve) is the same stage
    /// graph as one run alone, so it reports the `combine.*` and
    /// `shuffle.*` counters too (before PR 23 the service had a private
    /// engine that ignored the combiner and shuffled nothing).
    CombineInputRecords,
    /// Combined records the combiners emitted into the shuffle.
    CombineOutputRecords,
    /// Record batches handed to the shuffle transport (local executor).
    /// Both engines shuffle through the same map side, so a staged
    /// barrier-engine run reports this (and [`ShuffleRecords`]) too,
    /// with the values the barrier-less engine reports for the same
    /// input and config — and so does a job served by
    /// [`serve`](crate::local::service::serve), cut by its own
    /// `JobConfig::shuffle_batch_bytes`.
    ///
    /// [`ShuffleRecords`]: CounterName::ShuffleRecords
    ShuffleBatches,
    /// Shuffle batches that ran past the transport channel's depth and
    /// so were built on a recycled buffer rather than a fresh
    /// allocation. Modelled deterministically from batch counts (per
    /// channel, `batches.saturating_sub(depth)`), not sampled from
    /// free-list timing, so the value is schedule-independent. Charged
    /// only where buffers really recycle: a barrier-less reducer hands
    /// each drained buffer back to the mappers; a barrier reducer holds
    /// every batch until the barrier and charges nothing.
    ShuffleBatchReuse,
    /// Records that actually crossed the shuffle (post-combine), under
    /// either engine.
    ShuffleRecords,
    /// Records written to job output.
    ReduceOutputRecords,
    /// Distinct key groups reduced (barrier engine).
    ReduceGroups,
    /// Runs spilled by the spill-and-merge store (`spill.files`: one
    /// file holds all of a store's runs, the name predates that).
    SpillFiles,
    /// Bytes written to spill runs.
    SpillBytes,
    /// Partial results merged during the merge phase.
    SpillMergedStates,
    /// KV-store cache hits during absorb.
    KvCacheHits,
    /// KV-store cache misses during absorb.
    KvCacheMisses,
    /// Partial-result snapshots published by reduce tasks. Like
    /// Hadoop's counters, this reflects *surviving* task attempts: in
    /// the cluster simulator a reducer killed by a node failure keeps
    /// its published snapshots in `JobOutput::snapshots` (the stream an
    /// observer saw), so after fault recovery that stream can exceed
    /// this counter.
    SnapshotCount,
    /// Estimated output records emitted across all snapshots.
    SnapshotRecords,
    /// Estimated partial-state bytes (keys + states) covered by
    /// snapshots (zero under the barrier engine, which has no partial
    /// state to cover).
    SnapshotBytes,
    /// Records handed from one chained job's reduce side to the next
    /// job's map function (both handoff modes).
    ChainHandoffRecords,
    /// Record batches handed across a chain stage boundary: one per
    /// upstream partition that handed anything on, under either handoff
    /// mode.
    ChainHandoffBatches,
    /// Modelled bytes handed across chain stage boundaries, as estimated
    /// by `ChainableApplication::handoff_bytes`.
    ChainHandoffBytes,
    /// Speculative backup attempts launched for straggling tasks
    /// (cluster simulator only).
    SpeculationLaunched,
    /// Speculative backup attempts that finished before the original
    /// attempt and supplied the task's output.
    SpeculationWon,
    /// Attempts (original or backup) cancelled because the other attempt
    /// of the same task won the race.
    SpeculationCancelled,
    /// Result-cache lookups that found a resident artifact.
    CacheHits,
    /// Payload bytes handed out by result-cache hits.
    CacheHitBytes,
    /// Result-cache lookups that found nothing (the artifact was then
    /// computed and, budget permitting, inserted).
    CacheMisses,
    /// Payload bytes that had to be recomputed on result-cache misses
    /// (counted at insert time, when the artifact's size is known).
    CacheMissBytes,
    /// Artifacts admitted into the result cache.
    CacheInserts,
    /// Payload bytes admitted into the result cache.
    CacheInsertBytes,
    /// Artifacts evicted from the result cache to stay under budget.
    CacheEvictions,
    /// Payload bytes evicted from the result cache.
    CacheEvictBytes,
    /// Artifacts refused because one entry exceeded the whole cache
    /// budget (the typed `Oversize` rejection).
    CacheOversize,
    /// Cache-enabled jobs that ran uncached because the application
    /// could not vouch for a complete instance identity
    /// (`Application::cache_identity` returned `false`).
    CacheBypass,
}

impl CounterName {
    /// The counter's report string — byte-identical to the historical
    /// `&'static str` constants, so serialized output never changes.
    pub const fn as_str(self) -> &'static str {
        match self {
            CounterName::MapOutputRecords => "map.output.records",
            CounterName::ReduceInputRecords => "reduce.input.records",
            CounterName::CombineInputRecords => "combine.input.records",
            CounterName::CombineOutputRecords => "combine.output.records",
            CounterName::ShuffleBatches => "shuffle.batches",
            CounterName::ShuffleBatchReuse => "shuffle.batch_reuse",
            CounterName::ShuffleRecords => "shuffle.records",
            CounterName::ReduceOutputRecords => "reduce.output.records",
            CounterName::ReduceGroups => "reduce.groups",
            CounterName::SpillFiles => "spill.files",
            CounterName::SpillBytes => "spill.bytes",
            CounterName::SpillMergedStates => "spill.merged.states",
            CounterName::KvCacheHits => "kv.cache.hits",
            CounterName::KvCacheMisses => "kv.cache.misses",
            CounterName::SnapshotCount => "snapshot.count",
            CounterName::SnapshotRecords => "snapshot.records",
            CounterName::SnapshotBytes => "snapshot.bytes",
            CounterName::ChainHandoffRecords => "chain.handoff.records",
            CounterName::ChainHandoffBatches => "chain.handoff.batches",
            CounterName::ChainHandoffBytes => "chain.handoff.bytes",
            CounterName::SpeculationLaunched => "speculation.launched",
            CounterName::SpeculationWon => "speculation.won",
            CounterName::SpeculationCancelled => "speculation.cancelled",
            CounterName::CacheHits => "cache.hit.count",
            CounterName::CacheHitBytes => "cache.hit.bytes",
            CounterName::CacheMisses => "cache.miss.count",
            CounterName::CacheMissBytes => "cache.miss.bytes",
            CounterName::CacheInserts => "cache.insert.count",
            CounterName::CacheInsertBytes => "cache.insert.bytes",
            CounterName::CacheEvictions => "cache.evict.count",
            CounterName::CacheEvictBytes => "cache.evict.bytes",
            CounterName::CacheOversize => "cache.oversize.count",
            CounterName::CacheBypass => "cache.bypass.count",
        }
    }
}

impl AsRef<str> for CounterName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for CounterName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<CounterName> for Label {
    fn from(n: CounterName) -> Label {
        Label::Static(n.as_str())
    }
}

/// Well-known counter names used by the engines.
///
/// These are the historical constants, now typed: each is a
/// [`CounterName`] variant rather than a bare string, so existing call
/// sites (`counters.add(names::MAP_OUTPUT_RECORDS, n)`) compile
/// unchanged while misspellings no longer type-check.
pub mod names {
    use super::CounterName;

    /// Records produced by map functions.
    pub const MAP_OUTPUT_RECORDS: CounterName = CounterName::MapOutputRecords;
    /// Records consumed by the reduce side.
    pub const REDUCE_INPUT_RECORDS: CounterName = CounterName::ReduceInputRecords;
    /// Raw map-output records fed into map-side combiners.
    pub const COMBINE_INPUT_RECORDS: CounterName = CounterName::CombineInputRecords;
    /// Combined records the combiners emitted into the shuffle.
    pub const COMBINE_OUTPUT_RECORDS: CounterName = CounterName::CombineOutputRecords;
    /// Record batches handed to the shuffle transport (local executor).
    pub const SHUFFLE_BATCHES: CounterName = CounterName::ShuffleBatches;
    /// Shuffle batches past channel depth, modelled as buffer reuse.
    pub const SHUFFLE_BATCH_REUSE: CounterName = CounterName::ShuffleBatchReuse;
    /// Records that actually crossed the shuffle (post-combine).
    pub const SHUFFLE_RECORDS: CounterName = CounterName::ShuffleRecords;
    /// Records written to job output.
    pub const REDUCE_OUTPUT_RECORDS: CounterName = CounterName::ReduceOutputRecords;
    /// Distinct key groups reduced (barrier engine).
    pub const REDUCE_GROUPS: CounterName = CounterName::ReduceGroups;
    /// Runs spilled by the spill-and-merge store (`spill.files`).
    pub const SPILL_FILES: CounterName = CounterName::SpillFiles;
    /// Bytes written to spill runs.
    pub const SPILL_BYTES: CounterName = CounterName::SpillBytes;
    /// Partial results merged during the merge phase.
    pub const SPILL_MERGED_STATES: CounterName = CounterName::SpillMergedStates;
    /// KV-store cache hits during absorb.
    pub const KV_CACHE_HITS: CounterName = CounterName::KvCacheHits;
    /// KV-store cache misses during absorb.
    pub const KV_CACHE_MISSES: CounterName = CounterName::KvCacheMisses;
    /// Partial-result snapshots published by reduce tasks.
    pub const SNAPSHOT_COUNT: CounterName = CounterName::SnapshotCount;
    /// Estimated output records emitted across all snapshots.
    pub const SNAPSHOT_RECORDS: CounterName = CounterName::SnapshotRecords;
    /// Estimated partial-state bytes covered by snapshots.
    pub const SNAPSHOT_BYTES: CounterName = CounterName::SnapshotBytes;
    /// Records handed from one chained job's reduce side to the next
    /// job's map function (both handoff modes).
    pub const CHAIN_HANDOFF_RECORDS: CounterName = CounterName::ChainHandoffRecords;
    /// Record batches handed across a chain stage boundary: one per
    /// non-empty upstream partition, under either handoff mode.
    pub const CHAIN_HANDOFF_BATCHES: CounterName = CounterName::ChainHandoffBatches;
    /// Modelled bytes handed across chain stage boundaries.
    pub const CHAIN_HANDOFF_BYTES: CounterName = CounterName::ChainHandoffBytes;
    /// Speculative backup attempts launched for straggling tasks.
    pub const SPECULATION_LAUNCHED: CounterName = CounterName::SpeculationLaunched;
    /// Speculative backup attempts that won the race.
    pub const SPECULATION_WON: CounterName = CounterName::SpeculationWon;
    /// Attempts cancelled because the other attempt won.
    pub const SPECULATION_CANCELLED: CounterName = CounterName::SpeculationCancelled;
    /// Result-cache lookups that found a resident artifact.
    pub const CACHE_HITS: CounterName = CounterName::CacheHits;
    /// Payload bytes handed out by result-cache hits.
    pub const CACHE_HIT_BYTES: CounterName = CounterName::CacheHitBytes;
    /// Result-cache lookups that found nothing.
    pub const CACHE_MISSES: CounterName = CounterName::CacheMisses;
    /// Payload bytes recomputed on result-cache misses.
    pub const CACHE_MISS_BYTES: CounterName = CounterName::CacheMissBytes;
    /// Artifacts admitted into the result cache.
    pub const CACHE_INSERTS: CounterName = CounterName::CacheInserts;
    /// Payload bytes admitted into the result cache.
    pub const CACHE_INSERT_BYTES: CounterName = CounterName::CacheInsertBytes;
    /// Artifacts evicted from the result cache.
    pub const CACHE_EVICTIONS: CounterName = CounterName::CacheEvictions;
    /// Payload bytes evicted from the result cache.
    pub const CACHE_EVICT_BYTES: CounterName = CounterName::CacheEvictBytes;
    /// Oversize rejections (entry larger than the whole cache budget).
    pub const CACHE_OVERSIZE: CounterName = CounterName::CacheOversize;
    /// Cache-enabled jobs that bypassed the cache for lack of a
    /// complete application instance identity.
    pub const CACHE_BYPASS: CounterName = CounterName::CacheBypass;
}

/// A set of named monotonically increasing counters.
///
/// Engines create one per task and merge them into the job result, so no
/// locking is needed on the hot path. Keys are [`Label`]s: the typed
/// [`CounterName`]s cost nothing (static strings), and dynamic
/// runtime-built names are supported for ad-hoc instrumentation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    values: BTreeMap<Label, u64>,
}

impl Counters {
    /// An empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to `name`.
    pub fn add(&mut self, name: impl Into<Label>, delta: u64) {
        *self.values.entry(name.into()).or_insert(0) += delta;
    }

    /// Increments `name` by one.
    pub fn incr(&mut self, name: impl Into<Label>) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: impl AsRef<str>) -> u64 {
        self.values.get(name.as_ref()).copied().unwrap_or(0)
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (name, v) in &other.values {
            *self.values.entry(name.clone()).or_insert(0) += v;
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sums a trace log's counter events by label across all scopes.
    /// The executors merge the counters they return directly and record
    /// the same totals as events, so for a complete log this equals the
    /// run's `counters`; it is a check on the log, not where returned
    /// counters come from.
    pub fn from_trace(log: &TraceLog) -> Self {
        let mut c = Counters::new();
        for (label, v) in TraceQuery::new(log).counter_totals() {
            c.add(label, v);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_trace::{Scope, TraceEvent};

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        c.incr(names::MAP_OUTPUT_RECORDS);
        c.add(names::MAP_OUTPUT_RECORDS, 9);
        assert_eq!(c.get(names::MAP_OUTPUT_RECORDS), 10);
        assert_eq!(c.get("never"), 0);
    }

    #[test]
    fn merge_sums_by_name() {
        let mut a = Counters::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Counters::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        let items: Vec<_> = c.iter().collect();
        assert_eq!(items, vec![("a", 1), ("b", 2)]);
    }

    #[test]
    fn typed_names_keep_historical_strings() {
        // The report strings must never drift: external tooling parses
        // them (the benchmark, figure outputs).
        assert_eq!(names::MAP_OUTPUT_RECORDS.as_str(), "map.output.records");
        assert_eq!(names::SHUFFLE_BATCH_REUSE.as_str(), "shuffle.batch_reuse");
        assert_eq!(names::SPILL_MERGED_STATES.as_str(), "spill.merged.states");
        assert_eq!(
            names::CHAIN_HANDOFF_RECORDS.as_str(),
            "chain.handoff.records"
        );
        assert_eq!(
            names::SPECULATION_CANCELLED.as_str(),
            "speculation.cancelled"
        );
        assert_eq!(names::CACHE_HITS.as_str(), "cache.hit.count");
        assert_eq!(names::CACHE_MISS_BYTES.as_str(), "cache.miss.bytes");
        assert_eq!(names::CACHE_EVICT_BYTES.as_str(), "cache.evict.bytes");
        assert_eq!(names::CACHE_OVERSIZE.as_str(), "cache.oversize.count");
        // Typed and string keys address the same counter.
        let mut c = Counters::new();
        c.add(names::REDUCE_GROUPS, 3);
        assert_eq!(c.get("reduce.groups"), 3);
    }

    #[test]
    fn dynamic_string_labels_work() {
        let mut c = Counters::new();
        let dynamic = format!("app.{}.emitted", "topk");
        c.add(dynamic.clone(), 5);
        c.add("app.topk.emitted", 2);
        assert_eq!(c.get(&dynamic), 7);
    }

    #[test]
    fn from_trace_sums_deltas_across_scopes() {
        let mut log = TraceLog::new();
        log.push(
            Scope::job(0),
            TraceEvent::Counter {
                label: names::MAP_OUTPUT_RECORDS.into(),
                delta: 10,
            },
        );
        log.push(
            Scope::job(1),
            TraceEvent::Counter {
                label: names::MAP_OUTPUT_RECORDS.into(),
                delta: 5,
            },
        );
        let all = Counters::from_trace(&log);
        assert_eq!(all.get(names::MAP_OUTPUT_RECORDS), 15);
    }
}
