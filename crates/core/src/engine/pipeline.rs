//! Barrier-less reduce: record-at-a-time with a partial-result store
//! (Figure 3 of the paper).

use crate::codec::KeyCow;
use crate::config::{Engine, JobConfig, MemoryPolicy, SnapshotPolicy};
use crate::counters::{names, Counters};
use crate::error::MrResult;
use crate::snapshot::Snapshot;
use crate::store::{make_store, PartialStore, StoreReport};
use crate::traits::{Application, Emit};
use std::borrow::Cow;

/// What a finished driver reports to the executor.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Records absorbed.
    pub records: u64,
    /// Store statistics (zeroed for unkeyed applications).
    pub store: StoreReport,
}

/// Drives one barrier-less reduce partition.
///
/// The executor feeds records in shuffle-arrival order via
/// [`push`](IncrementalDriver::push); each becomes a `reduce` invocation on
/// a single record, as in the paper's modified `run()` (Algorithm 2). When
/// the shuffle is drained, [`finish`](IncrementalDriver::finish) replays
/// the paper's end-of-input phase: merge spills if any, finalize every key
/// in key order, then flush cross-key shared state.
pub struct IncrementalDriver<A: Application> {
    /// `None` for applications that keep no per-key state (Identity,
    /// cross-key, single-reducer aggregation — Table 1's O(1)/O(window)).
    store: Option<Box<dyn PartialStore<A>>>,
    shared: A::Shared,
    records: u64,
    reducer: usize,
    /// Snapshot policy for this task (from the effective `JobConfig`).
    policy: SnapshotPolicy,
    /// Snapshots published but not yet collected by the executor.
    snapshots: Vec<Snapshot<A>>,
    /// Next sequence number; starts at the fault-recovery base so a
    /// restarted attempt never regresses its predecessor's numbering.
    next_seq: u64,
    /// Next records-absorbed threshold for `EveryRecords`.
    next_at_records: u64,
    /// Next time threshold for `EverySecs` (driven by the executor via
    /// [`maybe_time_snapshot`](IncrementalDriver::maybe_time_snapshot)).
    next_at_secs: f64,
    /// Executor-stamped clock: wall seconds since task start (local) or
    /// virtual sim seconds (cluster). Metadata only.
    now_secs: f64,
    snap_count: u64,
    snap_records: u64,
    snap_bytes: u64,
}

impl<A: Application> IncrementalDriver<A> {
    /// Builds the driver for reduce partition `reducer` under `cfg`.
    ///
    /// # Panics
    /// If `cfg.engine` is not `Engine::BarrierLess` — the executor picked
    /// the wrong engine module.
    pub fn new(app: &A, cfg: &JobConfig, reducer: usize) -> MrResult<Self> {
        let Engine::BarrierLess { memory } = &cfg.engine else {
            panic!("IncrementalDriver requires the barrier-less engine");
        };
        let store = if app.uses_keyed_state() {
            Some(make_store::<A>(memory, cfg, reducer)?)
        } else {
            None
        };
        Ok(IncrementalDriver {
            store,
            shared: app.new_shared(),
            records: 0,
            reducer,
            policy: cfg.snapshots,
            snapshots: Vec::new(),
            next_seq: 0,
            next_at_records: cfg.snapshots.record_interval().unwrap_or(u64::MAX),
            next_at_secs: cfg.snapshots.secs_interval().unwrap_or(f64::INFINITY),
            now_secs: 0.0,
            snap_count: 0,
            snap_records: 0,
            snap_bytes: 0,
        })
    }

    /// Absorbs one record, in arrival order. Under
    /// [`SnapshotPolicy::EveryRecords`] the driver publishes a snapshot
    /// the moment the interval is crossed — deterministically, since the
    /// trigger depends only on the record stream.
    pub fn push(
        &mut self,
        app: &A,
        key: A::MapKey,
        value: A::MapValue,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()> {
        self.push_view(app, Cow::Owned(key), value, out)
    }

    /// [`push`](IncrementalDriver::push) with the key as its view — how
    /// the local executor feeds records straight out of a shuffle
    /// batch: the store builds an owned key only for a key it has not
    /// seen.
    pub fn push_view(
        &mut self,
        app: &A,
        key: KeyCow<'_, A::MapKey>,
        value: A::MapValue,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()> {
        self.records += 1;
        match &mut self.store {
            Some(store) => store.absorb_view(app, key, value, &mut self.shared, out)?,
            None => {
                // No keyed state: absorb against a throwaway state; the
                // application works through `shared` and `out`.
                let key = key.into_owned();
                let mut scratch = app.init(&key);
                app.absorb(&key, &mut scratch, value, &mut self.shared, out);
            }
        }
        if self.records >= self.next_at_records {
            let interval = self.policy.record_interval().expect("threshold finite");
            self.next_at_records = self.records + interval;
            self.snapshot_now(app)?;
        }
        Ok(())
    }

    /// Stamps the driver's clock (wall seconds since task start under
    /// the local executor, virtual seconds under the simulator) so
    /// snapshots carry a meaningful `at_secs`. Metadata only.
    pub fn set_now_secs(&mut self, secs: f64) {
        self.now_secs = secs;
    }

    /// Fault recovery: a restarted reduce attempt resumes snapshot
    /// numbering at `seq` so published sequence numbers never regress
    /// across re-runs.
    pub fn set_snapshot_seq_base(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// The next sequence number this driver would publish.
    pub fn snapshot_seq(&self) -> u64 {
        self.next_seq
    }

    /// Snapshots published so far (collected or not).
    pub fn snapshot_count_total(&self) -> u64 {
        self.snap_count
    }

    /// Estimated output records emitted across all snapshots so far.
    pub fn snapshot_records_total(&self) -> u64 {
        self.snap_records
    }

    /// Publishes a snapshot right now, regardless of policy — what the
    /// executors call for time-driven ticks and the end-of-input final
    /// snapshot. The store is walked as a frozen view — absorb state,
    /// spill cadence and final output are untouched.
    pub fn snapshot_now(&mut self, app: &A) -> MrResult<()> {
        let mut estimate = Vec::new();
        let mut bytes = 0u64;
        let mut live_entries = 0usize;
        if let Some(store) = &mut self.store {
            live_entries = store.entries();
            bytes = store.snapshot_into(app, &mut estimate)?;
        }
        self.snap_count += 1;
        self.snap_records += estimate.len() as u64;
        self.snap_bytes += bytes;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.snapshots.push(Snapshot {
            reducer: self.reducer,
            seq,
            records_absorbed: self.records,
            live_entries,
            at_secs: self.now_secs,
            estimate,
        });
        Ok(())
    }

    /// Publishes a snapshot if an `EverySecs` interval elapsed by
    /// `now_secs`. Executors call this between batches; the local runner
    /// feeds wall time, the simulator virtual time.
    pub fn maybe_time_snapshot(&mut self, app: &A, now_secs: f64) -> MrResult<()> {
        self.now_secs = now_secs;
        if now_secs >= self.next_at_secs {
            let interval = self.policy.secs_interval().expect("threshold finite");
            // Re-arm relative to *now*: a long stall must not produce a
            // burst of identical catch-up snapshots.
            self.next_at_secs = now_secs + interval;
            self.snapshot_now(app)?;
        }
        Ok(())
    }

    /// Moves every published-but-uncollected snapshot out of the driver.
    pub fn take_snapshots(&mut self) -> Vec<Snapshot<A>> {
        std::mem::take(&mut self.snapshots)
    }

    /// Current modelled heap footprint (for Figure 5 sampling).
    pub fn modelled_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.modelled_bytes())
    }

    /// Live partial results right now.
    pub fn entries(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.entries())
    }

    /// Cumulative store disk traffic so far (spills, KV log I/O).
    pub fn io_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.io_bytes())
    }

    /// Ends the task: merge + finalize + flush shared state.
    pub fn finish(
        self,
        app: &A,
        counters: &mut Counters,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<DriverReport> {
        let mut shared = self.shared;
        let store_report = match self.store {
            Some(store) => store.finalize_into(app, &mut shared, out)?,
            None => StoreReport::default(),
        };
        app.flush_shared(shared, out);
        counters.add(names::REDUCE_INPUT_RECORDS, self.records);
        counters.add(names::SPILL_FILES, store_report.spill_files);
        counters.add(names::SPILL_BYTES, store_report.spill_bytes);
        counters.add(names::SPILL_MERGED_STATES, store_report.merged_states);
        if let Some(kv) = &store_report.kv_stats {
            counters.add(names::KV_CACHE_HITS, kv.cache_hits);
            counters.add(names::KV_CACHE_MISSES, kv.cache_misses);
        }
        counters.add(names::SNAPSHOT_COUNT, self.snap_count);
        counters.add(names::SNAPSHOT_RECORDS, self.snap_records);
        counters.add(names::SNAPSHOT_BYTES, self.snap_bytes);
        Ok(DriverReport {
            records: self.records,
            store: store_report,
        })
    }
}

/// Convenience used by tests and the simulator: run a whole partition's
/// records through a fresh driver in one call.
#[allow(clippy::type_complexity)]
pub fn reduce_partition_barrierless<A: Application>(
    app: &A,
    cfg: &JobConfig,
    reducer: usize,
    records: Vec<(A::MapKey, A::MapValue)>,
    counters: &mut Counters,
) -> MrResult<(Vec<(A::OutKey, A::OutValue)>, DriverReport)> {
    let (out, report, _) =
        reduce_partition_barrierless_traced(app, cfg, reducer, records, counters)?;
    Ok((out, report))
}

/// Like [`reduce_partition_barrierless`], additionally returning every
/// snapshot the task published. Under a periodic policy a final snapshot
/// is taken at end-of-input, so the last snapshot always equals the
/// finalize output for applications whose finalize is a pure projection.
#[allow(clippy::type_complexity)]
pub fn reduce_partition_barrierless_traced<A: Application>(
    app: &A,
    cfg: &JobConfig,
    reducer: usize,
    records: Vec<(A::MapKey, A::MapValue)>,
    counters: &mut Counters,
) -> MrResult<(
    Vec<(A::OutKey, A::OutValue)>,
    DriverReport,
    Vec<Snapshot<A>>,
)> {
    let mut driver = IncrementalDriver::new(app, cfg, reducer)?;
    let mut out = Vec::new();
    for (key, value) in records {
        driver.push(app, key, value, &mut out)?;
    }
    if cfg.snapshots.is_enabled() {
        driver.snapshot_now(app)?;
    }
    let snapshots = driver.take_snapshots();
    let report = driver.finish(app, counters, &mut out)?;
    counters.add(names::REDUCE_OUTPUT_RECORDS, out.len() as u64);
    Ok((out, report, snapshots))
}

/// Re-exported policy helper: the three §5 policies with sane test sizes.
pub fn all_policies(spill_threshold: u64, kv_cache: usize) -> Vec<MemoryPolicy> {
    vec![
        MemoryPolicy::InMemory,
        MemoryPolicy::SpillMerge {
            threshold_bytes: spill_threshold,
        },
        MemoryPolicy::KvStore {
            cache_bytes: kv_cache,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, WordCountApp};

    fn barrierless_cfg(policy: MemoryPolicy) -> JobConfig {
        JobConfig::new(1)
            .engine(Engine::BarrierLess { memory: policy })
            .scratch_dir(scratch_dir("pipeline"))
    }

    /// `rounds` records over `rounds / 2 + 1` distinct keys, interleaved so
    /// most keys repeat: a realistic aggregation working set.
    fn wc_records(rounds: u64) -> Vec<(String, u64)> {
        let distinct = rounds / 2 + 1;
        (0..rounds)
            .map(|i| (format!("word-{:06}", (i * 7919) % distinct), 1u64))
            .collect()
    }

    fn expected_counts(records: &[(String, u64)]) -> Vec<(String, u64)> {
        let mut m = std::collections::BTreeMap::new();
        for (k, v) in records {
            *m.entry(k.clone()).or_insert(0) += v;
        }
        m.into_iter().collect()
    }

    #[test]
    fn all_three_policies_agree_with_each_other() {
        let records = wc_records(50);
        let expect = expected_counts(&records);
        for policy in all_policies(2_000, 512) {
            let cfg = barrierless_cfg(policy.clone());
            let mut counters = Counters::new();
            let (out, report) = reduce_partition_barrierless(
                &WordCountApp,
                &cfg,
                0,
                records.clone(),
                &mut counters,
            )
            .unwrap();
            assert_eq!(out, expect, "policy {policy:?} diverged");
            assert_eq!(report.records, records.len() as u64);
            assert_eq!(
                counters.get(names::REDUCE_INPUT_RECORDS),
                records.len() as u64
            );
        }
    }

    #[test]
    fn spill_policy_actually_spills_and_merges() {
        let records = wc_records(200);
        let expect = expected_counts(&records);
        // Threshold far below the working set forces many runs.
        let cfg = barrierless_cfg(MemoryPolicy::SpillMerge {
            threshold_bytes: 600,
        });
        let mut counters = Counters::new();
        let (out, report) =
            reduce_partition_barrierless(&WordCountApp, &cfg, 0, records, &mut counters).unwrap();
        assert_eq!(out, expect);
        assert!(report.store.spill_files > 1, "expected multiple spills");
        assert!(counters.get(names::SPILL_MERGED_STATES) > 0);
        assert!(counters.get(names::SPILL_BYTES) > 0);
    }

    #[test]
    fn oom_kills_the_task_under_inmemory_cap() {
        let records = wc_records(500);
        let mut cfg = barrierless_cfg(MemoryPolicy::InMemory);
        cfg.heap_cap_bytes = Some(400);
        let result =
            reduce_partition_barrierless(&WordCountApp, &cfg, 3, records, &mut Counters::new());
        match result {
            Err(crate::error::MrError::OutOfMemory { reducer, .. }) => assert_eq!(reducer, 3),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn spill_survives_where_inmemory_dies() {
        // Same data, same cap mindset: the spill policy must complete.
        let records = wc_records(500);
        let expect = expected_counts(&records);
        let cfg = barrierless_cfg(MemoryPolicy::SpillMerge {
            threshold_bytes: 400,
        });
        let (out, _) =
            reduce_partition_barrierless(&WordCountApp, &cfg, 0, records, &mut Counters::new())
                .unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn kv_policy_reports_cache_stats() {
        let records = wc_records(100);
        let cfg = barrierless_cfg(MemoryPolicy::KvStore { cache_bytes: 4096 });
        let mut counters = Counters::new();
        let (_, report) =
            reduce_partition_barrierless(&WordCountApp, &cfg, 0, records, &mut counters).unwrap();
        let kv = report.store.kv_stats.expect("kv stats present");
        assert!(kv.puts > 0);
        assert!(kv.gets > 0);
        assert!(counters.get(names::KV_CACHE_HITS) + counters.get(names::KV_CACHE_MISSES) > 0);
    }

    #[test]
    fn record_interval_snapshots_fire_deterministically() {
        let mut cfg = barrierless_cfg(MemoryPolicy::InMemory);
        cfg.snapshots = SnapshotPolicy::EveryRecords { records: 10 };
        let records = wc_records(35);
        let mut counters = Counters::new();
        let (out, _, snaps) = reduce_partition_barrierless_traced(
            &WordCountApp,
            &cfg,
            0,
            records.clone(),
            &mut counters,
        )
        .unwrap();
        // 3 interval snapshots (at 10, 20, 30) + the final one.
        assert_eq!(snaps.len(), 4);
        assert_eq!(
            snaps.iter().map(|s| s.records_absorbed).collect::<Vec<_>>(),
            vec![10, 20, 30, 35]
        );
        assert_eq!(
            snaps.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // The last snapshot IS the final answer for a pure-finalize app.
        assert_eq!(snaps.last().unwrap().estimate, out);
        assert_eq!(counters.get(names::SNAPSHOT_COUNT), 4);
        assert_eq!(
            counters.get(names::SNAPSHOT_RECORDS),
            snaps.iter().map(|s| s.estimate.len() as u64).sum::<u64>()
        );
        assert!(counters.get(names::SNAPSHOT_BYTES) > 0);
        // And the run with snapshots equals the run without, byte for byte.
        let plain_cfg = barrierless_cfg(MemoryPolicy::InMemory);
        let (plain, _) = reduce_partition_barrierless(
            &WordCountApp,
            &plain_cfg,
            0,
            records,
            &mut Counters::new(),
        )
        .unwrap();
        assert_eq!(out, plain);
    }

    #[test]
    fn snapshots_merge_spilled_runs_with_the_live_map() {
        let mut cfg = barrierless_cfg(MemoryPolicy::SpillMerge {
            threshold_bytes: 600,
        });
        cfg.snapshots = SnapshotPolicy::EveryRecords { records: 50 };
        let records = wc_records(200);
        let expect = expected_counts(&records);
        let mut counters = Counters::new();
        let (out, report, snaps) =
            reduce_partition_barrierless_traced(&WordCountApp, &cfg, 0, records, &mut counters)
                .unwrap();
        assert_eq!(out, expect);
        assert!(report.store.spill_files > 1, "test needs real spills");
        // Mid-stream snapshots must account records spilled to disk, not
        // just the live map: the snapshot at 100 records absorbed covers
        // exactly 100 counted words.
        for snap in &snaps {
            let total: u64 = snap.estimate.iter().map(|(_, n)| n).sum();
            assert_eq!(
                total, snap.records_absorbed,
                "snapshot seq {} lost spilled partials",
                snap.seq
            );
            // Key-sorted and duplicate-free (self-consistent).
            for pair in snap.estimate.windows(2) {
                assert!(pair[0].0 < pair[1].0, "snapshot not key-sorted");
            }
        }
        assert_eq!(snaps.last().unwrap().estimate, out);
    }

    #[test]
    fn on_demand_snapshots_only_fire_when_asked() {
        // A time-driven policy publishes only when its executor ticks,
        // through `snapshot_now`; records alone never fire it.
        let mut cfg = barrierless_cfg(MemoryPolicy::InMemory);
        cfg.snapshots = SnapshotPolicy::EverySecs { secs: 10.0 };
        let mut driver = IncrementalDriver::new(&WordCountApp, &cfg, 0).unwrap();
        let mut out = Vec::new();
        for (k, v) in wc_records(40) {
            driver.push(&WordCountApp, k, v, &mut out).unwrap();
        }
        assert!(driver.take_snapshots().is_empty(), "nothing requested yet");
        driver.snapshot_now(&WordCountApp).unwrap();
        driver.snapshot_now(&WordCountApp).unwrap();
        let snaps = driver.take_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].seq, 0);
        assert_eq!(snaps[1].seq, 1);
        assert_eq!(snaps[0].estimate, snaps[1].estimate, "no records between");
    }

    #[test]
    fn seq_base_survives_a_simulated_restart() {
        let mut cfg = barrierless_cfg(MemoryPolicy::InMemory);
        cfg.snapshots = SnapshotPolicy::EveryRecords { records: 5 };
        let mut driver = IncrementalDriver::new(&WordCountApp, &cfg, 0).unwrap();
        driver.set_snapshot_seq_base(7);
        let mut out = Vec::new();
        for (k, v) in wc_records(12) {
            driver.push(&WordCountApp, k, v, &mut out).unwrap();
        }
        let snaps = driver.take_snapshots();
        assert_eq!(snaps.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(driver.snapshot_seq(), 9);
    }

    #[test]
    fn time_snapshots_rearm_relative_to_now() {
        let mut cfg = barrierless_cfg(MemoryPolicy::InMemory);
        cfg.snapshots = SnapshotPolicy::EverySecs { secs: 10.0 };
        let mut driver = IncrementalDriver::new(&WordCountApp, &cfg, 0).unwrap();
        let mut out = Vec::new();
        driver
            .push(&WordCountApp, "w".to_string(), 1, &mut out)
            .unwrap();
        driver.maybe_time_snapshot(&WordCountApp, 3.0).unwrap();
        assert_eq!(driver.snapshot_count_total(), 0, "interval not reached");
        driver.maybe_time_snapshot(&WordCountApp, 47.0).unwrap();
        assert_eq!(
            driver.snapshot_count_total(),
            1,
            "one snapshot, no catch-up burst"
        );
        driver.maybe_time_snapshot(&WordCountApp, 48.0).unwrap();
        assert_eq!(
            driver.snapshot_count_total(),
            1,
            "re-armed at now + interval"
        );
        driver.maybe_time_snapshot(&WordCountApp, 57.5).unwrap();
        assert_eq!(driver.snapshot_count_total(), 2);
        let snaps = driver.take_snapshots();
        assert_eq!(snaps[0].at_secs, 47.0);
        assert_eq!(snaps[1].at_secs, 57.5);
        assert!(driver.snapshot_records_total() >= 2);
    }

    #[test]
    fn heap_tracking_is_visible_mid_stream() {
        let cfg = barrierless_cfg(MemoryPolicy::InMemory);
        let mut driver = IncrementalDriver::new(&WordCountApp, &cfg, 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(driver.modelled_bytes(), 0);
        for i in 0..100u64 {
            driver
                .push(&WordCountApp, format!("key-{i}"), 1, &mut out)
                .unwrap();
        }
        assert!(driver.modelled_bytes() > 0);
        assert_eq!(driver.entries(), 100);
        let report = driver
            .finish(&WordCountApp, &mut Counters::new(), &mut out)
            .unwrap();
        assert_eq!(report.store.peak_entries, 100);
    }
}
