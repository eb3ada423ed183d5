//! The unified trace pipeline's three contracts:
//!
//! 1. **Determinism** — the same seed yields a byte-identical canonical
//!    trace stream, on both engines, in the simulator and in the local
//!    executor.
//! 2. **Pure observation** — turning tracing off changes nothing the
//!    job computes: partitions, counters (including spill cadence), and
//!    completion are byte-identical; only the log disappears.
//! 3. **A complete copy** — every executor returns counters it merged
//!    directly, and its trace carries the same totals: summing the log's
//!    counter events gives back exactly the returned `Counters` (per
//!    stage, for chains). The span/heap queries reproduce the values the
//!    pre-redesign direct-recording code produced (pinned here),
//!    including under a mid-run node kill.

use mr_apps::wordcount::WordCount;
use mr_apps::TopK;
use mr_cluster::{
    ChainSimExecutor, ClusterParams, CostModel, FnInput, SimExecutor, SimReport, SpanKind,
};
use mr_core::counters::names;
use mr_core::local::LocalRunner;
use mr_core::{
    Application, CacheBudget, ChainOutput, ChainSpec, Counters, Engine, HandoffMode,
    HashPartitioner, JobConfig, MemoryPolicy, SharedCache, TraceLog, TracePolicy, TraceQuery,
};
use mr_workloads::TextWorkload;
use std::collections::BTreeMap;

fn small_cluster(seed: u64) -> ClusterParams {
    let mut p = ClusterParams::paper_testbed(seed);
    p.nodes = 4;
    p.map_slots = 2;
    p.reduce_slots = 2;
    p
}

fn workload(seed: u64) -> TextWorkload {
    TextWorkload {
        seed,
        vocab: 400,
        zipf_s: 1.0,
        lines_per_chunk: 60,
        words_per_line: 6,
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mr-trace-pipeline-{tag}-{}", std::process::id()))
}

/// The pinned fault-torture scenario: 12 chunks of seed-11 WordCount on
/// the 4-node testbed, one node killed at t=8 s.
fn sim_run(engine: Engine, policy: TracePolicy) -> SimReport<WordCount> {
    let w = workload(11);
    let cfg = JobConfig::new(6)
        .engine(engine)
        .trace(policy)
        .scratch_dir(scratch("sim"));
    SimExecutor::new(small_cluster(11)).run_with_faults(
        &WordCount,
        &FnInput(move |c| w.chunk(c)),
        12,
        &cfg,
        &CostModel::default_for_tests(),
        &HashPartitioner,
        &[(8.0, 1)],
    )
}

fn local_splits() -> Vec<Vec<(u64, String)>> {
    let w = workload(11);
    (0..6).map(|c| w.chunk(c)).collect()
}

fn counter_map(c: &Counters) -> BTreeMap<String, u64> {
    c.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn span_count(q: &TraceQuery, kind: SpanKind) -> usize {
    q.spans_by_kind(kind).len()
}

#[test]
fn same_seed_sim_trace_is_byte_identical() {
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let a = sim_run(engine.clone(), TracePolicy::Enabled);
        let b = sim_run(engine.clone(), TracePolicy::Enabled);
        let sa = a.trace.to_canonical_string();
        let sb = b.trace.to_canonical_string();
        assert!(
            sa.starts_with("trace-log/v1\n") && sa.lines().count() > 10,
            "{engine:?}: trace suspiciously small"
        );
        assert_eq!(sa, sb, "{engine:?}: same seed produced different traces");
    }
}

#[test]
fn same_seed_local_trace_is_byte_identical() {
    // Determinism across *pool widths*, not just across repeat runs:
    // task state machines claim splits from a shared queue, but every
    // span is scoped by split/reducer index and shuffle batch
    // boundaries are cut by byte budget, so which OS thread ran what
    // leaves no fingerprint in the canonical stream.
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let mut traces = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = JobConfig::new(4)
                .engine(engine.clone())
                .pool_workers(workers)
                .scratch_dir(scratch("local-det"));
            let run = || {
                LocalRunner::new(4)
                    .run(&WordCount, local_splits(), &cfg)
                    .expect("local run")
            };
            let (a, b) = (run(), run());
            let sa = a.trace.to_canonical_string();
            assert!(sa.lines().count() > 10, "{engine:?}: trace too small");
            assert_eq!(
                sa,
                b.trace.to_canonical_string(),
                "{engine:?}/{workers}w: same input produced different local traces"
            );
            // Batch accounting is part of the determinism claim now
            // that boundaries are cut by byte budget rather than
            // channel timing: pinned, identical at every width.
            if matches!(engine, Engine::BarrierLess { .. }) {
                assert_eq!(
                    a.counters.get(names::SHUFFLE_BATCHES),
                    24,
                    "{engine:?}/{workers}w: batch count moved"
                );
                assert_eq!(
                    a.counters.get(names::SHUFFLE_BATCH_REUSE),
                    0,
                    "{engine:?}/{workers}w: modelled reuse moved"
                );
            }
            traces.push((workers, sa));
        }
        let (_, ref one_worker) = traces[0];
        for (workers, trace) in &traces[1..] {
            assert_eq!(
                trace, one_worker,
                "{engine:?}: {workers}-worker trace differs from 1-worker trace"
            );
        }
    }
}

#[test]
fn sim_tracing_off_is_pure_observation() {
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let on = sim_run(engine.clone(), TracePolicy::Enabled);
        let off = sim_run(engine.clone(), TracePolicy::Disabled);
        assert!(!on.trace.is_empty(), "{engine:?}: enabled log is empty");
        assert!(off.trace.is_empty(), "{engine:?}: disabled log not empty");
        assert_eq!(on.outcome, off.outcome, "{engine:?}: outcome changed");
        let (a, b) = (on.output.unwrap(), off.output.unwrap());
        assert_eq!(
            a.partitions, b.partitions,
            "{engine:?}: tracing changed the answer"
        );
        // Both sides' counters come from the same direct merge; the
        // trace only rides along. Equality here says recording the log
        // never feeds back into what the job counts.
        assert_eq!(a.counters, b.counters, "{engine:?}: counters diverged");
    }
}

#[test]
fn local_tracing_off_preserves_output_and_spill_cadence() {
    // A spill threshold low enough to trip on every reducer, so the
    // spill cadence (files written, bytes, merge passes) is a live
    // signal and not trivially zero. Pinned to a one-worker pool: spill
    // instants depend on record-arrival interleaving, so with wider
    // pools the cadence varies run to run (with or without tracing)
    // and an on-vs-off comparison would measure scheduling, not
    // observation.
    let engine = Engine::BarrierLess {
        memory: MemoryPolicy::SpillMerge {
            threshold_bytes: 4 << 10,
        },
    };
    let run = |policy: TracePolicy| {
        let cfg = JobConfig::new(4)
            .engine(engine.clone())
            .trace(policy)
            .pool_workers(1)
            .scratch_dir(scratch("local-spill"));
        LocalRunner::new(1)
            .run(&WordCount, local_splits(), &cfg)
            .expect("local spill run")
    };
    let on = run(TracePolicy::Enabled);
    let off = run(TracePolicy::Disabled);
    assert!(!on.trace.is_empty() && off.trace.is_empty());
    assert!(
        on.counters.get(names::SPILL_FILES) > 0,
        "threshold never tripped — the cadence comparison is vacuous"
    );
    assert_eq!(on.partitions, off.partitions, "tracing changed the answer");
    // One merge builds the counters on both sides, so recording the log
    // must not move spill cadence or any other counter.
    assert_eq!(
        counter_map(&on.counters),
        counter_map(&off.counters),
        "tracing moved the counters"
    );
}

/// The log's counter events sum to the run's counters, by label.
fn assert_trace_complete(trace: &TraceLog, counters: &Counters, what: &str) {
    assert!(!trace.is_empty(), "{what}: no trace");
    assert_eq!(
        counter_map(&Counters::from_trace(trace)),
        counter_map(counters),
        "{what}: the trace is missing counters"
    );
}

/// Stage `j`'s counter events in a chain log sum to `stages[j].counters`.
fn assert_chain_trace_complete<B: Application>(out: &ChainOutput<B>, what: &str) {
    let q = TraceQuery::new(&out.trace);
    for (j, stage) in out.stages.iter().enumerate() {
        let from_log: BTreeMap<String, u64> = q
            .job_counter_totals(j as u32)
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v))
            .collect();
        assert_eq!(
            from_log,
            counter_map(&stage.counters),
            "{what}: stage {j}'s trace is missing counters"
        );
    }
    assert_trace_complete(&out.trace, &out.total_counters(), what);
}

/// Returned counters come from one direct merge in every executor; the
/// trace is a complete copy of them, checked here rather than relied on.
#[test]
fn trace_is_a_complete_copy_of_the_counters() {
    let runner = LocalRunner::new(4);
    let cfg = JobConfig::new(4)
        .engine(Engine::barrierless())
        .scratch_dir(scratch("complete"));

    let out = runner
        .run(&WordCount, local_splits(), &cfg)
        .expect("local run");
    assert_trace_complete(&out.trace, &out.counters, "local job");

    let cache = SharedCache::new(16 << 20);
    let cached = cfg.clone().cache(CacheBudget::enabled());
    for what in ["run_cached cold", "run_cached warm"] {
        let out = runner
            .run_cached(
                &WordCount,
                local_splits(),
                &cached,
                &HashPartitioner,
                &cache,
            )
            .expect("cached run");
        assert_trace_complete(&out.trace, &out.counters, what);
    }

    let top = TopK::new(10);
    let spec = |handoff| {
        ChainSpec::new(vec![cfg.clone(), JobConfig::new(2).engine(Engine::Barrier)])
            .handoff(handoff)
    };
    for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
        let out = runner
            .run_chain2(
                &WordCount,
                &top,
                local_splits(),
                &spec(handoff),
                &HashPartitioner,
                &HashPartitioner,
            )
            .expect("local chain");
        assert_chain_trace_complete(&out, &format!("run_chain2 {handoff:?}"));
    }

    for engine in [Engine::Barrier, Engine::barrierless()] {
        let r = sim_run(engine.clone(), TracePolicy::Enabled);
        let out = r.output.as_ref().expect("sim completed");
        assert_trace_complete(&r.trace, &out.counters, &format!("sim {engine:?}"));
    }

    let w = workload(11);
    for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
        let r = ChainSimExecutor::new(small_cluster(11)).run_chain2(
            &WordCount,
            &top,
            &FnInput(|c| w.chunk(c)),
            6,
            &spec(handoff),
            &CostModel::default_for_tests(),
            &HashPartitioner,
            &HashPartitioner,
        );
        let out = r.output.as_ref().expect("chain sim completed");
        assert_trace_complete(&r.trace, &out.counters, &format!("chain sim {handoff:?}"));
    }
}

/// Pinned outputs of the pre-redesign direct-recording code for the
/// fault-torture scenario. The trace-derived views must reproduce them
/// exactly — same keys, same values, same span population.
#[test]
fn legacy_views_from_trace_match_pinned_pre_redesign_values() {
    // --- barrier engine ---------------------------------------------
    let r = sim_run(Engine::Barrier, TracePolicy::Enabled);
    assert!((r.completion_secs() - 117.373718).abs() < 1e-5);
    assert_eq!(r.map_tasks_run, 14);
    assert_eq!(r.reduce_tasks_run, 8);
    let out = r.output.as_ref().unwrap();
    let expect: BTreeMap<String, u64> = [
        ("map.output.records", 4320),
        ("reduce.groups", 375),
        ("reduce.input.records", 4320),
        ("reduce.output.records", 375),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    assert_eq!(counter_map(&out.counters), expect);
    assert_eq!(counter_map(&Counters::from_trace(&r.trace)), expect);
    let q = TraceQuery::new(&r.trace);
    assert_eq!(span_count(&q, SpanKind::Map), 12);
    assert_eq!(span_count(&q, SpanKind::Shuffle), 6);
    assert_eq!(span_count(&q, SpanKind::SortReduce), 6);
    assert_eq!(span_count(&q, SpanKind::ShuffleReduce), 0);
    assert_eq!(span_count(&q, SpanKind::Output), 6);
    assert_eq!(q.heap_samples(0).len(), 0);
    assert_eq!(q.spans().len(), 12 + 6 + 6 + 6);

    // --- barrier-less engine ----------------------------------------
    let r = sim_run(Engine::barrierless(), TracePolicy::Enabled);
    assert!((r.completion_secs() - 64.801889).abs() < 1e-5);
    assert_eq!(r.map_tasks_run, 14);
    assert_eq!(r.reduce_tasks_run, 8);
    let out = r.output.as_ref().unwrap();
    let expect: BTreeMap<String, u64> = [
        ("map.output.records", 4320),
        ("reduce.input.records", 4320),
        ("reduce.output.records", 375),
        ("snapshot.bytes", 0),
        ("snapshot.count", 0),
        ("snapshot.records", 0),
        ("spill.bytes", 0),
        ("spill.files", 0),
        ("spill.merged.states", 0),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    assert_eq!(counter_map(&out.counters), expect);
    assert_eq!(counter_map(&Counters::from_trace(&r.trace)), expect);
    let q = TraceQuery::new(&r.trace);
    assert_eq!(span_count(&q, SpanKind::Map), 12);
    assert_eq!(span_count(&q, SpanKind::Shuffle), 0);
    assert_eq!(span_count(&q, SpanKind::SortReduce), 0);
    assert_eq!(span_count(&q, SpanKind::ShuffleReduce), 6);
    assert_eq!(span_count(&q, SpanKind::Output), 6);
    assert_eq!(q.heap_samples(0).len(), 72);
}
