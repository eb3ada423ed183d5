//! Behavioural tests of the simulated cluster: the qualitative claims the
//! paper's figures rest on must hold before any figure is regenerated.

use mr_apps::topk::TopK;
use mr_apps::wordcount::WordCount;
use mr_cluster::{ChainSimExecutor, ClusterParams, CostModel, FnInput, SimExecutor, SpanKind};
use mr_core::{
    ChainSpec, Engine, HandoffMode, HashPartitioner, JobConfig, MemoryPolicy, TraceQuery,
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

fn wc_input(seed: u64) -> impl Fn(u64) -> Vec<(u64, String)> + Sync {
    let w = TextWorkload {
        seed,
        vocab: 400,
        zipf_s: 1.0,
        lines_per_chunk: 60,
        words_per_line: 6,
    };
    move |chunk| w.chunk(chunk)
}

fn costs() -> CostModel {
    CostModel::default_for_tests()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mr-cluster-test-{tag}-{}", std::process::id()))
}

fn reference_counts(chunks: u64, seed: u64) -> BTreeMap<String, u64> {
    let gen = wc_input(seed);
    let mut m = BTreeMap::new();
    for c in 0..chunks {
        for (_, line) in gen(c) {
            for w in line.split_whitespace() {
                *m.entry(w.to_string()).or_insert(0) += 1;
            }
        }
    }
    m
}

#[test]
fn both_engines_complete_with_correct_output() {
    let chunks = 12;
    let expect = reference_counts(chunks, 5);
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let exec = SimExecutor::new(small_cluster(5));
        let cfg = JobConfig::new(6)
            .engine(engine.clone())
            .scratch_dir(scratch("correct"));
        let report = exec.run(
            &WordCount,
            &FnInput(wc_input(5)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
        );
        assert!(report.outcome.is_completed(), "engine {engine:?} failed");
        let got: BTreeMap<String, u64> = report
            .output
            .unwrap()
            .into_sorted_output()
            .into_iter()
            .collect();
        assert_eq!(got, expect, "engine {engine:?} output wrong");
    }
}

#[test]
fn barrierless_beats_barrier_on_aggregation() {
    let chunks = 24;
    let run = |engine: Engine| {
        let exec = SimExecutor::new(small_cluster(9));
        let cfg = JobConfig::new(8)
            .engine(engine)
            .scratch_dir(scratch("faster"));
        exec.run(
            &WordCount,
            &FnInput(wc_input(9)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
        )
    };
    let barrier = run(Engine::Barrier);
    let pipelined = run(Engine::barrierless());
    let tb = barrier.completion_secs();
    let tp = pipelined.completion_secs();
    assert!(
        tp < tb,
        "barrier-less ({tp:.1}s) should beat barrier ({tb:.1}s)"
    );
}

#[test]
fn barrier_reduce_waits_for_all_maps() {
    let exec = SimExecutor::new(small_cluster(3));
    let cfg = JobConfig::new(4).scratch_dir(scratch("wait"));
    let report = exec.run(
        &WordCount,
        &FnInput(wc_input(3)),
        16,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    // The defining property of the barrier (Figure 4a): no sort/reduce
    // span can start before the last map finished.
    let (sort_start, _) = TraceQuery::new(&report.trace)
        .kind_window(0, SpanKind::SortReduce)
        .expect("sort spans exist");
    assert!(
        sort_start >= report.last_map_done.as_secs_f64(),
        "sort started {sort_start} before last map {}",
        report.last_map_done
    );
    // And mapper slack is non-trivial: shuffling continued past the first
    // map completion.
    assert!(report.mapper_slack_secs() > 0.0);
}

#[test]
fn barrierless_reduce_overlaps_the_map_stage() {
    let exec = SimExecutor::new(small_cluster(3));
    let cfg = JobConfig::new(4)
        .engine(Engine::barrierless())
        .scratch_dir(scratch("overlap"));
    let report = exec.run(
        &WordCount,
        &FnInput(wc_input(3)),
        16,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    // Figure 4b: the combined shuffle+reduce stage begins when the first
    // mappers complete, far before the last one.
    let q = TraceQuery::new(&report.trace);
    let last_map_done = report.last_map_done.as_secs_f64();
    let (sr_start, _) = q
        .kind_window(0, SpanKind::ShuffleReduce)
        .expect("shuffle+reduce spans exist");
    assert!(
        sr_start < last_map_done,
        "pipelined reduce did not overlap maps"
    );
    // Heap samples were taken while maps were still running.
    assert!(q
        .heap_samples(0)
        .iter()
        .any(|&(_, at, _)| at < last_map_done));
}

#[test]
fn inmemory_cap_kills_job_but_spill_survives() {
    let chunks = 16;
    let heap_cap = 8_000; // far below the working set at 2 reducers
    let exec = SimExecutor::new(small_cluster(7));
    let cfg = JobConfig::new(2)
        .engine(Engine::barrierless())
        .heap_cap(heap_cap)
        .scratch_dir(scratch("oom"));
    let report = exec.run(
        &WordCount,
        &FnInput(wc_input(7)),
        chunks,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    match &report.outcome {
        mr_cluster::Outcome::Failed { reason, .. } => {
            assert!(reason.contains("heap"), "unexpected reason: {reason}");
        }
        other => panic!("expected OOM failure, got {other:?}"),
    }
    assert!(report.output.is_none());

    // Same job, same cap mentality, spill-and-merge policy: completes.
    let exec = SimExecutor::new(small_cluster(7));
    let cfg = JobConfig::new(2)
        .engine(Engine::BarrierLess {
            memory: MemoryPolicy::SpillMerge {
                threshold_bytes: heap_cap / 2,
            },
        })
        .scratch_dir(scratch("oom-spill"));
    let report = exec.run(
        &WordCount,
        &FnInput(wc_input(7)),
        chunks,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    assert!(report.outcome.is_completed());
    let expect = reference_counts(chunks, 7);
    let got: BTreeMap<String, u64> = report
        .output
        .unwrap()
        .into_sorted_output()
        .into_iter()
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn node_failure_is_survived_with_correct_output() {
    let chunks = 16;
    let expect = reference_counts(chunks, 11);
    // Homogeneous, noise-free cluster: on a heterogeneous one, killing a
    // slow node can legitimately *speed up* the job, which would make
    // the "failures cost time" assertion below meaningless.
    let uniform_cluster = |seed: u64| {
        let mut p = small_cluster(seed);
        p.hetero_sigma = 0.0;
        p.task_noise_sigma = 0.0;
        p
    };
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let exec = SimExecutor::new(uniform_cluster(11));
        let cfg = JobConfig::new(4)
            .engine(engine.clone())
            .scratch_dir(scratch("fault"));
        let baseline = SimExecutor::new(uniform_cluster(11)).run(
            &WordCount,
            &FnInput(wc_input(11)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
        );
        // Kill node 1 mid-map-stage.
        let fault_at = baseline.first_map_done.as_secs_f64() + 1.0;
        let report = exec.run_with_faults(
            &WordCount,
            &FnInput(wc_input(11)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
            &[(fault_at, 1)],
        );
        assert!(
            report.outcome.is_completed(),
            "job with fault did not complete under {engine:?}"
        );
        // Re-execution happened.
        assert!(
            report.map_tasks_run > chunks as usize || report.reduce_tasks_run > 4,
            "no task was re-executed"
        );
        // And it cost time.
        assert!(
            report.completion_secs() >= baseline.completion_secs(),
            "losing a node made the uniform cluster faster under {engine:?}: \
             {} vs baseline {}",
            report.completion_secs(),
            baseline.completion_secs()
        );
        let got: BTreeMap<String, u64> = report
            .output
            .unwrap()
            .into_sorted_output()
            .into_iter()
            .collect();
        assert_eq!(got, expect, "fault corrupted output under {engine:?}");
    }
}

#[test]
fn same_seed_same_result() {
    let run = || {
        let exec = SimExecutor::new(small_cluster(13));
        let cfg = JobConfig::new(4)
            .engine(Engine::barrierless())
            .scratch_dir(scratch("det"));
        exec.run(
            &WordCount,
            &FnInput(wc_input(13)),
            10,
            &cfg,
            &costs(),
            &HashPartitioner,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.completion_secs(), b.completion_secs());
    assert_eq!(a.shuffle_bytes, b.shuffle_bytes);
    assert_eq!(
        a.output.unwrap().into_sorted_output(),
        b.output.unwrap().into_sorted_output()
    );
}

#[test]
fn reducer_waves_when_oversubscribed() {
    // More reducers than slots: a second wave must start after the first
    // wave releases slots — the Figure 8 mechanism at 70 reducers.
    let mut p = small_cluster(17);
    p.reduce_slots = 1; // 4 slots total
    let exec = SimExecutor::new(p);
    let cfg = JobConfig::new(6)
        .engine(Engine::barrierless())
        .scratch_dir(scratch("waves"));
    let report = exec.run(
        &WordCount,
        &FnInput(wc_input(17)),
        8,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    assert!(report.outcome.is_completed());
    let mut starts: Vec<_> = TraceQuery::new(&report.trace)
        .job_spans_by_kind(0, SpanKind::ShuffleReduce)
        .iter()
        .map(|s| s.start.virtual_micros().expect("simulated instant"))
        .collect();
    starts.sort();
    assert_eq!(starts.len(), 6);
    // The 5th and 6th reducers start strictly later than the first four.
    assert!(starts[4] > starts[3], "no second wave observed: {starts:?}");
}

#[test]
fn combiner_cuts_shuffle_bytes_with_identical_output() {
    // Map-side combining must shrink the simulated shuffle volume (the
    // cost model's nominal bytes scale with the real record reduction)
    // and leave the job output byte-identical, under both engines.
    let chunks = 12;
    let expect = reference_counts(chunks, 5);
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let mut bytes = Vec::new();
        for combine in [false, true] {
            let mut params = small_cluster(5);
            if combine {
                params.combiner = mr_core::CombinerPolicy::enabled();
            }
            let exec = SimExecutor::new(params);
            let cfg = JobConfig::new(6)
                .engine(engine.clone())
                .scratch_dir(scratch("combine"));
            let report = exec.run(
                &WordCount,
                &FnInput(wc_input(5)),
                chunks,
                &cfg,
                &costs(),
                &HashPartitioner,
            );
            assert!(report.outcome.is_completed(), "engine {engine:?} failed");
            bytes.push(report.shuffle_bytes);
            let out = report.output.unwrap();
            if combine {
                let counters = &out.counters;
                assert!(
                    counters.get(mr_core::counters::names::COMBINE_OUTPUT_RECORDS)
                        < counters.get(mr_core::counters::names::COMBINE_INPUT_RECORDS),
                    "combiner did not aggregate under {engine:?}"
                );
            }
            let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect, "engine {engine:?} combine={combine} wrong");
        }
        assert!(
            bytes[1] < bytes[0],
            "combining did not reduce shuffle bytes under {engine:?}: {} -> {}",
            bytes[0],
            bytes[1]
        );
    }
}

#[test]
fn job_level_combiner_knob_works_without_cluster_knob() {
    // JobConfig::combiner alone (cluster knob left Disabled) must also
    // activate map-side combining in the simulator.
    let chunks = 8;
    let expect = reference_counts(chunks, 9);
    let exec = SimExecutor::new(small_cluster(9));
    let cfg = JobConfig::new(4)
        .engine(Engine::barrierless())
        .combiner(mr_core::CombinerPolicy::enabled())
        .scratch_dir(scratch("combine-job-knob"));
    let report = exec.run(
        &WordCount,
        &FnInput(wc_input(9)),
        chunks,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    assert!(report.outcome.is_completed());
    let out = report.output.unwrap();
    assert!(
        out.counters
            .get(mr_core::counters::names::COMBINE_INPUT_RECORDS)
            > 0
    );
    let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
    assert_eq!(got, expect);
}

#[test]
fn timed_snapshots_estimate_early_under_the_barrierless_engine_only() {
    use mr_core::SnapshotPolicy;
    // Enough chunks that maps run in waves: partial data reaches the
    // reducers long before the last map finishes, which is exactly what
    // snapshots make observable.
    let chunks = 24;
    let expect = reference_counts(chunks, 11);
    let policy = SnapshotPolicy::EverySecs { secs: 25.0 };
    let mut results = Vec::new();
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let exec = SimExecutor::new(small_cluster(11));
        let cfg = JobConfig::new(4)
            .engine(engine.clone())
            .snapshots(policy)
            .scratch_dir(scratch("snap-timed"));
        let report = exec.run(
            &WordCount,
            &FnInput(wc_input(11)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
        );
        assert!(report.outcome.is_completed(), "{engine:?} died");
        assert!(report.snapshots_taken > 0, "no snapshots under {engine:?}");
        assert_eq!(
            report.snapshots_taken,
            TraceQuery::new(&report.trace).snapshot_count(0),
            "report count diverged from trace marks"
        );
        let last_map = report.last_map_done.as_secs_f64();
        let out = report.output.unwrap();
        // Snapshots never perturb the final answer.
        let got: BTreeMap<String, u64> = out.partitions.iter().flatten().cloned().collect();
        assert_eq!(got, expect, "snapshots corrupted {engine:?} output");
        // Per-reducer snapshot streams are monotone in seq and records.
        for snaps in &out.snapshots {
            for pair in snaps.windows(2) {
                assert!(pair[0].seq < pair[1].seq, "seq regressed");
                assert!(
                    pair[0].records_absorbed <= pair[1].records_absorbed,
                    "records regressed without a fault"
                );
            }
        }
        let early_records: u64 = out
            .snapshots
            .iter()
            .flatten()
            .filter(|s| s.at_secs < last_map)
            .map(|s| s.estimate.len() as u64)
            .sum();
        results.push((engine, early_records, got));
    }
    // The paper's point, stated as an assertion: before the last map
    // finishes, the barrier engine has published nothing while the
    // barrier-less engine already holds a usable estimate.
    assert_eq!(
        results[0].1, 0,
        "barrier engine estimated before the barrier"
    );
    assert!(
        results[1].1 > 0,
        "barrier-less engine produced no early estimate"
    );
    // And both engines' final outputs agree with each other.
    assert_eq!(results[0].2, results[1].2);
}

#[test]
fn record_driven_snapshots_are_deterministic_and_invisible_in_the_sim() {
    use mr_core::SnapshotPolicy;
    let chunks = 10;
    let run = |policy| {
        let exec = SimExecutor::new(small_cluster(13));
        let cfg = JobConfig::new(4)
            .engine(Engine::barrierless())
            .snapshots(policy)
            .scratch_dir(scratch("snap-records"));
        let report = exec.run(
            &WordCount,
            &FnInput(wc_input(13)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
        );
        assert!(report.outcome.is_completed());
        report
    };
    let mut plain = run(SnapshotPolicy::Disabled);
    let mut snapped = run(SnapshotPolicy::EveryRecords { records: 200 });
    assert_eq!(plain.snapshots_taken, 0);
    assert!(snapped.snapshots_taken > 0);
    let plain_out = plain.output.take().unwrap();
    let snapped_out = snapped.output.take().unwrap();
    assert_eq!(
        plain_out.partitions, snapped_out.partitions,
        "record-driven snapshots changed simulated output"
    );
    assert_eq!(
        snapped_out
            .counters
            .get(mr_core::counters::names::SNAPSHOT_COUNT),
        snapped_out.snapshot_count() as u64
    );
    // Observation is charged: the snapshotting run cannot be faster.
    assert!(snapped.completion_secs() >= plain.completion_secs());
    // Re-running the same snapshotted config reproduces the identical
    // snapshot stream (virtual time + record stream are deterministic).
    let again = run(SnapshotPolicy::EveryRecords { records: 200 });
    let again_out = again.output.unwrap();
    assert_eq!(snapped_out.snapshot_count(), again_out.snapshot_count());
    for (a, b) in snapped_out
        .snapshots_by_time()
        .iter()
        .zip(again_out.snapshots_by_time().iter())
    {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.records_absorbed, b.records_absorbed);
        assert_eq!(a.estimate, b.estimate);
    }
}

#[test]
fn timed_job_snapshots_tick_and_invalid_config_fails_loudly() {
    use mr_core::SnapshotPolicy;
    let chunks = 6;
    // A time-driven policy ticks on the virtual clock.
    let cfg = JobConfig::new(3)
        .engine(Engine::barrierless())
        .snapshots(SnapshotPolicy::EverySecs { secs: 30.0 })
        .scratch_dir(scratch("snap-override"));
    let report = SimExecutor::new(small_cluster(17)).run(
        &WordCount,
        &FnInput(wc_input(17)),
        chunks,
        &cfg,
        &costs(),
        &HashPartitioner,
    );
    assert!(report.outcome.is_completed());
    assert!(report.snapshots_taken > 0, "timed snapshots did not tick");

    // An invalid knob (zero shuffle batch) is a failed report up front,
    // not a panic deep in the event loop.
    let mut bad = JobConfig::new(3).engine(Engine::barrierless());
    bad.shuffle_batch_bytes = 0;
    let report = SimExecutor::new(small_cluster(17)).run(
        &WordCount,
        &FnInput(wc_input(17)),
        chunks,
        &bad,
        &costs(),
        &HashPartitioner,
    );
    assert!(!report.outcome.is_completed());
    match report.outcome {
        mr_cluster::Outcome::Failed { reason, .. } => {
            assert!(reason.contains("shuffle_batch_bytes"), "reason: {reason}")
        }
        _ => unreachable!(),
    }
    assert!(report.output.is_none());
}

// ---------------------------------------------------------- speculation

#[test]
fn speculation_never_fires_on_a_homogeneous_quiet_cluster() {
    use mr_core::SpeculationPolicy;
    // No node is slower than any other and tasks carry no noise, so no
    // attempt ever trails its peers: the detector must stay silent and
    // the run must be indistinguishable from a non-speculative one.
    let chunks = 16;
    let uniform = |seed: u64| {
        let mut p = small_cluster(seed);
        p.hetero_sigma = 0.0;
        p.task_noise_sigma = 0.0;
        p
    };
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let run = |spec: SpeculationPolicy| {
            let cfg = JobConfig::new(6)
                .engine(engine.clone())
                .speculation(spec)
                .scratch_dir(scratch("spec-quiet"));
            SimExecutor::new(uniform(19)).run(
                &WordCount,
                &FnInput(wc_input(19)),
                chunks,
                &cfg,
                &costs(),
                &HashPartitioner,
            )
        };
        let plain = run(SpeculationPolicy::Disabled);
        let spec = run(SpeculationPolicy::enabled());
        assert!(plain.outcome.is_completed() && spec.outcome.is_completed());
        assert_eq!(
            TraceQuery::new(&spec.trace).speculation_count(mr_cluster::SpecEvent::Launched),
            0,
            "speculation fired on a homogeneous noise-free cluster under {engine:?}"
        );
        assert_eq!(
            spec.completion_secs(),
            plain.completion_secs(),
            "an idle speculation policy changed timing under {engine:?}"
        );
        assert_eq!(
            plain.output.unwrap().partitions,
            spec.output.unwrap().partitions,
            "an idle speculation policy changed output under {engine:?}"
        );
    }
}

#[test]
fn speculative_backup_wins_cut_straggler_time_with_identical_output() {
    use mr_cluster::SpecEvent;
    use mr_core::SpeculationPolicy;
    // A wide node-speed spread makes stragglers: backups must launch,
    // some must win, and exact output must not move by a byte. The
    // policy arrives as a cluster-level override — the job itself says
    // Disabled, and the override must win.
    let chunks = 24;
    let seed = 3;
    let hetero = |spec: Option<SpeculationPolicy>| {
        let mut p = small_cluster(seed);
        p.nodes = 6;
        p.hetero_sigma = 0.8;
        p.speculation = spec;
        p
    };
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let run = |spec: Option<SpeculationPolicy>| {
            let cfg = JobConfig::new(6)
                .engine(engine.clone())
                .speculation(SpeculationPolicy::Disabled)
                .scratch_dir(scratch("spec-win"));
            SimExecutor::new(hetero(spec)).run(
                &WordCount,
                &FnInput(wc_input(seed)),
                chunks,
                &cfg,
                &costs(),
                &HashPartitioner,
            )
        };
        let off = run(None);
        let on = run(Some(SpeculationPolicy::enabled()));
        assert!(off.outcome.is_completed() && on.outcome.is_completed());
        let q = TraceQuery::new(&on.trace);
        let launched = q.speculation_count(SpecEvent::Launched);
        let won = q.speculation_count(SpecEvent::Won);
        let cancelled = q.speculation_count(SpecEvent::Cancelled);
        assert!(
            launched > 0,
            "cluster-level speculation override did not activate under {engine:?}"
        );
        assert!(won > 0, "no backup attempt ever won under {engine:?}");
        // Every launched attempt resolves: one side of the race is
        // always cancelled, whether the backup won or lost.
        assert_eq!(launched, cancelled, "unresolved attempts under {engine:?}");
        assert!(
            on.completion_secs() < off.completion_secs(),
            "speculation did not help the straggling cluster under {engine:?}: \
             {:.1}s vs {:.1}s off",
            on.completion_secs(),
            off.completion_secs()
        );
        assert_eq!(
            off.output.unwrap().partitions,
            on.output.unwrap().partitions,
            "speculative re-execution changed output under {engine:?}"
        );
    }
}

#[test]
fn deadline_cuts_job_short_with_the_latest_snapshot_as_the_answer() {
    use mr_core::{DeadlinePolicy, SnapshotPolicy};
    let chunks = 24;
    let snap = SnapshotPolicy::EverySecs { secs: 20.0 };
    let run = |deadline: DeadlinePolicy| {
        let cfg = JobConfig::new(4)
            .engine(Engine::barrierless())
            .snapshots(snap)
            .deadline(deadline)
            .scratch_dir(scratch("deadline"));
        SimExecutor::new(small_cluster(11)).run(
            &WordCount,
            &FnInput(wc_input(11)),
            chunks,
            &cfg,
            &costs(),
            &HashPartitioner,
        )
    };
    let exact = run(DeadlinePolicy::Disabled);
    assert!(exact.outcome.is_completed());
    let at = exact.completion_secs() * 0.6;
    let cut = run(DeadlinePolicy::At { secs: at });
    assert!(
        cut.outcome.is_approximate(),
        "deadline at {at:.1}s did not cut a {:.1}s job short: {:?}",
        exact.completion_secs(),
        cut.outcome
    );
    // The answer is exactly the freshest published estimate, reducer by
    // reducer — nothing more recent, nothing stitched.
    let out = cut.output.expect("approximate runs carry output");
    assert_eq!(out.partitions.len(), 4);
    let mut estimated = 0;
    for (p, partition) in out.partitions.iter().enumerate() {
        let last: &[(String, u64)] = out.snapshots[p].last().map_or(&[], |s| &s.estimate);
        assert_eq!(
            partition.as_slice(),
            last,
            "partition {p} is not its last published snapshot"
        );
        estimated += partition.len();
    }
    assert!(estimated > 0, "approximate answer was empty");
    // Every published snapshot predates the deadline.
    for s in out.snapshots.iter().flatten() {
        assert!(s.at_secs <= at, "snapshot after the deadline");
    }
}

// --------------------------------------------------------------- chains

/// Runs the wordcount → top-k chain under the given handoff mode.
fn run_chain(
    seed: u64,
    chunks: u64,
    handoff: HandoffMode,
    engine: Engine,
) -> mr_cluster::ChainSimReport<TopK> {
    let spec = ChainSpec::new(vec![
        JobConfig::new(6)
            .engine(engine.clone())
            .scratch_dir(scratch("chain1")),
        JobConfig::new(2)
            .engine(engine)
            .scratch_dir(scratch("chain2")),
    ])
    .handoff(handoff);
    ChainSimExecutor::new(small_cluster(seed)).run_chain2(
        &WordCount,
        &TopK::new(12),
        &FnInput(wc_input(seed)),
        chunks,
        &spec,
        &costs(),
        &HashPartitioner,
        &HashPartitioner,
    )
}

#[test]
fn chained_jobs_complete_with_the_sequential_composition_output() {
    // Ground truth: run the two jobs sequentially to completion through
    // the single-job executor, feeding job 1's partitions to job 2 as
    // input chunks.
    let chunks = 12;
    let seed = 41;
    let cfg1 = JobConfig::new(6)
        .engine(Engine::barrierless())
        .scratch_dir(scratch("chain-seq1"));
    let r1 = SimExecutor::new(small_cluster(seed)).run(
        &WordCount,
        &FnInput(wc_input(seed)),
        chunks,
        &cfg1,
        &costs(),
        &HashPartitioner,
    );
    assert!(r1.outcome.is_completed());
    let parts = r1.output.unwrap().partitions;
    let n_parts = parts.len() as u64;
    let cfg2 = JobConfig::new(2)
        .engine(Engine::barrierless())
        .scratch_dir(scratch("chain-seq2"));
    let r2 = SimExecutor::new(small_cluster(seed)).run(
        &TopK::new(12),
        &FnInput(move |c| parts[c as usize].clone()),
        n_parts,
        &cfg2,
        &costs(),
        &HashPartitioner,
    );
    assert!(r2.outcome.is_completed());
    let expect = r2.output.unwrap().into_sorted_output();
    assert!(!expect.is_empty());

    for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let report = run_chain(seed, chunks, handoff, engine.clone());
            assert!(
                report.outcome.is_completed(),
                "chain {handoff:?}/{engine:?} failed: {:?}",
                report.outcome
            );
            let got = report.output.unwrap().into_sorted_output();
            assert_eq!(
                got, expect,
                "chain {handoff:?}/{engine:?} diverged from the sequential composition"
            );
        }
    }
}

#[test]
fn streaming_chain_overlaps_stages_and_the_barrier_chain_does_not() {
    let chunks = 16;
    let streaming = run_chain(43, chunks, HandoffMode::Streaming, Engine::barrierless());
    let barrier = run_chain(43, chunks, HandoffMode::Barrier, Engine::barrierless());
    assert!(streaming.outcome.is_completed());
    assert!(barrier.outcome.is_completed());

    // The paper-shaped claim: stage-2 map work starts while stage-1
    // reducers are still running — only without the inter-job barrier.
    assert!(
        streaming.overlapped(),
        "streaming chain never overlapped: first work {:?} vs last reduce {:?}",
        streaming.stage2_first_work,
        streaming.stage1_last_reduce_done
    );
    assert!(
        !barrier.overlapped(),
        "barrier chain overlapped stages, which a hard barrier forbids"
    );
    let barrier_gate = barrier.stage2_first_work.expect("stage 2 ran");
    assert!(
        barrier_gate >= barrier.stage1_complete,
        "barrier-mode stage 2 started before stage 1 completed"
    );

    // Removing the inter-job barrier (and the intermediate
    // materialization) must shorten the chain.
    assert!(
        streaming.completion_secs() < barrier.completion_secs(),
        "streaming chain ({:.1}s) not faster than barrier chain ({:.1}s)",
        streaming.completion_secs(),
        barrier.completion_secs()
    );

    // Cross-job edges were scheduled as trace events, and the same
    // records crossed under both modes.
    assert!(TraceQuery::new(&streaming.trace)
        .first_handoff_secs(0)
        .is_some());
    assert!(TraceQuery::new(&barrier.trace)
        .first_handoff_secs(0)
        .is_some());
    assert_eq!(streaming.handoff_records, barrier.handoff_records);
    assert!(streaming.handoff_records > 0);
    // Streaming ships per-reducer increments; every upstream partition
    // contributed at least one edge.
    assert!(streaming.handoff_edges >= 6);
    // The output counters carry the chain handoff totals.
    let out = streaming.output.unwrap();
    assert_eq!(
        out.counters
            .get(mr_core::counters::names::CHAIN_HANDOFF_RECORDS),
        streaming.handoff_records
    );
}

#[test]
fn chain_rejects_invalid_specs_as_failed_reports() {
    let spec = ChainSpec::new(Vec::new());
    let report = ChainSimExecutor::new(small_cluster(7)).run_chain2(
        &WordCount,
        &TopK::new(4),
        &FnInput(wc_input(7)),
        4,
        &spec,
        &costs(),
        &HashPartitioner,
        &HashPartitioner,
    );
    assert!(!report.outcome.is_completed());
    assert!(report.output.is_none());

    let mut bad = JobConfig::new(2);
    bad.shuffle_batch_bytes = 0;
    let spec = ChainSpec::new(vec![JobConfig::new(2), bad]);
    let report = ChainSimExecutor::new(small_cluster(7)).run_chain2(
        &WordCount,
        &TopK::new(4),
        &FnInput(wc_input(7)),
        4,
        &spec,
        &costs(),
        &HashPartitioner,
        &HashPartitioner,
    );
    match report.outcome {
        mr_cluster::Outcome::Failed { reason, .. } => {
            assert!(reason.contains("shuffle_batch_bytes"), "reason: {reason}")
        }
        _ => panic!("invalid chain spec completed"),
    }
}
