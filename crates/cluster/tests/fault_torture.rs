//! Fault-tolerance torture: multiple node failures at different phases
//! must never corrupt output — the paper claims the barrier-less model
//! "preserves the fault tolerance of the original MapReduce model" (§8).

use mr_apps::wordcount::WordCount;
use mr_cluster::{ClusterParams, CostModel, FnInput, SimExecutor};
use mr_core::{
    CombinerPolicy, Engine, HashPartitioner, JobConfig, SnapshotPolicy, TraceEvent, TraceQuery,
};
use mr_workloads::TextWorkload;
use std::collections::BTreeMap;

fn cluster(seed: u64) -> ClusterParams {
    let mut p = ClusterParams::paper_testbed(seed);
    p.nodes = 6;
    p.map_slots = 2;
    p.reduce_slots = 2;
    p
}

fn workload(seed: u64) -> TextWorkload {
    TextWorkload {
        seed,
        vocab: 250,
        zipf_s: 1.0,
        lines_per_chunk: 40,
        words_per_line: 5,
    }
}

fn reference(chunks: u64, seed: u64) -> BTreeMap<String, u64> {
    let w = workload(seed);
    let mut m = BTreeMap::new();
    for c in 0..chunks {
        for (_, line) in w.chunk(c) {
            for word in line.split_whitespace() {
                *m.entry(word.to_string()).or_insert(0) += 1;
            }
        }
    }
    m
}

fn run_with(
    engine: Engine,
    seed: u64,
    chunks: u64,
    faults: &[(f64, usize)],
) -> (bool, Option<BTreeMap<String, u64>>, usize, usize) {
    run_with_combiner(engine, seed, chunks, faults, CombinerPolicy::Disabled)
}

fn run_with_combiner(
    engine: Engine,
    seed: u64,
    chunks: u64,
    faults: &[(f64, usize)],
    combiner: CombinerPolicy,
) -> (bool, Option<BTreeMap<String, u64>>, usize, usize) {
    let w = workload(seed);
    let mut params = cluster(seed);
    params.combiner = combiner;
    let cfg = JobConfig::new(4).engine(engine).scratch_dir(
        std::env::temp_dir().join(format!("mr-fault-torture-{}-{seed}", std::process::id())),
    );
    let report = SimExecutor::new(params).run_with_faults(
        &WordCount,
        &FnInput(move |c| w.chunk(c)),
        chunks,
        &cfg,
        &CostModel::default_for_tests(),
        &HashPartitioner,
        faults,
    );
    let completed = report.outcome.is_completed();
    let output = report.output.map(|o| {
        o.into_sorted_output()
            .into_iter()
            .collect::<BTreeMap<_, _>>()
    });
    (
        completed,
        output,
        report.map_tasks_run,
        report.reduce_tasks_run,
    )
}

#[test]
fn two_failures_in_different_phases_are_survived() {
    let chunks = 14u64;
    let expect = reference(chunks, 21);
    for engine in [Engine::Barrier, Engine::barrierless()] {
        // One failure early in the map stage, one late (during reduces).
        let (completed, output, maps_run, reds_run) =
            run_with(engine.clone(), 21, chunks, &[(20.0, 0), (120.0, 3)]);
        assert!(completed, "two-failure run died under {engine:?}");
        assert_eq!(output.unwrap(), expect, "corrupt output under {engine:?}");
        assert!(
            maps_run as u64 > chunks || reds_run > 4,
            "no re-execution recorded"
        );
    }
}

#[test]
fn failure_during_every_phase_window() {
    // Sweep the failure instant across the whole job duration; output
    // must be exact every time.
    let chunks = 10u64;
    let expect = reference(chunks, 33);
    for fail_at in [5.0, 40.0, 80.0, 150.0, 250.0] {
        let (completed, output, _, _) =
            run_with(Engine::barrierless(), 33, chunks, &[(fail_at, 2)]);
        assert!(completed, "failure at {fail_at}s killed the job");
        assert_eq!(
            output.unwrap(),
            expect,
            "failure at {fail_at}s corrupted output"
        );
    }
}

#[test]
fn node_death_mid_shuffle_with_combining_enabled() {
    // The combiner changes what crosses the shuffle (combined partials,
    // deterministically re-generated on map re-run). Killing a node
    // while shuffle flows are in flight must still yield byte-exact
    // output. With 30 s map CPU, maps finish (and shuffle flows run)
    // from ~35 s on; sweep failure instants across that window, under
    // both engines.
    let chunks = 12u64;
    let expect = reference(chunks, 77);
    for engine in [Engine::Barrier, Engine::barrierless()] {
        for fail_at in [40.0, 70.0, 100.0] {
            let (completed, output, maps_run, reds_run) = run_with_combiner(
                engine.clone(),
                77,
                chunks,
                &[(fail_at, 1)],
                CombinerPolicy::enabled(),
            );
            assert!(
                completed,
                "mid-shuffle failure at {fail_at}s killed the combined job under {engine:?}"
            );
            assert_eq!(
                output.unwrap(),
                expect,
                "mid-shuffle failure at {fail_at}s corrupted combined output \
                 under {engine:?} (maps_run={maps_run}, reds_run={reds_run})"
            );
        }
    }
}

#[test]
fn node_death_under_hashed_index_is_byte_exact_and_matches_ordered() {
    // With the hashed (sort-at-drain) index active — including inside
    // the map-side combiner, whose drains feed the shuffle that re-run
    // maps must reproduce — killing a node mid-job yields output
    // byte-equal to the ordered (`BTreeMap`) reference fold.
    let chunks = 12u64;
    let expect = reference(chunks, 91);
    for engine in [Engine::Barrier, Engine::barrierless()] {
        for fail_at in [45.0, 110.0] {
            let (completed, output, _, _) = run_with_combiner(
                engine.clone(),
                91,
                chunks,
                &[(fail_at, 2)],
                CombinerPolicy::enabled(),
            );
            assert!(
                completed,
                "failure at {fail_at}s killed the job under {engine:?}"
            );
            assert_eq!(
                output.unwrap(),
                expect,
                "failure at {fail_at}s corrupted output under {engine:?}"
            );
        }
    }
}

#[test]
fn node_death_between_snapshots_never_regresses_the_sequence() {
    // Snapshots tick every 30 s; nodes die *between* ticks. The published
    // snapshot stream of every reduce partition must keep strictly
    // increasing sequence numbers across the recovery re-run (a
    // restarted attempt resumes numbering above its predecessor), and
    // the final output must stay byte-exact.
    let chunks = 12u64;
    let expect = reference(chunks, 63);
    for engine in [Engine::Barrier, Engine::barrierless()] {
        // Ticks fire at 30 s and 60 s; both instants fall between them,
        // while reducers (started at t = 0) are mid-flight — at 45 s a
        // barrier-less reducer has already finished, so stay earlier.
        for fail_at in [35.0, 40.0] {
            let w = workload(63);
            let cfg = JobConfig::new(4)
                .engine(engine.clone())
                .snapshots(SnapshotPolicy::EverySecs { secs: 30.0 })
                .scratch_dir(
                    std::env::temp_dir()
                        .join(format!("mr-fault-snap-{}-{fail_at}", std::process::id())),
                );
            let report = SimExecutor::new(cluster(63)).run_with_faults(
                &WordCount,
                &FnInput(move |c| w.chunk(c)),
                chunks,
                &cfg,
                &CostModel::default_for_tests(),
                &HashPartitioner,
                &[(fail_at, 2)],
            );
            assert!(
                report.outcome.is_completed(),
                "failure at {fail_at}s killed the snapshotted job under {engine:?}"
            );
            assert!(report.snapshots_taken > 0, "no snapshots under {engine:?}");
            let reds_run = report.reduce_tasks_run;
            assert!(
                reds_run > 4,
                "scenario never restarted a reducer — nothing was tested"
            );
            let out = report.output.unwrap();
            let got: BTreeMap<String, u64> = out.partitions.iter().flatten().cloned().collect();
            assert_eq!(
                got, expect,
                "failure at {fail_at}s corrupted snapshotted output under {engine:?}"
            );
            for (r, snaps) in out.snapshots.iter().enumerate() {
                for pair in snaps.windows(2) {
                    assert!(
                        pair[0].seq < pair[1].seq,
                        "reducer {r} snapshot seq regressed across recovery \
                         ({} -> {}) under {engine:?} at {fail_at}s (reds_run={reds_run})",
                        pair[0].seq,
                        pair[1].seq
                    );
                }
            }
            // The stream survives restarts: a restarted reducer's first
            // post-recovery snapshot may *absorb fewer records* than its
            // predecessor's last (it starts over), but its sequence
            // number never reuses or regresses — verified above — and
            // under the barrier-less engine the final published estimate
            // equals the partition's final output.
            if engine != Engine::Barrier {
                for (r, snaps) in out.snapshots.iter().enumerate() {
                    let last = snaps.last().expect("at least the final snapshot");
                    assert_eq!(
                        last.estimate, out.partitions[r],
                        "reducer {r}'s last snapshot is not its final answer"
                    );
                }
            }
        }
    }
}

#[test]
fn losing_every_node_fails_loudly() {
    // Total cluster loss is unrecoverable and must be reported as a
    // failure — never as a completion with empty output.
    let (completed, output, _, _) = run_with(
        Engine::barrierless(),
        81,
        6,
        &[(5.0, 0), (6.0, 1), (7.0, 2), (8.0, 3), (9.0, 4), (10.0, 5)],
    );
    assert!(!completed, "dead cluster reported a completed job");
    assert!(output.is_none(), "dead cluster produced output");
}

#[test]
fn losing_half_the_cluster_still_completes() {
    let chunks = 8u64;
    let expect = reference(chunks, 55);
    let (completed, output, maps_run, _) = run_with(
        Engine::barrierless(),
        55,
        chunks,
        &[(15.0, 0), (30.0, 1), (45.0, 2)],
    );
    assert!(completed, "triple failure killed the job");
    assert_eq!(output.unwrap(), expect);
    assert!(maps_run as u64 >= chunks);
}

#[test]
fn node_death_on_either_side_of_a_speculative_race_is_byte_exact() {
    // Speculation doubles the attempts in flight; node failure must
    // compose with it from both directions. A clean speculative run on a
    // straggling cluster tells us when the first backup launches and
    // where it runs; we then kill, one run at a time, every node just
    // after that instant — which covers killing the *backup's* node
    // (scenario A), the *original's* node after the backup launched
    // (scenario B), and innocent bystanders. Every run must complete
    // with byte-exact output, and at least one faulted run must still
    // witness a backup winning its race.
    use mr_cluster::SpecEvent;
    use mr_core::SpeculationPolicy;
    let chunks = 14u64;
    let seed = 3u64;
    let expect = reference(chunks, seed);
    let run = |engine: Engine, faults: &[(f64, usize)]| {
        let w = workload(seed);
        let mut params = cluster(seed);
        params.hetero_sigma = 0.8;
        params.speculation = Some(SpeculationPolicy::enabled());
        let cfg = JobConfig::new(4).engine(engine).scratch_dir(
            std::env::temp_dir().join(format!("mr-spec-torture-{}", std::process::id())),
        );
        SimExecutor::new(params).run_with_faults(
            &WordCount,
            &FnInput(move |c| w.chunk(c)),
            chunks,
            &cfg,
            &CostModel::default_for_tests(),
            &HashPartitioner,
            faults,
        )
    };
    let mut faulted_win_seen = false;
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let clean = run(engine.clone(), &[]);
        assert!(clean.outcome.is_completed());
        let (launched_at, backup_node) = clean
            .trace
            .iter()
            .find_map(|e| match e.event {
                TraceEvent::SpeculationMark {
                    at,
                    event: SpecEvent::Launched,
                } => Some((at.as_secs_f64(), e.scope.node)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no backup launched on a 0.8-sigma cluster ({engine:?})"));
        let kill_at = launched_at + 1.0;
        for node in 0..6 {
            let report = run(engine.clone(), &[(kill_at, node)]);
            assert!(
                report.outcome.is_completed(),
                "killing node {node} at {kill_at:.1}s (backup on {backup_node}) died \
                 under {engine:?}: {:?}",
                report.outcome
            );
            if TraceQuery::new(&report.trace).speculation_count(SpecEvent::Won) > 0 {
                faulted_win_seen = true;
            }
            let got: BTreeMap<String, u64> = report
                .output
                .unwrap()
                .into_sorted_output()
                .into_iter()
                .collect();
            assert_eq!(
                got, expect,
                "killing node {node} at {kill_at:.1}s corrupted speculative output \
                 under {engine:?}"
            );
        }
    }
    assert!(
        faulted_win_seen,
        "no faulted scenario witnessed a backup win — the race was never really exercised"
    );
}

#[test]
fn chain_edge_node_death_with_speculation_on_is_byte_exact() {
    // Speculation on a straggling cluster plus a node death while the
    // chain edge is live: stage-1 reducer backups race their originals
    // while stage-2 maps consume the winners' streams, and the kill
    // forces downstream restarts on top. Output must match the
    // fault-free, speculation-free chain byte for byte.
    use mr_apps::topk::TopK;
    use mr_cluster::{ChainSimExecutor, SpecEvent};
    use mr_core::{ChainSpec, HandoffMode, SpeculationPolicy};
    let chunks = 12u64;
    // Seed 8 puts stage-1 reducer 1 on a node ~2.3x the alive-node
    // median — a clear straggler for the speed trigger to back up.
    let seed = 8u64;
    let run = |spec: Option<SpeculationPolicy>, faults: &[(f64, usize)]| {
        let w = workload(seed);
        let mut params = cluster(seed);
        params.hetero_sigma = 0.8;
        params.speculation = spec;
        let chain_spec = ChainSpec::new(vec![
            JobConfig::new(4).engine(Engine::barrierless()).scratch_dir(
                std::env::temp_dir().join(format!("mr-chain-spec1-{}", std::process::id())),
            ),
            JobConfig::new(2).engine(Engine::barrierless()).scratch_dir(
                std::env::temp_dir().join(format!("mr-chain-spec2-{}", std::process::id())),
            ),
        ])
        .handoff(HandoffMode::Streaming);
        ChainSimExecutor::new(params).run_chain2_with_faults(
            &WordCount,
            &TopK::new(15),
            &FnInput(move |c| w.chunk(c)),
            chunks,
            &chain_spec,
            &CostModel::default_for_tests(),
            &HashPartitioner,
            &HashPartitioner,
            faults,
        )
    };
    let clean = run(None, &[]);
    assert!(clean.outcome.is_completed());
    let expect = clean.output.unwrap().into_sorted_output();
    assert!(!expect.is_empty());
    // Time the kills off a clean *speculative* run so they land while
    // the edge is live in the runs under test.
    let clean_spec = run(Some(SpeculationPolicy::enabled()), &[]);
    assert!(clean_spec.outcome.is_completed());
    assert_eq!(
        clean_spec.output.unwrap().into_sorted_output(),
        expect,
        "speculation alone changed the chain output"
    );
    let first = clean_spec
        .stage2_first_work
        .expect("chain handed something off")
        .as_secs_f64();
    let last = clean_spec
        .stage1_last_reduce_done
        .as_secs_f64()
        .max(first + 1.0);
    let launched = TraceQuery::new(&clean_spec.trace).speculation_count(SpecEvent::Launched);
    assert!(launched > 0, "no backup launched across the clean chain");
    for fail_at in [first + 0.3 * (last - first), first + 0.7 * (last - first)] {
        for node in 0..4 {
            let report = run(Some(SpeculationPolicy::enabled()), &[(fail_at, node)]);
            assert!(
                report.outcome.is_completed(),
                "speculative chain died for kill of node {node} at {fail_at:.1}s: {:?}",
                report.outcome
            );
            let got = report.output.unwrap().into_sorted_output();
            assert_eq!(
                got, expect,
                "kill of node {node} at {fail_at:.1}s corrupted the speculative chain"
            );
        }
    }
}

#[test]
fn chain_node_death_mid_stage2_is_byte_exact_and_restarts_downstream_maps() {
    // The chain's fault claim: killing a node while stage 2 of a
    // wordcount → top-k chain is mid-flight must leave the final output
    // byte-exact under BOTH handoff modes, and under the streaming
    // handoff (where the intermediate stream is never materialized) at
    // least one downstream map task must actually restart because its
    // upstream reduce attempt died.
    use mr_apps::topk::TopK;
    use mr_cluster::ChainSimExecutor;
    use mr_core::{ChainSpec, HandoffMode};
    let chunks = 12u64;
    let seed = 29u64;
    let spec = |handoff| {
        ChainSpec::new(vec![
            JobConfig::new(4).engine(Engine::barrierless()).scratch_dir(
                std::env::temp_dir().join(format!("mr-chain-ft1-{}", std::process::id())),
            ),
            JobConfig::new(2).engine(Engine::barrierless()).scratch_dir(
                std::env::temp_dir().join(format!("mr-chain-ft2-{}", std::process::id())),
            ),
        ])
        .handoff(handoff)
    };
    let run = |handoff, faults: &[(f64, usize)]| {
        let w = workload(seed);
        ChainSimExecutor::new(cluster(seed)).run_chain2_with_faults(
            &WordCount,
            &TopK::new(15),
            &FnInput(move |c| w.chunk(c)),
            chunks,
            &spec(handoff),
            &CostModel::default_for_tests(),
            &HashPartitioner,
            &HashPartitioner,
            faults,
        )
    };
    // Fault-free reference (both modes must already agree).
    let clean = run(HandoffMode::Barrier, &[]);
    assert!(clean.outcome.is_completed());
    let expect = clean.output.unwrap().into_sorted_output();
    assert!(!expect.is_empty());
    let clean_stream = run(HandoffMode::Streaming, &[]);
    assert!(clean_stream.outcome.is_completed());
    // Pick fault instants inside the stage-1-reduce / stage-2 window the
    // clean run observed, so the kill lands while the chain edge (and
    // stage 2) is genuinely mid-flight.
    let first = clean_stream
        .stage2_first_work
        .expect("chain handed something off")
        .as_secs_f64();
    let last = clean_stream
        .stage1_last_reduce_done
        .as_secs_f64()
        .max(first + 1.0);
    let instants = [
        first + 0.25 * (last - first),
        first + 0.6 * (last - first),
        last + 5.0,
    ];
    let mut downstream_restart_seen = false;
    for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
        for &fail_at in &instants {
            for node in 0..4 {
                let report = run(handoff, &[(fail_at, node)]);
                assert!(
                    report.outcome.is_completed(),
                    "chain {handoff:?} died for kill of node {node} at {fail_at:.1}s: {:?}",
                    report.outcome
                );
                let restarts = report.downstream_map_restarts;
                let got = report.output.unwrap().into_sorted_output();
                assert_eq!(
                    got, expect,
                    "kill of node {node} at {fail_at:.1}s corrupted the {handoff:?} chain"
                );
                if handoff == HandoffMode::Streaming && restarts > 0 {
                    downstream_restart_seen = true;
                }
            }
        }
    }
    assert!(
        downstream_restart_seen,
        "no scenario restarted a downstream map task — the chain recovery path was never exercised"
    );
}

#[test]
fn contending_chained_and_unchained_jobs_survive_node_kills() {
    // The regression the unified SlotLedger placement fixed: chained
    // stage-2 tasks used to run *slotless*, so a chained job and an
    // unchained job contending for the same (tiny) slot pool could
    // wedge under recovery — the chained job's restarted stage-1
    // reducer needed a slot the unchained job held, while the unchained
    // job's reducer waited behind phantom stage-2 work that never
    // released anything. With every task drawing from the shared
    // ledger, the scenario must complete under a kill at any phase,
    // byte-exact for both jobs.
    use mr_cluster::{analytic_output, ServiceParams, ServiceSimExecutor, SimJobSpec};
    let seed = 5u64;
    let w = workload(seed);
    let splits_for = |base: u64, n: u64| -> Vec<Vec<(u64, String)>> {
        let w = w.clone();
        (0..n).map(|c| w.chunk(base + c)).collect()
    };
    let jobs = || -> Vec<SimJobSpec<WordCount>> {
        vec![
            // A chained two-stage pipeline and a plain job, different
            // tenants, fighting over 2 map + 2 reduce slots total.
            SimJobSpec {
                tenant: 0,
                submit_at_secs: 0.0,
                splits: splits_for(0, 4),
                reducers: 2,
                chained: true,
            },
            SimJobSpec {
                tenant: 1,
                submit_at_secs: 0.0,
                splits: splits_for(4, 4),
                reducers: 2,
                chained: false,
            },
        ]
    };
    let expect: Vec<_> = jobs()
        .iter()
        .map(|s| analytic_output(&WordCount, &HashPartitioner, s).unwrap())
        .collect();
    // Kill node 1 at instants spanning map work, the stage-1/stage-2
    // overlap, and the tail — the survivor node must absorb everything.
    for kill_at in [3.0, 10.0, 25.0, 60.0] {
        let mut params = ServiceParams::new(2);
        params.cluster = cluster(seed);
        params.cluster.nodes = 2;
        params.cluster.map_slots = 1;
        params.cluster.reduce_slots = 1;
        let report = ServiceSimExecutor::run(
            &WordCount,
            &HashPartitioner,
            &params,
            jobs(),
            &[(kill_at, 1)],
        )
        .unwrap();
        assert!(
            report.failure.is_none(),
            "kill at {kill_at}s wedged the contending pair: {:?}",
            report.failure
        );
        for (i, job) in report.jobs.iter().enumerate() {
            assert!(
                job.completed_at.is_some(),
                "kill at {kill_at}s: job {i} never completed (deadlock regression)"
            );
            assert_eq!(
                job.output, expect[i],
                "kill at {kill_at}s: job {i} output corrupted by recovery"
            );
        }
    }
}
