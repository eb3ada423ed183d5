//! Golden sweep over both simulated executors: every case pins an
//! FNV-1a-64 of the run's canonical trace, the completion time to the
//! bit, the task-run tallies and a digest of the output partitions.
//!
//! The constants below were recorded from the build *before*
//! `SimExecutor` and `ChainSimExecutor` were folded onto one stage
//! machine and are the refactor's behavioural spec: the order of
//! `schedule` calls at equal instants, the noise-RNG draw order, every
//! ledger mutation and every trace emission show up in one of the four
//! pinned values. A model change that means to move them re-records the
//! table (a failing run prints every moved row in paste-ready form).
//!
//! The service rows pin `ServiceSimExecutor`'s multi-tenant schedule the
//! same way: eviction count, every job's completion instant and the
//! canonical trace of a contended run under node kills. They were
//! recorded from the scheduler that scanned the whole job table on every
//! decision, before it walked per-tenant live-job lists.

use mr_apps::topk::TopK;
use mr_apps::wordcount::WordCount;
use mr_cluster::{
    ChainSimExecutor, ChainSimReport, ClusterParams, CostModel, FnInput, ServiceParams,
    ServiceSimExecutor, ServiceSimReport, SimExecutor, SimJobSpec, SimReport, SpanKind,
};
use mr_core::counters::names;
use mr_core::{
    ChainSpec, CombinerPolicy, DeadlinePolicy, Engine, HandoffMode, HashPartitioner, JobConfig,
    MemoryPolicy, SnapshotPolicy, SpeculationPolicy, TenantSpec, TraceQuery,
};
use mr_workloads::TextWorkload;
use std::fmt::Debug;

const CHUNKS: u64 = 10;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(partitions: &impl Debug) -> u64 {
    fnv1a(format!("{partitions:?}").as_bytes())
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

/// Six nodes, two slots of each kind; `speculate` turns on the
/// straggler-prone variant (wide node spread, noisy tasks, backups on).
fn cluster(seed: u64, speculate: bool) -> ClusterParams {
    let mut p = ClusterParams::paper_testbed(seed);
    p.nodes = 6;
    p.map_slots = 2;
    p.reduce_slots = 2;
    if speculate {
        p.hetero_sigma = 0.8;
        p.task_noise_sigma = 0.2;
        p.speculation = Some(SpeculationPolicy::enabled());
    }
    p
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mr-golden-{tag}-{}", std::process::id()))
}

fn engines() -> [(&'static str, Engine); 3] {
    [
        ("barrier", Engine::Barrier),
        ("inmem", Engine::barrierless()),
        (
            "spill",
            Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 2 << 10,
                },
            },
        ),
    ]
}

fn single_row(name: &str, r: &SimReport<WordCount>) -> String {
    let secs = match &r.outcome {
        mr_cluster::Outcome::Completed { at } | mr_cluster::Outcome::Approximate { at } => {
            at.as_secs_f64().to_bits()
        }
        other => panic!("{name}: {other:?}"),
    };
    let out = r.output.as_ref().expect("finished runs carry output");
    format!(
        "{name} trace={:016x} secs={secs:016x} tasks={}/{} out={:016x}",
        fnv1a(r.trace.to_canonical_string().as_bytes()),
        r.map_tasks_run,
        r.reduce_tasks_run,
        digest(&out.partitions),
    )
}

fn chain_row(name: &str, r: &ChainSimReport<TopK>) -> String {
    assert!(r.outcome.is_completed(), "{name}: {:?}", r.outcome);
    format!(
        "{name} trace={:016x} secs={:016x} tasks={}/{}/{}/{} restarts={} handoff={}/{} out={:016x}",
        fnv1a(r.trace.to_canonical_string().as_bytes()),
        r.completion_secs().to_bits(),
        r.map1_tasks_run,
        r.red1_tasks_run,
        r.map2_tasks_run,
        r.red2_tasks_run,
        r.downstream_map_restarts,
        r.handoff_edges,
        r.handoff_records,
        digest(&r.output.as_ref().expect("completed").partitions),
    )
}

/// Compares the sweep's rows with the pinned table, printing every
/// moved, missing or surplus row the way the table spells it.
fn check(actual: &[String], golden: &[&str]) {
    let mut moved = Vec::new();
    for (i, row) in actual.iter().enumerate() {
        if golden.get(i) != Some(&row.as_str()) {
            moved.push(format!("    {row:?},"));
        }
    }
    assert!(
        moved.is_empty() && actual.len() == golden.len(),
        "{} of {} rows differ from the {} pinned:\n{}",
        moved.len(),
        actual.len(),
        golden.len(),
        moved.join("\n")
    );
}

fn run_single(
    params: &ClusterParams,
    seed: u64,
    cfg: &JobConfig,
    faults: &[(f64, usize)],
) -> SimReport<WordCount> {
    let w = workload(seed);
    SimExecutor::new(params.clone()).run_with_faults(
        &WordCount,
        &FnInput(move |c| w.chunk(c)),
        CHUNKS,
        cfg,
        &CostModel::default_for_tests(),
        &HashPartitioner,
        faults,
    )
}

#[test]
fn sim_executor_sweep_matches_the_pinned_table() {
    let mut rows = Vec::new();
    let mut spilled = false;
    for seed in [1u64, 11, 2010] {
        for (ename, engine) in engines() {
            for speculate in [false, true] {
                for combine in [false, true] {
                    let mut params = cluster(seed, speculate);
                    if combine {
                        params.combiner = CombinerPolicy::enabled();
                    }
                    let cfg = JobConfig::new(4)
                        .engine(engine.clone())
                        .scratch_dir(scratch("single"));
                    let clean = run_single(&params, seed, &cfg, &[]);
                    assert!(clean.outcome.is_completed(), "{:?}", clean.outcome);
                    spilled |= clean
                        .output
                        .as_ref()
                        .is_some_and(|o| o.counters.get(names::SPILL_FILES) > 0);
                    // Fault instants come off the clean run's own phases,
                    // so each seed is hit where it is actually busy.
                    let first_map = clean.first_map_done.as_secs_f64();
                    let shuffled = clean.shuffle_done.as_secs_f64();
                    let mid_map = 0.5 * first_map;
                    let mid_shuffle = 0.5 * (first_map + shuffled);
                    let late = 0.5 * (shuffled + clean.completion_secs());
                    let name = |fname: &str| {
                        format!(
                            "s{seed}/{ename}/{fname}/spec-{}/comb-{}",
                            if speculate { "on" } else { "off" },
                            if combine { "on" } else { "off" },
                        )
                    };
                    rows.push(single_row(&name("none"), &clean));
                    let faults: [(&str, &[(f64, usize)]); 3] = [
                        ("midmap", &[(mid_map, 0)]),
                        ("midshuffle", &[(mid_shuffle, 1)]),
                        ("two", &[(mid_map, 2), (late, 3)]),
                    ];
                    for (fname, faults) in faults {
                        let report = run_single(&params, seed, &cfg, faults);
                        rows.push(single_row(&name(fname), &report));
                    }
                }
            }
        }
    }
    assert!(spilled, "the spilling engine never spilled");

    // The single-job-only surface: snapshots on both clocks, a deadline
    // cut answered from them, and the hashed store index.
    let seed = 11;
    let bl = |tag: &str| {
        JobConfig::new(4)
            .engine(Engine::barrierless())
            .scratch_dir(scratch(tag))
    };
    let timed = bl("snap-secs").snapshots(SnapshotPolicy::EverySecs { secs: 15.0 });
    let exact = run_single(&cluster(seed, false), seed, &timed, &[]);
    assert!(exact.snapshots_taken > 0);
    rows.push(single_row("snap-secs/inmem", &exact));
    let barrier_timed = timed.clone().engine(Engine::Barrier);
    let r = run_single(&cluster(seed, false), seed, &barrier_timed, &[]);
    assert!(r.snapshots_taken > 0);
    rows.push(single_row("snap-secs/barrier", &r));
    let by_records = bl("snap-records").snapshots(SnapshotPolicy::EveryRecords { records: 150 });
    let r = run_single(&cluster(seed, true), seed, &by_records, &[(20.0, 4)]);
    assert!(r.snapshots_taken > 0);
    rows.push(single_row("snap-records/inmem/fault/spec-on", &r));
    let cut = timed.clone().deadline(DeadlinePolicy::At {
        secs: 0.6 * exact.completion_secs(),
    });
    let r = run_single(&cluster(seed, false), seed, &cut, &[]);
    assert!(r.outcome.is_approximate(), "{:?}", r.outcome);
    rows.push(single_row("deadline/inmem", &r));
    let mut hashed = cluster(seed, false);
    hashed.combiner = CombinerPolicy::enabled();
    let r = run_single(&hashed, seed, &bl("hashed"), &[(25.0, 2)]);
    rows.push(single_row("hashed/inmem/fault/comb-on", &r));

    check(&rows, GOLDEN_SINGLE);
}

fn run_chain(
    params: &ClusterParams,
    seed: u64,
    spec: &ChainSpec,
    faults: &[(f64, usize)],
) -> ChainSimReport<TopK> {
    let w = workload(seed);
    ChainSimExecutor::new(params.clone()).run_chain2_with_faults(
        &WordCount,
        &TopK::new(12),
        &FnInput(move |c| w.chunk(c)),
        CHUNKS,
        spec,
        &CostModel::default_for_tests(),
        &HashPartitioner,
        &HashPartitioner,
        faults,
    )
}

/// The node that ran reduce task `index` of stage `job` to completion
/// (a `Shuffle` span may belong to an attempt that later lost its race).
fn reducer_node(report: &ChainSimReport<TopK>, job: u32, index: u32) -> usize {
    let spans = TraceQuery::new(&report.trace).spans();
    let finished = spans.iter().find(|s| {
        s.scope.job == job
            && s.scope.index == index
            && !matches!(s.kind, SpanKind::Map | SpanKind::Shuffle)
    });
    finished.expect("reducer ran").scope.node as usize
}

#[test]
fn chain_executor_sweep_matches_the_pinned_table() {
    let seed = 29u64;
    let mut rows = Vec::new();
    let pairs = [
        ("bl-bl", Engine::barrierless(), Engine::barrierless()),
        ("barrier-bl", Engine::Barrier, Engine::barrierless()),
        ("bl-barrier", Engine::barrierless(), Engine::Barrier),
    ];
    for handoff in [HandoffMode::Streaming, HandoffMode::Barrier] {
        for (pname, e1, e2) in pairs.clone() {
            for speculate in [false, true] {
                let spec = |r1: usize| {
                    ChainSpec::new(vec![
                        JobConfig::new(r1)
                            .engine(e1.clone())
                            .scratch_dir(scratch("chain1")),
                        JobConfig::new(2)
                            .engine(e2.clone())
                            .scratch_dir(scratch("chain2")),
                    ])
                    .handoff(handoff)
                };
                let params = cluster(seed, speculate);
                let name = |fname: &str| {
                    format!(
                        "{handoff:?}/{pname}/{fname}/spec-{}",
                        if speculate { "on" } else { "off" }
                    )
                };
                let clean = run_chain(&params, seed, &spec(4), &[]);
                rows.push(chain_row(&name("none"), &clean));
                // Upstream: the node under stage-1 reducer 0 dies halfway
                // to the end of stage 1's reduce work. Downstream: the
                // node under stage-2 reducer 0 dies halfway between
                // stage 2's first input and the end of the chain.
                let up_at = 0.5 * clean.stage1_last_reduce_done.as_secs_f64();
                let up = run_chain(
                    &params,
                    seed,
                    &spec(4),
                    &[(up_at, reducer_node(&clean, 0, 0))],
                );
                rows.push(chain_row(&name("upstream"), &up));
                let first2 = clean.stage2_first_work.expect("stage 2 ran").as_secs_f64();
                let down_at = 0.5 * (first2 + clean.completion_secs());
                let down = run_chain(
                    &params,
                    seed,
                    &spec(4),
                    &[(down_at, reducer_node(&clean, 1, 0))],
                );
                rows.push(chain_row(&name("downstream"), &down));
                // Slot-starved: two nodes with one slot of each kind, so
                // stage 2 holds every slot stage 1 is not using. Either
                // node dying just after stage 1 finished sends stage-1
                // work back to Pending with no free slot and no running
                // stage-1 task to wait for: under the streaming handoff
                // one of the two kills always goes through
                // `evict_for_stage1` (map and reduce evictions both
                // occur across the sweep); under the barrier handoff the
                // materialized stage-1 output survives and nothing is
                // evicted.
                let mut tiny = params.clone();
                tiny.nodes = 2;
                tiny.map_slots = 1;
                tiny.reduce_slots = 1;
                tiny.replication = 2;
                let calm = run_chain(&tiny, seed, &spec(2), &[]);
                let starve_at = calm.stage1_complete.as_secs_f64() + 0.05;
                for node in 0..2 {
                    let starved = run_chain(&tiny, seed, &spec(2), &[(starve_at, node)]);
                    rows.push(chain_row(&name(&format!("starved{node}")), &starved));
                }
            }
        }
    }
    check(&rows, GOLDEN_CHAIN);
}

/// One contended service run: 240 jobs from four tenants weighted
/// 4:2:1:1, the last a priority class above the rest (so it evicts),
/// every third job chained, submit instants out of index order, and
/// `kills` node failures on the six-node cluster. Splits are one line
/// each: the schedule depends on task counts, not on records.
fn run_service(seed: u64, kills: &[(f64, usize)]) -> ServiceSimReport<WordCount> {
    const JOBS: usize = 240;
    let mut params = ServiceParams::new(4).queue_cap(JOBS);
    params.cluster = cluster(seed, false);
    for (t, weight) in [4, 2, 1, 1].into_iter().enumerate() {
        let spec = TenantSpec::new().weight(weight).priority(u32::from(t == 3));
        params = params.tenant(t, spec);
    }
    let specs = (0..JOBS)
        .map(|j| SimJobSpec {
            tenant: j % 4,
            submit_at_secs: 0.5 * j as f64 + ((j * 7) % 11) as f64,
            splits: vec![vec![(j as u64, format!("w{} w{}", j % 5, j % 7))]; 2],
            reducers: 2,
            chained: j % 3 == 2,
        })
        .collect();
    ServiceSimExecutor::run(&WordCount, &HashPartitioner, &params, specs, kills)
        .expect("valid service run")
}

fn service_row(name: &str, r: &ServiceSimReport<WordCount>) -> String {
    assert!(r.failure.is_none(), "{name}: {:?}", r.failure);
    let ends: Vec<u8> = r
        .jobs
        .iter()
        .flat_map(|j| j.completed_at.map_or(u64::MAX, f64::to_bits).to_le_bytes())
        .collect();
    format!(
        "{name} evictions={} done={}/{} ends={:016x} trace={:016x}",
        r.evictions,
        r.jobs.iter().filter(|j| j.completed_at.is_some()).count(),
        r.jobs.len(),
        fnv1a(&ends),
        fnv1a(r.trace.to_canonical_string().as_bytes()),
    )
}

#[test]
fn service_sweep_matches_the_pinned_table() {
    let kill_sets: [(&str, &[(f64, usize)]); 3] = [
        ("early3", &[(15.0, 1), (40.0, 4), (70.0, 2)]),
        ("spread4", &[(30.0, 0), (90.0, 3), (150.0, 5), (210.0, 1)]),
        (
            "late5",
            &[(60.0, 2), (80.0, 5), (100.0, 0), (120.0, 3), (140.0, 4)],
        ),
    ];
    let mut rows = Vec::new();
    for seed in [5u64, 29] {
        for (kname, kills) in kill_sets {
            rows.push(service_row(
                &format!("service/s{seed}/{kname}"),
                &run_service(seed, kills),
            ));
        }
    }
    check(&rows, GOLDEN_SERVICE);
}

#[rustfmt::skip]
const GOLDEN_SINGLE: &[&str] = &[
    "s1/barrier/none/spec-off/comb-off trace=1a00545d8897acef secs=404f01d8cf398e97 tasks=10/4 out=19159f70f860e88a",
    "s1/barrier/midmap/spec-off/comb-off trace=6af1e6a3b72336ec secs=404f01d8cf398e97 tasks=12/5 out=19159f70f860e88a",
    "s1/barrier/midshuffle/spec-off/comb-off trace=507c020cafc6c040 secs=40548bd117b5286b tasks=12/5 out=19159f70f860e88a",
    "s1/barrier/two/spec-off/comb-off trace=b8b0e91267ede5af secs=4057f2b8cb8e086c tasks=14/6 out=19159f70f860e88a",
    "s1/barrier/none/spec-off/comb-on trace=44ace8cfc69a61d0 secs=404a30c8472c0e7c tasks=10/4 out=19159f70f860e88a",
    "s1/barrier/midmap/spec-off/comb-on trace=c04098798ce3f4eb secs=404a3bd76ee73e68 tasks=12/5 out=19159f70f860e88a",
    "s1/barrier/midshuffle/spec-off/comb-on trace=c8b43be62627f048 secs=40521148ba83f4ed tasks=12/5 out=19159f70f860e88a",
    "s1/barrier/two/spec-off/comb-on trace=6d812c7177a182fb secs=4055470fdc1615ec tasks=14/6 out=19159f70f860e88a",
    "s1/barrier/none/spec-on/comb-off trace=d10e18e32748db74 secs=4048156b3354c122 tasks=15/5 out=19159f70f860e88a",
    "s1/barrier/midmap/spec-on/comb-off trace=ac27510706b2c3c3 secs=40511e672b884407 tasks=18/7 out=19159f70f860e88a",
    "s1/barrier/midshuffle/spec-on/comb-off trace=e3f064de548e67a2 secs=4046d6a6a012599f tasks=15/7 out=19159f70f860e88a",
    "s1/barrier/two/spec-on/comb-off trace=e656c0236e2fb7e4 secs=405cfa30caa326e1 tasks=21/9 out=19159f70f860e88a",
    "s1/barrier/none/spec-on/comb-on trace=0985bf0ee843fc4b secs=40446caaf35e310e tasks=15/6 out=19159f70f860e88a",
    "s1/barrier/midmap/spec-on/comb-on trace=9a4140df32309975 secs=404e8d4d834091c1 tasks=18/8 out=19159f70f860e88a",
    "s1/barrier/midshuffle/spec-on/comb-on trace=f7b930dcbb818731 secs=4043f671e6cd2913 tasks=15/6 out=19159f70f860e88a",
    "s1/barrier/two/spec-on/comb-on trace=5d423ad2db52e500 secs=4059396de33269e0 tasks=21/9 out=19159f70f860e88a",
    "s1/inmem/none/spec-off/comb-off trace=46fc6a433db3a3ba secs=4047e4a7264a16a5 tasks=10/4 out=19159f70f860e88a",
    "s1/inmem/midmap/spec-off/comb-off trace=5c6e25d60d545b89 secs=4047e4a7264a16a5 tasks=12/5 out=19159f70f860e88a",
    "s1/inmem/midshuffle/spec-off/comb-off trace=e486a5836d2700e3 secs=40510bf0d413122b tasks=12/5 out=19159f70f860e88a",
    "s1/inmem/two/spec-off/comb-off trace=5282528305c673f7 secs=4053e6bc05d52c17 tasks=14/6 out=19159f70f860e88a",
    "s1/inmem/none/spec-off/comb-on trace=a39644e677e04af6 secs=40472092ddbdb5d9 tasks=10/4 out=19159f70f860e88a",
    "s1/inmem/midmap/spec-off/comb-on trace=a24961ff1ca92fbf secs=4047270be9424e59 tasks=12/5 out=19159f70f860e88a",
    "s1/inmem/midshuffle/spec-off/comb-on trace=5ab7e8b973999b9a secs=4050974662bae03b tasks=12/5 out=19159f70f860e88a",
    "s1/inmem/two/spec-off/comb-on trace=abcaeedfa8c08d9a secs=4053734dec1c1d6d tasks=14/6 out=19159f70f860e88a",
    "s1/inmem/none/spec-on/comb-off trace=53ec5705c245effc secs=4042ab0a5efe9318 tasks=15/5 out=19159f70f860e88a",
    "s1/inmem/midmap/spec-on/comb-off trace=90f6027ffbed492e secs=404cb26a44417870 tasks=18/7 out=19159f70f860e88a",
    "s1/inmem/midshuffle/spec-on/comb-off trace=4d8ab988cf6faefd secs=4042af6f9fcb0c02 tasks=15/6 out=19159f70f860e88a",
    "s1/inmem/two/spec-on/comb-off trace=9650694ea65180b7 secs=4059c3ac0c62e4d2 tasks=21/8 out=19159f70f860e88a",
    "s1/inmem/none/spec-on/comb-on trace=50c9d0d4739c7a4f secs=4041ec10cf5b1c86 tasks=15/5 out=19159f70f860e88a",
    "s1/inmem/midmap/spec-on/comb-on trace=e4be87d5238c0085 secs=404bdee92d55a3a1 tasks=18/7 out=19159f70f860e88a",
    "s1/inmem/midshuffle/spec-on/comb-on trace=09c96c23feb3bef6 secs=4041ec1650a45d42 tasks=15/6 out=19159f70f860e88a",
    "s1/inmem/two/spec-on/comb-on trace=4a7c93d96f8e3ee4 secs=4059169d99029ae5 tasks=21/8 out=19159f70f860e88a",
    "s1/spill/none/spec-off/comb-off trace=66839e468835421e secs=4047e4245f5ad96a tasks=10/4 out=19159f70f860e88a",
    "s1/spill/midmap/spec-off/comb-off trace=21517bdda751cbe5 secs=4047e4245f5ad96a tasks=12/5 out=19159f70f860e88a",
    "s1/spill/midshuffle/spec-off/comb-off trace=d030615ff668c188 secs=40510ba9a3d2d880 tasks=12/5 out=19159f70f860e88a",
    "s1/spill/two/spec-off/comb-off trace=7ad62f0b4ad8fbef secs=4053e66e32e3821b tasks=14/6 out=19159f70f860e88a",
    "s1/spill/none/spec-off/comb-on trace=8b09397e46f4aad3 secs=40471ff4fd6d7e89 tasks=10/4 out=19159f70f860e88a",
    "s1/spill/midmap/spec-off/comb-on trace=b8c2b5c17ac14384 secs=4047268e4fb97bb7 tasks=12/5 out=19159f70f860e88a",
    "s1/spill/midshuffle/spec-off/comb-on trace=91a7cccad746a04b secs=4050970121682f94 tasks=12/5 out=19159f70f860e88a",
    "s1/spill/two/spec-off/comb-on trace=02ec4fba52f6707f secs=405372f18c9fb613 tasks=14/6 out=19159f70f860e88a",
    "s1/spill/none/spec-on/comb-off trace=c52e2b84cc57da23 secs=4042aa6a3bddfca0 tasks=15/5 out=19159f70f860e88a",
    "s1/spill/midmap/spec-on/comb-off trace=bb78b8e708502d4b secs=404cb2337a80cf9e tasks=18/7 out=19159f70f860e88a",
    "s1/spill/midshuffle/spec-on/comb-off trace=86be2597d659bf73 secs=4042aef91a32b12d tasks=15/6 out=19159f70f860e88a",
    "s1/spill/two/spec-on/comb-off trace=3d455daa3fb0e57e secs=4059c2fcc1871e6d tasks=21/8 out=19159f70f860e88a",
    "s1/spill/none/spec-on/comb-on trace=d53e2a6092aea0cf secs=4041eb54a7f8012e tasks=15/5 out=19159f70f860e88a",
    "s1/spill/midmap/spec-on/comb-on trace=57dde482a53ffacb secs=404bde39042d8c2a tasks=18/7 out=19159f70f860e88a",
    "s1/spill/midshuffle/spec-on/comb-on trace=6cfe414c6178196e secs=4041eba543f1c758 tasks=15/6 out=19159f70f860e88a",
    "s1/spill/two/spec-on/comb-on trace=1b38567ff0c7ff84 secs=405915d0bfa09460 tasks=21/8 out=19159f70f860e88a",
    "s11/barrier/none/spec-off/comb-off trace=26e787e0c26a70cc secs=405593c2ce464990 tasks=10/4 out=be4f98383f541da1",
    "s11/barrier/midmap/spec-off/comb-off trace=61a700120df292fb secs=405b973465625a68 tasks=12/5 out=be4f98383f541da1",
    "s11/barrier/midshuffle/spec-off/comb-off trace=79588726b05607ce secs=405593c2ce464990 tasks=12/5 out=be4f98383f541da1",
    "s11/barrier/two/spec-off/comb-off trace=fc867517a6412ec1 secs=405c28e215336dec tasks=14/6 out=be4f98383f541da1",
    "s11/barrier/none/spec-off/comb-on trace=e0d495338ac4dc86 secs=4050c3fb1e18efbb tasks=10/4 out=be4f98383f541da1",
    "s11/barrier/midmap/spec-off/comb-on trace=7fc72a47266e5fef secs=4056a8ff08893b7e tasks=12/5 out=be4f98383f541da1",
    "s11/barrier/midshuffle/spec-off/comb-on trace=75795e0abafeecc2 secs=4050a38eeae9ee46 tasks=12/5 out=be4f98383f541da1",
    "s11/barrier/two/spec-off/comb-on trace=0865af6c9a10c772 secs=4056c3331a08bfc2 tasks=14/6 out=be4f98383f541da1",
    "s11/barrier/none/spec-on/comb-off trace=8cfbb1f89504bf18 secs=4065368bdcad14a1 tasks=17/6 out=be4f98383f541da1",
    "s11/barrier/midmap/spec-on/comb-off trace=027a1ac82f6d1056 secs=4066976f826edaa9 tasks=18/7 out=be4f98383f541da1",
    "s11/barrier/midshuffle/spec-on/comb-off trace=ac4001d27e521768 secs=4064b224af0bf1a6 tasks=17/6 out=be4f98383f541da1",
    "s11/barrier/two/spec-on/comb-off trace=cc689a5ed40dc1ef secs=4046443b14a90471 tasks=20/7 out=be4f98383f541da1",
    "s11/barrier/none/spec-on/comb-on trace=a44fa291051ee22b secs=40644650d49949e9 tasks=17/6 out=be4f98383f541da1",
    "s11/barrier/midmap/spec-on/comb-on trace=3f88969dd9ef764e secs=406ca505186db50f tasks=18/7 out=be4f98383f541da1",
    "s11/barrier/midshuffle/spec-on/comb-on trace=9e694dc28be69605 secs=4063ee2d16b97fe9 tasks=17/6 out=be4f98383f541da1",
    "s11/barrier/two/spec-on/comb-on trace=e3fb18cec09296e2 secs=40646fddcc63f141 tasks=20/6 out=be4f98383f541da1",
    "s11/inmem/none/spec-off/comb-off trace=ea16f280086388ad secs=404e626afcce1c58 tasks=10/4 out=be4f98383f541da1",
    "s11/inmem/midmap/spec-off/comb-off trace=39b014d723d66555 secs=405522b36bd2b6f2 tasks=12/5 out=be4f98383f541da1",
    "s11/inmem/midshuffle/spec-off/comb-off trace=b5a46b3375153b85 secs=404eea1682f94424 tasks=12/5 out=be4f98383f541da1",
    "s11/inmem/two/spec-off/comb-off trace=33817a116f902773 secs=405504ba16e7a312 tasks=14/6 out=be4f98383f541da1",
    "s11/inmem/none/spec-off/comb-on trace=daf602608fba41e7 secs=404d63256798958e tasks=10/4 out=be4f98383f541da1",
    "s11/inmem/midmap/spec-off/comb-on trace=0f81d56d0922fb0b secs=40549cd698fe6927 tasks=12/5 out=be4f98383f541da1",
    "s11/inmem/midshuffle/spec-off/comb-on trace=72db8f2d178fb924 secs=404d42a4a05dd8f9 tasks=12/5 out=be4f98383f541da1",
    "s11/inmem/two/spec-off/comb-on trace=b47cc679bb612594 secs=40548d9fba450acc tasks=14/6 out=be4f98383f541da1",
    "s11/inmem/none/spec-on/comb-off trace=36ab21c9ffcdf848 secs=4064559289dadfb5 tasks=17/5 out=be4f98383f541da1",
    "s11/inmem/midmap/spec-on/comb-off trace=26a5170b9fda6af1 secs=40649b901083dbc2 tasks=18/6 out=be4f98383f541da1",
    "s11/inmem/midshuffle/spec-on/comb-off trace=af5072d6b0c0d576 secs=4063c4b39e279dd4 tasks=17/6 out=be4f98383f541da1",
    "s11/inmem/two/spec-on/comb-off trace=8e829b6d9870c572 secs=4041d27f3cf70154 tasks=20/6 out=be4f98383f541da1",
    "s11/inmem/none/spec-on/comb-on trace=c49a3deead066e0d secs=4063d88d2c386d2f tasks=17/5 out=be4f98383f541da1",
    "s11/inmem/midmap/spec-on/comb-on trace=17f0cddee5bec080 secs=406bc858255b035c tasks=18/6 out=be4f98383f541da1",
    "s11/inmem/midshuffle/spec-on/comb-on trace=7bb390b23ff63b76 secs=4063a64a6a875d57 tasks=17/6 out=be4f98383f541da1",
    "s11/inmem/two/spec-on/comb-on trace=b95e0c417bb8a61e secs=40648c06e19b90eb tasks=21/8 out=be4f98383f541da1",
    "s11/spill/none/spec-off/comb-off trace=ca6d7d863028f635 secs=404e613affb04ee8 tasks=10/4 out=be4f98383f541da1",
    "s11/spill/midmap/spec-off/comb-off trace=84293403651ee6dd secs=4055222e1ac57e24 tasks=12/5 out=be4f98383f541da1",
    "s11/spill/midshuffle/spec-off/comb-off trace=3cd4fd8f13c1b201 secs=404ee95fdcdf6988 tasks=12/5 out=be4f98383f541da1",
    "s11/spill/two/spec-off/comb-off trace=ff0451200f2df965 secs=40550475fb2edfe7 tasks=14/6 out=be4f98383f541da1",
    "s11/spill/none/spec-off/comb-on trace=5f871acc6003994e secs=404d62456f75d9a1 tasks=10/4 out=be4f98383f541da1",
    "s11/spill/midmap/spec-off/comb-on trace=ded1c112b755fe33 secs=40549c6145953587 tasks=12/5 out=be4f98383f541da1",
    "s11/spill/midshuffle/spec-off/comb-on trace=fe53f4aa9ca3e718 secs=404d42202539756d tasks=12/5 out=be4f98383f541da1",
    "s11/spill/two/spec-off/comb-on trace=1106cd22390f5c6f secs=40548d17c1bda512 tasks=14/6 out=be4f98383f541da1",
    "s11/spill/none/spec-on/comb-off trace=94e2ae1d50452827 secs=4064550427418d69 tasks=17/5 out=be4f98383f541da1",
    "s11/spill/midmap/spec-on/comb-off trace=29bd641d6eb92076 secs=40649afc17a89332 tasks=18/6 out=be4f98383f541da1",
    "s11/spill/midshuffle/spec-on/comb-off trace=f329aba9f73bff4a secs=4063c4a1c25d0742 tasks=17/6 out=be4f98383f541da1",
    "s11/spill/two/spec-on/comb-off trace=0c12e9408d8c68ca secs=4041d21af7d30ad4 tasks=20/6 out=be4f98383f541da1",
    "s11/spill/none/spec-on/comb-on trace=b9eea9b3f1c2dd02 secs=4063d7fbfe7e1fc1 tasks=17/5 out=be4f98383f541da1",
    "s11/spill/midmap/spec-on/comb-on trace=5278f2d42cd328e6 secs=406bc7d2220bc383 tasks=18/6 out=be4f98383f541da1",
    "s11/spill/midshuffle/spec-on/comb-on trace=ac60f130c2a459f2 secs=4063a646fdeb52ca tasks=17/6 out=be4f98383f541da1",
    "s11/spill/two/spec-on/comb-on trace=bb39b2112dec0f04 secs=40648befbd273d5c tasks=21/8 out=be4f98383f541da1",
    "s2010/barrier/none/spec-off/comb-off trace=08e1d4e2f68467de secs=4050741322f27350 tasks=10/4 out=717776facd02ffa4",
    "s2010/barrier/midmap/spec-off/comb-off trace=1eb86b9467e61238 secs=405210bda5119ce0 tasks=12/5 out=717776facd02ffa4",
    "s2010/barrier/midshuffle/spec-off/comb-off trace=de7615621c9dae27 secs=4058533779e9d0ea tasks=12/5 out=717776facd02ffa4",
    "s2010/barrier/two/spec-off/comb-off trace=6c17138b6852e8c2 secs=4059a8d084e831ad tasks=14/6 out=717776facd02ffa4",
    "s2010/barrier/none/spec-off/comb-on trace=3ed07fd61e58bbfe secs=404b156af038e2a0 tasks=10/4 out=717776facd02ffa4",
    "s2010/barrier/midmap/spec-off/comb-on trace=ce754c05d4871110 secs=404e97720c8cd63d tasks=12/5 out=717776facd02ffa4",
    "s2010/barrier/midshuffle/spec-off/comb-on trace=029f6367b68677e8 secs=4054d2d8127b2cc7 tasks=12/5 out=717776facd02ffa4",
    "s2010/barrier/two/spec-off/comb-on trace=940aa72910d51577 secs=40575cb0ff10ecb7 tasks=14/6 out=717776facd02ffa4",
    "s2010/barrier/none/spec-on/comb-off trace=5e03854699521877 secs=40543f271bcdbbe0 tasks=16/6 out=717776facd02ffa4",
    "s2010/barrier/midmap/spec-on/comb-off trace=25d4ec9acb169baa secs=4053689cf13cee9e tasks=17/7 out=717776facd02ffa4",
    "s2010/barrier/midshuffle/spec-on/comb-off trace=e753f9710717d3f7 secs=405436cc03793144 tasks=16/6 out=717776facd02ffa4",
    "s2010/barrier/two/spec-on/comb-off trace=84c5335b3b4bd3e4 secs=40659b123c42a66e tasks=23/8 out=717776facd02ffa4",
    "s2010/barrier/none/spec-on/comb-on trace=8eb9c3c42bb9104a secs=4051c2a3e39f7729 tasks=16/6 out=717776facd02ffa4",
    "s2010/barrier/midmap/spec-on/comb-on trace=d2fddee4046c8d2f secs=40517fa6ce358299 tasks=17/7 out=717776facd02ffa4",
    "s2010/barrier/midshuffle/spec-on/comb-on trace=b7dae9f7f5515e4e secs=4051bf3315d701da tasks=16/6 out=717776facd02ffa4",
    "s2010/barrier/two/spec-on/comb-on trace=166942a3ec5f9327 secs=4061a55c0b999136 tasks=24/8 out=717776facd02ffa4",
    "s2010/inmem/none/spec-off/comb-off trace=067a3f6454dc7899 secs=404880793dd97f63 tasks=10/4 out=717776facd02ffa4",
    "s2010/inmem/midmap/spec-off/comb-off trace=8bf3db634219fa05 secs=404bab2018a43bb4 tasks=12/5 out=717776facd02ffa4",
    "s2010/inmem/midshuffle/spec-off/comb-off trace=596f2a6b75220cba secs=405345d4067cf1c3 tasks=12/5 out=717776facd02ffa4",
    "s2010/inmem/two/spec-off/comb-off trace=2435f306393b4fba secs=40550e69f8c21e1d tasks=14/6 out=717776facd02ffa4",
    "s2010/inmem/none/spec-off/comb-on trace=a294a316e51e749f secs=4047b1f455a7d242 tasks=10/4 out=717776facd02ffa4",
    "s2010/inmem/midmap/spec-off/comb-on trace=d0064165412f1e93 secs=404ac2d3ae685db7 tasks=12/5 out=717776facd02ffa4",
    "s2010/inmem/midshuffle/spec-off/comb-on trace=27d202fa5243dee4 secs=4052c57a9e2bcf92 tasks=12/5 out=717776facd02ffa4",
    "s2010/inmem/two/spec-off/comb-on trace=3b8896697836d5b4 secs=405484d8b60f1b26 tasks=14/6 out=717776facd02ffa4",
    "s2010/inmem/none/spec-on/comb-off trace=b8386c2104d55ced secs=40505b45f9df548f tasks=16/5 out=717776facd02ffa4",
    "s2010/inmem/midmap/spec-on/comb-off trace=be4485e3ec95391b secs=4050d169014b599b tasks=17/7 out=717776facd02ffa4",
    "s2010/inmem/midshuffle/spec-on/comb-off trace=c47efa42d89c405f secs=405052eae18ac9f3 tasks=16/5 out=717776facd02ffa4",
    "s2010/inmem/two/spec-on/comb-off trace=7c215dfc8222f6ef secs=405fcbe008e9b38d tasks=23/8 out=717776facd02ffa4",
    "s2010/inmem/none/spec-on/comb-on trace=e74eef7fd5db78b3 secs=404fde57646ae3a4 tasks=16/5 out=717776facd02ffa4",
    "s2010/inmem/midmap/spec-on/comb-on trace=de499c64152ebd54 secs=4050710d844d013b tasks=17/7 out=717776facd02ffa4",
    "s2010/inmem/midshuffle/spec-on/comb-on trace=744df78549e97c8b secs=404fd775c8d9f905 tasks=16/5 out=717776facd02ffa4",
    "s2010/inmem/two/spec-on/comb-on trace=d6a3239cd7dcea9c secs=405f42fc371da37f tasks=23/8 out=717776facd02ffa4",
    "s2010/spill/none/spec-off/comb-off trace=99397c8b9df44786 secs=4048801f10667f91 tasks=10/4 out=717776facd02ffa4",
    "s2010/spill/midmap/spec-off/comb-off trace=728c53a6944f07c1 secs=404baabc6a7ef9db tasks=12/5 out=717776facd02ffa4",
    "s2010/spill/midshuffle/spec-off/comb-off trace=f79347ea889741d9 secs=4053457b28954a80 tasks=12/5 out=717776facd02ffa4",
    "s2010/spill/two/spec-off/comb-off trace=7ab8c6525b10ae19 secs=40550e1344806291 tasks=14/6 out=717776facd02ffa4",
    "s2010/spill/none/spec-off/comb-on trace=946fc4ed559f436c secs=4047b11f79420b3d tasks=10/4 out=717776facd02ffa4",
    "s2010/spill/midmap/spec-off/comb-on trace=b22a668aae065cb5 secs=404ac217ca2120e2 tasks=12/5 out=717776facd02ffa4",
    "s2010/spill/midshuffle/spec-off/comb-on trace=2c4e6cc3428d5e44 secs=4052c505d0fa58f7 tasks=12/5 out=717776facd02ffa4",
    "s2010/spill/two/spec-off/comb-on trace=95c5cdaea9cc0b2d secs=4054844523f67f4e tasks=14/6 out=717776facd02ffa4",
    "s2010/spill/none/spec-on/comb-off trace=c4ec02932e44f25b secs=40505af01fb82c2c tasks=16/5 out=717776facd02ffa4",
    "s2010/spill/midmap/spec-on/comb-off trace=55f5c414ec3e1b65 secs=4050d156eac86057 tasks=17/7 out=717776facd02ffa4",
    "s2010/spill/midshuffle/spec-on/comb-off trace=78f84abf9536e4f4 secs=405052950763a190 tasks=16/5 out=717776facd02ffa4",
    "s2010/spill/two/spec-on/comb-off trace=850b96f2f0cc0279 secs=405fcc5e74299d88 tasks=23/8 out=717776facd02ffa4",
    "s2010/spill/none/spec-on/comb-on trace=fd68b5433079b2cc secs=404fdd7aaac1094a tasks=16/5 out=717776facd02ffa4",
    "s2010/spill/midmap/spec-on/comb-on trace=2b8da42623fb4c00 secs=405070c88a47ecff tasks=17/7 out=717776facd02ffa4",
    "s2010/spill/midshuffle/spec-on/comb-on trace=44d8f7d7448faaa4 secs=404fd6990f301eac tasks=16/5 out=717776facd02ffa4",
    "s2010/spill/two/spec-on/comb-on trace=120a8dcff32e9a42 secs=405f43c692f6e829 tasks=23/8 out=717776facd02ffa4",
    "snap-secs/inmem trace=22a3ada555a299de secs=404e626afcce1c58 tasks=10/4 out=be4f98383f541da1",
    "snap-secs/barrier trace=b813defe55bdcee4 secs=405593c2ce464990 tasks=10/4 out=be4f98383f541da1",
    "snap-records/inmem/fault/spec-on trace=5f4a914119f6e530 secs=407052779207d4e1 tasks=17/5 out=be4f98383f541da1",
    "deadline/inmem trace=9987a5ea087b732a secs=40423b0cfe154435 tasks=10/4 out=1fada2d8b99661cc",
    "hashed/inmem/fault/comb-on trace=97055ba384ab1e70 secs=404b61f72f76e610 tasks=12/5 out=be4f98383f541da1",
];

#[rustfmt::skip]
const GOLDEN_CHAIN: &[&str] = &[
    "Streaming/bl-bl/none/spec-off trace=03bc4fd0d2e38d39 secs=40529491a32b12d3 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/upstream/spec-off trace=1eb50a963ffe0082 secs=40533bbfceb78898 tasks=12/5/6/2 restarts=1 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/downstream/spec-off trace=03bc4fd0d2e38d39 secs=40529491a32b12d3 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/starved0/spec-off trace=b3d791c2959cb705 secs=4065ef5666a98245 tasks=10/2/3/3 restarts=0 handoff=3/350 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/starved1/spec-off trace=83132018dddb43ca secs=4071a4b59253543b tasks=14/3/4/4 restarts=1 handoff=4/466 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/none/spec-on trace=b127be2a8af30a52 secs=40718fdcc319c5a4 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/upstream/spec-on trace=7ef720da467427cf secs=407194625b749add tasks=12/5/7/2 restarts=1 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/downstream/spec-on trace=b127be2a8af30a52 secs=40718fdcc319c5a4 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/starved0/spec-on trace=97266e3bd79f16ee secs=407938260e51d25b tasks=16/3/4/4 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Streaming/bl-bl/starved1/spec-on trace=9313ef56f8a6244d secs=406f2a47e49b1fac tasks=14/3/3/4 restarts=0 handoff=3/350 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/none/spec-off trace=67dfc477c65f19ed secs=4055294c55432874 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/upstream/spec-off trace=b717815e03e5a49d secs=40573783a53b8e4c tasks=12/5/6/2 restarts=1 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/downstream/spec-off trace=9640949b956f7cf3 secs=4055294c55432874 tasks=10/4/6/3 restarts=0 handoff=6/351 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/starved0/spec-off trace=2626c1d317bde0ce secs=407adb2b10ba6267 tasks=16/3/4/4 restarts=1 handoff=4/466 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/starved1/spec-off trace=b2ac3b9e83044faa secs=4068ecdb81301648 tasks=10/2/3/3 restarts=0 handoff=3/349 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/none/spec-on trace=3a7596f4b9063fc5 secs=407204df01b866e4 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/upstream/spec-on trace=126fefeec8f9ae83 secs=40724be67f90d9d7 tasks=12/5/7/2 restarts=1 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/downstream/spec-on trace=3a7596f4b9063fc5 secs=407204df01b866e4 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/starved0/spec-on trace=2094798265a092db secs=407d7d83e425aee6 tasks=16/3/4/4 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Streaming/barrier-bl/starved1/spec-on trace=252b62e3a43261a6 secs=40725d02d05f2885 tasks=14/3/3/4 restarts=0 handoff=3/350 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/none/spec-off trace=0d6ccd78ca4abf6e secs=405371358f2e05cd tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/upstream/spec-off trace=ea078ecb7ebb28f9 secs=405433170d62bf12 tasks=12/5/6/2 restarts=1 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/downstream/spec-off trace=0d6ccd78ca4abf6e secs=405371358f2e05cd tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/starved0/spec-off trace=31505995186ddff8 secs=40663834267839ce tasks=10/2/3/3 restarts=0 handoff=3/350 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/starved1/spec-off trace=dee1835d5354b659 secs=4071b92154434e33 tasks=14/3/4/4 restarts=1 handoff=4/466 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/none/spec-on trace=2c7bbc172f9fceb5 secs=407238eadf71eaff tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/upstream/spec-on trace=429dc7d2b899c105 secs=407238eadf71eaff tasks=12/5/7/2 restarts=1 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/downstream/spec-on trace=2c7bbc172f9fceb5 secs=407238eadf71eaff tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/starved0/spec-on trace=110a95f393f38deb secs=407956fee2c98e54 tasks=16/3/4/4 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Streaming/bl-barrier/starved1/spec-on trace=7d2074002b7087eb secs=406f48656cd6c2f0 tasks=14/3/3/4 restarts=0 handoff=3/350 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/none/spec-off trace=967d96d78fb1271f secs=4052d1dcdb37c99b tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/upstream/spec-off trace=34e0348dca57be3c secs=4052cbf6e82949a5 tasks=12/5/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/downstream/spec-off trace=967d96d78fb1271f secs=4052d1dcdb37c99b tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/starved0/spec-off trace=3383ce22d5913e47 secs=406613b8c5436b90 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/starved1/spec-off trace=03caf0677077aaea secs=4065d96ee30caa32 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/none/spec-on trace=ff94a0655ebb415c secs=40719ce09246bf01 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/upstream/spec-on trace=8851ac3ea1f93549 secs=40719ce09246bf01 tasks=12/6/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/downstream/spec-on trace=ff94a0655ebb415c secs=40719ce09246bf01 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/starved0/spec-on trace=af2279d3c1556408 secs=4065cf808a697aee tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-bl/starved1/spec-on trace=9dd90b122f4d8c9a secs=406544be33acd5b7 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/none/spec-off trace=3dd8b8502658ab9b secs=4056bfd58c8eef1c tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/upstream/spec-off trace=582f249822fa0076 secs=4059cc5379fa97e1 tasks=12/5/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/downstream/spec-off trace=3dd8b8502658ab9b secs=4056bfd58c8eef1c tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/starved0/spec-off trace=b906b90d47d3bac9 secs=406937b20d9945b7 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/starved1/spec-off trace=7f8daed54d9f7e57 secs=4068fd682b62845a tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/none/spec-on trace=156bab86cd0dd80f secs=40729fd1eeaa6d26 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/upstream/spec-on trace=7a3502c4caeedd14 secs=40729fd1eeaa6d26 tasks=12/6/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/downstream/spec-on trace=156bab86cd0dd80f secs=40729fd1eeaa6d26 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/starved0/spec-on trace=247a8779cf9725a1 secs=40698c3a08398a65 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/barrier-bl/starved1/spec-on trace=42053ad7f0738fe9 secs=40690177b17ce52e tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/none/spec-off trace=49a0bf690013f165 secs=40538c7bf61aa3f0 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/upstream/spec-off trace=376a02cf3dddfd8b secs=40538696030c23fb tasks=12/5/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/downstream/spec-off trace=49a0bf690013f165 secs=40538c7bf61aa3f0 tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/starved0/spec-off trace=c30dfe596c94b6c6 secs=406646d2c9d16fca tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/starved1/spec-off trace=62c740c22dd77408 secs=406613cb48d3ae68 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/none/spec-on trace=05bba8d9f67a11ae secs=407251e14cec41dd tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/upstream/spec-on trace=63c49ea879405754 secs=407251e14cec41dd tasks=12/6/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/downstream/spec-on trace=05bba8d9f67a11ae secs=407251e14cec41dd tasks=10/4/4/2 restarts=0 handoff=4/233 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/starved0/spec-on trace=eb87c3d0b6ef6ee5 secs=40660d323358f2e0 tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
    "Barrier/bl-barrier/starved1/spec-on trace=7a6e1f70ff83fbf2 secs=4065702220bc382a tasks=10/2/3/3 restarts=0 handoff=4/466 out=777a4ec7367b5fbf",
];

#[rustfmt::skip]
const GOLDEN_SERVICE: &[&str] = &[
    "service/s5/early3 evictions=110 done=240/240 ends=78534ab146339d0c trace=d52f5ad9f673dc31",
    "service/s5/spread4 evictions=219 done=240/240 ends=c483f87357c2f0d9 trace=d6b0292a64a2129b",
    "service/s5/late5 evictions=180 done=240/240 ends=34a6fe7b4744d2b8 trace=f8ce8cab9cb474b1",
    "service/s29/early3 evictions=112 done=240/240 ends=483051a2e696ff6a trace=7d870a9fb98bef7b",
    "service/s29/spread4 evictions=171 done=240/240 ends=5e90106fd712afb1 trace=da06be45a8c988a3",
    "service/s29/late5 evictions=187 done=240/240 ends=ad62ef43ba9c8787 trace=eebdf5dce452b2fa",
];
