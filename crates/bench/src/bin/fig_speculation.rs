//! `fig_speculation` — straggler mitigation on a heterogeneous cluster:
//! speculative backup attempts plus deadline-bounded approximate answers.
//!
//! The paper's simulator plays a Hadoop-style scheduler, so it can also
//! reproduce the two classic late-stage mitigations the barrier-less
//! engine composes with:
//!
//! * **Speculation** (LATE-style): when a task falls behind its peers —
//!   by progress or because its node is measurably slow — the scheduler
//!   launches one backup attempt on the fastest free node. First attempt
//!   to finish wins; the loser is cancelled. Exact-mode output must stay
//!   byte-identical, because winner resolution happens before any output
//!   is written.
//! * **Deadlines**: an SLA on top of snapshots. If the deadline fires
//!   before completion, the job answers with the latest per-reducer
//!   snapshot estimates and reports `Outcome::Approximate`.
//!
//! This figure sweeps speculation on/off across node-speed spreads and
//! both engines, asserting that the *worst-seed* (p99 stand-in) job time
//! drops under speculation at high heterogeneity while every individual
//! run's output stays byte-identical — then demonstrates the deadline
//! path and asserts the approximate answer equals the last published
//! snapshot exactly.
//!
//! Run: `cargo run --release -p mr-bench --bin fig_speculation`

use mr_bench::appcfg::{chunks_for_gb, scratch, wc_costs, wc_workload};
use mr_bench::chart::table;
use mr_bench::stats::improvement_pct;
use mr_cluster::{ClusterParams, FnInput, SimExecutor, SimReport, SpecEvent};
use mr_core::{
    DeadlinePolicy, Engine, HashPartitioner, JobConfig, SnapshotPolicy, SpeculationPolicy,
    TraceQuery,
};

/// Input size: 2 GB = 32 chunks — enough map waves on the 15-node
/// testbed for stragglers to matter, small enough for a CI smoke run.
const GB: f64 = 2.0;
const REDUCERS: usize = 20;
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The default production-style policy: check every 5 s, call a task a
/// straggler at 1.2x its peers. Tighter slowdown thresholds would chase
/// marginal stragglers but start firing on legitimate spread (partition
/// skew, chunk locality) even on homogeneous clusters.
fn policy() -> SpeculationPolicy {
    SpeculationPolicy::enabled()
}

/// One WordCount run on the paper testbed with the given heterogeneity
/// spread and speculation policy.
fn run(
    engine: Engine,
    sigma: f64,
    noise: f64,
    seed: u64,
    spec: SpeculationPolicy,
) -> SimReport<mr_apps::WordCount> {
    let w = wc_workload(seed);
    let mut params = ClusterParams::paper_testbed(seed);
    params.hetero_sigma = sigma;
    params.task_noise_sigma = noise;
    params.speculation = Some(spec);
    let cfg = JobConfig::new(REDUCERS)
        .engine(engine)
        .scratch_dir(scratch());
    SimExecutor::new(params).run(
        &mr_apps::WordCount,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(GB),
        &cfg,
        &wc_costs(),
        &HashPartitioner,
    )
}

/// Worst observation — the p99 stand-in for an 8-seed sample.
fn p99(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sweep(engine: Engine, label: &str) {
    println!("--- {label} ---");
    let mut rows = Vec::new();
    for (sigma, noise) in [(0.0, 0.0), (0.4, 0.12), (0.8, 0.12)] {
        let (mut off, mut on) = (Vec::new(), Vec::new());
        let (mut launched, mut won, mut cancelled) = (0, 0, 0);
        for &seed in &SEEDS {
            let r_off = run(
                engine.clone(),
                sigma,
                noise,
                seed,
                SpeculationPolicy::Disabled,
            );
            let r_on = run(engine.clone(), sigma, noise, seed, policy());
            assert!(r_off.outcome.is_completed(), "{label}: baseline died");
            assert!(r_on.outcome.is_completed(), "{label}: speculative run died");
            // Byte-identical exact output, run by run: losers are
            // cancelled before they can write, so backups never change
            // the answer.
            let out_off = &r_off.output.as_ref().expect("completed").partitions;
            let out_on = &r_on.output.as_ref().expect("completed").partitions;
            assert_eq!(
                out_off, out_on,
                "{label}: speculation changed output (sigma={sigma} seed={seed})"
            );
            off.push(r_off.completion_secs());
            on.push(r_on.completion_secs());
            // Speculation marks come straight from the unified trace.
            let q = TraceQuery::new(&r_on.trace);
            launched += q.speculation_count(SpecEvent::Launched);
            won += q.speculation_count(SpecEvent::Won);
            cancelled += q.speculation_count(SpecEvent::Cancelled);
        }
        if sigma == 0.0 {
            // Homogeneous, noise-free: no task is a straggler, so the
            // detector must stay quiet (strict comparisons everywhere).
            assert_eq!(
                launched, 0,
                "{label}: speculation fired on a homogeneous noise-free cluster"
            );
        } else if sigma >= 0.8 {
            // The headline claim: backups cut the straggler tail.
            assert!(won > 0, "{label}: no backup ever won at sigma={sigma}");
            assert!(
                p99(&on) < p99(&off),
                "{label}: speculation did not improve worst-seed time at \
                 sigma={sigma} (off={:?} on={:?})",
                off,
                on
            );
        }
        rows.push(vec![
            format!("{sigma:.1}"),
            format!("{:.1}", p99(&off)),
            format!("{:.1}", p99(&on)),
            format!("{:+.1}%", improvement_pct(p99(&off), p99(&on))),
            format!("{launched}"),
            format!("{won}"),
            format!("{cancelled}"),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "hetero sigma",
                "p99 off (s)",
                "p99 on (s)",
                "improvement",
                "launched",
                "won",
                "cancelled"
            ],
            &rows
        )
    );
    println!();
}

/// The deadline demonstration: exact run first (to size the deadline),
/// then the same job cut off halfway, answered from snapshots.
fn deadline_demo() {
    let seed = 7;
    let w = wc_workload(seed);
    let cfg_base = || {
        JobConfig::new(REDUCERS)
            .engine(Engine::barrierless())
            .snapshots(SnapshotPolicy::EverySecs { secs: 5.0 })
            .scratch_dir(scratch())
    };
    let exact = SimExecutor::new(ClusterParams::paper_testbed(seed)).run(
        &mr_apps::WordCount,
        &FnInput({
            let w = w.clone();
            move |c| w.chunk(c)
        }),
        chunks_for_gb(GB),
        &cfg_base(),
        &wc_costs(),
        &HashPartitioner,
    );
    assert!(exact.outcome.is_completed());
    let full = exact.completion_secs();
    let at = full * 0.5;

    let cut = SimExecutor::new(ClusterParams::paper_testbed(seed)).run(
        &mr_apps::WordCount,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(GB),
        &cfg_base().deadline(DeadlinePolicy::At { secs: at }),
        &wc_costs(),
        &HashPartitioner,
    );
    assert!(
        cut.outcome.is_approximate(),
        "deadline at {at:.1}s of a {full:.1}s job should cut it short, got {:?}",
        cut.outcome
    );
    let out = cut.output.as_ref().expect("approximate runs carry output");
    // The approximate answer IS the latest published snapshot, verbatim:
    // partition p equals the estimate of p's highest-seq snapshot (empty
    // when p never published).
    let mut estimated_records = 0usize;
    for (p, partition) in out.partitions.iter().enumerate() {
        let last = out.snapshots[p].last();
        let expect: &[(String, u64)] = last.map_or(&[], |s| &s.estimate);
        assert_eq!(
            partition.as_slice(),
            expect,
            "partition {p}: approximate answer is not the last snapshot"
        );
        estimated_records += partition.len();
    }
    assert!(
        estimated_records > 0,
        "deadline answer was empty — snapshots never published before {at:.1}s"
    );
    println!("--- deadline-bounded approximate answer (barrier-less WordCount) ---");
    println!("  exact completion: {full:.1}s; deadline: {at:.1}s (50%)");
    println!(
        "  outcome: Approximate with {estimated_records} records across {} partitions,",
        out.partitions.len()
    );
    println!("  each partition byte-equal to its reducer's last published snapshot");
}

fn main() {
    println!("== fig_speculation: straggler mitigation via speculative backups ==");
    println!(
        "   (WordCount {GB:.0} GB, {REDUCERS} reducers, paper testbed, {} seeds;",
        SEEDS.len()
    );
    println!("    p99 = worst seed; speculation checks every 5 s at 1.2x slowdown)\n");
    sweep(Engine::Barrier, "barrier engine");
    sweep(Engine::barrierless(), "barrier-less engine");
    deadline_demo();
    println!(
        "\nSpeculation never fires on a homogeneous quiet cluster, never changes\n\
         exact output, and cuts the worst-seed completion time once node speeds\n\
         spread; past the deadline, the job degrades to its freshest estimate."
    );
}
