//! `fig_chain_overlap` — collapsing the barrier *between* concatenated
//! jobs.
//!
//! The paper's strongest claim beyond single-job pipelining: for chained
//! MapReduce jobs, job N+1's map stage can start consuming job N's
//! reduce output while job N is still running. This figure runs the
//! `wordcount → top-k` chain on the simulated testbed under both
//! handoff modes and plots per-stage activity over time. Three
//! assertions pin the paper-shaped result:
//!
//! 1. the streaming chain's stage-2 map work starts *before* job 1's
//!    last reducer finishes (overlap exists),
//! 2. the barrier chain's stage 2 starts only after job 1 completes
//!    (and its materialized output is written and re-read), and
//! 3. the streaming chain *finishes* before the barrier chain's stage 2
//!    even starts — the whole downstream job rides inside the window
//!    the barrier baseline spends materializing and gating.
//!
//! Run: `cargo run --release -p mr-bench --bin fig_chain_overlap`

use mr_apps::topk::TopK;
use mr_apps::wordcount::WordCount;
use mr_bench::appcfg::{wc_costs, wc_workload};
use mr_bench::chart::line_chart;
use mr_cluster::{ChainSimExecutor, ChainSimReport, ClusterParams, CostModel, FnInput, SpanKind};
use mr_core::{ChainSpec, Engine, HandoffMode, HashPartitioner, JobConfig, TraceQuery};

/// The chain's cost model: WordCount's calibration with a heavyweight
/// intermediate dataset (the chain's whole point is not materializing
/// it) and a cheap downstream map transform.
fn chain_costs() -> CostModel {
    CostModel {
        // A bulky intermediate dataset (nominal wire bytes per real
        // handed-off byte): the barrier baseline pays its replicated DFS
        // write plus the re-read at the seam; the streaming chain ships
        // the same volume as overlapped flows and never touches the DFS.
        chain_handoff_byte_scale: 32768.0,
        chain_map_cpu_per_record: 5.0e-4,
        // The downstream job condenses: light shuffle, cheap fold, tiny
        // output — top-k keeps O(k) state per record stream.
        shuffle_selectivity: 0.1,
        reduce_cpu_per_record: 2.0e-4,
        output_selectivity: 0.05,
        ..wc_costs()
    }
}

fn run(gb: f64, handoff: HandoffMode, seed: u64) -> ChainSimReport<TopK> {
    let chunks = ((gb * 1024.0) / 64.0).round().max(1.0) as u64;
    let w = wc_workload(seed);
    let spec = ChainSpec::new(vec![
        JobConfig::new(8).engine(Engine::barrierless()),
        JobConfig::new(2).engine(Engine::barrierless()),
    ])
    .handoff(handoff);
    ChainSimExecutor::new(ClusterParams::paper_testbed(seed)).run_chain2(
        &WordCount,
        &TopK::new(20),
        &FnInput(move |c| w.chunk(c)),
        chunks,
        &spec,
        &chain_costs(),
        &HashPartitioner,
        &HashPartitioner,
    )
}

/// Active stage-1-reduce and stage-2 task counts over time, read
/// straight off the chain's unified trace (stage 1 = job 0, stage 2 =
/// job 1).
fn activity_series(report: &ChainSimReport<TopK>) -> Vec<(&'static str, Vec<(f64, f64)>)> {
    let q = TraceQuery::new(&report.trace);
    let horizon = q.last_end_secs();
    let step = (horizon / 60.0).max(1.0);
    let to_f64 = |series: Vec<(f64, usize)>| {
        series
            .into_iter()
            .map(|(x, y)| (x, y as f64))
            .collect::<Vec<_>>()
    };
    vec![
        (
            "job1 reduce",
            to_f64(q.series(0, SpanKind::ShuffleReduce, step, horizon)),
        ),
        (
            "job2 map",
            to_f64(q.series(1, SpanKind::Map, step, horizon)),
        ),
        (
            "job2 reduce",
            to_f64(q.series(1, SpanKind::ShuffleReduce, step, horizon)),
        ),
    ]
}

fn main() {
    let gb = 1.0;
    let seed = 23;
    let streaming = run(gb, HandoffMode::Streaming, seed);
    let barrier = run(gb, HandoffMode::Barrier, seed);
    assert!(streaming.outcome.is_completed(), "streaming chain failed");
    assert!(barrier.outcome.is_completed(), "barrier chain failed");

    let s_first = streaming
        .stage2_first_work
        .expect("streaming stage 2 ran")
        .as_secs_f64();
    let b_first = barrier
        .stage2_first_work
        .expect("barrier stage 2 ran")
        .as_secs_f64();
    let s_total = streaming.completion_secs();
    let b_total = barrier.completion_secs();

    println!("fig_chain_overlap — wordcount → top-k at {gb} GB, 8 → 2 reducers\n");
    for (name, r) in [("streaming", &streaming), ("barrier", &barrier)] {
        println!(
            "  {name:<10} stage-1 reduce done {:>7.1}s  stage-1 complete {:>7.1}s  \
             stage-2 first work {:>7.1}s  total {:>7.1}s  handoff edges {:>3}",
            r.stage1_last_reduce_done.as_secs_f64(),
            r.stage1_complete.as_secs_f64(),
            r.stage2_first_work.unwrap().as_secs_f64(),
            r.completion_secs(),
            r.handoff_edges,
        );
    }
    println!();
    println!(
        "{}",
        line_chart(
            "streaming handoff: stage activity over time",
            "seconds",
            "active tasks",
            &activity_series(&streaming),
            72,
            14,
        )
    );
    println!(
        "{}",
        line_chart(
            "barrier handoff: stage activity over time",
            "seconds",
            "active tasks",
            &activity_series(&barrier),
            72,
            14,
        )
    );

    // 1. Overlap exists only without the inter-job barrier.
    assert!(
        streaming.overlapped(),
        "streaming chain: stage-2 work ({s_first:.1}s) never overlapped stage-1 \
         reduce (done {:.1}s)",
        streaming.stage1_last_reduce_done.as_secs_f64()
    );
    assert!(
        !barrier.overlapped() && b_first >= barrier.stage1_complete.as_secs_f64(),
        "barrier chain overlapped stages: first work {b_first:.1}s, stage 1 complete {:.1}s",
        barrier.stage1_complete.as_secs_f64()
    );
    // 2. Identical answers.
    let s_out = streaming.output.as_ref().unwrap();
    let b_out = barrier.output.as_ref().unwrap();
    assert_eq!(
        s_out.partitions, b_out.partitions,
        "handoff mode changed the chained output"
    );
    // 3. The paper-shaped headline: the barrier-less chain FINISHES
    //    before the barrier chain's stage 2 even STARTS.
    assert!(
        s_total < b_first,
        "streaming chain total ({s_total:.1}s) did not beat the barrier chain's \
         stage-2 start ({b_first:.1}s)"
    );
    println!(
        "streaming chain finished at {s_total:.1}s — {:.1}s before the barrier chain's \
         stage 2 started ({b_first:.1}s); barrier chain total {b_total:.1}s ({:.0}% slower)",
        b_first - s_total,
        100.0 * (b_total / s_total - 1.0),
    );
}
