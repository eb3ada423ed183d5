//! Figure 5: reducer heap usage over time for WordCount on a 16 GB
//! dataset with 10 reducers.
//!
//! (a) The in-memory TreeMap grows until it exhausts the heap and the job
//!     is killed. (b) Disk spill-and-merge (240 MB threshold) keeps the
//!     footprint bounded and the job completes.
//!
//! Both halves are asserted: the binary exits non-zero if (a) does not
//! fail out of memory, or if (b) does not complete with its busiest
//! reducer's heap samples under the cap.

use mr_bench::appcfg::{
    scratch, wc_costs, wc_workload, WC_HEAP_CAP, WC_HEAP_SCALE, WC_SPILL_THRESHOLD,
};
use mr_bench::chart::line_chart;
use mr_cluster::{ClusterParams, FnInput, Outcome, SimExecutor};
use mr_core::{Engine, HashPartitioner, JobConfig, MemoryPolicy, TraceQuery};

fn run(
    policy: MemoryPolicy,
    cap: Option<u64>,
) -> mr_cluster::SimReport<mr_apps::wordcount::WordCount> {
    let w = wc_workload(42);
    let mut cfg = JobConfig::new(10)
        .engine(Engine::BarrierLess { memory: policy })
        .heap_scale(WC_HEAP_SCALE)
        .scratch_dir(scratch());
    cfg.heap_cap_bytes = cap;
    SimExecutor::new(ClusterParams::paper_testbed(42)).run(
        &mr_apps::wordcount::WordCount,
        &FnInput(move |c| w.chunk(c)),
        mr_bench::appcfg::chunks_for_gb(16.0),
        &cfg,
        &wc_costs(),
        &HashPartitioner,
    )
}

/// The heap samples come straight off the run's unified trace (the
/// simulator exports it for failed runs too — policy, not outcome,
/// gates tracing, and figure (a)'s whole point is the pre-kill curve).
fn busiest_reducer_series(
    report: &mr_cluster::SimReport<mr_apps::wordcount::WordCount>,
) -> (usize, Vec<(f64, f64)>) {
    let q = TraceQuery::new(&report.trace);
    let busiest = q
        .heap_samples(0)
        .into_iter()
        .max_by_key(|&(_, _, bytes)| bytes)
        .map(|(reducer, _, _)| reducer)
        .unwrap_or(0);
    let series: Vec<(f64, f64)> = q
        .heap_series(0, busiest)
        .into_iter()
        .map(|(t, b)| (t, b as f64 / (1 << 20) as f64))
        .collect();
    (busiest as usize, series)
}

fn main() {
    println!("== Figure 5: WordCount 16 GB, 10 reducers — heap over time ==\n");
    let cap_line = |len: f64| {
        vec![
            (0.0, (WC_HEAP_CAP >> 20) as f64),
            (len, (WC_HEAP_CAP >> 20) as f64),
        ]
    };

    // (a) Unbounded TreeMap under a hard heap cap: dies.
    let inmem = run(MemoryPolicy::InMemory, Some(WC_HEAP_CAP));
    let (r, series) = busiest_reducer_series(&inmem);
    let end = series.last().map(|p| p.0).unwrap_or(1.0);
    println!("--- (a) complete TreeMap in memory ---");
    print!(
        "{}",
        line_chart(
            &format!("heap of reducer {r} (MB) vs time (s)"),
            "time (s)",
            "MB",
            &[("heap used", series), ("maximum heap", cap_line(end))],
            66,
            14,
        )
    );
    let Outcome::Failed { at, reason } = &inmem.outcome else {
        panic!(
            "in-memory run ended {:?} — raise input size to reproduce the OOM",
            inmem.outcome
        )
    };
    assert!(
        reason.contains("exceeded heap"),
        "in-memory run failed for another reason: {reason}"
    );
    println!(
        "  job KILLED at {:.1}s: {reason}\n  (paper: out-of-memory error, job fails at ~80s)\n",
        at.as_secs_f64()
    );

    // (b) Spill and merge at the paper's 240 MB threshold: completes.
    let spill = run(
        MemoryPolicy::SpillMerge {
            threshold_bytes: WC_SPILL_THRESHOLD,
        },
        None,
    );
    let (r, series) = busiest_reducer_series(&spill);
    assert!(!series.is_empty(), "spill run recorded no heap samples");
    // MB back to bytes is exact: the series divided by a power of two.
    assert!(
        series
            .iter()
            .all(|&(_, mb)| mb * (1 << 20) as f64 <= WC_HEAP_CAP as f64),
        "spill run's reducer {r} heap exceeded the {WC_HEAP_CAP}-byte cap"
    );
    let end = series.last().map(|p| p.0).unwrap_or(1.0);
    println!("--- (b) disk spill and merge (threshold 240 MB) ---");
    print!(
        "{}",
        line_chart(
            &format!("heap of reducer {r} (MB) vs time (s)"),
            "time (s)",
            "MB",
            &[("heap used", series), ("maximum heap", cap_line(end))],
            66,
            14,
        )
    );
    let Outcome::Completed { at } = &spill.outcome else {
        panic!("spill run ended {:?}", spill.outcome)
    };
    let out = spill.output.as_ref().expect("completed");
    println!(
        "  job completed at {:.1}s; spills written: {}, spill bytes: {} MB (modelled)\n  (paper: job completes successfully under the same threshold)",
        at.as_secs_f64(),
        out.counters.get(mr_core::counters::names::SPILL_FILES),
        (out.counters.get(mr_core::counters::names::SPILL_BYTES) as f64
            * WC_HEAP_SCALE
            / (1 << 20) as f64)
            .round(),
    );
}
