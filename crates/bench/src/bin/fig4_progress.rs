//! Figure 4: system-wide progress of WordCount on a 3 GB dataset, with
//! and without the barrier — the count of tasks active in each stage over
//! time.
//!
//! The shapes to look for (paper §3.2): with the barrier, Reduce bars
//! appear only after the last map finishes; without it, the combined
//! Shuffle+Reduce stage starts as soon as the first mappers complete, and
//! the job ends shortly after the final map.

use mr_bench::appcfg::{barrierless, run_wordcount};
use mr_bench::chart::line_chart;
use mr_bench::stats::improvement_pct;
use mr_cluster::SpanKind;
use mr_core::{Engine, TraceQuery};

fn main() {
    let gb = 3.0;
    let reducers = 40;
    println!("== Figure 4: WordCount progress on a {gb} GB dataset ==\n");

    let barrier = run_wordcount(gb, reducers, Engine::Barrier, 42);
    let t_barrier = barrier.completion_secs();
    {
        let tl = TraceQuery::new(&barrier.trace);
        let horizon = tl.last_end_secs();
        let step = horizon / 60.0;
        let to_pts = |kind| {
            tl.series(0, kind, step, horizon)
                .into_iter()
                .map(|(x, y)| (x, y as f64))
                .collect::<Vec<_>>()
        };
        println!("--- (a) with barrier ---");
        print!(
            "{}",
            line_chart(
                "active tasks vs time (s)",
                "time (s)",
                "tasks",
                &[
                    ("Map", to_pts(SpanKind::Map)),
                    ("Shuffle", to_pts(SpanKind::Shuffle)),
                    ("Reduce", to_pts(SpanKind::SortReduce)),
                ],
                66,
                14,
            )
        );
        println!(
            "  first map done {:>6.1}s | last map done {:>6.1}s | shuffle done {:>6.1}s",
            barrier.first_map_done.as_secs_f64(),
            barrier.last_map_done.as_secs_f64(),
            barrier.shuffle_done.as_secs_f64(),
        );
        let reduce_window = tl.kind_window(0, SpanKind::SortReduce).expect("reduce ran");
        println!(
            "  reduce began   {:>6.1}s (after the barrier) | job completed {:>6.1}s\n",
            reduce_window.0, t_barrier
        );
    }

    let pipelined = run_wordcount(gb, reducers, barrierless(), 42);
    let t_pipelined = pipelined.completion_secs();
    {
        let tl = TraceQuery::new(&pipelined.trace);
        let horizon = tl.last_end_secs();
        let step = horizon / 60.0;
        let to_pts = |kind| {
            tl.series(0, kind, step, horizon)
                .into_iter()
                .map(|(x, y)| (x, y as f64))
                .collect::<Vec<_>>()
        };
        println!("--- (b) without barrier ---");
        print!(
            "{}",
            line_chart(
                "active tasks vs time (s)",
                "time (s)",
                "tasks",
                &[
                    ("Map", to_pts(SpanKind::Map)),
                    ("Shuffle+Reduce", to_pts(SpanKind::ShuffleReduce)),
                    ("Output", to_pts(SpanKind::Output)),
                ],
                66,
                14,
            )
        );
        let sr = tl.kind_window(0, SpanKind::ShuffleReduce).expect("ran");
        println!(
            "  first map done {:>6.1}s | last map done {:>6.1}s",
            pipelined.first_map_done.as_secs_f64(),
            pipelined.last_map_done.as_secs_f64(),
        );
        println!(
            "  shuffle+reduce began {:>6.1}s (overlapping maps) | job completed {:>6.1}s",
            sr.0, t_pipelined
        );
        println!(
            "  gap between final map and job end: {:.1}s (paper: ~10s)\n",
            t_pipelined - pipelined.last_map_done.as_secs_f64()
        );
    }

    println!(
        "improvement in job completion time: {:.1}% (paper: ~30% for this experiment)",
        improvement_pct(t_barrier, t_pipelined)
    );
}
