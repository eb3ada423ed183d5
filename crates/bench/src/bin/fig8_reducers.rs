//! Figure 8: genetic algorithm with varying numbers of reducers (30–70 on
//! 60 reduce slots).
//!
//! The paper's observations: completion time falls as reducers approach
//! the slot capacity (60), then jumps at 70 when a second reducer wave is
//! needed; the barrier-less improvement *shrinks* toward full utilisation
//! and *grows again* once the second wave re-introduces mapper slack.

use mr_bench::appcfg::run_ga;
use mr_bench::chart::{line_chart, table};
use mr_bench::stats::improvement_pct;
use mr_core::Engine;

fn main() {
    let mappers = 120;
    println!("== Figure 8: GA with varying reducers ({mappers} mappers, 60 reduce slots) ==\n");
    let mut with_barrier = Vec::new();
    let mut without = Vec::new();
    let mut rows = Vec::new();
    for reducers in [30usize, 40, 50, 60, 70] {
        let b = run_ga(mappers, reducers, Engine::Barrier, 42);
        let p = run_ga(mappers, reducers, Engine::barrierless(), 42);
        let (tb, tp) = (b.completion_secs(), p.completion_secs());
        with_barrier.push((reducers as f64, tb));
        without.push((reducers as f64, tp));
        rows.push(vec![
            reducers.to_string(),
            format!("{tb:.1}"),
            format!("{tp:.1}"),
            format!("{:+.1}%", improvement_pct(tb, tp)),
            format!("{:.1}", p.mapper_slack_secs()),
            format!("{}", p.reduce_tasks_run),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "reducers",
                "barrier (s)",
                "barrier-less (s)",
                "improvement",
                "mapper slack (s)",
                "reduce tasks"
            ],
            &rows
        )
    );
    println!();
    print!(
        "{}",
        line_chart(
            "GA completion time vs number of reducers",
            "reducers",
            "time (s)",
            &[("with barrier", with_barrier), ("without barrier", without)],
            64,
            14,
        )
    );
}
