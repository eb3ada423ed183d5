//! Ablation (the paper's §8 future work): how much of the barrier-less
//! benefit comes from cluster *heterogeneity* and link
//! *oversubscription* — the two sources of mapper slack the paper
//! identifies in §2.
//!
//! "It is possible that exploring the effects of heterogeneity may likely
//! yield larger improvements" — this sweep tests exactly that prediction:
//! the improvement should grow with the node-speed spread and with link
//! oversubscription, and shrink toward a homogeneous, uncontended
//! cluster.

use mr_bench::appcfg::{scratch, wc_costs, wc_workload};
use mr_bench::chart::table;
use mr_bench::stats::improvement_pct;
use mr_cluster::{ClusterParams, FnInput, SimExecutor};
use mr_core::{Engine, HashPartitioner, JobConfig};

fn run(sigma: f64, oversub: f64, engine: Engine) -> (f64, f64) {
    let mut params = ClusterParams::paper_testbed(42);
    params.hetero_sigma = sigma;
    params.oversubscription = oversub;
    let w = wc_workload(42);
    let cfg = JobConfig::new(40)
        .engine(engine)
        .heap_scale(mr_bench::appcfg::WC_HEAP_SCALE)
        .scratch_dir(scratch());
    let report = SimExecutor::new(params).run(
        &mr_apps::WordCount,
        &FnInput(move |c| w.chunk(c)),
        mr_bench::appcfg::chunks_for_gb(8.0),
        &cfg,
        &wc_costs(),
        &HashPartitioner,
    );
    (report.completion_secs(), report.mapper_slack_secs())
}

fn main() {
    println!("== Ablation: heterogeneity & oversubscription vs barrier-less benefit ==");
    println!("   (WordCount 8 GB, 40 reducers; paper §2 and §8)\n");

    println!("--- node-speed spread (oversubscription fixed at 2.0) ---");
    let mut rows = Vec::new();
    for sigma in [0.0, 0.1, 0.25, 0.4, 0.55] {
        let (tb, _) = run(sigma, 2.0, Engine::Barrier);
        let (tp, slack) = run(sigma, 2.0, Engine::barrierless());
        rows.push(vec![
            format!("{sigma:.2}"),
            format!("{tb:.1}"),
            format!("{tp:.1}"),
            format!("{:+.1}%", improvement_pct(tb, tp)),
            format!("{slack:.1}"),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "hetero sigma",
                "barrier (s)",
                "barrier-less (s)",
                "improvement",
                "mapper slack (s)"
            ],
            &rows
        )
    );

    println!("\n--- link oversubscription (sigma fixed at 0.25) ---");
    let mut rows = Vec::new();
    for oversub in [1.0, 2.0, 4.0, 8.0] {
        let (tb, _) = run(0.25, oversub, Engine::Barrier);
        let (tp, slack) = run(0.25, oversub, Engine::barrierless());
        rows.push(vec![
            format!("{oversub:.0}x"),
            format!("{tb:.1}"),
            format!("{tp:.1}"),
            format!("{:+.1}%", improvement_pct(tb, tp)),
            format!("{slack:.1}"),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "oversub",
                "barrier (s)",
                "barrier-less (s)",
                "improvement",
                "mapper slack (s)"
            ],
            &rows
        )
    );
    println!("\n(observed: slack does widen with both knobs, but the *relative* benefit");
    println!(" stays within a band — heterogeneity also stretches the barrier-less");
    println!(" finalize/output on slow nodes, partially offsetting the extra overlap.");
    println!(" The paper's §8 speculation that heterogeneity 'may likely yield larger");
    println!(" improvements' holds only weakly under this model: the dominant term is");
    println!(" the eliminated sort+reduce tail, not the slack itself.)");
}
