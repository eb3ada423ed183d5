//! Simulated-cluster run: WordCount on the paper's 15-worker testbed,
//! with and without the barrier — a miniature of Figure 4, showing where
//! each stage starts and ends and what the barrier costs.
//!
//! ```sh
//! cargo run --release --example cluster_simulation
//! ```

use barrier_mapreduce::cluster::{ClusterParams, CostModel, FnInput, SimExecutor, SpanKind};
use barrier_mapreduce::core::{Engine, HashPartitioner, JobConfig, TraceQuery};
use barrier_mapreduce::workloads::TextWorkload;

fn main() {
    let workload = TextWorkload::wikipedia(7);
    let chunks = 48; // 3 GB of 64 MB chunks
    let costs = CostModel {
        map_cpu_per_chunk: 45.0,
        shuffle_selectivity: 1.0,
        reduce_cpu_per_record: 5.0e-4,
        combine_cpu_per_record: 2.0e-4,
        absorb_extra_per_record: 0.0,
        kv_cpu_per_record: 0.03,
        sort_cpu_coeff: 3.2e-4,
        finalize_cpu_per_entry: 1.0e-3,
        snapshot_cpu_per_record: 1.0e-4,
        output_selectivity: 0.5,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    };

    for engine in [Engine::Barrier, Engine::barrierless()] {
        let label = match engine {
            Engine::Barrier => "WITH barrier",
            _ => "WITHOUT barrier",
        };
        let exec = SimExecutor::new(ClusterParams::paper_testbed(7));
        let cfg = JobConfig::new(40).engine(engine);
        let report = exec.run(
            &barrier_mapreduce::apps::WordCount,
            &FnInput(|c| workload.chunk(c)),
            chunks,
            &cfg,
            &costs,
            &HashPartitioner,
        );
        println!("== {label} ==");
        println!(
            "  maps: first done {:>6.1}s, last done {:>6.1}s (mapper slack {:.1}s)",
            report.first_map_done.as_secs_f64(),
            report.last_map_done.as_secs_f64(),
            report.mapper_slack_secs(),
        );
        for (kind, name) in [
            (SpanKind::Shuffle, "shuffle"),
            (SpanKind::SortReduce, "sort+reduce"),
            (SpanKind::ShuffleReduce, "shuffle+reduce"),
            (SpanKind::Output, "output write"),
        ] {
            if let Some((start, end)) = TraceQuery::new(&report.trace).kind_window(0, kind) {
                println!("  {name:<14} {start:>6.1}s .. {end:>6.1}s");
            }
        }
        println!(
            "  job completed {:>6.1}s | shuffled {} MB | {} map tasks, {} reduce tasks\n",
            report.completion_secs(),
            report.shuffle_bytes >> 20,
            report.map_tasks_run,
            report.reduce_tasks_run,
        );
    }
}
