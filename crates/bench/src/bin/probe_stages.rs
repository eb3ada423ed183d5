//! Diagnostic: stage timing breakdown for calibration (not a paper figure).

use mr_bench::appcfg::{run_knn, run_wordcount};
use mr_cluster::SpanKind;
use mr_core::{CombinerPolicy, Engine, SnapshotPolicy, TraceQuery};

fn main() {
    let knn = |engine| run_knn(16.0, 40, engine, 42, SnapshotPolicy::Disabled).1;
    for (name, report) in [("knn barrier 16GB", knn(Engine::Barrier))] {
        let t = TraceQuery::new(&report.trace);
        println!("=== {name} ===");
        println!(
            "first_map {:.1} last_map {:.1} shuffle_done {:.1} total {:.1}",
            report.first_map_done.as_secs_f64(),
            report.last_map_done.as_secs_f64(),
            report.shuffle_done.as_secs_f64(),
            report.completion_secs()
        );
        for kind in [
            SpanKind::Map,
            SpanKind::Shuffle,
            SpanKind::SortReduce,
            SpanKind::Output,
        ] {
            if let Some((s, e)) = t.kind_window(0, kind) {
                println!("  {kind:?}: {s:.1} .. {e:.1}");
            }
        }
    }
    let report = knn(Engine::barrierless());
    println!("=== knn barrierless 16GB ===");
    println!(
        "last_map {:.1} shuffle_done {:.1} total {:.1}",
        report.last_map_done.as_secs_f64(),
        report.shuffle_done.as_secs_f64(),
        report.completion_secs()
    );
    let t = TraceQuery::new(&report.trace);
    for kind in [SpanKind::ShuffleReduce, SpanKind::Output] {
        if let Some((s, e)) = t.kind_window(0, kind) {
            println!("  {kind:?}: {s:.1} .. {e:.1}");
        }
    }
    let report = run_wordcount(
        16.0,
        40,
        Engine::Barrier,
        42,
        CombinerPolicy::Disabled,
        SnapshotPolicy::Disabled,
    );
    println!("=== wc barrier 16GB ===");
    println!(
        "last_map {:.1} shuffle_done {:.1} total {:.1}",
        report.last_map_done.as_secs_f64(),
        report.shuffle_done.as_secs_f64(),
        report.completion_secs()
    );
    let t = TraceQuery::new(&report.trace);
    for kind in [SpanKind::SortReduce, SpanKind::Output] {
        if let Some((s, e)) = t.kind_window(0, kind) {
            println!("  {kind:?}: {s:.1} .. {e:.1}");
        }
    }
}
