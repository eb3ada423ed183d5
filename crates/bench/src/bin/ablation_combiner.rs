//! Ablation: map-side combining × engine.
//!
//! The barrier-less pipeline makes the shuffle the hot path — every
//! record crosses the network the moment it is produced — so the classic
//! communication-volume levers (combining, batching) matter *more*
//! without the barrier, not less. This sweep toggles the combiner under
//! both engines on WordCount and reports simulated shuffle bytes,
//! completion time, and the record reduction, verifying along the way
//! that the output is byte-identical with combining on or off.
//!
//! A second section runs the real threaded executor (small input) and
//! shows the same invariant plus the transport counters: combined
//! records are what actually crossed the batched shuffle channels.

use mr_bench::appcfg::{run_wordcount, scratch, WC_HEAP_SCALE};
use mr_bench::chart::table;
use mr_bench::stats::improvement_pct;
use mr_core::counters::names;
use mr_core::local::LocalRunner;
use mr_core::{CombinerPolicy, Engine, JobConfig, SnapshotPolicy};
use mr_workloads::TextWorkload;

fn engine_label(e: &Engine) -> &'static str {
    match e {
        Engine::Barrier => "barrier",
        Engine::BarrierLess { .. } => "barrier-less",
    }
}

fn main() {
    println!("== Ablation: map-side combining x engine (WordCount) ==\n");

    // ---------------------------------------------- simulated cluster
    println!("--- simulated cluster (4 GB, 40 reducers, paper testbed) ---");
    let mut rows = Vec::new();
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let mut outputs = Vec::new();
        let mut baseline_secs = f64::NAN;
        let mut baseline_bytes = 0u64;
        for combiner in [CombinerPolicy::Disabled, CombinerPolicy::enabled()] {
            let report = run_wordcount(
                4.0,
                40,
                engine.clone(),
                42,
                combiner,
                SnapshotPolicy::Disabled,
            );
            assert!(
                report.outcome.is_completed(),
                "{} combine={:?} failed",
                engine_label(&engine),
                combiner
            );
            let secs = report.outcome.completion_secs().unwrap();
            let shuffle_gb = report.shuffle_bytes as f64 / (1 << 30) as f64;
            let out = report.output.expect("completed");
            let combined_in = out.counters.get(names::COMBINE_INPUT_RECORDS);
            let combined_out = out.counters.get(names::COMBINE_OUTPUT_RECORDS);
            let records = if combiner.is_enabled() {
                format!("{combined_in} -> {combined_out}")
            } else {
                format!("{}", out.counters.get(names::MAP_OUTPUT_RECORDS))
            };
            outputs.push(out.into_sorted_output());
            let delta = if combiner.is_enabled() {
                format!("{:+.1}%", improvement_pct(baseline_secs, secs))
            } else {
                baseline_secs = secs;
                baseline_bytes = report.shuffle_bytes;
                "-".to_string()
            };
            rows.push(vec![
                engine_label(&engine).to_string(),
                if combiner.is_enabled() { "on" } else { "off" }.to_string(),
                format!("{shuffle_gb:.2}"),
                format!("{secs:.1}"),
                delta,
                records,
            ]);
            if combiner.is_enabled() {
                let last = rows.last_mut().unwrap();
                let reduction = 100.0 * (1.0 - report.shuffle_bytes as f64 / baseline_bytes as f64);
                last[2] = format!("{shuffle_gb:.2} (-{reduction:.0}%)");
            }
        }
        assert_eq!(
            outputs[0],
            outputs[1],
            "combining changed {} output",
            engine_label(&engine)
        );
    }
    print!(
        "{}",
        table(
            &[
                "engine",
                "combiner",
                "shuffle (GB)",
                "completion (s)",
                "vs off",
                "shuffle records"
            ],
            &rows
        )
    );
    println!("\n(byte-exact output invariant verified for both engines)\n");

    // --------------------------------------------- real local executor
    println!("--- real threaded executor (LocalRunner, 16 chunks) ---");
    let w = TextWorkload {
        seed: 42,
        vocab: 2_000,
        zipf_s: 1.0,
        lines_per_chunk: 400,
        words_per_line: 8,
    };
    let splits: Vec<Vec<(u64, String)>> = (0..16).map(|c| w.chunk(c)).collect();
    let mut rows = Vec::new();
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let mut outputs = Vec::new();
        for combiner in [CombinerPolicy::Disabled, CombinerPolicy::enabled()] {
            let cfg = JobConfig::new(8)
                .engine(engine.clone())
                .combiner(combiner)
                .heap_scale(WC_HEAP_SCALE)
                .scratch_dir(scratch());
            let start = std::time::Instant::now();
            let out = LocalRunner::new(4)
                .run(&mr_apps::WordCount, splits.clone(), &cfg)
                .expect("local run");
            let wall = start.elapsed().as_secs_f64() * 1e3;
            let map_out = out.counters.get(names::MAP_OUTPUT_RECORDS);
            let shuffled = if combiner.is_enabled() {
                out.counters.get(names::COMBINE_OUTPUT_RECORDS)
            } else {
                map_out
            };
            rows.push(vec![
                engine_label(&engine).to_string(),
                if combiner.is_enabled() { "on" } else { "off" }.to_string(),
                format!("{map_out}"),
                format!("{shuffled}"),
                format!("{}", out.counters.get(names::SHUFFLE_BATCHES)),
                format!("{wall:.1}"),
            ]);
            outputs.push(out.into_sorted_output());
        }
        assert_eq!(
            outputs[0],
            outputs[1],
            "combining changed local {} output",
            engine_label(&engine)
        );
    }
    print!(
        "{}",
        table(
            &[
                "engine",
                "combiner",
                "map records",
                "shuffle records",
                "batches",
                "wall (ms)"
            ],
            &rows
        )
    );
    println!("\n(byte-exact output invariant verified on the real executor too)");
}
