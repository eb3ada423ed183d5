//! Ablation: snapshot policy × engine — what does observation cost?
//!
//! Snapshots are pure observation, so two things must hold at every
//! point of this sweep: the final output is byte-identical to the
//! snapshot-free run, and the only visible difference is time (wall
//! time on the real executor; charged virtual time in the simulator via
//! `CostModel::snapshot_cpu_per_record`). Three sections: the real
//! threaded executor under increasingly aggressive record-driven
//! policies, the spill store (whose snapshots must re-read its runs to
//! stay self-consistent), and one simulated-cluster A/B.
//!
//! Run: `cargo run --release -p mr-bench --bin ablation_snapshot`

use mr_bench::appcfg::{run_wordcount, scratch};
use mr_bench::chart::table;
use mr_core::counters::names;
use mr_core::local::LocalRunner;
use mr_core::{CombinerPolicy, Engine, JobConfig, MemoryPolicy, SnapshotPolicy};
use mr_workloads::TextWorkload;
use std::time::Instant;

/// Best-of-3 wall milliseconds.
fn best_of_3(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    println!("== Ablation: snapshot policy x engine (WordCount) ==\n");
    let w = TextWorkload {
        seed: 42,
        vocab: 2_000,
        zipf_s: 1.0,
        lines_per_chunk: 400,
        words_per_line: 8,
    };
    let splits: Vec<Vec<(u64, String)>> = (0..16).map(|c| w.chunk(c)).collect();

    // ----------------------------------------- real threaded executor
    println!("--- real threaded executor (LocalRunner, 16 chunks, barrier-less) ---");
    let policies: [(&str, SnapshotPolicy); 4] = [
        ("disabled", SnapshotPolicy::Disabled),
        (
            "every 8192 rec",
            SnapshotPolicy::EveryRecords { records: 8192 },
        ),
        (
            "every 1024 rec",
            SnapshotPolicy::EveryRecords { records: 1024 },
        ),
        (
            "every 128 rec",
            SnapshotPolicy::EveryRecords { records: 128 },
        ),
    ];
    let mut rows = Vec::new();
    let mut baseline_ms = f64::NAN;
    let mut baseline_out = None;
    // Both real-executor sections run on one pool worker: the absorb
    // order, and with it every column not derived from wall time, repeats
    // exactly from run to run.
    for (label, policy) in policies {
        let cfg = JobConfig::new(8)
            .engine(Engine::barrierless())
            .snapshots(policy)
            .pool_workers(1)
            .scratch_dir(scratch());
        let wall_ms = best_of_3(|| {
            LocalRunner::new(4)
                .run(&mr_apps::WordCount, splits.clone(), &cfg)
                .expect("local run");
        });
        let out = LocalRunner::new(4)
            .run(&mr_apps::WordCount, splits.clone(), &cfg)
            .expect("local run");
        let snaps = out.counters.get(names::SNAPSHOT_COUNT);
        let snap_records = out.counters.get(names::SNAPSHOT_RECORDS);
        let overhead = if baseline_ms.is_nan() {
            baseline_ms = wall_ms;
            "-".to_string()
        } else {
            format!("{:+.0}%", 100.0 * (wall_ms / baseline_ms - 1.0))
        };
        rows.push(vec![
            label.to_string(),
            format!("{wall_ms:.1}"),
            snaps.to_string(),
            snap_records.to_string(),
            overhead,
        ]);
        let sorted = out.into_sorted_output();
        match &baseline_out {
            None => baseline_out = Some(sorted),
            Some(reference) => assert_eq!(
                reference, &sorted,
                "snapshot policy {label} changed the final output"
            ),
        }
    }
    print!(
        "{}",
        table(
            &["policy", "wall (ms)", "snapshots", "est. records", "vs off"],
            &rows
        )
    );
    println!("\n(byte-exact final output at every row)\n");

    // ------------------------------------------------- the spill store
    println!("--- spill store (threshold 16 KiB): snapshots merge the spilled runs ---");
    let mut rows = Vec::new();
    let mut spill_outputs = Vec::new();
    for (label, policy) in [
        ("disabled", SnapshotPolicy::Disabled),
        (
            "every 4096 rec",
            SnapshotPolicy::EveryRecords { records: 4096 },
        ),
    ] {
        let cfg = JobConfig::new(4)
            .engine(Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 16 << 10,
                },
            })
            .snapshots(policy)
            .pool_workers(1)
            .scratch_dir(scratch());
        let wall_ms = best_of_3(|| {
            LocalRunner::new(4)
                .run(&mr_apps::WordCount, splits.clone(), &cfg)
                .expect("spill run");
        });
        let out = LocalRunner::new(4)
            .run(&mr_apps::WordCount, splits.clone(), &cfg)
            .expect("spill run");
        assert!(
            out.counters.get(names::SPILL_FILES) > 0,
            "threshold never tripped"
        );
        rows.push(vec![
            label.to_string(),
            format!("{wall_ms:.1}"),
            out.counters.get(names::SPILL_FILES).to_string(),
            out.counters.get(names::SNAPSHOT_COUNT).to_string(),
            out.counters.get(names::SNAPSHOT_BYTES).to_string(),
        ]);
        spill_outputs.push(out.into_sorted_output());
    }
    assert_eq!(
        spill_outputs[0], spill_outputs[1],
        "snapshots changed spill-store output"
    );
    print!(
        "{}",
        table(
            &[
                "policy",
                "wall (ms)",
                "spill files",
                "snapshots",
                "snap bytes"
            ],
            &rows
        )
    );
    println!(
        "\n(byte-exact output; snapshots of a spilled store merge its runs\n\
         with the live map on every walk — the snap-bytes column is that cost)\n"
    );

    // ---------------------------------------------- simulated cluster
    println!("--- simulated cluster (1 GB, 8 reducers): charged virtual time ---");
    let mut rows = Vec::new();
    let mut outputs = Vec::new();
    let mut base_secs = f64::NAN;
    for (label, policy) in [
        ("disabled", SnapshotPolicy::Disabled),
        ("every 60 sim-s", SnapshotPolicy::EverySecs { secs: 60.0 }),
        ("every 15 sim-s", SnapshotPolicy::EverySecs { secs: 15.0 }),
    ] {
        let start = Instant::now();
        let report = run_wordcount(
            1.0,
            8,
            Engine::barrierless(),
            7,
            CombinerPolicy::Disabled,
            policy,
        );
        let host_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(report.outcome.is_completed(), "sim failed under {label}");
        let secs = report.outcome.completion_secs().unwrap();
        let delta = if base_secs.is_nan() {
            base_secs = secs;
            "-".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (secs / base_secs - 1.0))
        };
        rows.push(vec![
            label.to_string(),
            format!("{secs:.1}"),
            delta,
            report.snapshots_taken.to_string(),
            format!("{host_ms:.0}"),
        ]);
        outputs.push(report.output.expect("completed").into_sorted_output());
    }
    for pair in outputs.windows(2) {
        assert_eq!(pair[0], pair[1], "snapshot policy changed simulated output");
    }
    print!(
        "{}",
        table(
            &[
                "policy",
                "sim completion (s)",
                "vs off",
                "snapshots",
                "host wall (ms)"
            ],
            &rows
        )
    );
    println!("\n(byte-exact output; aggressive ticking costs charged sim time, never bytes)");
}
