//! Chained jobs: `grep → sort` log analysis with no barrier *between*
//! the jobs.
//!
//! Job 1 (Distributed Grep, the Identity class) filters error lines out
//! of a generated log; job 2 (Sort) orders the matching timestamps.
//! Classic frameworks materialize job 1's full output before job 2's
//! map stage may start. With [`HandoffMode::Streaming`] every record a
//! grep reducer emits is run through the sort stage's map function on
//! the spot and shipped into the sort reducers' shuffle — sort work
//! overlaps grep work, and the final output is identical byte for byte.
//!
//! ```sh
//! cargo run --release --example job_chain
//! ```

use barrier_mapreduce::apps::sort::RangePartitioner;
use barrier_mapreduce::apps::{Grep, Sort};
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{ChainSpec, Engine, HandoffMode, HashPartitioner, JobConfig};

/// A deterministic "log": every fifth line is an error, ids are
/// timestamps.
fn log_splits() -> Vec<Vec<(u64, String)>> {
    (0..8)
        .map(|chunk| {
            (0..500u64)
                .map(|line| {
                    let ts = chunk * 10_000 + line;
                    let text = if ts % 5 == 0 {
                        format!("ts={ts} level=error svc=db disk wobbled")
                    } else {
                        format!("ts={ts} level=info all good")
                    };
                    (ts, text)
                })
                .collect()
        })
        .collect()
}

fn main() {
    let splits = log_splits();
    let total_lines: usize = splits.iter().map(Vec::len).sum();
    let grep = Grep::new("level=error");
    let runner = LocalRunner::new(4);

    let mut outputs = Vec::new();
    for engine in [Engine::Barrier, Engine::barrierless()] {
        for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
            let spec = ChainSpec::new(vec![
                JobConfig::new(3).engine(engine.clone()),
                JobConfig::new(2).engine(engine.clone()),
            ])
            .handoff(handoff);
            let out = runner
                .run_chain2(
                    &grep,
                    &Sort,
                    splits.clone(),
                    &spec,
                    &HashPartitioner,
                    &RangePartitioner::uniform(2),
                )
                .expect("chain run");
            println!(
                "engine {:<12} handoff {:<10} matches {:>5}  handoff batches {:>4}  first handoff {}",
                format!("{engine:?}").split(' ').next().unwrap(),
                format!("{handoff:?}"),
                out.stages[0].handoff_records,
                out.stages[0].handoff_batches,
                out.stages[0]
                    .first_handoff_secs
                    .map_or("after stage 1".to_string(), |s| format!("{:.4}s", s)),
            );
            outputs.push(out.output.partitions.clone());
        }
    }

    // The point of the exercise: four engine × handoff combinations, one
    // byte-identical answer.
    for pair in outputs.windows(2) {
        assert_eq!(pair[0], pair[1], "chained output depends on the mode");
    }
    let matches: Vec<u64> = outputs[0].iter().flatten().map(|(ts, _)| *ts).collect();
    assert_eq!(matches.len(), total_lines / 5);
    assert!(matches.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    println!(
        "\n{} of {} log lines matched; output globally sorted and identical under every mode",
        matches.len(),
        total_lines
    );
}
