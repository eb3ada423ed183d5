//! `chain_stream`: `Grep("level=error") → Sort` as one two-job chain
//! with a streaming handoff, stage 2's map intake overlapping stage 1's
//! reducers on the same pool.

use super::{
    job_cfg, local_observations, trace_policy, Baseline, Ctx, Layers, Round, Workload, WORKERS,
};
use crate::inputs::{self, stream, Splits};
use crate::measure::timed;
use crate::oracle;
use crate::spans::Spans;
use mr_apps::sort::RangePartitioner;
use mr_apps::{Grep, Sort};
use mr_core::counters::names;
use mr_core::local::LocalRunner;
use mr_core::{
    Application, ChainSpec, ChainableApplication, Engine, FnEmit, HandoffMode, HashPartitioner,
    JobConfig,
};
use mr_workloads::mix;

const REDUCERS: usize = 4;
const PATTERN: &str = "level=error";

pub struct ChainJob {
    splits: Splits,
    /// Keys of the matching lines, ascending: what the chain must emit.
    reference: Vec<u64>,
    stage_cfg: JobConfig,
    /// Even cuts of the line-number key space, so stage 2's reducers
    /// share the sort the way a sampled total-order partitioner would.
    range: RangePartitioner,
}

impl ChainJob {
    pub fn new(ctx: &Ctx) -> Self {
        let s = &ctx.sizes;
        let splits =
            inputs::log_splits(mix(ctx.seed, stream::CHAIN), s.chain_splits, s.chain_lines);
        let lines = (s.chain_splits * s.chain_lines) as u64;
        ChainJob {
            reference: oracle::matching_keys_sorted(&splits, PATTERN),
            splits,
            stage_cfg: job_cfg(ctx, REDUCERS, Engine::barrierless()),
            range: RangePartitioner {
                bounds: (1..REDUCERS as u64)
                    .map(|i| i * lines / REDUCERS as u64)
                    .collect(),
            },
        }
    }

    fn spec(&self, traced: bool) -> ChainSpec {
        let stage = self.stage_cfg.clone().trace(trace_policy(traced));
        ChainSpec::new(vec![stage.clone(), stage]).handoff(HandoffMode::Streaming)
    }

    /// Whether concatenating the partitions in order gives the reference.
    fn check(&self, partitions: &[Vec<(u64, ())>]) -> bool {
        partitions.iter().map(Vec::len).sum::<usize>() == self.reference.len()
            && partitions
                .iter()
                .flatten()
                .map(|(k, ())| k)
                .eq(self.reference.iter())
    }
}

impl Workload for ChainJob {
    fn records_per_round(&self) -> u64 {
        self.splits.iter().map(|s| s.len() as u64).sum()
    }

    fn round(&mut self, traced: bool) -> Round {
        let spec = self.spec(traced);
        let grep = Grep::new(PATTERN);
        let input = self.splits.clone();
        let (result, wall_s, cpu_s) = timed(|| {
            LocalRunner::new(WORKERS).run_chain2(
                &grep,
                &Sort,
                input,
                &spec,
                &HashPartitioner,
                &self.range,
            )
        });
        match result {
            Ok(out) => {
                let ok = self.check(&out.output.partitions);
                let mut observed = Layers::new();
                if traced {
                    let counters = out.total_counters();
                    observed = local_observations(&out.trace, &counters);
                    observed.push((
                        "core.chain.handoff_records",
                        counters.get(names::CHAIN_HANDOFF_RECORDS) as f64,
                    ));
                    observed.push((
                        "core.chain.handoff_batches",
                        counters.get(names::CHAIN_HANDOFF_BATCHES) as f64,
                    ));
                }
                Round::single(wall_s, cpu_s, ok, observed)
            }
            Err(e) => {
                eprintln!("chain round failed: {e}");
                Round::single(wall_s, cpu_s, false, Vec::new())
            }
        }
    }

    fn layers(&mut self, spans: &mut Spans, base: &Baseline) -> Layers {
        let grep = Grep::new(PATTERN);
        let mut layers = Layers::new();

        let mut matched = 0u64;
        spans.span("apps.map", |_| {
            let mut sink = FnEmit(|_k: u64, line: String| {
                std::hint::black_box(&line);
                matched += 1;
            });
            for (k, v) in self.splits.iter().flatten() {
                grep.map(k, v, &mut sink);
            }
        });
        layers.push(("apps.map_records", matched as f64));

        // Each stage as a job of its own: what the chain would cost
        // with no overlap between stage 1's reducers and stage 2's maps.
        let input = self.splits.clone();
        let stage1 = spans
            .span("core.chain.stage1_alone", |_| {
                LocalRunner::new(WORKERS).run(&grep, input, &self.stage_cfg)
            })
            .expect("stage 1 alone");
        let handed: Vec<Vec<(u64, u64)>> = stage1
            .partitions
            .into_iter()
            .map(|p| p.into_iter().map(|(k, v)| Sort.adapt_input(k, v)).collect())
            .collect();
        let stage2 = spans
            .span("core.chain.stage2_alone", |_| {
                LocalRunner::new(WORKERS).run_with_partitioner(
                    &Sort,
                    handed,
                    &self.stage_cfg,
                    &self.range,
                )
            })
            .expect("stage 2 alone");
        assert!(
            self.check(&stage2.partitions),
            "stage-by-stage replay disagrees with the reference"
        );
        let alone =
            spans.self_secs("core.chain.stage1_alone") + spans.self_secs("core.chain.stage2_alone");
        layers.push(("core.chain.overlap_gain", alone / base.wall_s));
        layers.push(("core.local.overlap", base.overlap()));
        layers
    }
}
