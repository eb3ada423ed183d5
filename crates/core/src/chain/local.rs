//! The chain driver for [`LocalRunner`]: runs a [`ChainSpec`] for real
//! on the shared worker pool.
//!
//! Under [`HandoffMode::Barrier`] each stage runs to completion and its
//! materialized output is adapted into the next stage's input splits —
//! the run-jobs-sequentially Hadoop baseline, byte-for-byte.
//!
//! Under [`HandoffMode::Streaming`] the stage boundary is the next
//! stage's shuffle: every upstream reduce task's sink *is* the
//! downstream stage's map side. Each record the reducer emits is
//! adapted, run through the downstream map function on the spot, and
//! the map output is batched into the downstream reducers' `FlatBatch`
//! channels by the same `ShuffleEmitter` a split map task uses — the
//! upstream partition is the downstream split. No typed record crosses
//! a core and no task sits between one stage's reduce output and the
//! next stage's map function. All stages' task state machines are
//! spawned onto **one** `Pool` and driven by a fixed number of OS
//! threads (the max of the stages' `pool_workers` knobs), so a K-stage
//! chain no longer costs K stages' worth of threads. Back-pressure is
//! preserved end to end without holding a thread anywhere: a slow
//! downstream reducer fills its shuffle channel, which *parks* the
//! upstream reduce task feeding it until the channel drains.
//!
//! # Determinism
//!
//! The chained output is byte-identical to the sequential baseline for
//! any final stage whose reduce output is a pure function of its input
//! *multiset* — every keyed-state application (aggregation, selection,
//! sorting) qualifies, because the partial store drains in key order at
//! finalize regardless of arrival order. Applications that emit during
//! `absorb` in arrival order (Identity, cross-key windows) keep exactly
//! the determinism they had under the single-job barrier-less engine:
//! the multiset of output records is identical, their order within a
//! partition follows the stream interleaving.

use crate::chain::{ChainOutput, ChainableApplication, StageStats};
use crate::config::{ChainSpec, HandoffMode, JobConfig};
use crate::counters::{names, Counters};
use crate::error::{MrError, MrResult};
use crate::local::pool::{Ctx, Pool, PoolSender};
use crate::local::{
    collect_stage, spawn_mappers, spawn_reducers, FlatBatch, InputSplit, LocalRunner, ReduceSink,
    ShuffleEmitter, StageState, StageTrace,
};
use crate::output::JobOutput;
use crate::partition::Partitioner;
use crate::traits::{Application, Emit};
use mr_trace::{Scope, TraceEvent, TraceInstant, TraceLog};
use std::time::Instant;

/// A materialized output partition of stage `X`.
type StageOut<X> = Vec<(<X as Application>::OutKey, <X as Application>::OutValue)>;

/// One stage of a streaming chain as the pool sees it: its application,
/// config and shared state.
type Stage<'a, A, S> = (&'a A, &'a JobConfig, &'a StageState<A, S>);

/// Per-boundary handoff bookkeeping: one upstream partition's, or every
/// upstream partition's of one stage merged.
#[derive(Debug, Default)]
struct HandoffStats {
    records: u64,
    batches: u64,
    bytes: u64,
    first_secs: Option<f64>,
}

impl HandoffStats {
    fn charge(&self, counters: &mut Counters) {
        counters.add(names::CHAIN_HANDOFF_RECORDS, self.records);
        counters.add(names::CHAIN_HANDOFF_BATCHES, self.batches);
        counters.add(names::CHAIN_HANDOFF_BYTES, self.bytes);
    }

    /// One record of `bytes` modelled bytes crossed the boundary.
    fn tally(&mut self, bytes: usize) {
        self.records += 1;
        self.bytes += bytes as u64;
    }

    /// Folds one upstream partition's tally into its stage's: records,
    /// bytes, the earliest first-record instant, and one handoff batch
    /// if the partition handed anything on — the batch rule of both
    /// handoff modes, so their `chain.handoff.*` counters agree.
    fn merge_partition(&mut self, part: &HandoffStats) {
        self.records += part.records;
        self.batches += u64::from(part.records > 0);
        self.bytes += part.bytes;
        self.first_secs = match (self.first_secs, part.first_secs) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// The streaming reduce-output sink of an upstream stage `X`: the map
/// side of the downstream stage `B`, fused into one upstream reduce
/// task. Each output record is adapted to `B`'s input type and mapped by
/// `B`'s map function, whose output goes through a [`ShuffleEmitter`]
/// straight into `B`'s reducer channels — the batching, combining and
/// split stamping of a split map task, with this upstream partition as
/// the split.
///
/// Sends never block the worker thread: the emitter's outbox is drained
/// by the owning reduce task via [`pump`](ReduceSink::pump), which parks
/// it while a downstream channel is full. Sealing ends the split;
/// closing finishes the emitter, charging `B`'s map-side counters and
/// releasing its senders — EOF for `B`'s reducers once every sink
/// feeding them closed.
struct FusedSink<'a, X, B: Application, P: Partitioner<B::MapKey>> {
    downstream: &'a B,
    emitter: ShuffleEmitter<'a, B, P>,
    trace: &'a StageTrace,
    /// The downstream split this sink maps, and when its span started.
    split: usize,
    t0: f64,
    /// The chain's clock, for the first-record instant.
    started: Instant,
    stats: HandoffStats,
    _upstream: std::marker::PhantomData<fn(X)>,
}

impl<'a, X, B: Application, P: Partitioner<B::MapKey>> FusedSink<'a, X, B, P> {
    /// A sink mapping into `down` as its split `split`, through the
    /// reducer senders `txs`.
    fn new<S>(
        down: Stage<'a, B, S>,
        partitioner: &'a P,
        txs: &[PoolSender<FlatBatch>],
        split: usize,
        started: Instant,
    ) -> Self {
        let (app, cfg, state) = down;
        let mut emitter = ShuffleEmitter::new(app, cfg, partitioner, txs.to_vec(), state);
        emitter.begin_split(split);
        FusedSink {
            downstream: app,
            emitter,
            trace: &state.trace,
            split,
            t0: state.trace.now(),
            started,
            stats: HandoffStats::default(),
            _upstream: std::marker::PhantomData,
        }
    }
}

impl<X, B, P> Emit<X::OutKey, X::OutValue> for FusedSink<'_, X, B, P>
where
    X: Application,
    B: ChainableApplication<X::OutKey, X::OutValue>,
    P: Partitioner<B::MapKey>,
{
    fn emit(&mut self, key: X::OutKey, value: X::OutValue) {
        if self.stats.first_secs.is_none() {
            self.stats.first_secs = Some(self.started.elapsed().as_secs_f64());
        }
        self.stats
            .tally(self.downstream.handoff_bytes(&key, &value));
        let (k, v) = self.downstream.adapt_input(key, value);
        self.downstream.map(&k, &v, &mut self.emitter);
    }
}

impl<X, B, P> ReduceSink<X> for FusedSink<'_, X, B, P>
where
    X: Application,
    B: ChainableApplication<X::OutKey, X::OutValue>,
    P: Partitioner<B::MapKey> + Sync,
{
    fn emitted(&self) -> u64 {
        self.stats.records
    }

    fn pump(&mut self, cx: &Ctx) -> bool {
        self.emitter.pump(cx)
    }

    fn seal(&mut self) {
        self.emitter.end_split();
    }

    fn close(&mut self) {
        self.emitter.finish();
        self.trace.map_span(self.split, self.t0);
    }

    fn into_partition(self) -> StageOut<X> {
        Vec::new() // the records are downstream already
    }
}

/// Spawns upstream stage `up`'s reduce tasks onto `pool`, each with the
/// map side of stage `down` fused into its sink: reducer `r` maps its
/// output into `down`'s shuffle (the reducers behind `txs`) as split
/// `r`. Returns `up`'s own reducer senders, for whatever maps into it.
fn spawn_fused<'a, X, B, P, S>(
    pool: &mut Pool<'a>,
    up: Stage<'a, X, FusedSink<'a, X, B, P>>,
    down: Stage<'a, B, S>,
    partitioner: &'a P,
    txs: &[PoolSender<FlatBatch>],
    started: Instant,
) -> MrResult<Vec<PoolSender<FlatBatch>>>
where
    X: Application,
    B: ChainableApplication<X::OutKey, X::OutValue>,
    P: Partitioner<B::MapKey> + Sync,
{
    let (app, cfg, state) = up;
    spawn_reducers(pool, state, app, cfg, |r| {
        FusedSink::new(down, partitioner, txs, r, started)
    })
}

/// Everything one finished stage contributes to the chain result.
struct StageParts {
    counters: Counters,
    reports: Vec<crate::engine::DriverReport>,
    /// The boundary this stage fed (`None` for the final stage).
    handoff: Option<HandoffStats>,
    finished_secs: f64,
    /// The stage run's own log, still scoped to job 0.
    trace: TraceLog,
}

impl StageParts {
    /// What the stage that produced `out` contributes, having finished
    /// at `finished_secs` and fed `handoff`. The stage's log moves out of
    /// `out` (the chain log replaces it); counters and reports are
    /// copied, because the final stage's output keeps its own.
    fn of<X: Application>(
        out: &mut JobOutput<X>,
        finished_secs: f64,
        handoff: Option<HandoffStats>,
    ) -> Self {
        StageParts {
            counters: out.counters.clone(),
            reports: out.reports.clone(),
            handoff,
            finished_secs,
            trace: std::mem::take(&mut out.trace),
        }
    }
}

/// Appends stage `job`'s chain-boundary events to the chain log: the
/// charged `chain.handoff.*` counter totals (zeros included, so the
/// log's counter events sum to the stage's counters), a handoff mark at
/// the boundary's first-record instant, and the stage-done mark.
fn push_stage_marks(log: &mut TraceLog, job: u32, handoff: Option<&HandoffStats>, finished: f64) {
    let scope = Scope::job(job);
    if let Some(h) = handoff {
        let mut charged = Counters::new();
        h.charge(&mut charged);
        for (name, value) in charged.iter() {
            log.push(
                scope,
                TraceEvent::Counter {
                    label: name.to_string().into(),
                    delta: value,
                },
            );
        }
        if let Some(at) = h.first_secs {
            log.push(
                scope,
                TraceEvent::HandoffMark {
                    at: TraceInstant::Wall { secs: at },
                    downstream_map: 0,
                    records: h.records,
                    bytes: h.bytes,
                },
            );
        }
    }
    log.push(
        scope,
        TraceEvent::StageDone {
            at: TraceInstant::Wall { secs: finished },
        },
    );
}

/// Whether the chain exports a log: only when every stage records one,
/// because the chain log concatenates the stage logs and one untraced
/// stage would leave a hole in it. The returned [`StageStats`] do not
/// depend on this.
fn chain_tracing(spec: &ChainSpec) -> bool {
    spec.stages.iter().all(|c| c.trace.is_enabled())
}

/// Assembles the chain result from the finished stages. Every
/// [`StageStats`] is built from its stage's parts, the boundary's
/// `chain.handoff.*` charges added to the stage's counters. When the
/// chain traces, the stage logs are merged into one chain log too:
/// stage `j`'s events re-scoped to job `j`, then its boundary marks.
fn assemble_chain<B: Application>(
    spec: &ChainSpec,
    parts: Vec<StageParts>,
    mut output: JobOutput<B>,
) -> ChainOutput<B> {
    let trace_on = chain_tracing(spec);
    let mut trace = TraceLog::new();
    let mut stages = Vec::with_capacity(parts.len());
    for (j, mut p) in parts.into_iter().enumerate() {
        if trace_on {
            let job = j as u32;
            for mut e in p.trace.entries {
                e.scope.job = job;
                trace.push(e.scope, e.event);
            }
            push_stage_marks(&mut trace, job, p.handoff.as_ref(), p.finished_secs);
        }
        if let Some(h) = &p.handoff {
            h.charge(&mut p.counters);
        }
        let handoff = p.handoff.unwrap_or_default();
        stages.push(StageStats {
            counters: p.counters,
            reports: p.reports,
            handoff_records: handoff.records,
            handoff_batches: handoff.batches,
            handoff_bytes: handoff.bytes,
            first_handoff_secs: handoff.first_secs,
            finished_secs: p.finished_secs,
        });
    }
    // The final stage's log now lives (re-scoped) in the chain log.
    output.trace = TraceLog::new();
    ChainOutput {
        output,
        stages,
        trace,
    }
}

/// The barrier handoff of both chain shapes: runs the upstream stages
/// (`spec.stages[..len - 1]`) in order, each over the splits the stage
/// before it built (`splits` for the first), adapting its partitions
/// through `downstream` into the next stage's splits, then runs the last
/// stage over what the final upstream stage built — the
/// run-jobs-sequentially baseline. *How* a stage runs over its splits is
/// the caller's: `run_up` gets its input and config.
fn barrier_fold<A, B>(
    downstream: &B,
    spec: &ChainSpec,
    mut splits: Vec<InputSplit<B>>,
    mut run_up: impl FnMut(Vec<InputSplit<B>>, &JobConfig) -> MrResult<JobOutput<A>>,
    run_down: impl FnOnce(Vec<InputSplit<B>>, &JobConfig) -> MrResult<JobOutput<B>>,
) -> MrResult<ChainOutput<B>>
where
    A: Application,
    B: ChainableApplication<A::OutKey, A::OutValue>,
{
    let started = Instant::now();
    let (last, upstream) = spec
        .stages
        .split_last()
        .expect("a validated spec has a stage");
    let mut parts = Vec::with_capacity(spec.len());
    for cfg in upstream {
        let mut out = run_up(splits, cfg)?;
        let finished_secs = started.elapsed().as_secs_f64();
        let mut stats = HandoffStats::default();
        splits = std::mem::take(&mut out.partitions)
            .into_iter()
            .map(|partition| {
                let mut part = HandoffStats::default();
                let split = partition
                    .into_iter()
                    .map(|(k, v)| {
                        part.tally(downstream.handoff_bytes(&k, &v));
                        downstream.adapt_input(k, v)
                    })
                    .collect();
                stats.merge_partition(&part);
                split
            })
            .collect();
        parts.push(StageParts::of(&mut out, finished_secs, Some(stats)));
    }
    let mut out = run_down(splits, last)?;
    parts.push(StageParts::of(
        &mut out,
        started.elapsed().as_secs_f64(),
        None,
    ));
    Ok(assemble_chain(spec, parts, out))
}

/// The pool width a streaming chain runs at: the widest stage's
/// `pool_workers`.
fn pool_width(spec: &ChainSpec) -> usize {
    spec.stages
        .iter()
        .map(|c| c.pool_workers)
        .max()
        .unwrap_or(1)
}

/// Collects a streaming chain once its pool has drained: each upstream
/// stage with the handoff its sinks fed, then the final stage, whose
/// output is the chain's.
fn collect_streamed<X, B, P>(
    spec: &ChainSpec,
    upstream: &[StageState<X, FusedSink<'_, X, B, P>>],
    last: &StageState<B, StageOut<B>>,
) -> MrResult<ChainOutput<B>>
where
    X: Application,
    B: ChainableApplication<X::OutKey, X::OutValue>,
    P: Partitioner<B::MapKey> + Sync,
{
    let mut parts = Vec::with_capacity(upstream.len() + 1);
    for state in upstream {
        let run = collect_stage(state)?;
        let mut handoff = HandoffStats::default();
        for sink in &run.sinks {
            handoff.merge_partition(&sink.stats);
        }
        let finished_secs = run.finished_secs;
        let mut out = run.into_job_output();
        parts.push(StageParts::of(&mut out, finished_secs, Some(handoff)));
    }
    let run = collect_stage(last)?;
    let finished_secs = run.finished_secs;
    let mut out = run.into_job_output();
    parts.push(StageParts::of(&mut out, finished_secs, None));
    Ok(assemble_chain(spec, parts, out))
}

impl LocalRunner {
    /// Runs a two-job chain: `first`'s reduce output, adapted through
    /// [`ChainableApplication::adapt_input`], becomes `second`'s map
    /// input. `spec` must hold exactly two stage configs.
    ///
    /// Under the barrier handoff this is literally the sequential
    /// baseline (run job 1, materialize, run job 2); under the streaming
    /// handoff both stages' task graphs share one worker pool and job
    /// 2's map function runs inside job 1's reduce tasks, as they emit.
    pub fn run_chain2<A, B, PA, PB>(
        &self,
        first: &A,
        second: &B,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        spec: &ChainSpec,
        pa: &PA,
        pb: &PB,
    ) -> MrResult<ChainOutput<B>>
    where
        A: Application,
        B: ChainableApplication<A::OutKey, A::OutValue>,
        PA: Partitioner<A::MapKey> + Sync,
        PB: Partitioner<B::MapKey> + Sync,
    {
        if spec.len() != 2 {
            return Err(MrError::InvalidConfig(format!(
                "run_chain2 needs exactly 2 stages, spec has {}",
                spec.len()
            )));
        }
        spec.validate()?;
        if spec.handoff == HandoffMode::Barrier {
            let mut input = Some(splits);
            return barrier_fold(
                second,
                spec,
                Vec::new(),
                |_, cfg| {
                    let splits = input.take().expect("one upstream stage");
                    self.run_with_partitioner(first, splits, cfg, pa)
                },
                |splits, cfg| self.run_with_partitioner(second, splits, cfg, pb),
            );
        }

        // Streaming: the downstream reducers first, then job 1's reducers
        // fused into them, then job 1's map tasks.
        let started = Instant::now();
        let (up_cfg, down_cfg) = (&spec.stages[0], &spec.stages[1]);
        let upstream: [StageState<A, FusedSink<'_, A, B, PB>>; 1] = [StageState::new(up_cfg)];
        let last: StageState<B, StageOut<B>> = StageState::new(down_cfg);
        let mut pool = Pool::new();
        let txs = spawn_reducers(&mut pool, &last, second, down_cfg, |_| Vec::new())?;
        let up = (first, up_cfg, &upstream[0]);
        let down = (second, down_cfg, &last);
        let up_txs = spawn_fused(&mut pool, up, down, pb, &txs, started)?;
        spawn_mappers(
            &mut pool,
            &upstream[0],
            first,
            up_cfg,
            pa,
            &splits,
            self.map_threads,
            up_txs,
        );
        // EOF for the downstream reducers is the last fused sink's close.
        drop(txs);
        pool.run(pool_width(spec))?;
        collect_streamed(spec, &upstream, &last)
    }

    /// Runs a homogeneous K-stage chain: the same application `app` runs
    /// `spec.len()` times, each stage consuming the previous stage's
    /// reduce output through its own
    /// [`adapt_input`](ChainableApplication::adapt_input) — the
    /// iterative-job driver (e.g. one genetic-algorithm generation per
    /// stage).
    ///
    /// Under the streaming handoff all K stages are live at once on one
    /// worker pool: stage `j`'s reducers run stage `j + 1`'s map function
    /// on their emissions as they happen, so an entire iterative pipeline
    /// runs with no inter-job barrier anywhere — and no per-stage thread
    /// tree either. A one-stage spec is just the job, under either
    /// handoff.
    pub fn run_chain_iter<A, P>(
        &self,
        app: &A,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        spec: &ChainSpec,
        partitioner: &P,
    ) -> MrResult<ChainOutput<A>>
    where
        A: ChainableApplication<<A as Application>::OutKey, <A as Application>::OutValue>,
        P: Partitioner<A::MapKey> + Sync,
    {
        spec.validate()?;
        let k = spec.len();
        if k == 1 || spec.handoff == HandoffMode::Barrier {
            // Each stage takes the splits the previous one built as its
            // input. Intermediate generations are moved across, not
            // cloned: only the final generation's partitions survive, as
            // the chain output.
            let run =
                |splits, cfg: &JobConfig| self.run_with_partitioner(app, splits, cfg, partitioner);
            return barrier_fold(app, spec, splits, run, run);
        }

        // Streaming: all K stages live on one pool, downstream first.
        // Stage j's reducers map into stage j + 1's shuffle, so only
        // stage 0 has map tasks of its own.
        let started = Instant::now();
        let upstream: Vec<StageState<A, FusedSink<'_, A, A, P>>> =
            spec.stages[..k - 1].iter().map(StageState::new).collect();
        let last: StageState<A, StageOut<A>> = StageState::new(&spec.stages[k - 1]);
        let mut pool = Pool::new();
        let mut txs = spawn_reducers(&mut pool, &last, app, &spec.stages[k - 1], |_| Vec::new())?;
        for j in (0..k - 1).rev() {
            let up = (app, &spec.stages[j], &upstream[j]);
            let down_cfg = &spec.stages[j + 1];
            txs = match upstream.get(j + 1) {
                Some(down) => {
                    let down = (app, down_cfg, down);
                    spawn_fused(&mut pool, up, down, partitioner, &txs, started)?
                }
                None => {
                    let down = (app, down_cfg, &last);
                    spawn_fused(&mut pool, up, down, partitioner, &txs, started)?
                }
            };
        }
        spawn_mappers(
            &mut pool,
            &upstream[0],
            app,
            &spec.stages[0],
            partitioner,
            &splits,
            self.map_threads,
            txs,
        );
        pool.run(pool_width(spec))?;
        collect_streamed(spec, &upstream, &last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Engine, JobConfig, MemoryPolicy};
    use crate::partition::HashPartitioner;
    use crate::testutil::{scratch_dir, CountHistogram, WordCountApp};

    fn text_splits(n_splits: usize, lines: usize) -> Vec<Vec<(u64, String)>> {
        let vocab = [
            "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
        ];
        let mut id = 0u64;
        (0..n_splits)
            .map(|s| {
                (0..lines)
                    .map(|l| {
                        let a = vocab[(s * 3 + l) % vocab.len()];
                        let b = vocab[(s + l * 5) % vocab.len()];
                        let c = vocab[(s * 7 + l * 2) % vocab.len()];
                        id += 1;
                        (id, format!("{a} {b} {c}"))
                    })
                    .collect()
            })
            .collect()
    }

    /// The ground truth: run WordCount and then [`CountHistogram`] on
    /// its output by hand (the histogram's `adapt_input` is the
    /// identity).
    fn sequential_reference(
        splits: Vec<Vec<(u64, String)>>,
        cfg1: &JobConfig,
        cfg2: &JobConfig,
    ) -> Vec<Vec<(String, u64)>> {
        let runner = LocalRunner::new(4);
        let out1 = runner.run(&WordCountApp, splits, cfg1).unwrap();
        runner
            .run(&CountHistogram, out1.partitions, cfg2)
            .unwrap()
            .partitions
    }

    fn spec2(cfg1: JobConfig, cfg2: JobConfig, handoff: HandoffMode) -> ChainSpec {
        ChainSpec::new(vec![cfg1, cfg2]).handoff(handoff)
    }

    #[test]
    fn streaming_chain_matches_sequential_baseline_across_engines() {
        let splits = text_splits(6, 30);
        let engines = [
            Engine::Barrier,
            Engine::barrierless(),
            Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 256,
                },
            },
        ];
        for e1 in &engines {
            for e2 in &engines {
                let cfg1 = JobConfig::new(3)
                    .engine(e1.clone())
                    .scratch_dir(scratch_dir("chain-eq1"));
                let cfg2 = JobConfig::new(2)
                    .engine(e2.clone())
                    .scratch_dir(scratch_dir("chain-eq2"));
                let expect = sequential_reference(splits.clone(), &cfg1, &cfg2);
                for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
                    let out = LocalRunner::new(4)
                        .run_chain2(
                            &WordCountApp,
                            &CountHistogram,
                            splits.clone(),
                            &spec2(cfg1.clone(), cfg2.clone(), handoff),
                            &HashPartitioner,
                            &HashPartitioner,
                        )
                        .unwrap();
                    assert_eq!(
                        out.output.partitions, expect,
                        "chain {handoff:?} diverged under {e1:?} -> {e2:?}"
                    );
                    assert_eq!(out.stages.len(), 2);
                    assert!(out.stages[0].handoff_records > 0);
                    assert_eq!(out.handoff_records(), out.stages[0].handoff_records);
                    assert_eq!(
                        out.stages[0].counters.get(names::CHAIN_HANDOFF_RECORDS),
                        out.stages[0].handoff_records
                    );
                    if handoff == HandoffMode::Streaming {
                        assert!(out.stages[0].first_handoff_secs.is_some());
                        assert!(out.stages[0].handoff_batches > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_chain_respects_the_combiner_knob() {
        let splits = text_splits(5, 24);
        let cfg1 = JobConfig::new(2).engine(Engine::barrierless());
        let cfg2 = JobConfig::new(2).engine(Engine::barrierless());
        let expect = sequential_reference(splits.clone(), &cfg1, &cfg2);
        for combine in [
            crate::config::CombinerPolicy::Disabled,
            crate::config::CombinerPolicy::enabled(),
        ] {
            let cfg1 = cfg1.clone().combiner(combine);
            let cfg2 = cfg2.clone().combiner(combine);
            let out = LocalRunner::new(4)
                .run_chain2(
                    &WordCountApp,
                    &CountHistogram,
                    splits.clone(),
                    &spec2(cfg1, cfg2, HandoffMode::Streaming),
                    &HashPartitioner,
                    &HashPartitioner,
                )
                .unwrap();
            assert_eq!(
                out.output.partitions, expect,
                "combiner {combine:?} changed chained output"
            );
        }
    }

    /// A one-byte shuffle budget on the *downstream* stage: every record
    /// a fused sink maps rides its own batch into the downstream shuffle.
    #[test]
    fn tiny_handoff_batches_still_deliver_everything() {
        let splits = text_splits(4, 20);
        let cfg1 = JobConfig::new(3).engine(Engine::barrierless());
        let cfg2 = JobConfig::new(2).engine(Engine::barrierless());
        let expect = sequential_reference(splits.clone(), &cfg1, &cfg2);
        for workers in [1usize, 2, 4] {
            let spec = spec2(
                cfg1.clone().pool_workers(workers),
                cfg2.clone().pool_workers(workers).shuffle_batch_bytes(1),
                HandoffMode::Streaming,
            );
            let out = LocalRunner::new(2)
                .run_chain2(
                    &WordCountApp,
                    &CountHistogram,
                    splits.clone(),
                    &spec,
                    &HashPartitioner,
                    &HashPartitioner,
                )
                .unwrap();
            assert_eq!(out.output.partitions, expect, "{workers}w");
            let down = &out.stages[1].counters;
            assert!(down.get(names::SHUFFLE_RECORDS) > 0);
            assert_eq!(
                down.get(names::SHUFFLE_BATCHES),
                down.get(names::SHUFFLE_RECORDS),
                "{workers}w: a fused emission shared a batch"
            );
        }
    }

    /// Splits whose WordCount output is `words` distinct words, each
    /// counted once: big enough that one upstream partition hands on
    /// more than 32 KiB of modelled bytes.
    fn wide_splits(n_splits: usize, words: usize) -> Vec<Vec<(u64, String)>> {
        (0..n_splits)
            .map(|s| {
                (0..words / n_splits)
                    .map(|l| {
                        let w = s * words + l;
                        (w as u64, format!("w{w}"))
                    })
                    .collect()
            })
            .collect()
    }

    /// `chain.handoff.*` and every `StageStats::handoff_*` count are one
    /// per upstream partition's records, bytes and (non-empty) batch,
    /// whichever handoff carried them, at any pool width.
    #[test]
    fn handoff_accounting_is_the_same_under_both_modes() {
        fn handoff_view(out: &ChainOutput<impl Application>) -> Vec<[u64; 6]> {
            out.stages
                .iter()
                .map(|s| {
                    [
                        s.handoff_records,
                        s.handoff_batches,
                        s.handoff_bytes,
                        s.counters.get(names::CHAIN_HANDOFF_RECORDS),
                        s.counters.get(names::CHAIN_HANDOFF_BATCHES),
                        s.counters.get(names::CHAIN_HANDOFF_BYTES),
                    ]
                })
                .collect()
        }
        let splits = wide_splits(3, 3000);
        let app = WordCountApp;
        for workers in [1usize, 3] {
            let cfg = |reducers| {
                JobConfig::new(reducers)
                    .engine(Engine::barrierless())
                    .pool_workers(workers)
            };
            let views = [HandoffMode::Barrier, HandoffMode::Streaming].map(|handoff| {
                let two = LocalRunner::new(2)
                    .run_chain2(
                        &WordCountApp,
                        &CountHistogram,
                        splits.clone(),
                        &spec2(cfg(2), cfg(2), handoff),
                        &HashPartitioner,
                        &HashPartitioner,
                    )
                    .unwrap();
                let spec = ChainSpec::new(vec![cfg(2), cfg(3), cfg(2)]).handoff(handoff);
                let three = LocalRunner::new(2)
                    .run_chain_iter(&app, splits.clone(), &spec, &HashPartitioner)
                    .unwrap();
                (handoff_view(&two), handoff_view(&three))
            });
            let (two, three) = &views[0];
            // One partition carries > 32 KiB: a byte-budgeted handoff
            // would have cut it into several batches.
            assert!(two[0][2] / two[0][1] > 32 << 10, "{workers}w: {two:?}");
            assert_eq!(two[0][1], 2);
            assert_eq!(three[1][1], 3);
            assert_eq!(&views[1], &views[0], "{workers}w: modes disagree");
        }
    }

    #[test]
    fn empty_input_chains_cleanly() {
        for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
            let spec = spec2(
                JobConfig::new(2).engine(Engine::barrierless()),
                JobConfig::new(2).engine(Engine::barrierless()),
                handoff,
            );
            let out = LocalRunner::new(2)
                .run_chain2(
                    &WordCountApp,
                    &CountHistogram,
                    Vec::new(),
                    &spec,
                    &HashPartitioner,
                    &HashPartitioner,
                )
                .unwrap();
            assert_eq!(out.output.record_count(), 0);
            assert_eq!(out.handoff_records(), 0);
        }
    }

    #[test]
    fn chain_spec_errors_are_reported_not_hung() {
        let splits = text_splits(2, 5);
        // Wrong stage count.
        let spec = ChainSpec::new(vec![JobConfig::new(1)]);
        assert!(matches!(
            LocalRunner::new(2).run_chain2(
                &WordCountApp,
                &CountHistogram,
                splits.clone(),
                &spec,
                &HashPartitioner,
                &HashPartitioner,
            ),
            Err(MrError::InvalidConfig(_))
        ));
        // A bad stage knob.
        let mut bad = JobConfig::new(2);
        bad.shuffle_batch_bytes = 0;
        let spec = spec2(JobConfig::new(2), bad, HandoffMode::Streaming);
        assert!(matches!(
            LocalRunner::new(2).run_chain2(
                &WordCountApp,
                &CountHistogram,
                splits,
                &spec,
                &HashPartitioner,
                &HashPartitioner,
            ),
            Err(MrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn downstream_oom_fails_the_chain_without_hanging() {
        // Swept across pool widths: a dead downstream intake must
        // unblock parked upstream senders whether they share one
        // worker thread or spread over several.
        for workers in [1usize, 2, 4] {
            let splits = text_splits(6, 40);
            let cfg1 = JobConfig::new(2)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            let mut cfg2 = JobConfig::new(1)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            cfg2.heap_cap_bytes = Some(16); // dies on the first few records
            let err = LocalRunner::new(4).run_chain2(
                &WordCountApp,
                &CountHistogram,
                splits,
                &spec2(cfg1, cfg2, HandoffMode::Streaming),
                &HashPartitioner,
                &HashPartitioner,
            );
            assert!(
                matches!(err, Err(MrError::OutOfMemory { .. })),
                "{workers}w: expected downstream OOM, got {:?}",
                err.err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn upstream_oom_fails_the_chain_without_hanging() {
        for workers in [1usize, 2, 4] {
            let splits = text_splits(6, 40);
            let mut cfg1 = JobConfig::new(2)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            cfg1.heap_cap_bytes = Some(16);
            let cfg2 = JobConfig::new(2)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            let err = LocalRunner::new(4).run_chain2(
                &WordCountApp,
                &CountHistogram,
                splits,
                &spec2(cfg1, cfg2, HandoffMode::Streaming),
                &HashPartitioner,
                &HashPartitioner,
            );
            assert!(
                matches!(err, Err(MrError::OutOfMemory { .. })),
                "{workers}w: expected upstream OOM, got {:?}",
                err.err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn iterative_streaming_chain_matches_sequential_fold() {
        let splits = text_splits(4, 25);
        let app = WordCountApp;
        let k = 4;
        let mk_spec = |handoff| {
            ChainSpec::new(
                (0..k)
                    .map(|_| JobConfig::new(3).engine(Engine::barrierless()))
                    .collect(),
            )
            .handoff(handoff)
        };
        // Ground truth: fold by hand through K generations.
        let mut current = splits.clone();
        let mut expect = Vec::new();
        for _ in 0..k {
            let run = LocalRunner::new(4)
                .run(
                    &app,
                    current,
                    &JobConfig::new(3).engine(Engine::barrierless()),
                )
                .unwrap();
            expect = run.partitions.clone();
            current = run
                .partitions
                .into_iter()
                .map(|p| p.into_iter().map(|(w, c)| app.adapt_input(w, c)).collect())
                .collect();
        }
        for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
            let out = LocalRunner::new(4)
                .run_chain_iter(&app, splits.clone(), &mk_spec(handoff), &HashPartitioner)
                .unwrap();
            assert_eq!(
                out.output.partitions, expect,
                "iterative chain {handoff:?} diverged from the sequential fold"
            );
            assert_eq!(out.stages.len(), k);
            for stage in &out.stages[..k - 1] {
                assert!(stage.handoff_records > 0, "a generation handed nothing off");
            }
            assert_eq!(out.stages[k - 1].handoff_records, 0);
        }
    }

    /// The one driver where a fused sink feeds a stage whose own
    /// reducers are fused sinks: a 3-stage chain whose middle stage runs
    /// each engine on a one-byte shuffle budget and whose last stage is a
    /// barrier. At every pool width the streaming output is the barrier
    /// fold's.
    #[test]
    fn iterative_chain_matches_barrier_fold_under_every_middle_engine() {
        let splits = text_splits(4, 25);
        let app = WordCountApp;
        let engines = [
            Engine::Barrier,
            Engine::barrierless(),
            Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 256,
                },
            },
        ];
        for middle in &engines {
            for workers in [1usize, 2, 4] {
                let stages: Vec<JobConfig> = [
                    JobConfig::new(3).engine(Engine::barrierless()),
                    JobConfig::new(2)
                        .engine(middle.clone())
                        .shuffle_batch_bytes(1)
                        .scratch_dir(scratch_dir("chain-iter-mid")),
                    JobConfig::new(3).engine(Engine::Barrier),
                ]
                .into_iter()
                .map(|cfg| cfg.pool_workers(workers))
                .collect();
                let run = |handoff| {
                    let spec = ChainSpec::new(stages.clone()).handoff(handoff);
                    LocalRunner::new(2)
                        .run_chain_iter(&app, splits.clone(), &spec, &HashPartitioner)
                        .unwrap()
                };
                let barrier = run(HandoffMode::Barrier);
                let streaming = run(HandoffMode::Streaming);
                assert!(barrier.output.record_count() > 0);
                assert_eq!(
                    streaming.output.partitions, barrier.output.partitions,
                    "{middle:?} {workers}w"
                );
                assert_eq!(streaming.handoff_records(), barrier.handoff_records());
            }
        }
    }

    #[test]
    fn single_stage_iter_chain_is_just_the_job() {
        let splits = text_splits(3, 10);
        let app = WordCountApp;
        let cfg = JobConfig::new(2).engine(Engine::barrierless());
        let plain = LocalRunner::new(2).run(&app, splits.clone(), &cfg).unwrap();
        let out = LocalRunner::new(2)
            .run_chain_iter(
                &app,
                splits,
                &ChainSpec::new(vec![cfg]).handoff(HandoffMode::Streaming),
                &HashPartitioner,
            )
            .unwrap();
        assert_eq!(out.output.partitions, plain.partitions);
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.handoff_records(), 0);
    }

    /// The final stage feeds no boundary, so its counters are its own
    /// job's: the same under either handoff and either trace policy, with
    /// no `chain.handoff.*` keys — and a one-stage chain's are exactly
    /// the plain job's.
    #[test]
    fn final_stage_counters_are_the_jobs_own() {
        use crate::config::TracePolicy;
        let splits = text_splits(4, 25);
        let app = WordCountApp;
        let cfg = |trace| JobConfig::new(3).engine(Engine::barrierless()).trace(trace);
        let policies = [TracePolicy::Enabled, TracePolicy::Disabled];
        let handoffs = [HandoffMode::Barrier, HandoffMode::Streaming];
        let run = |stages: usize, handoff, trace| {
            let spec = ChainSpec::new(vec![cfg(trace); stages]).handoff(handoff);
            LocalRunner::new(2)
                .run_chain_iter(&app, splits.clone(), &spec, &HashPartitioner)
                .unwrap()
        };
        let reference = run(3, HandoffMode::Barrier, TracePolicy::Disabled);
        let last = reference.stages.last().unwrap();
        assert!(last.counters.get(names::REDUCE_INPUT_RECORDS) > 0);
        for handoff in handoffs {
            for trace in policies {
                let out = run(3, handoff, trace);
                assert_eq!(
                    out.stages[2].counters, last.counters,
                    "{handoff:?}/{trace:?}: final-stage counters moved"
                );
            }
        }
        assert!(
            last.counters
                .iter()
                .all(|(name, _)| !name.starts_with("chain.handoff.")),
            "the final stage was charged a handoff: {:?}",
            last.counters
        );

        for handoff in handoffs {
            for trace in policies {
                let plain = LocalRunner::new(2)
                    .run(&app, splits.clone(), &cfg(trace))
                    .unwrap();
                let out = run(1, handoff, trace);
                assert_eq!(
                    out.stages[0].counters, plain.counters,
                    "{handoff:?}/{trace:?}: a one-stage chain is not just the job"
                );
                assert_eq!(out.output.counters, plain.counters);
            }
        }
    }
}
