//! Event-driven simulation of *chained* MapReduce jobs: job 2's map
//! stage consumes job 1's reduce output inside one shared event loop,
//! so the inter-job boundary can be measured like the intra-job one.
//!
//! Both jobs are [`Stage`]s on one [`SimCtx`]: stage 1 reads the DFS,
//! stage 2's map tasks are fed by the *chain edge* modelled here — the
//! handoff flows, the downstream tasks' intake ([`Map2`]), stage-1 slot
//! priority, and the recovery rules that cross the edge.
//!
//! Under [`HandoffMode::Streaming`] every increment an upstream reduce
//! task emits (per absorbed batch for emit-during-absorb apps, at
//! finalize for aggregations) departs immediately as a *handoff flow* —
//! a network transfer from the upstream reducer's node to the downstream
//! chained map task's node, recorded as a `HandoffMark` trace event and
//! charged `CostModel::chain_map_cpu_per_record` on arrival. Downstream
//! map work therefore overlaps the upstream reduce stage; the
//! intermediate dataset is never written to the DFS.
//!
//! Under [`HandoffMode::Barrier`] the boundary is the Hadoop baseline:
//! every upstream reducer writes its replicated output to the DFS, job 2
//! starts only when job 1 has fully completed, and each downstream map
//! task pays a materialized read (source disk + network) for its input
//! partition.
//!
//! Fault recovery extends the single-job model across the edge: a
//! streaming handoff is never materialized, so when an upstream reduce
//! attempt dies, every downstream map task that consumed its stream is
//! restarted (and a completed-but-lost upstream reducer is re-executed
//! if its consumer still needs the stream). Downstream map tasks and
//! job-2 reducers recover like their single-job counterparts.
//!
//! Modeling notes, for honesty about what is and is not captured:
//!
//! * Every task of both jobs occupies a real task slot: job-2 maps
//!   contend for map slots and job-2 reducers for reduce slots alongside
//!   job 1. Cross-job slot contention cannot deadlock recovery because
//!   stage 1 has strict priority — when a pending stage-1 task finds
//!   every slot of its kind occupied, the scheduler evicts the
//!   highest-index unfinished stage-2 task of that kind back to Pending
//!   (stage 2 depends on stage 1, so the eviction never discards work
//!   the chain could have finished first). Placement is least-loaded
//!   over alive nodes with a free slot, ties preferring high node
//!   indexes so chained tasks spread away from the stage-1 tasks
//!   feeding them.
//! * Job-2 map tasks ship their shuffle partitions when the task
//!   completes, exactly like job-1 maps — the *chain edge* streams; the
//!   downstream job's own shuffle then behaves like any single job's
//!   (except that every transfer on or after the edge moves at least
//!   one byte: handed-off volumes are real bytes scaled up, and can
//!   round to nothing).
//! * Stage-1 reducers honor the effective
//!   [`SpeculationPolicy`] (cluster override
//!   first, then stage-1's `JobConfig`): a reduce attempt on a node
//!   measurably slower than the alive-node median gets one backup
//!   attempt on another node, the first attempt to finish its reduce
//!   work wins, and a backup win restarts the downstream map that
//!   consumed the losing attempt's stream — the promoted winner re-ships
//!   its byte-identical output. Stage-1 maps and all stage-2 tasks are
//!   not speculated here (the single-job executor models map
//!   speculation).
//! * The chain executor ignores combiner, snapshot and deadline knobs
//!   (all modeled for single jobs by [`SimExecutor`](crate::SimExecutor));
//!   the trace override applies as usual.

use crate::costs::CostModel;
use crate::ctx::{self, Driver, Ev, SimCtx, Tag};
use crate::executor::Fault;
use crate::input::SimInput;
use crate::params::ClusterParams;
use crate::placement::TieBreak;
use crate::report::Outcome;
use crate::stage::{MapState, Note, RedState, Stage, StageError};
use mr_core::chain::ChainableApplication;
use mr_core::counters::names;
use mr_core::{
    Application, ChainSpec, CombinerPolicy, DeadlinePolicy, HandoffMode, JobConfig, JobOutput,
    Partitioner, Scope, SnapshotPolicy, SpeculationPolicy, TraceLog,
};
use mr_net::NodeId;
use mr_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Public entry point: runs two-job chains on a simulated cluster.
pub struct ChainSimExecutor {
    params: ClusterParams,
}

impl ChainSimExecutor {
    /// An executor for the given cluster.
    pub fn new(params: ClusterParams) -> Self {
        params.validate();
        ChainSimExecutor { params }
    }

    /// Simulates the chain `first → second` over `chunks` input chunks.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chain2<A, B, I, PA, PB>(
        &self,
        first: &A,
        second: &B,
        input: &I,
        chunks: u64,
        spec: &ChainSpec,
        costs: &CostModel,
        pa: &PA,
        pb: &PB,
    ) -> ChainSimReport<B>
    where
        A: Application,
        B: ChainableApplication<A::OutKey, A::OutValue>,
        I: SimInput<A>,
        PA: Partitioner<A::MapKey>,
        PB: Partitioner<B::MapKey>,
    {
        self.run_chain2_with_faults(first, second, input, chunks, spec, costs, pa, pb, &[])
    }

    /// Simulates the chain with node failures injected at the given
    /// times.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chain2_with_faults<A, B, I, PA, PB>(
        &self,
        first: &A,
        second: &B,
        input: &I,
        chunks: u64,
        spec: &ChainSpec,
        costs: &CostModel,
        pa: &PA,
        pb: &PB,
        faults: &[Fault],
    ) -> ChainSimReport<B>
    where
        A: Application,
        B: ChainableApplication<A::OutKey, A::OutValue>,
        I: SimInput<A>,
        PA: Partitioner<A::MapKey>,
        PB: Partitioner<B::MapKey>,
    {
        costs.validate();
        assert!(chunks >= 1, "need at least one input chunk");
        let failed = |reason: String| ChainSimReport {
            outcome: Outcome::Failed {
                at: SimTime::ZERO,
                reason,
            },
            output: None,
            trace: TraceLog::new(),
            stage1_last_reduce_done: SimTime::ZERO,
            stage1_complete: SimTime::ZERO,
            stage2_first_work: None,
            map1_tasks_run: 0,
            red1_tasks_run: 0,
            map2_tasks_run: 0,
            red2_tasks_run: 0,
            downstream_map_restarts: 0,
            handoff_edges: 0,
            handoff_records: 0,
        };
        if let Err(e) = spec.validate() {
            return failed(e.to_string());
        }
        if spec.len() != 2 {
            return failed(format!(
                "chain simulator runs exactly 2 stages, spec has {}",
                spec.len()
            ));
        }
        // A cluster-level speculation override must still be a valid
        // policy for stage 1 (the stage that speculates here).
        if let Some(sp) = self.params.speculation {
            let mut probe = spec.stages[0].clone();
            probe.speculation = sp;
            if let Err(e) = probe.validate() {
                return failed(e.to_string());
            }
        }
        let p = &self.params;
        // Effective straggler policy for stage-1 reducers, resolved
        // before the per-stage configs are scrubbed below.
        let speculation = p.speculation.unwrap_or(spec.stages[0].speculation);
        // Effective per-stage configs: every cluster override applied in
        // one place (`ClusterParams::effective_config` — the trace
        // matters here), then the knobs this executor does not model
        // are scrubbed: combiner, snapshot and deadline modeling is the
        // single-job executor's domain (see module docs), and speculation
        // lives in `ChainSim::speculation`, not the cfgs.
        let effective = |cfg: &JobConfig| {
            let mut cfg = p.effective_config(cfg);
            cfg.combiner = CombinerPolicy::Disabled;
            cfg.snapshots = SnapshotPolicy::Disabled;
            cfg.speculation = SpeculationPolicy::Disabled;
            cfg.deadline = DeadlinePolicy::Disabled;
            cfg
        };
        let (mut ctx, chunk_ids) = SimCtx::new(p, costs, chunks);
        if let SpeculationPolicy::Enabled { check_secs, .. } = speculation {
            ctx.queue
                .schedule(SimTime::from_secs_f64(check_secs), Ev::SpecTick);
        }
        ctx.schedule_faults(faults);
        let s1 = Stage::on_dfs(0, first, pa, effective(&spec.stages[0]), chunk_ids);
        // One downstream map task per upstream reduce partition.
        let r1 = s1.reds.len();
        let s2 = Stage::fed_by_owner(1, second, pb, effective(&spec.stages[1]), r1);
        let mut sim = ChainSim {
            ctx,
            input,
            s1,
            s2,
            streaming: spec.handoff == HandoffMode::Streaming,
            speculation,
            intake: (0..r1).map(|_| Map2::default()).collect(),
            handed: vec![0; r1],
            stage1_last_reduce_done: SimTime::ZERO,
            stage1_complete: None,
            stage2_first_work: None,
            downstream_map_restarts: 0,
            handoff_edges: 0,
            handoff_records: 0,
            handoff_bytes: 0,
        };
        ctx::run(&mut sim);
        sim.finish_report()
    }
}

/// Everything a simulated chain run reports.
pub struct ChainSimReport<B: Application> {
    /// Completion or failure.
    pub outcome: Outcome,
    /// The *final stage's* output (present only on completion). Its
    /// counters merge both stages' tasks, chain handoff counters
    /// included; the intermediate dataset is never materialized.
    pub output: Option<JobOutput<B>>,
    /// The run's full structured trace — both stages in one stream
    /// (stage 1 is job 0, stage 2 is job 1). Query it with
    /// [`mr_core::TraceQuery`]. Empty unless *every* stage's effective
    /// [`TracePolicy`](mr_core::TracePolicy) is `Enabled` (the local
    /// chain executor's rule).
    pub trace: TraceLog,
    /// When the last stage-1 reduce task finished reducing.
    pub stage1_last_reduce_done: SimTime,
    /// When stage 1 fully completed (= `stage1_last_reduce_done` under
    /// the streaming handoff; includes the materialized output write
    /// under the barrier handoff).
    pub stage1_complete: SimTime,
    /// First instant a stage-2 map task received chain input — the
    /// overlap witness. Under the barrier handoff this is always after
    /// `stage1_complete`; under streaming it precedes
    /// `stage1_last_reduce_done` whenever reducers finish spread out.
    pub stage2_first_work: Option<SimTime>,
    /// Stage-1 map tasks executed (including fault re-executions).
    pub map1_tasks_run: usize,
    /// Stage-1 reduce tasks executed.
    pub red1_tasks_run: usize,
    /// Stage-2 (chained) map tasks executed.
    pub map2_tasks_run: usize,
    /// Stage-2 reduce tasks executed.
    pub red2_tasks_run: usize,
    /// Stage-2 map restarts forced by the upstream reduce attempt whose
    /// stream they consumed going away — dying mid-stream, or losing a
    /// speculative race (the task's own node was fine).
    pub downstream_map_restarts: usize,
    /// Cross-job handoff edges scheduled (flows in streaming mode,
    /// materialized reads in barrier mode).
    pub handoff_edges: usize,
    /// Records handed across the chain boundary.
    pub handoff_records: u64,
}

impl<B: Application> ChainSimReport<B> {
    /// Completion time in seconds, panicking on failed runs.
    pub fn completion_secs(&self) -> f64 {
        self.outcome
            .completion_secs()
            .expect("chain did not complete")
    }

    /// Whether stage-2 map work genuinely overlapped stage-1 reduce
    /// work — the paper-shaped claim for concatenated jobs.
    pub fn overlapped(&self) -> bool {
        self.stage2_first_work
            .is_some_and(|t| t < self.stage1_last_reduce_done)
    }
}

/// The chain-edge half of downstream map task `m` (the stage-machine
/// half — state, node, attempt, shuffle output — is `s2.maps[m]`): what
/// it has taken in of upstream reduce partition `m`'s record stream.
struct Map2<B: Application> {
    /// Delivered handoff batches awaiting CPU (already adapted).
    queued: VecDeque<Vec<(B::InKey, B::InValue)>>,
    /// Upstream records delivered so far (queued or mapped).
    received: usize,
    /// Nominal wire bytes delivered.
    wire_bytes: u64,
    /// When the task's CPU drains everything scheduled on it (carried
    /// across restarts, like the core it stands for).
    cpu_free: SimTime,
}

impl<B: Application> Default for Map2<B> {
    fn default() -> Self {
        Map2 {
            queued: VecDeque::new(),
            received: 0,
            wire_bytes: 0,
            cpu_free: SimTime::ZERO,
        }
    }
}

struct ChainSim<'a, A: Application, B: Application, I, PA, PB> {
    ctx: SimCtx<'a>,
    input: &'a I,
    s1: Stage<'a, A, PA>,
    s2: Stage<'a, B, PB>,
    streaming: bool,
    /// Effective straggler policy for stage-1 reducers (cluster override
    /// first, then stage-1's own config).
    speculation: SpeculationPolicy,
    intake: Vec<Map2<B>>,
    /// Per stage-1 reducer: output records already shipped downstream.
    handed: Vec<usize>,
    stage1_last_reduce_done: SimTime,
    stage1_complete: Option<SimTime>,
    stage2_first_work: Option<SimTime>,
    downstream_map_restarts: usize,
    handoff_edges: usize,
    handoff_records: u64,
    handoff_bytes: u64,
}

impl<'a, A, B, I, PA, PB> Driver<'a> for ChainSim<'a, A, B, I, PA, PB>
where
    A: Application,
    B: ChainableApplication<A::OutKey, A::OutValue>,
    I: SimInput<A>,
    PA: Partitioner<A::MapKey>,
    PB: Partitioner<B::MapKey>,
{
    const WHAT: &'static str = "chain";

    fn ctx(&mut self) -> &mut SimCtx<'a> {
        &mut self.ctx
    }

    fn finished(&self) -> bool {
        self.s2.reds_done == self.s2.reds.len()
    }

    fn handle_event(&mut self, at: SimTime, ev: Ev) {
        match ev {
            Ev::Schedule => self.schedule_tasks(at),
            Ev::Task(0, ev) => {
                let note = self.s1.on_event(&mut self.ctx, at, ev);
                self.follow_up1(at, note);
            }
            Ev::Task(_, ev) => {
                let note = self.s2.on_event(&mut self.ctx, at, ev);
                self.follow_up2(at, note);
            }
            Ev::ChainMapWork(m, a) => {
                if self.map2_consuming(m, a) {
                    self.map2_work(at, m);
                }
            }
            Ev::SpecTick => self.spec_tick(at),
            Ev::SpecSlotFree(n, is_map) => self.ctx.spec_slot_free(at, n, is_map),
            Ev::NodeFail(n) => self.fail_node(at, n),
            Ev::SnapshotTick | Ev::Deadline => {
                unreachable!("chains model neither snapshots nor deadlines")
            }
        }
    }

    fn handle_flow(&mut self, at: SimTime, tag: Tag) {
        match tag {
            Tag::Task(0, tag) => self.s1.on_flow(&mut self.ctx, at, tag),
            Tag::Task(_, tag) => self.s2.on_flow(&mut self.ctx, at, tag),
            Tag::Handoff {
                red,
                red_attempt,
                map,
                map_attempt,
                start,
                end,
            } => {
                if self.s1.reds[red].attempt == red_attempt && self.map2_consuming(map, map_attempt)
                {
                    self.handoff_delivery(at, red, map, start, end);
                }
            }
            Tag::ChainFetch(m, a) => {
                if self.map2_consuming(m, a) {
                    let len = self.s1.reds[m].out.len();
                    self.handoff_delivery(at, m, m, 0, len);
                }
            }
        }
    }
}

impl<'a, A, B, I, PA, PB> ChainSim<'a, A, B, I, PA, PB>
where
    A: Application,
    B: ChainableApplication<A::OutKey, A::OutValue>,
    I: SimInput<A>,
    PA: Partitioner<A::MapKey>,
    PB: Partitioner<B::MapKey>,
{
    /// Does what stage 1 left to its owner, or fails the chain.
    fn follow_up1(&mut self, at: SimTime, note: Result<Option<Note>, StageError>) {
        match note {
            Ok(Some(Note::MapInput(m, bk))) => {
                let chunk = self.ctx.dfs.chunk(self.s1.chunk(m)).index as u64;
                let records = self.input.records(chunk);
                self.s1.map_write(&mut self.ctx, at, m, bk, records);
            }
            // Emit-during-absorb applications produced new output:
            // stream it downstream right now.
            Ok(Some(Note::OutputGrew(r))) => {
                if self.streaming {
                    self.ship_handoff(at, r);
                }
            }
            Ok(Some(Note::ReduceFinished { r, backup_won })) => {
                // A backup win restarts the downstream map that consumed
                // the losing attempt's stream (cancelling the loser's
                // handoff flows, all bound for that map); the promoted
                // winner re-ships its byte-identical output when the map
                // comes back.
                if backup_won {
                    self.restart_downstream_of(at, r);
                }
                self.red1_reduce_finished(at, r);
            }
            Ok(Some(Note::ReduceDone)) => self.red1_done(at),
            Ok(None) => {}
            Err(e) => self.fail(at, 1, e),
        }
    }

    /// Does what stage 2 left to its owner, or fails the chain.
    fn follow_up2(&mut self, at: SimTime, note: Result<Option<Note>, StageError>) {
        match note {
            // Stage 2's sink is the DFS.
            Ok(Some(Note::ReduceFinished { r, .. })) => {
                let nominal =
                    self.s2.reds[r].input_bytes as f64 * self.ctx.costs.output_selectivity;
                self.s2
                    .start_output_write(&mut self.ctx, at, r, (nominal as u64).max(1));
            }
            Ok(Some(Note::ReduceDone)) => {
                if self.finished() {
                    self.ctx.tracer.stage_done(1, at);
                }
            }
            Ok(Some(Note::MapInput(..))) => unreachable!("stage-2 maps are fed by the edge"),
            Ok(Some(Note::OutputGrew(_)) | None) => {}
            Err(e) => self.fail(at, 2, e),
        }
    }

    fn fail(&mut self, at: SimTime, stage: usize, e: StageError) {
        let reason = match e {
            StageError::DriverInit {
                backup: false,
                source,
            } => format!("stage-{stage} driver init failed: {source}"),
            StageError::DriverInit {
                backup: true,
                source,
            } => format!("stage-{stage} backup driver init failed: {source}"),
            StageError::Reducer { r, source } => {
                format!("stage-{stage} reducer {r} failed: {source}")
            }
        };
        self.ctx.failure = Some((at, reason));
    }

    fn finish_report(mut self) -> ChainSimReport<B> {
        let complete = self.finished();
        let outcome = match self.ctx.failure.take() {
            Some((at, reason)) => Outcome::Failed { at, reason },
            None => Outcome::Completed {
                at: self.ctx.tracer.last_end(),
            },
        };
        // Emit the chain's counter totals into the trace: map-side
        // tallies of both stages plus the handoff counters as the job-0
        // batch (the handoff is a stage-1 output fact), each reducer's
        // tallies under its own task scope in its own stage. The report's
        // counters are the direct merge of exactly these values.
        let mut job0 = std::mem::take(&mut self.s1.map_counters);
        job0.merge(&self.s2.map_counters);
        if complete {
            job0.add(names::CHAIN_HANDOFF_RECORDS, self.handoff_records);
            job0.add(names::CHAIN_HANDOFF_BATCHES, self.handoff_edges as u64);
            job0.add(names::CHAIN_HANDOFF_BYTES, self.handoff_bytes);
        }
        self.ctx.tracer.counters(Scope::job(0), &job0);
        self.s1.trace_reducer_counters(&mut self.ctx);
        self.s2.trace_reducer_counters(&mut self.ctx);
        // `TracePolicy` only gates the export, and only when both stages
        // trace: a half-traced chain log would have holes.
        let trace = if self.s1.cfg.trace.is_enabled() && self.s2.cfg.trace.is_enabled() {
            self.ctx.tracer.into_log()
        } else {
            TraceLog::new()
        };
        let output = outcome.is_completed().then(|| {
            let mut counters = job0;
            for r in &self.s1.reds {
                counters.merge(&r.counters);
            }
            for r in &self.s2.reds {
                counters.merge(&r.counters);
            }
            let mut reports = Vec::new();
            for r in &mut self.s2.reds {
                reports.extend(r.report.take());
            }
            let partitions: Vec<_> = self
                .s2
                .reds
                .iter_mut()
                .map(|r| std::mem::take(&mut r.out))
                .collect();
            JobOutput {
                snapshots: partitions.iter().map(|_| Vec::new()).collect(),
                partitions,
                counters,
                reports,
                trace: TraceLog::new(),
            }
        });
        ChainSimReport {
            outcome,
            output,
            trace,
            stage1_last_reduce_done: self.stage1_last_reduce_done,
            stage1_complete: self.stage1_complete.unwrap_or(SimTime::ZERO),
            stage2_first_work: self.stage2_first_work,
            map1_tasks_run: self.s1.map_tasks_run,
            red1_tasks_run: self.s1.reduce_tasks_run,
            map2_tasks_run: self.s2.map_tasks_run,
            red2_tasks_run: self.s2.reduce_tasks_run,
            downstream_map_restarts: self.downstream_map_restarts,
            handoff_edges: self.handoff_edges,
            handoff_records: self.handoff_records,
        }
    }

    // ---------------------------------------------------------- scheduler

    fn schedule_tasks(&mut self, at: SimTime) {
        // Stage 1 has strict slot priority: pending stage-1 work that
        // cannot find a free slot evicts unfinished stage-2 tasks of the
        // same kind instead of deadlocking on slots the dependent job
        // holds (see module docs).
        self.evict_for_stage1(at);
        // Stage-1 maps: chunk-local placement onto map slots.
        while let Some(node) = self.ctx.slots.first_free_map() {
            let Some(m) = self.s1.next_pending_map(&self.ctx, node) else {
                break;
            };
            self.s1.start_map(&mut self.ctx, at, m, node);
        }
        // Stage-1 reducers: id order onto reduce slots.
        while let Some(r) = self.s1.next_pending_reducer() {
            let Some(node) = self.ctx.slots.least_loaded(false, TieBreak::LowIndex) else {
                break;
            };
            if let Err(e) = self.s1.start_reduce(&mut self.ctx, at, r, node) {
                self.fail(at, 1, e);
            }
        }
        // Stage-2 tasks take whatever slots stage 1 left free, least
        // loaded first with ties preferring *high* node indexes — the
        // stage-1 loops fill low indexes first, so stage-2 tasks spread
        // away from the stage-1 tasks feeding them instead of stacking
        // onto the same nodes. Streaming-mode maps start consuming as
        // soon as a map slot opens; barrier-mode maps wait for stage 1
        // to complete, then fetch their materialized input.
        if !(self.streaming || self.stage1_complete.is_some()) {
            return;
        }
        while let Some(m) = (self.s2.maps.iter()).position(|t| t.state == MapState::Pending) {
            let Some(node) = self.ctx.slots.least_loaded(true, TieBreak::HighIndex) else {
                break;
            };
            self.start_map2(at, m, node);
        }
        // Stage-2 reducers launch with their job: as slots free for
        // a streaming chain, only after the inter-job barrier
        // otherwise — so barrier-mode trace spans never pretend
        // job 2 existed early.
        while let Some(r) = self.s2.next_pending_reducer() {
            let Some(node) = self.ctx.slots.least_loaded(false, TieBreak::HighIndex) else {
                break;
            };
            if let Err(e) = self.s2.start_reduce(&mut self.ctx, at, r, node) {
                self.fail(at, 2, e);
            }
        }
    }

    /// Evict an unfinished stage-2 task (highest index first) when — and
    /// only when — stage-1 progress is genuinely blocked: a pending
    /// stage-1 task, zero free slots of its kind, and no running stage-1
    /// task of that kind that would eventually free one. (Pending
    /// stage-1 work behind *running* stage-1 work is the ordinary wave
    /// pattern and must not disturb stage 2, or the chain would lose its
    /// overlap.) Evicted tasks return to Pending and restart through the
    /// ordinary machinery; their in-flight flows are cancelled and stale
    /// events are dropped by the attempt bump.
    fn evict_for_stage1(&mut self, at: SimTime) {
        while self.s1.maps.iter().any(|m| m.state == MapState::Pending)
            && self.ctx.slots.free_slots(true) == 0
            && !self.s1.maps.iter().any(|m| m.state.is_running())
        {
            let Some(m) = self.s2.maps.iter().rposition(|m| m.state.is_running()) else {
                break;
            };
            let old = self.s2.maps[m].attempt;
            self.ctx.slots.release(true, self.s2.maps[m].node);
            self.restart_map2(m);
            self.ctx.net.cancel_where(at, |t| match *t {
                Tag::Handoff {
                    map, map_attempt, ..
                } => map == m && map_attempt == old,
                Tag::ChainFetch(mm, aa) => mm == m && aa == old,
                _ => false,
            });
        }
        // Backups are not counted as runnable stage-1 reducers here: a
        // live backup implies a live primary, so the primary already
        // witnesses progress.
        while self.s1.next_pending_reducer().is_some()
            && self.ctx.slots.free_slots(false) == 0
            && !self.s1.reds.iter().any(|r| r.state.is_running())
        {
            let Some(r) = self.s2.reds.iter().rposition(|r| r.state.is_running()) else {
                break;
            };
            let old = self.s2.reds[r].attempt;
            self.ctx.slots.release(false, self.s2.reds[r].node);
            self.s2.restart_reducer(r);
            self.s2.cancel_red_flows(&mut self.ctx, at, r, old);
        }
    }

    // ----------------------------------------------------- stage-1 sinks

    /// The reduce work of stage-1 partition `r` is complete: under the
    /// streaming handoff ship the remaining output and finish the task;
    /// under the barrier handoff write the materialized output to the
    /// DFS first.
    fn red1_reduce_finished(&mut self, at: SimTime, r: usize) {
        self.stage1_last_reduce_done = self.stage1_last_reduce_done.max(at);
        if self.streaming {
            self.s1.reduce_done(&mut self.ctx, r);
            self.ship_handoff(at, r);
            self.red1_done(at);
            // The downstream map may already hold everything it needs
            // and be idle: re-evaluate its completion.
            let m = r;
            if self.s2.maps[m].state == MapState::Consuming {
                let when = self.intake[m].cpu_free.max(at);
                let work = Ev::ChainMapWork(m, self.s2.maps[m].attempt);
                self.ctx.queue.schedule(when, work);
            }
            self.ctx.queue.schedule(at, Ev::Schedule);
        } else {
            // The materialized intermediate is exactly what would have
            // been handed off: charge its nominal wire volume as the
            // replicated DFS write (symmetric with the `ChainFetch` read).
            let bytes = self.handoff_wire_bytes(r, 0, self.s1.reds[r].out.len());
            self.s1.start_output_write(&mut self.ctx, at, r, bytes);
        }
    }

    /// A stage-1 reducer is done; the last one completes the stage.
    fn red1_done(&mut self, at: SimTime) {
        if self.s1.reds_done == self.s1.reds.len() && self.stage1_complete.is_none() {
            self.stage1_complete = Some(at);
            self.ctx.tracer.stage_done(0, at);
        }
    }

    /// The stage-1 attempt downstream map `r` was consuming went away
    /// (lost the speculative race or died with a surviving backup):
    /// restart the map so the winning attempt's stream replays from the
    /// start. Composes with the fault-recovery downstream restarts — the
    /// same counter witnesses both.
    fn restart_downstream_of(&mut self, at: SimTime, r: usize) {
        let m = r;
        let (was, node, old) = {
            let t = &self.s2.maps[m];
            (t.state, t.node, t.attempt)
        };
        if was == MapState::Pending {
            return;
        }
        if was != MapState::Done && self.ctx.slots.alive[node] {
            self.ctx.slots.release(true, node);
        }
        self.downstream_map_restarts += 1;
        self.restart_map2(m);
        self.ctx.net.cancel_where(
            at,
            |t| matches!(*t, Tag::Handoff { map, map_attempt, .. } if map == m && map_attempt == old),
        );
        self.ctx.queue.schedule(at, Ev::Schedule);
    }

    /// Periodic straggler detection for stage-1 reducers: the speed
    /// trigger of the single-job executor's check
    /// ([`Stage::back_up_reducers_on`]).
    fn spec_tick(&mut self, at: SimTime) {
        let SpeculationPolicy::Enabled {
            check_secs,
            slowdown,
        } = self.speculation
        else {
            return;
        };
        let slow = self.ctx.slow_nodes(slowdown);
        if let Err(e) = self.s1.back_up_reducers_on(&mut self.ctx, at, &slow) {
            self.fail(at, 1, e);
        }
        if self.ctx.failure.is_none() && !self.finished() {
            self.ctx
                .queue
                .schedule(at + SimDuration::from_secs_f64(check_secs), Ev::SpecTick);
        }
    }

    // ---------------------------------------------------- cross-job edge

    /// Nominal wire bytes of upstream partition `r`'s output records
    /// `start..end`: their real bytes as the downstream application
    /// accounts them, scaled, and never nothing.
    fn handoff_wire_bytes(&self, r: usize, start: usize, end: usize) -> u64 {
        let real: u64 = self.s1.reds[r].out[start..end]
            .iter()
            .map(|(k, v)| self.s2.app.handoff_bytes(k, v) as u64)
            .sum();
        ((real as f64 * self.ctx.costs.chain_handoff_byte_scale) as u64).max(1)
    }

    /// Books one handoff edge carrying upstream partition `r`'s records
    /// `start..end` to downstream map `r`; returns its wire bytes.
    fn handoff_edge(&mut self, at: SimTime, r: usize, start: usize, end: usize) -> u64 {
        let wire = self.handoff_wire_bytes(r, start, end);
        let records = (end - start) as u64;
        self.handoff_edges += 1;
        self.handoff_records += records;
        self.handoff_bytes += wire;
        let up = &self.s1.reds[r];
        self.ctx
            .tracer
            .handoff_mark(0, r, up.attempt, up.node, at, r, records, wire);
        wire
    }

    /// Streaming: ship upstream partition `r`'s not-yet-shipped output
    /// increment to downstream map `r` as a handoff flow. Only the
    /// primary attempt ever feeds the chain edge.
    fn ship_handoff(&mut self, at: SimTime, r: usize) {
        let m = r;
        if self.s2.maps[m].state != MapState::Consuming {
            return; // re-shipped by ensure_upstream when the map starts
        }
        let len = self.s1.reds[r].out.len();
        let start = self.handed[r];
        if start >= len {
            return;
        }
        self.handed[r] = len;
        let wire = self.handoff_edge(at, r, start, len);
        self.ctx.net.start_flow(
            at,
            NodeId(self.s1.reds[r].node as u32),
            NodeId(self.s2.maps[m].node as u32),
            wire,
            Tag::Handoff {
                red: r,
                red_attempt: self.s1.reds[r].attempt,
                map: m,
                map_attempt: self.s2.maps[m].attempt,
                start,
                end: len,
            },
        );
    }

    /// A handoff (or barrier-mode fetch) increment arrived at downstream
    /// map `m`: adapt the records, charge the chained map CPU, queue the
    /// batch.
    fn handoff_delivery(&mut self, at: SimTime, r: usize, m: usize, start: usize, end: usize) {
        self.stage2_first_work.get_or_insert(at);
        let batch: Vec<(B::InKey, B::InValue)> = self.s1.reds[r].out[start..end]
            .iter()
            .map(|(k, v)| self.s2.app.adapt_input(k.clone(), v.clone()))
            .collect();
        let wire = self.handoff_wire_bytes(r, start, end);
        let cost = self.ctx.costs.chain_map_cpu_per_record * batch.len() as f64;
        let dur = SimDuration::from_secs_f64(cost * self.ctx.node_factor[self.s2.maps[m].node]);
        let task = &mut self.intake[m];
        task.received += end - start;
        task.wire_bytes += wire;
        task.cpu_free = task.cpu_free.max(at) + dur;
        task.queued.push_back(batch);
        let work = Ev::ChainMapWork(m, self.s2.maps[m].attempt);
        self.ctx.queue.schedule(task.cpu_free, work);
    }

    // --------------------------------------------------------- stage 2 map

    /// Whether `a` stamps downstream map `m`'s live attempt and it is
    /// still taking input.
    fn map2_consuming(&self, m: usize, a: u32) -> bool {
        self.s2.maps[m].attempt == a && self.s2.maps[m].state == MapState::Consuming
    }

    fn start_map2(&mut self, at: SimTime, m: usize, node: usize) {
        self.s2
            .occupy_map(&mut self.ctx, at, m, node, MapState::Consuming);
        if self.streaming {
            // A freshly (re)started downstream map needs everything its
            // upstream reducer has emitted so far: reset the upstream
            // cursor and re-ship.
            self.handed[m] = 0;
            self.ship_handoff(at, m);
            // A finished upstream partition with nothing to hand off
            // will never trigger a delivery: evaluate completion now.
            if self.s1.reds[m].state == RedState::Done && self.s1.reds[m].out.is_empty() {
                let work = Ev::ChainMapWork(m, self.s2.maps[m].attempt);
                self.ctx.queue.schedule(at, work);
            }
        } else {
            self.start_fetch2(at, m);
        }
    }

    /// Barrier mode: read the materialized upstream partition from the
    /// DFS (source disk + network), one edge per downstream map.
    fn start_fetch2(&mut self, at: SimTime, m: usize) {
        let r = m;
        debug_assert_eq!(self.s1.reds[r].state, RedState::Done);
        let writer = self.s1.reds[r].node;
        let src = if self.ctx.slots.alive[writer] {
            writer
        } else {
            // The writer died after materializing; the replicated block
            // is served from a surviving node.
            (0..self.ctx.p.nodes)
                .find(|&n| self.ctx.slots.alive[n])
                .expect("at least one node alive")
        };
        let wire = self.handoff_edge(at, r, 0, self.s1.reds[r].out.len());
        self.ctx.disks[src].submit(at, wire);
        self.ctx.net.start_flow(
            at,
            NodeId(src as u32),
            NodeId(self.s2.maps[m].node as u32),
            wire,
            Tag::ChainFetch(m, self.s2.maps[m].attempt),
        );
    }

    fn map2_work(&mut self, at: SimTime, m: usize) {
        if let Some(batch) = self.intake[m].queued.pop_front() {
            let mut parts =
                (self.s2.maps[m].output.take()).unwrap_or_else(|| self.s2.empty_parts());
            self.s2.run_map(&batch, &mut parts);
            self.s2.maps[m].output = Some(parts);
        }
        // All upstream output received and mapped => write the map output.
        let upstream = &self.s1.reds[m];
        let task = &self.intake[m];
        if upstream.state == RedState::Done
            && task.received == upstream.out.len()
            && task.queued.is_empty()
            && task.cpu_free <= at
        {
            let nominal = task.wire_bytes as f64 * self.ctx.costs.shuffle_selectivity;
            let parts = (self.s2.maps[m].output.take()).unwrap_or_else(|| self.s2.empty_parts());
            self.s2
                .write_map_output(&mut self.ctx, at, m, false, parts, (nominal as u64).max(1));
            for bytes in &mut self.s2.maps[m].flow_bytes {
                *bytes = (*bytes).max(1);
            }
        }
    }

    /// Sends downstream map `m` back to Pending with an empty intake.
    fn restart_map2(&mut self, m: usize) {
        self.s2.restart_map(m);
        let task = &mut self.intake[m];
        task.queued.clear();
        task.received = 0;
        task.wire_bytes = 0;
    }

    // ------------------------------------------------------------- faults

    fn fail_node(&mut self, at: SimTime, n: usize) {
        let Some(cancelled) = self.ctx.fail_node(at, n, Self::WHAT) else {
            return;
        };
        let alive = |node: usize| self.ctx.slots.alive[node];
        // A promoted stage-1 backup carries on, but the downstream map
        // that consumed the dead attempt's stream must still restart.
        let (promoted, dead1) = self.s1.reducers_lost_on(n);
        // Stage-2 reducers recover like a single job's.
        let (_, dead2) = self.s2.reducers_lost_on(n);
        for r in dead2 {
            self.s2.restart_reducer(r);
        }

        // Decide the restart sets across the edge to a fixpoint: an
        // upstream reducer restart forces its downstream map to restart;
        // a downstream map that must re-run but whose upstream stream
        // lived only on a now-dead node (streaming mode: never
        // materialized) forces the upstream reducer to re-run too.
        let r1 = self.s1.reds.len();
        let mut reds1_restart = vec![false; r1];
        for &r in &dead1 {
            reds1_restart[r] = true;
        }
        // Downstream maps running on the dead node, and completed ones
        // whose node died while some stage-2 reducer still needs their
        // shuffle output.
        let mut maps2_restart: Vec<bool> = (0..r1)
            .map(|m| {
                let task = &self.s2.maps[m];
                (task.node == n && task.state.is_running()) || self.s2.map_output_lost(&self.ctx, m)
            })
            .collect();
        for &r in &promoted {
            maps2_restart[r] = true;
        }
        loop {
            let mut changed = false;
            for r in 0..r1 {
                if reds1_restart[r] && !maps2_restart[r] {
                    // The upstream attempt (whose stream the downstream
                    // map consumed) died: the downstream map restarts.
                    maps2_restart[r] = true;
                    changed = true;
                }
                let up = &self.s1.reds[r];
                let lost_upstream = self.streaming
                    && !reds1_restart[r]
                    && up.state == RedState::Done
                    && !alive(up.node);
                // A restarting downstream map needs the stream again; a
                // surviving one that has not received all of it still
                // does. Either way a completed producer on a dead node
                // never materialized it, and re-runs.
                let needed = maps2_restart[r]
                    || (self.s2.maps[r].state == MapState::Consuming
                        && self.intake[r].received < up.out.len());
                if lost_upstream && needed {
                    reds1_restart[r] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Apply downstream map restarts. A restart whose own node
        // survived was forced purely by the upstream attempt dying —
        // the chain-specific recovery path.
        for m in (0..r1).filter(|&m| maps2_restart[m]) {
            let (was, node) = (self.s2.maps[m].state, self.s2.maps[m].node);
            if was == MapState::Pending {
                continue;
            }
            // A completed map released its slot at completion.
            if was != MapState::Done && self.ctx.slots.alive[node] {
                self.ctx.slots.release(true, node);
                self.downstream_map_restarts += 1;
            }
            self.restart_map2(m);
        }
        // Apply stage-1 reducer restarts (a completed one re-entering
        // Pending also reopens stage-1 completion).
        for r in (0..r1).filter(|&r| reds1_restart[r]) {
            if self.s1.reds[r].state == RedState::Done {
                self.stage1_complete = None;
            }
            self.s1.restart_reducer(r);
        }
        self.s1.rerun_lost_maps(&self.ctx, n);
        // Cancelled flows whose surviving endpoint still waits on them.
        for tag in cancelled {
            match tag {
                Tag::Task(0, tag) => {
                    let note = self.s1.on_cancelled_flow(&mut self.ctx, at, tag);
                    self.follow_up1(at, Ok(note));
                }
                Tag::Task(_, tag) => {
                    let note = self.s2.on_cancelled_flow(&mut self.ctx, at, tag);
                    self.follow_up2(at, Ok(note));
                }
                Tag::ChainFetch(m, a) => {
                    if self.map2_consuming(m, a) {
                        self.start_fetch2(at, m);
                    }
                }
                Tag::Handoff {
                    red,
                    red_attempt,
                    map,
                    map_attempt,
                    start,
                    end: _,
                } => {
                    // A cancelled increment from a *surviving* producer
                    // to a *surviving* consumer cannot happen (one
                    // endpoint was on the dead node); anything else is
                    // covered by the restart fixpoint. The only live
                    // case: producer alive, consumer restarted — handled
                    // when the consumer's new attempt re-ships. Guard for
                    // the symmetric race anyway: re-ship if both current.
                    if self.s1.reds[red].attempt == red_attempt
                        && self.map2_consuming(map, map_attempt)
                        && self.ctx.slots.alive[self.s1.reds[red].node]
                    {
                        self.handed[red] = self.handed[red].min(start);
                        self.ship_handoff(at, red);
                    }
                }
            }
        }
        self.ctx.queue.schedule(at, Ev::Schedule);
    }
}
