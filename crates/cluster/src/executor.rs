//! The single-job executor: one [`Stage`] on a [`SimCtx`], plus what only
//! a single job models — the snapshot tick, the deadline, map
//! speculation and the progress triggers of the straggler check, and the
//! `SimReport`. Map and reduce functions execute for real on generated
//! records; the clock is virtual.

use crate::costs::CostModel;
use crate::ctx::{self, Driver, Ev, SimCtx, Tag};
use crate::input::SimInput;
use crate::params::ClusterParams;
use crate::placement::TieBreak;
use crate::report::{Outcome, SimReport};
use crate::stage::{Note, RedState, Stage, StageError};
use mr_core::counters::names;
use mr_core::{
    Application, JobConfig, JobOutput, MrError, Partitioner, Scope, SpeculationPolicy, TraceLog,
};
use mr_sim::{SimDuration, SimTime};
use mr_trace::SpanKind;

/// Public entry point: runs jobs on a simulated cluster.
pub struct SimExecutor {
    params: ClusterParams,
}

/// A scheduled node failure: `(seconds, node index)`.
pub type Fault = (f64, usize);

impl SimExecutor {
    /// An executor for the given cluster.
    pub fn new(params: ClusterParams) -> Self {
        params.validate();
        SimExecutor { params }
    }

    /// Simulates `app` over `chunks` input chunks.
    pub fn run<A, I, P>(
        &self,
        app: &A,
        input: &I,
        chunks: u64,
        cfg: &JobConfig,
        costs: &CostModel,
        partitioner: &P,
    ) -> SimReport<A>
    where
        A: Application,
        I: SimInput<A>,
        P: Partitioner<A::MapKey>,
    {
        self.run_with_faults(app, input, chunks, cfg, costs, partitioner, &[])
    }

    /// Simulates with node failures injected at the given times.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_faults<A, I, P>(
        &self,
        app: &A,
        input: &I,
        chunks: u64,
        cfg: &JobConfig,
        costs: &CostModel,
        partitioner: &P,
        faults: &[Fault],
    ) -> SimReport<A>
    where
        A: Application,
        I: SimInput<A>,
        P: Partitioner<A::MapKey>,
    {
        costs.validate();
        assert!(chunks >= 1, "need at least one input chunk");
        // Validate the *effective* config — every cluster-level override
        // applied in one place (`ClusterParams::effective_config`).
        let effective = self.params.effective_config(cfg);
        if let Err(e) = effective.validate() {
            // A nonsense knob combination fails the job up front — the
            // same Err-not-panic contract as the local executor, shaped
            // as a failed report since simulation returns one either way.
            return SimReport {
                outcome: Outcome::Failed {
                    at: SimTime::ZERO,
                    reason: e.to_string(),
                },
                output: None,
                trace: TraceLog::new(),
                first_map_done: SimTime::ZERO,
                last_map_done: SimTime::ZERO,
                shuffle_done: SimTime::ZERO,
                shuffle_bytes: 0,
                map_tasks_run: 0,
                reduce_tasks_run: 0,
                snapshots_taken: 0,
            };
        }
        let (mut ctx, chunk_ids) = SimCtx::new(&self.params, costs, chunks);
        if let Some(secs) = effective.snapshots.secs_interval() {
            ctx.queue
                .schedule(SimTime::from_secs_f64(secs), Ev::SnapshotTick);
        }
        if let SpeculationPolicy::Enabled { check_secs, .. } = effective.speculation {
            ctx.queue
                .schedule(SimTime::from_secs_f64(check_secs), Ev::SpecTick);
        }
        if let Some(secs) = effective.deadline.secs() {
            ctx.queue
                .schedule(SimTime::from_secs_f64(secs), Ev::Deadline);
        }
        ctx.schedule_faults(faults);
        let mut sim = Sim {
            ctx,
            input,
            stage: Stage::on_dfs(0, app, partitioner, effective, chunk_ids),
            deadline_hit: None,
        };
        ctx::run(&mut sim);
        sim.finish_report()
    }
}

struct Sim<'a, A: Application, I, P> {
    ctx: SimCtx<'a>,
    input: &'a I,
    /// The job. Its `cfg` carries every cluster-level override (the
    /// deadline and the timed snapshot policy were consumed when their
    /// events were scheduled; `cfg.trace` gates what the report exports).
    stage: Stage<'a, A, P>,
    /// Set when the deadline fired before completion.
    deadline_hit: Option<SimTime>,
}

impl<'a, A, I, P> Driver<'a> for Sim<'a, A, I, P>
where
    A: Application,
    I: SimInput<A>,
    P: Partitioner<A::MapKey>,
{
    const WHAT: &'static str = "job";

    fn ctx(&mut self) -> &mut SimCtx<'a> {
        &mut self.ctx
    }

    fn finished(&self) -> bool {
        self.deadline_hit.is_some() || self.stage.all_done()
    }

    fn handle_event(&mut self, at: SimTime, ev: Ev) {
        match ev {
            Ev::Schedule => self.schedule_tasks(at),
            Ev::Task(_, ev) => {
                let note = self.stage.on_event(&mut self.ctx, at, ev);
                self.follow_up(at, note);
            }
            Ev::NodeFail(n) => self.fail_node(at, n),
            Ev::SnapshotTick => self.snapshot_tick(at),
            Ev::SpecTick => self.spec_tick(at),
            Ev::SpecSlotFree(n, is_map) => self.ctx.spec_slot_free(at, n, is_map),
            Ev::Deadline => {
                if !self.stage.all_done() {
                    self.deadline_hit = Some(at);
                    self.ctx.tracer.deadline_mark(0, at);
                }
            }
            Ev::ChainMapWork(..) => unreachable!("single jobs have no chain edge"),
        }
    }

    fn handle_flow(&mut self, at: SimTime, tag: Tag) {
        match tag {
            Tag::Task(_, tag) => self.stage.on_flow(&mut self.ctx, at, tag),
            Tag::Handoff { .. } | Tag::ChainFetch(..) => {
                unreachable!("single jobs have no chain edge")
            }
        }
    }
}

impl<'a, A, I, P> Sim<'a, A, I, P>
where
    A: Application,
    I: SimInput<A>,
    P: Partitioner<A::MapKey>,
{
    /// Does what the stage left to its owner, or fails the job.
    fn follow_up(&mut self, at: SimTime, note: Result<Option<Note>, StageError>) {
        match note {
            Ok(Some(Note::MapInput(m, bk))) => {
                let chunk = self.ctx.dfs.chunk(self.stage.chunk(m)).index as u64;
                let records = self.input.records(chunk);
                self.stage.map_write(&mut self.ctx, at, m, bk, records);
            }
            // A single job's only sink is the DFS.
            Ok(Some(Note::ReduceFinished { r, .. })) => {
                let bytes = (self.stage.reds[r].input_bytes as f64
                    * self.ctx.costs.output_selectivity) as u64;
                self.stage.start_output_write(&mut self.ctx, at, r, bytes);
            }
            Ok(Some(Note::OutputGrew(_) | Note::ReduceDone) | None) => {}
            Err(e) => self.fail(at, e),
        }
    }

    fn fail(&mut self, at: SimTime, e: StageError) {
        let reason = match e {
            StageError::DriverInit {
                backup: false,
                source,
            } => format!("driver init failed: {source}"),
            StageError::DriverInit {
                backup: true,
                source,
            } => format!("backup driver init failed: {source}"),
            StageError::Reducer {
                r,
                source:
                    MrError::OutOfMemory {
                        used_bytes,
                        cap_bytes,
                        ..
                    },
            } => {
                let task = &self.stage.reds[r];
                self.ctx
                    .tracer
                    .heap_sample(0, r, task.attempt, task.node, at, used_bytes);
                format!(
                    "reducer {r} exceeded heap: {} MB > cap {} MB",
                    used_bytes >> 20,
                    cap_bytes >> 20
                )
            }
            StageError::Reducer { r, source } => format!("reducer {r} failed: {source}"),
        };
        self.ctx.failure = Some((at, reason));
    }

    fn finish_report(mut self) -> SimReport<A> {
        let stage = &mut self.stage;
        let outcome = match self.ctx.failure.take() {
            Some((at, reason)) => Outcome::Failed { at, reason },
            None => match self.deadline_hit {
                Some(at) => Outcome::Approximate { at },
                None => Outcome::Completed {
                    at: self.ctx.tracer.last_end(),
                },
            },
        };
        // Emit the run's counter totals into the trace: the merged
        // map-side tallies as one job-scope batch (per-worker attribution
        // would add nothing — the sim merges them as they land), each
        // reducer's tallies under its own task scope. The report's
        // counters are the direct merge of exactly these values.
        self.ctx.tracer.counters(Scope::job(0), &stage.map_counters);
        stage.trace_reducer_counters(&mut self.ctx);
        let snapshots_taken = self.ctx.tracer.snapshot_count(0);
        let mut run_counters = std::mem::take(&mut stage.map_counters);
        for r in &stage.reds {
            run_counters.merge(&r.counters);
        }
        // `TracePolicy` only gates the export: disabled runs ship an
        // empty log, and nothing else in the report changes.
        let trace = if stage.cfg.trace.is_enabled() {
            self.ctx.tracer.into_log()
        } else {
            TraceLog::new()
        };
        let output = if outcome.is_completed() {
            let mut reports = Vec::new();
            for r in &mut stage.reds {
                reports.extend(r.report.take());
            }
            Some(JobOutput {
                partitions: stage
                    .reds
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.out))
                    .collect(),
                counters: run_counters,
                reports,
                snapshots: stage
                    .reds
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.published_snaps))
                    .collect(),
                trace: TraceLog::new(),
            })
        } else if outcome.is_approximate() {
            // Deadline-bounded answer: each partition reports the latest
            // estimate its primary attempt published (empty if it never
            // published — honesty over optimism). Counters are the
            // partial tallies accumulated so far.
            Some(JobOutput {
                partitions: stage
                    .reds
                    .iter()
                    .map(|r| {
                        r.published_snaps
                            .last()
                            .map(|s| s.estimate.clone())
                            .unwrap_or_default()
                    })
                    .collect(),
                counters: run_counters,
                reports: Vec::new(),
                snapshots: stage
                    .reds
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.published_snaps))
                    .collect(),
                trace: TraceLog::new(),
            })
        } else {
            None
        };
        SimReport {
            outcome,
            output,
            snapshots_taken,
            trace,
            first_map_done: stage.first_map_done.unwrap_or(SimTime::ZERO),
            last_map_done: stage.last_map_done,
            shuffle_done: stage.shuffle_done,
            shuffle_bytes: stage.shuffle_bytes,
            map_tasks_run: stage.map_tasks_run,
            reduce_tasks_run: stage.reduce_tasks_run,
        }
    }

    // ---------------------------------------------------------- scheduler

    fn schedule_tasks(&mut self, at: SimTime) {
        // Map tasks: prefer chunk-local placement, like Hadoop's scheduler.
        while let Some(node) = self.ctx.slots.first_free_map() {
            let Some(m) = self.stage.next_pending_map(&self.ctx, node) else {
                break;
            };
            self.stage.start_map(&mut self.ctx, at, m, node);
        }
        // Reduce tasks: id order onto free reduce slots.
        while let Some(r) = self.stage.next_pending_reducer() {
            let Some(node) = self.ctx.slots.least_loaded(false, TieBreak::LowIndex) else {
                break;
            };
            if let Err(e) = self.stage.start_reduce(&mut self.ctx, at, r, node) {
                self.fail(at, e);
            }
        }
    }

    // ---------------------------------------------------------- snapshots

    /// Time-driven snapshot tick: every live reduce task publishes a
    /// consistent point-in-time estimate. Pipelined reducers walk their
    /// partial store (real contents, frozen view); barrier reducers that
    /// have not finished their grouped reduce have *nothing* to show —
    /// an empty estimate, which is precisely the paper's argument for
    /// breaking the barrier.
    fn snapshot_tick(&mut self, at: SimTime) {
        let pipelined = self.stage.pipelined();
        for r in 0..self.stage.reds.len() {
            let task = &mut self.stage.reds[r];
            if !matches!(task.state, RedState::Running | RedState::Finalizing) {
                continue;
            }
            if pipelined {
                if let Some(driver) = task.driver.as_mut() {
                    driver.set_now_secs(at.as_secs_f64());
                    if let Err(source) = driver.snapshot_now(self.stage.app) {
                        self.fail(at, StageError::Reducer { r, source });
                        return;
                    }
                }
                self.stage.collect_snapshots(&mut self.ctx, at, r);
            } else {
                // Pre-barrier: publish the honest answer — nothing yet.
                task.counters.incr(names::SNAPSHOT_COUNT);
                let absorbed = task.buffer.len() as u64;
                self.stage
                    .publish_barrier_snapshot(&mut self.ctx, at, r, absorbed, Vec::new());
            }
        }
        // Keep ticking until the job drains (the run loop stops firing
        // events once everything is done or the job failed).
        if !self.stage.all_done() {
            let secs = self
                .stage
                .cfg
                .snapshots
                .secs_interval()
                .expect("timed policy");
            self.ctx
                .queue
                .schedule(at + SimDuration::from_secs_f64(secs), Ev::SnapshotTick);
        }
    }

    // -------------------------------------------------------- speculation

    /// Periodic straggler check, in the role of a LATE-style scheduler
    /// that tracks both task progress and per-node throughput. Two kinds
    /// of trigger, each compared against a median so a straggler is
    /// always judged relative to its healthy peers:
    ///
    /// * **Progress triggers** catch per-task noise: a map that has run
    ///   `slowdown`× longer than the median completed map, or a reducer
    ///   whose compute time exceeds `slowdown`× the expectation *for its
    ///   own input size* (a heavy partition on a healthy node is skew,
    ///   not a straggler).
    /// * **Speed triggers** catch slow nodes early, while a backup can
    ///   still win the race: a task on a node whose throughput factor
    ///   trails the alive-node median by `slowdown` is backed up as soon
    ///   as it has consumed its fair share of time (maps) or received
    ///   its first shuffle delivery (reducers,
    ///   [`Stage::back_up_reducers_on`]) — the simulated stand-in for the
    ///   per-node speed estimates a LATE scheduler maintains.
    ///
    /// All comparisons are strict, so on a homogeneous noise-free
    /// cluster — where every attempt tracks the median exactly —
    /// speculation never fires, even at `slowdown = 1`.
    fn spec_tick(&mut self, at: SimTime) {
        let SpeculationPolicy::Enabled {
            check_secs,
            slowdown,
        } = self.stage.cfg.speculation
        else {
            return;
        };
        if let Err(e) = self.back_up_stragglers(at, slowdown) {
            self.fail(at, e);
        }
        // Keep checking until the job drains.
        if !self.stage.all_done() {
            self.ctx
                .queue
                .schedule(at + SimDuration::from_secs_f64(check_secs), Ev::SpecTick);
        }
    }

    fn back_up_stragglers(&mut self, at: SimTime, slowdown: f64) -> Result<(), StageError> {
        let (ctx, stage) = (&mut self.ctx, &mut self.stage);
        let slow = ctx.slow_nodes(slowdown);
        let median = |mut xs: Vec<f64>| {
            xs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            (xs.len() >= 3).then(|| xs[xs.len() / 2])
        };
        let span_secs = |ctx: &SimCtx, kind| -> Vec<f64> {
            ctx.tracer
                .spans_of(0, kind)
                .iter()
                .map(|(_, start, end)| end.as_secs_f64() - start.as_secs_f64())
                .collect()
        };
        // Maps. The noise trigger needs a meaningful median of completed
        // maps before judging anyone; the speed trigger needs none — a
        // map on a slow node is outpaced from the moment it starts, and
        // slot availability regulates how early its backup can actually
        // launch (while primaries fill every slot, the launch finds no
        // slot and retries at a later tick).
        let map_median = median(span_secs(ctx, SpanKind::Map));
        for m in 0..stage.maps.len() {
            let task = &stage.maps[m];
            if !task.state.is_running() || stage.map_speculated[m] {
                continue;
            }
            let elapsed = at.as_secs_f64() - task.started.as_secs_f64();
            let noisy = map_median.is_some_and(|median| elapsed > slowdown * median);
            if noisy || slow[task.node] {
                stage.launch_map_backup(ctx, at, m);
            }
        }
        stage.back_up_reducers_on(ctx, at, &slow)?;
        // Reducer progress trigger. The baseline must match what the
        // engine's reducer span measures.
        // The barrier engine's SortReduce span covers only the
        // post-shuffle CPU work, whose length scales with the partition —
        // so completed reducers establish a median per-byte rate, and a
        // straggler is one whose elapsed CPU time exceeds `slowdown` ×
        // the expectation for *its own* input size (a heavy partition on
        // a healthy node is skew, not a straggler). The pipelined
        // ShuffleReduce span covers the whole running window, which is
        // dominated by the map stage every reducer waits out together, so
        // raw durations are already comparable there.
        if stage.pipelined() {
            if let Some(median) = median(span_secs(ctx, SpanKind::ShuffleReduce)) {
                for r in 0..stage.reds.len() {
                    let task = &stage.reds[r];
                    if task.state != RedState::Running || stage.red_speculated[r] {
                        continue;
                    }
                    let elapsed = at.as_secs_f64() - task.started.as_secs_f64();
                    if elapsed > slowdown * median {
                        stage.launch_red_backup(ctx, at, r)?;
                    }
                }
            }
        } else {
            let rates = ctx
                .tracer
                .spans_of(0, SpanKind::SortReduce)
                .iter()
                .filter_map(|&(task, start, end)| {
                    let bytes = stage.reds[task].input_bytes;
                    (bytes > 0).then(|| (end.as_secs_f64() - start.as_secs_f64()) / bytes as f64)
                })
                .collect();
            if let Some(per_byte) = median(rates) {
                for r in 0..stage.reds.len() {
                    let task = &stage.reds[r];
                    if task.state != RedState::Running
                        || stage.red_speculated[r]
                        || task.input_bytes == 0
                    {
                        continue;
                    }
                    let Some(from) = task.shuffle_done_at else {
                        continue;
                    };
                    let elapsed = at.as_secs_f64() - from.as_secs_f64();
                    if elapsed > slowdown * per_byte * task.input_bytes as f64 {
                        stage.launch_red_backup(ctx, at, r)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- faults

    fn fail_node(&mut self, at: SimTime, n: usize) {
        let Some(cancelled) = self.ctx.fail_node(at, n, Self::WHAT) else {
            return;
        };
        // Reducers on the dead node restart from scratch elsewhere unless
        // a surviving backup takes over; only then can the map side tell
        // which lost outputs are still needed.
        let (_, dead) = self.stage.reducers_lost_on(n);
        for r in dead {
            self.stage.restart_reducer(r);
        }
        self.stage.rerun_lost_maps(&self.ctx, n);
        for tag in cancelled {
            if let Tag::Task(_, tag) = tag {
                self.stage.on_cancelled_flow(&mut self.ctx, at, tag);
            }
        }
        self.ctx.queue.schedule(at, Ev::Schedule);
    }
}
