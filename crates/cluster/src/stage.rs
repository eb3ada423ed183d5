//! `Stage<X>` — one map → shuffle → reduce round on a [`SimCtx`].
//!
//! A stage owns its task tables (map tasks and reduce tasks, each with
//! an optional speculative backup attempt), its effective `JobConfig`
//! and its tallies, and is the *one* implementation of the task state
//! machine: DFS map fetch → compute → write → done, shuffle flows and
//! deliveries, the shuffle-complete check, pipelined absorb and finalize,
//! barrier sort and grouped reduce, the replicated output write, backup
//! launch, first-wins resolution, loser cancellation, per-task restart
//! and re-running lost map output. `SimExecutor` runs one stage;
//! `ChainSimExecutor` runs two, the second fed by the chain edge instead
//! of the DFS.
//!
//! What a stage does *not* decide comes back to its owner as a return
//! value: [`Stage::on_event`] and friends answer with a [`Note`] when the
//! owner has something to add (supply a map's input records, ship grown
//! output downstream, choose the sink of a finished reduce, mark the
//! stage complete), and fallible steps return a [`StageError`] the owner
//! words into its own failure reason. Scheduling policy — which pending
//! task starts where, and when — stays with the owner too.

use crate::ctx::{Ev, SimCtx, Tag, TaskEv, TaskTag};
use mr_core::counters::names;
use mr_core::engine::barrier::reduce_partition_barrier;
use mr_core::engine::pipeline::IncrementalDriver;
use mr_core::engine::DriverReport;
use mr_core::{
    Application, CombinerBuffer, Counters, Engine, JobConfig, MemoryPolicy, MrError, Partitioner,
    Scope, Snapshot, SnapshotPolicy, TaskKind,
};
use mr_dfs::ChunkId;
use mr_net::NodeId;
use mr_sim::{SimDuration, SimTime};
use mr_trace::{SpanKind, SpecEvent, SpecTaskKind};
use std::collections::VecDeque;

/// A batch of map-output records bound for one reducer.
type Batch<X> = Vec<(<X as Application>::MapKey, <X as Application>::MapValue)>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MapState {
    Pending,
    Fetching,
    Computing,
    /// A chain-fed task absorbing its upstream stream (DFS-fed tasks
    /// fetch and compute instead).
    Consuming,
    Writing,
    Done,
}

impl MapState {
    pub(crate) fn is_running(self) -> bool {
        !matches!(self, MapState::Pending | MapState::Done)
    }
}

pub(crate) struct MapTask<X: Application> {
    pub state: MapState,
    pub node: usize,
    pub attempt: u32,
    pub started: SimTime,
    /// Per-reducer record batches, produced by really running map().
    pub output: Option<Vec<Batch<X>>>,
    /// Nominal map-output bytes.
    pub out_bytes: u64,
    /// Nominal wire bytes of each partition's shuffle flow: its share of
    /// `out_bytes`, unless the task's owner resized it.
    pub flow_bytes: Vec<u64>,
}

impl<X: Application> MapTask<X> {
    fn new(state: MapState, node: usize, attempt: u32, started: SimTime) -> Self {
        MapTask {
            state,
            node,
            attempt,
            started,
            output: None,
            out_bytes: 0,
            flow_bytes: Vec::new(),
        }
    }

    /// Nominal bytes of partition `r`: its record share of `out_bytes`.
    /// This is what a reducer counts as input; the shuffle flow that
    /// carries it is sized by `flow_bytes`.
    fn part_share(&self, r: usize) -> u64 {
        let parts = self.output.as_ref().expect("map has output");
        let total = parts.iter().map(Vec::len).sum();
        share(self.out_bytes, parts[r].len(), total, parts.len())
    }
}

/// A partition's share of a map output's nominal `out_bytes`:
/// proportional to its `len` of the `total` records; a uniform share
/// when the map produced nothing (pure cost model).
fn share(out_bytes: u64, len: usize, total: usize, parts: usize) -> u64 {
    if total > 0 {
        (out_bytes as f64 * len as f64 / total as f64) as u64
    } else {
        out_bytes / parts as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RedState {
    Pending,
    Running,
    Finalizing,
    Writing,
    Done,
}

impl RedState {
    pub(crate) fn is_running(self) -> bool {
        !matches!(self, RedState::Pending | RedState::Done)
    }
}

pub(crate) struct ReduceTask<X: Application> {
    pub state: RedState,
    pub node: usize,
    pub attempt: u32,
    /// Task start; for a backup attempt the end of its launch overhead,
    /// which doubles as its feed gate (map completions before this
    /// instant do not feed it — `RedBackupStart` pulls everything
    /// available once setup finishes).
    pub started: SimTime,
    /// Map tasks whose batch has been *delivered*.
    pub fetched_from: Vec<bool>,
    /// Map tasks we have an in-flight or delivered flow from.
    pub flow_from: Vec<bool>,
    /// Barrier mode: buffered records awaiting the sort.
    pub buffer: Batch<X>,
    /// Pipelined mode: the live incremental driver.
    pub driver: Option<IncrementalDriver<X>>,
    /// Batches delivered but not yet charged/absorbed.
    batches: VecDeque<Batch<X>>,
    /// When the reducer's CPU drains everything scheduled on it.
    cpu_free: SimTime,
    /// Store I/O bytes already charged to the disk.
    io_charged: u64,
    pub shuffle_done_at: Option<SimTime>,
    /// Nominal bytes received through the shuffle.
    pub input_bytes: u64,
    pub out: Vec<(X::OutKey, X::OutValue)>,
    pub counters: Counters,
    pub report: Option<DriverReport>,
    /// Output pieces (local disk + remote replicas) still outstanding,
    /// their size, and when the write began.
    write_parts_left: usize,
    write_bytes: u64,
    write_started: SimTime,
    /// Every snapshot this partition has published, across task
    /// re-executions — the stream an observer saw. Never cleared on
    /// restart; sequence numbers stay monotone through faults.
    pub published_snaps: Vec<Snapshot<X>>,
    /// Next snapshot sequence number, preserved across restarts (the
    /// restarted attempt's driver resumes numbering above it).
    pub next_snap_seq: u64,
}

impl<X: Application> ReduceTask<X> {
    fn pending() -> Self {
        ReduceTask {
            state: RedState::Pending,
            node: usize::MAX,
            attempt: 0,
            started: SimTime::ZERO,
            fetched_from: Vec::new(),
            flow_from: Vec::new(),
            buffer: Vec::new(),
            driver: None,
            batches: VecDeque::new(),
            cpu_free: SimTime::ZERO,
            io_charged: 0,
            shuffle_done_at: None,
            input_bytes: 0,
            out: Vec::new(),
            counters: Counters::new(),
            report: None,
            write_parts_left: 0,
            write_bytes: 0,
            write_started: SimTime::ZERO,
            published_snaps: Vec::new(),
            next_snap_seq: 0,
        }
    }

    /// Puts the task on `node` as attempt `attempt`, running from `at`,
    /// expecting output from `n_maps` maps.
    fn launch(&mut self, node: usize, attempt: u32, at: SimTime, n_maps: usize) {
        self.state = RedState::Running;
        self.node = node;
        self.attempt = attempt;
        self.started = at;
        self.fetched_from = vec![false; n_maps];
        self.flow_from = vec![false; n_maps];
        self.cpu_free = at;
    }

    /// Takes over the partition from `old` (a losing or dead attempt):
    /// inherits its published snapshot stream and resumes numbering
    /// above everything it published, like any restarted attempt would.
    fn inherit_stream(&mut self, old: &mut ReduceTask<X>) {
        self.published_snaps = std::mem::take(&mut old.published_snaps);
        let mut seq = old.next_snap_seq.max(self.next_snap_seq);
        if let Some(d) = &old.driver {
            seq = seq.max(d.snapshot_seq());
        }
        self.next_snap_seq = seq;
        if let Some(d) = self.driver.as_mut() {
            d.set_snapshot_seq_base(seq);
        }
    }
}

/// What a stage step leaves for the stage's owner to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Note {
    /// Map attempt `(task, backup)` finished its compute time: run the
    /// map function over its input ([`Stage::map_write`]).
    MapInput(usize, bool),
    /// Primary reducer `.0` absorbed a batch; its `out` may have grown.
    OutputGrew(usize),
    /// Reducer `r` finished its reduce work (its primary slot now holds
    /// the winning attempt): the owner picks the sink.
    ReduceFinished { r: usize, backup_won: bool },
    /// A reducer's output write completed; the task is done.
    ReduceDone,
}

/// A stage step that failed the job.
#[derive(Debug)]
pub(crate) enum StageError {
    /// A reduce attempt's `IncrementalDriver` could not be built.
    DriverInit { backup: bool, source: MrError },
    /// Reducer `r`'s application code or store failed.
    Reducer { r: usize, source: MrError },
}

type StageResult<T = ()> = Result<T, StageError>;

pub(crate) struct Stage<'a, X: Application, P> {
    /// The stage's index in its run — the tracer's job id and the `job`
    /// of its events and flows.
    pub job: u32,
    pub app: &'a X,
    pub partitioner: &'a P,
    /// The stage's *effective* config: cluster-level overrides applied,
    /// and whatever its owner does not model scrubbed.
    pub cfg: JobConfig,
    /// DFS-fed stages: the input chunk of each map task.
    chunks: Vec<ChunkId>,
    pub maps: Vec<MapTask<X>>,
    pub reds: Vec<ReduceTask<X>>,
    /// Speculative backup attempts, one slot per task. `Some` while a
    /// backup races the primary; resolved first-wins (the winner is
    /// promoted into the primary table, the loser cancelled).
    pub maps_bk: Vec<Option<MapTask<X>>>,
    pub reds_bk: Vec<Option<ReduceTask<X>>>,
    /// Whether a backup was ever launched for this task — at most one
    /// backup per task, across its whole lifetime.
    pub map_speculated: Vec<bool>,
    pub red_speculated: Vec<bool>,
    /// Per-task attempt counters. Every restart *and* backup launch draws
    /// a fresh stamp from here, so no two live attempts of one task can
    /// ever share an attempt number (events and flow tags stay unambiguous).
    map_seq: Vec<u32>,
    red_seq: Vec<u32>,
    pub maps_done: usize,
    pub reds_done: usize,
    pub map_tasks_run: usize,
    pub reduce_tasks_run: usize,
    /// Map-side and speculation tallies (reducers carry their own).
    pub map_counters: Counters,
    pub first_map_done: Option<SimTime>,
    pub last_map_done: SimTime,
    pub shuffle_done: SimTime,
    pub shuffle_bytes: u64,
}

impl<'a, X, P> Stage<'a, X, P>
where
    X: Application,
    P: Partitioner<X::MapKey>,
{
    /// A stage whose map tasks read `chunks` from the DFS.
    pub(crate) fn on_dfs(
        job: u32,
        app: &'a X,
        partitioner: &'a P,
        cfg: JobConfig,
        chunks: Vec<ChunkId>,
    ) -> Self {
        let n_maps = chunks.len();
        Stage {
            chunks,
            ..Self::fed_by_owner(job, app, partitioner, cfg, n_maps)
        }
    }

    /// A stage whose `n_maps` map tasks are fed by its owner (the chain
    /// edge), which drives them to [`Stage::write_map_output`] itself.
    pub(crate) fn fed_by_owner(
        job: u32,
        app: &'a X,
        partitioner: &'a P,
        cfg: JobConfig,
        n_maps: usize,
    ) -> Self {
        let n_reds = cfg.reducers;
        Stage {
            job,
            app,
            partitioner,
            cfg,
            chunks: Vec::new(),
            maps: (0..n_maps)
                .map(|_| MapTask::new(MapState::Pending, usize::MAX, 0, SimTime::ZERO))
                .collect(),
            reds: (0..n_reds).map(|_| ReduceTask::pending()).collect(),
            maps_bk: (0..n_maps).map(|_| None).collect(),
            reds_bk: (0..n_reds).map(|_| None).collect(),
            map_speculated: vec![false; n_maps],
            red_speculated: vec![false; n_reds],
            map_seq: vec![0; n_maps],
            red_seq: vec![0; n_reds],
            maps_done: 0,
            reds_done: 0,
            map_tasks_run: 0,
            reduce_tasks_run: 0,
            map_counters: Counters::new(),
            first_map_done: None,
            last_map_done: SimTime::ZERO,
            shuffle_done: SimTime::ZERO,
            shuffle_bytes: 0,
        }
    }

    pub(crate) fn pipelined(&self) -> bool {
        matches!(self.cfg.engine, Engine::BarrierLess { .. })
    }

    pub(crate) fn all_done(&self) -> bool {
        self.maps_done == self.maps.len() && self.reds_done == self.reds.len()
    }

    /// Emits each reducer's counter totals into the trace, under its own
    /// task scope.
    pub(crate) fn trace_reducer_counters(&self, ctx: &mut SimCtx) {
        for (idx, r) in self.reds.iter().enumerate() {
            let scope = Scope::task(
                self.job,
                TaskKind::Reduce,
                idx as u32,
                r.attempt,
                r.node as u32,
            );
            ctx.tracer.counters(scope, &r.counters);
        }
    }

    /// The input chunk of map task `m`.
    pub(crate) fn chunk(&self, m: usize) -> ChunkId {
        self.chunks[m]
    }

    /// The combiner byte budget if map-side combining is active for this
    /// stage: the application must opt in, and the *effective* combiner
    /// policy must enable it.
    fn combine_budget(&self) -> Option<u64> {
        if !(self.app.combine_enabled() && self.app.uses_keyed_state()) {
            return None;
        }
        self.cfg.combiner.budget_bytes()
    }

    fn absorb_cost_per_record(&self, ctx: &SimCtx) -> f64 {
        match &self.cfg.engine {
            Engine::BarrierLess {
                memory: MemoryPolicy::KvStore { .. },
            } => ctx.costs.kv_cpu_per_record,
            Engine::BarrierLess { .. } => {
                ctx.costs.reduce_cpu_per_record + ctx.costs.absorb_extra_per_record
            }
            Engine::Barrier => ctx.costs.reduce_cpu_per_record,
        }
    }

    fn task_ev(&self, ev: TaskEv) -> Ev {
        Ev::Task(self.job, ev)
    }

    // --------------------------------------------------------- attempts

    /// Resolves an attempt stamp for map task `m` to the slot it lives
    /// in: `Some(false)` = primary, `Some(true)` = backup, `None` = a
    /// dead attempt (event dropped). Attempt stamps are drawn from a
    /// shared per-task counter, so a stamp never matches both slots.
    fn map_slot(&self, m: usize, a: u32) -> Option<bool> {
        if self.maps[m].attempt == a {
            Some(false)
        } else if self.maps_bk[m].as_ref().is_some_and(|t| t.attempt == a) {
            Some(true)
        } else {
            None
        }
    }

    /// `map_slot` for reduce tasks.
    fn red_slot(&self, r: usize, a: u32) -> Option<bool> {
        if self.reds[r].attempt == a {
            Some(false)
        } else if self.reds_bk[r].as_ref().is_some_and(|t| t.attempt == a) {
            Some(true)
        } else {
            None
        }
    }

    /// The live map attempt stamped `a`, if it is in `state`.
    fn map_in(&self, m: usize, a: u32, state: MapState) -> Option<bool> {
        self.map_slot(m, a)
            .filter(|&bk| self.map_ref(m, bk).state == state)
    }

    /// The live reduce attempt stamped `a`, if it is in `state`.
    fn red_in(&self, r: usize, a: u32, state: RedState) -> Option<bool> {
        self.red_slot(r, a)
            .filter(|&bk| self.red_ref(r, bk).state == state)
    }

    fn map_ref(&self, m: usize, bk: bool) -> &MapTask<X> {
        if bk {
            self.maps_bk[m]
                .as_ref()
                .expect("backup map attempt present")
        } else {
            &self.maps[m]
        }
    }

    fn map_mut(&mut self, m: usize, bk: bool) -> &mut MapTask<X> {
        if bk {
            self.maps_bk[m]
                .as_mut()
                .expect("backup map attempt present")
        } else {
            &mut self.maps[m]
        }
    }

    fn red_ref(&self, r: usize, bk: bool) -> &ReduceTask<X> {
        if bk {
            self.reds_bk[r]
                .as_ref()
                .expect("backup reduce attempt present")
        } else {
            &self.reds[r]
        }
    }

    fn red_mut(&mut self, r: usize, bk: bool) -> &mut ReduceTask<X> {
        if bk {
            self.reds_bk[r]
                .as_mut()
                .expect("backup reduce attempt present")
        } else {
            &mut self.reds[r]
        }
    }

    // --------------------------------------------------------- dispatch

    /// Handles one of this stage's task events.
    pub(crate) fn on_event(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        ev: TaskEv,
    ) -> StageResult<Option<Note>> {
        match ev {
            TaskEv::MapFetched(m, a) => {
                if let Some(bk) = self.map_in(m, a, MapState::Fetching) {
                    self.map_compute(ctx, at, m, bk);
                }
            }
            TaskEv::MapComputed(m, a) => {
                if let Some(bk) = self.map_in(m, a, MapState::Computing) {
                    return Ok(Some(Note::MapInput(m, bk)));
                }
            }
            TaskEv::MapWritten(m, a) => {
                if let Some(bk) = self.map_in(m, a, MapState::Writing) {
                    self.map_done(ctx, at, m, bk);
                }
            }
            TaskEv::Batch(r, a) => {
                if let Some(bk) = self.red_in(r, a, RedState::Running) {
                    let absorbed = self.batch(ctx, at, r, bk)?;
                    return Ok((absorbed && !bk).then_some(Note::OutputGrew(r)));
                }
            }
            TaskEv::SortDone(r, a) => {
                if let Some(bk) = self.red_slot(r, a) {
                    self.grouped_start(ctx, at, r, bk);
                }
            }
            TaskEv::GroupedDone(r, a) => {
                if let Some(bk) = self.red_slot(r, a) {
                    return self.grouped_done(ctx, at, r, bk).map(Some);
                }
            }
            TaskEv::FinalizeDone(r, a) => {
                if let Some(bk) = self.red_in(r, a, RedState::Finalizing) {
                    return self.finalize_done(ctx, at, r, bk).map(Some);
                }
            }
            TaskEv::OutputPartDone(r, a) => {
                // Only the resolved primary ever writes output.
                if self.red_in(r, a, RedState::Writing) == Some(false) {
                    return Ok(self.output_part_done(ctx, at, r));
                }
            }
            // Backup-start events resolve their slot by attempt, not by
            // assuming the backup slot: if the original's node died
            // during the setup latency, `fail_node` has already promoted
            // the not-yet-started backup to primary, and the attempt must
            // start from wherever it now lives (dropping the event would
            // wedge the promoted attempt in its initial state forever).
            TaskEv::MapBackupStart(m, a) => {
                if let Some(bk) = self.map_in(m, a, MapState::Fetching) {
                    self.start_fetch(ctx, at, m, bk);
                }
            }
            TaskEv::RedBackupStart(r, a) => {
                if let Some(bk) = self.red_in(r, a, RedState::Running) {
                    // Pull from every map that finished before launch;
                    // later finishers feed the attempt as they complete.
                    for m in 0..self.maps.len() {
                        if self.maps[m].state == MapState::Done && !self.red_ref(r, bk).flow_from[m]
                        {
                            self.start_shuffle_flow(ctx, at, m, r, bk);
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Handles the completion of one of this stage's flows.
    pub(crate) fn on_flow(&mut self, ctx: &mut SimCtx, at: SimTime, tag: TaskTag) {
        match tag {
            TaskTag::Fetch(m, a) => {
                if let Some(bk) = self.map_in(m, a, MapState::Fetching) {
                    self.map_compute(ctx, at, m, bk);
                }
            }
            TaskTag::Shuffle {
                map,
                map_attempt,
                red,
                red_attempt,
            } => {
                // Shuffle sources are always Done maps, which live in the
                // primary slot (backup wins are promoted there first);
                // the destination may be either reduce attempt.
                if self.maps[map].attempt != map_attempt {
                    return;
                }
                if let Some(bk) = self.red_in(red, red_attempt, RedState::Running) {
                    self.shuffle_delivery(ctx, at, map, red, bk);
                }
            }
            TaskTag::Output(r, a, replica) => {
                if self.red_in(r, a, RedState::Writing) == Some(false) {
                    // Replica received: write it to the replica's disk.
                    let done = ctx.disks[replica.0 as usize].submit(at, self.reds[r].write_bytes);
                    ctx.queue
                        .schedule(done, self.task_ev(TaskEv::OutputPartDone(r, a)));
                }
            }
        }
    }

    /// A node death cancelled one of this stage's flows. Flows whose
    /// *surviving* endpoint is still mid-task must be retried, or that
    /// task waits forever on a completion that will never arrive; flows
    /// whose surviving task was itself restarted fail the attempt/state
    /// guards and are dropped.
    pub(crate) fn on_cancelled_flow(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        tag: TaskTag,
    ) -> Option<Note> {
        match tag {
            TaskTag::Fetch(m, a) => {
                // The replica serving this input read died; re-read
                // from a surviving replica (either attempt may have
                // been the reader).
                if let Some(bk) = self.map_in(m, a, MapState::Fetching) {
                    self.start_fetch(ctx, at, m, bk);
                }
                None
            }
            // The dead source's map output is regenerated and the
            // reducer re-requests it (`restart_map` reset `flow_from`).
            TaskTag::Shuffle { .. } => None,
            TaskTag::Output(r, a, _replica) => {
                // One target of the output-replication pipeline died
                // mid-write. The block lives on the remaining
                // replicas; like HDFS, leave it under-replicated
                // rather than stall the job on a dead datanode.
                if self.red_in(r, a, RedState::Writing) == Some(false) {
                    self.output_part_done(ctx, at, r)
                } else {
                    None
                }
            }
        }
    }

    // --------------------------------------------------------- placement

    /// The next DFS-fed map to start on `node`: a pending one with a
    /// replica there if any (Hadoop's scheduler order), else the first
    /// pending one.
    pub(crate) fn next_pending_map(&self, ctx: &SimCtx, node: usize) -> Option<usize> {
        let pending = |m: &usize| self.maps[*m].state == MapState::Pending;
        (0..self.maps.len())
            .filter(pending)
            .find(|&m| ctx.dfs.is_local(self.chunks[m], NodeId(node as u32)))
            .or_else(|| (0..self.maps.len()).find(pending))
    }

    /// The lowest-index pending reducer.
    pub(crate) fn next_pending_reducer(&self) -> Option<usize> {
        self.reds.iter().position(|r| r.state == RedState::Pending)
    }

    // ---------------------------------------------------------- map side

    /// Starts pending DFS-fed map `m` on `node`.
    pub(crate) fn start_map(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, node: usize) {
        self.occupy_map(ctx, at, m, node, MapState::Fetching);
        self.start_fetch(ctx, at, m, false);
    }

    /// Takes a map slot on `node` for pending map `m` and moves it to
    /// its first running `state`.
    pub(crate) fn occupy_map(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        m: usize,
        node: usize,
        state: MapState,
    ) {
        ctx.slots.take(true, node);
        self.map_tasks_run += 1;
        let task = &mut self.maps[m];
        task.state = state;
        task.node = node;
        task.started = at;
    }

    /// Issues the input read for map `m` from the best replica of its
    /// chunk. Also used to retry after the replica serving an in-flight
    /// fetch died (the flow is cancelled; placement has been refreshed).
    fn start_fetch(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, bk: bool) {
        let task = self.map_ref(m, bk);
        let (node, attempt) = (task.node, task.attempt);
        let chunk = self.chunks[m];
        let bytes = ctx.dfs.chunk(chunk).bytes;
        let src = ctx.dfs.read_source(chunk, NodeId(node as u32));
        if src.local {
            let done = ctx.disks[node].submit(at, bytes);
            ctx.queue
                .schedule(done, self.task_ev(TaskEv::MapFetched(m, attempt)));
        } else {
            // Remote read: source disk + a network flow; the flow completes
            // last on a loaded link, the disk first on an idle one.
            ctx.disks[src.node.0 as usize].submit(at, bytes);
            ctx.net.start_flow(
                at,
                src.node,
                NodeId(node as u32),
                bytes,
                Tag::Task(self.job, TaskTag::Fetch(m, attempt)),
            );
        }
    }

    fn map_compute(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, bk: bool) {
        let task = self.map_mut(m, bk);
        task.state = MapState::Computing;
        let (node, attempt) = (task.node, task.attempt);
        let dur = SimDuration::from_secs_f64(
            ctx.costs.map_cpu_per_chunk * ctx.node_factor[node] * ctx.noise(),
        );
        ctx.queue
            .schedule(at + dur, self.task_ev(TaskEv::MapComputed(m, attempt)));
    }

    /// The compute time is charged; now actually run the map function
    /// over the chunk's `records` and write the output.
    pub(crate) fn map_write(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        m: usize,
        bk: bool,
        records: Vec<(X::InKey, X::InValue)>,
    ) {
        let mut parts = self.empty_parts();
        let emitted = self.run_map(&records, &mut parts);
        // Map-side combining: pre-aggregate each partition, charge the
        // combiner CPU on the map node, and shrink the nominal shuffle
        // bytes by the real record reduction. `out_bytes` is recomputed
        // from the nominal base every attempt so re-run maps (fault
        // recovery) land on the same value, and the combined output
        // itself is deterministic (combiners drain in key order).
        let node = self.map_ref(m, bk).node;
        let mut write_at = at;
        let mut out_bytes = (ctx.p.chunk_bytes as f64 * ctx.costs.shuffle_selectivity) as u64;
        if let Some(budget) = self.combine_budget() {
            let mut combined_total = 0u64;
            for part in &mut parts {
                let mut comb = CombinerBuffer::new(self.app, budget as usize, self.cfg.store_index);
                let mut combined: Batch<X> = Vec::new();
                for (k, v) in part.drain(..) {
                    comb.push(self.app, k, v, &mut |k2, v2| combined.push((k2, v2)));
                }
                comb.drain(self.app, &mut |k2, v2| combined.push((k2, v2)));
                combined_total += combined.len() as u64;
                *part = combined;
            }
            self.map_counters.add(names::COMBINE_INPUT_RECORDS, emitted);
            self.map_counters
                .add(names::COMBINE_OUTPUT_RECORDS, combined_total);
            let dur = SimDuration::from_secs_f64(
                ctx.costs.combine_cpu_per_record * emitted as f64 * ctx.node_factor[node],
            );
            write_at = at + dur;
            if emitted > 0 {
                out_bytes = (out_bytes as f64 * combined_total as f64 / emitted as f64) as u64;
            }
        }
        self.write_map_output(ctx, write_at, m, bk, parts, out_bytes);
    }

    /// One empty batch per reducer.
    pub(crate) fn empty_parts(&self) -> Vec<Batch<X>> {
        (0..self.cfg.reducers).map(|_| Vec::new()).collect()
    }

    /// Really runs map() over `records`, routing what it emits into
    /// `parts`; returns (and tallies) the number of records emitted.
    pub(crate) fn run_map(
        &mut self,
        records: &[(X::InKey, X::InValue)],
        parts: &mut [Batch<X>],
    ) -> u64 {
        let reducers = self.cfg.reducers;
        let mut emitted = 0u64;
        let mut emit = mr_core::FnEmit(|k: X::MapKey, v: X::MapValue| {
            emitted += 1;
            let p = self.partitioner.partition(&k, reducers);
            parts[p].push((k, v));
        });
        for (k, v) in records {
            self.app.map(k, v, &mut emit);
        }
        self.map_counters.add(names::MAP_OUTPUT_RECORDS, emitted);
        emitted
    }

    /// Map attempt `(m, bk)` has produced `parts`, nominally `out_bytes`:
    /// size each partition's shuffle flow at its share and write the
    /// output to the local disk from `write_at`.
    pub(crate) fn write_map_output(
        &mut self,
        ctx: &mut SimCtx,
        write_at: SimTime,
        m: usize,
        bk: bool,
        parts: Vec<Batch<X>>,
        out_bytes: u64,
    ) {
        let job = self.job;
        let total = parts.iter().map(Vec::len).sum();
        let task = self.map_mut(m, bk);
        task.flow_bytes = parts
            .iter()
            .map(|part| share(out_bytes, part.len(), total, parts.len()))
            .collect();
        task.output = Some(parts);
        task.out_bytes = out_bytes;
        task.state = MapState::Writing;
        let done = ctx.disks[task.node].submit(write_at, out_bytes);
        ctx.queue
            .schedule(done, Ev::Task(job, TaskEv::MapWritten(m, task.attempt)));
    }

    fn map_done(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, bk: bool) {
        // First-wins resolution: whichever attempt gets here first is the
        // map's output; the other attempt (if any) is cancelled and its
        // in-flight work torn down, exactly like a fault cancellation.
        if bk {
            let backup = self.maps_bk[m].take().expect("backup finished");
            let loser = std::mem::replace(&mut self.maps[m], backup);
            self.cancel_map_attempt(ctx, at, m, &loser);
            self.map_counters.incr(names::SPECULATION_WON);
            let (attempt, node) = (self.maps[m].attempt, self.maps[m].node);
            ctx.tracer.speculation_mark(
                self.job,
                SpecTaskKind::Map,
                m,
                attempt,
                node,
                at,
                SpecEvent::Won,
            );
        } else if let Some(loser) = self.maps_bk[m].take() {
            self.cancel_map_attempt(ctx, at, m, &loser);
        }
        let task = &mut self.maps[m];
        task.state = MapState::Done;
        self.maps_done += 1;
        ctx.slots.release(true, task.node);
        ctx.tracer.span(
            self.job,
            SpanKind::Map,
            m,
            task.attempt,
            task.node,
            task.started,
            at,
        );
        self.first_map_done.get_or_insert(at);
        self.last_map_done = self.last_map_done.max(at);
        // Feed every running reduce attempt that lacks this map's output.
        for r in 0..self.reds.len() {
            if self.reds[r].state == RedState::Running && !self.reds[r].flow_from[m] {
                self.start_shuffle_flow(ctx, at, m, r, false);
            }
            if self.reds_bk[r]
                .as_ref()
                .is_some_and(|t| t.state == RedState::Running && t.started <= at && !t.flow_from[m])
            {
                self.start_shuffle_flow(ctx, at, m, r, true);
            }
        }
        // A *re-run* map's completion can be the last thing a reducer
        // was waiting for even though it gets no new delivery (it
        // already fetched the earlier attempt's identical output), so
        // shuffle completion must be re-evaluated for everyone —
        // `check_shuffle_complete` otherwise only runs on delivery, and
        // `maps_done` dipped below full while the map re-ran.
        for r in 0..self.reds.len() {
            if self.reds[r].state == RedState::Running {
                self.check_shuffle_complete(ctx, at, r, false);
            }
            if self.reds_bk[r]
                .as_ref()
                .is_some_and(|t| t.state == RedState::Running)
            {
                self.check_shuffle_complete(ctx, at, r, true);
            }
        }
        ctx.queue.schedule(at, Ev::Schedule);
    }

    /// Launches the (single) backup attempt for straggling DFS-fed map
    /// `m`, if a map slot is free away from the straggler.
    pub(crate) fn launch_map_backup(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize) {
        let chunk = self.chunks[m];
        let Some(node) = backup_node(ctx, self.maps[m].node, true, Some(chunk)) else {
            return;
        };
        self.map_speculated[m] = true;
        ctx.slots.take(true, node);
        self.map_tasks_run += 1;
        self.map_seq[m] += 1;
        let attempt = self.map_seq[m];
        self.maps_bk[m] = Some(MapTask::new(MapState::Fetching, node, attempt, at));
        self.map_counters.incr(names::SPECULATION_LAUNCHED);
        ctx.tracer.speculation_mark(
            self.job,
            SpecTaskKind::Map,
            m,
            attempt,
            node,
            at,
            SpecEvent::Launched,
        );
        // The input read starts once the task-setup latency elapses.
        let when = at + SimDuration::from_secs_f64(ctx.costs.speculation_launch_overhead_secs);
        ctx.queue
            .schedule(when, self.task_ev(TaskEv::MapBackupStart(m, attempt)));
    }

    /// Tears down a losing map attempt after first-wins resolution: its
    /// in-flight input fetch is cancelled off the network (the same way
    /// a node death kills flows) and its slot frees once the cancel
    /// overhead elapses. Queued events addressed to the dead attempt
    /// fail the stamp guards and drop.
    fn cancel_map_attempt(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, loser: &MapTask<X>) {
        let (job, a) = (self.job, loser.attempt);
        ctx.net.cancel_where(at, |t| {
            matches!(*t, Tag::Task(j, TaskTag::Fetch(mm, aa)) if j == job && mm == m && aa == a)
        });
        self.cancelled(ctx, at, SpecTaskKind::Map, m, loser.attempt, loser.node);
    }

    /// Books a cancelled speculative attempt: counter, trace mark, and
    /// its slot freeing once the cancel overhead elapses.
    fn cancelled(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        kind: SpecTaskKind,
        task: usize,
        attempt: u32,
        node: usize,
    ) {
        self.map_counters.incr(names::SPECULATION_CANCELLED);
        ctx.tracer.speculation_mark(
            self.job,
            kind,
            task,
            attempt,
            node,
            at,
            SpecEvent::Cancelled,
        );
        let when = at + SimDuration::from_secs_f64(ctx.costs.speculation_cancel_overhead_secs);
        ctx.queue
            .schedule(when, Ev::SpecSlotFree(node, kind == SpecTaskKind::Map));
    }

    /// Sends map `m` back to Pending under a fresh attempt stamp — its
    /// output is lost or its attempt is gone — and lets every reducer
    /// that has not *received* its output request it again.
    pub(crate) fn restart_map(&mut self, m: usize) {
        if self.maps[m].state == MapState::Done {
            self.maps_done -= 1;
        }
        self.map_seq[m] += 1;
        self.maps[m] = MapTask::new(
            MapState::Pending,
            usize::MAX,
            self.map_seq[m],
            self.maps[m].started,
        );
        for r in self
            .reds
            .iter_mut()
            .chain(self.reds_bk.iter_mut().flatten())
        {
            if !r.flow_from.is_empty() && !r.fetched_from[m] {
                r.flow_from[m] = false;
            }
        }
    }

    /// Node `n` died. Running DFS-fed maps on it restart (or hand over
    /// to a surviving backup attempt); completed ones whose locally
    /// stored output now sits on *any* dead node re-run if some reducer
    /// (including one just restarted) still needs that output. Call
    /// after the reducers were restarted or promoted: the surviving
    /// attempts' `fetched_from` is what tells which outputs are needed —
    /// including output stored on a node that died in an *earlier*
    /// failure.
    pub(crate) fn rerun_lost_maps(&mut self, ctx: &SimCtx, n: usize) {
        for m in 0..self.maps.len() {
            if self.maps_bk[m].as_ref().is_some_and(|t| t.node == n) {
                self.maps_bk[m] = None;
            }
            let running_here = self.maps[m].state.is_running() && self.maps[m].node == n;
            if running_here {
                if let Some(backup) = self.maps_bk[m].take() {
                    // The backup races on alone as the primary.
                    self.maps[m] = backup;
                    continue;
                }
            }
            if running_here || self.map_output_lost(ctx, m) {
                self.restart_map(m);
            }
        }
    }

    /// Whether completed map `m`'s output sits on a dead node while some
    /// unfinished reduce attempt has yet to receive it.
    pub(crate) fn map_output_lost(&self, ctx: &SimCtx, m: usize) -> bool {
        self.maps[m].state == MapState::Done
            && !ctx.slots.alive[self.maps[m].node]
            && self
                .reds
                .iter()
                .chain(self.reds_bk.iter().flatten())
                .any(|r| r.state != RedState::Done && !r.fetched_from.get(m).is_some_and(|&f| f))
    }

    // -------------------------------------------------------- reduce side

    /// Starts pending reducer `r` on `node`.
    pub(crate) fn start_reduce(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
        node: usize,
    ) -> StageResult {
        ctx.slots.take(false, node);
        self.reduce_tasks_run += 1;
        let n_maps = self.maps.len();
        let attempt = self.reds[r].attempt;
        self.reds[r].launch(node, attempt, at, n_maps);
        if self.pipelined() {
            let mut driver = IncrementalDriver::new(self.app, &self.cfg, r).map_err(|source| {
                StageError::DriverInit {
                    backup: false,
                    source,
                }
            })?;
            // Restarted attempts resume snapshot numbering above
            // their predecessor: the published stream never
            // regresses through fault recovery.
            driver.set_snapshot_seq_base(self.reds[r].next_snap_seq);
            self.reds[r].driver = Some(driver);
        }
        // Pull from every already-finished map.
        for m in 0..n_maps {
            if self.maps[m].state == MapState::Done {
                self.start_shuffle_flow(ctx, at, m, r, false);
            }
        }
        Ok(())
    }

    fn start_shuffle_flow(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, r: usize, bk: bool) {
        let map = &self.maps[m];
        let (bytes, src, map_attempt) = (map.flow_bytes[r], map.node, map.attempt);
        let task = self.red_mut(r, bk);
        task.flow_from[m] = true;
        let (dst, red_attempt) = (task.node, task.attempt);
        self.shuffle_bytes += bytes;
        ctx.net.start_flow(
            at,
            NodeId(src as u32),
            NodeId(dst as u32),
            bytes,
            Tag::Task(
                self.job,
                TaskTag::Shuffle {
                    map: m,
                    map_attempt,
                    red: r,
                    red_attempt,
                },
            ),
        );
    }

    fn shuffle_delivery(&mut self, ctx: &mut SimCtx, at: SimTime, m: usize, r: usize, bk: bool) {
        let map = &self.maps[m];
        let batch = map.output.as_ref().expect("done map")[r].clone();
        let bytes = map.part_share(r);
        let pipelined = self.pipelined();
        let absorb_cost = self.absorb_cost_per_record(ctx);
        let ev = self.task_ev(TaskEv::Batch(r, self.red_ref(r, bk).attempt));
        let task = self.red_mut(r, bk);
        task.fetched_from[m] = true;
        task.input_bytes += bytes;
        if pipelined {
            // Charge the absorb CPU as one batch on the reducer's core.
            let cost = absorb_cost * batch.len() as f64;
            let dur = SimDuration::from_secs_f64(cost * ctx.node_factor[task.node]);
            task.cpu_free = task.cpu_free.max(at) + dur;
            task.batches.push_back(batch);
            ctx.queue.schedule(task.cpu_free, ev);
        } else {
            task.buffer.extend(batch);
        }
        self.check_shuffle_complete(ctx, at, r, bk);
    }

    fn check_shuffle_complete(&mut self, ctx: &mut SimCtx, at: SimTime, r: usize, bk: bool) {
        let (job, n_maps) = (self.job, self.maps.len());
        let maps_done = self.maps_done == n_maps;
        let pipelined = self.pipelined();
        let task = self.red_mut(r, bk);
        let all =
            task.fetched_from.iter().all(|&f| f) && task.fetched_from.len() == n_maps && maps_done;
        if !all || task.shuffle_done_at.is_some() {
            return;
        }
        task.shuffle_done_at = Some(at);
        if pipelined {
            // Finalize once the CPU drains the queued batches.
            let when = task.cpu_free.max(at);
            ctx.queue
                .schedule(when, Ev::Task(job, TaskEv::Batch(r, task.attempt)));
        } else {
            // Barrier reached: sort, then reduce. The Shuffle span is
            // recorded for the primary attempt only (backups would
            // double-report partition r's fetch window).
            if !bk {
                ctx.tracer.span(
                    job,
                    SpanKind::Shuffle,
                    r,
                    task.attempt,
                    task.node,
                    task.started,
                    at,
                );
            }
            let n = task.buffer.len() as f64;
            let sort =
                ctx.costs.sort_cpu_coeff * n * n.max(2.0).log2() * ctx.node_factor[task.node];
            ctx.queue.schedule(
                at + SimDuration::from_secs_f64(sort),
                Ev::Task(job, TaskEv::SortDone(r, task.attempt)),
            );
        }
        self.shuffle_done = self.shuffle_done.max(at);
    }

    /// Pipelined: one delivered batch's absorb work completes. Returns
    /// whether a batch was absorbed (as opposed to a bare finalize
    /// check).
    fn batch(&mut self, ctx: &mut SimCtx, at: SimTime, r: usize, bk: bool) -> StageResult<bool> {
        let (job, app) = (self.job, self.app);
        let task = self.red_mut(r, bk);
        let batch = task.batches.pop_front();
        let absorbed = batch.is_some();
        if let Some(batch) = batch {
            let driver = task.driver.as_mut().expect("pipelined reducer");
            // Stamp virtual time so record-driven snapshots published
            // mid-batch carry the sim clock.
            driver.set_now_secs(at.as_secs_f64());
            for (k, v) in batch {
                driver
                    .push(app, k, v, &mut task.out)
                    .map_err(|source| StageError::Reducer { r, source })?;
            }
            // Sample the heap and charge new store I/O to the local disk
            // (heap samples track the observer-visible primary only).
            if !bk {
                let bytes = driver.modelled_bytes();
                ctx.tracer
                    .heap_sample(job, r, task.attempt, task.node, at, bytes);
            }
            let io = driver.io_bytes();
            if io > task.io_charged {
                ctx.disks[task.node].submit(at, io - task.io_charged);
                task.io_charged = io;
            }
            // Record-driven snapshots published during this batch:
            // mark, charge, collect (primary only — backup drivers run
            // with snapshots disabled).
            if !bk {
                self.collect_snapshots(ctx, at, r);
            }
        }
        // All shuffled + all absorbed => finalize.
        let task = self.red_mut(r, bk);
        if task.shuffle_done_at.is_some() && task.batches.is_empty() && task.cpu_free <= at {
            task.state = RedState::Finalizing;
            let entries = task.driver.as_ref().map_or(0, |d| d.entries());
            let dur = SimDuration::from_secs_f64(
                ctx.costs.finalize_cpu_per_entry * entries as f64 * ctx.node_factor[task.node],
            );
            ctx.queue.schedule(
                at + dur,
                Ev::Task(job, TaskEv::FinalizeDone(r, task.attempt)),
            );
        }
        Ok(absorbed)
    }

    /// Drains freshly published snapshots out of primary reducer `r`'s
    /// driver: records trace marks, charges the snapshot CPU on the
    /// reducer's core (delaying subsequent absorption — observation is
    /// not free), and appends to the partition's published stream.
    /// Nothing to drain when the stage's config has snapshots off.
    pub(crate) fn collect_snapshots(&mut self, ctx: &mut SimCtx, at: SimTime, r: usize) {
        let job = self.job;
        let task = &mut self.reds[r];
        let Some(driver) = task.driver.as_mut() else {
            return;
        };
        let fresh = driver.take_snapshots();
        if fresh.is_empty() {
            return;
        }
        task.next_snap_seq = driver.snapshot_seq();
        let factor = ctx.node_factor[task.node];
        let mut cpu = 0.0;
        for snap in &fresh {
            ctx.tracer.snapshot_mark(
                job,
                r,
                task.attempt,
                task.node,
                at,
                snap.seq,
                snap.estimate.len() as u64,
                snap.live_entries,
            );
            cpu += ctx.costs.snapshot_cpu_per_record * snap.estimate.len() as f64 * factor;
        }
        task.published_snaps.extend(fresh);
        if cpu > 0.0 {
            task.cpu_free = task.cpu_free.max(at) + SimDuration::from_secs_f64(cpu);
            // The charge may push the CPU past every scheduled batch
            // event; re-arm one at the new drain time so the finalize
            // check (`cpu_free <= at`) is re-evaluated and the reducer
            // can never stall on a snapshot bill.
            if task.state == RedState::Running {
                ctx.queue
                    .schedule(task.cpu_free, Ev::Task(job, TaskEv::Batch(r, task.attempt)));
            }
        }
    }

    /// Publishes a snapshot the barrier engine can stand behind: nothing
    /// before the grouped reduce has run, the finished output after.
    pub(crate) fn publish_barrier_snapshot(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
        records_absorbed: u64,
        estimate: Vec<(X::OutKey, X::OutValue)>,
    ) {
        let task = &mut self.reds[r];
        let seq = task.next_snap_seq;
        task.next_snap_seq += 1;
        let records = estimate.len() as u64;
        task.published_snaps.push(Snapshot {
            reducer: r,
            seq,
            records_absorbed,
            live_entries: 0,
            at_secs: at.as_secs_f64(),
            estimate,
        });
        ctx.tracer
            .snapshot_mark(self.job, r, task.attempt, task.node, at, seq, records, 0);
    }

    /// First-wins resolution for reduce task `r`, invoked the moment an
    /// attempt finishes its reduce work (before any output write or
    /// handoff, so nothing downstream ever sees two winners). A winning
    /// backup is promoted into the primary slot and inherits the
    /// partition's published snapshot stream; the losing attempt is
    /// cancelled and its in-flight flows torn down like a node death's.
    /// Returns whether the backup won.
    fn resolve_red_winner(&mut self, ctx: &mut SimCtx, at: SimTime, r: usize, bk: bool) -> bool {
        if bk {
            let mut backup = self.reds_bk[r].take().expect("backup finished");
            backup.inherit_stream(&mut self.reds[r]);
            let loser = std::mem::replace(&mut self.reds[r], backup);
            self.cancel_red_attempt(ctx, at, r, &loser);
            self.map_counters.incr(names::SPECULATION_WON);
            let (attempt, node) = (self.reds[r].attempt, self.reds[r].node);
            ctx.tracer.speculation_mark(
                self.job,
                SpecTaskKind::Reduce,
                r,
                attempt,
                node,
                at,
                SpecEvent::Won,
            );
        } else if let Some(loser) = self.reds_bk[r].take() {
            self.cancel_red_attempt(ctx, at, r, &loser);
        }
        bk
    }

    /// Tears down a losing reduce attempt: cancel its in-flight shuffle
    /// fetches, free its slot after the cancel overhead.
    fn cancel_red_attempt(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
        loser: &ReduceTask<X>,
    ) {
        self.cancel_red_flows(ctx, at, r, loser.attempt);
        self.cancelled(ctx, at, SpecTaskKind::Reduce, r, loser.attempt, loser.node);
    }

    /// Cancels the in-flight shuffle and output flows of reduce attempt
    /// `(r, a)`.
    pub(crate) fn cancel_red_flows(&self, ctx: &mut SimCtx, at: SimTime, r: usize, a: u32) {
        let job = self.job;
        ctx.net.cancel_where(at, |t| match *t {
            Tag::Task(
                j,
                TaskTag::Shuffle {
                    red, red_attempt, ..
                },
            ) => j == job && red == r && red_attempt == a,
            Tag::Task(j, TaskTag::Output(rr, aa, _)) => j == job && rr == r && aa == a,
            _ => false,
        });
    }

    fn finalize_done(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
        bk: bool,
    ) -> StageResult<Note> {
        // Resolve the race before touching output: from here on, `r`'s
        // primary slot holds the winning attempt.
        let backup_won = self.resolve_red_winner(ctx, at, r, bk);
        let reducer_failed = |source| StageError::Reducer { r, source };
        // Snapshot policies publish one last snapshot at end-of-input,
        // so the final estimate an observer holds equals the answer.
        if self.cfg.snapshots.is_enabled() {
            if let Some(driver) = self.reds[r].driver.as_mut() {
                driver.set_now_secs(at.as_secs_f64());
                driver.snapshot_now(self.app).map_err(reducer_failed)?;
            }
            self.collect_snapshots(ctx, at, r);
        }
        // Run the real merge+finalize.
        let task = &mut self.reds[r];
        let driver = task.driver.take().expect("pipelined reducer");
        let report = driver
            .finish(self.app, &mut task.counters, &mut task.out)
            .map_err(reducer_failed)?;
        // Spill-merge reads its runs back during the merge.
        let merge_read = report.store.spill_bytes;
        if merge_read > 0 {
            ctx.disks[task.node].submit(at, merge_read);
        }
        task.counters
            .add(names::REDUCE_OUTPUT_RECORDS, task.out.len() as u64);
        task.report = Some(report);
        ctx.tracer.span(
            self.job,
            SpanKind::ShuffleReduce,
            r,
            task.attempt,
            task.node,
            task.started,
            at,
        );
        Ok(Note::ReduceFinished { r, backup_won })
    }

    /// Barrier: sort finished; charge the grouped reduce pass.
    fn grouped_start(&mut self, ctx: &mut SimCtx, at: SimTime, r: usize, bk: bool) {
        let task = self.red_ref(r, bk);
        let n = task.buffer.len() as f64;
        let dur = SimDuration::from_secs_f64(
            ctx.costs.reduce_cpu_per_record * n * ctx.node_factor[task.node],
        );
        ctx.queue
            .schedule(at + dur, self.task_ev(TaskEv::GroupedDone(r, task.attempt)));
    }

    fn grouped_done(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
        bk: bool,
    ) -> StageResult<Note> {
        // First-wins resolution before the real reduce runs and the
        // output write starts.
        let backup_won = self.resolve_red_winner(ctx, at, r, bk);
        // Run the real sort+group+reduce.
        let task = &mut self.reds[r];
        let records = std::mem::take(&mut task.buffer);
        let absorbed = records.len() as u64;
        task.out = reduce_partition_barrier(self.app, records, &mut task.counters)
            .map_err(|source| StageError::Reducer { r, source })?;
        // The barrier engine's one useful snapshot: its finished output,
        // publishable only now — after the barrier, the sort and the
        // full grouped pass.
        if self.cfg.snapshots.is_enabled() {
            task.counters.incr(names::SNAPSHOT_COUNT);
            task.counters
                .add(names::SNAPSHOT_RECORDS, task.out.len() as u64);
            let estimate = task.out.clone();
            self.publish_barrier_snapshot(ctx, at, r, absorbed, estimate);
        }
        let task = &self.reds[r];
        let start = task.shuffle_done_at.expect("sorted after shuffle");
        ctx.tracer.span(
            self.job,
            SpanKind::SortReduce,
            r,
            task.attempt,
            task.node,
            start,
            at,
        );
        Ok(Note::ReduceFinished { r, backup_won })
    }

    /// Writes finished reducer `r`'s `bytes` of output to the DFS:
    /// local disk plus `replication - 1` remote copies.
    pub(crate) fn start_output_write(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
        bytes: u64,
    ) {
        let job = self.job;
        let task = &mut self.reds[r];
        task.state = RedState::Writing;
        task.write_started = at;
        task.write_bytes = bytes;
        let (node, attempt) = (task.node, task.attempt);
        let targets = ctx.dfs.write_targets(NodeId(node as u32));
        task.write_parts_left = targets.len();
        let local_done = ctx.disks[node].submit(at, bytes);
        ctx.queue.schedule(
            local_done,
            Ev::Task(job, TaskEv::OutputPartDone(r, attempt)),
        );
        for &replica in targets.iter().skip(1) {
            ctx.net.start_flow(
                at,
                NodeId(node as u32),
                replica,
                bytes,
                Tag::Task(job, TaskTag::Output(r, attempt, replica)),
            );
        }
    }

    fn output_part_done(&mut self, ctx: &mut SimCtx, at: SimTime, r: usize) -> Option<Note> {
        let task = &mut self.reds[r];
        task.write_parts_left -= 1;
        if task.write_parts_left > 0 {
            return None;
        }
        ctx.tracer.span(
            self.job,
            SpanKind::Output,
            r,
            task.attempt,
            task.node,
            task.write_started,
            at,
        );
        self.reduce_done(ctx, r);
        ctx.queue.schedule(at, Ev::Schedule);
        Some(Note::ReduceDone)
    }

    /// Marks reducer `r` done and releases its slot.
    pub(crate) fn reduce_done(&mut self, ctx: &mut SimCtx, r: usize) {
        self.reds[r].state = RedState::Done;
        self.reds_done += 1;
        ctx.slots.release(false, self.reds[r].node);
    }

    // -------------------------------------------------------- speculation

    /// Backs up every running, not-yet-speculated reducer that sits on a
    /// `slow` node, as soon as real work has reached it: such a reducer
    /// loses by roughly its node's throughput deficit no matter how the
    /// shuffle goes. Shuffle-delivery counts are deliberately NOT a
    /// trigger: the simulator models the network explicitly, so delivery
    /// lag always traces to fair link contention (e.g. two reducers
    /// sharing one node's inbound link) — never to a hidden slow node —
    /// and backing up a contended-but-healthy reducer can only lose the
    /// race.
    pub(crate) fn back_up_reducers_on(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        slow: &[bool],
    ) -> StageResult {
        for r in 0..self.reds.len() {
            let task = &self.reds[r];
            if task.state == RedState::Running
                && !self.red_speculated[r]
                && task.fetched_from.iter().any(|&f| f)
                && slow[task.node]
            {
                self.launch_red_backup(ctx, at, r)?;
            }
        }
        Ok(())
    }

    /// Launches the (single) backup attempt for straggling reducer `r`
    /// on an alive node away from the straggler, if a reduce slot is
    /// free there (otherwise a later tick retries). The backup starts
    /// pulling map output after the launch overhead; it never publishes
    /// snapshots or heap samples — on promotion the winner resumes the
    /// partition's sequence numbering.
    pub(crate) fn launch_red_backup(
        &mut self,
        ctx: &mut SimCtx,
        at: SimTime,
        r: usize,
    ) -> StageResult {
        let Some(node) = backup_node(ctx, self.reds[r].node, false, None) else {
            return Ok(());
        };
        let launch = at + SimDuration::from_secs_f64(ctx.costs.speculation_launch_overhead_secs);
        self.red_speculated[r] = true;
        ctx.slots.take(false, node);
        self.reduce_tasks_run += 1;
        self.red_seq[r] += 1;
        let attempt = self.red_seq[r];
        let mut task = ReduceTask::pending();
        task.launch(node, attempt, launch, self.maps.len());
        if self.pipelined() {
            let mut cfg = self.cfg.clone();
            cfg.snapshots = SnapshotPolicy::Disabled;
            let driver = IncrementalDriver::new(self.app, &cfg, r).map_err(|source| {
                StageError::DriverInit {
                    backup: true,
                    source,
                }
            })?;
            task.driver = Some(driver);
        }
        self.reds_bk[r] = Some(task);
        self.map_counters.incr(names::SPECULATION_LAUNCHED);
        ctx.tracer.speculation_mark(
            self.job,
            SpecTaskKind::Reduce,
            r,
            attempt,
            node,
            at,
            SpecEvent::Launched,
        );
        ctx.queue
            .schedule(launch, self.task_ev(TaskEv::RedBackupStart(r, attempt)));
        Ok(())
    }

    // ------------------------------------------------------------- faults

    /// Node `n` died. Backup reduce attempts on it are dropped (death is
    /// not a cancellation — no overhead, no counter; a task is
    /// speculated at most once, so no replacement is launched). A dead
    /// *primary* with a surviving backup promotes the backup, which
    /// simply keeps running from wherever its own shuffle progress
    /// stands. Returns the promoted reducers and the dead ones still to
    /// be restarted ([`Stage::restart_reducer`]).
    pub(crate) fn reducers_lost_on(&mut self, n: usize) -> (Vec<usize>, Vec<usize>) {
        let (mut promoted, mut dead) = (Vec::new(), Vec::new());
        for r in 0..self.reds.len() {
            if self.reds_bk[r].as_ref().is_some_and(|t| t.node == n) {
                self.reds_bk[r] = None;
            }
            if self.reds[r].node == n && self.reds[r].state.is_running() {
                if let Some(mut backup) = self.reds_bk[r].take() {
                    backup.inherit_stream(&mut self.reds[r]);
                    self.reds[r] = backup;
                    promoted.push(r);
                } else {
                    dead.push(r);
                }
            }
        }
        (promoted, dead)
    }

    /// Sends reducer `r` back to Pending under a fresh attempt stamp, to
    /// restart from scratch elsewhere. Snapshots the old attempt
    /// published stay published; the restart numbers above them.
    pub(crate) fn restart_reducer(&mut self, r: usize) {
        if self.reds[r].state == RedState::Done {
            self.reds_done -= 1;
        }
        self.red_seq[r] += 1;
        let mut fresh = ReduceTask::pending();
        fresh.attempt = self.red_seq[r];
        fresh.started = self.reds[r].started;
        fresh.inherit_stream(&mut self.reds[r]);
        self.reds[r] = fresh;
    }
}

/// Picks a node for a backup attempt: alive, not the straggler's own
/// node, with a free slot of the right kind. Among the candidates the
/// *fastest* node wins (the simulator plays the LATE-style scheduler
/// that tracks per-node throughput) — a backup only pays off if it
/// can outrun the straggler, so placement on another slow node would
/// just burn a slot. Ties prefer chunk locality for maps, then the
/// lightest load.
fn backup_node(ctx: &SimCtx, avoid: usize, is_map: bool, chunk: Option<ChunkId>) -> Option<usize> {
    let key = |n: usize| {
        let local = chunk.is_some_and(|c| ctx.dfs.is_local(c, NodeId(n as u32)));
        (ctx.node_factor[n], !local, ctx.slots.used(is_map, n), n)
    };
    (0..ctx.p.nodes)
        .filter(|&n| n != avoid && ctx.slots.has_free(is_map, n))
        .min_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("factors are finite"))
}
