//! The real multi-threaded local executor.
//!
//! Runs a job for real on OS threads — not a simulation. Since PR 8 the
//! executor is a **fixed-size worker pool** ([`pool`]): every mapper and
//! reducer is a cooperative *task state machine* driven from a ready
//! queue by `JobConfig::pool_workers` OS threads. A task blocked on a
//! full or empty shuffle channel parks (holding no thread) and is
//! re-enqueued when the channel has room or data, so hundreds of small concurrent jobs multiplex on N cores with
//! a bounded thread count — see [`LocalRunner::run_many`].
//!
//! **Both engines share one map side.** Map tasks claim splits from a
//! shared cursor and stream records into bounded per-reducer channels
//! (downstream of a streaming chain boundary the map side is the
//! upstream reducers' sinks instead, see [`crate::chain::local`]); the
//! stage barrier is a property of the *reduce* task alone. Under the barrier-less engine a reduce task
//! absorbs each batch as it arrives — genuine map/reduce pipelining, the
//! local analogue of the paper's overlapped shuffle. Under the barrier
//! engine a reduce task only *holds* arriving batches (pointer moves, so
//! mappers are never stalled for long); channel EOF — every map task has
//! finished — **is** the barrier, after which it restores split order
//! and runs the grouped sort-reduce over the held bytes, decoding only
//! what it hands the application. Every batch carries the index of the
//! split it was cut from; one split is mapped by one task over a FIFO
//! channel, so a stable sort of the held batches by that index is
//! exactly the split-order concatenation the stable-sort contract of [`reduce_partition_barrier`] needs ("equal keys stay in
//! fetch order"), at any pool width.
//!
//! [`reduce_partition_barrier`]: crate::engine::barrier::reduce_partition_barrier
//!
//! The shuffle transport is **batched and serialized**: each map task
//! encodes records per reducer into a flat byte buffer (`batch.rs`) under
//! [`JobConfig::shuffle_batch_bytes`] and hands whole batches to the
//! channel, so the per-record cost of the hot path is one codec append
//! instead of one channel rendezvous — and the application's
//! heap-allocated keys never leave the thread (and allocator arena) that
//! made them; the reducer decodes its own. Back-pressure is preserved —
//! the batch channels are bounded, and a full reducer parks its mappers.
//! Batch boundaries are decided **per split by byte budget** (the
//! [`SizeEstimate`] of the records, not their encoded length), never by
//! channel timing, so `shuffle.batches` and `shuffle.records` are
//! deterministic at any pool width — and the same under both engines.
//! `shuffle.batch_reuse` is likewise *modelled* from deterministic batch
//! counts: a pipelined reducer hands every drained buffer back to the
//! mappers, so each batch it received beyond its channel's depth must
//! have ridden a recycled one (the physical free-list still runs, it
//! just does not drive the counter). A barrier reducer holds every batch
//! until EOF, recycles nothing, and charges nothing. When the application opts
//! into map-side combining ([`Application::combine_enabled`]), the
//! per-reducer buffers become [`CombinerBuffer`]s: records are
//! pre-aggregated under the combiner byte budget and the shuffle carries
//! combined partials instead of raw records (combiners drain at each
//! split boundary, keeping their batch cuts deterministic too).
//!
//! With a [`SnapshotPolicy`](crate::SnapshotPolicy) enabled, pipelined
//! reduce tasks additionally publish consistent point-in-time snapshots
//! of their partial results — early estimates of the final answer —
//! between batches, over a frozen view of the store (absorb is never
//! stalled by a lock and final output is untouched). The barrier engine
//! has no partial state to observe, so its reducers publish exactly one
//! snapshot each: their finished output.

mod batch;
pub mod cache;
pub mod pool;
pub mod service;

use crate::combine::CombinerBuffer;
use crate::config::{Engine, JobConfig};
use crate::counters::{names, Counters};
use crate::engine::barrier::reduce_encoded_runs;
use crate::engine::pipeline::IncrementalDriver;
use crate::engine::DriverReport;
use crate::error::{MrError, MrResult};
use crate::output::JobOutput;
use crate::partition::{HashPartitioner, Partitioner};
use crate::size::SizeEstimate;
use crate::snapshot::Snapshot;
use crate::traits::{Application, Emit};
pub(crate) use batch::FlatBatch;
use cache::SharedCache;
use mr_cache::StableHash;
use mr_trace::{
    Scope, SpanKind, TaskKind, TraceDispatcher, TraceEvent, TraceLog, TraceRecorder, NO_NODE,
};
use pool::{Ctx, Outbox, Pool, PoolReceiver, PoolSender, Step, TryRecv};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Bounded shuffle-channel depth per reducer, in *batches*. With the
/// default 32 KiB batch budget this keeps roughly 2 MiB in flight per
/// reducer — deep enough to decouple bursts, shallow enough to exert
/// back-pressure like a real shuffle buffer.
const BATCH_CHANNEL_DEPTH: usize = 64;

/// Input records a map task processes per scheduler step: big enough to
/// amortize dispatch, small enough that one task cannot hog a worker.
const MAP_RECORDS_PER_STEP: usize = 512;

/// Shuffle batches a reduce task absorbs per scheduler step.
const BATCHES_PER_STEP: usize = 16;

/// Whether this job should run the map-side combiner: policy says yes,
/// the application opted in, and it keeps per-key state to combine.
pub(crate) fn combining_active<A: Application>(app: &A, cfg: &JobConfig) -> bool {
    cfg.combiner.is_enabled() && app.combine_enabled() && app.uses_keyed_state()
}

/// The one snapshot a barrier reduce task can publish: its finished
/// output (there is no partial state to observe before the barrier).
/// Returns the singleton list when snapshots are enabled, empty
/// otherwise, and charges the snapshot counters.
fn barrier_snapshot<A: Application>(
    cfg: &JobConfig,
    reducer: usize,
    records_absorbed: u64,
    at_secs: f64,
    out: &[(A::OutKey, A::OutValue)],
    counters: &mut Counters,
) -> Vec<Snapshot<A>> {
    if !cfg.snapshots.is_enabled() {
        return Vec::new();
    }
    counters.incr(names::SNAPSHOT_COUNT);
    counters.add(names::SNAPSHOT_RECORDS, out.len() as u64);
    vec![Snapshot {
        reducer,
        seq: 0,
        records_absorbed,
        live_entries: 0,
        at_secs,
        estimate: out.to_vec(),
    }]
}

/// Emits one `Counter` trace event per entry of `counters` — zeros
/// included, bypassing [`TraceRecorder::counter`]'s zero-skip: these are
/// *totals*, and the log's counter events must sum to exactly the
/// returned counters, keeping keys that were touched but never
/// incremented.
fn record_counter_totals(rec: &mut TraceRecorder, counters: &Counters) {
    for (name, value) in counters.iter() {
        rec.record(TraceEvent::Counter {
            label: name.to_string().into(),
            delta: value,
        });
    }
}

/// Adds a cached run's cache charges to its counters and, when tracing,
/// to its trace as one more job-scope batch — keeping
/// `Counters::from_trace(&out.trace)` equal to `out.counters` — with a
/// `CacheMark` of `(hits, misses, bytes)` when one is given.
fn charge_cache<A: Application>(
    out: &mut JobOutput<A>,
    cfg: &JobConfig,
    extra: &Counters,
    mark: Option<(u64, u64, u64)>,
) {
    out.counters.merge(extra);
    if cfg.trace.is_enabled() {
        let mut rec = TraceRecorder::new(Scope::job(0), true);
        record_counter_totals(&mut rec, extra);
        if let Some((hits, misses, bytes)) = mark {
            rec.cache_mark_wall(0.0, hits, misses, bytes);
        }
        let dispatcher = TraceDispatcher::new(true);
        rec.flush_into(&dispatcher);
        out.trace.entries.extend(dispatcher.finish().entries);
    }
}

/// One input split: the record shape a stage's map tasks consume.
pub(crate) type InputSplit<A> = Vec<(<A as Application>::InKey, <A as Application>::InValue)>;

/// Where a reduce task's emitted output goes.
///
/// Normal jobs sink into a plain `Vec` — the materialized partition
/// buffer `JobOutput` carries. The chain driver
/// ([`crate::chain::local`]) sinks into the next stage's map function
/// and shuffle instead, so intermediate output is never materialized.
/// Every emission path of a reduce task goes through the sink:
/// absorb-time emissions, finalize, shared-state flush.
///
/// Sinks are *non-blocking*: `emit` may buffer, and the owning pool task
/// calls [`pump`](ReduceSink::pump) each step to drain buffered output
/// downstream, parking when downstream is full.
pub(crate) trait ReduceSink<A: Application>: Emit<A::OutKey, A::OutValue> + Send {
    /// Absorbs a whole already-computed output batch (the barrier
    /// engine's reduce result).
    fn absorb_batch(&mut self, batch: Vec<(A::OutKey, A::OutValue)>) {
        for (k, v) in batch {
            self.emit(k, v);
        }
    }

    /// Records emitted so far (feeds `reduce.output.records`).
    fn emitted(&self) -> u64;

    /// Drains any buffered output toward downstream without blocking.
    /// Returns `false` if downstream is full — the registered task
    /// should park. A `Vec` sink has nothing to drain.
    fn pump(&mut self, cx: &Ctx) -> bool {
        let _ = cx;
        true
    }

    /// End of input: stage whatever remains buffered (no sends — the
    /// task keeps pumping until [`pump`](ReduceSink::pump) reports
    /// empty).
    fn seal(&mut self) {}

    /// Called once everything is pumped: release any downstream handle
    /// (EOF) and merge transport stats.
    fn close(&mut self) {}

    /// The materialized partition, if this sink keeps one (empty for
    /// streaming sinks — their records are downstream already).
    fn into_partition(self) -> Vec<(A::OutKey, A::OutValue)>
    where
        Self: Sized;
}

impl<A: Application> ReduceSink<A> for Vec<(A::OutKey, A::OutValue)> {
    fn absorb_batch(&mut self, mut batch: Vec<(A::OutKey, A::OutValue)>) {
        if self.is_empty() {
            *self = batch;
        } else {
            self.append(&mut batch);
        }
    }

    fn emitted(&self) -> u64 {
        self.len() as u64
    }

    fn into_partition(self) -> Vec<(A::OutKey, A::OutValue)> {
        self
    }
}

/// A recycled byte buffer from a stage's free-list, or a new one.
fn fresh_batch(pool: &Mutex<Vec<FlatBatch>>) -> FlatBatch {
    pool.lock().unwrap().pop().unwrap_or_default()
}

/// Per-map-task output fan-out for the shuffle: per-reducer buffers
/// (plain byte-budgeted [`FlatBatch`]es, or combiners when map-side
/// combining is active), non-blocking sends into the pool's bounded
/// batch channels, and free-list buffer recycling. Records are encoded
/// into the batch on this thread and dropped here; only bytes cross to
/// the reducer. Shared by the split map tasks and the chain driver's
/// streaming sinks (an upstream reducer mapping into the downstream
/// shuffle), under either engine, so every transport batches, combines
/// and recycles identically.
///
/// Sends never block: batches leave through an [`Outbox`] that the
/// owning task drains via [`pump`](ShuffleEmitter::pump), parking until
/// the reducer makes room. Batch *accounting* happens at staging time —
/// a pure function of split contents — so the shuffle counters are
/// schedule-independent.
pub(crate) struct ShuffleEmitter<'a, A: Application, P: Partitioner<A::MapKey>> {
    app: &'a A,
    partitioner: &'a P,
    reducers: usize,
    outbox: Outbox<FlatBatch>,
    batch_pool: &'a Mutex<Vec<FlatBatch>>,
    totals: &'a Mutex<Counters>,
    /// Index of the split being mapped; stamped on every batch staged
    /// from it.
    split: usize,
    plain: Vec<FlatBatch>,
    /// [`SizeEstimate`] bytes buffered per reducer since the last cut —
    /// the batch budget is charged in modelled heap bytes, not encoded
    /// bytes, so cuts (and the shuffle counters) do not depend on the
    /// wire format.
    plain_bytes: Vec<usize>,
    combs: Vec<CombinerBuffer<A>>,
    combining: bool,
    batch_bytes: usize,
    /// Map-output records routed, charged to `counters` at
    /// [`finish`](ShuffleEmitter::finish) rather than per record.
    records: u64,
    counters: Counters,
}

impl<'a, A: Application, P: Partitioner<A::MapKey>> ShuffleEmitter<'a, A, P> {
    pub(crate) fn new<S>(
        app: &'a A,
        cfg: &JobConfig,
        partitioner: &'a P,
        senders: Vec<PoolSender<FlatBatch>>,
        state: &'a StageState<A, S>,
    ) -> Self {
        let reducers = senders.len();
        let combining = combining_active(app, cfg);
        let combine_budget = cfg.combiner.budget_bytes().unwrap_or(0) as usize;
        ShuffleEmitter {
            app,
            partitioner,
            reducers,
            outbox: Outbox::new(senders),
            batch_pool: &state.batch_pool,
            totals: &state.totals,
            split: 0,
            plain: (0..reducers).map(|_| FlatBatch::default()).collect(),
            plain_bytes: vec![0; reducers],
            combs: if combining {
                (0..reducers)
                    .map(|_| CombinerBuffer::new(app, combine_budget, cfg.store_index))
                    .collect()
            } else {
                Vec::new()
            },
            combining,
            batch_bytes: cfg.shuffle_batch_bytes,
            records: 0,
            counters: Counters::new(),
        }
    }

    /// Split `idx` starts: every batch staged until the next call
    /// carries that index, which is how a barrier reducer restores
    /// split order however the tasks interleaved.
    pub(crate) fn begin_split(&mut self, idx: usize) {
        self.split = idx;
    }

    /// One map-output record, owned or borrowed: count, partition,
    /// buffer (or combine), and stage a full batch for the transport. A
    /// borrowed record is encoded from its references, or folded into
    /// the combiner with the key cloned only on first insert (and the
    /// value cloned for `absorb`). A dead emitter drops it.
    fn route(&mut self, key: Cow<'_, A::MapKey>, value: Cow<'_, A::MapValue>) {
        if self.is_dead() {
            return;
        }
        self.records += 1;
        let p = self.partitioner.partition(&key, self.reducers);
        if self.combining {
            self.combine(p, key, value.into_owned());
        } else {
            self.buffer(p, &key, &value);
        }
    }

    /// Encodes the record into reducer `p`'s batch, cutting the batch
    /// when its modelled size reaches the budget.
    fn buffer(&mut self, p: usize, key: &A::MapKey, value: &A::MapValue) {
        self.plain_bytes[p] += key.estimated_bytes() + value.estimated_bytes();
        self.plain[p].push(key, value);
        if self.plain_bytes[p] >= self.batch_bytes {
            self.cut(p);
        }
    }

    /// Stages reducer `p`'s buffered batch and starts a new one.
    fn cut(&mut self, p: usize) {
        self.plain_bytes[p] = 0;
        let batch = std::mem::replace(&mut self.plain[p], fresh_batch(self.batch_pool));
        self.stage(p, batch);
    }

    /// Folds the record into reducer `p`'s combiner; when that pushes it
    /// over budget the combiner drains, and the drained partials ship as
    /// one batch. Its buffer is taken from the free-list on the drain's
    /// first record, so under-budget pushes touch no lock.
    fn combine(&mut self, p: usize, key: Cow<'_, A::MapKey>, value: A::MapValue) {
        let mut drained: Option<FlatBatch> = None;
        let pool = self.batch_pool;
        self.combs[p].fold(self.app, key, value, &mut |k, v| {
            drained
                .get_or_insert_with(|| fresh_batch(pool))
                .push(&k, &v);
        });
        if let Some(batch) = drained {
            self.stage(p, batch);
        }
    }

    /// Accounts a finished batch and hands it to the transport. A
    /// disconnected channel means the reducer died (e.g. OOM): the job
    /// is failing and the outbox stops producing.
    fn stage(&mut self, p: usize, mut batch: FlatBatch) {
        self.counters.incr(names::SHUFFLE_BATCHES);
        self.counters
            .add(names::SHUFFLE_RECORDS, batch.records() as u64);
        batch.split = self.split;
        self.outbox.send(p, batch);
    }

    /// Drains staged batches toward the channels; `false` means a
    /// channel is still full and the owning task should park.
    pub(crate) fn pump(&mut self, cx: &Ctx) -> bool {
        self.outbox.pump(cx)
    }

    /// Whether a downstream reducer disappeared (the job is failing);
    /// callers stop feeding records.
    pub(crate) fn is_dead(&self) -> bool {
        self.outbox.is_dead()
    }

    /// A split boundary: stage every partial buffer and drain the
    /// combiners. Cutting batches here — not at end-of-worker — makes
    /// batch boundaries a pure function of split contents, so the
    /// shuffle counters do not depend on which task mapped which split.
    pub(crate) fn end_split(&mut self) {
        if self.is_dead() {
            return;
        }
        for p in 0..self.reducers {
            if !self.plain[p].is_empty() {
                self.cut(p);
            }
            if self.combining && self.combs[p].entries() > 0 {
                let mut batch = fresh_batch(self.batch_pool);
                self.combs[p].drain(self.app, &mut |k, v| batch.push(&k, &v));
                if !batch.is_empty() {
                    self.stage(p, batch);
                }
            }
        }
    }

    /// End of this task's input (nothing may be pending): settle the
    /// (monotonic) combiner totals, merge the accumulated counters into
    /// the stage's map-side totals and drop the senders — EOF for the
    /// reducers once every map task finished.
    pub(crate) fn finish(&mut self) -> Step {
        if self.records > 0 {
            self.counters
                .add(names::MAP_OUTPUT_RECORDS, std::mem::take(&mut self.records));
        }
        for comb in &self.combs {
            self.counters
                .add(names::COMBINE_INPUT_RECORDS, comb.records_in());
            self.counters
                .add(names::COMBINE_OUTPUT_RECORDS, comb.records_out());
        }
        self.totals.lock().unwrap().merge(&self.counters);
        self.outbox.close();
        Step::Done
    }
}

/// The map function's sink: a split map task, or a streaming chain
/// boundary, hands its emitter to the map function directly.
impl<A: Application, P: Partitioner<A::MapKey>> Emit<A::MapKey, A::MapValue>
    for ShuffleEmitter<'_, A, P>
{
    fn emit(&mut self, key: A::MapKey, value: A::MapValue) {
        self.route(Cow::Owned(key), Cow::Owned(value));
    }

    fn emit_ref(&mut self, key: &A::MapKey, value: &A::MapValue) {
        self.route(Cow::Borrowed(key), Cow::Borrowed(value));
    }
}

/// What one finished reduce task leaves behind: its sink, the driver
/// report (pipelined engine only), task counters and snapshots.
pub(crate) type ReduceDone<A, S> = MrResult<(S, Option<DriverReport>, Counters, Vec<Snapshot<A>>)>;

/// The stage's trace handle and clock, borrowed by every task (and by
/// the chain sinks that map into the stage).
pub(crate) struct StageTrace {
    tracing: bool,
    dispatcher: TraceDispatcher,
    started: Instant,
}

impl StageTrace {
    /// Seconds since the stage started.
    pub(crate) fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records the span of mapping split `idx` from `t0` to now.
    pub(crate) fn map_span(&self, idx: usize, t0: f64) {
        if self.tracing {
            let mut rec =
                TraceRecorder::new(Scope::task(0, TaskKind::Map, idx as u32, 0, NO_NODE), true);
            rec.span_wall(SpanKind::Map, t0, self.now());
            rec.flush_into(&self.dispatcher);
        }
    }
}

/// The shared state of one job stage running on the pool: deterministic
/// result slots for every reduce task, the map side's merged counters,
/// the trace handle, and the shuffle free-list. Lives on the caller's
/// stack for the pool's borrowed tasks to reference; [`collect_stage`]
/// drains it after [`Pool::run`].
pub(crate) struct StageState<A: Application, S> {
    pub(crate) trace: StageTrace,
    /// Job-scope counters: every map task's, merged, plus the pipelined
    /// reducers' modelled `shuffle.batch_reuse`.
    totals: Mutex<Counters>,
    batch_pool: Mutex<Vec<FlatBatch>>,
    reduce_slots: Vec<Mutex<Option<ReduceDone<A, S>>>>,
    next: AtomicUsize,
    finished: Mutex<f64>,
}

impl<A: Application, S> StageState<A, S> {
    pub(crate) fn new(cfg: &JobConfig) -> Self {
        let tracing = cfg.trace.is_enabled();
        StageState {
            trace: StageTrace {
                tracing,
                dispatcher: TraceDispatcher::new(tracing),
                started: Instant::now(),
            },
            totals: Mutex::new(Counters::new()),
            batch_pool: Mutex::new(Vec::new()),
            reduce_slots: (0..cfg.reducers).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            finished: Mutex::new(0.0),
        }
    }
}

// ---------------------------------------------------------------------
// Map task state machines (both engines)
// ---------------------------------------------------------------------

/// A map task: claims splits from the shared cursor, runs the map
/// function in bounded slices, and streams batches through its emitter —
/// parking when a reducer's channel is full.
struct SplitMapTask<'a, A: Application, P: Partitioner<A::MapKey>> {
    app: &'a A,
    splits: &'a [InputSplit<A>],
    next: &'a AtomicUsize,
    emitter: ShuffleEmitter<'a, A, P>,
    trace: &'a StageTrace,
    /// (split index, record cursor, span start).
    cur: Option<(usize, usize, f64)>,
}

impl<'a, A: Application, P: Partitioner<A::MapKey>> SplitMapTask<'a, A, P> {
    fn new<S>(
        app: &'a A,
        cfg: &JobConfig,
        partitioner: &'a P,
        state: &'a StageState<A, S>,
        splits: &'a [InputSplit<A>],
        senders: Vec<PoolSender<FlatBatch>>,
    ) -> Self {
        SplitMapTask {
            app,
            splits,
            next: &state.next,
            emitter: ShuffleEmitter::new(app, cfg, partitioner, senders, state),
            trace: &state.trace,
            cur: None,
        }
    }
}

impl<'a, A: Application, P: Partitioner<A::MapKey>> pool::PoolTask for SplitMapTask<'a, A, P> {
    fn step(&mut self, cx: &mut Ctx) -> Step {
        if !self.emitter.pump(cx) {
            return Step::Park;
        }
        if self.emitter.is_dead() {
            // The job is failing downstream; stop mapping.
            return self.emitter.finish();
        }
        let emitter = &mut self.emitter;
        if self.cur.is_none() {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.splits.len() {
                // Pending is empty (pump said so), so nothing is left
                // in flight: surrender counters and drop the senders.
                return emitter.finish();
            }
            let t0 = self.trace.now();
            emitter.begin_split(idx);
            self.cur = Some((idx, 0, t0));
        }
        let (idx, cursor, t0) = self.cur.unwrap();
        let app = self.app;
        let split = &self.splits[idx];
        let end = (cursor + MAP_RECORDS_PER_STEP).min(split.len());
        for (k, v) in &split[cursor..end] {
            app.map(k, v, emitter);
        }
        if end == split.len() {
            emitter.end_split();
            self.trace.map_span(idx, t0);
            self.cur = None;
        } else {
            self.cur = Some((idx, end, t0));
        }
        Step::Yield
    }
}

// ---------------------------------------------------------------------
// Reduce task state machines (one per engine)
// ---------------------------------------------------------------------

/// The result side both reduce tasks share: the sink, what the task
/// accumulated, and where it parks its outcome.
struct ReduceOut<'a, A: Application, S: ReduceSink<A>> {
    r: usize,
    sink: Option<S>,
    counters: Counters,
    snapshots: Vec<Snapshot<A>>,
    slot: &'a Mutex<Option<ReduceDone<A, S>>>,
    finished: &'a Mutex<f64>,
    trace: &'a StageTrace,
}

impl<'a, A: Application, S: ReduceSink<A>> ReduceOut<'a, A, S> {
    fn new(state: &'a StageState<A, S>, r: usize, sink: S) -> Self {
        ReduceOut {
            r,
            sink: Some(sink),
            counters: Counters::new(),
            snapshots: Vec::new(),
            slot: &state.reduce_slots[r],
            finished: &state.finished,
            trace: &state.trace,
        }
    }

    /// Everything is reduced and pumped: close the sink, record the
    /// task's span (`kind`, from `t0`), snapshots and counter totals,
    /// and park the outcome in the stage slot.
    fn complete(&mut self, kind: SpanKind, t0: f64, report: Option<DriverReport>) -> Step {
        let now = self.trace.now();
        let mut sink = self.sink.take().unwrap();
        sink.close();
        if self.trace.tracing {
            let mut rec = TraceRecorder::new(
                Scope::task(0, TaskKind::Reduce, self.r as u32, 0, NO_NODE),
                true,
            );
            rec.span_wall(kind, t0, now);
            for s in &self.snapshots {
                rec.snapshot_wall(s.at_secs, s.seq, s.records_absorbed, s.live_entries as u64);
            }
            record_counter_totals(&mut rec, &self.counters);
            rec.flush_into(&self.trace.dispatcher);
        }
        {
            let mut f = self.finished.lock().unwrap();
            *f = f.max(now);
        }
        *self.slot.lock().unwrap() = Some(Ok((
            sink,
            report,
            std::mem::replace(&mut self.counters, Counters::new()),
            std::mem::take(&mut self.snapshots),
        )));
        Step::Done
    }

    /// The task failed: dropping a streaming sink lets its downstream
    /// see EOF, and the error becomes the job's. The caller drops its
    /// receiver, which disconnects the channel: blocked mappers get a
    /// send error instead of waiting on a consumer that is gone.
    fn fail(&mut self, e: MrError) -> Step {
        self.sink = None;
        *self.slot.lock().unwrap() = Some(Err(e));
        Step::Done
    }
}

/// A pipelined reduce task: decodes shuffle batches in arrival order
/// straight into an [`IncrementalDriver`], recycles drained buffers,
/// publishes snapshots per policy, finalizes at EOF, then pumps its sink
/// dry and parks its result in the stage slot.
struct PipelinedReduceTask<'a, A: Application, S: ReduceSink<A>> {
    app: &'a A,
    cfg: &'a JobConfig,
    t0: Option<f64>,
    rx: Option<PoolReceiver<FlatBatch>>,
    /// Batches received, for the modelled `shuffle.batch_reuse`.
    received: u64,
    batch_pool: &'a Mutex<Vec<FlatBatch>>,
    pool_cap: usize,
    totals: &'a Mutex<Counters>,
    driver: Option<IncrementalDriver<A>>,
    report: Option<DriverReport>,
    out: ReduceOut<'a, A, S>,
    drained: bool,
}

impl<'a, A: Application, S: ReduceSink<A>> PipelinedReduceTask<'a, A, S> {
    /// Config errors surface here, before the pool runs.
    fn new(
        app: &'a A,
        cfg: &'a JobConfig,
        state: &'a StageState<A, S>,
        r: usize,
        rx: PoolReceiver<FlatBatch>,
        sink: S,
    ) -> MrResult<Self> {
        Ok(PipelinedReduceTask {
            app,
            cfg,
            t0: None,
            rx: Some(rx),
            received: 0,
            batch_pool: &state.batch_pool,
            pool_cap: cfg.reducers * BATCH_CHANNEL_DEPTH,
            totals: &state.totals,
            driver: Some(IncrementalDriver::new(app, cfg, r)?),
            report: None,
            out: ReduceOut::new(state, r, sink),
            drained: false,
        })
    }

    fn try_absorb(&mut self, cx: &Ctx) -> MrResult<Step> {
        let app = self.app;
        let snapping = self.cfg.snapshots.is_enabled();
        let timed = self.cfg.snapshots.secs_interval().is_some();
        for _ in 0..BATCHES_PER_STEP {
            match self.rx.as_ref().unwrap().try_recv(cx) {
                Ok(mut batch) => {
                    self.received += 1;
                    let driver = self.driver.as_mut().unwrap();
                    if snapping {
                        // Stamp wall time so record-driven snapshots
                        // carry a meaningful clock.
                        driver.set_now_secs(self.out.trace.now());
                    }
                    let sink = self.out.sink.as_mut().unwrap();
                    // A batch that fails to decode fails this reducer
                    // (and so the job) with a typed error, like an OOM.
                    batch.drain_views::<A::MapKey, A::MapValue, _, _>(|k, v| {
                        driver.push_view(app, k, v, sink)
                    })?;
                    // Return the drained buffer to the mappers.
                    {
                        let mut pool = self.batch_pool.lock().unwrap();
                        if pool.len() < self.pool_cap {
                            pool.push(batch);
                        }
                    }
                    if timed {
                        driver.maybe_time_snapshot(app, self.out.trace.now())?;
                    }
                }
                Err(TryRecv::Empty) => return Ok(Step::Park),
                Err(TryRecv::Disconnected) => {
                    self.finalize()?;
                    return Ok(Step::Yield);
                }
            }
        }
        Ok(Step::Yield)
    }

    /// EOF: final snapshot per policy, drain the driver's store through
    /// the sink, seal it. The task then pumps until the sink is empty.
    fn finalize(&mut self) -> MrResult<()> {
        let app = self.app;
        if self.cfg.snapshots.is_enabled() {
            // End-of-input snapshot: the last estimate a periodic
            // observer sees equals the final answer.
            let driver = self.driver.as_mut().unwrap();
            driver.set_now_secs(self.out.trace.now());
            driver.snapshot_now(app)?;
        }
        let mut driver = self.driver.take().unwrap();
        self.out.snapshots = driver.take_snapshots();
        let sink = self.out.sink.as_mut().unwrap();
        let report = driver.finish(app, &mut self.out.counters, sink)?;
        self.out
            .counters
            .add(names::REDUCE_OUTPUT_RECORDS, sink.emitted());
        sink.seal();
        // Modelled buffer reuse: the channel holds at most
        // `BATCH_CHANNEL_DEPTH` batches and every drained buffer went
        // back to the mappers, so each batch received beyond that depth
        // rode a recycled buffer in the steady state. Derived from the
        // deterministic batch count — unlike observed free-list pops, it
        // does not depend on thread timing — and charged to the job
        // scope, like the map side's shuffle counters.
        let reuse = self.received.saturating_sub(BATCH_CHANNEL_DEPTH as u64);
        if reuse > 0 {
            self.totals
                .lock()
                .unwrap()
                .add(names::SHUFFLE_BATCH_REUSE, reuse);
        }
        self.report = Some(report);
        self.rx = None;
        self.drained = true;
        Ok(())
    }
}

impl<'a, A: Application, S: ReduceSink<A>> pool::PoolTask for PipelinedReduceTask<'a, A, S> {
    fn step(&mut self, cx: &mut Ctx) -> Step {
        let t0 = *self.t0.get_or_insert_with(|| self.out.trace.now());
        if !self.out.sink.as_mut().unwrap().pump(cx) {
            return Step::Park;
        }
        if self.drained {
            return self
                .out
                .complete(SpanKind::ShuffleReduce, t0, self.report.take());
        }
        match self.try_absorb(cx) {
            Ok(step) => step,
            Err(e) => {
                self.rx = None;
                self.driver = None;
                self.out.fail(e)
            }
        }
    }
}

/// A barrier reduce task: *holds* arriving batches — pointer moves, so
/// mappers are never stalled for long — until channel EOF, which **is**
/// the stage barrier; then restores split order, runs the grouped
/// sort-reduce over the held bytes, and pumps its sink dry.
struct BarrierReduceTask<'a, A: Application, S: ReduceSink<A>> {
    app: &'a A,
    cfg: &'a JobConfig,
    /// `None` once the barrier has passed.
    rx: Option<PoolReceiver<FlatBatch>>,
    held: Vec<FlatBatch>,
    /// When the barrier fell (the sort-reduce span's start).
    t0: f64,
    out: ReduceOut<'a, A, S>,
}

impl<'a, A: Application, S: ReduceSink<A>> BarrierReduceTask<'a, A, S> {
    fn new(
        app: &'a A,
        cfg: &'a JobConfig,
        state: &'a StageState<A, S>,
        r: usize,
        rx: PoolReceiver<FlatBatch>,
        sink: S,
    ) -> Self {
        BarrierReduceTask {
            app,
            cfg,
            rx: Some(rx),
            held: Vec::new(),
            t0: 0.0,
            out: ReduceOut::new(state, r, sink),
        }
    }

    /// Past the barrier: every map task has finished and everything it
    /// sent is in `held`.
    fn reduce(&mut self) -> MrResult<()> {
        self.t0 = self.out.trace.now();
        let mut held = std::mem::take(&mut self.held);
        // Batches of different splits interleave in arrival order, but
        // one split is mapped by one task over a FIFO channel: a stable
        // sort by split index is the split-order concatenation, the
        // fetch order the kernel's stable sort keeps.
        held.sort_by_key(|batch| batch.split);
        let runs: Vec<(&[u8], usize)> = held.iter().map(FlatBatch::encoded).collect();
        let absorbed = runs.iter().map(|&(_, records)| records as u64).sum();
        // The batches are sorted and reduced where they lie; bytes that
        // fail to decode fail this reducer (and so the job) with a
        // typed error.
        let out = reduce_encoded_runs(self.app, &runs, &mut self.out.counters)?;
        drop(held);
        self.out.snapshots = barrier_snapshot::<A>(
            self.cfg,
            self.out.r,
            absorbed,
            self.out.trace.now(),
            &out,
            &mut self.out.counters,
        );
        let sink = self.out.sink.as_mut().unwrap();
        sink.absorb_batch(out);
        sink.seal();
        Ok(())
    }
}

impl<'a, A: Application, S: ReduceSink<A>> pool::PoolTask for BarrierReduceTask<'a, A, S> {
    fn step(&mut self, cx: &mut Ctx) -> Step {
        if let Some(rx) = &self.rx {
            // At most one channel's worth per step: holding is cheap,
            // but a step stays bounded.
            for _ in 0..BATCH_CHANNEL_DEPTH {
                match rx.try_recv(cx) {
                    Ok(batch) => self.held.push(batch),
                    Err(TryRecv::Empty) => return Step::Park,
                    Err(TryRecv::Disconnected) => {
                        self.rx = None;
                        return match self.reduce() {
                            Ok(()) => Step::Yield,
                            Err(e) => self.out.fail(e),
                        };
                    }
                }
            }
            return Step::Yield;
        }
        if !self.out.sink.as_mut().unwrap().pump(cx) {
            return Step::Park;
        }
        self.out.complete(SpanKind::SortReduce, self.t0, None)
    }
}

// ---------------------------------------------------------------------
// Stage builder + collector
// ---------------------------------------------------------------------

/// Spawns one job stage's reduce tasks onto `pool` — before its map
/// side, because they consume as mappers produce — and returns the
/// senders of their shuffle channels, one per reducer, for the map side
/// to feed. The map side is the same for both engines; `cfg.engine`
/// only picks the reduce task, and with it where the stage barrier
/// falls.
pub(crate) fn spawn_reducers<'a, A, S, F>(
    pool: &mut Pool<'a>,
    state: &'a StageState<A, S>,
    app: &'a A,
    cfg: &'a JobConfig,
    make_sink: F,
) -> MrResult<Vec<PoolSender<FlatBatch>>>
where
    A: Application,
    S: ReduceSink<A> + 'a,
    F: Fn(usize) -> S,
{
    let mut txs: Vec<PoolSender<FlatBatch>> = Vec::with_capacity(cfg.reducers);
    for r in 0..cfg.reducers {
        let (tx, rx) = pool.channel::<FlatBatch>(BATCH_CHANNEL_DEPTH);
        txs.push(tx);
        match &cfg.engine {
            Engine::BarrierLess { .. } => {
                pool.spawn(PipelinedReduceTask::new(
                    app,
                    cfg,
                    state,
                    r,
                    rx,
                    make_sink(r),
                )?);
            }
            Engine::Barrier => {
                pool.spawn(BarrierReduceTask::new(app, cfg, state, r, rx, make_sink(r)));
            }
        }
    }
    Ok(txs)
}

/// Spawns one job stage's map tasks onto `pool`, mapping `splits` into
/// the reducers behind `txs`. `map_tasks` bounds concurrent map *tasks*
/// (the legacy `LocalRunner::map_threads` meaning, preserving
/// trace/counter shape); OS threads are bounded separately by
/// `JobConfig::pool_workers` at [`Pool::run`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_mappers<'a, A, P, S>(
    pool: &mut Pool<'a>,
    state: &'a StageState<A, S>,
    app: &'a A,
    cfg: &'a JobConfig,
    partitioner: &'a P,
    splits: &'a [InputSplit<A>],
    map_tasks: usize,
    txs: Vec<PoolSender<FlatBatch>>,
) where
    A: Application,
    P: Partitioner<A::MapKey> + Sync,
{
    let n = map_tasks.max(1).min(splits.len().max(1));
    for _ in 0..n {
        pool.spawn(SplitMapTask::new(
            app,
            cfg,
            partitioner,
            state,
            splits,
            txs.clone(),
        ));
    }
}

/// Drains a run stage's state after the pool finished: merges every
/// task's counters into the run's (the only source of the returned
/// counters, traced or not), records the job-scope totals in the trace
/// when it is on (each reduce task recorded its own), and assembles the
/// [`SinkedRun`]. Takes the state by reference, because a streaming
/// chain's stages borrow each other until the last one is collected.
pub(crate) fn collect_stage<A, S>(state: &StageState<A, S>) -> MrResult<SinkedRun<A, S>>
where
    A: Application,
    S: ReduceSink<A>,
{
    let mut counters = std::mem::take(&mut *state.totals.lock().unwrap());
    // The non-reduce counters (the map side) are attributed to the job
    // scope as one pre-merged batch: per-task attribution would depend
    // on which task claimed which split, and the log's byte layout must
    // not.
    let dispatcher = &state.trace.dispatcher;
    if state.trace.tracing {
        let mut rec = TraceRecorder::new(Scope::job(0), true);
        record_counter_totals(&mut rec, &counters);
        rec.flush_into(dispatcher);
    }
    let mut sinks = Vec::with_capacity(state.reduce_slots.len());
    let mut reports = Vec::new();
    let mut snapshots = Vec::with_capacity(state.reduce_slots.len());
    for slot in &state.reduce_slots {
        let (sink, report, task_counters, snaps) =
            slot.lock().unwrap().take().expect("every reducer ran")?;
        counters.merge(&task_counters);
        if let Some(report) = report {
            reports.push(report);
        }
        snapshots.push(snaps);
        sinks.push(sink);
    }
    Ok(SinkedRun {
        sinks,
        counters,
        reports,
        snapshots,
        trace: dispatcher.finish(),
        finished_secs: *state.finished.lock().unwrap(),
    })
}

/// A finished run whose reduce output went to caller-chosen sinks.
pub(crate) struct SinkedRun<A: Application, S> {
    /// One finished sink per reduce partition.
    pub sinks: Vec<S>,
    /// Merged counters from every task.
    pub counters: Counters,
    /// Per-reducer driver reports (pipelined engine only).
    pub reports: Vec<DriverReport>,
    /// Per-reducer published snapshots.
    pub snapshots: Vec<Vec<Snapshot<A>>>,
    /// The run's structured trace (empty when tracing is disabled).
    pub trace: TraceLog,
    /// When the last reduce task of this stage finished, seconds since
    /// the stage started — chain drivers use it for stage marks.
    pub finished_secs: f64,
}

impl<A: Application, S: ReduceSink<A>> SinkedRun<A, S> {
    pub(crate) fn into_job_output(self) -> JobOutput<A> {
        JobOutput {
            partitions: self
                .sinks
                .into_iter()
                .map(ReduceSink::into_partition)
                .collect(),
            counters: self.counters,
            reports: self.reports,
            snapshots: self.snapshots,
            trace: self.trace,
        }
    }
}

/// What one finished worker pool reports: the thread evidence of a
/// [`LocalRunner::run_many`] batch or a [`serve`](service::serve) session.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Workers that drove the pool: spawned threads, or the calling
    /// thread alone for a one-worker pool.
    pub workers: usize,
    /// Peak concurrently-live workers *of this pool* — by construction
    /// at most `workers`, recorded as the direct evidence that N tasks
    /// multiplexed on a bounded thread count.
    pub peak_threads: usize,
}

/// Every job of a [`LocalRunner::run_many`] batch, with per-job results
/// (a failing job does not poison its neighbours) and the shared pool's
/// thread evidence.
pub struct ManyJobsOutput<A: Application> {
    /// Per-job outcome, in submission order.
    pub jobs: Vec<MrResult<JobOutput<A>>>,
    /// The shared pool's thread accounting.
    pub pool: PoolStats,
}

/// Executes jobs on local OS threads.
#[derive(Debug, Clone)]
pub struct LocalRunner {
    /// Concurrent map *tasks* per job (the reduce side always runs one
    /// task per partition). OS threads are a separate, global knob:
    /// [`JobConfig::pool_workers`].
    pub map_threads: usize,
}

impl LocalRunner {
    /// A runner with `map_threads` concurrent map tasks. Reduce-side
    /// parallelism equals the partition count; both multiplex onto the
    /// `JobConfig::pool_workers` pool threads.
    pub fn new(map_threads: usize) -> Self {
        assert!(map_threads >= 1);
        LocalRunner { map_threads }
    }

    /// Runs `app` over `splits` with the default hash partitioner.
    pub fn run<A: Application>(
        &self,
        app: &A,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        cfg: &JobConfig,
    ) -> MrResult<JobOutput<A>> {
        self.run_with_partitioner(app, splits, cfg, &HashPartitioner)
    }

    /// Runs `app` over `splits` with a custom partitioner.
    pub fn run_with_partitioner<A: Application, P: Partitioner<A::MapKey> + Sync>(
        &self,
        app: &A,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        cfg: &JobConfig,
        partitioner: &P,
    ) -> MrResult<JobOutput<A>> {
        cfg.validate()?;
        self.run_stage(app, splits, cfg, partitioner)
    }

    /// Runs `app` over `splits` through the shared content-addressed
    /// result cache. The job's sealed output is memoized under one key: a
    /// stable hash of its input bytes, the app identity — type *and*
    /// instance parameters, per [`Application::cache_identity`] — the
    /// partitioner, the engine and the output-shaping config knobs. A hit
    /// returns the sealed partitions; a miss runs the job exactly as
    /// [`LocalRunner::run_with_partitioner`] does and publishes its
    /// partitions. Output is byte-identical either way, at any pool
    /// width — only the `cache.*` counters differ.
    ///
    /// Three situations degrade gracefully instead of caching wrongly:
    ///
    /// * `cfg.cache` is [`CacheBudget::Disabled`] — the cache is
    ///   bypassed entirely, exactly like
    ///   [`LocalRunner::run_with_partitioner`].
    /// * The app cannot vouch for a complete instance identity (a
    ///   parameterized app without a `cache_identity` override), or
    ///   `cfg.snapshots` is enabled (a hit performs no run, so it cannot
    ///   reproduce the snapshot stream or the per-reducer driver reports
    ///   a cold run publishes) — the job runs uncached, publishes
    ///   nothing, and counts `cache.bypass.count`.
    ///
    /// A hit returns the sealed partitions with empty
    /// `reports`/`snapshots` and only `cache.*` counters — it describes
    /// a run that never happened.
    ///
    /// [`CacheBudget::Disabled`]: crate::config::CacheBudget::Disabled
    pub fn run_cached<A, P>(
        &self,
        app: &A,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        cfg: &JobConfig,
        partitioner: &P,
        cache: &SharedCache,
    ) -> MrResult<JobOutput<A>>
    where
        A: Application,
        P: Partitioner<A::MapKey> + Sync,
        A::InKey: StableHash,
        A::InValue: StableHash,
        A::OutKey: Sync + SizeEstimate,
        A::OutValue: Sync + SizeEstimate,
    {
        cfg.validate()?;
        if !cfg.cache.is_enabled() {
            return self.run_stage(app, splits, cfg, partitioner);
        }
        // The one bypass rule: a sealed artifact can stand for neither a
        // snapshot stream nor an app that cannot vouch for its identity.
        let key = if cfg.snapshots.is_enabled() {
            None
        } else {
            cache::job_key(app, cfg, std::any::type_name::<P>(), &splits)
        };
        let mut extra = Counters::new();
        let Some(key) = key else {
            let mut out = self.run_stage(app, splits, cfg, partitioner)?;
            extra.incr(names::CACHE_BYPASS);
            charge_cache(&mut out, cfg, &extra, None);
            return Ok(out);
        };
        if let Some((parts, bytes)) = cache.get_job::<A>(key) {
            let mut out = JobOutput {
                partitions: (*parts).clone(),
                counters: Counters::new(),
                reports: Vec::new(),
                snapshots: Vec::new(),
                trace: TraceLog::default(),
            };
            extra.incr(names::CACHE_HITS);
            extra.add(names::CACHE_HIT_BYTES, bytes);
            charge_cache(&mut out, cfg, &extra, Some((1, 0, bytes)));
            return Ok(out);
        }
        let mut out = self.run_stage(app, splits, cfg, partitioner)?;
        extra.incr(names::CACHE_MISSES);
        cache.put_job::<A>(key, out.partitions.clone(), &mut extra);
        charge_cache(&mut out, cfg, &extra, Some((0, 1, cache.used_bytes())));
        Ok(out)
    }

    /// Runs many independent jobs of the same application on **one**
    /// shared worker pool: every job's task graph is spawned up front
    /// and `cfg.pool_workers` OS threads drive them all concurrently —
    /// the multi-tenant shape from the ROADMAP, with thread count
    /// bounded by the pool instead of growing with the job count.
    ///
    /// Jobs fail independently: one job's OOM surfaces as its own `Err`
    /// entry while the others complete (only a task *panic* poisons the
    /// whole pool).
    #[allow(clippy::type_complexity)]
    pub fn run_many<A, P>(
        &self,
        app: &A,
        jobs: Vec<Vec<Vec<(A::InKey, A::InValue)>>>,
        cfg: &JobConfig,
        partitioner: &P,
    ) -> MrResult<ManyJobsOutput<A>>
    where
        A: Application,
        P: Partitioner<A::MapKey> + Sync,
    {
        cfg.validate()?;
        let states: Vec<StageState<A, Vec<(A::OutKey, A::OutValue)>>> =
            jobs.iter().map(|_| StageState::new(cfg)).collect();
        let mut pool = Pool::new();
        for (state, splits) in states.iter().zip(jobs.iter()) {
            let txs = spawn_reducers(&mut pool, state, app, cfg, |_| Vec::new())?;
            spawn_mappers(
                &mut pool,
                state,
                app,
                cfg,
                partitioner,
                splits,
                self.map_threads,
                txs,
            );
        }
        let pool = pool.run(cfg.pool_workers)?;
        let jobs = states
            .iter()
            .map(|state| collect_stage(state).map(SinkedRun::into_job_output))
            .collect();
        Ok(ManyJobsOutput { jobs, pool })
    }

    /// One job on a fresh pool, driven with `cfg.pool_workers` threads:
    /// what `run_with_partitioner` and `run_cached` share.
    fn run_stage<A, P>(
        &self,
        app: &A,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        cfg: &JobConfig,
        partitioner: &P,
    ) -> MrResult<JobOutput<A>>
    where
        A: Application,
        P: Partitioner<A::MapKey> + Sync,
    {
        let state = StageState::new(cfg);
        let mut pool = Pool::new();
        let txs = spawn_reducers(&mut pool, &state, app, cfg, |_| Vec::new())?;
        spawn_mappers(
            &mut pool,
            &state,
            app,
            cfg,
            partitioner,
            &splits,
            self.map_threads,
            txs,
        );
        pool.run(cfg.pool_workers)?;
        Ok(collect_stage(&state)?.into_job_output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, CodecError, KeyView};
    use crate::config::MemoryPolicy;
    use crate::engine::barrier::reduce_partition_barrier;
    use crate::testutil::{scratch_dir, ArrivalOrder, GlobalSum, WordCountApp};
    use crate::traits::FnEmit;
    use std::collections::BTreeMap;

    fn text_splits(n_splits: usize, lines_per_split: usize) -> Vec<Vec<(u64, String)>> {
        let vocab = [
            "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "barrier", "less",
        ];
        let mut splits = Vec::new();
        let mut counter = 0u64;
        for s in 0..n_splits {
            let mut split = Vec::new();
            for l in 0..lines_per_split {
                let a = vocab[(s * 7 + l) % vocab.len()];
                let b = vocab[(s + l * 3) % vocab.len()];
                let c = vocab[(s * 2 + l * 5) % vocab.len()];
                split.push((counter, format!("{a} {b} {c}")));
                counter += 1;
            }
            splits.push(split);
        }
        splits
    }

    fn expected_counts(splits: &[Vec<(u64, String)>]) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for split in splits {
            for (_, line) in split {
                for w in line.split_whitespace() {
                    *m.entry(w.to_string()).or_insert(0) += 1;
                }
            }
        }
        m
    }

    #[test]
    fn barrier_engine_counts_words() {
        let splits = text_splits(6, 40);
        let expect = expected_counts(&splits);
        let cfg = JobConfig::new(4);
        let out = LocalRunner::new(4)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        assert_eq!(out.counters.get(names::MAP_OUTPUT_RECORDS), 6 * 40 * 3);
        let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pipelined_engine_matches_barrier_engine() {
        let splits = text_splits(8, 50);
        let expect = expected_counts(&splits);
        for policy in [
            MemoryPolicy::InMemory,
            MemoryPolicy::SpillMerge {
                threshold_bytes: 512,
            },
            MemoryPolicy::KvStore { cache_bytes: 1024 },
        ] {
            let cfg = JobConfig::new(3)
                .engine(Engine::BarrierLess {
                    memory: policy.clone(),
                })
                .scratch_dir(scratch_dir("local-eq"));
            let out = LocalRunner::new(4)
                .run(&WordCountApp, splits.clone(), &cfg)
                .unwrap();
            let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect, "policy {policy:?} diverged from barrier");
        }
    }

    #[test]
    fn unkeyed_app_runs_through_shared_state() {
        let splits: Vec<Vec<(u64, u64)>> = (0..4)
            .map(|s| (0..100).map(|i| (i, s * 100 + i)).collect())
            .collect();
        let total: u64 = (0..400u64).sum();
        let cfg = JobConfig::new(1).engine(Engine::barrierless());
        let out = LocalRunner::new(2).run(&GlobalSum, splits, &cfg).unwrap();
        assert_eq!(out.partitions[0], vec![(0u8, total)]);
        // No keyed state: the store never held entries.
        assert_eq!(out.reports[0].store.peak_entries, 0);
    }

    #[test]
    fn oom_propagates_from_reducer_to_job() {
        let splits = text_splits(4, 100);
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .heap_cap(200)
            .scratch_dir(scratch_dir("local-oom"));
        let err = LocalRunner::new(4).run(&WordCountApp, splits, &cfg);
        assert!(
            matches!(err, Err(MrError::OutOfMemory { .. })),
            "expected OOM, got {:?}",
            err.err().map(|e| e.to_string())
        );
    }

    #[test]
    fn oom_never_hangs_at_any_pool_width() {
        // The failing reducer drops its channel; mappers must unwind via
        // send errors at every pool width, including the degenerate
        // 1-byte batch budget where every record is its own batch.
        for pool_workers in [1, 2, 4] {
            let splits = text_splits(4, 100);
            let cfg = JobConfig::new(2)
                .engine(Engine::barrierless())
                .heap_cap(200)
                .shuffle_batch_bytes(1)
                .pool_workers(pool_workers)
                .scratch_dir(scratch_dir("local-oom-pool"));
            let err = LocalRunner::new(4).run(&WordCountApp, splits, &cfg);
            assert!(
                matches!(err, Err(MrError::OutOfMemory { .. })),
                "workers {pool_workers}: expected OOM, got {:?}",
                err.err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn truncated_batch_fails_the_job_with_a_typed_error() {
        // The reducer's first batch arrives cut short. The contract is
        // the one an OOM has: a typed error for this job, no reduce
        // output, no panic and no hang — at a one-record batch budget,
        // where mappers fill the channel.
        let app = WordCountApp;
        let splits = text_splits(4, 200);
        let mapped: u64 = 4 * 200 * 3;
        for engine in [Engine::barrierless(), Engine::Barrier] {
            for pool_workers in [1, 2] {
                let cfg = JobConfig::new(1)
                    .engine(engine.clone())
                    .shuffle_batch_bytes(1);
                let state: StageState<WordCountApp, Vec<(String, u64)>> = StageState::new(&cfg);
                let mut pool = Pool::new();
                let (tx, rx) = pool.channel::<FlatBatch>(BATCH_CHANNEL_DEPTH);
                let mut bad = FlatBatch::default();
                bad.push(&"truncated".to_string(), &1u64);
                bad.truncate_bytes(3);
                assert!(tx.try_send_now(bad).is_ok());
                if engine == Engine::Barrier {
                    pool.spawn(BarrierReduceTask::new(
                        &app,
                        &cfg,
                        &state,
                        0,
                        rx,
                        Vec::new(),
                    ));
                } else {
                    pool.spawn(
                        PipelinedReduceTask::new(&app, &cfg, &state, 0, rx, Vec::new()).unwrap(),
                    );
                }
                for _ in 0..2 {
                    pool.spawn(SplitMapTask::new(
                        &app,
                        &cfg,
                        &HashPartitioner,
                        &state,
                        &splits,
                        vec![tx.clone()],
                    ));
                }
                drop(tx);
                pool.run(pool_workers).unwrap();
                let done = state.reduce_slots[0].lock().unwrap().take();
                assert!(
                    matches!(
                        done,
                        Some(Err(MrError::Codec(crate::codec::CodecError::UnexpectedEof)))
                    ),
                    "{engine:?}, workers {pool_workers}: expected a decode error"
                );
                let emitted = state.totals.lock().unwrap().get(names::MAP_OUTPUT_RECORDS);
                if engine == Engine::Barrier {
                    // A barrier reducer decodes nothing before the
                    // barrier, so every map ran to completion first.
                    assert_eq!(emitted, mapped, "workers {pool_workers}");
                } else {
                    assert!(
                        emitted < mapped,
                        "workers {pool_workers}: mappers kept feeding a dead reducer"
                    );
                }
            }
        }
    }

    /// A word written to the shuffle as the bytes it holds but read back
    /// as a `String` (whose raw ordering it borrows): the seam through
    /// which a test puts an undecodable key on the wire.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct RawWord(Vec<u8>);

    impl Codec for RawWord {
        fn encode(&self, buf: &mut Vec<u8>) {
            (self.0.len() as u32).encode(buf);
            buf.extend_from_slice(&self.0);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
            String::decode(input).map(|s| RawWord(s.into_bytes()))
        }
        fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
            String::sort_prefix(input)
        }
        fn cmp_encoded(a: &[u8], b: &[u8]) -> Result<std::cmp::Ordering, CodecError> {
            String::cmp_encoded(a, b)
        }
    }

    impl KeyView for RawWord {
        type View = Self;
    }

    impl SizeEstimate for RawWord {
        fn estimated_bytes(&self) -> usize {
            self.0.estimated_bytes()
        }
    }

    /// A count that mis-encodes two marked values: one byte short, one
    /// byte long.
    #[derive(Clone)]
    struct FlakyCount(u64);

    const ONE_BYTE_SHORT: u64 = u64::MAX;
    const ONE_BYTE_LONG: u64 = u64::MAX - 1;

    impl Codec for FlakyCount {
        fn encode(&self, buf: &mut Vec<u8>) {
            match self.0 {
                ONE_BYTE_SHORT => buf.extend_from_slice(&[0; 7]),
                ONE_BYTE_LONG => buf.extend_from_slice(&[0; 9]),
                n => n.encode(buf),
            }
        }
        fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
            u64::decode(input).map(FlakyCount)
        }
    }

    impl SizeEstimate for FlakyCount {
        fn estimated_bytes(&self) -> usize {
            8
        }
    }

    /// Word count whose map function turns three marker tokens into
    /// records that corrupt the shuffle batch carrying them.
    struct FaultyWords;

    impl Application for FaultyWords {
        type InKey = u64;
        type InValue = String;
        type MapKey = RawWord;
        type MapValue = FlakyCount;
        type OutKey = String;
        type OutValue = u64;
        type State = u64;
        type Shared = ();

        fn map(&self, _key: &u64, line: &String, out: &mut dyn Emit<RawWord, FlakyCount>) {
            for word in line.split_whitespace() {
                let (key, count) = match word {
                    "<short>" => (&b"s-short"[..], ONE_BYTE_SHORT),
                    "<long>" => (&b"s-long"[..], ONE_BYTE_LONG),
                    // Ties with "shared-prefix" on all eight prefix bytes.
                    "<utf8>" => (&b"shared-p\xFFx"[..], 1),
                    word => (word.as_bytes(), 1),
                };
                out.emit(RawWord(key.to_vec()), FlakyCount(count));
            }
        }
        fn new_shared(&self) {}
        fn reduce_grouped(
            &self,
            key: &RawWord,
            values: Vec<FlakyCount>,
            _shared: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            let word = String::from_utf8(key.0.clone()).expect("decoded as a String");
            out.emit(word, values.iter().map(|v| v.0).sum());
        }
        fn init(&self, _key: &RawWord) -> u64 {
            0
        }
        fn absorb(
            &self,
            _key: &RawWord,
            state: &mut u64,
            value: FlakyCount,
            _shared: &mut (),
            _out: &mut dyn Emit<String, u64>,
        ) {
            *state += value.0;
        }
        fn merge(&self, _key: &RawWord, a: u64, b: u64) -> u64 {
            a + b
        }
        fn finalize(
            &self,
            key: RawWord,
            state: u64,
            _shared: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            out.emit(
                String::from_utf8(key.0).expect("decoded as a String"),
                state,
            );
        }
    }

    /// Words starting with `s` — every marker record and the valid
    /// `shared-prefix` — meet in the last reducer; the rest of the text
    /// goes to reducer 0.
    struct MarkersApart;

    impl Partitioner<RawWord> for MarkersApart {
        fn partition(&self, key: &RawWord, partitions: usize) -> usize {
            usize::from(key.0.first() == Some(&b's')) * (partitions - 1)
        }
    }

    #[test]
    fn corrupt_barrier_batches_fail_the_job_and_publish_nothing() {
        // The barrier twins of the test above, end to end through
        // `run_cached`: the sick job's last split ends in a record that
        // leaves its (final) batch one byte short, one byte long, or
        // holding an undecodable key that ties on prefix with a valid
        // one. Each is a typed error at every width and batch budget —
        // no panic, no hang — every time it is run, and publishes
        // nothing. The same runner and cache then serve a healthy job
        // correctly: one whole-job miss, then a hit.
        let app = FaultyWords;
        let runner = LocalRunner::new(2);
        let mut healthy = text_splits(4, 50);
        healthy[3].push((1000, "shared-prefix shared-prefix".to_string()));
        let base_cfg = JobConfig::new(2).engine(Engine::Barrier);
        let expect = runner
            .run_with_partitioner(&app, healthy.clone(), &base_cfg, &MarkersApart)
            .unwrap()
            .partitions;
        assert_eq!(expect[1], vec![("shared-prefix".to_string(), 2)]);
        for (marker, want) in [
            ("<short>", CodecError::UnexpectedEof),
            (
                "<long>",
                CodecError::Corrupt("trailing bytes in shuffle batch"),
            ),
            ("<utf8>", CodecError::Corrupt("utf8")),
        ] {
            let mut sick = healthy.clone();
            sick[3].last_mut().unwrap().1 += &format!(" {marker}");
            for pool_workers in [1, 2, 4] {
                for batch_bytes in [Some(1), None] {
                    let mut cfg = base_cfg
                        .clone()
                        .cache(crate::config::CacheBudget::enabled())
                        .pool_workers(pool_workers);
                    if let Some(bytes) = batch_bytes {
                        cfg = cfg.shuffle_batch_bytes(bytes);
                    }
                    let cache = SharedCache::new(16 << 20);
                    for attempt in 0..2 {
                        let got =
                            runner.run_cached(&app, sick.clone(), &cfg, &MarkersApart, &cache);
                        assert!(
                            matches!(&got, Err(MrError::Codec(e)) if *e == want),
                            "{marker}, {pool_workers} workers, budget {batch_bytes:?}, \
                             attempt {attempt}: expected {want:?}, got {:?}",
                            got.map(|out| out.partitions).map_err(|e| e.to_string())
                        );
                    }
                    assert!(cache.is_empty(), "{marker}: a failed job published");
                    for (hits, misses) in [(0, 1), (1, 0)] {
                        let out = runner
                            .run_cached(&app, healthy.clone(), &cfg, &MarkersApart, &cache)
                            .unwrap();
                        assert_eq!(out.partitions, expect, "{marker}, {pool_workers} workers");
                        assert_eq!(out.counters.get(names::CACHE_HITS), hits, "{marker}");
                        assert_eq!(out.counters.get(names::CACHE_MISSES), misses, "{marker}");
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_utf8_keys_fail_the_pipelined_job_and_publish_nothing() {
        // A pipelined reducer reads each key as its view, which is where
        // UTF-8 is checked. End to end through `run_cached`, a key that
        // is not UTF-8 is a typed error at every width and batch budget,
        // every time, and publishes nothing; the same runner and cache
        // then serve a healthy job correctly: one miss, then a hit.
        let app = FaultyWords;
        let runner = LocalRunner::new(2);
        let mut healthy = text_splits(4, 50);
        healthy[3].push((1000, "shared-prefix shared-prefix".to_string()));
        let mut sick = healthy.clone();
        sick[3].last_mut().unwrap().1 += " <utf8>";
        let base_cfg = JobConfig::new(2).engine(Engine::barrierless());
        let expect = runner
            .run_with_partitioner(&app, healthy.clone(), &base_cfg, &MarkersApart)
            .unwrap()
            .into_sorted_output();
        let utf8 = CodecError::Corrupt("utf8");
        for pool_workers in [1, 2, 4] {
            for batch_bytes in [Some(1), None] {
                let mut cfg = base_cfg
                    .clone()
                    .cache(crate::config::CacheBudget::enabled())
                    .pool_workers(pool_workers);
                if let Some(bytes) = batch_bytes {
                    cfg = cfg.shuffle_batch_bytes(bytes);
                }
                let cache = SharedCache::new(16 << 20);
                for attempt in 0..2 {
                    let got = runner.run_cached(&app, sick.clone(), &cfg, &MarkersApart, &cache);
                    assert!(
                        matches!(&got, Err(MrError::Codec(e)) if *e == utf8),
                        "{pool_workers} workers, budget {batch_bytes:?}, attempt {attempt}: \
                         expected {utf8:?}, got {:?}",
                        got.map(|out| out.partitions).map_err(|e| e.to_string())
                    );
                }
                assert!(cache.is_empty(), "a failed job published");
                for (hits, misses) in [(0, 1), (1, 0)] {
                    let out = runner
                        .run_cached(&app, healthy.clone(), &cfg, &MarkersApart, &cache)
                        .unwrap();
                    assert_eq!(out.counters.get(names::CACHE_HITS), hits);
                    assert_eq!(out.counters.get(names::CACHE_MISSES), misses);
                    assert_eq!(out.into_sorted_output(), expect, "{pool_workers} workers");
                }
            }
        }
        // The same bytes under a `String` key, whose view borrows the
        // payload as a `&str`: the reducer fails with the same error.
        for pool_workers in [1, 2, 4] {
            let cfg = JobConfig::new(1).engine(Engine::barrierless());
            let state: StageState<WordCountApp, Vec<(String, u64)>> = StageState::new(&cfg);
            let mut pool = Pool::new();
            let (tx, rx) = pool.channel::<FlatBatch>(BATCH_CHANNEL_DEPTH);
            let mut bad = FlatBatch::default();
            bad.push(&"valid".to_string(), &1u64);
            bad.push(&RawWord(b"shared-p\xFFx".to_vec()), &1u64);
            assert!(tx.try_send_now(bad).is_ok());
            drop(tx);
            pool.spawn(
                PipelinedReduceTask::new(&WordCountApp, &cfg, &state, 0, rx, Vec::new()).unwrap(),
            );
            pool.run(pool_workers).unwrap();
            let done = state.reduce_slots[0].lock().unwrap().take();
            assert!(
                matches!(&done, Some(Err(MrError::Codec(e))) if *e == utf8),
                "{pool_workers} workers: expected {utf8:?}"
            );
        }
    }

    #[test]
    fn single_split_single_reducer() {
        let splits = vec![vec![(0u64, "a a b".to_string())]];
        let cfg = JobConfig::new(1).engine(Engine::barrierless());
        let out = LocalRunner::new(1)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        assert_eq!(
            out.into_sorted_output(),
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let cfg = JobConfig::new(2);
        let out = LocalRunner::new(2)
            .run(&WordCountApp, Vec::new(), &cfg)
            .unwrap();
        assert_eq!(out.record_count(), 0);
        let cfg = JobConfig::new(2).engine(Engine::barrierless());
        let out = LocalRunner::new(2)
            .run(&WordCountApp, Vec::new(), &cfg)
            .unwrap();
        assert_eq!(out.record_count(), 0);
    }

    #[test]
    fn combiner_cuts_shuffle_records_without_changing_output() {
        let splits = text_splits(6, 50);
        let expect = expected_counts(&splits);
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let plain_cfg = JobConfig::new(3).engine(engine.clone());
            let plain = LocalRunner::new(4)
                .run(&WordCountApp, splits.clone(), &plain_cfg)
                .unwrap();
            let comb_cfg = JobConfig::new(3)
                .engine(engine.clone())
                .combiner(crate::config::CombinerPolicy::enabled());
            let combined = LocalRunner::new(4)
                .run(&WordCountApp, splits.clone(), &comb_cfg)
                .unwrap();
            // Byte-exact output invariant.
            let got: BTreeMap<String, u64> =
                combined.partitions.iter().flatten().cloned().collect();
            assert_eq!(got, expect, "engine {engine:?} with combiner diverged");
            // The combiner really ran and really pre-aggregated: raw map
            // output (10-word vocab × many lines) collapses to ~vocab
            // records per split × reducer.
            assert_eq!(
                combined.counters.get(names::COMBINE_INPUT_RECORDS),
                plain.counters.get(names::MAP_OUTPUT_RECORDS)
            );
            assert!(
                combined.counters.get(names::COMBINE_OUTPUT_RECORDS)
                    < combined.counters.get(names::COMBINE_INPUT_RECORDS) / 2,
                "combining barely reduced records: {} -> {}",
                combined.counters.get(names::COMBINE_INPUT_RECORDS),
                combined.counters.get(names::COMBINE_OUTPUT_RECORDS)
            );
            // Only combined records crossed the shuffle transport.
            assert_eq!(
                combined.counters.get(names::SHUFFLE_RECORDS),
                combined.counters.get(names::COMBINE_OUTPUT_RECORDS)
            );
        }
    }

    /// What the barrier engine owes an order-sensitive application:
    /// `reduce_partition_barrier` over each partition's records
    /// concatenated in split order.
    fn split_order_reference<A: Application>(
        app: &A,
        splits: &[InputSplit<A>],
        reducers: usize,
    ) -> Vec<Vec<(A::OutKey, A::OutValue)>> {
        let mut parts: Vec<Vec<(A::MapKey, A::MapValue)>> =
            (0..reducers).map(|_| Vec::new()).collect();
        for (k, v) in splits.iter().flatten() {
            let mut emit = FnEmit(|mk: A::MapKey, mv: A::MapValue| {
                parts[HashPartitioner.partition(&mk, reducers)].push((mk, mv));
            });
            app.map(k, v, &mut emit);
        }
        parts
            .into_iter()
            .map(|records| reduce_partition_barrier(app, records, &mut Counters::new()).unwrap())
            .collect()
    }

    #[test]
    fn barrier_reducers_receive_values_in_split_order() {
        // More splits than map tasks, so consecutive splits are mapped
        // by different tasks and their records reach a reducer
        // interleaved; the stable-sort contract still owes the
        // application split order, at every width and batch budget.
        use crate::chain::ChainableApplication;
        use crate::config::{ChainSpec, CombinerPolicy, HandoffMode};
        let splits = text_splits(9, 25);
        let expect = split_order_reference(&ArrivalOrder, &splits, 2);
        assert!(expect.iter().all(|p| p.len() > 9), "every reducer has work");
        for pool_workers in [1, 2, 4] {
            for batch_bytes in [Some(1), None] {
                let mut cfg = JobConfig::new(2)
                    .engine(Engine::Barrier)
                    .combiner(CombinerPolicy::Disabled)
                    .pool_workers(pool_workers);
                if let Some(bytes) = batch_bytes {
                    cfg = cfg.shuffle_batch_bytes(bytes);
                }
                let out = LocalRunner::new(2)
                    .run(&ArrivalOrder, splits.clone(), &cfg)
                    .unwrap();
                assert_eq!(
                    out.partitions, expect,
                    "{pool_workers} workers, batch budget {batch_bytes:?}"
                );
            }
        }
        // Downstream of a streaming chain the "splits" are the upstream
        // partitions: upstream reducer i's output, in the order it was
        // emitted, mapped inside that reducer.
        let cfg1 = JobConfig::new(3);
        let intakes: Vec<Vec<(u64, String)>> = LocalRunner::new(2)
            .run(&WordCountApp, splits.clone(), &cfg1)
            .unwrap()
            .partitions
            .into_iter()
            .map(|p| {
                p.into_iter()
                    .map(|(k, v)| ArrivalOrder.adapt_input(k, v))
                    .collect()
            })
            .collect();
        let expect = split_order_reference(&ArrivalOrder, &intakes, 2);
        for pool_workers in [1, 2, 4] {
            let cfg2 = JobConfig::new(2).pool_workers(pool_workers);
            let spec = ChainSpec::new(vec![cfg1.clone(), cfg2]).handoff(HandoffMode::Streaming);
            let out = LocalRunner::new(2)
                .run_chain2(
                    &WordCountApp,
                    &ArrivalOrder,
                    splits.clone(),
                    &spec,
                    &HashPartitioner,
                    &HashPartitioner,
                )
                .unwrap();
            assert_eq!(
                out.output.partitions, expect,
                "chained, {pool_workers} workers"
            );
        }
    }

    #[test]
    fn one_record_batches_still_deliver_everything() {
        // Degenerate batch budget: every record flushes its own batch —
        // the transport must stay correct, just slower.
        let splits = text_splits(4, 30);
        let expect = expected_counts(&splits);
        let cfg = JobConfig::new(3)
            .engine(Engine::barrierless())
            .shuffle_batch_bytes(1);
        let out = LocalRunner::new(3)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        assert_eq!(
            out.counters.get(names::SHUFFLE_RECORDS),
            out.counters.get(names::MAP_OUTPUT_RECORDS)
        );
        assert_eq!(
            out.counters.get(names::SHUFFLE_BATCHES),
            out.counters.get(names::SHUFFLE_RECORDS)
        );
        let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn tiny_combiner_budget_spills_partials_and_stays_correct() {
        let splits = text_splits(5, 40);
        let expect = expected_counts(&splits);
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .combiner(crate::config::CombinerPolicy::Enabled { budget_bytes: 64 });
        let out = LocalRunner::new(4)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        assert!(out.counters.get(names::COMBINE_OUTPUT_RECORDS) > 0);
        let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pipelined_recycles_batch_buffers() {
        // One-record batches produce thousands of batches; every batch
        // beyond the channel depth must ride a recycled buffer, which is
        // exactly what the modelled reuse counter accounts.
        let splits = text_splits(8, 80);
        let expect = expected_counts(&splits);
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .shuffle_batch_bytes(1);
        let out = LocalRunner::new(2)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        let batches = out.counters.get(names::SHUFFLE_BATCHES);
        let reused = out.counters.get(names::SHUFFLE_BATCH_REUSE);
        assert!(batches > 100);
        assert!(reused > 0, "reuse model never charged a buffer round trip");
        assert!(
            reused <= batches,
            "reuse {reused} exceeds batches {batches}"
        );
        let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn shuffle_counters_are_schedule_independent() {
        // Batch boundaries are cut per split by byte budget, so the
        // shuffle accounting must be byte-identical at every pool width
        // — including the reuse counter, which is modelled from batch
        // counts rather than observed free-list traffic — and, the map
        // side being one and the same, identical under both engines.
        let splits = text_splits(6, 40);
        let run = |engine: &Engine, pool_workers: usize, combine: bool| {
            let mut cfg = JobConfig::new(3)
                .engine(engine.clone())
                .pool_workers(pool_workers);
            if combine {
                cfg = cfg.combiner(crate::config::CombinerPolicy::enabled());
            }
            LocalRunner::new(4)
                .run(&WordCountApp, splits.clone(), &cfg)
                .unwrap()
        };
        let map_side = [
            names::MAP_OUTPUT_RECORDS,
            names::COMBINE_INPUT_RECORDS,
            names::COMBINE_OUTPUT_RECORDS,
            names::SHUFFLE_BATCHES,
            names::SHUFFLE_RECORDS,
        ];
        for combine in [false, true] {
            let pipelined = run(&Engine::barrierless(), 1, combine);
            assert!(pipelined.counters.get(names::SHUFFLE_BATCHES) > 0);
            for engine in [Engine::barrierless(), Engine::Barrier] {
                let base = run(&engine, 1, combine);
                for name in map_side {
                    assert_eq!(
                        base.counters.get(name),
                        pipelined.counters.get(name),
                        "combine {combine}: {engine:?} disagrees on {}",
                        name.as_str()
                    );
                }
                for workers in [2, 4] {
                    let other = run(&engine, workers, combine);
                    assert_eq!(
                        base.partitions, other.partitions,
                        "{engine:?}, combine {combine}: output changed at {workers} workers"
                    );
                    let m = |c: &Counters| -> BTreeMap<String, u64> {
                        c.iter().map(|(k, v)| (k.to_string(), v)).collect()
                    };
                    assert_eq!(
                        m(&base.counters),
                        m(&other.counters),
                        "{engine:?}, combine {combine}: counters changed at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn many_jobs_share_a_bounded_pool() {
        // The ROADMAP bar: hundreds of small concurrent jobs on a
        // fixed-size pool, outputs byte-identical to one-job-at-a-time
        // runs, thread count bounded by the pool — not the job count.
        let n_jobs = 256;
        let jobs: Vec<Vec<Vec<(u64, String)>>> = (0..n_jobs)
            .map(|j| {
                let mut split = text_splits(1, 6).remove(0);
                for (id, line) in &mut split {
                    *id += j as u64 * 1000;
                    line.push_str(if j % 2 == 0 { " even" } else { " odd" });
                }
                vec![split]
            })
            .collect();
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let cfg = JobConfig::new(2).engine(engine.clone()).pool_workers(4);
            let many = LocalRunner::new(2)
                .run_many(&WordCountApp, jobs.clone(), &cfg, &HashPartitioner)
                .unwrap();
            assert_eq!(many.pool.workers, 4);
            assert!(
                many.pool.peak_threads <= 4,
                "{engine:?}: {} threads for a 4-worker pool",
                many.pool.peak_threads
            );
            assert_eq!(many.jobs.len(), n_jobs);
            for (j, (result, splits)) in many.jobs.into_iter().zip(jobs.iter()).enumerate() {
                let got = result.unwrap_or_else(|e| panic!("{engine:?}: job {j} failed: {e}"));
                let solo = LocalRunner::new(2)
                    .run(&WordCountApp, splits.clone(), &cfg)
                    .unwrap();
                assert_eq!(
                    got.partitions, solo.partitions,
                    "{engine:?}: job {j} diverged from its solo run"
                );
            }
        }
    }

    #[test]
    fn many_jobs_survive_one_byte_batches_on_a_tiny_pool() {
        // Worst-case interleaving pressure: every record is its own
        // batch, channels fill constantly, dozens of jobs share two
        // workers — and nothing hangs or drops a record.
        let jobs: Vec<Vec<Vec<(u64, String)>>> = (0..32).map(|_| text_splits(2, 8)).collect();
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .shuffle_batch_bytes(1)
            .pool_workers(2);
        let many = LocalRunner::new(2)
            .run_many(&WordCountApp, jobs.clone(), &cfg, &HashPartitioner)
            .unwrap();
        let expect = expected_counts(&jobs[0]);
        for result in many.jobs {
            let got: BTreeMap<String, u64> =
                result.unwrap().into_sorted_output().into_iter().collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn many_jobs_isolate_a_failing_job() {
        // Job 1 OOMs; its neighbours still finish with correct output.
        // The neighbours' keyed state is bounded by the tiny shared
        // vocabulary; job 1's all-unique words blow through the cap.
        let mut jobs: Vec<Vec<Vec<(u64, String)>>> = (0..4).map(|_| text_splits(1, 10)).collect();
        jobs[1] = vec![(0..400u64).map(|i| (i, format!("uniq{i:04}"))).collect()];
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .heap_cap(2000)
            .pool_workers(2)
            .scratch_dir(scratch_dir("many-oom"));
        let many = LocalRunner::new(2)
            .run_many(&WordCountApp, jobs.clone(), &cfg, &HashPartitioner)
            .unwrap();
        assert!(
            matches!(many.jobs[1], Err(MrError::OutOfMemory { .. })),
            "job 1 should OOM, got {:?}",
            many.jobs[1].as_ref().err().map(|e| e.to_string())
        );
        let expect = expected_counts(&jobs[0]);
        for (j, result) in many.jobs.into_iter().enumerate() {
            if j == 1 {
                continue;
            }
            let got: BTreeMap<String, u64> = result
                .unwrap_or_else(|e| panic!("job {j} should survive, got {e}"))
                .into_sorted_output()
                .into_iter()
                .collect();
            assert_eq!(got, expect, "job {j} output corrupted by job 1's OOM");
        }
    }

    #[test]
    fn ordered_and_hashed_indexes_agree_under_every_policy() {
        // The hashed stores and combiner buffers, under every memory
        // policy, against an ordered (`BTreeMap`) fold of the input.
        let splits = text_splits(6, 40);
        let expect = expected_counts(&splits);
        for policy in [
            MemoryPolicy::InMemory,
            MemoryPolicy::SpillMerge {
                threshold_bytes: 512,
            },
            MemoryPolicy::KvStore { cache_bytes: 1024 },
        ] {
            let cfg = JobConfig::new(3)
                .engine(Engine::BarrierLess {
                    memory: policy.clone(),
                })
                .combiner(crate::config::CombinerPolicy::enabled())
                .scratch_dir(scratch_dir("local-ab"));
            let out = LocalRunner::new(4)
                .run(&WordCountApp, splits.clone(), &cfg)
                .unwrap();
            for part in &out.partitions {
                assert!(
                    part.windows(2).all(|w| w[0].0 < w[1].0),
                    "partition not key-sorted under {policy:?}"
                );
            }
            let got: BTreeMap<String, u64> = out.into_sorted_output().into_iter().collect();
            assert_eq!(got, expect, "output diverged under {policy:?}");
        }
    }

    #[test]
    fn invalid_config_is_an_err_not_a_worker_panic() {
        let splits = text_splits(2, 10);
        let mut cfg = JobConfig::new(2).engine(Engine::barrierless());
        cfg.shuffle_batch_bytes = 0;
        let err = LocalRunner::new(2).run(&WordCountApp, splits.clone(), &cfg);
        assert!(
            matches!(err, Err(MrError::InvalidConfig(_))),
            "zero batch bytes must fail fast, got {:?}",
            err.err().map(|e| e.to_string())
        );
        let mut cfg = JobConfig::new(2);
        cfg.reducers = 0;
        assert!(matches!(
            LocalRunner::new(2).run(&WordCountApp, splits.clone(), &cfg),
            Err(MrError::InvalidConfig(_))
        ));
        let mut cfg = JobConfig::new(2);
        cfg.pool_workers = 0;
        assert!(matches!(
            LocalRunner::new(2).run(&WordCountApp, splits, &cfg),
            Err(MrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pipelined_snapshots_estimate_early_and_end_exact() {
        use crate::config::SnapshotPolicy;
        let splits = text_splits(6, 40);
        let plain_cfg = JobConfig::new(2).engine(Engine::barrierless());
        let plain = LocalRunner::new(4)
            .run(&WordCountApp, splits.clone(), &plain_cfg)
            .unwrap();
        assert_eq!(plain.snapshot_count(), 0, "snapshots off by default");
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .snapshots(SnapshotPolicy::EveryRecords { records: 100 });
        let out = LocalRunner::new(4)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        // Byte-exact final output, snapshots or not.
        assert_eq!(out.partitions, plain.partitions);
        assert!(out.snapshot_count() >= 2, "periodic snapshots published");
        assert_eq!(
            out.counters.get(names::SNAPSHOT_COUNT),
            out.snapshot_count() as u64
        );
        for (r, snaps) in out.snapshots.iter().enumerate() {
            // Monotone sequence and record progress per reducer.
            for pair in snaps.windows(2) {
                assert!(pair[0].seq < pair[1].seq);
                assert!(pair[0].records_absorbed <= pair[1].records_absorbed);
            }
            // The last snapshot is the reducer's exact final answer.
            let last = snaps.last().expect("final snapshot");
            assert_eq!(last.estimate, out.partitions[r]);
        }
    }

    #[test]
    fn barrier_engine_publishes_only_its_finished_output() {
        use crate::config::SnapshotPolicy;
        let splits = text_splits(4, 30);
        let cfg = JobConfig::new(3).snapshots(SnapshotPolicy::EveryRecords { records: 1 });
        let out = LocalRunner::new(4)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        assert_eq!(out.snapshots.len(), 3);
        for (r, snaps) in out.snapshots.iter().enumerate() {
            assert_eq!(snaps.len(), 1, "one snapshot per barrier reducer");
            assert_eq!(snaps[0].estimate, out.partitions[r]);
            assert_eq!(snaps[0].live_entries, 0, "no partial state at the barrier");
        }
        assert_eq!(out.counters.get(names::SNAPSHOT_COUNT), 3);
        assert_eq!(out.counters.get(names::SNAPSHOT_BYTES), 0);
    }

    #[test]
    fn many_reducers_more_than_keys() {
        let splits = vec![vec![(0u64, "only two".to_string())]];
        let cfg = JobConfig::new(16).engine(Engine::barrierless());
        let out = LocalRunner::new(2)
            .run(&WordCountApp, splits, &cfg)
            .unwrap();
        assert_eq!(out.record_count(), 2);
        assert_eq!(out.partitions.len(), 16);
    }
}
