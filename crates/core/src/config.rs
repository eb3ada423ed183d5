//! Job configuration: which engine, how many reducers, how partial
//! results are stored, how the shuffle moves records, and when partial-
//! result snapshots are published.

use crate::error::{MrError, MrResult};
use crate::local::service::FairShare;
use std::path::PathBuf;

/// Default map-side combiner byte budget (per map worker × reducer).
pub const DEFAULT_COMBINER_BUDGET: u64 = 256 << 10;

/// Default shuffle batch budget: how many buffered bytes a map worker
/// accumulates per reducer before handing a batch to the transport.
pub const DEFAULT_SHUFFLE_BATCH_BYTES: usize = 32 << 10;

/// Map-side combining policy.
///
/// The combiner is *derived* from the barrier-less incremental form:
/// `init`/`absorb` already compute a per-key partial result, so when an
/// application opts in ([`combine_enabled`](crate::Application::combine_enabled))
/// the map side can pre-aggregate its output under a byte budget and ship
/// combined records instead of raw ones, cutting shuffle volume. The
/// engines only combine when *both* the policy and the application allow
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinerPolicy {
    /// No map-side combining: every map output record enters the shuffle.
    Disabled,
    /// Pre-aggregate per-key partials on the map side; when the buffered
    /// partials exceed `budget_bytes` (modelled heap bytes) they are
    /// drained into the shuffle early.
    Enabled {
        /// Combiner buffer budget in modelled heap bytes.
        budget_bytes: u64,
    },
}

impl CombinerPolicy {
    /// Combining with the default byte budget.
    pub fn enabled() -> Self {
        CombinerPolicy::Enabled {
            budget_bytes: DEFAULT_COMBINER_BUDGET,
        }
    }

    /// True unless the policy is [`CombinerPolicy::Disabled`].
    pub fn is_enabled(&self) -> bool {
        matches!(self, CombinerPolicy::Enabled { .. })
    }

    /// The byte budget, if combining is enabled.
    pub fn budget_bytes(&self) -> Option<u64> {
        match self {
            CombinerPolicy::Disabled => None,
            CombinerPolicy::Enabled { budget_bytes } => Some(*budget_bytes),
        }
    }
}

/// Default shared result-cache byte budget (64 MiB).
pub const DEFAULT_CACHE_BUDGET: u64 = 64 << 20;

/// Whether (and how large) a job's shared result cache is.
///
/// The result cache (`mr-cache` + [`crate::local::cache`]) memoizes
/// content-addressed artifacts — sealed job outputs — across jobs and
/// tenants. The paper's §8 future-work note observes memoization
/// "becomes feasible in the barrier-less model"; this knob turns it on. `Disabled` by default: caching never changes
/// job output (that is the determinism bar), but it does add hashing
/// work to cold runs, so jobs opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheBudget {
    /// No result caching: every run computes from scratch.
    Disabled,
    /// Cache artifacts under an LRU byte budget; an entry larger than
    /// the whole budget is refused (counted as `cache.oversize.count`).
    Limit {
        /// Whole-cache byte budget.
        bytes: u64,
    },
}

impl CacheBudget {
    /// Caching with the default byte budget.
    pub fn enabled() -> Self {
        CacheBudget::Limit {
            bytes: DEFAULT_CACHE_BUDGET,
        }
    }

    /// True unless the policy is [`CacheBudget::Disabled`].
    pub fn is_enabled(&self) -> bool {
        matches!(self, CacheBudget::Limit { .. })
    }

    /// The byte budget, if caching is enabled.
    pub fn bytes(&self) -> Option<u64> {
        match self {
            CacheBudget::Disabled => None,
            CacheBudget::Limit { bytes } => Some(*bytes),
        }
    }
}

/// When a barrier-less reduce task publishes a *snapshot* — a consistent
/// point-in-time estimate of its final output built from the live
/// partial results (the paper's headline capability: reducers hold
/// usable per-key state long before the job finishes).
///
/// Snapshots are read-only over a frozen view of the partial store and
/// never change what the job finally emits; they only make mid-job state
/// observable. Under the barrier engine there is no partial state to
/// observe, so the only snapshot a barrier reducer can publish is its
/// finished output — which is exactly the paper's point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotPolicy {
    /// Never snapshot (the default; zero overhead on every path).
    Disabled,
    /// Snapshot after every `records` records absorbed by a reduce task.
    /// Deterministic: the snapshot points depend only on the record
    /// stream, so the determinism harness can assert snapshot contents.
    EveryRecords {
        /// Absorbed-record interval between snapshots (≥ 1).
        records: u64,
    },
    /// Snapshot roughly every `secs` seconds — wall clock under the
    /// local executor, virtual time under the cluster simulator (where
    /// ticks are scheduled as timeline events).
    EverySecs {
        /// Seconds between snapshots (> 0).
        secs: f64,
    },
}

impl SnapshotPolicy {
    /// True unless the policy is [`SnapshotPolicy::Disabled`]. Every
    /// enabled policy is periodic and also publishes one final snapshot
    /// at end-of-input, so the last snapshot always equals the finalize
    /// output.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, SnapshotPolicy::Disabled)
    }

    /// The absorbed-record interval, if records-driven.
    pub fn record_interval(&self) -> Option<u64> {
        match self {
            SnapshotPolicy::EveryRecords { records } => Some(*records),
            _ => None,
        }
    }

    /// The time interval in seconds, if time-driven.
    pub fn secs_interval(&self) -> Option<f64> {
        match self {
            SnapshotPolicy::EverySecs { secs } => Some(*secs),
            _ => None,
        }
    }
}

/// When the cluster simulator launches speculative backup attempts for
/// straggling tasks (Hadoop-style speculative execution).
///
/// Detection is progress-relative-to-median: a map attempt is a
/// straggler when it has been running `slowdown` times longer than the
/// median completed map (records read per second, since maps stream a
/// fixed chunk); a reduce attempt is a straggler when its shuffle
/// deliveries trail the median running reducer by the same factor. At
/// most one backup per task is launched, on a node away from the
/// original; whichever attempt finishes first wins and the loser is
/// cancelled. Because task execution is deterministic, both attempts
/// produce byte-identical output — speculation can never change what
/// the job emits, only when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeculationPolicy {
    /// Never speculate (the default; zero overhead on every path).
    Disabled,
    /// Scan for stragglers every `check_secs` of virtual time.
    Enabled {
        /// Seconds between straggler scans (> 0).
        check_secs: f64,
        /// How far behind the median an attempt must be before a backup
        /// launches (≥ 1; at 1.0 an attempt on a homogeneous noise-free
        /// cluster still never qualifies, because equals are never
        /// *strictly* behind).
        slowdown: f64,
    },
}

impl SpeculationPolicy {
    /// Speculation with the default scan interval and slowdown factor.
    pub fn enabled() -> Self {
        SpeculationPolicy::Enabled {
            check_secs: 5.0,
            slowdown: 1.2,
        }
    }

    /// True unless the policy is [`SpeculationPolicy::Disabled`].
    pub fn is_enabled(&self) -> bool {
        matches!(self, SpeculationPolicy::Enabled { .. })
    }
}

/// A completion deadline for a simulated job: an SLA built on top of
/// [`SnapshotPolicy`].
///
/// When the deadline event fires before the job finishes, the simulator
/// stops the run and finalizes the job from the latest snapshot each
/// reduce task has published, reporting
/// `Outcome::Approximate` instead of `Completed`. The deadline is a
/// fixed virtual-time tick, so which snapshot is "latest" — and
/// therefore the approximate answer itself — is deterministic for a
/// given seed. Requires an enabled snapshot policy (otherwise there
/// would be nothing to answer with); [`JobConfig::validate`] enforces
/// that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlinePolicy {
    /// No deadline: jobs run to completion (the default).
    Disabled,
    /// Finalize from snapshots if the job is still running at `secs` of
    /// virtual time.
    At {
        /// Deadline in virtual seconds from job start (> 0).
        secs: f64,
    },
}

impl DeadlinePolicy {
    /// True unless the policy is [`DeadlinePolicy::Disabled`].
    pub fn is_enabled(&self) -> bool {
        matches!(self, DeadlinePolicy::At { .. })
    }

    /// The deadline in seconds, if one is set.
    pub fn secs(&self) -> Option<f64> {
        match self {
            DeadlinePolicy::At { secs } => Some(*secs),
            DeadlinePolicy::Disabled => None,
        }
    }
}

/// Whether a run exports the unified structured trace (`mr-trace`): one
/// event stream of task spans, counter totals and marks.
///
/// The policy decides only whether the log is exported. Returned
/// `Counters` and chain `StageStats` are merged directly by the
/// executors either way; the log carries a copy of those totals.
/// Tracing is on by default: recording is allocation-light (per-task
/// buffered batches, merged exactly like task counters) and under the
/// simulator it costs zero *virtual* time. Disabling it yields an empty
/// [`TraceLog`](mr_trace::TraceLog) while the job's output and counters
/// stay byte-identical — the trace is observability only and can never
/// change what a job computes or counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracePolicy {
    /// Record every event into the run's `TraceLog` (the default).
    #[default]
    Enabled,
    /// Export nothing; reports carry an empty log and the same counters.
    /// The local executor skips event emission entirely.
    Disabled,
}

impl TracePolicy {
    /// True unless the policy is [`TracePolicy::Disabled`].
    pub fn is_enabled(&self) -> bool {
        matches!(self, TracePolicy::Enabled)
    }
}

/// How a [`ChainSpec`] hands one stage's reduce output to the next
/// stage's mappers.
///
/// This is the inter-*job* analogue of the intra-job [`Engine`] choice:
/// the paper's strongest claim beyond single-job pipelining is that for
/// concatenated MapReduce jobs the stage boundary between job N's reduce
/// and job N+1's map can be removed exactly like the shuffle barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoffMode {
    /// Hard inter-job barrier (the Hadoop baseline): stage N materializes
    /// its complete output before any stage-N+1 map task starts.
    #[default]
    Barrier,
    /// Barrier-less streaming: each upstream reduce task runs stage
    /// N+1's map function on every record it emits and ships the result
    /// straight into stage N+1's shuffle channels, so the stage boundary
    /// is the next stage's shuffle and stage N+1 map work overlaps stage
    /// N reduce work.
    Streaming,
}

/// A concatenated sequence of MapReduce jobs: one [`JobConfig`] per
/// stage plus the [`HandoffMode`] of every stage boundary. Stage `i`'s
/// reduce output is re-partitioned and fed to stage `i + 1`'s mappers as
/// a record stream (streaming handoff) or a materialized dataset
/// (barrier handoff).
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Per-stage job configurations, in execution order.
    pub stages: Vec<JobConfig>,
    /// Barrier or streaming stage handoff.
    pub handoff: HandoffMode,
}

impl ChainSpec {
    /// A chain over `stages` with the default (barrier) handoff.
    pub fn new(stages: Vec<JobConfig>) -> Self {
        ChainSpec {
            stages,
            handoff: HandoffMode::default(),
        }
    }

    /// Sets the handoff mode.
    pub fn handoff(mut self, handoff: HandoffMode) -> Self {
        self.handoff = handoff;
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the chain has no stages (always invalid to run).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Checks every chain knob up front: the chain must have at least one
    /// stage, and every stage's [`JobConfig`] must itself validate. Chain
    /// drivers call this before spawning anything.
    pub fn validate(&self) -> MrResult<()> {
        if self.stages.is_empty() {
            return Err(MrError::InvalidConfig(
                "empty chain: a ChainSpec needs at least one stage".to_string(),
            ));
        }
        for (i, stage) in self.stages.iter().enumerate() {
            stage.validate().map_err(|e| match e {
                MrError::InvalidConfig(msg) => {
                    MrError::InvalidConfig(format!("chain stage {i}: {msg}"))
                }
                other => other,
            })?;
        }
        Ok(())
    }
}

/// How per-key partial results are indexed: one FxHash map
/// ([`crate::store::PartialMap`]) sorted once at drain. Kept only so the
/// benchmark compiles; ROADMAP item 1 removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreIndex {
    /// FxHash map with amortized sort-at-drain.
    #[default]
    Hashed,
}

/// How the barrier-less engine stores partial results (§5).
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryPolicy {
    /// Keep everything in memory, in one hashed map sorted once at drain
    /// (the paper used an ordered TreeMap; only the drain needs order).
    /// Fails with an out-of-memory error when `heap_cap_bytes` (if set)
    /// is exceeded — reproducing Figure 5(a).
    InMemory,
    /// Disk spill and merge (§5.1): append the sorted store to a spill
    /// file as a run when it reaches `threshold_bytes`; k-way merge runs
    /// at finalize.
    SpillMerge {
        /// Spill trigger, in *modelled* heap bytes.
        threshold_bytes: u64,
    },
    /// Disk-spilling key/value store (§5.2, BerkeleyDB stand-in): every
    /// absorb is a read-modify-update against `mr-kvstore`.
    KvStore {
        /// Record-cache budget for the store.
        cache_bytes: usize,
    },
}

/// Which execution engine runs the Reduce side.
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Classic MapReduce: full shuffle barrier, sort, grouped reduce.
    Barrier,
    /// The paper's contribution: pipelined shuffle + per-record reduce.
    BarrierLess {
        /// Partial-result storage strategy.
        memory: MemoryPolicy,
    },
}

impl Engine {
    /// Convenience: barrier-less with unbounded in-memory storage.
    pub fn barrierless() -> Engine {
        Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        }
    }
}

/// Everything the runner needs besides the application itself.
///
/// # Policy knobs at a glance
///
/// Every policy knob follows the same pattern: a field with a safe
/// default, a chainable builder method, and — where simulator sweeps
/// toggle it cluster-wide — a `ClusterParams` override that wins over
/// the job's own setting (`Some`/enabled wins; `None`/disabled leaves
/// the job's choice in force). `ClusterParams::effective_config`
/// resolves the whole set.
///
/// | Knob | Builder | `ClusterParams` override | Default |
/// |------|---------|--------------------------|---------|
/// | `combiner` | [`combiner`](JobConfig::combiner) | `combiner` (enabled wins) | `Disabled` |
/// | `snapshots` | [`snapshots`](JobConfig::snapshots) | — | `Disabled` |
/// | `speculation` | [`speculation`](JobConfig::speculation) | `speculation` (`Some` wins) | `Disabled` |
/// | `deadline` | [`deadline`](JobConfig::deadline) | — | `Disabled` |
/// | `trace` | [`trace`](JobConfig::trace) | `trace` (`Some` wins) | `Enabled` |
/// | `cache` | [`cache`](JobConfig::cache) | — | `Disabled` |
/// | `pool_workers` | [`pool_workers`](JobConfig::pool_workers) | — | available parallelism |
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Number of reduce tasks (partitions).
    pub reducers: usize,
    /// Engine selection.
    pub engine: Engine,
    /// Per-reduce-task heap cap in modelled bytes; `None` = unbounded.
    /// Exceeding it under `MemoryPolicy::InMemory` kills the job, exactly
    /// like the paper's JVM heap exhaustion.
    pub heap_cap_bytes: Option<u64>,
    /// Multiplier from real store bytes to modelled heap bytes. The
    /// simulator scales record volume down; this scales accounting back
    /// up so thresholds like "240 MB" stay meaningful. 1.0 for real runs.
    pub heap_scale: f64,
    /// Directory for the spill stores' files and the KV stores' log files.
    pub scratch_dir: PathBuf,
    /// Map-side combining policy. Only applications that return `true`
    /// from [`combine_enabled`](crate::Application::combine_enabled)
    /// actually combine; for the rest this is a no-op.
    pub combiner: CombinerPolicy,
    /// Byte budget a map worker buffers per reducer before handing a
    /// record batch to the shuffle transport (the local executor's
    /// batched channels). Per-record shuffle overhead amortizes over
    /// roughly `batch_bytes / record_bytes` records.
    pub shuffle_batch_bytes: usize,
    /// Kept only so the benchmark compiles; ROADMAP item 1 removes it.
    pub store_index: StoreIndex,
    /// When reduce tasks publish partial-result snapshots (early
    /// estimates of the final answer). [`SnapshotPolicy::Disabled`] by
    /// default; snapshots never change final output, only observability.
    pub snapshots: SnapshotPolicy,
    /// When the cluster simulator launches speculative backup attempts
    /// for straggling tasks. [`SpeculationPolicy::Disabled`] by default;
    /// the local executor has no cluster to straggle on and ignores it.
    pub speculation: SpeculationPolicy,
    /// Completion deadline after which the simulator answers from the
    /// latest published snapshots. [`DeadlinePolicy::Disabled`] by
    /// default; requires an enabled snapshot policy when set.
    pub deadline: DeadlinePolicy,
    /// Whether the run exports the unified structured trace.
    /// [`TracePolicy::Enabled`] by default; disabling yields an empty
    /// log but byte-identical job output and counters.
    pub trace: TracePolicy,
    /// Whether this job participates in the shared result cache (the
    /// cached entry points and the job service consult it only when
    /// enabled). [`CacheBudget::Disabled`] by default; caching never
    /// changes job output, only whether it is recomputed.
    pub cache: CacheBudget,
    /// Number of OS threads in the local executor's worker pool. Every
    /// task (map, reduce, chain intake, handoff) is a state machine
    /// multiplexed over this many threads, so the thread count is bounded
    /// by the pool — not by splits × reducers × chain stages. Defaults to
    /// the machine's available parallelism. Output is byte-identical at
    /// any width; `1` additionally makes task interleaving deterministic.
    pub pool_workers: usize,
}

impl JobConfig {
    /// A barrier-engine config with `reducers` partitions and defaults
    /// suitable for tests and examples.
    pub fn new(reducers: usize) -> Self {
        JobConfig {
            reducers,
            engine: Engine::Barrier,
            heap_cap_bytes: None,
            heap_scale: 1.0,
            scratch_dir: std::env::temp_dir().join("mr-scratch"),
            combiner: CombinerPolicy::Disabled,
            shuffle_batch_bytes: DEFAULT_SHUFFLE_BATCH_BYTES,
            store_index: StoreIndex::default(),
            snapshots: SnapshotPolicy::Disabled,
            speculation: SpeculationPolicy::Disabled,
            deadline: DeadlinePolicy::Disabled,
            trace: TracePolicy::Enabled,
            cache: CacheBudget::Disabled,
            pool_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Sets the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the per-reduce-task heap cap.
    pub fn heap_cap(mut self, bytes: u64) -> Self {
        self.heap_cap_bytes = Some(bytes);
        self
    }

    /// Sets the real-to-modelled heap scaling factor.
    pub fn heap_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.heap_scale = scale;
        self
    }

    /// Sets the scratch directory.
    pub fn scratch_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.scratch_dir = dir.into();
        self
    }

    /// Sets the map-side combining policy.
    pub fn combiner(mut self, policy: CombinerPolicy) -> Self {
        self.combiner = policy;
        self
    }

    /// Sets the shuffle transport batch budget in bytes.
    pub fn shuffle_batch_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes >= 1);
        self.shuffle_batch_bytes = bytes;
        self
    }

    /// Sets the snapshot policy.
    pub fn snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = policy;
        self
    }

    /// Sets the speculation policy.
    pub fn speculation(mut self, policy: SpeculationPolicy) -> Self {
        self.speculation = policy;
        self
    }

    /// Sets the deadline policy.
    pub fn deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.deadline = policy;
        self
    }

    /// Sets the trace policy.
    pub fn trace(mut self, policy: TracePolicy) -> Self {
        self.trace = policy;
        self
    }

    /// Sets the result-cache participation policy.
    pub fn cache(mut self, budget: CacheBudget) -> Self {
        self.cache = budget;
        self
    }

    /// Sets the worker-pool width for the local executor.
    pub fn pool_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1);
        self.pool_workers = workers;
        self
    }

    /// Does nothing: no engine draws random numbers, so a job has no
    /// seed (the cluster simulator's randomness is seeded by its cluster
    /// parameters). Kept only so that builder chains written against
    /// the old `seed` field, such as the benchmark harness's, still
    /// compile.
    pub fn seed(self, seed: u64) -> Self {
        let _ = seed;
        self
    }

    /// Checks every knob combination up front, returning
    /// [`MrError::InvalidConfig`] instead of letting a nonsense value
    /// panic deep inside a worker thread (or silently spin: a zero
    /// `shuffle_batch_bytes` would never flush a batch). The executors
    /// call this before spawning anything; direct struct mutation is
    /// covered too, not just the asserting builders.
    pub fn validate(&self) -> MrResult<()> {
        fn bad(what: impl Into<String>) -> MrResult<()> {
            Err(MrError::InvalidConfig(what.into()))
        }
        if self.reducers == 0 {
            return bad("reducers must be >= 1");
        }
        if self.shuffle_batch_bytes == 0 {
            return bad("shuffle_batch_bytes must be >= 1 (0 would never flush a batch)");
        }
        if self.pool_workers == 0 {
            return bad("pool_workers must be >= 1 (a zero-width pool never runs a task)");
        }
        if !(self.heap_scale.is_finite() && self.heap_scale > 0.0) {
            return bad(format!(
                "heap_scale must be finite and > 0 (got {})",
                self.heap_scale
            ));
        }
        if self.heap_cap_bytes == Some(0) {
            return bad("heap_cap_bytes of 0 kills every job on its first record");
        }
        if self.combiner.budget_bytes() == Some(0) {
            return bad("combiner budget_bytes must be >= 1 (0 drains before every record)");
        }
        if self.cache.bytes() == Some(0) {
            return bad(
                "cache budget bytes must be >= 1 (a zero-byte cache rejects every artifact)",
            );
        }
        match &self.engine {
            Engine::Barrier => {}
            Engine::BarrierLess { memory } => match memory {
                MemoryPolicy::InMemory => {}
                MemoryPolicy::SpillMerge { threshold_bytes } => {
                    if *threshold_bytes == 0 {
                        return bad("SpillMerge threshold_bytes must be >= 1");
                    }
                }
                MemoryPolicy::KvStore { cache_bytes } => {
                    if *cache_bytes == 0 {
                        return bad("KvStore cache_bytes must be >= 1");
                    }
                }
            },
        }
        match self.snapshots {
            SnapshotPolicy::EveryRecords { records: 0 } => {
                return bad("SnapshotPolicy::EveryRecords interval must be >= 1");
            }
            SnapshotPolicy::EverySecs { secs } if !(secs.is_finite() && secs > 0.0) => {
                return bad(format!(
                    "SnapshotPolicy::EverySecs interval must be finite and > 0 (got {secs})"
                ));
            }
            _ => {}
        }
        if let SpeculationPolicy::Enabled {
            check_secs,
            slowdown,
        } = self.speculation
        {
            if !(check_secs.is_finite() && check_secs > 0.0) {
                return bad(format!(
                    "SpeculationPolicy check_secs must be finite and > 0 (got {check_secs})"
                ));
            }
            if !(slowdown.is_finite() && slowdown >= 1.0) {
                return bad(format!(
                    "SpeculationPolicy slowdown must be finite and >= 1 (got {slowdown}; \
                     below 1 every on-pace attempt counts as a straggler)"
                ));
            }
        }
        if let DeadlinePolicy::At { secs } = self.deadline {
            if !(secs.is_finite() && secs > 0.0) {
                return bad(format!(
                    "DeadlinePolicy deadline must be finite and > 0 (got {secs})"
                ));
            }
            if !self.snapshots.is_enabled() {
                return bad(
                    "DeadlinePolicy requires an enabled SnapshotPolicy: with no snapshots \
                     there is nothing to answer with when the deadline fires",
                );
            }
        }
        Ok(())
    }
}

/// One tenant's scheduling identity under the job service: its
/// weighted-fair share, its preemption priority, and its overload
/// quotas. All fields have permissive defaults; quotas are opt-in caps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Deficit-round weight: a tenant with weight 2 gets twice the slot
    /// share of a weight-1 tenant when both have work queued. Must be
    /// >= 1.
    pub weight: u32,
    /// Preemption priority; a strictly higher-priority tenant's pending
    /// work may evict a lower-priority tenant's running task in the
    /// simulator. Equal priorities share fairly and never preempt.
    pub priority: u32,
    /// Cap on the tenant's concurrently held slots. Must be >= 1: a
    /// zero-slot tenant could accept jobs it can never run.
    pub max_concurrent_slots: usize,
    /// Cap on the tenant's jobs waiting in the admission queue; a
    /// submission beyond it is rejected, not queued.
    pub max_queued_jobs: usize,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            priority: 0,
            max_concurrent_slots: usize::MAX,
            max_queued_jobs: usize::MAX,
        }
    }
}

impl TenantSpec {
    /// An unweighted, unprioritised, uncapped tenant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the deficit-round weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the preemption priority.
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Caps the tenant's concurrently held slots.
    pub fn max_concurrent_slots(mut self, slots: usize) -> Self {
        self.max_concurrent_slots = slots;
        self
    }

    /// Caps the tenant's queued (admitted but not yet running) jobs.
    pub fn max_queued_jobs(mut self, jobs: usize) -> Self {
        self.max_queued_jobs = jobs;
        self
    }
}

/// Configuration for a [`JobService`](crate::local::service::JobService): the
/// tenant table, the admission-queue bound, and the number of
/// long-lived slot threads the admitted jobs run on.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The tenant table; a submission names a tenant by index.
    pub tenants: Vec<TenantSpec>,
    /// Bound on jobs waiting for a slot across all tenants. A submission
    /// that would exceed it is rejected with `QueueFull`, not blocked.
    pub queue_cap: usize,
    /// The service's long-lived slot threads — the number of job slots
    /// the scheduler hands out (one admitted job occupies one slot for
    /// its whole run).
    pub pool_workers: usize,
    /// Sizing of the one shared result cache every tenant's jobs
    /// consult (a job still opts in per-submission via
    /// [`JobConfig::cache`]). [`CacheBudget::Disabled`] by default: no
    /// cache is built and every job runs cold.
    pub cache: CacheBudget,
}

impl ServiceConfig {
    /// A service with `tenants` default-spec tenants, a generous queue,
    /// and one slot per available core.
    pub fn new(tenants: usize) -> Self {
        ServiceConfig {
            tenants: vec![TenantSpec::default(); tenants],
            queue_cap: 1024,
            pool_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache: CacheBudget::Disabled,
        }
    }

    /// Replaces tenant `index`'s spec.
    pub fn tenant(mut self, index: usize, spec: TenantSpec) -> Self {
        self.tenants[index] = spec;
        self
    }

    /// Sets the global admission-queue bound.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the number of slot threads (= concurrent job slots).
    pub fn pool_workers(mut self, workers: usize) -> Self {
        self.pool_workers = workers;
        self
    }

    /// Sizes the service's shared result cache.
    pub fn cache(mut self, budget: CacheBudget) -> Self {
        self.cache = budget;
        self
    }

    /// Checks the tenant table and service knobs up front, returning
    /// [`MrError::InvalidConfig`] before any slot thread starts. Same
    /// contract as [`JobConfig::validate`]: nonsense never reaches a
    /// worker.
    pub fn validate(&self) -> MrResult<()> {
        fn bad(what: impl Into<String>) -> MrResult<()> {
            Err(MrError::InvalidConfig(what.into()))
        }
        FairShare::new(&self.tenants, self.queue_cap)?;
        if self.pool_workers == 0 {
            return bad("pool_workers must be >= 1 (a zero-width pool never runs a job)");
        }
        if self.cache.bytes() == Some(0) {
            return bad(
                "cache budget bytes must be >= 1 (a zero-byte cache rejects every artifact)",
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = JobConfig::new(4)
            .engine(Engine::barrierless())
            .heap_cap(1 << 30)
            .heap_scale(2.0);
        assert_eq!(cfg.reducers, 4);
        assert_eq!(
            cfg.engine,
            Engine::BarrierLess {
                memory: MemoryPolicy::InMemory
            }
        );
        assert_eq!(cfg.heap_cap_bytes, Some(1 << 30));
        assert_eq!(cfg.heap_scale, 2.0);
    }

    #[test]
    fn default_is_barrier() {
        assert_eq!(JobConfig::new(1).engine, Engine::Barrier);
    }

    #[test]
    fn snapshots_are_off_by_default_and_builder_sets_them() {
        let cfg = JobConfig::new(1);
        assert_eq!(cfg.snapshots, SnapshotPolicy::Disabled);
        assert!(!cfg.snapshots.is_enabled());
        let cfg = cfg.snapshots(SnapshotPolicy::EveryRecords { records: 64 });
        assert!(cfg.snapshots.is_enabled());
        assert_eq!(cfg.snapshots.record_interval(), Some(64));
        assert_eq!(cfg.snapshots.secs_interval(), None);
        let timed = SnapshotPolicy::EverySecs { secs: 2.5 };
        assert_eq!(timed.secs_interval(), Some(2.5));
        assert!(timed.is_enabled());
    }

    #[test]
    fn validate_accepts_every_sane_combination() {
        JobConfig::new(1).validate().unwrap();
        JobConfig::new(8)
            .engine(Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge { threshold_bytes: 1 },
            })
            .combiner(CombinerPolicy::enabled())
            .snapshots(SnapshotPolicy::EveryRecords { records: 1 })
            .heap_cap(1)
            .validate()
            .unwrap();
        JobConfig::new(2)
            .engine(Engine::BarrierLess {
                memory: MemoryPolicy::KvStore { cache_bytes: 1 },
            })
            .snapshots(SnapshotPolicy::EverySecs { secs: 0.001 })
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_each_bad_knob_with_err_not_panic() {
        use crate::error::MrError;
        let check = |cfg: JobConfig, what: &str| match cfg.validate() {
            Err(MrError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains(what),
                    "message {msg:?} does not mention {what:?}"
                )
            }
            other => panic!("expected InvalidConfig for {what}, got {other:?}"),
        };

        let mut cfg = JobConfig::new(1);
        cfg.reducers = 0;
        check(cfg, "reducers");

        let mut cfg = JobConfig::new(1);
        cfg.shuffle_batch_bytes = 0;
        check(cfg, "shuffle_batch_bytes");

        let mut cfg = JobConfig::new(1);
        cfg.pool_workers = 0;
        check(cfg, "pool_workers");

        let mut cfg = JobConfig::new(1);
        cfg.heap_scale = 0.0;
        check(cfg, "heap_scale");
        let mut cfg = JobConfig::new(1);
        cfg.heap_scale = f64::NAN;
        check(cfg, "heap_scale");

        let mut cfg = JobConfig::new(1);
        cfg.heap_cap_bytes = Some(0);
        check(cfg, "heap_cap_bytes");

        let mut cfg = JobConfig::new(1);
        cfg.combiner = CombinerPolicy::Enabled { budget_bytes: 0 };
        check(cfg, "budget_bytes");

        let mut cfg = JobConfig::new(1);
        cfg.cache = CacheBudget::Limit { bytes: 0 };
        check(cfg, "cache budget");

        let cfg = JobConfig::new(1).engine(Engine::BarrierLess {
            memory: MemoryPolicy::SpillMerge { threshold_bytes: 0 },
        });
        check(cfg, "threshold_bytes");

        let cfg = JobConfig::new(1).engine(Engine::BarrierLess {
            memory: MemoryPolicy::KvStore { cache_bytes: 0 },
        });
        check(cfg, "cache_bytes");

        let mut cfg = JobConfig::new(1);
        cfg.snapshots = SnapshotPolicy::EveryRecords { records: 0 };
        check(cfg, "EveryRecords");

        let mut cfg = JobConfig::new(1);
        cfg.snapshots = SnapshotPolicy::EverySecs { secs: 0.0 };
        check(cfg, "EverySecs");
        let mut cfg = JobConfig::new(1);
        cfg.snapshots = SnapshotPolicy::EverySecs { secs: f64::NAN };
        check(cfg, "EverySecs");

        let mut cfg = JobConfig::new(1);
        cfg.speculation = SpeculationPolicy::Enabled {
            check_secs: 0.0,
            slowdown: 1.5,
        };
        check(cfg, "check_secs");
        let mut cfg = JobConfig::new(1);
        cfg.speculation = SpeculationPolicy::Enabled {
            check_secs: 5.0,
            slowdown: 0.5,
        };
        check(cfg, "slowdown");
        let mut cfg = JobConfig::new(1);
        cfg.speculation = SpeculationPolicy::Enabled {
            check_secs: f64::NAN,
            slowdown: 1.5,
        };
        check(cfg, "check_secs");

        let mut cfg = JobConfig::new(1);
        cfg.deadline = DeadlinePolicy::At { secs: -1.0 };
        check(cfg, "DeadlinePolicy");
        // A deadline without snapshots has nothing to answer with.
        let cfg = JobConfig::new(1).deadline(DeadlinePolicy::At { secs: 100.0 });
        check(cfg, "SnapshotPolicy");
    }

    #[test]
    fn speculation_and_deadline_are_off_by_default_and_builders_set_them() {
        let cfg = JobConfig::new(1);
        assert_eq!(cfg.speculation, SpeculationPolicy::Disabled);
        assert!(!cfg.speculation.is_enabled());
        assert_eq!(cfg.deadline, DeadlinePolicy::Disabled);
        assert!(!cfg.deadline.is_enabled());
        assert_eq!(cfg.deadline.secs(), None);

        let cfg = cfg
            .speculation(SpeculationPolicy::enabled())
            .snapshots(SnapshotPolicy::EverySecs { secs: 10.0 })
            .deadline(DeadlinePolicy::At { secs: 120.0 });
        assert!(cfg.speculation.is_enabled());
        assert!(cfg.deadline.is_enabled());
        assert_eq!(cfg.deadline.secs(), Some(120.0));
        cfg.validate().unwrap();
    }

    #[test]
    fn chain_defaults_are_a_barrier_with_sane_batching() {
        let spec = ChainSpec::new(vec![JobConfig::new(1), JobConfig::new(1)]);
        assert_eq!(spec.handoff, HandoffMode::Barrier);
        spec.validate().unwrap();
    }

    #[test]
    fn empty_chain_is_rejected() {
        let spec = ChainSpec::new(Vec::new());
        assert!(spec.is_empty());
        assert_eq!(spec.len(), 0);
        match spec.validate() {
            Err(MrError::InvalidConfig(msg)) => assert!(msg.contains("empty chain")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn chain_validation_covers_every_stage_config() {
        // A nonsense knob in *any* stage fails the whole spec, naming the
        // offending stage.
        let mut bad = JobConfig::new(2);
        bad.shuffle_batch_bytes = 0;
        let spec = ChainSpec::new(vec![JobConfig::new(2), bad]);
        match spec.validate() {
            Err(MrError::InvalidConfig(msg)) => {
                assert!(msg.contains("chain stage 1"), "missing stage index: {msg}");
                assert!(msg.contains("shuffle_batch_bytes"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        ChainSpec::new(vec![JobConfig::new(2), JobConfig::new(3)])
            .handoff(HandoffMode::Streaming)
            .validate()
            .unwrap();
    }

    #[test]
    fn tracing_is_on_by_default_and_builder_disables_it() {
        let cfg = JobConfig::new(1);
        assert_eq!(cfg.trace, TracePolicy::Enabled);
        assert!(cfg.trace.is_enabled());
        let cfg = cfg.trace(TracePolicy::Disabled);
        assert!(!cfg.trace.is_enabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn combining_is_off_by_default() {
        let cfg = JobConfig::new(1);
        assert_eq!(cfg.combiner, CombinerPolicy::Disabled);
        assert!(!cfg.combiner.is_enabled());
        assert_eq!(cfg.shuffle_batch_bytes, DEFAULT_SHUFFLE_BATCH_BYTES);
        let cfg = cfg
            .combiner(CombinerPolicy::enabled())
            .shuffle_batch_bytes(1 << 10);
        assert!(cfg.combiner.is_enabled());
        assert_eq!(cfg.combiner.budget_bytes(), Some(DEFAULT_COMBINER_BUDGET));
        assert_eq!(cfg.shuffle_batch_bytes, 1 << 10);
    }

    #[test]
    fn caching_is_off_by_default() {
        let cfg = JobConfig::new(1);
        assert_eq!(cfg.cache, CacheBudget::Disabled);
        assert!(!cfg.cache.is_enabled());
        assert_eq!(cfg.cache.bytes(), None);
        let cfg = cfg.cache(CacheBudget::enabled());
        assert!(cfg.cache.is_enabled());
        assert_eq!(cfg.cache.bytes(), Some(DEFAULT_CACHE_BUDGET));
        cfg.validate().unwrap();

        let svc = ServiceConfig::new(1);
        assert_eq!(svc.cache, CacheBudget::Disabled);
        let svc = svc.cache(CacheBudget::Limit { bytes: 1 << 20 });
        assert_eq!(svc.cache.bytes(), Some(1 << 20));
        svc.validate().unwrap();
        let mut svc = ServiceConfig::new(1);
        svc.cache = CacheBudget::Limit { bytes: 0 };
        assert!(svc.validate().is_err());
    }
}
