//! `mr-core` — the barrier-less MapReduce framework.
//!
//! This is the reproduction's primary contribution, corresponding to the
//! modified Hadoop 0.20 of *Breaking the MapReduce Stage Barrier* (Verma
//! et al., CLUSTER 2010). One [`Application`] definition runs under two
//! engines:
//!
//! * **Barrier** ([`engine::barrier`]) — the classic contract: the reduce
//!   side waits for all map output, merge-sorts it, and calls the grouped
//!   Reduce once per key (paper Figure 2).
//! * **Barrier-less** ([`engine::pipeline`]) — the paper's contribution:
//!   records are reduced one at a time in shuffle-arrival order against a
//!   per-key *partial result*, eliminating the sort and the wait (Figure 3).
//!
//! Removing the barrier makes partial-result memory the central problem
//! (§5); the three [`store`] policies answer it: in-memory map, disk
//! spill-and-merge, and a disk-spilling key/value store. Where the paper
//! kept an ordered map, the in-memory index is an in-tree FxHash map
//! ([`hash`]) whose key ordering is recovered by one amortized sort at
//! drain time.
//!
//! [`local::LocalRunner`] executes jobs for real on a fixed-size worker
//! pool ([`local::pool`]) with true map→reduce pipelining: task state
//! machines multiplex onto [`JobConfig::pool_workers`] OS threads, so
//! hundreds of concurrent jobs ([`local::LocalRunner::run_many`]) run
//! with a bounded thread count. The `mr-cluster` crate executes the same
//! [`Application`]s on a simulated 16-node cluster to regenerate the
//! paper's figures.

pub mod chain;
pub mod codec;
pub mod combine;
pub mod config;
pub mod counters;
pub mod engine;
pub mod error;
pub mod hash;
pub mod local;
pub mod output;
pub mod partition;
pub mod size;
pub mod snapshot;
pub mod store;
pub mod traits;

#[cfg(test)]
pub(crate) mod testutil;

pub use chain::{ChainOutput, ChainableApplication, StageStats};
pub use codec::{Codec, CodecError, KeyCow, KeyView};
pub use combine::CombinerBuffer;
pub use config::{
    CacheBudget, ChainSpec, CombinerPolicy, DeadlinePolicy, Engine, HandoffMode, JobConfig,
    MemoryPolicy, ServiceConfig, SnapshotPolicy, SpeculationPolicy, StoreIndex, TenantSpec,
    TracePolicy,
};
pub use counters::{CounterName, Counters};
// The unified trace pipeline this crate's executors emit into.
pub use error::{MrError, MrResult};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use local::cache::SharedCache;
pub use local::service::{
    serve, FairShare, JobHandle, JobService, RejectReason, ServiceReport, SubmitError,
};
pub use local::{LocalRunner, ManyJobsOutput, PoolStats};
pub use mr_cache::{CacheKey, CacheStats, KeyBuilder, ResultCache, StableHash};
pub use mr_trace::{
    Label, Scope, SpanKind, SpanRec, SpecEvent, SpecTaskKind, TaskKind, TraceBatch,
    TraceDispatcher, TraceEntry, TraceEvent, TraceInstant, TraceLog, TraceQuery, TraceRecorder,
    TraceSink,
};
pub use output::JobOutput;
pub use partition::{HashPartitioner, Partitioner};
pub use size::SizeEstimate;
pub use snapshot::Snapshot;
pub use traits::{Application, Emit, FnEmit, IdentityWriter, Key, Value};
