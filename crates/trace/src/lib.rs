//! `mr-trace` — the unified structured trace pipeline.
//!
//! One canonical event stream replaces the three ad-hoc observability
//! surfaces that grew alongside the executors: Hadoop-style `Counters`,
//! the simulator's `Timeline` span/mark records, and the chain drivers'
//! per-stage `StageStats`. Every fact those systems recorded is now a
//! [`TraceEvent`] stamped with a [`Scope`] (job / task kind / index /
//! attempt / node) and a [`TraceInstant`] (virtual or wall time).
//!
//! The pipeline has three stages, mirroring the sink → dispatcher →
//! query-service split:
//!
//! * **Sink** — a [`TraceRecorder`] buffers one task's events locally
//!   (allocation-light: no locks, no channels on the hot path, exactly
//!   like per-task `Counters` merged at task end) and flushes them as one
//!   [`TraceBatch`] into a [`TraceSink`].
//! * **Dispatcher** — [`TraceDispatcher`] collects batches from
//!   concurrently finishing tasks and orders them into a [`TraceLog`] by
//!   deterministic scope key, so the log's byte layout never depends on
//!   thread scheduling. Single-threaded emitters (the cluster simulator)
//!   can push entries straight into a [`TraceLog`] in virtual-time order.
//! * **Query** — [`TraceQuery`] answers spans-by-kind, counter totals,
//!   progress series, per-tenant breakdowns and mark lookups over a
//!   finished log.
//!
//! Determinism: a [`TraceLog`] serializes to a canonical text form
//! ([`TraceLog::to_canonical_string`]) in which wall-clock instants are
//! masked (virtual instants are exact integers). Simulator logs are
//! byte-identical across reruns of the same seed; local-executor logs
//! are byte-identical because batches are ordered by scope, per-worker
//! counter attribution is pre-merged, and wall times are masked.

mod event;
mod label;
mod log;
mod query;
mod record;

pub use event::{
    Scope, SpanKind, SpecEvent, SpecTaskKind, TaskKind, TraceEntry, TraceEvent, TraceInstant,
    NO_NODE, NO_TENANT,
};
pub use label::Label;
pub use log::TraceLog;
pub use query::{SpanRec, TraceQuery};
pub use record::{TraceBatch, TraceDispatcher, TraceRecorder, TraceSink};
