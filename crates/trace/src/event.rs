//! The event schema: scopes, instants, and the one `TraceEvent` enum.

use crate::label::Label;
use std::fmt;

/// Node index meaning "no node attribution" (job-level facts, local
/// executors that have no placement notion).
pub const NO_NODE: u32 = u32::MAX;

/// Tenant index meaning "no tenant attribution" (single-job runs, the
/// batch `run_many` path — anything outside the job service).
pub const NO_TENANT: u32 = u32::MAX;

/// What a recorded span represents. These are the simulator's historical
/// span categories; the local executor reuses `Map` (one span per map
/// worker) and the reducer kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// A map task from schedule to output written.
    Map,
    /// A barrier reducer's fetch window (start → last flow received).
    Shuffle,
    /// A barrier reducer's sort + grouped reduce.
    SortReduce,
    /// A barrier-less reducer's combined shuffle+reduce window.
    ShuffleReduce,
    /// Final output being written to the DFS.
    Output,
}

impl SpanKind {
    fn code(self) -> &'static str {
        match self {
            SpanKind::Map => "map",
            SpanKind::Shuffle => "shuffle",
            SpanKind::SortReduce => "sort_reduce",
            SpanKind::ShuffleReduce => "shuffle_reduce",
            SpanKind::Output => "output",
        }
    }
}

/// Which kind of task a speculation event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecTaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

/// What happened to a speculative attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecEvent {
    /// A backup attempt was launched for a detected straggler.
    Launched,
    /// A backup attempt finished before the original and supplied the
    /// task's output.
    Won,
    /// An attempt (original or backup) was cancelled because the other
    /// attempt of the same task won the race.
    Cancelled,
}

impl SpecEvent {
    fn code(self) -> &'static str {
        match self {
            SpecEvent::Launched => "launched",
            SpecEvent::Won => "won",
            SpecEvent::Cancelled => "cancelled",
        }
    }
}

/// The task category a scope points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Job-level facts with no single task (merged map-side counters,
    /// stage summaries, deadline marks).
    Job,
    /// A map task (or map worker, under the local executor).
    Map,
    /// A reduce task.
    Reduce,
}

impl TaskKind {
    fn code(self) -> &'static str {
        match self {
            TaskKind::Job => "job",
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }
}

/// Where an event happened: job (chain stage), task kind + index +
/// attempt, and node. Every entry in a [`TraceLog`](crate::TraceLog)
/// carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scope {
    /// Job index within the run (chain stage; 0 for single jobs).
    pub job: u32,
    /// Task category.
    pub kind: TaskKind,
    /// Task index within its category (0 for `TaskKind::Job`).
    pub index: u32,
    /// Attempt number (0 = original; speculation/faults bump it).
    pub attempt: u32,
    /// Node the fact is attributed to ([`NO_NODE`] when not placed).
    pub node: u32,
    /// Tenant the fact is attributed to ([`NO_TENANT`] outside the job
    /// service; the service stamps every admitted job's scopes).
    pub tenant: u32,
}

impl Scope {
    /// A job-level scope for `job`.
    pub fn job(job: u32) -> Self {
        Scope {
            job,
            kind: TaskKind::Job,
            index: 0,
            attempt: 0,
            node: NO_NODE,
            tenant: NO_TENANT,
        }
    }

    /// A task scope.
    pub fn task(job: u32, kind: TaskKind, index: u32, attempt: u32, node: u32) -> Self {
        Scope {
            job,
            kind,
            index,
            attempt,
            node,
            tenant: NO_TENANT,
        }
    }

    /// The same scope attributed to `tenant`.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The deterministic ordering key the dispatcher sorts batches by.
    /// Tenant sorts last so pre-service logs keep their historical order.
    pub fn sort_key(&self) -> (u32, TaskKind, u32, u32, u32, u32) {
        (
            self.job,
            self.kind,
            self.index,
            self.attempt,
            self.node,
            self.tenant,
        )
    }

    fn canonical(&self) -> String {
        let node = if self.node == NO_NODE {
            "-".to_string()
        } else {
            self.node.to_string()
        };
        // The tenant prefix appears only when set, so canonical streams
        // recorded before the service layer existed are byte-identical.
        let tenant = if self.tenant == NO_TENANT {
            String::new()
        } else {
            format!("t{} ", self.tenant)
        };
        format!(
            "{}j{} {}[{}]a{} n{}",
            tenant,
            self.job,
            self.kind.code(),
            self.index,
            self.attempt,
            node
        )
    }
}

/// A point in time: exact virtual microseconds under the simulator, or
/// wall-clock seconds under the real local executor.
///
/// Virtual instants round-trip losslessly (the simulator's `SimTime` is
/// integer microseconds); wall instants are inherently nondeterministic
/// and are therefore *masked* in the canonical serialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceInstant {
    /// Virtual time, integer microseconds since run start.
    Virtual {
        /// Microseconds since the simulated run began.
        micros: u64,
    },
    /// Wall time, seconds since run start.
    Wall {
        /// Seconds since the run began.
        secs: f64,
    },
}

impl TraceInstant {
    /// Seconds since run start, for either clock.
    pub fn as_secs_f64(&self) -> f64 {
        match self {
            TraceInstant::Virtual { micros } => *micros as f64 / 1e6,
            TraceInstant::Wall { secs } => *secs,
        }
    }

    /// Virtual microseconds, if this is a virtual instant.
    pub fn virtual_micros(&self) -> Option<u64> {
        match self {
            TraceInstant::Virtual { micros } => Some(*micros),
            TraceInstant::Wall { .. } => None,
        }
    }

    fn canonical(&self) -> String {
        match self {
            // Exact and deterministic: print verbatim.
            TraceInstant::Virtual { micros } => format!("v{micros}"),
            // Wall clocks differ run to run: mask.
            TraceInstant::Wall { .. } => "w*".to_string(),
        }
    }
}

/// One structured trace event — every fact the legacy `Counters`,
/// `Timeline`, and `StageStats` surfaces recorded, in one schema. Task
/// identity (which reducer published a snapshot, which map a span
/// belongs to) lives in the entry's [`Scope`], not in the event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed task activity interval (start and end of the span).
    Span {
        /// Span category.
        kind: SpanKind,
        /// Interval start.
        start: TraceInstant,
        /// Interval end.
        end: TraceInstant,
    },
    /// A monotone counter increment, merged per task like `Counters`.
    Counter {
        /// Counter name; owned labels support dynamic (per-tenant,
        /// per-stage) counters that `&'static str` keys never could.
        label: Label,
        /// Increment.
        delta: u64,
    },
    /// A point sample of one reducer's partial-result heap.
    HeapSample {
        /// Sample instant.
        at: TraceInstant,
        /// Modelled heap bytes.
        bytes: u64,
    },
    /// One partial-result snapshot publication.
    SnapshotMark {
        /// Publication instant.
        at: TraceInstant,
        /// Per-reducer sequence number (monotone across re-runs).
        seq: u64,
        /// Estimated output records in the snapshot.
        records: u64,
        /// Live partial results covered.
        entries: u64,
    },
    /// A slice of an upstream reduce task's output leaving for a
    /// downstream chained map task (the scope names the upstream
    /// reducer).
    HandoffMark {
        /// Departure instant.
        at: TraceInstant,
        /// Downstream chained map task.
        downstream_map: u32,
        /// Records in this increment.
        records: u64,
        /// Nominal wire bytes of this increment.
        bytes: u64,
    },
    /// A speculative-execution event (the scope names the task).
    SpeculationMark {
        /// Event instant.
        at: TraceInstant,
        /// Launched / won / cancelled.
        event: SpecEvent,
    },
    /// A deadline fired and cut the job short.
    DeadlineMark {
        /// The deadline instant.
        at: TraceInstant,
    },
    /// A job finished consulting the shared result cache (the scope
    /// names the job, and the tenant when run under the service).
    CacheMark {
        /// Instant the job's cache accounting was sealed.
        at: TraceInstant,
        /// Artifact lookups that hit.
        hits: u64,
        /// Artifact lookups that missed.
        misses: u64,
        /// Payload bytes handed out by the hits.
        bytes: u64,
    },
    /// A chain stage finished its last task.
    StageDone {
        /// Completion instant.
        at: TraceInstant,
    },
}

impl TraceEvent {
    /// Moves every wall instant of the event `by_secs` later; virtual
    /// instants are exact simulator time and stay put.
    pub(crate) fn shift_wall(&mut self, by_secs: f64) {
        let instants: [Option<&mut TraceInstant>; 2] = match self {
            TraceEvent::Span { start, end, .. } => [Some(start), Some(end)],
            TraceEvent::Counter { .. } => [None, None],
            TraceEvent::HeapSample { at, .. }
            | TraceEvent::SnapshotMark { at, .. }
            | TraceEvent::HandoffMark { at, .. }
            | TraceEvent::SpeculationMark { at, .. }
            | TraceEvent::DeadlineMark { at }
            | TraceEvent::CacheMark { at, .. }
            | TraceEvent::StageDone { at } => [Some(at), None],
        };
        for instant in instants.into_iter().flatten() {
            if let TraceInstant::Wall { secs } = instant {
                *secs += by_secs;
            }
        }
    }

    /// Intra-scope ordering class, used by the canonical form and the
    /// dispatcher only to keep the serialization stable; events within
    /// one batch keep their emission order.
    pub(crate) fn canonical(&self) -> String {
        match self {
            TraceEvent::Span { kind, start, end } => format!(
                "span {} {} {}",
                kind.code(),
                start.canonical(),
                end.canonical()
            ),
            TraceEvent::Counter { label, delta } => format!("counter {label} +{delta}"),
            TraceEvent::HeapSample { at, bytes } => {
                format!("heap {} {}", at.canonical(), bytes)
            }
            TraceEvent::SnapshotMark {
                at,
                seq,
                records,
                entries,
            } => format!("snapshot {} seq{seq} r{records} e{entries}", at.canonical()),
            TraceEvent::HandoffMark {
                at,
                downstream_map,
                records,
                bytes,
            } => format!(
                "handoff {} ->map[{downstream_map}] r{records} b{bytes}",
                at.canonical()
            ),
            TraceEvent::SpeculationMark { at, event } => {
                format!("speculation {} {}", at.canonical(), event.code())
            }
            TraceEvent::DeadlineMark { at } => format!("deadline {}", at.canonical()),
            TraceEvent::CacheMark {
                at,
                hits,
                misses,
                bytes,
            } => format!("cache {} h{hits} m{misses} b{bytes}", at.canonical()),
            TraceEvent::StageDone { at } => format!("stage_done {}", at.canonical()),
        }
    }
}

/// One scoped event — the unit a [`TraceLog`](crate::TraceLog) stores.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Where the event happened.
    pub scope: Scope,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {}", self.scope.canonical(), self.event.canonical())
    }
}
