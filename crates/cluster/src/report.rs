//! Results of a simulated run.

use mr_core::{Application, JobOutput, TraceLog};
use mr_sim::SimTime;

/// How a simulated job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion at the given instant.
    Completed {
        /// Job completion time.
        at: SimTime,
    },
    /// Died (e.g. reducer OOM under the in-memory policy), Figure 5(a).
    Failed {
        /// Time of death.
        at: SimTime,
        /// Human-readable cause.
        reason: String,
    },
    /// A [`DeadlinePolicy`](mr_core::DeadlinePolicy) fired before the job
    /// finished; the output carries the latest per-reducer snapshot
    /// estimates instead of exact results. Deterministic: the deadline is
    /// a fixed virtual-time tick, so the same run always answers with the
    /// same snapshot stream prefix.
    Approximate {
        /// The deadline instant.
        at: SimTime,
    },
}

impl Outcome {
    /// Completion time, if the job completed (exactly).
    pub fn completion_secs(&self) -> Option<f64> {
        match self {
            Outcome::Completed { at } => Some(at.as_secs_f64()),
            Outcome::Failed { .. } | Outcome::Approximate { .. } => None,
        }
    }

    /// Whether the job completed exactly.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// Whether a deadline cut the job short with a snapshot-based answer.
    pub fn is_approximate(&self) -> bool {
        matches!(self, Outcome::Approximate { .. })
    }
}

/// Everything a simulated run reports.
pub struct SimReport<A: Application> {
    /// Completion or failure.
    pub outcome: Outcome,
    /// The job's output. Present on completion (exact results) and on
    /// deadline expiry (each partition holds the latest published
    /// snapshot estimate); absent on failure.
    pub output: Option<JobOutput<A>>,
    /// The run's full structured trace — every span, counter delta, and
    /// mark the simulator recorded, in deterministic order. Query it with
    /// [`mr_core::TraceQuery`]. Empty when the effective
    /// [`TracePolicy`](mr_core::TracePolicy) is `Disabled`.
    pub trace: TraceLog,
    /// First map-task completion — the start of mapper slack (§3.2).
    pub first_map_done: SimTime,
    /// Last map-task completion.
    pub last_map_done: SimTime,
    /// When the last reducer finished fetching map output.
    pub shuffle_done: SimTime,
    /// Nominal bytes moved through the shuffle.
    pub shuffle_bytes: u64,
    /// Map tasks executed (including re-executions after faults).
    pub map_tasks_run: usize,
    /// Reduce tasks executed (including re-executions).
    pub reduce_tasks_run: usize,
    /// Partial-result snapshots published during the run (also recorded
    /// individually as `SnapshotMark` events in `trace`; estimate
    /// contents ride in `output.snapshots`).
    pub snapshots_taken: usize,
}

impl<A: Application> SimReport<A> {
    /// Mapper slack as defined in §3.2: "the time gap between when the
    /// first mappers complete and when the shuffle stage completes".
    pub fn mapper_slack_secs(&self) -> f64 {
        (self.shuffle_done.as_secs_f64() - self.first_map_done.as_secs_f64()).max(0.0)
    }

    /// Convenience: completion time in seconds, panicking on failed runs
    /// (bench harnesses use this after checking the outcome).
    pub fn completion_secs(&self) -> f64 {
        self.outcome
            .completion_secs()
            .expect("job did not complete")
    }
}
