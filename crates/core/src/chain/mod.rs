//! Job chaining: barrier-less streaming between concatenated MapReduce
//! jobs.
//!
//! A single barrier-less job removes the shuffle barrier *inside* one
//! job. Real workloads are rarely one job: log analysis greps then
//! sorts, wordcount feeds a top-k selection, a genetic algorithm runs a
//! generation per job. The classic framework puts a hard barrier at
//! every job boundary — job N's reduce output is written to the DFS in
//! full before job N+1's map stage starts. This module removes that
//! barrier too: under [`HandoffMode::Streaming`](crate::HandoffMode)
//! each upstream reduce task runs the downstream map function on every
//! record it emits and ships the result into the downstream reducers'
//! shuffle channels — the stage boundary *is* the next stage's shuffle —
//! so stage N+1 map work overlaps stage N reduce work;
//! under [`HandoffMode::Barrier`](crate::HandoffMode) the boundary is
//! the Hadoop baseline (materialize, then start).
//!
//! The pieces:
//!
//! * [`ChainableApplication`] — how a downstream job consumes an
//!   upstream job's output records. Existing [`Application`]s compose
//!   without rewrites: implement the one `adapt_input` method.
//! * [`local`] — the chain driver for
//!   [`LocalRunner`](crate::local::LocalRunner): a two-job chain and an
//!   iterative driver for homogeneous K-stage chains.
//! * The cluster simulator's chain executor lives in `mr-cluster`
//!   (`ChainSimExecutor`), which schedules cross-job handoff edges as
//!   timeline events.
//!
//! Chains are configured by [`ChainSpec`](crate::ChainSpec) — one
//! [`JobConfig`](crate::JobConfig) per stage plus the
//! [`HandoffMode`](crate::HandoffMode) of every boundary.

pub mod local;

use crate::counters::Counters;
use crate::engine::DriverReport;
use crate::output::JobOutput;
use crate::traits::Application;
use mr_trace::TraceLog;

/// An [`Application`] that can sit downstream of a job emitting
/// `(UpK, UpV)` output records.
///
/// [`adapt_input`](ChainableApplication::adapt_input) converts one
/// upstream output record into this job's map input record — the glue a
/// chain driver applies at the stage boundary, in upstream emission
/// order. Implementing it on an app is a one-method change: the paper's
/// "no rewrite" claim for composition.
pub trait ChainableApplication<UpK, UpV>: Application {
    /// Converts one upstream output record into this job's input record.
    fn adapt_input(&self, key: UpK, value: UpV) -> (Self::InKey, Self::InValue);

    /// Modelled bytes of one upstream record crossing the handoff — what
    /// `chain.handoff.bytes` and [`StageStats::handoff_bytes`] count. The
    /// default is the shallow struct size; override when the payload is
    /// heap-heavy (strings, vectors).
    fn handoff_bytes(&self, key: &UpK, value: &UpV) -> usize {
        let _ = (key, value);
        std::mem::size_of::<UpK>() + std::mem::size_of::<UpV>()
    }
}

/// Observability for one chain stage, built by the chain driver from
/// the stage's own run whatever its [`TracePolicy`](crate::TracePolicy).
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Merged counters of the stage's own tasks (map + reduce), plus the
    /// `chain.handoff.*` charges of the boundary it fed. The final stage
    /// feeds none, so it carries exactly its job's counters.
    pub counters: Counters,
    /// Per-reducer store reports of the stage (empty for barrier-engine
    /// stages, which keep no partial store).
    pub reports: Vec<DriverReport>,
    /// Records this stage handed to the next stage (0 for the final
    /// stage).
    pub handoff_records: u64,
    /// Upstream partitions of this stage that handed at least one record
    /// downstream: one handoff batch per non-empty partition, under
    /// either handoff mode.
    pub handoff_batches: u64,
    /// Modelled bytes handed downstream.
    pub handoff_bytes: u64,
    /// Wall seconds (since the chain started) when the stage's first
    /// handoff record left a reducer — `None` when nothing was handed
    /// off, or under the barrier handoff (which hands off only after the
    /// stage completes).
    pub first_handoff_secs: Option<f64>,
    /// Wall seconds when the stage's last task finished.
    pub finished_secs: f64,
}

/// A finished chain run: the final stage's [`JobOutput`] plus per-stage
/// statistics. Intermediate stage output is *not* materialized — it was
/// handed to the next stage as a record stream — so only the last
/// stage's partitions survive.
pub struct ChainOutput<B: Application> {
    /// The final stage's output.
    pub output: JobOutput<B>,
    /// One entry per stage, in execution order.
    pub stages: Vec<StageStats>,
    /// The chain's unified trace: stage `j`'s events re-scoped to job
    /// `j`, followed by each boundary's handoff charges and stage-done
    /// marks. It carries a copy of what `stages` reports — stage `j`'s
    /// counter events sum to `stages[j].counters` — but `stages` is
    /// built without it, the same way whether or not it is exported.
    /// Empty unless *every* stage config enables
    /// [`TracePolicy`](crate::TracePolicy): the merged log would
    /// otherwise have holes. The final stage's `output.trace` is drained
    /// into this log rather than duplicated.
    pub trace: TraceLog,
}

impl<B: Application> ChainOutput<B> {
    /// Every stage's counters merged, chain handoff counters included.
    pub fn total_counters(&self) -> Counters {
        let mut all = Counters::new();
        for stage in &self.stages {
            all.merge(&stage.counters);
        }
        all
    }

    /// Total records handed across stage boundaries.
    pub fn handoff_records(&self) -> u64 {
        self.stages.iter().map(|s| s.handoff_records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::WordCountApp;

    #[test]
    fn default_handoff_bytes_is_the_shallow_size() {
        let got =
            ChainableApplication::<String, u64>::handoff_bytes(&WordCountApp, &"w".to_string(), &2);
        assert_eq!(got, std::mem::size_of::<String>() + 8);
    }
}
