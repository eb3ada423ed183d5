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
//!   without rewrites: either implement the one `adapt_input` method, or
//!   wrap the app in an [`InputAdapter`] closure.
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
use crate::traits::{Application, Emit, IdentityWriter};
use mr_trace::TraceLog;

/// An [`Application`] that can sit downstream of a job emitting
/// `(UpK, UpV)` output records.
///
/// [`adapt_input`](ChainableApplication::adapt_input) converts one
/// upstream output record into this job's map input record — the glue a
/// chain driver applies at the stage boundary, in upstream emission
/// order. Implement it directly on an app (a one-method change; the
/// paper's "no rewrite" claim for composition), or wrap any app in an
/// [`InputAdapter`] closure.
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

/// Wraps an [`Application`] with an input-adaptation closure so it can
/// consume another job's output without touching the app itself.
///
/// The wrapper delegates every `Application` method to the inner app; the
/// closure only shapes the chain boundary.
pub struct InputAdapter<A, F> {
    inner: A,
    adapt: F,
}

impl<A, F> InputAdapter<A, F> {
    /// Wraps `inner`, converting upstream records with `adapt`.
    pub fn new(inner: A, adapt: F) -> Self {
        InputAdapter { inner, adapt }
    }

    /// The wrapped application.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A, F> Application for InputAdapter<A, F>
where
    A: Application,
    F: Send + Sync + 'static,
{
    type InKey = A::InKey;
    type InValue = A::InValue;
    type MapKey = A::MapKey;
    type MapValue = A::MapValue;
    type OutKey = A::OutKey;
    type OutValue = A::OutValue;
    type State = A::State;
    type Shared = A::Shared;

    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        out: &mut dyn Emit<Self::MapKey, Self::MapValue>,
    ) {
        self.inner.map(key, value, out);
    }

    fn new_shared(&self) -> Self::Shared {
        self.inner.new_shared()
    }

    fn reduce_grouped(
        &self,
        key: &Self::MapKey,
        values: Vec<Self::MapValue>,
        shared: &mut Self::Shared,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    ) {
        self.inner.reduce_grouped(key, values, shared, out);
    }

    fn uses_keyed_state(&self) -> bool {
        self.inner.uses_keyed_state()
    }

    fn init(&self, key: &Self::MapKey) -> Self::State {
        self.inner.init(key)
    }

    fn absorb(
        &self,
        key: &Self::MapKey,
        state: &mut Self::State,
        value: Self::MapValue,
        shared: &mut Self::Shared,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    ) {
        self.inner.absorb(key, state, value, shared, out);
    }

    fn merge(&self, key: &Self::MapKey, a: Self::State, b: Self::State) -> Self::State {
        self.inner.merge(key, a, b)
    }

    fn finalize(
        &self,
        key: Self::MapKey,
        state: Self::State,
        shared: &mut Self::Shared,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    ) {
        self.inner.finalize(key, state, shared, out);
    }

    fn flush_shared(&self, shared: Self::Shared, out: &mut dyn Emit<Self::OutKey, Self::OutValue>) {
        self.inner.flush_shared(shared, out);
    }

    fn group_eq(&self, a: &Self::MapKey, b: &Self::MapKey) -> bool {
        self.inner.group_eq(a, b)
    }

    fn requires_sorted_output(&self) -> bool {
        self.inner.requires_sorted_output()
    }

    fn combine_enabled(&self) -> bool {
        self.inner.combine_enabled()
    }

    fn combiner_emit(
        &self,
        key: Self::MapKey,
        state: Self::State,
        out: &mut dyn Emit<Self::MapKey, Self::MapValue>,
    ) {
        self.inner.combiner_emit(key, state, out);
    }

    fn snapshot_emit(
        &self,
        key: &Self::MapKey,
        state: &Self::State,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
    ) {
        self.inner.snapshot_emit(key, state, out);
    }

    fn snapshot_error(
        &self,
        estimate: &[(Self::OutKey, Self::OutValue)],
        truth: &[(Self::OutKey, Self::OutValue)],
    ) -> f64 {
        self.inner.snapshot_error(estimate, truth)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The inner app's identity. The adapter itself shapes nothing the
    /// cache keys on: `adapt` only builds this job's input records,
    /// whose content the key already hashes, and the adapter's type name
    /// is in the key too.
    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool {
        self.inner.cache_identity(w)
    }
}

impl<A, UpK, UpV, F> ChainableApplication<UpK, UpV> for InputAdapter<A, F>
where
    A: Application,
    F: Fn(UpK, UpV) -> (A::InKey, A::InValue) + Send + Sync + 'static,
{
    fn adapt_input(&self, key: UpK, value: UpV) -> (Self::InKey, Self::InValue) {
        (self.adapt)(key, value)
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
    fn input_adapter_delegates_and_adapts() {
        let app = InputAdapter::new(WordCountApp, |key: u32, line: String| {
            (key as u64, line.to_uppercase())
        });
        assert_eq!(app.name(), "test-wordcount");
        assert!(app.uses_keyed_state());
        let (k, v) = app.adapt_input(7u32, "abc".to_string());
        assert_eq!(k, 7u64);
        assert_eq!(v, "ABC");
        // The inner map still runs on the adapted record.
        let mut out: Vec<(String, u64)> = Vec::new();
        app.map(&k, &v, &mut out);
        assert_eq!(out, vec![("ABC".to_string(), 1)]);
        // Incremental form delegates too.
        let mut state = app.init(&"w".to_string());
        let mut sink: Vec<(String, u64)> = Vec::new();
        app.absorb(
            &"w".to_string(),
            &mut state,
            2,
            &mut app.new_shared(),
            &mut sink,
        );
        assert_eq!(state, 2);
        assert_eq!(app.merge(&"w".to_string(), 3, 4), 7);
    }

    #[test]
    fn default_handoff_bytes_is_the_shallow_size() {
        let app = InputAdapter::new(WordCountApp, |key: u64, n: u64| (key, n.to_string()));
        let got = ChainableApplication::<u64, u64>::handoff_bytes(&app, &1, &2);
        assert_eq!(got, 16);
    }
}
