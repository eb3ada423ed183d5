//! The recording side: per-task buffered recorders, the sink trait, and
//! the batch dispatcher that assembles an ordered [`TraceLog`].

use crate::event::{Scope, SpanKind, TraceEvent, TraceInstant};
use crate::label::Label;
use crate::log::TraceLog;
use std::sync::Mutex;

/// One task's worth of events, flushed as a unit when the task finishes
/// — the trace analogue of merging a task's local `Counters` into the
/// job total at task end.
#[derive(Debug, Clone)]
pub struct TraceBatch {
    /// The scope every event in the batch belongs to.
    pub scope: Scope,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

/// Anything that accepts finished batches. The workspace ships one
/// implementation, [`TraceDispatcher`]; tests and external tools can
/// plug their own (a streaming printer, a network forwarder).
pub trait TraceSink {
    /// Accepts one finished batch. Called from worker threads, so
    /// implementations must be internally synchronized.
    fn submit(&self, batch: TraceBatch);
}

/// A per-task buffered recorder: plain `Vec` pushes on the hot path, no
/// locks, no channels. When tracing is disabled every `record` call is a
/// branch on a bool and nothing else, so the data plane pays nothing.
#[derive(Debug)]
pub struct TraceRecorder {
    scope: Scope,
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl TraceRecorder {
    /// A recorder for one task scope.
    pub fn new(scope: Scope, enabled: bool) -> Self {
        TraceRecorder {
            scope,
            events: Vec::new(),
            enabled,
        }
    }

    /// Whether this recorder keeps events at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The scope this recorder writes under.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// Records one event (dropped when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Records a counter increment.
    pub fn counter(&mut self, label: impl Into<Label>, delta: u64) {
        if self.enabled && delta > 0 {
            self.events.push(TraceEvent::Counter {
                label: label.into(),
                delta,
            });
        }
    }

    /// Records a wall-clock span.
    pub fn span_wall(&mut self, kind: SpanKind, start_secs: f64, end_secs: f64) {
        self.record(TraceEvent::Span {
            kind,
            start: TraceInstant::Wall { secs: start_secs },
            end: TraceInstant::Wall { secs: end_secs },
        });
    }

    /// Records a wall-clock snapshot publication.
    pub fn snapshot_wall(&mut self, at_secs: f64, seq: u64, records: u64, entries: u64) {
        self.record(TraceEvent::SnapshotMark {
            at: TraceInstant::Wall { secs: at_secs },
            seq,
            records,
            entries,
        });
    }

    /// Records a wall-clock cache mark (a job's sealed result-cache
    /// accounting: hits, misses, and hit bytes handed out).
    pub fn cache_mark_wall(&mut self, at_secs: f64, hits: u64, misses: u64, bytes: u64) {
        self.record(TraceEvent::CacheMark {
            at: TraceInstant::Wall { secs: at_secs },
            hits,
            misses,
            bytes,
        });
    }

    /// Finishes the task: everything recorded, as one batch.
    pub fn into_batch(self) -> TraceBatch {
        TraceBatch {
            scope: self.scope,
            events: self.events,
        }
    }

    /// Finishes the task and hands the batch to `sink` (no-op when the
    /// recorder is disabled or empty).
    pub fn flush_into(self, sink: &dyn TraceSink) {
        if self.enabled && !self.events.is_empty() {
            sink.submit(self.into_batch());
        }
    }
}

/// Collects batches from concurrently finishing tasks and orders them
/// into a [`TraceLog`] whose byte layout never depends on thread
/// scheduling: batches are sorted by [`Scope::sort_key`] (ties broken by
/// event content), while events inside one batch keep their emission
/// order.
#[derive(Debug, Default)]
pub struct TraceDispatcher {
    batches: Mutex<Vec<TraceBatch>>,
    enabled: bool,
}

impl TraceDispatcher {
    /// A dispatcher; when `enabled` is false it discards every batch and
    /// [`finish`](TraceDispatcher::finish) yields an empty log.
    pub fn new(enabled: bool) -> Self {
        TraceDispatcher {
            batches: Mutex::new(Vec::new()),
            enabled,
        }
    }

    /// Whether submissions are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Orders the collected batches deterministically and produces the
    /// run's log, leaving the dispatcher empty.
    pub fn finish(&self) -> TraceLog {
        let mut batches =
            std::mem::take(&mut *self.batches.lock().unwrap_or_else(|e| e.into_inner()));
        batches.sort_by_cached_key(|b| {
            let detail: Vec<String> = b.events.iter().map(|e| e.canonical()).collect();
            (b.scope.sort_key(), detail)
        });
        let mut log = TraceLog::new();
        for b in batches {
            for e in b.events {
                log.push(b.scope, e);
            }
        }
        log
    }
}

impl TraceSink for TraceDispatcher {
    fn submit(&self, batch: TraceBatch) {
        if self.enabled && !batch.events.is_empty() {
            self.batches
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskKind;

    #[test]
    fn dispatcher_orders_batches_by_scope_regardless_of_submission_order() {
        let disp = TraceDispatcher::new(true);
        let mut late = TraceRecorder::new(Scope::task(0, TaskKind::Reduce, 2, 0, 1), true);
        late.counter("reduce.output.records", 5);
        let mut early = TraceRecorder::new(Scope::task(0, TaskKind::Map, 7, 0, 0), true);
        early.span_wall(SpanKind::Map, 0.0, 1.0);
        early.counter("map.output.records", 9);
        // Submit in "wrong" (scheduling-dependent) order.
        late.flush_into(&disp);
        early.flush_into(&disp);
        let log = disp.finish();
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries[0].scope.kind, TaskKind::Map);
        assert_eq!(log.entries[2].scope.kind, TaskKind::Reduce);
    }

    #[test]
    fn disabled_recorder_and_dispatcher_keep_nothing() {
        let disp = TraceDispatcher::new(false);
        let mut r = TraceRecorder::new(Scope::job(0), false);
        r.counter("x", 1);
        assert!(!r.is_enabled());
        r.flush_into(&disp);
        let mut keen = TraceRecorder::new(Scope::job(0), true);
        keen.counter("y", 1);
        keen.flush_into(&disp); // dispatcher itself disabled: dropped too
        assert!(disp.finish().is_empty());
    }

    #[test]
    fn zero_deltas_are_not_recorded() {
        let mut r = TraceRecorder::new(Scope::job(0), true);
        r.counter("x", 0);
        r.counter("x", 3);
        assert_eq!(r.into_batch().events.len(), 1);
    }
}
