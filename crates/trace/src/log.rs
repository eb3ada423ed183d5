//! The ordered per-run event log.

use crate::event::{Scope, TraceEntry, TraceEvent};

/// The ordered event log of one run: what the dispatcher produces and
/// the query layer consumes.
///
/// Ordering contract: entries appear in a deterministic order — the
/// cluster simulator pushes them in virtual-time (event-loop) order,
/// which is reproducible by construction; the local executor's
/// dispatcher sorts finished-task batches by scope key. Reruns of the
/// same seed therefore produce byte-identical
/// [canonical serializations](TraceLog::to_canonical_string).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Scoped events in log order.
    pub entries: Vec<TraceEntry>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends one scoped event.
    pub fn push(&mut self, scope: Scope, event: TraceEvent) {
        self.entries.push(TraceEntry { scope, event });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries (tracing disabled, or nothing
    /// happened).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in log order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter()
    }

    /// Re-stamps a finished single-job log as one job of a longer
    /// session: every scope is attributed to `job` and `tenant`, and every
    /// wall instant moves `offset_secs` later — the job's start on the
    /// session clock — so logs of successive jobs share one time axis.
    /// The job service does this to the log each served job returns.
    pub fn restamp(&mut self, job: u32, tenant: u32, offset_secs: f64) {
        for e in &mut self.entries {
            e.scope.job = job;
            e.scope.tenant = tenant;
            e.event.shift_wall(offset_secs);
        }
    }

    /// The canonical text serialization: one line per entry, virtual
    /// instants exact, wall instants masked (`w*`). Two runs of the same
    /// seed serialize byte-identically; diffing two logs shows exactly
    /// which facts changed.
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 48 + 32);
        out.push_str("trace-log/v1\n");
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SpanKind, TaskKind, TraceInstant};
    use crate::Label;

    #[test]
    fn canonical_form_is_stable_and_masks_wall_time() {
        let mut log = TraceLog::new();
        log.push(
            Scope::task(0, TaskKind::Map, 3, 0, 2),
            TraceEvent::Span {
                kind: SpanKind::Map,
                start: TraceInstant::Virtual { micros: 1_500_000 },
                end: TraceInstant::Virtual { micros: 2_500_000 },
            },
        );
        log.push(
            Scope::job(0),
            TraceEvent::Counter {
                label: Label::Static("map.output.records"),
                delta: 42,
            },
        );
        log.push(
            Scope::task(0, TaskKind::Reduce, 1, 0, 0),
            TraceEvent::HeapSample {
                at: TraceInstant::Wall { secs: 0.123456 },
                bytes: 1024,
            },
        );
        let s = log.to_canonical_string();
        assert_eq!(
            s,
            "trace-log/v1\n\
             j0 map[3]a0 n2 | span map v1500000 v2500000\n\
             j0 job[0]a0 n- | counter map.output.records +42\n\
             j0 reduce[1]a0 n0 | heap w* 1024\n"
        );
        // A different wall reading serializes identically.
        let mut log2 = log.clone();
        log2.entries[2].event = TraceEvent::HeapSample {
            at: TraceInstant::Wall { secs: 9.9 },
            bytes: 1024,
        };
        assert_eq!(log2.to_canonical_string(), s);
    }

    #[test]
    fn restamp_moves_scopes_and_wall_instants_only() {
        let mut log = TraceLog::new();
        log.push(
            Scope::task(0, TaskKind::Map, 1, 0, crate::NO_NODE),
            TraceEvent::Span {
                kind: SpanKind::Map,
                start: TraceInstant::Wall { secs: 0.25 },
                end: TraceInstant::Wall { secs: 0.5 },
            },
        );
        log.push(
            Scope::job(0),
            TraceEvent::StageDone {
                at: TraceInstant::Virtual { micros: 7 },
            },
        );
        log.restamp(4, 2, 10.0);
        assert!(log.iter().all(|e| e.scope.job == 4 && e.scope.tenant == 2));
        assert_eq!(log.entries[0].scope.index, 1);
        assert_eq!(
            log.entries[0].event,
            TraceEvent::Span {
                kind: SpanKind::Map,
                start: TraceInstant::Wall { secs: 10.25 },
                end: TraceInstant::Wall { secs: 10.5 },
            }
        );
        assert_eq!(
            log.entries[1].event,
            TraceEvent::StageDone {
                at: TraceInstant::Virtual { micros: 7 },
            }
        );
    }
}
