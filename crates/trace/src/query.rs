//! Read-side analytics over a finished [`TraceLog`]: spans by kind,
//! counter totals, per-tenant breakdowns, progress series, and the
//! heap, snapshot, handoff, speculation and cache marks.

use crate::event::{Scope, SpanKind, SpecEvent, TaskKind, TraceEvent, TraceInstant, NO_TENANT};
use crate::label::Label;
use crate::log::TraceLog;
use std::collections::BTreeMap;

/// A span joined with its scope — the query layer's flat span view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Where the span happened.
    pub scope: Scope,
    /// Span category.
    pub kind: SpanKind,
    /// Interval start.
    pub start: TraceInstant,
    /// Interval end.
    pub end: TraceInstant,
}

impl SpanRec {
    /// Start in seconds since run start.
    pub fn start_secs(&self) -> f64 {
        self.start.as_secs_f64()
    }

    /// End in seconds since run start.
    pub fn end_secs(&self) -> f64 {
        self.end.as_secs_f64()
    }

    /// Span length in seconds.
    pub fn duration_secs(&self) -> f64 {
        (self.end_secs() - self.start_secs()).max(0.0)
    }
}

/// Mirrors `SimTime::from_secs_f64` so progress series sampled through
/// the query layer land on exactly the grid the simulator's native
/// timeline used.
fn secs_to_micros(s: f64) -> u64 {
    (s.max(0.0) * 1e6).round() as u64
}

/// Analytics over one run's [`TraceLog`]. Construction is free; every
/// method is a scan, which is fine at the log sizes one run produces
/// (thousands of entries).
#[derive(Debug, Clone, Copy)]
pub struct TraceQuery<'a> {
    log: &'a TraceLog,
}

impl<'a> TraceQuery<'a> {
    /// Wraps a finished log.
    pub fn new(log: &'a TraceLog) -> Self {
        TraceQuery { log }
    }

    /// The underlying log.
    pub fn log(&self) -> &'a TraceLog {
        self.log
    }

    fn span_iter(&self) -> impl Iterator<Item = SpanRec> + 'a {
        self.log.iter().filter_map(|e| match e.event {
            TraceEvent::Span { kind, start, end } => Some(SpanRec {
                scope: e.scope,
                kind,
                start,
                end,
            }),
            _ => None,
        })
    }

    /// Every span in the log, in log order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.span_iter().collect()
    }

    /// All spans of one kind, any job.
    pub fn spans_by_kind(&self, kind: SpanKind) -> Vec<SpanRec> {
        self.span_iter().filter(|s| s.kind == kind).collect()
    }

    /// Spans of one kind within one job (chain stage).
    pub fn job_spans_by_kind(&self, job: u32, kind: SpanKind) -> Vec<SpanRec> {
        self.span_iter()
            .filter(|s| s.scope.job == job && s.kind == kind)
            .collect()
    }

    /// All counters summed across every scope, name-sorted.
    pub fn counter_totals(&self) -> Vec<(Label, u64)> {
        self.counter_map(None).into_iter().collect()
    }

    /// All counters of one job summed across its scopes, name-sorted.
    pub fn job_counter_totals(&self, job: u32) -> Vec<(Label, u64)> {
        self.counter_map(Some(job)).into_iter().collect()
    }

    fn counter_map(&self, job: Option<u32>) -> BTreeMap<Label, u64> {
        let mut m = BTreeMap::new();
        for e in self.log.iter() {
            if job.is_some_and(|j| e.scope.job != j) {
                continue;
            }
            if let TraceEvent::Counter { label, delta } = &e.event {
                *m.entry(label.clone()).or_insert(0) += delta;
            }
        }
        m
    }

    /// Busy seconds per tenant across all tenant-attributed spans — the
    /// service layer's fairness measure (slot-seconds actually consumed
    /// by each tenant's tasks). Spans without tenant attribution are
    /// excluded.
    pub fn per_tenant_secs(&self) -> BTreeMap<u32, f64> {
        let mut m = BTreeMap::new();
        for s in self.span_iter().filter(|s| s.scope.tenant != NO_TENANT) {
            *m.entry(s.scope.tenant).or_insert(0.0) += s.duration_secs();
        }
        m
    }

    /// Every span attributed to one tenant, in log order.
    pub fn tenant_spans(&self, tenant: u32) -> Vec<SpanRec> {
        self.span_iter()
            .filter(|s| s.scope.tenant == tenant)
            .collect()
    }

    /// The tenants that appear anywhere in the log, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self
            .log
            .iter()
            .map(|e| e.scope.tenant)
            .filter(|&t| t != NO_TENANT)
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Number of spans of `kind` in `job` active at `t_secs` — one point
    /// of a Figure 4 progress curve. Matches the legacy timeline's
    /// half-open `[start, end)` semantics exactly (virtual instants are
    /// compared in integer microseconds).
    pub fn active_at(&self, job: u32, kind: SpanKind, t_secs: f64) -> usize {
        let t_us = secs_to_micros(t_secs);
        self.span_iter()
            .filter(|s| s.scope.job == job && s.kind == kind)
            .filter(|s| match (s.start, s.end) {
                (TraceInstant::Virtual { micros: a }, TraceInstant::Virtual { micros: b }) => {
                    a <= t_us && t_us < b
                }
                _ => s.start_secs() <= t_secs && t_secs < s.end_secs(),
            })
            .count()
    }

    /// The full progress series for `kind` in `job`, sampled every
    /// `step_secs` from zero through `horizon_secs`.
    pub fn series(
        &self,
        job: u32,
        kind: SpanKind,
        step_secs: f64,
        horizon_secs: f64,
    ) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        let mut t = 0.0f64;
        while t <= horizon_secs + step_secs {
            out.push((t, self.active_at(job, kind, t)));
            t += step_secs;
        }
        out
    }

    /// Earliest start and latest end of `kind` spans in `job`, in
    /// seconds, if any exist — the stage's window on a Figure 4 chart.
    pub fn kind_window(&self, job: u32, kind: SpanKind) -> Option<(f64, f64)> {
        self.span_iter()
            .filter(|s| s.scope.job == job && s.kind == kind)
            .map(|s| (s.start_secs(), s.end_secs()))
            .reduce(|(first, last), (start, end)| (first.min(start), last.max(end)))
    }

    /// Latest span end across the whole log, in seconds (run completion
    /// from the record; 0.0 for an empty log).
    pub fn last_end_secs(&self) -> f64 {
        self.span_iter()
            .map(|s| s.end_secs())
            .fold(0.0f64, f64::max)
    }

    /// Heap series of one reducer in one job: `(seconds, bytes)`.
    pub fn heap_series(&self, job: u32, reducer: u32) -> Vec<(f64, u64)> {
        self.log
            .iter()
            .filter(|e| {
                e.scope.job == job && e.scope.kind == TaskKind::Reduce && e.scope.index == reducer
            })
            .filter_map(|e| match e.event {
                TraceEvent::HeapSample { at, bytes } => Some((at.as_secs_f64(), bytes)),
                _ => None,
            })
            .collect()
    }

    /// All heap samples of one job: `(reducer, seconds, bytes)`.
    pub fn heap_samples(&self, job: u32) -> Vec<(u32, f64, u64)> {
        self.log
            .iter()
            .filter(|e| e.scope.job == job)
            .filter_map(|e| match e.event {
                TraceEvent::HeapSample { at, bytes } => {
                    Some((e.scope.index, at.as_secs_f64(), bytes))
                }
                _ => None,
            })
            .collect()
    }

    /// Number of snapshot publications in one job.
    pub fn snapshot_count(&self, job: u32) -> usize {
        self.log
            .iter()
            .filter(|e| e.scope.job == job && matches!(e.event, TraceEvent::SnapshotMark { .. }))
            .count()
    }

    /// First handoff departure instant of one job, in seconds.
    pub fn first_handoff_secs(&self, job: u32) -> Option<f64> {
        self.log
            .iter()
            .filter(|e| e.scope.job == job)
            .find_map(|e| match e.event {
                TraceEvent::HandoffMark { at, .. } => Some(at.as_secs_f64()),
                _ => None,
            })
    }

    /// Number of speculation events of one flavour across the run.
    pub fn speculation_count(&self, event: SpecEvent) -> usize {
        self.log
            .iter()
            .filter(
                |e| matches!(e.event, TraceEvent::SpeculationMark { event: ev, .. } if ev == event),
            )
            .count()
    }

    /// Cache marks attributed to one tenant: `(job, hits, misses, hit
    /// bytes)` — the per-tenant view of shared-cache behaviour under
    /// the job service.
    pub fn tenant_cache_marks(&self, tenant: u32) -> Vec<(u32, u64, u64, u64)> {
        self.log
            .iter()
            .filter(|e| e.scope.tenant == tenant)
            .filter_map(|e| match e.event {
                TraceEvent::CacheMark {
                    hits,
                    misses,
                    bytes,
                    ..
                } => Some((e.scope.job, hits, misses, bytes)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TraceDispatcher, TraceRecorder, TraceSink};

    fn vt(s: f64) -> TraceInstant {
        TraceInstant::Virtual {
            micros: secs_to_micros(s),
        }
    }

    fn span(job: u32, kind: SpanKind, task: u32, node: u32, a: f64, b: f64) -> (Scope, TraceEvent) {
        let tk = match kind {
            SpanKind::Map => TaskKind::Map,
            _ => TaskKind::Reduce,
        };
        (
            Scope::task(job, tk, task, 0, node),
            TraceEvent::Span {
                kind,
                start: vt(a),
                end: vt(b),
            },
        )
    }

    fn demo_log() -> TraceLog {
        let mut log = TraceLog::new();
        for (sc, ev) in [
            span(0, SpanKind::Map, 0, 0, 0.0, 10.0),
            span(0, SpanKind::Map, 1, 1, 0.0, 14.0),
            span(0, SpanKind::ShuffleReduce, 0, 2, 2.0, 20.0),
            span(0, SpanKind::Output, 0, 2, 20.0, 22.0),
            span(1, SpanKind::Map, 0, 3, 15.0, 24.0),
        ] {
            log.push(sc, ev);
        }
        log.push(
            Scope::job(0),
            TraceEvent::Counter {
                label: Label::Static("map.output.records"),
                delta: 100,
            },
        );
        log.push(
            Scope::task(0, TaskKind::Reduce, 0, 0, 2),
            TraceEvent::Counter {
                label: Label::Static("map.output.records"),
                delta: 20,
            },
        );
        log
    }

    #[test]
    fn spans_counters_and_series() {
        let log = demo_log();
        let q = TraceQuery::new(&log);
        assert_eq!(q.spans_by_kind(SpanKind::Map).len(), 3);
        assert_eq!(q.job_spans_by_kind(0, SpanKind::Map).len(), 2);
        assert_eq!(
            q.counter_totals(),
            vec![(Label::Static("map.output.records"), 120)]
        );
        assert_eq!(q.job_counter_totals(1), vec![]);
        assert_eq!(q.active_at(0, SpanKind::Map, 5.0), 2);
        assert_eq!(q.active_at(0, SpanKind::Map, 14.0), 0, "end exclusive");
        assert_eq!(q.last_end_secs(), 24.0);
        assert_eq!(q.kind_window(0, SpanKind::Map), Some((0.0, 14.0)));
        assert_eq!(q.kind_window(1, SpanKind::Map), Some((15.0, 24.0)));
        assert_eq!(q.kind_window(1, SpanKind::Output), None);
        let s = q.series(0, SpanKind::Map, 5.0, 22.0);
        assert_eq!(s[0], (0.0, 2));
        assert_eq!(s[1], (5.0, 2));
        assert_eq!(s[3].1, 0);
    }

    #[test]
    fn marks_round_trip() {
        let mut log = TraceLog::new();
        let r0 = Scope::task(0, TaskKind::Reduce, 0, 0, 1);
        log.push(
            r0,
            TraceEvent::HeapSample {
                at: vt(1.0),
                bytes: 64,
            },
        );
        log.push(
            r0,
            TraceEvent::SnapshotMark {
                at: vt(2.0),
                seq: 0,
                records: 9,
                entries: 9,
            },
        );
        log.push(
            r0,
            TraceEvent::HandoffMark {
                at: vt(3.0),
                downstream_map: 4,
                records: 7,
                bytes: 70,
            },
        );
        log.push(
            Scope::task(0, TaskKind::Map, 2, 1, 0),
            TraceEvent::SpeculationMark {
                at: vt(4.0),
                event: SpecEvent::Launched,
            },
        );
        log.push(Scope::job(0), TraceEvent::DeadlineMark { at: vt(5.0) });
        log.push(Scope::job(0), TraceEvent::StageDone { at: vt(6.0) });
        log.push(
            Scope::job(0).with_tenant(2),
            TraceEvent::CacheMark {
                at: vt(7.0),
                hits: 3,
                misses: 1,
                bytes: 640,
            },
        );
        let q = TraceQuery::new(&log);
        assert_eq!(q.heap_series(0, 0), vec![(1.0, 64)]);
        assert_eq!(q.heap_samples(0), vec![(0, 1.0, 64)]);
        assert_eq!(q.snapshot_count(0), 1);
        assert_eq!(q.first_handoff_secs(0), Some(3.0));
        assert_eq!(q.first_handoff_secs(1), None);
        assert_eq!(q.speculation_count(SpecEvent::Launched), 1);
        assert_eq!(q.speculation_count(SpecEvent::Won), 0);
        assert_eq!(q.tenant_cache_marks(2), vec![(0, 3, 1, 640)]);
        assert_eq!(q.tenant_cache_marks(9), vec![]);
    }

    /// Tenant-attributed spans break down by tenant; unattributed spans
    /// stay out of the fairness measure, and the tenant prefix shows up
    /// in the canonical stream only when set.
    #[test]
    fn tenant_breakdowns() {
        let mut log = TraceLog::new();
        let (sc, ev) = span(0, SpanKind::Map, 0, 0, 0.0, 10.0);
        log.push(sc.with_tenant(3), ev);
        let (sc, ev) = span(1, SpanKind::Map, 0, 1, 0.0, 4.0);
        log.push(sc.with_tenant(3), ev);
        let (sc, ev) = span(2, SpanKind::ShuffleReduce, 0, 1, 0.0, 6.0);
        log.push(sc.with_tenant(1), ev);
        let (sc, ev) = span(3, SpanKind::Map, 0, 0, 0.0, 99.0);
        log.push(sc, ev); // no tenant
        log.push(
            Scope::job(2).with_tenant(1),
            TraceEvent::Counter {
                label: Label::Static("map.output.records"),
                delta: 5,
            },
        );
        let q = TraceQuery::new(&log);
        let shares = q.per_tenant_secs();
        assert_eq!(shares.len(), 2);
        assert_eq!(shares[&3], 14.0);
        assert_eq!(shares[&1], 6.0);
        assert_eq!(q.tenant_spans(3).len(), 2);
        assert_eq!(q.tenant_spans(7), vec![]);
        assert_eq!(q.tenants(), vec![1, 3]);
        let canon = log.to_canonical_string();
        assert!(canon.contains("t3 j0 map[0]a0 n0"));
        assert!(
            canon.contains("\nj3 map[0]a0 n0"),
            "unset tenant prints no prefix"
        );
    }

    /// A dynamic (runtime-built) counter label survives the full
    /// recorder → dispatcher → query round trip and is queryable by
    /// string content, interchangeably with static labels.
    #[test]
    fn dynamic_label_round_trips_through_query_layer() {
        let disp = TraceDispatcher::new(true);
        let mut rec = TraceRecorder::new(Scope::task(0, TaskKind::Reduce, 0, 0, 0), true);
        let tenant = format!("tenant.{}.records", 7); // not 'static
        rec.counter(tenant.clone(), 11);
        rec.counter("tenant.7.records", 4); // static spelling of the same key
        disp.submit(rec.into_batch());
        let log = disp.finish();
        let q = TraceQuery::new(&log);
        let totals = q.counter_totals();
        assert_eq!(totals.len(), 1, "static and owned labels merged by content");
        assert_eq!(totals[0].0.as_str(), "tenant.7.records");
        assert_eq!(totals[0].1, 15);
        // And the canonical serialization spells the label out.
        assert!(log.to_canonical_string().contains("tenant.7.records +11"));
    }
}
