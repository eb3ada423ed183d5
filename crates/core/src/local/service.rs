//! Multi-tenant job service: one ledger and N slot threads.
//!
//! [`serve`] stands up a [`JobService`]: a bounded admission queue in
//! front of `pool_workers` scoped **slot threads**. The service is a
//! *scheduler*, not an engine: a slot thread picks the next job under
//! the ledger lock — waiting on the one condvar beside that lock while
//! nothing is eligible — and then runs all of it through the executor's
//! own entry point, [`LocalRunner::run_cached`] when the service owns a
//! cache, [`LocalRunner::run_with_partitioner`] otherwise, on a
//! one-worker pool, which runs on its caller and so costs no thread.
//! Each admitted job occupies one slot thread from start to finish, and
//! many tenants multiplex on a fixed thread count with no per-job thread
//! setup or teardown — the long-lived follow-on to
//! `LocalRunner::run_many`.
//!
//! **Admission** is synchronous and typed: a submission past the global
//! queue bound or the tenant's queued-job quota returns
//! [`SubmitError::Rejected`] immediately (never blocks, never panics a
//! worker); a nonsense per-job config returns the usual
//! [`MrError::InvalidConfig`]. **Scheduling** is deficit-style weighted
//! fair: when a slot frees up it serves, among the tenants with queued
//! work and spare concurrent-slot quota, first the highest priority
//! class, then the tenant whose served-jobs/weight ratio is lowest —
//! every eligible tenant's ratio grows only while it is being served, so
//! no tenant starves and long-run slot shares converge to the weights.
//! Both rules live in one type, [`FairShare`], which the cluster
//! simulator's service charges per *task* where this one charges per
//! *job*. **Isolation**: a job's failure (OOM, app panic) is its own
//! [`JobHandle`] result; the slot threads and every other tenant's jobs
//! are untouched.
//!
//! Wake-ups cannot be lost: a slot thread decides to wait in the same
//! critical section that found nothing eligible, and everything that can
//! make a job eligible or end the session — a submission, a finished job
//! freeing its tenant's quota, the close — changes the ledger under that
//! lock and then notifies the condvar.
//!
//! Every trace scope a service job records is stamped with its job id
//! and tenant, and its wall instants are moved onto the session's clock
//! ([`TraceLog::restamp`](mr_trace::TraceLog::restamp)), so
//! `TraceQuery::per_tenant_secs` can break the service's activity down
//! by tenant. Outputs, counters and canonical traces are those of
//! running the same job alone on one worker, because that is what a
//! slot thread does; jobs share nothing but the slot scheduler and, when
//! enabled, the content-addressed cache.

use super::cache::SharedCache;
use super::pool::panic_message;
use super::{InputSplit, LocalRunner, PoolStats};
use crate::config::{JobConfig, ServiceConfig, TenantSpec};
use crate::error::{MrError, MrResult};
use crate::output::JobOutput;
use crate::partition::Partitioner;
use crate::size::SizeEstimate;
use crate::traits::Application;
use mr_cache::StableHash;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why a submission was turned away at admission. Every variant is a
/// transient overload signal: the submission itself was well-formed and
/// may succeed later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant index is not in the service's tenant table.
    UnknownTenant {
        /// The index the submission named.
        tenant: usize,
        /// How many tenants the service has.
        tenants: usize,
    },
    /// The global admission queue is at its bound.
    QueueFull {
        /// The configured bound.
        cap: usize,
    },
    /// The tenant is at its queued-jobs quota.
    TenantQueueFull {
        /// The quota-exhausted tenant.
        tenant: usize,
        /// The tenant's quota.
        cap: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (service has {tenants})")
            }
            RejectReason::QueueFull { cap } => {
                write!(f, "admission queue full ({cap} jobs waiting)")
            }
            RejectReason::TenantQueueFull { tenant, cap } => {
                write!(f, "tenant {tenant} at its queued-jobs quota ({cap})")
            }
        }
    }
}

/// The service's scheduling policy and the ledger it reads: admission
/// bounds, per-tenant quotas and the deficit-style weighted-fair pick.
/// What a *unit* is belongs to the caller — [`serve`] starts one per job,
/// the cluster simulator's service one per task — so the real service
/// and the simulated one schedule by literally the same rule.
#[derive(Debug, Clone)]
pub struct FairShare {
    tenants: Vec<TenantSpec>,
    queue_cap: usize,
    /// Units started per tenant — the deficit the pick weighs against
    /// the weights.
    served: Vec<u64>,
    /// Units currently holding a slot, per tenant.
    running: Vec<usize>,
    /// Admitted jobs that have not started a unit yet, per tenant.
    queued: Vec<usize>,
    queued_total: usize,
}

impl FairShare {
    /// An empty ledger over `tenants` with a global bound of `queue_cap`
    /// waiting jobs; [`MrError::InvalidConfig`] for a table no schedule
    /// can honour (no tenant, a zero-length queue, a zero weight, slot
    /// cap or queue quota).
    pub fn new(tenants: &[TenantSpec], queue_cap: usize) -> MrResult<Self> {
        fn bad<T>(what: impl Into<String>) -> MrResult<T> {
            Err(MrError::InvalidConfig(what.into()))
        }
        if tenants.is_empty() {
            return bad("a service needs at least one tenant");
        }
        if queue_cap == 0 {
            return bad("queue_cap must be >= 1 (a zero-length queue rejects every submission)");
        }
        for (i, t) in tenants.iter().enumerate() {
            if t.weight == 0 {
                return bad(format!(
                    "tenant {i} weight must be >= 1 (weight 0 would starve the tenant by \
                     construction)"
                ));
            }
            if t.max_concurrent_slots == 0 {
                return bad(format!(
                    "tenant {i} max_concurrent_slots must be >= 1 (a zero-slot tenant can \
                     queue jobs it can never run)"
                ));
            }
            if t.max_queued_jobs == 0 {
                return bad(format!(
                    "tenant {i} max_queued_jobs must be >= 1 (the tenant could never submit)"
                ));
            }
        }
        Ok(FairShare {
            tenants: tenants.to_vec(),
            queue_cap,
            served: vec![0; tenants.len()],
            running: vec![0; tenants.len()],
            queued: vec![0; tenants.len()],
            queued_total: 0,
        })
    }

    /// Admits one job of `tenant` into the waiting count, or says which
    /// bound turned it away.
    pub fn admit(&mut self, tenant: usize) -> Result<(), RejectReason> {
        let Some(spec) = self.tenants.get(tenant) else {
            return Err(RejectReason::UnknownTenant {
                tenant,
                tenants: self.tenants.len(),
            });
        };
        if self.queued_total >= self.queue_cap {
            return Err(RejectReason::QueueFull {
                cap: self.queue_cap,
            });
        }
        if self.queued[tenant] >= spec.max_queued_jobs {
            return Err(RejectReason::TenantQueueFull {
                tenant,
                cap: spec.max_queued_jobs,
            });
        }
        self.queued[tenant] += 1;
        self.queued_total += 1;
        Ok(())
    }

    /// The tenant to serve next: among tenants with spare
    /// concurrent-slot quota for which `has_work` holds, the highest
    /// priority class wins; within it, the tenant with the lowest
    /// served/weight ratio (compared exactly, by cross-multiplication).
    /// Ties go to the lower tenant index, so the pick is deterministic
    /// given the ledger. Charges nothing: [`start`](FairShare::start)
    /// does.
    pub fn pick(&self, mut has_work: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (t, spec) in self.tenants.iter().enumerate() {
            if self.running[t] >= spec.max_concurrent_slots || !has_work(t) {
                continue;
            }
            let Some(b) = best else {
                best = Some(t);
                continue;
            };
            let over = &self.tenants[b];
            let fairer = (self.served[t] as u128) * (over.weight as u128)
                < (self.served[b] as u128) * (spec.weight as u128);
            if spec.priority > over.priority || (spec.priority == over.priority && fairer) {
                best = Some(t);
            }
        }
        best
    }

    /// Charges `tenant` one started unit holding one slot;
    /// `first_unit_of_job` also moves the job out of the waiting count.
    pub fn start(&mut self, tenant: usize, first_unit_of_job: bool) {
        self.served[tenant] += 1;
        self.running[tenant] += 1;
        if first_unit_of_job {
            self.queued[tenant] -= 1;
            self.queued_total -= 1;
        }
    }

    /// Gives back the slot one of `tenant`'s units held.
    pub fn release(&mut self, tenant: usize) {
        self.running[tenant] -= 1;
    }

    /// `tenant`'s preemption priority class.
    pub fn priority(&self, tenant: usize) -> u32 {
        self.tenants[tenant].priority
    }
}

/// Why [`JobService::submit`] did not admit a job.
#[derive(Debug)]
pub enum SubmitError {
    /// Graceful overload rejection — the backpressure signal under
    /// quota exhaustion or a full admission queue.
    Rejected {
        /// What was exhausted.
        reason: RejectReason,
    },
    /// The job's own [`JobConfig`] failed validation
    /// ([`MrError::InvalidConfig`]); resubmitting unchanged cannot
    /// succeed.
    InvalidConfig(MrError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { reason } => write!(f, "submission rejected: {reason}"),
            SubmitError::InvalidConfig(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What one finished [`serve`] session reports.
#[derive(Debug, Clone, Copy)]
pub struct ServiceReport {
    /// The long-lived pool's thread evidence.
    pub pool: PoolStats,
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Jobs driven to a result (success or per-job failure).
    pub completed: u64,
}

/// One admitted job's result slot; the runner publishes, the holder of
/// the [`JobHandle`] waits.
struct JobCell<A: Application> {
    slot: Mutex<Option<MrResult<JobOutput<A>>>>,
    done: Condvar,
}

/// The caller's side of one admitted job.
pub struct JobHandle<A: Application> {
    /// Service-wide job id, in admission order.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: usize,
    cell: Arc<JobCell<A>>,
}

impl<A: Application> JobHandle<A> {
    /// Blocks until the job finishes and returns its result. Jobs fail
    /// independently: an `Err` here says nothing about other jobs.
    pub fn wait(self) -> MrResult<JobOutput<A>> {
        let mut slot = self.cell.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cell.done.wait(slot).unwrap();
        }
    }

    /// Whether the job already has a result (non-blocking).
    pub fn is_done(&self) -> bool {
        self.cell.slot.lock().unwrap().is_some()
    }
}

/// One job waiting in (or dispatched from) the admission queue.
struct Queued<A: Application> {
    id: u64,
    tenant: usize,
    cfg: JobConfig,
    splits: Vec<InputSplit<A>>,
    cell: Arc<JobCell<A>>,
}

/// The admission queue beside its fair-share ledger, one lock.
struct Core<A: Application> {
    /// Charged one unit per job.
    fair: FairShare,
    /// Per-tenant FIFO of admitted, not-yet-running jobs.
    queues: Vec<VecDeque<Queued<A>>>,
    closed: bool,
    next_id: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
}

/// State shared by the service handle and every slot thread.
struct Shared<A: Application> {
    core: Mutex<Core<A>>,
    /// Slot threads with nothing eligible wait here; see the module docs
    /// for who notifies.
    work: Condvar,
    started: Instant,
    /// The service-owned result cache every tenant's jobs share, when
    /// [`ServiceConfig::cache`] enables one. Content-addressed keys are
    /// the isolation story: a tenant can only hit artifacts it would
    /// have computed bit-for-bit itself, so sharing leaks nothing.
    cache: Option<SharedCache>,
}

impl<A: Application> Shared<A> {
    /// Blocks until the fair pick yields a job and takes it; `None` once
    /// the service closed and the queue drained.
    fn next_job(&self) -> Option<Queued<A>> {
        let mut core = self.core.lock().unwrap();
        loop {
            let Core { fair, queues, .. } = &mut *core;
            if let Some(t) = fair.pick(|t| !queues[t].is_empty()) {
                fair.start(t, true);
                return queues[t].pop_front();
            }
            if core.closed && core.queues.iter().all(VecDeque::is_empty) {
                return None;
            }
            core = self.work.wait(core).unwrap();
        }
    }

    /// Publishes a job's result and releases its slot. Every waiting
    /// slot thread is woken: the tenant's freed quota may have made a
    /// queued job eligible, and once the service closed, the result that
    /// empties the queue is the only signal that lets the waiters exit.
    fn finish(&self, tenant: usize, cell: &JobCell<A>, result: MrResult<JobOutput<A>>) {
        *cell.slot.lock().unwrap() = Some(result);
        cell.done.notify_all();
        let mut core = self.core.lock().unwrap();
        core.fair.release(tenant);
        core.completed += 1;
        drop(core);
        self.work.notify_all();
    }

    /// Ends admission-driven waiting: slot threads drain what is queued
    /// and exit.
    fn close(&self) {
        self.core.lock().unwrap().closed = true;
        self.work.notify_all();
    }
}

/// The submission interface handed to [`serve`]'s body closure.
pub struct JobService<A: Application> {
    shared: Arc<Shared<A>>,
}

impl<A: Application> JobService<A> {
    /// Submits one job for `tenant`: `splits` of input under the per-job
    /// `cfg`. Every [`JobConfig`] field means what it means under
    /// [`LocalRunner::run`] — engine, reducers, heap policy, combiner,
    /// shuffle batch budget, snapshots, trace, cache opt-in — except
    /// `cfg.pool_workers`, which is overridden to the one worker of the
    /// slot the job runs on; parallelism comes from the service's own
    /// slots. Returns immediately: a [`JobHandle`] on admission, a
    /// typed [`SubmitError`] otherwise. Never blocks.
    pub fn submit(
        &self,
        tenant: usize,
        splits: Vec<InputSplit<A>>,
        cfg: &JobConfig,
    ) -> Result<JobHandle<A>, SubmitError> {
        cfg.validate().map_err(SubmitError::InvalidConfig)?;
        let mut core = self.shared.core.lock().unwrap();
        if let Err(reason) = core.fair.admit(tenant) {
            // An unknown tenant is not counted: there is no tenant to
            // charge the rejection to.
            if !matches!(reason, RejectReason::UnknownTenant { .. }) {
                core.rejected += 1;
            }
            return Err(SubmitError::Rejected { reason });
        }
        let id = core.next_id;
        core.next_id += 1;
        core.admitted += 1;
        let cell = Arc::new(JobCell {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        core.queues[tenant].push_back(Queued {
            id,
            tenant,
            cfg: cfg.clone().pool_workers(1),
            splits,
            cell: Arc::clone(&cell),
        });
        drop(core);
        // One new job is work for one slot.
        self.shared.work.notify_one();
        Ok(JobHandle { id, tenant, cell })
    }
}

/// Runs a multi-tenant job service for the duration of `body`:
/// `cfg.pool_workers` long-lived slot threads (= job slots), a bounded
/// admission queue, and deficit-weighted-fair scheduling across
/// `cfg.tenants`. Jobs still queued when `body` returns are drained
/// before `serve` returns — admission was a promise.
///
/// Returns `body`'s result plus the session's [`ServiceReport`];
/// [`MrError::InvalidConfig`] if the service config is nonsense (zero
/// weight, zero-slot tenant, zero queue), before any thread starts.
pub fn serve<A, P, R, F>(
    app: &A,
    partitioner: &P,
    cfg: &ServiceConfig,
    body: F,
) -> MrResult<(R, ServiceReport)>
where
    A: Application,
    P: Partitioner<A::MapKey> + Sync,
    F: FnOnce(&JobService<A>) -> R,
    A::InKey: StableHash,
    A::InValue: StableHash,
    A::OutKey: Sync + SizeEstimate,
    A::OutValue: Sync + SizeEstimate,
{
    cfg.validate()?;
    let shared = Arc::new(Shared {
        core: Mutex::new(Core {
            fair: FairShare::new(&cfg.tenants, cfg.queue_cap)?,
            queues: cfg.tenants.iter().map(|_| VecDeque::new()).collect(),
            closed: false,
            next_id: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
        }),
        work: Condvar::new(),
        started: Instant::now(),
        cache: SharedCache::from_budget(&cfg.cache),
    });
    // One persistent slot of the service: takes the fair pick's next
    // job, runs all of it on this thread, publishes the result, repeats.
    let slot = || {
        while let Some(Queued {
            id,
            tenant,
            cfg,
            splits,
            cell,
        }) = shared.next_job()
        {
            // An app panic fails only this job.
            let result = catch_unwind(AssertUnwindSafe(|| {
                let runner = LocalRunner::new(1);
                let offset_secs = shared.started.elapsed().as_secs_f64();
                let mut out = match &shared.cache {
                    Some(cache) => runner.run_cached(app, splits, &cfg, partitioner, cache),
                    None => runner.run_with_partitioner(app, splits, &cfg, partitioner),
                }?;
                // The log comes back scoped to job 0 on the job's own clock.
                out.trace.restamp(id as u32, tenant as u32, offset_secs);
                Ok(out)
            }))
            .unwrap_or_else(|payload| Err(MrError::WorkerPanic(panic_message(payload.as_ref()))));
            shared.finish(tenant, &cell, result);
        }
    };
    let out = std::thread::scope(|scope| {
        for _ in 0..cfg.pool_workers {
            scope.spawn(slot);
        }
        let svc = JobService {
            shared: Arc::clone(&shared),
        };
        // A panicking body must still close the service — skipping the
        // close would leave the slot threads waiting forever (a hang
        // where the caller expects an unwind). Capture, close, re-raise
        // below once the scope has joined them.
        let out = catch_unwind(AssertUnwindSafe(|| body(&svc)));
        shared.close();
        out
    });
    let out = out.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let core = shared.core.lock().unwrap();
    Ok((
        out,
        ServiceReport {
            pool: PoolStats {
                workers: cfg.pool_workers,
                peak_threads: cfg.pool_workers,
            },
            admitted: core.admitted,
            rejected: core.rejected,
            completed: core.completed,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheBudget, CombinerPolicy, Engine, TracePolicy};
    use crate::counters::{names, Counters};
    use crate::partition::HashPartitioner;
    use crate::testutil::WordCountApp;
    use crate::traits::Emit;
    use mr_trace::TraceQuery;
    use proptest::prelude::*;

    fn text_splits(tag: usize, n_splits: usize, lines: usize) -> Vec<Vec<(u64, String)>> {
        let vocab = [
            "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "stage", "barrier",
        ];
        (0..n_splits)
            .map(|s| {
                (0..lines)
                    .map(|l| {
                        let a = vocab[(tag * 3 + s * 7 + l) % vocab.len()];
                        let b = vocab[(tag + s + l * 5) % vocab.len()];
                        ((s * lines + l) as u64, format!("{a} {b}"))
                    })
                    .collect()
            })
            .collect()
    }

    /// A ledger over `tenants` with `backlog` jobs admitted for each.
    fn backlogged(tenants: &[TenantSpec], backlog: usize) -> FairShare {
        let mut fair = FairShare::new(tenants, usize::MAX).expect("valid table");
        for t in 0..tenants.len() {
            for _ in 0..backlog {
                fair.admit(t).expect("admitted");
            }
        }
        fair
    }

    /// The deficit pick converges to the weights: with weights 1:3 on a
    /// single slot, twelve dispatches serve the tenants 3:9.
    #[test]
    fn pick_converges_to_weights() {
        let mut fair = backlogged(
            &[
                TenantSpec::default().weight(1),
                TenantSpec::default().weight(3),
            ],
            16,
        );
        for _ in 0..12 {
            let t = fair.pick(|_| true).expect("work queued");
            fair.start(t, true);
            fair.release(t); // single slot: completes at once
        }
        assert_eq!(fair.served, vec![3, 9]);
    }

    /// A higher priority class owns the slot while it has eligible work,
    /// regardless of weights; quota exhaustion hands the slot down.
    #[test]
    fn pick_prefers_priority_until_quota() {
        let mut fair = backlogged(
            &[
                TenantSpec::default().weight(100),
                TenantSpec::default().priority(5).max_concurrent_slots(2),
            ],
            4,
        );
        // Slots stay occupied: the priority tenant wins twice, then its
        // concurrency quota forces the pick down to the heavy tenant.
        let order: Vec<usize> = (0..4)
            .map(|_| {
                let t = fair.pick(|_| true).expect("work queued");
                fair.start(t, true);
                t
            })
            .collect();
        assert_eq!(order, vec![1, 1, 0, 0]);
    }

    proptest! {
        /// Whatever the weights, with every tenant backlogged on one slot
        /// no tenant's served/weight ratio runs more than one pick ahead
        /// of another's (compared exactly), which keeps every tenant
        /// within one pick above, and one pick per tenant below, its
        /// weight-proportional share of the picks.
        #[test]
        fn pick_tracks_any_weight_table(weights in prop::collection::vec(1u32..=50, 1..6)) {
            const PICKS: u64 = 1200;
            let tenants: Vec<TenantSpec> =
                weights.iter().map(|&w| TenantSpec::default().weight(w)).collect();
            let mut fair = backlogged(&tenants, PICKS as usize);
            for _ in 0..PICKS {
                let t = fair.pick(|_| true).expect("work queued");
                fair.start(t, true);
                fair.release(t);
            }
            let served = &fair.served;
            let total: u64 = weights.iter().map(|&w| w as u64).sum();
            for (t, &w) in weights.iter().enumerate() {
                for (u, &v) in weights.iter().enumerate() {
                    prop_assert!(
                        served[t].saturating_sub(1) * v as u64 <= served[u] * w as u64,
                        "tenant {} ran ahead of {}: served {:?}, weights {:?}",
                        t, u, served, weights
                    );
                }
                let share = (PICKS * w as u64) as f64 / total as f64;
                let off = served[t] as f64 - share;
                prop_assert!(
                    -(weights.len() as f64) <= off && off <= 1.0,
                    "tenant {} off its share by {}: served {:?}, weights {:?}",
                    t, off, served, weights
                );
            }
        }
    }

    /// Every admitted job's output is byte-identical to running it alone
    /// with `LocalRunner::run`, whatever the submission interleaving.
    #[test]
    fn service_outputs_match_solo_runs() {
        let app = WordCountApp;
        let part = HashPartitioner;
        let cfg = ServiceConfig::new(2)
            .tenant(0, TenantSpec::default().weight(2))
            .pool_workers(3);
        type Submission = (usize, JobConfig, Vec<Vec<(u64, String)>>);
        let jobs: Vec<Submission> = (0..8)
            .map(|i| {
                let jc = if i % 2 == 0 {
                    JobConfig::new(3)
                } else {
                    JobConfig::new(2).engine(Engine::barrierless())
                };
                (i % 2, jc, text_splits(i, 3, 12))
            })
            .collect();
        let (outs, report) = serve(&app, &part, &cfg, |svc| {
            let handles: Vec<JobHandle<WordCountApp>> = jobs
                .iter()
                .map(|(t, jc, splits)| svc.submit(*t, splits.clone(), jc).expect("admitted"))
                .collect();
            handles
                .into_iter()
                .map(|h| h.wait().expect("job succeeds"))
                .collect::<Vec<_>>()
        })
        .expect("service runs");
        assert_eq!(report.admitted, 8);
        assert_eq!(report.completed, 8);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.pool.workers, 3);
        for (out, (_, jc, splits)) in outs.iter().zip(&jobs) {
            let solo = LocalRunner::new(2)
                .run(&WordCountApp, splits.clone(), jc)
                .expect("solo run");
            assert_eq!(out.partitions, solo.partitions);
            assert_eq!(
                out.counters.get(names::MAP_OUTPUT_RECORDS),
                solo.counters.get(names::MAP_OUTPUT_RECORDS)
            );
        }
    }

    /// Service-job trace scopes carry the tenant, so `TraceQuery` can
    /// attribute activity per tenant.
    #[test]
    fn trace_scopes_are_tenant_stamped() {
        let cfg = ServiceConfig::new(2).pool_workers(2);
        let (out, _) = serve(&WordCountApp, &HashPartitioner, &cfg, |svc| {
            svc.submit(
                1,
                text_splits(9, 2, 8),
                &JobConfig::new(2).trace(TracePolicy::Enabled),
            )
            .expect("admitted")
            .wait()
            .expect("job succeeds")
        })
        .expect("service runs");
        let q = TraceQuery::new(&out.trace);
        assert_eq!(q.tenants(), vec![1]);
        let per = q.per_tenant_secs();
        assert!(per.contains_key(&1), "tenant 1 missing from {per:?}");
    }

    /// The counters of `out` a schedule cannot move: everything the map
    /// side, the combiner, the shuffle's batch cuts and the reduce side
    /// count.
    fn engine_counters(out: &JobOutput<WordCountApp>) -> Counters {
        let mut kept = Counters::new();
        for (name, value) in out.counters.iter() {
            let shuffle = [names::SHUFFLE_BATCHES, names::SHUFFLE_RECORDS]
                .iter()
                .any(|n| n.as_str() == name);
            if shuffle
                || ["map.", "combine.", "reduce."]
                    .iter()
                    .any(|p| name.starts_with(p))
            {
                kept.add(name.to_string(), value);
            }
        }
        kept
    }

    /// A per-job config means under `serve` what it means under `run`:
    /// with the combiner on and a one-byte shuffle batch budget, a served
    /// job reports the engine counters of the same job run alone on one
    /// worker — combiner folds and shuffle batch cuts included — under
    /// both engines; and through a service cache, every
    /// counter of a cold `run_cached` on a fresh cache.
    #[test]
    fn per_job_config_is_honoured_under_serve() {
        let splits = text_splits(4, 3, 20);
        let budget = CacheBudget::Limit { bytes: 16 << 20 };
        for engine in [Engine::Barrier, Engine::barrierless()] {
            let jc = JobConfig::new(2)
                .engine(engine.clone())
                .combiner(CombinerPolicy::enabled())
                .shuffle_batch_bytes(1);
            let solo = LocalRunner::new(1)
                .run(&WordCountApp, splits.clone(), &jc.clone().pool_workers(1))
                .expect("solo run");
            assert!(solo.counters.get(names::COMBINE_INPUT_RECORDS) > 0);
            let (served, _) = serve(
                &WordCountApp,
                &HashPartitioner,
                &ServiceConfig::new(1).pool_workers(2),
                |svc| svc.submit(0, splits.clone(), &jc).unwrap().wait().unwrap(),
            )
            .expect("service runs");
            assert_eq!(served.partitions, solo.partitions, "{engine:?}");
            assert_eq!(
                engine_counters(&served),
                engine_counters(&solo),
                "{engine:?}"
            );

            let cached_cfg = jc.clone().cache(CacheBudget::enabled());
            let cold = LocalRunner::new(1)
                .run_cached(
                    &WordCountApp,
                    splits.clone(),
                    &cached_cfg.clone().pool_workers(1),
                    &HashPartitioner,
                    &SharedCache::from_budget(&budget).expect("enabled"),
                )
                .expect("cold run");
            let (served, _) = serve(
                &WordCountApp,
                &HashPartitioner,
                &ServiceConfig::new(1).pool_workers(2).cache(budget),
                |svc| {
                    svc.submit(0, splits.clone(), &cached_cfg)
                        .unwrap()
                        .wait()
                        .unwrap()
                },
            )
            .expect("service runs");
            assert_eq!(served.partitions, solo.partitions, "{engine:?}, cached");
            assert_eq!(served.counters, cold.counters, "{engine:?}, cached");
            assert_eq!(
                engine_counters(&served),
                engine_counters(&solo),
                "{engine:?}, cached"
            );
        }
    }

    /// Trace instants stay on the session's clock: of two traced jobs
    /// submitted and waited one after the other, the second's earliest
    /// span starts no sooner than the first's latest span ends, and every
    /// scope carries its job's id and tenant.
    #[test]
    fn trace_instants_are_service_relative() {
        let cfg = ServiceConfig::new(2).pool_workers(2);
        let jc = JobConfig::new(2).trace(TracePolicy::Enabled);
        let (logs, _) = serve(&WordCountApp, &HashPartitioner, &cfg, |svc| {
            [1usize, 0].map(|tenant| {
                let handle = svc
                    .submit(tenant, text_splits(tenant, 3, 200), &jc)
                    .expect("admitted");
                (
                    handle.id,
                    tenant,
                    handle.wait().expect("job succeeds").trace,
                )
            })
        })
        .expect("service runs");
        let mut windows = Vec::new();
        for (id, tenant, log) in &logs {
            assert!(!log.is_empty());
            for e in log.iter() {
                assert_eq!(
                    (e.scope.job as u64, e.scope.tenant as usize),
                    (*id, *tenant)
                );
            }
            let spans = TraceQuery::new(log).spans();
            assert!(spans.len() >= 3 + 2, "a span per split and per reducer");
            let first = spans
                .iter()
                .map(|s| s.start_secs())
                .fold(f64::MAX, f64::min);
            let last = spans.iter().map(|s| s.end_secs()).fold(f64::MIN, f64::max);
            windows.push((first, last));
        }
        assert!(logs[0].0 < logs[1].0, "ids follow admission order");
        assert!(
            windows[1].0 >= windows[0].1,
            "job 2 starts at {} but job 1 ended at {}",
            windows[1].0,
            windows[0].1
        );
    }

    /// An application that blocks inside `map` until released, so tests
    /// can fill queues deterministically while the only runner is busy.
    struct BlockingApp {
        gate: Arc<(Mutex<(usize, bool)>, Condvar)>,
    }

    impl BlockingApp {
        fn new() -> Self {
            BlockingApp {
                gate: Arc::new((Mutex::new((0, false)), Condvar::new())),
            }
        }

        fn await_entered(&self, n: usize) {
            let (lock, cv) = &*self.gate;
            let mut g = lock.lock().unwrap();
            while g.0 < n {
                g = cv.wait(g).unwrap();
            }
        }

        fn release(&self) {
            let (lock, cv) = &*self.gate;
            lock.lock().unwrap().1 = true;
            cv.notify_all();
        }
    }

    impl Application for BlockingApp {
        type InKey = u64;
        type InValue = u64;
        type MapKey = u64;
        type MapValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        type State = u64;
        type Shared = ();

        fn map(&self, key: &u64, value: &u64, out: &mut dyn Emit<u64, u64>) {
            let (lock, cv) = &*self.gate;
            let mut g = lock.lock().unwrap();
            g.0 += 1;
            cv.notify_all();
            while !g.1 {
                g = cv.wait(g).unwrap();
            }
            drop(g);
            out.emit(*key, *value);
        }

        fn new_shared(&self) {}

        fn reduce_grouped(
            &self,
            key: &u64,
            values: Vec<u64>,
            _: &mut (),
            out: &mut dyn Emit<u64, u64>,
        ) {
            out.emit(*key, values.iter().sum());
        }

        fn init(&self, _: &u64) -> u64 {
            0
        }

        fn absorb(&self, _: &u64, state: &mut u64, v: u64, _: &mut (), _: &mut dyn Emit<u64, u64>) {
            *state += v;
        }

        fn merge(&self, _: &u64, a: u64, b: u64) -> u64 {
            a + b
        }

        fn finalize(&self, key: u64, state: u64, _: &mut (), out: &mut dyn Emit<u64, u64>) {
            out.emit(key, state);
        }
    }

    /// Overload produces typed rejections, never a hang or a worker
    /// panic: tenant quota, global queue bound, unknown tenant, and a
    /// nonsense per-job config each get their own error while the single
    /// runner is busy — and every admitted job still completes.
    #[test]
    fn overload_rejections_are_typed_and_graceful() {
        let app = BlockingApp::new();
        let cfg = ServiceConfig::new(2)
            .tenant(0, TenantSpec::default().max_queued_jobs(2))
            .queue_cap(3)
            .pool_workers(1);
        let input = || vec![vec![(1u64, 10u64)]];
        let jc = JobConfig::new(1);
        let ((), report) = serve(&app, &HashPartitioner, &cfg, |svc| {
            let running = svc.submit(0, input(), &jc).expect("admitted");
            app.await_entered(1); // the only runner is now mid-map
            let queued_b = svc.submit(0, input(), &jc).expect("queued");
            let queued_c = svc.submit(0, input(), &jc).expect("queued");
            match svc.submit(0, input(), &jc) {
                Err(SubmitError::Rejected {
                    reason: RejectReason::TenantQueueFull { tenant: 0, cap: 2 },
                }) => {}
                Ok(_) => panic!("expected tenant quota rejection, got admission"),
                Err(e) => panic!("expected tenant quota rejection, got {e}"),
            }
            let queued_e = svc.submit(1, input(), &jc).expect("queued");
            match svc.submit(1, input(), &jc) {
                Err(SubmitError::Rejected {
                    reason: RejectReason::QueueFull { cap: 3 },
                }) => {}
                Ok(_) => panic!("expected queue-full rejection, got admission"),
                Err(e) => panic!("expected queue-full rejection, got {e}"),
            }
            match svc.submit(7, input(), &jc) {
                Err(SubmitError::Rejected {
                    reason:
                        RejectReason::UnknownTenant {
                            tenant: 7,
                            tenants: 2,
                        },
                }) => {}
                Ok(_) => panic!("expected unknown-tenant rejection, got admission"),
                Err(e) => panic!("expected unknown-tenant rejection, got {e}"),
            }
            match svc.submit(0, input(), &JobConfig::new(0)) {
                Err(SubmitError::InvalidConfig(MrError::InvalidConfig(_))) => {}
                Ok(_) => panic!("expected invalid-config error, got admission"),
                Err(e) => panic!("expected invalid-config error, got {e}"),
            }
            app.release();
            for h in [running, queued_b, queued_c, queued_e] {
                let out = h.wait().expect("admitted job completes");
                assert_eq!(out.partitions.concat(), vec![(1, 10)]);
            }
        })
        .expect("service survives overload");
        assert_eq!(report.admitted, 4);
        assert_eq!(report.rejected, 2); // quota + queue bound (unknown tenant has no ledger)
        assert_eq!(report.completed, 4);
    }

    /// A slot thread that can run nothing — its only tenant is at its
    /// one-slot quota — waits out the whole session, and it is the last
    /// finished job's notify that lets it go: the body returns with the
    /// queue still full, so the close's own wake-up comes too early to
    /// release it (it finds the queue non-empty and waits again).
    #[test]
    fn quota_bound_idle_slot_is_woken_by_the_last_result() {
        let cfg = ServiceConfig::new(1)
            .tenant(0, TenantSpec::default().max_concurrent_slots(1))
            .pool_workers(2);
        let jc = JobConfig::new(2);
        let (handles, report) = serve(&WordCountApp, &HashPartitioner, &cfg, |svc| {
            (0..64)
                .map(|tag| {
                    svc.submit(0, text_splits(tag, 2, 6), &jc)
                        .expect("admitted")
                })
                .collect::<Vec<_>>()
        })
        .expect("service runs");
        assert_eq!((report.admitted, report.completed), (64, 64));
        assert_eq!((report.pool.workers, report.pool.peak_threads), (2, 2));
        for (tag, handle) in handles.into_iter().enumerate() {
            assert!(handle.is_done(), "job {tag} left behind");
            let solo = LocalRunner::new(1)
                .run(&WordCountApp, text_splits(tag, 2, 6), &jc)
                .expect("solo run");
            assert_eq!(
                handle.wait().expect("job succeeds").partitions,
                solo.partitions
            );
        }
    }

    /// Admission is a promise: jobs still queued when the body returns
    /// are drained before `serve` does, at one slot and at several.
    #[test]
    fn jobs_queued_at_close_are_drained() {
        for workers in [1, 4] {
            let cfg = ServiceConfig::new(2).pool_workers(workers);
            let jc = JobConfig::new(2);
            let (handles, report) = serve(&WordCountApp, &HashPartitioner, &cfg, |svc| {
                (0..24)
                    .map(|tag| {
                        svc.submit(tag % 2, text_splits(tag, 2, 6), &jc)
                            .expect("admitted")
                    })
                    .collect::<Vec<_>>()
            })
            .expect("service runs");
            assert_eq!(report.admitted, 24, "{workers} slots");
            assert_eq!(report.completed, report.admitted, "{workers} slots");
            assert!(handles.iter().all(JobHandle::is_done), "{workers} slots");
        }
    }

    /// Nonsense service configs fail up front with `InvalidConfig`
    /// before any worker thread starts.
    #[test]
    fn invalid_service_configs_rejected_up_front() {
        let cases = [
            ServiceConfig::new(0), // no tenants
            ServiceConfig::new(1).queue_cap(0),
            ServiceConfig::new(1).pool_workers(0),
            ServiceConfig::new(1).tenant(0, TenantSpec::default().weight(0)),
            ServiceConfig::new(1).tenant(0, TenantSpec::default().max_concurrent_slots(0)),
            ServiceConfig::new(1).tenant(0, TenantSpec::default().max_queued_jobs(0)),
        ];
        for cfg in cases {
            let res = serve(&WordCountApp, &HashPartitioner, &cfg, |_| ());
            assert!(
                matches!(res, Err(MrError::InvalidConfig(_))),
                "config {cfg:?} should be rejected"
            );
        }
    }

    /// An application panic fails only its own job; the pool and the
    /// other tenants' jobs are untouched.
    struct PoisonApp;

    impl Application for PoisonApp {
        type InKey = u64;
        type InValue = u64;
        type MapKey = u64;
        type MapValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        type State = u64;
        type Shared = ();

        fn map(&self, key: &u64, value: &u64, out: &mut dyn Emit<u64, u64>) {
            assert!(*value != 666, "poison record");
            out.emit(*key, *value);
        }

        fn new_shared(&self) {}

        fn reduce_grouped(
            &self,
            key: &u64,
            values: Vec<u64>,
            _: &mut (),
            out: &mut dyn Emit<u64, u64>,
        ) {
            out.emit(*key, values.iter().sum());
        }

        fn init(&self, _: &u64) -> u64 {
            0
        }

        fn absorb(&self, _: &u64, state: &mut u64, v: u64, _: &mut (), _: &mut dyn Emit<u64, u64>) {
            *state += v;
        }

        fn merge(&self, _: &u64, a: u64, b: u64) -> u64 {
            a + b
        }

        fn finalize(&self, key: u64, state: u64, _: &mut (), out: &mut dyn Emit<u64, u64>) {
            out.emit(key, state);
        }
    }

    #[test]
    fn app_panic_fails_only_that_job() {
        let cfg = ServiceConfig::new(2).pool_workers(2);
        let jc = JobConfig::new(1);
        let ((), report) = serve(&PoisonApp, &HashPartitioner, &cfg, |svc| {
            let bad = svc
                .submit(0, vec![vec![(1u64, 666u64)]], &jc)
                .expect("admitted");
            let good: Vec<JobHandle<PoisonApp>> = (0..3)
                .map(|i| {
                    svc.submit(1, vec![vec![(i as u64, i as u64 + 1)]], &jc)
                        .expect("admitted")
                })
                .collect();
            match bad.wait() {
                Err(MrError::WorkerPanic(msg)) => {
                    assert!(msg.contains("poison"), "unexpected panic message: {msg}")
                }
                Ok(_) => panic!("poisoned job should fail, not succeed"),
                Err(e) => panic!("poisoned job should fail with WorkerPanic, got {e}"),
            }
            for (i, h) in good.into_iter().enumerate() {
                let out = h.wait().expect("healthy job unaffected");
                assert_eq!(out.partitions.concat(), vec![(i as u64, i as u64 + 1)]);
            }
        })
        .expect("pool survives an app panic");
        assert_eq!(report.completed, 4);
    }

    /// A panic in the *body* closure (not in a job) must unwind out of
    /// `serve`, not hang: the close protocol runs on the unwind path,
    /// so runners drain the already-admitted queue and the pool winds
    /// down before the panic is re-raised to the caller.
    #[test]
    fn body_panic_unwinds_instead_of_hanging() {
        let app = WordCountApp;
        let part = HashPartitioner;
        let cfg = ServiceConfig::new(1).pool_workers(2);
        let jc = JobConfig::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            serve(&app, &part, &cfg, |svc| {
                for tag in 0..4 {
                    svc.submit(0, text_splits(tag, 2, 6), &jc)
                        .expect("admitted");
                }
                panic!("body gave up mid-session");
            })
        }))
        .expect_err("the body panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(non-str payload)");
        assert!(msg.contains("gave up"), "wrong panic surfaced: {msg}");
    }
}
