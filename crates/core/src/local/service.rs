//! Multi-tenant job service over one long-lived worker pool.
//!
//! [`serve`] stands up a [`JobService`]: a bounded admission queue in
//! front of `pool_workers` persistent **runner tasks** on a single
//! `Pool` in service mode. The service is a *scheduler*, not an engine:
//! a runner picks the next job under the queue lock and then runs all of
//! it on its own thread through the executor's own entry point —
//! [`LocalRunner::run_cached`] when the service owns a cache,
//! [`LocalRunner::run_with_partitioner`] otherwise — on a one-worker
//! pool, which runs on its caller and so costs no thread. There are
//! exactly as many runners as pool threads, so a runner is never
//! descheduled for another: each admitted job occupies one runner
//! (= one slot) from start to finish, and many tenants multiplex on a
//! fixed thread count with no per-job thread setup or teardown — the
//! long-lived-pool follow-on to `LocalRunner::run_many`.
//!
//! **Admission** is synchronous and typed: a submission past the global
//! queue bound or the tenant's queued-job quota returns
//! [`SubmitError::Rejected`] immediately (never blocks, never panics a
//! worker); a nonsense per-job config returns the usual
//! [`MrError::InvalidConfig`]. **Scheduling** is deficit-style weighted
//! fair: when a runner frees up it serves, among the tenants with queued
//! work and spare concurrent-slot quota, first the highest priority
//! class, then the tenant whose served-jobs/weight ratio is lowest —
//! every eligible tenant's ratio grows only while it is being served, so
//! no tenant starves and long-run slot shares converge to the weights.
//! **Isolation**: a job's failure (OOM, app panic) is its own
//! [`JobHandle`] result; the pool and every other tenant's jobs are
//! untouched.
//!
//! Every trace scope a service job records is stamped with its job id
//! and tenant, and its wall instants are moved onto the session's clock
//! ([`TraceLog::restamp`](mr_trace::TraceLog::restamp)), so
//! `TraceQuery::per_tenant_secs` can break the service's activity down
//! by tenant. Outputs, counters and canonical traces are those of
//! running the same job alone on one worker, because that is what a
//! runner does; jobs share nothing but the slot scheduler and, when
//! enabled, the content-addressed cache.

use super::cache::SharedCache;
use super::pool::{panic_message, Ctx, Pool, PoolTask, Step, Waker};
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

/// The admission queue and fair-share accounting, one lock.
struct Core<A: Application> {
    /// Per-tenant FIFO of admitted, not-yet-running jobs.
    queues: Vec<VecDeque<Queued<A>>>,
    /// Jobs dispatched per tenant — the deficit accounting the fair pick
    /// compares against the weights.
    served: Vec<u64>,
    /// Jobs currently occupying a runner, per tenant.
    running: Vec<usize>,
    queued_total: usize,
    /// Runner task ids parked on an empty/ineligible queue.
    parked: Vec<usize>,
    closed: bool,
    next_id: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
}

impl<A: Application> Core<A> {
    fn new(tenants: usize) -> Self {
        Core {
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            served: vec![0; tenants],
            running: vec![0; tenants],
            queued_total: 0,
            parked: Vec::new(),
            closed: false,
            next_id: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
        }
    }

    /// The deficit-style weighted-fair pick: among tenants with queued
    /// work and spare concurrent-slot quota, the highest priority class
    /// wins; within it, the tenant with the lowest served/weight ratio
    /// (compared exactly, by cross-multiplication). Ties go to the lower
    /// tenant index, so the pick is deterministic given the queue state.
    fn pick(&mut self, tenants: &[TenantSpec]) -> Option<Queued<A>> {
        let mut best: Option<usize> = None;
        for t in 0..self.queues.len() {
            if self.queues[t].is_empty() || self.running[t] >= tenants[t].max_concurrent_slots {
                continue;
            }
            best = Some(match best {
                None => t,
                Some(b) => {
                    let higher_class = tenants[t].priority > tenants[b].priority;
                    let same_class = tenants[t].priority == tenants[b].priority;
                    let fairer = (self.served[t] as u128) * (tenants[b].weight as u128)
                        < (self.served[b] as u128) * (tenants[t].weight as u128);
                    if higher_class || (same_class && fairer) {
                        t
                    } else {
                        b
                    }
                }
            });
        }
        let t = best?;
        self.served[t] += 1;
        self.running[t] += 1;
        self.queued_total -= 1;
        self.queues[t].pop_front()
    }
}

/// State shared by the service handle and every runner task.
struct Shared<A: Application> {
    core: Mutex<Core<A>>,
    tenants: Vec<TenantSpec>,
    queue_cap: usize,
    waker: Arc<Waker>,
    started: Instant,
    /// The service-owned result cache every tenant's jobs share, when
    /// [`ServiceConfig::cache`] enables one. Content-addressed keys are
    /// the isolation story: a tenant can only hit artifacts it would
    /// have computed bit-for-bit itself, so sharing leaks nothing.
    cache: Option<SharedCache>,
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
        let s = &self.shared;
        if tenant >= s.tenants.len() {
            // Not counted: there is no tenant to charge the rejection to.
            return Err(SubmitError::Rejected {
                reason: RejectReason::UnknownTenant {
                    tenant,
                    tenants: s.tenants.len(),
                },
            });
        }
        let (handle, woken) = {
            let mut core = s.core.lock().unwrap();
            if core.queued_total >= s.queue_cap {
                core.rejected += 1;
                return Err(SubmitError::Rejected {
                    reason: RejectReason::QueueFull { cap: s.queue_cap },
                });
            }
            let quota = s.tenants[tenant].max_queued_jobs;
            if core.queues[tenant].len() >= quota {
                core.rejected += 1;
                return Err(SubmitError::Rejected {
                    reason: RejectReason::TenantQueueFull { tenant, cap: quota },
                });
            }
            let id = core.next_id;
            core.next_id += 1;
            core.admitted += 1;
            core.queued_total += 1;
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
            (
                JobHandle { id, tenant, cell },
                std::mem::take(&mut core.parked),
            )
        };
        s.waker.wake_all_of(woken);
        Ok(handle)
    }
}

/// One persistent slot of the service: grabs the fair pick's next job,
/// runs it to its result, publishes that, repeats; parks when no job is
/// eligible and exits once the service closed and the queue drained.
struct RunnerTask<'e, A: Application, P: Partitioner<A::MapKey>> {
    app: &'e A,
    partitioner: &'e P,
    shared: Arc<Shared<A>>,
}

impl<A: Application, P: Partitioner<A::MapKey>> RunnerTask<'_, A, P> {
    /// Publishes a job's result and releases its slot, waking parked
    /// runners whose tenant-quota eligibility may have changed.
    fn finish(&self, tenant: usize, cell: &JobCell<A>, result: MrResult<JobOutput<A>>) {
        *cell.slot.lock().unwrap() = Some(result);
        cell.done.notify_all();
        let woken = {
            let mut core = self.shared.core.lock().unwrap();
            core.running[tenant] -= 1;
            core.completed += 1;
            std::mem::take(&mut core.parked)
        };
        self.shared.waker.wake_all_of(woken);
    }
}

impl<A, P> PoolTask for RunnerTask<'_, A, P>
where
    A: Application,
    P: Partitioner<A::MapKey> + Sync,
    A::InKey: StableHash,
    A::InValue: StableHash,
    A::MapKey: Sync,
    A::MapValue: Sync,
    A::OutKey: Sync + SizeEstimate,
    A::OutValue: Sync + SizeEstimate,
{
    /// One step is one whole job, run on this runner's thread through
    /// the executor's own entry point on a one-worker pool. The pool has
    /// exactly one thread per runner, so holding it for the job's length
    /// starves nobody.
    fn step(&mut self, cx: &mut Ctx) -> Step {
        let Queued {
            id,
            tenant,
            cfg,
            splits,
            cell,
        } = {
            let mut core = self.shared.core.lock().unwrap();
            match core.pick(&self.shared.tenants) {
                Some(job) => job,
                None if core.closed && core.queued_total == 0 => return Step::Done,
                None => {
                    // Registered under the core lock, same critical
                    // section that observed "nothing eligible": the
                    // submit/completion wake cannot be lost.
                    if !core.parked.contains(&cx.task) {
                        core.parked.push(cx.task);
                    }
                    return Step::Park;
                }
            }
        };
        // An app panic fails only this job.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let runner = LocalRunner::new(1);
            let offset_secs = self.shared.started.elapsed().as_secs_f64();
            let mut out = match &self.shared.cache {
                Some(cache) => runner.run_cached(self.app, splits, &cfg, self.partitioner, cache),
                None => runner.run_with_partitioner(self.app, splits, &cfg, self.partitioner),
            }?;
            // The log comes back scoped to job 0 on the job's own clock.
            out.trace.restamp(id as u32, tenant as u32, offset_secs);
            Ok(out)
        }))
        .unwrap_or_else(|payload| Err(MrError::WorkerPanic(panic_message(payload.as_ref()))));
        self.finish(tenant, &cell, result);
        Step::Yield
    }
}

/// Runs a multi-tenant job service for the duration of `body`: one
/// long-lived pool of `cfg.pool_workers` threads (= job slots), a
/// bounded admission queue, and deficit-weighted-fair scheduling across
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
    A::MapKey: Sync,
    A::MapValue: Sync,
    A::OutKey: Sync + SizeEstimate,
    A::OutValue: Sync + SizeEstimate,
{
    cfg.validate()?;
    let mut pool = Pool::new();
    let shared = Arc::new(Shared {
        core: Mutex::new(Core::new(cfg.tenants.len())),
        tenants: cfg.tenants.clone(),
        queue_cap: cfg.queue_cap,
        waker: pool.waker(),
        started: Instant::now(),
        cache: SharedCache::from_budget(&cfg.cache),
    });
    for _ in 0..cfg.pool_workers {
        pool.spawn(RunnerTask {
            app,
            partitioner,
            shared: Arc::clone(&shared),
        });
    }
    let svc = JobService {
        shared: Arc::clone(&shared),
    };
    let (out, pool_report) = pool.run_service(cfg.pool_workers, || {
        // A panicking body must still close the service — skipping the
        // close would leave parked runners waiting forever (a hang
        // where the caller expects an unwind). Capture, close, re-raise
        // below once the pool has drained.
        let out = catch_unwind(AssertUnwindSafe(|| body(&svc)));
        // Service-level close *before* the pool's own close: every
        // parked runner is woken so it observes the flag and drains the
        // remaining queue instead of tripping the stall detector.
        let woken = {
            let mut core = shared.core.lock().unwrap();
            core.closed = true;
            std::mem::take(&mut core.parked)
        };
        shared.waker.wake_all_of(woken);
        out
    })?;
    let out = match out {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    let core = shared.core.lock().unwrap();
    Ok((
        out,
        ServiceReport {
            pool: PoolStats {
                workers: pool_report.workers,
                peak_threads: pool_report.peak_threads,
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

    fn dummy_cell() -> Arc<JobCell<WordCountApp>> {
        Arc::new(JobCell {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn queued(tenant: usize) -> Queued<WordCountApp> {
        Queued {
            id: 0,
            tenant,
            cfg: JobConfig::new(2),
            splits: Vec::new(),
            cell: dummy_cell(),
        }
    }

    /// The deficit pick converges to the weights: with weights 1:3 on a
    /// single slot, twelve dispatches serve the tenants 3:9.
    #[test]
    fn pick_converges_to_weights() {
        let tenants = vec![
            TenantSpec::default().weight(1),
            TenantSpec::default().weight(3),
        ];
        let mut core = Core::<WordCountApp>::new(2);
        for t in 0..2 {
            for _ in 0..16 {
                core.queues[t].push_back(queued(t));
                core.queued_total += 1;
            }
        }
        for _ in 0..12 {
            let job = core.pick(&tenants).expect("work queued");
            core.running[job.tenant] -= 1; // single slot: completes at once
        }
        assert_eq!(core.served, vec![3, 9]);
    }

    /// A higher priority class owns the slot while it has eligible work,
    /// regardless of weights; quota exhaustion hands the slot down.
    #[test]
    fn pick_prefers_priority_until_quota() {
        let tenants = vec![
            TenantSpec::default().weight(100),
            TenantSpec::default().priority(5).max_concurrent_slots(2),
        ];
        let mut core = Core::<WordCountApp>::new(2);
        for t in 0..2 {
            for _ in 0..4 {
                core.queues[t].push_back(queued(t));
                core.queued_total += 1;
            }
        }
        // Slots stay occupied: the priority tenant wins twice, then its
        // concurrency quota forces the pick down to the heavy tenant.
        let order: Vec<usize> = (0..4)
            .map(|_| core.pick(&tenants).expect("work queued").tenant)
            .collect();
        assert_eq!(order, vec![1, 1, 0, 0]);
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
