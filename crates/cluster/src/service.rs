//! Multi-tenant job-service simulation: many jobs from many tenants
//! contending for one simulated cluster's slots.
//!
//! This is the simulator-side mirror of `mr_core::serve`, scheduling
//! through the very same [`FairShare`] ledger: its admission rules
//! (bounded queue, per-tenant queued-job quotas, typed
//! [`RejectReason`]s), its deficit-style weighted-fair pick with
//! priority classes, and its per-tenant concurrent-slot caps — but
//! charged per *task* placed on a [`SlotLedger`] over the virtual
//! cluster where `serve` charges per job, so slot contention between
//! concurrent jobs is modeled rather than hidden. Two job shapes
//! contend:
//!
//! * **Barrier jobs** — map tasks, then reduce tasks once every map is
//!   done (one slot per task, the classic two-phase shape).
//! * **Chained jobs** — a two-stage pipeline in which stage-2 map `m`
//!   becomes runnable the moment stage-1 reducer `m` finishes (the
//!   per-partition handoff dependency), so the two stages overlap and
//!   compete for the *same* map and reduce slots as every other job.
//!   Stage-2 tasks take slots through the shared ledger like everything
//!   else — the slotless chained placement that once let a chained and
//!   an unchained job deadlock over recovery is structurally gone.
//!
//! Priorities preempt: a pending task of a higher-priority tenant with
//! no free slot of its kind evicts a running task of a lower-priority
//! tenant (the victim's attempt is bumped and it re-queues), so a
//! latency-sensitive tenant is never stuck behind a batch tenant's
//! long-running tasks.
//!
//! Node kills mid-run trigger Hadoop-style recovery: running tasks on
//! the dead node re-queue; completed map output on the dead node is
//! re-executed while its consumers still need it; a dead stage-1
//! reducer whose handoff was not yet fully consumed restarts, together
//! with its stage-2 consumer.
//!
//! **Outputs are schedule-independent by construction**: a job's actual
//! records are computed once, analytically, with the same core map /
//! partition / barrier-reduce calls every engine uses — whatever the
//! contention, eviction or recovery history, a completed job's bytes
//! are identical to running it alone. (The service simulator models
//! *contention*; multi-stage *data* flow is `ChainSimExecutor`'s job.)
//! The schedule itself is deterministic per seed, and every task span
//! is tenant-stamped so `TraceQuery::per_tenant_secs` turns the trace
//! into per-tenant slot-share evidence.

use crate::executor::Fault;
use crate::params::ClusterParams;
use crate::placement::{SlotLedger, TieBreak};
use mr_core::engine::barrier::reduce_partition_barrier;
use mr_core::local::service::{FairShare, RejectReason};
use mr_core::traits::FnEmit;
use mr_core::{
    Application, Counters, MrError, MrResult, Partitioner, Scope, TaskKind, TenantSpec, TraceEvent,
    TraceInstant, TraceLog, TraceQuery,
};
use mr_sim::{EventQueue, SimDuration, SimTime};
use mr_trace::SpanKind;
use mr_workloads::dist::hetero_factor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Service-level knobs for a simulated multi-tenant run.
#[derive(Debug, Clone)]
pub struct ServiceParams {
    /// The simulated cluster (node count, slots per node, heterogeneity,
    /// seed).
    pub cluster: ClusterParams,
    /// The tenant table — the same [`TenantSpec`] the local service
    /// uses: weight, priority class, concurrent-slot cap, queued-job
    /// quota.
    pub tenants: Vec<TenantSpec>,
    /// Bound on jobs waiting to start across all tenants.
    pub queue_cap: usize,
    /// Base virtual cost of one map task on a factor-1.0 node.
    pub map_task_secs: f64,
    /// Base virtual cost of one reduce task on a factor-1.0 node.
    pub red_task_secs: f64,
}

impl ServiceParams {
    /// Paper-testbed cluster, `tenants` default-spec tenants, a
    /// generous queue, and small task costs.
    pub fn new(tenants: usize) -> Self {
        ServiceParams {
            cluster: ClusterParams::paper_testbed(0),
            tenants: vec![TenantSpec::default(); tenants],
            queue_cap: 1024,
            map_task_secs: 4.0,
            red_task_secs: 6.0,
        }
    }

    /// Replaces tenant `index`'s spec.
    pub fn tenant(mut self, index: usize, spec: TenantSpec) -> Self {
        self.tenants[index] = spec;
        self
    }

    /// Sets the global admission-queue bound.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Same contract as `ServiceConfig::validate`: nonsense fails with
    /// [`MrError::InvalidConfig`] before the event loop starts.
    pub fn validate(&self) -> MrResult<()> {
        fn bad(what: impl Into<String>) -> MrResult<()> {
            Err(MrError::InvalidConfig(what.into()))
        }
        FairShare::new(&self.tenants, self.queue_cap)?;
        if self.cluster.nodes == 0 || self.cluster.map_slots == 0 || self.cluster.reduce_slots == 0
        {
            return bad("the simulated cluster needs nodes and per-node slots");
        }
        if !self.map_task_secs.is_finite()
            || self.map_task_secs <= 0.0
            || !self.red_task_secs.is_finite()
            || self.red_task_secs <= 0.0
        {
            return bad("task costs must be finite and > 0");
        }
        Ok(())
    }
}

/// One job submitted to the simulated service.
pub struct SimJobSpec<A: Application> {
    /// The submitting tenant (index into [`ServiceParams::tenants`]).
    pub tenant: usize,
    /// Virtual submission time in seconds.
    pub submit_at_secs: f64,
    /// Input splits; each split is one map task.
    pub splits: Vec<Vec<(A::InKey, A::InValue)>>,
    /// Reduce partitions (= stage-1 reduce tasks).
    pub reducers: usize,
    /// `true` adds a dependent second stage: one stage-2 map per
    /// stage-1 partition (runnable when that partition's reducer
    /// finishes) feeding as many stage-2 reducers.
    pub chained: bool,
}

/// What became of one submitted job.
#[derive(Debug)]
pub struct SimJobOutcome<A: Application> {
    /// The submitting tenant.
    pub tenant: usize,
    /// `Some` if admission turned the job away (it then ran nothing).
    pub rejected: Option<RejectReason>,
    /// Virtual completion time; `None` if the job never finished
    /// (rejected, or the run ended in failure).
    pub completed_at: Option<f64>,
    /// The job's output partitions — analytically computed, so
    /// byte-identical to running the job alone. Empty unless completed.
    pub output: Vec<Vec<(A::OutKey, A::OutValue)>>,
}

/// The finished run: per-job outcomes plus the tenant-stamped trace.
pub struct ServiceSimReport<A: Application> {
    /// One outcome per submitted job, in submission order.
    pub jobs: Vec<SimJobOutcome<A>>,
    /// Every task span, tenant-stamped, on the virtual clock.
    pub trace: TraceLog,
    /// Priority evictions performed.
    pub evictions: u64,
    /// `Some((at_secs, why))` if the run died (every node failed).
    pub failure: Option<(f64, String)>,
}

impl<A: Application> ServiceSimReport<A> {
    /// Busy virtual seconds per tenant — the slot-share evidence the
    /// fairness assertions read.
    pub fn per_tenant_secs(&self) -> BTreeMap<u32, f64> {
        TraceQuery::new(&self.trace).per_tenant_secs()
    }
}

/// Which stage a task belongs to; order is dispatch preference within a
/// job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Map1,
    Red1,
    Map2,
    Red2,
}

impl Stage {
    fn is_map(self) -> bool {
        matches!(self, Stage::Map1 | Stage::Map2)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Pending,
    Running { node: usize, started: SimTime },
    Done { node: usize },
}

#[derive(Debug, Clone)]
struct SimTask {
    state: TState,
    attempt: u32,
}

impl SimTask {
    fn new() -> Self {
        SimTask {
            state: TState::Pending,
            attempt: 0,
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, TState::Done { .. })
    }

    fn requeue(&mut self) {
        self.state = TState::Pending;
        self.attempt += 1;
    }
}

struct JobRec {
    tenant: usize,
    chained: bool,
    maps1: Vec<SimTask>,
    reds1: Vec<SimTask>,
    maps2: Vec<SimTask>,
    reds2: Vec<SimTask>,
    started: bool,
    done_at: Option<SimTime>,
    rejected: Option<RejectReason>,
}

impl JobRec {
    fn tasks(&mut self, stage: Stage) -> &mut Vec<SimTask> {
        match stage {
            Stage::Map1 => &mut self.maps1,
            Stage::Red1 => &mut self.reds1,
            Stage::Map2 => &mut self.maps2,
            Stage::Red2 => &mut self.reds2,
        }
    }

    fn running(&self) -> bool {
        [&self.maps1, &self.reds1, &self.maps2, &self.reds2]
            .into_iter()
            .flatten()
            .any(|t| matches!(t.state, TState::Running { .. }))
    }

    fn complete(&self) -> bool {
        let finals = if self.chained {
            &self.reds2
        } else {
            &self.reds1
        };
        !finals.is_empty() && finals.iter().all(SimTask::is_done)
    }

    /// First runnable pending task, in stage order. `Map2` entries gate
    /// on their own stage-1 partition, not the whole stage — that
    /// per-partition dependency is what makes chained jobs overlap.
    fn next_runnable(&self) -> Option<(Stage, usize)> {
        if let Some(m) = self.maps1.iter().position(|t| t.state == TState::Pending) {
            return Some((Stage::Map1, m));
        }
        if self.maps1.iter().all(SimTask::is_done) {
            if let Some(r) = self.reds1.iter().position(|t| t.state == TState::Pending) {
                return Some((Stage::Red1, r));
            }
        }
        if self.chained {
            if let Some(m) = (0..self.maps2.len())
                .find(|&m| self.maps2[m].state == TState::Pending && self.reds1[m].is_done())
            {
                return Some((Stage::Map2, m));
            }
            if self.maps2.iter().all(SimTask::is_done) {
                if let Some(r) = self.reds2.iter().position(|t| t.state == TState::Pending) {
                    return Some((Stage::Red2, r));
                }
            }
        }
        None
    }
}

#[derive(Debug)]
enum Ev {
    Submit(usize),
    Done {
        job: usize,
        stage: Stage,
        index: usize,
        attempt: u32,
    },
    NodeFail(usize),
}

/// The multi-tenant contention simulator. See the module docs.
pub struct ServiceSimExecutor;

struct ServiceSim<'a> {
    p: &'a ServiceParams,
    slots: SlotLedger,
    node_factor: Vec<f64>,
    queue: EventQueue<Ev>,
    jobs: Vec<JobRec>,
    /// Per tenant, its admitted jobs in index order — the mirror of
    /// `serve`'s per-tenant queues. A job leaves once it is complete and
    /// none of its attempts still holds a slot (a re-run map may outlive
    /// its job's last reducer and can still be evicted), so every
    /// running task's job is listed and every scan of the schedule walks
    /// these lists instead of the whole job table.
    live: Vec<Vec<usize>>,
    /// `(maps, reducers)` per job, for stable stage-2 scope indexes.
    shapes: Vec<(usize, usize)>,
    /// The service's own scheduling policy, charged one unit per task.
    fair: FairShare,
    trace: TraceLog,
    evictions: u64,
    failure: Option<(f64, String)>,
}

fn vt(at: SimTime) -> TraceInstant {
    TraceInstant::Virtual {
        micros: at.as_micros(),
    }
}

impl ServiceSim<'_> {
    /// First dispatchable task of tenant `t` given current slot
    /// availability, scanning its live jobs in index order.
    fn next_task_for(
        &self,
        t: usize,
        map_free: bool,
        red_free: bool,
    ) -> Option<(usize, Stage, usize)> {
        for &j in &self.live[t] {
            let job = &self.jobs[j];
            if job.complete() {
                continue;
            }
            if let Some((stage, idx)) = job.next_runnable() {
                let free = if stage.is_map() { map_free } else { red_free };
                if free {
                    return Some((j, stage, idx));
                }
            }
        }
        None
    }

    fn duration(&self, stage: Stage, node: usize) -> SimDuration {
        let base = if stage.is_map() {
            self.p.map_task_secs
        } else {
            self.p.red_task_secs
        };
        SimDuration::from_secs_f64(base * self.node_factor[node])
    }

    /// The live-list membership invariant: every job with a running
    /// task is listed under its tenant.
    fn live_covers_running(&self) -> bool {
        self.jobs
            .iter()
            .enumerate()
            .all(|(j, job)| !job.running() || self.live[job.tenant].binary_search(&j).is_ok())
    }

    /// Drops job `j` from its tenant's live list once it is complete and
    /// no attempt of it is running.
    fn retire_if_idle(&mut self, j: usize) {
        let job = &self.jobs[j];
        if job.complete() && !job.running() {
            let live = &mut self.live[job.tenant];
            let k = live
                .binary_search(&j)
                .expect("a job is listed until it retires, once");
            live.remove(k);
        }
    }

    fn dispatch(&mut self, at: SimTime, j: usize, stage: Stage, idx: usize) {
        let is_map = stage.is_map();
        let node = if is_map {
            self.slots
                .first_free_map()
                .expect("caller checked a free map slot")
        } else {
            self.slots
                .least_loaded(false, TieBreak::LowIndex)
                .expect("caller checked a free reduce slot")
        };
        self.slots.take(is_map, node);
        let job = &mut self.jobs[j];
        self.fair.start(job.tenant, !job.started);
        job.started = true;
        let task = &mut self.jobs[j].tasks(stage)[idx];
        task.state = TState::Running { node, started: at };
        let attempt = task.attempt;
        let end = at + self.duration(stage, node);
        self.queue.schedule(
            end,
            Ev::Done {
                job: j,
                stage,
                index: idx,
                attempt,
            },
        );
        // Tasks start running only here, so the membership invariant
        // holds if every dispatched job is listed.
        debug_assert!(self.live[self.jobs[j].tenant].binary_search(&j).is_ok());
    }

    /// Fair dispatch until no eligible tenant can place a task, then
    /// priority preemption for what is still stuck.
    fn schedule(&mut self, at: SimTime) {
        loop {
            let map_free = self.slots.first_free_map().is_some();
            let red_free = self.slots.least_loaded(false, TieBreak::LowIndex).is_some();
            if !map_free && !red_free {
                break;
            }
            let pick = self
                .fair
                .pick(|t| self.next_task_for(t, map_free, red_free).is_some());
            let Some(t) = pick else { break };
            let (j, stage, idx) = self
                .next_task_for(t, map_free, red_free)
                .expect("candidate tenant has a task");
            self.dispatch(at, j, stage, idx);
        }
        self.preempt(at);
    }

    /// Evicts lower-priority running tasks to place higher-priority
    /// pending ones that found every slot of their kind occupied.
    fn preempt(&mut self, at: SimTime) {
        loop {
            let map_free = self.slots.first_free_map().is_some();
            let red_free = self.slots.least_loaded(false, TieBreak::LowIndex).is_some();
            // The stuck demand: the fair pick among tenants whose next
            // runnable task finds every slot of its kind occupied (a free
            // slot means fairness merely deferred it). Each probe scans
            // the tenant's live jobs, so the stages it finds are kept.
            let mut stuck: Vec<(usize, Stage)> = Vec::new();
            let pick = self.fair.pick(|t| {
                let Some((_, stage, _)) = self.next_task_for(t, true, true) else {
                    return false;
                };
                let free = if stage.is_map() { map_free } else { red_free };
                if !free {
                    stuck.push((t, stage));
                }
                !free
            });
            let Some(t) = pick else { break };
            let &(_, stage) = stuck
                .iter()
                .find(|&&(u, _)| u == t)
                .expect("the picked tenant was probed");
            let want_map = stage.is_map();
            let prio = self.fair.priority(t);
            if (0..self.live.len()).all(|u| self.fair.priority(u) >= prio) {
                break; // no tenant ranks below the stuck one
            }
            // Victim: a running same-kind task of a strictly
            // lower-priority tenant; lowest priority first, ties evict
            // the latest job then the highest task index — protects the
            // oldest work, and is deterministic. Only live jobs run tasks.
            debug_assert!(self.live_covers_running());
            let mut victim: Option<(u32, usize, Stage, usize)> = None;
            let mut victim_key: Option<(u32, std::cmp::Reverse<usize>, std::cmp::Reverse<usize>)> =
                None;
            for (u, live) in self.live.iter().enumerate() {
                let vprio = self.fair.priority(u);
                if vprio >= prio {
                    continue;
                }
                for &j in live {
                    let job = &self.jobs[j];
                    for vstage in [Stage::Map1, Stage::Red1, Stage::Map2, Stage::Red2] {
                        if vstage.is_map() != want_map {
                            continue;
                        }
                        let tasks = match vstage {
                            Stage::Map1 => &job.maps1,
                            Stage::Red1 => &job.reds1,
                            Stage::Map2 => &job.maps2,
                            Stage::Red2 => &job.reds2,
                        };
                        for (i, task) in tasks.iter().enumerate() {
                            if matches!(task.state, TState::Running { .. }) {
                                let key = (vprio, std::cmp::Reverse(j), std::cmp::Reverse(i));
                                if victim_key.is_none_or(|vk| key < vk) {
                                    victim_key = Some(key);
                                    victim = Some((vprio, j, vstage, i));
                                }
                            }
                        }
                    }
                }
            }
            let Some((_, vj, vstage, vi)) = victim else {
                break;
            };
            let vtenant = self.jobs[vj].tenant;
            let task = &mut self.jobs[vj].tasks(vstage)[vi];
            let TState::Running { node, .. } = task.state else {
                unreachable!("victim was running")
            };
            task.requeue();
            self.slots.release(vstage.is_map(), node);
            self.fair.release(vtenant);
            self.evictions += 1;
            self.retire_if_idle(vj);
            // The freed slot goes straight to the stuck tenant.
            let (j, stage, idx) = self
                .next_task_for(t, want_map, !want_map)
                .expect("stuck tenant still has the task");
            self.dispatch(at, j, stage, idx);
        }
    }

    fn task_done(&mut self, at: SimTime, j: usize, stage: Stage, idx: usize, attempt: u32) {
        let tenant = self.jobs[j].tenant;
        let task = &mut self.jobs[j].tasks(stage)[idx];
        if task.attempt != attempt {
            return; // a stale attempt: evicted or killed since
        }
        let TState::Running { node, started } = task.state else {
            return;
        };
        task.state = TState::Done { node };
        self.slots.release(stage.is_map(), node);
        self.fair.release(tenant);
        let (maps1, reds1) = self.shapes[j];
        let (kind, span, index) = match stage {
            Stage::Map1 => (TaskKind::Map, SpanKind::Map, idx),
            Stage::Red1 => (TaskKind::Reduce, SpanKind::SortReduce, idx),
            Stage::Map2 => (TaskKind::Map, SpanKind::Map, maps1 + idx),
            Stage::Red2 => (TaskKind::Reduce, SpanKind::SortReduce, reds1 + idx),
        };
        self.trace.push(
            Scope::task(j as u32, kind, index as u32, attempt, node as u32)
                .with_tenant(tenant as u32),
            TraceEvent::Span {
                kind: span,
                start: vt(started),
                end: vt(at),
            },
        );
        if self.jobs[j].complete() && self.jobs[j].done_at.is_none() {
            self.jobs[j].done_at = Some(at);
        }
        self.retire_if_idle(j);
        self.schedule(at);
    }

    fn submit(&mut self, at: SimTime, j: usize) {
        match self.fair.admit(self.jobs[j].tenant) {
            Ok(()) => {
                let live = &mut self.live[self.jobs[j].tenant];
                let k = live.partition_point(|&i| i < j);
                live.insert(k, j);
                self.schedule(at);
            }
            Err(reason) => self.jobs[j].rejected = Some(reason),
        }
    }

    /// Hadoop-style recovery, in dependency order: running work on the
    /// dead node re-queues; a dead stage-1 reducer whose handoff was
    /// not fully consumed restarts together with its running consumer;
    /// completed map output on any dead node re-runs while reducers of
    /// its stage still need it.
    fn fail_node(&mut self, at: SimTime, n: usize) {
        if !self.slots.alive[n] {
            return;
        }
        self.slots.fail_node(n);
        if !self.slots.any_alive() {
            self.failure = Some((
                at.as_secs_f64(),
                "every node has failed; service lost".to_string(),
            ));
            return;
        }
        let dead: Vec<bool> = self.slots.alive.iter().map(|&a| !a).collect();
        // Recovery is per job and its releases are counter decrements, so
        // tenant-major order is as good as index order; re-queueing never
        // completes a job, so the lists hold still.
        let live: Vec<usize> = self.live.iter().flatten().copied().collect();
        for j in live {
            if self.jobs[j].complete() {
                continue;
            }
            let tenant = self.jobs[j].tenant;
            // 1. Running tasks on the dead node die with it. The ledger
            // zeroed its slot counters; only the tenant's quota
            // accounting needs the release.
            for stage in [Stage::Map1, Stage::Red1, Stage::Map2, Stage::Red2] {
                for task in self.jobs[j].tasks(stage).iter_mut() {
                    if matches!(task.state, TState::Running { node, .. } if node == n) {
                        task.requeue();
                        self.fair.release(tenant);
                    }
                }
            }
            // 2. A dead stage-1 reducer with an unconsumed handoff
            // restarts; a consumer mid-read restarts with it.
            if self.jobs[j].chained {
                for r in 0..self.jobs[j].reds1.len() {
                    let lost = matches!(self.jobs[j].reds1[r].state,
                        TState::Done { node } if dead[node])
                        && !self.jobs[j].maps2[r].is_done();
                    if lost {
                        self.jobs[j].reds1[r].requeue();
                        let consumer = &mut self.jobs[j].maps2[r];
                        if let TState::Running { node, .. } = consumer.state {
                            consumer.requeue();
                            if self.slots.alive[node] {
                                self.slots.release(true, node);
                            }
                            self.fair.release(tenant);
                        }
                    }
                }
            }
            // 3. Completed map output on any dead node re-runs while the
            // reducers it feeds are unfinished.
            if !self.jobs[j].reds1.iter().all(SimTask::is_done) {
                for task in self.jobs[j].maps1.iter_mut() {
                    if matches!(task.state, TState::Done { node } if dead[node]) {
                        task.requeue();
                    }
                }
            }
            if self.jobs[j].chained && !self.jobs[j].reds2.iter().all(SimTask::is_done) {
                for task in self.jobs[j].maps2.iter_mut() {
                    if matches!(task.state, TState::Done { node } if dead[node]) {
                        task.requeue();
                    }
                }
            }
        }
        self.schedule(at);
    }
}

impl ServiceSimExecutor {
    /// Runs `jobs` through the simulated service under `params`,
    /// killing nodes per `faults`. Outcomes are in submission order.
    pub fn run<A, P>(
        app: &A,
        partitioner: &P,
        params: &ServiceParams,
        jobs: Vec<SimJobSpec<A>>,
        faults: &[Fault],
    ) -> MrResult<ServiceSimReport<A>>
    where
        A: Application,
        P: Partitioner<A::MapKey>,
    {
        params.validate()?;
        for (j, spec) in jobs.iter().enumerate() {
            if spec.tenant >= params.tenants.len() {
                return Err(MrError::InvalidConfig(format!(
                    "job {j} names tenant {} but the service has {}",
                    spec.tenant,
                    params.tenants.len()
                )));
            }
            if spec.reducers == 0 || spec.splits.is_empty() {
                return Err(MrError::InvalidConfig(format!(
                    "job {j} needs at least one split and one reducer"
                )));
            }
            if !(spec.submit_at_secs.is_finite() && spec.submit_at_secs >= 0.0) {
                return Err(MrError::InvalidConfig(format!(
                    "job {j} submit time must be finite and >= 0"
                )));
            }
        }
        let p = &params.cluster;
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0xC1A5_7E12);
        let node_factor: Vec<f64> = (0..p.nodes)
            .map(|_| hetero_factor(&mut rng, p.hetero_sigma))
            .collect();
        let mut queue = EventQueue::new();
        for (j, spec) in jobs.iter().enumerate() {
            queue.schedule(SimTime::from_secs_f64(spec.submit_at_secs), Ev::Submit(j));
        }
        for &(at, node) in faults {
            queue.schedule(SimTime::from_secs_f64(at), Ev::NodeFail(node));
        }
        let recs: Vec<JobRec> = jobs
            .iter()
            .map(|spec| {
                let stage2 = if spec.chained { spec.reducers } else { 0 };
                JobRec {
                    tenant: spec.tenant,
                    chained: spec.chained,
                    maps1: (0..spec.splits.len()).map(|_| SimTask::new()).collect(),
                    reds1: (0..spec.reducers).map(|_| SimTask::new()).collect(),
                    maps2: (0..stage2).map(|_| SimTask::new()).collect(),
                    reds2: (0..stage2).map(|_| SimTask::new()).collect(),
                    started: false,
                    done_at: None,
                    rejected: None,
                }
            })
            .collect();
        let mut sim = ServiceSim {
            p: params,
            slots: SlotLedger::new(p.nodes, p.map_slots, p.reduce_slots),
            node_factor,
            queue,
            shapes: jobs.iter().map(|s| (s.splits.len(), s.reducers)).collect(),
            jobs: recs,
            live: vec![Vec::new(); params.tenants.len()],
            fair: FairShare::new(&params.tenants, params.queue_cap)?,
            trace: TraceLog::default(),
            evictions: 0,
            failure: None,
        };
        while let Some((at, ev)) = sim.queue.pop() {
            if sim.failure.is_some() {
                break;
            }
            match ev {
                Ev::Submit(j) => sim.submit(at, j),
                Ev::Done {
                    job,
                    stage,
                    index,
                    attempt,
                } => sim.task_done(at, job, stage, index, attempt),
                Ev::NodeFail(n) => sim.fail_node(at, n),
            }
        }
        // Outputs: the same map → partition → barrier-reduce calls the
        // real engines run, once per completed job — byte-identical to a
        // solo run of the same job by construction.
        let outcomes = jobs
            .into_iter()
            .zip(&sim.jobs)
            .map(|(spec, rec)| {
                let output = if rec.done_at.is_some() {
                    analytic_output(app, partitioner, &spec)?
                } else {
                    Vec::new()
                };
                Ok(SimJobOutcome {
                    tenant: spec.tenant,
                    rejected: rec.rejected.clone(),
                    completed_at: rec.done_at.map(|t| t.as_secs_f64()),
                    output,
                })
            })
            .collect::<MrResult<Vec<_>>>()?;
        Ok(ServiceSimReport {
            jobs: outcomes,
            trace: sim.trace,
            evictions: sim.evictions,
            failure: sim.failure,
        })
    }
}

/// A job's output partitions: keyed records per reduce partition.
pub type JobPartitions<A> = Vec<Vec<(<A as Application>::OutKey, <A as Application>::OutValue)>>;

/// One job's records, computed with the core engine calls and nothing
/// from the schedule.
pub fn analytic_output<A, P>(
    app: &A,
    partitioner: &P,
    spec: &SimJobSpec<A>,
) -> MrResult<JobPartitions<A>>
where
    A: Application,
    P: Partitioner<A::MapKey>,
{
    let mut partitions: Vec<Vec<(A::MapKey, A::MapValue)>> =
        (0..spec.reducers).map(|_| Vec::new()).collect();
    {
        let mut emit = FnEmit(|k: A::MapKey, v: A::MapValue| {
            let part = partitioner.partition(&k, spec.reducers);
            partitions[part].push((k, v));
        });
        for split in &spec.splits {
            for (k, v) in split {
                app.map(k, v, &mut emit);
            }
        }
    }
    let mut counters = Counters::new();
    partitions
        .into_iter()
        .map(|records| reduce_partition_barrier(app, records, &mut counters))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::{Emit, HashPartitioner};

    struct CountApp;

    impl Application for CountApp {
        type InKey = u64;
        type InValue = String;
        type MapKey = String;
        type MapValue = u64;
        type OutKey = String;
        type OutValue = u64;
        type State = u64;
        type Shared = ();

        fn map(&self, _: &u64, value: &String, out: &mut dyn Emit<String, u64>) {
            for w in value.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }

        fn new_shared(&self) {}

        fn reduce_grouped(
            &self,
            key: &String,
            values: Vec<u64>,
            _: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            out.emit(key.clone(), values.iter().sum());
        }

        fn init(&self, _: &String) -> u64 {
            0
        }

        fn absorb(
            &self,
            _: &String,
            state: &mut u64,
            v: u64,
            _: &mut (),
            _: &mut dyn Emit<String, u64>,
        ) {
            *state += v;
        }

        fn merge(&self, _: &String, a: u64, b: u64) -> u64 {
            a + b
        }

        fn finalize(&self, key: String, state: u64, _: &mut (), out: &mut dyn Emit<String, u64>) {
            out.emit(key, state);
        }
    }

    fn splits(tag: usize, n: usize) -> Vec<Vec<(u64, String)>> {
        let vocab = ["alpha", "beta", "gamma", "delta", "epsilon"];
        (0..n)
            .map(|s| {
                (0..6)
                    .map(|l| {
                        (
                            (s * 6 + l) as u64,
                            format!("{} {}", vocab[(tag + s + l) % 5], vocab[(tag * 2 + l) % 5]),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn spec(tenant: usize, at: f64, tag: usize, chained: bool) -> SimJobSpec<CountApp> {
        SimJobSpec {
            tenant,
            submit_at_secs: at,
            splits: splits(tag, 4),
            reducers: 3,
            chained,
        }
    }

    #[test]
    fn contended_jobs_complete_with_solo_outputs() {
        let params = ServiceParams::new(2);
        let jobs: Vec<SimJobSpec<CountApp>> =
            (0..6).map(|i| spec(i % 2, 0.0, i, i % 3 == 0)).collect();
        let report =
            ServiceSimExecutor::run(&CountApp, &HashPartitioner, &params, jobs, &[]).unwrap();
        assert!(report.failure.is_none());
        for (i, job) in report.jobs.iter().enumerate() {
            assert!(job.completed_at.is_some(), "job {i} should complete");
            let solo =
                analytic_output(&CountApp, &HashPartitioner, &spec(i % 2, 0.0, i, false)).unwrap();
            assert_eq!(job.output, solo, "job {i} output must match solo bytes");
        }
        let per = report.per_tenant_secs();
        assert_eq!(per.len(), 2, "both tenants show up in the trace: {per:?}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let params = ServiceParams::new(2);
        let mk = || {
            let jobs: Vec<SimJobSpec<CountApp>> =
                (0..5).map(|i| spec(i % 2, i as f64, i, i == 2)).collect();
            ServiceSimExecutor::run(&CountApp, &HashPartitioner, &params, jobs, &[(30.0, 3)])
                .unwrap()
        };
        let (a, b) = (mk(), mk());
        let ends = |r: &ServiceSimReport<CountApp>| {
            r.jobs.iter().map(|j| j.completed_at).collect::<Vec<_>>()
        };
        assert_eq!(ends(&a), ends(&b));
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.evictions, b.evictions);
    }

    #[test]
    fn admission_quotas_reject_typed() {
        let mut params = ServiceParams::new(2)
            .tenant(0, TenantSpec::default().max_queued_jobs(1))
            .queue_cap(2);
        // Flood a 1-slot cluster so submissions pile up in the queue.
        params.cluster.nodes = 1;
        params.cluster.map_slots = 1;
        params.cluster.reduce_slots = 1;
        // Submission order on a saturated cluster: job 0 starts at once
        // (taking the only slot), job 1 waits in tenant 0's queue
        // (filling its quota of 1), job 2 overflows that quota, job 3
        // fills the global queue, job 4 overflows it.
        let jobs: Vec<SimJobSpec<CountApp>> = vec![
            spec(0, 0.0, 0, false),
            spec(0, 0.0, 1, false),
            spec(0, 0.0, 2, false), // tenant 0's queue quota is 1: rejected
            spec(1, 0.0, 3, false),
            spec(1, 0.0, 4, false), // global queue cap 2: rejected
        ];
        let report =
            ServiceSimExecutor::run(&CountApp, &HashPartitioner, &params, jobs, &[]).unwrap();
        assert!(matches!(
            report.jobs[2].rejected,
            Some(RejectReason::TenantQueueFull { tenant: 0, cap: 1 })
        ));
        assert!(matches!(
            report.jobs[4].rejected,
            Some(RejectReason::QueueFull { cap: 2 })
        ));
        for i in [0, 1, 3] {
            assert!(report.jobs[i].completed_at.is_some(), "job {i} admitted");
        }
    }
}
