//! `SimCtx` — the simulated cluster a run executes on, and the one event
//! loop that drives it.
//!
//! Everything both executors share that is *not* a task table lives
//! here: the hardware (`Network`, per-node disks, `Dfs`), the scheduler's
//! ledger (`SlotLedger`, per-node speed factors), the virtual clock
//! (`EventQueue`, `now`), the run's `SimTracer`, the task-noise RNG and
//! the failure slot. [`Stage`](crate::stage::Stage) methods take a
//! `&mut SimCtx`; the owners (`Sim`, `ChainSim`) hold one `SimCtx` next
//! to their stages and implement [`Driver`] so [`run`] can arbitrate
//! between the event queue and the network for them.
//!
//! There is one [`Ev`]/[`Tag`] vocabulary. Events and flows that belong
//! to a stage's task machine are wrapped with the stage's job index
//! (`Ev::Task(job, ..)`, `Tag::Task(job, ..)`); the rest are cluster
//! events (`Schedule`, `NodeFail`, speculation ticks) or belong to one
//! owner (snapshot tick and deadline: single jobs; `ChainMapWork`,
//! `Handoff`, `ChainFetch`: the chain edge).

use crate::costs::CostModel;
use crate::params::ClusterParams;
use crate::placement::SlotLedger;
use crate::trace::SimTracer;
use mr_dfs::{ChunkId, Dfs, DfsConfig};
use mr_net::{Network, NetworkConfig, NodeId};
use mr_sim::{EventQueue, FifoResource, SimTime};
use mr_workloads::dist::hetero_factor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stage task events, `(task, attempt)`: the attempt stamp lets events
/// addressed to a killed attempt be ignored.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TaskEv {
    MapFetched(usize, u32),
    MapComputed(usize, u32),
    MapWritten(usize, u32),
    Batch(usize, u32),
    SortDone(usize, u32),
    GroupedDone(usize, u32),
    FinalizeDone(usize, u32),
    OutputPartDone(usize, u32),
    /// A backup map attempt's setup latency elapsed; issue its input read.
    MapBackupStart(usize, u32),
    /// A backup reduce attempt's setup latency elapsed; pull map output.
    RedBackupStart(usize, u32),
}

/// Events in the simulation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    Schedule,
    /// A task event of stage `job`.
    Task(u32, TaskEv),
    NodeFail(usize),
    /// Periodic straggler check (`SpeculationPolicy::Enabled`).
    SpecTick,
    /// A cancelled attempt's slot finishes teardown and frees. The bool
    /// distinguishes map (`true`) from reduce (`false`) slots.
    SpecSlotFree(usize, bool),
    /// Single jobs: global time-driven snapshot tick
    /// (`SnapshotPolicy::EverySecs`).
    SnapshotTick,
    /// Single jobs: the `DeadlinePolicy` expires.
    Deadline,
    /// Chains: downstream map `(task, attempt)` has CPU time for its
    /// next handed-off batch (or for re-checking completion).
    ChainMapWork(usize, u32),
}

/// Network flows of one stage's task machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TaskTag {
    /// Remote chunk fetch for map `(task, attempt)`.
    Fetch(usize, u32),
    /// Shuffle of map `map`'s partition for reducer `red`.
    Shuffle {
        map: usize,
        map_attempt: u32,
        red: usize,
        red_attempt: u32,
    },
    /// Output replica write for reducer `(task, attempt)`.
    Output(usize, u32, NodeId),
}

/// Network flow tags.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tag {
    /// A flow of stage `job`.
    Task(u32, TaskTag),
    /// Chains: upstream reducer `red`'s output records `start..end`
    /// bound for downstream map `map`.
    Handoff {
        red: usize,
        red_attempt: u32,
        map: usize,
        map_attempt: u32,
        start: usize,
        end: usize,
    },
    /// Chains, barrier handoff: materialized read of upstream partition
    /// `task`'s whole output by downstream map `(task, attempt)`.
    ChainFetch(usize, u32),
}

/// The cluster one run executes on.
pub(crate) struct SimCtx<'a> {
    pub p: &'a ClusterParams,
    pub costs: &'a CostModel,
    pub queue: EventQueue<Ev>,
    pub net: Network<Tag>,
    pub disks: Vec<FifoResource>,
    pub dfs: Dfs,
    pub slots: SlotLedger,
    pub node_factor: Vec<f64>,
    /// The run's unified trace recorder. Always records (recording costs
    /// no virtual time and speculation ticks query live spans); the
    /// effective trace policy gates only what the report exports.
    pub tracer: SimTracer,
    noise_rng: StdRng,
    pub failure: Option<(SimTime, String)>,
    pub now: SimTime,
}

impl<'a> SimCtx<'a> {
    /// Builds the cluster, ingests a `chunks`-chunk input file into its
    /// DFS and queues the first scheduling pass. Returns the context and
    /// the input's chunk ids.
    pub(crate) fn new(
        p: &'a ClusterParams,
        costs: &'a CostModel,
        chunks: u64,
    ) -> (Self, Vec<ChunkId>) {
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0xC1A5_7E12);
        let node_factor: Vec<f64> = (0..p.nodes)
            .map(|_| hetero_factor(&mut rng, p.hetero_sigma))
            .collect();
        let mut dfs = Dfs::new(
            DfsConfig {
                nodes: p.nodes,
                chunk_bytes: p.chunk_bytes,
                replication: p.replication,
            },
            p.seed,
        );
        let file = dfs.create_file("job-input", chunks * p.chunk_bytes);
        let chunk_ids = dfs.file_chunks(file).to_vec();
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Ev::Schedule);
        let ctx = SimCtx {
            net: Network::new(NetworkConfig {
                nodes: p.nodes,
                link_bytes_per_sec: p.link_bytes_per_sec,
                oversubscription: p.oversubscription,
            }),
            disks: (0..p.nodes)
                .map(|_| FifoResource::new(p.disk_bytes_per_sec))
                .collect(),
            slots: SlotLedger::new(p.nodes, p.map_slots, p.reduce_slots),
            noise_rng: StdRng::seed_from_u64(p.seed ^ 0x5EED_0F0F),
            p,
            costs,
            queue,
            dfs,
            node_factor,
            tracer: SimTracer::new(),
            failure: None,
            now: SimTime::ZERO,
        };
        (ctx, chunk_ids)
    }

    /// Queues the injected node failures, `(seconds, node index)` each.
    pub(crate) fn schedule_faults(&mut self, faults: &[(f64, usize)]) {
        for &(secs, node) in faults {
            self.queue
                .schedule(SimTime::from_secs_f64(secs), Ev::NodeFail(node));
        }
    }

    /// One draw of per-task duration noise.
    pub(crate) fn noise(&mut self) -> f64 {
        hetero_factor(&mut self.noise_rng, self.p.task_noise_sigma)
    }

    /// Which nodes a LATE-style scheduler calls slow: a throughput
    /// factor trailing the alive-node median by more than `slowdown`.
    pub(crate) fn slow_nodes(&self, slowdown: f64) -> Vec<bool> {
        let mut facs: Vec<f64> = (0..self.p.nodes)
            .filter(|&n| self.slots.alive[n])
            .map(|n| self.node_factor[n])
            .collect();
        facs.sort_by(|a, b| a.partial_cmp(b).expect("factors are finite"));
        let median_factor = facs.get(facs.len() / 2).copied().unwrap_or(1.0);
        self.node_factor
            .iter()
            .map(|&f| f > slowdown * median_factor)
            .collect()
    }

    /// Kills node `n` on the cluster side: ledger, network, DFS. Returns
    /// the tags of the flows the death cancelled, or `None` when the
    /// node was already dead or was the last one alive (the run — a
    /// `what` — is then failed: with nothing to recover onto it is gone,
    /// and saying so beats letting the queue drain into a bogus result).
    pub(crate) fn fail_node(&mut self, at: SimTime, n: usize, what: &str) -> Option<Vec<Tag>> {
        if !self.slots.alive[n] {
            return None;
        }
        self.slots.fail_node(n);
        if !self.slots.any_alive() {
            self.failure = Some((at, format!("every node has failed; {what} lost")));
            return None;
        }
        let cancelled = self.net.fail_node(at, NodeId(n as u32));
        // Chunks whose last replica died are re-ingested from the job's
        // input source onto surviving nodes (the workloads are
        // generated, so the source always exists); any map that still
        // needs such a chunk re-fetches from the restored replicas.
        for cid in self.dfs.fail_node(NodeId(n as u32)) {
            self.dfs.restore_chunk(cid);
        }
        Some(cancelled)
    }

    /// A cancelled speculative attempt's slot on node `n` frees.
    pub(crate) fn spec_slot_free(&mut self, at: SimTime, n: usize, is_map: bool) {
        if self.slots.alive[n] {
            let used = if is_map {
                &mut self.slots.map_used[n]
            } else {
                &mut self.slots.red_used[n]
            };
            *used = used.saturating_sub(1);
            self.queue.schedule(at, Ev::Schedule);
        }
    }
}

/// What an executor adds to the shared context: its handlers and its
/// notion of being done.
pub(crate) trait Driver<'a> {
    /// What is being simulated, for failure reasons: "job" or "chain".
    const WHAT: &'static str;
    fn ctx(&mut self) -> &mut SimCtx<'a>;
    /// Every task finished, or the run was cut short on purpose.
    fn finished(&self) -> bool;
    fn handle_event(&mut self, at: SimTime, ev: Ev);
    fn handle_flow(&mut self, at: SimTime, tag: Tag);
}

/// The event loop: whichever of the event queue and the network fires
/// next goes next (the queue first on a tie), until the driver is
/// finished or failed. A drained queue with unfinished tasks is a
/// failure, never a result.
pub(crate) fn run<'a, D: Driver<'a>>(driver: &mut D) {
    while !driver.finished() && driver.ctx().failure.is_none() {
        let ctx = driver.ctx();
        let tq = ctx.queue.peek_time();
        let tn = ctx.net.next_event_time();
        match (tq, tn) {
            (None, None) => {
                let reason = format!("{} simulation stalled before completion", D::WHAT);
                ctx.failure = Some((ctx.now, reason));
            }
            (Some(tq_at), tn_opt) if tn_opt.is_none_or(|tn_at| tq_at <= tn_at) => {
                let (at, ev) = ctx.queue.pop().expect("peeked");
                ctx.now = at;
                driver.handle_event(at, ev);
            }
            (_, Some(tn_at)) => {
                ctx.now = tn_at;
                for (_, tag) in ctx.net.advance_to(tn_at) {
                    driver.handle_flow(tn_at, tag);
                }
            }
            (Some(_), None) => unreachable!("guard above covers this"),
        }
    }
}
