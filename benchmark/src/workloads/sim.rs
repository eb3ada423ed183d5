//! `sim_suite`: four cluster-simulator runs back to back on the paper's
//! testbed — one WordCount job under each engine, a WordCount → TopK
//! streaming chain, and a multi-tenant service run. Only the clock is
//! simulated: map and reduce run for real on (scaled) records, so every
//! output has a reference, and completion times in simulated seconds
//! are exact and must not move between rounds.

use super::{trace_policy, Baseline, Ctx, Layers, Round, Workload};
use crate::inputs::{self, stream};
use crate::measure::timed;
use crate::oracle::{self, Digest};
use crate::spans::Spans;
use mr_apps::{TopK, WordCount};
use mr_cluster::{
    ChainSimExecutor, ClusterParams, CostModel, FnInput, ServiceParams, ServiceSimExecutor,
    SimExecutor, SimJobSpec,
};
use mr_core::counters::names;
use mr_core::{
    ChainSpec, CombinerPolicy, Engine, HandoffMode, HashPartitioner, JobConfig, SpeculationPolicy,
    TenantSpec,
};
use mr_dfs::{Dfs, DfsConfig};
use mr_net::{Network, NetworkConfig, NodeId};
use mr_sim::{EventQueue, PsResource, SimTime};
use mr_workloads::mix;
use std::path::PathBuf;

const REDUCERS: usize = 40;
const TOP_K: usize = 20;
const TENANTS: usize = 4;
const WEIGHTS: [u32; TENANTS] = [4, 2, 1, 1];
/// Simulated seconds between service-job submissions: about four fifths
/// of what the testbed's reduce slots can drain.
const SUBMIT_EVERY_SECS: f64 = 0.25;
/// The testbed's own seed (node speeds, placement, task noise). The
/// cluster is part of the set-up, not of the input: only the records
/// derive from `--seed`, so every seed simulates the same machines.
const TESTBED_SEED: u64 = 2010;

type Chunk = Vec<(u64, String)>;

/// WordCount's cost model on the paper's testbed (Figure 4: ~45 s maps,
/// the barrier's reduce tail ~30% of the job). Copied here so the
/// benchmark does not depend on `mr-bench`.
fn wc_costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 45.0,
        shuffle_selectivity: 1.0,
        reduce_cpu_per_record: 5.0e-4,
        combine_cpu_per_record: 2.0e-4,
        absorb_extra_per_record: 0.0,
        kv_cpu_per_record: 0.03,
        sort_cpu_coeff: 3.2e-4,
        finalize_cpu_per_entry: 1.0e-3,
        snapshot_cpu_per_record: 2.0e-4,
        output_selectivity: 0.5,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

/// The four runs' wall seconds, simulated completion seconds (single,
/// barrier, chain), trace sizes, and whether every output matched.
struct SuiteRun {
    wall_s: [f64; 4],
    cpu_s: f64,
    sim_secs: [f64; 3],
    trace_events: u64,
    failed: u64,
}

pub struct SimSuite {
    seed: u64,
    chunks: Vec<Chunk>,
    chain_chunks: u64,
    single_reference: Digest,
    chain_reference: Vec<(u64, (String, u64))>,
    service_inputs: Vec<Vec<Chunk>>,
    service_references: Vec<Digest>,
    records: u64,
    /// Simulated seconds of the first round; later rounds must repeat them.
    pinned_sim_secs: Option<[f64; 3]>,
    scratch: PathBuf,
}

impl SimSuite {
    pub fn new(ctx: &Ctx) -> Self {
        let s = &ctx.sizes;
        let seed = mix(ctx.seed, stream::SIM);
        // 64 MB-chunk stand-ins: 120 lines × 8 words over a 50 k-word vocabulary.
        let chunks = inputs::text_splits(seed, s.sim_chunks as usize, 120, 8, 50_000, 1.0);
        fn lines_of(chunks: &[Chunk]) -> impl Iterator<Item = &str> {
            chunks.iter().flatten().map(|(_, line)| line.as_str())
        }
        let counts = oracle::word_counts(lines_of(&chunks));
        let chain_counts = oracle::word_counts(lines_of(&chunks[..s.sim_chain_chunks as usize]));
        let chain_reference = oracle::top_k(&chain_counts, TOP_K)
            .into_iter()
            .enumerate()
            .map(|(i, entry)| (i as u64 + 1, entry))
            .collect();
        // Service jobs: two 10-line splits each.
        let mut service_splits =
            inputs::text_splits(mix(seed, 1), 2 * s.sim_service_jobs, 10, 6, 2_000, 1.0)
                .into_iter();
        let service_inputs: Vec<Vec<Chunk>> = (0..s.sim_service_jobs)
            .map(|_| service_splits.by_ref().take(2).collect())
            .collect();
        let records = 2 * inputs::word_count(&chunks)
            + inputs::word_count(&chunks[..s.sim_chain_chunks as usize])
            + service_inputs
                .iter()
                .map(|j| inputs::word_count(j))
                .sum::<u64>();
        SimSuite {
            seed,
            single_reference: oracle::digest_counts(counts.iter().map(|(w, c)| (*w, *c))),
            chain_reference,
            service_references: service_inputs
                .iter()
                .map(|j| oracle::word_count_digest(j))
                .collect(),
            service_inputs,
            chain_chunks: s.sim_chain_chunks,
            chunks,
            records,
            pinned_sim_secs: None,
            scratch: ctx.scratch.clone(),
        }
    }

    fn job_cfg(&self, reducers: usize, engine: Engine) -> JobConfig {
        JobConfig::new(reducers)
            .engine(engine)
            .scratch_dir(&self.scratch)
            .seed(self.seed)
    }

    fn service_jobs(&self) -> Vec<SimJobSpec<WordCount>> {
        self.service_inputs
            .iter()
            .enumerate()
            .map(|(j, splits)| SimJobSpec {
                tenant: j % TENANTS,
                submit_at_secs: j as f64 * SUBMIT_EVERY_SECS,
                splits: splits.clone(),
                reducers: 2,
                chained: j % 3 == 2,
            })
            .collect()
    }

    /// The four runs, each under both clocks and each checked against
    /// its reference after its own clock stops.
    fn run_suite(&self, traced: bool) -> SuiteRun {
        let trace = Some(trace_policy(traced));
        let costs = wc_costs();
        let input = FnInput(|c: u64| self.chunks[c as usize].clone());
        let mut run = SuiteRun {
            wall_s: [0.0; 4],
            cpu_s: 0.0,
            sim_secs: [0.0; 3],
            trace_events: 0,
            failed: 0,
        };

        // A straggler-prone cluster with speculation and combining on:
        // every branch of the one-job event loop has work.
        let mut params = ClusterParams::paper_testbed(TESTBED_SEED);
        params.hetero_sigma = 0.8;
        params.speculation = Some(SpeculationPolicy::enabled());
        params.combiner = CombinerPolicy::enabled();
        params.trace = trace;
        for (i, engine) in [Engine::barrierless(), Engine::Barrier]
            .into_iter()
            .enumerate()
        {
            let cfg = self.job_cfg(REDUCERS, engine);
            let (report, wall, cpu) = timed(|| {
                SimExecutor::new(params.clone()).run(
                    &WordCount,
                    &input,
                    self.chunks.len() as u64,
                    &cfg,
                    &costs,
                    &HashPartitioner,
                )
            });
            run.wall_s[i] = wall;
            run.cpu_s += cpu;
            run.trace_events += report.trace.len() as u64;
            run.sim_secs[i] = report.outcome.completion_secs().unwrap_or(-1.0);
            let ok = report.outcome.is_completed()
                && report.output.as_ref().is_some_and(|out| {
                    oracle::digest_partitions(&out.partitions) == self.single_reference
                        && out.counters.get(names::MAP_OUTPUT_RECORDS) > 0
                });
            run.failed += u64::from(!ok);
        }

        let mut chain_params = ClusterParams::paper_testbed(TESTBED_SEED);
        chain_params.trace = trace;
        let spec = ChainSpec::new(vec![
            self.job_cfg(8, Engine::barrierless()),
            self.job_cfg(2, Engine::barrierless()),
        ])
        .handoff(HandoffMode::Streaming);
        let (report, wall, cpu) = timed(|| {
            ChainSimExecutor::new(chain_params).run_chain2(
                &WordCount,
                &TopK::new(TOP_K),
                &input,
                self.chain_chunks,
                &spec,
                &costs,
                &HashPartitioner,
                &HashPartitioner,
            )
        });
        run.wall_s[2] = wall;
        run.cpu_s += cpu;
        run.trace_events += report.trace.len() as u64;
        run.sim_secs[2] = report.outcome.completion_secs().unwrap_or(-1.0);
        let ok = report.outcome.is_completed()
            && report.output.is_some_and(|out| {
                let mut ranked: Vec<_> = out.partitions.into_iter().flatten().collect();
                ranked.sort();
                ranked == self.chain_reference
            });
        run.failed += u64::from(!ok);

        let mut service = ServiceParams::new(TENANTS).queue_cap(self.service_inputs.len());
        service.cluster = ClusterParams::paper_testbed(TESTBED_SEED);
        for (t, weight) in WEIGHTS.into_iter().enumerate() {
            service = service.tenant(t, TenantSpec::new().weight(weight));
        }
        let jobs = self.service_jobs();
        let (report, wall, cpu) =
            timed(|| ServiceSimExecutor::run(&WordCount, &HashPartitioner, &service, jobs, &[]));
        run.wall_s[3] = wall;
        run.cpu_s += cpu;
        match report {
            Ok(report) => {
                run.trace_events += report.trace.len() as u64;
                let ok = report.failure.is_none()
                    && report.jobs.len() == self.service_references.len()
                    && report
                        .jobs
                        .iter()
                        .zip(&self.service_references)
                        .all(|(job, want)| {
                            job.rejected.is_none()
                                && job.completed_at.is_some()
                                && oracle::digest_partitions(&job.output) == *want
                        });
                run.failed += u64::from(!ok);
            }
            Err(e) => {
                eprintln!("service simulation failed: {e}");
                run.failed += 1;
            }
        }
        run
    }
}

impl Workload for SimSuite {
    fn records_per_round(&self) -> u64 {
        self.records
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut run = self.run_suite(traced);
        let pinned = *self.pinned_sim_secs.get_or_insert(run.sim_secs);
        if pinned != run.sim_secs {
            eprintln!(
                "simulated seconds moved between rounds: {pinned:?} -> {:?}",
                run.sim_secs
            );
            run.failed += 1;
        }
        let observed = if traced {
            vec![("cluster.trace_events", run.trace_events as f64)]
        } else {
            Vec::new()
        };
        Round {
            wall_s: run.wall_s.iter().sum(),
            cpu_s: run.cpu_s,
            latencies_s: run.wall_s.to_vec(),
            attempted: 4,
            failed: run.failed.min(4),
            observed,
        }
    }

    fn layers(&mut self, spans: &mut Spans, _base: &Baseline) -> Layers {
        let run = spans.span("cluster.suite", |_| self.run_suite(false));
        assert_eq!(
            run.failed, 0,
            "untraced layer run of the suite failed its oracle"
        );
        let mut layers: Layers = vec![
            ("cluster.single_s", run.wall_s[0]),
            ("cluster.barrier_s", run.wall_s[1]),
            ("cluster.chain_s", run.wall_s[2]),
            ("cluster.service_s", run.wall_s[3]),
            ("cluster.sim_secs_single", run.sim_secs[0]),
            ("cluster.sim_secs_barrier", run.sim_secs[1]),
            ("cluster.sim_secs_chain", run.sim_secs[2]),
        ];
        kernel_replays(spans, self.seed, &mut layers);
        layers
    }
}

/// The simulator's building blocks on their own: event queue, a
/// processor-sharing link, the 15-node network, DFS placement.
fn kernel_replays(spans: &mut Spans, seed: u64, layers: &mut Layers) {
    const NODES: usize = 15;
    let at = SimTime::from_micros;

    // EventQueue: a sliding window of 1 024 pending events, one
    // schedule and one pop per step.
    const QUEUE_OPS: u64 = 1_000_000;
    spans.span("sim.queue", |_| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..1_024 {
            q.schedule(at(mix(seed, i) % 1_000), i);
        }
        for i in 0..QUEUE_OPS / 2 {
            let (t, e) = q.pop().expect("window never drains");
            std::hint::black_box(e);
            q.schedule(at(t.as_micros() + 1 + mix(seed, i) % 1_000), i);
        }
    });
    layers.push((
        "sim.queue_op_ns",
        spans.self_secs("sim.queue") * 1e9 / QUEUE_OPS as f64,
    ));

    // PsResource: 64 flows sharing a link; each completion starts the next.
    const PS_FLOWS: u64 = 200_000;
    spans.span("sim.ps", |_| {
        let mut link = PsResource::new(125.0 * 1024.0 * 1024.0);
        let mut now = at(0);
        for i in 0..64 {
            link.add_flow(now, 1 + mix(seed, i) % (1 << 20));
        }
        let mut started = 64;
        while started < PS_FLOWS {
            now = link.next_completion().expect("flows in service");
            for _ in link.advance_to(now) {
                link.add_flow(now, 1 + mix(seed, started) % (1 << 20));
                started += 1;
            }
        }
    });
    layers.push((
        "sim.ps_flow_us",
        spans.self_secs("sim.ps") * 1e6 / PS_FLOWS as f64,
    ));

    // Network: shuffle-like all-to-all flows on the 15-node fabric.
    const NET_FLOWS: u64 = 100_000;
    spans.span("net.flows", |_| {
        let mut net: Network<u64> = Network::new(NetworkConfig::gigabit(NODES));
        let mut now = at(0);
        let mut started = 0u64;
        let start = |net: &mut Network<u64>, now: SimTime, started: &mut u64| {
            let src = (mix(seed, *started) % NODES as u64) as u32;
            let dst = (src + 1 + (mix(seed, !*started) % (NODES as u64 - 1)) as u32) % NODES as u32;
            net.start_flow(now, NodeId(src), NodeId(dst), 1 << 20, *started);
            *started += 1;
        };
        for _ in 0..4 * NODES {
            start(&mut net, now, &mut started);
        }
        while started < NET_FLOWS {
            now = net.next_event_time().expect("flows in flight");
            for _ in net.advance_to(now) {
                start(&mut net, now, &mut started);
            }
        }
    });
    layers.push((
        "net.flow_us",
        spans.self_secs("net.flows") * 1e6 / NET_FLOWS as f64,
    ));

    // Dfs: place a 64 K-chunk file, then pick a read source per chunk.
    const DFS_CHUNKS: u64 = 1 << 16;
    spans.span("dfs.place", |_| {
        let cfg = DfsConfig::paper_defaults(NODES);
        let bytes = DFS_CHUNKS * cfg.chunk_bytes;
        let mut dfs = Dfs::new(cfg, seed);
        let file = dfs.create_file("input", bytes);
        for (i, chunk) in dfs.file_chunks(file).iter().enumerate() {
            std::hint::black_box(dfs.read_source(*chunk, NodeId((i % NODES) as u32)));
        }
    });
    layers.push((
        "dfs.place_us",
        spans.self_secs("dfs.place") * 1e6 / DFS_CHUNKS as f64,
    ));
}
