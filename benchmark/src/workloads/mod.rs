//! The eight workloads. Each one generates its inputs from the seed,
//! computes an independent reference in set-up, and then runs *rounds*:
//! one complete execution of its unit of work, timed with the input
//! clone a by-value API forces made before the clock starts and the
//! output check made after it stops.

mod cache;
mod chain;
mod sim;
mod tenants;
mod wordcount;

use crate::inputs::Sizes;
use crate::spans::Spans;
use mr_core::counters::names;
use mr_core::{Counters, Engine, JobConfig, SpanKind, TraceLog, TracePolicy, TraceQuery};
use std::path::PathBuf;

/// Pool worker threads and concurrent map tasks every local workload
/// runs with: the reference box has two cores, and the load comes from
/// one more thread at most.
pub const WORKERS: usize = 2;

/// What a workload is built from.
pub struct Ctx {
    /// `--seed`; every generator mixes it with its own stream id.
    pub seed: u64,
    pub sizes: Sizes,
    /// This run's temp root; every `scratch_dir` lives under it.
    pub scratch: PathBuf,
}

/// One timed round.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Submit → complete-result seconds of every job of the round. A
    /// round that is one job has one entry, its wall time.
    pub latencies_s: Vec<f64>,
    /// Jobs attempted, and how many failed: returned `Err`, were refused
    /// admission, or produced output whose digest is not the reference's.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer observations the program's own trace and counters
    /// yield; filled by traced rounds only.
    pub observed: Layers,
}

impl Round {
    /// A round that is a single job.
    fn single(wall_s: f64, cpu_s: f64, ok: bool, observed: Layers) -> Round {
        Round {
            wall_s,
            cpu_s,
            latencies_s: vec![wall_s],
            attempted: 1,
            failed: u64::from(!ok),
            observed,
        }
    }
}

/// Per-layer metric values by name (names are listed in `crate::schema`).
pub type Layers = Vec<(&'static str, f64)>;

/// Untraced medians of the traced pass, for the layer metrics that are
/// defined against them.
pub struct Baseline {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Baseline {
    /// Share of the `WORKERS` cores an untraced round keeps busy: near 1
    /// the workload is CPU-bound, well below it tasks stall on each other.
    fn overlap(&self) -> f64 {
        self.cpu_s / (self.wall_s * WORKERS as f64)
    }
}

pub trait Workload {
    /// The workload's stated record count per round.
    fn records_per_round(&self) -> u64;

    /// Runs one round with the program's tracing off or on.
    fn round(&mut self, traced: bool) -> Round;

    /// Layer replays: pushes this workload's own record stream through
    /// each layer's public functions on one thread, a span around every
    /// call, and returns the per-layer metrics that yields.
    fn layers(&mut self, spans: &mut Spans, base: &Baseline) -> Layers;
}

/// A workload's name, the reason it exists, and its constructor
/// (input generation + reference computation, no warm-up).
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub build: fn(&Ctx) -> Box<dyn Workload>,
}

pub const ALL: [Spec; 8] = [
    Spec {
        name: "wc_pipeline",
        why: "the paper's path: map, route, batched shuffle and per-record absorb do all the work; sort, spill, codec, service, cache, simulator none",
        build: |c| Box::new(wordcount::WordCountJob::new(c, wordcount::Variant::Pipeline)),
    },
    Spec {
        name: "wc_barrier",
        why: "the paper's baseline: same input, sort+group dominates and the partial store is bypassed, so a store gain shows nothing and a sort gain only here",
        build: |c| Box::new(wordcount::WordCountJob::new(c, wordcount::Variant::Barrier)),
    },
    Spec {
        name: "wc_combined",
        why: "what a real aggregation runs: the map-side combiner fold does most of the work and the shuffle almost none, the mirror image of wc_pipeline",
        build: |c| Box::new(wordcount::WordCountJob::new(c, wordcount::Variant::Combined)),
    },
    Spec {
        name: "wc_spill",
        why: "paper 5.1: partial results outgrow memory, so the store layer does spill writes and a k-way merge instead of in-memory probes; codec carries it",
        build: |c| Box::new(wordcount::WordCountJob::new(c, wordcount::Variant::Spill)),
    },
    Spec {
        name: "chain_stream",
        why: "grep -> sort with a streaming handoff: the only workload where reducer output feeds a downstream map through the chain plumbing",
        build: |c| Box::new(chain::ChainJob::new(c)),
    },
    Spec {
        name: "tenants",
        why: "closed loop of 4 tenants x 8 outstanding small jobs on serve: admission, fair pick, pool step/park and per-job fixed cost dominate; record path is small",
        build: |c| Box::new(tenants::Tenants::new(c)),
    },
    Spec {
        name: "cache_churn",
        why: "result cache smaller than the working set with one hot job re-run between cold ones: hits, publishes and evictions all on the path",
        build: |c| Box::new(cache::CacheChurn::new(c)),
    },
    Spec {
        name: "sim_suite",
        why: "four cluster-simulator runs (single job both engines, chain, service): cluster/sim/net/dfs event loops do all the work, the local executor none",
        build: |c| Box::new(sim::SimSuite::new(c)),
    },
];

/// The job config every local workload starts from.
fn job_cfg(ctx: &Ctx, reducers: usize, engine: Engine) -> JobConfig {
    JobConfig::new(reducers)
        .engine(engine)
        .pool_workers(WORKERS)
        .trace(TracePolicy::Disabled)
        .scratch_dir(&ctx.scratch)
}

fn trace_policy(traced: bool) -> TracePolicy {
    if traced {
        TracePolicy::Enabled
    } else {
        TracePolicy::Disabled
    }
}

/// What a traced local run's own trace and counters say about the
/// executor: task span time by side (a reduce task's span runs from its
/// first batch to its last, parked time included) and shuffle volume.
fn local_observations(trace: &TraceLog, counters: &Counters) -> Layers {
    let q = TraceQuery::new(trace);
    let busy = |kind: SpanKind| -> f64 {
        q.spans_by_kind(kind)
            .iter()
            .map(|s| s.duration_secs())
            .sum()
    };
    let map = busy(SpanKind::Map);
    let reduce =
        busy(SpanKind::ShuffleReduce) + busy(SpanKind::SortReduce) + busy(SpanKind::Shuffle);
    vec![
        ("core.local.map_busy_s", map),
        ("core.local.reduce_busy_s", reduce),
        (
            "core.local.shuffle_batches",
            counters.get(names::SHUFFLE_BATCHES) as f64,
        ),
        (
            "core.local.shuffle_records",
            counters.get(names::SHUFFLE_RECORDS) as f64,
        ),
        ("trace.events", trace.len() as f64),
    ]
}
