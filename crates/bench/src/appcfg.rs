//! Per-application experiment configurations.
//!
//! Each application gets a workload generator, a calibrated [`CostModel`]
//! and a runner. Calibration targets the paper's testbed observations
//! (§6): WordCount maps on 3 GB finish between ~50 s and ~155 s, the
//! barrier reduce tail is ~30% of the job, Sort's reduce side does almost
//! nothing, Black-Scholes maps are short but funnel everything into one
//! reducer, and so on. Simulated record counts are scaled down; byte
//! volumes are nominal.

use mr_apps::blackscholes::BlackScholes;
use mr_apps::ga::GeneticAlgorithm;
use mr_apps::knn::KnnBarrierless;
use mr_apps::lastfm::UniqueListens;
use mr_apps::sort::Sort;
use mr_apps::wordcount::WordCount;
use mr_cluster::{ClusterParams, CostModel, FnInput, SimExecutor, SimReport};
use mr_core::{Engine, HashPartitioner, JobConfig, MemoryPolicy};
use mr_workloads::{
    GaWorkload, KnnWorkload, LastFmWorkload, PricingWorkload, SortWorkload, TextWorkload,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// 64 MB chunks: GB → chunk count.
pub fn chunks_for_gb(gb: f64) -> u64 {
    ((gb * 1024.0) / 64.0).round().max(1.0) as u64
}

/// The paper's cluster (§6) with the given seed.
pub fn testbed(seed: u64) -> ClusterParams {
    ClusterParams::paper_testbed(seed)
}

static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir.
pub fn scratch() -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mr-bench-{}-{n}", std::process::id()))
}

/// Heap scaling for the WordCount memory experiments: maps the scaled-
/// down store footprint back to paper-scale JVM heap bytes, so Figure 5's
/// "240 MB threshold" and "~1.2 GB heap" are meaningful numbers.
pub const WC_HEAP_SCALE: f64 = 9200.0;

/// The paper's reducer heap limit (Figure 5's "maximum heap space").
pub const WC_HEAP_CAP: u64 = 1_200 << 20;

/// The paper's spill threshold in Figure 5(b).
pub const WC_SPILL_THRESHOLD: u64 = 240 << 20;

/// Condensed result of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct RunSummary {
    /// Job completion in simulated seconds (f64::NAN when failed).
    pub secs: f64,
    /// True when the job died (OOM).
    pub failed: bool,
    /// First map completion (mapper-slack start).
    pub first_map_done: f64,
    /// Last map completion.
    pub last_map_done: f64,
    /// Mapper slack (§3.2).
    pub mapper_slack: f64,
}

fn summarize<A: mr_core::Application>(r: &SimReport<A>) -> RunSummary {
    RunSummary {
        secs: r.outcome.completion_secs().unwrap_or(f64::NAN),
        failed: !r.outcome.is_completed(),
        first_map_done: r.first_map_done.as_secs_f64(),
        last_map_done: r.last_map_done.as_secs_f64(),
        mapper_slack: r.mapper_slack_secs(),
    }
}

// ------------------------------------------------------------- WordCount

/// WordCount workload: Zipf(1.0) text over a 50 k-word vocabulary.
pub fn wc_workload(seed: u64) -> TextWorkload {
    TextWorkload {
        seed,
        vocab: 50_000,
        zipf_s: 1.0,
        lines_per_chunk: 120,
        words_per_line: 8,
    }
}

/// WordCount cost model (Figure 4's timings: ~45 s maps, reduce tail
/// ~30% of the job at 3 GB / 40 reducers).
pub fn wc_costs() -> CostModel {
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

/// Runs WordCount at `gb` input with the given engine.
pub fn run_wordcount(gb: f64, reducers: usize, engine: Engine, seed: u64) -> SimReport<WordCount> {
    run_wordcount_with_combiner(
        gb,
        reducers,
        engine,
        seed,
        mr_core::CombinerPolicy::Disabled,
    )
}

/// Runs WordCount with an explicit map-side combining policy (the
/// `ablation_combiner` sweep's entry point).
pub fn run_wordcount_with_combiner(
    gb: f64,
    reducers: usize,
    engine: Engine,
    seed: u64,
    combiner: mr_core::CombinerPolicy,
) -> SimReport<WordCount> {
    run_wordcount_full(
        gb,
        reducers,
        engine,
        seed,
        combiner,
        mr_core::SnapshotPolicy::Disabled,
    )
}

/// Runs WordCount with a snapshot policy (the `fig_snapshot_accuracy` /
/// `ablation_snapshot` entry point).
pub fn run_wordcount_snapshotted(
    gb: f64,
    reducers: usize,
    engine: Engine,
    seed: u64,
    snapshots: mr_core::SnapshotPolicy,
) -> SimReport<WordCount> {
    run_wordcount_full(
        gb,
        reducers,
        engine,
        seed,
        mr_core::CombinerPolicy::Disabled,
        snapshots,
    )
}

/// The one WordCount setup every public variant delegates to.
fn run_wordcount_full(
    gb: f64,
    reducers: usize,
    engine: Engine,
    seed: u64,
    combiner: mr_core::CombinerPolicy,
    snapshots: mr_core::SnapshotPolicy,
) -> SimReport<WordCount> {
    let w = wc_workload(seed);
    let mut params = testbed(seed);
    params.combiner = combiner;
    let cfg = JobConfig::new(reducers)
        .engine(engine)
        .heap_scale(WC_HEAP_SCALE)
        .snapshots(snapshots)
        .scratch_dir(scratch());
    SimExecutor::new(params).run(
        &WordCount,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(gb),
        &cfg,
        &wc_costs(),
        &HashPartitioner,
    )
}

// ------------------------------------------------------------------ Sort

/// Sort workload: uniform u64 keys.
pub fn sort_workload(seed: u64) -> SortWorkload {
    SortWorkload {
        seed,
        records_per_chunk: 960,
        key_range: u64::MAX,
    }
}

/// Sort cost model: near-zero map/reduce work; the job is a race between
/// the framework merge sort and red-black-tree insertion (§6.1.1), which
/// the tree loses — `absorb_extra_per_record` is the insertion penalty.
pub fn sort_costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 4.0,
        shuffle_selectivity: 1.0,
        reduce_cpu_per_record: 5.0e-4,
        combine_cpu_per_record: 0.0,
        absorb_extra_per_record: 2.0e-3,
        kv_cpu_per_record: 0.30,
        sort_cpu_coeff: 1.0e-4,
        finalize_cpu_per_entry: 2.0e-3,
        snapshot_cpu_per_record: 1.0e-4,
        output_selectivity: 1.0,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

/// Runs Sort at `gb` input.
pub fn run_sort(gb: f64, reducers: usize, engine: Engine, seed: u64) -> SimReport<Sort> {
    let w = sort_workload(seed);
    let cfg = JobConfig::new(reducers)
        .engine(engine)
        .scratch_dir(scratch());
    SimExecutor::new(testbed(seed)).run(
        &Sort,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(gb),
        &cfg,
        &sort_costs(),
        &HashPartitioner,
    )
}

// ------------------------------------------------------------------- kNN

/// kNN workload: 400 distinct experimental values, 6 training values
/// per chunk (fan-out keeps the shuffle fat).
pub fn knn_workload(seed: u64) -> KnnWorkload {
    KnnWorkload {
        seed,
        experimental: 400,
        train_per_chunk: 6,
        value_range: 1_000_000,
    }
}

/// kNN cost model: compute-heavy maps (distance to every experimental
/// value), fat shuffle (fan-out × training records).
pub fn knn_costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 40.0,
        shuffle_selectivity: 1.2,
        reduce_cpu_per_record: 1.0e-3,
        combine_cpu_per_record: 2.0e-4,
        absorb_extra_per_record: 2.0e-4,
        kv_cpu_per_record: 0.10,
        sort_cpu_coeff: 1.2e-4,
        finalize_cpu_per_entry: 2.0e-3,
        snapshot_cpu_per_record: 2.0e-4,
        output_selectivity: 0.05,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

/// Runs barrier-less-formulation kNN (which both engines can execute) at
/// `gb` input.
pub fn run_knn(gb: f64, reducers: usize, engine: Engine, seed: u64) -> SimReport<KnnBarrierless> {
    run_knn_snapshotted(
        gb,
        reducers,
        engine,
        seed,
        mr_core::SnapshotPolicy::Disabled,
    )
    .1
}

/// Runs kNN with a snapshot policy, returning the app too (its
/// `snapshot_error` scores the estimates).
pub fn run_knn_snapshotted(
    gb: f64,
    reducers: usize,
    engine: Engine,
    seed: u64,
    snapshots: mr_core::SnapshotPolicy,
) -> (KnnBarrierless, SimReport<KnnBarrierless>) {
    let w = knn_workload(seed);
    let app = KnnBarrierless {
        k: 10,
        experimental: w.experimental_set(),
    };
    let cfg = JobConfig::new(reducers)
        .engine(engine)
        .snapshots(snapshots)
        .scratch_dir(scratch());
    let report = SimExecutor::new(testbed(seed)).run(
        &app,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(gb),
        &cfg,
        &knn_costs(),
        &HashPartitioner,
    );
    (app, report)
}

// ---------------------------------------------------------------- Last.fm

/// Last.fm workload: the paper's 50 users × 5000 tracks.
pub fn lastfm_workload(seed: u64) -> LastFmWorkload {
    LastFmWorkload {
        seed,
        users: 50,
        tracks: 5000,
        listens_per_chunk: 400,
    }
}

/// Last.fm cost model: light maps, set-insertion reduces.
pub fn lastfm_costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 25.0,
        shuffle_selectivity: 0.8,
        reduce_cpu_per_record: 6.0e-3,
        combine_cpu_per_record: 2.0e-3,
        absorb_extra_per_record: 0.0,
        kv_cpu_per_record: 0.20,
        sort_cpu_coeff: 2.5e-4,
        finalize_cpu_per_entry: 1.0e-3,
        snapshot_cpu_per_record: 1.0e-4,
        output_selectivity: 0.05,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

/// Runs Last.fm unique listens at `gb` input.
pub fn run_lastfm(gb: f64, reducers: usize, engine: Engine, seed: u64) -> SimReport<UniqueListens> {
    run_lastfm_snapshotted(
        gb,
        reducers,
        engine,
        seed,
        mr_core::SnapshotPolicy::Disabled,
    )
}

/// Runs Last.fm unique listens with a snapshot policy.
pub fn run_lastfm_snapshotted(
    gb: f64,
    reducers: usize,
    engine: Engine,
    seed: u64,
    snapshots: mr_core::SnapshotPolicy,
) -> SimReport<UniqueListens> {
    let w = lastfm_workload(seed);
    let cfg = JobConfig::new(reducers)
        .engine(engine)
        .snapshots(snapshots)
        .scratch_dir(scratch());
    SimExecutor::new(testbed(seed)).run(
        &UniqueListens,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(gb),
        &cfg,
        &lastfm_costs(),
        &HashPartitioner,
    )
}

// --------------------------------------------------------------------- GA

/// GA workload: 800 individuals per mapper slice (50 M nominal).
pub fn ga_workload(seed: u64) -> GaWorkload {
    GaWorkload::new(seed, 800)
}

/// GA cost model: heavy fitness maps, window reduces, full-volume output
/// ("performance is limited by the time spent writing intermediate data
/// … or the output", §6.1.5).
pub fn ga_costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 45.0,
        shuffle_selectivity: 1.0,
        reduce_cpu_per_record: 4.0e-3,
        combine_cpu_per_record: 0.0,
        absorb_extra_per_record: 0.0,
        kv_cpu_per_record: 0.10,
        sort_cpu_coeff: 6.0e-4,
        finalize_cpu_per_entry: 0.0,
        snapshot_cpu_per_record: 1.0e-4,
        output_selectivity: 1.0,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

/// Runs the GA with `mappers` input slices.
pub fn run_ga(
    mappers: u64,
    reducers: usize,
    engine: Engine,
    seed: u64,
) -> SimReport<GeneticAlgorithm> {
    let w = ga_workload(seed);
    let cfg = JobConfig::new(reducers)
        .engine(engine)
        .scratch_dir(scratch());
    SimExecutor::new(testbed(seed)).run(
        &GeneticAlgorithm::default(),
        &FnInput(move |c| w.chunk(c)),
        mappers,
        &cfg,
        &ga_costs(),
        &HashPartitioner,
    )
}

// ------------------------------------------------------------ Black-Scholes

/// Black-Scholes workload: 500 simulated iterations per mapper standing
/// in for the paper's 10⁶.
pub fn bs_workload(seed: u64) -> PricingWorkload {
    PricingWorkload::new(seed, 500)
}

/// Black-Scholes cost model: short maps, everything funnels into one
/// reducer whose barrier-mode sort over the entire stream is the cost
/// that the barrier-less version eliminates (§6.1.6).
pub fn bs_costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 3.0,
        shuffle_selectivity: 0.25,
        reduce_cpu_per_record: 4.0e-4,
        combine_cpu_per_record: 0.0,
        absorb_extra_per_record: 0.0,
        kv_cpu_per_record: 0.01,
        sort_cpu_coeff: 7.0e-5,
        finalize_cpu_per_entry: 0.0,
        snapshot_cpu_per_record: 1.0e-4,
        output_selectivity: 1e-6,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

/// Runs Black-Scholes with `mappers` Monte-Carlo tasks and one reducer.
pub fn run_bs(mappers: u64, engine: Engine, seed: u64) -> SimReport<BlackScholes> {
    let w = bs_workload(seed);
    let cfg = JobConfig::new(1).engine(engine).scratch_dir(scratch());
    SimExecutor::new(testbed(seed)).run(
        &BlackScholes,
        &FnInput(move |c| w.chunk(c)),
        mappers,
        &cfg,
        &bs_costs(),
        &HashPartitioner,
    )
}

// ----------------------------------------------------------- shared sweep

/// The six evaluated applications (Identity is omitted, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppId {
    /// §6.1.1 (Figure 6a).
    Sort,
    /// §6.1.2 (Figure 6b).
    WordCount,
    /// §6.1.3 (Figure 6c).
    Knn,
    /// §6.1.4 (Figure 6d).
    LastFm,
    /// §6.1.5 (Figure 6e).
    Ga,
    /// §6.1.6 (Figure 6f).
    Bs,
}

impl AppId {
    /// All six, in the paper's order.
    pub const ALL: [AppId; 6] = [
        AppId::Sort,
        AppId::WordCount,
        AppId::Knn,
        AppId::LastFm,
        AppId::Ga,
        AppId::Bs,
    ];

    /// Display name matching Figure 7's x labels.
    pub fn label(self) -> &'static str {
        match self {
            AppId::Sort => "Sort",
            AppId::WordCount => "WC",
            AppId::Knn => "KNN",
            AppId::LastFm => "PP",
            AppId::Ga => "GA",
            AppId::Bs => "BS",
        }
    }

    /// The x-axis sweep of the app's Figure 6 panel: input GB for the
    /// data-sized apps, mapper counts for GA and BS.
    pub fn sweep(self) -> Vec<f64> {
        match self {
            AppId::Ga => vec![30.0, 60.0, 120.0, 180.0, 240.0],
            AppId::Bs => vec![25.0, 50.0, 100.0, 150.0, 200.0],
            _ => vec![2.0, 4.0, 8.0, 12.0, 16.0],
        }
    }

    /// The x-axis caption of the app's panel.
    pub fn x_label(self) -> &'static str {
        match self {
            AppId::Ga => "number of mappers",
            AppId::Bs => "number of mappers (input size)",
            _ => "input data set (GB)",
        }
    }

    /// Runs the app at sweep point `x` under `engine`, returning a
    /// summary (completion seconds etc.).
    pub fn run(self, x: f64, engine: Engine, seed: u64) -> RunSummary {
        match self {
            AppId::Sort => summarize(&run_sort(x, 40, engine, seed)),
            AppId::WordCount => summarize(&run_wordcount(x, 40, engine, seed)),
            AppId::Knn => summarize(&run_knn(x, 40, engine, seed)),
            AppId::LastFm => summarize(&run_lastfm(x, 40, engine, seed)),
            AppId::Ga => summarize(&run_ga(x as u64, 40, engine, seed)),
            AppId::Bs => summarize(&run_bs(x as u64, engine, seed)),
        }
    }
}

/// The default barrier-less engine used across the figures.
pub fn barrierless() -> Engine {
    Engine::BarrierLess {
        memory: MemoryPolicy::InMemory,
    }
}

// ------------------------------------------------- memory-management runs

/// The four configurations compared in Figures 9 and 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTechnique {
    /// Classic engine (no partial results at all).
    Barrier,
    /// Barrier-less, complete TreeMap in memory, hard heap cap.
    InMemory,
    /// Barrier-less, disk spill and merge at the paper's 240 MB threshold.
    SpillMerge,
    /// Barrier-less, disk-spilling KV store (BerkeleyDB stand-in).
    KvStore,
}

impl MemTechnique {
    /// All four, in the paper's legend order.
    pub const ALL: [MemTechnique; 4] = [
        MemTechnique::KvStore,
        MemTechnique::Barrier,
        MemTechnique::SpillMerge,
        MemTechnique::InMemory,
    ];

    /// Legend label, matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            MemTechnique::Barrier => "With barrier",
            MemTechnique::InMemory => "In-memory",
            MemTechnique::SpillMerge => "Spill merge",
            MemTechnique::KvStore => "BerkeleyDB-style KV",
        }
    }
}

/// Runs WordCount at `gb` input under one of the Figure 9/10 techniques.
/// The in-memory technique carries the paper's reducer heap cap and can
/// fail; the result reports that as `failed`.
pub fn run_wc_technique(gb: f64, reducers: usize, technique: MemTechnique) -> RunSummary {
    let w = wc_workload(42);
    let engine = match technique {
        MemTechnique::Barrier => Engine::Barrier,
        MemTechnique::InMemory => Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        },
        MemTechnique::SpillMerge => Engine::BarrierLess {
            memory: MemoryPolicy::SpillMerge {
                threshold_bytes: WC_SPILL_THRESHOLD,
            },
        },
        MemTechnique::KvStore => Engine::BarrierLess {
            memory: MemoryPolicy::KvStore {
                cache_bytes: 64 << 10, // ~600 MB at the modelled scale
            },
        },
    };
    let mut cfg = JobConfig::new(reducers)
        .engine(engine)
        .heap_scale(WC_HEAP_SCALE)
        .scratch_dir(scratch());
    if technique == MemTechnique::InMemory {
        cfg.heap_cap_bytes = Some(WC_HEAP_CAP);
    }
    let report = SimExecutor::new(testbed(42)).run(
        &WordCount,
        &FnInput(move |c| w.chunk(c)),
        chunks_for_gb(gb),
        &cfg,
        &wc_costs(),
        &HashPartitioner,
    );
    summarize(&report)
}
