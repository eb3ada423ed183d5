//! The simulated cluster executor and the real threaded executor must
//! produce identical job output for the same application and input — the
//! simulator runs real code, only its clock is virtual.

use barrier_mapreduce::apps::knn::KnnBarrierless;
use barrier_mapreduce::apps::{BlackScholes, WordCount};
use barrier_mapreduce::cluster::{ClusterParams, CostModel, FnInput, SimExecutor};
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{Engine, HashPartitioner, JobConfig};
use barrier_mapreduce::workloads::{KnnWorkload, PricingWorkload, TextWorkload};
use std::collections::BTreeMap;

fn small_cluster(seed: u64) -> ClusterParams {
    let mut p = ClusterParams::paper_testbed(seed);
    p.nodes = 5;
    p.map_slots = 2;
    p.reduce_slots = 2;
    p
}

#[test]
fn wordcount_sim_equals_local_both_engines() {
    let w = TextWorkload {
        seed: 3,
        vocab: 300,
        zipf_s: 1.0,
        lines_per_chunk: 50,
        words_per_line: 6,
    };
    let chunks = 10u64;
    let splits: Vec<Vec<(u64, String)>> = (0..chunks).map(|c| w.chunk(c)).collect();
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let cfg = JobConfig::new(4).engine(engine.clone());
        let local: BTreeMap<String, u64> = LocalRunner::new(4)
            .run(&WordCount, splits.clone(), &cfg)
            .unwrap()
            .into_sorted_output()
            .into_iter()
            .collect();
        let sim_report = SimExecutor::new(small_cluster(3)).run(
            &WordCount,
            &FnInput(|c| w.chunk(c)),
            chunks,
            &cfg,
            &CostModel::default_for_tests(),
            &HashPartitioner,
        );
        let sim: BTreeMap<String, u64> = sim_report
            .output
            .expect("sim completed")
            .into_sorted_output()
            .into_iter()
            .collect();
        assert_eq!(sim, local, "engine {engine:?}");
    }
}

#[test]
fn knn_sim_equals_local() {
    let w = KnnWorkload {
        seed: 5,
        experimental: 25,
        train_per_chunk: 80,
        value_range: 100_000,
    };
    let app = KnnBarrierless {
        k: 7,
        experimental: w.experimental_set(),
    };
    let chunks = 6u64;
    let splits: Vec<Vec<(u64, i64)>> = (0..chunks).map(|c| w.chunk(c)).collect();
    let cfg = JobConfig::new(3).engine(Engine::barrierless());
    let mut local = LocalRunner::new(4)
        .run(&app, splits, &cfg)
        .unwrap()
        .into_sorted_output();
    let mut sim = SimExecutor::new(small_cluster(5))
        .run(
            &app,
            &FnInput(|c| w.chunk(c)),
            chunks,
            &cfg,
            &CostModel::default_for_tests(),
            &HashPartitioner,
        )
        .output
        .expect("sim completed")
        .into_sorted_output();
    // Per-key neighbour sets are order-insensitive within a key.
    local.sort();
    sim.sort();
    assert_eq!(sim, local);
}

#[test]
fn blackscholes_sim_equals_local_to_fp_tolerance() {
    let w = PricingWorkload::new(11, 2_000);
    let chunks = 5u64;
    let splits: Vec<_> = (0..chunks).map(|c| w.chunk(c)).collect();
    let cfg = JobConfig::new(1).engine(Engine::barrierless());
    let local = LocalRunner::new(2)
        .run(&BlackScholes, splits, &cfg)
        .unwrap();
    let sim = SimExecutor::new(small_cluster(11))
        .run(
            &BlackScholes,
            &FnInput(|c| w.chunk(c)),
            chunks,
            &cfg,
            &CostModel::default_for_tests(),
            &HashPartitioner,
        )
        .output
        .expect("sim completed");
    let (_, (lm, ls, ln)) = local.partitions[0][0];
    let (_, (sm, ss, sn)) = sim.partitions[0][0];
    assert_eq!(ln, sn);
    // Different absorb order => different FP rounding; tolerance only.
    assert!((lm - sm).abs() < 1e-9, "{lm} vs {sm}");
    assert!((ls - ss).abs() < 1e-9);
}

#[test]
fn map_output_counters_match_between_executors() {
    let w = TextWorkload {
        seed: 8,
        vocab: 100,
        zipf_s: 1.0,
        lines_per_chunk: 30,
        words_per_line: 5,
    };
    let chunks = 4u64;
    let splits: Vec<Vec<(u64, String)>> = (0..chunks).map(|c| w.chunk(c)).collect();
    let cfg = JobConfig::new(2).engine(Engine::barrierless());
    let local = LocalRunner::new(2).run(&WordCount, splits, &cfg).unwrap();
    let sim = SimExecutor::new(small_cluster(8))
        .run(
            &WordCount,
            &FnInput(|c| w.chunk(c)),
            chunks,
            &cfg,
            &CostModel::default_for_tests(),
            &HashPartitioner,
        )
        .output
        .expect("completed");
    use barrier_mapreduce::core::counters::names;
    for name in [
        names::MAP_OUTPUT_RECORDS,
        names::REDUCE_INPUT_RECORDS,
        names::REDUCE_OUTPUT_RECORDS,
    ] {
        assert_eq!(
            local.counters.get(name),
            sim.counters.get(name),
            "counter {name}"
        );
    }
}

#[test]
fn chain_sim_equals_local_chain() {
    use barrier_mapreduce::apps::TopK;
    use barrier_mapreduce::cluster::ChainSimExecutor;
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{ChainSpec, HandoffMode, TracePolicy};
    let w = TextWorkload {
        seed: 13,
        vocab: 200,
        zipf_s: 1.0,
        lines_per_chunk: 40,
        words_per_line: 6,
    };
    let chunks = 8u64;
    let splits: Vec<Vec<(u64, String)>> = (0..chunks).map(|c| w.chunk(c)).collect();
    let top = TopK::new(10);
    let run = |handoff, e1: &Engine, e2: &Engine, t1, t2| {
        let spec = ChainSpec::new(vec![
            JobConfig::new(4).engine(e1.clone()).trace(t1),
            JobConfig::new(2).engine(e2.clone()).trace(t2),
        ])
        .handoff(handoff);
        let local = LocalRunner::new(4)
            .run_chain2(
                &WordCount,
                &top,
                splits.clone(),
                &spec,
                &HashPartitioner,
                &HashPartitioner,
            )
            .expect("local chain completed");
        let sim = ChainSimExecutor::new(small_cluster(13)).run_chain2(
            &WordCount,
            &top,
            &FnInput(|c| w.chunk(c)),
            chunks,
            &spec,
            &CostModel::default_for_tests(),
            &HashPartitioner,
            &HashPartitioner,
        );
        assert!(sim.outcome.is_completed(), "{:?}", sim.outcome);
        (local, sim)
    };
    let engines = [Engine::Barrier, Engine::barrierless()];
    let on = TracePolicy::Enabled;
    for handoff in [HandoffMode::Streaming, HandoffMode::Barrier] {
        // Same answer and the same records across the edge, whichever
        // engine runs either stage.
        for (e1, e2) in engines
            .iter()
            .flat_map(|a| engines.iter().map(move |b| (a, b)))
        {
            let (local, sim) = run(handoff, e1, e2, on, on);
            let what = format!("{handoff:?} {e1:?} -> {e2:?}");
            let sim_out = sim.output.expect("completed");
            assert_eq!(sim_out.partitions, local.output.partitions, "{what}");
            assert!(!sim_out.partitions.concat().is_empty(), "{what}");
            assert_eq!(
                sim_out.counters.get(names::CHAIN_HANDOFF_RECORDS),
                local.total_counters().get(names::CHAIN_HANDOFF_RECORDS),
                "{what}"
            );
        }
        // One gating rule for the chain's trace in both executors: every
        // stage must enable it.
        let off = TracePolicy::Disabled;
        for (t1, t2) in [(on, on), (on, off), (off, on), (off, off)] {
            let (local, sim) = run(handoff, &engines[1], &engines[1], t1, t2);
            let expect_trace = t1 == on && t2 == on;
            assert_eq!(!local.trace.is_empty(), expect_trace, "local {t1:?}/{t2:?}");
            assert_eq!(!sim.trace.is_empty(), expect_trace, "sim {t1:?}/{t2:?}");
        }
    }
}
