//! The central correctness claim of the paper (§3.2): "since our
//! modifications were idempotent, the correctness and the completeness of
//! the MapReduce execution is not compromised."
//!
//! Property-based: for arbitrary inputs, every engine × memory-policy
//! combination must produce identical output — and, for combinable
//! applications, identical output with the map-side combiner on or off.

use barrier_mapreduce::apps::{Sort, TopK, UniqueListens, WordCount};
use barrier_mapreduce::cluster::{ClusterParams, CostModel, FnInput, SimExecutor};
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{
    ChainSpec, ChainableApplication, CombinerPolicy, Engine, HandoffMode, HashPartitioner,
    JobConfig, JobOutput, MemoryPolicy, SnapshotPolicy, SpeculationPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

static SERIAL: AtomicU64 = AtomicU64::new(0);

fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mr-eq-{}-{}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ))
}

fn all_engines() -> Vec<Engine> {
    vec![
        Engine::Barrier,
        Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        },
        Engine::BarrierLess {
            memory: MemoryPolicy::SpillMerge {
                threshold_bytes: 700,
            },
        },
        Engine::BarrierLess {
            memory: MemoryPolicy::KvStore { cache_bytes: 512 },
        },
    ]
}

/// Combiner settings swept against every engine: off, on with the
/// default budget, and on with a budget so small every push drains
/// (multiple partials per key cross the shuffle).
fn combiner_settings() -> Vec<CombinerPolicy> {
    vec![
        CombinerPolicy::Disabled,
        CombinerPolicy::enabled(),
        CombinerPolicy::Enabled { budget_bytes: 1 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wordcount_all_engines_agree(
        words in prop::collection::vec(prop::collection::vec("[a-e]{1,3}", 1..8), 1..12),
        reducers in 1usize..5,
    ) {
        let splits: Vec<Vec<(u64, String)>> = words
            .iter()
            .enumerate()
            .map(|(i, line)| vec![(i as u64, line.join(" "))])
            .collect();
        let mut reference: BTreeMap<String, u64> = BTreeMap::new();
        for line in &words {
            for w in line {
                *reference.entry(w.clone()).or_insert(0) += 1;
            }
        }
        // The pool axis: every width must agree with every other (the
        // worker pool multiplexes task state machines without touching
        // what they compute).
        for engine in all_engines() {
            for combiner in combiner_settings() {
                for workers in [1usize, 2, 4] {
                    let cfg = JobConfig::new(reducers)
                        .engine(engine.clone())
                        .combiner(combiner)
                        .pool_workers(workers)
                        .scratch_dir(scratch());
                    let out = LocalRunner::new(2).run(&WordCount, splits.clone(), &cfg).unwrap();
                    let got: BTreeMap<String, u64> =
                        out.into_sorted_output().into_iter().collect();
                    prop_assert_eq!(
                        &got, &reference,
                        "engine {:?} combiner {:?} workers {}",
                        engine, combiner, workers
                    );
                }
            }
        }
    }

    #[test]
    fn sort_all_engines_agree_and_are_sorted(
        keys in prop::collection::vec(0u64..50, 1..200),
    ) {
        let splits: Vec<Vec<(u64, u64)>> = keys
            .chunks(20)
            .map(|c| c.iter().enumerate().map(|(i, &k)| (i as u64, k)).collect())
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        for engine in all_engines() {
            let cfg = JobConfig::new(1)
                .engine(engine.clone())
                .scratch_dir(scratch());
            let out = LocalRunner::new(2).run(&Sort, splits.clone(), &cfg).unwrap();
            let got: Vec<u64> = out.partitions[0].iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(&got, &expect, "engine {:?}", engine);
        }
    }

    #[test]
    fn unique_listens_all_engines_agree(
        listens in prop::collection::vec((0u32..20, 0u32..15), 1..300),
    ) {
        let splits: Vec<Vec<(u64, (u32, u32))>> = listens
            .chunks(50)
            .map(|c| c.iter().enumerate().map(|(i, &l)| (i as u64, l)).collect())
            .collect();
        let mut sets: BTreeMap<u32, std::collections::HashSet<u32>> = BTreeMap::new();
        for &(user, track) in &listens {
            sets.entry(track).or_default().insert(user);
        }
        let reference: BTreeMap<u32, u64> =
            sets.into_iter().map(|(t, s)| (t, s.len() as u64)).collect();
        for engine in all_engines() {
            for combiner in combiner_settings() {
                let cfg = JobConfig::new(3)
                    .engine(engine.clone())
                    .combiner(combiner)
                    .scratch_dir(scratch());
                let out = LocalRunner::new(2)
                    .run(&UniqueListens, splits.clone(), &cfg)
                    .unwrap();
                let got: BTreeMap<u32, u64> = out.into_sorted_output().into_iter().collect();
                prop_assert_eq!(
                    &got, &reference,
                    "engine {:?} combiner {:?}", engine, combiner
                );
            }
        }
    }

    /// Snapshot determinism, swept across the whole matrix: for every
    /// engine × memory-policy × combiner combination,
    /// enabling snapshots — including the pathological every-1-record
    /// policy, which snapshots after *each* absorbed record — leaves the
    /// final output byte-identical to the snapshot-free run, and every
    /// published snapshot is key-sorted, duplicate-free and
    /// self-consistent (its counts never exceed the final counts, and a
    /// periodic run's last snapshot IS the final answer).
    #[test]
    fn snapshots_never_change_final_output_anywhere(
        words in prop::collection::vec(prop::collection::vec("[a-d]{1,3}", 1..8), 1..8),
        reducers in 1usize..4,
    ) {
        let splits: Vec<Vec<(u64, String)>> = words
            .iter()
            .enumerate()
            .map(|(i, line)| vec![(i as u64, line.join(" "))])
            .collect();
        for engine in all_engines() {
            for combiner in [CombinerPolicy::Disabled, CombinerPolicy::enabled()] {
                let run = |snapshots: SnapshotPolicy| {
                    let cfg = JobConfig::new(reducers)
                        .engine(engine.clone())
                        .combiner(combiner)
                        .snapshots(snapshots)
                        .scratch_dir(scratch());
                    LocalRunner::new(2).run(&WordCount, splits.clone(), &cfg).unwrap()
                };
                let plain = run(SnapshotPolicy::Disabled);
                let snapped = run(SnapshotPolicy::EveryRecords { records: 1 });
                prop_assert_eq!(
                    &plain.partitions, &snapped.partitions,
                    "snapshots changed output: {:?} {:?}", engine, combiner
                );
                prop_assert_eq!(plain.snapshot_count(), 0);
                prop_assert!(snapped.snapshot_count() > 0);
                for (r, snaps) in snapped.snapshots.iter().enumerate() {
                    let truth: BTreeMap<&String, u64> =
                        snapped.partitions[r].iter().map(|(k, v)| (k, *v)).collect();
                    for snap in snaps {
                        prop_assert_eq!(snap.reducer, r);
                        for pair in snap.estimate.windows(2) {
                            prop_assert!(
                                pair[0].0 < pair[1].0,
                                "unsorted/duplicated snapshot under {:?} {:?}", engine, combiner
                            );
                        }
                        for (word, count) in &snap.estimate {
                            let fin = truth.get(word).copied().unwrap_or(0);
                            prop_assert!(
                                *count <= fin,
                                "snapshot overcounts {} ({} > {})", word, count, fin
                            );
                        }
                    }
                    // Sequence numbers are strictly increasing.
                    for pair in snaps.windows(2) {
                        prop_assert!(pair[0].seq < pair[1].seq);
                    }
                    if engine != Engine::Barrier {
                        let last = snaps.last().expect("final snapshot");
                        prop_assert_eq!(&last.estimate, &snapped.partitions[r]);
                    }
                }
            }
        }
    }

    /// The chain invariant (ISSUE 5's acceptance sweep): for every
    /// chain-handoff mode × stage-engine × combiner
    /// combination, the chained `wordcount → top-k` output is
    /// byte-identical to running the same two jobs sequentially to
    /// completion by hand.
    #[test]
    fn chained_jobs_match_running_them_sequentially(
        words in prop::collection::vec(prop::collection::vec("[a-f]{1,3}", 1..8), 1..10),
        reducers in 1usize..4,
        k in 1usize..6,
    ) {
        let splits: Vec<Vec<(u64, String)>> = words
            .iter()
            .enumerate()
            .map(|(i, line)| vec![(i as u64, line.join(" "))])
            .collect();
        let topk = TopK::new(k);
        for engine in all_engines() {
            for combiner in [CombinerPolicy::Disabled, CombinerPolicy::enabled()] {
                let cfg1 = JobConfig::new(reducers)
                    .engine(engine.clone())
                    .combiner(combiner)
                    .scratch_dir(scratch());
                let cfg2 = JobConfig::new(2)
                    .engine(engine.clone())
                    .scratch_dir(scratch());
                // Sequential baseline: job 1 to completion, adapt,
                // job 2 to completion.
                let out1 = LocalRunner::new(2)
                    .run(&WordCount, splits.clone(), &cfg1)
                    .unwrap();
                let splits2: Vec<Vec<(String, u64)>> = out1
                    .partitions
                    .into_iter()
                    .map(|p| {
                        p.into_iter()
                            .map(|(w, c)| topk.adapt_input(w, c))
                            .collect()
                    })
                    .collect();
                let expect = LocalRunner::new(2)
                    .run(&topk, splits2, &cfg2)
                    .unwrap()
                    .partitions;
                // Pool widths sweep with the handoff mode: streaming
                // chains share one pool across both stages, so the
                // width axis exercises cross-stage multiplexing.
                for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
                    for workers in [1usize, 3] {
                        let spec = ChainSpec::new(vec![
                            cfg1.clone().pool_workers(workers),
                            cfg2.clone().pool_workers(workers),
                        ])
                        .handoff(handoff);
                        let got = LocalRunner::new(2)
                            .run_chain2(
                                &WordCount,
                                &topk,
                                splits.clone(),
                                &spec,
                                &HashPartitioner,
                                &HashPartitioner,
                            )
                            .unwrap();
                        prop_assert_eq!(
                            &got.output.partitions, &expect,
                            "chain {:?}/{}w diverged from sequential under {:?} {:?}",
                            handoff, workers, engine, combiner
                        );
                    }
                }
            }
        }
    }

    /// The byte-exact invariant, stated directly: for every engine ×
    /// store-policy combination, the *entire* output (keys and values,
    /// canonical order) with combining enabled equals the output with
    /// combining disabled — not merely "both match a reference".
    #[test]
    fn wordcount_combiner_on_off_byte_identical(
        words in prop::collection::vec(prop::collection::vec("[a-f]{1,4}", 1..10), 1..10),
        reducers in 1usize..4,
    ) {
        let splits: Vec<Vec<(u64, String)>> = words
            .iter()
            .enumerate()
            .map(|(i, line)| vec![(i as u64, line.join(" "))])
            .collect();
        for engine in all_engines() {
            let run = |combiner: CombinerPolicy| {
                let cfg = JobConfig::new(reducers)
                    .engine(engine.clone())
                    .combiner(combiner)
                    .scratch_dir(scratch());
                LocalRunner::new(2)
                    .run(&WordCount, splits.clone(), &cfg)
                    .unwrap()
                    .into_sorted_output()
            };
            let plain = run(CombinerPolicy::Disabled);
            for combiner in [
                CombinerPolicy::enabled(),
                CombinerPolicy::Enabled { budget_bytes: 1 },
            ] {
                let got = run(combiner);
                prop_assert_eq!(
                    &got, &plain,
                    "combiner {:?} changed output under {:?}",
                    combiner, engine
                );
            }
        }
    }
}

proptest! {
    // Each case spins a shared service pool per engine × width × tenant
    // combination, so a smaller case budget keeps this proportionate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The service-layer invariant: submitting arbitrary jobs through
    /// `serve` — any interleaving, any tenant assignment, any pool
    /// width — yields each job's output byte-identical to running that
    /// job alone. Contention, fair scheduling and queueing reshape the
    /// schedule, never the bytes.
    #[test]
    fn service_interleavings_match_solo_runs(
        jobs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec("[a-e]{1,3}", 1..6), 1..5),
            2..5,
        ),
        reducers in 1usize..4,
    ) {
        use barrier_mapreduce::core::{serve, ServiceConfig};
        let job_splits: Vec<Vec<Vec<(u64, String)>>> = jobs
            .iter()
            .map(|lines| {
                lines
                    .iter()
                    .enumerate()
                    .map(|(i, line)| vec![(i as u64, line.join(" "))])
                    .collect()
            })
            .collect();
        for engine in all_engines() {
            let cfg = |workers: usize| {
                JobConfig::new(reducers)
                    .engine(engine.clone())
                    .pool_workers(workers)
                    .scratch_dir(scratch())
            };
            // Solo baseline, one job at a time on a private runner.
            let solo: Vec<_> = job_splits
                .iter()
                .map(|s| {
                    LocalRunner::new(2)
                        .run(&WordCount, s.clone(), &cfg(2))
                        .unwrap()
                        .partitions
                })
                .collect();
            for workers in [1usize, 2, 4] {
                for tenants in [1usize, 3] {
                    let svc_cfg = ServiceConfig::new(tenants).pool_workers(workers);
                    let (outs, report) = serve(
                        &WordCount,
                        &HashPartitioner,
                        &svc_cfg,
                        |svc| -> Vec<_> {
                            // Submit everything up front — maximal
                            // overlap — then wait in submission order.
                            let handles: Vec<_> = job_splits
                                .iter()
                                .enumerate()
                                .map(|(i, s)| {
                                    svc.submit(i % tenants, s.clone(), &cfg(workers)).unwrap()
                                })
                                .collect();
                            handles.into_iter().map(|h| h.wait().unwrap()).collect()
                        },
                    )
                    .unwrap();
                    prop_assert_eq!(report.admitted, job_splits.len() as u64);
                    prop_assert_eq!(report.completed, job_splits.len() as u64);
                    for (i, out) in outs.iter().enumerate() {
                        prop_assert_eq!(
                            &out.partitions, &solo[i],
                            "job {} diverged from its solo run under {:?}, {} workers, {} tenants",
                            i, engine, workers, tenants
                        );
                    }
                }
            }
        }
    }

    /// Straggler mitigation must be answer-invisible: on a heterogeneous
    /// simulated cluster (where the speed trigger genuinely fires), every
    /// engine × combiner combination produces byte-identical
    /// partitions with speculation on and off — the backup race resolves
    /// before any output is written, so losers can never leak records.
    #[test]
    fn speculation_never_changes_output_anywhere(
        words in prop::collection::vec(prop::collection::vec("[a-e]{1,3}", 1..6), 4..10),
        reducers in 2usize..5,
        seed in 0u64..64,
    ) {
        let lines: Vec<String> = words.iter().map(|l| l.join(" ")).collect();
        let chunks = lines.len() as u64;
        for engine in all_engines() {
            for combiner in [CombinerPolicy::Disabled, CombinerPolicy::enabled()] {
                let run = |spec: SpeculationPolicy| {
                    let lines = lines.clone();
                    let mut params = ClusterParams::paper_testbed(seed);
                    params.nodes = 6;
                    params.map_slots = 2;
                    params.reduce_slots = 2;
                    params.hetero_sigma = 0.8;
                    let cfg = JobConfig::new(reducers)
                        .engine(engine.clone())
                        .combiner(combiner)
                        .speculation(spec)
                        .scratch_dir(scratch());
                    SimExecutor::new(params).run(
                        &WordCount,
                        &FnInput(move |c| vec![(c, lines[c as usize].clone())]),
                        chunks,
                        &cfg,
                        &CostModel::default_for_tests(),
                        &HashPartitioner,
                    )
                };
                let off = run(SpeculationPolicy::Disabled);
                let on = run(SpeculationPolicy::enabled());
                prop_assert!(off.outcome.is_completed());
                prop_assert!(on.outcome.is_completed());
                prop_assert_eq!(
                    &off.output.as_ref().expect("completed").partitions,
                    &on.output.as_ref().expect("completed").partitions,
                    "speculation changed output: {:?} {:?}",
                    engine, combiner
                );
            }
        }
    }
}

proptest! {
    // Each case runs the full engine × width matrix three times
    // (cold baseline, cold cached, warm cached), so a smaller case
    // budget keeps this proportionate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shared-result-cache determinism bar: for every engine ×
    /// pool-width combination, a *warm* cached run (its
    /// sealed job artifact already resident) produces partitions
    /// byte-identical to the cold run, which in turn is byte-identical
    /// to an uncached run — the cache changes `cache.*` counters and
    /// nothing else.
    #[test]
    fn warm_cached_runs_are_byte_identical_to_cold(
        words in prop::collection::vec(prop::collection::vec("[a-e]{1,3}", 1..6), 1..8),
        reducers in 1usize..4,
    ) {
        use barrier_mapreduce::core::counters::names;
        use barrier_mapreduce::core::{CacheBudget, SharedCache};
        let splits: Vec<Vec<(u64, String)>> = words
            .iter()
            .enumerate()
            .map(|(i, line)| vec![(i as u64, line.join(" "))])
            .collect();
        for engine in all_engines() {
            for workers in [1usize, 2, 4] {
                let cfg = JobConfig::new(reducers)
                    .engine(engine.clone())
                    .pool_workers(workers)
                    .cache(CacheBudget::enabled())
                    .scratch_dir(scratch());
                let uncached = LocalRunner::new(2)
                    .run(&WordCount, splits.clone(), &cfg)
                    .unwrap();
                let cache = SharedCache::new(64 << 20);
                let cold = LocalRunner::new(2)
                    .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
                    .unwrap();
                let warm = LocalRunner::new(2)
                    .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
                    .unwrap();
                prop_assert_eq!(
                    &cold.partitions, &uncached.partitions,
                    "cold cached run diverged: {:?} {}w", engine, workers
                );
                prop_assert_eq!(
                    &warm.partitions, &uncached.partitions,
                    "warm cached run diverged: {:?} {}w", engine, workers
                );
                prop_assert!(
                    cold.counters.get(names::CACHE_MISSES) > 0,
                    "cold run must miss"
                );
                prop_assert!(
                    warm.counters.get(names::CACHE_HITS) > 0,
                    "warm run must hit: {:?} {}w", engine, workers
                );
                prop_assert_eq!(warm.counters.get(names::CACHE_MISSES), 0);
            }
        }
    }

    /// Eviction pressure never corrupts answers: under a budget far too
    /// small to hold every artifact, repeated runs of several distinct
    /// jobs keep producing byte-identical output while the cache churns
    /// (evictions observed), and hits still occur whenever an artifact
    /// happens to survive.
    #[test]
    fn eviction_pressure_keeps_outputs_byte_identical(
        seed_words in prop::collection::vec(prop::collection::vec("[a-e]{1,3}", 2..6), 3..6),
        reducers in 1usize..3,
    ) {
        use barrier_mapreduce::core::{CacheBudget, SharedCache};
        // Several distinct jobs, each a rotation of the generated lines.
        let jobs: Vec<Vec<Vec<(u64, String)>>> = (0..4)
            .map(|rot| {
                seed_words
                    .iter()
                    .cycle()
                    .skip(rot)
                    .take(seed_words.len())
                    .enumerate()
                    .map(|(i, line)| vec![(i as u64, format!("{} r{rot}", line.join(" ")))])
                    .collect()
            })
            .collect();
        let cfg = JobConfig::new(reducers)
            .cache(CacheBudget::Limit { bytes: 600 })
            .scratch_dir(scratch());
        let baselines: Vec<_> = jobs
            .iter()
            .map(|s| {
                LocalRunner::new(2)
                    .run(&WordCount, s.clone(), &cfg)
                    .unwrap()
                    .partitions
            })
            .collect();
        // A cache that cannot hold everything at once.
        let cache = SharedCache::new(600);
        for round in 0..3 {
            for (i, splits) in jobs.iter().enumerate() {
                let out = LocalRunner::new(2)
                    .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
                    .unwrap();
                prop_assert_eq!(
                    &out.partitions, &baselines[i],
                    "round {} job {} diverged under eviction pressure", round, i
                );
                prop_assert!(cache.used_bytes() <= cache.budget_bytes());
            }
        }
        let stats = cache.stats();
        prop_assert!(
            stats.evictions > 0 || stats.oversize > 0,
            "budget of 600 bytes must churn: {:?}", stats
        );
    }
}

/// The service-level sharing story: two tenants submitting the *same*
/// computation share one service-owned cache — the first run publishes,
/// the second tenant's identical job hits (whole-job artifact) and
/// returns byte-identical output, with the hit visible both in its
/// counters and in its tenant-stamped `CacheMark` trace events.
#[test]
fn tenants_share_cache_hits_through_the_service() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{serve, CacheBudget, ServiceConfig, TraceQuery};
    let splits: Vec<Vec<(u64, String)>> = (0..4)
        .map(|s| {
            (0..6)
                .map(|l| (l as u64, format!("tok{} tok{}", (s + l) % 5, l % 3)))
                .collect()
        })
        .collect();
    let job_cfg = JobConfig::new(3).cache(CacheBudget::enabled());
    let svc_cfg = ServiceConfig::new(2)
        .pool_workers(2)
        .cache(CacheBudget::Limit { bytes: 32 << 20 });
    let (outs, _) = serve(&WordCount, &HashPartitioner, &svc_cfg, |svc| {
        // Sequential waits pin the order: tenant 0 publishes, tenant 1 hits.
        let first = svc
            .submit(0, splits.clone(), &job_cfg)
            .unwrap()
            .wait()
            .unwrap();
        let second = svc
            .submit(1, splits.clone(), &job_cfg)
            .unwrap()
            .wait()
            .unwrap();
        vec![first, second]
    })
    .unwrap();
    assert_eq!(
        outs[0].partitions, outs[1].partitions,
        "shared hit must not change bytes"
    );
    assert!(
        outs[0].counters.get(names::CACHE_MISSES) > 0,
        "first run computes"
    );
    assert_eq!(outs[0].counters.get(names::CACHE_HITS), 0);
    assert!(
        outs[1].counters.get(names::CACHE_HITS) >= 1,
        "second tenant hits"
    );
    assert_eq!(
        outs[1].counters.get(names::CACHE_MISSES),
        0,
        "whole-job artifact hit"
    );
    assert_eq!(
        outs[1].counters.get(names::MAP_OUTPUT_RECORDS),
        0,
        "a whole-job hit maps nothing"
    );
    // The hit is attributed to the right tenant in the trace.
    let q = TraceQuery::new(&outs[1].trace);
    let marks = q.tenant_cache_marks(1);
    assert!(
        !marks.is_empty(),
        "hit run records a tenant-stamped CacheMark"
    );
    assert!(marks.iter().any(|&(_, hits, _, _)| hits >= 1));
    let q0 = TraceQuery::new(&outs[0].trace);
    assert!(
        q0.tenant_cache_marks(1).is_empty(),
        "no cross-tenant mark leakage"
    );
    assert!(!q0.tenant_cache_marks(0).is_empty());
}

/// Review regression: the application *instance* is part of the cache
/// key. Two `Grep`s with different patterns over the same input, sharing
/// one cache, must each keep producing their own output — a warm run
/// must never serve the other configuration's artifacts.
#[test]
fn parameterized_instances_never_share_artifacts() {
    use barrier_mapreduce::apps::Grep;
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{CacheBudget, SharedCache};
    let splits: Vec<Vec<(u64, String)>> = (0..3)
        .map(|s| {
            (0..5)
                .map(|l| {
                    let tag = if (s + l) % 2 == 0 { "foo" } else { "bar" };
                    (l as u64, format!("line{s}{l} {tag}"))
                })
                .collect()
        })
        .collect();
    let cfg = JobConfig::new(2).cache(CacheBudget::enabled());
    let runner = LocalRunner::new(2);
    let foo = Grep::new("foo");
    let bar = Grep::new("bar");
    let foo_base = runner.run(&foo, splits.clone(), &cfg).unwrap();
    let bar_base = runner.run(&bar, splits.clone(), &cfg).unwrap();
    assert_ne!(
        foo_base.partitions, bar_base.partitions,
        "patterns must select different lines for this test to bite"
    );
    let cache = SharedCache::new(16 << 20);
    let foo_cold = runner
        .run_cached(&foo, splits.clone(), &cfg, &HashPartitioner, &cache)
        .unwrap();
    let bar_cold = runner
        .run_cached(&bar, splits.clone(), &cfg, &HashPartitioner, &cache)
        .unwrap();
    assert_eq!(foo_cold.partitions, foo_base.partitions);
    assert_eq!(bar_cold.partitions, bar_base.partitions);
    assert_eq!(
        bar_cold.counters.get(names::CACHE_HITS),
        0,
        "bar must not hit foo's artifacts"
    );
    let foo_warm = runner
        .run_cached(&foo, splits.clone(), &cfg, &HashPartitioner, &cache)
        .unwrap();
    let bar_warm = runner
        .run_cached(&bar, splits, &cfg, &HashPartitioner, &cache)
        .unwrap();
    assert_eq!(foo_warm.partitions, foo_base.partitions);
    assert_eq!(bar_warm.partitions, bar_base.partitions);
    assert!(foo_warm.counters.get(names::CACHE_HITS) > 0);
    assert!(bar_warm.counters.get(names::CACHE_HITS) > 0);
}

/// A parameterized app *without* a `cache_identity` override cannot be
/// keyed safely: cached entry points run it correctly but bypass the
/// cache, surfacing the bypass as `cache.bypass.count`.
#[test]
fn unkeyed_parameterized_apps_bypass_the_cache() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{Application, CacheBudget, Emit, SharedCache};

    struct NeedleTally {
        needle: String,
    }
    impl Application for NeedleTally {
        type InKey = u64;
        type InValue = String;
        type MapKey = String;
        type MapValue = u64;
        type OutKey = String;
        type OutValue = u64;
        type State = u64;
        type Shared = ();
        fn map(&self, _k: &u64, v: &String, out: &mut dyn Emit<String, u64>) {
            if v.contains(&self.needle) {
                out.emit(self.needle.clone(), 1);
            }
        }
        fn new_shared(&self) {}
        fn reduce_grouped(
            &self,
            key: &String,
            values: Vec<u64>,
            _s: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            out.emit(key.clone(), values.iter().sum());
        }
        fn init(&self, _k: &String) -> u64 {
            0
        }
        fn absorb(
            &self,
            _k: &String,
            st: &mut u64,
            v: u64,
            _s: &mut (),
            _o: &mut dyn Emit<String, u64>,
        ) {
            *st += v;
        }
        fn merge(&self, _k: &String, a: u64, b: u64) -> u64 {
            a + b
        }
        fn finalize(&self, k: String, st: u64, _s: &mut (), out: &mut dyn Emit<String, u64>) {
            out.emit(k, st);
        }
        // Deliberately NO cache_identity override.
    }

    let splits: Vec<Vec<(u64, String)>> = vec![vec![
        (0, "a foo b".into()),
        (1, "c bar d".into()),
        (2, "e foo f".into()),
    ]];
    let cfg = JobConfig::new(2).cache(CacheBudget::enabled());
    let runner = LocalRunner::new(2);
    let app = NeedleTally {
        needle: "foo".into(),
    };
    let baseline = runner.run(&app, splits.clone(), &cfg).unwrap();
    let cache = SharedCache::new(16 << 20);
    for _ in 0..2 {
        let out = runner
            .run_cached(&app, splits.clone(), &cfg, &HashPartitioner, &cache)
            .unwrap();
        assert_eq!(out.partitions, baseline.partitions);
        assert_eq!(out.counters.get(names::CACHE_BYPASS), 1, "typed bypass");
        assert_eq!(out.counters.get(names::CACHE_HITS), 0);
        assert_eq!(out.counters.get(names::CACHE_MISSES), 0);
    }
    assert!(
        cache.is_empty(),
        "nothing may be published under an incomplete key"
    );
}

/// The deterministic shape of a run's snapshot stream: per reducer, each
/// snapshot's `(seq, records_absorbed)`. `EveryRecords` fires on the
/// record stream alone, so this is the same for every run of one job;
/// the estimates' contents depend on arrival order, and `at_secs` on
/// the clock.
fn snapshot_stream(out: &JobOutput<WordCount>) -> Vec<Vec<(u64, u64)>> {
    out.snapshots
        .iter()
        .map(|snaps| snaps.iter().map(|s| (s.seq, s.records_absorbed)).collect())
        .collect()
}

/// Review regression: a job with an enabled snapshot policy must keep
/// publishing its snapshot stream on every run. A whole-job hit skips
/// the run, and with it every snapshot, so such jobs bypass the cache:
/// they run uncached, publish nothing and count `cache.bypass.count`.
#[test]
fn snapshot_jobs_keep_snapshots_on_warm_runs() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{CacheBudget, SharedCache};
    let splits: Vec<Vec<(u64, String)>> = (0..3)
        .map(|s| {
            (0..10)
                .map(|l| (l as u64, format!("w{} w{} w{}", (s + l) % 7, l % 5, l % 3)))
                .collect()
        })
        .collect();
    let cfg = JobConfig::new(2)
        .engine(Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        })
        .snapshots(SnapshotPolicy::EveryRecords { records: 4 })
        .cache(CacheBudget::enabled());
    let runner = LocalRunner::new(2);
    let uncached = runner.run(&WordCount, splits.clone(), &cfg).unwrap();
    let cache = SharedCache::new(16 << 20);
    let cold = runner
        .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
        .unwrap();
    let warm = runner
        .run_cached(&WordCount, splits, &cfg, &HashPartitioner, &cache)
        .unwrap();
    assert!(uncached.snapshot_count() > 0, "the job publishes snapshots");
    for (what, out) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(out.partitions, uncached.partitions, "{what}: bytes");
        assert_eq!(
            snapshot_stream(out),
            snapshot_stream(&uncached),
            "{what}: the snapshot stream must not change"
        );
        assert_eq!(out.counters.get(names::CACHE_BYPASS), 1, "{what}");
        assert_eq!(out.counters.get(names::CACHE_HITS), 0, "{what}");
    }
    assert!(cache.is_empty(), "a snapshot job published an artifact");
}

/// Same gate through the service: a snapshot-enabled job submitted by a
/// second tenant after a first tenant ran it bypasses the shared cache
/// too, so both keep their snapshot streams and nothing is shared — the
/// same job without snapshots, which keys identically, then misses.
#[test]
fn service_snapshot_jobs_keep_snapshots_on_shared_hits() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{serve, CacheBudget, ServiceConfig};
    let splits: Vec<Vec<(u64, String)>> = (0..3)
        .map(|s| {
            (0..10)
                .map(|l| (l as u64, format!("tok{} tok{}", (s + l) % 5, l % 3)))
                .collect()
        })
        .collect();
    let job_cfg = JobConfig::new(2)
        .engine(Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        })
        .snapshots(SnapshotPolicy::EveryRecords { records: 4 })
        .cache(CacheBudget::enabled());
    let uncached = LocalRunner::new(1)
        .run(&WordCount, splits.clone(), &job_cfg.clone().pool_workers(1))
        .unwrap();
    let svc_cfg = ServiceConfig::new(2)
        .pool_workers(2)
        .cache(CacheBudget::Limit { bytes: 32 << 20 });
    let plain_cfg = job_cfg.clone().snapshots(SnapshotPolicy::Disabled);
    let (outs, _) = serve(&WordCount, &HashPartitioner, &svc_cfg, |svc| {
        [(0, &job_cfg), (1, &job_cfg), (1, &plain_cfg)].map(|(tenant, cfg)| {
            svc.submit(tenant, splits.clone(), cfg)
                .unwrap()
                .wait()
                .unwrap()
        })
    })
    .unwrap();
    let [first, second, plain] = outs;
    assert!(uncached.snapshot_count() > 0);
    for (tenant, out) in [&first, &second].into_iter().enumerate() {
        assert_eq!(out.partitions, uncached.partitions, "tenant {tenant}");
        assert_eq!(
            snapshot_stream(out),
            snapshot_stream(&uncached),
            "tenant {tenant} keeps its snapshot stream"
        );
        assert_eq!(out.counters.get(names::CACHE_BYPASS), 1, "tenant {tenant}");
        assert_eq!(out.counters.get(names::CACHE_HITS), 0, "tenant {tenant}");
    }
    assert_eq!(plain.partitions, uncached.partitions);
    assert_eq!(
        (
            plain.counters.get(names::CACHE_HITS),
            plain.counters.get(names::CACHE_MISSES)
        ),
        (0, 1),
        "the snapshot runs left the cache empty"
    );
}

/// Review regression: a job that dies mid-run (reducer OOM kills the
/// shuffle) must publish nothing — in particular no truncated or
/// misrouted output for healthy future runs to hit.
#[test]
fn failed_jobs_never_poison_the_shared_cache() {
    use barrier_mapreduce::core::{CacheBudget, SharedCache};
    let splits: Vec<Vec<(u64, String)>> = (0..4)
        .map(|s| {
            (0..100)
                .map(|l| (l as u64, format!("w{} w{} w{}", (s + l) % 7, l % 5, l % 3)))
                .collect()
        })
        .collect();
    let engine = Engine::BarrierLess {
        memory: MemoryPolicy::InMemory,
    };
    // The heap cap and batch size are deliberately NOT part of the cache
    // key (outputs are deterministic across them), so anything a dying
    // run published would be visible to the healthy run below.
    let sick = JobConfig::new(2)
        .engine(engine.clone())
        .heap_cap(200)
        .shuffle_batch_bytes(1)
        .cache(CacheBudget::enabled())
        .scratch_dir(scratch());
    let healthy = JobConfig::new(2)
        .engine(engine)
        .cache(CacheBudget::enabled())
        .scratch_dir(scratch());
    let runner = LocalRunner::new(4);
    let baseline = runner.run(&WordCount, splits.clone(), &healthy).unwrap();
    let cache = SharedCache::new(16 << 20);
    for _ in 0..3 {
        let err = runner.run_cached(&WordCount, splits.clone(), &sick, &HashPartitioner, &cache);
        assert!(err.is_err(), "the 200-byte heap cap must OOM the job");
    }
    assert!(cache.is_empty(), "a failed job published an artifact");
    let warm = runner
        .run_cached(&WordCount, splits, &healthy, &HashPartitioner, &cache)
        .unwrap();
    assert_eq!(warm.partitions, baseline.partitions);
}

/// One artifact per cacheable job: a cold cached run of a multi-split
/// job publishes exactly one resident entry and charges exactly one
/// miss, under both engines and through the service; the re-run is one
/// whole-job hit that maps nothing.
#[test]
fn cold_cached_jobs_publish_one_artifact() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{serve, CacheBudget, ServiceConfig, SharedCache};
    let splits: Vec<Vec<(u64, String)>> = (0..5)
        .map(|s| {
            (0..8)
                .map(|l| (l as u64, format!("w{} w{}", (s + l) % 7, l % 3)))
                .collect()
        })
        .collect();
    let check = |what: &str, cold: &JobOutput<WordCount>, warm: &JobOutput<WordCount>| {
        assert_eq!(cold.counters.get(names::CACHE_MISSES), 1, "{what}: cold");
        assert_eq!(cold.counters.get(names::CACHE_HITS), 0, "{what}: cold");
        assert_eq!(cold.counters.get(names::CACHE_INSERTS), 1, "{what}: cold");
        assert_eq!(warm.counters.get(names::CACHE_HITS), 1, "{what}: warm");
        assert_eq!(warm.counters.get(names::CACHE_MISSES), 0, "{what}: warm");
        assert_eq!(warm.counters.get(names::MAP_OUTPUT_RECORDS), 0, "{what}");
        assert_eq!(warm.partitions, cold.partitions, "{what}");
    };
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let cfg = JobConfig::new(3)
            .engine(engine.clone())
            .cache(CacheBudget::enabled());
        let runner = LocalRunner::new(2);
        let cache = SharedCache::new(16 << 20);
        let run = || {
            runner
                .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
                .unwrap()
        };
        let cold = run();
        assert_eq!(cache.len(), 1, "{engine:?}: one resident entry");
        check(&format!("{engine:?}"), &cold, &run());
        assert_eq!(cache.len(), 1, "{engine:?}");

        let svc_cfg = ServiceConfig::new(1)
            .pool_workers(2)
            .cache(CacheBudget::Limit { bytes: 16 << 20 });
        let (outs, _) = serve(&WordCount, &HashPartitioner, &svc_cfg, |svc| {
            [0, 1].map(|_| svc.submit(0, splits.clone(), &cfg).unwrap().wait().unwrap())
        })
        .unwrap();
        check(&format!("serve, {engine:?}"), &outs[0], &outs[1]);
        assert_eq!(outs[0].partitions, cold.partitions);
    }
}

/// Keying is one pass: every cached entry point hashes each input record
/// exactly once per job — a cold run and a whole-job hit, and the same
/// two through the service.
/// The input value type counts its own `stable_hash` calls, so this
/// holds or fails independently of any clock.
#[test]
fn cached_jobs_hash_each_input_record_exactly_once() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{
        serve, Application, CacheBudget, Emit, KeyBuilder, ServiceConfig, SharedCache, StableHash,
    };
    use std::sync::atomic::AtomicUsize;

    static HASHED: AtomicUsize = AtomicUsize::new(0);

    #[derive(Clone)]
    struct CountedLine(String);
    impl StableHash for CountedLine {
        fn stable_hash(&self, k: &mut KeyBuilder) {
            HASHED.fetch_add(1, Ordering::Relaxed);
            self.0.stable_hash(k);
        }
    }

    struct WordTally;
    impl Application for WordTally {
        type InKey = u64;
        type InValue = CountedLine;
        type MapKey = String;
        type MapValue = u64;
        type OutKey = String;
        type OutValue = u64;
        type State = u64;
        type Shared = ();
        fn map(&self, _k: &u64, v: &CountedLine, out: &mut dyn Emit<String, u64>) {
            for word in v.0.split_whitespace() {
                out.emit(word.to_string(), 1);
            }
        }
        fn new_shared(&self) {}
        fn reduce_grouped(
            &self,
            key: &String,
            values: Vec<u64>,
            _s: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            out.emit(key.clone(), values.iter().sum());
        }
        fn init(&self, _k: &String) -> u64 {
            0
        }
        fn absorb(
            &self,
            _k: &String,
            st: &mut u64,
            v: u64,
            _s: &mut (),
            _o: &mut dyn Emit<String, u64>,
        ) {
            *st += v;
        }
        fn merge(&self, _k: &String, a: u64, b: u64) -> u64 {
            a + b
        }
        fn finalize(&self, k: String, st: u64, _s: &mut (), out: &mut dyn Emit<String, u64>) {
            out.emit(k, st);
        }
    }

    let splits: Vec<Vec<(u64, CountedLine)>> = (0..4u64)
        .map(|s| {
            (0..6u64)
                .map(|l| {
                    (
                        s * 10 + l,
                        CountedLine(format!("w{} w{}", (s + l) % 5, l % 3)),
                    )
                })
                .collect()
        })
        .collect();
    let records = 24;
    let cfg = JobConfig::new(2).cache(CacheBudget::enabled());
    // (what the job finds in the cache, its input, hits, misses): the
    // job key is the one lookup.
    let cases = [("cold", &splits, 0, 1), ("job-warm", &splits, 1, 0)];

    let cache = SharedCache::new(16 << 20);
    let runner = LocalRunner::new(2);
    for (what, input, hits, misses) in cases {
        HASHED.store(0, Ordering::Relaxed);
        let out = runner
            .run_cached(&WordTally, input.clone(), &cfg, &HashPartitioner, &cache)
            .unwrap();
        assert_eq!(
            HASHED.load(Ordering::Relaxed),
            records,
            "run_cached, {what}"
        );
        assert_eq!(out.counters.get(names::CACHE_HITS), hits, "{what}");
        assert_eq!(out.counters.get(names::CACHE_MISSES), misses, "{what}");
    }

    let svc_cfg = ServiceConfig::new(1)
        .pool_workers(2)
        .cache(CacheBudget::Limit { bytes: 16 << 20 });
    serve(&WordTally, &HashPartitioner, &svc_cfg, |svc| {
        for (what, input, hits, misses) in cases {
            HASHED.store(0, Ordering::Relaxed);
            let out = svc.submit(0, input.clone(), &cfg).unwrap().wait().unwrap();
            assert_eq!(HASHED.load(Ordering::Relaxed), records, "serve, {what}");
            assert_eq!(out.counters.get(names::CACHE_HITS), hits, "{what}");
            assert_eq!(out.counters.get(names::CACHE_MISSES), misses, "{what}");
        }
    })
    .unwrap();
}

/// The shuffle's wire format is not allowed to show: at the degenerate
/// one-record batch budget (and at a budget that cuts mid-split), with
/// the combiner on and off, at every pool width, uncached and
/// cold-cached, every run's output is
/// byte-identical and `shuffle.batches`, `shuffle.records` and
/// `shuffle.batch_reuse` are the values pinned below — recorded from the
/// typed `Vec<(key, value)>` transport that the flat serialized batches
/// replaced. Batch cuts are charged in `SizeEstimate` bytes, not encoded
/// bytes, which is what keeps them (and every canonical trace) where
/// they were. Both engines share the map side, so the barrier engine
/// reports the same batches and records; it holds every batch until the
/// barrier, recycles no buffer, and so charges no reuse.
#[test]
fn flat_batches_pin_the_shuffle_accounting() {
    use barrier_mapreduce::core::counters::names;
    use barrier_mapreduce::core::{CacheBudget, SharedCache};
    let splits: Vec<Vec<(u64, String)>> = (0..6u64)
        .map(|s| {
            (0..60u64)
                .map(|l| {
                    let line = format!("w{} word{} {}", (s * 7 + l) % 23, (s + l * 3) % 11, l % 5);
                    (s * 100 + l, line)
                })
                .collect()
        })
        .collect();
    let barrier = LocalRunner::new(2)
        .run(&WordCount, splits.clone(), &JobConfig::new(2))
        .unwrap()
        .partitions;
    // (batch budget, combiner) -> (batches, records, batch_reuse).
    let pinned = [
        (1usize, CombinerPolicy::Disabled, (1080u64, 1080u64, 952u64)),
        (1, CombinerPolicy::enabled(), (12, 234, 0)),
        (
            1,
            CombinerPolicy::Enabled { budget_bytes: 1 },
            (1080, 1080, 952),
        ),
        (200, CombinerPolicy::Disabled, (186, 1080, 58)),
    ];
    for (budget, combiner, pipelined_expect) in pinned {
        for workers in [1usize, 2, 4] {
            // Per engine, per run: what the shared map side counted.
            let mut map_side = Vec::new();
            for engine in [Engine::barrierless(), Engine::Barrier] {
                let expect = match engine {
                    Engine::Barrier => (pipelined_expect.0, pipelined_expect.1, 0),
                    Engine::BarrierLess { .. } => pipelined_expect,
                };
                let cfg = JobConfig::new(2)
                    .engine(engine.clone())
                    .shuffle_batch_bytes(budget)
                    .combiner(combiner)
                    .pool_workers(workers)
                    .cache(CacheBudget::enabled());
                let runner = LocalRunner::new(2);
                let cache = SharedCache::new(64 << 20);
                let uncached = runner.run(&WordCount, splits.clone(), &cfg).unwrap();
                let cold = runner
                    .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
                    .unwrap();
                assert_eq!(cold.counters.get(names::CACHE_MISSES), 1);
                map_side.push([&uncached, &cold].map(|out| {
                    [
                        out.counters.get(names::MAP_OUTPUT_RECORDS),
                        out.counters.get(names::COMBINE_INPUT_RECORDS),
                        out.counters.get(names::COMBINE_OUTPUT_RECORDS),
                    ]
                }));
                for (what, out) in [("uncached", uncached), ("cold", cold)] {
                    let got = (
                        out.counters.get(names::SHUFFLE_BATCHES),
                        out.counters.get(names::SHUFFLE_RECORDS),
                        out.counters.get(names::SHUFFLE_BATCH_REUSE),
                    );
                    let case = format!(
                        "{engine:?}, {what} run, budget {budget}, {combiner:?}, {workers} workers"
                    );
                    assert_eq!(got, expect, "{case}");
                    assert_eq!(out.partitions, barrier, "{case}");
                }
            }
            assert_eq!(
                map_side[0], map_side[1],
                "engines disagree on the map side: budget {budget}, {combiner:?}, {workers} workers"
            );
        }
    }
}
