//! `cache_churn`: sixteen sequential cached WordCount jobs per round
//! against a fresh result cache that holds three jobs' artifacts, not four.
//! One hot job is re-run between eight cold ones, so every round mixes
//! whole-job hits, misses that publish, and evictions.

use super::{job_cfg, trace_policy, Baseline, Ctx, Layers, Round, Workload, WORKERS};
use crate::inputs::{self, stream, Splits};
use crate::measure::timed;
use crate::oracle::{self, Digest};
use crate::spans::Spans;
use mr_apps::WordCount;
use mr_cache::{KeyBuilder, Payload, ResultCache, StableHash};
use mr_core::local::LocalRunner;
use mr_core::{CacheBudget, Engine, HashPartitioner, JobConfig, JobOutput, SharedCache};
use mr_workloads::mix;
use std::sync::Arc;
use std::time::Instant;

const REDUCERS: usize = 4;
/// Job 0 is hot; jobs 1..=8 are each seen once per round.
const SEQUENCE: [usize; 16] = [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8];
const DISTINCT: usize = 9;
/// The cache budget in halves of one job's resident artifacts: three
/// jobs and a half. At exactly three, whether the hot job survives a cold
/// one's publication hangs on the few bytes by which inputs of different
/// seeds differ, and rounds of different seeds do different work.
const BUDGET_HALF_JOBS: u64 = 7;

pub struct CacheChurn {
    inputs: Vec<Splits>,
    references: Vec<Digest>,
    cfg: JobConfig,
    /// What one job leaves resident (probed once in set-up), and how
    /// many entries that is.
    job_artifact_bytes: u64,
    job_artifact_entries: usize,
}

fn run_cached(
    input: Splits,
    cfg: &JobConfig,
    cache: &SharedCache,
) -> mr_core::MrResult<JobOutput<WordCount>> {
    LocalRunner::new(WORKERS).run_cached(&WordCount, input, cfg, &HashPartitioner, cache)
}

impl CacheChurn {
    pub fn new(ctx: &Ctx) -> Self {
        let s = &ctx.sizes;
        let seed = mix(ctx.seed, stream::CHURN);
        let inputs: Vec<Splits> = (0..DISTINCT as u64)
            .map(|j| {
                inputs::text_splits(
                    mix(seed, j),
                    s.churn_splits,
                    s.churn_lines,
                    s.churn_words,
                    s.churn_vocab,
                    1.0,
                )
            })
            .collect();
        let cfg = job_cfg(ctx, REDUCERS, Engine::barrierless()).cache(CacheBudget::enabled());
        let probe = SharedCache::new(1 << 40);
        run_cached(inputs[0].clone(), &cfg, &probe).expect("cache probe run");
        CacheChurn {
            references: inputs
                .iter()
                .map(|i| oracle::word_count_digest(i))
                .collect(),
            inputs,
            cfg,
            job_artifact_bytes: probe.used_bytes(),
            job_artifact_entries: probe.len(),
        }
    }

    fn budget(&self) -> u64 {
        self.job_artifact_bytes * BUDGET_HALF_JOBS / 2
    }
}

impl Workload for CacheChurn {
    fn records_per_round(&self) -> u64 {
        SEQUENCE
            .iter()
            .map(|&j| inputs::word_count(&self.inputs[j]))
            .sum()
    }

    fn round(&mut self, traced: bool) -> Round {
        let cfg = self.cfg.clone().trace(trace_policy(traced));
        let inputs: Vec<Splits> = SEQUENCE.iter().map(|&j| self.inputs[j].clone()).collect();
        let cache = SharedCache::new(self.budget());
        let mut latencies_s = Vec::with_capacity(SEQUENCE.len());
        let (outputs, wall_s, cpu_s) = timed(|| {
            inputs
                .into_iter()
                .map(|input| {
                    let t = Instant::now();
                    let out = run_cached(input, &cfg, &cache);
                    latencies_s.push(t.elapsed().as_secs_f64());
                    out
                })
                .collect::<Vec<_>>()
        });
        let mut failed = 0;
        let mut trace_events = 0;
        for (out, &j) in outputs.iter().zip(&SEQUENCE) {
            match out {
                Ok(out) => {
                    if oracle::digest_partitions(&out.partitions) != self.references[j] {
                        failed += 1;
                    }
                    trace_events += out.trace.len();
                }
                Err(e) => {
                    eprintln!("cached job {j} failed: {e}");
                    failed += 1;
                }
            }
        }
        let mut observed = Layers::new();
        if traced {
            let stats = cache.stats();
            observed.push((
                "cache.hit_ratio",
                stats.hits as f64 / (stats.hits + stats.misses) as f64,
            ));
            observed.push(("cache.evictions", stats.evictions as f64));
            observed.push(("trace.events", trace_events as f64));
        }
        Round {
            wall_s,
            cpu_s,
            latencies_s,
            attempted: SEQUENCE.len() as u64,
            failed,
            observed,
        }
    }

    fn layers(&mut self, spans: &mut Spans, _base: &Baseline) -> Layers {
        let mut layers = Layers::new();
        let job = &self.inputs[0];

        // Key derivation: the stable hash over one job's input records.
        let mut hashed_bytes = 0usize;
        let key = spans.span("cache.key", |_| {
            let mut k = KeyBuilder::new();
            for (id, line) in job.iter().flatten() {
                id.stable_hash(&mut k);
                line.stable_hash(&mut k);
                hashed_bytes += std::mem::size_of::<u64>() + line.len();
            }
            k.finish()
        });
        std::hint::black_box(key);
        layers.push((
            "cache.key_mb_per_s",
            hashed_bytes as f64 / (1 << 20) as f64 / spans.self_secs("cache.key"),
        ));

        // The store alone, at this workload's entry size and budget:
        // every insert past the first few evicts, half the lookups hit.
        const OPS: u64 = 200_000;
        let entry_bytes = self.job_artifact_bytes / self.job_artifact_entries as u64;
        let store = ResultCache::new(self.budget());
        let payload: Payload = Arc::new(());
        let keys: Vec<_> = (0..OPS)
            .map(|i| {
                let mut k = KeyBuilder::new();
                k.write_u64(i);
                k.finish()
            })
            .collect();
        spans.span("cache.insert", |_| {
            for key in &keys {
                store
                    .insert(*key, Arc::clone(&payload), entry_bytes)
                    .expect("entry fits the budget");
            }
        });
        let resident = store.len();
        spans.span("cache.get", |_| {
            // Alternate a resident key (the newest ones) with an evicted one.
            for i in 0..OPS as usize / 2 {
                std::hint::black_box(store.get(keys[keys.len() - 1 - i % resident]));
                std::hint::black_box(store.get(keys[i % (keys.len() - resident)]));
            }
        });
        layers.push((
            "cache.insert_us",
            spans.self_secs("cache.insert") * 1e6 / OPS as f64,
        ));
        layers.push((
            "cache.get_us",
            spans.self_secs("cache.get") * 1e6 / OPS as f64,
        ));

        // What publishing costs and a hit saves, on one job: uncached,
        // cold (all misses, every artifact published), then warm.
        let plain_cfg = self.cfg.clone().cache(CacheBudget::Disabled);
        let cache = SharedCache::new(1 << 40);
        let (a, b, c) = (job.clone(), job.clone(), job.clone());
        spans
            .span("cache.job_uncached", |_| run_cached(a, &plain_cfg, &cache))
            .expect("uncached job");
        spans
            .span("cache.job_cold", |_| run_cached(b, &self.cfg, &cache))
            .expect("cold job");
        spans
            .span("cache.warm_job", |_| run_cached(c, &self.cfg, &cache))
            .expect("warm job");
        layers.push((
            "cache.publish_s",
            spans.self_secs("cache.job_cold") - spans.self_secs("cache.job_uncached"),
        ));
        layers
    }
}
