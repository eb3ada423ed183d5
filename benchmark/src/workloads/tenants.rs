//! `tenants`: a closed loop of small WordCount jobs from four tenants
//! through one long-lived `serve` pool. Four tenants keep eight jobs
//! outstanding each (32 in flight); one load-generating thread waits on
//! each tenant's oldest handle in turn and only then submits that
//! tenant's next job, so a slower service receives less load.

use super::{job_cfg, trace_policy, Baseline, Ctx, Layers, Round, Workload, WORKERS};
use crate::inputs::{self, stream, Splits};
use crate::measure::timed;
use crate::oracle::{self, Digest};
use crate::spans::Spans;
use crate::stats;
use mr_apps::WordCount;
use mr_core::local::LocalRunner;
use mr_core::{serve, Engine, HashPartitioner, JobConfig, JobHandle, ServiceConfig, TenantSpec};
use mr_workloads::mix;
use std::collections::VecDeque;
use std::time::Instant;

const TENANTS: usize = 4;
const WEIGHTS: [u32; TENANTS] = [4, 2, 1, 1];
const OUTSTANDING: usize = 8;
const REDUCERS: usize = 2;

pub struct Tenants {
    /// Distinct job inputs; job `j` of a round runs `inputs[j % len]`.
    inputs: Vec<Splits>,
    references: Vec<Digest>,
    jobs: usize,
    job_cfg: JobConfig,
    /// Every untraced job latency since construction, for the pooled
    /// tail the per-round medians are contrasted with.
    pooled_latencies_s: Vec<f64>,
}

/// What one closed-loop session saw.
struct LoopResult {
    latencies_s: Vec<f64>,
    failed: u64,
    trace_events: u64,
}

impl Tenants {
    pub fn new(ctx: &Ctx) -> Self {
        let s = &ctx.sizes;
        let seed = mix(ctx.seed, stream::TENANTS);
        let inputs: Vec<Splits> = (0..s.tenant_inputs as u64)
            .map(|j| {
                inputs::text_splits(
                    mix(seed, j),
                    2,
                    s.tenant_lines,
                    s.tenant_words,
                    s.tenant_vocab,
                    1.0,
                )
            })
            .collect();
        Tenants {
            references: inputs
                .iter()
                .map(|i| oracle::word_count_digest(i))
                .collect(),
            inputs,
            jobs: s.tenant_jobs,
            job_cfg: job_cfg(ctx, REDUCERS, Engine::barrierless()),
            pooled_latencies_s: Vec::new(),
        }
    }

    fn service_cfg(tenants: usize, queue_cap: usize) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(tenants)
            .pool_workers(WORKERS)
            .queue_cap(queue_cap);
        for t in 0..tenants {
            cfg = cfg.tenant(t, TenantSpec::new().weight(WEIGHTS[t % TENANTS]));
        }
        cfg
    }

    /// The closed loop over pre-cloned `inputs` (job `j` belongs to
    /// tenant `j % TENANTS`). Outputs are digested as they return and
    /// dropped: keeping 4 096 of them for a later check would make the
    /// benchmark's own retention the peak RSS.
    fn closed_loop(&self, inputs: Vec<Splits>, cfg: &JobConfig) -> LoopResult {
        let references = &self.references;
        let mut pending: Vec<VecDeque<(usize, Splits)>> =
            (0..TENANTS).map(|_| VecDeque::new()).collect();
        for (j, splits) in inputs.into_iter().enumerate() {
            pending[j % TENANTS].push_back((j, splits));
        }
        let mut result = LoopResult {
            latencies_s: Vec::with_capacity(self.jobs),
            failed: 0,
            trace_events: 0,
        };
        let served = serve(
            &WordCount,
            &HashPartitioner,
            &Self::service_cfg(TENANTS, TENANTS * OUTSTANDING),
            |svc| {
                let mut in_flight: Vec<VecDeque<(usize, Instant, JobHandle<WordCount>)>> =
                    (0..TENANTS).map(|_| VecDeque::new()).collect();
                let mut submit =
                    |t: usize, in_flight: &mut Vec<VecDeque<_>>, result: &mut LoopResult| {
                        if let Some((j, splits)) = pending[t].pop_front() {
                            let at = Instant::now();
                            match svc.submit(t, splits, cfg) {
                                Ok(handle) => in_flight[t].push_back((j, at, handle)),
                                Err(e) => {
                                    eprintln!("tenant {t} job {j} refused: {e}");
                                    result.failed += 1;
                                }
                            }
                        }
                    };
                for _ in 0..OUTSTANDING {
                    for t in 0..TENANTS {
                        submit(t, &mut in_flight, &mut result);
                    }
                }
                while in_flight.iter().any(|q| !q.is_empty()) {
                    for t in 0..TENANTS {
                        let Some((j, at, handle)) = in_flight[t].pop_front() else {
                            continue;
                        };
                        let out = handle.wait();
                        result.latencies_s.push(at.elapsed().as_secs_f64());
                        match out {
                            Ok(out) => {
                                let want = references[j % references.len()];
                                if oracle::digest_partitions(&out.partitions) != want {
                                    result.failed += 1;
                                }
                                result.trace_events += out.trace.len() as u64;
                            }
                            Err(e) => {
                                eprintln!("tenant {t} job {j} failed: {e}");
                                result.failed += 1;
                            }
                        }
                        submit(t, &mut in_flight, &mut result);
                    }
                }
            },
        );
        match served {
            Ok(((), report)) => {
                if report.rejected > 0 || report.completed != result.latencies_s.len() as u64 {
                    result.failed += report.rejected.max(1);
                }
            }
            Err(e) => {
                eprintln!("serve failed: {e}");
                result.failed = self.jobs as u64;
            }
        }
        result
    }
}

impl Workload for Tenants {
    fn records_per_round(&self) -> u64 {
        (0..self.jobs)
            .map(|j| inputs::word_count(&self.inputs[j % self.inputs.len()]))
            .sum()
    }

    fn round(&mut self, traced: bool) -> Round {
        let cfg = self.job_cfg.clone().trace(trace_policy(traced));
        let inputs: Vec<Splits> = (0..self.jobs)
            .map(|j| self.inputs[j % self.inputs.len()].clone())
            .collect();
        let (result, wall_s, cpu_s) = timed(|| self.closed_loop(inputs, &cfg));
        let mut observed = Layers::new();
        if traced {
            observed.push(("trace.events", result.trace_events as f64));
        } else {
            self.pooled_latencies_s.extend(&result.latencies_s);
        }
        Round {
            wall_s,
            cpu_s,
            latencies_s: result.latencies_s,
            attempted: self.jobs as u64,
            failed: result.failed,
            observed,
        }
    }

    fn layers(&mut self, spans: &mut Spans, _base: &Baseline) -> Layers {
        let mut layers = Layers::new();
        // The fixed cost of a job: the same number of jobs as a round,
        // each one record, through the batch pool and through `serve`.
        // Both figures are whole per-job costs; their difference is what
        // admission and fair pick add (or a long-lived pool saves).
        let n = self.jobs;
        let one_record = || -> Vec<Splits> {
            (0..n as u64)
                .map(|j| vec![vec![(j, "w".to_string())]])
                .collect()
        };

        let jobs = one_record();
        let batch = spans
            .span("core.local.pool.run_many", |_| {
                LocalRunner::new(WORKERS).run_many(
                    &WordCount,
                    jobs,
                    &self.job_cfg,
                    &HashPartitioner,
                )
            })
            .expect("run_many of one-record jobs");
        assert!(batch.jobs.iter().all(Result::is_ok));
        let pool_us = spans.self_secs("core.local.pool.run_many") * 1e6 / n as f64;
        layers.push(("core.local.pool.job_overhead_us", pool_us));
        layers.push((
            "core.local.pool.peak_threads",
            batch.pool.peak_threads as f64,
        ));

        let jobs = one_record();
        let cfg = &self.job_cfg;
        let (completed, report) = spans
            .span("core.local.service.serve", |_| {
                serve(
                    &WordCount,
                    &HashPartitioner,
                    &Self::service_cfg(1, n),
                    |svc| {
                        let handles: Vec<_> = jobs
                            .into_iter()
                            .map(|splits| svc.submit(0, splits, cfg).expect("admission"))
                            .collect();
                        handles.into_iter().filter_map(|h| h.wait().ok()).count()
                    },
                )
            })
            .expect("serve of one-record jobs");
        assert_eq!(completed, n);
        let serve_us = spans.self_secs("core.local.service.serve") * 1e6 / n as f64;
        layers.push(("core.local.service.job_overhead_us", serve_us));
        layers.push(("core.local.service.completed", report.completed as f64));
        layers.push(("core.local.service.rejected", report.rejected as f64));

        let mut pooled = self.pooled_latencies_s.clone();
        pooled.sort_by(f64::total_cmp);
        layers.push((
            "core.local.service.job_p99_pooled_s",
            stats::percentile_sorted(&pooled, 0.99),
        ));
        layers
    }
}
