//! `wc_pipeline`, `wc_barrier`, `wc_combined`, `wc_spill`: one WordCount
//! job on the local executor per round, under the four engine/memory
//! configurations that put the work in four different layers.

use super::{
    job_cfg, local_observations, trace_policy, Baseline, Ctx, Layers, Round, Workload, WORKERS,
};
use crate::inputs::{self, stream, Splits};
use crate::measure::timed;
use crate::oracle::{self, Digest};
use crate::spans::Spans;
use mr_apps::WordCount;
use mr_core::engine::{reduce_partition_barrier, IncrementalDriver};
use mr_core::local::LocalRunner;
use mr_core::{
    Application, Codec, CombinerBuffer, CombinerPolicy, Counters, Engine, FnEmit, HashPartitioner,
    JobConfig, MemoryPolicy, Partitioner, Scope, SpanKind, TraceRecorder,
};
use mr_kvstore::{Store, StoreConfig};
use mr_workloads::mix;
use std::path::PathBuf;

const REDUCERS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Pipeline,
    Barrier,
    Combined,
    Spill,
}

pub struct WordCountJob {
    variant: Variant,
    splits: Splits,
    reference: Digest,
    records: u64,
    cfg: JobConfig,
    kv_prefix_records: usize,
    scratch: PathBuf,
}

impl WordCountJob {
    pub fn new(ctx: &Ctx, variant: Variant) -> Self {
        let s = &ctx.sizes;
        let (seed, vocab, zipf_s) = match variant {
            Variant::Spill => (mix(ctx.seed, stream::SPILL), s.spill_vocab, 0.6),
            _ => (mix(ctx.seed, stream::WC), s.wc_vocab, 1.0),
        };
        let splits = inputs::text_splits(seed, s.wc_splits, s.wc_lines, s.wc_words, vocab, zipf_s);
        let engine = match variant {
            Variant::Barrier => Engine::Barrier,
            Variant::Spill => Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: s.spill_threshold_bytes,
                },
            },
            Variant::Pipeline | Variant::Combined => Engine::barrierless(),
        };
        let mut cfg = job_cfg(ctx, REDUCERS, engine);
        if variant == Variant::Combined {
            cfg = cfg.combiner(CombinerPolicy::enabled());
        }
        WordCountJob {
            variant,
            reference: oracle::word_count_digest(&splits),
            records: inputs::word_count(&splits),
            splits,
            cfg,
            kv_prefix_records: s.kv_prefix_records,
            scratch: ctx.scratch.clone(),
        }
    }
}

impl Workload for WordCountJob {
    fn records_per_round(&self) -> u64 {
        self.records
    }

    fn round(&mut self, traced: bool) -> Round {
        let cfg = self.cfg.clone().trace(trace_policy(traced));
        let input = self.splits.clone();
        let (result, wall_s, cpu_s) =
            timed(|| LocalRunner::new(WORKERS).run(&WordCount, input, &cfg));
        match result {
            Ok(out) => {
                let ok = oracle::digest_partitions(&out.partitions) == self.reference;
                let observed = if traced {
                    local_observations(&out.trace, &out.counters)
                } else {
                    Vec::new()
                };
                Round::single(wall_s, cpu_s, ok, observed)
            }
            Err(e) => {
                eprintln!("wordcount round failed: {e}");
                Round::single(wall_s, cpu_s, false, Vec::new())
            }
        }
    }

    fn layers(&mut self, spans: &mut Spans, base: &Baseline) -> Layers {
        let app = WordCount;
        let mut layers = Layers::new();

        // apps: the map function alone, into a sink that only counts
        // (and keeps the optimiser from eliding the per-word allocation).
        let mut map_records = 0u64;
        spans.span("apps.map", |_| {
            let mut sink = FnEmit(|word: String, _one: u64| {
                std::hint::black_box(&word);
                map_records += 1;
            });
            for (k, v) in self.splits.iter().flatten() {
                app.map(k, v, &mut sink);
            }
        });
        layers.push(("apps.map_records", map_records as f64));

        // The map-output stream every later replay consumes, per split
        // (materialised outside any span).
        let stream: Vec<Vec<(String, u64)>> = self
            .splits
            .iter()
            .map(|split| {
                let mut out = Vec::new();
                for (k, v) in split {
                    app.map(k, v, &mut out);
                }
                out
            })
            .collect();

        // core.partition: one partitioner call per map-output key.
        let mut route: Vec<Vec<u8>> = Vec::with_capacity(stream.len());
        let mut per_partition = [0u64; REDUCERS];
        spans.span("core.partition.route", |_| {
            for split in &stream {
                let mut r = Vec::with_capacity(split.len());
                for (word, _) in split {
                    r.push(HashPartitioner.partition(word, REDUCERS) as u8);
                }
                route.push(r);
            }
        });
        for p in route.iter().flatten() {
            per_partition[*p as usize] += 1;
        }
        let mean = map_records as f64 / REDUCERS as f64;
        let max = *per_partition.iter().max().expect("REDUCERS > 0") as f64;
        layers.push(("core.partition.skew", max / mean));

        let kv_prefix: Vec<(String, u64)> = if self.variant == Variant::Spill {
            stream
                .iter()
                .flatten()
                .take(self.kv_prefix_records)
                .cloned()
                .collect()
        } else {
            Vec::new()
        };

        // Distribute to per-partition streams — through per-split
        // combiner buffers when the workload combines, as the map tasks do.
        let mut parts: Vec<Vec<(String, u64)>> = (0..REDUCERS).map(|_| Vec::new()).collect();
        if self.variant == Variant::Combined {
            let budget = self.cfg.combiner.budget_bytes().expect("combiner enabled") as usize;
            let (mut records_in, mut records_out) = (0u64, 0u64);
            spans.span("core.combine.fold", |_| {
                for (split, r) in stream.into_iter().zip(&route) {
                    let mut combs: Vec<CombinerBuffer<WordCount>> = (0..REDUCERS)
                        .map(|_| CombinerBuffer::new(&app, budget, self.cfg.store_index))
                        .collect();
                    for ((word, one), p) in split.into_iter().zip(r) {
                        let p = *p as usize;
                        let part = &mut parts[p];
                        combs[p].push(&app, word, one, &mut |k, v| part.push((k, v)));
                    }
                    for (p, comb) in combs.iter_mut().enumerate() {
                        let part = &mut parts[p];
                        comb.drain(&app, &mut |k, v| part.push((k, v)));
                        records_in += comb.records_in();
                        records_out += comb.records_out();
                    }
                }
            });
            layers.push(("core.combine.records_in", records_in as f64));
            layers.push(("core.combine.records_out", records_out as f64));
            layers.push((
                "core.combine.reduction",
                records_in as f64 / records_out as f64,
            ));
        } else {
            for (split, r) in stream.into_iter().zip(&route) {
                for (rec, p) in split.into_iter().zip(r) {
                    parts[*p as usize].push(rec);
                }
            }
        }

        // The reduce side, partition by partition.
        let mut output: Vec<Vec<(String, u64)>> = Vec::with_capacity(REDUCERS);
        let mut counters = Counters::new();
        match self.variant {
            Variant::Barrier => {
                for records in parts {
                    let out = spans.span("core.engine.barrier.sort_reduce", |_| {
                        reduce_partition_barrier(&app, records, &mut counters)
                    });
                    output.push(out.expect("barrier replay"));
                }
            }
            Variant::Pipeline | Variant::Combined | Variant::Spill => {
                let (push, finish) = if self.variant == Variant::Spill {
                    ("core.store.spill.absorb", "core.store.spill.merge")
                } else {
                    ("core.engine.pipeline.push", "core.engine.pipeline.finish")
                };
                let (mut peak_bytes, mut entries) = (0u64, 0usize);
                let (mut files, mut bytes, mut merged) = (0u64, 0u64, 0u64);
                for (p, records) in parts.into_iter().enumerate() {
                    let mut out = Vec::new();
                    let mut driver =
                        IncrementalDriver::new(&app, &self.cfg, p).expect("replay driver");
                    spans.span(push, |_| {
                        for (word, n) in records {
                            driver.push(&app, word, n, &mut out).expect("replay push");
                        }
                    });
                    let report = spans
                        .span(finish, |_| driver.finish(&app, &mut counters, &mut out))
                        .expect("replay finish");
                    peak_bytes += report.store.peak_bytes;
                    entries += report.store.peak_entries;
                    files += report.store.spill_files;
                    bytes += report.store.spill_bytes;
                    merged += report.store.merged_states;
                    output.push(out);
                }
                if self.variant == Variant::Spill {
                    layers.push(("core.store.spill.files", files as f64));
                    layers.push(("core.store.spill.bytes", bytes as f64));
                    layers.push(("core.store.spill.merged_states", merged as f64));
                } else {
                    layers.push(("core.store.inmem.peak_bytes", peak_bytes as f64));
                    layers.push(("core.store.inmem.entries", entries as f64));
                }
            }
        }
        assert_eq!(
            oracle::digest_partitions(&output),
            self.reference,
            "layer replay of {:?} disagrees with the reference",
            self.variant
        );

        // Attribution: what the replayed layers account for of an
        // untraced round's CPU, and what is left for pool, channels and
        // task state machines.
        let replayed: f64 = [
            "apps.map",
            "core.partition.route",
            "core.combine.fold",
            "core.engine.pipeline.push",
            "core.engine.pipeline.finish",
            "core.engine.barrier.sort_reduce",
            "core.store.spill.absorb",
            "core.store.spill.merge",
        ]
        .iter()
        .map(|name| spans.self_secs(name))
        .sum();
        layers.push(("attribution.covered_share", replayed / base.cpu_s));
        layers.push(("core.local.runtime_s", base.cpu_s - replayed));
        layers.push(("core.local.overlap", base.overlap()));

        match self.variant {
            Variant::Spill => {
                self.codec_replay(spans, &output, &mut layers);
                self.kv_replay(spans, kv_prefix, &mut layers);
            }
            Variant::Pipeline => trace_record_replay(spans, &mut layers),
            Variant::Barrier | Variant::Combined => {}
        }

        layers
    }
}

impl WordCountJob {
    /// `Codec` round-trip of the drained `(String, u64)` partials — the
    /// record format spill runs are written in.
    fn codec_replay(&self, spans: &mut Spans, output: &[Vec<(String, u64)>], layers: &mut Layers) {
        let mut buf = Vec::new();
        spans.span("core.codec.encode", |_| {
            for rec in output.iter().flatten() {
                rec.encode(&mut buf);
            }
        });
        let mut decoded = 0usize;
        spans.span("core.codec.decode", |_| {
            let mut input = &buf[..];
            while !input.is_empty() {
                let rec = <(String, u64)>::decode(&mut input).expect("decode what was encoded");
                std::hint::black_box(&rec);
                decoded += 1;
            }
        });
        assert_eq!(decoded, output.iter().map(Vec::len).sum::<usize>());
        layers.push(("core.codec.bytes", buf.len() as f64));
    }

    /// Paper 5.2's store: the KV-backed partial store over a fixed
    /// prefix of this workload's stream, and raw `Store` put/get over
    /// the same keys. No end-to-end workload runs this path (at well
    /// under a million records a second a full round would take too
    /// long), so these figures are all it has.
    fn kv_replay(&self, spans: &mut Spans, prefix: Vec<(String, u64)>, layers: &mut Layers) {
        let app = WordCount;
        let cache_bytes = 1 << 20;
        let cfg = self.cfg.clone().engine(Engine::BarrierLess {
            memory: MemoryPolicy::KvStore { cache_bytes },
        });
        let keys: Vec<String> = prefix.iter().map(|(w, _)| w.clone()).collect();

        let mut out = Vec::new();
        let mut driver = IncrementalDriver::new(&app, &cfg, REDUCERS).expect("kv replay driver");
        spans.span("core.store.kv.absorb", |_| {
            for (word, n) in prefix {
                driver
                    .push(&app, word, n, &mut out)
                    .expect("kv replay push");
            }
        });
        spans
            .span("core.store.kv.finish", |_| {
                driver.finish(&app, &mut Counters::new(), &mut out)
            })
            .expect("kv replay finish");
        let counted: u64 = out.iter().map(|(_, n)| n).sum();
        assert_eq!(counted, keys.len() as u64, "kv replay lost records");

        let dir = self.scratch.join("kvstore-raw");
        let mut store =
            Store::open(StoreConfig::new(&dir).cache_bytes(cache_bytes)).expect("open kv store");
        spans.span("kvstore.put", |_| {
            for (i, key) in keys.iter().enumerate() {
                store
                    .put(key.as_bytes(), &(i as u64).to_le_bytes())
                    .expect("kv put");
            }
        });
        spans.span("kvstore.get", |_| {
            for key in &keys {
                let v = store.get(key.as_bytes()).expect("kv get");
                assert!(v.is_some(), "kv store lost a key");
            }
        });
        let stats = store.stats();
        layers.push((
            "kvstore.hit_ratio",
            stats.cache_hits as f64 / stats.gets as f64,
        ));
    }
}

/// The trace pipeline's record path: one million span and counter
/// events into a `TraceRecorder`, the cost every traced task pays per
/// event.
fn trace_record_replay(spans: &mut Spans, layers: &mut Layers) {
    const EVENTS: u64 = 1_000_000;
    let mut rec = TraceRecorder::new(Scope::job(0), true);
    spans.span("trace.record", |_| {
        for i in 0..EVENTS / 2 {
            let t = i as f64 * 1e-6;
            rec.span_wall(SpanKind::Map, t, t + 1e-6);
            rec.counter("bench.events", 1);
        }
    });
    assert_eq!(rec.into_batch().events.len() as u64, EVENTS);
    layers.push((
        "trace.record_ns",
        spans.self_secs("trace.record") * 1e9 / EVENTS as f64,
    ));
}
