//! Cached jobs: cross-job memoization through the shared result cache.
//!
//! ```sh
//! cargo run --release --example cached_jobs
//! ```
//!
//! A [`SharedCache`] is one content-addressed, byte-budgeted store of
//! sealed whole-job results, one per cacheable job. Keys hash the input
//! bytes plus the app identity and the config knobs that shape the
//! output, so identical work deduplicates across jobs, runs, and
//! tenants — and anything that differs cannot alias. Warm runs are
//! byte-identical to cold ones; only the `cache.*` counters tell them
//! apart.

use barrier_mapreduce::apps::WordCount;
use barrier_mapreduce::core::counters::names;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{
    serve, CacheBudget, HashPartitioner, JobConfig, ServiceConfig, SharedCache,
};
use std::time::Instant;

fn splits_for(tag: usize) -> Vec<Vec<(u64, String)>> {
    (0..6)
        .map(|s| {
            (0..400)
                .map(|l| {
                    (
                        l as u64,
                        format!("tag{tag} word{} word{} cached", (s + l) % 7, l % 5),
                    )
                })
                .collect()
        })
        .collect()
}

fn main() {
    // Jobs opt in per config; the budget bounds resident artifact bytes
    // with LRU eviction (an oversized artifact is refused, not stored).
    let cfg = JobConfig::new(4).cache(CacheBudget::enabled());
    let cache = SharedCache::new(32 << 20);
    let runner = LocalRunner::new(4);
    let splits = splits_for(0);

    // Cold: the job key misses, the sealed output is published on the
    // way out.
    let t = Instant::now();
    let cold = runner
        .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
        .expect("cold run");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    // Warm: the whole-job artifact hits; map and reduce never run.
    let t = Instant::now();
    let warm = runner
        .run_cached(&WordCount, splits.clone(), &cfg, &HashPartitioner, &cache)
        .expect("warm run");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        cold.partitions, warm.partitions,
        "warm output must be byte-identical"
    );
    assert!(warm.counters.get(names::CACHE_HITS) >= 1);
    println!(
        "cold {cold_ms:.2} ms ({} misses) -> warm {warm_ms:.2} ms ({} hits), {} bytes resident",
        cold.counters.get(names::CACHE_MISSES),
        warm.counters.get(names::CACHE_HITS),
        cache.used_bytes(),
    );

    // The same cache semantics at the service layer: `serve` owns one
    // cache for every tenant, sized by the service config. Content
    // addressing is the isolation story — tenant 1 hits only because it
    // submitted bit-for-bit the work tenant 0 already paid for.
    let svc_cfg = ServiceConfig::new(2)
        .pool_workers(2)
        .cache(CacheBudget::Limit { bytes: 32 << 20 });
    let ((first, second), report) = serve(&WordCount, &HashPartitioner, &svc_cfg, |svc| {
        let first = svc
            .submit(0, splits_for(1), &cfg)
            .expect("admitted")
            .wait()
            .expect("tenant 0 job");
        let second = svc
            .submit(1, splits_for(1), &cfg)
            .expect("admitted")
            .wait()
            .expect("tenant 1 job");
        (first, second)
    })
    .expect("service session");
    assert_eq!(first.partitions, second.partitions);
    assert!(second.counters.get(names::CACHE_HITS) >= 1);
    println!(
        "service: tenant 0 computed ({} misses), tenant 1 hit ({} hits), {} jobs completed",
        first.counters.get(names::CACHE_MISSES),
        second.counters.get(names::CACHE_HITS),
        report.completed,
    );
}
