//! Heap allocations on the record path, counted by the allocator.
//!
//! Every map-output record of a barrier-less job is one emit on the map
//! side and one absorb into a reducer's store. With a map function that
//! reuses one scratch key and a store probed through the key's view, a
//! job allocates per *distinct key* (and per input line), not per
//! record. This binary runs WordCount on the local executor at pool
//! width 1 — every task on the calling thread — under a counting
//! `#[global_allocator]`, and checks allocations per map-output record
//! stay well under one, with the map-side combiner off and on. A
//! by-value key on either side (one `String` per word emitted, or per
//! record decoded) costs at least one allocation per record, and fails
//! it.
//!
//! Its own process and one `#[test]`: nothing else allocates while a
//! case is counted.

use barrier_mapreduce::apps::wordcount::WordCount;
use barrier_mapreduce::core::counters::names;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{CombinerPolicy, Engine, JobConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Eight splits of 250 lines, twelve words a line over a 64-word
/// vocabulary: 24 000 map-output records, 64 distinct keys.
fn splits() -> Vec<Vec<(u64, String)>> {
    let vocab: Vec<String> = (0..64).map(|w| format!("word{w:02}")).collect();
    (0..8u64)
        .map(|s| {
            (0..250u64)
                .map(|l| {
                    let line: Vec<&str> = (0..12u64)
                        .map(|w| vocab[((s * 7919 + l * 31 + w * 17) % 64) as usize].as_str())
                        .collect();
                    (s * 1000 + l, line.join(" "))
                })
                .collect()
        })
        .collect()
}

/// Allocations per map-output record of one WordCount job, and the
/// record count.
fn allocations_per_record(cfg: &JobConfig) -> (f64, u64) {
    let input = splits();
    let runner = LocalRunner::new(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = runner.run(&WordCount, input, cfg).expect("wordcount runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let records = out.counters.get(names::MAP_OUTPUT_RECORDS);
    let total: u64 = out.into_sorted_output().iter().map(|(_, n)| n).sum();
    assert_eq!(total, records, "every record counted once");
    (allocations as f64 / records as f64, records)
}

#[test]
fn the_record_path_allocates_per_distinct_key_not_per_record() {
    for (combiner, bound) in [
        (CombinerPolicy::Disabled, 0.25),
        (CombinerPolicy::enabled(), 0.25),
    ] {
        let cfg = JobConfig::new(2)
            .engine(Engine::barrierless())
            .combiner(combiner)
            .pool_workers(1);
        // A warm-up job first: one-time initialisation is not per record.
        allocations_per_record(&cfg);
        let (per_record, records) = allocations_per_record(&cfg);
        assert_eq!(records, 24_000);
        println!("{combiner:?}: {per_record:.3} allocations per map-output record");
        assert!(
            per_record < bound,
            "{combiner:?}: {per_record:.3} allocations per map-output record, bound {bound}"
        );
    }
}
