//! Memory management under the barrier-less engine (§5): the same job
//! run with an unbounded in-memory store, a capped one (which dies), the
//! disk spill-and-merge store, and the KV-backed store — all producing
//! identical output where they survive.
//!
//! ```sh
//! cargo run --release --example memory_management
//! ```

use barrier_mapreduce::apps::UniqueListens;
use barrier_mapreduce::core::counters::names;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{Engine, JobConfig, MemoryPolicy, MrError};
use barrier_mapreduce::workloads::LastFmWorkload;

fn main() {
    // Unique-listener counting: the post-reduction class whose partial
    // results grow with records — the paper's motivating OOM case.
    let workload = LastFmWorkload {
        seed: 99,
        users: 200_000,
        tracks: 500,
        listens_per_chunk: 5_000,
    };
    let splits: Vec<_> = (0..8).map(|c| workload.chunk(c)).collect();
    let runner = LocalRunner::new(4);
    let scratch = std::env::temp_dir().join("mr-example-memmgmt");

    let mut reference = None;
    for (label, policy, cap) in [
        ("in-memory (unbounded)", MemoryPolicy::InMemory, None),
        (
            "in-memory (64 KB cap)",
            MemoryPolicy::InMemory,
            Some(64 << 10),
        ),
        (
            "spill-and-merge (64 KB threshold)",
            MemoryPolicy::SpillMerge {
                threshold_bytes: 64 << 10,
            },
            None,
        ),
        (
            "kv-store (32 KB cache)",
            MemoryPolicy::KvStore {
                cache_bytes: 32 << 10,
            },
            None,
        ),
    ] {
        // One pool worker: each reducer's arrival order, and with it the
        // KV store's miss count, repeats from run to run.
        let mut cfg = JobConfig::new(2)
            .engine(Engine::BarrierLess { memory: policy })
            .pool_workers(1)
            .scratch_dir(&scratch);
        cfg.heap_cap_bytes = cap;
        match runner.run(&UniqueListens, splits.clone(), &cfg) {
            Ok(out) => {
                let spills = out.counters.get(names::SPILL_FILES);
                let kv_miss = out.counters.get(names::KV_CACHE_MISSES);
                let peak = out.max_peak_bytes();
                let result = out.into_sorted_output();
                if let Some(reference) = &reference {
                    assert_eq!(&result, reference, "policies must agree");
                } else {
                    reference = Some(result.clone());
                }
                println!(
                    "{label:<34} OK    peak heap {:>8} B  spills {spills:>3}  kv misses {kv_miss:>6}  ({} tracks)",
                    peak,
                    result.len()
                );
            }
            Err(MrError::OutOfMemory {
                reducer,
                used_bytes,
                cap_bytes,
            }) => {
                println!(
                    "{label:<34} DIED  reducer {reducer} used {used_bytes} B > cap {cap_bytes} B (the Figure 5a failure)"
                );
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
}
