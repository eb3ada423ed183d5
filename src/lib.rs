//! `barrier-mapreduce` — facade crate for the barrier-less MapReduce
//! reproduction of *Breaking the MapReduce Stage Barrier* (Verma et al.,
//! CLUSTER 2010).
//!
//! This crate re-exports the workspace members under stable names so that
//! examples and downstream users need a single dependency:
//!
//! * [`core`] — the MapReduce framework itself: job API, the
//!   barrier and barrier-less engines, partial-result stores, and the real
//!   multi-threaded local executor.
//! * [`cluster`] — the execution-driven discrete-event cluster
//!   simulator used to regenerate the paper's figures.
//! * [`apps`] — the paper's seven application classes in original
//!   and barrier-less form.
//! * [`workloads`] — seeded input generators.
//! * [`kvstore`] — the disk-spilling key/value store
//!   (BerkeleyDB stand-in).
//! * [`cache`] — the content-addressed shared result cache behind
//!   cross-job memoization (`core::local::cache` wires it in).
//! * [`sim`], [`net`], [`dfs`] — simulation substrates.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use barrier_mapreduce::core::local::LocalRunner;
//! use barrier_mapreduce::core::{Engine, JobConfig, MemoryPolicy};
//! use barrier_mapreduce::apps::wordcount::WordCount;
//!
//! let splits: Vec<Vec<(u64, String)>> = vec![
//!     vec![(0, "a b a".to_string())],
//!     vec![(1, "b c".to_string())],
//! ];
//! let cfg = JobConfig::new(2).engine(Engine::BarrierLess {
//!     memory: MemoryPolicy::InMemory,
//! });
//! let out = LocalRunner::new(2).run(&WordCount::default(), splits, &cfg).unwrap();
//! let mut pairs = out.into_sorted_output();
//! assert_eq!(pairs.remove(0), ("a".to_string(), 2));
//! ```

pub use mr_apps as apps;
pub use mr_cache as cache;
pub use mr_cluster as cluster;
pub use mr_core as core;
pub use mr_dfs as dfs;
pub use mr_kvstore as kvstore;
pub use mr_net as net;
pub use mr_sim as sim;
pub use mr_workloads as workloads;

/// README.md's Rust snippets, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
