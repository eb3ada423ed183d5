//! `mr-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper (see `src/bin/`). Per-layer
//! timings live in the repository's benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here. This library holds what the binaries
//! share: per-application experiment configurations calibrated to the
//! paper's testbed ([`appcfg`]), ASCII chart rendering ([`chart`]), and
//! box-plot statistics ([`stats`]).

pub mod appcfg;
pub mod chart;
pub mod stats;
