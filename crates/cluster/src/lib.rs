//! `mr-cluster` — execution-driven discrete-event simulation of the
//! paper's 16-node testbed.
//!
//! The simulator runs *real application code* on *real (scaled) record
//! streams*: map functions produce actual records, barrier-less reducers
//! absorb them through the actual partial-result stores (including real
//! spill files and the real KV store), and outputs are checked for
//! correctness. Only the clock is virtual — task durations, disk
//! transfers and network flows are charged against `mr-sim` resources
//! calibrated to the paper's hardware (§6: 15 slaves, 4+4 slots each,
//! GbE, 64 MB chunks, replication 3).
//!
//! What the model captures — because the figures depend on it:
//!
//! * **Mapper slack** (§3.2, §6.2): heterogeneous map finish times leave a
//!   window in which barrier reducers idle but barrier-less reducers work.
//! * **Shuffle contention**: per-NIC processor sharing; many mappers
//!   feeding one reducer stretch flows.
//! * **Reducer waves** (Figure 8): reduce slots are held until output is
//!   written, so 70 reducers on 60 slots run in two waves.
//! * **Memory behaviour** (Figures 5, 9, 10): heap sampling of the real
//!   stores, OOM kills, spill and KV disk traffic charged to the disks.
//! * **Fault tolerance** (§3.1): nodes can be killed mid-run; lost map
//!   output and dead reducers are re-executed, as in Hadoop.
//! * **Job chains** ([`ChainSimExecutor`]): concatenated jobs share one
//!   event loop; streaming handoff edges are scheduled as trace
//!   events so stage N+1 map work measurably overlaps stage N reduce
//!   work, and a dead upstream reduce attempt restarts its downstream
//!   consumers.
//!
//! How it is built: `ctx` holds `SimCtx` — the cluster a run executes
//! on (event queue, network, disks, DFS, slot ledger, tracer, noise RNG)
//! and the one event loop with its one termination rule. `stage` holds
//! `Stage<X>` — one map → shuffle → reduce round, the single
//! implementation of the task state machine, speculation and recovery
//! included. [`SimExecutor`] is one stage plus what only a single job
//! models (snapshot tick, deadline, map speculation);
//! [`ChainSimExecutor`] is two stages plus the handoff edge between
//! them. The multi-tenant [`ServiceSimExecutor`] is a different,
//! analytic task model and shares only [`SlotLedger`] placement.

mod chain;
mod costs;
mod ctx;
mod executor;
mod input;
mod params;
mod placement;
mod report;
mod service;
mod stage;
mod trace;

pub use chain::{ChainSimExecutor, ChainSimReport};
pub use costs::CostModel;
pub use executor::{Fault, SimExecutor};
pub use input::{FnInput, SimInput};
pub use mr_trace::{SpanKind, SpecEvent, SpecTaskKind};
pub use params::ClusterParams;
pub use placement::{SlotLedger, TieBreak};
pub use report::{Outcome, SimReport};
pub use service::{
    analytic_output, ServiceParams, ServiceSimExecutor, ServiceSimReport, SimJobOutcome, SimJobSpec,
};
