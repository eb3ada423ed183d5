//! Partial-result stores for the barrier-less engine (§5 of the paper).
//!
//! Every record a barrier-less reducer receives updates a *partial result*
//! for its key. Where those partial results live is the paper's memory-
//! management question, with three answers:
//!
//! | Policy | Paper section | Type |
//! |---|---|---|
//! | In memory (the paper's TreeMap; here one hashed map, sorted once at drain) | §3.2 | [`InMemoryStore`] |
//! | Disk spill and merge | §5.1 | [`SpillMergeStore`] |
//! | Disk-spilling key/value store (BerkeleyDB) | §5.2 | [`KvBackedStore`] |

pub mod index;
mod inmem;
mod kv;
mod spill;

pub use index::PartialMap;
pub use inmem::InMemoryStore;
pub use kv::KvBackedStore;
pub use spill::SpillMergeStore;

use crate::codec::KeyCow;
use crate::config::{JobConfig, MemoryPolicy};
use crate::error::MrResult;
use crate::traits::{Application, Emit};
use std::borrow::Cow;

/// Statistics a store reports after finishing.
#[derive(Debug, Clone, Default)]
pub struct StoreReport {
    /// Live entries at the end (before finalize drained them).
    pub entries: usize,
    /// Largest number of simultaneously live in-memory entries.
    pub peak_entries: usize,
    /// Largest modelled heap footprint reached, in bytes.
    pub peak_bytes: u64,
    /// Runs spilled (spill-and-merge only). All of a store's runs lie in
    /// its one spill file; the name predates that.
    pub spill_files: u64,
    /// Bytes written to spill runs.
    pub spill_bytes: u64,
    /// Partial results combined by `Application::merge` during the merge
    /// phase (spill-and-merge only).
    pub merged_states: u64,
    /// KV-store statistics (KV policy only).
    pub kv_stats: Option<mr_kvstore::StoreStats>,
}

/// Storage for per-key partial results during a barrier-less reduce task.
///
/// The engine calls [`absorb_view`](PartialStore::absorb_view) once per
/// record, in arrival order, then
/// [`finalize_into`](PartialStore::finalize_into) once the shuffle is
/// drained.
pub trait PartialStore<A: Application>: Send {
    /// Folds one record into its key's partial result. The key comes as
    /// its [`KeyView`](crate::codec::KeyView) — borrowed from a shuffle
    /// batch, or owned — and a store builds an owned key only when it
    /// needs one.
    fn absorb_view(
        &mut self,
        app: &A,
        key: KeyCow<'_, A::MapKey>,
        value: A::MapValue,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()>;

    /// [`absorb_view`](PartialStore::absorb_view) with an owned key.
    fn absorb(
        &mut self,
        app: &A,
        key: A::MapKey,
        value: A::MapValue,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()> {
        self.absorb_view(app, Cow::Owned(key), value, shared, out)
    }

    /// Drains the store: merges any spilled runs and calls
    /// `Application::finalize` for every key, in key order.
    fn finalize_into(
        self: Box<Self>,
        app: &A,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<StoreReport>;

    /// Walks a *frozen view* of every live partial result in key order,
    /// emitting each key's estimated output through
    /// [`Application::snapshot_emit`].
    /// Returns the estimated partial-state bytes covered (keys + states).
    ///
    /// Observation only: the store's contents, byte accounting and spill
    /// cadence are unchanged afterwards (the spill store re-reads its
    /// runs from its spill file and merges them with the live map, so a
    /// snapshot is complete even mid-spill; the KV store scans its log
    /// through its cache). `&mut self` is needed for scan plumbing, never
    /// for mutation of logical contents.
    fn snapshot_into(
        &mut self,
        app: &A,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<u64>;

    /// Current modelled heap footprint in bytes (drives Figure 5 sampling).
    fn modelled_bytes(&self) -> u64;

    /// Live in-memory entries right now.
    fn entries(&self) -> usize;

    /// Cumulative bytes of disk traffic this store has generated so far
    /// (spill runs written, KV log writes + miss reads). The cluster
    /// simulator polls this to charge disk time as it happens.
    fn io_bytes(&self) -> u64 {
        0
    }
}

/// Builds the store that `cfg.engine`'s memory policy asks for.
pub fn make_store<A: Application>(
    policy: &MemoryPolicy,
    cfg: &JobConfig,
    reducer: usize,
) -> MrResult<Box<dyn PartialStore<A>>> {
    Ok(match policy {
        MemoryPolicy::InMemory => Box::new(InMemoryStore::new(
            cfg.heap_cap_bytes,
            cfg.heap_scale,
            reducer,
        )),
        MemoryPolicy::SpillMerge { threshold_bytes } => Box::new(SpillMergeStore::new(
            &cfg.scratch_dir,
            *threshold_bytes,
            cfg.heap_scale,
            reducer,
        )?),
        MemoryPolicy::KvStore { cache_bytes } => Box::new(KvBackedStore::new(
            &cfg.scratch_dir,
            *cache_bytes,
            cfg.heap_scale,
        )?),
    })
}
