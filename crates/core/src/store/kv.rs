//! KV-store-backed partial results (§5.2 of the paper).
//!
//! Every absorb is a read-modify-update cycle against the disk-spilling
//! key/value store from `mr-kvstore`: fetch the previous partial result,
//! fold in the record, store it back. The store's byte-budgeted cache
//! bounds memory; cold keys cost a disk read — which is precisely why this
//! policy loses to spill-and-merge on high-key-cardinality workloads in
//! Figures 9/10.

use super::{PartialStore, StoreReport};
use crate::codec::{Codec, KeyCow};
use crate::error::MrResult;
use crate::size::SizeEstimate;
use crate::traits::{Application, Emit};
use mr_kvstore::{Store, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static KV_SERIAL: AtomicU64 = AtomicU64::new(0);

/// The store's scratch directory, deleted with everything in it when
/// the guard drops — after a finalize, a failed one, or a store dropped
/// unfinished by a failed or abandoned reduce task. The store declares it
/// after the handles that live in the directory, so they close first.
/// The guard, not the store, implements `Drop`, so `finalize_into` can
/// still move the store's other fields out.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Partial results held in a disk-spilling KV store.
pub struct KvBackedStore<A: Application> {
    kv: Store,
    heap_scale: f64,
    /// Encode scratch reused across absorbs (key, then state) — the
    /// read-modify-update cycle costs no allocations beyond what the
    /// store itself does.
    key_buf: Vec<u8>,
    state_buf: Vec<u8>,
    peak_entries: usize,
    peak_bytes: u64,
    _marker: std::marker::PhantomData<fn() -> A>,
    /// Holds `kv`'s segments; deleted after `kv` closes them.
    _dir: ScratchDir,
}

impl<A: Application> KvBackedStore<A> {
    /// Opens a fresh store under `scratch_dir` with `cache_bytes` of
    /// record cache.
    pub fn new(
        scratch_dir: &Path,
        cache_bytes: usize,
        heap_scale: f64,
        reducer: usize,
    ) -> MrResult<Self> {
        let serial = KV_SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_dir.join(format!("kv-{}-r{reducer}-{serial}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir = ScratchDir(dir);
        let kv = Store::open(StoreConfig::new(&dir.0).cache_bytes(cache_bytes))?;
        Ok(KvBackedStore {
            kv,
            heap_scale,
            key_buf: Vec::new(),
            state_buf: Vec::new(),
            peak_entries: 0,
            peak_bytes: 0,
            _marker: std::marker::PhantomData,
            _dir: dir,
        })
    }
}

impl<A: Application> PartialStore<A> for KvBackedStore<A> {
    fn absorb_view(
        &mut self,
        app: &A,
        key: KeyCow<'_, A::MapKey>,
        value: A::MapValue,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()> {
        // The application folds into an owned key on every record here:
        // the state lives on disk, so there is no stored key to lend.
        let key = key.into_owned();
        self.key_buf.clear();
        key.encode(&mut self.key_buf);
        // Read-modify-update, exactly the cycle described in §5.2.
        let mut state = match self.kv.get(&self.key_buf)? {
            Some(bytes) => A::State::from_bytes(&bytes)?,
            None => app.init(&key),
        };
        app.absorb(&key, &mut state, value, shared, out);
        self.state_buf.clear();
        state.encode(&mut self.state_buf);
        self.kv.put(&self.key_buf, &self.state_buf)?;
        self.peak_entries = self.peak_entries.max(self.kv.len());
        self.peak_bytes = self
            .peak_bytes
            .max((self.kv.cache_used_bytes() as f64 * self.heap_scale) as u64);
        Ok(())
    }

    fn finalize_into(
        self: Box<Self>,
        app: &A,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<StoreReport> {
        let mut this = *self;
        let entries = this.kv.len();
        // Cursor over everything; encoded-byte order is not key order, so
        // decode first and sort by the real key for deterministic output.
        let mut all: Vec<(A::MapKey, A::State)> = Vec::with_capacity(entries);
        for (key_bytes, state_bytes) in this.kv.scan_sorted()? {
            all.push((
                A::MapKey::from_bytes(&key_bytes)?,
                A::State::from_bytes(&state_bytes)?,
            ));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, state) in all {
            app.finalize(key, state, shared, out);
        }
        Ok(StoreReport {
            entries,
            peak_entries: this.peak_entries,
            peak_bytes: this.peak_bytes,
            kv_stats: Some(this.kv.stats()),
            ..StoreReport::default()
        })
    }

    fn snapshot_into(
        &mut self,
        app: &A,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<u64> {
        // Scan everything (encoded-byte order), decode, sort by the real
        // key — the same canonicalization (and the same transient
        // whole-store materialization) finalize performs, but leaving
        // every record in place. Scan reads count as store I/O and show
        // up in `io_bytes`, which is honest: a snapshot of a disk-backed
        // store costs disk. Note the transient Vec is real host memory
        // outside the modelled budget, exactly like finalize's — a
        // store too big to materialize once cannot finalize either.
        let mut all: Vec<(A::MapKey, A::State)> = Vec::with_capacity(self.kv.len());
        for (key_bytes, state_bytes) in self.kv.scan_sorted()? {
            all.push((
                A::MapKey::from_bytes(&key_bytes)?,
                A::State::from_bytes(&state_bytes)?,
            ));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        let mut bytes = 0u64;
        for (key, state) in &all {
            bytes += (key.estimated_bytes() + state.estimated_bytes()) as u64;
            app.snapshot_emit(key, state, out);
        }
        Ok(bytes)
    }

    fn modelled_bytes(&self) -> u64 {
        (self.kv.cache_used_bytes() as f64 * self.heap_scale) as u64
    }

    fn entries(&self) -> usize {
        self.kv.len()
    }

    fn io_bytes(&self) -> u64 {
        let st = self.kv.stats();
        st.bytes_written + st.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, WordCountApp};

    #[test]
    fn an_unfinished_store_deletes_its_directory_when_dropped() {
        let root = scratch_dir("kv-drop");
        let mut store = KvBackedStore::<WordCountApp>::new(&root, 256, 1.0, 0).expect("store");
        for i in 0..200 {
            store
                .absorb(&WordCountApp, format!("w{i}"), 1, &mut (), &mut Vec::new())
                .expect("absorb");
        }
        let dir = store.kv.dir().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "{dir:?} left behind");
        std::fs::remove_dir_all(&root).ok();
    }
}
