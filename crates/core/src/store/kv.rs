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
use std::path::Path;

/// Partial results held in a disk-spilling KV store. The store's log file
/// is removed when it drops — after a finalize, a failed one, or a store
/// dropped unfinished by a failed or abandoned reduce task.
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
}

impl<A: Application> KvBackedStore<A> {
    /// Opens a fresh store, its log in `scratch_dir`, with `cache_bytes`
    /// of record cache.
    pub fn new(scratch_dir: &Path, cache_bytes: usize, heap_scale: f64) -> MrResult<Self> {
        let kv = Store::open(StoreConfig::new(scratch_dir).cache_bytes(cache_bytes))?;
        Ok(KvBackedStore {
            kv,
            heap_scale,
            key_buf: Vec::new(),
            state_buf: Vec::new(),
            peak_entries: 0,
            peak_bytes: 0,
            _marker: std::marker::PhantomData,
        })
    }

    /// Every partial result, decoded and sorted by the real key: the
    /// store scans in encoded-byte order, which is not key order. The
    /// scan reads through the cache and counts as store I/O, and the
    /// whole store is materialized once — real host memory outside the
    /// modelled budget.
    fn sorted(&mut self) -> MrResult<Vec<(A::MapKey, A::State)>> {
        let mut all = Vec::with_capacity(self.kv.len());
        for (key, state) in self.kv.scan_sorted()? {
            all.push((A::MapKey::from_bytes(&key)?, A::State::from_bytes(&state)?));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(all)
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
        mut self: Box<Self>,
        app: &A,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<StoreReport> {
        let entries = self.kv.len();
        for (key, state) in self.sorted()? {
            app.finalize(key, state, shared, out);
        }
        Ok(StoreReport {
            entries,
            peak_entries: self.peak_entries,
            peak_bytes: self.peak_bytes,
            kv_stats: Some(self.kv.stats()),
            ..StoreReport::default()
        })
    }

    fn snapshot_into(
        &mut self,
        app: &A,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<u64> {
        // The same canonicalization finalize performs, leaving every
        // record in place. A snapshot of a disk-backed store costs disk.
        let mut bytes = 0u64;
        for (key, state) in &self.sorted()? {
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
    use crate::error::MrError;
    use crate::testutil::{scratch_dir, WordCountApp};
    use std::io;
    use std::path::PathBuf;

    /// The `kv-*` entries under `root`.
    fn logs(root: &Path) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(root).expect("read scratch root");
        entries
            .map(|entry| entry.expect("entry").path())
            .filter(|path| {
                let name = path.file_name().expect("name").to_string_lossy();
                name.starts_with("kv-")
            })
            .collect()
    }

    fn absorb(store: &mut KvBackedStore<WordCountApp>, word: &str) -> MrResult<()> {
        store.absorb(&WordCountApp, word.to_string(), 1, &mut (), &mut Vec::new())
    }

    /// A store whose 256-byte cache holds a few of its 200 words, with
    /// every record written to its log file.
    fn flushed(root: &Path) -> Box<KvBackedStore<WordCountApp>> {
        let mut store = Box::new(KvBackedStore::new(root, 256, 1.0).expect("store"));
        for i in 0..200 {
            absorb(&mut store, &format!("w{i:03}")).expect("absorb");
        }
        // A miss on a buffered record writes the whole buffer out.
        absorb(&mut store, "w000").expect("absorb");
        store
    }

    fn is_io(result: &MrResult<impl std::fmt::Debug>, kind: io::ErrorKind) -> bool {
        matches!(result, Err(MrError::Io(e)) if e.kind() == kind)
    }

    #[test]
    fn a_store_keeps_one_log_file_and_removes_it_when_dropped() {
        let root = scratch_dir("kv-one-file");
        let store = flushed(&root);
        assert_eq!(logs(&root).len(), 1);
        let mut out = Vec::new();
        store
            .finalize_into(&WordCountApp, &mut (), &mut out)
            .expect("finalize");
        assert_eq!(out.len(), 200);
        assert_eq!(logs(&root), Vec::<PathBuf>::new(), "finalized");

        let store = flushed(&root);
        let log = logs(&root);
        assert_eq!(log.len(), 1);
        std::fs::File::options()
            .write(true)
            .open(&log[0])
            .and_then(|file| file.set_len(0))
            .expect("truncate");
        let failed = store.finalize_into(&WordCountApp, &mut (), &mut Vec::new());
        assert!(failed.is_err());
        assert_eq!(logs(&root), Vec::<PathBuf>::new(), "failed");

        let store = flushed(&root);
        assert_eq!(logs(&root).len(), 1);
        drop(store);
        assert_eq!(logs(&root), Vec::<PathBuf>::new(), "unfinished");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_damaged_log_fails_absorb_and_finalize_with_io_errors() {
        let root = scratch_dir("kv-damage");
        // Cut in half: a record past the cut reads short.
        let mut store = flushed(&root);
        let log = logs(&root).remove(0);
        let len = std::fs::metadata(&log).expect("stat").len();
        std::fs::File::options()
            .write(true)
            .open(&log)
            .and_then(|file| file.set_len(len / 2))
            .expect("truncate");
        let eof = io::ErrorKind::UnexpectedEof;
        assert!(is_io(&absorb(&mut store, "w150"), eof));
        let finalize = store.finalize_into(&WordCountApp, &mut (), &mut Vec::new());
        assert!(is_io(&finalize, eof), "{finalize:?}");

        // One record's key rewritten: it no longer holds the key its
        // index entry names.
        let mut store = flushed(&root);
        let log = logs(&root).remove(0);
        let mut bytes = std::fs::read(&log).expect("read log");
        let at = bytes
            .windows(4)
            .position(|w| w == b"w150")
            .expect("w150's record");
        bytes[at] = b'x';
        // Rewrites the file in place: the store's descriptor sees it.
        std::fs::write(&log, bytes).expect("write log");
        let invalid = io::ErrorKind::InvalidData;
        assert!(is_io(&absorb(&mut store, "w150"), invalid));
        let finalize = store.finalize_into(&WordCountApp, &mut (), &mut Vec::new());
        assert!(is_io(&finalize, invalid), "{finalize:?}");
        assert_eq!(logs(&root), Vec::<PathBuf>::new());
        std::fs::remove_dir_all(&root).ok();
    }
}
