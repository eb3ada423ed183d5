//! Disk spill-and-merge partial-result store (§5.1 of the paper).
//!
//! Partial results accumulate in an in-memory map; when the modelled
//! footprint reaches the threshold, the whole map is appended to the
//! store's one spill file as a key-sorted *run* and the map is cleared.
//! A key's partial results may end up scattered across several runs, so
//! the finalize phase performs a k-way merge over all runs (plus the
//! residual in-memory map), combining same-key states with
//! `Application::merge` — "this merge function is often functionally the
//! same as the combiner" — and then finalizing each key exactly once, in
//! key order.
//!
//! A run is a `u64` entry count followed by that many entries, each
//! `u32 len | key | state` in [`Codec`] encoding, and the store records
//! where each run lies in the file as `(offset, len)`. The file is the
//! store's only one: created with the store, never reopened, and removed
//! when the store drops, finalized or not. The merge works on the runs'
//! bytes, and one kernel serves finalize and snapshots alike:
//!
//! * each run is read through a block cursor that makes positional reads
//!   on the store's file, bounded by the run's length, so a damaged run
//!   is an error and never reads into the next one. Its one buffer holds
//!   a block of `threshold / runs`, clamped to 4 KiB–128 KiB and to the
//!   run's length, so all buffers together stay near the threshold;
//!   it grows only for a single entry that does not fit;
//! * the live map joins as one more run, its sorted view encoded in
//!   memory, so neither the runs nor the map change;
//! * a loser tree orders the runs' heads by their keys' 8-byte
//!   [`Codec::sort_prefix`], calls [`Codec::cmp_encoded`] only on an
//!   inexact tie, and breaks ties by run — so equal keys fold in spill
//!   order with the live map last;
//! * each distinct key is decoded once, each state once, and a damaged
//!   run is a typed [`CodecError`], never a panic.
//!
//! The live map is hashed: absorbs are O(1) expected probes and the key
//! sort happens once per spill (inside [`PartialMap::drain_sorted`])
//! instead of on every insert, so runs come out key-sorted.

use super::index::{apply_byte_delta, PartialMap};
use super::{PartialStore, StoreReport};
use crate::codec::{Codec, CodecError, KeyCow};
use crate::error::MrResult;
use crate::size::SizeEstimate;
use crate::traits::{Application, Emit};
use std::cmp::Ordering;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Distinguishes spill files across tasks and tests in one process.
static SPILL_SERIAL: AtomicU64 = AtomicU64::new(0);

/// The bounds of a run cursor's block.
const MIN_BLOCK_BYTES: u64 = 4 << 10;
const MAX_BLOCK_BYTES: u64 = 128 << 10;

/// Where one run lies in the spill file.
#[derive(Clone, Copy)]
struct Run {
    offset: u64,
    len: u64,
}

/// The store's spill file, removed when the guard drops — after a
/// finalize, a failed one, or a store dropped unfinished by a failed or
/// abandoned reduce task. The guard, not the store, implements `Drop`,
/// so `finalize_into` can still move the store's other fields out.
struct SpillFile {
    file: File,
    path: PathBuf,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// The spill-and-merge store.
pub struct SpillMergeStore<A: Application> {
    map: PartialMap<A::MapKey, A::State>,
    raw_bytes: u64,
    threshold_bytes: u64,
    heap_scale: f64,
    /// Every run spilled so far, in spill order, back to back in `file`.
    runs: Vec<Run>,
    /// One encode buffer reused for every record of every run — the
    /// per-record cost is a `clear()`, not an allocation.
    encode_buf: Vec<u8>,
    peak_entries: usize,
    peak_bytes: u64,
    spill_bytes: u64,
    /// Run bytes re-read by snapshots (charged to disk via `io_bytes`,
    /// never to the spill accounting — snapshots must not look like
    /// spills).
    snapshot_read_bytes: u64,
    file: SpillFile,
}

impl<A: Application> SpillMergeStore<A> {
    /// A store spilling into `scratch_dir` when the *modelled* footprint
    /// reaches `threshold_bytes`.
    pub fn new(
        scratch_dir: &Path,
        threshold_bytes: u64,
        heap_scale: f64,
        reducer: usize,
    ) -> MrResult<Self> {
        let serial = SPILL_SERIAL.fetch_add(1, AtomicOrdering::Relaxed);
        let path = scratch_dir.join(format!("spill-{}-r{reducer}-{serial}", std::process::id()));
        std::fs::create_dir_all(scratch_dir)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(SpillMergeStore {
            map: PartialMap::new(),
            raw_bytes: 0,
            threshold_bytes,
            heap_scale,
            runs: Vec::new(),
            encode_buf: Vec::new(),
            peak_entries: 0,
            peak_bytes: 0,
            spill_bytes: 0,
            snapshot_read_bytes: 0,
            file: SpillFile { file, path },
        })
    }

    fn scaled(&self) -> u64 {
        (self.raw_bytes as f64 * self.heap_scale) as u64
    }

    /// Appends the current map to the file as a key-sorted run and clears
    /// it. The runs lie back to back, so the file's position is always
    /// the end of the last one.
    fn spill(&mut self) -> MrResult<()> {
        if self.map.is_empty() {
            return Ok(());
        }
        let mut out = BufWriter::new(&self.file.file);
        let entries = self.map.drain_sorted();
        out.write_all(&(entries.len() as u64).to_le_bytes())?;
        let buf = &mut self.encode_buf;
        let mut written = 0u64;
        for (key, state) in entries {
            buf.clear();
            push_entry(buf, &key, &state);
            out.write_all(buf)?;
            written += buf.len() as u64;
        }
        out.flush()?;
        let len = written + 8;
        self.runs.push(Run {
            offset: self.spill_bytes,
            len,
        });
        self.spill_bytes += len;
        self.raw_bytes = 0;
        Ok(())
    }
}

/// Appends one run entry, `u32 len | key | state`, to `buf`.
fn push_entry<K: Codec, S: Codec>(buf: &mut Vec<u8>, key: &K, state: &S) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    key.encode(buf);
    state.encode(buf);
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

impl<A: Application> PartialStore<A> for SpillMergeStore<A> {
    fn absorb_view(
        &mut self,
        app: &A,
        key: KeyCow<'_, A::MapKey>,
        value: A::MapValue,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()> {
        let delta = self.map.upsert(
            key,
            |k| app.init(k),
            |k, state| app.absorb(k, state, value, shared, out),
        );
        self.raw_bytes = apply_byte_delta(self.raw_bytes, delta);
        self.peak_entries = self.peak_entries.max(self.map.len());
        self.peak_bytes = self.peak_bytes.max(self.scaled());
        if self.scaled() >= self.threshold_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn finalize_into(
        self: Box<Self>,
        app: &A,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<StoreReport> {
        let this = *self;
        let mut report = StoreReport {
            entries: this.map.len(),
            peak_entries: this.peak_entries,
            peak_bytes: this.peak_bytes,
            spill_files: this.runs.len() as u64,
            spill_bytes: this.spill_bytes,
            ..StoreReport::default()
        };
        if this.runs.is_empty() {
            // Never spilled: plain in-memory finalize, key-sorted.
            for (key, state) in this.map.into_sorted_iter() {
                app.finalize(key, state, shared, out);
            }
        } else {
            report.merged_states = this.merge_runs(app, |k, s| app.finalize(k, s, shared, out))?;
        }
        Ok(report)
    }

    fn snapshot_into(
        &mut self,
        app: &A,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<u64> {
        let mut bytes = 0u64;
        let mut emit = |key: &A::MapKey, state: &A::State| {
            bytes += (key.estimated_bytes() + state.estimated_bytes()) as u64;
            app.snapshot_emit(key, state, out);
        };
        if self.runs.is_empty() {
            for (key, state) in self.map.sorted_view() {
                emit(key, &state);
            }
        } else {
            // A key's partials may be scattered across runs and the live
            // map, so a self-consistent snapshot needs finalize's merge,
            // which leaves both in place.
            self.merge_runs(app, |k, s| emit(&k, &s))?;
            self.snapshot_read_bytes += self.spill_bytes;
        }
        Ok(bytes)
    }

    fn modelled_bytes(&self) -> u64 {
        self.scaled()
    }

    fn entries(&self) -> usize {
        self.map.len()
    }

    fn io_bytes(&self) -> u64 {
        self.spill_bytes + self.snapshot_read_bytes
    }
}

impl<A: Application> SpillMergeStore<A> {
    /// The merge kernel behind finalize and snapshots. Merges the runs
    /// (re-read from the spill file, in spill order) with the live map
    /// (encoded as one more run), folding each key's states with
    /// [`Application::merge`] — equal keys in spill order, the live map
    /// last — and hands each key with its folded state to `emit`, in key
    /// order. Leaves runs and map as they were; returns how many merges
    /// it made.
    fn merge_runs(&self, app: &A, mut emit: impl FnMut(A::MapKey, A::State)) -> MrResult<u64> {
        let file = &self.file.file;
        let block = (self.threshold_bytes / self.runs.len().max(1) as u64)
            .clamp(MIN_BLOCK_BYTES, MAX_BLOCK_BYTES);
        let mut sources = Vec::with_capacity(self.runs.len() + 1);
        for &run in &self.runs {
            sources.push(Cursor::run(file, run, block)?);
        }
        let mut live = Vec::new();
        for (key, state) in self.map.sorted_view() {
            push_entry(&mut live, key, &*state);
        }
        sources.push(Cursor::in_memory(file, live, self.map.len() as u64));
        let mut tree = LoserTree::<A::MapKey>::new(sources)?;
        let mut key_bytes = Vec::new();
        let mut merged = 0u64;
        while let Some((first, state)) = tree.head() {
            // The winner's buffer may move when it advances, so the key
            // the following heads are compared with is a copy.
            key_bytes.clear();
            key_bytes.extend_from_slice(first.bytes);
            let current = EncodedKey {
                bytes: &key_bytes,
                ..first
            };
            let key = A::MapKey::from_bytes(&key_bytes)?;
            let mut acc = A::State::from_bytes(state)?;
            tree.pop()?;
            while let Some((next, state)) = tree.head() {
                if current.order::<A::MapKey>(&next)? != Ordering::Equal {
                    break;
                }
                let state = A::State::from_bytes(state)?;
                tree.pop()?;
                merged += 1;
                acc = app.merge(&key, acc, state);
            }
            emit(key, acc);
        }
        Ok(merged)
    }
}

/// A key as the merge compares it: its encoding and its sort prefix.
#[derive(Clone, Copy)]
struct EncodedKey<'a> {
    bytes: &'a [u8],
    prefix: u64,
    exact: bool,
}

impl EncodedKey<'_> {
    /// Orders two keys as `K: Ord` orders them: by prefix, and on a tie
    /// that is not exact on both sides, by [`Codec::cmp_encoded`] —
    /// unless the bytes are equal, which makes the keys equal.
    fn order<K: Codec + Ord>(&self, other: &EncodedKey) -> Result<Ordering, CodecError> {
        if self.prefix != other.prefix {
            Ok(self.prefix.cmp(&other.prefix))
        } else if (self.exact && other.exact) || self.bytes == other.bytes {
            Ok(Ordering::Equal)
        } else {
            K::cmp_encoded(self.bytes, other.bytes)
        }
    }
}

/// A loser tree over the merge's sources. Source `i` is leaf `k + i`;
/// internal node `n` (children `2n` and `2n + 1`) keeps the loser of its
/// match and `tree[0]` the overall winner, so advancing the winner
/// replays one leaf-to-root path: ⌈log₂ k⌉ comparisons.
struct LoserTree<'f, K> {
    sources: Vec<Cursor<'f>>,
    tree: Vec<usize>,
    _key: PhantomData<fn() -> K>,
}

impl<'f, K: Codec + Ord> LoserTree<'f, K> {
    /// Reads every source's first entry and plays the opening matches.
    /// There is at least one source (the live run always is one).
    fn new(mut sources: Vec<Cursor<'f>>) -> MrResult<Self> {
        for source in &mut sources {
            source.advance::<K>()?;
        }
        let k = sources.len();
        let mut this = LoserTree {
            sources,
            tree: vec![0; k],
            _key: PhantomData,
        };
        // winners[n]: the winner of node n's subtree; leaves from k on.
        let mut winners = vec![0; k];
        winners.extend(0..k);
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let (win, lose) = if this.before(a, b)? { (a, b) } else { (b, a) };
            winners[n] = win;
            this.tree[n] = lose;
        }
        this.tree[0] = winners[1];
        Ok(this)
    }

    /// Whether source `a`'s head goes before source `b`'s: by key, equal
    /// keys by source, exhausted sources last. The ranks settle every
    /// match but an inexact prefix tie without touching a buffer.
    fn before(&self, a: usize, b: usize) -> Result<bool, CodecError> {
        let (x, y) = (&self.sources[a], &self.sources[b]);
        let order = if x.rank != y.rank || (x.exact && y.exact) {
            x.rank.cmp(&y.rank)
        } else if let (Some((kx, _)), Some((ky, _))) = (x.head(), y.head()) {
            kx.order::<K>(&ky)?
        } else {
            Ordering::Equal
        };
        Ok(order.then(a.cmp(&b)) == Ordering::Less)
    }

    /// The least head: its key and its state's bytes. `None` once every
    /// source is exhausted.
    fn head(&self) -> Option<(EncodedKey<'_>, &[u8])> {
        self.sources[self.tree[0]].head()
    }

    /// Advances the winner's source and replays its path to the root.
    fn pop(&mut self) -> MrResult<()> {
        let mut winner = self.tree[0];
        self.sources[winner].advance::<K>()?;
        let mut node = (self.sources.len() + winner) / 2;
        while node > 0 {
            if self.before(self.tree[node], winner)? {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
        Ok(())
    }
}

/// A block cursor over one source's entries. A run is read from the
/// spill file into `buf` a block at a time; the live run is all in `buf`
/// from the start and never reads the file.
struct Cursor<'f> {
    file: &'f File,
    /// The file offset of the run's first byte not yet read into `buf`.
    next: u64,
    /// Run bytes not yet read into `buf`: no read goes past them.
    unread: u64,
    buf: Vec<u8>,
    /// `buf[pos..filled]` is read and not yet consumed.
    pos: usize,
    filled: usize,
    /// Entries after the head.
    remaining: u64,
    /// `None` once the source is exhausted.
    head: Option<Head>,
    /// What the tree compares first: the head key's sort prefix, or 2⁶⁴
    /// past the last entry, which orders an exhausted source last.
    rank: u128,
    /// Whether `rank` settles a tie alone: the prefix is exact, or the
    /// source is exhausted.
    exact: bool,
}

/// Where a cursor's head entry lies in its buffer: the key at
/// `key..state`, the state at `state..end`.
#[derive(Clone, Copy)]
struct Head {
    key: usize,
    state: usize,
    end: usize,
}

impl<'f> Cursor<'f> {
    /// A cursor over `run` in `file`, reading `block` bytes at a time;
    /// reads the run's entry count.
    fn run(file: &'f File, run: Run, block: u64) -> MrResult<Self> {
        let mut cursor = Cursor {
            file,
            next: run.offset,
            unread: run.len,
            buf: vec![0; run.len.min(block) as usize],
            pos: 0,
            filled: 0,
            remaining: 0,
            head: None,
            rank: 0,
            exact: false,
        };
        cursor.fill(8)?;
        cursor.remaining = u64::decode(&mut &cursor.buf[cursor.pos..cursor.filled])?;
        cursor.pos += 8;
        Ok(cursor)
    }

    /// A run body already in memory: `entries` entries and nothing else.
    fn in_memory(file: &'f File, bytes: Vec<u8>, entries: u64) -> Self {
        Cursor {
            file,
            next: 0,
            unread: 0,
            filled: bytes.len(),
            buf: bytes,
            pos: 0,
            remaining: entries,
            head: None,
            rank: 0,
            exact: false,
        }
    }

    /// Makes at least `need` unconsumed bytes available: moves what is
    /// left to the front of the buffer and reads the next block behind
    /// it, growing the buffer only if `need` is larger.
    fn fill(&mut self, need: usize) -> MrResult<()> {
        let have = self.filled - self.pos;
        if have >= need {
            return Ok(());
        }
        if (need - have) as u64 > self.unread {
            return Err(CodecError::UnexpectedEof.into());
        }
        self.buf.copy_within(self.pos..self.filled, 0);
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        let read = ((self.buf.len() - have) as u64).min(self.unread) as usize;
        self.file
            .read_exact_at(&mut self.buf[have..have + read], self.next)?;
        self.next += read as u64;
        self.unread -= read as u64;
        self.pos = 0;
        self.filled = have + read;
        Ok(())
    }

    /// Moves the head to the next entry, or to `None` past the last —
    /// where the source must end too.
    fn advance<K: Codec>(&mut self) -> MrResult<()> {
        if self.remaining == 0 {
            if self.filled > self.pos || self.unread > 0 {
                return Err(CodecError::Corrupt("trailing bytes in spill run").into());
            }
            self.head = None;
            (self.rank, self.exact) = (1 << 64, true);
            return Ok(());
        }
        self.remaining -= 1;
        self.fill(4)?;
        let len = u32::decode(&mut &self.buf[self.pos..self.filled])? as usize;
        self.fill(4 + len)?;
        let key = self.pos + 4;
        let end = key + len;
        let mut entry = &self.buf[key..end];
        let (prefix, exact) = K::sort_prefix(&mut entry)?;
        self.head = Some(Head {
            key,
            state: end - entry.len(),
            end,
        });
        (self.rank, self.exact) = (prefix.into(), exact);
        self.pos = end;
        Ok(())
    }

    /// The head's key and its state's bytes.
    fn head(&self) -> Option<(EncodedKey<'_>, &[u8])> {
        let head = self.head?;
        let key = EncodedKey {
            bytes: &self.buf[head.key..head.state],
            prefix: self.rank as u64,
            exact: self.exact,
        };
        Some((key, &self.buf[head.state..head.end]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MrError;
    use crate::testutil::{scratch_dir, WordCountApp};
    use std::collections::BTreeMap;

    fn store(root: &Path, threshold: u64) -> Box<SpillMergeStore<WordCountApp>> {
        let store = SpillMergeStore::new(root, threshold, 1.0, 0);
        Box::new(store.expect("store"))
    }

    fn absorb(store: &mut SpillMergeStore<WordCountApp>, word: &str) {
        store
            .absorb(&WordCountApp, word.to_string(), 1, &mut (), &mut Vec::new())
            .expect("absorb");
    }

    /// A store that has spilled several runs and holds live partials too.
    fn spilled(root: &Path) -> Box<SpillMergeStore<WordCountApp>> {
        let mut store = store(root, 1 << 10);
        for i in (0..200).map(|i| i % 100) {
            absorb(&mut store, &format!("word-{i:03}"));
        }
        assert!(store.runs.len() >= 2 && !store.map.is_empty());
        store
    }

    #[test]
    fn merges_runs_bigger_than_a_block_and_an_entry_bigger_than_the_buffer() {
        let root = scratch_dir("spill-blocks");
        // Runs of ≈300 KiB, read in several blocks, and one key longer
        // than a block, which grows its run's buffer once.
        let mut words: Vec<String> = (0..12_000).map(|i| format!("word-{i:05}")).collect();
        words.push("x".repeat(200 << 10));
        let mut store = store(&root, 1 << 20);
        let mut want: BTreeMap<String, u64> = BTreeMap::new();
        for round in 0..3 {
            for word in words.iter().skip(round) {
                absorb(&mut store, word);
                *want.entry(word.clone()).or_default() += 1;
            }
        }
        assert!(store.runs.len() >= 2, "test needs several runs");
        let mut snapshot = Vec::new();
        store
            .snapshot_into(&WordCountApp, &mut snapshot)
            .expect("snapshot");
        let mut out = Vec::new();
        let report = store
            .finalize_into(&WordCountApp, &mut (), &mut out)
            .expect("finalize");
        let want: Vec<(String, u64)> = want.into_iter().collect();
        assert_eq!(out, want);
        assert_eq!(snapshot, want);
        assert!(report.merged_states > 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// The `spill-*` entries under `root`.
    fn spill_entries(root: &Path) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(root).expect("read scratch root");
        entries
            .map(|entry| entry.expect("entry").path())
            .filter(|path| {
                let name = path.file_name().expect("name").to_string_lossy();
                name.starts_with("spill-")
            })
            .collect()
    }

    /// A store that has spilled more than a hundred runs.
    fn many_runs(root: &Path) -> Box<SpillMergeStore<WordCountApp>> {
        let mut store = store(root, 1 << 10);
        for i in (0..3_000).map(|i| i % 500) {
            absorb(&mut store, &format!("word-{i:03}"));
        }
        assert!(store.runs.len() > 100, "{} runs", store.runs.len());
        store
    }

    #[test]
    fn a_store_spills_into_one_file_and_removes_it_when_dropped() {
        let root = scratch_dir("spill-one-file");
        let store = many_runs(&root);
        assert_eq!(spill_entries(&root), [store.file.path.as_path()]);
        let mut out = Vec::new();
        store
            .finalize_into(&WordCountApp, &mut (), &mut out)
            .expect("finalize");
        assert_eq!(out.len(), 500);
        assert_eq!(spill_entries(&root), Vec::<PathBuf>::new(), "finalized");

        // Cut short by a byte, run 1 ends mid-entry: the finalize fails.
        let mut store = many_runs(&root);
        store.runs[1].len -= 1;
        assert_eq!(spill_entries(&root).len(), 1);
        let failed = store.finalize_into(&WordCountApp, &mut (), &mut Vec::new());
        assert!(failed.is_err());
        assert_eq!(spill_entries(&root), Vec::<PathBuf>::new(), "failed");

        let store = many_runs(&root);
        assert_eq!(spill_entries(&root).len(), 1);
        drop(store);
        assert_eq!(spill_entries(&root), Vec::<PathBuf>::new(), "unfinished");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn the_merge_reads_through_the_stores_descriptor_and_opens_no_file() {
        let root = scratch_dir("spill-unlinked");
        let mut store = spilled(&root);
        // With its name gone, the file is reachable only through the
        // descriptor the store already holds.
        std::fs::remove_file(&store.file.path).expect("unlink");
        let want: Vec<(String, u64)> = (0..100).map(|i| (format!("word-{i:03}"), 2)).collect();
        let mut snapshot = Vec::new();
        store
            .snapshot_into(&WordCountApp, &mut snapshot)
            .expect("snapshot");
        let mut out = Vec::new();
        store
            .finalize_into(&WordCountApp, &mut (), &mut out)
            .expect("finalize");
        assert_eq!(snapshot, want);
        assert_eq!(out, want);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Replaces run `index`'s bytes in the spill file with what `damage`
    /// makes of them, moving the runs after it by the change in length.
    fn damage_run(
        store: &mut SpillMergeStore<WordCountApp>,
        index: usize,
        damage: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut bytes = std::fs::read(&store.file.path).expect("read spill file");
        let Run { offset, len } = store.runs[index];
        let range = offset as usize..(offset + len) as usize;
        let mut run = bytes[range.clone()].to_vec();
        damage(&mut run);
        let new_len = run.len() as u64;
        bytes.splice(range, run);
        // Rewrites the file in place: the store's descriptor sees it.
        std::fs::write(&store.file.path, bytes).expect("write spill file");
        store.runs[index].len = new_len;
        for later in &mut store.runs[index + 1..] {
            later.offset = later.offset + new_len - len;
        }
    }

    /// Applies `damage` to run `index` of a spilled store (`None`: a
    /// middle run): a snapshot and then a finalize must both fail with
    /// `want`, and the failed finalize must still remove the store's file.
    fn damaged_run_is_a_codec_error(
        what: &str,
        index: Option<usize>,
        want: impl Fn(&CodecError) -> bool,
        damage: impl FnOnce(&mut Vec<u8>),
    ) {
        let root = scratch_dir("spill-damage");
        let mut store = spilled(&root);
        let runs = store.runs.len();
        let index = index.unwrap_or(runs / 2);
        assert!(
            runs >= 3 && index < runs - 1,
            "{what}: needs a run after it"
        );
        damage_run(&mut store, index, damage);
        let what = format!("{what} (run {index} of {runs})");

        let snapshot = store.snapshot_into(&WordCountApp, &mut Vec::new());
        assert!(
            matches!(&snapshot, Err(MrError::Codec(e)) if want(e)),
            "{what}: {snapshot:?}"
        );
        let finalize = store.finalize_into(&WordCountApp, &mut (), &mut Vec::new());
        assert!(
            matches!(&finalize, Err(MrError::Codec(e)) if want(e)),
            "{what}: {finalize:?}"
        );
        assert_eq!(
            spill_entries(&root),
            Vec::<PathBuf>::new(),
            "{what}: a failed finalize left its file"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn damaged_runs_fail_finalize_and_snapshot_with_codec_errors() {
        let add_to_count = |run: &mut Vec<u8>, by: i64| {
            let count = u64::from_le_bytes(run[..8].try_into().expect("header"));
            run[..8].copy_from_slice(&count.wrapping_add_signed(by).to_le_bytes());
        };
        let any = |_: &CodecError| true;
        // The first run, then a middle one, located by its offset. A
        // run's first length word is at 8, its key's at 12 and the key's
        // first byte at 16.
        for index in [Some(0), None] {
            damaged_run_is_a_codec_error("truncated mid-entry", index, any, |run| {
                run.pop();
            });
            damaged_run_is_a_codec_error("length word past its end", index, any, |run| {
                run[8..12].copy_from_slice(&u32::MAX.to_le_bytes())
            });
            damaged_run_is_a_codec_error("invalid UTF-8 key", index, any, |run| run[16] = 0xFF);
            damaged_run_is_a_codec_error("count above the entries", index, any, |run| {
                add_to_count(run, 1)
            });
            damaged_run_is_a_codec_error("count below the entries", index, any, |run| {
                add_to_count(run, -1)
            });
        }
    }

    #[test]
    fn a_run_whose_count_overstates_its_entries_stops_at_its_own_end() {
        // Read on into the next run, the extra entry would take that
        // run's count word for a length word and decode its bytes; kept
        // to its own bytes, the run simply ends too soon.
        let eof = |e: &CodecError| *e == CodecError::UnexpectedEof;
        damaged_run_is_a_codec_error("middle run's count overstated", None, eof, |run| {
            let count = u64::from_le_bytes(run[..8].try_into().expect("header"));
            run[..8].copy_from_slice(&(count + 1).to_le_bytes());
        });
    }
}
