//! Disk spill-and-merge partial-result store (§5.1 of the paper).
//!
//! Partial results accumulate in an in-memory map; when the modelled
//! footprint reaches the threshold, the whole map is written out as a
//! key-sorted *run file* and the map is cleared. A key's partial results
//! may end up scattered across several runs, so the finalize phase
//! performs a k-way merge over all runs (plus the residual in-memory map),
//! combining same-key states with `Application::merge` — "this merge
//! function is often functionally the same as the combiner" — and then
//! finalizing each key exactly once, in key order.
//!
//! A run file is a `u64` entry count followed by that many entries, each
//! `u32 len | key | state` in [`Codec`] encoding. The merge works on
//! those bytes, and one kernel serves finalize and snapshots alike:
//!
//! * each run is read through a block cursor whose one buffer is no
//!   larger than the run or 128 KiB, grown only for a single entry that
//!   does not fit;
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
//! instead of on every insert, so run files come out key-sorted.

use super::index::{apply_byte_delta, PartialMap};
use super::{PartialStore, ScratchDir, StoreReport};
use crate::codec::{Codec, CodecError, KeyCow};
use crate::error::MrResult;
use crate::size::SizeEstimate;
use crate::traits::{Application, Emit};
use std::cmp::Ordering;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Distinguishes spill directories across tasks and tests in one process.
static SPILL_SERIAL: AtomicU64 = AtomicU64::new(0);

/// The largest buffer a run's cursor starts with.
const BLOCK_BYTES: u64 = 128 << 10;

/// The spill-and-merge store.
pub struct SpillMergeStore<A: Application> {
    map: PartialMap<A::MapKey, A::State>,
    raw_bytes: u64,
    threshold_bytes: u64,
    heap_scale: f64,
    runs: Vec<PathBuf>,
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
    /// Holds the runs; deleted when the store goes, finalized or not.
    dir: ScratchDir,
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
        let dir = scratch_dir.join(format!("spill-{}-r{reducer}-{serial}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
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
            dir: ScratchDir(dir),
        })
    }

    fn scaled(&self) -> u64 {
        (self.raw_bytes as f64 * self.heap_scale) as u64
    }

    /// Writes the current map as a key-sorted run and clears it.
    fn spill(&mut self) -> MrResult<()> {
        if self.map.is_empty() {
            return Ok(());
        }
        let path = self.dir.0.join(format!("run-{:04}.spill", self.runs.len()));
        let mut out = BufWriter::new(File::create(&path)?);
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
        self.spill_bytes += written + 8;
        self.runs.push(path);
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
    /// The merge kernel behind finalize and snapshots. Merges the run files (re-read from disk, in spill order) with the
    /// live map (encoded as one more run), folding each key's states with
    /// [`Application::merge`] — equal keys in spill order, the live map
    /// last — and hands each key with its folded state to `emit`, in key
    /// order. Leaves runs and map as they were; returns how many merges
    /// it made.
    fn merge_runs(&self, app: &A, mut emit: impl FnMut(A::MapKey, A::State)) -> MrResult<u64> {
        let mut sources = Vec::with_capacity(self.runs.len() + 1);
        for path in &self.runs {
            sources.push(Cursor::open(path)?);
        }
        let mut live = Vec::new();
        for (key, state) in self.map.sorted_view() {
            push_entry(&mut live, key, &*state);
        }
        sources.push(Cursor::in_memory(live, self.map.len() as u64));
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
struct LoserTree<K> {
    sources: Vec<Cursor>,
    tree: Vec<usize>,
    _key: PhantomData<fn() -> K>,
}

impl<K: Codec + Ord> LoserTree<K> {
    /// Reads every source's first entry and plays the opening matches.
    /// There is at least one source (the live run always is one).
    fn new(mut sources: Vec<Cursor>) -> MrResult<Self> {
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

/// A block cursor over one source's entries. A run file is read into
/// `buf` a block at a time; the live run is all in `buf` from the start.
struct Cursor {
    input: Box<dyn Read>,
    /// Source bytes not yet read into `buf`.
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

impl Cursor {
    /// Opens a run file and reads its entry count.
    fn open(path: &Path) -> MrResult<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut cursor = Cursor {
            input: Box::new(file),
            unread: len,
            buf: vec![0; len.min(BLOCK_BYTES) as usize],
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
    fn in_memory(bytes: Vec<u8>, entries: u64) -> Self {
        Cursor {
            input: Box::new(std::io::empty()),
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
        self.input.read_exact(&mut self.buf[have..have + read])?;
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

    #[test]
    fn an_unfinished_store_deletes_its_directory_when_dropped() {
        let root = scratch_dir("spill-drop");
        let store = spilled(&root);
        let dir = store.dir.0.clone();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "{dir:?} left behind");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Applies `damage` to a spilled store's first run: a snapshot and
    /// then a finalize must both fail with a codec error, and the failed
    /// finalize must still delete the store's directory.
    fn damaged_run_is_a_codec_error(what: &str, damage: impl FnOnce(&mut Vec<u8>)) {
        let root = scratch_dir("spill-damage");
        let mut store = spilled(&root);
        let mut run = std::fs::read(&store.runs[0]).expect("read run");
        damage(&mut run);
        std::fs::write(&store.runs[0], run).expect("write run");

        let snapshot = store.snapshot_into(&WordCountApp, &mut Vec::new());
        assert!(
            matches!(snapshot, Err(MrError::Codec(_))),
            "{what}: {snapshot:?}"
        );
        let dir = store.dir.0.clone();
        let finalize = store.finalize_into(&WordCountApp, &mut (), &mut Vec::new());
        assert!(
            matches!(finalize, Err(MrError::Codec(_))),
            "{what}: {finalize:?}"
        );
        assert!(!dir.exists(), "{what}: a failed finalize left {dir:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn damaged_runs_fail_finalize_and_snapshot_with_codec_errors() {
        let add_to_count = |run: &mut Vec<u8>, by: i64| {
            let count = u64::from_le_bytes(run[..8].try_into().expect("header"));
            run[..8].copy_from_slice(&count.wrapping_add_signed(by).to_le_bytes());
        };
        // The first entry's length word is at 8, its key's at 12 and the
        // key's first byte at 16.
        damaged_run_is_a_codec_error("truncated mid-entry", |run| {
            run.pop();
        });
        damaged_run_is_a_codec_error("length word past EOF", |run| {
            run[8..12].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        damaged_run_is_a_codec_error("invalid UTF-8 key", |run| run[16] = 0xFF);
        damaged_run_is_a_codec_error("count above the entries", |run| add_to_count(run, 1));
        damaged_run_is_a_codec_error("count below the entries", |run| add_to_count(run, -1));
    }
}
