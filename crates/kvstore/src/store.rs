//! The store: index + active segment + record cache.

use crate::lru::LruCache;
use crate::segment::{SegmentId, SegmentReader, SegmentWriter};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Where a live record lives on disk.
#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: SegmentId,
    offset: u64,
}

/// Configuration for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory for segment files (created if missing).
    pub dir: PathBuf,
    /// Record-cache budget in bytes.
    pub cache_bytes: usize,
    /// Roll the active segment after this many bytes.
    pub segment_bytes: u64,
}

impl StoreConfig {
    /// Defaults: 16 MB cache, 64 MB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            cache_bytes: 16 << 20,
            segment_bytes: 64 << 20,
        }
    }

    /// Sets the record-cache budget.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the segment roll size.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }
}

/// Operation counters exposed for cost modelling and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total `put` calls.
    pub puts: u64,
    /// Total `get` calls.
    pub gets: u64,
    /// Gets served from the record cache.
    pub cache_hits: u64,
    /// Gets that had to touch disk.
    pub cache_misses: u64,
    /// Records pushed out of the cache.
    pub evictions: u64,
    /// Bytes appended to segment logs.
    pub bytes_written: u64,
    /// Bytes read back from segment logs.
    pub bytes_read: u64,
    /// Active-segment flushes forced by reads of unflushed data.
    pub read_stalls: u64,
}

/// A single-writer disk-spilling key/value store.
pub struct Store {
    cfg: StoreConfig,
    index: HashMap<Box<[u8]>, Loc>,
    cache: LruCache,
    active: SegmentWriter,
    readers: HashMap<SegmentId, SegmentReader>,
    sealed: Vec<SegmentId>,
    next_segment: u32,
    stats: StoreStats,
}

impl Store {
    /// Opens (or creates) a store in `cfg.dir`. Any existing segment files
    /// in the directory are replayed to rebuild the index (recovery).
    pub fn open(cfg: StoreConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut existing: Vec<SegmentId> = std::fs::read_dir(&cfg.dir)?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let num = name.strip_prefix("seg-")?.strip_suffix(".log")?;
                Some(SegmentId(num.parse().ok()?))
            })
            .collect();
        existing.sort();

        let mut index = HashMap::new();
        for &seg in &existing {
            let mut reader = SegmentReader::open(&cfg.dir, seg)?;
            for (offset, key, _value) in reader.scan()? {
                index.insert(
                    key.into_boxed_slice(),
                    Loc {
                        segment: seg,
                        offset,
                    },
                );
            }
        }
        let next = existing.last().map_or(0, |s| s.0 + 1);
        let active = SegmentWriter::create(&cfg.dir, SegmentId(next))?;
        Ok(Store {
            cache: LruCache::new(cfg.cache_bytes),
            index,
            active,
            readers: HashMap::new(),
            sealed: existing,
            next_segment: next + 1,
            stats: StoreStats::default(),
            cfg,
        })
    }

    /// Inserts or overwrites `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        self.stats.puts += 1;
        let offset = self.active.append(key, value)?;
        self.stats.bytes_written += 8 + key.len() as u64 + value.len() as u64;
        self.index.insert(
            key.into(),
            Loc {
                segment: self.active.id(),
                offset,
            },
        );
        // An oversize record simply stays cold on disk; the typed
        // rejection matters to callers that do their own accounting.
        if let Ok(evicted) = self.cache.put(key, value) {
            self.stats.evictions += evicted.len() as u64;
        }
        if self.active.len() >= self.cfg.segment_bytes {
            self.roll_segment()?;
        }
        Ok(())
    }

    /// Fetches `key`, from cache when hot, from the log otherwise.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        self.stats.gets += 1;
        if let Some(v) = self.cache.get(key) {
            self.stats.cache_hits += 1;
            return Ok(Some(v.to_vec()));
        }
        let Some(&loc) = self.index.get(key) else {
            // Not a *cache* miss: the key simply doesn't exist.
            return Ok(None);
        };
        self.stats.cache_misses += 1;
        let value = self.read_loc(loc)?;
        if let Ok(evicted) = self.cache.put(key, &value) {
            self.stats.evictions += evicted.len() as u64;
        }
        self.stats.bytes_read += 8 + key.len() as u64 + value.len() as u64;
        Ok(Some(value))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Flushes the active segment to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        self.active.flush()
    }

    /// Returns every live `(key, value)` in ascending key order.
    ///
    /// This is the reducer's finalize scan; it deliberately routes through
    /// `get` so cache behaviour (and its cost) is identical to BDB cursor
    /// reads over a cold working set.
    pub fn scan_sorted(&mut self) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut keys: Vec<Box<[u8]>> = self.index.keys().cloned().collect();
        keys.sort();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let value = self
                .get(&key)?
                .expect("indexed key must be readable during scan");
            out.push((key.into_vec(), value));
        }
        Ok(out)
    }

    /// Operation counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Bytes resident in the record cache.
    pub fn cache_used_bytes(&self) -> usize {
        self.cache.used_bytes()
    }

    /// Count of on-disk segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    fn read_loc(&mut self, loc: Loc) -> io::Result<Vec<u8>> {
        if loc.segment == self.active.id() && !self.active.is_flushed_past(loc.offset) {
            self.active.flush()?;
            self.stats.read_stalls += 1;
            // The active segment's reader (if any) sees the new bytes since
            // it reads from the same file.
        }
        let dir = self.cfg.dir.clone();
        let reader = match self.readers.entry(loc.segment) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SegmentReader::open(&dir, loc.segment)?)
            }
        };
        let (_key, value) = reader.read_at(loc.offset)?;
        Ok(value)
    }

    fn roll_segment(&mut self) -> io::Result<()> {
        self.active.flush()?;
        self.sealed.push(self.active.id());
        let next = SegmentId(self.next_segment);
        self.next_segment += 1;
        self.active = SegmentWriter::create(&self.cfg.dir, next)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_tmp(tag: &str, cache: usize, segment: u64) -> (Store, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mr-kv-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(
            StoreConfig::new(&dir)
                .cache_bytes(cache)
                .segment_bytes(segment),
        )
        .unwrap();
        (store, dir)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut kv, dir) = open_tmp("rt", 1 << 20, 1 << 20);
        kv.put(b"hello", b"world").unwrap();
        assert_eq!(kv.get(b"hello").unwrap().unwrap(), b"world");
        assert_eq!(kv.get(b"missing").unwrap(), None);
        assert_eq!(kv.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn overwrite_returns_latest() {
        let (mut kv, dir) = open_tmp("ow", 1 << 20, 1 << 20);
        kv.put(b"k", b"v1").unwrap();
        kv.put(b"k", b"v2").unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), b"v2");
        assert_eq!(kv.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reads_spill_to_disk_when_cache_is_tiny() {
        // Cache fits ~2 entries; write 500, read them all back.
        let (mut kv, dir) = open_tmp("spill", 300, 1 << 20);
        for i in 0..500u32 {
            kv.put(&i.to_le_bytes(), &(i * 3).to_le_bytes()).unwrap();
        }
        for i in 0..500u32 {
            let v = kv.get(&i.to_le_bytes()).unwrap().unwrap();
            assert_eq!(v, (i * 3).to_le_bytes());
        }
        let st = kv.stats();
        assert!(st.cache_misses > 400, "expected mostly misses: {st:?}");
        assert!(st.evictions > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn hot_keys_hit_cache() {
        let (mut kv, dir) = open_tmp("hot", 1 << 20, 1 << 20);
        kv.put(b"hot", b"x").unwrap();
        for _ in 0..100 {
            kv.get(b"hot").unwrap();
        }
        let st = kv.stats();
        assert_eq!(st.cache_hits, 100);
        assert_eq!(st.cache_misses, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_replays_the_log() {
        let (mut kv, dir) = open_tmp("rec", 1 << 20, 4 << 10);
        for i in 0..1000u32 {
            kv.put(&i.to_le_bytes(), &(i ^ 0xAB).to_le_bytes()).unwrap();
        }
        kv.flush().unwrap();
        let segs = kv.segment_count();
        assert!(segs > 1, "should have rolled segments, got {segs}");
        drop(kv);

        let mut kv2 = Store::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(kv2.len(), 1000);
        for i in (0..1000u32).step_by(97) {
            assert_eq!(
                kv2.get(&i.to_le_bytes()).unwrap().unwrap(),
                (i ^ 0xAB).to_le_bytes()
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_sorted_yields_ascending_keys() {
        let (mut kv, dir) = open_tmp("scan", 512, 1 << 20);
        for i in [5u32, 1, 9, 3, 7] {
            kv.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let all = kv.scan_sorted().unwrap();
        let keys: Vec<u32> = all
            .iter()
            .map(|(k, _)| u32::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_of_unflushed_active_data_stalls_then_succeeds() {
        // Tiny cache so the fresh put is evicted immediately, forcing the
        // read to hit the (unflushed) active segment.
        let (mut kv, dir) = open_tmp("stall", 80, 1 << 20);
        kv.put(b"aaaaaaaaaa", b"1111111111").unwrap();
        kv.put(b"bbbbbbbbbb", b"2222222222").unwrap(); // evicts a
        assert_eq!(kv.get(b"aaaaaaaaaa").unwrap().unwrap(), b"1111111111");
        assert!(kv.stats().read_stalls >= 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stats_count_operations() {
        let (mut kv, dir) = open_tmp("stats", 1 << 20, 1 << 20);
        kv.put(b"a", b"1").unwrap();
        kv.get(b"a").unwrap();
        kv.get(b"nope").unwrap();
        let st = kv.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 2);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_misses, 0, "absent key is not a cache miss");
        assert!(st.bytes_written > 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
