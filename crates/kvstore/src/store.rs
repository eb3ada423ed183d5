//! The store: one append-only log file + in-memory index + record cache.
//!
//! Record layout: `[u32 key_len][u32 val_len][key bytes][val bytes]`, all
//! little-endian, no padding.

use crate::lru::LruCache;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes log files across stores in one process.
static LOG_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Appends are buffered up to this many bytes before one positional write.
const WRITE_BUF_BYTES: usize = 256 << 10;

/// Where a live record lies in the log: its first byte and its length.
#[derive(Debug, Clone, Copy)]
struct Loc {
    offset: u64,
    len: u64,
}

/// Configuration for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory the log file goes in (created if missing).
    pub dir: PathBuf,
    /// Record-cache budget in bytes.
    pub cache_bytes: usize,
}

impl StoreConfig {
    /// Defaults: 16 MB cache.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            cache_bytes: 16 << 20,
        }
    }

    /// Sets the record-cache budget.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
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
    /// Bytes appended to the log.
    pub bytes_written: u64,
    /// Bytes read back from the log.
    pub bytes_read: u64,
    /// Write-buffer flushes forced by reads of unflushed records.
    pub read_stalls: u64,
}

/// A single-writer disk-spilling key/value store over one log file,
/// which it removes when it drops.
pub struct Store {
    index: HashMap<Box<[u8]>, Loc>,
    cache: LruCache,
    file: File,
    path: PathBuf,
    /// Appended records not yet written to `file`; they start at `flushed`.
    buf: Vec<u8>,
    flushed: u64,
    stats: StoreStats,
}

impl Store {
    /// Creates a store with a fresh, uniquely named `kv-*` log file in
    /// `cfg.dir`.
    pub fn open(cfg: StoreConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        let serial = LOG_SERIAL.fetch_add(1, Ordering::Relaxed);
        let path = cfg.dir.join(format!("kv-{}-{serial}", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Store {
            index: HashMap::new(),
            cache: LruCache::new(cfg.cache_bytes),
            file,
            path,
            buf: Vec::new(),
            flushed: 0,
            stats: StoreStats::default(),
        })
    }

    /// Inserts or overwrites `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        self.stats.puts += 1;
        let loc = Loc {
            offset: self.flushed + self.buf.len() as u64,
            len: 8 + key.len() as u64 + value.len() as u64,
        };
        self.buf
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        if self.buf.len() >= WRITE_BUF_BYTES {
            self.flush()?;
        }
        self.stats.bytes_written += loc.len;
        match self.index.get_mut(key) {
            Some(old) => *old = loc,
            None => {
                self.index.insert(key.into(), loc);
            }
        }
        // An oversize record simply stays cold on disk.
        self.cache.put(key, value).ok();
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
        let value = self.read(loc, key)?;
        self.cache.put(key, &value).ok();
        self.stats.bytes_read += loc.len;
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
        StoreStats {
            evictions: self.cache.evictions(),
            ..self.stats
        }
    }

    /// Bytes resident in the record cache.
    pub fn cache_used_bytes(&self) -> usize {
        self.cache.used_bytes()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.write_all_at(&self.buf, self.flushed)?;
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Reads `key`'s record at `loc` with one positional read (after a
    /// flush if it is still buffered) and returns its value. A record
    /// whose header or key disagrees with `loc` and `key` is
    /// `InvalidData`.
    fn read(&mut self, loc: Loc, key: &[u8]) -> io::Result<Vec<u8>> {
        if loc.offset >= self.flushed {
            self.flush()?;
            self.stats.read_stalls += 1;
        }
        let mut record = vec![0u8; loc.len as usize];
        self.file.read_exact_at(&mut record, loc.offset)?;
        let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
        let (key_len, val_len) = (u64::from(word(0)), u64::from(word(4)));
        if 8 + key_len + val_len != loc.len || record[8..8 + key_len as usize] != *key {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "kv log record at {} does not hold the key it was indexed under",
                    loc.offset
                ),
            ));
        }
        record.drain(..8 + key_len as usize);
        Ok(record)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn open_tmp(tag: &str, cache: usize) -> (Store, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mr-kv-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(StoreConfig::new(&dir).cache_bytes(cache)).unwrap();
        (store, dir)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut kv, dir) = open_tmp("rt", 1 << 20);
        kv.put(b"hello", b"world").unwrap();
        assert_eq!(kv.get(b"hello").unwrap().unwrap(), b"world");
        assert_eq!(kv.get(b"missing").unwrap(), None);
        assert_eq!(kv.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn overwrite_returns_latest() {
        let (mut kv, dir) = open_tmp("ow", 1 << 20);
        kv.put(b"k", b"v1").unwrap();
        kv.put(b"k", b"v2").unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), b"v2");
        assert_eq!(kv.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_keys_and_values_roundtrip_through_the_log() {
        // A cache too small for any record: both reads go to the log.
        let (mut kv, dir) = open_tmp("empty", 0);
        kv.put(b"", b"value-for-empty-key").unwrap();
        kv.put(b"key-with-empty-value", b"").unwrap();
        assert_eq!(kv.get(b"").unwrap().unwrap(), b"value-for-empty-key");
        assert_eq!(kv.get(b"key-with-empty-value").unwrap().unwrap(), b"");
        assert_eq!(kv.stats().cache_misses, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reads_spill_to_disk_when_cache_is_tiny() {
        // Cache fits ~2 entries; write 500, read them all back.
        let (mut kv, dir) = open_tmp("spill", 300);
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
        let (mut kv, dir) = open_tmp("hot", 1 << 20);
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
    fn scan_sorted_yields_ascending_keys() {
        let (mut kv, dir) = open_tmp("scan", 512);
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
        // read to hit the (unflushed) write buffer.
        let (mut kv, dir) = open_tmp("stall", 80);
        kv.put(b"aaaaaaaaaa", b"1111111111").unwrap();
        kv.put(b"bbbbbbbbbb", b"2222222222").unwrap(); // evicts a
        assert_eq!(kv.get(b"aaaaaaaaaa").unwrap().unwrap(), b"1111111111");
        assert!(kv.stats().read_stalls >= 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stats_count_operations() {
        let (mut kv, dir) = open_tmp("stats", 1 << 20);
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

    /// The `kv-*` entries in `dir`.
    fn logs(dir: &Path) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(dir).expect("read store dir");
        entries
            .map(|entry| entry.expect("entry").path())
            .filter(|path| {
                path.file_name()
                    .expect("name")
                    .to_string_lossy()
                    .starts_with("kv-")
            })
            .collect()
    }

    /// A store whose cache holds one of its 200 records, every record
    /// flushed to its log.
    fn flushed_store(tag: &str) -> (Store, PathBuf) {
        let (mut kv, dir) = open_tmp(tag, 100);
        for i in 0..200u32 {
            kv.put(&i.to_le_bytes(), &(i * 7).to_le_bytes()).unwrap();
        }
        // A miss on a buffered record flushes the whole buffer.
        assert_eq!(
            kv.get(&0u32.to_le_bytes()).unwrap().unwrap(),
            0u32.to_le_bytes()
        );
        assert_eq!(kv.buf.len(), 0);
        (kv, dir)
    }

    #[test]
    fn a_store_is_one_log_file_that_a_miss_reads_through_its_descriptor() {
        let (mut kv, dir) = flushed_store("one-file");
        assert_eq!(logs(&dir), [kv.path.clone()]);
        // With its name gone, the log is reachable only through the
        // descriptor the store already holds.
        std::fs::remove_file(&kv.path).expect("unlink");
        let before = kv.stats();
        let key = 150u32.to_le_bytes();
        assert_eq!(kv.get(&key).unwrap().unwrap(), (150u32 * 7).to_le_bytes());
        let after = kv.stats();
        // One miss, and it read exactly that record's bytes.
        assert_eq!(after.cache_misses, before.cache_misses + 1);
        assert_eq!(after.bytes_read, before.bytes_read + 8 + 4 + 4);
        assert_eq!(after.read_stalls, before.read_stalls);
        drop(kv);
        std::fs::remove_dir_all(dir).ok();

        let (kv, dir) = open_tmp("dropped", 1 << 20);
        assert_eq!(logs(&dir).len(), 1);
        drop(kv);
        assert_eq!(logs(&dir), Vec::<PathBuf>::new());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_truncated_log_fails_a_miss_with_unexpected_eof() {
        let (mut kv, dir) = flushed_store("truncated");
        let cut = kv.index[&100u32.to_le_bytes()[..]].offset + 3;
        kv.file.set_len(cut).expect("truncate");
        let err = kv.get(&150u32.to_le_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        // Records before the cut still read.
        assert_eq!(
            kv.get(&50u32.to_le_bytes()).unwrap().unwrap(),
            (50u32 * 7).to_le_bytes()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_record_whose_key_was_overwritten_is_invalid_data() {
        let (mut kv, dir) = flushed_store("rewritten");
        let at = kv.index[&150u32.to_le_bytes()[..]].offset + 8;
        kv.file
            .write_all_at(&151u32.to_le_bytes(), at)
            .expect("overwrite key");
        let err = kv.get(&150u32.to_le_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // A key length past the record's end is caught before it is used.
        let at = kv.index[&149u32.to_le_bytes()[..]].offset;
        kv.file
            .write_all_at(&u32::MAX.to_le_bytes(), at)
            .expect("overwrite header");
        let err = kv.get(&149u32.to_le_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(dir).ok();
    }
}
