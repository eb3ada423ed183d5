//! Append-only log segments.
//!
//! Record layout: `[u32 key_len][u32 val_len][key bytes][val bytes]`, all
//! little-endian, no padding.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Identifies a segment file within one store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

/// Path of segment `id` under `dir`.
pub fn segment_path(dir: &Path, id: SegmentId) -> PathBuf {
    dir.join(format!("seg-{:06}.log", id.0))
}

/// Buffered appender for the active segment.
pub struct SegmentWriter {
    id: SegmentId,
    out: BufWriter<File>,
    /// Bytes handed to the writer (including any still in the buffer).
    written: u64,
    /// Bytes known to have reached the file.
    flushed: u64,
}

impl SegmentWriter {
    /// Creates (truncates) segment `id` under `dir`.
    pub fn create(dir: &Path, id: SegmentId) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment_path(dir, id))?;
        Ok(SegmentWriter {
            id,
            out: BufWriter::with_capacity(256 << 10, file),
            written: 0,
            flushed: 0,
        })
    }

    /// Appends a record; returns its starting offset within the segment.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<u64> {
        let offset = self.written;
        self.out.write_all(&(key.len() as u32).to_le_bytes())?;
        self.out.write_all(&(value.len() as u32).to_le_bytes())?;
        self.out.write_all(key)?;
        self.out.write_all(value)?;
        self.written += 8 + key.len() as u64 + value.len() as u64;
        Ok(offset)
    }

    /// Pushes buffered bytes to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.flushed = self.written;
        Ok(())
    }

    /// Total bytes appended so far.
    pub fn len(&self) -> u64 {
        self.written
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Whether `offset` is safely readable from the file without a flush.
    pub fn is_flushed_past(&self, offset: u64) -> bool {
        offset < self.flushed
    }

    /// This writer's segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }
}

/// Random-access reader over a sealed (or flushed) segment.
pub struct SegmentReader {
    file: File,
}

impl SegmentReader {
    /// Opens segment `id` under `dir` for reading.
    pub fn open(dir: &Path, id: SegmentId) -> io::Result<Self> {
        Ok(SegmentReader {
            file: File::open(segment_path(dir, id))?,
        })
    }

    /// Reads the record at `offset`, returning `(key, value)`.
    pub fn read_at(&mut self, offset: u64) -> io::Result<(Vec<u8>, Vec<u8>)> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; 8];
        self.file.read_exact(&mut header)?;
        let key_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let val_len = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let mut key = vec![0u8; key_len as usize];
        self.file.read_exact(&mut key)?;
        let mut val = vec![0u8; val_len as usize];
        self.file.read_exact(&mut val)?;
        Ok((key, val))
    }

    /// Iterates every record in the segment from the start, yielding
    /// `(offset, key, value)`. Used by recovery.
    #[allow(clippy::type_complexity)]
    pub fn scan(&mut self) -> io::Result<Vec<(u64, Vec<u8>, Vec<u8>)>> {
        let end = self.file.seek(SeekFrom::End(0))?;
        let mut offset = 0u64;
        let mut out = Vec::new();
        while offset < end {
            let (key, val) = self.read_at(offset)?;
            let advance = 8 + key.len() as u64 + val.len() as u64;
            out.push((offset, key, val));
            offset += advance;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mr-kv-seg-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_records() {
        let dir = tmpdir("rt");
        let mut w = SegmentWriter::create(&dir, SegmentId(0)).unwrap();
        let o1 = w.append(b"alpha", b"1").unwrap();
        let o2 = w.append(b"beta", b"two").unwrap();
        w.flush().unwrap();
        assert!(w.is_flushed_past(o2));

        let mut r = SegmentReader::open(&dir, SegmentId(0)).unwrap();
        assert_eq!(r.read_at(o1).unwrap(), (b"alpha".to_vec(), b"1".to_vec()));
        assert_eq!(r.read_at(o2).unwrap(), (b"beta".to_vec(), b"two".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_recovers_everything_in_order() {
        let dir = tmpdir("scan");
        let mut w = SegmentWriter::create(&dir, SegmentId(3)).unwrap();
        for i in 0..50u32 {
            w.append(&i.to_le_bytes(), &(i * 2).to_le_bytes()).unwrap();
        }
        w.flush().unwrap();

        let mut r = SegmentReader::open(&dir, SegmentId(3)).unwrap();
        let records = r.scan().unwrap();
        assert_eq!(records.len(), 50);
        for (i, (_, key, val)) in records.iter().enumerate() {
            assert_eq!(key, &(i as u32).to_le_bytes());
            assert_eq!(val, &((i as u32) * 2).to_le_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_values_and_keys() {
        let dir = tmpdir("empty");
        let mut w = SegmentWriter::create(&dir, SegmentId(0)).unwrap();
        let o1 = w.append(b"", b"value-for-empty-key").unwrap();
        let o2 = w.append(b"key-with-empty-value", b"").unwrap();
        w.flush().unwrap();
        let mut r = SegmentReader::open(&dir, SegmentId(0)).unwrap();
        assert_eq!(r.read_at(o1).unwrap().1, b"value-for-empty-key");
        assert_eq!(r.read_at(o2).unwrap().1, b"");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_length_tracks_bytes() {
        let dir = tmpdir("len");
        let mut w = SegmentWriter::create(&dir, SegmentId(0)).unwrap();
        assert!(w.is_empty());
        w.append(b"ab", b"cde").unwrap();
        assert_eq!(w.len(), 8 + 2 + 3);
        assert_eq!(w.id(), SegmentId(0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
