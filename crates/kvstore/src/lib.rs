//! `mr-kvstore` — a disk-spilling key/value store (BerkeleyDB JE stand-in).
//!
//! §5.2 of the paper stores reducer partial results in an off-the-shelf
//! key/value store that caches hot records in memory and spills to disk.
//! The paper used BerkeleyDB Java Edition, "configured for performance
//! without guaranteeing fault-tolerance". This crate re-implements exactly
//! the mechanisms that matter for the comparison in Figures 9/10:
//!
//! * **One append-only log** — every `put` appends a record to the store's
//!   one log file through a write buffer (BDB JE is also a log-structured
//!   tree; transaction logs were kept in memory in the paper's
//!   configuration). The store creates the file in the directory it is
//!   given and removes it when it drops: nothing outlives the store, so
//!   nothing is recovered.
//! * **In-memory index** — key → (offset, length) map, so a miss costs
//!   one positional read.
//! * **Byte-budgeted LRU record cache** — hits are memory-speed, misses go
//!   to disk, hot keys stay resident ("BerkeleyDB … performs caching and
//!   prefetching of common entries … can therefore exploit temporal
//!   locality", §5.3).
//!
//! The read-modify-update cycle the barrier-less reducer performs maps to
//! `get` + `put`; [`StoreStats`] exposes hit/miss/eviction counts so the
//! cluster simulator can charge time per operation class.
//!
//! ```
//! # fn main() -> std::io::Result<()> {
//! use mr_kvstore::{Store, StoreConfig};
//! let dir = std::env::temp_dir().join(format!("mr-kv-doc-{}", std::process::id()));
//! let mut kv = Store::open(StoreConfig::new(&dir).cache_bytes(1 << 20))?;
//! kv.put(b"word", b"42")?;
//! assert_eq!(kv.get(b"word")?.as_deref(), Some(&b"42"[..]));
//! # drop(kv); std::fs::remove_dir_all(&dir).ok();
//! # Ok(()) }
//! ```

mod lru;
mod store;

pub use store::{Store, StoreConfig, StoreStats};
