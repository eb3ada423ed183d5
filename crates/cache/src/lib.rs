//! `mr-cache` — content-addressed shared result cache.
//!
//! Cross-job memoization for the barrier-less MapReduce stack: a
//! concurrent, byte-accounted, LRU-evicting store of computed artifacts
//! — sealed job outputs — addressed by a stable hash of their *content
//! provenance* (input-chunk records, app identity, and the effective
//! `JobConfig` fields that shape the artifact). The paper's §8 future-work note observes that memoization
//! "becomes feasible in the barrier-less model"; this crate is that
//! store, shared by every tenant of a `JobService`.
//!
//! The crate is deliberately free of `mr-core` types:
//!
//! * [`KeyBuilder`] / [`StableHash`] / [`CacheKey`] — deterministic
//!   128-bit content hashing (process-stable, unlike `std::hash`).
//! * [`ResultCache`] — the byte-budgeted LRU over type-erased
//!   `Arc<dyn Any + Send + Sync>` payloads; hits are zero-copy `Arc`
//!   clones, and an entry larger than the whole budget is a typed
//!   [`Oversize`] rejection rather than a silent no-op.
//!
//! Key derivation policy (which config fields participate, how the
//! input is fingerprinted) lives upstream in `mr-core`'s `local::cache`
//! module, next to the executors that consult the cache.

mod key;
mod store;

pub use key::{CacheKey, KeyBuilder, StableHash};
pub use store::{CacheStats, Eviction, Oversize, Payload, ResultCache, ENTRY_OVERHEAD};
