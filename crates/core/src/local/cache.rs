//! The shared result cache — cross-job memoization of map outputs and
//! sealed reduce partials (the typed layer over `mr-cache`).
//!
//! A [`SharedCache`] is a cheaply cloneable handle to one concurrent,
//! byte-accounted, content-addressed [`ResultCache`]. Two artifact
//! classes live in it:
//!
//! * **Split artifacts** — one input split's *raw, pre-combine*
//!   partitioned map output. A hit replays the cached records through
//!   the engine's normal routing (combiner, shuffle batching), so warm
//!   runs stay byte-identical to cold runs under every engine, store
//!   index and pool width; only the map function itself is skipped.
//! * **Job artifacts** — one job's sealed reduce-output partitions. A
//!   hit skips the whole run.
//!
//! Keys are stable content hashes ([`mr_cache::KeyBuilder`]) over the
//! input-chunk bytes (via [`StableHash`]), the application identity —
//! its type name **plus** its instance parameters, via
//! [`Application::cache_identity`] — the partitioner type and the
//! `JobConfig` fields that affect the artifact (reducers, combiner,
//! store index; plus the engine for job artifacts). Identical work keys
//! identically *across jobs, tenants and executors*; anything differing
//! in content, parameters or config cannot alias. That content
//! addressing is also the isolation story: a tenant can only ever hit an
//! artifact it would have computed bit-for-bit itself. Two guard rails
//! protect it:
//!
//! * An application that does not vouch for its identity (a
//!   parameterized app without a
//!   [`cache_identity`](Application::cache_identity) override) yields
//!   `None` from the key derivations and **bypasses the cache**
//!   (`cache.bypass.count`) instead of keying incompletely.
//! * Jobs with an enabled snapshot policy never use the *job*-level
//!   artifact (a whole-job hit skips the run and therefore cannot
//!   reproduce the snapshot stream a cold run publishes); their split
//!   artifacts still cache, since map output does not feed snapshots.

use crate::config::{CacheBudget, CombinerPolicy, Engine, JobConfig, StoreIndex};
use crate::counters::{names, Counters};
use crate::size::SizeEstimate;
use crate::traits::{Application, IdentityWriter};
use mr_cache::{CacheKey, CacheStats, KeyBuilder, Payload, ResultCache, StableHash};
use std::sync::Arc;

impl IdentityWriter for KeyBuilder {
    fn write_u64(&mut self, v: u64) {
        KeyBuilder::write_u64(self, v)
    }
    fn write_bytes(&mut self, bytes: &[u8]) {
        KeyBuilder::write_bytes(self, bytes)
    }
    fn write_str(&mut self, s: &str) {
        KeyBuilder::write_str(self, s)
    }
}

/// A split's cached artifact: raw (pre-combine) map output, partitioned.
pub(crate) type SplitParts<A> =
    Vec<Vec<(<A as Application>::MapKey, <A as Application>::MapValue)>>;

/// A job's cached artifact: its sealed reduce-output partitions.
pub(crate) type JobParts<A> = Vec<Vec<(<A as Application>::OutKey, <A as Application>::OutValue)>>;

/// A cloneable handle to one shared, byte-budgeted result cache. Every
/// clone addresses the same store; hand one to each runner (or let a
/// [`serve`](crate::local::service::serve) session own one) and repeated
/// work across jobs and tenants is deduplicated.
#[derive(Clone)]
pub struct SharedCache {
    inner: Arc<ResultCache>,
}

impl SharedCache {
    /// A cache bounded at `budget_bytes` of accounted payload.
    pub fn new(budget_bytes: u64) -> Self {
        SharedCache {
            inner: Arc::new(ResultCache::new(budget_bytes)),
        }
    }

    /// A cache sized by a [`CacheBudget`] knob; `None` when the knob is
    /// [`CacheBudget::Disabled`].
    pub fn from_budget(budget: &CacheBudget) -> Option<Self> {
        budget.bytes().map(SharedCache::new)
    }

    /// Lifetime hit/miss/insert/eviction statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Accounted bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Drops every resident artifact (statistics survive).
    pub fn clear(&self) {
        self.inner.clear()
    }

    /// Typed zero-copy lookup of a split artifact.
    pub(crate) fn get_split<A>(&self, key: CacheKey) -> Option<(Arc<SplitParts<A>>, u64)>
    where
        A: Application,
        A::MapKey: Sync,
        A::MapValue: Sync,
    {
        let (payload, bytes) = self.inner.get(key)?;
        payload.downcast::<SplitParts<A>>().ok().map(|p| (p, bytes))
    }

    /// Publishes a split artifact, returning what the store did with it.
    pub(crate) fn put_split<A>(&self, key: CacheKey, parts: SplitParts<A>) -> InsertOutcome
    where
        A: Application,
        A::MapKey: Sync,
        A::MapValue: Sync,
    {
        let bytes = parts_bytes(&parts);
        self.put(key, Arc::new(parts) as Payload, bytes)
    }

    /// Typed zero-copy lookup of a sealed job artifact.
    pub(crate) fn get_job<A>(&self, key: CacheKey) -> Option<(Arc<JobParts<A>>, u64)>
    where
        A: Application,
        A::OutKey: Sync,
        A::OutValue: Sync,
    {
        let (payload, bytes) = self.inner.get(key)?;
        payload.downcast::<JobParts<A>>().ok().map(|p| (p, bytes))
    }

    /// Publishes a sealed job artifact.
    pub(crate) fn put_job<A>(&self, key: CacheKey, parts: JobParts<A>) -> InsertOutcome
    where
        A: Application,
        A::OutKey: Sync + SizeEstimate,
        A::OutValue: Sync + SizeEstimate,
    {
        let bytes = parts_bytes(&parts);
        self.put(key, Arc::new(parts) as Payload, bytes)
    }

    fn put(&self, key: CacheKey, payload: Payload, bytes: u64) -> InsertOutcome {
        match self.inner.insert(key, payload, bytes) {
            Ok(evicted) => InsertOutcome {
                bytes,
                evictions: evicted.len() as u64,
                evict_bytes: evicted.iter().map(|e| e.bytes).sum(),
                oversize: false,
            },
            Err(_) => InsertOutcome {
                bytes,
                evictions: 0,
                evict_bytes: 0,
                oversize: true,
            },
        }
    }
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("budget_bytes", &self.budget_bytes())
            .field("used_bytes", &self.used_bytes())
            .field("len", &self.len())
            .finish()
    }
}

/// What one publish attempt did, for the publisher's counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InsertOutcome {
    /// The artifact's accounted byte charge.
    pub bytes: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Accounted bytes those evictions released.
    pub evict_bytes: u64,
    /// Whether the artifact exceeded the whole budget and was rejected.
    pub oversize: bool,
}

impl InsertOutcome {
    /// Charges this outcome into a job's counters: the recomputed bytes
    /// (`cache.miss.bytes`) always, then either the insert or the typed
    /// oversize rejection, plus any evictions the insert forced.
    pub(crate) fn charge(&self, counters: &mut Counters) {
        counters.add(names::CACHE_MISS_BYTES, self.bytes);
        if self.oversize {
            counters.incr(names::CACHE_OVERSIZE);
            return;
        }
        counters.incr(names::CACHE_INSERTS);
        counters.add(names::CACHE_INSERT_BYTES, self.bytes);
        counters.add(names::CACHE_EVICTIONS, self.evictions);
        counters.add(names::CACHE_EVICT_BYTES, self.evict_bytes);
    }
}

/// Estimated resident bytes of a partitioned artifact (the charge the
/// byte budget accounts), from the same [`SizeEstimate`] model the heap
/// caps and combiner budgets use.
pub(crate) fn parts_bytes<K: SizeEstimate, V: SizeEstimate>(parts: &[Vec<(K, V)>]) -> u64 {
    parts
        .iter()
        .flatten()
        .map(|(k, v)| (k.estimated_bytes() + v.estimated_bytes()) as u64)
        .sum()
}

/// The `JobConfig` fields that shape a cached artifact. Anything else
/// (pool width, tracing, snapshots, deadlines) must *not* enter the key:
/// artifacts are deterministic across those knobs, and sharing across
/// them is the point.
fn write_config(k: &mut KeyBuilder, cfg: &JobConfig) {
    k.write_u64(cfg.reducers as u64);
    match cfg.combiner {
        CombinerPolicy::Disabled => k.write_u64(0),
        CombinerPolicy::Enabled { budget_bytes } => {
            k.write_u64(1);
            k.write_u64(budget_bytes);
        }
    }
    k.write_u64(match cfg.store_index {
        StoreIndex::Ordered => 0,
        StoreIndex::Hashed => 1,
    });
}

/// Application + partitioner identity, the "same computation" half of
/// the key (the other half is the input content). Returns `false` — and
/// the caller must decline caching — when the app cannot vouch for a
/// complete instance identity ([`Application::cache_identity`]).
fn write_identity<A: Application>(k: &mut KeyBuilder, app: &A, partitioner_id: &str) -> bool {
    k.write_str(std::any::type_name::<A>());
    k.write_str(app.name());
    k.write_str(partitioner_id);
    app.cache_identity(k)
}

/// Whether `app` vouches for a complete cache identity — parameterless
/// (zero-sized) or carrying a faithful
/// [`cache_identity`](Application::cache_identity) override. Apps that
/// do not must bypass the shared cache entirely.
pub(crate) fn identity_complete<A: Application>(app: &A) -> bool {
    app.cache_identity(&mut KeyBuilder::new())
}

/// Content-addressed key of one input split's map-output artifact;
/// `None` when the app's identity is incomplete (the split must then run
/// uncached).
pub(crate) fn split_key<A>(
    app: &A,
    cfg: &JobConfig,
    partitioner_id: &str,
    split: &[(A::InKey, A::InValue)],
) -> Option<CacheKey>
where
    A: Application,
    A::InKey: StableHash,
    A::InValue: StableHash,
{
    let mut k = KeyBuilder::new();
    k.write_str("mr.split.v2");
    if !write_identity(&mut k, app, partitioner_id) {
        return None;
    }
    write_config(&mut k, cfg);
    k.write_u64(split.len() as u64);
    for (key, value) in split {
        key.stable_hash(&mut k);
        value.stable_hash(&mut k);
    }
    Some(k.finish())
}

/// Content-addressed key of one whole job's sealed output artifact, or
/// `None` when the app's identity is incomplete. Adds the engine
/// discriminant on top of the split-key ingredients: both engines
/// produce byte-identical partitions, but keeping their sealed
/// artifacts distinct keeps the key an honest description of what ran.
pub(crate) fn job_key<A>(
    app: &A,
    cfg: &JobConfig,
    partitioner_id: &str,
    splits: &[Vec<(A::InKey, A::InValue)>],
) -> Option<CacheKey>
where
    A: Application,
    A::InKey: StableHash,
    A::InValue: StableHash,
{
    let mut k = KeyBuilder::new();
    k.write_str("mr.job.v2");
    if !write_identity(&mut k, app, partitioner_id) {
        return None;
    }
    write_config(&mut k, cfg);
    k.write_u64(match cfg.engine {
        Engine::Barrier => 0,
        Engine::BarrierLess { .. } => 1,
    });
    k.write_u64(splits.len() as u64);
    for split in splits {
        k.write_u64(split.len() as u64);
        for (key, value) in split {
            key.stable_hash(&mut k);
            value.stable_hash(&mut k);
        }
    }
    Some(k.finish())
}

/// A job-scoped consultation plan for per-split artifacts: keys are
/// derived up front (where the `StableHash`/`Sync` bounds hold) and the
/// cache handle is captured in boxed closures, so the generic task state
/// machines consult the cache without carrying any cache bounds.
pub(crate) struct SplitCachePlan<A: Application> {
    #[allow(clippy::type_complexity)]
    lookup: Box<dyn Fn(usize) -> Option<(Arc<SplitParts<A>>, u64)> + Send + Sync>,
    #[allow(clippy::type_complexity)]
    insert: Box<dyn Fn(usize, SplitParts<A>) -> InsertOutcome + Send + Sync>,
}

impl<A: Application> SplitCachePlan<A> {
    /// Derives one key per split and binds both cache directions;
    /// `None` when the app's instance identity is incomplete (the job
    /// must then bypass the cache).
    pub(crate) fn new(
        cache: &SharedCache,
        app: &A,
        cfg: &JobConfig,
        partitioner_id: &str,
        splits: &[Vec<(A::InKey, A::InValue)>],
    ) -> Option<Self>
    where
        A::InKey: StableHash,
        A::InValue: StableHash,
        A::MapKey: Sync,
        A::MapValue: Sync,
    {
        let keys: Vec<CacheKey> = splits
            .iter()
            .map(|s| split_key(app, cfg, partitioner_id, s))
            .collect::<Option<_>>()?;
        let keys2 = keys.clone();
        let lookup_cache = cache.clone();
        let insert_cache = cache.clone();
        Some(SplitCachePlan {
            lookup: Box::new(move |idx| lookup_cache.get_split::<A>(keys[idx])),
            insert: Box::new(move |idx, parts| insert_cache.put_split::<A>(keys2[idx], parts)),
        })
    }

    /// Consults the cache for split `idx`'s artifact.
    pub(crate) fn lookup(&self, idx: usize) -> Option<(Arc<SplitParts<A>>, u64)> {
        (self.lookup)(idx)
    }

    /// Publishes split `idx`'s freshly computed artifact.
    pub(crate) fn insert(&self, idx: usize, parts: SplitParts<A>) -> InsertOutcome {
        (self.insert)(idx, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::WordCountApp;
    use crate::traits::Emit;

    fn split(tag: u64) -> Vec<(u64, String)> {
        (0..4).map(|i| (i, format!("word{tag} w{i}"))).collect()
    }

    #[test]
    fn split_keys_are_content_addressed() {
        let cfg = JobConfig::new(2);
        let a = split_key(&WordCountApp, &cfg, "hash", &split(1)).unwrap();
        let b = split_key(&WordCountApp, &cfg, "hash", &split(1)).unwrap();
        let c = split_key(&WordCountApp, &cfg, "hash", &split(2)).unwrap();
        assert_eq!(a, b, "same content, same config: same key");
        assert_ne!(a, c, "different content: different key");
        let other_reducers =
            split_key(&WordCountApp, &JobConfig::new(3), "hash", &split(1)).unwrap();
        assert_ne!(a, other_reducers, "reducer count shapes the artifact");
        let other_partitioner = split_key(&WordCountApp, &cfg, "range", &split(1)).unwrap();
        assert_ne!(a, other_partitioner, "partitioner shapes the artifact");
    }

    #[test]
    fn job_and_split_keys_never_alias() {
        let cfg = JobConfig::new(2);
        let s = split_key(&WordCountApp, &cfg, "hash", &split(1));
        let j = job_key(&WordCountApp, &cfg, "hash", &[split(1)]);
        assert_ne!(s, j, "artifact classes are key-separated");
    }

    /// A parameterized app whose `needle` shapes map output, with a
    /// faithful `cache_identity`.
    struct NeedleCount {
        needle: String,
    }

    impl Application for NeedleCount {
        type InKey = u64;
        type InValue = String;
        type MapKey = String;
        type MapValue = u64;
        type OutKey = String;
        type OutValue = u64;
        type State = u64;
        type Shared = ();
        fn map(&self, _k: &u64, v: &String, out: &mut dyn Emit<String, u64>) {
            if v.contains(&self.needle) {
                out.emit(self.needle.clone(), 1);
            }
        }
        fn new_shared(&self) {}
        fn reduce_grouped(
            &self,
            key: &String,
            values: Vec<u64>,
            _s: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            out.emit(key.clone(), values.iter().sum());
        }
        fn init(&self, _k: &String) -> u64 {
            0
        }
        fn absorb(
            &self,
            _k: &String,
            st: &mut u64,
            v: u64,
            _s: &mut (),
            _o: &mut dyn Emit<String, u64>,
        ) {
            *st += v;
        }
        fn merge(&self, _k: &String, a: u64, b: u64) -> u64 {
            a + b
        }
        fn finalize(&self, k: String, st: u64, _s: &mut (), out: &mut dyn Emit<String, u64>) {
            out.emit(k, st);
        }
        fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool {
            w.write_str(&self.needle);
            true
        }
    }

    /// Same shape, but *without* a `cache_identity` override: the
    /// non-zero-sized default must refuse to vouch for it.
    struct UnkeyedNeedle {
        needle: String,
    }

    impl Application for UnkeyedNeedle {
        type InKey = u64;
        type InValue = String;
        type MapKey = String;
        type MapValue = u64;
        type OutKey = String;
        type OutValue = u64;
        type State = u64;
        type Shared = ();
        fn map(&self, _k: &u64, v: &String, out: &mut dyn Emit<String, u64>) {
            if v.contains(&self.needle) {
                out.emit(self.needle.clone(), 1);
            }
        }
        fn new_shared(&self) {}
        fn reduce_grouped(
            &self,
            key: &String,
            values: Vec<u64>,
            _s: &mut (),
            out: &mut dyn Emit<String, u64>,
        ) {
            out.emit(key.clone(), values.iter().sum());
        }
        fn init(&self, _k: &String) -> u64 {
            0
        }
        fn absorb(
            &self,
            _k: &String,
            st: &mut u64,
            v: u64,
            _s: &mut (),
            _o: &mut dyn Emit<String, u64>,
        ) {
            *st += v;
        }
        fn merge(&self, _k: &String, a: u64, b: u64) -> u64 {
            a + b
        }
        fn finalize(&self, k: String, st: u64, _s: &mut (), out: &mut dyn Emit<String, u64>) {
            out.emit(k, st);
        }
    }

    #[test]
    fn instance_parameters_shape_the_key() {
        let cfg = JobConfig::new(2);
        let input = split(1);
        let foo = NeedleCount {
            needle: "foo".into(),
        };
        let bar = NeedleCount {
            needle: "bar".into(),
        };
        let a = split_key(&foo, &cfg, "hash", &input).unwrap();
        let b = split_key(&bar, &cfg, "hash", &input).unwrap();
        assert_ne!(a, b, "differently parameterized instances must not alias");
        let j1 = job_key(&foo, &cfg, "hash", std::slice::from_ref(&input)).unwrap();
        let j2 = job_key(&bar, &cfg, "hash", std::slice::from_ref(&input)).unwrap();
        assert_ne!(j1, j2);
    }

    #[test]
    fn incomplete_identity_declines_every_key() {
        let cfg = JobConfig::new(2);
        let app = UnkeyedNeedle {
            needle: "foo".into(),
        };
        assert!(!identity_complete(&app));
        assert!(split_key(&app, &cfg, "hash", &split(1)).is_none());
        assert!(job_key(&app, &cfg, "hash", &[split(1)]).is_none());
        let cache = SharedCache::new(1 << 20);
        assert!(SplitCachePlan::new(&cache, &app, &cfg, "hash", &[split(1)]).is_none());
        // Zero-sized apps vouch for themselves.
        assert!(identity_complete(&WordCountApp));
    }

    #[test]
    fn shared_hits_are_zero_copy_across_clones() {
        let cache = SharedCache::new(1 << 20);
        let clone = cache.clone();
        let cfg = JobConfig::new(2);
        let key = split_key(&WordCountApp, &cfg, "hash", &split(7)).unwrap();
        let parts: SplitParts<WordCountApp> = vec![vec![("a".into(), 1)], vec![("b".into(), 2)]];
        let outcome = cache.put_split::<WordCountApp>(key, parts);
        assert!(!outcome.oversize);
        let (via_clone, bytes) = clone.get_split::<WordCountApp>(key).expect("hit via clone");
        assert_eq!(bytes, outcome.bytes);
        assert_eq!(via_clone[1], vec![("b".to_string(), 2)]);
        assert_eq!(clone.stats().hits, 1);
        assert_eq!(cache.len(), 1, "one store behind every clone");
    }

    #[test]
    fn oversize_outcome_charges_the_typed_counter() {
        let cache = SharedCache::new(8);
        let cfg = JobConfig::new(1);
        let key = split_key(&WordCountApp, &cfg, "hash", &split(3)).unwrap();
        let parts: SplitParts<WordCountApp> = vec![vec![("oversized".into(), 1); 64]];
        let outcome = cache.put_split::<WordCountApp>(key, parts);
        assert!(outcome.oversize);
        let mut counters = Counters::new();
        outcome.charge(&mut counters);
        assert_eq!(counters.get(names::CACHE_OVERSIZE), 1);
        assert_eq!(counters.get(names::CACHE_INSERTS), 0);
        assert_eq!(counters.get(names::CACHE_MISS_BYTES), outcome.bytes);
    }
}
