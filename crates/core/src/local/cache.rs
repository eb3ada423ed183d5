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
//! store index; plus the engine for job artifacts). One derivation
//! (`JobKeys::derive`) serves both cached entry points and reads each
//! input byte once: the split keys hash the content, and the job key
//! hashes the split keys. Identical work keys identically *across jobs,
//! tenants and executors*; anything differing in content, parameters or
//! config cannot alias. That content addressing is also the isolation
//! story: a tenant can only ever hit an artifact it would have computed
//! bit-for-bit itself. Two guard rails protect it:
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

/// Every cache key of one job, from a single pass over its input.
pub(crate) struct JobKeys {
    /// One key per input split's map-output artifact, in split order.
    pub(crate) splits: Vec<CacheKey>,
    /// The key of the whole job's sealed output artifact.
    pub(crate) job: CacheKey,
}

impl JobKeys {
    /// Derives the split keys — each `H("mr.split.v2", identity, config,
    /// records)`, the content hash that reads the input — and from them
    /// the job key, `H("mr.job.v3", identity, config, engine, n_splits,
    /// split keys)`. The split keys already cover identity, config and
    /// every record in order, cut where the splits are cut, so hashing
    /// them stands in for hashing the input a second time. The engine
    /// discriminant on top keeps the two engines' sealed artifacts
    /// distinct: they are byte-identical, but the key stays an honest
    /// description of what ran. `None` when the app's identity is
    /// incomplete (the job must then bypass the cache).
    ///
    /// Both cached entry points (`LocalRunner::run_cached`, `serve`) key
    /// through here, once per job.
    pub(crate) fn derive<A>(
        app: &A,
        cfg: &JobConfig,
        partitioner_id: &str,
        splits: &[Vec<(A::InKey, A::InValue)>],
    ) -> Option<Self>
    where
        A: Application,
        A::InKey: StableHash,
        A::InValue: StableHash,
    {
        // What every split key starts with, absorbed once and cloned.
        let mut prefix = KeyBuilder::new();
        prefix.write_str("mr.split.v2");
        if !write_identity(&mut prefix, app, partitioner_id) {
            return None;
        }
        write_config(&mut prefix, cfg);
        let split_keys: Vec<CacheKey> = splits
            .iter()
            .map(|split| {
                let mut k = prefix.clone();
                k.write_u64(split.len() as u64);
                for (key, value) in split {
                    key.stable_hash(&mut k);
                    value.stable_hash(&mut k);
                }
                k.finish()
            })
            .collect();

        let mut k = KeyBuilder::new();
        k.write_str("mr.job.v3");
        // Vouched for above.
        write_identity(&mut k, app, partitioner_id);
        write_config(&mut k, cfg);
        k.write_u64(match cfg.engine {
            Engine::Barrier => 0,
            Engine::BarrierLess { .. } => 1,
        });
        k.write_u64(split_keys.len() as u64);
        for key in &split_keys {
            k.write_u64(key.hi);
            k.write_u64(key.lo);
        }
        Some(JobKeys {
            splits: split_keys,
            job: k.finish(),
        })
    }
}

/// A job-scoped consultation plan for per-split artifacts: the cache
/// handle and the split keys are captured in boxed closures (where the
/// `Sync` bounds hold), so the generic task state machines consult the
/// cache without carrying any cache bounds.
pub(crate) struct SplitCachePlan<A: Application> {
    #[allow(clippy::type_complexity)]
    lookup: Box<dyn Fn(usize) -> Option<(Arc<SplitParts<A>>, u64)> + Send + Sync>,
    #[allow(clippy::type_complexity)]
    insert: Box<dyn Fn(usize, SplitParts<A>) -> InsertOutcome + Send + Sync>,
}

impl<A: Application> SplitCachePlan<A> {
    /// Binds both cache directions to `keys`, one per split
    /// ([`JobKeys::splits`]).
    pub(crate) fn new(cache: &SharedCache, keys: Vec<CacheKey>) -> Self
    where
        A::MapKey: Sync,
        A::MapValue: Sync,
    {
        let keys2 = keys.clone();
        let lookup_cache = cache.clone();
        let insert_cache = cache.clone();
        SplitCachePlan {
            lookup: Box::new(move |idx| lookup_cache.get_split::<A>(keys[idx])),
            insert: Box::new(move |idx, parts| insert_cache.put_split::<A>(keys2[idx], parts)),
        }
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

    fn split_key_of<A>(app: &A, cfg: &JobConfig, pid: &str, split: &[(u64, String)]) -> CacheKey
    where
        A: Application<InKey = u64, InValue = String>,
    {
        JobKeys::derive(app, cfg, pid, &[split.to_vec()])
            .expect("complete identity")
            .splits[0]
    }

    fn job_key_of<A>(app: &A, cfg: &JobConfig, splits: &[Vec<(u64, String)>]) -> CacheKey
    where
        A: Application<InKey = u64, InValue = String>,
    {
        JobKeys::derive(app, cfg, "hash", splits)
            .expect("complete identity")
            .job
    }

    #[test]
    fn split_keys_are_content_addressed() {
        let cfg = JobConfig::new(2);
        let a = split_key_of(&WordCountApp, &cfg, "hash", &split(1));
        let b = split_key_of(&WordCountApp, &cfg, "hash", &split(1));
        let c = split_key_of(&WordCountApp, &cfg, "hash", &split(2));
        assert_eq!(a, b, "same content, same config: same key");
        assert_ne!(a, c, "different content: different key");
        let other_reducers = split_key_of(&WordCountApp, &JobConfig::new(3), "hash", &split(1));
        assert_ne!(a, other_reducers, "reducer count shapes the artifact");
        let other_partitioner = split_key_of(&WordCountApp, &cfg, "range", &split(1));
        assert_ne!(a, other_partitioner, "partitioner shapes the artifact");
    }

    #[test]
    fn split_keys_did_not_move_with_the_one_pass_derivation() {
        // Taken from `split_key` at the commit before `JobKeys`: the
        // `mr.split.v2` format (tag, identity, config, records) is the
        // same byte stream, whoever derives it and however it is
        // absorbed. A split's key does not depend on its neighbours.
        let keys = JobKeys::derive(
            &WordCountApp,
            &JobConfig::new(2),
            "hash",
            &[split(2), split(1)],
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", keys.splits[1]),
            "CacheKey(9ab6ff4a9dceb5dc6fe97afa8b9a6c11)"
        );
    }

    #[test]
    fn job_and_split_keys_never_alias() {
        let cfg = JobConfig::new(2);
        let one = JobKeys::derive(&WordCountApp, &cfg, "hash", &[split(1)]).unwrap();
        assert_ne!(one.splits[0], one.job, "artifact classes are key-separated");
        let three =
            JobKeys::derive(&WordCountApp, &cfg, "hash", &[split(1), split(2), split(1)]).unwrap();
        assert!(three.splits.iter().all(|s| *s != three.job));
        let none = JobKeys::derive(&WordCountApp, &cfg, "hash", &[]).unwrap();
        assert!(none.splits.is_empty());
        assert_ne!(none.job, one.job);
    }

    #[test]
    fn job_key_covers_content_order_and_split_boundaries() {
        let cfg = JobConfig::new(2);
        let base = job_key_of(&WordCountApp, &cfg, &[split(1), split(2)]);
        assert_eq!(base, job_key_of(&WordCountApp, &cfg, &[split(1), split(2)]));
        let mut edited = split(2);
        edited[3].1.push('!');
        assert_ne!(
            base,
            job_key_of(&WordCountApp, &cfg, &[split(1), edited]),
            "one changed record"
        );
        assert_ne!(
            base,
            job_key_of(&WordCountApp, &cfg, &[split(2), split(1)]),
            "two splits swapped"
        );
        // The same eight records in the same order, cut 4+4, 3+5 and 8.
        let all: Vec<(u64, String)> = split(1).into_iter().chain(split(2)).collect();
        let recut = [all[..3].to_vec(), all[3..].to_vec()];
        assert_ne!(base, job_key_of(&WordCountApp, &cfg, &recut), "re-cut");
        assert_ne!(base, job_key_of(&WordCountApp, &cfg, &[all]), "uncut");
    }

    #[test]
    fn job_key_covers_engine_and_output_shaping_config() {
        let input = [split(1), split(2)];
        let cfg = JobConfig::new(2);
        let base = job_key_of(&WordCountApp, &cfg, &input);
        let barrierless = cfg.clone().engine(Engine::barrierless());
        let moved = [
            ("engine", barrierless.clone()),
            ("reducers", JobConfig::new(3)),
            (
                "combiner",
                cfg.clone().combiner(CombinerPolicy::Enabled {
                    budget_bytes: 1 << 10,
                }),
            ),
            ("store index", cfg.clone().store_index(StoreIndex::Ordered)),
        ];
        for (what, other) in &moved {
            assert_ne!(base, job_key_of(&WordCountApp, other, &input), "{what}");
        }
        // The engine is the one knob split keys ignore: map output is
        // the same artifact under both.
        assert_eq!(
            split_key_of(&WordCountApp, &cfg, "hash", &split(1)),
            split_key_of(&WordCountApp, &barrierless, "hash", &split(1))
        );
        // Knobs that do not shape the artifact do not move the key.
        assert_eq!(
            base,
            job_key_of(&WordCountApp, &cfg.clone().pool_workers(7), &input)
        );
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
        let a = split_key_of(&foo, &cfg, "hash", &input);
        let b = split_key_of(&bar, &cfg, "hash", &input);
        assert_ne!(a, b, "differently parameterized instances must not alias");
        let j1 = job_key_of(&foo, &cfg, std::slice::from_ref(&input));
        let j2 = job_key_of(&bar, &cfg, std::slice::from_ref(&input));
        assert_ne!(j1, j2);
    }

    /// An adapted app is keyed by the app it wraps: a re-run is a
    /// whole-job hit, and two parameter values never alias.
    #[test]
    fn adapted_apps_key_by_the_inner_identity() {
        use crate::chain::InputAdapter;
        use crate::config::CacheBudget;
        use crate::local::LocalRunner;
        use crate::partition::HashPartitioner;
        let adapted = |needle: &str| {
            let app = NeedleCount {
                needle: needle.into(),
            };
            InputAdapter::new(app, |k: u64, line: String| (k, line))
        };
        let cfg = JobConfig::new(2).cache(CacheBudget::enabled());
        let input = vec![vec![(0, "foo bar".to_string()), (1, "foo".to_string())]];
        let cache = SharedCache::new(1 << 20);
        let runner = LocalRunner::new(1);
        let run = |app: &_| {
            runner
                .run_cached(app, input.clone(), &cfg, &HashPartitioner, &cache)
                .unwrap()
        };
        let foo = adapted("foo");
        let cold = run(&foo);
        assert_eq!(cold.counters.get(names::CACHE_BYPASS), 0);
        let warm = run(&foo);
        assert_eq!(
            warm.counters.get(names::CACHE_HITS),
            1,
            "not a whole-job hit"
        );
        assert_eq!(warm.counters.get(names::MAP_OUTPUT_RECORDS), 0);
        assert_eq!(warm.partitions, cold.partitions);
        let bar = run(&adapted("bar"));
        assert_eq!(
            bar.counters.get(names::CACHE_HITS),
            0,
            "two needles aliased"
        );
        assert_ne!(bar.partitions, cold.partitions);
    }

    #[test]
    fn incomplete_identity_declines_every_key() {
        let cfg = JobConfig::new(2);
        let app = UnkeyedNeedle {
            needle: "foo".into(),
        };
        assert!(JobKeys::derive(&app, &cfg, "hash", &[split(1)]).is_none());
        assert!(JobKeys::derive(&app, &cfg, "hash", &[]).is_none());
        // Zero-sized apps vouch for themselves.
        assert!(JobKeys::derive(&WordCountApp, &cfg, "hash", &[split(1)]).is_some());
    }

    #[test]
    fn shared_hits_are_zero_copy_across_clones() {
        let cache = SharedCache::new(1 << 20);
        let clone = cache.clone();
        let cfg = JobConfig::new(2);
        let key = split_key_of(&WordCountApp, &cfg, "hash", &split(7));
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
        let key = split_key_of(&WordCountApp, &cfg, "hash", &split(3));
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
