//! The shared result cache — cross-job memoization of sealed job
//! outputs (the typed layer over `mr-cache`).
//!
//! A [`SharedCache`] is a cheaply cloneable handle to one concurrent,
//! byte-accounted, content-addressed [`ResultCache`]. It holds one
//! artifact kind: a job's sealed reduce-output partitions, published
//! once by a cold cacheable run. A hit skips the whole run.
//!
//! Keys are stable content hashes ([`mr_cache::KeyBuilder`]) over the
//! input-chunk bytes (via [`StableHash`]), the application identity —
//! its type name **plus** its instance parameters, via
//! [`Application::cache_identity`] — the partitioner type and the
//! `JobConfig` fields that shape the output (engine, reducers, combiner,
//! store index). One derivation (`job_key`) serves both cached entry
//! points and reads each input byte once. Identical work keys
//! identically *across jobs, tenants and executors*; anything differing
//! in content, parameters or config cannot alias. That content
//! addressing is also the isolation story: a tenant can only ever hit
//! an artifact it would have computed bit-for-bit itself.
//!
//! Two kinds of job cannot be served by a sealed artifact. They run
//! uncached, publish nothing and charge `cache.bypass.count`:
//!
//! * An application that does not vouch for its identity (a
//!   parameterized app without a
//!   [`cache_identity`](Application::cache_identity) override):
//!   `job_key` yields `None` instead of keying incompletely.
//! * A job with an enabled snapshot policy: a hit skips the run and so
//!   cannot reproduce the snapshot stream a cold run publishes.

use crate::config::{CacheBudget, CombinerPolicy, Engine, JobConfig};
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

    /// Publishes a sealed job artifact and charges what the store did
    /// with it into `counters`: the recomputed bytes (`cache.miss.bytes`)
    /// always, then either the insert and any evictions it forced, or
    /// the typed oversize rejection.
    pub(crate) fn put_job<A>(&self, key: CacheKey, parts: JobParts<A>, counters: &mut Counters)
    where
        A: Application,
        A::OutKey: Sync + SizeEstimate,
        A::OutValue: Sync + SizeEstimate,
    {
        // The charge the byte budget accounts, from the same
        // `SizeEstimate` model the heap caps and combiner budgets use.
        let bytes = parts
            .iter()
            .flatten()
            .map(|(k, v)| (k.estimated_bytes() + v.estimated_bytes()) as u64)
            .sum();
        counters.add(names::CACHE_MISS_BYTES, bytes);
        match self.inner.insert(key, Arc::new(parts) as Payload, bytes) {
            Ok(evicted) => {
                counters.incr(names::CACHE_INSERTS);
                counters.add(names::CACHE_INSERT_BYTES, bytes);
                counters.add(names::CACHE_EVICTIONS, evicted.len() as u64);
                counters.add(
                    names::CACHE_EVICT_BYTES,
                    evicted.iter().map(|e| e.bytes).sum(),
                );
            }
            Err(_) => counters.incr(names::CACHE_OVERSIZE),
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
    // The partial-store index's tag: the one index left (hashed) keeps
    // the tag it had beside the ordered one, so job keys do not move.
    k.write_u64(1);
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

/// The key of a job's sealed output artifact, from a single pass over
/// its input: `H("mr.job.v3", identity, config, engine, n_splits,
/// split digests)`, where each split digest is `H("mr.split.v2",
/// identity, config, records)`. The digests cover every record in order,
/// cut where the splits are cut, so hashing them stands in for hashing
/// the input a second time. The engine discriminant keeps the two
/// engines' artifacts distinct: they are byte-identical, but the key
/// stays an honest description of what ran. `None` when the app's
/// identity is incomplete (the job must then bypass the cache).
///
/// Both cached entry points (`LocalRunner::run_cached`, `serve`) key
/// through here, once per job.
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
    // What every split digest starts with, absorbed once and cloned.
    let mut prefix = KeyBuilder::new();
    prefix.write_str("mr.split.v2");
    if !write_identity(&mut prefix, app, partitioner_id) {
        return None;
    }
    write_config(&mut prefix, cfg);

    let mut k = KeyBuilder::new();
    k.write_str("mr.job.v3");
    // Vouched for above.
    write_identity(&mut k, app, partitioner_id);
    write_config(&mut k, cfg);
    k.write_u64(match cfg.engine {
        Engine::Barrier => 0,
        Engine::BarrierLess { .. } => 1,
    });
    k.write_u64(splits.len() as u64);
    for split in splits {
        let digest = split_digest(&prefix, split);
        k.write_u64(digest.hi);
        k.write_u64(digest.lo);
    }
    Some(k.finish())
}

/// One split's digest: `prefix` (`"mr.split.v2"`, identity, config)
/// followed by the split's length and every record in order.
fn split_digest<K: StableHash, V: StableHash>(prefix: &KeyBuilder, split: &[(K, V)]) -> CacheKey {
    let mut digest = prefix.clone();
    digest.write_u64(split.len() as u64);
    for (key, value) in split {
        key.stable_hash(&mut digest);
        value.stable_hash(&mut digest);
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::WordCountApp;
    use crate::traits::Emit;

    fn split(tag: u64) -> Vec<(u64, String)> {
        (0..4).map(|i| (i, format!("word{tag} w{i}"))).collect()
    }

    fn key_of<A>(app: &A, cfg: &JobConfig, pid: &str, splits: &[Vec<(u64, String)>]) -> CacheKey
    where
        A: Application<InKey = u64, InValue = String>,
    {
        job_key(app, cfg, pid, splits).expect("complete identity")
    }

    fn job_key_of<A>(app: &A, cfg: &JobConfig, splits: &[Vec<(u64, String)>]) -> CacheKey
    where
        A: Application<InKey = u64, InValue = String>,
    {
        key_of(app, cfg, "hash", splits)
    }

    #[test]
    fn job_keys_are_content_addressed() {
        let cfg = JobConfig::new(2);
        let a = job_key_of(&WordCountApp, &cfg, &[split(1)]);
        let b = job_key_of(&WordCountApp, &cfg, &[split(1)]);
        let c = job_key_of(&WordCountApp, &cfg, &[split(2)]);
        assert_eq!(a, b, "same content, same config: same key");
        assert_ne!(a, c, "different content: different key");
        let other_partitioner = key_of(&WordCountApp, &cfg, "range", &[split(1)]);
        assert_ne!(a, other_partitioner, "partitioner shapes the artifact");
    }

    #[test]
    fn job_keys_did_not_move_when_split_artifacts_went() {
        // Taken from `JobKeys::derive` while the cache still held
        // per-split artifacts: the per-split digests (`mr.split.v2`) and
        // the job key over them (`mr.job.v3`) are the same byte streams,
        // so every resident or persisted job key still means what it did.
        let pinned = [
            (
                JobConfig::new(2),
                vec![split(2), split(1)],
                "CacheKey(be26179cd2ca7d6af2c3670ad51edab2)",
            ),
            (
                JobConfig::new(2).engine(Engine::barrierless()),
                vec![split(1)],
                "CacheKey(668c0cb998a9801087552939132c5d47)",
            ),
            (
                JobConfig::new(2),
                Vec::new(),
                "CacheKey(59b3005fe592eabe50f5787d521dfbd3)",
            ),
        ];
        for (cfg, input, want) in pinned {
            let got = job_key_of(&WordCountApp, &cfg, &input);
            assert_eq!(format!("{got:?}"), want, "{} splits", input.len());
        }
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
    fn job_and_split_keys_never_alias() {
        let cfg = JobConfig::new(2);
        let mut prefix = KeyBuilder::new();
        prefix.write_str("mr.split.v2");
        assert!(write_identity(&mut prefix, &WordCountApp, "hash"));
        write_config(&mut prefix, &cfg);
        let digest = |s: &[(u64, String)]| split_digest(&prefix, s);

        let one = job_key_of(&WordCountApp, &cfg, &[split(1)]);
        assert_ne!(digest(&split(1)), one, "key kinds are domain-separated");
        let three = job_key_of(&WordCountApp, &cfg, &[split(1), split(2), split(1)]);
        assert!([split(1), split(2)].iter().all(|s| digest(s) != three));
        // No input is an input too, and keys apart from one empty split.
        let none = job_key_of(&WordCountApp, &cfg, &[]);
        assert_ne!(none, one);
        assert_ne!(none, job_key_of(&WordCountApp, &cfg, &[Vec::new()]));
        assert_ne!(none, digest(&[]));
    }

    #[test]
    fn job_key_covers_engine_and_output_shaping_config() {
        let input = [split(1), split(2)];
        let cfg = JobConfig::new(2);
        let base = job_key_of(&WordCountApp, &cfg, &input);
        let moved = [
            ("engine", cfg.clone().engine(Engine::barrierless())),
            ("reducers", JobConfig::new(3)),
            (
                "combiner",
                cfg.clone().combiner(CombinerPolicy::Enabled {
                    budget_bytes: 1 << 10,
                }),
            ),
        ];
        for (what, other) in &moved {
            assert_ne!(base, job_key_of(&WordCountApp, other, &input), "{what}");
        }
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
        let a = job_key_of(&foo, &cfg, std::slice::from_ref(&input));
        let b = job_key_of(&bar, &cfg, std::slice::from_ref(&input));
        assert_ne!(a, b, "differently parameterized instances must not alias");
    }

    #[test]
    fn incomplete_identity_declines_every_key() {
        let cfg = JobConfig::new(2);
        let app = UnkeyedNeedle {
            needle: "foo".into(),
        };
        assert!(job_key(&app, &cfg, "hash", &[split(1)]).is_none());
        assert!(job_key(&app, &cfg, "hash", &[]).is_none());
        // Zero-sized apps vouch for themselves.
        assert!(job_key(&WordCountApp, &cfg, "hash", &[split(1)]).is_some());
    }

    #[test]
    fn shared_hits_are_zero_copy_across_clones() {
        let cache = SharedCache::new(1 << 20);
        let clone = cache.clone();
        let cfg = JobConfig::new(2);
        let key = job_key_of(&WordCountApp, &cfg, &[split(7)]);
        let parts: JobParts<WordCountApp> = vec![vec![("a".into(), 1)], vec![("b".into(), 2)]];
        let mut counters = Counters::new();
        cache.put_job::<WordCountApp>(key, parts, &mut counters);
        assert_eq!(counters.get(names::CACHE_INSERTS), 1);
        let (via_clone, bytes) = clone.get_job::<WordCountApp>(key).expect("hit via clone");
        assert_eq!(bytes, counters.get(names::CACHE_INSERT_BYTES));
        assert_eq!(via_clone[1], vec![("b".to_string(), 2)]);
        assert_eq!(clone.stats().hits, 1);
        assert_eq!(cache.len(), 1, "one store behind every clone");
    }

    #[test]
    fn oversize_outcome_charges_the_typed_counter() {
        let cache = SharedCache::new(8);
        let cfg = JobConfig::new(1);
        let key = job_key_of(&WordCountApp, &cfg, &[split(3)]);
        let parts: JobParts<WordCountApp> = vec![vec![("oversized".into(), 1); 64]];
        let mut counters = Counters::new();
        cache.put_job::<WordCountApp>(key, parts, &mut counters);
        assert!(cache.is_empty(), "refused, not stored");
        assert_eq!(counters.get(names::CACHE_OVERSIZE), 1);
        assert_eq!(counters.get(names::CACHE_INSERTS), 0);
        assert_eq!(counters.get(names::CACHE_MISS_BYTES), 64 * (24 + 9 + 8));
    }
}
