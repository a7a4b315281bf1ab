//! Shape-keyed LRU cache of compiled kernel plans, shareable across VMs.
//!
//! `CallTir` launches are keyed by `(function name, concrete argument
//! dims)`; the first launch of a key pays one plan compilation, every
//! subsequent launch at the same shapes reuses the cached
//! [`KernelPlan`]. Functions the planner cannot express are cached as
//! [`CachedPlan::Unplannable`] so the interpreter fallback does not
//! recompile (and re-fail) per launch. Eviction is least-recently-used via
//! a monotonic touch tick.
//!
//! The cache is a [`SharedPlanCache`]: a cheap `Clone` handle over sharded
//! copy-on-write state, so a pool of serving workers can share one cache —
//! one worker's compile warms every other worker. Each shard publishes an
//! immutable `Arc<HashMap>` snapshot plus a version counter; mutation
//! replaces the snapshot and bumps the version. A VM probes through a
//! [`PlanCacheSession`]: while the shard version is unchanged the probe
//! reads the session's cached snapshot with **zero locks and zero shared
//! atomics written** — recency is an atomic store inside the (shared)
//! entry, the LRU tick is drawn from a session-local batch, and hit/miss
//! counters accumulate locally and publish in batches. The direct
//! [`SharedPlanCache::lookup`] keeps the old one-read-lock-per-probe
//! behavior for callers without a session.
//!
//! Batched-tick LRU semantics: a session reserves [`TICK_BATCH`] ticks
//! from the global counter at once, so "least recently used" is exact
//! within a session and approximate (within one batch window) across
//! sessions — an entry last touched by a long-idle worker can look up to
//! `TICK_BATCH` probes more recent than global order. Stats follow the
//! same batching, flushed on session flush (the VM flushes after every
//! program run), so `hits + misses == probes` holds at every flush point.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use relax_tir::KernelPlan;
use relax_trace::LockSite;

/// Default number of `(function, shapes)` specializations kept.
pub(crate) const DEFAULT_CAPACITY: usize = 64;

/// Number of independently versioned shards. Shard routing hashes the key
/// with a deterministic hasher, so the same key always lands on the same
/// shard in every VM sharing the cache.
const SHARD_COUNT: usize = 8;

/// Ticks a session reserves from the global LRU counter per refill, and
/// the stat-publication batch size.
const TICK_BATCH: u64 = 64;

static SHARD_READ_SITE: LockSite = LockSite::new("vm.plan_cache.shard_read");
static SHARD_WRITE_SITE: LockSite = LockSite::new("vm.plan_cache.shard_write");

/// A cache entry: a compiled plan, or a negative result.
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// A compiled shape-specialized plan, shared by every VM that hits
    /// this key.
    Ready(Arc<KernelPlan>),
    /// The planner refused this function; callers fall back to the
    /// interpreter without recompiling (and re-failing) per launch.
    Unplannable,
}

/// Owned cache key: `(function name, concrete argument dims)`.
#[derive(Debug, Clone)]
struct PlanKey {
    func: String,
    shapes: Vec<Vec<usize>>,
}

/// Borrowed view of a cache key, so lookups can probe the map with
/// `(&str, &[Vec<usize>])` without allocating an owned `PlanKey`.
trait KeyView {
    fn func(&self) -> &str;
    fn shapes(&self) -> &[Vec<usize>];
}

impl KeyView for PlanKey {
    fn func(&self) -> &str {
        &self.func
    }
    fn shapes(&self) -> &[Vec<usize>] {
        &self.shapes
    }
}

impl KeyView for (&str, &[Vec<usize>]) {
    fn func(&self) -> &str {
        self.0
    }
    fn shapes(&self) -> &[Vec<usize>] {
        self.1
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.func().hash(state);
        self.shapes().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.func() == other.func() && self.shapes() == other.shapes()
    }
}

impl Eq for dyn KeyView + '_ {}

// Route the owned key's Hash/Eq through the view so owned and borrowed
// probes are guaranteed to agree.
impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state)
    }
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for PlanKey {}

impl<'a> Borrow<dyn KeyView + 'a> for PlanKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

/// An entry plus its last-touched tick. Entries are `Arc`-shared between
/// snapshots, so a recency touch through any (possibly stale) snapshot is
/// seen by the evictor.
#[derive(Debug)]
struct Entry {
    touched: AtomicU64,
    plan: CachedPlan,
}

type ShardMap = Arc<HashMap<PlanKey, Arc<Entry>>>;

/// One shard: an immutable published snapshot plus a version counter.
/// Mutators build a new map, publish it under the write lock, and bump
/// `version` (Release) so sessions detect staleness with one Acquire load.
#[derive(Debug)]
struct Shard {
    version: AtomicU64,
    map: RwLock<ShardMap>,
}

/// Point-in-time counters of a [`SharedPlanCache`]. When the cache is
/// shared, these aggregate over every VM using it (per-VM counts live in
/// [`crate::Telemetry`]). Session-batched counts appear here at flush
/// points (the VM flushes after every program run), where
/// `hits + misses == probes` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (each triggers one compilation).
    pub misses: u64,
    /// Total counted lookups (`hits + misses` at every flush point).
    pub probes: u64,
    /// Entries evicted, least recently used first.
    pub evictions: u64,
    /// Entries currently cached (including negative entries).
    pub len: usize,
    /// Maximum entries kept.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheInner {
    shards: Vec<Shard>,
    tick: AtomicU64,
    len: AtomicUsize,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    probes: AtomicU64,
    evictions: AtomicU64,
}

/// A shape-keyed LRU plan cache that any number of VMs can share.
///
/// `Clone` is a cheap handle copy: all clones see the same entries and
/// counters, so a worker pool built from clones of one cache shares every
/// compiled plan. A `Vm` created with [`crate::Vm::new`] gets a private
/// cache; [`crate::Vm::from_parts`] accepts a shared one.
#[derive(Debug, Clone)]
pub struct SharedPlanCache {
    inner: Arc<CacheInner>,
}

/// Per-VM probe state: cached shard snapshots, a local LRU-tick batch and
/// batched hit/miss counters. Owned by one thread (the VM), never shared.
#[derive(Debug, Default)]
pub(crate) struct PlanCacheSession {
    /// Per shard: the snapshot and the version it was taken at.
    snapshots: Vec<Option<(u64, ShardMap)>>,
    /// Next tick to hand out, and how many remain before re-reserving.
    tick_next: u64,
    ticks_left: u64,
    /// Counts not yet published to the shared cache.
    pending_hits: u64,
    pending_misses: u64,
}

impl SharedPlanCache {
    /// Creates a cache holding at most `capacity` specializations
    /// (`0` disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache {
            inner: Arc::new(CacheInner {
                shards: (0..SHARD_COUNT)
                    .map(|_| Shard {
                        version: AtomicU64::new(0),
                        map: RwLock::new(Arc::new(HashMap::new())),
                    })
                    .collect(),
                tick: AtomicU64::new(0),
                len: AtomicUsize::new(0),
                capacity: AtomicUsize::new(capacity),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// `true` if this handle and `other` share the same underlying cache.
    pub fn shares_with(&self, other: &SharedPlanCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// `false` means planning is disabled entirely (capacity 0).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Maximum number of entries kept.
    pub fn capacity(&self) -> usize {
        self.inner.capacity.load(Ordering::Relaxed)
    }

    /// Number of plans (and negative entries) currently cached.
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Relaxed)
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters (across every VM sharing the cache). Counts a
    /// session has not yet flushed are not included; the VM flushes after
    /// every program run.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            probes: self.inner.probes.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity(),
        }
    }

    /// Changes the capacity, evicting least-recently-used entries if the
    /// cache is now over budget. Returns how many entries were evicted.
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        self.inner.capacity.store(capacity, Ordering::Relaxed);
        let mut evicted = 0;
        while self.len() > capacity && self.evict_lru() {
            evicted += 1;
        }
        evicted
    }

    /// A fresh probe session for one VM.
    pub(crate) fn session(&self) -> PlanCacheSession {
        PlanCacheSession {
            snapshots: (0..SHARD_COUNT).map(|_| None).collect(),
            ..PlanCacheSession::default()
        }
    }

    /// Publishes a session's batched hit/miss counts to the shared
    /// counters. After this, `stats()` satisfies `hits + misses == probes`
    /// with respect to everything this session counted.
    pub(crate) fn flush_session(&self, sess: &mut PlanCacheSession) {
        let (h, m) = (sess.pending_hits, sess.pending_misses);
        if h + m == 0 {
            return;
        }
        sess.pending_hits = 0;
        sess.pending_misses = 0;
        self.inner.hits.fetch_add(h, Ordering::Relaxed);
        self.inner.misses.fetch_add(m, Ordering::Relaxed);
        self.inner.probes.fetch_add(h + m, Ordering::Relaxed);
    }

    /// The shard index for a key. Uses the deterministic `DefaultHasher`
    /// seed (not the per-map random state) so every handle agrees.
    fn shard_of(key: &dyn KeyView) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }

    /// Session lookup: the hot path of `CallTir`. While the shard version
    /// is unchanged this takes **no lock and writes no shared atomic** —
    /// it probes the session's snapshot, stamps recency from the session's
    /// tick batch, and counts locally. A changed version refreshes the
    /// snapshot under one (instrumented) shard read lock.
    pub(crate) fn lookup_with(
        &self,
        sess: &mut PlanCacheSession,
        func: &str,
        shapes: &[Vec<usize>],
    ) -> Option<CachedPlan> {
        if !self.enabled() {
            return None;
        }
        let probe: &dyn KeyView = &(func, shapes);
        let si = Self::shard_of(probe);
        let shard = &self.inner.shards[si];
        let version = shard.version.load(Ordering::Acquire);
        let slot = &mut sess.snapshots[si];
        let stale = slot.as_ref().map(|(v, _)| *v != version).unwrap_or(true);
        if stale {
            let map = Arc::clone(&SHARD_READ_SITE.read(&shard.map));
            *slot = Some((version, map));
        }
        let map = &slot.as_ref().expect("snapshot just refreshed").1;

        if sess.ticks_left == 0 {
            sess.tick_next = self.inner.tick.fetch_add(TICK_BATCH, Ordering::Relaxed) + 1;
            sess.ticks_left = TICK_BATCH;
        }
        let tick = sess.tick_next;
        sess.tick_next += 1;
        sess.ticks_left -= 1;

        let found = map.get(probe).map(|entry| {
            entry.touched.store(tick, Ordering::Relaxed);
            entry.plan.clone()
        });
        if found.is_some() {
            sess.pending_hits += 1;
        } else {
            sess.pending_misses += 1;
        }
        if sess.pending_hits + sess.pending_misses >= TICK_BATCH {
            self.flush_session(sess);
        }
        self.trace_probe(func, shapes, found.is_some());
        found
    }

    /// Looks up `(func, shapes)` without a session: one shard read lock
    /// per probe, counters published immediately. Kept for callers that
    /// probe rarely (tests, tools); the VM hot path probes through its
    /// `PlanCacheSession` instead.
    pub fn lookup(&self, func: &str, shapes: &[Vec<usize>]) -> Option<CachedPlan> {
        if !self.enabled() {
            return None;
        }
        let probe: &dyn KeyView = &(func, shapes);
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let map = Arc::clone(&SHARD_READ_SITE.read(&self.inner.shards[Self::shard_of(probe)].map));
        let found = map.get(probe).map(|entry| {
            entry.touched.store(tick, Ordering::Relaxed);
            entry.plan.clone()
        });
        if found.is_some() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.probes.fetch_add(1, Ordering::Relaxed);
        self.trace_probe(func, shapes, found.is_some());
        found
    }

    fn trace_probe(&self, func: &str, shapes: &[Vec<usize>], hit: bool) {
        relax_trace::instant(
            "vm",
            || format!("plan_cache:{func}"),
            || relax_trace::Payload::Kernel {
                kernel: func.to_string(),
                shapes: relax_trace::shape_sig(shapes),
                cache: Some(if hit {
                    relax_trace::CacheOutcome::Hit
                } else {
                    relax_trace::CacheOutcome::Miss
                }),
            },
        );
    }

    /// Inserts a freshly compiled (or refused) plan, evicting
    /// least-recently-used entries once the cache is over capacity.
    /// Replacing a key that is already cached is *not* growth and evicts
    /// nothing. Returns how many entries were evicted.
    ///
    /// Mutation is copy-on-write: a new snapshot map is published and the
    /// shard version bumped, so sessions refresh on their next probe.
    pub fn insert(&self, func: &str, shapes: &[Vec<usize>], plan: CachedPlan) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let probe: &dyn KeyView = &(func, shapes);
        let shard = &self.inner.shards[Self::shard_of(probe)];
        {
            let mut guard = SHARD_WRITE_SITE.write(&shard.map);
            let mut map: HashMap<PlanKey, Arc<Entry>> = (**guard).clone();
            let replacing = map
                .insert(
                    PlanKey {
                        func: func.to_string(),
                        shapes: shapes.to_vec(),
                    },
                    Arc::new(Entry {
                        touched: AtomicU64::new(tick),
                        plan,
                    }),
                )
                .is_some();
            *guard = Arc::new(map);
            shard.version.fetch_add(1, Ordering::Release);
            if replacing {
                // In-place replacement: same key, no growth, no eviction.
                return 0;
            }
            self.inner.len.fetch_add(1, Ordering::Relaxed);
        }
        let mut evicted = 0;
        while self.len() > self.capacity() && self.evict_lru() {
            evicted += 1;
        }
        evicted
    }

    /// Evicts the globally least-recently-touched entry. `false` if the
    /// cache was empty.
    fn evict_lru(&self) -> bool {
        // Find the globally oldest entry from the published snapshots.
        let mut oldest: Option<(usize, u64, PlanKey)> = None;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let map = Arc::clone(&SHARD_READ_SITE.read(&shard.map));
            for (key, entry) in map.iter() {
                let t = entry.touched.load(Ordering::Relaxed);
                if oldest.as_ref().map(|(_, ot, _)| t < *ot).unwrap_or(true) {
                    oldest = Some((i, t, key.clone()));
                }
            }
        }
        let Some((i, _, key)) = oldest else {
            return false;
        };
        let shard = &self.inner.shards[i];
        let mut guard = SHARD_WRITE_SITE.write(&shard.map);
        let mut map: HashMap<PlanKey, Arc<Entry>> = (**guard).clone();
        if map.remove(&key as &dyn KeyView).is_some() {
            *guard = Arc::new(map);
            shard.version.fetch_add(1, Ordering::Release);
            self.inner.len.fetch_sub(1, Ordering::Relaxed);
            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            // Lost a race with another evictor; report progress anyway so
            // callers re-check the length.
            true
        }
    }
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let c = SharedPlanCache::new(2);
        c.insert("a", &[vec![1]], CachedPlan::Unplannable);
        c.insert("b", &[vec![1]], CachedPlan::Unplannable);
        assert!(c.lookup("a", &[vec![1]]).is_some()); // refresh a
        c.insert("c", &[vec![1]], CachedPlan::Unplannable); // evicts b
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup("a", &[vec![1]]).is_some());
        assert!(c.lookup("b", &[vec![1]]).is_none());
        assert!(c.lookup("c", &[vec![1]]).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = SharedPlanCache::new(0);
        assert!(!c.enabled());
        c.insert("a", &[vec![1]], CachedPlan::Unplannable);
        assert!(c.lookup("a", &[vec![1]]).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 0); // disabled lookups are not counted
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let c = SharedPlanCache::new(4);
        for name in ["a", "b", "c", "d"] {
            c.insert(name, &[vec![2, 2]], CachedPlan::Unplannable);
        }
        let evicted = c.set_capacity(1);
        assert_eq!(evicted, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 3);
    }

    /// Regression: replacing an existing key while at capacity must not
    /// evict anything — replacement is not growth. The old code evicted
    /// the LRU entry first, which at capacity 1 was the very entry being
    /// replaced.
    #[test]
    fn replacing_existing_key_at_capacity_evicts_nothing() {
        let c = SharedPlanCache::new(1);
        c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        let evicted = c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        assert_eq!(evicted, 0);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("a", &[vec![4]]).is_some());

        // Same at capacity 2 with a second live entry: the untouched
        // neighbour must survive the replacement.
        let c = SharedPlanCache::new(2);
        c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        c.insert("b", &[vec![8]], CachedPlan::Unplannable);
        c.insert("a", &[vec![4]], CachedPlan::Unplannable);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.lookup("b", &[vec![8]]).is_some());
    }

    #[test]
    fn clones_share_entries_and_counters() {
        let a = SharedPlanCache::new(4);
        let b = a.clone();
        assert!(a.shares_with(&b));
        a.insert("f", &[vec![2]], CachedPlan::Unplannable);
        assert!(b.lookup("f", &[vec![2]]).is_some());
        let s = a.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.len, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12 || s.misses == 0);
    }

    #[test]
    fn concurrent_lookups_and_inserts_stay_consistent() {
        let c = SharedPlanCache::new(8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200usize {
                        let shapes = vec![vec![i % 16]];
                        let name = if t % 2 == 0 { "even" } else { "odd" };
                        if c.lookup(name, &shapes).is_none() {
                            c.insert(name, &shapes, CachedPlan::Unplannable);
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 8);
        let s = c.stats();
        assert!(s.hits + s.misses >= 800);
        assert_eq!(s.probes, s.hits + s.misses);
    }

    #[test]
    fn session_probe_is_lock_free_on_unchanged_version_and_flushes_batched() {
        let c = SharedPlanCache::new(8);
        c.insert("f", &[vec![2]], CachedPlan::Unplannable);
        let mut sess = c.session();
        // First probe refreshes the snapshot; the rest ride it.
        for _ in 0..10 {
            assert!(c.lookup_with(&mut sess, "f", &[vec![2]]).is_some());
        }
        assert!(c.lookup_with(&mut sess, "g", &[vec![2]]).is_none());
        // Counts are still pending (batch not reached, no flush yet).
        assert_eq!(c.stats().hits, 0);
        c.flush_session(&mut sess);
        let s = c.stats();
        assert_eq!(s.hits, 10);
        assert_eq!(s.misses, 1);
        assert_eq!(s.probes, 11);
        // Flushing twice publishes nothing extra.
        c.flush_session(&mut sess);
        assert_eq!(c.stats().probes, 11);
    }

    #[test]
    fn session_sees_inserts_via_version_bump() {
        let c = SharedPlanCache::new(8);
        let mut sess = c.session();
        assert!(c.lookup_with(&mut sess, "f", &[vec![3]]).is_none());
        c.insert("f", &[vec![3]], CachedPlan::Unplannable);
        // The insert bumped the shard version: the stale snapshot is
        // refreshed and the new entry is visible.
        assert!(c.lookup_with(&mut sess, "f", &[vec![3]]).is_some());
    }

    #[test]
    fn session_tick_batches_keep_recency_exact_within_a_session() {
        let c = SharedPlanCache::new(2);
        c.insert("a", &[vec![1]], CachedPlan::Unplannable);
        c.insert("b", &[vec![1]], CachedPlan::Unplannable);
        let mut sess = c.session();
        // Touch `a` through the session, then insert `c`: `b` is the LRU.
        assert!(c.lookup_with(&mut sess, "a", &[vec![1]]).is_some());
        c.insert("c", &[vec![1]], CachedPlan::Unplannable);
        assert!(c.lookup("a", &[vec![1]]).is_some());
        assert!(c.lookup("b", &[vec![1]]).is_none());
        c.flush_session(&mut sess);
    }

    /// The plain reference for [`random_operations_match_an_lru_model`]:
    /// entries in a `Vec` with the tick that last touched them, the victim
    /// the smallest tick. Ticks follow the documented batched rule: a
    /// direct probe or insert draws one from the global counter, a session
    /// reserves [`TICK_BATCH`] at once and hands them out in order.
    #[derive(Default)]
    struct Model {
        entries: Vec<(Key, u64)>,
        capacity: usize,
        tick: u64,
        session_next: u64,
        session_left: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        /// Keys evicted and not inserted since.
        evicted: Vec<Key>,
    }

    /// `(function index, shape index)`.
    type Key = (usize, usize);

    impl Model {
        fn global_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn session_tick(&mut self) -> u64 {
            if self.session_left == 0 {
                self.session_next = self.tick + 1;
                self.tick += TICK_BATCH;
                self.session_left = TICK_BATCH;
            }
            self.session_left -= 1;
            self.session_next += 1;
            self.session_next - 1
        }

        /// A counted probe; `true` on a hit.
        fn probe(&mut self, key: Key, through_session: bool) -> bool {
            if self.capacity == 0 {
                return false;
            }
            let tick = if through_session {
                self.session_tick()
            } else {
                self.global_tick()
            };
            match self.entries.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => {
                    entry.1 = tick;
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        /// Inserts `key`; returns how many entries it evicted.
        fn insert(&mut self, key: Key) -> u64 {
            if self.capacity == 0 {
                return 0;
            }
            let tick = self.global_tick();
            if let Some(entry) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                entry.1 = tick;
                return 0;
            }
            self.entries.push((key, tick));
            self.evicted.retain(|k| *k != key);
            self.shrink()
        }

        fn set_capacity(&mut self, capacity: usize) -> u64 {
            self.capacity = capacity;
            self.shrink()
        }

        fn shrink(&mut self) -> u64 {
            let mut evicted = 0;
            while self.entries.len() > self.capacity {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .expect("over capacity, so not empty");
                let (key, _) = self.entries.remove(oldest);
                self.evicted.push(key);
                self.evictions += 1;
                evicted += 1;
            }
            evicted
        }
    }

    /// 200 seeds × 200 random direct and session lookups, inserts,
    /// capacity changes (including 0 and shrinking) and session flushes,
    /// checked against [`Model`]: every probe hits exactly when the model
    /// does, every insert and capacity change evicts as many entries, and
    /// after every flush the counters and length equal the model's and a
    /// key the model evicted misses.
    #[test]
    fn random_operations_match_an_lru_model() {
        const FUNCS: [&str; 4] = ["f0", "f1", "f2", "f3"];
        let shapes: [Vec<Vec<usize>>; 3] = [vec![vec![1]], vec![vec![2]], vec![vec![3, 4]]];
        for seed in 0..200u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let initial = below(9);
            let c = SharedPlanCache::new(initial);
            let mut sess = c.session();
            let mut model = Model {
                capacity: initial,
                ..Model::default()
            };
            for op in 0..200 {
                let key = (below(FUNCS.len()), below(shapes.len()));
                let (func, shape) = (FUNCS[key.0], &shapes[key.1]);
                let ctx = format!("seed {seed} op {op}");
                match below(20) {
                    0..=5 => {
                        let hit = c.lookup(func, shape).is_some();
                        assert_eq!(hit, model.probe(key, false), "{ctx}: lookup {key:?}");
                    }
                    6..=11 => {
                        let hit = c.lookup_with(&mut sess, func, shape).is_some();
                        assert_eq!(hit, model.probe(key, true), "{ctx}: lookup_with {key:?}");
                    }
                    12..=15 => {
                        let evicted = c.insert(func, shape, CachedPlan::Unplannable);
                        assert_eq!(evicted, model.insert(key), "{ctx}: insert {key:?}");
                    }
                    16 => {
                        // Shrink more often than grow, and reach 0.
                        let capacity = below(c.capacity() + 3).saturating_sub(2);
                        let evicted = c.set_capacity(capacity);
                        assert_eq!(evicted, model.set_capacity(capacity), "{ctx}: capacity");
                    }
                    _ => {
                        c.flush_session(&mut sess);
                        let stats = c.stats();
                        assert_eq!(stats.hits + stats.misses, stats.probes, "{ctx}");
                        assert_eq!(
                            (stats.hits, stats.misses),
                            (model.hits, model.misses),
                            "{ctx}"
                        );
                        assert_eq!(stats.evictions, model.evictions, "{ctx}");
                        assert_eq!(stats.len, model.entries.len(), "{ctx}");
                        assert!(stats.len <= stats.capacity, "{ctx}: {stats:?}");
                        if !model.evicted.is_empty() {
                            let gone = model.evicted[below(model.evicted.len())];
                            assert!(!model.probe(gone, false));
                            let (func, shape) = (FUNCS[gone.0], &shapes[gone.1]);
                            assert!(c.lookup(func, shape).is_none(), "{ctx}: {gone:?} hit");
                        }
                    }
                }
            }
        }
    }
}
