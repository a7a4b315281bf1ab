//! Shape-keyed LRU cache of compiled kernel plans, shareable across VMs.
//!
//! `CallTir` launches are keyed by `(function name, concrete argument
//! dims)`; the first launch of a key pays one plan compilation, every
//! subsequent launch at the same shapes reuses the cached
//! [`KernelPlan`]. Functions the planner cannot express are cached as
//! [`CachedPlan::Unplannable`] so the interpreter fallback does not
//! recompile (and re-fail) per launch.
//!
//! The cache is a [`SharedPlanCache`]: a cheap `Clone` handle over one
//! mutex that guards the map, the counters and the capacity, so a pool of
//! serving workers can share one cache — one worker's compile warms every
//! other worker. A hit is one lock and two hash probes, with no
//! allocation; a miss compiles outside the lock and then inserts.
//!
//! Eviction is exact LRU: every probe and every insert takes the next
//! tick, and once the cache is over capacity the entry with the smallest
//! tick goes. The counters change under the same lock as the map, so
//! `hits + misses == probes` always holds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use relax_tir::KernelPlan;
use relax_trace::LockSite;

/// Default number of `(function, shapes)` specializations kept.
pub(crate) const DEFAULT_CAPACITY: usize = 64;

static SITE: LockSite = LockSite::new("vm.plan_cache");

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

/// Point-in-time counters of a [`SharedPlanCache`]. When the cache is
/// shared, these aggregate over every VM using it (per-VM counts live in
/// [`crate::Telemetry`]); `hits + misses == probes` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (each triggers one compilation).
    pub misses: u64,
    /// Total counted lookups (always `hits + misses`).
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

/// One function's cached specializations, each with the tick that last
/// touched it.
type ByShapes = HashMap<Vec<Vec<usize>>, (u64, CachedPlan)>;

/// Everything the lock guards. Entries are keyed by function, then by
/// shapes, so `&str` and `&[Vec<usize>]` probe both levels through
/// `Borrow`.
#[derive(Debug, Default)]
struct State {
    map: HashMap<String, ByShapes>,
    tick: u64,
    len: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl State {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// capacity; returns how many went. Ticks are unique, so each pass
    /// removes exactly the one entry holding the smallest.
    fn shrink(&mut self) -> u64 {
        let mut evicted = 0;
        while self.len > self.capacity {
            let oldest = self
                .map
                .values()
                .flat_map(|by_shapes| by_shapes.values().map(|(tick, _)| *tick))
                .min()
                .expect("over capacity, so not empty");
            self.map.retain(|_, by_shapes| {
                by_shapes.retain(|_, (tick, _)| *tick != oldest);
                !by_shapes.is_empty()
            });
            self.len -= 1;
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }
}

/// A shape-keyed LRU plan cache that any number of VMs can share.
///
/// `Clone` is a cheap handle copy: all clones see the same entries and
/// counters, so a worker pool built from clones of one cache shares every
/// compiled plan. A `Vm` created with [`crate::Vm::new`] gets a private
/// cache; [`crate::Vm::from_parts`] accepts a shared one.
#[derive(Debug, Clone)]
pub struct SharedPlanCache {
    state: Arc<Mutex<State>>,
}

impl SharedPlanCache {
    /// Creates a cache holding at most `capacity` specializations
    /// (`0` disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache {
            state: Arc::new(Mutex::new(State {
                capacity,
                ..State::default()
            })),
        }
    }

    /// `true` if this handle and `other` share the same underlying cache.
    pub fn shares_with(&self, other: &SharedPlanCache) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// `false` means planning is disabled entirely (capacity 0).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Maximum number of entries kept.
    pub fn capacity(&self) -> usize {
        SITE.lock(&self.state).capacity
    }

    /// Number of plans (and negative entries) currently cached.
    pub fn len(&self) -> usize {
        SITE.lock(&self.state).len
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters (across every VM sharing the cache).
    pub fn stats(&self) -> PlanCacheStats {
        let s = SITE.lock(&self.state);
        PlanCacheStats {
            hits: s.hits,
            misses: s.misses,
            probes: s.hits + s.misses,
            evictions: s.evictions,
            len: s.len,
            capacity: s.capacity,
        }
    }

    /// Changes the capacity, evicting least-recently-used entries if the
    /// cache is now over budget. Returns how many entries were evicted.
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        let mut s = SITE.lock(&self.state);
        s.capacity = capacity;
        s.shrink()
    }

    /// Looks up `(func, shapes)`, marking a hit as the most recently used
    /// entry. A disabled cache (capacity 0) finds nothing and counts
    /// nothing.
    pub fn lookup(&self, func: &str, shapes: &[Vec<usize>]) -> Option<CachedPlan> {
        let found = {
            let mut s = SITE.lock(&self.state);
            if s.capacity == 0 {
                return None;
            }
            let tick = s.next_tick();
            let found = s
                .map
                .get_mut(func)
                .and_then(|by_shapes| by_shapes.get_mut(shapes))
                .map(|(touched, plan)| {
                    *touched = tick;
                    plan.clone()
                });
            if found.is_some() {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
            found
        };
        relax_trace::instant(
            "vm",
            || format!("plan_cache:{func}"),
            || relax_trace::Payload::Kernel {
                kernel: func.to_string(),
                shapes: relax_trace::shape_sig(shapes),
                cache: Some(if found.is_some() {
                    relax_trace::CacheOutcome::Hit
                } else {
                    relax_trace::CacheOutcome::Miss
                }),
            },
        );
        found
    }

    /// Inserts a freshly compiled (or refused) plan as the most recently
    /// used entry, evicting least-recently-used entries once the cache is
    /// over capacity. Replacing a key that is already cached is *not*
    /// growth and evicts nothing. Returns how many entries were evicted.
    pub fn insert(&self, func: &str, shapes: &[Vec<usize>], plan: CachedPlan) -> u64 {
        let mut s = SITE.lock(&self.state);
        if s.capacity == 0 {
            return 0;
        }
        let tick = s.next_tick();
        let by_shapes = s.map.entry(func.to_string()).or_default();
        if by_shapes.insert(shapes.to_vec(), (tick, plan)).is_some() {
            return 0;
        }
        s.len += 1;
        s.shrink()
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
        assert_eq!(s.hits + s.misses, 800);
        assert_eq!(s.probes, s.hits + s.misses);
    }

    /// The plain reference for [`random_operations_match_an_lru_model`]:
    /// entries in a `Vec` with the tick that last touched them, the victim
    /// the smallest tick. Every probe and every insert takes the next tick.
    #[derive(Default)]
    struct Model {
        entries: Vec<(Key, u64)>,
        capacity: usize,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        /// Keys evicted and not inserted since.
        evicted: Vec<Key>,
    }

    /// `(function index, shape index)`.
    type Key = (usize, usize);

    impl Model {
        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        /// A counted probe; `true` on a hit.
        fn probe(&mut self, key: Key) -> bool {
            if self.capacity == 0 {
                return false;
            }
            let tick = self.next_tick();
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
            let tick = self.next_tick();
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

    /// 200 seeds × 200 random lookups, inserts and capacity changes
    /// (including 0 and shrinking), spread over two clones of one cache,
    /// checked against [`Model`]: every probe hits exactly when the model
    /// does, every insert and capacity change evicts as many entries, and
    /// after every op the counters and length equal the model's and a key
    /// the model evicted misses.
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
            let first = SharedPlanCache::new(initial);
            let handles = [first.clone(), first];
            let mut model = Model {
                capacity: initial,
                ..Model::default()
            };
            for op in 0..200 {
                let key = (below(FUNCS.len()), below(shapes.len()));
                let (func, shape) = (FUNCS[key.0], &shapes[key.1]);
                let c = &handles[below(handles.len())];
                let ctx = format!("seed {seed} op {op}");
                match below(17) {
                    0..=11 => {
                        let hit = c.lookup(func, shape).is_some();
                        assert_eq!(hit, model.probe(key), "{ctx}: lookup {key:?}");
                    }
                    12..=15 => {
                        let evicted = c.insert(func, shape, CachedPlan::Unplannable);
                        assert_eq!(evicted, model.insert(key), "{ctx}: insert {key:?}");
                    }
                    _ => {
                        // Shrink more often than grow, and reach 0.
                        let capacity = below(c.capacity() + 3).saturating_sub(2);
                        let evicted = c.set_capacity(capacity);
                        assert_eq!(evicted, model.set_capacity(capacity), "{ctx}: capacity");
                    }
                }
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
                    assert!(!model.probe(gone));
                    let (func, shape) = (FUNCS[gone.0], &shapes[gone.1]);
                    assert!(c.lookup(func, shape).is_none(), "{ctx}: {gone:?} hit");
                }
            }
        }
    }
}
