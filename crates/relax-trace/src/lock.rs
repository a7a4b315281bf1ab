//! Lock-wait instrumentation: per-site contention counters and a
//! `try_lock`-first acquisition helper.
//!
//! Each instrumented call site declares one `static` [`LockSite`].
//! [`LockSite::lock`] first attempts a non-blocking acquisition of its
//! `Mutex`; only when that fails does it time the blocking wait, bump the
//! site's counters and — if tracing is enabled — emit a [`Payload::Lock`]
//! instant. The uncontended fast path therefore costs exactly one
//! `try_lock`, and a site that never contends never registers, never
//! allocates and never appears in [`lock_wait_stats`].
//!
//! The counters are process-global and always on (they are only touched
//! on the contended slow path, where the thread just blocked anyway).
//! Benchmarks snapshot them with [`lock_wait_stats`] and zero them with
//! [`reset_lock_wait_stats`] between scenarios.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::event::Payload;

/// One instrumented lock site: a stable name plus contended-wait
/// counters. Declare as `static SITE: LockSite = LockSite::new("…")` at
/// the call site and route acquisitions through it.
pub struct LockSite {
    name: &'static str,
    registered: AtomicBool,
    waits: AtomicU64,
    total_wait_ns: AtomicU64,
    max_wait_ns: AtomicU64,
}

/// Snapshot of one site's counters, as returned by [`lock_wait_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockWaitStat {
    /// The site name passed to [`LockSite::new`].
    pub site: &'static str,
    /// Number of acquisitions that had to block.
    pub waits: u64,
    /// Total nanoseconds spent blocked across those acquisitions.
    pub total_wait_ns: u64,
    /// Longest single blocked acquisition, in nanoseconds.
    pub max_wait_ns: u64,
}

/// Sites that have recorded at least one contended wait. Appended to
/// once per site (guarded by `LockSite::registered`); snapshots read it
/// briefly under the mutex.
fn registry() -> &'static Mutex<Vec<&'static LockSite>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static LockSite>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl LockSite {
    /// A new site with zeroed counters. `const` so it can back a
    /// `static` at the call site.
    pub const fn new(name: &'static str) -> Self {
        LockSite {
            name,
            registered: AtomicBool::new(false),
            waits: AtomicU64::new(0),
            total_wait_ns: AtomicU64::new(0),
            max_wait_ns: AtomicU64::new(0),
        }
    }

    /// Records one contended wait of `waited` against this site.
    /// Exposed so callers that block on condvars (not lock guards) can
    /// report through the same table.
    pub fn record_wait(&'static self, waited: Duration) {
        let ns = waited.as_nanos().min(u64::MAX as u128) as u64;
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.total_wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_wait_ns.fetch_max(ns, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            reg.push(self);
        }
        if crate::enabled() {
            crate::instant(
                "lock",
                || format!("lock_wait:{}", self.name),
                || Payload::Lock {
                    site: self.name,
                    wait_ns: ns,
                },
            );
        }
    }

    /// Acquires `m`, timing the wait only if `try_lock` fails. Poisoned
    /// locks are recovered (this crate never leaves data in a
    /// torn state under a guard).
    pub fn lock<'a, T>(&'static self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        match m.try_lock() {
            Ok(g) => return g,
            Err(std::sync::TryLockError::Poisoned(e)) => return e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        let start = Instant::now();
        let g = m.lock().unwrap_or_else(|e| e.into_inner());
        self.record_wait(start.elapsed());
        g
    }
}

/// Snapshot of every site that has recorded at least one contended
/// wait, sorted by total wait time (largest first). Sites whose
/// counters were zeroed by [`reset_lock_wait_stats`] but which have
/// seen no contention since are omitted.
pub fn lock_wait_stats() -> Vec<LockWaitStat> {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<LockWaitStat> = reg
        .iter()
        .map(|s| LockWaitStat {
            site: s.name,
            waits: s.waits.load(Ordering::Relaxed),
            total_wait_ns: s.total_wait_ns.load(Ordering::Relaxed),
            max_wait_ns: s.max_wait_ns.load(Ordering::Relaxed),
        })
        .filter(|s| s.waits > 0)
        .collect();
    out.sort_by(|a, b| {
        b.total_wait_ns
            .cmp(&a.total_wait_ns)
            .then(a.site.cmp(b.site))
    });
    out
}

/// Zeroes every registered site's counters. Registration persists, so a
/// site re-appears in [`lock_wait_stats`] as soon as it contends again.
pub fn reset_lock_wait_stats() {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for s in reg.iter() {
        s.waits.store(0, Ordering::Relaxed);
        s.total_wait_ns.store(0, Ordering::Relaxed);
        s.max_wait_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_lock_records_nothing() {
        static SITE: LockSite = LockSite::new("test.uncontended");
        let m = Mutex::new(0u32);
        for _ in 0..100 {
            *SITE.lock(&m) += 1;
        }
        assert_eq!(*SITE.lock(&m), 100);
        assert!(lock_wait_stats()
            .iter()
            .all(|s| s.site != "test.uncontended"));
    }

    #[test]
    fn contended_lock_is_counted_once_per_blocked_acquisition() {
        static SITE: LockSite = LockSite::new("test.contended");
        let m = Arc::new(Mutex::new(()));
        let held = m.lock().unwrap();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _g = SITE.lock(&m2);
        });
        // Hold long enough that the spawned thread's try_lock loses.
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        t.join().unwrap();
        let stats = lock_wait_stats();
        let s = stats.iter().find(|s| s.site == "test.contended").unwrap();
        assert_eq!(s.waits, 1);
        assert!(s.total_wait_ns > 0);
        assert_eq!(s.max_wait_ns, s.total_wait_ns);
    }

    #[test]
    fn reset_zeroes_counters_but_keeps_registration() {
        static SITE: LockSite = LockSite::new("test.reset");
        SITE.record_wait(Duration::from_micros(5));
        assert!(lock_wait_stats().iter().any(|s| s.site == "test.reset"));
        reset_lock_wait_stats();
        assert!(lock_wait_stats().iter().all(|s| s.site != "test.reset"));
        SITE.record_wait(Duration::from_micros(7));
        let stats = lock_wait_stats();
        let s = stats.iter().find(|s| s.site == "test.reset").unwrap();
        assert_eq!(s.waits, 1);
    }
}
