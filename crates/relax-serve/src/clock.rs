//! The one clock every deadline, heartbeat and stall decision reads and
//! waits through.
//!
//! Production runs on [`SystemClock`]. Tests that assert *when* something
//! is shed or declared wedged run on a [`ManualClock`], whose
//! time moves only when the test says so — so they hold on a loaded
//! one-core host, where a `thread::sleep` guarantees nothing about which
//! thread ran in the meantime.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::core::lock;
use crate::session::{SessionConfig, SessionManager, SessionModelSpec};

/// Monotonic time plus the two ways serving code waits on it.
pub(crate) trait Clock: Send + Sync {
    fn now(&self) -> Instant;
    /// How long a condvar wait may really block before `until` must be
    /// re-checked against [`Clock::now`]; zero once `until` has passed.
    fn timeout(&self, until: Instant) -> Duration;
    /// Blocks for `d` of this clock's time (an injected worker stall).
    fn sleep(&self, d: Duration);
}

/// Waits on `cv` until notified or until `until` passes on `clock`
/// (`None`: until notified). May return early; callers re-check their
/// condition in a loop, as with any condvar.
pub(crate) fn wait_until<'a, T>(
    clock: &dyn Clock,
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    until: Option<Instant>,
) -> MutexGuard<'a, T> {
    match until.map(|t| clock.timeout(t)) {
        None => cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
        Some(Duration::ZERO) => guard,
        Some(d) => {
            cv.wait_timeout(guard, d)
                .unwrap_or_else(|e| e.into_inner())
                .0
        }
    }
}

/// Wall-clock time.
pub(crate) struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn timeout(&self, until: Instant) -> Duration {
        until.saturating_duration_since(Instant::now())
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

struct ManualState {
    elapsed: Duration,
    sleepers: usize,
}

struct Manual {
    base: Instant,
    state: Mutex<ManualState>,
    moved: Condvar,
}

impl Clock for Manual {
    fn now(&self) -> Instant {
        self.base + lock(&self.state).elapsed
    }

    /// A short real slice: the waiter wakes, re-reads the manual time and
    /// waits again, so an `advance` is seen within a millisecond without
    /// the clock having to know every condvar that waits on it.
    fn timeout(&self, until: Instant) -> Duration {
        if self.now() >= until {
            Duration::ZERO
        } else {
            Duration::from_millis(1)
        }
    }

    fn sleep(&self, d: Duration) {
        let mut st = lock(&self.state);
        let wake_at = st.elapsed + d;
        st.sleepers += 1;
        self.moved.notify_all();
        while st.elapsed < wake_at {
            st = self.moved.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.sleepers -= 1;
    }
}

/// A clock that stands still until [`ManualClock::advance`] moves it —
/// the test seam for deadline and heartbeat behaviour. A manager built
/// through it is otherwise identical to one from [`SessionManager::new`].
#[derive(Clone)]
pub struct ManualClock(Arc<Manual>);

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ManualClock {
    pub fn new() -> Self {
        ManualClock(Arc::new(Manual {
            base: Instant::now(),
            state: Mutex::new(ManualState {
                elapsed: Duration::ZERO,
                sleepers: 0,
            }),
            moved: Condvar::new(),
        }))
    }

    /// Moves time forward by `d`, waking stalls that have run their course.
    pub fn advance(&self, d: Duration) {
        lock(&self.0.state).elapsed += d;
        self.0.moved.notify_all();
    }

    /// Blocks until `n` workers sit in an injected stall.
    pub fn await_sleepers(&self, n: usize) {
        let mut st = lock(&self.0.state);
        while st.sleepers < n {
            st = self.0.moved.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// This clock, as the core takes it.
    pub(crate) fn clock(&self) -> Arc<dyn Clock> {
        self.0.clone()
    }

    /// [`SessionManager::new`] on this clock.
    pub fn session_manager(&self, spec: SessionModelSpec, config: SessionConfig) -> SessionManager {
        SessionManager::with_clock(spec, config, self.clock())
    }
}
