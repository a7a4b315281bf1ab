//! End-to-end tracing for the Relax stack: hierarchical spans across
//! compile, VM and serving, with Chrome trace-event export.
//!
//! The compiler (`relax-passes`), the VM (`relax-vm`) and the
//! serving layer (`relax-serve`) each kept their own timing silo —
//! per-pass wall times, per-kernel compile/run splits, session latency.
//! This crate gives them one time-ordered substrate:
//!
//! - [`span`] opens a synchronous RAII span on the current thread. Spans
//!   nest through a thread-local stack, so a kernel span launched while
//!   a session step runs records that step as its parent. The guard
//!   **always** measures wall time — [`SpanGuard::finish`] returns the
//!   elapsed [`Duration`] whether or not tracing is enabled — so callers
//!   feed their reports (e.g. `CompileReport`) from the same clock that
//!   stamps the trace, and the two can never disagree.
//! - [`async_begin`]/[`async_end`] bracket work that migrates across
//!   threads (a serving session is admitted on the scheduler thread and
//!   steps on the workers); the [`SpanId`] is carried alongside the work
//!   and closes the span wherever it lands.
//! - [`instant`] marks point events (allocator fallbacks, retries,
//!   worker restarts).
//!
//! Events carry typed [`Payload`]s and land in a lock-sharded bounded
//! buffer ([`take`] drains it). Two exporters read a drained [`Trace`]:
//! [`chrome_json`] writes Chrome trace-event JSON loadable in
//! `chrome://tracing` / Perfetto (re-checkable with
//! [`validate_chrome_trace`]), and [`flame_summary`] prints a
//! plain-text hot-path table.
//!
//! # Cost when disabled
//!
//! Tracing is compiled in but **off** by default. The off fast path of
//! every emission function is a single relaxed atomic load (after a
//! one-time env check): no id is allocated, no name is formatted — name
//! and payload arguments are closures evaluated only when recording —
//! and nothing is pushed. Set `RELAX_TRACE=1` in the environment or
//! call [`set_enabled`]`(true)` to record.
//!
//! ```
//! let _capture = relax_trace::Capture::begin();
//! {
//!     let sp = relax_trace::span("compile", || "pass:demo".to_string());
//!     let wall = sp.finish_with(|| relax_trace::Payload::Pass {
//!         pass: "demo".to_string(),
//!         changed: false,
//!     });
//!     assert!(wall.as_nanos() > 0);
//! }
//! let trace = _capture.finish();
//! trace.validate().unwrap();
//! assert_eq!(trace.sync_span_count("compile", "pass:"), 1);
//! let stats = relax_trace::validate_chrome_trace(&trace.chrome_json()).unwrap();
//! assert_eq!(stats.sync_pairs, 1);
//! ```

#![forbid(unsafe_code)]

mod buffer;
mod chrome;
mod event;
mod flame;
mod lock;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

pub use buffer::{clear, dropped, set_capacity, take, Trace, DEFAULT_CAPACITY};
pub use chrome::{chrome_json, parse_json, validate_chrome_trace, ChromeStats, Json};
pub use event::{CacheOutcome, EventKind, Payload, SessionPhase, SpanId, TraceEvent, WorkerEvent};
pub use flame::flame_summary;
pub use lock::{lock_wait_stats, reset_lock_wait_stats, LockSite, LockWaitStat};

// ---------------------------------------------------------------------
// The enable switch.
// ---------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// One-time cold path: resolve the initial state from `RELAX_TRACE`.
#[cold]
fn init_state() -> bool {
    let on = matches!(
        std::env::var("RELAX_TRACE").ok().as_deref(),
        Some("1") | Some("true") | Some("on")
    );
    // Racing initializers agree (the env cannot change between them),
    // and an explicit `set_enabled` always wins via a plain store.
    let _ = STATE.compare_exchange(
        STATE_UNINIT,
        if on { STATE_ON } else { STATE_OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// `true` when tracing records events. The hot path is a single relaxed
/// atomic load; the first call per process consults `RELAX_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_state(),
    }
}

/// Programmatically switches tracing on or off, overriding
/// `RELAX_TRACE`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Per-thread identity and the parent stack.
// ---------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static PARENTS: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The trace-local id of the calling thread (assigned densely from 1 on
/// first use; stable for the thread's lifetime).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed) + 1;
            t.set(id);
        }
        id
    })
}

/// Nanoseconds since the process trace epoch (the first event ever
/// recorded anchors it).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn current_parent() -> Option<SpanId> {
    PARENTS.with(|p| p.borrow().last().copied())
}

// ---------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------

fn emit(
    kind: EventKind,
    id: SpanId,
    parent: Option<SpanId>,
    cat: &'static str,
    name: String,
    payload: Payload,
) -> bool {
    buffer::push(TraceEvent {
        seq: 0, // stamped by the buffer
        ts_ns: now_ns(),
        tid: thread_id(),
        kind,
        id,
        parent,
        cat,
        name,
        payload,
    })
}

/// An open synchronous span. Dropping it closes the span; prefer
/// [`SpanGuard::finish`]/[`SpanGuard::finish_with`] to also read the
/// measured wall time back (reports and traces then share one clock).
#[must_use = "dropping immediately measures nothing"]
pub struct SpanGuard {
    start: Instant,
    /// `0` when the span is not recorded (tracing off or buffer full).
    id: SpanId,
    cat: &'static str,
    /// Kept so the close event repeats the open event's name.
    name: Option<String>,
    closed: bool,
}

impl SpanGuard {
    /// This span's id, for cross-thread stitching via
    /// [`span_under`]/[`async_end`]. `0` when unrecorded.
    pub fn id(&self) -> SpanId {
        self.id
    }

    fn close(&mut self, payload: Payload) {
        self.closed = true;
        if self.id == 0 {
            return;
        }
        PARENTS.with(|p| {
            let mut stack = p.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            }
        });
        let name = self.name.take().unwrap_or_default();
        // Close events bypass the buffer's capacity check (this span's
        // Begin was stored, so its End always fits the balance bound);
        // emit() cannot fail here.
        emit(EventKind::End, self.id, None, self.cat, name, payload);
    }

    /// Closes the span and returns its measured wall time.
    pub fn finish(self) -> Duration {
        self.finish_with(|| Payload::None)
    }

    /// Closes the span with a payload (built lazily, only when the span
    /// is recorded) and returns its measured wall time.
    pub fn finish_with(mut self, payload: impl FnOnce() -> Payload) -> Duration {
        let wall = self.start.elapsed();
        let payload = if self.id != 0 {
            payload()
        } else {
            Payload::None
        };
        self.close(payload);
        wall
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            self.close(Payload::None);
        }
    }
}

/// Opens a synchronous span on the current thread, parented to the
/// innermost open span. `name` is evaluated only when recording. The
/// guard measures wall time regardless of whether tracing is enabled.
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    span_under(cat, None, name)
}

/// Opens a synchronous span with an explicit parent (use the [`SpanId`]
/// carried across a thread boundary; `None` or `Some(0)` falls back to
/// the thread-local parent). This is how a serving worker stitches its
/// step span under the session span opened on the scheduler thread.
pub fn span_under(
    cat: &'static str,
    parent: Option<SpanId>,
    name: impl FnOnce() -> String,
) -> SpanGuard {
    let start = Instant::now();
    if !enabled() {
        return SpanGuard {
            start,
            id: 0,
            cat,
            name: None,
            closed: false,
        };
    }
    let name = name();
    let parent = parent.filter(|&p| p != 0).or_else(current_parent);
    let id = buffer::next_span_id();
    if !emit(
        EventKind::Begin,
        id,
        parent,
        cat,
        name.clone(),
        Payload::None,
    ) {
        // Buffer full: the span stays unrecorded so the trace keeps its
        // Begin/End balance.
        return SpanGuard {
            start,
            id: 0,
            cat,
            name: None,
            closed: false,
        };
    }
    PARENTS.with(|p| p.borrow_mut().push(id));
    SpanGuard {
        start,
        id,
        cat,
        name: Some(name),
        closed: false,
    }
}

/// Records a point event (no duration). Name and payload are evaluated
/// only when recording.
pub fn instant(
    cat: &'static str,
    name: impl FnOnce() -> String,
    payload: impl FnOnce() -> Payload,
) {
    if !enabled() {
        return;
    }
    let id = buffer::next_span_id();
    emit(
        EventKind::Instant,
        id,
        current_parent(),
        cat,
        name(),
        payload(),
    );
}

/// Opens an asynchronous span that may close on another thread. Returns
/// the [`SpanId`] to carry with the work and hand to [`async_end`]
/// (and, optionally, to [`span_under`] for on-worker children). Returns
/// `0` when unrecorded; `async_end(…, 0, …)` is a no-op, so callers
/// need no conditional.
pub fn async_begin(
    cat: &'static str,
    name: &'static str,
    payload: impl FnOnce() -> Payload,
) -> SpanId {
    if !enabled() {
        return 0;
    }
    let id = buffer::next_span_id();
    if emit(
        EventKind::AsyncBegin,
        id,
        current_parent(),
        cat,
        name.to_string(),
        payload(),
    ) {
        id
    } else {
        0
    }
}

/// Closes an asynchronous span by the id [`async_begin`] returned.
/// `cat` and `name` must match the begin. A zero id is a no-op.
pub fn async_end(
    cat: &'static str,
    name: &'static str,
    id: SpanId,
    payload: impl FnOnce() -> Payload,
) {
    if id == 0 {
        return;
    }
    // A nonzero id means the AsyncBegin was stored, and close events
    // bypass the buffer's capacity check — emit() cannot fail here.
    emit(
        EventKind::AsyncEnd,
        id,
        None,
        cat,
        name.to_string(),
        payload(),
    );
}

/// Formats a concrete shape signature for [`Payload::Kernel`]:
/// `"7x8;8x4"` for a matmul's argument list, `-` for rank-0/scalar
/// entries.
pub fn shape_sig(shapes: &[Vec<usize>]) -> String {
    let mut out = String::new();
    for (i, dims) in shapes.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        if dims.is_empty() {
            out.push('-');
        } else {
            for (j, d) in dims.iter().enumerate() {
                if j > 0 {
                    out.push('x');
                }
                out.push_str(&d.to_string());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Exclusive capture sessions.
// ---------------------------------------------------------------------

static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// An exclusive recording session over the global buffer: begins by
/// clearing the buffer and enabling tracing, ends by draining it and
/// restoring the previous enable state. Sessions serialize on a global
/// lock, so concurrent tests (or a bench and a smoke run) cannot mix
/// their events.
pub struct Capture {
    prev: bool,
    lock: Option<MutexGuard<'static, ()>>,
    finished: bool,
}

impl Capture {
    /// Starts an exclusive capture (blocking until any other capture
    /// finishes), clears leftover events and enables tracing.
    pub fn begin() -> Capture {
        let lock = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = enabled();
        clear();
        set_enabled(true);
        Capture {
            prev,
            lock: Some(lock),
            finished: false,
        }
    }

    /// Stops recording, restores the previous enable state and drains
    /// the captured [`Trace`]. Make sure emitting threads are quiescent
    /// (workers joined) first, or their half-open spans will fail
    /// validation.
    pub fn finish(mut self) -> Trace {
        set_enabled(self.prev);
        self.finished = true;
        let trace = take();
        drop(self.lock.take());
        trace
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if !self.finished {
            set_enabled(self.prev);
            clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emission_records_nothing_but_still_times() {
        let _lock = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        set_enabled(false);
        let sp = span("vm", || {
            unreachable!("name must not be built when disabled")
        });
        std::thread::sleep(Duration::from_millis(1));
        let wall = sp.finish_with(|| unreachable!("payload must not be built when disabled"));
        assert!(wall >= Duration::from_millis(1));
        instant("vm", || unreachable!(), || unreachable!());
        let id = async_begin("vm", "x", || unreachable!());
        assert_eq!(id, 0);
        async_end("vm", "x", id, || unreachable!());
        assert!(take().is_empty());
    }

    #[test]
    fn nesting_parents_and_async_stitching() {
        let cap = Capture::begin();
        let outer = span("vm", || "outer".to_string());
        let outer_id = outer.id();
        let inner = span("vm", || "inner".to_string());
        drop(inner);
        drop(outer);

        let session = |phase| Payload::Session { session: 1, phase };
        let req = async_begin("serve", "session", || session(SessionPhase::Admit));
        let handle = std::thread::spawn(move || {
            let sp = span_under("serve", Some(req), || "execute".to_string());
            sp.finish_with(|| session(SessionPhase::Decode));
            async_end("serve", "session", req, || session(SessionPhase::Retire));
        });
        handle.join().unwrap();

        let trace = cap.finish();
        trace.validate().unwrap();
        let inner_begin = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "inner")
            .unwrap();
        assert_eq!(inner_begin.parent, Some(outer_id));
        let exec_begin = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "execute")
            .unwrap();
        assert_eq!(exec_begin.parent, Some(req));
        assert_ne!(
            exec_begin.tid,
            trace.events.first().unwrap().tid,
            "execute ran on another thread"
        );
        let stats = validate_chrome_trace(&trace.chrome_json()).unwrap();
        assert_eq!(stats.sync_pairs, 3);
        assert_eq!(stats.async_pairs, 1);
    }

    #[test]
    fn bounded_buffer_drops_whole_spans_and_stays_balanced() {
        let cap = Capture::begin();
        set_capacity(32); // 2 events per shard
        for i in 0..500 {
            let sp = span("vm", || format!("s{i}"));
            sp.finish();
        }
        set_capacity(DEFAULT_CAPACITY);
        let trace = cap.finish();
        assert!(trace.dropped > 0, "tiny buffer must drop");
        trace.validate().unwrap();
        validate_chrome_trace(&trace.chrome_json()).unwrap();
    }

    #[test]
    fn nested_spans_and_instants_stay_balanced_at_odd_capacity() {
        // Regression: a shard filling *between* a span's Begin and its
        // End used to drop the End, leaving a recorded span unclosed.
        // Odd per-shard capacity plus nesting plus instants forces
        // exactly that interleaving on a single thread.
        let cap = Capture::begin();
        set_capacity(48); // 3 events per shard
        for i in 0..200 {
            let outer = span("vm", || format!("outer{i}"));
            instant("vm", || format!("mark{i}"), || Payload::None);
            let inner = span("vm", || format!("inner{i}"));
            let req = async_begin("serve", "request", || Payload::None);
            async_end("serve", "request", req, || Payload::None);
            drop(inner);
            drop(outer);
        }
        set_capacity(DEFAULT_CAPACITY);
        let trace = cap.finish();
        assert!(trace.dropped > 0, "tiny odd capacity must drop");
        trace.validate().unwrap();
        validate_chrome_trace(&trace.chrome_json()).unwrap();
    }

    #[test]
    fn shape_sig_formats() {
        assert_eq!(shape_sig(&[vec![7, 8], vec![8, 4]]), "7x8;8x4");
        assert_eq!(shape_sig(&[vec![], vec![3]]), "-;3");
        assert_eq!(shape_sig(&[]), "");
    }

    #[test]
    fn flame_summary_mentions_hot_paths() {
        let cap = Capture::begin();
        let outer = span("compile", || "pipeline".to_string());
        let p = span("compile", || "pass:fuse".to_string());
        drop(p);
        drop(outer);
        instant("vm", || "alloc_fallback".to_string(), || Payload::None);
        let trace = cap.finish();
        let text = trace.flame_summary();
        assert!(text.contains("pipeline;pass:fuse"));
        assert!(text.contains("alloc_fallback"));
    }
}
