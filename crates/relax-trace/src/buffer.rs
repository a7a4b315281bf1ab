//! The global lock-sharded trace buffer and the drained [`Trace`].
//!
//! Events land in one of [`BUFFER_SHARDS`] `Mutex<Vec<TraceEvent>>` shards
//! picked by the emitting thread's trace-local id, so concurrent
//! emitters rarely contend on the same lock and one record is never
//! interleaved with another. The buffer is bounded: when a shard is at
//! capacity an *opening* event (Begin, AsyncBegin, Instant) is counted
//! in a drop counter instead of stored, and the emitting span is marked
//! unrecorded so its close is skipped too. *Closing* events (End,
//! AsyncEnd) are exempt from the capacity check: a close is only ever
//! emitted for a span whose open was stored, so each shard holds at
//! most `capacity` opens plus their matched closes — occupancy stays
//! bounded and a drained trace stays balanced even when a shard fills
//! mid-span.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::event::{EventKind, SpanId, TraceEvent};

/// Number of independently locked shards.
const BUFFER_SHARDS: usize = 16;

/// Default total event capacity across all shards.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

static SHARDS: [Mutex<Vec<TraceEvent>>; BUFFER_SHARDS] =
    [const { Mutex::new(Vec::new()) }; BUFFER_SHARDS];
static CAP_PER_SHARD: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY / BUFFER_SHARDS);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Allocates a fresh nonzero span id.
pub(crate) fn next_span_id() -> SpanId {
    NEXT_ID.fetch_add(1, Ordering::Relaxed) + 1
}

/// Stores `event` (stamping its global sequence number), or counts a
/// drop if the emitting thread's shard is full. Returns `true` when the
/// event was stored.
///
/// Close events (End, AsyncEnd) bypass the capacity check and are
/// always stored: callers only emit a close for a span whose open was
/// stored, so every close admitted here matches a stored open and the
/// overshoot per shard is bounded by the number of stored opens. This
/// keeps a drained trace Begin/End-balanced even when a shard fills
/// between a span's open and its close.
pub(crate) fn push(mut event: TraceEvent) -> bool {
    let is_close = matches!(event.kind, EventKind::End | EventKind::AsyncEnd);
    let shard = &SHARDS[(event.tid as usize) % BUFFER_SHARDS];
    let mut events = shard.lock().unwrap_or_else(|e| e.into_inner());
    if !is_close && events.len() >= CAP_PER_SHARD.load(Ordering::Relaxed) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    event.seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    events.push(event);
    true
}

/// Sets the total buffer capacity (split evenly across shards, at least
/// one event per shard). Takes effect for subsequent events; already
/// stored events are kept.
pub fn set_capacity(total: usize) {
    CAP_PER_SHARD.store((total / BUFFER_SHARDS).max(1), Ordering::Relaxed);
}

/// Events dropped since the last [`take`]/[`clear`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Drains every shard into a single [`Trace`] ordered by emission
/// sequence, and resets the drop counter.
pub fn take() -> Trace {
    let mut events = Vec::new();
    for shard in &SHARDS {
        events.append(&mut *shard.lock().unwrap_or_else(|e| e.into_inner()));
    }
    events.sort_by_key(|e| e.seq);
    Trace {
        events,
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

/// Discards all buffered events and resets the drop counter.
pub fn clear() {
    for shard in &SHARDS {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    DROPPED.store(0, Ordering::Relaxed);
}

/// A drained trace: every buffered event in emission order, plus how
/// many events the bounded buffer had to drop.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events ordered by [`TraceEvent::seq`].
    pub events: Vec<TraceEvent>,
    /// Events dropped at capacity while this trace was recorded.
    pub dropped: u64,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts closed synchronous spans in `cat` whose name starts with
    /// `name_prefix` (each Begin/End pair counts once).
    pub fn sync_span_count(&self, cat: &str, name_prefix: &str) -> usize {
        self.events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Begin && e.cat == cat && e.name.starts_with(name_prefix)
            })
            .count()
    }

    /// Exports the trace as Chrome trace-event JSON. See
    /// [`crate::chrome_json`].
    pub fn chrome_json(&self) -> String {
        crate::chrome::chrome_json(self)
    }

    /// Renders the plain-text flame summary. See
    /// [`crate::flame_summary`].
    pub fn flame_summary(&self) -> String {
        crate::flame::flame_summary(self)
    }

    /// Checks span-tree well-formedness:
    ///
    /// - sequence numbers are unique and strictly increasing;
    /// - timestamps are monotonic per thread;
    /// - per thread, Begin/End events nest like brackets and agree on
    ///   span id and name, and every opened span is closed;
    /// - async begin/end events pair up one-to-one on `(cat, name, id)`
    ///   with begin preceding end;
    /// - every recorded parent id refers to a span whose begin event
    ///   precedes the child's.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_seq = 0u64;
        let mut last_ts: HashMap<u64, u64> = HashMap::new();
        let mut stacks: HashMap<u64, Vec<(SpanId, String)>> = HashMap::new();
        let mut begun: HashSet<SpanId> = HashSet::new();
        let mut async_open: HashMap<SpanId, (String, String)> = HashMap::new();

        for e in &self.events {
            if e.seq <= last_seq {
                return Err(format!(
                    "event `{}`: seq {} not increasing (previous {})",
                    e.name, e.seq, last_seq
                ));
            }
            last_seq = e.seq;
            let prev_ts = last_ts.entry(e.tid).or_insert(0);
            if e.ts_ns < *prev_ts {
                return Err(format!(
                    "event `{}`: ts {}ns goes backwards on tid {} (previous {}ns)",
                    e.name, e.ts_ns, e.tid, prev_ts
                ));
            }
            *prev_ts = e.ts_ns;

            if let Some(parent) = e.parent {
                if !begun.contains(&parent) {
                    return Err(format!(
                        "event `{}`: parent span {} does not precede it",
                        e.name, parent
                    ));
                }
            }

            match e.kind {
                EventKind::Begin => {
                    if !begun.insert(e.id) {
                        return Err(format!("span id {} begun twice (`{}`)", e.id, e.name));
                    }
                    stacks
                        .entry(e.tid)
                        .or_default()
                        .push((e.id, e.name.clone()));
                }
                EventKind::End => {
                    let stack = stacks.entry(e.tid).or_default();
                    match stack.pop() {
                        Some((id, name)) if id == e.id && name == e.name => {}
                        Some((id, name)) => {
                            return Err(format!(
                                "tid {}: end of `{}` (id {}) does not match open `{}` (id {})",
                                e.tid, e.name, e.id, name, id
                            ));
                        }
                        None => {
                            return Err(format!(
                                "tid {}: end of `{}` with no open span",
                                e.tid, e.name
                            ));
                        }
                    }
                }
                EventKind::AsyncBegin => {
                    if !begun.insert(e.id) {
                        return Err(format!("span id {} begun twice (`{}`)", e.id, e.name));
                    }
                    if async_open
                        .insert(e.id, (e.cat.to_string(), e.name.clone()))
                        .is_some()
                    {
                        return Err(format!("async span {} opened twice", e.id));
                    }
                }
                EventKind::AsyncEnd => match async_open.remove(&e.id) {
                    Some((cat, name)) if cat == e.cat && name == e.name => {}
                    Some((cat, name)) => {
                        return Err(format!(
                            "async end `{}:{}` (id {}) does not match begin `{}:{}`",
                            e.cat, e.name, e.id, cat, name
                        ));
                    }
                    None => {
                        return Err(format!(
                            "async end `{}` (id {}) without a begin",
                            e.name, e.id
                        ));
                    }
                },
                EventKind::Instant => {}
            }
        }

        for (tid, stack) in &stacks {
            if let Some((id, name)) = stack.last() {
                return Err(format!(
                    "tid {tid}: span `{name}` (id {id}) was never closed"
                ));
            }
        }
        if let Some((id, (_, name))) = async_open.iter().next() {
            return Err(format!("async span `{name}` (id {id}) was never closed"));
        }
        Ok(())
    }
}
