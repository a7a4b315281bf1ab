//! Trace records: span identity, event kinds and typed payloads.

/// Identity of a recorded span. `0` means "not recorded" (tracing was
/// disabled, or the buffer was full when the span opened); every API
/// treats a zero id as a no-op so unrecorded spans cost nothing further.
pub type SpanId = u64;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A synchronous span opened on this thread (Chrome `"B"`).
    Begin,
    /// The matching close of a [`EventKind::Begin`] (Chrome `"E"`).
    End,
    /// An asynchronous span opened; it may close on another thread
    /// (Chrome `"b"`, matched by `(cat, name, id)`).
    AsyncBegin,
    /// The matching close of an [`EventKind::AsyncBegin`] (Chrome `"e"`).
    AsyncEnd,
    /// A point event with no duration (Chrome `"i"`).
    Instant,
}

/// How a kernel launch interacted with the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The shape-specialized plan was already cached.
    Hit,
    /// No plan was cached; this launch compiled one.
    Miss,
}

impl CacheOutcome {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Where in its lifecycle a generation session is. Sessions are the
/// continuous-batching scheduler's unit of work: one paged KV cache
/// plus a token stream, admitted and retired between decode
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// The scheduler admitted the session into the running set.
    Admit,
    /// A step fed a prompt of several tokens into the paged cache.
    Prefill,
    /// A step appended one token into the paged cache.
    Decode,
    /// The session produced all requested tokens and released its
    /// pages back to the pool.
    Retire,
    /// The session was evicted under page-pool pressure (earliest
    /// deadline first) and its pages were reclaimed.
    Evict,
    /// The session failed (deterministic VM error or exhausted retry
    /// budget) and its pages were reclaimed.
    Fail,
}

impl SessionPhase {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SessionPhase::Admit => "admit",
            SessionPhase::Prefill => "prefill",
            SessionPhase::Decode => "decode",
            SessionPhase::Retire => "retire",
            SessionPhase::Evict => "evict",
            SessionPhase::Fail => "fail",
        }
    }
}

/// A worker-lifecycle event observed by the serving supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The worker panicked; its in-flight step was reported lost.
    Panic,
    /// Heartbeat monitoring declared the worker wedged.
    Stall,
    /// The supervisor respawned a fresh worker into the slot.
    Restart,
}

impl WorkerEvent {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            WorkerEvent::Panic => "panic",
            WorkerEvent::Stall => "stall",
            WorkerEvent::Restart => "restart",
        }
    }
}

/// Typed event payload. Exporters render these as Chrome `args`; the
/// variants mirror the three instrumented layers so tools never parse
/// information back out of span names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// No structured payload.
    None,
    /// A compiler pass finished: its registered name and whether it
    /// changed the module/executable.
    Pass { pass: String, changed: bool },
    /// A kernel event: TIR/library function name, the concrete shape
    /// signature (see [`crate::shape_sig`]) and the plan-cache outcome
    /// (`None` when no cache was involved).
    Kernel {
        kernel: String,
        shapes: String,
        cache: Option<CacheOutcome>,
    },
    /// A session-lifecycle event: the scheduler-assigned session id
    /// and the lifecycle phase this event marks.
    Session { session: u64, phase: SessionPhase },
    /// A step that several sessions may have shared — one call of the
    /// model over all of them: how many, and which phase it was for each.
    Batch { sessions: u64, phase: SessionPhase },
    /// A worker-lifecycle event: which worker slot, and what the
    /// supervisor observed or did.
    Worker { worker: u64, event: WorkerEvent },
    /// A contended lock acquisition: which instrumented site blocked,
    /// and how long the acquiring thread waited. Uncontended
    /// acquisitions never emit this (the fast path is a `try_lock`).
    Lock { site: &'static str, wait_ns: u64 },
}

/// One record in the trace buffer.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global emission order (unique, strictly increasing).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Trace-local thread id (assigned densely from 1 per thread).
    pub tid: u64,
    /// What this event marks.
    pub kind: EventKind,
    /// Span identity. Begin/End pairs share it; async pairs share it
    /// across threads; instants get their own.
    pub id: SpanId,
    /// The span this one nests under, when known. Synchronous spans
    /// inherit the innermost open span on their thread; cross-thread
    /// children carry an explicitly stitched parent.
    pub parent: Option<SpanId>,
    /// Coarse category: `"compile"`, `"vm"` or `"serve"`.
    pub cat: &'static str,
    /// Human-readable name (`pass:fuse_ops`, `kernel:matmul`, …).
    pub name: String,
    /// Structured payload.
    pub payload: Payload,
}
