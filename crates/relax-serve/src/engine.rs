//! The serving engine: one executable, many sessions, self-healing
//! workers.
//!
//! A [`ServeEngine`] owns a single immutable [`Executable`] and a fixed
//! pool of worker threads, each running its own [`relax_vm::Vm`] built with
//! [`relax_vm::Vm::from_parts`] — per-invocation state (register frame, memory
//! pool, telemetry) is private to the worker, while the executable, the
//! foreign-function registry and the kernel-plan cache are shared.
//! Requests flow through a bounded queue with backpressure;
//! stale requests are shed against their deadline instead of executed
//! late; and the dequeue path batches queued requests with identical
//! concrete shapes so a plan compiled for one session is reused by the
//! rest of the batch without even a cache probe race.
//!
//! Engine failures are *typed*, never panics: VM-level faults keep their
//! full [`VmError`] taxonomy and frame trace inside
//! [`ServeError::Vm`], and admission-control outcomes (queue full,
//! overload, deadline missed, shutdown) get their own variants so
//! callers can distinguish "retry later" from "this request is wrong".
//! Even a worker thread *panicking* mid-request stays inside the
//! taxonomy: the panic is contained at the worker loop, the in-flight
//! request resolves as [`ServeError::WorkerLost`] (or is retried), and
//! a supervisor thread respawns a fresh VM into the slot — see
//! [`crate::supervisor`].
//!
//! Three optional policies harden the engine under faults and load:
//!
//! - [`RetryPolicy`]: transient failures (lost workers, queue-full /
//!   overload refusals, kernel faults) are re-enqueued with exponential
//!   backoff instead of surfacing to the caller, within an attempt
//!   budget and the request's own deadline.
//! - [`OverloadPolicy`]: queue-depth watermarks drive admission — below
//!   the shed watermark everything is accepted; above it each admission
//!   evicts the queued request with the least deadline budget (when one
//!   expires sooner than the newcomer); above the reject watermark new
//!   work is refused outright.
//! - supervision knobs ([`ServeConfig::restart_budget`],
//!   [`ServeConfig::stall_timeout`]): how patiently the supervisor
//!   waits on a wedged worker and how many respawns a slot gets before
//!   quarantine.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use relax_vm::registry::Registry;
use relax_vm::{Executable, FaultPlan, SharedPlanCache, Value, VmError, VmErrorKind};

use crate::queue::{PushError, PushOutcome, Request, RequestQueue};
use crate::supervisor::{self, SupervisorState};
use crate::telemetry::{EngineReport, EngineStats, LatencyReservoir, WorkerReport};

/// Locks a mutex, ignoring poisoning: engine state stays readable even
/// if a holder panicked (panics are contained, but stay defensive).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which failure classes the engine retries. All `true` by default.
#[derive(Debug, Clone, Copy)]
pub struct RetryOn {
    /// [`ServeError::WorkerLost`]: the worker died (panic) before
    /// replying — the request itself may be fine.
    pub worker_lost: bool,
    /// [`ServeError::QueueFull`] / [`ServeError::Overloaded`]: admission
    /// refusals that a moment of backoff may clear.
    pub overload: bool,
    /// [`ServeError::Vm`] with a kernel failure — the transient-looking
    /// VM error class (and the one fault injection exercises).
    /// Deterministic errors (shape mismatches, unknown functions) are
    /// never retried.
    pub kernel_faults: bool,
}

impl Default for RetryOn {
    fn default() -> Self {
        RetryOn {
            worker_lost: true,
            overload: true,
            kernel_faults: true,
        }
    }
}

/// Retry budget for transient failures. A failed request is re-enqueued
/// with exponential backoff (`backoff`, `2×backoff`, `4×backoff`, …
/// capped at `max_backoff`) until it has consumed `max_attempts` total
/// attempts or its deadline passes — whichever comes first. A deadline
/// that expires mid-backoff resolves the request as
/// [`ServeError::DeadlineExceeded`]; retries never extend a request's
/// budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts a request may consume (first execution included).
    /// Clamped to at least 1; `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Upper bound on the per-retry backoff.
    pub max_backoff: Duration,
    /// Which failure classes are retried.
    pub retry_on: RetryOn,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
            retry_on: RetryOn::default(),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `failures` (1-based): exponential,
    /// capped.
    pub(crate) fn backoff_for(&self, failures: u32) -> Duration {
        let shift = failures.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// Queue-depth watermarks for overload control (the `queue` module's
/// docs describe the mechanism).
#[derive(Debug, Clone, Copy)]
pub struct OverloadPolicy {
    /// At or above this depth, admission requires evicting the queued
    /// request with the least deadline budget.
    pub shed_depth: usize,
    /// At or above this depth, new work is refused outright.
    pub reject_depth: usize,
}

impl OverloadPolicy {
    /// Conventional watermarks for a queue of `capacity`: shed at 3/4,
    /// reject at 9/10.
    pub fn for_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        OverloadPolicy {
            shed_depth: (capacity * 3 / 4).max(1),
            reject_depth: (capacity * 9 / 10).max(1),
        }
    }

    /// Normalises the watermarks against the queue capacity:
    /// `1 ≤ shed ≤ reject ≤ capacity`.
    pub(crate) fn clamped(self, capacity: usize) -> Self {
        let reject = self.reject_depth.clamp(1, capacity);
        OverloadPolicy {
            shed_depth: self.shed_depth.clamp(1, reject),
            reject_depth: reject,
        }
    }
}

/// The admission level the overload watermarks currently dictate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionLevel {
    /// Below the shed watermark (or no overload policy): everything is
    /// admitted.
    #[default]
    Accept,
    /// Between the watermarks: admission costs the eviction of the
    /// queued request with the least deadline budget.
    Shed,
    /// At or above the reject watermark: new work is refused.
    Reject,
}

impl AdmissionLevel {
    /// Stable lower-case label (for exporters and bench output).
    pub fn label(self) -> &'static str {
        match self {
            AdmissionLevel::Accept => "accept",
            AdmissionLevel::Shed => "shed",
            AdmissionLevel::Reject => "reject",
        }
    }
}

/// Serving configuration. The defaults run 4 workers over a shared
/// plan cache with no deadline, no retries and no overload policy — a
/// request either runs once or fails typed, exactly like a plain VM
/// call. Supervision is always on: panicked workers are respawned up
/// to [`ServeConfig::restart_budget`] even with default settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one VM). Clamped to at least 1.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests a worker dequeues per batch (same function,
    /// same concrete shapes).
    pub max_batch: usize,
    /// Deadline applied to every request submitted without an explicit
    /// one. `None` means requests never expire.
    pub default_deadline: Option<Duration>,
    /// Capacity of the kernel-plan cache all workers share (a shape
    /// compiled by any worker is a hit for every other). Worker VMs run
    /// kernels with parallelism 1: inter-request parallelism comes from
    /// the pool.
    pub plan_cache_capacity: usize,
    /// Deterministic fault plans installed on specific workers at
    /// startup, for fault-isolation and chaos testing: `(worker index,
    /// plan)`. VM sites go to the worker's `Vm`; serving sites
    /// (panic/stall/reply-drop) to the worker loop. Respawned
    /// generations carry no faults.
    pub worker_faults: Vec<(usize, FaultPlan)>,
    /// Retry budget for transient failures; `None` (default) fails fast.
    pub retry: Option<RetryPolicy>,
    /// Overload watermarks; `None` (default) admits until the queue is
    /// full.
    pub overload: Option<OverloadPolicy>,
    /// Respawns a worker slot gets before it is quarantined.
    pub restart_budget: u32,
    /// How long a *busy* worker may go without a heartbeat before the
    /// supervisor declares it wedged and replaces it.
    pub stall_timeout: Duration,
}

/// Capacity of the bounded latency reservoir (O(1) memory however many
/// requests complete).
const LATENCY_SAMPLE_CAPACITY: usize = 2048;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 8,
            default_deadline: None,
            plan_cache_capacity: 64,
            worker_faults: Vec::new(),
            retry: None,
            overload: None,
            restart_budget: 3,
            stall_timeout: Duration::from_secs(1),
        }
    }
}

/// Why a request did not produce a value.
#[derive(Debug)]
pub enum ServeError {
    /// The queue was at capacity when the request arrived — backpressure;
    /// the caller should retry later or slow down.
    QueueFull {
        depth: usize,
        capacity: usize,
    },
    /// Overload control refused or evicted the request: the queue depth
    /// was above a watermark and this request had the least deadline
    /// budget of the candidates.
    Overloaded {
        depth: usize,
    },
    /// The request's deadline passed while it waited (in the queue or in
    /// retry backoff); it was shed without executing.
    DeadlineExceeded {
        missed_by: Duration,
    },
    /// The worker handling the request disappeared before replying
    /// (panic, dropped reply channel).
    WorkerLost,
    /// The engine is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request executed and failed inside the VM. The full
    /// [`VmError`] taxonomy and frame trace are preserved.
    Vm(VmError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "request queue full ({depth}/{capacity}); retry later")
            }
            ServeError::Overloaded { depth } => {
                write!(f, "engine overloaded (queue depth {depth}); retry later")
            }
            ServeError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded by {missed_by:?}; request shed")
            }
            ServeError::WorkerLost => write!(f, "worker lost before replying"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Vm(e) => write!(f, "vm error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for ServeError {
    fn from(e: VmError) -> Self {
        ServeError::Vm(e)
    }
}

/// A handle to an in-flight request; redeem it with [`Ticket::wait`]
/// (or poll it with [`Ticket::wait_timeout`] / [`Ticket::try_wait`]).
///
/// A ticket always resolves: every admitted request either replies,
/// fails typed, or — if its worker vanished in a way nobody could
/// report — resolves as [`ServeError::WorkerLost`] when the reply
/// channel closes. It never hangs forever.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Value, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes, is shed, or its worker dies.
    pub fn wait(self) -> Result<Value, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Waits up to `timeout` for the request to resolve. `None` means
    /// still in flight; a closed reply channel (the worker vanished
    /// without reporting) resolves as [`ServeError::WorkerLost`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Value, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }

    /// Non-blocking poll; same contract as [`Ticket::wait_timeout`].
    pub fn try_wait(&self) -> Option<Result<Value, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// Shared admission/completion counters (lock-free; workers bump them).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) shed_overload: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) replies_dropped: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) restarts: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_extra: AtomicU64,
}

/// Everything the worker pool, the supervisor and the engine handle
/// share. One `Arc<Core>` per engine; workers and the supervisor each
/// hold a clone so the engine handle can be dropped independently.
pub(crate) struct Core {
    pub(crate) queue: RequestQueue,
    pub(crate) counters: Counters,
    pub(crate) latencies: Mutex<LatencyReservoir>,
    /// Heartbeats are nanoseconds since this instant (a shared epoch so
    /// they fit an `AtomicU64`).
    pub(crate) epoch: Instant,
    pub(crate) exec: Arc<Executable>,
    pub(crate) registry: Arc<Registry>,
    /// The one plan cache every worker VM (respawned ones included)
    /// probes, so a healed pool keeps its warm plans.
    pub(crate) plan_cache: SharedPlanCache,
    pub(crate) max_batch: usize,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) restart_budget: u32,
    pub(crate) stall_timeout: Duration,
    /// Set once at the start of shutdown; workers and the retry path
    /// stop scheduling new work and resolve everything typed.
    pub(crate) stopping: AtomicBool,
    pub(crate) sup: SupervisorState,
}

impl Core {
    /// Nanoseconds since the engine epoch (heartbeat clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// A point-in-time snapshot of the engine counters.
    pub(crate) fn stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            admission: self.queue.level(),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_full: c.rejected_full.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            replies_dropped: c.replies_dropped.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_extra: c.batched_extra.load(Ordering::Relaxed),
            plan_cache: self.plan_cache.stats(),
            latency: lock(&self.latencies).summary(),
        }
    }
}

/// Resolves a request successfully: counters, latency sample, span end,
/// reply.
pub(crate) fn resolve_ok(core: &Core, req: Request, value: Value) {
    core.counters.completed.fetch_add(1, Ordering::Relaxed);
    let ns = req.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    lock(&core.latencies).push(ns);
    relax_trace::async_end("serve", "request", req.trace, || {
        relax_trace::Payload::Request {
            request: req.id,
            phase: relax_trace::RequestPhase::Reply,
        }
    });
    let _ = req.reply.send(Ok(value));
}

/// Resolves a request with a *final* error: classifies it into the
/// counter buckets (deadline/overload sheds are `timed_out`, the rest
/// `failed`), closes the request span and replies. Use
/// [`fail_or_retry`] instead when the failure may still be retried.
pub(crate) fn resolve_err(core: &Core, req: Request, err: ServeError) {
    let shed = match &err {
        ServeError::DeadlineExceeded { .. } => {
            core.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            true
        }
        ServeError::Overloaded { .. } => {
            core.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            core.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            true
        }
        _ => {
            core.counters.failed.fetch_add(1, Ordering::Relaxed);
            false
        }
    };
    let phase = if shed {
        relax_trace::RequestPhase::Shed
    } else {
        relax_trace::RequestPhase::Reply
    };
    if shed {
        relax_trace::instant(
            "serve",
            || format!("shed:{}", req.id),
            || relax_trace::Payload::Request {
                request: req.id,
                phase: relax_trace::RequestPhase::Shed,
            },
        );
    }
    relax_trace::async_end("serve", "request", req.trace, || {
        relax_trace::Payload::Request {
            request: req.id,
            phase,
        }
    });
    let _ = req.reply.send(Err(err));
}

/// Maps a queue refusal to its typed error.
pub(crate) fn refusal_error(core: &Core, why: PushError) -> ServeError {
    match why {
        PushError::Full => ServeError::QueueFull {
            depth: core.queue.depth(),
            capacity: core.queue.capacity(),
        },
        PushError::Overloaded => ServeError::Overloaded {
            depth: core.queue.depth(),
        },
        PushError::Closed => ServeError::ShuttingDown,
    }
}

/// Resolves a failed request — or, when the engine has a retry policy
/// that covers this failure class and the request has attempt budget
/// left, schedules it for re-enqueue after exponential backoff instead.
/// The request's deadline is *not* checked here: it is checked when the
/// backoff elapses, so a deadline expiring mid-backoff resolves as
/// [`ServeError::DeadlineExceeded`], never as a retry past budget.
pub(crate) fn fail_or_retry(core: &Core, mut req: Request, err: ServeError) {
    if !core.stopping.load(Ordering::Acquire) {
        if let Some(policy) = &core.retry {
            let class_ok = match &err {
                ServeError::WorkerLost => policy.retry_on.worker_lost,
                ServeError::QueueFull { .. } | ServeError::Overloaded { .. } => {
                    policy.retry_on.overload
                }
                ServeError::Vm(e) => {
                    policy.retry_on.kernel_faults && matches!(e.kind, VmErrorKind::Kernel(_))
                }
                _ => false,
            };
            if class_ok && req.attempt + 1 < policy.max_attempts.max(1) {
                req.attempt += 1;
                core.counters.retries.fetch_add(1, Ordering::Relaxed);
                relax_trace::instant(
                    "serve",
                    || format!("retry:{}", req.id),
                    || relax_trace::Payload::Request {
                        request: req.id,
                        phase: relax_trace::RequestPhase::Retry,
                    },
                );
                let due = Instant::now() + policy.backoff_for(req.attempt);
                supervisor::schedule_retry(core, req, due);
                return;
            }
        }
    }
    resolve_err(core, req, err);
}

/// The concrete shape signature of an argument list — the batching key.
/// Tensors contribute their shapes, shape values contribute themselves,
/// tuples recurse; scalars contribute a marker so arity still matters.
fn shape_signature(args: &[Value]) -> Vec<Vec<usize>> {
    fn walk(v: &Value, out: &mut Vec<Vec<usize>>) {
        match v {
            Value::Tensor(t) => out.push(t.shape().to_vec()),
            Value::Shape(dims) => {
                out.push(dims.iter().map(|&d| d.max(0) as usize).collect())
            }
            Value::Tuple(items) => {
                for item in items {
                    walk(item, out);
                }
            }
            _ => out.push(Vec::new()),
        }
    }
    let mut sig = Vec::with_capacity(args.len());
    for a in args {
        walk(a, &mut sig);
    }
    sig
}

/// Multi-session serving engine over one executable. See the module
/// docs for the architecture; see [`ServeConfig`] for the knobs.
pub struct ServeEngine {
    core: Arc<Core>,
    /// Dense request-id source (first request gets 1).
    next_request_id: AtomicU64,
    default_deadline: Option<Duration>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Builds an engine over `exec` with the default registry.
    pub fn new(exec: Executable, config: ServeConfig) -> Self {
        Self::with_registry(exec, Registry::new(), config)
    }

    /// Builds an engine with a custom foreign-function registry.
    pub fn with_registry(exec: Executable, registry: Registry, config: ServeConfig) -> Self {
        let exec = Arc::new(exec);
        let registry = Arc::new(registry);
        let workers = config.workers.max(1);

        // Seed chosen once; the reservoir is deterministic per engine.
        const LATENCY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
        let core = Arc::new(Core {
            queue: RequestQueue::new(config.queue_capacity, config.overload),
            counters: Counters::default(),
            latencies: Mutex::new(LatencyReservoir::new(LATENCY_SAMPLE_CAPACITY, LATENCY_SEED)),
            epoch: Instant::now(),
            exec,
            registry,
            plan_cache: SharedPlanCache::new(config.plan_cache_capacity),
            max_batch: config.max_batch.max(1),
            retry: config.retry.clone(),
            restart_budget: config.restart_budget,
            stall_timeout: config.stall_timeout.max(Duration::from_millis(1)),
            stopping: AtomicBool::new(false),
            sup: SupervisorState::new(),
        });

        {
            let mut slots = lock(&core.sup.slots);
            for idx in 0..workers {
                let faults = config
                    .worker_faults
                    .iter()
                    .filter(|(target, _)| *target == idx)
                    .map(|(_, plan)| plan.clone())
                    .next_back();
                slots.push(supervisor::new_slot(&core, idx, faults));
            }
        }

        let supervisor = std::thread::Builder::new()
            .name("relax-serve-supervisor".into())
            .spawn({
                let core = core.clone();
                move || supervisor::supervisor_loop(core)
            })
            .expect("spawn serve supervisor");

        ServeEngine {
            core,
            next_request_id: AtomicU64::new(0),
            default_deadline: config.default_deadline,
            supervisor: Some(supervisor),
        }
    }

    /// Submits a request under the engine's default deadline. Returns a
    /// [`Ticket`] immediately, or the backpressure/shutdown error if the
    /// request was not admitted (and could not be scheduled for retry).
    pub fn submit(&self, func: &str, args: &[Value]) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(func, args, self.default_deadline)
    }

    /// Submits a request that must *start* within `deadline` of now;
    /// requests still queued (or backing off between retries) past it
    /// are shed with [`ServeError::DeadlineExceeded`] instead of
    /// executing late.
    pub fn submit_with_deadline(
        &self,
        func: &str,
        args: &[Value],
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let core = &*self.core;
        let now = Instant::now();
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        // The request span opens *before* the push: once the request is
        // in the queue a worker may finish it at any moment, and the
        // async end must never precede its begin.
        let trace = relax_trace::async_begin("serve", "request", || {
            relax_trace::Payload::Request {
                request: id,
                phase: relax_trace::RequestPhase::Queue,
            }
        });
        let admit = relax_trace::span("serve", || format!("admit:{id}"));
        let (tx, rx) = mpsc::channel();
        let req = Request {
            id,
            trace,
            func: func.to_string(),
            args: args.to_vec(),
            shape_sig: shape_signature(args),
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            attempt: 0,
            reply: tx,
        };
        let outcome = core.queue.push(req);
        admit.finish_with(|| relax_trace::Payload::Request {
            request: id,
            phase: relax_trace::RequestPhase::Admit,
        });
        match outcome {
            PushOutcome::Admitted { shed } => {
                core.counters.accepted.fetch_add(1, Ordering::Relaxed);
                if let Some(victim) = shed {
                    // Overload control evicted the queued request with
                    // the least deadline budget to admit this one.
                    resolve_err(
                        core,
                        victim,
                        ServeError::Overloaded {
                            depth: core.queue.depth(),
                        },
                    );
                }
                Ok(Ticket { rx })
            }
            PushOutcome::Refused { mut req, why } => {
                // A refusal the retry policy covers becomes a deferred
                // admission: the engine takes responsibility for the
                // ticket and re-enqueues after backoff.
                if !matches!(why, PushError::Closed) && !core.stopping.load(Ordering::Acquire) {
                    if let Some(policy) = &core.retry {
                        if policy.retry_on.overload && req.attempt + 1 < policy.max_attempts.max(1)
                        {
                            req.attempt += 1;
                            core.counters.accepted.fetch_add(1, Ordering::Relaxed);
                            core.counters.retries.fetch_add(1, Ordering::Relaxed);
                            relax_trace::instant(
                                "serve",
                                || format!("retry:{id}"),
                                || relax_trace::Payload::Request {
                                    request: id,
                                    phase: relax_trace::RequestPhase::Retry,
                                },
                            );
                            let due = Instant::now() + policy.backoff_for(req.attempt);
                            supervisor::schedule_retry(core, req, due);
                            return Ok(Ticket { rx });
                        }
                    }
                }
                // Refused outright: the request never entered the queue;
                // close its span here so the trace stays balanced.
                relax_trace::async_end("serve", "request", req.trace, || {
                    relax_trace::Payload::Request {
                        request: id,
                        phase: relax_trace::RequestPhase::Reply,
                    }
                });
                let err = match why {
                    PushError::Full => {
                        core.counters.rejected_full.fetch_add(1, Ordering::Relaxed);
                        ServeError::QueueFull {
                            depth: core.queue.depth(),
                            capacity: core.queue.capacity(),
                        }
                    }
                    PushError::Overloaded => {
                        core.counters
                            .rejected_overload
                            .fetch_add(1, Ordering::Relaxed);
                        ServeError::Overloaded {
                            depth: core.queue.depth(),
                        }
                    }
                    PushError::Closed => ServeError::ShuttingDown,
                };
                Err(err)
            }
        }
    }

    /// Convenience: submit and wait in one call (single-session use).
    pub fn run(&self, func: &str, args: &[Value]) -> Result<Value, ServeError> {
        self.submit(func, args)?.wait()
    }

    /// A point-in-time snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        self.core.stats()
    }

    /// The one teardown behind [`ServeEngine::shutdown`] and `Drop`:
    /// stops admission, lets the supervisor flush pending retries, drains
    /// the queue, joins every worker incarnation and reports each. A
    /// second call finds nothing left to join.
    fn teardown(&mut self) -> Vec<WorkerReport> {
        let core = &*self.core;
        core.stopping.store(true, Ordering::Release);
        core.sup.wake.notify_all();
        // The supervisor's final pass flushes pending retries back into
        // the (still open) queue so workers drain them.
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        core.queue.close();

        let mut workers: Vec<WorkerReport> = Vec::new();
        for slot in lock(&core.sup.slots).iter_mut() {
            if let Some(h) = slot.handle.take() {
                workers.push(supervisor::join_report(h, slot.idx, slot.generation));
            }
        }
        for (idx, generation, h) in lock(&core.sup.abandoned).drain(..) {
            workers.push(supervisor::join_report(h, idx, generation));
        }
        workers.extend(lock(&core.sup.reaped).drain(..));
        workers.sort_by_key(|w| (w.worker, w.generation));

        // Retries scheduled in the race window after the supervisor
        // exited have nobody to re-enqueue them: resolve them typed so
        // no ticket ever hangs.
        let orphans: Vec<Request> = lock(&core.sup.retries)
            .heap
            .drain()
            .map(|d| d.req)
            .collect();
        for req in orphans {
            resolve_err(core, req, ServeError::ShuttingDown);
        }
        workers
    }

    /// Stops admitting requests, flushes pending retries, drains the
    /// queue, joins every worker incarnation (and the supervisor) and
    /// returns the final stats plus per-incarnation VM snapshots.
    ///
    /// Never panics — a worker that died uncontained is reported as
    /// [`crate::WorkerExit::Panicked`] in the [`EngineReport`] instead.
    pub fn shutdown(mut self) -> EngineReport {
        let workers = self.teardown();
        EngineReport {
            stats: self.core.stats(),
            workers,
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_signature_covers_tensors_shapes_tuples_and_scalars() {
        use relax_arith::DataType;
        use relax_tir::NDArray;
        let t = NDArray::zeros(&[2, 3], DataType::F32);
        let sig = shape_signature(&[
            Value::Tensor(t.clone()),
            Value::Shape(vec![4, 5]),
            Value::Tuple(vec![Value::Tensor(t)]),
        ]);
        assert_eq!(sig, vec![vec![2, 3], vec![4, 5], vec![2, 3]]);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            retry_on: RetryOn::default(),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(8));
        assert_eq!(p.backoff_for(4), Duration::from_millis(10)); // capped
        assert_eq!(p.backoff_for(30), Duration::from_millis(10));
    }

    #[test]
    fn overload_policy_clamps_to_capacity() {
        let p = OverloadPolicy {
            shed_depth: 100,
            reject_depth: 50,
        }
        .clamped(40);
        assert_eq!(p.reject_depth, 40);
        assert_eq!(p.shed_depth, 40);
        let p = OverloadPolicy::for_capacity(100);
        assert_eq!(p.shed_depth, 75);
        assert_eq!(p.reject_depth, 90);
    }
}
