//! [`ServeEngine`]: stateless requests over the serving core.
//!
//! `submit(func, args)` admits a *one-step, cache-less unit* whose single
//! step is `vm.run(func, args)`; everything else — the bounded deque and
//! its watermarks, deadline shedding, retry with backoff, panic
//! containment and respawn, stall detection, drain on shutdown — is the
//! [`crate::core`] loop, configured from [`ServeConfig`]. Each worker owns
//! a private [`relax_vm::Vm`] built with [`relax_vm::Vm::from_parts`]:
//! register frame, memory pool and telemetry are the worker's, while the
//! executable, the foreign-function registry and the kernel-plan cache
//! are shared.
//!
//! Failures are *typed*, never panics: VM-level faults keep their full
//! [`VmError`] taxonomy and frame trace inside [`ServeError::Vm`], and
//! admission-control outcomes (queue full, overload, deadline missed,
//! shutdown) get their own variants so callers can distinguish "retry
//! later" from "this request is wrong". Even a worker thread *panicking*
//! mid-request stays inside the taxonomy: the request resolves as
//! [`ServeError::WorkerLost`] (or is retried) and a fresh VM takes over
//! the slot.

use std::collections::HashMap;
use std::fmt;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use relax_trace::RequestPhase;
use relax_vm::registry::Registry;
use relax_vm::{
    Executable, FaultInjector, FaultPlan, KernelStat, SharedPlanCache, Telemetry, Value, Vm,
    VmError,
};

use crate::admission::Refusal;
use crate::clock::{Clock, SystemClock};
use crate::core::{get, Core, Exit, Failure, Limits, StepCtx, Work, WorkerFaults};
use crate::telemetry::{EngineReport, EngineStats, WorkerReport};

/// Which failure classes the engine retries. All `true` by default.
#[derive(Debug, Clone, Copy)]
pub struct RetryOn {
    /// [`ServeError::WorkerLost`]: the worker died (panic) before
    /// replying — the request itself may be fine.
    pub worker_lost: bool,
    /// Page-pool pressure: a step the KV page pool refused, which the
    /// eviction it triggers may clear.
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

/// Retry budget for transient failures. A failed step is rolled back
/// and becomes eligible again after exponential backoff (`backoff`,
/// `2×backoff`, `4×backoff`, … capped at `max_backoff`) until it has
/// consumed `max_attempts` consecutive attempts or the deadline passes —
/// whichever comes first. A deadline that expires mid-backoff resolves
/// the request as [`ServeError::DeadlineExceeded`]; retries never extend
/// a request's budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive attempts one step may consume (first execution
    /// included). Clamped to at least 1; `1` disables retries.
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

/// Queue-depth watermarks for overload control: below the shed
/// watermark everything is accepted; above it each admission evicts the
/// waiting request with the least deadline budget (when one expires
/// sooner than the newcomer); above the reject watermark new work is
/// refused outright.
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
    /// Requests per worker in one scheduler iteration: at most
    /// `workers × max_batch` requests are in flight at a time, the rest
    /// wait in the queue.
    pub max_batch: usize,
    /// Deadline applied to every request submitted without an explicit
    /// one. `None` means requests never expire.
    pub default_deadline: Option<Duration>,
    /// Deterministic fault plans installed on specific workers at
    /// startup, for fault-isolation and chaos testing: `(worker index,
    /// plan)`. VM sites go to the worker's first `Vm`; serving sites
    /// (panic/stall/reply-drop) to the worker loop, where a fault that
    /// fired stays spent across respawns.
    pub worker_faults: Vec<(usize, FaultPlan)>,
    /// Retry budget for transient failures; `None` (default) fails fast.
    pub retry: Option<RetryPolicy>,
    /// Overload watermarks; `None` (default) admits until the queue is
    /// full.
    pub overload: Option<OverloadPolicy>,
    /// Respawns a worker slot gets before it is quarantined.
    pub restart_budget: u32,
    /// How long a worker may spend on one step before it is declared
    /// wedged and replaced.
    pub stall_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 8,
            default_deadline: None,
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
    /// (panic, dropped reply).
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
/// A ticket always resolves: every admitted request either replies or
/// fails typed — at the latest as [`ServeError::WorkerLost`] when the
/// engine lets go of it without an answer. It never hangs forever.
pub struct Ticket(mpsc::Receiver<Result<Value, ServeError>>);

impl Ticket {
    /// Blocks until the request completes, is shed, or its worker dies.
    pub fn wait(self) -> Result<Value, ServeError> {
        self.0.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Waits up to `timeout` for the request to resolve. `None` means
    /// still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Value, ServeError>> {
        match self.0.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }

    /// Non-blocking poll; same contract as [`Ticket::wait_timeout`].
    pub fn try_wait(&self) -> Option<Result<Value, ServeError>> {
        self.wait_timeout(Duration::ZERO)
    }
}

/// What every request of one engine shares.
pub(crate) struct CallModel {
    exec: Arc<Executable>,
    registry: Arc<Registry>,
    /// The one plan cache every worker VM (respawned ones included)
    /// probes, so a healed pool keeps its warm plans.
    plan_cache: SharedPlanCache,
}

/// A stateless request: one step, no cache.
pub(crate) struct Call {
    func: String,
    args: Vec<Value>,
    out: Option<Value>,
    /// The request span, opened on the submit thread and closed wherever
    /// the request resolves; worker-side spans nest under it.
    trace: relax_trace::SpanId,
    reply: mpsc::Sender<Result<Value, ServeError>>,
}

fn request_payload(request: u64, phase: RequestPhase) -> relax_trace::Payload {
    relax_trace::Payload::Request { request, phase }
}

impl Work for Call {
    type Model = CallModel;
    type Vms = Vm;

    fn build_vms(model: &CallModel, vm_faults: FaultPlan) -> Vm {
        let mut vm = Vm::from_parts(
            model.exec.clone(),
            model.registry.clone(),
            model.plan_cache.clone(),
        );
        vm.inject_faults(vm_faults);
        vm
    }

    fn telemetry(vm: &Vm) -> (Telemetry, HashMap<String, KernelStat>) {
        (vm.telemetry(), vm.kernel_stats().clone())
    }

    fn done(&self) -> bool {
        self.out.is_some()
    }

    /// A request shares no step: `group` is the one request.
    fn step(group: &mut [(u64, &mut Self)], cx: StepCtx<Self>) -> Result<(), VmError> {
        for (request, call) in group {
            let request = *request;
            let span =
                relax_trace::span_under("serve", Some(call.trace), || format!("execute:{request}"));
            let out = cx.vms.run(&call.func, &call.args);
            span.finish_with(|| request_payload(request, RequestPhase::Execute));
            (cx.window)();
            call.out = Some(out?);
        }
        Ok(())
    }

    fn resolve(mut self, request: u64, exit: Exit, _: &CallModel) {
        let result = match exit {
            Exit::Retired => Ok(self.out.take().expect("a retired request has its value")),
            Exit::Shed { missed_by } => Err(ServeError::DeadlineExceeded { missed_by }),
            Exit::Evicted { depth } => Err(ServeError::Overloaded { depth }),
            Exit::Failed(Failure::Lost(_)) => Err(ServeError::WorkerLost),
            Exit::Failed(Failure::Pressure(e) | Failure::Vm(e)) => Err(ServeError::Vm(e)),
            Exit::ShuttingDown => Err(ServeError::ShuttingDown),
        };
        let shed = matches!(
            result,
            Err(ServeError::DeadlineExceeded { .. } | ServeError::Overloaded { .. })
        );
        let phase = if shed {
            relax_trace::instant(
                "serve",
                || format!("shed:{request}"),
                || request_payload(request, RequestPhase::Shed),
            );
            RequestPhase::Shed
        } else {
            RequestPhase::Reply
        };
        relax_trace::async_end("serve", "request", self.trace, || {
            request_payload(request, phase)
        });
        let _ = self.reply.send(result);
    }
}

/// Multi-session serving engine over one executable. See the module
/// docs for the architecture; see [`ServeConfig`] for the knobs.
pub struct ServeEngine {
    core: Core<Call>,
    default_deadline: Option<Duration>,
}

impl ServeEngine {
    /// Builds an engine over `exec` with the default registry.
    pub fn new(exec: Executable, config: ServeConfig) -> Self {
        Self::with_registry(exec, Registry::new(), config)
    }

    /// Builds an engine with a custom foreign-function registry.
    pub fn with_registry(exec: Executable, registry: Registry, config: ServeConfig) -> Self {
        Self::with_clock(exec, registry, config, Arc::new(SystemClock))
    }

    pub(crate) fn with_clock(
        exec: Executable,
        registry: Registry,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let workers = config.workers.max(1);
        let model = CallModel {
            exec: Arc::new(exec),
            registry: Arc::new(registry),
            plan_cache: SharedPlanCache::default(),
        };
        let limits = Limits {
            capacity: config.queue_capacity,
            overload: config.overload,
            // One iteration hands every worker up to a batch of requests.
            max_running: workers * config.max_batch.max(1),
            retry: config.retry.clone().unwrap_or(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            }),
            restart_budget: config.restart_budget,
            stall_timeout: config.stall_timeout.max(Duration::from_millis(1)),
            drain_on_stop: true,
        };
        let faults = (0..workers)
            .map(|idx| {
                let plan = config
                    .worker_faults
                    .iter()
                    .rev()
                    .find(|(target, _)| *target == idx)?;
                let (vm, serving) = plan.1.clone().split_serving();
                Some(WorkerFaults {
                    vm,
                    serving: Arc::new(Mutex::new(FaultInjector::new(serving))),
                    stall: Duration::ZERO,
                })
            })
            .collect();
        ServeEngine {
            core: Core::start(model, limits, faults, clock),
            default_deadline: config.default_deadline,
        }
    }

    /// Submits a request under the engine's default deadline. Returns a
    /// [`Ticket`] immediately, or the backpressure/shutdown error if the
    /// request was not admitted.
    pub fn submit(&self, func: &str, args: &[Value]) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(func, args, self.default_deadline)
    }

    /// Submits a request that must *start* within `deadline` of now;
    /// requests still waiting (or backing off between retries) past it
    /// are shed with [`ServeError::DeadlineExceeded`] instead of
    /// executing late.
    pub fn submit_with_deadline(
        &self,
        func: &str,
        args: &[Value],
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let id = self.core.next_id();
        // The request span opens *before* the push: once the request is
        // waiting a worker may finish it at any moment, and the async end
        // must never precede its begin.
        let trace = relax_trace::async_begin("serve", "request", || {
            request_payload(id, RequestPhase::Queue)
        });
        let admit = relax_trace::span("serve", || format!("admit:{id}"));
        let (reply, ticket) = mpsc::channel();
        let call = Call {
            func: func.into(),
            args: args.into(),
            out: None,
            trace,
            reply,
        };
        let pushed = self.core.submit(id, deadline, call);
        admit.finish_with(|| request_payload(id, RequestPhase::Admit));
        let Err((call, why, depth)) = pushed else {
            return Ok(Ticket(ticket));
        };
        // Refused outright: the request never waited; close its span here
        // so the trace stays balanced.
        relax_trace::async_end("serve", "request", call.trace, || {
            request_payload(id, RequestPhase::Reply)
        });
        Err(match why {
            Refusal::Full => ServeError::QueueFull {
                depth,
                capacity: self.core.queue().1,
            },
            Refusal::Overloaded => ServeError::Overloaded { depth },
            Refusal::Closed => ServeError::ShuttingDown,
        })
    }

    /// Convenience: submit and wait in one call (single-session use).
    pub fn run(&self, func: &str, args: &[Value]) -> Result<Value, ServeError> {
        self.submit(func, args)?.wait()
    }

    /// A point-in-time snapshot of the engine counters: the request view
    /// of the core's accounting (a completed request is a retired unit).
    pub fn stats(&self) -> EngineStats {
        let c = self.core.counters();
        let (queue_depth, queue_capacity, admission) = self.core.queue();
        EngineStats {
            queue_depth,
            queue_capacity,
            admission,
            accepted: get(&c.submitted),
            rejected_full: get(&c.rejected_full),
            rejected_overload: get(&c.rejected_overload),
            timed_out: get(&c.shed) + get(&c.evicted),
            shed_overload: get(&c.evicted),
            completed: get(&c.retired),
            failed: get(&c.failed),
            replies_dropped: get(&c.replies_dropped),
            retries: get(&c.retries),
            restarts: get(&c.restarts),
            quarantined: get(&c.quarantined),
            batches: get(&c.iterations),
            batched_extra: get(&c.steps).saturating_sub(get(&c.iterations)),
            plan_cache: self.core.model().plan_cache.stats(),
            latency: self.core.latencies().summary(),
        }
    }

    /// Stops admitting requests, drains what was admitted (pending
    /// retries included, without waiting out their backoff), joins every
    /// worker incarnation and returns the final stats plus
    /// per-incarnation VM snapshots.
    ///
    /// Never panics — a worker that died uncontained is reported as
    /// [`crate::WorkerExit::Panicked`] in the [`EngineReport`] instead.
    pub fn shutdown(mut self) -> EngineReport {
        let workers: Vec<WorkerReport> = self.core.stop();
        EngineReport {
            stats: self.stats(),
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
