//! Session-centric serving: a [`SessionManager`] runs many generation
//! sessions over one shared paged KV-cache pool with **continuous
//! (iteration-level) batching**.
//!
//! The request-oriented [`crate::ServeEngine`] treats every submission
//! as an independent stateless call. Generation workloads are stateful:
//! a *session* is a prompt, a growing paged KV cache and a token
//! budget, and its decode steps must interleave with other sessions'
//! steps so short requests are not stuck behind long ones. The
//! scheduler here runs an iteration loop:
//!
//! 1. **Admit** pending sessions into the running set (up to
//!    `max_running`), creating each one's [`KvCache`] on the shared
//!    [`KvPagePool`].
//! 2. **Shed** sessions whose deadline passed while queued or running.
//! 3. **Dispatch** one step per running session to the worker pool —
//!    a prefill step (whole prompt prefix through the copy-based
//!    prefill function, bit-copied into pages) or a decode step (one
//!    token through the paged `decode_paged` function, appending in
//!    place) — prefill and decode interleave freely in one iteration.
//! 4. **Collect** the results and advance, retire, retry or fail each
//!    session; under page-pool pressure, **evict** the
//!    earliest-deadline session and roll the losers back to their
//!    pre-step lengths (`KvCache::truncate_to`), so no step is ever
//!    half-applied.
//!
//! Workers are persistent threads that contain panics with
//! `catch_unwind`, rebuild their VMs after a panic, and report typed
//! step outcomes; the page pool's `allocated == in_use + free`
//! invariant is preserved through every panic, stall, eviction and
//! rollback (the chaos harness asserts it).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_vm::registry::{KernelError, Registry};
use relax_vm::{
    Executable, FaultInjector, FaultPlan, FaultSite, KvCache, KvCacheConfig, KvPagePool,
    KvPageStats, PlanCacheStats, SharedPlanCache, Value, Vm, VmError, VmErrorKind,
};

use crate::engine::lock;
use crate::supervisor::panic_message;

/// The compiled model a [`SessionManager`] serves.
///
/// `decode` must contain a function taking
/// `(tokens (1,1) i64, kv_cache handle, weights...)` and returning
/// `(logits, handle)` — see `relax_models::llama::build_decode_paged`.
/// `prefill`, when present, takes `(tokens (1,s) i64, weights...)` and
/// returns the per-stream K/V tensors to seed the cache; without it,
/// prompts are fed one token at a time through the decode function.
#[derive(Clone)]
pub struct SessionModelSpec {
    /// Executable holding the paged decode function.
    pub decode: Arc<Executable>,
    /// Name of the paged decode function.
    pub decode_func: String,
    /// Executable holding the prefill function, if any.
    pub prefill: Option<Arc<Executable>>,
    /// Name of the prefill function.
    pub prefill_func: String,
    /// Weight arguments, in parameter order after the token/cache
    /// parameters (shared by prefill and decode).
    pub weights: Vec<Value>,
    /// Geometry of every session's cache (`batch` must be 1).
    pub cache: KvCacheConfig,
    /// Speculative decoding: a draft model proposes tokens greedily and
    /// a multi-token verify pass of the serving model accepts or
    /// rejects them. `None` decodes one token per step.
    pub speculative: Option<SpeculativeSpec>,
}

/// Draft/verify configuration for speculative decoding.
///
/// Each speculation step proposes `lookahead` tokens through the draft
/// model (one single-token paged decode per proposal, on a per-session
/// draft cache sharing the manager's page pool), then verifies them in
/// **one** multi-token feed of the serving model (`verify_func`, see
/// `relax_models::llama::build_decode_paged_multi`). Proposals are
/// committed up to the first disagreement with the verify model's
/// greedy choice, plus the verify model's own token at the point of
/// disagreement; the rejected tail is rolled off both paged caches with
/// `truncate_to`. Because only verify-chosen tokens are ever committed,
/// the generated stream is identical to plain autoregressive decoding
/// of the serving model regardless of draft quality — the draft only
/// moves throughput.
#[derive(Clone)]
pub struct SpeculativeSpec {
    /// Executable holding the draft model's paged decode function.
    pub draft: Arc<Executable>,
    /// Name of the draft decode function (`(1,1)` tokens).
    pub draft_func: String,
    /// Draft weight arguments, after the token/cache parameters.
    pub draft_weights: Vec<Value>,
    /// Geometry of every session's draft cache (`batch` must be 1).
    pub draft_cache: KvCacheConfig,
    /// Executable holding the serving model's multi-token decode.
    pub verify: Arc<Executable>,
    /// Name of the multi-token verify function (`(1,s)` tokens,
    /// `(1,s,vocab)` logits). Runs with the manager's `weights`.
    pub verify_func: String,
    /// Tokens proposed per speculation step (≥ 1).
    pub lookahead: usize,
    /// Probability that a proposal is deterministically corrupted
    /// before verification — a knob for exercising rejection paths and
    /// dialing the acceptance rate in tests/benches. `0.0` leaves the
    /// draft untouched.
    pub noise: f64,
    /// Seed for the corruption hash; together with the session id and
    /// the absolute token position it makes corruption independent of
    /// scheduling, so the same request corrupts identically at any
    /// worker count.
    pub noise_seed: u64,
}

/// One generation request: a prompt and a token budget.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Prompt token ids (must be non-empty).
    pub prompt: Vec<i64>,
    /// Number of tokens to generate.
    pub max_new_tokens: usize,
    /// Relative deadline; `None` uses the manager default. Sessions
    /// past their deadline are shed, and the *earliest* deadline is
    /// evicted first under page-pool pressure.
    pub deadline: Option<Duration>,
}

/// A finished session.
#[derive(Debug, Clone)]
pub struct SessionOutput {
    /// The scheduler-assigned session id.
    pub session: u64,
    /// Greedy-decoded (argmax) generated tokens.
    pub tokens: Vec<i64>,
    /// Final per-stream KV tensors gathered from the pages, when the
    /// manager was configured with `return_kv` (differential tests
    /// compare these bitwise against the copy-based oracle).
    pub kv: Option<Vec<NDArray>>,
}

/// Why a session did not finish.
#[derive(Debug)]
pub enum SessionError {
    /// Evicted under page-pool pressure (earliest deadline first).
    Evicted,
    /// The deadline passed before generation finished.
    DeadlineExceeded,
    /// The manager shut down first.
    ShuttingDown,
    /// The request was malformed (empty prompt).
    Rejected(String),
    /// The retry budget was exhausted (repeated worker panics or
    /// unresolvable pool pressure).
    RetriesExhausted(String),
    /// A deterministic VM failure.
    Vm(VmError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Evicted => write!(f, "session evicted under page-pool pressure"),
            SessionError::DeadlineExceeded => write!(f, "session deadline exceeded"),
            SessionError::ShuttingDown => write!(f, "session manager is shutting down"),
            SessionError::Rejected(why) => write!(f, "session rejected: {why}"),
            SessionError::RetriesExhausted(why) => write!(f, "session retries exhausted: {why}"),
            SessionError::Vm(e) => write!(f, "session failed in the VM: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Tuning and fault-injection knobs for a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads executing steps.
    pub workers: usize,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Page-pool capacity in pages (`usize::MAX` = unbounded).
    pub pool_pages: usize,
    /// Maximum sessions in the running set; the rest wait admission.
    pub max_running: usize,
    /// Consecutive failed attempts (panic or pool pressure) a session
    /// survives before it is failed.
    pub max_attempts: u32,
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Duration,
    /// Gather final KV views into every [`SessionOutput`].
    pub return_kv: bool,
    /// Deterministic fault schedule (chaos testing): VM sites are
    /// injected into every worker's decode VM, serving sites
    /// (`WorkerPanic` / `WorkerStall`) fire across the worker pool.
    pub faults: FaultPlan,
    /// How long an injected `WorkerStall` sleeps.
    pub stall: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: 4,
            page_tokens: 16,
            pool_pages: usize::MAX,
            max_running: 32,
            max_attempts: 3,
            default_deadline: Duration::from_secs(30),
            return_kv: false,
            faults: FaultPlan::new(),
            stall: Duration::from_millis(100),
        }
    }
}

/// Monotonic scheduler counters (a consistent-enough snapshot; each
/// field is individually atomic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions admitted into the running set.
    pub admitted: u64,
    /// Sessions that produced their full token budget.
    pub retired: u64,
    /// Sessions evicted under page-pool pressure.
    pub evicted: u64,
    /// Sessions failed (VM error, rejection, retries exhausted).
    pub failed: u64,
    /// Sessions shed on deadline.
    pub shed: u64,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Prefill steps executed successfully.
    pub prefills: u64,
    /// Decode steps executed successfully.
    pub decodes: u64,
    /// Generated tokens across all sessions.
    pub tokens: u64,
    /// Pre-step-length rollbacks (after panics or pool pressure).
    pub rollbacks: u64,
    /// Worker panics contained and healed.
    pub worker_panics: u64,
    /// Peak pages in use observed at iteration boundaries.
    pub peak_pages_in_use: u64,
    /// Speculation steps executed successfully.
    pub speculations: u64,
    /// Draft tokens proposed across all speculation steps.
    pub spec_proposed: u64,
    /// Draft proposals accepted by the verify model.
    pub spec_accepted: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    retired: AtomicU64,
    evicted: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    iterations: AtomicU64,
    prefills: AtomicU64,
    decodes: AtomicU64,
    tokens: AtomicU64,
    rollbacks: AtomicU64,
    worker_panics: AtomicU64,
    peak_pages_in_use: AtomicU64,
    speculations: AtomicU64,
    spec_proposed: AtomicU64,
    spec_accepted: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    fn peak(&self, in_use: u64) {
        self.peak_pages_in_use
            .fetch_max(in_use, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SessionStats {
        SessionStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            prefills: self.prefills.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
            tokens: self.tokens.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            peak_pages_in_use: self.peak_pages_in_use.load(Ordering::Relaxed),
            speculations: self.speculations.load(Ordering::Relaxed),
            spec_proposed: self.spec_proposed.load(Ordering::Relaxed),
            spec_accepted: self.spec_accepted.load(Ordering::Relaxed),
        }
    }
}

type SessionResult = Result<SessionOutput, SessionError>;
type SessionSlot = Arc<(Mutex<Option<SessionResult>>, Condvar)>;

/// A handle to one submitted session.
pub struct SessionTicket {
    id: u64,
    slot: SessionSlot,
}

impl SessionTicket {
    /// The scheduler-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the session resolves.
    pub fn wait(self) -> SessionResult {
        let (m, cv) = &*self.slot;
        let mut g = lock(m);
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Returns the result if the session already resolved.
    pub fn try_wait(&self) -> Option<SessionResult> {
        lock(&self.slot.0).take()
    }
}

fn resolve(slot: &SessionSlot, result: SessionResult) {
    let (m, cv) = &**slot;
    let mut g = lock(m);
    if g.is_none() {
        *g = Some(result);
    }
    cv.notify_all();
}

/// What one dispatched step asks a worker to do.
enum StepKind {
    /// Run the prefill function over these prompt tokens and bit-copy
    /// the resulting K/V tensors into the session's pages.
    Prefill(Vec<i64>),
    /// Run the paged decode function on this input token.
    Decode(i64),
    /// Speculate: catch the draft cache up on `draft_feed` (the
    /// committed tokens it has not seen, ending with the next input
    /// token), propose `lookahead` draft tokens, verify them in one
    /// multi-token feed, and commit the agreed prefix.
    Speculate {
        draft_feed: Vec<i64>,
        lookahead: usize,
    },
}

struct Job {
    session: u64,
    kind: StepKind,
    cache: KvCache,
    /// Per-stream lengths before this step; the scheduler rolls the
    /// cache back to these on any failure so no step is half-applied.
    pre_lens: Vec<usize>,
    /// The session's draft cache (speculative decoding only) and its
    /// pre-step lengths, rolled back together with the main cache.
    draft: Option<KvCache>,
    draft_pre_lens: Vec<usize>,
    /// The session's async span, so worker-side step spans (and the
    /// kernel spans the VM opens under them) nest session → step →
    /// kernel.
    parent: relax_trace::SpanId,
}

enum StepOutcome {
    /// Prefill landed; this many prompt tokens are now in the cache.
    Prefilled(usize),
    /// Decode landed; argmax over the logits chose this token.
    Decoded(i64),
    /// Speculation landed: `committed` tokens (accepted proposals plus
    /// the verify model's token at the first disagreement) are in the
    /// cache; the rejected tail is already truncated away.
    Speculated {
        committed: Vec<i64>,
        proposed: u64,
        accepted: u64,
    },
    /// The page pool refused an acquire (retryable after eviction).
    PoolExhausted(String),
    /// The worker panicked mid-step and healed itself.
    Panicked(String),
    /// A deterministic VM failure.
    Failed(VmError),
}

struct JobResult {
    session: u64,
    pre_lens: Vec<usize>,
    draft_pre_lens: Vec<usize>,
    outcome: StepOutcome,
}

struct JobQueue {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

/// One live session inside the scheduler.
struct Session {
    id: u64,
    prompt: Vec<i64>,
    max_new: usize,
    deadline: Instant,
    submitted: Instant,
    slot: SessionSlot,
    cache: KvCache,
    /// Draft-model cache on the same shared pool (speculative only).
    draft: Option<KvCache>,
    /// Prompt/generated tokens already consumed by the model.
    fed: usize,
    generated: Vec<i64>,
    /// Consecutive failed attempts at the current step.
    attempts: u32,
    span: relax_trace::SpanId,
}

impl Session {
    /// The committed token at absolute position `pos` (prompt first,
    /// then the session's own generations).
    fn token_at(&self, pos: usize) -> i64 {
        if pos < self.prompt.len() {
            self.prompt[pos]
        } else {
            self.generated[pos - self.prompt.len()]
        }
    }

    /// The token the next decode step feeds (teacher-forcing through
    /// the prompt, then the session's own generations).
    fn next_token(&self) -> i64 {
        self.token_at(self.fed)
    }

    fn done(&self) -> bool {
        self.generated.len() >= self.max_new
    }
}

struct PendingSession {
    id: u64,
    request: SessionRequest,
    submitted: Instant,
    slot: SessionSlot,
}

struct Shared {
    pending: Mutex<VecDeque<PendingSession>>,
    wake: Condvar,
    stopping: AtomicBool,
    counters: Counters,
    pool: Arc<KvPagePool>,
    /// Wall time of each scheduler iteration, nanoseconds.
    iteration_ns: Mutex<Vec<u64>>,
    /// Completion latency (submit → resolve) of each finished session.
    completion_ns: Mutex<Vec<u64>>,
}

/// Continuous-batching scheduler over paged KV caches.
///
/// See the module docs for the iteration loop. Construction spawns the
/// scheduler and worker threads; [`SessionManager::shutdown`] (or drop)
/// resolves everything still queued with
/// [`SessionError::ShuttingDown`] and joins them.
pub struct SessionManager {
    shared: Arc<Shared>,
    jobs: Arc<JobQueue>,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    draft_plans: SharedPlanCache,
    verify_plans: SharedPlanCache,
}

impl SessionManager {
    /// Spawns the scheduler and `config.workers` worker threads.
    pub fn new(spec: SessionModelSpec, config: SessionConfig) -> Self {
        let pool = Arc::new(KvPagePool::with_capacity(
            config.page_tokens,
            config.pool_pages,
        ));
        let shared = Arc::new(Shared {
            pending: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            stopping: AtomicBool::new(false),
            counters: Counters::default(),
            pool: pool.clone(),
            iteration_ns: Mutex::new(Vec::new()),
            completion_ns: Mutex::new(Vec::new()),
        });
        let jobs = Arc::new(JobQueue {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });
        let (tx, rx) = channel::<JobResult>();

        let registry = Arc::new(Registry::new());
        let decode_cache = SharedPlanCache::new(64);
        let prefill_cache = SharedPlanCache::new(64);
        let draft_cache = SharedPlanCache::new(64);
        let verify_cache = SharedPlanCache::new(64);
        let (vm_plan, serve_plan) = config.faults.clone().split_serving();
        let serve_faults = Arc::new(Mutex::new(FaultInjector::new(serve_plan)));
        let spec = Arc::new(spec);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let ctx = WorkerCtx {
                spec: spec.clone(),
                registry: registry.clone(),
                decode_cache: decode_cache.clone(),
                prefill_cache: prefill_cache.clone(),
                draft_cache: draft_cache.clone(),
                verify_cache: verify_cache.clone(),
                pool: pool.clone(),
                vm_plan: vm_plan.clone(),
                serve_faults: serve_faults.clone(),
                stall: config.stall,
                shared: shared.clone(),
                jobs: jobs.clone(),
                results: tx.clone(),
            };
            workers.push(
                thread::Builder::new()
                    .name(format!("relax-session-worker-{i}"))
                    .spawn(move || worker_loop(ctx))
                    .expect("spawn session worker"),
            );
        }
        drop(tx);

        let sched_shared = shared.clone();
        let sched_jobs = jobs.clone();
        let sched_config = config.clone();
        let sched_spec = spec;
        let scheduler = thread::Builder::new()
            .name("relax-session-scheduler".into())
            .spawn(move || scheduler_loop(sched_shared, sched_jobs, rx, sched_spec, sched_config))
            .expect("spawn session scheduler");

        SessionManager {
            shared,
            jobs,
            next_id: AtomicU64::new(0),
            scheduler: Some(scheduler),
            workers,
            draft_plans: draft_cache,
            verify_plans: verify_cache,
        }
    }

    /// Submits a session; the ticket resolves when it retires, is
    /// evicted, shed, or fails.
    pub fn submit(&self, request: SessionRequest) -> SessionTicket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let slot: SessionSlot = Arc::new((Mutex::new(None), Condvar::new()));
        if self.shared.stopping.load(Ordering::Acquire) {
            resolve(&slot, Err(SessionError::ShuttingDown));
            return SessionTicket { id, slot };
        }
        Counters::bump(&self.shared.counters.submitted);
        let mut pending = lock(&self.shared.pending);
        pending.push_back(PendingSession {
            id,
            request,
            submitted: Instant::now(),
            slot: slot.clone(),
        });
        drop(pending);
        self.shared.wake.notify_all();
        SessionTicket { id, slot }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SessionStats {
        self.shared.counters.snapshot()
    }

    /// The shared page pool (tests assert its accounting reconciles).
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.shared.pool
    }

    /// Page-pool accounting snapshot.
    pub fn pool_stats(&self) -> KvPageStats {
        self.shared.pool.stats()
    }

    /// Plan-cache counters for the speculative executables, aggregated
    /// across all workers: `(draft, verify)`. The draft sees
    /// variable-length catch-up feeds and the verify sees
    /// `lookahead + 1`-token windows, so these are the ragged-shape
    /// cache populations the `dynamic_workloads` bench reports. Both
    /// are zero when the manager has no speculative spec.
    pub fn speculative_plan_stats(&self) -> (PlanCacheStats, PlanCacheStats) {
        (self.draft_plans.stats(), self.verify_plans.stats())
    }

    /// Wall time of every scheduler iteration so far, nanoseconds.
    pub fn iteration_latencies_ns(&self) -> Vec<u64> {
        lock(&self.shared.iteration_ns).clone()
    }

    /// Submit-to-resolve latency of every finished session so far,
    /// nanoseconds.
    pub fn completion_latencies_ns(&self) -> Vec<u64> {
        lock(&self.shared.completion_ns).clone()
    }

    fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        self.jobs.cv.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // The scheduler is gone; make sure idle workers see `stopping`.
        self.jobs.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Stops the scheduler and workers (pending and running sessions
    /// resolve with [`SessionError::ShuttingDown`]) and returns the
    /// final counters.
    pub fn shutdown(mut self) -> SessionStats {
        self.stop();
        self.shared.counters.snapshot()
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

struct WorkerCtx {
    spec: Arc<SessionModelSpec>,
    registry: Arc<Registry>,
    decode_cache: SharedPlanCache,
    prefill_cache: SharedPlanCache,
    draft_cache: SharedPlanCache,
    verify_cache: SharedPlanCache,
    pool: Arc<KvPagePool>,
    vm_plan: FaultPlan,
    serve_faults: Arc<Mutex<FaultInjector>>,
    stall: Duration,
    shared: Arc<Shared>,
    jobs: Arc<JobQueue>,
    results: Sender<JobResult>,
}

struct WorkerVms {
    decode: Vm,
    prefill: Option<Vm>,
    draft: Option<Vm>,
    verify: Option<Vm>,
}

fn build_vms(ctx: &WorkerCtx) -> WorkerVms {
    // Every VM shares the registry and the page pool; the serving model's
    // VMs (decode, verify) also carry the injected VM-site faults.
    let vm = |exec: &Arc<Executable>, plans: &SharedPlanCache, faulty: bool| {
        let mut vm = Vm::from_parts(exec.clone(), ctx.registry.clone(), plans.clone());
        vm.set_kv_pool(ctx.pool.clone());
        if faulty {
            vm.inject_faults(ctx.vm_plan.clone());
        }
        vm
    };
    let spec = &ctx.spec;
    let sp = spec.speculative.as_ref();
    WorkerVms {
        decode: vm(&spec.decode, &ctx.decode_cache, true),
        prefill: spec.prefill.as_ref().map(|exec| vm(exec, &ctx.prefill_cache, false)),
        draft: sp.map(|sp| vm(&sp.draft, &ctx.draft_cache, false)),
        verify: sp.map(|sp| vm(&sp.verify, &ctx.verify_cache, true)),
    }
}

/// Classifies a VM error: page-pool exhaustion (the typed cause the KV
/// cache attaches, not the message text) is retryable after the
/// scheduler frees pages; everything else is deterministic.
fn classify(e: VmError) -> StepOutcome {
    match &e.kind {
        VmErrorKind::Kernel(k) if k.pool_exhausted.is_some() => {
            StepOutcome::PoolExhausted(k.detail.clone())
        }
        _ => StepOutcome::Failed(e),
    }
}

/// A failed direct call into the KV cache (append, truncate).
fn kernel_failure(e: KernelError) -> StepOutcome {
    classify(VmError::new(VmErrorKind::Kernel(e)))
}

fn type_mismatch(expected: &'static str, actual: &'static str) -> StepOutcome {
    StepOutcome::Failed(VmError::new(VmErrorKind::TypeMismatch { expected, actual }))
}

/// Feeds `tokens` as one `(1, n)` step of `func` over `cache` and returns
/// the logits — the one VM call behind decode, draft catch-up, draft
/// proposal and verify. A failure comes back already classified.
fn feed(
    vm: &mut Vm,
    func: &str,
    tokens: &[i64],
    cache: &KvCache,
    weights: &[Value],
) -> Result<NDArray, StepOutcome> {
    let t = NDArray::from_i64(&[1, tokens.len()], DataType::I64, tokens.to_vec())
        .expect("token tensor");
    let mut args = vec![Value::Tensor(t), Value::KvCache(cache.clone())];
    args.extend(weights.iter().cloned());
    let out = vm.run(func, &args).map_err(classify)?;
    match out.as_tuple().and_then(|items| items.first()) {
        Some(Value::Tensor(logits)) => Ok(logits.clone()),
        _ => Err(type_mismatch("tuple of (logits, kv_cache)", out.kind())),
    }
}

fn argmax(logits: &NDArray) -> i64 {
    argmax_slice(&logits.to_f64_vec())
}

fn argmax_slice(vals: &[f64]) -> i64 {
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in vals.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as i64
}

/// Deterministically corrupts a draft proposal with probability
/// `spec.noise`. Keyed by the session id and the proposal's absolute
/// stream position, so the same request corrupts identically whatever
/// the worker count or retry history — and since corruption only makes
/// a proposal *wrong*, it can change throughput but never the committed
/// stream.
fn corrupt(spec: &SpeculativeSpec, session: u64, pos: usize, token: i64) -> i64 {
    if spec.noise <= 0.0 {
        return token;
    }
    let mut z = spec
        .noise_seed
        .wrapping_add(session.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((pos as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if ((z % 10_000) as f64) < spec.noise * 10_000.0 {
        // Nudge to a guaranteed-different id that stays a valid token.
        if token > 0 {
            token - 1
        } else {
            token + 1
        }
    } else {
        token
    }
}

/// One speculation step: draft catch-up + proposals (single-token paged
/// decodes on the draft cache), a mid-verify fault window, one
/// multi-token verify feed on the session cache, the commit loop, and
/// the `truncate_to` rollback of both caches to the committed prefix.
fn run_speculate(
    vms: &mut WorkerVms,
    ctx: &WorkerCtx,
    job: &Job,
    draft_feed: &[i64],
    lookahead: usize,
) -> Result<StepOutcome, StepOutcome> {
    let spec = ctx
        .spec
        .speculative
        .as_ref()
        .expect("speculate step without a speculative spec");
    let draft_cache = job.draft.as_ref().expect("speculate step without draft cache");
    let draft_vm = vms.draft.as_mut().expect("speculate step without draft VM");
    let k = lookahead.max(1);
    let fed = job.pre_lens.first().copied().unwrap_or(0);

    // Draft phase: feed the tokens the draft cache is missing, then
    // its own proposals; every feed past the catch-up prefix yields the
    // next proposal.
    let mut proposals: Vec<i64> = Vec::with_capacity(k);
    for i in 0..draft_feed.len() + k - 1 {
        let tok = if i < draft_feed.len() {
            draft_feed[i]
        } else {
            proposals[i - draft_feed.len()]
        };
        let logits = feed(draft_vm, &spec.draft_func, &[tok], draft_cache, &spec.draft_weights)?;
        if i + 1 >= draft_feed.len() {
            let pos = fed + 1 + proposals.len();
            proposals.push(corrupt(spec, job.session, pos, argmax(&logits)));
        }
    }

    // Mid-verify fault window: a stall or panic here leaves the draft
    // cache extended but the verify cache untouched — exactly the
    // half-speculated state the rollback path must absorb.
    if let Some(fired) = lock(&ctx.serve_faults).check(FaultSite::WorkerStall) {
        thread::sleep(fired.stall.unwrap_or(ctx.stall));
    }
    if lock(&ctx.serve_faults).check(FaultSite::WorkerPanic).is_some() {
        panic!("injected worker panic");
    }

    // Verify phase: one variable-length feed of the next committed
    // token plus every proposal; row `i` of the logits is bitwise what
    // a sequential single-token decode would produce at that position.
    let mut window = Vec::with_capacity(1 + k);
    window.push(*draft_feed.last().expect("non-empty draft feed"));
    window.extend(proposals.iter().copied());
    let verify_vm = vms.verify.as_mut().expect("speculate step without verify VM");
    let logits = feed(verify_vm, &spec.verify_func, &window, &job.cache, &ctx.spec.weights)?;
    let vocab = logits.shape().last().copied().unwrap_or(1).max(1);
    let vals = logits.to_f64_vec();
    if vals.len() < window.len() * vocab {
        return Err(type_mismatch("(1, s, vocab) verify logits", "short logits tensor"));
    }

    // Commit loop: proposals up to the first disagreement, then the
    // verify model's own greedy token at that position (so every step
    // commits at least one token).
    let mut committed = Vec::with_capacity(k + 1);
    let mut accepted = 0u64;
    for i in 0..window.len() {
        let v = argmax_slice(&vals[i * vocab..(i + 1) * vocab]);
        committed.push(v);
        if i + 1 == window.len() || proposals[i] != v {
            break;
        }
        accepted += 1;
    }

    // Roll the rejected tail off both paged caches.
    let keep = fed + 1 + accepted as usize;
    job.cache
        .truncate_to(&vec![keep; job.pre_lens.len()])
        .map_err(kernel_failure)?;
    let draft_keep: Vec<usize> = draft_cache.lens().iter().map(|&l| l.min(keep)).collect();
    draft_cache.truncate_to(&draft_keep).map_err(kernel_failure)?;
    Ok(StepOutcome::Speculated {
        committed,
        proposed: k as u64,
        accepted,
    })
}

/// The prefill step: runs the prefill function over the prompt prefix
/// and bit-copies the K/V tensor it returns per stream into the pages.
fn run_prefill(
    vm: &mut Vm,
    ctx: &WorkerCtx,
    job: &Job,
    tokens: &[i64],
) -> Result<StepOutcome, StepOutcome> {
    let t = NDArray::from_i64(&[1, tokens.len()], DataType::I64, tokens.to_vec())
        .expect("prefill token tensor");
    let mut args = vec![Value::Tensor(t)];
    args.extend(ctx.spec.weights.iter().cloned());
    let out = vm.run(&ctx.spec.prefill_func, &args).map_err(classify)?;
    let items = match out.as_tuple() {
        Some(items) => items.to_vec(),
        None => vec![out],
    };
    for (stream, item) in items.iter().enumerate() {
        let tensor = item
            .as_tensor()
            .ok_or_else(|| type_mismatch("tensor", item.kind()))?;
        job.cache.append(stream, tensor).map_err(kernel_failure)?;
    }
    Ok(StepOutcome::Prefilled(tokens.len()))
}

/// Runs one step body. Called inside `catch_unwind`; an injected
/// `WorkerPanic` fault fires *after* the VM ran — the appends have
/// landed, the report is lost — which is exactly the mid-iteration
/// crash the rollback path must absorb.
fn run_step(vms: &mut WorkerVms, ctx: &WorkerCtx, job: &Job) -> StepOutcome {
    let sp = relax_trace::span_under("serve", Some(job.parent), || match &job.kind {
        StepKind::Prefill(tokens) => format!("prefill:{}", tokens.len()),
        StepKind::Decode(_) => "decode".to_string(),
        StepKind::Speculate { lookahead, .. } => format!("speculate:{lookahead}"),
    });
    let phase = match &job.kind {
        StepKind::Prefill(_) => relax_trace::SessionPhase::Prefill,
        StepKind::Decode(_) | StepKind::Speculate { .. } => relax_trace::SessionPhase::Decode,
    };
    if let Some(fired) = lock(&ctx.serve_faults).check(FaultSite::WorkerStall) {
        thread::sleep(fired.stall.unwrap_or(ctx.stall));
    }
    let outcome = match &job.kind {
        StepKind::Prefill(tokens) => {
            let vm = vms.prefill.as_mut().expect("prefill job without prefill VM");
            run_prefill(vm, ctx, job, tokens)
        }
        StepKind::Decode(token) => {
            let spec = &ctx.spec;
            feed(&mut vms.decode, &spec.decode_func, &[*token], &job.cache, &spec.weights)
                .map(|logits| StepOutcome::Decoded(argmax(&logits)))
        }
        StepKind::Speculate {
            draft_feed,
            lookahead,
        } => run_speculate(vms, ctx, job, draft_feed, *lookahead),
    }
    .unwrap_or_else(|failed| failed);
    sp.finish_with(|| relax_trace::Payload::Session {
        session: job.session,
        phase,
    });
    if lock(&ctx.serve_faults).check(FaultSite::WorkerPanic).is_some() {
        panic!("injected worker panic");
    }
    outcome
}

fn worker_loop(ctx: WorkerCtx) {
    let mut vms = build_vms(&ctx);
    loop {
        let job = {
            let mut q = lock(&ctx.jobs.q);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if ctx.shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                q = ctx.jobs.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let session = job.session;
        let pre_lens = job.pre_lens.clone();
        let draft_pre_lens = job.draft_pre_lens.clone();
        let outcome =
            match panic::catch_unwind(AssertUnwindSafe(|| run_step(&mut vms, &ctx, &job))) {
                Ok(outcome) => outcome,
                Err(payload) => {
                    Counters::bump(&ctx.shared.counters.worker_panics);
                    // Heal: a panic may have left the VMs' internal
                    // state inconsistent, so rebuild them in place.
                    vms = build_vms(&ctx);
                    StepOutcome::Panicked(panic_message(payload))
                }
            };
        // Drop the job — and with it this worker's KV-cache handle —
        // *before* publishing the result. Once the scheduler has
        // received every result of an iteration, no worker-side cache
        // clone can pin pages, so eviction decisions see the true pool
        // occupancy. (Dropping after `send` leaves a window where a
        // preempted worker starves the pool through an entire retry
        // budget on a loaded host.)
        drop(job);
        if ctx
            .results
            .send(JobResult {
                session,
                pre_lens,
                draft_pre_lens,
                outcome,
            })
            .is_err()
        {
            return; // Scheduler is gone.
        }
    }
}

// ---------------------------------------------------------------------
// Scheduler side
// ---------------------------------------------------------------------

fn finish(
    shared: &Shared,
    s: Session,
    result: SessionResult,
    phase: relax_trace::SessionPhase,
    counter: &AtomicU64,
) {
    Counters::bump(counter);
    lock(&shared.completion_ns).push(s.submitted.elapsed().as_nanos() as u64);
    relax_trace::async_end("serve", "session", s.span, || relax_trace::Payload::Session {
        session: s.id,
        phase,
    });
    resolve(&s.slot, result);
    // Dropping the session drops its cache handle, which releases its
    // pages back to the pool.
}

fn scheduler_loop(
    shared: Arc<Shared>,
    jobs: Arc<JobQueue>,
    results: Receiver<JobResult>,
    spec: Arc<SessionModelSpec>,
    config: SessionConfig,
) {
    let mut running: Vec<Session> = Vec::new();
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            for s in running.drain(..) {
                finish(
                    &shared,
                    s,
                    Err(SessionError::ShuttingDown),
                    relax_trace::SessionPhase::Fail,
                    &shared.counters.failed,
                );
            }
            let mut pending = lock(&shared.pending);
            for p in pending.drain(..) {
                resolve(&p.slot, Err(SessionError::ShuttingDown));
                Counters::bump(&shared.counters.failed);
            }
            return;
        }

        // Admit pending sessions into the running set.
        {
            let mut pending = lock(&shared.pending);
            while running.len() < config.max_running.max(1) {
                let Some(p) = pending.pop_front() else { break };
                drop(pending);
                admit(&shared, &spec, &config, &mut running, p);
                pending = lock(&shared.pending);
            }
            // Nothing to do: sleep until a submit or shutdown wakes us.
            if running.is_empty() {
                if pending.is_empty() && !shared.stopping.load(Ordering::Acquire) {
                    let _ = shared
                        .wake
                        .wait_timeout(pending, Duration::from_millis(20));
                }
                continue;
            }
        }

        // Shed sessions whose deadline passed.
        let now = Instant::now();
        let mut i = 0;
        while i < running.len() {
            if now >= running[i].deadline {
                let s = running.swap_remove(i);
                finish(
                    &shared,
                    s,
                    Err(SessionError::DeadlineExceeded),
                    relax_trace::SessionPhase::Fail,
                    &shared.counters.shed,
                );
            } else {
                i += 1;
            }
        }
        if running.is_empty() {
            continue;
        }

        // Dispatch one step per running session (prefill and decode
        // interleave within the iteration) and collect every result.
        let iter_span = relax_trace::span("serve", || format!("iteration:{}", running.len()));
        let started = Instant::now();
        let mut dispatched = 0usize;
        {
            let mut q = lock(&jobs.q);
            for s in &running {
                let kind = if s.fed == 0 && s.prompt.len() > 1 && spec.prefill.is_some() {
                    StepKind::Prefill(s.prompt[..s.prompt.len() - 1].to_vec())
                } else if let Some(sp) = spec.speculative.as_ref().filter(|_| {
                    // Speculate only once every remaining feed produces
                    // a model-chosen token; teacher-forced prompt
                    // tokens go through plain decode.
                    s.fed + 1 >= s.prompt.len()
                }) {
                    let d = s
                        .draft
                        .as_ref()
                        .and_then(|c| c.lens().first().copied())
                        .unwrap_or(0);
                    StepKind::Speculate {
                        draft_feed: (d..=s.fed).map(|p| s.token_at(p)).collect(),
                        lookahead: sp.lookahead.max(1),
                    }
                } else {
                    StepKind::Decode(s.next_token())
                };
                q.push_back(Job {
                    session: s.id,
                    kind,
                    cache: s.cache.clone(),
                    pre_lens: s.cache.lens(),
                    draft: s.draft.clone(),
                    draft_pre_lens: s.draft.as_ref().map(|c| c.lens()).unwrap_or_default(),
                    parent: s.span,
                });
                dispatched += 1;
            }
        }
        jobs.cv.notify_all();

        let mut outcomes: HashMap<u64, JobResult> = HashMap::with_capacity(dispatched);
        for _ in 0..dispatched {
            match results.recv() {
                Ok(r) => {
                    outcomes.insert(r.session, r);
                }
                Err(_) => break, // All workers died; shutdown path handles it.
            }
        }
        Counters::bump(&shared.counters.iterations);
        lock(&shared.iteration_ns).push(started.elapsed().as_nanos() as u64);

        // Advance, retire, retry or fail each session.
        let mut pressure = false;
        let mut i = 0;
        while i < running.len() {
            let id = running[i].id;
            let Some(result) = outcomes.remove(&id) else {
                i += 1;
                continue;
            };
            let s = &mut running[i];
            let mut remove: Option<(SessionResult, relax_trace::SessionPhase, bool)> = None;
            pressure |= matches!(result.outcome, StepOutcome::PoolExhausted(_));
            match result.outcome {
                StepOutcome::Prefilled(fed) => {
                    s.attempts = 0;
                    s.fed = fed;
                    Counters::bump(&shared.counters.prefills);
                }
                StepOutcome::Decoded(next) => {
                    s.attempts = 0;
                    s.fed += 1;
                    Counters::bump(&shared.counters.decodes);
                    if s.fed >= s.prompt.len() {
                        s.generated.push(next);
                        Counters::bump(&shared.counters.tokens);
                    }
                }
                StepOutcome::Speculated {
                    committed,
                    proposed,
                    accepted,
                } => {
                    s.attempts = 0;
                    Counters::bump(&shared.counters.speculations);
                    shared
                        .counters
                        .spec_proposed
                        .fetch_add(proposed, Ordering::Relaxed);
                    shared
                        .counters
                        .spec_accepted
                        .fetch_add(accepted, Ordering::Relaxed);
                    let mut pushed = 0usize;
                    for tok in &committed {
                        if s.done() {
                            break;
                        }
                        s.generated.push(*tok);
                        Counters::bump(&shared.counters.tokens);
                        pushed += 1;
                    }
                    s.fed += pushed;
                    if pushed < committed.len() {
                        // The budget filled mid-batch: shed the
                        // overshoot appends so the final cache is
                        // exactly what a plain decode of the same
                        // stream would hold.
                        let keep = vec![s.fed; s.cache.lens().len()];
                        let _ = s.cache.truncate_to(&keep);
                        if let Some(d) = &s.draft {
                            let dk: Vec<usize> =
                                d.lens().iter().map(|&l| l.min(s.fed)).collect();
                            let _ = d.truncate_to(&dk);
                        }
                    }
                }
                StepOutcome::PoolExhausted(why) | StepOutcome::Panicked(why) => {
                    rollback(&shared, s, &result.pre_lens, &result.draft_pre_lens);
                    s.attempts += 1;
                    if s.attempts > config.max_attempts {
                        remove = Some((
                            Err(SessionError::RetriesExhausted(why)),
                            relax_trace::SessionPhase::Fail,
                            false,
                        ));
                    }
                }
                StepOutcome::Failed(e) => {
                    rollback(&shared, s, &result.pre_lens, &result.draft_pre_lens);
                    remove = Some((
                        Err(SessionError::Vm(e)),
                        relax_trace::SessionPhase::Fail,
                        false,
                    ));
                }
            }
            // A landed step that filled the token budget retires the
            // session (failed steps never add tokens, so never get here).
            if remove.is_none() && s.done() {
                let kv = config.return_kv.then(|| gather_kv(&s.cache)).flatten();
                remove = Some((
                    Ok(SessionOutput {
                        session: s.id,
                        tokens: std::mem::take(&mut s.generated),
                        kv,
                    }),
                    relax_trace::SessionPhase::Retire,
                    true,
                ));
            }
            match remove {
                Some((result, phase, retired)) => {
                    let s = running.swap_remove(i);
                    let counter = if retired {
                        &shared.counters.retired
                    } else {
                        &shared.counters.failed
                    };
                    finish(&shared, s, result, phase, counter);
                }
                None => i += 1,
            }
        }

        // Page-pool pressure: evict the earliest-deadline session so
        // the losers' retries can make progress next iteration. Never
        // evict the last running session — its failed step already
        // rolled back, so evicting it frees nothing its own retry
        // would not see; if it alone exceeds the pool, the attempt
        // budget fails it with a typed `RetriesExhausted` instead.
        if pressure && running.len() > 1 {
            let victim = running
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.deadline)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let s = running.swap_remove(victim);
            finish(
                &shared,
                s,
                Err(SessionError::Evicted),
                relax_trace::SessionPhase::Evict,
                &shared.counters.evicted,
            );
        }

        shared.counters.peak(shared.pool.stats().in_use as u64);
        iter_span.finish();
    }
}

fn admit(
    shared: &Shared,
    spec: &SessionModelSpec,
    config: &SessionConfig,
    running: &mut Vec<Session>,
    p: PendingSession,
) {
    if p.request.prompt.is_empty() {
        resolve(
            &p.slot,
            Err(SessionError::Rejected("empty prompt".to_string())),
        );
        Counters::bump(&shared.counters.failed);
        return;
    }
    let deadline = p.submitted + p.request.deadline.unwrap_or(config.default_deadline);
    let cache = KvCache::new(spec.cache, shared.pool.clone());
    let draft = spec
        .speculative
        .as_ref()
        .map(|sp| KvCache::new(sp.draft_cache, shared.pool.clone()));
    let span = relax_trace::async_begin("serve", "session", || relax_trace::Payload::Session {
        session: p.id,
        phase: relax_trace::SessionPhase::Admit,
    });
    Counters::bump(&shared.counters.admitted);
    let s = Session {
        id: p.id,
        prompt: p.request.prompt,
        max_new: p.request.max_new_tokens,
        deadline,
        submitted: p.submitted,
        slot: p.slot,
        cache,
        draft,
        fed: 0,
        generated: Vec::new(),
        attempts: 0,
        span,
    };
    if s.max_new == 0 {
        finish(
            shared,
            s,
            Ok(SessionOutput {
                session: p.id,
                tokens: Vec::new(),
                kv: None,
            }),
            relax_trace::SessionPhase::Retire,
            &shared.counters.retired,
        );
        return;
    }
    running.push(s);
}

fn rollback(shared: &Shared, s: &Session, pre_lens: &[usize], draft_pre_lens: &[usize]) {
    Counters::bump(&shared.counters.rollbacks);
    // `truncate_to` never grows; it only sheds this step's partial
    // appends and releases now-empty tail pages.
    if s.cache.truncate_to(pre_lens).is_err() {
        // Length mismatch can only mean the job raced a config error;
        // drop the whole cache state instead of leaving partials.
        let zeros = vec![0; s.cache.lens().len()];
        let _ = s.cache.truncate_to(&zeros);
    }
    if let Some(d) = &s.draft {
        if draft_pre_lens.is_empty() || d.truncate_to(draft_pre_lens).is_err() {
            let zeros = vec![0; d.lens().len()];
            let _ = d.truncate_to(&zeros);
        }
    }
}

fn gather_kv(cache: &KvCache) -> Option<Vec<NDArray>> {
    let streams = cache.config().streams;
    let mut out = Vec::with_capacity(streams);
    for s in 0..streams {
        match cache.view(s) {
            Ok(t) => out.push(t),
            Err(_) => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retry-vs-fail hangs on the typed cause the KV cache attaches to
    /// the error, so rewording the message cannot turn pool pressure
    /// into a hard failure (or a hard failure into a retry).
    #[test]
    fn pool_pressure_is_classified_by_its_typed_cause_not_its_message() {
        let cfg = KvCacheConfig {
            streams: 1,
            batch: 1,
            heads: 1,
            head_dim: 2,
            dtype: DataType::F32,
        };
        let cache = KvCache::new(cfg, Arc::new(KvPagePool::with_capacity(2, 1)));
        let rows = |n| NDArray::zeros(&[1, 1, n, 2], DataType::F32);
        cache.append(0, &rows(2)).expect("the one page holds two tokens");
        let mut err = cache.append(0, &rows(1)).expect_err("a third token needs a second page");
        err.detail = "reworded".to_string();
        let outcome = kernel_failure(err.clone());
        assert!(matches!(outcome, StepOutcome::PoolExhausted(d) if d == "reworded"));
        err.pool_exhausted = None;
        let outcome = kernel_failure(err);
        assert!(matches!(outcome, StepOutcome::Failed(_)));
    }
}
