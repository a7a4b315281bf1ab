//! [`SessionManager`]: generation sessions over the serving core, on one
//! shared paged KV-cache pool, with **continuous (iteration-level)
//! batching**.
//!
//! A *session* is a prompt, a growing paged KV cache and a token budget;
//! its decode steps run together with other sessions' steps so short
//! requests are not stuck behind long ones. The [`crate::core`] loop does
//! the scheduling — admit up to `max_running`, shed on deadline, one step
//! per running session per iteration, roll failed steps back, evict the
//! earliest deadline under page-pool pressure. This module says what a
//! step *is*, and one rule says it:
//!
//! > A step feeds the committed tokens its sessions' caches have not yet
//! > seen, as one `(b, n)` call of the one paged function over the stack
//! > of their caches, and samples each session's next token from the last
//! > logits row of its batch row.
//!
//! On a session's first step the unseen tokens are the whole prompt
//! (`n = prompt.len()`), and the session is alone in it (`b = 1`); on
//! every later step they are the one token the previous step sampled
//! (`n = 1`), and the core hands the worker every session in that state
//! as one group (`b` of them, see `core.rs`). [`SessionStats`] counts a
//! session's step with `n > 1` in `prefills` and one with `n = 1` in
//! `decodes`, whatever `b` was, and each call in `step_calls`; the trace
//! names the calls `prefill:{n}` and `decode`. All are the same call of the
//! same compiled function — its `batch` and `seq` dimensions are symbolic
//! — appending in place to each session's own pages
//! (`KvCache::stack`), and since no stored element's rounding chain
//! crosses a batch row, a session's stream and pages are bitwise what it
//! produces alone. With a [`SpeculativeSpec`], a step with one unseen token
//! *speculates* instead, one session per step: the draft model catches its
//! own cache up by the same rule and proposes, and one multi-token feed
//! verifies.
//!
//! A session's first step runs ahead of the others' next ones, and the
//! step that lands its last token resolves its ticket there, not at the
//! end of the iteration. What a step learned is committed to its sessions
//! only once it has landed and its reply was kept; a failed step is rolled
//! back to its pre-step lengths on both caches (`KvCache::truncate_to`) in
//! every session that shared it, so no step is ever half-applied, and the
//! page pool's `allocated == in_use + free` invariant survives every panic,
//! stall, dropped reply, eviction and rollback (the chaos harness asserts
//! it).

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_trace::{Payload, SessionPhase};
use relax_vm::registry::{KernelError, Registry};
use relax_vm::{
    Executable, FaultInjector, FaultPlan, KvCache, KvCacheConfig, KvPagePool, KvPageStats,
    PlanCacheStats, SharedPlanCache, Value, Vm, VmError, VmErrorKind,
};

use crate::clock::{Clock, SystemClock};
use crate::core::{
    add, bump, get, Core, Counters, Exit, Failure, Limits, StepCtx, Work, WorkerFaults,
};

/// The compiled model a [`SessionManager`] serves.
///
/// `decode` must contain a function taking
/// `(tokens (b,s) i64, kv_cache handle, weights...)` for **any** `b ≥ 1`
/// and `s ≥ 1` and returning `(logits (b,s,vocab), handle)` — see
/// `relax_models::llama::build_decode_paged`. It serves a prompt
/// (`b = 1`, `s = prompt.len()`) and the next token of every session
/// decoding at the time (`b` of them, `s = 1`) alike.
#[derive(Clone)]
pub struct SessionModelSpec {
    /// Executable holding the paged decode function.
    pub decode: Arc<Executable>,
    /// Name of the paged decode function.
    pub decode_func: String,
    /// Unread: prompts go through `decode`. Still here only because the
    /// `benchmark` package, which a product change may not edit, names it
    /// in a struct literal; pass `None`.
    pub prefill: Option<Arc<Executable>>,
    /// Unread, for the same reason as `prefill`.
    pub prefill_func: String,
    /// Weight arguments, in parameter order after the token/cache
    /// parameters.
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
/// model (one feed of whatever committed tokens its per-session cache has
/// not seen, then one single-token feed per further proposal; the draft
/// cache shares the manager's page pool), then verifies them in
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
    /// Name of the draft decode function (`(1,s)` tokens for any `s`,
    /// like [`SessionModelSpec::decode_func`]).
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
    /// Consecutive failed attempts at one step a session survives. A step
    /// lost to a worker panic or a dropped reply, or refused pages by the
    /// pool, is rolled back and retried in the next iteration; one more
    /// failure than this fails the session (`RetriesExhausted`). A VM
    /// error, a kernel fault included, fails it at once (`Vm`).
    pub max_attempts: u32,
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Duration,
    /// Gather final KV views into every [`SessionOutput`].
    pub return_kv: bool,
    /// Deterministic fault schedule (chaos testing): VM sites are
    /// injected into every worker's decode VM, serving sites
    /// (`WorkerPanic` / `WorkerStall` / `ReplyDrop`) fire across the
    /// worker pool, once per step however many sessions share it.
    /// A `WorkerStall` sleeps as long as the plan says
    /// (`FaultPlan::stall_worker`).
    pub faults: FaultPlan,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: 4,
            page_tokens: relax_vm::KV_PAGE_TOKENS,
            pool_pages: usize::MAX,
            max_running: 32,
            max_attempts: 3,
            default_deadline: Duration::from_secs(30),
            return_kv: false,
            faults: FaultPlan::new(),
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
    /// Successful steps that fed a session more than one token — a prompt
    /// longer than one token, on the session's first step (span
    /// `prefill:{n}`).
    pub prefills: u64,
    /// Successful steps that fed a session exactly one token (span
    /// `decode`), counted per session however many shared the call. Each
    /// step counted here or in `prefills` yields exactly one generated
    /// token, so without speculation `prefills + decodes == tokens`.
    pub decodes: u64,
    /// Calls of the paged function behind `prefills` and `decodes` that
    /// landed: one per prompt, one per group of sessions decoding together,
    /// so `decodes / step_calls` approaches the realised batch.
    pub step_calls: u64,
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

type SessionResult = Result<SessionOutput, SessionError>;

/// A handle to one submitted session. Dropped without an answer — the
/// manager shut down first — it resolves [`SessionError::ShuttingDown`].
pub struct SessionTicket {
    id: u64,
    pub(crate) result: mpsc::Receiver<SessionResult>,
}

impl SessionTicket {
    /// The scheduler-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the session resolves.
    pub fn wait(self) -> SessionResult {
        self.result
            .recv()
            .unwrap_or(Err(SessionError::ShuttingDown))
    }

    /// Returns the result if the session already resolved.
    pub fn try_wait(&self) -> Option<SessionResult> {
        match self.result.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(SessionError::ShuttingDown)),
        }
    }
}

/// What every session of one manager shares.
pub(crate) struct GenModel {
    spec: SessionModelSpec,
    registry: Arc<Registry>,
    pool: Arc<KvPagePool>,
    decode_plans: SharedPlanCache,
    draft_plans: SharedPlanCache,
    verify_plans: SharedPlanCache,
    return_kv: bool,
}

pub(crate) struct WorkerVms {
    decode: Vm,
    draft: Option<Vm>,
    verify: Option<Vm>,
}

/// One generation session: many steps, a paged KV cache.
pub(crate) struct Generation {
    prompt: Vec<i64>,
    max_new: usize,
    cache: KvCache,
    /// Draft-model cache on the same shared pool (speculative only).
    draft: Option<KvCache>,
    generated: Vec<i64>,
    /// Per-stream lengths of both caches before the step in flight; a
    /// failed step is rolled back to these.
    pre_lens: Vec<usize>,
    draft_pre_lens: Vec<usize>,
    /// What the step in flight learned; the session's once its reply is
    /// kept.
    landed: Option<Landed>,
    /// The session's async span; step spans (and the kernel spans the VM
    /// opens under them) nest session → step → kernel.
    span: relax_trace::SpanId,
    result: mpsc::Sender<SessionResult>,
}

/// What a landed step learned: the tokens it sampled for the session, and
/// what it counts as.
struct Landed {
    tokens: Vec<i64>,
    kind: StepKind,
}

#[derive(Clone, Copy)]
enum StepKind {
    Prefill,
    Decode,
    Speculation { proposed: u64, accepted: u64 },
}

fn session_payload(session: u64, phase: SessionPhase) -> Payload {
    Payload::Session { session, phase }
}

/// A failed direct call into the KV cache (truncate).
fn kernel_failure(e: KernelError) -> VmError {
    VmError::new(VmErrorKind::Kernel(e))
}

fn type_mismatch(expected: &'static str, actual: &'static str) -> VmError {
    VmError::new(VmErrorKind::TypeMismatch { expected, actual })
}

/// Feeds `tokens` — `rows` sequences' worth, row after row — as one
/// `(rows, n)` step of `func` over `cache`, a stack of `rows` sequences,
/// and returns the `(rows, n, vocab)` logits: the one VM call behind
/// prompt, decode, draft catch-up, draft proposal and verify.
fn feed(
    vm: &mut Vm,
    func: &str,
    rows: usize,
    tokens: &[i64],
    cache: &KvCache,
    weights: &[Value],
) -> Result<NDArray, VmError> {
    let shape = [rows, tokens.len() / rows.max(1)];
    let t = NDArray::from_i64(&shape, DataType::I64, tokens.to_vec()).expect("token tensor");
    let mut args = vec![Value::Tensor(t), Value::KvCache(cache.clone())];
    args.extend(weights.iter().cloned());
    let out = vm.run(func, &args)?;
    match out.as_tuple().and_then(|items| items.first()) {
        Some(Value::Tensor(logits)) => Ok(logits.clone()),
        _ => Err(type_mismatch("tuple of (logits, kv_cache)", out.kind())),
    }
}

/// The greedy choice of row `row` of `(b, n, vocab)` logits, rows counted
/// across the batch.
fn argmax_row(logits: &NDArray, row: usize) -> Result<i64, VmError> {
    let mut vals = vec![0.0; logits.shape().last().copied().unwrap_or(0)];
    logits
        .read_f64_range(row * vals.len(), &mut vals)
        .map_err(|_| type_mismatch("(b, n, vocab) logits", "short logits tensor"))?;
    Ok(argmax_slice(&vals))
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

impl Generation {
    /// The committed token at absolute position `pos` (prompt first,
    /// then the session's own generations).
    fn token_at(&self, pos: usize) -> i64 {
        if pos < self.prompt.len() {
            self.prompt[pos]
        } else {
            self.generated[pos - self.prompt.len()]
        }
    }

    /// The committed tokens from absolute position `from` on.
    fn tokens_from(&self, from: usize) -> Vec<i64> {
        (from..self.prompt.len() + self.generated.len())
            .map(|p| self.token_at(p))
            .collect()
    }

    /// Committed tokens the cache has seen: none before the first step,
    /// all but the last sampled one after any.
    fn fed(&self) -> usize {
        match self.generated.len() {
            0 => 0,
            sampled => self.prompt.len() + sampled - 1,
        }
    }

    /// How many committed tokens the cache has not seen: the whole prompt
    /// before the first step, the last sampled token after any.
    fn unseen(&self) -> usize {
        self.prompt.len() + self.generated.len() - self.fed()
    }

    /// The plain step of every session of `group`: feeds each one's unseen
    /// tokens — a lone session's whole prompt, or the one token each of
    /// the sessions last sampled — as one call over the stack of their
    /// caches, and samples each one's next token from its own last logits
    /// row.
    fn advance(group: &mut [(u64, &mut Self)], cx: StepCtx<Self>) -> Result<(), VmError> {
        let spec = &cx.model.spec;
        let tokens: Vec<i64> = group
            .iter()
            .flat_map(|(_, g)| g.tokens_from(g.fed()))
            .collect();
        let (rows, n) = (group.len(), tokens.len() / group.len());
        debug_assert!(group.iter().all(|(_, g)| g.unseen() == n), "a ragged group");
        let (phase, kind) = match n {
            1 => (SessionPhase::Decode, StepKind::Decode),
            _ => (SessionPhase::Prefill, StepKind::Prefill),
        };
        // A lone session's step nests under its span; a shared one is
        // nobody's child.
        let parent = match group {
            [(_, g)] => Some(g.span),
            _ => None,
        };
        let sp = relax_trace::span_under("serve", parent, || match n {
            1 => "decode".to_string(),
            _ => format!("prefill:{n}"),
        });
        let caches: Vec<KvCache> = group.iter().map(|(_, g)| g.cache.clone()).collect();
        let landed = KvCache::stack(&caches)
            .map_err(kernel_failure)
            .and_then(|stack| {
                let vm = &mut cx.vms.decode;
                feed(vm, &spec.decode_func, rows, &tokens, &stack, &spec.weights)
            })
            .and_then(|logits| {
                bump(&cx.counters.step_calls);
                (cx.window)();
                for (row, (_, g)) in group.iter_mut().enumerate() {
                    let tokens = vec![argmax_row(&logits, (row + 1) * n - 1)?];
                    g.landed = Some(Landed { tokens, kind });
                }
                Ok(())
            });
        sp.finish_with(|| Payload::Batch {
            sessions: rows as u64,
            phase,
        });
        landed
    }

    /// One speculation step: draft catch-up (one feed of what the draft
    /// cache has not seen) + proposals (single-token feeds), a mid-verify
    /// fault window, one multi-token verify feed on the session cache, the
    /// commit loop, and the `truncate_to` rollback of both caches to the
    /// committed prefix.
    fn speculate(
        &mut self,
        session: u64,
        spec: &SpeculativeSpec,
        cx: StepCtx<Self>,
    ) -> Result<(), VmError> {
        let draft_cache = self
            .draft
            .as_ref()
            .expect("speculate step without draft cache");
        let draft_vm = cx
            .vms
            .draft
            .as_mut()
            .expect("speculate step without draft VM");
        let k = spec.lookahead.max(1);
        let fed = self.fed();
        // Draft phase: catch the draft cache up on the committed tokens it
        // has not seen (ending with the next input token), then feed it its
        // own proposals one at a time; every feed yields the next proposal.
        let mut next = self.tokens_from(draft_cache.len(0));
        let input = *next.last().expect("an unseen committed token");
        let mut proposals: Vec<i64> = Vec::with_capacity(k);
        for i in 0..k {
            let logits = feed(
                draft_vm,
                &spec.draft_func,
                1,
                &next,
                draft_cache,
                &spec.draft_weights,
            )?;
            let choice = argmax_row(&logits, next.len() - 1)?;
            let proposal = corrupt(spec, session, fed + 1 + i, choice);
            proposals.push(proposal);
            next = vec![proposal];
        }

        // Mid-verify fault window: a stall or panic here leaves the draft
        // cache extended but the verify cache untouched — exactly the
        // half-speculated state the rollback path must absorb.
        (cx.window)();

        // Verify phase: one variable-length feed of the next committed
        // token plus every proposal; row `i` of the logits is bitwise what
        // a sequential single-token decode would produce at that position.
        let mut verify_feed = Vec::with_capacity(1 + k);
        verify_feed.push(input);
        verify_feed.extend(proposals.iter().copied());
        let verify_vm = cx
            .vms
            .verify
            .as_mut()
            .expect("speculate step without verify VM");
        let logits = feed(
            verify_vm,
            &spec.verify_func,
            1,
            &verify_feed,
            &self.cache,
            &cx.model.spec.weights,
        )?;
        let vocab = logits.shape().last().copied().unwrap_or(1).max(1);
        let vals = logits.to_f64_vec();
        if vals.len() < verify_feed.len() * vocab {
            return Err(type_mismatch(
                "(1, s, vocab) verify logits",
                "short logits tensor",
            ));
        }

        // Commit loop: proposals up to the first disagreement, then the
        // verify model's own greedy token at that position (so every step
        // commits at least one token) — as far as the token budget goes.
        let mut committed = Vec::with_capacity(k + 1);
        let mut accepted = 0u64;
        for i in 0..verify_feed.len() {
            let v = argmax_slice(&vals[i * vocab..(i + 1) * vocab]);
            committed.push(v);
            if i + 1 == verify_feed.len() || proposals[i] != v {
                break;
            }
            accepted += 1;
        }
        committed.truncate(self.max_new - self.generated.len());

        // Roll the rejected tail (and any overshoot of the budget) off both
        // paged caches, so the final cache is exactly what a plain decode
        // of the same stream would hold.
        let keep = fed + committed.len();
        self.cache
            .truncate_to(&vec![keep; self.cache.config().streams])
            .map_err(kernel_failure)?;
        let draft_keep: Vec<usize> = draft_cache.lens().iter().map(|&l| l.min(keep)).collect();
        draft_cache
            .truncate_to(&draft_keep)
            .map_err(kernel_failure)?;

        (cx.window)();
        let proposed = k as u64;
        self.landed = Some(Landed {
            tokens: committed,
            kind: StepKind::Speculation { proposed, accepted },
        });
        Ok(())
    }
}

fn gather_kv(cache: &KvCache) -> Option<Vec<NDArray>> {
    (0..cache.config().streams)
        .map(|s| cache.view(s).ok())
        .collect()
}

/// Rolls `cache` back to `lens`. `truncate_to` never grows; it only sheds
/// the failed step's partial appends and releases now-empty tail pages.
/// A refusal can only mean the lengths never matched the cache: drop the
/// whole cache state instead of leaving partials.
fn roll_back(cache: &KvCache, lens: &[usize]) {
    if cache.truncate_to(lens).is_err() {
        let _ = cache.truncate_to(&vec![0; cache.config().streams]);
    }
}

impl Work for Generation {
    type Model = GenModel;
    type Vms = WorkerVms;

    fn build_vms(model: &GenModel, vm_faults: FaultPlan) -> WorkerVms {
        // Every VM shares the registry (sessions' caches hold the page
        // pool); the serving model's VMs (decode, verify) also carry the
        // injected VM-site faults.
        let vm = |exec: &Arc<Executable>, plans: &SharedPlanCache, faulty: bool| {
            let mut vm = Vm::from_parts(exec.clone(), model.registry.clone(), plans.clone());
            if faulty {
                vm.inject_faults(vm_faults.clone());
            }
            vm
        };
        let spec = &model.spec;
        let sp = spec.speculative.as_ref();
        WorkerVms {
            decode: vm(&spec.decode, &model.decode_plans, true),
            draft: sp.map(|sp| vm(&sp.draft, &model.draft_plans, false)),
            verify: sp.map(|sp| vm(&sp.verify, &model.verify_plans, true)),
        }
    }

    fn admit(&mut self, id: u64) {
        self.span = relax_trace::async_begin("serve", "session", || {
            session_payload(id, SessionPhase::Admit)
        });
    }

    fn done(&self) -> bool {
        self.generated.len() >= self.max_new
    }

    /// One token is unseen and no draft model proposes more: the step is
    /// a `(1, 1)` feed, which is one row of a `(b, 1)` feed.
    fn shares(&self) -> bool {
        self.draft.is_none() && self.unseen() == 1
    }

    fn step(group: &mut [(u64, &mut Self)], cx: StepCtx<Self>) -> Result<(), VmError> {
        let (model, counters) = (cx.model, cx.counters);
        for (_, g) in group.iter_mut() {
            g.pre_lens = g.cache.lens();
            g.draft_pre_lens = g.draft.as_ref().map(|d| d.lens()).unwrap_or_default();
        }
        let landed = match (&model.spec.speculative, &mut *group) {
            // Speculate only from a single unseen token: everything a
            // speculation feeds past it is a proposal.
            (Some(spec), [(session, g)]) if g.unseen() == 1 => {
                let sp = relax_trace::span_under("serve", Some(g.span), || {
                    format!("speculate:{}", spec.lookahead.max(1))
                });
                let landed = g.speculate(*session, spec, cx);
                sp.finish_with(|| session_payload(*session, SessionPhase::Decode));
                landed
            }
            _ => Self::advance(group, cx),
        };
        let in_use = model.pool.stats().in_use as u64;
        counters
            .peak_pages_in_use
            .fetch_max(in_use, Ordering::Relaxed);
        landed
    }

    fn commit(&mut self, c: &Counters) {
        let Some(Landed { tokens, kind }) = self.landed.take() else {
            return;
        };
        match kind {
            StepKind::Prefill => bump(&c.prefills),
            StepKind::Decode => bump(&c.decodes),
            StepKind::Speculation { proposed, accepted } => {
                bump(&c.speculations);
                add(&c.spec_proposed, proposed);
                add(&c.spec_accepted, accepted);
            }
        }
        add(&c.tokens, tokens.len() as u64);
        self.generated.extend(tokens);
    }

    fn rollback(&mut self) {
        self.landed = None;
        roll_back(&self.cache, &self.pre_lens);
        if let Some(d) = &self.draft {
            roll_back(d, &self.draft_pre_lens);
        }
    }

    fn resolve(mut self, id: u64, exit: Exit, model: &GenModel) {
        let (phase, result) = match exit {
            Exit::Retired => (
                SessionPhase::Retire,
                Ok(SessionOutput {
                    session: id,
                    tokens: std::mem::take(&mut self.generated),
                    kv: (model.return_kv && self.max_new > 0)
                        .then(|| gather_kv(&self.cache))
                        .flatten(),
                }),
            ),
            Exit::Evicted => (SessionPhase::Evict, Err(SessionError::Evicted)),
            Exit::Shed => (SessionPhase::Fail, Err(SessionError::DeadlineExceeded)),
            Exit::ShuttingDown => (SessionPhase::Fail, Err(SessionError::ShuttingDown)),
            Exit::Failed(failure) => (
                SessionPhase::Fail,
                Err(match failure {
                    Failure::Lost(why) => SessionError::RetriesExhausted(why),
                    Failure::Pressure(e) => SessionError::RetriesExhausted(e.to_string()),
                    Failure::Vm(e) => SessionError::Vm(e),
                }),
            ),
        };
        // A session shed while still waiting never opened its span.
        if self.span != 0 {
            relax_trace::async_end("serve", "session", self.span, || session_payload(id, phase));
        }
        let _ = self.result.send(result);
        // Dropping the session drops its cache handles, which releases
        // its pages back to the pool.
    }
}

/// Continuous-batching scheduler over paged KV caches.
///
/// See the module docs for the steps and `core.rs` for the loop.
/// Construction spawns the scheduler and worker threads;
/// [`SessionManager::shutdown`] (or drop) resolves everything still
/// waiting or running with [`SessionError::ShuttingDown`] and joins them.
pub struct SessionManager {
    core: Core<Generation>,
    default_deadline: Duration,
}

impl SessionManager {
    /// Spawns the scheduler and `config.workers` worker threads.
    pub fn new(spec: SessionModelSpec, config: SessionConfig) -> Self {
        Self::with_clock(spec, config, Arc::new(SystemClock))
    }

    pub(crate) fn with_clock(
        spec: SessionModelSpec,
        config: SessionConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let model = GenModel {
            spec,
            registry: Arc::new(Registry::new()),
            pool: Arc::new(KvPagePool::with_capacity(
                config.page_tokens,
                config.pool_pages,
            )),
            decode_plans: SharedPlanCache::default(),
            draft_plans: SharedPlanCache::default(),
            verify_plans: SharedPlanCache::default(),
            return_kv: config.return_kv,
        };
        let limits = Limits {
            max_running: config.max_running,
            max_attempts: config.max_attempts,
        };
        // One schedule for the whole pool: VM sites on every worker,
        // serving sites counted across all of them.
        let (vm, serving) = config.faults.clone().split_serving();
        let faults = WorkerFaults {
            vm,
            serving: Arc::new(Mutex::new(FaultInjector::new(serving))),
        };
        SessionManager {
            core: Core::start(model, limits, config.workers, faults, clock),
            default_deadline: config.default_deadline,
        }
    }

    /// Submits a session; the ticket resolves when it retires, is
    /// evicted, shed, or fails.
    pub fn submit(&self, request: SessionRequest) -> SessionTicket {
        let id = self.core.next_id();
        let (result, ticket) = mpsc::channel();
        let ticket = SessionTicket { id, result: ticket };
        if request.prompt.is_empty() {
            let c = self.core.counters();
            bump(&c.submitted);
            bump(&c.failed);
            let _ = result.send(Err(SessionError::Rejected("empty prompt".to_string())));
            return ticket;
        }
        let model = self.core.model();
        let speculative = model.spec.speculative.as_ref();
        let session = Generation {
            prompt: request.prompt,
            max_new: request.max_new_tokens,
            cache: KvCache::new(model.spec.cache, model.pool.clone()),
            draft: speculative.map(|sp| KvCache::new(sp.draft_cache, model.pool.clone())),
            generated: Vec::new(),
            pre_lens: Vec::new(),
            draft_pre_lens: Vec::new(),
            landed: None,
            span: 0,
            result,
        };
        let deadline = request.deadline.unwrap_or(self.default_deadline);
        // The deque is unbounded, so the only refusal is a stopped core —
        // and dropping the session resolves its ticket `ShuttingDown`.
        let _ = self.core.submit(id, Some(deadline), session);
        ticket
    }

    /// Counter snapshot: the session view of the core's accounting.
    pub fn stats(&self) -> SessionStats {
        let c = self.core.counters();
        SessionStats {
            submitted: get(&c.submitted),
            admitted: get(&c.admitted),
            retired: get(&c.retired),
            evicted: get(&c.evicted),
            failed: get(&c.failed),
            shed: get(&c.shed),
            iterations: get(&c.iterations),
            prefills: get(&c.prefills),
            decodes: get(&c.decodes),
            tokens: get(&c.tokens),
            step_calls: get(&c.step_calls),
            rollbacks: get(&c.rollbacks),
            worker_panics: get(&c.worker_panics),
            peak_pages_in_use: get(&c.peak_pages_in_use),
            speculations: get(&c.speculations),
            spec_proposed: get(&c.spec_proposed),
            spec_accepted: get(&c.spec_accepted),
        }
    }

    /// The shared page pool (tests assert its accounting reconciles).
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.core.model().pool
    }

    /// Page-pool accounting snapshot.
    pub fn pool_stats(&self) -> KvPageStats {
        self.pool().stats()
    }

    /// Plan-cache counters for the speculative executables, aggregated
    /// across all workers: `(draft, verify)`. The draft sees
    /// variable-length catch-up feeds and the verify sees
    /// `lookahead + 1`-token windows, so these are the ragged-shape
    /// cache populations the `dynamic_workloads` bench reports. Both
    /// are zero when the manager has no speculative spec.
    pub fn speculative_plan_stats(&self) -> (PlanCacheStats, PlanCacheStats) {
        let model = self.core.model();
        (model.draft_plans.stats(), model.verify_plans.stats())
    }

    /// Wall time of every scheduler iteration so far, nanoseconds.
    pub fn iteration_latencies_ns(&self) -> Vec<u64> {
        self.core.iteration_latencies_ns()
    }

    /// Submit-to-retire latency of the sessions retired so far,
    /// nanoseconds (a bounded uniform sample once thousands have).
    pub fn completion_latencies_ns(&self) -> Vec<u64> {
        self.core.latencies().into_samples()
    }

    /// Stops the scheduler and workers (pending and running sessions
    /// resolve with [`SessionError::ShuttingDown`]) and returns the
    /// final counters.
    pub fn shutdown(mut self) -> SessionStats {
        self.core.stop();
        self.stats()
    }
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
        cache
            .append(0, &rows(2))
            .expect("the one page holds two tokens");
        let mut err = cache
            .append(0, &rows(1))
            .expect_err("a third token needs a second page");
        err.detail = "reworded".to_string();
        assert!(matches!(
            Failure::of(kernel_failure(err.clone())),
            Failure::Pressure(_)
        ));
        err.pool_exhausted = None;
        assert!(matches!(Failure::of(kernel_failure(err)), Failure::Vm(_)));
    }

    /// Every worker's decode `Vm` probes one plan cache: a shape one worker
    /// compiled is a hit for the others, so four workers compile fewer
    /// plans than four private caches would hold.
    #[test]
    fn decode_plans_are_shared_across_workers() {
        use relax_core::{ShapeDesc, StructInfo};
        use relax_models::llama::{build_decode_paged, LlamaConfig};
        use relax_passes::{compile, CompileOptions};

        let cfg = LlamaConfig::tiny();
        let ir = build_decode_paged(&cfg).unwrap();
        let weights = ir
            .params
            .iter()
            .filter(|(name, _)| name != "tokens" && name != "kv_cache");
        let weights = weights.map(|(_, sinfo)| match sinfo {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                dtype: Some(dt),
            } => {
                let env = std::collections::HashMap::new();
                let dims: Vec<usize> = dims
                    .iter()
                    .map(|d| d.eval(&env).unwrap() as usize)
                    .collect();
                Value::Tensor(NDArray::zeros(&dims, *dt))
            }
            other => panic!("unexpected weight annotation {other}"),
        });
        let spec = SessionModelSpec {
            decode: Arc::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap()),
            decode_func: "decode_paged".into(),
            prefill: None,
            prefill_func: String::new(),
            weights: weights.collect(),
            cache: KvCacheConfig {
                streams: 2 * cfg.n_layers,
                batch: 1,
                heads: cfg.n_kv_heads as usize,
                head_dim: cfg.head_dim as usize,
                dtype: cfg.dtype,
            },
            speculative: None,
        };
        let config = SessionConfig {
            workers: 4,
            ..SessionConfig::default()
        };
        let mgr = SessionManager::new(spec, config);
        // One prompt length, so the shapes are the prompt's and the decode
        // groups': few enough that the cache never evicts.
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                mgr.submit(SessionRequest {
                    prompt: vec![i; 2],
                    max_new_tokens: 3,
                    deadline: None,
                })
            })
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let plans = mgr.core.model().decode_plans.stats();
        mgr.shutdown();
        assert_eq!(plans.evictions, 0, "{plans:?}");
        assert!(plans.hits > 0, "{plans:?}");
        assert!(
            plans.misses < plans.len as u64 * 4,
            "no cross-worker reuse: {plans:?}"
        );
    }
}
