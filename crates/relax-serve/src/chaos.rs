//! A serving-layer chaos harness: a seeded random schedule of worker
//! panics, stalls and dropped replies over a real session workload, with
//! the scheduler's robustness invariants checked from the *client's* side
//! of the API.
//!
//! [`run_session_chaos`] serves a workload fault-free on one worker for
//! reference tokens and final KV caches, then serves it again under the
//! schedule. The [`SessionChaosReport`] captures what a client observed:
//!
//! - **Typed resolution**: every ticket resolved within the guard
//!   timeout (`unresolved == 0` is the invariant tests assert).
//! - **No cross-session leakage**: retired sessions are bitwise equal to
//!   the fault-free reference (`mismatches == 0`) — a fault on one step
//!   never corrupts another session.
//! - **Pool reconciliation**: the shared page pool reconciles with no
//!   page left in use after shutdown.
//!
//! It also holds the [`ManualClock`] tests use to move time.

use std::sync::{mpsc, Once};
use std::time::Duration;

use relax_vm::FaultPlan;

pub use crate::clock::ManualClock;
use crate::session::{
    SessionConfig, SessionManager, SessionModelSpec, SessionOutput, SessionRequest, SessionStats,
};

/// xorshift64* — the harness's only randomness, fully determined by the
/// seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0 | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Installs a process-wide panic hook that swallows the harness's
/// *injected* worker panics (payload `"injected worker panic"`) so
/// chaos runs do not spray panic backtraces over test output. Every
/// other panic still reaches the previous hook. Idempotent.
pub fn silence_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| *s == "injected worker panic")
                .unwrap_or(false)
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s == "injected worker panic")
                    .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// How long each scheduled worker stall sleeps.
const STALL: Duration = Duration::from_millis(50);

/// The seeded schedule: `faults` serving faults, each a uniformly chosen
/// site (worker panic, worker stall of [`STALL`], dropped reply) at a
/// uniformly chosen occurrence within `steps`.
fn build_schedule(rng: &mut Rng, faults: u64, steps: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..faults {
        let nth = 1 + rng.below(steps);
        plan = match rng.below(3) {
            0 => plan.fail_worker_panic(nth),
            1 => plan.stall_worker(nth, STALL),
            _ => plan.drop_reply(nth),
        };
    }
    plan
}

/// Knobs for a session chaos run (the continuous-batching scheduler
/// under worker panics, stalls and dropped replies mid-iteration).
#[derive(Debug, Clone)]
pub struct SessionChaosConfig {
    /// RNG seed for the fault schedule.
    pub seed: u64,
    /// Worker faults to schedule across the run (panics, stalls and
    /// dropped replies, drawn pseudo-randomly).
    pub faults: usize,
    /// Base manager configuration; its `faults` plan is replaced by
    /// the generated schedule and `return_kv` is forced on so final
    /// caches can be compared bitwise.
    pub manager: SessionConfig,
    /// Per-ticket resolution guard (bounds the harness, not the
    /// scheduler).
    pub guard: Duration,
}

impl Default for SessionChaosConfig {
    fn default() -> Self {
        SessionChaosConfig {
            seed: 0x5E55_C4A0,
            faults: 4,
            manager: SessionConfig {
                workers: 4,
                max_attempts: 8,
                ..SessionConfig::default()
            },
            guard: Duration::from_secs(60),
        }
    }
}

/// What a session chaos run observed.
#[derive(Debug)]
pub struct SessionChaosReport {
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions that retired with their full token budget.
    pub retired: u64,
    /// Sessions resolved typed with an error (evicted / shed / failed).
    pub errored: u64,
    /// Tickets unresolved within the guard (invariant: zero).
    pub unresolved: u64,
    /// Retired sessions whose tokens or final KV differed bitwise from
    /// the fault-free reference (invariant: zero).
    pub mismatches: u64,
    /// Faults the schedule injected.
    pub scheduled_faults: u64,
    /// `allocated == in_use + free` held on the shared pool after
    /// shutdown (invariant: true).
    pub pool_reconciles: bool,
    /// Pages still `in_use` after every session resolved and the
    /// manager shut down (invariant: zero — no leak through panics,
    /// rollbacks or evictions).
    pub pages_leaked: usize,
    /// The faulty manager's final counters (`worker_panics` and
    /// `rollbacks` show the faults actually bit).
    pub stats: SessionStats,
}

/// Drives `workload` through a [`SessionManager`] twice — once
/// fault-free on one worker to obtain reference tokens and final KV
/// caches, once under a seeded schedule of worker panics, stalls and
/// dropped replies fired **mid-iteration** (after a step's in-place
/// appends landed, before its result was reported or as it was) — and
/// checks the scheduler's
/// invariants: retired sessions are bitwise equal to the reference,
/// and the page pool reconciles with zero leaked pages after healing.
pub fn run_session_chaos(
    spec: SessionModelSpec,
    workload: &[SessionRequest],
    config: SessionChaosConfig,
) -> SessionChaosReport {
    silence_injected_panics();
    let mut rng = Rng(config.seed);
    // What a retired session is compared on: its tokens and final KV.
    let observed = |out: SessionOutput| {
        let kv: Vec<f64> = out
            .kv
            .iter()
            .flatten()
            .flat_map(|t| t.to_f64_vec())
            .collect();
        (out.tokens, kv)
    };

    let mut reference_cfg = config.manager.clone();
    reference_cfg.workers = 1;
    reference_cfg.faults = FaultPlan::new();
    reference_cfg.return_kv = true;
    let reference_mgr = SessionManager::new(spec.clone(), reference_cfg);
    let tickets: Vec<_> = workload
        .iter()
        .map(|r| reference_mgr.submit(r.clone()))
        .collect();
    let reference: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().ok().map(observed))
        .collect();
    let ref_stats = reference_mgr.shutdown();
    // Steps the workload needs end to end, counted as the calls that ran
    // them — sessions decoding together share one. Each opens the fault
    // window at least once and is one reply, and more workers only split
    // them further, so a fault occurrence in this range fires.
    let total_steps = (ref_stats.step_calls + ref_stats.speculations).max(1);

    let mut faulty_cfg = config.manager.clone();
    faulty_cfg.return_kv = true;
    let plan = build_schedule(&mut rng, config.faults as u64, total_steps);
    let scheduled_faults = plan.len() as u64;
    faulty_cfg.faults = plan;

    let mgr = SessionManager::new(spec, faulty_cfg);
    let pool = mgr.pool().clone();
    let tickets: Vec<_> = workload.iter().map(|r| mgr.submit(r.clone())).collect();

    let mut retired = 0u64;
    let mut errored = 0u64;
    let mut unresolved = 0u64;
    let mut mismatches = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.result.recv_timeout(config.guard) {
            Ok(Ok(out)) => {
                retired += 1;
                if reference[i] != Some(observed(out)) {
                    mismatches += 1;
                }
            }
            Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => errored += 1,
            Err(mpsc::RecvTimeoutError::Timeout) => unresolved += 1,
        }
    }

    let stats = mgr.shutdown();
    let pool_stats = pool.stats();
    SessionChaosReport {
        submitted: workload.len() as u64,
        retired,
        errored,
        unresolved,
        mismatches,
        scheduled_faults,
        pool_reconciles: pool_stats.reconciles(),
        pages_leaked: pool_stats.in_use,
        stats,
    }
}
