//! The serving core: one admission deque, one iteration loop, one
//! supervised worker pool, one accounting identity.
//!
//! A **unit** is a deadline, an attempt count and a piece of [`Work`]
//! that knows what its steps are. A generation session (`session.rs`) is
//! the unit the crate serves: many steps over a paged KV cache. The core
//! owns every *policy* and never asks what a step is:
//!
//! - **Admission.** `submit` pushes onto the unbounded FIFO
//!   [`Admission`] deque; only a stopped core refuses.
//! - **Deadline.** A unit whose deadline has passed is shed before its
//!   next step is dispatched — waiting or running alike.
//! - **Iteration.** Each pass admits waiting units into the running set
//!   (up to `max_running`) and dispatches one step per running unit to
//!   the worker pool as **jobs**: first steps first, each alone; then the
//!   units whose next step can be shared ([`Work::shares`], on their first
//!   attempt at it), as one job per worker of `ceil(n / workers)` units
//!   each; then the rest, each alone. A worker runs a job as one step with
//!   one outcome. A unit whose last step lands is retired by the worker
//!   that ran it, so its ticket resolves there; every other result —
//!   steps left, a failed, lost or reply-dropped step — is collected per
//!   unit, and none is applied before all are in: the barrier orders
//!   rollbacks, retries, pool-pressure eviction and dead-slot
//!   replacement, and a finished unit has nothing left to order.
//! - **Retry.** A failed step is rolled back. A lost step (a worker panic,
//!   a dropped reply) or one the page pool refused consumes an attempt and
//!   runs again in the next iteration, up to `max_attempts` failed
//!   attempts in a row; any other VM error fails the unit. A failed shared
//!   step costs every unit that shared it an attempt, and a unit with a
//!   failed attempt behind it shares nothing: the retries run one by one,
//!   which finds the unit that cannot land.
//! - **Eviction.** Under page-pool pressure the earliest-deadline running
//!   unit is evicted so the others' retries can land — never the last.
//! - **Supervision.** A worker contains a panic at its step boundary,
//!   reports the step lost and exits; one whose heartbeat goes stale
//!   mid-step ([`STALL_TIMEOUT`]) is retired. Either slot is respawned
//!   with fresh VMs.
//! - **Stop.** Admission closes; what is overdue is shed and everything
//!   else waiting or running resolves `ShuttingDown`.
//! - **Accounting.** `submitted == retired + evicted + failed + shed`,
//!   checked when the core stops.
//!
//! An idle core blocks on its condvar; waits are timed only by the next
//! deadline or heartbeat check while work is in flight.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use relax_trace::{Payload, WorkerEvent};
use relax_vm::{FaultInjector, FaultPlan, FaultSite, VmError, VmErrorKind};

use crate::admission::Admission;
use crate::clock::{wait_until, Clock};
use crate::telemetry::LatencyReservoir;

/// A worker silent for this long mid-step is declared wedged and
/// replaced. Generous: a replacement costs a thread, a false alarm on a
/// long prompt should be rare.
pub(crate) const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Locks a mutex, ignoring poisoning: serving state stays readable even
/// if a holder panicked (panics are contained, but stay defensive).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Why a step did not land.
#[derive(Debug, Clone)]
pub(crate) enum Failure {
    /// The worker panicked mid-step, or its report was dropped.
    Lost(String),
    /// The page pool refused an acquire (the typed cause the KV cache
    /// attaches, not the message text).
    Pressure(VmError),
    /// Any other VM failure.
    Vm(VmError),
}

impl Failure {
    pub(crate) fn of(e: VmError) -> Failure {
        match &e.kind {
            VmErrorKind::Kernel(k) if k.pool_exhausted.is_some() => Failure::Pressure(e),
            _ => Failure::Vm(e),
        }
    }

    /// A lost step or pool pressure may land next time; a VM error is
    /// deterministic for the unit.
    fn retryable(&self) -> bool {
        !matches!(self, Failure::Vm(_))
    }
}

/// How a unit left the core. Each variant feeds exactly one term of the
/// accounting identity.
pub(crate) enum Exit {
    /// Every step landed.
    Retired,
    /// The deadline passed before the next step could start.
    Shed,
    /// The earliest deadline under page-pool pressure.
    Evicted,
    /// A step failed for good (not retryable, or attempts spent).
    Failed(Failure),
    /// The core stopped first.
    ShuttingDown,
}

/// What a unit does. The core decides *when* a step runs and what a
/// failure costs; the work says what the step is.
pub(crate) trait Work: Send + Sized + 'static {
    /// Shared read-only context: executables, weights, pools.
    type Model: Send + Sync + 'static;
    /// One worker incarnation's private VMs.
    type Vms;

    fn build_vms(model: &Self::Model, vm_faults: FaultPlan) -> Self::Vms;

    /// The unit entered the running set.
    fn admit(&mut self, _id: u64) {}
    /// No step is left.
    fn done(&self) -> bool;
    /// The next step can run as one step with other units' that say so.
    fn shares(&self) -> bool {
        false
    }
    /// Runs the next step of every `(id, unit)` of `group` on a worker, as
    /// one step with one outcome; more than one unit only when each
    /// [`Work::shares`]. The step opens `cx.window` once its writes have
    /// landed (a step with a state worth crashing in the middle of opens it
    /// there too), and what it learned is no unit's before [`Work::commit`].
    fn step(group: &mut [(u64, &mut Self)], cx: StepCtx<'_, Self>) -> Result<(), VmError>;
    /// The step landed and its reply was kept: takes what the step learned
    /// into the unit and its counts into `counters`.
    fn commit(&mut self, _counters: &Counters) {}
    /// Undoes whatever a failed step left behind.
    fn rollback(&mut self) {}
    /// Closes the unit's span and resolves its ticket.
    fn resolve(self, id: u64, exit: Exit, model: &Self::Model);
}

/// What a step gets to work with besides its unit.
pub(crate) struct StepCtx<'a, W: Work> {
    pub(crate) vms: &'a mut W::Vms,
    pub(crate) model: &'a W::Model,
    pub(crate) counters: &'a Counters,
    /// The serving-site fault window.
    pub(crate) window: &'a mut dyn FnMut(),
}

struct Unit<W> {
    id: u64,
    deadline: Option<Instant>,
    submitted: Instant,
    /// Consecutive failed attempts at the current step.
    attempts: u32,
    /// A step has landed; an iteration runs first steps first.
    landed: bool,
    work: W,
}

impl<W> Unit<W> {
    /// The deadline rule: shed once the deadline has passed.
    fn overdue(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// The values of `SessionConfig` the core reads.
pub(crate) struct Limits {
    pub(crate) max_running: usize,
    /// Consecutive failed attempts at one step a unit survives.
    pub(crate) max_attempts: u32,
}

/// The pool's deterministic fault schedule. Every slot is handed the same
/// `serving` injector, so its sites count across the pool.
#[derive(Clone)]
pub(crate) struct WorkerFaults {
    /// VM sites, armed on each slot's first incarnation only.
    pub(crate) vm: FaultPlan,
    /// Serving sites (`WorkerPanic` / `WorkerStall` / `ReplyDrop`); kept
    /// across respawns, so a fault that fired stays spent.
    pub(crate) serving: Arc<Mutex<FaultInjector>>,
}

/// The one counters struct; `SessionStats` is its view.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) retired: AtomicU64,
    pub(crate) evicted: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) replies_dropped: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) restarts: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) iterations: AtomicU64,
    pub(crate) rollbacks: AtomicU64,
    pub(crate) step_calls: AtomicU64,
    pub(crate) prefills: AtomicU64,
    pub(crate) decodes: AtomicU64,
    pub(crate) tokens: AtomicU64,
    pub(crate) speculations: AtomicU64,
    pub(crate) spec_proposed: AtomicU64,
    pub(crate) spec_accepted: AtomicU64,
    pub(crate) peak_pages_in_use: AtomicU64,
}

pub(crate) fn bump(field: &AtomicU64) {
    add(field, 1);
}

pub(crate) fn add(field: &AtomicU64, n: u64) {
    field.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn get(field: &AtomicU64) -> u64 {
    field.load(Ordering::Relaxed)
}

/// A unit coming back from its step: one that failed, was lost, had its
/// reply dropped or has steps left. The worker hands the whole unit back
/// (or finishes it, see [`Shared::finish_landed`]), so once an iteration
/// is complete no worker-side cache handle pins pages.
struct StepResult<W: Work> {
    unit: Unit<W>,
    outcome: Result<(), Failure>,
    /// `(slot, generation)` of the incarnation this step killed.
    died: Option<(usize, u32)>,
}

/// Everything the submitters, the workers and the loop hand each other,
/// under one lock.
struct State<W: Work> {
    /// Closed once the core is stopping.
    pending: Admission<Unit<W>>,
    /// Jobs of the iteration in flight no worker has taken yet: the units
    /// of one step.
    jobs: VecDeque<Vec<Unit<W>>>,
    results: Vec<StepResult<W>>,
    /// Steps of the iteration in flight the loop is still owed a result
    /// for: the steps dispatched, less the units a worker finished.
    in_flight: usize,
    /// Bumped by every submit and stop, so the loop can tell under the
    /// lock whether anything happened since it last looked.
    events: u64,
    /// The loop has ended; idle workers exit.
    done: bool,
}

struct Shared<W: Work> {
    state: Mutex<State<W>>,
    /// Wakes the loop (submit, result, stop).
    wake: Condvar,
    /// Wakes idle workers (new jobs, done).
    jobs_wake: Condvar,
    counters: Counters,
    latencies: Mutex<LatencyReservoir>,
    iteration_ns: Mutex<Vec<u64>>,
    clock: Arc<dyn Clock>,
    model: W::Model,
}

impl<W: Work> Shared<W> {
    /// Hands results to the loop, waking it only when it has something
    /// to do: the iteration is complete, or a worker needs replacing.
    fn publish(&self, results: Vec<StepResult<W>>) {
        let mut st = lock(&self.state);
        let urgent = results.iter().any(|r| r.died.is_some());
        st.results.extend(results);
        if urgent || st.results.len() == st.in_flight {
            self.wake.notify_all();
        }
    }

    /// A unit's last step landed: the worker that ran it retires it there,
    /// not at the barrier, and the loop is owed one result less.
    fn finish_landed(&self, unit: Unit<W>) {
        self.finish(unit, Exit::Retired);
        let mut st = lock(&self.state);
        st.in_flight -= 1;
        if st.results.len() == st.in_flight {
            self.wake.notify_all();
        }
    }

    /// The one exit: one counter, one latency sample for a retired unit,
    /// one resolution.
    fn finish(&self, unit: Unit<W>, exit: Exit) {
        let c = &self.counters;
        bump(match &exit {
            Exit::Retired => &c.retired,
            Exit::Shed => &c.shed,
            Exit::Evicted => &c.evicted,
            Exit::Failed(_) | Exit::ShuttingDown => &c.failed,
        });
        if matches!(exit, Exit::Retired) {
            let taken = self.clock.now().saturating_duration_since(unit.submitted);
            lock(&self.latencies).push(taken.as_nanos().min(u64::MAX as u128) as u64);
        }
        unit.work.resolve(unit.id, exit, &self.model);
    }
}

/// Capacity of the bounded latency reservoir (O(1) memory however many
/// units retire); the seed makes the sample deterministic per core.
const LATENCY_SAMPLE_CAPACITY: usize = 2048;
const LATENCY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A running core: the handle `SessionManager` holds.
pub(crate) struct Core<W: Work> {
    shared: Arc<Shared<W>>,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl<W: Work> Core<W> {
    /// Spawns the loop and `workers` workers, each slot armed with
    /// `faults`.
    pub(crate) fn start(
        model: W::Model,
        limits: Limits,
        workers: usize,
        faults: WorkerFaults,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Admission::new(),
                jobs: VecDeque::new(),
                results: Vec::new(),
                in_flight: 0,
                events: 0,
                done: false,
            }),
            wake: Condvar::new(),
            jobs_wake: Condvar::new(),
            counters: Counters::default(),
            latencies: Mutex::new(LatencyReservoir::new(LATENCY_SAMPLE_CAPACITY, LATENCY_SEED)),
            iteration_ns: Mutex::new(Vec::new()),
            clock,
            model,
        });
        let slots = (0..workers.max(1)).map(|idx| spawn_worker(&shared, idx, 0, faults.clone()));
        let scheduler = Scheduler {
            shared: shared.clone(),
            limits,
            slots: slots.collect(),
            faults,
            running: Vec::new(),
            replaced: Vec::new(),
        };
        let scheduler = std::thread::Builder::new()
            .name("relax-serve-scheduler".into())
            .spawn(move || scheduler.run())
            .expect("spawn serve scheduler");
        Core {
            shared,
            next_id: AtomicU64::new(0),
            scheduler: Some(scheduler),
        }
    }

    /// Dense unit ids, first is 1.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Offers a unit to the admission deque. Only a stopped core refuses,
    /// and hands the work back.
    pub(crate) fn submit(&self, id: u64, deadline: Option<Duration>, work: W) -> Result<(), W> {
        let sh = &self.shared;
        let now = sh.clock.now();
        let deadline = deadline.map(|d| now + d);
        let unit = Unit {
            id,
            deadline,
            submitted: now,
            attempts: 0,
            landed: false,
            work,
        };
        {
            let mut st = lock(&sh.state);
            st.pending.push(deadline, unit).map_err(|unit| unit.work)?;
            st.events += 1;
        }
        bump(&sh.counters.submitted);
        sh.wake.notify_all();
        Ok(())
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    pub(crate) fn model(&self) -> &W::Model {
        &self.shared.model
    }

    /// Submit-to-retire latencies, nanoseconds.
    pub(crate) fn latencies(&self) -> LatencyReservoir {
        lock(&self.shared.latencies).clone()
    }

    /// Wall time of every iteration so far, nanoseconds.
    pub(crate) fn iteration_latencies_ns(&self) -> Vec<u64> {
        lock(&self.shared.iteration_ns).clone()
    }

    /// Stops admission, lets the loop resolve what it holds and joins
    /// every thread. A second call finds nothing left to join.
    pub(crate) fn stop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.pending.close();
            st.events += 1;
        }
        self.shared.wake.notify_all();
        let Some(scheduler) = self.scheduler.take() else {
            return;
        };
        let workers = scheduler.join().unwrap_or_default();
        // Workers leave only once the loop's thread is gone: threads end in
        // the reverse of the order they were spawned in.
        lock(&self.shared.state).done = true;
        self.shared.jobs_wake.notify_all();
        for worker in workers {
            // A panic that escaped containment has nothing left to report:
            // stopping never panics on a dead worker.
            let _ = worker.join();
        }
        let c = &self.shared.counters;
        // Not while unwinding: `Drop` stops the core too, and must not panic.
        debug_assert!(
            std::thread::panicking()
                || get(&c.submitted)
                    == get(&c.retired) + get(&c.evicted) + get(&c.failed) + get(&c.shed),
            "a unit left the core without being counted"
        );
    }
}

impl<W: Work> Drop for Core<W> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What a worker incarnation shares with the loop.
struct Flags {
    /// The heartbeat: when the worker took the step it is running. Stall
    /// detection only applies mid-step; idle workers block.
    busy_since: Mutex<Option<Instant>>,
    /// Tells a wedged worker it has been replaced; it exits after the
    /// step in hand.
    retired: AtomicBool,
}

/// One incarnation of a worker slot.
struct Worker {
    /// Incarnation number: the respawns of its slot so far.
    generation: u32,
    handle: JoinHandle<()>,
    flags: Arc<Flags>,
}

fn worker_instant(idx: usize, event: WorkerEvent) {
    relax_trace::instant(
        "serve",
        || format!("{}:{idx}", event.label()),
        || Payload::Worker {
            worker: idx as u64,
            event,
        },
    );
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked (non-string payload)".to_string(),
        },
    }
}

/// The one worker-thread spawn site.
fn spawn_worker<W: Work>(
    shared: &Arc<Shared<W>>,
    idx: usize,
    generation: u32,
    faults: WorkerFaults,
) -> Worker {
    let flags = Arc::new(Flags {
        busy_since: Mutex::new(None),
        retired: AtomicBool::new(false),
    });
    let handle = std::thread::Builder::new()
        .name(format!("relax-serve-{idx}g{generation}"))
        .spawn({
            let (shared, flags) = (shared.clone(), flags.clone());
            move || worker_loop(shared, idx, generation, faults, flags)
        })
        .expect("spawn serve worker");
    Worker {
        generation,
        handle,
        flags,
    }
}

/// One worker incarnation: take a job, run its one step under panic
/// containment and the fault window, commit it, finish the units it left
/// done and publish the others.
fn worker_loop<W: Work>(
    shared: Arc<Shared<W>>,
    idx: usize,
    generation: u32,
    faults: WorkerFaults,
    flags: Arc<Flags>,
) {
    let WorkerFaults { vm, serving } = faults;
    let mut vms = W::build_vms(&shared.model, vm);
    // A fired fault, with its stall length (`FaultPlan::stall_worker`).
    let fires = |site| {
        lock(&serving)
            .check(site)
            .map(|f| f.stall.unwrap_or_default())
    };
    // The serving-site fault window: a stall, then a panic.
    let mut window = || {
        if let Some(stall) = fires(FaultSite::WorkerStall) {
            shared.clock.sleep(stall);
        }
        if fires(FaultSite::WorkerPanic).is_some() {
            panic!("injected worker panic");
        }
    };
    while !flags.retired.load(Ordering::Acquire) {
        let job = {
            let mut st = lock(&shared.state);
            while st.jobs.is_empty() && !st.done {
                st = shared.jobs_wake.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.jobs.pop_front()
        };
        let Some(mut job) = job else { break };
        *lock(&flags.busy_since) = Some(shared.clock.now());
        let reply_dropped = fires(FaultSite::ReplyDrop).is_some();
        // Containment boundary: a panic anywhere in the step — injected or
        // real, inside the VM — must not unwind past the worker.
        // `AssertUnwindSafe` is sound because poisoned VMs never run again
        // (the incarnation exits below and its successor builds fresh
        // ones) and every unit is rolled back before its next step.
        let cx = StepCtx {
            vms: &mut vms,
            model: &shared.model,
            counters: &shared.counters,
            window: &mut window,
        };
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut group: Vec<_> = job.iter_mut().map(|u| (u.id, &mut u.work)).collect();
            W::step(&mut group, cx)
        }));
        let mut died = None;
        let outcome = match ran {
            Ok(_) if reply_dropped => {
                bump(&shared.counters.replies_dropped);
                Err(Failure::Lost("reply dropped".to_string()))
            }
            Ok(landed) => landed.map_err(Failure::of),
            Err(payload) => {
                bump(&shared.counters.worker_panics);
                worker_instant(idx, WorkerEvent::Panic);
                died = Some((idx, generation));
                Err(Failure::Lost(panic_message(payload)))
            }
        };
        *lock(&flags.busy_since) = None;
        // The one outcome is every member's: all commit or none does.
        let mut results = Vec::new();
        for mut unit in job {
            if outcome.is_ok() {
                unit.work.commit(&shared.counters);
                if unit.work.done() {
                    shared.finish_landed(unit);
                    continue;
                }
            }
            let died = died.filter(|_| results.is_empty());
            let outcome = outcome.clone();
            results.push(StepResult {
                unit,
                outcome,
                died,
            });
        }
        shared.publish(results);
        if died.is_some() {
            break;
        }
    }
}

/// The loop's private state; lives on the scheduler thread.
struct Scheduler<W: Work> {
    shared: Arc<Shared<W>>,
    limits: Limits,
    /// What every slot's first incarnation was armed with.
    faults: WorkerFaults,
    running: Vec<Unit<W>>,
    /// One live incarnation per slot.
    slots: Vec<Worker>,
    /// Incarnations a panic ended or a stall got replaced (the latter may
    /// still be finishing their step), joined when the core stops.
    replaced: Vec<JoinHandle<()>>,
}

impl<W: Work> Scheduler<W> {
    /// Runs the loop to its end and hands back every worker thread for
    /// `Core::stop` to release and join.
    fn run(mut self) -> Vec<JoinHandle<()>> {
        while self.pass() {}
        let live = self.slots.into_iter().map(|w| w.handle);
        live.chain(self.replaced).collect()
    }

    /// One pass of the loop: shed, admit, then run an iteration or wait
    /// for something to change. `false` once the core has stopped.
    fn pass(&mut self) -> bool {
        let sh = self.shared.clone();
        let (now, stopping, overdue, fresh, left, seen) = {
            let mut st = lock(&sh.state);
            // Under the lock `submit` pushes under, so no unit taken below
            // was stamped later: one born expired is overdue, not dispatched.
            let now = sh.clock.now();
            let stopping = st.pending.is_closed();
            let overdue = st.pending.take_overdue(now);
            let room = match stopping {
                true => usize::MAX,
                false => self
                    .limits
                    .max_running
                    .max(1)
                    .saturating_sub(self.running.len()),
            };
            let fresh = st.pending.take(room);
            (now, stopping, overdue, fresh, st.pending.depth(), st.events)
        };
        for unit in overdue {
            sh.finish(unit, Exit::Shed);
        }
        if stopping {
            for unit in fresh.into_iter().chain(self.running.drain(..)) {
                sh.finish(unit, Exit::ShuttingDown);
            }
            return false;
        }
        for mut unit in fresh {
            unit.work.admit(unit.id);
            bump(&sh.counters.admitted);
            self.running.push(unit);
        }
        // The deadline rule for running units; whatever has no step left
        // leaves too.
        let swept = self.running.len();
        let mut i = 0;
        while i < self.running.len() {
            let unit = &self.running[i];
            let exit = if unit.overdue(now) {
                Exit::Shed
            } else if unit.work.done() {
                Exit::Retired
            } else {
                i += 1;
                continue;
            };
            sh.finish(self.running.swap_remove(i), exit);
        }
        // The sweep made room for units still waiting: admit them first.
        if self.running.len() < swept && left > 0 {
            return true;
        }
        if self.iteration() {
            return true;
        }
        let st = lock(&sh.state);
        if st.events == seen {
            let until = st.pending.next_deadline();
            drop(wait_until(&*sh.clock, &sh.wake, st, until));
        }
        true
    }

    /// One iteration: dispatch a step per running unit, collect every
    /// result the workers did not finish themselves (supervising the pool
    /// meanwhile), then advance, retry or fail each unit and relieve pool
    /// pressure. `false` when no unit is running.
    fn iteration(&mut self) -> bool {
        let sh = self.shared.clone();
        let mut go = std::mem::take(&mut self.running);
        let dispatched = go.len();
        if dispatched == 0 {
            return false;
        }
        // First steps first, each alone: a unit that has landed nothing yet
        // is the one whose submitter has seen nothing yet. Then the units
        // that can share their step, then the rest. A unit retrying a step
        // shares nothing, so a shared step that failed is re-run one unit
        // at a time.
        let rank = |u: &Unit<W>| match u.landed {
            false => 0,
            true if u.attempts == 0 && u.work.shares() => 1,
            true => 2,
        };
        go.sort_by_key(rank);
        // One shared job per worker, so a pool keeps its parallelism.
        let sharers = go.iter().filter(|u| rank(u) == 1).count();
        let per_job = sharers.div_ceil(self.slots.len());
        let mut jobs: Vec<Vec<Unit<W>>> = Vec::new();
        for unit in go {
            match jobs.last_mut() {
                Some(job) if rank(&unit) == 1 && rank(&job[0]) == 1 && job.len() < per_job => {
                    job.push(unit)
                }
                _ => jobs.push(vec![unit]),
            }
        }
        let span = relax_trace::span("serve", || format!("iteration:{dispatched}"));
        let started = sh.clock.now();
        {
            let mut st = lock(&sh.state);
            st.jobs.extend(jobs);
            st.in_flight = dispatched;
        }
        sh.jobs_wake.notify_all();

        let results = loop {
            let next_check = self.supervise();
            let mut st = lock(&sh.state);
            if st.results.len() < st.in_flight && st.results.iter().all(|r| r.died.is_none()) {
                st = wait_until(&*sh.clock, &sh.wake, st, Some(next_check));
            }
            let dead: Vec<(usize, u32)> = st
                .results
                .iter_mut()
                .filter_map(|r| r.died.take())
                .collect();
            let complete =
                (st.results.len() == st.in_flight).then(|| std::mem::take(&mut st.results));
            drop(st);
            for (idx, generation) in dead {
                // Unless a stall already had the incarnation replaced.
                if self.slots[idx].generation == generation {
                    self.replace(idx);
                }
            }
            if let Some(results) = complete {
                break results;
            }
        };
        bump(&sh.counters.iterations);
        let done = sh.clock.now();
        lock(&sh.iteration_ns).push(done.saturating_duration_since(started).as_nanos() as u64);

        let mut pressure = false;
        for StepResult {
            mut unit, outcome, ..
        } in results
        {
            match outcome {
                // Steps are left, or the worker would have finished it.
                Ok(()) => {
                    unit.attempts = 0;
                    unit.landed = true;
                }
                // Any failed step is rolled back, so none is half-applied.
                Err(failure) => {
                    bump(&sh.counters.rollbacks);
                    unit.work.rollback();
                    pressure |= matches!(failure, Failure::Pressure(_));
                    if !failure.retryable() || unit.attempts >= self.limits.max_attempts {
                        sh.finish(unit, Exit::Failed(failure));
                        continue;
                    }
                    unit.attempts += 1;
                    bump(&sh.counters.retries);
                    let id = unit.id;
                    relax_trace::instant("serve", || format!("retry:{id}"), || Payload::None);
                }
            }
            self.running.push(unit);
        }

        // Page-pool pressure: evict the earliest deadline so the losers'
        // retries can land next iteration. Never the last running unit —
        // its failed step already rolled back, so evicting it frees
        // nothing its own retry would not see; if it alone exceeds the
        // pool, its attempt budget fails it typed instead.
        if pressure && self.running.len() > 1 {
            let victim = (0..self.running.len())
                .min_by_key(|&i| (self.running[i].deadline.is_none(), self.running[i].deadline))
                .expect("more than one running unit");
            sh.finish(self.running.swap_remove(victim), Exit::Evicted);
        }
        span.finish();
        true
    }

    /// Replaces every worker that is mid-step with a stale heartbeat — it
    /// exits after the step in hand, whose result still counts — and
    /// returns when the next one could be declared wedged.
    fn supervise(&mut self) -> Instant {
        let now = self.shared.clock.now();
        let mut next_check = now + STALL_TIMEOUT;
        for idx in 0..self.slots.len() {
            let flags = &self.slots[idx].flags;
            let Some(wedged_at) = lock(&flags.busy_since).map(|t| t + STALL_TIMEOUT) else {
                continue;
            };
            if wedged_at < now {
                flags.retired.store(true, Ordering::Release);
                worker_instant(idx, WorkerEvent::Stall);
                self.replace(idx);
            } else {
                next_check = next_check.min(wedged_at);
            }
        }
        next_check
    }

    /// Sets the slot's incarnation aside (it is joined when the loop ends)
    /// and respawns the slot with fresh VMs, its VM-site faults cleared.
    fn replace(&mut self, idx: usize) {
        let faults = WorkerFaults {
            vm: FaultPlan::new(),
            ..self.faults.clone()
        };
        let generation = self.slots[idx].generation + 1;
        let fresh = spawn_worker(&self.shared, idx, generation, faults);
        let old = std::mem::replace(&mut self.slots[idx], fresh);
        self.replaced.push(old.handle);
        bump(&self.shared.counters.restarts);
        worker_instant(idx, WorkerEvent::Restart);
    }
}

#[cfg(test)]
mod tests;
