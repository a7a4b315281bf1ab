//! The serving core: one admission deque, one iteration loop, one
//! supervised worker pool, one retry timer, one accounting identity.
//!
//! A **unit** is a deadline, an attempt count and a piece of [`Work`]
//! that knows what its steps are. A generation session is a unit with
//! many steps and a paged KV cache; a stateless request is a unit with
//! one step and none. The core owns every *policy* and never asks which
//! of the two it is serving:
//!
//! - **Admission.** `submit` pushes onto the bounded [`Admission`] deque;
//!   a full deque or the reject watermark refuses, the shed watermark
//!   evicts the waiting unit with the least deadline budget.
//! - **Deadline.** A unit whose deadline has passed is shed before its
//!   next step is dispatched — waiting or running alike.
//! - **Iteration.** Each pass admits waiting units into the running set
//!   (up to `max_running`) and dispatches one step per eligible running
//!   unit to the worker pool as **jobs**: first steps first, each alone;
//!   then the units whose next step can be shared ([`Work::shares`], on
//!   their first attempt at it), as one job per live worker of
//!   `ceil(n / workers)` units each; then the rest, each alone. A worker
//!   runs a job as one step with one outcome. A unit whose last step
//!   lands is retired by the worker that ran it, so its ticket resolves
//!   there; every other result — steps left, a failed, lost or
//!   reply-dropped step — is collected per unit, and none is applied
//!   before all are in: the barrier orders rollbacks, retries,
//!   pool-pressure eviction and dead-slot replacement, and a finished unit
//!   has nothing left to order.
//! - **Retry.** A retryable failure (lost worker, pool pressure, kernel
//!   fault) rolls the unit back, consumes an attempt and makes it
//!   ineligible until `now + backoff(attempt)`; the loop's own wait is
//!   the timer. A failed shared step costs every unit that shared it an
//!   attempt, and a unit with a failed attempt behind it shares nothing:
//!   the retries run one by one, which finds the unit that cannot land.
//! - **Eviction.** Under page-pool pressure the earliest-deadline running
//!   unit is evicted so the others' retries can land — never the last.
//! - **Supervision.** A worker contains a panic at its step boundary,
//!   reports the step lost and exits; one whose heartbeat goes stale
//!   mid-step is retired. Either slot is respawned with fresh VMs up to
//!   the restart budget, then quarantined.
//! - **Accounting.** `submitted == retired + evicted + failed + shed`,
//!   checked when the core stops.
//!
//! An idle core blocks on its condvar; waits are timed only by the next
//! deadline, backoff or heartbeat check while work is in flight.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use relax_trace::{Payload, WorkerEvent};
use relax_vm::{FaultInjector, FaultPlan, FaultSite, KernelStat, Telemetry, VmError, VmErrorKind};

use crate::admission::{Admission, Push, Refusal};
use crate::clock::{wait_until, Clock};
use crate::engine::{AdmissionLevel, OverloadPolicy, RetryOn, RetryPolicy};
use crate::telemetry::{LatencyReservoir, WorkerExit, WorkerReport};

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

    fn retryable(&self, on: &RetryOn) -> bool {
        match self {
            Failure::Lost(_) => on.worker_lost,
            Failure::Pressure(_) => on.overload,
            Failure::Vm(e) => on.kernel_faults && matches!(e.kind, VmErrorKind::Kernel(_)),
        }
    }
}

/// How a unit left the core. Each variant feeds exactly one term of the
/// accounting identity.
pub(crate) enum Exit {
    /// Every step landed.
    Retired,
    /// The deadline passed before the next step could start.
    Shed { missed_by: Duration },
    /// Overload control removed it: a watermark victim while waiting, or
    /// the earliest deadline under page-pool pressure while running.
    /// `depth` is the deque depth at the time.
    Evicted { depth: usize },
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
    /// The counters a [`WorkerReport`] carries.
    fn telemetry(vms: &Self::Vms) -> (Telemetry, HashMap<String, KernelStat>);

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
    /// Retry backoff: not dispatched before this.
    not_before: Option<Instant>,
    /// A step has landed; an iteration runs first steps first.
    landed: bool,
    work: W,
}

impl<W> Unit<W> {
    /// The deadline rule: `Shed` once the deadline has passed.
    fn overdue(&self, now: Instant) -> Option<Exit> {
        let missed_by = now.checked_duration_since(self.deadline?)?;
        Some(Exit::Shed { missed_by })
    }
}

/// The values the two public configs carry, as the core reads them.
pub(crate) struct Limits {
    pub(crate) capacity: usize,
    pub(crate) overload: Option<OverloadPolicy>,
    pub(crate) max_running: usize,
    pub(crate) retry: RetryPolicy,
    pub(crate) restart_budget: u32,
    pub(crate) stall_timeout: Duration,
    /// On stop: finish what was admitted (`true`) or resolve it
    /// `ShuttingDown` (`false`).
    pub(crate) drain_on_stop: bool,
}

/// One worker slot's deterministic fault schedule. Slots handed the same
/// `serving` injector count its sites together.
#[derive(Clone)]
pub(crate) struct WorkerFaults {
    /// VM sites, armed on the slot's first incarnation only.
    pub(crate) vm: FaultPlan,
    /// Serving sites (`WorkerPanic` / `WorkerStall` / `ReplyDrop`); kept
    /// across respawns, so a fault that fired stays spent.
    pub(crate) serving: Arc<Mutex<FaultInjector>>,
    /// Length of a `WorkerStall` that names none.
    pub(crate) stall: Duration,
}

/// The one counters struct; `EngineStats` and `SessionStats` are views.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) retired: AtomicU64,
    pub(crate) evicted: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) replies_dropped: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) restarts: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) iterations: AtomicU64,
    pub(crate) steps: AtomicU64,
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
            Exit::Shed { .. } => &c.shed,
            Exit::Evicted { .. } => &c.evicted,
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

/// A running core: the handle the two façades share.
pub(crate) struct Core<W: Work> {
    shared: Arc<Shared<W>>,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<Vec<Incarnation>>>,
}

impl<W: Work> Core<W> {
    /// Spawns the loop and one worker per entry of `faults`, which arms
    /// the worker's slot.
    pub(crate) fn start(
        model: W::Model,
        limits: Limits,
        faults: Vec<Option<WorkerFaults>>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Admission::new(limits.capacity, limits.overload),
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
        let slots = faults.into_iter().enumerate();
        let slots = slots.map(|(idx, faults)| Slot {
            generation: 0,
            live: Some(spawn_worker(&shared, idx, 0, faults.clone())),
            faults,
        });
        let scheduler = Scheduler {
            shared: shared.clone(),
            limits,
            running: Vec::new(),
            slots: slots.collect(),
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

    /// Offers a unit to the admission deque. A refusal hands the work
    /// back with the reason and the depth that caused it.
    pub(crate) fn submit(
        &self,
        id: u64,
        deadline: Option<Duration>,
        work: W,
    ) -> Result<(), (W, Refusal, usize)> {
        let sh = &self.shared;
        let now = sh.clock.now();
        let deadline = deadline.map(|d| now + d);
        let unit = Unit {
            id,
            deadline,
            submitted: now,
            attempts: 0,
            not_before: None,
            landed: false,
            work,
        };
        let (pushed, depth) = {
            let mut st = lock(&sh.state);
            let pushed = st.pending.push(deadline, unit);
            st.events += 1;
            (pushed, st.pending.depth())
        };
        match pushed {
            Push::Admitted { shed } => {
                bump(&sh.counters.submitted);
                sh.wake.notify_all();
                if let Some(victim) = shed {
                    sh.finish(victim, Exit::Evicted { depth });
                }
                Ok(())
            }
            Push::Refused { item, why } => {
                match why {
                    Refusal::Full => bump(&sh.counters.rejected_full),
                    Refusal::Overloaded => bump(&sh.counters.rejected_overload),
                    Refusal::Closed => {}
                }
                Err((item.work, why, depth))
            }
        }
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    pub(crate) fn model(&self) -> &W::Model {
        &self.shared.model
    }

    /// `(depth, capacity, level)` of the admission deque.
    pub(crate) fn queue(&self) -> (usize, usize, AdmissionLevel) {
        let st = lock(&self.shared.state);
        (
            st.pending.depth(),
            st.pending.capacity(),
            st.pending.level(),
        )
    }

    /// Submit-to-retire latencies, nanoseconds.
    pub(crate) fn latencies(&self) -> LatencyReservoir {
        lock(&self.shared.latencies).clone()
    }

    /// Wall time of every iteration so far, nanoseconds.
    pub(crate) fn iteration_latencies_ns(&self) -> Vec<u64> {
        lock(&self.shared.iteration_ns).clone()
    }

    /// Stops admission, lets the loop drain or abandon what it holds,
    /// joins every thread and reports every worker incarnation. A second
    /// call finds nothing left to join.
    pub(crate) fn stop(&mut self) -> Vec<WorkerReport> {
        {
            let mut st = lock(&self.shared.state);
            st.pending.close();
            st.events += 1;
        }
        self.shared.wake.notify_all();
        let Some(scheduler) = self.scheduler.take() else {
            return Vec::new();
        };
        let incarnations = scheduler.join().unwrap_or_default();
        // Workers leave only once the loop's thread is gone: threads end in
        // the reverse of the order they were spawned in.
        lock(&self.shared.state).done = true;
        self.shared.jobs_wake.notify_all();
        let mut reports: Vec<WorkerReport> = incarnations
            .into_iter()
            .map(|(idx, generation, handle)| {
                // A panic that escaped containment becomes a synthesized
                // `Panicked` report: stopping never panics on a dead worker.
                handle.join().unwrap_or_else(|payload| WorkerReport {
                    worker: idx,
                    generation,
                    exit: WorkerExit::Panicked {
                        message: panic_message(payload),
                    },
                    requests: 0,
                    telemetry: Default::default(),
                    kernel_stats: Default::default(),
                })
            })
            .collect();
        reports.sort_by_key(|w| (w.worker, w.generation));
        let c = &self.shared.counters;
        // Not while unwinding: `Drop` stops the core too, and must not panic.
        debug_assert!(
            std::thread::panicking()
                || get(&c.submitted)
                    == get(&c.retired) + get(&c.evicted) + get(&c.failed) + get(&c.shed),
            "a unit left the core without being counted"
        );
        reports
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

struct Worker {
    handle: JoinHandle<WorkerReport>,
    flags: Arc<Flags>,
}

/// `(slot, generation, handle)` of one worker incarnation.
type Incarnation = (usize, u32, JoinHandle<WorkerReport>);

/// One worker slot: a stable index whose incarnations come and go.
struct Slot {
    /// Incarnation number, which is also the respawns consumed so far.
    generation: u32,
    /// `None` once quarantined.
    live: Option<Worker>,
    faults: Option<WorkerFaults>,
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
    faults: Option<WorkerFaults>,
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
    Worker { handle, flags }
}

/// One worker incarnation: take a job, run its one step under panic
/// containment and the fault window, commit it, finish the units it left
/// done and publish the others.
fn worker_loop<W: Work>(
    shared: Arc<Shared<W>>,
    idx: usize,
    generation: u32,
    faults: Option<WorkerFaults>,
    flags: Arc<Flags>,
) -> WorkerReport {
    let vm_faults = faults.as_ref().map(|f| f.vm.clone()).unwrap_or_default();
    let mut vms = W::build_vms(&shared.model, vm_faults);
    let fires = |site| {
        let faults = faults.as_ref()?;
        let fired = lock(&faults.serving).check(site)?;
        Some(fired.stall.unwrap_or(faults.stall))
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
    let mut steps = 0u64;
    let mut exit = WorkerExit::Drained;
    loop {
        if flags.retired.load(Ordering::Acquire) {
            exit = WorkerExit::Retired;
            break;
        }
        let job = {
            let mut st = lock(&shared.state);
            while st.jobs.is_empty() && !st.done {
                st = shared.jobs_wake.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.jobs.pop_front()
        };
        let Some(mut job) = job else { break };
        *lock(&flags.busy_since) = Some(shared.clock.now());
        steps += job.len() as u64;
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
                let message = panic_message(payload);
                exit = WorkerExit::Panicked {
                    message: message.clone(),
                };
                died = Some((idx, generation));
                Err(Failure::Lost(message))
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
            results.push(StepResult { unit, outcome, died });
        }
        shared.publish(results);
        if died.is_some() {
            break;
        }
    }
    let (telemetry, kernel_stats) = W::telemetry(&vms);
    WorkerReport {
        worker: idx,
        generation,
        exit,
        requests: steps,
        telemetry,
        kernel_stats,
    }
}

/// The loop's private state; lives on the scheduler thread.
struct Scheduler<W: Work> {
    shared: Arc<Shared<W>>,
    limits: Limits,
    running: Vec<Unit<W>>,
    slots: Vec<Slot>,
    /// Incarnations a panic ended or a stall got replaced (the latter may
    /// still be finishing their step), joined when the core stops.
    replaced: Vec<Incarnation>,
}

impl<W: Work> Scheduler<W> {
    /// Runs the loop to its end and hands back every incarnation for
    /// `Core::stop` to release and join.
    fn run(mut self) -> Vec<Incarnation> {
        while self.pass() {}
        let live = self.slots.iter_mut().enumerate();
        let live = live.filter_map(|(idx, s)| Some((idx, s.generation, s.live.take()?.handle)));
        live.chain(self.replaced.drain(..)).collect()
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
            let room = if stopping && !self.limits.drain_on_stop {
                usize::MAX
            } else {
                self.limits
                    .max_running
                    .max(1)
                    .saturating_sub(self.running.len())
            };
            let fresh = st.pending.take(room);
            (now, stopping, overdue, fresh, st.pending.depth(), st.events)
        };
        for unit in overdue {
            let exit = unit.overdue(now).expect("taken as overdue");
            sh.finish(unit, exit);
        }
        if stopping && !self.limits.drain_on_stop {
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
        // (or no worker left to run it) leaves too.
        let stranded = self.slots.iter().all(|s| s.live.is_none());
        let swept = self.running.len();
        let mut i = 0;
        while i < self.running.len() {
            let unit = &self.running[i];
            let exit = match unit.overdue(now) {
                Some(shed) => Some(shed),
                None if unit.work.done() => Some(Exit::Retired),
                None if stranded => Some(Exit::Failed(Failure::Lost(STRANDED.to_string()))),
                None => None,
            };
            match exit {
                Some(exit) => sh.finish(self.running.swap_remove(i), exit),
                None => i += 1,
            }
        }
        if stopping && self.running.is_empty() && left == 0 {
            return false;
        }
        // The sweep made room for units still waiting: admit them first.
        if self.running.len() < swept && left > 0 {
            return true;
        }
        if self.iteration(now, stopping) {
            return true;
        }
        let st = lock(&sh.state);
        if st.events == seen {
            let until = self
                .running
                .iter()
                .flat_map(|u| [u.not_before, u.deadline])
                .chain([st.pending.next_deadline()])
                .flatten()
                .min();
            drop(wait_until(&*sh.clock, &sh.wake, st, until));
        }
        true
    }

    /// One iteration: dispatch a step per eligible unit, collect every
    /// result the workers did not finish themselves (supervising the pool
    /// meanwhile), then advance, retry or fail each unit and relieve pool
    /// pressure. `false` when no unit was eligible.
    fn iteration(&mut self, now: Instant, stopping: bool) -> bool {
        let sh = self.shared.clone();
        // On stop, backoffs count as elapsed: the drain does not wait.
        let due = |u: &Unit<W>| stopping || u.not_before.is_none_or(|t| t <= now);
        let (mut go, stay): (Vec<_>, Vec<_>) = self.running.drain(..).partition(due);
        self.running = stay;
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
        // One shared job per live worker, so a pool keeps its parallelism.
        let sharers = go.iter().filter(|u| rank(u) == 1).count();
        let live = self.slots.iter().filter(|s| s.live.is_some()).count();
        let per_job = sharers.div_ceil(live.max(1));
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
        add(&sh.counters.steps, dispatched as u64);

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

        let policy = &self.limits.retry;
        let mut pressure = false;
        for StepResult {
            mut unit, outcome, ..
        } in results
        {
            let exit = match outcome {
                // Steps are left, or the worker would have finished it.
                Ok(()) => {
                    unit.attempts = 0;
                    unit.not_before = None;
                    unit.landed = true;
                    None
                }
                // Any failed step is rolled back, so none is half-applied.
                Err(failure) => {
                    bump(&sh.counters.rollbacks);
                    unit.work.rollback();
                    pressure |= matches!(failure, Failure::Pressure(_));
                    if !stopping
                        && failure.retryable(&policy.retry_on)
                        && unit.attempts + 1 < policy.max_attempts.max(1)
                    {
                        unit.attempts += 1;
                        unit.not_before = Some(done + policy.backoff_for(unit.attempts));
                        bump(&sh.counters.retries);
                        let id = unit.id;
                        relax_trace::instant("serve", || format!("retry:{id}"), || Payload::None);
                        None
                    } else {
                        Some(Exit::Failed(failure))
                    }
                }
            };
            match exit {
                Some(exit) => sh.finish(unit, exit),
                None => self.running.push(unit),
            }
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
            let depth = lock(&sh.state).pending.depth();
            sh.finish(self.running.swap_remove(victim), Exit::Evicted { depth });
        }
        span.finish();
        true
    }

    /// Replaces every worker that is mid-step with a stale heartbeat — it
    /// exits after the step in hand, whose result still counts — and
    /// returns when the next one could be declared wedged.
    fn supervise(&mut self) -> Instant {
        let (now, timeout) = (self.shared.clock.now(), self.limits.stall_timeout);
        let mut next_check = now + timeout;
        for idx in 0..self.slots.len() {
            let Some(worker) = &self.slots[idx].live else {
                continue;
            };
            let Some(wedged_at) = lock(&worker.flags.busy_since).map(|t| t + timeout) else {
                continue;
            };
            if wedged_at < now {
                worker.flags.retired.store(true, Ordering::Release);
                worker_instant(idx, WorkerEvent::Stall);
                self.replace(idx);
            } else {
                next_check = next_check.min(wedged_at);
            }
        }
        next_check
    }

    /// Sets the slot's incarnation aside (it is joined when the loop ends)
    /// and respawns a fresh one with fresh VMs, or quarantines the slot
    /// once its restart budget is spent. With the last slot gone, the
    /// steps nobody is left to run are reported lost so the iteration can
    /// end.
    fn replace(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some(old) = slot.live.take() else { return };
        self.replaced.push((idx, slot.generation, old.handle));
        if slot.generation < self.limits.restart_budget {
            slot.generation += 1;
            if let Some(faults) = &mut slot.faults {
                faults.vm = FaultPlan::new();
            }
            slot.live = Some(spawn_worker(
                &self.shared,
                idx,
                slot.generation,
                slot.faults.clone(),
            ));
            bump(&self.shared.counters.restarts);
            worker_instant(idx, WorkerEvent::Restart);
            return;
        }
        bump(&self.shared.counters.quarantined);
        worker_instant(idx, WorkerEvent::Quarantine);
        if self.slots.iter().all(|s| s.live.is_none()) {
            let orphans: Vec<Unit<W>> = lock(&self.shared.state).jobs.drain(..).flatten().collect();
            let lost = |unit| StepResult {
                unit,
                outcome: Err(Failure::Lost(STRANDED.to_string())),
                died: None,
            };
            self.shared.publish(orphans.into_iter().map(lost).collect());
        }
    }
}

const STRANDED: &str = "every worker slot is quarantined";

#[cfg(test)]
mod tests;
