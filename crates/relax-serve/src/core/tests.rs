//! The loop's ordering and accounting, observed through a toy [`Work`]
//! whose steps block on a gate the test opens one permit at a time. Time
//! is a [`ManualClock`]; nothing here sleeps, and every wait is guarded.

use std::sync::mpsc;

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_vm::{KvCache, KvCacheConfig, KvPagePool};

use super::*;
use crate::chaos::{silence_injected_panics, ManualClock};

/// Bounds the test, not the core: a wait this long is a failure.
const GUARD: Duration = Duration::from_secs(20);
/// An injected stall, in manual-clock time.
const STALL: Duration = Duration::from_millis(50);

#[derive(Default)]
struct Gate {
    /// Unit ids in the order their steps began.
    started: Vec<u64>,
    /// Steps each unit may still run.
    permits: HashMap<u64, u32>,
}

struct ToyModel {
    gate: Mutex<Gate>,
    moved: Condvar,
    pool: Arc<KvPagePool>,
}

impl ToyModel {
    fn permit(&self, id: u64, steps: u32) {
        *lock(&self.gate).permits.entry(id).or_default() += steps;
        self.moved.notify_all();
    }

    /// The ids of the first `n` steps to begin, once that many have.
    fn await_started(&self, n: usize) -> Vec<u64> {
        let waiting = |g: &mut Gate| g.started.len() < n;
        let gate = lock(&self.gate);
        let (gate, guard) = self.moved.wait_timeout_while(gate, GUARD, waiting).unwrap();
        assert!(!guard.timed_out(), "only {:?} started", gate.started);
        gate.started[..n].to_vec()
    }
}

/// A unit of `left` steps; each appends one token to a paged cache.
struct Toy {
    left: u32,
    cache: KvCache,
    /// `(left, cache lengths)` before the step in flight.
    pre: (u32, Vec<usize>),
    /// `(how it left, tokens its cache held)`.
    reply: mpsc::Sender<(&'static str, usize)>,
}

impl Work for Toy {
    type Model = ToyModel;
    type Vms = ();

    fn build_vms(_: &ToyModel, _: FaultPlan) {}

    fn telemetry(_: &()) -> (Telemetry, HashMap<String, KernelStat>) {
        Default::default()
    }

    fn done(&self) -> bool {
        self.left == 0
    }

    fn step(&mut self, id: u64, cx: StepCtx<'_, Self>) -> Result<(), VmError> {
        self.pre = (self.left, self.cache.lens());
        let mut gate = lock(&cx.model.gate);
        gate.started.push(id);
        cx.model.moved.notify_all();
        while gate.permits.get(&id).is_none_or(|&p| p == 0) {
            gate = cx.model.moved.wait(gate).unwrap();
        }
        *gate.permits.get_mut(&id).unwrap() -= 1;
        drop(gate);
        let row = NDArray::zeros(&[1, 1, 1, 2], DataType::F32);
        self.cache.append(0, &row).expect("unbounded pool");
        (cx.window)();
        self.left -= 1;
        Ok(())
    }

    fn rollback(&mut self) {
        self.left = self.pre.0;
        self.cache.truncate_to(&self.pre.1).expect("shrinks");
    }

    fn resolve(self, _: u64, exit: Exit, _: &ToyModel) {
        let how = match exit {
            Exit::Retired => "retired",
            Exit::Failed(_) => "failed",
            _ => "other",
        };
        let _ = self.reply.send((how, self.cache.len(0)));
    }
}

type Ticket = mpsc::Receiver<(&'static str, usize)>;

fn start(workers: usize, serving: FaultPlan, clock: &ManualClock) -> Core<Toy> {
    let model = ToyModel {
        gate: Mutex::default(),
        moved: Condvar::new(),
        pool: Arc::new(KvPagePool::unbounded(1)),
    };
    let limits = Limits {
        capacity: usize::MAX,
        overload: None,
        max_running: 8,
        retry: RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
        restart_budget: 4,
        stall_timeout: Duration::from_secs(3600),
        drain_on_stop: true,
    };
    let faults = WorkerFaults {
        vm: FaultPlan::new(),
        serving: Arc::new(Mutex::new(FaultInjector::new(serving))),
        stall: STALL,
    };
    Core::start(model, limits, vec![Some(faults); workers], clock.clock())
}

fn submit(core: &Core<Toy>, steps: u32) -> (u64, Ticket) {
    let cfg = KvCacheConfig {
        streams: 1,
        batch: 1,
        heads: 1,
        head_dim: 2,
        dtype: DataType::F32,
    };
    let (reply, ticket) = mpsc::channel();
    let toy = Toy {
        left: steps,
        cache: KvCache::new(cfg, core.model().pool.clone()),
        pre: (steps, Vec::new()),
        reply,
    };
    let id = core.next_id();
    assert!(core.submit(id, None, toy).is_ok());
    (id, ticket)
}

/// A blocker unit holds the first iteration open while `steps` are
/// submitted, so they all share the second one. Returns the tickets with
/// the blocker's last; no unit holds a permit yet.
fn one_iteration_of(core: &Core<Toy>, steps: &[u32]) -> Vec<(u64, Ticket)> {
    let blocker = submit(core, 1);
    core.model().await_started(1);
    let mut units: Vec<_> = steps.iter().map(|&n| submit(core, n)).collect();
    core.model().permit(blocker.0, 1);
    assert_eq!(blocker.1.recv_timeout(GUARD), Ok(("retired", 1)));
    units.push(blocker);
    units
}

#[test]
fn a_unit_is_finished_where_its_last_step_lands_not_at_the_barrier() {
    let mut core = start(2, FaultPlan::new(), &ManualClock::new());
    let units = one_iteration_of(&core, &[1, 2]);
    let ((one, one_ticket), (two, two_ticket)) = (&units[0], &units[1]);
    core.model().permit(*one, 1);
    assert_eq!(one_ticket.recv_timeout(GUARD), Ok(("retired", 1)));
    // The other unit of the same iteration is still held at the gate.
    let mut began = core.model().await_started(3)[1..].to_vec();
    began.sort();
    assert_eq!(began, [*one, *two]);
    assert_eq!(get(&core.counters().iterations), 1, "the barrier has not been reached");
    assert!(two_ticket.try_recv().is_err());
    core.model().permit(*two, 2);
    assert_eq!(two_ticket.recv_timeout(GUARD), Ok(("retired", 2)));
    core.stop();
    assert_eq!(get(&core.counters().iterations), 3);
    assert_eq!(get(&core.counters().retired), 3);
}

#[test]
fn an_iteration_hands_first_steps_to_the_worker_first() {
    let mut core = start(1, FaultPlan::new(), &ManualClock::new());
    let units = one_iteration_of(&core, &[3, 3]);
    let (a, b) = (units[0].0, units[1].0);
    // Iteration 2 lands a step of each; iteration 3 opens and blocks.
    core.model().permit(a, 1);
    core.model().permit(b, 1);
    core.model().await_started(4);
    let (fresh, fresh_ticket) = submit(&core, 1);
    core.model().permit(a, 2);
    core.model().permit(b, 2);
    core.model().permit(fresh, 1);
    // Iteration 4 holds two running units and the fresh one, admitted last.
    let order = core.model().await_started(8);
    assert_eq!(order[3..5], [a, b]);
    assert_eq!(order[5..], [fresh, a, b]);
    assert_eq!(fresh_ticket.recv_timeout(GUARD), Ok(("retired", 1)));
    for (_, ticket) in &units[..2] {
        assert_eq!(ticket.recv_timeout(GUARD), Ok(("retired", 3)));
    }
    core.stop();
    assert_eq!(get(&core.counters().iterations), 4);
}

/// One worker, so the schedule is exact: of the four one-step units of
/// iteration 2, the first has its reply dropped, the second stalls, the
/// third panics and the fourth runs on the respawned worker.
#[test]
fn accounting_survives_early_finishers_among_lost_stalled_and_dropped_steps() {
    silence_injected_panics();
    let clock = ManualClock::new();
    let faults = FaultPlan::new()
        .drop_reply(2)
        .stall_worker(3, STALL)
        .fail_worker_panic(4);
    let mut core = start(1, faults, &clock);
    let pool = core.model().pool.clone();
    let units = one_iteration_of(&core, &[1, 1, 1, 1]);
    let resolved = |i: usize| units[i].1.recv_timeout(GUARD);
    core.model().permit(units[0].0, 2);
    core.model().permit(units[1].0, 1);
    clock.await_sleepers(1);
    // The dropped reply wins over a step that landed and left its unit
    // done: the unit waits for the loop, which will roll it back.
    assert!(units[0].1.try_recv().is_err());
    clock.advance(STALL);
    assert_eq!(resolved(1), Ok(("retired", 1)));
    assert_eq!(get(&core.counters().iterations), 1, "the barrier has not been reached");
    assert!(units[0].1.try_recv().is_err());
    core.model().permit(units[2].0, 2);
    core.model().permit(units[3].0, 1);
    for i in [0, 2, 3] {
        // One token, not two: a retried step is not applied twice.
        assert_eq!(resolved(i), Ok(("retired", 1)), "unit {i}");
    }
    core.stop();
    let c = core.counters();
    let left = get(&c.retired) + get(&c.evicted) + get(&c.failed) + get(&c.shed);
    assert_eq!((get(&c.submitted), left, get(&c.retired)), (5, 5, 5));
    assert_eq!((get(&c.replies_dropped), get(&c.worker_panics)), (1, 1));
    assert_eq!((get(&c.rollbacks), get(&c.retries), get(&c.restarts)), (2, 2, 1));
    assert_eq!(get(&c.iterations), 3);
    let stats = pool.stats();
    assert!(stats.reconciles() && stats.in_use == 0, "{stats:?}");
}
