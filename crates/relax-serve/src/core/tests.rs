//! The loop's ordering, grouping and accounting, observed through a toy
//! [`Work`] whose steps block on a gate the test opens one permit at a
//! time and which records the units of every step. Time is a
//! [`ManualClock`]; nothing here sleeps, and every wait is guarded.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{mpsc, PoisonError};

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
    /// The units of every step, in the order the steps began.
    groups: Vec<Vec<u64>>,
    /// Steps each unit may still run.
    permits: HashMap<u64, u32>,
    /// The test is over: every step may run.
    open: bool,
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
    /// Its steps can be shared with other units'.
    shares: bool,
    cache: KvCache,
    /// Cache lengths before the step in flight.
    pre: Vec<usize>,
    /// `(how it left, tokens its cache held)`.
    reply: mpsc::Sender<(&'static str, usize)>,
}

impl Work for Toy {
    type Model = ToyModel;
    type Vms = ();

    fn build_vms(_: &ToyModel, _: FaultPlan) {}

    fn done(&self) -> bool {
        self.left == 0
    }

    fn shares(&self) -> bool {
        self.shares
    }

    /// Begins once for the whole group (`started` gets its ids in a row),
    /// takes a permit of every member, appends a token to the stack of
    /// their caches and opens the fault window once.
    fn step(group: &mut [(u64, &mut Self)], cx: StepCtx<'_, Self>) -> Result<(), VmError> {
        let mut gate = lock(&cx.model.gate);
        gate.started.extend(group.iter().map(|(id, _)| *id));
        gate.groups.push(group.iter().map(|(id, _)| *id).collect());
        cx.model.moved.notify_all();
        for (id, toy) in group.iter_mut() {
            toy.pre = toy.cache.lens();
            while !gate.open && gate.permits.get(id).is_none_or(|&p| p == 0) {
                gate = cx
                    .model
                    .moved
                    .wait(gate)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if !gate.open {
                *gate.permits.get_mut(id).unwrap() -= 1;
            }
        }
        drop(gate);
        let caches: Vec<KvCache> = group.iter().map(|(_, toy)| toy.cache.clone()).collect();
        let rows = NDArray::zeros(&[caches.len(), 1, 1, 2], DataType::F32);
        let stack = KvCache::stack(&caches).expect("distinct caches of one pool");
        stack.append(0, &rows).expect("unbounded pool");
        (cx.window)();
        Ok(())
    }

    fn commit(&mut self, _: &Counters) {
        self.left -= 1;
    }

    fn rollback(&mut self) {
        self.cache.truncate_to(&self.pre).expect("shrinks");
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

/// The core under test. Its drop opens the gate before the core's own drop
/// joins the workers, so a test whose assertion trips while a step is
/// parked at the gate fails instead of hanging.
struct Served(Core<Toy>);

impl Drop for Served {
    fn drop(&mut self) {
        let model = self.0.model();
        lock(&model.gate).open = true;
        model.moved.notify_all();
    }
}

impl Deref for Served {
    type Target = Core<Toy>;

    fn deref(&self) -> &Core<Toy> {
        &self.0
    }
}

impl DerefMut for Served {
    fn deref_mut(&mut self) -> &mut Core<Toy> {
        &mut self.0
    }
}

fn start(workers: usize, serving: FaultPlan, clock: &ManualClock) -> Served {
    let model = ToyModel {
        gate: Mutex::default(),
        moved: Condvar::new(),
        pool: Arc::new(KvPagePool::unbounded(1)),
    };
    let limits = Limits {
        max_running: 8,
        max_attempts: 2,
    };
    let faults = WorkerFaults {
        vm: FaultPlan::new(),
        serving: Arc::new(Mutex::new(FaultInjector::new(serving))),
    };
    Served(Core::start(model, limits, workers, faults, clock.clock()))
}

fn submit(core: &Core<Toy>, steps: u32) -> (u64, Ticket) {
    submit_as(core, steps, false)
}

fn submit_as(core: &Core<Toy>, steps: u32, shares: bool) -> (u64, Ticket) {
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
        shares,
        cache: KvCache::new(cfg, core.model().pool.clone()),
        pre: Vec::new(),
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
    let units: Vec<_> = steps.iter().map(|&n| (n, false)).collect();
    one_iteration_of_units(core, &units)
}

/// [`one_iteration_of`] for `(steps, shares)` units.
fn one_iteration_of_units(core: &Core<Toy>, units: &[(u32, bool)]) -> Vec<(u64, Ticket)> {
    let blocker = submit(core, 1);
    core.model().await_started(1);
    let mut units: Vec<_> = units
        .iter()
        .map(|&(n, shares)| submit_as(core, n, shares))
        .collect();
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
    assert_eq!(
        get(&core.counters().iterations),
        1,
        "the barrier has not been reached"
    );
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
    assert_eq!(
        get(&core.counters().iterations),
        1,
        "the barrier has not been reached"
    );
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
    assert_eq!(
        (get(&c.rollbacks), get(&c.retries), get(&c.restarts)),
        (2, 2, 1)
    );
    assert_eq!(get(&c.iterations), 3);
    let stats = pool.stats();
    assert!(stats.reconciles() && stats.in_use == 0, "{stats:?}");
}

/// The identity every unit's exit feeds exactly one term of.
fn assert_all_accounted(core: &Core<Toy>, submitted: u64) {
    let c = core.counters();
    let left = get(&c.retired) + get(&c.evicted) + get(&c.failed) + get(&c.shed);
    assert_eq!((get(&c.submitted), left), (submitted, submitted));
}

/// Two workers, so which unit lands first is open and only the shape of an
/// iteration is fixed: its sharers in `ceil(n / workers)`-unit jobs, one
/// per worker, everything else alone — and nothing shares its first step.
#[test]
fn sharers_form_one_job_per_live_worker_and_the_rest_run_alone() {
    let mut core = start(2, FaultPlan::new(), &ManualClock::new());
    let shape = [
        (3, true),
        (2, true),
        (3, true),
        (3, true),
        (3, true),
        (3, false),
        (3, false),
    ];
    let units = one_iteration_of_units(&core, &shape);
    let sharer = |id: &u64| {
        units
            .iter()
            .zip(&shape)
            .any(|((u, _), (_, shares))| u == id && *shares)
    };
    for ((id, _), (steps, _)) in units.iter().zip(&shape) {
        core.model().permit(*id, *steps);
    }
    for ((_, ticket), (steps, _)) in units.iter().zip(&shape) {
        assert_eq!(ticket.recv_timeout(GUARD), Ok(("retired", *steps as usize)));
    }
    core.stop();
    let groups = lock(&core.model().gate).groups.clone();
    // Sorted job sizes of the steps `range` of the log.
    let sizes = |range: std::ops::Range<usize>| {
        let mut sizes: Vec<usize> = groups[range].iter().map(Vec::len).collect();
        sizes.sort();
        sizes
    };
    // The blocker, then every unit's first step alone.
    assert_eq!(sizes(0..8), [1; 8]);
    // Five sharers over two workers, then the four that have a step left.
    assert_eq!(sizes(8..12), [1, 1, 2, 3]);
    assert_eq!(sizes(12..16), [1, 1, 2, 2]);
    assert_eq!(groups.len(), 16);
    for group in groups.iter().filter(|g| g.len() > 1) {
        assert!(
            group.iter().all(sharer),
            "{group:?} holds a unit that shares nothing"
        );
    }
    assert_eq!(get(&core.counters().iterations), 4);
    assert_all_accounted(&core, 8);
}

/// One worker: the shared step of `a` and `b` lands, then `c`'s is held at
/// the gate. `a` had no step left and has resolved by then; `b` has one
/// and waits for the barrier with `c`.
#[test]
fn a_member_that_finishes_inside_a_shared_step_resolves_on_the_worker() {
    let mut core = start(1, FaultPlan::new(), &ManualClock::new());
    let units = one_iteration_of_units(&core, &[(2, true), (3, true), (2, false)]);
    let [(a, a_ticket), (b, b_ticket), (c, c_ticket), _] = &units[..] else {
        unreachable!("three units and the blocker");
    };
    for id in [a, b, c] {
        core.model().permit(*id, 1);
    }
    // The blocker, the three first steps alone, then `a` and `b` together.
    assert_eq!(core.model().await_started(6)[4..], [*a, *b]);
    core.model().permit(*a, 1);
    core.model().permit(*b, 1);
    assert_eq!(a_ticket.recv_timeout(GUARD), Ok(("retired", 2)));
    assert_eq!(core.model().await_started(7)[6], *c);
    assert_eq!(
        get(&core.counters().iterations),
        2,
        "the barrier has not been reached"
    );
    assert!(b_ticket.try_recv().is_err());
    core.model().permit(*c, 1);
    core.model().permit(*b, 1);
    assert_eq!(b_ticket.recv_timeout(GUARD), Ok(("retired", 3)));
    assert_eq!(c_ticket.recv_timeout(GUARD), Ok(("retired", 2)));
    core.stop();
    let groups = lock(&core.model().gate).groups.clone();
    assert_eq!(groups[4..], [vec![*a, *b], vec![*c], vec![*b]]);
    assert_eq!(get(&core.counters().iterations), 4);
    assert_all_accounted(&core, 4);
}

/// One worker, so the schedule is exact. Fault windows open once per step:
/// the blocker's is the first, the three first steps are 2 to 4, the shared
/// second step is the 5th and panics. All three are rolled back and charged
/// an attempt, so the retries (windows 6 to 8) run one by one; `b`'s
/// panics again. That is `b`'s second attempt and nobody else's: `a` and
/// `c` landed, share their third step, and `b` retries alone once more.
#[test]
fn a_failed_shared_step_charges_every_member_and_is_retried_one_by_one() {
    silence_injected_panics();
    let faults = FaultPlan::new().fail_worker_panic(5).fail_worker_panic(7);
    let mut core = start(1, faults, &ManualClock::new());
    let pool = core.model().pool.clone();
    let units = one_iteration_of_units(&core, &[(3, true), (3, true), (3, true)]);
    let (a, b, c) = (units[0].0, units[1].0, units[2].0);
    for id in [a, b, c] {
        // A step a panic interrupts has taken its permit.
        core.model().permit(id, 5);
    }
    for (_, ticket) in &units[..3] {
        // Three tokens each: no failed step left one behind.
        assert_eq!(ticket.recv_timeout(GUARD), Ok(("retired", 3)));
    }
    core.stop();
    let groups = lock(&core.model().gate).groups.clone();
    let blocker = units[3].0;
    let expected: [&[u64]; 11] = [
        &[blocker],
        &[a],
        &[b],
        &[c],
        &[a, b, c], // panics
        &[a],
        &[b], // panics
        &[c],
        &[a, c],
        &[b],
        &[b],
    ];
    assert_eq!(groups, expected);
    let counters = core.counters();
    assert_eq!(
        (get(&counters.worker_panics), get(&counters.restarts)),
        (2, 2)
    );
    assert_eq!((get(&counters.rollbacks), get(&counters.retries)), (4, 4));
    assert_eq!(get(&counters.retired), 4);
    assert_all_accounted(&core, 4);
    let stats = pool.stats();
    assert!(stats.reconciles() && stats.in_use == 0, "{stats:?}");
}

/// One worker whose first step stalls for two hours: well past any stall
/// timeout the loop replaces it, the replacement runs what is left, and the
/// wedged step still lands and counts once its stall ends.
#[test]
fn a_wedged_worker_is_replaced_and_its_step_still_counts() {
    let clock = ManualClock::new();
    let hours = |h: u64| Duration::from_secs(3600 * h);
    let mut core = start(1, FaultPlan::new().stall_worker(1, hours(2)), &clock);
    let units: Vec<_> = (0..3).map(|_| submit(&core, 1)).collect();
    for (id, _) in &units {
        core.model().permit(*id, 1);
    }
    clock.await_sleepers(1);
    clock.advance(hours(1) + Duration::from_secs(1));
    let guard = Instant::now() + GUARD;
    while get(&core.counters().restarts) != 1 {
        assert!(
            Instant::now() < guard,
            "the wedged worker was never replaced"
        );
        std::thread::yield_now();
    }
    clock.advance(hours(2));
    for (_, ticket) in &units {
        assert_eq!(ticket.recv_timeout(GUARD), Ok(("retired", 1)));
    }
    core.stop();
    assert_eq!(get(&core.counters().restarts), 1);
    assert_all_accounted(&core, 3);
}

/// A step is parked at the gate when an assertion trips: the test must fail,
/// not hang joining the parked worker.
#[test]
#[should_panic(expected = "tripped while parked")]
fn a_failed_assertion_while_a_step_is_parked_fails_instead_of_hanging() {
    let core = start(1, FaultPlan::new(), &ManualClock::new());
    let (id, _ticket) = submit(&core, 1);
    assert_eq!(core.model().await_started(1), [id]);
    assert_eq!(get(&core.counters().retired), 1, "tripped while parked");
}
