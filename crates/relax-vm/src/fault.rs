//! Deterministic fault injection for the VM and the serving layer.
//!
//! Robustness claims are only as good as the error paths that back them,
//! and error paths are exactly the code that ordinary test workloads never
//! execute. This module lets a test (or a chaos-testing harness) schedule
//! failures at precise points of an execution: *the Nth allocation*, *the
//! Nth kernel call*, or *the Nth runtime shape check* across the lifetime
//! of a [`crate::Vm`]. Injection is fully deterministic — the same plan
//! against the same executable and inputs fails at the same instruction —
//! so every test failure reproduces.
//!
//! Injected VM faults surface as ordinary [`crate::VmError`]s (an
//! allocation fault becomes `StorageOverflow`, a kernel fault `Kernel`, a
//! shape-check fault `ShapeCheck`), carrying the same frame trace real
//! failures would, which is what makes them usable for exercising
//! recovery logic end to end.
//!
//! Beyond the VM, the same schedule language covers the *serving* layer
//! (`relax-serve`), whose failure modes are not VM errors at all: a
//! worker thread panicking mid-request ([`FaultSite::WorkerPanic`]), a
//! worker wedging without making progress ([`FaultSite::WorkerStall`],
//! carrying the stall duration), and a reply channel silently lost
//! ([`FaultSite::ReplyDrop`]). Those sites count *requests handled by a
//! worker*, and the serving engine consumes them with its own
//! [`FaultInjector`] — [`FaultPlan::split_serving`] partitions one plan
//! into the VM half and the serving half.

use std::fmt;
use std::time::Duration;

/// A point in execution where a fault can be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Memory allocation: `AllocTensor`, `AllocStorage` growth, and
    /// overflow-fallback pool allocations.
    Alloc,
    /// Kernel invocation: `CallTir`, `CallLib` and `CallBuiltin`.
    Kernel,
    /// A runtime shape check (`MatchShape` instruction).
    ShapeCheck,
    /// Serving layer: the worker thread panics while handling a request
    /// (exercises panic containment and supervision, never the VM).
    WorkerPanic,
    /// Serving layer: the worker wedges (sleeps) before handling a
    /// request, long enough for heartbeat monitoring to notice.
    WorkerStall,
    /// Serving layer: the worker drops the request's reply channel
    /// without answering — the client-visible "lost reply".
    ReplyDrop,
}

impl FaultSite {
    /// `true` for sites consumed by the serving engine's per-worker
    /// injector rather than the VM (they count requests, not VM events).
    pub fn is_serving(self) -> bool {
        matches!(
            self,
            FaultSite::WorkerPanic | FaultSite::WorkerStall | FaultSite::ReplyDrop
        )
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Alloc => f.write_str("allocation"),
            FaultSite::Kernel => f.write_str("kernel call"),
            FaultSite::ShapeCheck => f.write_str("shape check"),
            FaultSite::WorkerPanic => f.write_str("worker panic"),
            FaultSite::WorkerStall => f.write_str("worker stall"),
            FaultSite::ReplyDrop => f.write_str("reply drop"),
        }
    }
}

/// One scheduled fault: the site, the 1-based occurrence index at which
/// it fires, and (for [`FaultSite::WorkerStall`]) how long to stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    site: FaultSite,
    nth: u64,
    stall: Option<Duration>,
}

/// A schedule of faults to inject: (site, 1-based occurrence index)
/// pairs. Counters span the injector's lifetime, not a single `run`
/// call, so a plan can target "the third allocation of the second run"
/// — or "the fifth request this worker handles".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    scheduled: Vec<Scheduled>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a failure of the `nth` (1-based) event at `site`.
    pub fn fail_at(mut self, site: FaultSite, nth: u64) -> Self {
        self.scheduled.push(Scheduled {
            site,
            nth: nth.max(1),
            stall: None,
        });
        self
    }

    /// Schedules the `nth` allocation to fail.
    pub fn fail_alloc(self, nth: u64) -> Self {
        self.fail_at(FaultSite::Alloc, nth)
    }

    /// Schedules the `nth` kernel call to fail.
    pub fn fail_kernel(self, nth: u64) -> Self {
        self.fail_at(FaultSite::Kernel, nth)
    }

    /// Schedules the `nth` runtime shape check to fail.
    pub fn fail_shape_check(self, nth: u64) -> Self {
        self.fail_at(FaultSite::ShapeCheck, nth)
    }

    /// Schedules the worker to panic on its `nth` handled request.
    pub fn fail_worker_panic(self, nth: u64) -> Self {
        self.fail_at(FaultSite::WorkerPanic, nth)
    }

    /// Schedules the worker to stall for `stall` before its `nth`
    /// handled request.
    pub fn stall_worker(mut self, nth: u64, stall: Duration) -> Self {
        self.scheduled.push(Scheduled {
            site: FaultSite::WorkerStall,
            nth: nth.max(1),
            stall: Some(stall),
        });
        self
    }

    /// Schedules the worker to drop the reply channel of its `nth`
    /// handled request without answering.
    pub fn drop_reply(self, nth: u64) -> Self {
        self.fail_at(FaultSite::ReplyDrop, nth)
    }

    /// `true` if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.scheduled.len()
    }

    /// Splits the plan into `(vm_plan, serving_plan)`: VM sites
    /// (allocation / kernel / shape check) in the first half, serving
    /// sites (worker panic / stall / reply drop) in the second. The
    /// serving engine installs the first on the worker's `Vm` and
    /// consumes the second with its own per-worker injector.
    pub fn split_serving(self) -> (FaultPlan, FaultPlan) {
        let (serving, vm): (Vec<_>, Vec<_>) = self
            .scheduled
            .into_iter()
            .partition(|s| s.site.is_serving());
        (
            FaultPlan { scheduled: vm },
            FaultPlan { scheduled: serving },
        )
    }
}

/// A fault that fired: its site and, for a worker stall, the duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Where the fault fired.
    pub site: FaultSite,
    /// Stall duration ([`FaultSite::WorkerStall`] only).
    pub stall: Option<Duration>,
}

/// Executes a [`FaultPlan`]: counts events per site and reports when a
/// scheduled fault fires. Each scheduled fault fires exactly once.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Events seen so far per site, indexed by [`FaultInjector::slot`].
    counts: [u64; 6],
    /// Which scheduled entries have already fired.
    fired: Vec<bool>,
}

impl FaultInjector {
    /// Creates an injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.scheduled.len()];
        FaultInjector {
            plan,
            counts: [0; 6],
            fired,
        }
    }

    fn slot(site: FaultSite) -> usize {
        match site {
            FaultSite::Alloc => 0,
            FaultSite::Kernel => 1,
            FaultSite::ShapeCheck => 2,
            FaultSite::WorkerPanic => 3,
            FaultSite::WorkerStall => 4,
            FaultSite::ReplyDrop => 5,
        }
    }

    /// Records one event at `site`; returns the fired fault (with its
    /// stall payload) when a scheduled fault fires on this event.
    pub fn check(&mut self, site: FaultSite) -> Option<FiredFault> {
        let slot = Self::slot(site);
        self.counts[slot] += 1;
        let count = self.counts[slot];
        let mut hit = None;
        for (i, s) in self.plan.scheduled.iter().enumerate() {
            if s.site == site && s.nth == count && !self.fired[i] {
                self.fired[i] = true;
                hit.get_or_insert(FiredFault {
                    site,
                    stall: s.stall,
                });
            }
        }
        hit
    }

    /// Records one event at `site`; returns `true` when a scheduled fault
    /// fires on this event.
    pub fn on_event(&mut self, site: FaultSite) -> bool {
        self.check(site).is_some()
    }

    /// Number of events observed at a site so far.
    pub fn events(&self, site: FaultSite) -> u64 {
        self.counts[Self::slot(site)]
    }

    /// `true` once every scheduled fault has fired.
    pub fn exhausted(&self) -> bool {
        self.fired.iter().all(|f| *f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_the_scheduled_event() {
        let mut inj = FaultInjector::new(FaultPlan::new().fail_alloc(3));
        assert!(!inj.on_event(FaultSite::Alloc)); // 1st
        assert!(!inj.on_event(FaultSite::Kernel)); // other site
        assert!(!inj.on_event(FaultSite::Alloc)); // 2nd
        assert!(inj.on_event(FaultSite::Alloc)); // 3rd fires
        assert!(!inj.on_event(FaultSite::Alloc)); // does not re-fire
        assert!(inj.exhausted());
        assert_eq!(inj.events(FaultSite::Alloc), 4);
    }

    #[test]
    fn sites_count_independently() {
        let mut inj = FaultInjector::new(FaultPlan::new().fail_kernel(1).fail_shape_check(2));
        assert!(inj.on_event(FaultSite::Kernel));
        assert!(!inj.on_event(FaultSite::ShapeCheck));
        assert!(!inj.on_event(FaultSite::Alloc));
        assert!(inj.on_event(FaultSite::ShapeCheck));
        assert!(inj.exhausted());
    }

    #[test]
    fn zeroth_occurrence_clamps_to_first() {
        let mut inj = FaultInjector::new(FaultPlan::new().fail_at(FaultSite::Alloc, 0));
        assert!(inj.on_event(FaultSite::Alloc));
    }

    #[test]
    fn stall_fault_carries_its_duration() {
        let d = Duration::from_millis(25);
        let mut inj = FaultInjector::new(FaultPlan::new().stall_worker(2, d));
        assert_eq!(inj.check(FaultSite::WorkerStall), None);
        let fired = inj.check(FaultSite::WorkerStall).expect("2nd fires");
        assert_eq!(fired.site, FaultSite::WorkerStall);
        assert_eq!(fired.stall, Some(d));
        assert!(inj.exhausted());
    }

    #[test]
    fn split_serving_partitions_sites() {
        let plan = FaultPlan::new()
            .fail_kernel(1)
            .fail_worker_panic(2)
            .stall_worker(3, Duration::from_millis(1))
            .drop_reply(4)
            .fail_alloc(5);
        let (vm, serving) = plan.split_serving();
        assert_eq!(vm.len(), 2);
        assert_eq!(serving.len(), 3);
        assert!(vm.scheduled.iter().all(|s| !s.site.is_serving()));
        assert!(serving.scheduled.iter().all(|s| s.site.is_serving()));
    }

    #[test]
    fn serving_sites_do_not_perturb_vm_counters() {
        // A combined plan run through the VM half only fires VM sites.
        let (vm_plan, _) = FaultPlan::new()
            .fail_kernel(1)
            .fail_worker_panic(1)
            .split_serving();
        let mut inj = FaultInjector::new(vm_plan);
        assert!(inj.on_event(FaultSite::Kernel));
        assert!(inj.exhausted());
    }
}
