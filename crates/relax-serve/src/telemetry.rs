//! Engine-level observability: the request view of the core's counters,
//! latency percentiles and per-worker VM snapshots.

use std::collections::HashMap;

use relax_vm::{KernelStat, PlanCacheStats, Telemetry};

use crate::engine::AdmissionLevel;

/// Nearest-rank percentile over a **sorted** slice of nanosecond samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bounded, seeded reservoir of latency samples (Vitter's Algorithm R).
///
/// A long-running engine completes requests forever; an unbounded `Vec`
/// of per-request latencies is a slow memory leak and makes every
/// `stats()` call O(completed). The reservoir keeps a uniform random
/// sample of fixed capacity — O(1) memory, O(capacity) per stats call —
/// while still counting every observation. The replacement RNG is a
/// seeded xorshift so two identical runs sample identically.
#[derive(Debug, Clone)]
pub(crate) struct LatencyReservoir {
    samples: Vec<u64>,
    capacity: usize,
    /// Total observations (including ones not retained).
    seen: u64,
    rng: u64,
}

impl LatencyReservoir {
    pub(crate) fn new(capacity: usize, seed: u64) -> Self {
        LatencyReservoir {
            samples: Vec::new(),
            capacity: capacity.max(1),
            seen: 0,
            rng: seed | 1,
        }
    }

    fn next_rng(&mut self) -> u64 {
        // xorshift64*: cheap, deterministic, good enough for sampling.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Records one observation, keeping the reservoir uniform over
    /// everything seen so far.
    pub(crate) fn push(&mut self, sample: u64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
            return;
        }
        let j = (self.next_rng() % self.seen) as usize;
        if j < self.capacity {
            self.samples[j] = sample;
        }
    }

    /// The retained samples.
    pub(crate) fn into_samples(self) -> Vec<u64> {
        self.samples
    }

    /// Summarises the current reservoir. `count` is the total number of
    /// observations; the percentiles are estimated from the retained
    /// sample.
    pub(crate) fn summary(&self) -> LatencySummary {
        let mut samples = self.samples.clone();
        let mut s = LatencySummary::from_samples(&mut samples);
        s.count = self.seen;
        s
    }
}

/// End-to-end request latency distribution (enqueue → reply), nanoseconds.
///
/// `count` is the number of completed requests observed; when the engine's
/// bounded latency reservoir has overflowed, the percentiles are estimated
/// from a uniform sample rather than the full population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Completed requests observed.
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarises a set of latency samples (order irrelevant).
    pub(crate) fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        LatencySummary {
            count: samples.len() as u64,
            p50_ns: percentile(samples, 50.0),
            p95_ns: percentile(samples, 95.0),
            p99_ns: percentile(samples, 99.0),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }
}

/// A point-in-time view of the engine: queue state, admission and
/// completion counters, batching effectiveness, self-healing activity,
/// the aggregate plan-cache view and the latency distribution so far.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests currently queued (admitted, not yet in an iteration).
    pub queue_depth: usize,
    /// Queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// The admission level the overload watermarks currently dictate.
    pub admission: AdmissionLevel,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused because the queue was full.
    pub rejected_full: u64,
    /// Requests refused by overload control (reject-new watermark).
    pub rejected_overload: u64,
    /// Requests shed because their deadline passed before execution, or
    /// because overload control evicted them to admit later-deadline
    /// work (see `shed_overload` for that split).
    pub timed_out: u64,
    /// Of `timed_out`: queued requests evicted by overload control.
    pub shed_overload: u64,
    /// Requests that ran and replied successfully.
    pub completed: u64,
    /// Requests that resolved with an error after executing (VM faults,
    /// lost workers, dropped replies, shutdown flushes).
    pub failed: u64,
    /// Of `failed`: replies dropped by an injected `ReplyDrop` fault.
    pub replies_dropped: u64,
    /// Retry attempts granted under the engine's [`crate::RetryPolicy`].
    pub retries: u64,
    /// Workers respawned after a panic or a stall.
    pub restarts: u64,
    /// Worker slots quarantined after exhausting their restart budget.
    pub quarantined: u64,
    /// Scheduler iterations: each dispatches the requests in flight (up
    /// to `workers × max_batch`) to the pool as one batch.
    pub batches: u64,
    /// Requests that shared an iteration with another — executed steps
    /// minus `batches`; `0` when every request runs alone.
    pub batched_extra: u64,
    /// Aggregate plan-cache counters across every worker sharing the
    /// cache (hit rate here is the *cross-worker* rate).
    pub plan_cache: PlanCacheStats,
    /// End-to-end latency distribution of completed requests.
    pub latency: LatencySummary,
}

/// How a worker incarnation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerExit {
    /// The queue closed and drained; the worker exited normally.
    Drained,
    /// The worker panicked while handling a request. The panic was
    /// contained; the in-flight request resolved typed.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The scheduler declared the worker wedged and replaced it; the
    /// original finished the step it held and exited.
    Retired,
}

impl WorkerExit {
    /// `true` for the normal end-of-life exit.
    pub fn is_clean(&self) -> bool {
        matches!(self, WorkerExit::Drained)
    }
}

/// Final snapshot of one worker *incarnation* returned by
/// [`crate::ServeEngine::shutdown`]. A slot that was respawned
/// contributes one report per generation.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker slot index (stable across respawns).
    pub worker: usize,
    /// Incarnation number within the slot (0 = original).
    pub generation: u32,
    /// How this incarnation ended.
    pub exit: WorkerExit,
    /// Requests this incarnation picked up.
    pub requests: u64,
    /// The worker VM's execution counters.
    pub telemetry: Telemetry,
    /// The worker VM's per-kernel compile/run split.
    pub kernel_stats: HashMap<String, KernelStat>,
}

/// Everything the engine knows at shutdown: the final [`EngineStats`]
/// plus one [`WorkerReport`] per worker incarnation (respawned slots
/// report every generation).
#[derive(Debug, Clone)]
pub struct EngineReport {
    pub stats: EngineStats,
    pub workers: Vec<WorkerReport>,
}

impl EngineReport {
    /// Total kernel-plan compilations (plan-cache misses) across all
    /// workers. With a shared cache and `k` cold keys this stays near `k`
    /// no matter how many workers run; with private caches it approaches
    /// `k × workers`.
    pub fn total_plan_compiles(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.telemetry.plan_cache_misses)
            .sum()
    }

    /// Number of worker slots whose *final* incarnation drained the
    /// queue and exited cleanly — the pool strength at shutdown. Equal
    /// to the configured worker count when supervision healed every
    /// failure (no slot quarantined, no worker still wedged).
    pub fn slots_drained(&self) -> usize {
        let mut last: HashMap<usize, &WorkerReport> = HashMap::new();
        for w in &self.workers {
            match last.get(&w.worker) {
                Some(prev) if prev.generation >= w.generation => {}
                _ => {
                    last.insert(w.worker, w);
                }
            }
        }
        last.values().filter(|w| w.exit.is_clean()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
    }

    #[test]
    fn empty_sample_is_all_zero() {
        let s = LatencySummary::from_samples(&mut Vec::new());
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut samples = vec![42];
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns), (42, 42, 42, 42));
    }

    #[test]
    fn reservoir_is_bounded_and_counts_everything() {
        let mut r = LatencyReservoir::new(8, 0xDEADBEEF);
        for i in 0..1000u64 {
            r.push(i);
        }
        assert_eq!(r.samples.len(), 8, "memory stays O(capacity)");
        assert_eq!(r.seen, 1000);
        let s = r.summary();
        assert_eq!(s.count, 1000, "count reflects the population");
        assert!(s.max_ns < 1000);
    }

    #[test]
    fn reservoir_below_capacity_keeps_exact_samples() {
        let mut r = LatencyReservoir::new(64, 1);
        for i in 1..=10u64 {
            r.push(i);
        }
        let s = r.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.p50_ns, 5);
        assert_eq!(s.max_ns, 10);
    }

    #[test]
    fn reservoir_sampling_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut r = LatencyReservoir::new(4, seed);
            for i in 0..500u64 {
                r.push(i);
            }
            r.summary()
        };
        assert_eq!(run(7), run(7), "same seed, same sample");
    }

    #[test]
    fn slots_drained_uses_the_final_generation() {
        let mk = |worker, generation, exit| WorkerReport {
            worker,
            generation,
            exit,
            requests: 0,
            telemetry: Telemetry::default(),
            kernel_stats: HashMap::new(),
        };
        let report = EngineReport {
            stats: EngineStats::default(),
            workers: vec![
                mk(0, 0, WorkerExit::Panicked { message: "boom".into() }),
                mk(0, 1, WorkerExit::Drained),
                mk(1, 0, WorkerExit::Drained),
                mk(2, 0, WorkerExit::Panicked { message: "boom".into() }),
            ],
        };
        // Slot 0 healed (gen 1 drained), slot 1 never failed, slot 2's
        // final incarnation died.
        assert_eq!(report.slots_drained(), 2);
    }
}
