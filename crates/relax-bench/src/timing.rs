//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds fully offline, so the `criterion` dependency was
//! replaced with this plain [`std::time::Instant`] loop: warm up, run a
//! fixed number of timed batches, report the median batch time per
//! iteration. Numbers are indicative, not statistically rigorous — the
//! performance claims of the reproduction come from `relax-sim`, not from
//! host wall clock.

use std::time::{Duration, Instant};

/// Number of timed batches per benchmark.
const BATCHES: usize = 15;
/// Target wall time per batch, used to size iteration counts.
const BATCH_TARGET: Duration = Duration::from_millis(20);

/// Times `f`, printing `name ... median ns/iter (iters)` criterion-style,
/// and returns the median ns/iter so callers can compute speedups or emit
/// machine-readable reports.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the work cannot be optimized away.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    // Calibration: how many iterations fill one batch?
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (BATCH_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

    // Warm-up batch.
    for _ in 0..iters {
        std::hint::black_box(f());
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = per_iter[per_iter.len() / 2];
    println!("{name:<40} {median:>12.0} ns/iter  ({iters} iters/batch)");
    median
}

/// Like [`bench()`], but rebuilds the input with `setup` outside the timed
/// region before each measured call (for consuming workloads). Returns the
/// median ns per call.
pub fn bench_with_setup<S, T>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let mut per_iter: Vec<f64> = Vec::with_capacity(BATCHES);
    // One warm-up call.
    std::hint::black_box(f(setup()));
    for _ in 0..BATCHES {
        let input = setup();
        let start = Instant::now();
        std::hint::black_box(f(input));
        per_iter.push(start.elapsed().as_nanos() as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = per_iter[per_iter.len() / 2];
    println!("{name:<40} {median:>12.0} ns/iter  (1 iter/batch)");
    median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_returns_positive_median() {
        let m = bench("smoke/add", || std::hint::black_box(1u64) + 1);
        assert!(m > 0.0);
        let m = bench_with_setup("smoke/vec", || vec![1u8; 16], |v| v.len());
        assert!(m > 0.0);
    }
}
