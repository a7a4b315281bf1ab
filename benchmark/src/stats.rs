//! Order statistics over timing samples.

/// A sorted copy of `xs` (samples are finite by construction).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least a share `q` of the samples at or below it. `0.0` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (mean of the two middle samples when the count is even).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail percentile, reported only when at least ten samples lie beyond
/// it: fewer than that and the value is one outlier, not a percentile.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len().max(1));
    (sorted.len() >= rank + 10).then(|| sorted[rank - 1])
}

/// Sample count, median and the supported tails of one timed family.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub name: &'static str,
    pub unit: &'static str,
    pub n: usize,
    pub p50: f64,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

impl Family {
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Family {
        let s = sorted(samples);
        Family { name, unit, n: s.len(), p50: median(&s), p90: tail(&s, 0.90), p99: tail(&s, 0.99) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.91), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let s = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(tail(&s(100), 0.90), Some(90.0));
        assert_eq!(tail(&s(99), 0.90), None);
        // p99 needs a thousand.
        assert_eq!(tail(&s(1000), 0.99), Some(990.0));
        assert_eq!(tail(&s(999), 0.99), None);
        assert_eq!(tail(&[], 0.90), None);
        let f = Family::of("x", "ms", &s(150));
        assert_eq!((f.n, f.p90, f.p99), (150, Some(135.0), None));
    }
}
