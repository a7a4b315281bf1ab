//! The latency reservoir behind
//! [`crate::SessionManager::completion_latencies_ns`].

/// A bounded, seeded reservoir of latency samples (Vitter's Algorithm R).
///
/// A long-running manager retires sessions forever; an unbounded `Vec`
/// of per-session latencies is a slow memory leak and makes every read
/// O(retired). The reservoir keeps a uniform random sample of fixed
/// capacity — O(1) memory, O(capacity) per read — while still counting
/// every observation. The replacement RNG is a seeded xorshift so two
/// identical runs sample identically.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_bounded_and_counts_everything() {
        let mut r = LatencyReservoir::new(8, 0xDEADBEEF);
        for i in 0..1000u64 {
            r.push(i);
        }
        assert_eq!(r.seen, 1000, "every observation is counted");
        let samples = r.into_samples();
        assert_eq!(samples.len(), 8, "memory stays O(capacity)");
        assert!(samples.iter().all(|&s| s < 1000));
    }

    #[test]
    fn reservoir_below_capacity_keeps_exact_samples() {
        let mut r = LatencyReservoir::new(64, 1);
        for i in 1..=10u64 {
            r.push(i);
        }
        assert_eq!(r.into_samples(), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_sampling_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut r = LatencyReservoir::new(4, seed);
            for i in 0..500u64 {
                r.push(i);
            }
            r.into_samples()
        };
        assert_eq!(run(7), run(7), "same seed, same sample");
    }
}
