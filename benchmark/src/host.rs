//! What the host tells about this process: CPU time, peak memory, core
//! count, and a canary loop that feels the same contention the program
//! does. `host.*` numbers describe the measurement, never the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of the whole process (live and exited
/// threads), from `/proc/self/stat`. Granularity is one tick (10 ms), so
/// only deltas over seconds of work are meaningful.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces and parentheses: split after the last ')'.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let field = |i: usize| -> f64 {
        rest.split_ascii_whitespace()
            .nth(i)
            .and_then(|t| t.parse().ok())
            .expect("numeric time field in /proc/self/stat")
    };
    // After the comm field: state is index 0, utime 11, stime 12.
    (field(11) + field(12)) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const CANARY_CELLS: usize = 32 * 1024; // 256 KiB of u64 cells
const CANARY_PASSES: usize = 1000;
const CANARY_REPEATS: usize = 5;

/// Wall milliseconds of a fixed loop of f64 multiply-adds over ~256 KiB
/// of atomic cells — the access pattern of the program's tensors, so the
/// canary slows when the program would. The median of five repeats,
/// compared before/after a run to flag a noisy host; never divided into a
/// metric.
pub fn canary_ms() -> f64 {
    let cells: Vec<AtomicU64> =
        (0..CANARY_CELLS).map(|i| AtomicU64::new((i as f64 * 1e-4).to_bits())).collect();
    let mut ms: Vec<f64> = (0..CANARY_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CANARY_PASSES {
                for c in &cells {
                    let x = f64::from_bits(c.load(Ordering::Relaxed));
                    c.store((x * 0.999 + 0.001).to_bits(), Ordering::Relaxed);
                }
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    std::hint::black_box(&cells);
    ms.sort_by(f64::total_cmp);
    ms[CANARY_REPEATS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_and_monotonic() {
        let before = cpu_seconds();
        assert!(canary_ms() > 0.0);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mib() > 1.0);
        assert!(threads() >= 1);
    }
}
