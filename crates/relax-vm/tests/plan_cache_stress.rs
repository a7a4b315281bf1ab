//! Concurrency stress: 8 threads hammering the shared plan cache while
//! tracing records every probe. Checks the cache's statistical
//! invariants and that concurrent emission never corrupts the trace.

use std::sync::atomic::{AtomicU64, Ordering};

use relax_trace::Capture;
use relax_vm::{CachedPlan, SharedPlanCache};

const THREADS: usize = 8;
const ITERS: usize = 1500;
const KEYS: usize = 24;

/// 8 threads × 1500 iterations of lookup-then-insert-on-miss across a
/// capacity-16 cache (so eviction is constantly active). Invariants:
/// hits + misses equals the number of lookups the cache accepted, and
/// evictions never exceed inserts. The whole run records into the trace
/// buffer; the drained trace must validate and its Chrome export must
/// pass the checker — no interleaved or corrupt records under
/// contention.
#[test]
fn eight_threads_hammering_keeps_stats_and_trace_consistent() {
    let capture = Capture::begin();
    let cache = SharedPlanCache::new(16);
    let probes = AtomicU64::new(0);
    let inserts = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = cache.clone();
            let probes = &probes;
            let inserts = &inserts;
            s.spawn(move || {
                for i in 0..ITERS {
                    let key = (t * 7 + i * 13) % KEYS;
                    let func = format!("kernel_{key}");
                    let shapes = vec![vec![key + 1, 8], vec![8, 4]];
                    let sp = relax_trace::span("vm", || format!("probe:{func}"));
                    let found = cache.lookup(&func, &shapes);
                    probes.fetch_add(1, Ordering::Relaxed);
                    if found.is_none() {
                        cache.insert(&func, &shapes, CachedPlan::Unplannable);
                        inserts.fetch_add(1, Ordering::Relaxed);
                    }
                    sp.finish_with(|| relax_trace::Payload::Kernel {
                        kernel: func.clone(),
                        shapes: relax_trace::shape_sig(&shapes),
                        cache: Some(if found.is_some() {
                            relax_trace::CacheOutcome::Hit
                        } else {
                            relax_trace::CacheOutcome::Miss
                        }),
                    });
                }
            });
        }
    });

    let stats = cache.stats();
    let trace = capture.finish();

    // Stats invariants under contention.
    assert_eq!(
        stats.hits + stats.misses,
        probes.load(Ordering::Relaxed),
        "every accepted lookup is exactly one hit or one miss"
    );
    assert!(
        stats.evictions <= inserts.load(Ordering::Relaxed),
        "evictions ({}) must not exceed inserts ({})",
        stats.evictions,
        inserts.load(Ordering::Relaxed)
    );
    assert!(
        stats.len <= 16 + THREADS,
        "len {} way over capacity",
        stats.len
    );
    assert!(
        stats.hits > 0 && stats.misses > 0,
        "stress must exercise both paths"
    );

    // Trace invariants under concurrent emission. The default buffer
    // comfortably holds this run, so nothing may drop and every probe
    // span (and the `plan_cache:` instant its lookup emitted) is there.
    trace
        .validate()
        .expect("concurrently emitted trace is well-formed");
    assert_eq!(trace.dropped, 0, "default capacity must hold this run");
    let expected = THREADS * ITERS;
    assert_eq!(trace.sync_span_count("vm", "probe:"), expected);
    let chrome = relax_trace::validate_chrome_trace(&trace.chrome_json())
        .expect("chrome export of a contended trace passes the checker");
    assert_eq!(chrome.events, trace.events.len());
    assert_eq!(chrome.sync_pairs, expected);
    // One `plan_cache:` instant per lookup; contended lock sites may emit
    // additional `lock_wait:` instants on top of that.
    assert!(
        chrome.instants >= expected,
        "at least one plan_cache probe instant per lookup ({} < {expected})",
        chrome.instants
    );
    assert!(
        chrome.threads >= 2,
        "the stress must actually run multi-threaded"
    );
}

/// A deliberately tiny buffer drops events under contention but the
/// drained trace stays balanced and exportable. Each lookup runs under
/// a sync span (with the lookup's `plan_cache:` instant emitted inside
/// it), so shards fill *between* a span's Begin and its End — the case
/// where a dropped close would unbalance the trace.
#[test]
fn tiny_buffer_under_contention_stays_balanced() {
    let capture = Capture::begin();
    relax_trace::set_capacity(64);
    let cache = SharedPlanCache::new(8);
    std::thread::scope(|s| {
        for t in 0..4 {
            let cache = cache.clone();
            s.spawn(move || {
                for i in 0..500 {
                    let func = format!("k{}", (t + i) % 6);
                    let shapes = vec![vec![i % 5 + 1]];
                    let sp = relax_trace::span("vm", || format!("probe:{func}"));
                    if cache.lookup(&func, &shapes).is_none() {
                        cache.insert(&func, &shapes, CachedPlan::Unplannable);
                    }
                    sp.finish();
                }
            });
        }
    });
    relax_trace::set_capacity(relax_trace::DEFAULT_CAPACITY);
    let trace = capture.finish();
    assert!(
        trace.dropped > 0,
        "the tiny buffer must have dropped events"
    );
    trace
        .validate()
        .expect("dropping must never unbalance the trace");
    relax_trace::validate_chrome_trace(&trace.chrome_json()).unwrap();
}
