//! Shutdown-under-load: every admitted request resolves — as a completed
//! reply or a typed `ServeError` — even when `shutdown()` lands while
//! the queue is still full of work, and per-worker telemetry survives
//! the drain. The whole run records a trace whose request spans must
//! balance across the submit/worker thread boundary.

use std::time::Duration;

use relax_serve::{ServeConfig, ServeEngine, ServeError};

mod common;
use common::{decode_args, tiny_exec};

/// Floods a 2-worker engine with 96 requests (a mix of undeadlined work
/// and already-expired requests), calls `shutdown()` immediately — while
/// the backlog is still deep — and requires: every ticket resolves, no
/// `WorkerLost`, the counters add up, per-worker telemetry aggregates,
/// and the captured trace balances (one async request span per admitted
/// request, closed on whichever thread resolved it).
#[test]
fn shutdown_under_load_resolves_every_request() {
    let capture = relax_trace::Capture::begin();

    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 4,
            ..ServeConfig::default()
        },
    );

    let args = decode_args(&ir, 2, 4, &mut 0x5EED_0009);
    const TOTAL: usize = 96;
    let mut tickets = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        // Every third request is born expired: it must be *shed* with a
        // typed error, never silently dropped.
        let deadline = if i % 3 == 2 {
            Some(Duration::ZERO)
        } else {
            None
        };
        tickets.push(
            engine
                .submit_with_deadline("decode", &args, deadline)
                .expect("queue capacity covers the burst"),
        );
    }

    // Shut down with the queue still loaded; the drain must finish the
    // backlog, not abandon it.
    let report = engine.shutdown();

    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::DeadlineExceeded { .. }) => shed += 1,
            Err(ServeError::Vm(e)) => {
                failed += 1;
                // Typed, frame-traced errors only — no panics smuggled out.
                let _ = e.to_string();
            }
            Err(ServeError::WorkerLost) => panic!("request dropped on the floor"),
            Err(other) => panic!("unexpected refusal after admission: {other}"),
        }
    }
    assert_eq!(ok + shed + failed, TOTAL as u64, "every ticket resolves");
    assert_eq!(failed, 0, "tiny decode must not fail in the VM");
    assert!(shed >= (TOTAL / 3) as u64, "expired requests must be shed");
    assert!(ok > 0, "live requests must complete");

    // Counters agree with the tickets.
    assert_eq!(report.stats.accepted, TOTAL as u64);
    assert_eq!(report.stats.completed, ok);
    assert_eq!(report.stats.timed_out, shed);
    assert_eq!(report.stats.failed, failed);
    assert_eq!(report.stats.queue_depth, 0, "the drain leaves nothing queued");
    assert_eq!(report.stats.latency.count, ok);

    // Per-worker telemetry still aggregates after the drain.
    assert_eq!(report.workers.len(), 2);
    let total_tir: u64 = report.workers.iter().map(|w| w.telemetry.tir_calls).sum();
    assert!(total_tir > 0, "workers must report kernel activity");
    assert!(report.total_plan_compiles() >= 1);
    let kernels: usize = report.workers.iter().map(|w| w.kernel_stats.len()).sum();
    assert!(kernels > 0, "per-kernel stats survive shutdown");

    // The trace closed every request span despite the cross-thread
    // handoff, and the export passes the checker.
    let trace = capture.finish();
    trace.validate().expect("well-formed under shutdown load");
    let chrome = relax_trace::validate_chrome_trace(&trace.chrome_json()).unwrap();
    assert_eq!(chrome.async_pairs, TOTAL, "one request span per admission, all closed");
    assert!(chrome.threads >= 3, "submitter plus two workers");
}

/// Backpressure and refusal paths also close their request spans: fill a
/// capacity-4 queue against stalled-enough workers so at least one
/// submission is refused, then shut down; the trace must still balance.
#[test]
fn refused_submissions_do_not_leak_request_spans() {
    let capture = relax_trace::Capture::begin();

    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        },
    );

    let args = decode_args(&ir, 2, 4, &mut 0x5EED_0009);
    let mut tickets = Vec::new();
    let mut refused = 0u64;
    for _ in 0..64 {
        match engine.submit("decode", &args) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull { capacity, .. }) => {
                assert_eq!(capacity, 4);
                refused += 1;
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    let admitted = tickets.len();
    let report = engine.shutdown();
    for t in tickets {
        t.wait().expect("admitted requests complete");
    }
    assert!(refused > 0, "the tiny queue must refuse part of the burst");
    assert_eq!(report.stats.rejected_full, refused);
    assert_eq!(report.stats.completed, admitted as u64);

    let trace = capture.finish();
    trace.validate().unwrap();
    let chrome = relax_trace::validate_chrome_trace(&trace.chrome_json()).unwrap();
    assert_eq!(
        chrome.async_pairs as u64,
        admitted as u64 + refused,
        "refused submissions close their spans at the refusal site"
    );
}
