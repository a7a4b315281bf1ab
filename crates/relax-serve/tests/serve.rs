//! Serving-engine integration tests on the tiny Llama decode model:
//! multi-session differential correctness against a single-threaded VM,
//! fault isolation between workers, backpressure, deadline shedding and
//! cross-worker plan-cache sharing.

use std::time::Duration;

use relax_passes::{compile, CompileOptions};
use relax_serve::chaos::ManualClock;
use relax_serve::{ServeConfig, ServeEngine, ServeError, Ticket};
use relax_vm::{FaultPlan, Value, Vm, VmErrorKind};

mod common;
use common::{decode_args, flatten_output, tiny_exec};

/// The CI smoke test: a small engine serves a few decode steps end to
/// end and the counters add up.
#[test]
fn serve_smoke_llama_decode() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let mut seed = 7u64;
    let tickets: Vec<Ticket> = (0..4)
        .map(|_| {
            let args = decode_args(&ir, 1, 2, &mut seed);
            engine.submit("decode", &args).unwrap()
        })
        .collect();
    for t in tickets {
        let out = t.wait().unwrap();
        let logits = out.as_tuple().unwrap()[0].as_tensor().unwrap().to_f64_vec();
        assert!(logits.iter().all(|v| v.is_finite()));
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.accepted, 4);
    assert_eq!(report.stats.completed, 4);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.latency.count, 4);
    assert!(report.stats.latency.p50_ns > 0);
    assert_eq!(report.workers.len(), 2);
}

/// Satellite 5 (first half): N parallel sessions through the engine are
/// bitwise identical — logits *and* grown KV caches — to the same
/// requests run one at a time on a plain single-threaded [`Vm`].
#[test]
fn parallel_sessions_match_single_threaded_vm_bitwise() {
    let (ir, exec) = tiny_exec();

    // Three distinct sessions: different batch/kv shapes and data.
    let sessions: Vec<Vec<Value>> = [(1i64, 1i64, 31u64), (2, 3, 37), (1, 4, 41)]
        .iter()
        .map(|&(batch, kv, mut seed)| decode_args(&ir, batch, kv, &mut seed))
        .collect();

    // Reference: one single-threaded VM, sequential.
    let mut reference = Vm::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap());
    let expected: Vec<Vec<Vec<f64>>> = sessions
        .iter()
        .map(|args| flatten_output(&reference.run("decode", args).unwrap()))
        .collect();

    // Engine: 4 workers, every session submitted twice, interleaved.
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<(usize, Ticket)> = (0..2)
        .flat_map(|_| sessions.iter().enumerate())
        .map(|(i, args)| (i, engine.submit("decode", args).unwrap()))
        .collect();
    for (i, t) in tickets {
        let got = flatten_output(&t.wait().unwrap());
        assert_eq!(got, expected[i], "session {i} diverged from the reference");
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.completed, 6);
    assert_eq!(report.stats.failed, 0);
}

/// Satellite 5 (second half): a deterministic kernel fault injected on
/// one worker fails at most that worker's first request; every other
/// session still completes bitwise-equal to the reference.
#[test]
fn fault_on_one_worker_leaves_other_sessions_unaffected() {
    let (ir, exec) = tiny_exec();
    let mut seed = 53u64;
    let args = decode_args(&ir, 1, 2, &mut seed);

    let mut reference = Vm::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap());
    let expected = flatten_output(&reference.run("decode", &args).unwrap());

    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 4,
            worker_faults: vec![(0, FaultPlan::new().fail_kernel(1))],
            ..ServeConfig::default()
        },
    );
    let n = 8;
    let tickets: Vec<Ticket> = (0..n)
        .map(|_| engine.submit("decode", &args).unwrap())
        .collect();
    let mut ok = 0u64;
    let mut vm_failures = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(out) => {
                assert_eq!(flatten_output(&out), expected);
                ok += 1;
            }
            Err(ServeError::Vm(e)) => {
                // The injected fault surfaces through the VM taxonomy
                // with provenance, not as a panic or a hung ticket.
                assert!(
                    matches!(e.kind, VmErrorKind::Kernel(_) | VmErrorKind::Interp(_)),
                    "unexpected fault kind: {e}"
                );
                vm_failures += 1;
            }
            Err(other) => panic!("unexpected serve error: {other}"),
        }
    }
    // `fail_kernel(1)` fires once, so at most one session is lost (zero
    // if worker 0 never won a request), and everyone else is untouched.
    assert!(vm_failures <= 1, "fault leaked beyond one session");
    assert_eq!(ok + vm_failures, n);
    let report = engine.shutdown();
    assert_eq!(report.stats.failed, vm_failures);
    assert_eq!(report.stats.completed, ok);
    let injected: u64 = report
        .workers
        .iter()
        .map(|w| w.telemetry.faults_injected)
        .sum();
    assert_eq!(injected, vm_failures);
}

/// A full queue refuses new work with a typed backpressure error
/// instead of buffering unboundedly.
#[test]
fn queue_backpressure_rejects_when_full() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    );
    let mut seed = 61u64;
    let args = decode_args(&ir, 1, 1, &mut seed);

    // Submitting in a tight loop outruns the single worker; the bounded
    // queue must push back before 500 submissions.
    let mut tickets = Vec::new();
    let mut saw_full = false;
    for _ in 0..500 {
        match engine.submit("decode", &args) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull { capacity, .. }) => {
                assert_eq!(capacity, 2);
                saw_full = true;
                break;
            }
            Err(other) => panic!("unexpected serve error: {other}"),
        }
    }
    assert!(saw_full, "queue never filled");
    for t in tickets {
        t.wait().unwrap();
    }
    let report = engine.shutdown();
    assert!(report.stats.rejected_full >= 1);
    assert_eq!(report.stats.failed, 0);
}

/// A request whose deadline passes while it waits is shed with
/// [`ServeError::DeadlineExceeded`] — it never executes.
#[test]
fn deadline_expired_requests_are_shed() {
    let (ir, exec) = tiny_exec();
    let clock = ManualClock::new();
    let engine = clock.serve_engine(
        exec,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut seed = 67u64;
    let args = decode_args(&ir, 1, 1, &mut seed);

    // The second request's deadline is already due when it is admitted,
    // and time only moves on from there, so it must be shed.
    let first = engine.submit("decode", &args).unwrap();
    let doomed = engine
        .submit_with_deadline("decode", &args, Some(Duration::ZERO))
        .unwrap();
    clock.advance(Duration::from_millis(1));
    first.wait().unwrap();
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected a shed request, got {other:?}"),
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.timed_out, 1);
    assert_eq!(report.stats.completed, 1);
}

/// With the shared plan cache, a shape compiled by any worker is a hit
/// for every other: total compilations across 4 workers stay strictly
/// below `cold keys × workers` (the private-cache worst case).
#[test]
fn shared_plan_cache_compiles_once_across_workers() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let mut seed = 71u64;
    let shapes = [(1i64, 1i64), (1, 2), (2, 3)];

    // Warm phase: one request per shape, waited on, so every plan key
    // is compiled exactly once before the flood.
    for &(batch, kv) in &shapes {
        let args = decode_args(&ir, batch, kv, &mut seed);
        engine.submit("decode", &args).unwrap().wait().unwrap();
    }
    // Flood: every further request, on any worker, must hit the cache.
    let tickets: Vec<Ticket> = (0..3)
        .flat_map(|_| shapes.iter())
        .map(|&(batch, kv)| {
            let args = decode_args(&ir, batch, kv, &mut seed);
            engine.submit("decode", &args).unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }

    let report = engine.shutdown();
    // The default capacity holds every key of the three shapes, so `len`
    // counts every cold key the workload ever compiled.
    assert_eq!(report.stats.plan_cache.evictions, 0);
    let cold_keys = report.stats.plan_cache.len as u64;
    let compiles = report.total_plan_compiles();
    assert!(compiles > 0);
    assert!(cold_keys > 0);
    assert!(
        compiles < cold_keys * 4,
        "no cross-worker reuse: {compiles} compiles for {cold_keys} keys on 4 workers"
    );
    assert!(report.stats.plan_cache.hits > 0);
    assert!(report.stats.plan_cache.hit_rate() > 0.0);
}
