//! Shutdown-under-load: every session resolves — retired, shed or typed
//! `ShuttingDown` — even when `shutdown()` lands while the deque is still
//! full of work. The run records a trace whose session spans must balance
//! across the scheduler/worker thread boundary; the trace capture is
//! process-wide, so this binary holds no other test.

use std::sync::Arc;
use std::time::Duration;

use relax_models::llama::{build_decode_paged, LlamaConfig};
use relax_passes::{compile, CompileOptions};
use relax_serve::{SessionConfig, SessionError, SessionManager, SessionModelSpec, SessionRequest};
use relax_vm::{KvCacheConfig, Value};

mod common;
use common::{concrete, random_arr};

/// Tiny Llama's paged decode function over seeded weights.
fn tiny_paged_spec() -> SessionModelSpec {
    let cfg = LlamaConfig::tiny();
    let ir = build_decode_paged(&cfg).unwrap();
    let mut seed = 0x5EED_0010u64;
    let weights = ir
        .params
        .iter()
        .filter(|(name, _)| name != "tokens" && name != "kv_cache");
    let weights = weights.map(|(_, sinfo)| {
        let (dims, dt) = concrete(&ir, sinfo, 1, 1);
        Value::Tensor(random_arr(&dims, dt, &mut seed))
    });
    SessionModelSpec {
        decode: Arc::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap()),
        decode_func: "decode_paged".into(),
        prefill: None,
        prefill_func: String::new(),
        weights: weights.collect(),
        cache: KvCacheConfig {
            streams: 2 * cfg.n_layers,
            batch: 1,
            heads: cfg.n_kv_heads as usize,
            head_dim: cfg.head_dim as usize,
            dtype: cfg.dtype,
        },
        speculative: None,
    }
}

/// Floods a 2-worker manager with 96 sessions, every third born expired
/// (dispatched, it would retire in its one step), and shuts down at once,
/// while the backlog is still deep. Every ticket resolves typed, every
/// born-expired session is shed rather than dispatched, the counters add
/// up, no page is left in use, and the trace balances: one async session
/// span per admission, closed on whichever thread resolved it.
#[test]
fn shutdown_under_load_resolves_every_session() {
    let capture = relax_trace::Capture::begin();
    let mgr = SessionManager::new(
        tiny_paged_spec(),
        SessionConfig {
            workers: 2,
            ..SessionConfig::default()
        },
    );
    const TOTAL: usize = 96;
    let tickets: Vec<_> = (0..TOTAL)
        .map(|i| {
            let born_expired = i % 3 == 2;
            let ticket = mgr.submit(SessionRequest {
                prompt: vec![1 + (i % 5) as i64; 3],
                max_new_tokens: if born_expired { 1 } else { 4 },
                deadline: born_expired.then_some(Duration::ZERO),
            });
            (born_expired, ticket)
        })
        .collect();
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    for (i, (born_expired, ticket)) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Err(SessionError::DeadlineExceeded) => {}
            other if born_expired => panic!("born-expired session {i} was not shed: {other:?}"),
            Ok(_) | Err(SessionError::ShuttingDown) => {}
            Err(other) => panic!("session {i}: {other}"),
        }
    }
    assert_eq!(stats.submitted, TOTAL as u64);
    assert_eq!(
        stats.retired + stats.evicted + stats.failed + stats.shed,
        stats.submitted,
        "session accounting does not add up: {stats:?}"
    );
    assert_eq!(pool.stats().in_use, 0, "{:?}", pool.stats());

    let trace = capture.finish();
    trace.validate().expect("well-formed under shutdown load");
    let chrome = relax_trace::validate_chrome_trace(&trace.chrome_json()).unwrap();
    assert_eq!(
        chrome.async_pairs as u64, stats.admitted,
        "one session span per admission, all closed"
    );
}
