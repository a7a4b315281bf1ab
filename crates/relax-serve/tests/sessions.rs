//! Session-manager integration tests: seeded random session schedules
//! (staggered admits, early retirements, mixed prefill/decode lengths)
//! asserted bitwise-equal to the copy-based kv_append oracle, serial
//! and under 8 workers; earliest-deadline eviction under page-pool
//! pressure; accounting smoke; and chaos (worker panics and stalls
//! mid-iteration) with page-pool reconciliation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::{build_decode, build_decode_paged, build_prefill, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_serve::chaos::{run_session_chaos, silence_injected_panics, SessionChaosConfig};
use relax_serve::{
    SessionConfig, SessionError, SessionManager, SessionModelSpec, SessionRequest, SessionTicket,
};
use relax_tir::NDArray;
use relax_vm::{Executable, FaultPlan, KvCacheConfig, Value, Vm, VmErrorKind};

fn random_arr(shape: &[usize], dtype: DataType, seed: &mut u64) -> NDArray {
    let n: usize = shape.iter().product();
    let vals: Vec<f64> = (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.2
        })
        .collect();
    NDArray::from_f64(shape, dtype, vals).unwrap()
}

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn concrete(sinfo: &StructInfo) -> (Vec<usize>, DataType) {
    let env = HashMap::new();
    match sinfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Known(dims),
            dtype,
        } => (
            dims.iter()
                .map(|d| d.eval(&env).unwrap() as usize)
                .collect(),
            dtype.unwrap(),
        ),
        other => panic!("unexpected weight annotation {other}"),
    }
}

/// Weight values shared by the paged manager and the copy-based
/// oracle, in parameter order (weights have no symbolic dims).
fn build_weights(ir: &ModelIr, seed: &mut u64) -> Vec<Value> {
    ir.params
        .iter()
        .filter(|(name, _)| name != "tokens" && name != "kv_cache")
        .map(|(_, sinfo)| {
            let (dims, dt) = concrete(sinfo);
            Value::Tensor(random_arr(&dims, dt, seed))
        })
        .collect()
}

fn argmax(logits: &NDArray) -> i64 {
    let vals = logits.to_f64_vec();
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in vals.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as i64
}

/// The fixture: tiny Llama compiled three ways (paged decode for the
/// manager; copy decode and prefill for the oracle) over one shared
/// weight set.
struct Fixture {
    cfg: LlamaConfig,
    spec: SessionModelSpec,
    decode_exec: Executable,
    prefill_exec: Executable,
    weights: Vec<Value>,
}

fn fixture() -> Fixture {
    let cfg = LlamaConfig::tiny();
    let paged_ir = build_decode_paged(&cfg).unwrap();
    let paged_exec = compile(paged_ir.module.clone(), &CompileOptions::default()).unwrap();
    let decode_ir = build_decode(&cfg).unwrap();
    let decode_exec = compile(decode_ir.module.clone(), &CompileOptions::default()).unwrap();
    let prefill_ir = build_prefill(&cfg).unwrap();
    let prefill_exec = compile(prefill_ir.module.clone(), &CompileOptions::default()).unwrap();

    let mut wseed = 0xFACE_F00Du64;
    let weights = build_weights(&paged_ir, &mut wseed);
    let spec = SessionModelSpec {
        decode: Arc::new(paged_exec),
        decode_func: "decode_paged".into(),
        prefill: None,
        prefill_func: String::new(),
        weights: weights.clone(),
        cache: KvCacheConfig {
            streams: 2 * cfg.n_layers,
            batch: 1,
            heads: cfg.n_kv_heads as usize,
            head_dim: cfg.head_dim as usize,
            dtype: cfg.dtype,
        },
        speculative: None,
    };
    Fixture {
        cfg,
        spec,
        decode_exec,
        prefill_exec,
        weights,
    }
}

/// Greedy generation through the copy-based `vm.builtin.kv_append`
/// path: prefill the prompt prefix, then thread `(b, h, s, hd)` cache
/// tensors through `build_decode` step by step. Returns the generated
/// tokens and the final per-stream caches flattened to `f64`.
fn oracle_run(fx: &Fixture, prompt: &[i64], max_new: usize) -> (Vec<i64>, Vec<Vec<f64>>) {
    let cfg = &fx.cfg;
    let nkv = cfg.n_kv_heads as usize;
    let hd = cfg.head_dim as usize;
    let streams = 2 * cfg.n_layers;

    let mut prefill_vm = Vm::new(fx.prefill_exec.clone());
    let mut decode_vm = Vm::new(fx.decode_exec.clone());

    let mut caches: Vec<NDArray> = if prompt.len() > 1 {
        let prefix = &prompt[..prompt.len() - 1];
        let tokens = NDArray::from_i64(&[1, prefix.len()], DataType::I64, prefix.to_vec()).unwrap();
        let mut args = vec![Value::Tensor(tokens)];
        args.extend(fx.weights.iter().cloned());
        let out = prefill_vm.run("prefill", &args).unwrap();
        out.as_tuple()
            .unwrap()
            .iter()
            .map(|v| v.as_tensor().unwrap().clone())
            .collect()
    } else {
        (0..streams)
            .map(|_| NDArray::zeros(&[1, nkv, 0, hd], cfg.dtype))
            .collect()
    };

    let mut fed = caches[0].shape()[2];
    let mut generated: Vec<i64> = Vec::new();
    while generated.len() < max_new {
        let token = if fed < prompt.len() {
            prompt[fed]
        } else {
            generated[fed - prompt.len()]
        };
        let tokens = NDArray::from_i64(&[1, 1], DataType::I64, vec![token]).unwrap();
        let mut args = vec![Value::Tensor(tokens)];
        args.extend(caches.iter().cloned().map(Value::Tensor));
        args.extend(fx.weights.iter().cloned());
        let out = decode_vm.run("decode", &args).unwrap();
        let items = out.as_tuple().unwrap();
        let next = argmax(items[0].as_tensor().unwrap());
        caches = items[1..]
            .iter()
            .map(|v| v.as_tensor().unwrap().clone())
            .collect();
        fed += 1;
        if fed >= prompt.len() {
            generated.push(next);
        }
    }
    let kv = caches.iter().map(|c| c.to_f64_vec()).collect();
    (generated, kv)
}

/// A seeded random schedule: mixed prompt lengths (1..=9, so first steps
/// of one token and of several both run), mixed budgets (1..=6, so
/// sessions retire at different iterations).
fn random_schedule(n: usize, seed: &mut u64) -> Vec<SessionRequest> {
    (0..n)
        .map(|_| {
            let plen = 1 + (lcg(seed) % 9) as usize;
            let prompt: Vec<i64> = (0..plen)
                .map(|_| (lcg(seed) % LlamaConfig::tiny().vocab as u64) as i64)
                .collect();
            SessionRequest {
                prompt,
                max_new_tokens: 1 + (lcg(seed) % 6) as usize,
                deadline: None,
            }
        })
        .collect()
}

fn run_and_compare(fx: &Fixture, schedule: &[SessionRequest], workers: usize) {
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers,
            return_kv: true,
            ..SessionConfig::default()
        },
    );
    // Staggered admits: sessions join while earlier ones are already
    // decoding, exercising iteration-level admission.
    let tickets: Vec<SessionTicket> = schedule
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i % 3 == 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
            mgr.submit(r.clone())
        })
        .collect();
    for (i, (t, r)) in tickets.into_iter().zip(schedule).enumerate() {
        let out = t.wait().unwrap_or_else(|e| panic!("session {i}: {e}"));
        let (want_tokens, want_kv) = oracle_run(fx, &r.prompt, r.max_new_tokens);
        assert_eq!(out.tokens, want_tokens, "session {i} tokens diverged");
        let got_kv: Vec<Vec<f64>> = out
            .kv
            .expect("return_kv")
            .iter()
            .map(|c| c.to_f64_vec())
            .collect();
        assert_eq!(got_kv, want_kv, "session {i} final KV diverged");
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.retired, schedule.len() as u64);
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked after shutdown: {ps:?}");
}

/// Satellite: seeded random session schedules are bitwise-equal to the
/// copy-based oracle, serially (1 worker)...
#[test]
fn random_sessions_match_copy_oracle_bitwise_serial() {
    let fx = fixture();
    let mut seed = 0x5EED_0001u64;
    run_and_compare(&fx, &random_schedule(8, &mut seed), 1);
}

/// ...and under 8 workers racing on the shared page pool.
#[test]
fn random_sessions_match_copy_oracle_bitwise_parallel() {
    let fx = fixture();
    let mut seed = 0x5EED_0002u64;
    run_and_compare(&fx, &random_schedule(10, &mut seed), 8);
}

/// Under a pool too small for every session, the earliest-deadline
/// session is evicted, survivors stay bitwise-correct, and the pool
/// reconciles with nothing leaked.
#[test]
fn pool_pressure_evicts_and_survivors_stay_bitwise_correct() {
    let fx = fixture();
    // 4 streams × ceil(11/4) pages = 12 pages per full session; 20
    // pages fit one comfortably but not three.
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 2,
            page_tokens: 4,
            pool_pages: 20,
            max_attempts: 6,
            return_kv: true,
            ..SessionConfig::default()
        },
    );
    let reqs: Vec<SessionRequest> = (0..3)
        .map(|i| SessionRequest {
            prompt: vec![(3 + i) as i64; 6],
            max_new_tokens: 6,
            // Session 0 has the earliest deadline: the designated
            // eviction victim under pressure.
            deadline: Some(Duration::from_secs(5 + 10 * i as u64)),
        })
        .collect();
    let tickets: Vec<SessionTicket> = reqs.iter().map(|r| mgr.submit(r.clone())).collect();
    let mut retired = 0;
    let mut evicted = 0;
    for (t, r) in tickets.into_iter().zip(&reqs) {
        match t.wait() {
            Ok(out) => {
                retired += 1;
                let (want_tokens, want_kv) = oracle_run(&fx, &r.prompt, r.max_new_tokens);
                assert_eq!(out.tokens, want_tokens, "survivor tokens diverged");
                let got_kv: Vec<Vec<f64>> = out
                    .kv
                    .expect("return_kv")
                    .iter()
                    .map(|c| c.to_f64_vec())
                    .collect();
                assert_eq!(got_kv, want_kv, "survivor final KV diverged");
            }
            Err(SessionError::Evicted) => evicted += 1,
            Err(other) => panic!("unexpected session error: {other}"),
        }
    }
    assert!(retired >= 1, "no session survived pool pressure");
    assert!(evicted >= 1, "pool pressure never evicted");
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.retired, retired);
    assert_eq!(stats.evicted, evicted);
    assert!(stats.rollbacks >= 1, "pressure should roll steps back");
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked: {ps:?}");
}

/// A session waiting behind a full running set is shed from the waiting
/// deque the moment its deadline passes — not held until a slot frees,
/// admitted (cache, span, `admitted` count) and shed in the same pass.
#[test]
fn overdue_waiting_session_is_shed_without_being_admitted() {
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 1,
            max_running: 1,
            ..SessionConfig::default()
        },
    );
    let long = mgr.submit(SessionRequest {
        prompt: vec![3; 4],
        max_new_tokens: 200,
        deadline: None,
    });
    let overdue = mgr.submit(SessionRequest {
        prompt: vec![5; 4],
        max_new_tokens: 4,
        deadline: Some(Duration::ZERO),
    });
    match overdue.wait() {
        Err(SessionError::DeadlineExceeded) => {}
        other => panic!("expected the waiting session to be shed, got {other:?}"),
    }
    assert!(
        long.try_wait().is_none(),
        "the running session is still generating"
    );
    assert_eq!(
        long.wait().expect("the long session retires").tokens.len(),
        200
    );
    let stats = mgr.shutdown();
    assert_eq!(
        (stats.retired, stats.shed, stats.admitted),
        (1, 1, 1),
        "{stats:?}"
    );
}

/// The CI release-mode smoke: mixed traffic (hundreds of tokens across
/// concurrent sessions with varied context lengths) and the accounting
/// identities hold.
#[test]
fn mixed_traffic_smoke_accounting() {
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 4,
            return_kv: false,
            ..SessionConfig::default()
        },
    );
    let mut seed = 0x5EED_0003u64;
    let schedule = random_schedule(12, &mut seed);
    let tickets: Vec<SessionTicket> = schedule.iter().map(|r| mgr.submit(r.clone())).collect();
    for t in tickets {
        t.wait().expect("mixed-traffic session failed");
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.submitted, 12);
    assert_eq!(
        stats.retired + stats.evicted + stats.failed + stats.shed,
        stats.submitted,
        "session accounting does not add up: {stats:?}"
    );
    assert_eq!(stats.retired, 12);
    assert!(stats.tokens >= 12, "every session generates >= 1 token");
    assert_eq!(
        stats.prefills + stats.decodes,
        stats.tokens,
        "every plain step yields exactly one token: {stats:?}"
    );
    assert!(stats.peak_pages_in_use >= 1);
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked after shutdown: {ps:?}");
}

/// Satellite: an explicit mid-iteration worker panic (after the step's
/// in-place appends landed) plus a stall; the scheduler rolls back,
/// retries, every session still finishes bitwise-equal, and the page
/// pool reconciles.
#[test]
fn worker_panic_mid_iteration_rolls_back_and_heals() {
    silence_injected_panics();
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 2,
            max_attempts: 6,
            return_kv: true,
            faults: FaultPlan::new()
                .fail_worker_panic(3)
                .stall_worker(5, Duration::from_millis(30)),
            ..SessionConfig::default()
        },
    );
    let reqs: Vec<SessionRequest> = (0..4)
        .map(|i| SessionRequest {
            prompt: vec![1 + i as i64; 4],
            max_new_tokens: 4,
            deadline: None,
        })
        .collect();
    let tickets: Vec<SessionTicket> = reqs.iter().map(|r| mgr.submit(r.clone())).collect();
    for (t, r) in tickets.into_iter().zip(&reqs) {
        let out = t.wait().expect("session should survive the panic");
        let (want_tokens, want_kv) = oracle_run(&fx, &r.prompt, r.max_new_tokens);
        assert_eq!(out.tokens, want_tokens);
        let got_kv: Vec<Vec<f64>> = out
            .kv
            .expect("return_kv")
            .iter()
            .map(|c| c.to_f64_vec())
            .collect();
        assert_eq!(got_kv, want_kv);
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert!(stats.worker_panics >= 1, "the panic never fired: {stats:?}");
    assert!(
        stats.rollbacks >= 1,
        "the panic never rolled back: {stats:?}"
    );
    assert_eq!(stats.retired, 4);
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool must reconcile after healing: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked through the panic: {ps:?}");
}

/// A reply dropped after a step landed costs the session nothing but the
/// retry: the step is rolled back whole — nothing it sampled or counted
/// stays behind — whether it was a middle step or the one that produced
/// the last token. One session on one worker, so replies count its steps:
/// the prompt is the 1st, the first decode the 2nd (dropped) and 3rd, and
/// the last decode the 5th (dropped) and 6th.
#[test]
fn dropped_reply_on_a_middle_and_on_the_last_step_keeps_the_stream() {
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 1,
            return_kv: true,
            faults: FaultPlan::new().drop_reply(2).drop_reply(5),
            ..SessionConfig::default()
        },
    );
    let (prompt, max_new) = (vec![3, 1, 4, 1], 4);
    let out = mgr
        .submit(SessionRequest {
            prompt: prompt.clone(),
            max_new_tokens: max_new,
            deadline: None,
        })
        .wait()
        .expect("the session outlives two dropped replies");
    let (want_tokens, want_kv) = oracle_run(&fx, &prompt, max_new);
    assert_eq!(out.tokens, want_tokens);
    let got_kv: Vec<Vec<f64>> = out
        .kv
        .expect("return_kv")
        .iter()
        .map(|c| c.to_f64_vec())
        .collect();
    assert_eq!(got_kv, want_kv);
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.rollbacks, 2, "both replies were dropped: {stats:?}");
    assert_eq!(
        (stats.prefills, stats.decodes, stats.tokens),
        (1, 3, 4),
        "{stats:?}"
    );
    assert_eq!(
        stats.step_calls, 6,
        "four steps and two that were rolled back: {stats:?}"
    );
    let ps = pool.stats();
    assert!(ps.reconciles() && ps.in_use == 0, "{ps:?}");
}

/// A kernel fault is deterministic for the session it hits: on one worker
/// the first kernel call is the first session's prompt step, which fails
/// typed without a retry, and every other session is untouched.
#[test]
fn kernel_fault_fails_its_session_typed_and_spares_the_rest() {
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 1,
            return_kv: true,
            faults: FaultPlan::new().fail_kernel(1),
            ..SessionConfig::default()
        },
    );
    let reqs: Vec<SessionRequest> = (0..4)
        .map(|i| SessionRequest {
            prompt: vec![2 + i as i64; 3],
            max_new_tokens: 3,
            deadline: None,
        })
        .collect();
    let tickets: Vec<SessionTicket> = reqs.iter().map(|r| mgr.submit(r.clone())).collect();
    for (i, (t, r)) in tickets.into_iter().zip(&reqs).enumerate() {
        match (i, t.wait()) {
            (0, Err(SessionError::Vm(e))) => {
                assert!(
                    matches!(e.kind, VmErrorKind::Kernel(_)),
                    "unexpected fault kind: {e}"
                )
            }
            (0, other) => panic!("the first session must fail in the VM, got {other:?}"),
            (_, Ok(out)) => {
                let (want_tokens, want_kv) = oracle_run(&fx, &r.prompt, r.max_new_tokens);
                assert_eq!(out.tokens, want_tokens, "session {i} tokens diverged");
                let got_kv: Vec<Vec<f64>> = out
                    .kv
                    .expect("return_kv")
                    .iter()
                    .map(|c| c.to_f64_vec())
                    .collect();
                assert_eq!(got_kv, want_kv, "session {i} final KV diverged");
            }
            (_, Err(e)) => panic!("session {i}: {e}"),
        }
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(
        (stats.failed, stats.retired, stats.rollbacks),
        (1, 3, 1),
        "{stats:?}"
    );
    assert_eq!(
        stats.retired + stats.evicted + stats.failed + stats.shed,
        stats.submitted,
        "session accounting does not add up: {stats:?}"
    );
    let ps = pool.stats();
    assert!(ps.reconciles() && ps.in_use == 0, "{ps:?}");
}

/// Satellite: the seeded chaos harness — random panics, stalls and dropped
/// replies over a random schedule — upholds the same invariants end to end.
#[test]
fn session_chaos_reconciles_and_survivors_match() {
    let fx = fixture();
    let mut seed = 0x5EED_0004u64;
    let schedule = random_schedule(6, &mut seed);
    let report = run_session_chaos(
        fx.spec.clone(),
        &schedule,
        SessionChaosConfig {
            faults: 5,
            ..SessionChaosConfig::default()
        },
    );
    assert_eq!(report.unresolved, 0, "a ticket hung: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "chaos corrupted a session: {report:?}"
    );
    assert_eq!(report.retired, report.submitted, "{report:?}");
    assert!(report.pool_reconciles, "{report:?}");
    assert_eq!(report.pages_leaked, 0, "{report:?}");
    assert_eq!(report.scheduled_faults, 5);
}
