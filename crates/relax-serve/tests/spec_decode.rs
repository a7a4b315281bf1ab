//! Speculative-decoding differential tests: a draft model proposes
//! `lookahead` tokens per step through its own paged KV cache, a
//! multi-token verify pass scores them in one variable-length feed, and
//! the committed stream plus the final verify KV cache must be
//! **bitwise** equal to plain autoregressive decoding of the same
//! request — regardless of draft quality, injected proposal noise,
//! lookahead or worker count, with every executable running its
//! scheduled macro-op plans. Noise only moves the acceptance counters,
//! never the stream.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::{
    build_decode, build_decode_paged, build_decode_paged_multi, build_prefill, LlamaConfig, ModelIr,
};
use relax_passes::{compile, CompileOptions};
use relax_serve::chaos::{run_session_chaos, SessionChaosConfig};
use relax_serve::{
    SessionConfig, SessionManager, SessionModelSpec, SessionRequest, SessionStats, SessionTicket,
    SpeculativeSpec,
};
use relax_tir::NDArray;
use relax_vm::{Executable, KvCacheConfig, Value, Vm};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn random_arr(shape: &[usize], dtype: DataType, seed: &mut u64) -> NDArray {
    let n: usize = shape.iter().product();
    let vals: Vec<f64> = (0..n)
        .map(|_| ((lcg(seed) as f64 / (1u64 << 31) as f64) - 0.5) * 0.2)
        .collect();
    NDArray::from_f64(shape, dtype, vals).unwrap()
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

fn kv_config(cfg: &LlamaConfig) -> KvCacheConfig {
    KvCacheConfig {
        streams: 2 * cfg.n_layers,
        batch: 1,
        heads: cfg.n_kv_heads as usize,
        head_dim: cfg.head_dim as usize,
        dtype: cfg.dtype,
    }
}

/// The verify-side model compiled three ways (paged decode for the
/// plain path, copy decode + prefill for the oracle, multi-token decode
/// for verification) over one shared weight set, plus a draft.
struct Fixture {
    cfg: LlamaConfig,
    spec: SessionModelSpec,
    decode_exec: Executable,
    prefill_exec: Executable,
    weights: Vec<Value>,
}

/// Which draft model proposes tokens.
enum Draft {
    /// The verify model itself drives drafting — with `noise: 0.0`
    /// every proposal must be accepted.
    SameModel,
    /// A genuinely different 1-layer model with its own random weights:
    /// proposals routinely diverge, the committed stream must not.
    OneLayerRandom,
}

fn fixture(draft: Draft, lookahead: usize, noise: f64, opts: &CompileOptions) -> Fixture {
    let cfg = LlamaConfig::tiny();
    let paged_ir = build_decode_paged(&cfg).unwrap();
    let paged_exec = Arc::new(compile(paged_ir.module.clone(), opts).unwrap());
    let decode_exec = compile(build_decode(&cfg).unwrap().module, opts).unwrap();
    let prefill_exec = compile(build_prefill(&cfg).unwrap().module, opts).unwrap();
    let verify_exec =
        Arc::new(compile(build_decode_paged_multi(&cfg).unwrap().module, opts).unwrap());

    let mut wseed = 0xFACE_F00Du64;
    let weights = build_weights(&paged_ir, &mut wseed);

    let (draft_exec, draft_weights, draft_cache) = match draft {
        Draft::SameModel => (paged_exec.clone(), weights.clone(), kv_config(&cfg)),
        Draft::OneLayerRandom => {
            let dcfg = LlamaConfig {
                n_layers: 1,
                ..cfg.clone()
            };
            let dir = build_decode_paged(&dcfg).unwrap();
            let dexec = Arc::new(compile(dir.module.clone(), opts).unwrap());
            let mut dseed = 0x00D1_2AF7_u64;
            (dexec, build_weights(&dir, &mut dseed), kv_config(&dcfg))
        }
    };

    let spec = SessionModelSpec {
        decode: paged_exec,
        decode_func: "decode_paged".into(),
        prefill: Some(Arc::new(prefill_exec.clone())),
        prefill_func: "prefill".into(),
        weights: weights.clone(),
        cache: kv_config(&cfg),
        speculative: Some(SpeculativeSpec {
            draft: draft_exec,
            draft_func: "decode_paged".into(),
            draft_weights,
            draft_cache,
            verify: verify_exec,
            verify_func: "decode_paged_multi".into(),
            lookahead,
            noise,
            noise_seed: 0x5BEC_0001,
        }),
    };
    Fixture {
        cfg,
        spec,
        decode_exec,
        prefill_exec,
        weights,
    }
}

/// Plain greedy generation through the copy-based `kv_append` path —
/// the ground truth a speculative run must reproduce bitwise.
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

/// Runs `schedule` through a speculative manager and asserts every
/// session's token stream *and* final paged KV are bitwise equal to
/// plain autoregressive decoding. Returns the manager stats for
/// acceptance-bookkeeping checks.
fn run_and_compare(
    fx: &Fixture,
    schedule: &[SessionRequest],
    workers: usize,
    label: &str,
) -> SessionStats {
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers,
            return_kv: true,
            ..SessionConfig::default()
        },
    );
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
        let out = t
            .wait()
            .unwrap_or_else(|e| panic!("{label} session {i}: {e}"));
        let (want_tokens, want_kv) = oracle_run(fx, &r.prompt, r.max_new_tokens);
        assert_eq!(
            out.tokens, want_tokens,
            "{label} session {i} tokens diverged from plain decode"
        );
        let got_kv: Vec<Vec<f64>> = out
            .kv
            .expect("return_kv")
            .iter()
            .map(|c| c.to_f64_vec())
            .collect();
        assert_eq!(
            got_kv, want_kv,
            "{label} session {i} final KV diverged from plain decode"
        );
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.retired, schedule.len() as u64, "{label}");
    assert!(
        stats.speculations > 0,
        "{label} never speculated: {stats:?}"
    );
    let ps = pool.stats();
    assert!(ps.reconciles(), "{label} pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "{label} pages leaked: {ps:?}");
    stats
}

/// The stream is invariant across the noise × lookahead grid, and the
/// acceptance counters move exactly as the noise dial says: zero noise
/// with a same-model draft accepts everything, full noise accepts
/// nothing, and partial noise lands in between.
#[test]
fn noise_and_lookahead_never_perturb_the_stream_serial() {
    let mut seed = 0x5BEC_5EEDu64;
    let schedule = random_schedule(6, &mut seed);
    for lookahead in [1usize, 3] {
        for noise in [0.0f64, 0.35, 1.0] {
            let fx = fixture(
                Draft::SameModel,
                lookahead,
                noise,
                &CompileOptions::default(),
            );
            let stats = run_and_compare(
                &fx,
                &schedule,
                1,
                &format!("noise={noise} lookahead={lookahead}"),
            );
            assert!(stats.spec_proposed >= stats.speculations * lookahead as u64);
            if noise == 0.0 {
                assert_eq!(
                    stats.spec_accepted, stats.spec_proposed,
                    "same-model draft without noise must always be accepted: {stats:?}"
                );
            }
            if noise == 1.0 {
                assert_eq!(
                    stats.spec_accepted, 0,
                    "fully corrupted proposals must all be rejected: {stats:?}"
                );
            }
        }
    }
}

/// Eight workers race speculative sessions on one shared page pool;
/// per-session corruption is keyed on (seed, session, position) so the
/// streams stay bitwise identical to the serial plain decode.
#[test]
fn speculative_sessions_match_plain_decode_on_eight_workers() {
    let fx = fixture(Draft::SameModel, 3, 0.35, &CompileOptions::default());
    let mut seed = 0x5BEC_0002u64;
    run_and_compare(&fx, &random_schedule(10, &mut seed), 8, "parallel");
}

/// A lookahead of four with light proposal noise on two workers: the
/// draft/verify/plain triangle, all on scheduled macro-op plans, still
/// agrees bitwise.
#[test]
fn lookahead_four_with_noise_on_two_workers_preserves_the_stream() {
    let fx = fixture(Draft::SameModel, 4, 0.2, &CompileOptions::default());
    let mut seed = 0x5BEC_0003u64;
    run_and_compare(&fx, &random_schedule(6, &mut seed), 2, "lookahead4");
}

/// A genuinely different draft (1 layer, independent random weights)
/// proposes mostly-wrong tokens; verification rejects them and the
/// committed stream is still exactly the plain decode.
#[test]
fn one_layer_random_draft_cannot_corrupt_the_stream() {
    let fx = fixture(Draft::OneLayerRandom, 3, 0.0, &CompileOptions::default());
    let mut seed = 0x5BEC_0004u64;
    let stats = run_and_compare(&fx, &random_schedule(6, &mut seed), 2, "random-draft");
    // The draft is noise-free but wrong-by-construction often enough
    // that at least one proposal must have been rejected.
    assert!(
        stats.spec_accepted < stats.spec_proposed,
        "a 1-layer random draft should not match the verify model everywhere: {stats:?}"
    );
}

/// Chaos: worker panics and stalls fire *mid-speculation* (between the
/// draft and verify phases, leaving the draft cache extended while the
/// verify cache is untouched). The scheduler must roll back both paged
/// caches, retry, keep every stream bitwise-equal to the fault-free
/// reference, and reconcile the page pool with zero leaks.
#[test]
fn chaos_mid_speculation_rolls_back_both_caches_and_heals() {
    let fx = fixture(Draft::SameModel, 3, 0.3, &CompileOptions::default());
    let mut seed = 0x5BEC_0005u64;
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
    assert_eq!(report.mismatches, 0, "chaos corrupted a stream: {report:?}");
    assert_eq!(report.retired, report.submitted, "{report:?}");
    assert!(report.pool_reconciles, "{report:?}");
    assert_eq!(report.pages_leaked, 0, "{report:?}");
    assert_eq!(report.scheduled_faults, 5);
    assert!(
        report.stats.speculations > 0,
        "chaos run never speculated: {report:?}"
    );
    assert!(
        report.stats.rollbacks >= 1,
        "faults should force at least one rollback: {report:?}"
    );
}
