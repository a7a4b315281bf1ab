//! Differential property test for the MoE routing workload: the
//! compiled `moe_ffn` / `moe_dispatch` modules must be **bitwise**
//! equal to the pure-Rust oracle (`relax_models::moe::reference_moe`)
//! on seeded random token→expert assignments — including empty
//! experts, all-tokens-to-one-expert, and more experts than tokens —
//! serially and on 8 concurrent workers, with the plan cache on and
//! off (planned vs the reference interpreter).
//!
//! Every per-expert FFN kernel here runs with a ragged leading dim
//! `n_e` bound at runtime by `match_cast`, so this suite is the proof
//! that data-dependent shapes flow through legalization, fusion,
//! memory planning, the plan cache, and the VM without perturbing a
//! single bit.

use std::sync::Arc;

use relax_core::DataType;
use relax_models::moe::{
    build_dispatch, build_ffn_with_assignments, reference_moe, reference_route, MoeConfig,
};
use relax_passes::{compile, CompileOptions};
use relax_tir::NDArray;
use relax_vm::{registry::Registry, SharedPlanCache, Value, Vm};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Random f32-rounded values in roughly [-1, 1) — the same convention
/// every kernel-produced tensor in the pipeline follows.
fn random_f32s(n: usize, seed: &mut u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            relax_tir::round_to_dtype(
                (lcg(seed) as f64 / (1u64 << 31) as f64) - 1.0,
                DataType::F32,
            )
        })
        .collect()
}

fn tensor2(rows: usize, cols: usize, vals: &[f64]) -> Value {
    Value::Tensor(NDArray::from_f64(&[rows, cols], DataType::F32, vals.to_vec()).unwrap())
}

/// Deterministic expert weights for a config, seeded.
struct Weights {
    w1: Vec<Vec<f64>>,
    w2: Vec<Vec<f64>>,
}

fn make_weights(cfg: &MoeConfig, seed: u64) -> Weights {
    let (d, h, e) = (
        cfg.d_model as usize,
        cfg.d_ff as usize,
        cfg.experts as usize,
    );
    let mut s = seed;
    Weights {
        w1: (0..e).map(|_| random_f32s(d * h, &mut s)).collect(),
        w2: (0..e).map(|_| random_f32s(h * d, &mut s)).collect(),
    }
}

fn weight_values(w: &Weights, cfg: &MoeConfig) -> Vec<Value> {
    let (d, h) = (cfg.d_model as usize, cfg.d_ff as usize);
    let mut vals = Vec::new();
    for e in 0..cfg.experts as usize {
        vals.push(tensor2(d, h, &w.w1[e]));
        vals.push(tensor2(h, d, &w.w2[e]));
    }
    vals
}

fn bits(v: &Value) -> Vec<u64> {
    v.as_tensor()
        .unwrap()
        .to_f64_vec()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

fn ref_bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|x| x.to_bits()).collect()
}

/// The assignment schedules under test: seeded-random plus the named
/// edge cases from the issue.
fn assignment_cases(cfg: &MoeConfig) -> Vec<(String, usize, Vec<i64>)> {
    let e = cfg.experts;
    let mut cases = Vec::new();
    // Random assignments at several ragged token counts.
    let mut s = 0x0E0E_5EED_u64;
    for t in [1usize, 3, 5, 8, 13] {
        let assign: Vec<i64> = (0..t).map(|_| (lcg(&mut s) % e as u64) as i64).collect();
        cases.push((format!("random_t{t}"), t, assign));
    }
    // Every token to one expert (others genuinely empty).
    cases.push(("all_one_expert".into(), 6, vec![e - 1; 6]));
    // Expert count exceeds token count (most experts see zero rows).
    cases.push(("experts_gt_tokens".into(), 2, vec![0, e - 1]));
    // Round-robin (no expert empty when t >= e).
    cases.push((
        "round_robin".into(),
        2 * e as usize,
        (0..2 * e).map(|i| i % e).collect(),
    ));
    cases
}

/// Core check: one compiled `moe_ffn` executable, one VM, every
/// assignment case — bitwise against the oracle.
fn check_ffn(vm: &mut Vm, cfg: &MoeConfig, w: &Weights, label: &str) {
    let (d, h) = (cfg.d_model as usize, cfg.d_ff as usize);
    let weight_vals = weight_values(w, cfg);
    let mut seed = 0xA55A_1234_u64;
    for (name, t, assign) in assignment_cases(cfg) {
        let tokens = random_f32s(t * d, &mut seed);
        let mut args = vec![
            tensor2(t, d, &tokens),
            Value::Tensor(NDArray::from_i64(&[t], DataType::I64, assign.clone()).unwrap()),
        ];
        args.extend(weight_vals.iter().cloned());
        let got = vm.run("moe_ffn", &args).unwrap();
        let expect = reference_moe(&tokens, &assign, &w.w1, &w.w2, d, h);
        assert_eq!(
            bits(&got),
            ref_bits(&expect),
            "case {name} diverged from the oracle under {label}"
        );
    }
}

#[test]
fn moe_ffn_matches_oracle_serial_across_ablations() {
    let cfg = MoeConfig::tiny();
    let w = make_weights(&cfg, 0xFACE_0FF5);
    let exec = compile(
        build_ffn_with_assignments(&cfg).unwrap().module,
        &CompileOptions::default(),
    )
    .unwrap();
    relax_vm::verify(&exec, &Registry::new()).unwrap();
    for cache_capacity in [64usize, 0] {
        let mut vm = Vm::new(exec.clone());
        vm.set_plan_cache_capacity(cache_capacity);
        check_ffn(&mut vm, &cfg, &w, &format!("cache={cache_capacity}"));
    }
}

#[test]
fn moe_ffn_matches_oracle_on_eight_workers_sharing_one_plan_cache() {
    let cfg = MoeConfig::tiny();
    let w = Arc::new(make_weights(&cfg, 0xFACE_0FF5));
    let exec = Arc::new(
        compile(
            build_ffn_with_assignments(&cfg).unwrap().module,
            &CompileOptions::default(),
        )
        .unwrap(),
    );
    let registry = Arc::new(Registry::new());
    let cache = SharedPlanCache::new(256);
    let mut handles = Vec::new();
    for worker in 0..8 {
        let exec = Arc::clone(&exec);
        let registry = Arc::clone(&registry);
        let cache = cache.clone();
        let cfg = cfg.clone();
        let w = Arc::clone(&w);
        handles.push(std::thread::spawn(move || {
            let mut vm = Vm::from_parts(exec, registry, cache);
            // Each worker replays every ragged case twice: the second
            // pass hits plans the first pass (or a sibling) populated.
            for round in 0..2 {
                check_ffn(&mut vm, &cfg, &w, &format!("worker={worker} round={round}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // The ragged shapes were genuinely shared: the cache saw hits.
    let st = cache.stats();
    assert!(st.hits > 0, "expected cross-worker plan reuse: {st:?}");
}

#[test]
fn moe_dispatch_routes_like_the_reference_end_to_end() {
    let cfg = MoeConfig::tiny();
    let (d, h, e) = (
        cfg.d_model as usize,
        cfg.d_ff as usize,
        cfg.experts as usize,
    );
    let w = make_weights(&cfg, 0xD15_0A7C);
    let mut seed = 0x5CA7_7E12_u64;
    let router = random_f32s(d * e, &mut seed);
    let exec = compile(
        build_dispatch(&cfg).unwrap().module,
        &CompileOptions::default(),
    )
    .unwrap();
    let mut vm = Vm::new(exec);
    for t in [1usize, 2, 7, 11] {
        let tokens = random_f32s(t * d, &mut seed);
        let mut args = vec![tensor2(t, d, &tokens), tensor2(d, e, &router)];
        args.extend(weight_values(&w, &cfg));
        let got = vm.run("moe_dispatch", &args).unwrap();
        let assign = reference_route(&tokens, &router, t, d, e);
        let expect = reference_moe(&tokens, &assign, &w.w1, &w.w2, d, h);
        assert_eq!(bits(&got), ref_bits(&expect), "t={t}");
    }
}
