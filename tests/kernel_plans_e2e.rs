//! Every generated kernel of the two served models, run two ways: through
//! shape-specialized kernel plans (a default `Vm`) and through the
//! reference interpreter (a `Vm` whose plan cache has capacity 0). The two
//! must agree **bitwise** on every output.
//!
//! - the paged llama `decode_paged` at the benchmark's dimensions: for
//!   each group size `b ∈ {1, 3, 8}` and prompt length `n ∈ {1, 13, 40}`,
//!   `b` fresh caches each take an `n`-token prompt as one `(1, n)` call,
//!   then two `(b, 1)` decode steps run over the stack of all `b`; the
//!   logits of every call and every stream of every cache are compared;
//! - `moe_dispatch` at the benchmark's dimensions, on `t ∈ {1, 7, 33, 64}`
//!   routed tokens.
//!
//! Library kernels and builtins run natively on both sides; what differs
//! is only how the generated tensor programs execute.

use std::sync::Arc;

use relax_core::{DataType, StructInfo};
use relax_models::llama::{build_decode_paged, LlamaConfig};
use relax_models::moe::{build_dispatch, MoeConfig};
use relax_passes::{compile, CompileOptions};
use relax_tir::{round_to_dtype, NDArray};
use relax_vm::{KvCache, KvCacheConfig, KvPagePool, Value, Vm};

const GROUPS: [usize; 3] = [1, 3, 8];
const PROMPTS: [usize; 3] = [1, 13, 40];
const MOE_TOKENS: [usize; 4] = [1, 7, 33, 64];

/// The benchmark's llama dimensions.
fn llama_config() -> LlamaConfig {
    LlamaConfig {
        name: "BenchLlama".into(),
        hidden: 64,
        intermediate: 128,
        n_layers: 4,
        n_heads: 2,
        n_kv_heads: 1,
        head_dim: 32,
        vocab: 64,
        max_context: 512,
        dtype: DataType::F32,
        quant4: false,
    }
}

/// The benchmark's MoE dimensions.
fn moe_config() -> MoeConfig {
    MoeConfig {
        d_model: 64,
        d_ff: 128,
        experts: 8,
        dtype: DataType::F32,
    }
}

fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// f32-rounded values in roughly [-scale, scale).
fn random_tensor(dims: &[usize], scale: f64, seed: &mut u64) -> NDArray {
    let n: usize = dims.iter().product();
    let vals = (0..n)
        .map(|_| {
            let u = next(seed) as f64 / (1u64 << 31) as f64 - 1.0;
            round_to_dtype(u * scale, DataType::F32)
        })
        .collect();
    NDArray::from_f64(dims, DataType::F32, vals).unwrap()
}

fn weight_dims(sinfo: &StructInfo) -> Vec<usize> {
    sinfo
        .tensor_dims()
        .unwrap()
        .iter()
        .map(|d| d.as_int().expect("weights have constant dims") as usize)
        .collect()
}

fn bits(t: &NDArray) -> Vec<u64> {
    t.to_f64_vec().iter().map(|v| v.to_bits()).collect()
}

fn vm_for(module: relax_core::IRModule, plans: bool) -> Vm {
    let mut vm = Vm::new(compile(module, &CompileOptions::default()).unwrap());
    if !plans {
        vm.set_plan_cache_capacity(0);
    }
    vm
}

/// The compiled `decode_paged`, with plans or on the interpreter.
fn llama_vm(plans: bool) -> Vm {
    vm_for(build_decode_paged(&llama_config()).unwrap().module, plans)
}

/// The compiled `moe_dispatch`, with plans or on the interpreter.
fn moe_vm(plans: bool) -> Vm {
    vm_for(build_dispatch(&moe_config()).unwrap().module, plans)
}

/// A labelled output of one call, as bit patterns.
type Outputs = Vec<(String, Vec<u64>)>;

/// Runs every `(b, n)` case through `decode_paged` on `vm`.
fn drive_llama(vm: &mut Vm) -> Outputs {
    let cfg = llama_config();
    let ir = build_decode_paged(&cfg).unwrap();
    let mut seed = 0x7E57_AB1E_u64;
    let weights: Vec<Value> = ir
        .params
        .iter()
        .filter(|(name, _)| name != "tokens" && name != "kv_cache")
        .map(|(_, sinfo)| Value::Tensor(random_tensor(&weight_dims(sinfo), 0.25, &mut seed)))
        .collect();
    let kv = KvCacheConfig {
        streams: 2 * cfg.n_layers,
        batch: 1,
        heads: cfg.n_kv_heads as usize,
        head_dim: cfg.head_dim as usize,
        dtype: cfg.dtype,
    };
    let pool = Arc::new(KvPagePool::with_capacity(16, usize::MAX));
    let mut out = Outputs::new();
    let mut call = |vm: &mut Vm, label: String, rows: usize, tokens: &[i64], cache: &KvCache| {
        let shape = [rows, tokens.len() / rows];
        let t = NDArray::from_i64(&shape, DataType::I64, tokens.to_vec()).unwrap();
        let mut args = vec![Value::Tensor(t), Value::KvCache(cache.clone())];
        args.extend(weights.iter().cloned());
        let res = vm.run("decode_paged", &args).unwrap();
        let logits = res.as_tuple().unwrap()[0].as_tensor().unwrap().clone();
        out.push((label, bits(&logits)));
    };
    let mut caches_seen = Vec::new();
    for b in GROUPS {
        for n in PROMPTS {
            let caches: Vec<KvCache> = (0..b).map(|_| KvCache::new(kv, pool.clone())).collect();
            for (m, cache) in caches.iter().enumerate() {
                let prompt: Vec<i64> = (0..n).map(|_| (next(&mut seed) % 64) as i64).collect();
                call(
                    vm,
                    format!("b={b} n={n} prompt of member {m}"),
                    1,
                    &prompt,
                    cache,
                );
            }
            let stack = KvCache::stack(&caches).unwrap();
            for step in 0..2 {
                let group: Vec<i64> = (0..b).map(|_| (next(&mut seed) % 64) as i64).collect();
                call(
                    vm,
                    format!("b={b} n={n} decode step {step}"),
                    b,
                    &group,
                    &stack,
                );
            }
            for (m, cache) in caches.iter().enumerate() {
                for s in 0..kv.streams {
                    let view = cache.view(s).unwrap();
                    caches_seen.push((format!("b={b} n={n} member {m} stream {s}"), bits(&view)));
                }
            }
        }
    }
    out.extend(caches_seen);
    out
}

/// Runs every token count through `moe_dispatch` on `vm`.
fn drive_moe(vm: &mut Vm) -> Outputs {
    let cfg = moe_config();
    let ir = build_dispatch(&cfg).unwrap();
    let mut seed = 0x0DD5_EED5_u64;
    let weights: Vec<Value> = ir
        .params
        .iter()
        .filter(|(name, _)| name != "tokens")
        .map(|(_, sinfo)| Value::Tensor(random_tensor(&weight_dims(sinfo), 0.25, &mut seed)))
        .collect();
    let d = cfg.d_model as usize;
    MOE_TOKENS
        .iter()
        .map(|&t| {
            let mut args = vec![Value::Tensor(random_tensor(&[t, d], 1.0, &mut seed))];
            args.extend(weights.iter().cloned());
            let res = vm.run("moe_dispatch", &args).unwrap();
            (format!("t={t}"), bits(res.as_tensor().unwrap()))
        })
        .collect()
}

fn assert_same(planned: &Outputs, interpreted: &Outputs) {
    assert_eq!(planned.len(), interpreted.len());
    for ((label, p), (_, i)) in planned.iter().zip(interpreted) {
        assert_eq!(p, i, "{label}: plans and interpreter disagree");
    }
}

#[test]
fn decode_paged_plans_match_the_interpreter_bitwise() {
    let planned = drive_llama(&mut llama_vm(true));
    let interpreted = drive_llama(&mut llama_vm(false));
    assert_same(&planned, &interpreted);
}

#[test]
fn moe_dispatch_plans_match_the_interpreter_bitwise() {
    let planned = drive_moe(&mut moe_vm(true));
    let interpreted = drive_moe(&mut moe_vm(false));
    assert_same(&planned, &interpreted);
}

/// Launches of kernels whose name says they gather (`take`): the one
/// generated kernel whose store reads through a data-dependent index.
fn take_launches(vm: &Vm) -> u64 {
    vm.kernel_stats()
        .iter()
        .filter(|(name, _)| name.contains("take"))
        .map(|(_, s)| s.calls)
        .sum()
}

/// Every other generated kernel of the two served models runs its
/// stores a row at a time: the launches that walk the scalar tape are
/// exactly the embedding gathers.
#[test]
fn only_gathers_walk_the_scalar_tape() {
    let mut llama = llama_vm(true);
    drive_llama(&mut llama);
    let takes = take_launches(&llama);
    assert!(takes > 0, "decode_paged gathers its embeddings");
    let tel = llama.telemetry();
    assert_eq!((tel.scalar_tape_launches, tel.plan_fallbacks), (takes, 0));

    let mut moe = moe_vm(true);
    drive_moe(&mut moe);
    let tel = moe.telemetry();
    assert!(tel.tir_calls > 0);
    assert_eq!(take_launches(&moe), 0);
    assert_eq!((tel.scalar_tape_launches, tel.plan_fallbacks), (0, 0));
}
