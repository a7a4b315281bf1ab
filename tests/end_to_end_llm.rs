//! End-to-end LLM integration tests: the tiny model configuration runs
//! numerically through the full pipeline, across optimization levels,
//! batch sizes and growing KV caches — all from single compilations.

use std::collections::HashMap;

use relax::core::{DataType, ShapeDesc, StructInfo};
use relax::models::llama::{build_decode, build_prefill, LlamaConfig, ModelIr};
use relax::passes::{compile, CompileOptions};
use relax::tir::NDArray;
use relax::vm::{Value, Vm, VmErrorKind};

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

fn concrete(ir: &ModelIr, sinfo: &StructInfo, batch: i64, seq: i64) -> (Vec<usize>, DataType) {
    let mut env = HashMap::new();
    env.insert(ir.batch.clone(), batch);
    env.insert(ir.seq.clone(), seq);
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
        other => panic!("unexpected annotation {other}"),
    }
}

fn decode_args(ir: &ModelIr, batch: i64, kv: i64, seed: &mut u64) -> Vec<Value> {
    ir.params
        .iter()
        .map(|(name, sinfo)| {
            let (dims, dt) = concrete(ir, sinfo, batch, kv);
            if name == "tokens" {
                Value::Tensor(NDArray::from_i64(&dims, dt, vec![3; dims.iter().product()]).unwrap())
            } else {
                Value::Tensor(random_arr(&dims, dt, seed))
            }
        })
        .collect()
}

#[test]
fn decode_numerics_agree_across_optimization_levels() {
    let cfg = LlamaConfig::tiny();
    let ir = build_decode(&cfg).unwrap();
    let mut seed = 11u64;
    let args = decode_args(&ir, 2, 4, &mut seed);

    let mut outputs = Vec::new();
    for opts in [
        CompileOptions::default(),
        CompileOptions::baseline(),
        CompileOptions {
            fusion: false,
            ..CompileOptions::default()
        },
        CompileOptions {
            dispatch_library: false,
            ..CompileOptions::default()
        },
        CompileOptions {
            memory_plan: false,
            graph_capture: false,
            ..CompileOptions::default()
        },
    ] {
        let exec = compile(ir.module.clone(), &opts).unwrap();
        let mut vm = Vm::new(exec);
        let out = vm.run("decode", &args).unwrap();
        assert_eq!(vm.telemetry().plan_fallbacks, 0);
        let logits = out.as_tuple().unwrap()[0].as_tensor().unwrap().to_f64_vec();
        assert!(logits.iter().all(|v| v.is_finite()));
        outputs.push(logits);
    }
    for other in &outputs[1..] {
        for (a, b) in outputs[0].iter().zip(other) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}

#[test]
fn one_compilation_serves_batches_and_cache_lengths() {
    let cfg = LlamaConfig::tiny();
    let ir = build_decode(&cfg).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let mut vm = Vm::new(exec);
    let mut seed = 5u64;
    for (batch, kv) in [(1i64, 1i64), (2, 3), (4, 7), (1, 16)] {
        let args = decode_args(&ir, batch, kv, &mut seed);
        let out = vm.run("decode", &args).unwrap();
        let tuple = out.as_tuple().unwrap();
        let logits = tuple[0].as_tensor().unwrap();
        assert_eq!(
            logits.shape(),
            &[batch as usize, 1, cfg.vocab as usize],
            "batch {batch}, kv {kv}"
        );
        // Returned caches grew by one position.
        let k0 = tuple[1].as_tensor().unwrap();
        assert_eq!(k0.shape()[2], kv as usize + 1);
    }
    // Dynamic shapes triggered re-capture per shape signature, then replay.
    let args = decode_args(&ir, 1, 16, &mut seed);
    vm.run("decode", &args).unwrap();
    assert!(vm.telemetry().replays >= 1);
    assert_eq!(vm.telemetry().plan_fallbacks, 0);
}

#[test]
fn prefill_then_decode_composes() {
    let cfg = LlamaConfig::tiny();
    let prefill_ir = build_prefill(&cfg).unwrap();
    let decode_ir = build_decode(&cfg).unwrap();
    let prefill_exec = compile(prefill_ir.module.clone(), &CompileOptions::default()).unwrap();
    let decode_exec = compile(decode_ir.module.clone(), &CompileOptions::default()).unwrap();

    // Shared weights by name.
    let mut seed = 3u64;
    let mut weights: HashMap<String, NDArray> = HashMap::new();
    for (name, sinfo) in prefill_ir.params.iter().skip(1) {
        let (dims, dt) = concrete(&prefill_ir, sinfo, 1, 3);
        weights.insert(name.clone(), random_arr(&dims, dt, &mut seed));
    }

    let mut pvm = Vm::new(prefill_exec);
    let tokens = NDArray::from_i64(&[1, 3], DataType::I64, vec![1, 2, 3]).unwrap();
    let mut args = vec![Value::Tensor(tokens)];
    for (name, _) in prefill_ir.params.iter().skip(1) {
        args.push(Value::Tensor(weights[name].clone()));
    }
    let caches = pvm.run("prefill", &args).unwrap();
    assert_eq!(pvm.telemetry().plan_fallbacks, 0);
    let caches: Vec<NDArray> = caches
        .as_tuple()
        .unwrap()
        .iter()
        .map(|v| v.as_tensor().unwrap().clone())
        .collect();
    assert_eq!(caches.len(), 2 * cfg.n_layers);
    assert_eq!(
        caches[0].shape(),
        &[1, cfg.n_kv_heads as usize, 3, cfg.head_dim as usize]
    );

    // One decode step on top of the prefilled cache.
    let mut dvm = Vm::new(decode_exec);
    let token = NDArray::from_i64(&[1, 1], DataType::I64, vec![2]).unwrap();
    let mut dargs = vec![Value::Tensor(token)];
    for c in &caches {
        dargs.push(Value::Tensor(c.clone()));
    }
    for (name, _) in decode_ir.params.iter().skip(1 + caches.len()) {
        dargs.push(Value::Tensor(weights[name].clone()));
    }
    let out = dvm.run("decode", &dargs).unwrap();
    assert_eq!(dvm.telemetry().plan_fallbacks, 0);
    let tuple = out.as_tuple().unwrap();
    assert_eq!(tuple[1].as_tensor().unwrap().shape()[2], 4);
}

#[test]
fn quantized_tiny_model_runs() {
    let cfg = LlamaConfig::tiny().quantized();
    let ir = build_decode(&cfg).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let mut vm = Vm::new(exec);
    let mut seed = 17u64;
    let args: Vec<Value> = ir
        .params
        .iter()
        .map(|(name, sinfo)| {
            let (dims, dt) = concrete(&ir, sinfo, 1, 2);
            if name == "tokens" {
                Value::Tensor(NDArray::from_i64(&dims, dt, vec![1]).unwrap())
            } else if dt == DataType::U32 {
                // Packed q4 weights: random u32 payloads.
                let n: usize = dims.iter().product();
                Value::Tensor(
                    NDArray::from_i64(
                        &dims,
                        dt,
                        (0..n)
                            .map(|i| (i as i64).wrapping_mul(2654435761) & 0xFFFF_FFFF)
                            .collect(),
                    )
                    .unwrap(),
                )
            } else {
                Value::Tensor(random_arr(&dims, dt, &mut seed))
            }
        })
        .collect();
    let out = vm.run("decode", &args).unwrap();
    assert_eq!(vm.telemetry().plan_fallbacks, 0);
    let logits = out.as_tuple().unwrap()[0].as_tensor().unwrap().to_f64_vec();
    assert!(logits.iter().all(|v| v.is_finite()));
}

#[test]
fn boundary_checks_catch_inconsistent_caches() {
    let cfg = LlamaConfig::tiny();
    let ir = build_decode(&cfg).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let mut vm = Vm::new(exec);
    let mut seed = 23u64;
    let mut args = decode_args(&ir, 1, 4, &mut seed);
    // Corrupt one cache: its kv length disagrees with the others.
    let (dims, dt) = concrete(&ir, &ir.params[3].1, 1, 9);
    args[3] = Value::Tensor(NDArray::zeros(&dims, dt));
    let err = vm.run("decode", &args).unwrap_err();
    assert!(
        matches!(
            err.kind,
            VmErrorKind::ShapeCheck { .. } | VmErrorKind::Interp(_)
        ),
        "got {err}"
    );
}
