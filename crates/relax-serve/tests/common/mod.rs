//! Fixtures the request-engine suites share: the tiny Llama decode
//! model, seeded concrete arguments for it, and bitwise output
//! flattening.
#![allow(dead_code)]

use std::collections::HashMap;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::{build_decode, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_tir::NDArray;
use relax_vm::{Executable, Value};

pub fn random_arr(shape: &[usize], dtype: DataType, seed: &mut u64) -> NDArray {
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

pub fn concrete(ir: &ModelIr, sinfo: &StructInfo, batch: i64, kv: i64) -> (Vec<usize>, DataType) {
    let mut env = HashMap::new();
    env.insert(ir.batch.clone(), batch);
    env.insert(ir.seq.clone(), kv);
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

pub fn decode_args(ir: &ModelIr, batch: i64, kv: i64, seed: &mut u64) -> Vec<Value> {
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

pub fn tiny_exec() -> (ModelIr, Executable) {
    let ir = build_decode(&LlamaConfig::tiny()).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    (ir, exec)
}

/// Flattens every tuple element of a decode output (logits + grown KV
/// caches) to `f64`, for bitwise comparison.
pub fn flatten_output(v: &Value) -> Vec<Vec<f64>> {
    v.as_tuple()
        .unwrap()
        .iter()
        .map(|e| e.as_tensor().unwrap().to_f64_vec())
        .collect()
}

/// Yields until `cond` holds: waits for another thread to get somewhere
/// without assuming how long that takes.
pub fn spin_until(cond: impl Fn() -> bool) {
    while !cond() {
        std::thread::yield_now();
    }
}
