//! Fixtures the suites over tiny Llama share: seeded weight values and
//! the concrete shape of an annotation.

use std::collections::HashMap;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::ModelIr;
use relax_tir::NDArray;

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
