//! Pipeline ablation matrix: the existing MLP module compiled under every
//! on/off combination of `dispatch_library` / `fusion` / `memory_plan` /
//! `graph_capture` must produce a verifiable
//! executable and bit-identical VM outputs — optimizations may only
//! change *how* the answer is computed, never the answer. Each config's
//! planned VM must also match the reference interpreter (a capacity-0
//! plan cache) on the same executable, bitwise.

use std::collections::HashMap;

use relax_core::{BlockBuilder, DataType, Expr, IRModule, Op, StructInfo};
use relax_passes::{compile, CompileOptions};
use relax_tir::NDArray;
use relax_vm::{Value, Vm};

/// x @ w1 -> +b1 -> relu -> @ w2 -> rms_norm, on symbolic batch — the
/// same MLP the pipeline unit tests use.
fn mlp_module() -> IRModule {
    let mut bb = BlockBuilder::new();
    let n = relax_arith::Var::new("n");
    let p = bb.begin_function(
        "main",
        vec![
            (
                "x".into(),
                StructInfo::tensor(vec![n.clone().into(), 8.into()], DataType::F32),
            ),
            (
                "w1".into(),
                StructInfo::tensor(vec![8.into(), 16.into()], DataType::F32),
            ),
            (
                "b1".into(),
                StructInfo::tensor(vec![16.into()], DataType::F32),
            ),
            (
                "w2".into(),
                StructInfo::tensor(vec![16.into(), 8.into()], DataType::F32),
            ),
            (
                "g".into(),
                StructInfo::tensor(vec![8.into()], DataType::F32),
            ),
        ],
    );
    bb.begin_dataflow();
    let h = bb.emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()]).unwrap();
    let h = bb.emit_op(Op::Add, &[h, p[2].clone()]).unwrap();
    let h = bb.emit(Expr::op_call(Op::Relu, vec![h.into()])).unwrap();
    let h = bb.emit_op(Op::Matmul, &[h, p[3].clone()]).unwrap();
    let out = bb
        .emit_output(Expr::op_call(
            Op::RmsNorm,
            vec![h.into(), p[4].clone().into()],
        ))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    bb.finish()
}

fn mlp_args() -> Vec<Value> {
    let x = NDArray::from_f64(
        &[2, 8],
        DataType::F32,
        (0..16).map(|v| (v as f64) / 7.0 - 1.0).collect(),
    )
    .unwrap();
    let w1 = NDArray::from_f64(
        &[8, 16],
        DataType::F32,
        (0..128).map(|v| ((v % 7) as f64) / 7.0 - 0.4).collect(),
    )
    .unwrap();
    let b1 = NDArray::from_f64(&[16], DataType::F32, vec![0.1; 16]).unwrap();
    let w2 = NDArray::from_f64(
        &[16, 8],
        DataType::F32,
        (0..128).map(|v| ((v % 5) as f64) / 5.0 - 0.3).collect(),
    )
    .unwrap();
    let g = NDArray::from_f64(&[8], DataType::F32, vec![1.0; 8]).unwrap();
    [x, w1, b1, w2, g].into_iter().map(Value::Tensor).collect()
}

#[test]
fn all_sixteen_configurations_verify_and_agree_bitwise() {
    let args = mlp_args();
    let mut reference: Option<Vec<u64>> = None;
    for mask in 0..16u32 {
        let opts = CompileOptions {
            dispatch_library: mask & 1 != 0,
            fusion: mask & 2 != 0,
            memory_plan: mask & 4 != 0,
            graph_capture: mask & 8 != 0,
            dispatch_rules: Default::default(),
            shape_bounds: HashMap::new(),
        };
        let exec = compile(mlp_module(), &opts)
            .unwrap_or_else(|e| panic!("config {mask:05b} failed to compile: {e}"));
        relax_vm::verify(&exec, &relax_vm::registry::Registry::new())
            .unwrap_or_else(|e| panic!("config {mask:05b} failed verification: {e}"));

        let mut interp = Vm::new(exec.clone());
        interp.set_plan_cache_capacity(0);
        let oracle = interp.run("main", &args).unwrap();

        let mut vm = Vm::new(exec);
        // Three runs so graph-capture replays are exercised too.
        let out = vm.run("main", &args).unwrap();
        vm.run("main", &args).unwrap();
        let out_replay = vm.run("main", &args).unwrap();

        let bits = |v: &Value| -> Vec<u64> {
            v.as_tensor()
                .unwrap()
                .to_f64_vec()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        let this = bits(&out);
        assert_eq!(
            this,
            bits(&out_replay),
            "config {mask:05b}: replay diverged from first run"
        );
        assert_eq!(
            this,
            bits(&oracle),
            "config {mask:05b}: planned VM differs bitwise from the interpreter"
        );
        assert_eq!(vm.telemetry().plan_fallbacks, 0, "config {mask:05b}");
        match &reference {
            None => reference = Some(this),
            Some(want) => assert_eq!(
                &this, want,
                "config {mask:05b} output differs bitwise from config 00000"
            ),
        }
    }
}
