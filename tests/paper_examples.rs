//! Integration tests that reproduce the paper's worked examples
//! (Figures 3, 4, 8, 9, 10, 11 and Table 1) end to end.

use relax::core::{BlockBuilder, DataType, Expr, IRModule, Op, ShapeDesc, StructInfo};
use relax::models::nn::{pack_q4, ModelBuilder};
use relax::passes::{
    annotate_compute_patterns, compile, dead_code_elimination, fuse_ops, fuse_tensor_ir,
    legalize_module, lift_tir_workspaces, lower_to_vm, plan_memory, CompileOptions,
};
use relax::tir::{grid, Buffer, NDArray, PrimFunc, Stmt, TirExpr};
use relax::vm::{Instr, Value, Vm};
use relax_arith::{PrimExpr, Var as SymVar};

/// Table 1: annotation syntax round-trips through the printer.
#[test]
fn table1_annotation_syntax() {
    let n = SymVar::new("n");
    assert_eq!(StructInfo::Object.to_string(), "Object");
    assert_eq!(
        StructInfo::shape(vec![n.clone().into(), 4.into()]).to_string(),
        "Shape([n, 4])"
    );
    assert_eq!(StructInfo::shape_ndim(2).to_string(), "Shape(ndim=2)");
    assert_eq!(
        StructInfo::tensor(vec![n.clone().into(), 4.into()], DataType::F32).to_string(),
        "Tensor((n, 4), \"f32\")"
    );
    assert_eq!(
        StructInfo::tensor_unknown().to_string(),
        "Tensor(ndim=None, dtype=None)"
    );
}

/// Figure 3's symbolic-shape function, `exp(unique(flatten(reshape(x))))`,
/// asserting the annotations the paper documents as it builds.
fn figure3_module() -> IRModule {
    let mut bb = BlockBuilder::new();
    let n = SymVar::new("n");
    let p = bb.begin_function(
        "symbolic_shape_fn",
        vec![(
            "x".into(),
            StructInfo::tensor(vec![n.clone().into(), 2.into(), 2.into()], DataType::F32),
        )],
    );
    bb.begin_dataflow();
    let lv0 = bb
        .emit(Expr::CallOp {
            op: Op::Reshape,
            args: vec![
                p[0].clone().into(),
                Expr::ShapeValue(vec![n.clone().into(), 4.into()]),
            ],
            attrs: Default::default(),
        })
        .unwrap();
    assert_eq!(lv0.struct_info().to_string(), "Tensor((n, 4), \"f32\")");
    let lv1 = bb.emit_op(Op::Flatten, &[lv0]).unwrap();
    assert_eq!(lv1.struct_info().to_string(), "Tensor(((n * 4),), \"f32\")");
    let lv2 = bb.emit_op(Op::Unique, &[lv1]).unwrap();
    assert_eq!(lv2.struct_info().to_string(), "Tensor(ndim=1, \"f32\")");
    let m = SymVar::new("m");
    let lv3 = bb
        .emit_match_cast(
            lv2.into(),
            StructInfo::tensor(vec![m.clone().into()], DataType::F32),
        )
        .unwrap();
    let lv4 = bb
        .emit_output(Expr::op_call(Op::Exp, vec![lv3.into()]))
        .unwrap();
    assert_eq!(lv4.struct_info().to_string(), "Tensor((m,), \"f32\")");
    bb.end_dataflow();
    bb.finish_function(lv4.into(), None).unwrap();
    let module = bb.finish();
    assert!(relax::core::assert_well_formed(&module).is_ok());
    module
}

/// Figure 3: the symbolic-shape function builds, deduces the documented
/// annotations, compiles, and runs with the match_cast runtime check.
#[test]
fn figure3_symbolic_shape_fn() {
    let exec = compile(figure3_module(), &CompileOptions::default()).unwrap();
    let mut vm = Vm::new(exec);
    let x = NDArray::from_f64(
        &[2, 2, 2],
        DataType::F32,
        vec![0., 1., 0., 2., 1., 2., 3., 0.],
    )
    .unwrap();
    let out = vm.run("symbolic_shape_fn", &[Value::Tensor(x)]).unwrap();
    let t = out.as_tensor().unwrap();
    // unique of {0,1,2,3} -> 4 elements, exp applied.
    assert_eq!(t.shape(), &[4]);
    let got = t.to_f64_vec();
    for (g, e) in got.iter().zip([0.0f64, 1.0, 2.0, 3.0]) {
        assert!((g - e.exp()).abs() < 1e-5);
    }
}

/// Figure 3 on an input with several NaNs: `unique` keeps numbers
/// ascending and collapses every NaN into one, placed last (numpy's
/// order), so the run returns instead of panicking in the sort.
#[test]
fn figure3_unique_puts_one_nan_last() {
    let exec = compile(figure3_module(), &CompileOptions::default()).unwrap();
    let mut vm = Vm::new(exec);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let vals: Vec<f64> = (0..48)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if i % 5 == 2 {
                f64::NAN
            } else {
                (state % 16) as f64 - 8.0
            }
        })
        .collect();
    let mut numbers: Vec<f64> = vals.iter().copied().filter(|v| !v.is_nan()).collect();
    numbers.sort_by(f64::total_cmp);
    numbers.dedup();
    let x = NDArray::from_f64(&[12, 2, 2], DataType::F32, vals).unwrap();
    let out = vm.run("symbolic_shape_fn", &[Value::Tensor(x)]).unwrap();
    let got = out.as_tensor().unwrap().to_f64_vec();
    let (last, got) = got.split_last().unwrap();
    assert!(last.is_nan(), "NaN is not last: {last}");
    assert_eq!(got.len(), numbers.len(), "{got:?}");
    for (g, e) in got.iter().zip(&numbers) {
        assert!((g - e.exp()).abs() <= 1e-5 * e.exp(), "{got:?}");
    }
}

/// Figure 8: fusing operators whose intermediate shapes are compound
/// expressions requires an extra symbolic shape parameter on the fused
/// function.
#[test]
fn figure8_fusion_with_symbolic_expression_params() {
    let mut bb = BlockBuilder::new();
    let n = SymVar::new("n");
    let p = bb.begin_function(
        "main",
        vec![(
            "x".into(),
            StructInfo::tensor(vec![n.clone().into(), 2.into()], DataType::F32),
        )],
    );
    // flatten sits in a plain binding block so fusion only sees add+relu.
    let lv0 = bb.emit_op(Op::Flatten, &[p[0].clone()]).unwrap();
    assert_eq!(lv0.struct_info().to_string(), "Tensor(((n * 2),), \"f32\")");
    bb.begin_dataflow();
    let lv1 = bb.emit_op(Op::Add, &[lv0.clone(), lv0]).unwrap();
    let lv2 = bb
        .emit_output(Expr::op_call(Op::Relu, vec![lv1.into()]))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(lv2.into(), None).unwrap();
    let mut module = bb.finish();

    legalize_module(&mut module).unwrap();
    annotate_compute_patterns(&mut module);
    let groups = fuse_ops(&mut module);
    assert_eq!(groups, 1);
    // The fused function's tensor parameters have compound shapes (n*2,),
    // so an extra Shape(["n"]) parameter is appended (Figure 8).
    let fused_name = module
        .function_names()
        .into_iter()
        .find(|f| f.starts_with("fused"))
        .expect("fused function exists");
    let fused = module.function(&fused_name).unwrap();
    let last = fused.params.last().unwrap();
    match last.struct_info() {
        StructInfo::Shape(ShapeDesc::Known(dims)) => {
            assert_eq!(dims.len(), 1);
            assert_eq!(dims[0].as_var().unwrap().name(), "n");
        }
        other => panic!("expected a Shape parameter, got {other}"),
    }
    // The call site passes shape(n) as the extra argument.
    let main = module.function("main").unwrap();
    let call = main
        .bindings()
        .find_map(|b| match &b.value {
            Expr::CallGlobal { func, args } if func == &fused_name => Some(args.clone()),
            _ => None,
        })
        .expect("call to fused function");
    assert!(matches!(call.last(), Some(Expr::ShapeValue(_))));

    // FuseTensorIR merges it into one kernel that runs (the runtime solves
    // `n * 2 == len` when binding the parameter shape).
    fuse_tensor_ir(&mut module).unwrap();
    dead_code_elimination(&mut module);
    let exec = compile(module, &CompileOptions::baseline()).unwrap();
    let mut vm = Vm::new(exec);
    let x = NDArray::from_f64(&[3, 2], DataType::F32, vec![-1., 1., -2., 2., -3., 3.]).unwrap();
    let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
    assert_eq!(
        out.as_tensor().unwrap().to_f64_vec(),
        vec![0., 2., 0., 4., 0., 6.]
    );
}

/// Figure 9: the quantization-decode program fuses into the matmul and the
/// merged kernel computes correctly (prologue fusion of a customized
/// tensor program).
#[test]
fn figure9_quantized_decode_fusion() {
    let (k, nout) = (8i64, 32i64);
    let n = SymVar::new("n");
    let mut mb = ModelBuilder::begin(
        IRModule::new(),
        "main",
        vec![
            (
                "x".into(),
                StructInfo::tensor(vec![n.into(), k.into()], DataType::F16),
            ),
            (
                "wdata".into(),
                StructInfo::tensor(vec![k.into(), (nout / 8).into()], DataType::U32),
            ),
            (
                "wscale".into(),
                StructInfo::tensor(vec![k.into(), (nout / 32).into()], DataType::F16),
            ),
        ],
    );
    let x = mb.param("x").unwrap();
    let wd = mb.param("wdata").unwrap();
    let ws = mb.param("wscale").unwrap();
    let y = mb.q4_linear(x, wd, ws, k, nout, DataType::F16).unwrap();
    let out = mb.output(y.into()).unwrap();
    let mut module = mb.finish(out.into()).unwrap();

    // decode_q4 classifies Injective via analysis feedback.
    annotate_compute_patterns(&mut module);
    let decode = module.tir_func("decode_q4").unwrap();
    assert_eq!(decode.attr("compute_pattern"), Some("Injective"));

    legalize_module(&mut module).unwrap();
    annotate_compute_patterns(&mut module);
    assert_eq!(fuse_ops(&mut module), 1);
    assert_eq!(fuse_tensor_ir(&mut module).unwrap(), 1);
    dead_code_elimination(&mut module);

    // Exactly one call_tir remains in main, to the merged kernel.
    let main = module.function("main").unwrap();
    let calls: Vec<_> = main
        .bindings()
        .filter_map(|b| match &b.value {
            Expr::CallTir { func, .. } => Some(func.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(calls.len(), 1);
    assert!(calls[0].starts_with("fused"));

    // Execute the whole module through the VM.
    let exec = compile(module, &CompileOptions::baseline()).unwrap();
    let mut vm = Vm::new(exec);
    let nibbles: Vec<Vec<u8>> = (0..k)
        .map(|r| (0..nout).map(|c| ((r + c) % 16) as u8).collect())
        .collect();
    let scales: Vec<Vec<f64>> = (0..k).map(|_| vec![2.0]).collect();
    let (data, flat_scales) = pack_q4(&nibbles, &scales);
    let wdata = NDArray::from_i64(&[k as usize, 4], DataType::U32, data).unwrap();
    let wscale = NDArray::from_f64(&[k as usize, 1], DataType::F16, flat_scales).unwrap();
    let x = NDArray::from_f64(&[1, k as usize], DataType::F16, vec![1.0; k as usize]).unwrap();
    let out = vm
        .run(
            "main",
            &[
                Value::Tensor(x),
                Value::Tensor(wdata),
                Value::Tensor(wscale),
            ],
        )
        .unwrap();
    let got = out.as_tensor().unwrap().to_f64_vec();
    for (j, g) in got.iter().enumerate() {
        let expect: f64 = (0..k)
            .map(|r| (f64::from(nibbles[r as usize][j]) - 7.0) * 2.0)
            .sum();
        assert!((g - expect).abs() < 1e-2, "col {j}: {g} vs {expect}");
    }
}

/// Figure 10: four chained dynamic intermediates plan into two storages
/// because `(2, n)` and `(n, 2)` have provably equal byte sizes.
#[test]
fn figure10_memory_planning_two_storages() {
    let mut bb = BlockBuilder::new();
    let n = SymVar::new("n");
    let p = bb.begin_function(
        "main",
        vec![(
            "x".into(),
            StructInfo::tensor(vec![2.into(), n.clone().into()], DataType::F32),
        )],
    );
    bb.begin_dataflow();
    let lv0 = bb
        .emit(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
        .unwrap();
    let axes: relax::core::OpAttrs = [("axes".to_string(), "1,0".to_string())]
        .into_iter()
        .collect();
    let lv1 = bb
        .emit_op_attrs(Op::Permute, vec![lv0.into()], axes.clone())
        .unwrap();
    let lv2 = bb.emit(Expr::op_call(Op::Relu, vec![lv1.into()])).unwrap();
    let lv3 = bb
        .emit_op_attrs(Op::Permute, vec![lv2.into()], axes)
        .unwrap();
    let out = bb
        .emit_output(Expr::op_call(Op::Exp, vec![lv3.into()]))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    let mut module = bb.finish();
    legalize_module(&mut module).unwrap();
    let exec = lower_to_vm(&module, &Default::default()).unwrap();
    let f = exec.funcs.get("main").unwrap();
    let allocs_before = f
        .instrs
        .iter()
        .filter(|i| matches!(i, Instr::AllocTensor { .. }))
        .count();
    assert_eq!(allocs_before, 5);
    let planned = plan_memory(f, &Default::default());
    let storages = planned
        .instrs
        .iter()
        .filter(|i| matches!(i, Instr::AllocStorage { .. }))
        .count();
    // lv0..lv3 chain into two storages (Figure 10); the returned tensor
    // also fits a freed storage, so the total stays at two.
    assert_eq!(storages, 2);
}

/// Figure 11: a tensor program with an internal global workspace gets the
/// allocation lifted to the graph level, where it is planned, and the
/// program still computes correctly.
#[test]
fn figure11_workspace_lifting_end_to_end() {
    // mm_split_k-like function: copies X to Y via a constant workspace.
    let n = SymVar::new("n");
    let x = Buffer::new("X", vec![n.clone().into(), 4.into()], DataType::F32);
    let y = Buffer::new("Y", vec![n.clone().into(), 4.into()], DataType::F32);
    let ws = Buffer::new("workspace", vec![64.into()], DataType::F32);
    let (iv, nest) = grid(&[("i", n.clone().into()), ("j", 4.into())]);
    let (i, j) = (iv[0].clone(), iv[1].clone());
    let copy = nest.build(Stmt::seq(vec![
        // Stage through the workspace to prove it is read/written.
        Stmt::store(
            &ws,
            vec![PrimExpr::from(j.clone())],
            TirExpr::load(&x, vec![i.clone().into(), j.clone().into()]) * TirExpr::FloatImm(3.0),
        ),
        Stmt::store(
            &y,
            vec![i.into(), j.clone().into()],
            TirExpr::load(&ws, vec![PrimExpr::from(j)]),
        ),
    ]));
    let split_k = PrimFunc::new(
        "mm_split_k",
        vec![x, y],
        1,
        Stmt::Alloc {
            buffer: ws,
            body: Box::new(copy),
        },
    );

    let mut bb = BlockBuilder::new();
    let tir_name = bb.add_tir_func(split_k);
    let np = SymVar::new("n");
    let p = bb.begin_function(
        "main",
        vec![(
            "x".into(),
            StructInfo::tensor(vec![np.clone().into(), 4.into()], DataType::F32),
        )],
    );
    bb.begin_dataflow();
    let out = bb
        .emit_output(Expr::CallTir {
            func: tir_name.clone(),
            args: vec![p[0].clone().into()],
            out_sinfo: StructInfo::tensor(vec![np.into(), 4.into()], DataType::F32),
            sym_args: vec![],
        })
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    let mut module = bb.finish();

    let lifted = lift_tir_workspaces(&mut module);
    assert_eq!(lifted.len(), 1);
    assert_eq!(module.tir_func(&tir_name).unwrap().params().len(), 3);

    let exec = lower_to_vm(&module, &lifted).unwrap();
    // The caller now allocates the workspace: one extra AllocTensor.
    let f = exec.funcs.get("main").unwrap();
    let allocs = f
        .instrs
        .iter()
        .filter(|i| matches!(i, Instr::AllocTensor { .. }))
        .count();
    assert_eq!(allocs, 2); // workspace + output

    let mut vm = Vm::new(exec);
    let x = NDArray::from_f64(&[2, 4], DataType::F32, (0..8).map(f64::from).collect()).unwrap();
    let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
    let got = out.as_tensor().unwrap().to_f64_vec();
    assert_eq!(got, (0..8).map(|v| f64::from(v) * 3.0).collect::<Vec<_>>());
}

/// Figure 4 semantics: `call_tir` output annotations drive allocation and
/// the callee mutates the destination (DPS).
#[test]
fn figure4_call_tir_dps_semantics() {
    let mut bb = BlockBuilder::new();
    let n = SymVar::new("n");
    let p = bb.begin_function(
        "main",
        vec![
            (
                "x".into(),
                StructInfo::tensor(vec![n.clone().into(), 128.into()], DataType::F32),
            ),
            (
                "w".into(),
                StructInfo::tensor(vec![128.into(), 8.into()], DataType::F32),
            ),
        ],
    );
    bb.begin_dataflow();
    let mm = bb
        .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
        .unwrap();
    let out = bb.emit_output(Expr::Var(mm.clone())).unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    let mut module = bb.finish();
    legalize_module(&mut module).unwrap();
    // Printed form matches the paper's call_tir syntax.
    let text = module.to_string();
    assert!(text.contains("call_tir(matmul, [x, w], Tensor((n, 8), \"f32\")"));
    let exec = compile(module, &CompileOptions::baseline()).unwrap();
    let mut vm = Vm::new(exec);
    let x = NDArray::from_f64(&[1, 128], DataType::F32, vec![1.0; 128]).unwrap();
    let w = NDArray::from_f64(&[128, 8], DataType::F32, vec![0.5; 1024]).unwrap();
    let out = vm
        .run("main", &[Value::Tensor(x), Value::Tensor(w)])
        .unwrap();
    assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![64.0; 8]);
}
