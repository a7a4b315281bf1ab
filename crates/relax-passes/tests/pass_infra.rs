//! Integration tests for the compile pipeline: cleanup fixpoint
//! semantics and `CompileReport` telemetry.

use relax_core::{BlockBuilder, DataType, Expr, IRModule, Op, StructInfo};
use relax_passes::{compile_with_report, CompileOptions};

/// x @ w -> +bias -> relu -> @ w2 -> rms_norm on symbolic batch (the
/// pipeline's standard MLP fixture).
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
    let h = bb
        .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
        .unwrap();
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

/// A minimal already-clean module: one relu, nothing to fold/share/remove.
fn clean_module() -> IRModule {
    let mut bb = BlockBuilder::new();
    let p = bb.begin_function(
        "main",
        vec![(
            "x".into(),
            StructInfo::tensor(vec![4.into()], DataType::F32),
        )],
    );
    bb.begin_dataflow();
    let out = bb
        .emit_output(Expr::op_call(Op::Relu, vec![p[0].clone().into()]))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    bb.finish()
}

#[test]
fn fixpoint_terminates_in_one_iteration_on_clean_module() {
    let (_, report) = compile_with_report(clean_module(), &CompileOptions::default()).unwrap();
    // The fixpoint runs at the start, after library dispatch and after
    // fusion; each finds the module clean.
    assert_eq!(report.fixpoints.len(), 3);
    for fixpoint in &report.fixpoints {
        assert_eq!(fixpoint.name, "cleanup");
        assert_eq!(fixpoint.iterations, 1);
        assert!(fixpoint.converged);
    }
    // One iteration = exactly one record per member pass, none changing.
    let cleanup_runs: Vec<_> = report
        .passes
        .iter()
        .filter(|p| matches!(p.name.as_str(), "const_fold" | "cse" | "dce"))
        .collect();
    assert_eq!(cleanup_runs.len(), 9);
    assert!(cleanup_runs.iter().all(|p| !p.changed));
}

#[test]
fn fixpoint_iterates_until_quiescent_on_dirty_module() {
    // Two identical exp computations: CSE rewrites one, DCE then removes
    // the orphaned alias — the second iteration confirms quiescence.
    let mut bb = BlockBuilder::new();
    let p = bb.begin_function(
        "main",
        vec![(
            "x".into(),
            StructInfo::tensor(vec![4.into()], DataType::F32),
        )],
    );
    bb.begin_dataflow();
    let a = bb
        .emit(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
        .unwrap();
    let b = bb
        .emit(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
        .unwrap();
    let out = bb
        .emit_output(Expr::op_call(Op::Add, vec![a.into(), b.into()]))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();

    let (_, report) = compile_with_report(bb.finish(), &CompileOptions::default()).unwrap();
    assert!(report.fixpoints[0].iterations >= 2);
    assert!(report.fixpoints.iter().all(|f| f.converged));
}

#[test]
fn report_names_match_executed_sequence() {
    let (_, report) = compile_with_report(mlp_module(), &CompileOptions::default()).unwrap();

    // Every cleanup-trio execution is recorded member by member, in
    // whole-trio multiples.
    let cleanup: Vec<&str> = report
        .pass_names()
        .into_iter()
        .filter(|n| matches!(*n, "const_fold" | "cse" | "dce"))
        .collect();
    assert!(!cleanup.is_empty());
    assert_eq!(cleanup.len() % 3, 0);
    for trio in cleanup.chunks(3) {
        assert_eq!(trio, ["const_fold", "cse", "dce"]);
    }
    assert!(report.fixpoints.iter().all(|f| f.converged));

    // The non-cleanup passes appear exactly in pipeline order.
    let rest: Vec<&str> = report
        .pass_names()
        .into_iter()
        .filter(|n| !matches!(*n, "const_fold" | "cse" | "dce"))
        .collect();
    assert_eq!(
        rest,
        [
            "dispatch_library",
            "legalize",
            "annotate_patterns",
            "fuse_ops",
            "fuse_tensor_ir",
            "annotate_patterns",
            "lift_workspaces",
            "lower_to_vm",
            "schedule_kernels",
            "memory_plan",
            "graph_capture",
        ]
    );

    // The trivially-true change bits of the big rewrites are set.
    let changed = |name: &str| report.passes.iter().any(|p| p.name == name && p.changed);
    assert!(changed("dispatch_library"));
    assert!(changed("legalize"));
    assert!(changed("memory_plan"));
    assert!(report.total >= report.pass_time());
}
