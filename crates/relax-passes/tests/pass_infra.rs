//! Integration tests for the unified pass infrastructure: fixpoint
//! semantics, `VerifyLevel` gating, `CompileReport` telemetry, IR dump
//! hooks, and verification-registry injection.

use std::cell::RefCell;
use std::rc::Rc;

use relax_core::{BlockBuilder, DataType, Expr, IRModule, Op, StructInfo};
use relax_passes::{
    compile_with_context, compile_with_report, CompileOptions, ConstFold, Cse, Dce, DispatchRules,
    ExecPass, Fixpoint, Legalize, ModulePass, PassContext, PassError, PassManager, PassStage,
    VerifyLevel,
};
use relax_tir::NDArray;
use relax_vm::registry::Registry;
use relax_vm::{Value, Vm};

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

fn cleanup_fixpoint() -> Fixpoint {
    let passes: Vec<Box<dyn ModulePass>> = vec![
        Box::new(ConstFold),
        Box::new(Cse),
        Box::new(Dce),
    ];
    Fixpoint::new("cleanup", passes)
}

#[test]
fn fixpoint_terminates_in_one_iteration_on_clean_module() {
    let mut ctx = PassContext::new();
    let mut pm = PassManager::new()
        .with_module_pass(cleanup_fixpoint())
        .with_module_pass(Legalize);
    pm.run(clean_module(), &mut ctx).unwrap();
    let report = ctx.take_report();
    assert_eq!(report.fixpoints.len(), 1);
    assert_eq!(report.fixpoints[0].name, "cleanup");
    assert_eq!(report.fixpoints[0].iterations, 1);
    assert!(report.fixpoints[0].converged);
    // One iteration = exactly one record per member pass, none changing.
    let cleanup_runs: Vec<_> = report
        .passes
        .iter()
        .filter(|p| matches!(p.name.as_str(), "const_fold" | "cse" | "dce"))
        .collect();
    assert_eq!(cleanup_runs.len(), 3);
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

    let mut ctx = PassContext::new();
    let mut pm = PassManager::new()
        .with_module_pass(cleanup_fixpoint())
        .with_module_pass(Legalize);
    pm.run(bb.finish(), &mut ctx).unwrap();
    let report = ctx.take_report();
    assert_eq!(report.fixpoints.len(), 1);
    assert!(report.fixpoints[0].iterations >= 2);
    assert!(report.fixpoints[0].converged);
}

/// A pass that always claims to have changed the module — exercises the
/// iteration cap.
struct AlwaysChanged;

impl ModulePass for AlwaysChanged {
    fn name(&self) -> &str {
        "always_changed"
    }

    fn run_on_module(
        &mut self,
        _module: &mut IRModule,
        _ctx: &mut PassContext,
    ) -> Result<bool, PassError> {
        Ok(true)
    }
}

#[test]
fn fixpoint_cap_stops_divergent_groups() {
    let fixpoint =
        Fixpoint::new("diverging", vec![Box::new(AlwaysChanged) as Box<dyn ModulePass>])
            .with_cap(4);
    let mut ctx = PassContext::new();
    let mut pm = PassManager::new()
        .with_module_pass(fixpoint)
        .with_module_pass(Legalize);
    pm.run(clean_module(), &mut ctx).unwrap();
    let report = ctx.take_report();
    assert_eq!(report.fixpoints[0].iterations, 4);
    assert!(!report.fixpoints[0].converged);
}

/// A deliberately broken exec pass: reads a register that is never
/// written (a dangling register).
struct BreakRegisters;

impl ExecPass for BreakRegisters {
    fn name(&self) -> &str {
        "break_registers"
    }

    fn run_on_exec(
        &mut self,
        exec: &mut relax_vm::Executable,
        _ctx: &mut PassContext,
    ) -> Result<bool, PassError> {
        for f in exec.funcs.values_mut() {
            let dangling = f.num_regs;
            f.num_regs += 2;
            f.instrs.insert(
                f.instrs.len() - 1,
                relax_vm::Instr::MakeTuple {
                    dst: dangling + 1,
                    items: vec![dangling],
                },
            );
        }
        Ok(true)
    }
}

#[test]
fn verify_level_gates_broken_pass_detection() {
    // With verification on, the dangling register is caught right after
    // the broken pass and attributed to it.
    let mut ctx = PassContext::new().with_verify_level(VerifyLevel::All);
    let mut pm = PassManager::new()
        .with_module_pass(Legalize)
        .with_exec_pass(BreakRegisters);
    let err = pm.run(clean_module(), &mut ctx).unwrap_err();
    match err {
        PassError::Verify { stage, error } => {
            assert_eq!(stage, "break_registers");
            assert!(!error.violations.is_empty());
        }
        other => panic!("expected Verify error, got: {other}"),
    }

    // With verification off, the broken executable sails through.
    let mut ctx = PassContext::new().with_verify_level(VerifyLevel::Off);
    let mut pm = PassManager::new()
        .with_module_pass(Legalize)
        .with_exec_pass(BreakRegisters);
    assert!(pm.run(clean_module(), &mut ctx).is_ok());
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

    // Stages are attributed correctly and the trivially-true change bits
    // of the big rewrites are set.
    for p in &report.passes {
        let want = match p.name.as_str() {
            "lower_to_vm" => PassStage::Lower,
            "schedule_kernels" | "memory_plan" | "graph_capture" => PassStage::Exec,
            _ => PassStage::Module,
        };
        assert_eq!(p.stage, want, "stage of {}", p.name);
    }
    let changed = |name: &str| {
        report
            .passes
            .iter()
            .any(|p| p.name == name && p.changed)
    };
    assert!(changed("dispatch_library"));
    assert!(changed("legalize"));
    assert!(changed("memory_plan"));
    assert!(report.total >= report.pass_time());
}

/// `(pass name, "before"/"after", IR text)` as seen by the dump sink.
type DumpedEvents = Rc<RefCell<Vec<(String, &'static str, String)>>>;

#[test]
fn dump_globs_select_fusion_passes_only() {
    let events: DumpedEvents = Rc::new(RefCell::new(Vec::new()));
    let sink_events = Rc::clone(&events);
    let mut ctx = PassContext::new()
        .with_dump_globs(vec!["fuse*".into()])
        .with_dump_sink(Box::new(move |e| {
            sink_events
                .borrow_mut()
                .push((e.pass.clone(), e.when, e.text.clone()));
        }));
    compile_with_context(mlp_module(), &CompileOptions::default(), &mut ctx).unwrap();

    let events = events.borrow();
    assert!(!events.is_empty());
    // Only the fusion passes were dumped, each as a before/after pair.
    assert!(events
        .iter()
        .all(|(pass, ..)| pass == "fuse_ops" || pass == "fuse_tensor_ir"));
    for pair in events.chunks(2) {
        let [(p1, w1, _), (p2, w2, _)] = pair else {
            panic!("unpaired dump event");
        };
        assert_eq!(p1, p2);
        assert_eq!((*w1, *w2), ("before", "after"));
    }
    // Fusion changed the module, so the snapshots differ.
    let fuse_ops: Vec<_> = events.iter().filter(|(p, ..)| p == "fuse_ops").collect();
    assert_eq!(fuse_ops.len(), 2);
    assert_ne!(fuse_ops[0].2, fuse_ops[1].2);
}

/// An elementwise exp "vendor kernel" for the custom-registry test.
fn lib_exp(inputs: &[NDArray], outputs: &[NDArray]) -> Result<(), String> {
    let (x, out) = (&inputs[0], &outputs[0]);
    for (i, v) in x.to_f64_vec().iter().enumerate() {
        out.set(i, relax_tir::Scalar::F(v.exp()))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn injected_registry_must_match_the_target_vm() {
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
        .emit_output(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    let module = bb.finish();

    let opts = CompileOptions {
        dispatch_rules: DispatchRules {
            custom: vec![(Op::Exp, "mylib.exp".into())],
            ..DispatchRules::default()
        },
        ..CompileOptions::default()
    };

    // Against the default registry the dispatched callee does not exist —
    // validation fails at the lowering boundary.
    let err = compile_with_context(module.clone(), &opts, &mut PassContext::new()).unwrap_err();
    assert!(matches!(err, PassError::Verify { .. }), "got: {err}");

    // With the custom kernel registered, compilation validates — and the
    // same registry runs the executable.
    let mut registry = Registry::new();
    registry.register_lib_with_signature("mylib.exp", lib_exp, 1, 1);
    let mut ctx = PassContext::new().with_registry(registry.clone());
    let exec = compile_with_context(module, &opts, &mut ctx).unwrap();
    let mut vm = Vm::with_registry(exec, registry);
    let x = NDArray::from_f64(&[4], DataType::F32, vec![0.0, 1.0, -1.0, 2.0]).unwrap();
    let y = vm.run("main", &[Value::Tensor(x)]).unwrap();
    let got = y.as_tensor().unwrap().to_f64_vec();
    assert!((got[0] - 1.0).abs() < 1e-6);
    assert!((got[1] - std::f64::consts::E).abs() < 1e-5);
}
