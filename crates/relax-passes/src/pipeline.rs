//! The default optimization and lowering pipeline (§4.7, Figure 13),
//! built on the unified [`PassManager`] infrastructure.

use std::collections::HashMap;

use relax_arith::Var as SymVar;
use relax_core::IRModule;
use relax_vm::Executable;

use crate::annotate::AnnotatePatterns;
use crate::capture::GraphCapture;
use crate::const_fold::ConstFold;
use crate::cse::Cse;
use crate::dce::Dce;
use crate::dispatch::{DispatchLibrary, DispatchRules};
use crate::error::PassError;
use crate::fuse::{FuseOps, FuseTensorIr};
use crate::legalize_pass::Legalize;
use crate::manager::{CompileReport, Fixpoint, ModulePass, PassContext, PassManager};
use crate::plan::MemoryPlan;
use crate::schedule_pass::ScheduleKernels;
use crate::workspace::WorkspaceLift;

/// Options controlling the pipeline — each toggle corresponds to one bar
/// of the paper's Figure 17 ablation. Kernel scheduling is not a toggle:
/// [`ScheduleKernels`] runs under every configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// §4.6 partial library lowering.
    pub dispatch_library: bool,
    /// Library patterns to use when dispatching.
    pub dispatch_rules: DispatchRules,
    /// §4.2 operator fusion (FuseOps + FuseTensorIR).
    pub fusion: bool,
    /// §4.3 static memory planning (Algorithm 3).
    pub memory_plan: bool,
    /// §4.5 graph capture offloading (requires a static plan to fire).
    pub graph_capture: bool,
    /// Declared upper bounds for symbolic shape variables (e.g. maximum
    /// context length), enabling fully static plans.
    pub shape_bounds: HashMap<SymVar, i64>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            dispatch_library: true,
            dispatch_rules: DispatchRules::default(),
            fusion: true,
            memory_plan: true,
            graph_capture: true,
            shape_bounds: HashMap::new(),
        }
    }
}

impl CompileOptions {
    /// All optimizations off: the "w/o" baseline of the ablation study.
    pub fn baseline() -> Self {
        CompileOptions {
            dispatch_library: false,
            dispatch_rules: DispatchRules::default(),
            fusion: false,
            memory_plan: false,
            graph_capture: false,
            shape_bounds: HashMap::new(),
        }
    }

    /// Adds a shape upper bound (builder style).
    pub fn with_bound(mut self, var: SymVar, bound: i64) -> Self {
        self.shape_bounds.insert(var, bound);
        self
    }
}

/// Compiles a module end to end: partial library lowering → legalization →
/// analysis feedback → fusion → cleanup → workspace lifting → VM lowering
/// → kernel scheduling → memory planning → graph capture.
///
/// # Errors
///
/// Propagates the first pass failure.
///
/// # Examples
///
/// ```
/// use relax_core::{BlockBuilder, DataType, Expr, Op, StructInfo};
/// use relax_passes::{compile, CompileOptions};
/// use relax_vm::{Value, Vm};
/// use relax_tir::NDArray;
///
/// let mut bb = BlockBuilder::new();
/// let n = relax_arith::Var::new("n");
/// let p = bb.begin_function("main", vec![
///     ("x".into(), StructInfo::tensor(vec![n.into(), 4.into()], DataType::F32)),
/// ]);
/// bb.begin_dataflow();
/// let out = bb.emit_output(Expr::op_call(Op::Relu, vec![p[0].clone().into()]))?;
/// bb.end_dataflow();
/// bb.finish_function(out.into(), None)?;
/// let exec = compile(bb.finish(), &CompileOptions::default())?;
/// let mut vm = Vm::new(exec);
/// let x = NDArray::from_f64(&[1, 4], DataType::F32, vec![-1., 1., -2., 2.])?;
/// let y = vm.run("main", &[Value::Tensor(x)])?;
/// assert_eq!(y.as_tensor().unwrap().to_f64_vec(), vec![0., 1., 0., 2.]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(module: IRModule, opts: &CompileOptions) -> Result<Executable, PassError> {
    compile_with_report(module, opts).map(|(exec, _)| exec)
}

/// Like [`compile`], additionally returning the per-pass telemetry
/// collected during the run (see [`CompileReport`]).
///
/// # Errors
///
/// Propagates the first pass failure.
pub fn compile_with_report(
    module: IRModule,
    opts: &CompileOptions,
) -> Result<(Executable, CompileReport), PassError> {
    let mut ctx = PassContext::new();
    let exec = compile_with_context(module, opts, &mut ctx)?;
    Ok((exec, ctx.take_report()))
}

/// Like [`compile`], but running inside a caller-provided [`PassContext`]
/// — use this to inject a custom verification registry (matching the VM
/// the executable will run on), raise the
/// [`VerifyLevel`](crate::VerifyLevel), or attach a dump sink. Telemetry
/// accumulates into `ctx`.
///
/// # Errors
///
/// Propagates the first pass failure.
pub fn compile_with_context(
    module: IRModule,
    opts: &CompileOptions,
    ctx: &mut PassContext,
) -> Result<Executable, PassError> {
    default_manager(opts).run(module, ctx)
}

/// The cleanup trio as a fixpoint combinator: constant folding can expose
/// new common subexpressions, CSE can orphan bindings, DCE can expose
/// nothing new — iterate until quiescent.
fn cleanup_fixpoint() -> Fixpoint {
    let passes: Vec<Box<dyn ModulePass>> = vec![
        Box::new(ConstFold),
        Box::new(Cse),
        Box::new(Dce),
    ];
    Fixpoint::new("cleanup", passes)
}

/// Builds the default two-stage pipeline for `opts` — each toggle gates
/// the passes of one bar of the paper's Figure 17 ablation.
pub fn default_manager(opts: &CompileOptions) -> PassManager {
    let mut pm = PassManager::new().with_module_pass(cleanup_fixpoint());
    if opts.dispatch_library {
        pm.add_module_pass(DispatchLibrary::new(opts.dispatch_rules.clone()));
        pm.add_module_pass(cleanup_fixpoint());
    }
    pm.add_module_pass(Legalize);
    pm.add_module_pass(AnnotatePatterns);
    if opts.fusion {
        pm.add_module_pass(FuseOps);
        pm.add_module_pass(FuseTensorIr);
        pm.add_module_pass(AnnotatePatterns);
    }
    pm.add_module_pass(cleanup_fixpoint());
    pm.add_module_pass(WorkspaceLift);
    // Runs before plan-affecting exec passes so downstream shape
    // specialization sees the schedule attributes.
    pm.add_exec_pass(ScheduleKernels);
    if opts.memory_plan {
        pm.add_exec_pass(MemoryPlan::new(opts.shape_bounds.clone()));
        if opts.graph_capture {
            // Capture applies to static and dynamic plans alike — dynamic
            // plans capture per shape signature.
            pm.add_exec_pass(GraphCapture);
        }
    }
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::{BlockBuilder, DataType, Expr, Op, StructInfo};
    use relax_tir::NDArray;
    use relax_vm::{Value, Vm};

    /// x @ w -> +bias -> relu -> @ w2 -> rms_norm, on symbolic batch.
    fn mlp_module() -> (IRModule, relax_arith::Var) {
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
        (bb.finish(), n)
    }

    fn run_config(opts: &CompileOptions) -> (Vec<f64>, relax_vm::Telemetry) {
        let (m, _) = mlp_module();
        let exec = compile(m, opts).unwrap();
        let mut vm = Vm::new(exec);
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
        let args: Vec<Value> = [x, w1, b1, w2, g].into_iter().map(Value::Tensor).collect();
        let out = vm.run("main", &args).unwrap();
        // Run twice more so capture replays show up.
        vm.run("main", &args).unwrap();
        vm.run("main", &args).unwrap();
        (out.as_tensor().unwrap().to_f64_vec(), vm.telemetry())
    }

    #[test]
    fn all_configurations_agree_numerically() {
        let full = run_config(&CompileOptions::default());
        let baseline = run_config(&CompileOptions::baseline());
        let no_fusion = run_config(&CompileOptions {
            fusion: false,
            ..CompileOptions::default()
        });
        let no_lib = run_config(&CompileOptions {
            dispatch_library: false,
            ..CompileOptions::default()
        });
        for (a, b) in full.0.iter().zip(&baseline.0) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        for (a, b) in full.0.iter().zip(&no_fusion.0) {
            assert!((a - b).abs() < 1e-3);
        }
        for (a, b) in full.0.iter().zip(&no_lib.0) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn optimizations_reduce_launches_and_memory() {
        let (_, full_tel) = run_config(&CompileOptions::default());
        let (_, base_tel) = run_config(&CompileOptions::baseline());
        // Fusion + library dispatch reduce per-run kernel launches.
        assert!(full_tel.kernel_launches < base_tel.kernel_launches);
        // Baseline uses the pool; optimized path uses planned storage.
        assert!(base_tel.pool.footprint > 0);
        assert!(full_tel.planned_bytes > 0);
        // Graph capture fired and replayed on later runs.
        assert!(full_tel.captures >= 1);
        assert!(full_tel.replays >= 1);
    }

    #[test]
    fn bounds_produce_static_plans() {
        let (m, n) = mlp_module();
        let opts = CompileOptions::default().with_bound(n, 64);
        let exec = compile(m, &opts).unwrap();
        for f in exec.funcs.values() {
            for i in &f.instrs {
                if let relax_vm::Instr::AllocStorage { bytes, .. } = i {
                    assert!(bytes.is_const());
                }
            }
        }
    }
}
