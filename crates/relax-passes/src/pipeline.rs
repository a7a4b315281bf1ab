//! The optimization and lowering pipeline (§4.7, Figure 13): one
//! function that calls the passes in a fixed order.
//!
//! Around every pass, [`compile_with_report`] opens a `pass:<name>` trace
//! span, records the pass in the [`CompileReport`] and checks the IR it
//! produced: the executable is verified after lowering and after every
//! exec pass; a debug build also re-checks the module's well-formedness
//! after every module pass, which a release build skips (it costs about
//! 19 % of release compile time). The cleanup trio (constant folding,
//! CSE, DCE) repeats until none of them changes the module.

use std::collections::HashMap;
use std::time::Duration;

use relax_arith::Var as SymVar;
use relax_core::IRModule;
use relax_vm::registry::Registry;
use relax_vm::Executable;

use crate::error::PassError;
use crate::{
    annotate_compute_patterns, common_subexpr_elimination, dead_code_elimination, dispatch_library,
    fold_constants, fuse_ops, fuse_tensor_ir, legalize_module, lift_tir_workspaces, lower_to_vm,
    offload_capture, plan_memory, schedule_kernels,
};

/// Options controlling the pipeline — each toggle corresponds to one bar
/// of the paper's Figure 17 ablation. Kernel scheduling is not a toggle:
/// [`schedule_kernels`] runs under every configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// §4.6 partial library lowering.
    pub dispatch_library: bool,
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

/// Telemetry for one executed pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Pass name.
    pub name: String,
    /// Wall-clock time spent inside the pass (excludes the checks after
    /// it).
    pub wall: Duration,
    /// Whether the pass changed the IR.
    pub changed: bool,
}

/// Telemetry for one run of the cleanup fixpoint.
#[derive(Debug, Clone)]
pub struct FixpointRecord {
    /// Fixpoint name (`"cleanup"`).
    pub name: String,
    /// Number of iterations executed (1 = already clean).
    pub iterations: usize,
    /// `false` when the iteration cap fired before quiescence.
    pub converged: bool,
}

/// Per-compilation telemetry returned by [`compile_with_report`]: one
/// timed entry per executed pass, in execution order, plus fixpoint
/// convergence data.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Every executed pass, in order (cleanup passes appear once per
    /// fixpoint iteration).
    pub passes: Vec<PassRecord>,
    /// One entry per run of the cleanup fixpoint.
    pub fixpoints: Vec<FixpointRecord>,
    /// End-to-end wall time of the whole pipeline run.
    pub total: Duration,
}

impl CompileReport {
    /// The executed pass names, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name.as_str()).collect()
    }

    /// Total time attributed to passes (as opposed to checks and
    /// pipeline overhead).
    pub fn pass_time(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }
}

impl std::fmt::Display for CompileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "compile report ({:.3} ms total):", ms(self.total))?;
        for p in &self.passes {
            writeln!(
                f,
                "  {:<24} {:>9.3} ms  {}",
                p.name,
                ms(p.wall),
                if p.changed { "changed" } else { "-" }
            )?;
        }
        for fx in &self.fixpoints {
            writeln!(
                f,
                "  fixpoint {:<15} {} iteration(s){}",
                fx.name,
                fx.iterations,
                if fx.converged { "" } else { " (cap hit)" }
            )?;
        }
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Iteration cap of the cleanup fixpoint — generous: the trio converges
/// in two or three iterations on real modules.
const CLEANUP_CAP: usize = 10;

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
    let root = relax_trace::span("compile", || "pipeline".to_string());
    let mut run = Run::default();
    let mut m = module;
    relax_core::assert_well_formed(&m)?;

    run.fixpoint(&mut m, CLEANUP_CAP, cleanup_round)?;
    if opts.dispatch_library {
        run.pass("dispatch_library", &mut m, |m| Ok(dispatch_library(m) > 0))?;
        run.fixpoint(&mut m, CLEANUP_CAP, cleanup_round)?;
    }
    run.pass("legalize", &mut m, |m| Ok(legalize_module(m)? > 0))?;
    run.pass("annotate_patterns", &mut m, |m| {
        Ok(annotate_compute_patterns(m) > 0)
    })?;
    if opts.fusion {
        run.pass("fuse_ops", &mut m, |m| Ok(fuse_ops(m) > 0))?;
        run.pass("fuse_tensor_ir", &mut m, |m| Ok(fuse_tensor_ir(m)? > 0))?;
        run.pass("annotate_patterns", &mut m, |m| {
            Ok(annotate_compute_patterns(m) > 0)
        })?;
    }
    run.fixpoint(&mut m, CLEANUP_CAP, cleanup_round)?;
    let mut workspaces = HashMap::new();
    run.pass("lift_workspaces", &mut m, |m| {
        workspaces = lift_tir_workspaces(m);
        Ok(!workspaces.is_empty())
    })?;

    let mut exec = Executable::default();
    run.pass("lower_to_vm", &mut exec, |exec| {
        *exec = lower_to_vm(&m, &workspaces)?;
        Ok(true)
    })?;
    // Runs before the plan-affecting exec passes so downstream shape
    // specialization sees the schedule attributes.
    run.pass("schedule_kernels", &mut exec, |exec| {
        Ok(schedule_kernels(exec))
    })?;
    if opts.memory_plan {
        run.pass("memory_plan", &mut exec, |exec| {
            let mut changed = false;
            for f in exec.funcs.values_mut() {
                let planned = plan_memory(f, &opts.shape_bounds);
                if planned != *f {
                    *f = planned;
                    changed = true;
                }
            }
            Ok(changed)
        })?;
        if opts.graph_capture {
            // Capture applies to static and dynamic plans alike — dynamic
            // plans capture per shape signature.
            run.pass("graph_capture", &mut exec, |exec| {
                let mut regions = 0;
                for f in exec.funcs.values_mut() {
                    let (wrapped, n) = offload_capture(f);
                    *f = wrapped;
                    regions += n;
                }
                Ok(regions > 0)
            })?;
        }
    }
    run.report.total = root.finish();
    Ok((exec, run.report))
}

/// One round of the cleanup trio: constant folding can expose new common
/// subexpressions, CSE can orphan bindings, DCE removes them.
fn cleanup_round(run: &mut Run, m: &mut IRModule) -> Result<bool, PassError> {
    let folded = run.pass("const_fold", m, |m| Ok(fold_constants(m) > 0))?;
    let shared = run.pass("cse", m, |m| Ok(common_subexpr_elimination(m) > 0))?;
    let removed = run.pass("dce", m, |m| Ok(dead_code_elimination(m) > 0))?;
    Ok(folded | shared | removed)
}

/// The state of one pipeline run: the report collected so far and the
/// registry executables are verified against.
#[derive(Default)]
struct Run {
    report: CompileReport,
    registry: Registry,
}

/// The IR a pass rewrites, and the check that runs after it.
trait Checked {
    fn check_after(&self, pass: &str, registry: &Registry) -> Result<(), PassError>;
}

impl Checked for IRModule {
    /// Well-formedness, in debug builds only.
    fn check_after(&self, pass: &str, _: &Registry) -> Result<(), PassError> {
        if cfg!(debug_assertions) {
            relax_core::assert_well_formed(self).map_err(|error| PassError::WellFormedAfter {
                pass: pass.to_string(),
                error,
            })?;
        }
        Ok(())
    }
}

impl Checked for Executable {
    fn check_after(&self, pass: &str, registry: &Registry) -> Result<(), PassError> {
        relax_vm::verify(self, registry).map_err(|error| PassError::Verify {
            stage: pass.to_string(),
            error,
        })
    }
}

impl Run {
    /// Runs one pass inside its `pass:<name>` span, records it, and checks
    /// the IR it left. Returns whether the pass changed the IR.
    fn pass<T: Checked>(
        &mut self,
        name: &str,
        ir: &mut T,
        pass: impl FnOnce(&mut T) -> Result<bool, PassError>,
    ) -> Result<bool, PassError> {
        // The span guard is the single clock: its wall time both stamps the
        // trace and feeds the report, so the two cannot disagree.
        let sp = relax_trace::span("compile", || format!("pass:{name}"));
        let changed = pass(ir)?;
        let wall = sp.finish_with(|| relax_trace::Payload::Pass {
            pass: name.to_string(),
            changed,
        });
        self.report.passes.push(PassRecord {
            name: name.to_string(),
            wall,
            changed,
        });
        ir.check_after(name, &self.registry)?;
        Ok(changed)
    }

    /// Repeats `round` until it changes nothing, at most `cap` times, in
    /// the `group:cleanup` span with one `round:cleanup:<n>` span per
    /// iteration. An already-clean module costs exactly one iteration.
    fn fixpoint(
        &mut self,
        m: &mut IRModule,
        cap: usize,
        mut round: impl FnMut(&mut Run, &mut IRModule) -> Result<bool, PassError>,
    ) -> Result<(), PassError> {
        let group = relax_trace::span("compile", || "group:cleanup".to_string());
        let mut iterations = 0;
        let mut any_changed = false;
        let mut converged = false;
        while iterations < cap {
            iterations += 1;
            let sp = relax_trace::span("compile", || format!("round:cleanup:{iterations}"));
            let changed = round(self, m)?;
            sp.finish_with(|| relax_trace::Payload::Pass {
                pass: "cleanup".to_string(),
                changed,
            });
            any_changed |= changed;
            if !changed {
                converged = true;
                break;
            }
        }
        group.finish_with(|| relax_trace::Payload::Pass {
            pass: "cleanup".to_string(),
            changed: any_changed,
        });
        self.report.fixpoints.push(FixpointRecord {
            name: "cleanup".to_string(),
            iterations,
            converged,
        });
        Ok(())
    }
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

    #[test]
    fn fixpoint_cap_stops_divergent_groups() {
        let (mut m, _) = mlp_module();
        let mut run = Run::default();
        run.fixpoint(&mut m, 4, |_, _| Ok(true)).unwrap();
        assert_eq!(run.report.fixpoints[0].iterations, 4);
        assert!(!run.report.fixpoints[0].converged);
    }

    #[test]
    fn a_register_breaking_exec_pass_is_named_in_the_verify_error() {
        let (m, _) = mlp_module();
        let mut exec = compile(m, &CompileOptions::default()).unwrap();
        let mut run = Run::default();
        // Reads a register that is never written (a dangling register).
        let err = run
            .pass("break_registers", &mut exec, |exec| {
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
            })
            .unwrap_err();
        match err {
            PassError::Verify { stage, error } => {
                assert_eq!(stage, "break_registers");
                assert!(!error.violations.is_empty());
            }
            other => panic!("expected Verify error, got: {other}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_block_emptying_module_pass_is_named_in_well_formed_after() {
        let (mut m, _) = mlp_module();
        let mut run = Run::default();
        let err = run
            .pass("empty_block", &mut m, |m| {
                let mut f = m.function("main").unwrap().clone();
                f.blocks[0].bindings.clear();
                m.add_function("main".to_string(), f);
                Ok(true)
            })
            .unwrap_err();
        match err {
            PassError::WellFormedAfter { pass, .. } => assert_eq!(pass, "empty_block"),
            other => panic!("expected WellFormedAfter, got: {other}"),
        }
    }
}
