//! The virtual machine interpreter.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use relax_arith::EvalError;
use relax_tir::interp::{self, InterpError};
use relax_tir::{NDArray, PlanError, PrimFunc};
use relax_trace::{CacheOutcome, Payload};

use crate::domain::Domain;
use crate::exec::{Executable, Reg, VmFunction};
use crate::fault::{FaultInjector, FaultPlan, FaultSite};
use crate::memory::{KvPagePool, Memory, MemoryStats};
use crate::plan_cache::{CachedPlan, SharedPlanCache};
use crate::registry::{KernelError, Registry};
use crate::value::Value;

/// What went wrong during VM execution (the error taxonomy; see
/// DESIGN.md "Robustness & error taxonomy").
#[derive(Debug, Clone)]
pub enum VmErrorKind {
    /// No function with the given name.
    UnknownFunction(String),
    /// No tensor program with the given name.
    UnknownTir(String),
    /// Wrong argument count for a function call.
    ArgCount {
        /// Function name.
        func: String,
        /// Expected count.
        expected: usize,
        /// Provided count.
        actual: usize,
    },
    /// A register held a value of the wrong kind.
    TypeMismatch {
        /// What was needed.
        expected: &'static str,
        /// What was found.
        actual: &'static str,
    },
    /// A runtime shape check (function boundary or `match_cast`) failed.
    ShapeCheck {
        /// Context (which check).
        ctx: String,
        /// Detail.
        detail: String,
    },
    /// An allocation failed: its byte count overflows `usize`, or an
    /// injected allocation fault fired. (A tensor that outgrows its
    /// planned storage does not fail: it degrades to the pooled
    /// allocator.)
    StorageOverflow {
        /// Bytes required.
        required: usize,
        /// Bytes available.
        available: usize,
    },
    /// A symbolic expression could not be evaluated.
    Eval(EvalError),
    /// A tensor program failed.
    Interp(InterpError),
    /// A library kernel or builtin failed.
    Kernel(KernelError),
    /// Function ended without `Ret`.
    NoReturn(String),
}

impl fmt::Display for VmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmErrorKind::UnknownFunction(n) => write!(f, "unknown VM function `{n}`"),
            VmErrorKind::UnknownTir(n) => write!(f, "unknown tensor program `{n}`"),
            VmErrorKind::ArgCount {
                func,
                expected,
                actual,
            } => write!(f, "`{func}` expects {expected} args, got {actual}"),
            VmErrorKind::TypeMismatch { expected, actual } => {
                write!(f, "expected {expected}, got {actual}")
            }
            VmErrorKind::ShapeCheck { ctx, detail } => {
                write!(f, "runtime shape check failed at {ctx}: {detail}")
            }
            VmErrorKind::StorageOverflow {
                required,
                available,
            } => write!(
                f,
                "tensor needs {required} bytes but storage holds {available}"
            ),
            VmErrorKind::Eval(e) => write!(f, "shape evaluation failed: {e}"),
            VmErrorKind::Interp(e) => write!(f, "tensor program failed: {e}"),
            VmErrorKind::Kernel(e) => write!(f, "{e}"),
            VmErrorKind::NoReturn(n) => write!(f, "function `{n}` ended without returning"),
        }
    }
}

/// One frame of error provenance: which function, which program counter,
/// and the rendered instruction that was executing when the error crossed
/// this frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameEntry {
    /// The VM function.
    pub func: String,
    /// Instruction index within its block (capture-region bodies count
    /// from zero).
    pub pc: usize,
    /// The instruction, rendered.
    pub instr: String,
}

impl fmt::Display for FrameEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}[pc {}]: {}", self.func, self.pc, self.instr)
    }
}

/// Error raised during VM execution: the failure [`VmErrorKind`] plus a
/// frame trace recording where it happened, innermost frame first.
///
/// The trace is what turns "tensor program failed" into an actionable
/// report: the exact instruction, its index, and the chain of VM calls
/// that reached it.
#[derive(Debug, Clone)]
pub struct VmError {
    /// What failed.
    pub kind: VmErrorKind,
    /// Provenance frames, innermost first.
    pub trace: Vec<FrameEntry>,
}

impl VmError {
    /// Creates an error with an empty trace (frames are appended as it
    /// propagates out of the interpreter loop).
    pub fn new(kind: VmErrorKind) -> Self {
        VmError {
            kind,
            trace: Vec::new(),
        }
    }

    /// The innermost frame, if the error was raised while executing an
    /// instruction.
    pub fn origin(&self) -> Option<&FrameEntry> {
        self.trace.first()
    }

    /// This error as it crosses `func`'s `pc`, running `instr`.
    pub(crate) fn at(mut self, func: &str, pc: usize, instr: &str) -> Self {
        let (func, instr) = (func.to_string(), instr.to_string());
        self.trace.push(FrameEntry { func, pc, instr });
        self
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        for frame in &self.trace {
            write!(f, "\n  {frame}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VmError {}

impl From<VmErrorKind> for VmError {
    fn from(kind: VmErrorKind) -> Self {
        VmError::new(kind)
    }
}

impl From<EvalError> for VmError {
    fn from(e: EvalError) -> Self {
        VmError::new(VmErrorKind::Eval(e))
    }
}

impl From<InterpError> for VmError {
    fn from(e: InterpError) -> Self {
        VmError::new(VmErrorKind::Interp(e))
    }
}

impl From<KernelError> for VmError {
    fn from(e: KernelError) -> Self {
        VmError::new(VmErrorKind::Kernel(e))
    }
}

/// Execution counters used by the experiments: kernel launches (for the
/// CUDA-graph ablation), memory behaviour (Table 2), runtime shape
/// checks, and the robustness counters (fallbacks, injected faults,
/// recoveries).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Telemetry {
    /// Individual kernel launches charged to the device (graph replay
    /// charges one per region).
    pub kernel_launches: u64,
    /// Tensor-program invocations.
    pub tir_calls: u64,
    /// Library kernel invocations.
    pub lib_calls: u64,
    /// Runtime builtin invocations.
    pub builtin_calls: u64,
    /// Graph-capture events (first executions of capture regions).
    pub captures: u64,
    /// Graph replays.
    pub replays: u64,
    /// Runtime shape checks executed.
    pub shape_checks: u64,
    /// Pooled-allocator statistics (unplanned path).
    pub pool: MemoryStats,
    /// Total bytes held by planned static storage.
    pub planned_bytes: usize,
    /// Planned-storage overflows that degraded to the pooled allocator
    /// instead of failing the run.
    pub fallback_allocs: u64,
    /// Faults injected by the fault-injection harness.
    pub faults_injected: u64,
    /// Successful runs completed immediately after a failed run — the
    /// observable form of the "clean state after error" guarantee.
    pub recoveries: u64,
    /// Always 0: a kernel the planner refuses fails its launch, and the
    /// VM writes no count. Kept only because the benchmark probes still
    /// read it; it goes with `CachedPlan::Unplannable`.
    pub plan_fallbacks: u64,
    /// Plan launches whose plan left at least one store on the scalar
    /// tape, one tape walk per element, instead of a row or a macro-op
    /// (see `relax_tir::KernelPlan::scalar_stores`).
    pub scalar_tape_launches: u64,
}

/// Per-kernel execution statistics, split into plan-compile time (paid
/// once per (function, shapes) specialization) and run time (paid per
/// launch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStat {
    /// Launches of this kernel.
    pub calls: u64,
    /// Accumulated host execution time across launches.
    pub run_time: std::time::Duration,
    /// Shape-specialized plan compilations for this kernel.
    pub plan_compiles: u64,
    /// Accumulated plan-compilation time.
    pub compile_time: std::time::Duration,
}

/// The Relax virtual machine.
///
/// A VM is split into *shared, read-only* state — the executable, the
/// foreign-function registry, and the kernel-plan cache, all behind cheap
/// `Arc`/handle clones so many VMs (e.g. a serving worker pool) can share
/// them — and *per-invocation* state (frames, the pooled allocator,
/// telemetry, capture and fault bookkeeping) that stays private to this
/// VM. `Vm` is `Send`, so each worker thread can own one.
///
/// A `CallTir` launch runs its kernel's shape-specialized plan. A plan's
/// launch contract (declared shapes and dtypes, no written argument
/// sharing storage with another) holds for every lowered executable; a
/// hand-built launch that breaks it fails with [`VmErrorKind::Interp`].
/// A tensor that outgrows its planned storage comes from the pooled
/// allocator instead, counted in [`Telemetry::fallback_allocs`].
///
/// # Examples
///
/// See the crate-level documentation and the `quickstart` example; a VM is
/// normally created from the output of the compilation pipeline.
#[derive(Debug)]
pub struct Vm {
    exec: Arc<Executable>,
    registry: Arc<Registry>,
    /// The pooled allocator, the static storages allocated once ahead of
    /// time (by function and pc) and the fallbacks: the loop's account.
    memory: Memory,
    telemetry: Telemetry,
    /// Capture regions that have been captured (by region id).
    captured: std::collections::HashSet<(usize, Vec<i64>)>,
    /// Per-kernel launch counts and compile/run time split.
    kernel_stats: HashMap<String, KernelStat>,
    /// Shape-keyed LRU cache of compiled kernel plans (possibly shared
    /// with other VMs); every `CallTir` probes it once.
    plan_cache: SharedPlanCache,
    /// Scheduled fault injection (tests and chaos harnesses).
    fault: Option<FaultInjector>,
    /// The previous `run` failed; the next success counts as a recovery.
    poisoned: bool,
}

impl Vm {
    /// Creates a VM for an executable with the default registry and a
    /// private plan cache.
    pub fn new(exec: Executable) -> Self {
        Self::from_parts(
            Arc::new(exec),
            Arc::new(Registry::new()),
            SharedPlanCache::default(),
        )
    }

    /// Creates a VM from shared read-only parts: one immutable executable
    /// and registry can back many VMs, and a [`SharedPlanCache`] handle
    /// lets them all reuse each other's compiled kernel plans — the
    /// executable/VM split that makes multi-session serving possible.
    pub fn from_parts(
        exec: Arc<Executable>,
        registry: Arc<Registry>,
        plan_cache: SharedPlanCache,
    ) -> Self {
        Vm {
            exec,
            registry,
            memory: Memory::default(),
            telemetry: Telemetry::default(),
            captured: std::collections::HashSet::new(),
            kernel_stats: HashMap::new(),
            plan_cache,
            fault: None,
            poisoned: false,
        }
    }

    /// Unread: a VM holds no page pool, since every cache draws its pages
    /// from the pool it was made on ([`KvCache::new`]). Still here only
    /// because the `benchmark` package, which a product change may not
    /// edit, calls it.
    ///
    /// [`KvCache::new`]: crate::KvCache::new
    pub fn set_kv_pool(&mut self, _pool: Arc<KvPagePool>) {}

    /// Schedules deterministic fault injection (see [`crate::fault`]).
    /// Replaces any previously installed plan; counters restart.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
    }

    /// Removes any installed fault plan.
    pub fn clear_faults(&mut self) {
        self.fault = None;
    }

    /// Per-kernel statistics with the compile-vs-run time split (see
    /// [`KernelStat`]). Plan compilations are charged to the kernel they
    /// specialize.
    pub fn kernel_stats(&self) -> &HashMap<String, KernelStat> {
        &self.kernel_stats
    }

    /// Sets how many `(function, shapes)` kernel-plan specializations the
    /// plan cache keeps (LRU eviction beyond that). `0` disables planning
    /// entirely: every `CallTir` launch runs on the reference
    /// interpreter. The default is 64. When the cache is shared, the new
    /// capacity applies to every VM sharing it.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plan_cache.set_capacity(capacity);
    }

    /// A handle to this VM's plan cache (clone it into other VMs to share
    /// compiled plans).
    pub fn plan_cache(&self) -> &SharedPlanCache {
        &self.plan_cache
    }

    /// Current execution counters. Plan-cache counters live on the cache
    /// ([`SharedPlanCache::stats`], aggregated across every sharer); this
    /// VM's plan compiles are [`KernelStat::plan_compiles`].
    pub fn telemetry(&self) -> Telemetry {
        let mut t = self.telemetry;
        t.pool = self.memory.pool.stats();
        t.planned_bytes = self.memory.planned.total();
        t.fallback_allocs = self.memory.fallbacks;
        t
    }

    /// The executable being run.
    pub fn executable(&self) -> &Executable {
        &self.exec
    }

    /// Runs a function on the given arguments.
    ///
    /// After an error the VM remains in a clean, reusable state: pool
    /// blocks held by the failed invocation are returned, and a
    /// subsequent successful `run` counts as a
    /// [`Telemetry::recoveries`].
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; in particular a `ShapeCheck` kind when a
    /// `match_cast` or boundary check fails at runtime. Errors carry a
    /// frame trace (function, pc, instruction).
    pub fn run(&mut self, func: &str, args: &[Value]) -> Result<Value, VmError> {
        // The loop reads the executable while it mutates `self`, its
        // domain: hold a handle of our own instead of copying the body.
        let exec = Arc::clone(&self.exec);
        let result = crate::domain::run(&exec, self, func, args);
        match &result {
            Ok(_) => {
                if self.poisoned {
                    self.poisoned = false;
                    self.telemetry.recoveries += 1;
                }
            }
            Err(_) => self.poisoned = true,
        }
        result
    }

    /// Records a fault-site event; `true` when a scheduled fault fires.
    fn fault_fires(&mut self, site: FaultSite) -> bool {
        if let Some(inj) = &mut self.fault {
            if inj.on_event(site) {
                self.telemetry.faults_injected += 1;
                return true;
            }
        }
        false
    }

    /// Fails a launch of `kernel` when a scheduled fault fires.
    fn kernel_fault(&mut self, kernel: &str) -> Result<(), VmError> {
        if self.fault_fires(FaultSite::Kernel) {
            let e = KernelError::new(kernel, "injected fault");
            return Err(VmErrorKind::Kernel(e).into());
        }
        Ok(())
    }

    /// Counts one launch of kernel `func` that ran for `dt`.
    fn count_launch(&mut self, func: &str, dt: std::time::Duration, in_replay: bool) {
        let stat = self.kernel_stats.entry(func.to_string()).or_default();
        stat.calls += 1;
        stat.run_time += dt;
        if !in_replay {
            self.telemetry.kernel_launches += 1;
        }
    }
}

/// The concrete domain: runtime values, launches that compute, an account
/// that admits every allocation but an injected fault, and telemetry.
impl Domain for Vm {
    type Value = Value;

    fn shape_check(&mut self, ctx: &str, dims: usize) -> Result<(), VmError> {
        if self.fault_fires(FaultSite::ShapeCheck) {
            let (ctx, detail) = (ctx.to_string(), "injected fault".to_string());
            return Err(VmErrorKind::ShapeCheck { ctx, detail }.into());
        }
        self.telemetry.shape_checks += dims as u64;
        Ok(())
    }

    fn memory(&mut self) -> Option<&mut Memory> {
        Some(&mut self.memory)
    }

    fn admit(
        &mut self,
        _: &VmFunction,
        _: Reg,
        required: usize,
        _: Option<&(String, usize)>,
    ) -> Result<bool, VmError> {
        if self.fault_fires(FaultSite::Alloc) {
            return Err(VmErrorKind::StorageOverflow {
                required,
                available: 0,
            }
            .into());
        }
        Ok(true)
    }

    fn call_tir(
        &mut self,
        func: &str,
        prim: &PrimFunc,
        regs: &[Value],
        args: &[Reg],
        dsts: &[Reg],
        in_replay: bool,
    ) -> Result<(), VmError> {
        self.kernel_fault(func)?;
        let tensors = tensors(regs, args.iter().chain(dsts));
        let shapes: Vec<Vec<usize>> = tensors.iter().map(|t| t.shape().to_vec()).collect();
        // Resolve a shape-specialized plan through the LRU cache; a miss
        // compiles once, outside the cache's lock, and is charged
        // separately from run time; a refusal fails the launch, uncached.
        // Capacity 0 runs the interpreter (the oracle mode) instead. The
        // trace spans are the timing source for the kernel stats, so the
        // per-kernel report and the trace share one clock.
        let (plan, cache_outcome) = match self.plan_cache.lookup(func, &shapes) {
            Some(CachedPlan::Ready(p)) => (Some(p), Some(CacheOutcome::Hit)),
            Some(CachedPlan::Unplannable) => {
                return Err(not_plannable(func, "a negative cache entry"));
            }
            None if self.plan_cache.enabled() => {
                let sp = relax_trace::span("vm", || format!("plan:{func}"));
                let compiled = relax_tir::plan::compile(prim, &shapes);
                let miss = Some(CacheOutcome::Miss);
                let dt = sp.finish_with(|| launch_payload(func, &shapes, miss));
                let stat = self.kernel_stats.entry(func.to_string()).or_default();
                stat.plan_compiles += 1;
                stat.compile_time += dt;
                let plan = match compiled {
                    Ok(plan) => Arc::new(plan),
                    Err(PlanError::Unsupported(r)) => return Err(not_plannable(func, &r)),
                    Err(PlanError::Interp(e)) => return Err(e.into()),
                };
                self.plan_cache
                    .insert(func, &shapes, CachedPlan::Ready(plan.clone()));
                (Some(plan), Some(CacheOutcome::Miss))
            }
            None => (None, None),
        };
        let sp = relax_trace::span("vm", || format!("kernel:{func}"));
        match plan {
            Some(plan) => {
                if plan.scalar_stores() > 0 {
                    self.telemetry.scalar_tape_launches += 1;
                }
                plan.run(&tensors, 1)?;
            }
            None => interp::run(prim, &tensors)?,
        }
        let dt = sp.finish_with(|| launch_payload(func, &shapes, cache_outcome));
        self.telemetry.tir_calls += 1;
        self.count_launch(func, dt, in_replay);
        Ok(())
    }

    fn call_lib(
        &mut self,
        func: &str,
        regs: &[Value],
        args: &[Reg],
        dsts: &[Reg],
        in_replay: bool,
    ) -> Result<(), VmError> {
        self.kernel_fault(func)?;
        let (inputs, outputs) = (tensors(regs, args.iter()), tensors(regs, dsts.iter()));
        let sp = relax_trace::span("vm", || format!("lib:{func}"));
        self.registry.call_lib(func, &inputs, &outputs)?;
        let dt = sp.finish_with(|| {
            let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.shape().to_vec()).collect();
            launch_payload(func, &shapes, None)
        });
        self.telemetry.lib_calls += 1;
        self.count_launch(func, dt, in_replay);
        Ok(())
    }

    fn call_builtin(&mut self, func: &str, args: &[Value], _: bool) -> Result<Value, VmError> {
        self.kernel_fault(func)?;
        let sp = relax_trace::span("vm", || format!("builtin:{func}"));
        // The arguments as received: a KV cache appends in place.
        let shapes =
            (sp.id() != 0).then(|| args.iter().map(Value::launch_dims).collect::<Vec<_>>());
        let out = self.registry.call_builtin(func, args)?;
        sp.finish_with(|| launch_payload(func, &shapes.unwrap_or_default(), None));
        self.telemetry.builtin_calls += 1;
        Ok(out)
    }

    fn capture(&mut self, id: usize, keys: Vec<i64>) -> bool {
        let replaying = !self.captured.insert((id, keys));
        if replaying {
            self.telemetry.replays += 1;
            // A replay costs a single launch for the region.
            self.telemetry.kernel_launches += 1;
        } else {
            self.telemetry.captures += 1;
        }
        replaying
    }
}

/// The payload of a launch's span, and of the dry run's `sim` instant for
/// the same launch: the kernel, its arguments' shape signature and the
/// plan-cache outcome.
pub fn launch_payload(kernel: &str, shapes: &[Vec<usize>], cache: Option<CacheOutcome>) -> Payload {
    let (kernel, shapes) = (kernel.to_string(), relax_trace::shape_sig(shapes));
    Payload::Kernel {
        kernel,
        shapes,
        cache,
    }
}

/// The error of a launch whose kernel the planner refuses.
fn not_plannable(kernel: &str, reason: &str) -> VmError {
    let detail = format!("kernel not plannable: {reason}");
    VmErrorKind::Kernel(KernelError::new(kernel, detail)).into()
}

/// The tensors in `regs` at `which`, registers the loop checked hold
/// tensors.
fn tensors<'r>(regs: &[Value], which: impl Iterator<Item = &'r Reg>) -> Vec<NDArray> {
    let mut tensors = Vec::with_capacity(which.size_hint().0);
    tensors.extend(which.filter_map(|&r| regs[r].as_tensor().cloned()));
    tensors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Instr;
    use relax_arith::{DataType, PrimExpr, Var as SymVar};
    use relax_tir::{grid, Buffer, PrimFunc, Stmt, TirExpr};

    /// Hand-assembles: main(x: (n,)) { y = alloc (n,); relu(x) -> y; ret y }
    fn relu_exec() -> Executable {
        let n = SymVar::new("n");
        let xb = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let yb = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.clone().into())]);
        let body = nest.build(Stmt::store(
            &yb,
            vec![iv[0].clone().into()],
            TirExpr::Max(
                Box::new(TirExpr::load(&xb, vec![iv[0].clone().into()])),
                Box::new(TirExpr::FloatImm(0.0)),
            ),
        ));
        let relu = PrimFunc::new("relu", vec![xb, yb], 1, body);

        let m = SymVar::new("n"); // the graph-level n
        let mut exec = Executable::new();
        exec.tir_funcs.insert("relu".into(), relu);
        exec.funcs.insert(
            "main".into(),
            VmFunction {
                name: "main".into(),
                num_params: 1,
                num_regs: 3,
                instrs: vec![
                    Instr::MatchShape {
                        src: 0,
                        dims: vec![m.clone().into()],
                        ctx: "param x".into(),
                    },
                    Instr::AllocTensor {
                        dst: 1,
                        shape: vec![m.into()],
                        dtype: DataType::F32,
                    },
                    Instr::CallTir {
                        func: "relu".into(),
                        args: vec![0],
                        dsts: vec![1],
                        sym_args: vec![],
                    },
                    Instr::Ret { src: 1 },
                ],
            },
        );
        exec
    }

    #[test]
    fn end_to_end_relu() {
        let mut vm = Vm::new(relu_exec());
        let x = NDArray::from_f64(&[4], DataType::F32, vec![-1., 2., -3., 4.]).unwrap();
        let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
        let t = out.as_tensor().unwrap();
        assert_eq!(t.to_f64_vec(), vec![0., 2., 0., 4.]);
        let tel = vm.telemetry();
        assert_eq!(tel.kernel_launches, 1);
        assert_eq!(tel.tir_calls, 1);
        assert!(tel.shape_checks >= 1);
        assert!(tel.pool.footprint >= 16);
    }

    #[test]
    fn repeated_shape_hits_the_plan_cache() {
        let mut vm = Vm::new(relu_exec());
        let x = NDArray::from_f64(&[4], DataType::F32, vec![-1., 2., -3., 4.]).unwrap();
        vm.run("main", &[Value::Tensor(x.clone())]).unwrap();
        let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 2., 0., 4.]);
        let stats = vm.plan_cache().stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        let stat = vm.kernel_stats()["relu"];
        assert_eq!(stat.calls, 2);
        assert_eq!(stat.plan_compiles, 1);
        assert!(stat.compile_time > std::time::Duration::ZERO);
    }

    #[test]
    fn new_shape_misses_the_plan_cache() {
        let mut vm = Vm::new(relu_exec());
        for n in [4usize, 8, 4, 8] {
            let x = NDArray::zeros(&[n], DataType::F32);
            vm.run("main", &[Value::Tensor(x)]).unwrap();
        }
        // One compile per distinct shape; repeats hit.
        let stats = vm.plan_cache().stats();
        assert_eq!((stats.misses, stats.hits, stats.len), (2, 2, 2));
        assert_eq!(vm.kernel_stats()["relu"].plan_compiles, 2);
    }

    #[test]
    fn plan_cache_evicts_lru_when_over_capacity() {
        let mut vm = Vm::new(relu_exec());
        vm.set_plan_cache_capacity(1);
        for n in [4usize, 8, 4] {
            let x = NDArray::zeros(&[n], DataType::F32);
            vm.run("main", &[Value::Tensor(x)]).unwrap();
        }
        // Each shape change evicts the previous single entry, so the
        // third run (shape 4 again) must recompile.
        let stats = vm.plan_cache().stats();
        assert_eq!((stats.misses, stats.evictions, stats.len), (3, 2, 1));
        assert_eq!(vm.kernel_stats()["relu"].plan_compiles, 3);

        // Capacity 2: the hit on shape 4 makes it newer than shape 8, so
        // shape 16 evicts 8 and the last run hits 4 again. A freshly
        // compiled entry is no newer than a later hit.
        let mut vm = Vm::new(relu_exec());
        vm.set_plan_cache_capacity(2);
        for n in [4usize, 8, 4, 16, 4] {
            let x = NDArray::zeros(&[n], DataType::F32);
            vm.run("main", &[Value::Tensor(x)]).unwrap();
        }
        let stats = vm.plan_cache().stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.evictions, stats.len),
            (3, 2, 1, 2)
        );
    }

    #[test]
    fn zero_capacity_disables_planning() {
        let mut vm = Vm::new(relu_exec());
        vm.set_plan_cache_capacity(0);
        let x = NDArray::from_f64(&[3], DataType::F32, vec![-5., 0., 5.]).unwrap();
        let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 0., 5.]);
        assert_eq!(vm.plan_cache().stats().probes, 0);
        assert_eq!(vm.kernel_stats()["relu"].plan_compiles, 0);
        assert_eq!(vm.telemetry().tir_calls, 1);
    }

    /// A kernel the interpreter runs and the planner refuses fails each
    /// launch typed, uncached, and leaves the VM reusable.
    #[test]
    fn unplannable_kernel_fails_its_launch_uncached() {
        // `shadowed` calls relu with its loop wrapped in a second loop
        // over the same variable.
        let mut exec = relu_exec();
        let relu = exec.tir_funcs["relu"].clone();
        let Stmt::For { var, .. } = relu.body() else {
            panic!("relu's body is its loop");
        };
        let body = relu.body().clone().in_loop(var.clone(), 1.into());
        let shadowed = PrimFunc::new("relu_shadowed", relu.params().to_vec(), 1, body);
        exec.tir_funcs.insert("relu_shadowed".into(), shadowed);
        let mut main = exec.funcs["main"].clone();
        main.name = "shadowed".into();
        for instr in &mut main.instrs {
            if let Instr::CallTir { func, .. } = instr {
                *func = "relu_shadowed".into();
            }
        }
        exec.funcs.insert("shadowed".into(), main);
        let x = [Value::Tensor(
            NDArray::from_f64(&[3], DataType::F32, vec![-5., 0., 5.]).unwrap(),
        )];
        let mut interp = Vm::new(exec.clone());
        interp.set_plan_cache_capacity(0);
        let out = interp.run("shadowed", &x).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 0., 5.]);

        let mut vm = Vm::new(exec);
        for _ in 0..2 {
            let err = vm.run("shadowed", &x).unwrap_err();
            let VmErrorKind::Kernel(e) = &err.kind else {
                panic!("want a kernel error, got {err}");
            };
            assert_eq!(e.kernel, "relu_shadowed");
            assert!(e.detail.contains("shadowed loop variable"), "{err}");
        }
        // The refusal is not cached: each launch compiled again.
        assert_eq!(vm.kernel_stats()["relu_shadowed"].plan_compiles, 2);
        assert_eq!(vm.plan_cache().len(), 0);
        let out = vm.run("main", &x).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 0., 5.]);
        assert_eq!(vm.telemetry().recoveries, 1);
    }

    /// A launch off its kernel's declared dtype (an i64 tensor bound to
    /// relu's f32 `X`) breaks the plan's launch contract: it fails typed
    /// and leaves the VM reusable, and the interpreter still runs it.
    #[test]
    fn kernel_launch_off_its_declared_dtype_fails_typed() {
        let ints = [Value::Tensor(
            NDArray::from_i64(&[3], DataType::I64, vec![-5, 0, 5]).unwrap(),
        )];
        let mut vm = Vm::new(relu_exec());
        let err = vm.run("main", &ints).unwrap_err();
        let VmErrorKind::Interp(InterpError::ShapeMismatch { buffer, detail }) = &err.kind else {
            panic!("want a typed refusal, got {err}");
        };
        assert_eq!(
            (buffer.as_str(), detail.as_str()),
            ("arg0", "declared f32, argument has i64")
        );
        let x = NDArray::from_f64(&[3], DataType::F32, vec![-5., 0., 5.]).unwrap();
        vm.run("main", &[Value::Tensor(x)]).unwrap();
        assert_eq!(vm.telemetry().recoveries, 1);

        let mut interp = Vm::new(relu_exec());
        interp.set_plan_cache_capacity(0);
        let out = interp.run("main", &ints).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 0., 5.]);
    }

    /// `relu(x) -> x` writes an argument that shares storage with
    /// another: the plan refuses it, naming the output, and the
    /// interpreter runs it in place.
    #[test]
    fn in_place_kernel_launch_fails_typed() {
        let mut exec = relu_exec();
        let main = exec.funcs.get_mut("main").unwrap();
        main.instrs[2] = Instr::CallTir {
            func: "relu".into(),
            args: vec![0],
            dsts: vec![0],
            sym_args: vec![],
        };
        main.instrs[3] = Instr::Ret { src: 0 };
        let x = NDArray::from_f64(&[3], DataType::F32, vec![-5., 0., 5.]).unwrap();
        let x = || [Value::Tensor(x.deep_copy())];
        let err = Vm::new(exec.clone()).run("main", &x()).unwrap_err();
        assert!(
            matches!(&err.kind, VmErrorKind::Interp(InterpError::ShapeMismatch { buffer, .. })
                if buffer == "arg1"),
            "{err}"
        );
        let mut interp = Vm::new(exec);
        interp.set_plan_cache_capacity(0);
        let out = interp.run("main", &x()).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 0., 5.]);
    }

    #[test]
    fn capture_region_replays_after_first_run() {
        let mut exec = relu_exec();
        // Wrap the alloc+call in a capture region.
        let f = exec.funcs.get_mut("main").unwrap();
        let body: Vec<Instr> = f.instrs.drain(1..3).collect();
        f.instrs.insert(
            1,
            Instr::CaptureRegion {
                id: 0,
                keys: vec![],
                body,
            },
        );
        let mut vm = Vm::new(exec);
        let x = NDArray::from_f64(&[2], DataType::F32, vec![1., -1.]).unwrap();
        vm.run("main", &[Value::Tensor(x.clone())]).unwrap();
        let t1 = vm.telemetry();
        assert_eq!(t1.captures, 1);
        assert_eq!(t1.replays, 0);
        assert_eq!(t1.kernel_launches, 1);
        let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![1., 0.]);
        let t2 = vm.telemetry();
        assert_eq!(t2.replays, 1);
        // Replay charged one launch for the whole region, and saved the
        // individual kernel launch inside it.
        assert_eq!(t2.kernel_launches, 2);
    }

    #[test]
    fn shape_check_violation_raises_with_trace() {
        // Force a check failure: constant dim 4, runtime dim 3.
        let n = SymVar::new("n");
        let mut exec = relu_exec();
        exec.funcs.get_mut("main").unwrap().instrs[0] = Instr::MatchShape {
            src: 0,
            dims: vec![4.into()],
            ctx: "param x".into(),
        };
        // Rebind alloc to n is now unbound; replace with const too.
        exec.funcs.get_mut("main").unwrap().instrs[1] = Instr::AllocTensor {
            dst: 1,
            shape: vec![4.into()],
            dtype: DataType::F32,
        };
        let _ = n;
        let mut vm = Vm::new(exec);
        let x = NDArray::zeros(&[3], DataType::F32);
        let err = vm.run("main", &[Value::Tensor(x)]).unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::ShapeCheck { .. }));
        // Provenance: function, pc and rendered instruction.
        let origin = err.origin().expect("frame trace");
        assert_eq!(origin.func, "main");
        assert_eq!(origin.pc, 0);
        assert!(origin.instr.contains("match_shape"), "{}", origin.instr);
        assert!(err.to_string().contains("at main[pc 0]"));
    }

    #[test]
    fn planned_storage_is_allocated_once_and_checked() {
        let n = SymVar::new("n");
        let mut exec = relu_exec();
        let f = exec.funcs.get_mut("main").unwrap();
        f.num_regs = 4;
        f.instrs[1] = Instr::AllocStorage {
            dst: 3,
            bytes: 64.into(),
        };
        f.instrs.insert(
            2,
            Instr::TensorFromStorage {
                dst: 1,
                storage: 3,
                shape: vec![n.into()],
                dtype: DataType::F32,
            },
        );
        // NOTE: the shape var in instrs[0] is a different identity than `n`
        // here; rebuild MatchShape to bind our n.
        let n2 = match &f.instrs[2] {
            Instr::TensorFromStorage { shape, .. } => shape[0].clone(),
            _ => unreachable!(),
        };
        f.instrs[0] = Instr::MatchShape {
            src: 0,
            dims: vec![n2],
            ctx: "param x".into(),
        };
        let mut vm = Vm::new(exec);
        let x = NDArray::from_f64(&[4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        vm.run("main", &[Value::Tensor(x.clone())]).unwrap();
        vm.run("main", &[Value::Tensor(x)]).unwrap();
        let tel = vm.telemetry();
        // One static storage of 64 bytes, allocated once across both runs.
        assert_eq!(tel.planned_bytes, 64);
        // Overflow: 32 floats need 128 bytes > 64. The tensor comes from
        // the pooled allocator instead and the run completes.
        let big = NDArray::zeros(&[32], DataType::F32);
        let out = vm.run("main", &[Value::Tensor(big)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().shape(), &[32]);
        assert_eq!(vm.telemetry().fallback_allocs, 1);
    }

    #[test]
    fn per_kernel_profile_accumulates() {
        let mut vm = Vm::new(relu_exec());
        let x = NDArray::from_f64(&[4], DataType::F32, vec![1., -1., 2., -2.]).unwrap();
        vm.run("main", &[Value::Tensor(x.clone())]).unwrap();
        vm.run("main", &[Value::Tensor(x)]).unwrap();
        let stats = vm.kernel_stats();
        assert_eq!(stats.len(), 1);
        let relu = stats["relu"];
        assert_eq!((relu.calls, relu.plan_compiles), (2, 1));
        assert!(relu.run_time > std::time::Duration::ZERO);
    }

    #[test]
    fn builtin_unique_via_vm() {
        let mut exec = Executable::new();
        exec.funcs.insert(
            "u".into(),
            VmFunction {
                name: "u".into(),
                num_params: 1,
                num_regs: 2,
                instrs: vec![
                    Instr::CallBuiltin {
                        func: "builtin.unique".into(),
                        args: vec![0],
                        dst: 1,
                    },
                    Instr::Ret { src: 1 },
                ],
            },
        );
        let mut vm = Vm::new(exec);
        let x = NDArray::from_f64(&[4], DataType::F32, vec![2., 1., 2., 1.]).unwrap();
        let out = vm.run("u", &[Value::Tensor(x)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().shape(), &[2]);
    }

    #[test]
    fn injected_alloc_fault_fails_then_recovers() {
        let mut vm = Vm::new(relu_exec());
        vm.inject_faults(FaultPlan::new().fail_alloc(1));
        let x = NDArray::from_f64(&[2], DataType::F32, vec![1., -1.]).unwrap();
        let err = vm.run("main", &[Value::Tensor(x.clone())]).unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::StorageOverflow { .. }));
        assert_eq!(err.origin().unwrap().pc, 1);
        // The failed run returned its pool blocks.
        assert_eq!(vm.telemetry().pool.in_use, 0);
        assert_eq!(vm.telemetry().faults_injected, 1);
        // The schedule is exhausted: the next run succeeds and counts as
        // a recovery.
        let out = vm.run("main", &[Value::Tensor(x)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![1., 0.]);
        assert_eq!(vm.telemetry().recoveries, 1);
    }

    /// The VM is `Send`: a serving engine moves one VM into each worker
    /// thread (compile-time assertion).
    #[test]
    fn vm_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Vm>();
        assert_send::<Executable>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<crate::SharedPlanCache>();
        assert_sync::<Executable>();
    }

    /// Regression: `dims.product() * dtype.size_bytes()` overflowed on
    /// adversarial shapes (debug panic / release wraparound that
    /// under-allocates). Both alloc paths must return `StorageOverflow`.
    #[test]
    fn adversarial_shape_byte_overflow_is_an_error() {
        // AllocTensor path: (2^40) x (2^40) elements overflows usize.
        let huge = PrimExpr::Int(1i64 << 40);
        let mut exec = relu_exec();
        exec.funcs.get_mut("main").unwrap().instrs[1] = Instr::AllocTensor {
            dst: 1,
            shape: vec![huge.clone(), huge.clone()],
            dtype: DataType::F32,
        };
        let mut vm = Vm::new(exec);
        let x = NDArray::zeros(&[2], DataType::F32);
        let err = vm.run("main", &[Value::Tensor(x.clone())]).unwrap_err();
        assert!(
            matches!(err.kind, VmErrorKind::StorageOverflow { .. }),
            "{err}"
        );
        assert_eq!(err.origin().unwrap().pc, 1);

        // TensorFromStorage path: same shape viewed into a small storage.
        let mut exec = relu_exec();
        let f = exec.funcs.get_mut("main").unwrap();
        f.num_regs = 4;
        f.instrs[1] = Instr::AllocStorage {
            dst: 3,
            bytes: 64.into(),
        };
        f.instrs.insert(
            2,
            Instr::TensorFromStorage {
                dst: 1,
                storage: 3,
                shape: vec![huge.clone(), huge],
                dtype: DataType::F32,
            },
        );
        let mut vm = Vm::new(exec);
        let err = vm.run("main", &[Value::Tensor(x)]).unwrap_err();
        assert!(
            matches!(err.kind, VmErrorKind::StorageOverflow { .. }),
            "{err}"
        );
        // The failed run left a clean, reusable state.
        assert_eq!(vm.telemetry().pool.in_use, 0);
    }

    /// Two VMs built from the same shared parts reuse each other's
    /// compiled plans: the second VM's first launch is a cache hit.
    #[test]
    fn shared_plan_cache_warms_across_vms() {
        let exec = Arc::new(relu_exec());
        let registry = Arc::new(Registry::new());
        let cache = SharedPlanCache::default();
        let mut a = Vm::from_parts(exec.clone(), registry.clone(), cache.clone());
        let mut b = Vm::from_parts(exec, registry, cache.clone());
        let x = NDArray::from_f64(&[4], DataType::F32, vec![-1., 2., -3., 4.]).unwrap();
        a.run("main", &[Value::Tensor(x.clone())]).unwrap();
        let out = b.run("main", &[Value::Tensor(x)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().to_f64_vec(), vec![0., 2., 0., 4.]);
        // VM `a` compiled; VM `b` hit the shared entry without compiling.
        assert_eq!(a.kernel_stats()["relu"].plan_compiles, 1);
        assert_eq!(b.kernel_stats()["relu"].plan_compiles, 0);
        let agg = cache.stats();
        assert_eq!(agg.hits, 1);
        assert_eq!(agg.misses, 1);
        assert_eq!(agg.len, 1);
    }

    #[test]
    fn corrupt_register_index_is_an_error_not_a_panic() {
        let mut exec = relu_exec();
        exec.funcs.get_mut("main").unwrap().instrs[3] = Instr::Ret { src: 99 };
        let mut vm = Vm::new(exec);
        let x = NDArray::from_f64(&[2], DataType::F32, vec![1., -1.]).unwrap();
        let err = vm.run("main", &[Value::Tensor(x)]).unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::TypeMismatch { .. }));
        assert_eq!(err.origin().unwrap().pc, 3);
    }
}
