//! The virtual machine interpreter.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use relax_arith::{DataType, EvalError, PrimExpr, Var as SymVar};
use relax_tir::interp::{self, InterpError};
use relax_tir::{NDArray, PlanError};

use crate::exec::{Executable, Instr, Reg, VmFunction};
use crate::fault::{FaultInjector, FaultPlan, FaultSite};
use crate::memory::{KvPagePool, MemoryStats, PooledAllocator};
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
    /// A tensor did not fit its planned storage (strict mode or memory
    /// capacity exhausted; in the default configuration a planned-storage
    /// overflow degrades to the pooled allocator instead).
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
                write!(f, "expected a {expected} value, got {actual}")
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
    /// Launches avoided thanks to replay.
    pub launches_saved: u64,
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
/// # Examples
///
/// See the crate-level documentation and the `quickstart` example; a VM is
/// normally created from the output of the compilation pipeline.
#[derive(Debug)]
pub struct Vm {
    exec: Arc<Executable>,
    registry: Arc<Registry>,
    pool: PooledAllocator,
    telemetry: Telemetry,
    /// Capture regions that have been captured (by region id).
    captured: std::collections::HashSet<(usize, Vec<i64>)>,
    /// Static storages allocated once ahead of time: (func, instr idx) ->
    /// (storage id, bytes).
    static_storage: HashMap<(String, usize), (u64, usize)>,
    next_storage_id: u64,
    /// Per-kernel launch counts and compile/run time split.
    kernel_stats: HashMap<String, KernelStat>,
    /// Shape-keyed LRU cache of compiled kernel plans (possibly shared
    /// with other VMs); every `CallTir` probes it once.
    plan_cache: SharedPlanCache,
    /// The page pool every builtin call is given (`kv_cache.create` draws
    /// a new cache's pages from it) — shared across a serving engine's VMs
    /// so occupancy accounting is global.
    kv_pool: Arc<KvPagePool>,
    /// Scheduled fault injection (tests and chaos harnesses).
    fault: Option<FaultInjector>,
    /// Device memory capacity in bytes; allocations beyond it fail.
    memory_capacity: Option<u64>,
    /// When set, a planned-storage overflow is an error instead of
    /// degrading to the pooled allocator.
    strict_storage: bool,
    /// The previous `run` failed; the next success counts as a recovery.
    poisoned: bool,
}

impl Vm {
    /// Creates a VM for an executable with the default registry and a
    /// private plan cache.
    pub fn new(exec: Executable) -> Self {
        Self::with_registry(exec, Registry::new())
    }

    /// Creates a VM with a custom foreign-function registry and a private
    /// plan cache.
    pub fn with_registry(exec: Executable, registry: Registry) -> Self {
        Self::from_parts(
            Arc::new(exec),
            Arc::new(registry),
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
            pool: PooledAllocator::new(),
            telemetry: Telemetry::default(),
            captured: std::collections::HashSet::new(),
            static_storage: HashMap::new(),
            next_storage_id: 0,
            kernel_stats: HashMap::new(),
            plan_cache,
            kv_pool: Arc::new(KvPagePool::unbounded(DEFAULT_KV_PAGE_TOKENS)),
            fault: None,
            memory_capacity: None,
            strict_storage: false,
            poisoned: false,
        }
    }

    /// Replaces the KV page pool used by `vm.builtin.kv_cache.create`.
    /// A serving engine installs one shared bounded pool in every worker
    /// VM so page occupancy is accounted globally.
    pub fn set_kv_pool(&mut self, pool: Arc<KvPagePool>) {
        self.kv_pool = pool;
    }

    /// The KV page pool backing this VM's cache handles.
    pub fn kv_pool(&self) -> &Arc<KvPagePool> {
        &self.kv_pool
    }

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

    /// Limits total runtime memory (pooled in-use plus planned storage) to
    /// `bytes`, as a device memory capacity would (see
    /// `relax_sim::DeviceSpec::memory_capacity`). `None` removes the
    /// limit.
    pub fn set_memory_capacity(&mut self, bytes: Option<u64>) {
        self.memory_capacity = bytes;
    }

    /// Controls overflow behaviour of planned storage: strict mode fails
    /// with [`VmErrorKind::StorageOverflow`]; the default degrades to the
    /// pooled allocator and counts
    /// [`Telemetry::fallback_allocs`].
    pub fn set_strict_storage(&mut self, strict: bool) {
        self.strict_storage = strict;
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
        t.pool = self.pool.stats();
        t.planned_bytes = self.planned_total();
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
        let result = self.run_inner(func, args);
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

    fn run_inner(&mut self, func: &str, args: &[Value]) -> Result<Value, VmError> {
        // Borrow the function through a handle of our own, so the body is
        // not copied per call while `self` stays free to mutate.
        let exec = Arc::clone(&self.exec);
        let vmf = exec
            .funcs
            .get(func)
            .ok_or_else(|| VmError::new(VmErrorKind::UnknownFunction(func.to_string())))?;
        if args.len() != vmf.num_params {
            let mut e = VmError::new(VmErrorKind::ArgCount {
                func: func.to_string(),
                expected: vmf.num_params,
                actual: args.len(),
            });
            e.trace.push(FrameEntry {
                func: func.to_string(),
                pc: 0,
                instr: "<function entry>".to_string(),
            });
            return Err(e);
        }
        if vmf.num_params > vmf.num_regs {
            let mut e = VmError::new(VmErrorKind::TypeMismatch {
                expected: "a frame with registers for every parameter",
                actual: "out-of-range register",
            });
            e.trace.push(FrameEntry {
                func: func.to_string(),
                pc: 0,
                instr: "<function entry>".to_string(),
            });
            return Err(e);
        }
        let mut frame = Frame {
            regs: vec![Value::None; vmf.num_regs],
            heap: HashMap::new(),
            alloc_sizes: HashMap::new(),
        };
        for (i, a) in args.iter().enumerate() {
            frame.regs[i] = a.clone();
        }
        let result = self.exec_block(vmf, &vmf.instrs, &mut frame, false);
        // Return pool blocks still held by this invocation — on success
        // *and* on error, so a failed run cannot leak pool memory.
        for (_, size) in frame.alloc_sizes.drain() {
            self.pool.free(size);
        }
        match result? {
            Some(v) => Ok(v),
            None => {
                let mut e = VmError::new(VmErrorKind::NoReturn(func.to_string()));
                e.trace.push(FrameEntry {
                    func: func.to_string(),
                    pc: vmf.instrs.len(),
                    instr: "<end of function>".to_string(),
                });
                Err(e)
            }
        }
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

    /// Total bytes held by planned static storage.
    fn planned_total(&self) -> usize {
        self.static_storage.values().map(|(_, b)| *b).sum()
    }

    /// Allocates `bytes` from the pool, honouring the fault schedule and
    /// the configured memory capacity. Returns the granted block size.
    fn runtime_alloc(&mut self, bytes: usize) -> Result<usize, VmError> {
        if self.fault_fires(FaultSite::Alloc) {
            return Err(VmErrorKind::StorageOverflow {
                required: bytes,
                available: 0,
            }
            .into());
        }
        if let Some(cap) = self.memory_capacity {
            let used = (self.pool.stats().in_use + self.planned_total()) as u64;
            if used + bytes as u64 > cap {
                return Err(VmErrorKind::StorageOverflow {
                    required: bytes,
                    available: cap.saturating_sub(used) as usize,
                }
                .into());
            }
        }
        let (_, granted) = self.pool.alloc(bytes);
        Ok(granted)
    }

    fn exec_block(
        &mut self,
        vmf: &VmFunction,
        instrs: &[Instr],
        frame: &mut Frame,
        in_replay: bool,
    ) -> Result<Option<Value>, VmError> {
        for (idx, instr) in instrs.iter().enumerate() {
            let flow = self
                .exec_instr(vmf, idx, instr, frame, in_replay)
                .map_err(|mut e| {
                    e.trace.push(FrameEntry {
                        func: vmf.name.clone(),
                        pc: idx,
                        instr: render_instr(instr),
                    });
                    e
                })?;
            if let Some(v) = flow {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn exec_instr(
        &mut self,
        vmf: &VmFunction,
        idx: usize,
        instr: &Instr,
        frame: &mut Frame,
        in_replay: bool,
    ) -> Result<Option<Value>, VmError> {
        match instr {
            Instr::AllocTensor { dst, shape, dtype } => {
                let dims = self.eval_dims(shape, &frame.heap)?;
                let bytes = checked_tensor_bytes(&dims, *dtype)?;
                let granted = self.runtime_alloc(bytes)?;
                if let Some(old) = frame.alloc_sizes.insert(*dst, granted) {
                    self.pool.free(old);
                }
                frame.set(*dst, Value::Tensor(NDArray::zeros(&dims, *dtype)))?;
            }
            Instr::AllocStorage { dst, bytes } => {
                let size = bytes.eval(&frame.heap)?.max(0) as usize;
                if self.fault_fires(FaultSite::Alloc) {
                    return Err(VmErrorKind::StorageOverflow {
                        required: size,
                        available: 0,
                    }
                    .into());
                }
                let key = (vmf.name.clone(), idx);
                let current = self.static_storage.get(&key).map(|(_, b)| *b);
                // Grow if a larger dynamic size arrives (static plans with
                // upper bounds never grow) — the growth is charged against
                // the memory capacity like any other allocation.
                if size > current.unwrap_or(0) {
                    if let Some(cap) = self.memory_capacity {
                        let extra = (size - current.unwrap_or(0)) as u64;
                        let used = (self.pool.stats().in_use + self.planned_total()) as u64;
                        if used + extra > cap {
                            return Err(VmErrorKind::StorageOverflow {
                                required: size,
                                available: cap.saturating_sub(used) as usize,
                            }
                            .into());
                        }
                    }
                }
                let entry = self.static_storage.entry(key).or_insert_with(|| {
                    let id = self.next_storage_id;
                    self.next_storage_id += 1;
                    (id, 0)
                });
                if size > entry.1 {
                    entry.1 = size;
                }
                let v = Value::Storage {
                    id: entry.0,
                    bytes: entry.1,
                };
                frame.set(*dst, v)?;
            }
            Instr::TensorFromStorage {
                dst,
                storage,
                shape,
                dtype,
            } => {
                let avail = match frame.get(*storage)? {
                    Value::Storage { bytes, .. } => *bytes,
                    other => {
                        return Err(VmErrorKind::TypeMismatch {
                            expected: "storage",
                            actual: other.kind(),
                        }
                        .into())
                    }
                };
                let dims = self.eval_dims(shape, &frame.heap)?;
                let required = checked_tensor_bytes(&dims, *dtype)?;
                if required > avail {
                    if self.strict_storage {
                        return Err(VmErrorKind::StorageOverflow {
                            required,
                            available: avail,
                        }
                        .into());
                    }
                    // Graceful degradation (§4.3): the runtime shape
                    // exceeded its declared upper bound. Instead of
                    // failing the run, take the tensor from the pooled
                    // allocator — the unplanned path — and count it.
                    let granted = self.runtime_alloc(required)?;
                    if let Some(old) = frame.alloc_sizes.insert(*dst, granted) {
                        self.pool.free(old);
                    }
                    self.telemetry.fallback_allocs += 1;
                    relax_trace::instant(
                        "vm",
                        || "alloc_fallback".to_string(),
                        || relax_trace::Payload::None,
                    );
                }
                frame.set(*dst, Value::Tensor(NDArray::zeros(&dims, *dtype)))?;
            }
            Instr::Kill { reg } => {
                if let Some(size) = frame.alloc_sizes.remove(reg) {
                    self.pool.free(size);
                }
                frame.set(*reg, Value::None)?;
            }
            Instr::CallTir {
                func,
                args,
                dsts,
                sym_args: _,
            } => {
                if !self.exec.tir_funcs.contains_key(func) {
                    return Err(VmError::new(VmErrorKind::UnknownTir(func.clone())));
                }
                if self.fault_fires(FaultSite::Kernel) {
                    return Err(injected_kernel_fault(func));
                }
                let mut tensors = Vec::with_capacity(args.len() + dsts.len());
                for r in args.iter().chain(dsts) {
                    tensors.push(frame.tensor(*r)?.clone());
                }
                let shapes: Vec<Vec<usize>> =
                    tensors.iter().map(|t| t.shape().to_vec()).collect();
                // Resolve a shape-specialized plan through the LRU cache;
                // a miss compiles once, outside the cache's lock, and is
                // charged separately from run time; a refusal fails the
                // launch, uncached. Capacity 0 runs the interpreter (the
                // oracle mode) instead. The trace spans are the timing source
                // for the kernel stats, so the per-kernel report and the
                // trace share one clock.
                let (plan, cache_outcome) = match self.plan_cache.lookup(func, &shapes) {
                    Some(CachedPlan::Ready(p)) => (Some(p), Some(relax_trace::CacheOutcome::Hit)),
                    Some(CachedPlan::Unplannable) => {
                        return Err(not_plannable(func, "a negative cache entry"));
                    }
                    None if self.plan_cache.enabled() => {
                        let sp = relax_trace::span("vm", || format!("plan:{func}"));
                        let compiled =
                            relax_tir::plan::compile(&self.exec.tir_funcs[func], &shapes);
                        let dt = sp.finish_with(|| relax_trace::Payload::Kernel {
                            kernel: func.clone(),
                            shapes: relax_trace::shape_sig(&shapes),
                            cache: Some(relax_trace::CacheOutcome::Miss),
                        });
                        let stat = self.kernel_stats.entry(func.clone()).or_default();
                        stat.plan_compiles += 1;
                        stat.compile_time += dt;
                        let plan = match compiled {
                            Ok(plan) => Arc::new(plan),
                            Err(PlanError::Unsupported(r)) => return Err(not_plannable(func, &r)),
                            Err(PlanError::Interp(e)) => return Err(e.into()),
                        };
                        self.plan_cache.insert(func, &shapes, CachedPlan::Ready(plan.clone()));
                        (Some(plan), Some(relax_trace::CacheOutcome::Miss))
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
                    None => interp::run(&self.exec.tir_funcs[func], &tensors)?,
                }
                let dt = sp.finish_with(|| relax_trace::Payload::Kernel {
                    kernel: func.clone(),
                    shapes: relax_trace::shape_sig(&shapes),
                    cache: cache_outcome,
                });
                let stat = self.kernel_stats.entry(func.clone()).or_default();
                stat.calls += 1;
                stat.run_time += dt;
                self.telemetry.tir_calls += 1;
                if !in_replay {
                    self.telemetry.kernel_launches += 1;
                } else {
                    self.telemetry.launches_saved += 1;
                }
            }
            Instr::CallLib { func, args, dsts } => {
                if self.fault_fires(FaultSite::Kernel) {
                    return Err(injected_kernel_fault(func));
                }
                let inputs: Result<Vec<_>, _> =
                    args.iter().map(|r| frame.tensor(*r).cloned()).collect();
                let (inputs, outputs): (Vec<_>, Vec<_>) = (
                    inputs?,
                    dsts.iter()
                        .map(|r| frame.tensor(*r).cloned())
                        .collect::<Result<Vec<_>, _>>()?,
                );
                let sp = relax_trace::span("vm", || format!("lib:{func}"));
                self.registry.call_lib(func, &inputs, &outputs)?;
                let dt = sp.finish_with(|| relax_trace::Payload::Kernel {
                    kernel: func.clone(),
                    shapes: relax_trace::shape_sig(
                        &inputs.iter().map(|t| t.shape().to_vec()).collect::<Vec<_>>(),
                    ),
                    cache: None,
                });
                let stat = self.kernel_stats.entry(func.clone()).or_default();
                stat.calls += 1;
                stat.run_time += dt;
                self.telemetry.lib_calls += 1;
                if !in_replay {
                    self.telemetry.kernel_launches += 1;
                } else {
                    self.telemetry.launches_saved += 1;
                }
            }
            Instr::CallBuiltin { func, args, dst } => {
                if self.fault_fires(FaultSite::Kernel) {
                    return Err(injected_kernel_fault(func));
                }
                let vals = args
                    .iter()
                    .map(|r| frame.get(*r).cloned())
                    .collect::<Result<Vec<_>, _>>()?;
                let out = self.registry.call_builtin(func, &vals, &self.kv_pool)?;
                self.telemetry.builtin_calls += 1;
                frame.set(*dst, out)?;
            }
            Instr::CallFunc { func, args, dst } => {
                let mut vals = Vec::with_capacity(args.len());
                for r in args {
                    vals.push(frame.get(*r)?.clone());
                }
                let out = self.run_inner(func, &vals)?;
                frame.set(*dst, out)?;
            }
            Instr::MatchShape { src, dims, ctx } => {
                if self.fault_fires(FaultSite::ShapeCheck) {
                    return Err(VmErrorKind::ShapeCheck {
                        ctx: ctx.clone(),
                        detail: "injected fault".to_string(),
                    }
                    .into());
                }
                let actual: Vec<i64> = match frame.get(*src)? {
                    Value::Tensor(t) => t.shape().iter().map(|&d| d as i64).collect(),
                    Value::Shape(dims) => dims.clone(),
                    other => {
                        return Err(VmErrorKind::TypeMismatch {
                            expected: "tensor or shape",
                            actual: other.kind(),
                        }
                        .into())
                    }
                };
                self.match_shape(&actual, dims, ctx, &mut frame.heap)?;
            }
            Instr::LoadConst { dst, index } => {
                let c = self.exec.constants.get(*index).cloned().ok_or_else(|| {
                    VmError::new(VmErrorKind::TypeMismatch {
                        expected: "a constant-pool entry",
                        actual: "out-of-range constant index",
                    })
                })?;
                frame.set(*dst, Value::Tensor(c))?;
            }
            Instr::MakeTuple { dst, items } => {
                let mut vals = Vec::with_capacity(items.len());
                for r in items {
                    vals.push(frame.get(*r)?.clone());
                }
                frame.set(*dst, Value::Tuple(vals))?;
            }
            Instr::GetItem { dst, src, index } => {
                let items = match frame.get(*src)? {
                    Value::Tuple(items) => items.clone(),
                    other => {
                        return Err(VmErrorKind::TypeMismatch {
                            expected: "tuple",
                            actual: other.kind(),
                        }
                        .into())
                    }
                };
                frame.set(*dst, items.get(*index).cloned().unwrap_or(Value::None))?;
            }
            Instr::MakeShape { dst, dims } => {
                let vals: Result<Vec<i64>, EvalError> =
                    dims.iter().map(|d| d.eval(&frame.heap)).collect();
                frame.set(*dst, Value::Shape(vals?))?;
            }
            Instr::Copy { dst, src } => {
                let v = frame.get(*src)?.clone();
                frame.set(*dst, v)?;
            }
            Instr::CaptureRegion { id, keys, body } => {
                let key_vals: Result<Vec<i64>, EvalError> =
                    keys.iter().map(|k| k.eval(&frame.heap)).collect();
                let cache_key = (*id, key_vals?);
                let replaying = self.captured.contains(&cache_key);
                if replaying {
                    self.telemetry.replays += 1;
                    // A replay costs a single launch for the region.
                    self.telemetry.kernel_launches += 1;
                } else {
                    self.captured.insert(cache_key);
                    self.telemetry.captures += 1;
                }
                if let Some(v) = self.exec_block(vmf, body, frame, replaying)? {
                    return Ok(Some(v));
                }
            }
            Instr::Ret { src } => {
                return Ok(Some(frame.get(*src)?.clone()));
            }
        }
        Ok(None)
    }

    fn eval_dims(
        &self,
        shape: &[PrimExpr],
        heap: &HashMap<SymVar, i64>,
    ) -> Result<Vec<usize>, VmError> {
        shape
            .iter()
            .map(|d| Ok(d.eval(heap)?.max(0) as usize))
            .collect()
    }

    fn match_shape(
        &mut self,
        actual_dims: &[i64],
        dims: &[PrimExpr],
        ctx: &str,
        heap: &mut HashMap<SymVar, i64>,
    ) -> Result<(), VmError> {
        if actual_dims.len() != dims.len() {
            return Err(VmErrorKind::ShapeCheck {
                ctx: ctx.to_string(),
                detail: format!(
                    "rank mismatch: expected {}, got {}",
                    dims.len(),
                    actual_dims.len()
                ),
            }
            .into());
        }
        for (expr, &actual) in dims.iter().zip(actual_dims) {
            self.telemetry.shape_checks += 1;
            match expr {
                PrimExpr::Var(v) if !heap.contains_key(v) => {
                    heap.insert(v.clone(), actual);
                }
                e => {
                    let expected = e.eval(heap)?;
                    if expected != actual {
                        return Err(VmErrorKind::ShapeCheck {
                            ctx: ctx.to_string(),
                            detail: format!("dimension `{e}` = {expected}, runtime value {actual}"),
                        }
                        .into());
                    }
                }
            }
        }
        Ok(())
    }
}

/// Default tokens per KV page when no shared pool is installed (matches
/// vLLM's default block size).
const DEFAULT_KV_PAGE_TOKENS: usize = 16;

/// Byte size of a tensor, with overflow-checked arithmetic: adversarial
/// shapes whose element count times element size exceeds `usize` must
/// surface as a [`VmErrorKind::StorageOverflow`], not a debug panic or a
/// release-mode wraparound that under-allocates.
fn checked_tensor_bytes(dims: &[usize], dtype: DataType) -> Result<usize, VmError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .and_then(|n| n.checked_mul(dtype.size_bytes()))
        .ok_or_else(|| {
            VmError::new(VmErrorKind::StorageOverflow {
                required: usize::MAX,
                available: 0,
            })
        })
}

/// An injected kernel failure, attributed to the faulting kernel.
fn injected_kernel_fault(kernel: &str) -> VmError {
    VmErrorKind::Kernel(KernelError::new(kernel, "injected fault")).into()
}

/// The error of a launch whose kernel the planner refuses.
fn not_plannable(kernel: &str, reason: &str) -> VmError {
    let detail = format!("kernel not plannable: {reason}");
    VmErrorKind::Kernel(KernelError::new(kernel, detail)).into()
}

/// Renders an instruction for a frame-trace entry. Capture regions print
/// a one-line summary instead of their whole body.
fn render_instr(instr: &Instr) -> String {
    match instr {
        Instr::CaptureRegion { id, body, .. } => {
            format!("capture_region #{id} {{ {} instrs }}", body.len())
        }
        other => other.to_string(),
    }
}

struct Frame {
    regs: Vec<Value>,
    heap: HashMap<SymVar, i64>,
    /// Pool block sizes granted to registers (for recycling on `Kill`).
    alloc_sizes: HashMap<Reg, usize>,
}

const OUT_OF_RANGE: VmErrorKind = VmErrorKind::TypeMismatch {
    expected: "a value in a frame register",
    actual: "out-of-range register",
};

impl Frame {
    fn get(&self, reg: Reg) -> Result<&Value, VmError> {
        self.regs.get(reg).ok_or_else(|| VmError::new(OUT_OF_RANGE))
    }

    fn set(&mut self, reg: Reg, v: Value) -> Result<(), VmError> {
        match self.regs.get_mut(reg) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(VmError::new(OUT_OF_RANGE)),
        }
    }

    fn tensor(&self, reg: Reg) -> Result<&NDArray, VmError> {
        match self.get(reg)? {
            Value::Tensor(t) => Ok(t),
            other => Err(VmErrorKind::TypeMismatch {
                expected: "tensor",
                actual: other.kind(),
            }
            .into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::DataType;
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
        assert_eq!((stats.misses, stats.hits, stats.evictions, stats.len), (3, 2, 1, 2));
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
        let x = [Value::Tensor(NDArray::from_f64(&[3], DataType::F32, vec![-5., 0., 5.]).unwrap())];
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
        assert_eq!(t2.launches_saved, 1);
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
        vm.set_strict_storage(true);
        let x = NDArray::from_f64(&[4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        vm.run("main", &[Value::Tensor(x.clone())]).unwrap();
        vm.run("main", &[Value::Tensor(x)]).unwrap();
        let tel = vm.telemetry();
        // One static storage of 64 bytes, allocated once across both runs.
        assert_eq!(tel.planned_bytes, 64);
        // Overflow: 32 floats need 128 bytes > 64 — an error in strict
        // mode.
        let big = NDArray::zeros(&[32], DataType::F32);
        let err = vm.run("main", &[Value::Tensor(big.clone())]).unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::StorageOverflow { .. }));

        // Default mode: the same overflow degrades to the pooled
        // allocator and the run completes.
        vm.set_strict_storage(false);
        let out = vm.run("main", &[Value::Tensor(big)]).unwrap();
        assert_eq!(out.as_tensor().unwrap().shape(), &[32]);
        let tel = vm.telemetry();
        assert_eq!(tel.fallback_allocs, 1);
        // The failed strict run left a clean state; this success after an
        // error counts as a recovery.
        assert_eq!(tel.recoveries, 1);
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

    #[test]
    fn memory_capacity_bounds_the_pool() {
        let mut vm = Vm::new(relu_exec());
        vm.set_memory_capacity(Some(8)); // two f32s
        let small = NDArray::from_f64(&[2], DataType::F32, vec![1., -1.]).unwrap();
        vm.run("main", &[Value::Tensor(small)]).unwrap();
        let big = NDArray::zeros(&[64], DataType::F32);
        let err = vm.run("main", &[Value::Tensor(big)]).unwrap_err();
        match err.kind {
            VmErrorKind::StorageOverflow {
                required,
                available,
            } => {
                assert_eq!(required, 256);
                assert!(available <= 8);
            }
            other => panic!("expected StorageOverflow, got {other}"),
        }
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
        assert!(matches!(err.kind, VmErrorKind::StorageOverflow { .. }), "{err}");
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
        assert!(matches!(err.kind, VmErrorKind::StorageOverflow { .. }), "{err}");
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
