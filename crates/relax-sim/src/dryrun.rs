//! Shape-level dry run of a compiled executable: the VM's loop over
//! shape-level values.
//!
//! [`simulate`] runs `relax_vm::domain::run`, the one instruction loop the
//! VM runs, with [`SimValue`]s in the registers: no tensor data is touched,
//! and each kernel launch is charged to the device cost model. This is how
//! the paper-figure binaries obtain "Relax" numbers for full-size models:
//! the compiler's actual output (after fusion, library dispatch, memory
//! planning and graph capture) determines exactly which kernels launch
//! with which shapes. Registers, the shape heap, allocation sizes, the
//! memory account (pool blocks, the planned-storage ledger, fallbacks),
//! calls and errors are the loop's; every argument rule is `relax-vm`'s
//! (`Registry::check_{lib, builtin}`, `KvCacheConfig::check_*`,
//! `moe::check_*`, `registry::check_*`), and every byte size the loop's
//! checked `tensor_bytes`. So a run the VM refuses fails here with the
//! VM's [`VmError`]: the same kind, text and frame trace. This domain adds
//! only costs, result shapes and which allocations its [`MemoryTracker`]
//! admits, under five stated policies:
//! - MoE gathers are bounded by the whole token batch (§4.2's worst-case
//!   rule): launch names match, every dimension is at least the VM's, and
//!   a scatter's row count is not checked against its expert's tokens.
//! - A value that escapes through `Ret` is no activation: its pool block
//!   and its planned storage stay out of the tracker (Table 2).
//! - An allocation that would take the tracker past the device's memory
//!   fails `StorageOverflow`, where the VM fails only an injected fault.
//! - The plan cache is unbounded: one compile per `(kernel, shapes)` key.
//! - `warm` means every capture region replays.
//!
//! `sim_parity` (`tests/sim_parity.rs`) pins the launch logs, counters,
//! refusals and pool accounting against the VM.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;

use relax_arith::DataType;
use relax_tir::interp::bind_shapes_dims;
use relax_tir::PrimFunc;
use relax_trace::CacheOutcome::{self, Hit, Miss};
use relax_vm::domain::{tensor_bytes, Domain};
use relax_vm::moe::{check_gather, check_route, check_scatter};
use relax_vm::registry::{check_kv_append, check_matmul, check_rms_norm, KernelError, Registry};
use relax_vm::{
    launch_payload, stream_arg, want, want_shape, Executable, Instr, Memory, Reg, VmError,
    VmErrorKind, VmFunction, KV_CACHE_PREFIX, KV_PAGE_TOKENS, MOE_PREFIX,
};

use crate::cost::{kernel_time, KernelClass};
use crate::device::DeviceSpec;
use crate::value::SimValue;

/// Logs one charged kernel as the VM logs that launch: an instant named
/// like the VM's span (`kernel:`, `lib:` or `builtin:` and the function),
/// with the same payload. Costs one relaxed load with tracing off.
fn log_launch(
    class: &str,
    func: &str,
    shapes: impl FnOnce() -> Vec<Vec<usize>>,
    cache: Option<CacheOutcome>,
) {
    let payload = || launch_payload(func, &shapes(), cache);
    relax_trace::instant("sim", || format!("{class}:{func}"), payload);
}

/// The launch-log dimensions of the values in `args`.
fn arg_dims<'r>(args: impl IntoIterator<Item = &'r Reg>, regs: &[SimValue]) -> Vec<Vec<usize>> {
    args.into_iter().map(|r| regs[*r].launch_dims()).collect()
}

/// Result of simulating one function invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimReport {
    /// Total simulated wall time in seconds.
    pub total_s: f64,
    /// Time spent in kernel execution.
    pub kernel_s: f64,
    /// Time spent in launch overhead (and capture).
    pub launch_s: f64,
    /// Kernels executed on the device.
    pub kernels: u64,
    /// Launch events charged (replayed regions charge one).
    pub launches: u64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total global-memory bytes moved.
    pub bytes: f64,
    /// Shape-specialized kernel plans compiled (cold runs only: the first
    /// launch of each `(function, shapes)` key pays one compilation; the
    /// warm steady state reuses the runtime's plan cache).
    pub plan_compiles: u64,
    /// Host time spent compiling kernel plans.
    pub compile_s: f64,
}

impl SimReport {
    /// Fraction of launch overhead that cannot hide behind asynchronous
    /// kernel execution (driver serialization, sync points). This is why
    /// graph capture buys the paper's 1–2% rather than the full
    /// launch-count × overhead.
    const LAUNCH_VISIBLE_FRACTION: f64 = 0.1;

    fn recompute_total(&mut self) {
        // Launches enqueue asynchronously: the device is the bottleneck
        // unless the CPU cannot keep the queue fed (launch-bound regime).
        // Plan compilation is serial host work and hides behind nothing.
        let hidden = self.kernel_s.max(self.launch_s);
        let overlap_tax = Self::LAUNCH_VISIBLE_FRACTION * self.kernel_s.min(self.launch_s);
        self.total_s = hidden + overlap_tax + self.compile_s;
    }

    fn add_plan_compile(&mut self, device: &DeviceSpec) {
        self.plan_compiles += 1;
        self.compile_s += device.plan_compile_overhead();
    }

    fn add_launch(&mut self, device: &DeviceSpec) {
        self.launch_s += device.launch_overhead;
        self.launches += 1;
    }
}

/// Tracks memory behaviour across successive simulated invocations —
/// the measurement behind the Table 2 experiment. It is the VM's
/// [`Memory`] account, kept by the same loop: the pooled allocator mirrors
/// the runtime pool used when planning is off, and the ledger records the
/// static storages sized by Algorithm 3, keyed by site as the VM keys
/// them. Values that escape through a function's return (model outputs
/// such as KV caches and logits) are left out of this *activation*
/// accounting, like the runtime-managed KV cache in the paper's Table 2.
#[derive(Debug, Default)]
pub struct MemoryTracker(Memory);

impl Deref for MemoryTracker {
    type Target = Memory;

    fn deref(&self) -> &Memory {
        &self.0
    }
}

impl MemoryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held by planned static storage.
    pub fn planned_bytes(&self) -> usize {
        self.0.planned.total()
    }

    /// Total bytes of distinct blocks the runtime pool ever allocated.
    pub fn pool_footprint(&self) -> usize {
        self.pool.stats().footprint
    }

    /// Total activation bytes currently attributed (planned + pool).
    pub fn total_bytes(&self) -> usize {
        self.planned_bytes() + self.pool_footprint()
    }
}

/// Simulates one invocation of `func` with the given argument shapes.
///
/// `warm` selects the steady state: capture regions are treated as already
/// captured (replays — one launch per region), matching a decode loop
/// after its first step. With `warm = false`, the first-execution cost is
/// charged (per-kernel launches plus a capture overhead).
///
/// # Errors
///
/// The [`VmError`] the VM fails the same run with (a refused shape check,
/// launch, register or allocation), with its frame trace.
pub fn simulate(
    exec: &Executable,
    func: &str,
    args: &[SimValue],
    device: &DeviceSpec,
    warm: bool,
) -> Result<SimReport, VmError> {
    DryRun::run(exec, device, warm, None, func, args)
}

/// Like [`simulate`], additionally recording memory behaviour into a
/// caller-owned [`MemoryTracker`] that persists across invocations (so a
/// workload of successive shapes reveals how the pool grows vs. how the
/// static plan stays fixed — Table 2).
///
/// # Errors
///
/// Same as [`simulate`]; an allocation beyond the device's memory fails
/// `StorageOverflow`, with the bytes the device has left as `available`.
pub fn simulate_with_memory(
    exec: &Executable,
    func: &str,
    args: &[SimValue],
    device: &DeviceSpec,
    warm: bool,
    memory: &mut MemoryTracker,
) -> Result<SimReport, VmError> {
    DryRun::run(exec, device, warm, Some(&mut memory.0), func, args)
}

/// The dry run's domain: shape-level values, launches that charge the
/// device's costs, and the memory tracker's accounting.
struct DryRun<'a> {
    device: &'a DeviceSpec,
    /// Every capture region replays.
    warm: bool,
    memory: Option<&'a mut Memory>,
    report: SimReport,
    /// Plan-cache keys charged a compilation (the cache is unbounded).
    seen: HashSet<(String, Vec<Vec<usize>>)>,
    /// Per function, the registers whose values escape through its return.
    escaping: HashMap<String, HashSet<Reg>>,
    registry: Registry,
}

impl<'a> DryRun<'a> {
    fn run(
        exec: &Executable,
        device: &'a DeviceSpec,
        warm: bool,
        memory: Option<&'a mut Memory>,
        func: &str,
        args: &[SimValue],
    ) -> Result<SimReport, VmError> {
        let mut run = Self {
            device,
            warm,
            memory,
            report: SimReport::default(),
            seen: HashSet::new(),
            escaping: HashMap::new(),
            registry: Registry::new(),
        };
        relax_vm::domain::run(exec, &mut run, func, args)?;
        run.report.recompute_total();
        Ok(run.report)
    }

    /// Charges one kernel; a replayed one launches with its region.
    fn charge(&mut self, class: KernelClass, flops: f64, bytes: f64, in_replay: bool) {
        let report = &mut self.report;
        report.kernel_s += kernel_time(self.device, class, flops, bytes);
        report.kernels += 1;
        report.flops += flops;
        report.bytes += bytes;
        if !in_replay {
            report.add_launch(self.device);
        }
    }
}

impl Domain for DryRun<'_> {
    type Value = SimValue;

    fn memory(&mut self) -> Option<&mut Memory> {
        self.memory.as_deref_mut()
    }

    /// Admits what fits the device into the tracker, but no value that
    /// escapes through the return: that is not an activation.
    fn admit(
        &mut self,
        vmf: &VmFunction,
        dst: Reg,
        bytes: usize,
        site: Option<&(String, usize)>,
    ) -> Result<bool, VmError> {
        let Some(mem) = self.memory.as_deref() else {
            return Ok(false);
        };
        let escaping = self
            .escaping
            .entry(vmf.name.clone())
            .or_insert_with(|| escaping_regs(&vmf.instrs));
        if escaping.contains(&dst) {
            return Ok(false);
        }
        let required = site.map_or(bytes, |site| mem.planned.growth(site, bytes));
        let available = (self.device.memory_capacity as usize).saturating_sub(mem.in_use());
        if required > available {
            return Err(VmErrorKind::StorageOverflow {
                required,
                available,
            }
            .into());
        }
        Ok(true)
    }

    fn call_tir(
        &mut self,
        func: &str,
        prim: &PrimFunc,
        regs: &[SimValue],
        args: &[Reg],
        dsts: &[Reg],
        in_replay: bool,
    ) -> Result<(), VmError> {
        let shapes = arg_dims(args.iter().chain(dsts), regs);
        let mut env = HashMap::new();
        bind_shapes_dims(prim.params(), &shapes, &mut env)?;
        let cost = relax_tir::analysis::cost_of(prim, &env);
        // A cold run pays one plan compilation per distinct (function,
        // shapes) key — the VM's shape-keyed cache amortizes everything
        // after that. The warm steady state launches straight from the
        // cache.
        let miss = !self.warm && self.seen.insert((func.to_string(), shapes.clone()));
        if miss {
            self.report.add_plan_compile(self.device);
        }
        log_launch(
            "kernel",
            func,
            || shapes,
            Some(if miss { Miss } else { Hit }),
        );
        self.charge(KernelClass::Generated, cost.flops, cost.bytes, in_replay);
        Ok(())
    }

    fn call_lib(
        &mut self,
        func: &str,
        regs: &[SimValue],
        args: &[Reg],
        dsts: &[Reg],
        in_replay: bool,
    ) -> Result<(), VmError> {
        self.registry.check_lib(func, args.len(), dsts.len())?;
        let (flops, bytes) = lib_cost(func, args, dsts, regs)?;
        log_launch("lib", func, || arg_dims(args, regs), None);
        self.charge(KernelClass::Library, flops, bytes, in_replay);
        Ok(())
    }

    fn call_builtin(
        &mut self,
        func: &str,
        args: &[SimValue],
        in_replay: bool,
    ) -> Result<SimValue, VmError> {
        self.registry.check_builtin(func, args.len())?;
        let dims = || args.iter().map(SimValue::launch_dims).collect();
        log_launch("builtin", func, dims, None);
        let (flops, bytes, out) = if let Some(op) = func.strip_prefix(KV_CACHE_PREFIX) {
            kv_cache_builtin(op, args)?
        } else if let Some(op) = func.strip_prefix(MOE_PREFIX) {
            moe_builtin(op, args)?
        } else {
            // Host-side builtin (`builtin.unique`, on a tensor): charge the
            // data movement only; the output is pessimistically as large
            // as the input.
            let (dims, dtype) = want(func, args, 0, "tensor", SimValue::tensor_arg)?;
            let bytes = 2.0 * tensor_bytes(&dims, dtype)? as f64;
            (0.0, bytes, args[0].clone())
        };
        self.charge(KernelClass::Generated, flops, bytes, in_replay);
        Ok(out)
    }

    /// `warm` means replay: a single launch for the whole region, whose
    /// kernels still execute on-device. A cold run captures while
    /// running: a modest one-time capture overhead on top of the normal
    /// launches.
    fn capture(&mut self, _: usize, _: Vec<i64>) -> bool {
        if self.warm {
            self.report.add_launch(self.device);
        } else {
            self.report.launch_s += 4.0 * self.device.launch_overhead;
        }
        self.warm
    }
}

/// Computes the registers whose values escape through the function return
/// — transitively through tuples, projections, capture regions,
/// and the storages backing escaping tensors.
fn escaping_regs(instrs: &[Instr]) -> HashSet<usize> {
    let mut escaping = HashSet::new();
    fn flat<'a>(instrs: &'a [Instr], out: &mut Vec<&'a Instr>) {
        for i in instrs {
            if let Instr::CaptureRegion { body, .. } = i {
                flat(body, out);
            } else {
                out.push(i);
            }
        }
    }
    let mut all = Vec::new();
    flat(instrs, &mut all);
    // Iterate to a fixed point over the (small) instruction list.
    loop {
        let before = escaping.len();
        for i in &all {
            match i {
                Instr::Ret { src } => {
                    escaping.insert(*src);
                }
                Instr::MakeTuple { dst, items } if escaping.contains(dst) => {
                    escaping.extend(items.iter().copied());
                }
                Instr::GetItem { dst, src, .. } if escaping.contains(dst) => {
                    escaping.insert(*src);
                }
                Instr::TensorFromStorage { dst, storage, .. } if escaping.contains(dst) => {
                    escaping.insert(*storage);
                }
                _ => {}
            }
        }
        if escaping.len() == before {
            break;
        }
    }
    escaping
}

/// Analytical flops/bytes for the registered library kernels, after the
/// kernel's own shape rule, of a launch whose arguments the loop checked
/// are tensors.
fn lib_cost(
    func: &str,
    args: &[usize],
    dsts: &[usize],
    regs: &[SimValue],
) -> Result<(f64, f64), VmError> {
    let dims = |r: usize| regs[r].launch_dims();
    let refused = |detail| VmError::from(KernelError::new(func, detail));
    let io_bytes = args
        .iter()
        .chain(dsts)
        .map(|&r| regs[r].byte_size().map(|b| b as f64));
    let io_bytes = io_bytes.sum::<Result<f64, _>>()?;
    match func {
        "cublas.matmul" | "cublas.matmul_relu" => {
            let [batch, m, k, n] = check_matmul(&dims(args[0]), &dims(args[1])).map_err(refused)?;
            let flops = 2.0 * batch as f64 * m as f64 * n as f64 * k as f64;
            Ok((flops, io_bytes))
        }
        "vm.builtin.kv_append" => {
            // Copy-based append: reads the old cache and the new slice,
            // then materializes the grown cache — its traffic scales with
            // the full cache size. The in-place paged builtin
            // (`vm.builtin.kv_cache.append_paged`) is costed separately
            // in `kv_cache_builtin` and touches only the appended slice.
            let (cache, new, out) = (dims(args[0]), dims(args[1]), dims(dsts[0]));
            check_kv_append(&cache, &new, &out).map_err(refused)?;
            Ok((0.0, io_bytes))
        }
        "cutlass.rms_norm" => {
            let (rows, d) = check_rms_norm(&dims(args[0]), &dims(args[1])).map_err(refused)?;
            Ok((4.0 * (rows * d) as f64, io_bytes))
        }
        _ => Ok((io_bytes, io_bytes)),
    }
}

/// Analytical cost and shape-level result of one `vm.builtin.moe.<op>`
/// builtin, after the VM's own argument reading and rule. The gather output's leading
/// dim `n_e` is data-dependent (decided by the router at runtime), so the
/// simulator applies the worst-case planning rule (§4.2): every expert is
/// costed as if it received the full token batch. Per-expert times
/// therefore *bound* the ragged dispatch rather than average it — the same
/// upper bound the memory planner uses for `match_cast`-refined shapes.
fn moe_builtin(op: &str, args: &[SimValue]) -> Result<(f64, f64, SimValue), VmError> {
    let func = format!("{MOE_PREFIX}{op}");
    let i64_bytes = DataType::I64.size_bytes() as f64;
    let tensor = |i| want(&func, args, i, "tensor", SimValue::tensor_arg);
    match op {
        // route(logits (t, E)) -> (t,) i64: one strict-`>` sweep over
        // the expert axis per token.
        "route" => {
            let (logits, dtype) = tensor(0)?;
            let (t, e) = check_route(&logits)?;
            let out = SimValue::tensor(vec![t as i64], DataType::I64);
            let bytes = tensor_bytes(&logits, dtype)? + out.byte_size()?;
            Ok(((t * e) as f64, bytes as f64, out))
        }
        // gather(tokens (t, d), assign (t,), shape[e]) -> (n_e, d):
        // n_e is unknowable here, so bound it by t.
        "gather" => {
            let (tokens, _) = tensor(0)?;
            let (assign, assign_dtype) = tensor(1)?;
            want_shape(&func, args, 2, 1)?;
            let (t, _) = check_gather(&tokens, &assign, assign_dtype)?;
            let out = args[0].clone();
            Ok((
                0.0,
                2.0 * out.byte_size()? as f64 + t as f64 * i64_bytes,
                out,
            ))
        }
        // scatter(rows (n_e, d), assign (t,), shape[e, t]) -> (t, d):
        // the output is dense again, `t` comes from the shape operand.
        "scatter" => {
            let (rows, dtype) = tensor(0)?;
            let (assign, assign_dtype) = tensor(1)?;
            let et = want_shape(&func, args, 2, 2)?;
            let (t, d) = check_scatter(&rows, &assign, assign_dtype, et[1])?;
            let out = SimValue::tensor(vec![t as i64, d as i64], dtype);
            Ok((
                0.0,
                out.byte_size()? as f64 * 2.0 + t as f64 * i64_bytes,
                out,
            ))
        }
        _ => Err(KernelError::new(func, "not registered").into()),
    }
}

/// Analytical cost and shape-level result of one
/// `vm.builtin.kv_cache.<op>` builtin, after the VM's own argument rule.
/// Paged appends are charged for the appended slice plus the block-table
/// entries they touch — not the accumulated cache — mirroring the VM's
/// in-place page writes.
fn kv_cache_builtin(op: &str, args: &[SimValue]) -> Result<(f64, f64, SimValue), VmError> {
    let func = format!("{KV_CACHE_PREFIX}{op}");
    let tensor = |i| want(&func, args, i, "tensor", SimValue::tensor_arg);
    let cache = |i| want(&func, args, i, "kv_cache", SimValue::kv_cache);
    match op {
        // append_paged(cache, new, shape[stream]) -> cache
        "append_paged" => {
            let (cfg, lens) = cache(0)?;
            let (new, dtype) = tensor(1)?;
            let stream = stream_arg(&func, want_shape(&func, args, 2, 1)?[0], "stream")?;
            cfg.check_append(stream, &new, dtype)?;
            let (len, n) = (lens[stream], new[2]);
            // Only the appended slice is read and written in place...
            let slice = tensor_bytes(&new, dtype)? as f64;
            // ...plus one block-table entry per newly referenced page.
            let pages = |len: usize| len.div_ceil(KV_PAGE_TOKENS);
            let new_pages = pages(len + n) - pages(len);
            let mut out = args[0].clone();
            if let SimValue::KvCache { streams, .. } = &mut out {
                streams[stream] = (len + n) as i64;
            }
            Ok((0.0, 2.0 * slice + 8.0 * new_pages as f64, out))
        }
        // attention(q, cache, shape[k_stream, v_stream, causal]) -> tensor
        "attention" => {
            let (q, q_dtype) = tensor(0)?;
            let (cfg, lens) = cache(1)?;
            let d = want_shape(&func, args, 2, 3)?;
            let k = stream_arg(&func, d[0], "k stream")?;
            let v = stream_arg(&func, d[1], "v stream")?;
            cfg.check_attention(&q, k, v, lens.get(k).copied().zip(lens.get(v).copied()))?;
            let stream_bytes = |len: usize| {
                let dims = [len, cfg.batch, cfg.heads, cfg.head_dim];
                tensor_bytes(&dims, cfg.dtype).map(|b| b as f64)
            };
            let q_bytes = tensor_bytes(&q, q_dtype)? as f64;
            // QK^T and PV are each 2*b*hq*s*skv*hd flops.
            let flops = 4.0 * (q[0] * q[1] * q[2] * cfg.head_dim) as f64 * lens[k] as f64;
            let bytes = 2.0 * q_bytes + stream_bytes(lens[k])? + stream_bytes(lens[v])?;
            Ok((flops, bytes, args[0].clone()))
        }
        _ => Err(KernelError::new(func, "not registered").into()),
    }
}

// The unit tests build symbolic shapes.
#[cfg(test)]
use relax_arith::{PrimExpr, Var as SymVar};

#[cfg(test)]
mod tests {
    use super::*;
    use relax_vm::VmFunction;

    fn mm_exec(n_sym: &SymVar) -> Executable {
        // One generated matmul kernel: x (n, 64) @ w (64, 64).
        let x = relax_tir::Buffer::new("X", vec![n_sym.clone().into(), 64.into()], DataType::F32);
        let w = relax_tir::Buffer::new("W", vec![64.into(), 64.into()], DataType::F32);
        let y = relax_tir::Buffer::new("Y", vec![n_sym.clone().into(), 64.into()], DataType::F32);
        let (iv, nest) = relax_tir::grid(&[
            ("i", n_sym.clone().into()),
            ("j", 64.into()),
            ("k", 64.into()),
        ]);
        let (i, j, k) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
        let body = nest.build(relax_tir::Stmt::seq(vec![
            relax_tir::Stmt::IfEq {
                lhs: k.clone().into(),
                rhs: 0.into(),
                then: Box::new(relax_tir::Stmt::store(
                    &y,
                    vec![i.clone().into(), j.clone().into()],
                    relax_tir::TirExpr::FloatImm(0.0),
                )),
            },
            relax_tir::Stmt::store(
                &y,
                vec![i.clone().into(), j.clone().into()],
                relax_tir::TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
                    + relax_tir::TirExpr::load(&x, vec![i.into(), k.clone().into()])
                        * relax_tir::TirExpr::load(&w, vec![k.into(), j.into()]),
            ),
        ]));
        let prim = relax_tir::PrimFunc::new("mm", vec![x, w, y], 1, body);

        let mut exec = Executable::new();
        exec.tir_funcs.insert("mm".into(), prim);
        exec.funcs.insert(
            "main".into(),
            VmFunction {
                name: "main".into(),
                num_params: 2,
                num_regs: 3,
                instrs: vec![
                    Instr::MatchShape {
                        src: 0,
                        dims: vec![n_sym.clone().into(), 64.into()],
                        ctx: "x".into(),
                    },
                    Instr::AllocTensor {
                        dst: 2,
                        shape: vec![n_sym.clone().into(), 64.into()],
                        dtype: DataType::F32,
                    },
                    Instr::CallTir {
                        func: "mm".into(),
                        args: vec![0, 1],
                        dsts: vec![2],
                        sym_args: vec![],
                    },
                    Instr::Ret { src: 2 },
                ],
            },
        );
        exec
    }

    #[test]
    fn dry_run_charges_shape_dependent_cost() {
        let n = SymVar::new("n");
        let exec = mm_exec(&n);
        let dev = DeviceSpec::rtx4090();
        let run = |batch: i64| {
            simulate(
                &exec,
                "main",
                &[
                    SimValue::tensor(vec![batch, 64], DataType::F32),
                    SimValue::tensor(vec![64, 64], DataType::F32),
                ],
                &dev,
                true,
            )
            .unwrap()
        };
        let r1 = run(1);
        let r8 = run(8);
        assert_eq!(r1.kernels, 1);
        assert_eq!(r1.flops, (64 * 64 * 2) as f64);
        assert_eq!(r8.flops, (8 * 64 * 64 * 2) as f64);
        assert!(r8.total_s >= r1.total_s);
        assert!(r1.total_s > 0.0);
    }

    #[test]
    fn cold_run_charges_one_compile_per_shape_warm_charges_none() {
        let n = SymVar::new("n");
        let mut exec = mm_exec(&n);
        // Launch the same kernel twice at the same shape: one compile.
        let f = exec.funcs.get_mut("main").unwrap();
        let call = f.instrs[2].clone();
        f.instrs.insert(2, call);
        let dev = DeviceSpec::rtx4090();
        let args = [
            SimValue::tensor(vec![4, 64], DataType::F32),
            SimValue::tensor(vec![64, 64], DataType::F32),
        ];
        let cold = simulate(&exec, "main", &args, &dev, false).unwrap();
        let warm = simulate(&exec, "main", &args, &dev, true).unwrap();
        assert_eq!(cold.kernels, 2);
        assert_eq!(cold.plan_compiles, 1);
        assert_eq!(cold.compile_s, dev.plan_compile_overhead());
        // The cached steady state launches straight from the plan cache.
        assert_eq!(warm.plan_compiles, 0);
        assert_eq!(warm.compile_s, 0.0);
        assert_eq!(warm.kernel_s, cold.kernel_s);
        assert!(warm.total_s < cold.total_s);
    }

    #[test]
    fn shape_violations_surface_in_dry_run() {
        let n = SymVar::new("n");
        let exec = mm_exec(&n);
        let dev = DeviceSpec::rtx4090();
        let err = simulate(
            &exec,
            "main",
            &[
                SimValue::tensor(vec![2, 99], DataType::F32), // 99 != 64
                SimValue::tensor(vec![64, 64], DataType::F32),
            ],
            &dev,
            true,
        )
        .unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::ShapeCheck { .. }), "{err}");
    }

    #[test]
    fn allocation_sizes_follow_the_vms_rule() {
        let n = SymVar::new("n");
        let mut exec = mm_exec(&n);
        let f = exec.funcs.get_mut("main").unwrap();
        // A negative size fails naming its expression, as in the VM.
        f.instrs[1] = Instr::AllocTensor {
            dst: 2,
            shape: vec![PrimExpr::from(n.clone()) - 4.into(), 64.into()],
            dtype: DataType::F32,
        };
        let dev = DeviceSpec::rtx4090();
        let args = [
            SimValue::tensor(vec![1, 64], DataType::F32),
            SimValue::tensor(vec![64, 64], DataType::F32),
        ];
        let err = simulate(&exec, "main", &args, &dev, false).unwrap_err();
        let want = "runtime shape check failed at allocation: size `(n - 4)` = -3 is negative";
        assert_eq!(err.kind.to_string(), want);
        // An unbound variable in a storage size fails evaluation.
        let f = exec.funcs.get_mut("main").unwrap();
        f.instrs[1] = Instr::AllocStorage {
            dst: 2,
            bytes: SymVar::new("m").into(),
        };
        let err = simulate(&exec, "main", &args, &dev, false).unwrap_err();
        assert!(matches!(err.kind, VmErrorKind::Eval(_)), "{err}");
    }

    #[test]
    fn capture_region_replay_saves_launches() {
        let n = SymVar::new("n");
        let mut exec = mm_exec(&n);
        // Duplicate the kernel call inside a capture region.
        let f = exec.funcs.get_mut("main").unwrap();
        let call = f.instrs[2].clone();
        f.instrs[2] = Instr::CaptureRegion {
            id: 0,
            keys: vec![n.clone().into()],
            body: vec![call.clone(), call],
        };
        let dev = DeviceSpec::rtx4090();
        let args = [
            SimValue::tensor(vec![4, 64], DataType::F32),
            SimValue::tensor(vec![64, 64], DataType::F32),
        ];
        let cold = simulate(&exec, "main", &args, &dev, false).unwrap();
        let warm = simulate(&exec, "main", &args, &dev, true).unwrap();
        assert_eq!(cold.kernels, 2);
        assert_eq!(warm.kernels, 2);
        assert_eq!(warm.launches, 1); // one replay launch for the region
        assert!(warm.launch_s < cold.launch_s);
        assert_eq!(warm.kernel_s, cold.kernel_s);
    }

    /// A library launch on `[2^40, 2^40]` operands: their byte sizes
    /// overflow `usize`, which refuses the launch by the loop's checked
    /// rule instead of panicking (debug) or wrapping (release).
    #[test]
    fn byte_sizes_that_overflow_refuse_the_launch() {
        let mut exec = Executable::new();
        let instrs = vec![
            Instr::CallLib {
                func: "cublas.matmul".into(),
                args: vec![0, 1],
                dsts: vec![2],
            },
            Instr::Ret { src: 2 },
        ];
        let (num_params, num_regs) = (3, 3);
        let name = "main".to_string();
        exec.funcs.insert(
            name.clone(),
            VmFunction {
                name,
                num_params,
                num_regs,
                instrs,
            },
        );
        let huge = SimValue::tensor(vec![1 << 40, 1 << 40], DataType::F32);
        let args = [huge.clone(), huge.clone(), huge];
        let err = simulate(&exec, "main", &args, &DeviceSpec::rtx4090(), true).unwrap_err();
        assert!(
            matches!(err.kind, VmErrorKind::StorageOverflow { .. }),
            "{err}"
        );
        assert_eq!(err.origin().map(|f| f.pc), Some(0));
    }
}

#[cfg(test)]
mod memory_tracker_tests {
    use super::*;
    use relax_vm::{FrameEntry, Instr, VmFunction};

    fn exec_with(instrs: Vec<Instr>, num_regs: usize) -> Executable {
        let mut exec = Executable::new();
        exec.funcs.insert(
            "f".into(),
            VmFunction {
                name: "f".into(),
                num_params: 0,
                num_regs,
                instrs,
            },
        );
        exec
    }

    #[test]
    fn pool_grows_across_shapes_but_plan_does_not() {
        let n = SymVar::new("n");
        // Unplanned: alloc (n, 4) then return a constant-shaped tensor.
        let exec = exec_with(
            vec![
                Instr::MakeShape {
                    dst: 1,
                    dims: vec![],
                },
                Instr::AllocTensor {
                    dst: 0,
                    shape: vec![n.clone().into(), 4.into()],
                    dtype: DataType::F32,
                },
                Instr::Kill { reg: 0 },
                Instr::Ret { src: 1 },
            ],
            2,
        );
        // Bind n through a MatchShape-free path: AllocTensor's eval will
        // fail without a binding, so feed n via an argument-bearing
        // function instead.
        let mut exec = exec;
        let f = exec.funcs.get_mut("f").unwrap();
        f.num_params = 1;
        f.instrs.insert(
            0,
            Instr::MatchShape {
                src: 0,
                dims: vec![n.into()],
                ctx: "p".into(),
            },
        );
        f.num_regs = 3;
        // Shift registers: keep it simple by using reg 1/2 for the body.
        f.instrs[1] = Instr::MakeShape {
            dst: 2,
            dims: vec![],
        };
        f.instrs[2] = Instr::AllocTensor {
            dst: 1,
            shape: vec![
                match &f.instrs[0] {
                    Instr::MatchShape { dims, .. } => dims[0].clone(),
                    _ => unreachable!(),
                },
                4.into(),
            ],
            dtype: DataType::F32,
        };
        f.instrs[3] = Instr::Kill { reg: 1 };
        f.instrs[4] = Instr::Ret { src: 2 };

        let device = DeviceSpec::rtx4090();
        let mut mem = MemoryTracker::new();
        for len in [8i64, 16, 32] {
            let args = [SimValue::Shape(vec![len])];
            simulate_with_memory(&exec, "f", &args, &device, true, &mut mem).unwrap();
        }
        // The pool had to grow for every larger shape: 8*16 + 16*16 + 32*16.
        assert_eq!(mem.pool_footprint(), (8 + 16 + 32) * 16);
        assert_eq!(mem.planned_bytes(), 0);
    }

    #[test]
    fn an_out_of_range_tuple_index_fails_typed() {
        let exec = exec_with(
            vec![
                Instr::MakeTuple {
                    dst: 1,
                    items: vec![0],
                },
                Instr::GetItem {
                    dst: 2,
                    src: 1,
                    index: 5,
                },
                Instr::Ret { src: 2 },
            ],
            3,
        );
        let err = simulate(&exec, "f", &[], &DeviceSpec::rtx4090(), true).unwrap_err();
        assert!(
            matches!(err.kind, VmErrorKind::TypeMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn escaping_allocations_are_excluded_from_activation_accounting() {
        let exec = exec_with(
            vec![
                Instr::AllocTensor {
                    dst: 0,
                    shape: vec![4.into()],
                    dtype: DataType::F32,
                },
                Instr::AllocTensor {
                    dst: 1,
                    shape: vec![4.into()],
                    dtype: DataType::F32,
                },
                Instr::Kill { reg: 0 },
                // reg 1 escapes via the return.
                Instr::Ret { src: 1 },
            ],
            2,
        );
        let device = DeviceSpec::rtx4090();
        let mut mem = MemoryTracker::new();
        simulate_with_memory(&exec, "f", &[], &device, true, &mut mem).unwrap();
        // Only the non-escaping intermediate counts: 16 bytes.
        assert_eq!(mem.pool_footprint(), 16);
    }

    #[test]
    fn planned_sites_track_their_maximum() {
        let n = SymVar::new("n");
        let exec = exec_with(
            vec![
                Instr::MatchShape {
                    src: 0,
                    dims: vec![n.clone().into()],
                    ctx: "p".into(),
                },
                Instr::AllocStorage {
                    dst: 1,
                    bytes: relax_arith::PrimExpr::from(n) * 4.into(),
                },
                Instr::TensorFromStorage {
                    dst: 2,
                    storage: 1,
                    shape: vec![1.into()],
                    dtype: DataType::F32,
                },
                // Return something that does NOT alias the storage, so the
                // site counts as an activation.
                Instr::MakeShape {
                    dst: 3,
                    dims: vec![],
                },
                Instr::Ret { src: 3 },
            ],
            4,
        );
        let mut exec = exec;
        exec.funcs.get_mut("f").unwrap().num_params = 1;
        let device = DeviceSpec::rtx4090();
        let mut mem = MemoryTracker::new();
        for len in [8i64, 64, 16] {
            let args = [SimValue::Shape(vec![len])];
            simulate_with_memory(&exec, "f", &args, &device, true, &mut mem).unwrap();
        }
        // The site records its maximum across runs: 64 * 4 bytes.
        assert_eq!(mem.planned_bytes(), 256);
    }

    /// `main` plans 64 bytes at pc 1 and calls `sub`, which plans 1024
    /// bytes at its own pc 1: two sites, as the VM counts them.
    #[test]
    fn planned_sites_are_keyed_by_function_and_pc() {
        let body = |bytes: i64, call: bool| {
            let mut instrs = vec![
                Instr::MakeShape {
                    dst: 1,
                    dims: vec![],
                },
                Instr::AllocStorage {
                    dst: 0,
                    bytes: bytes.into(),
                },
            ];
            if call {
                instrs.push(Instr::CallFunc {
                    func: "sub".into(),
                    args: vec![],
                    dst: 2,
                });
            }
            instrs.push(Instr::Ret { src: 1 });
            instrs
        };
        let mut exec = exec_with(body(64, true), 3);
        exec.funcs.insert(
            "sub".into(),
            VmFunction {
                name: "sub".into(),
                num_params: 0,
                num_regs: 2,
                instrs: body(1024, false),
            },
        );
        let mut mem = MemoryTracker::new();
        simulate_with_memory(&exec, "f", &[], &DeviceSpec::rtx4090(), true, &mut mem).unwrap();
        assert_eq!(mem.planned_bytes(), 64 + 1024);
        let mut vm = relax_vm::Vm::new(exec);
        vm.run("f", &[]).unwrap();
        assert_eq!(vm.telemetry().planned_bytes, 64 + 1024);
    }

    /// After `sub` returns, `main`'s own return decides what escapes:
    /// only `sub`'s 16-byte intermediate reaches the pool, not the 64-byte
    /// tensor `main` returns.
    #[test]
    fn a_call_keeps_the_callers_escape_set() {
        let f32s = |dst: usize, n: i64| Instr::AllocTensor {
            dst,
            shape: vec![n.into()],
            dtype: DataType::F32,
        };
        let mut exec = exec_with(
            vec![
                Instr::CallFunc {
                    func: "sub".into(),
                    args: vec![],
                    dst: 0,
                },
                f32s(2, 16),
                Instr::Ret { src: 2 },
            ],
            3,
        );
        exec.funcs.insert(
            "sub".into(),
            VmFunction {
                name: "sub".into(),
                num_params: 0,
                num_regs: 2,
                instrs: vec![
                    f32s(0, 4),
                    Instr::MakeShape {
                        dst: 1,
                        dims: vec![],
                    },
                    Instr::Kill { reg: 0 },
                    Instr::Ret { src: 1 },
                ],
            },
        );
        let mut mem = MemoryTracker::new();
        simulate_with_memory(&exec, "f", &[], &DeviceSpec::rtx4090(), true, &mut mem).unwrap();
        assert_eq!(mem.pool_footprint(), 16);
    }

    /// The frame of `f`'s instruction `pc`, which refused the run.
    fn refusing(exec: &Executable, pc: usize) -> FrameEntry {
        let instr = exec.funcs["f"].instrs[pc].to_string();
        FrameEntry {
            func: "f".into(),
            pc,
            instr,
        }
    }

    fn tiny_device(capacity: u64) -> DeviceSpec {
        DeviceSpec {
            memory_capacity: capacity,
            ..DeviceSpec::rtx4090()
        }
    }

    #[test]
    fn allocations_beyond_device_capacity_fail() {
        let exec = exec_with(
            vec![
                Instr::AllocTensor {
                    dst: 0,
                    shape: vec![64.into()],
                    dtype: DataType::F32,
                },
                Instr::MakeShape {
                    dst: 1,
                    dims: vec![],
                },
                Instr::Kill { reg: 0 },
                Instr::Ret { src: 1 },
            ],
            2,
        );
        let device = tiny_device(128); // 64 f32s need 256 bytes
        let mut mem = MemoryTracker::new();
        let err = simulate_with_memory(&exec, "f", &[], &device, true, &mut mem).unwrap_err();
        assert!(
            matches!(
                err.kind,
                VmErrorKind::StorageOverflow {
                    required: 256,
                    available: 128,
                }
            ),
            "{err}"
        );
        assert_eq!(err.trace, [refusing(&exec, 0)]);
        // The same workload fits a larger device.
        let device = tiny_device(1024);
        let mut mem = MemoryTracker::new();
        simulate_with_memory(&exec, "f", &[], &device, true, &mut mem).unwrap();
    }

    #[test]
    fn planned_storage_growth_is_capacity_checked() {
        let n = SymVar::new("n");
        let exec = exec_with(
            vec![
                Instr::MatchShape {
                    src: 0,
                    dims: vec![n.clone().into()],
                    ctx: "p".into(),
                },
                Instr::AllocStorage {
                    dst: 1,
                    bytes: relax_arith::PrimExpr::from(n) * 4.into(),
                },
                Instr::MakeShape {
                    dst: 2,
                    dims: vec![],
                },
                Instr::Ret { src: 2 },
            ],
            3,
        );
        let mut exec = exec;
        exec.funcs.get_mut("f").unwrap().num_params = 1;
        let device = tiny_device(100);
        let mut mem = MemoryTracker::new();
        // 8 * 4 = 32 bytes fits.
        simulate_with_memory(
            &exec,
            "f",
            &[SimValue::Shape(vec![8])],
            &device,
            true,
            &mut mem,
        )
        .unwrap();
        // Growing the same site to 64 * 4 = 256 bytes does not: only the
        // growth (256 - 32) is charged, but it still exceeds 100.
        let err = simulate_with_memory(
            &exec,
            "f",
            &[SimValue::Shape(vec![64])],
            &device,
            true,
            &mut mem,
        )
        .unwrap_err();
        assert!(
            matches!(
                err.kind,
                VmErrorKind::StorageOverflow {
                    required: 224,
                    available: 68,
                }
            ),
            "{err}"
        );
        assert_eq!(err.trace, [refusing(&exec, 1)]);
        // Re-running the small shape still works: the tracker was not
        // corrupted by the failure.
        simulate_with_memory(
            &exec,
            "f",
            &[SimValue::Shape(vec![8])],
            &device,
            true,
            &mut mem,
        )
        .unwrap();
    }
}

#[cfg(test)]
mod kv_cache_cost_tests {
    use super::*;
    use relax_vm::{Instr, VmFunction};

    fn kv_exec() -> Executable {
        // append slice → append slice on the cache passed in as reg 0,
        // with two (1,2,1,4) F32 token slices as regs 1 and 2.
        let append = |args: Vec<usize>, dst: usize| Instr::CallBuiltin {
            func: format!("{}append_paged", relax_vm::KV_CACHE_PREFIX),
            args,
            dst,
        };
        let mut exec = Executable::new();
        exec.funcs.insert(
            "f".into(),
            VmFunction {
                name: "f".into(),
                num_params: 3,
                num_regs: 6,
                instrs: vec![
                    Instr::MakeShape {
                        dst: 3,
                        dims: vec![0.into()],
                    },
                    append(vec![0, 1, 3], 4),
                    append(vec![4, 2, 3], 5),
                    Instr::Ret { src: 5 },
                ],
            },
        );
        exec
    }

    #[test]
    fn paged_append_charges_slice_not_cache() {
        let exec = kv_exec();
        let dev = DeviceSpec::rtx4090();
        let cache = SimValue::KvCache {
            streams: vec![0, 0],
            batch: 1,
            heads: 2,
            head_dim: 4,
            dtype: DataType::F32,
        };
        let slice = SimValue::tensor(vec![1, 2, 1, 4], DataType::F32);
        let report = simulate(&exec, "f", &[cache, slice.clone(), slice], &dev, true).unwrap();
        // First append: 2×32 B slice + one 8 B block-table entry. Second
        // append lands in the same page: 2×32 B only — independent of the
        // accumulated cache length.
        assert_eq!(report.kernels, 2);
        assert_eq!(report.bytes, 72.0 + 64.0);
    }

    #[test]
    fn copy_append_scales_with_cache_but_paged_does_not() {
        // The copy-based library kernel re-materializes the whole cache.
        let regs = vec![
            SimValue::tensor(vec![1, 2, 10, 4], DataType::F32), // old cache
            SimValue::tensor(vec![1, 2, 1, 4], DataType::F32),  // new slice
            SimValue::tensor(vec![1, 2, 11, 4], DataType::F32), // grown cache
        ];
        let (_, copy_bytes) = lib_cost("vm.builtin.kv_append", &[0, 1], &[2], &regs).unwrap();
        assert_eq!(copy_bytes, (80.0 + 8.0 + 88.0) * 4.0);

        // The paged builtin at the same cache length touches only the
        // appended slice (token 10 lands in the already-held first page).
        let cache = SimValue::KvCache {
            streams: vec![10, 10],
            batch: 1,
            heads: 2,
            head_dim: 4,
            dtype: DataType::F32,
        };
        let (_, paged_bytes, out) = kv_cache_builtin(
            "append_paged",
            &[cache, regs[1].clone(), SimValue::Shape(vec![0])],
        )
        .unwrap();
        assert_eq!(paged_bytes, 64.0);
        assert!(paged_bytes < copy_bytes);
        match out {
            SimValue::KvCache { streams, .. } => assert_eq!(streams, vec![11, 10]),
            other => panic!("expected kv cache, got {other:?}"),
        }
    }

    #[test]
    fn attention_cost_scales_with_stream_length() {
        let q = SimValue::tensor(vec![1, 2, 1, 4], DataType::F32);
        let cache = SimValue::KvCache {
            streams: vec![32, 32],
            batch: 1,
            heads: 2,
            head_dim: 4,
            dtype: DataType::F32,
        };
        let (flops, bytes, out) = kv_cache_builtin(
            "attention",
            &[q.clone(), cache, SimValue::Shape(vec![0, 1, 1])],
        )
        .unwrap();
        // QK^T + PV: 4 * b*hq*s*hd * skv = 4 * (1*2*1*4) * 32.
        assert_eq!(flops, 4.0 * 8.0 * 32.0);
        // q read+write plus both 32-token streams.
        assert_eq!(bytes, 2.0 * 32.0 + 2.0 * (32.0 * 8.0 * 4.0));
        assert_eq!(out, q);
    }
}
