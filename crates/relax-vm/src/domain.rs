//! The one instruction loop, generic over a value domain.
//!
//! [`Vm`](crate::Vm) runs it over runtime values, and `relax-sim`'s dry
//! run over shape-level ones, each monomorphised. The loop owns what the
//! two share: registers (a read or write out of range fails
//! `TypeMismatch`), the shape heap (`match_shape`, `eval_size`), the
//! [`Memory`] account (each register's pool block, the planned-storage
//! ledger, fallbacks), a storage's size check, tuples, shapes, calls, and
//! every error with its frame trace. A [`Domain`] supplies only what
//! differs: what a value is, what a launch does, which allocations it
//! admits and what entering a capture region means.

use std::collections::HashMap;

use relax_arith::{DataType, PrimExpr, Var as SymVar};
use relax_tir::{NDArray, PrimFunc};
use relax_trace::Payload;

use crate::exec::{Executable, Instr, Reg, VmFunction};
use crate::memory::Memory;
use crate::vm::{VmError, VmErrorKind};

/// A register value of a domain.
pub trait RegValue: Clone {
    /// An empty register.
    fn none() -> Self;
    /// A fresh tensor of `dims` and `dtype`.
    fn alloc(dims: &[usize], dtype: DataType) -> Self;
    /// A constant-pool tensor.
    fn constant(c: &NDArray) -> Self;
    /// A first-class shape.
    fn shape(dims: Vec<i64>) -> Self;
    /// A tuple.
    fn tuple(items: Vec<Self>) -> Self;
    /// A planned storage block.
    fn storage(id: u64, bytes: usize) -> Self;
    /// The value's kind for error messages: `"tensor"`, `"tuple"`, …
    fn kind(&self) -> &'static str;
    /// A tensor's dimensions or a shape's values: what `MatchShape` reads.
    fn dims(&self) -> Option<Vec<i64>>;
    /// A tuple's fields.
    fn items(&self) -> Option<&[Self]>;
    /// A shape's values.
    fn as_shape(&self) -> Option<&[i64]>;
    /// A storage block's bytes.
    fn bytes(&self) -> Option<usize>;
}

/// Where the VM and the dry run differ; [`run`] is everything else.
pub trait Domain {
    /// What a register holds.
    type Value: RegValue;

    /// Before a `MatchShape` of `dims` dimensions, labelled `ctx`.
    fn shape_check(&mut self, _ctx: &str, _dims: usize) -> Result<(), VmError> {
        Ok(())
    }

    /// The memory account the loop keeps, or `None` where this domain
    /// keeps none.
    fn memory(&mut self) -> Option<&mut Memory>;

    /// Admits an allocation of `bytes` into register `dst` of `func`: a
    /// pool block, or planned storage at `site`, which grows the account
    /// by what the site does not already hold. `true` accounts it, `false`
    /// leaves it out, an error refuses it.
    fn admit(
        &mut self,
        func: &VmFunction,
        dst: Reg,
        bytes: usize,
        site: Option<&(String, usize)>,
    ) -> Result<bool, VmError>;

    /// Launches tensor program `prim` (named `func`) on the tensors in
    /// `args` and `dsts`; `replay` inside a replayed capture region.
    fn call_tir(
        &mut self,
        func: &str,
        prim: &PrimFunc,
        regs: &[Self::Value],
        args: &[Reg],
        dsts: &[Reg],
        replay: bool,
    ) -> Result<(), VmError>;

    /// Launches library kernel `func` on the tensors in `args` and `dsts`.
    fn call_lib(
        &mut self,
        func: &str,
        regs: &[Self::Value],
        args: &[Reg],
        dsts: &[Reg],
        replay: bool,
    ) -> Result<(), VmError>;

    /// Runs builtin `func` on `args`; returns its result.
    fn call_builtin(
        &mut self,
        func: &str,
        args: &[Self::Value],
        replay: bool,
    ) -> Result<Self::Value, VmError>;

    /// Enters capture region `id` at `keys`; `true` when it replays.
    fn capture(&mut self, id: usize, keys: Vec<i64>) -> bool;
}

/// Runs `func` of `exec` on `args` over `domain`'s values.
///
/// # Errors
///
/// A rule of the loop or of the domain refused the run; the error's trace
/// names the refusing instruction and every call that reached it.
pub fn run<D: Domain>(
    exec: &Executable,
    domain: &mut D,
    func: &str,
    args: &[D::Value],
) -> Result<D::Value, VmError> {
    Machine { exec, domain }.call(func, args)
}

struct Machine<'e, 'd, D> {
    exec: &'e Executable,
    domain: &'d mut D,
}

/// One invocation's registers, shape heap and pool grants.
struct Frame<V> {
    regs: Vec<V>,
    heap: HashMap<SymVar, i64>,
    /// Pool block sizes granted to registers (returned on `Kill`, on a
    /// new grant to the register and on exit).
    granted: HashMap<Reg, usize>,
}

impl<'e, D: Domain> Machine<'e, '_, D> {
    fn call(&mut self, func: &str, args: &[D::Value]) -> Result<D::Value, VmError> {
        let vmf = self
            .exec
            .funcs
            .get(func)
            .ok_or_else(|| VmErrorKind::UnknownFunction(func.to_string()))?;
        let at_entry = |e: VmErrorKind| Err(VmError::from(e).at(func, 0, "<function entry>"));
        if args.len() != vmf.num_params {
            return at_entry(VmErrorKind::ArgCount {
                func: func.to_string(),
                expected: vmf.num_params,
                actual: args.len(),
            });
        }
        if vmf.num_params > vmf.num_regs {
            let want = "a frame with registers for every parameter";
            return at_entry(mismatch(want, "out-of-range register"));
        }
        let mut regs = vec![D::Value::none(); vmf.num_regs];
        regs[..args.len()].clone_from_slice(args);
        let mut frame = Frame {
            regs,
            heap: HashMap::new(),
            granted: HashMap::new(),
        };
        let result = self.block(vmf, &vmf.instrs, &mut frame, false);
        // Return the blocks this invocation still holds, on success and on
        // error alike: a failed run leaks no pool memory.
        for (_, size) in frame.granted.drain() {
            self.free(Some(size));
        }
        match result? {
            Some(v) => Ok(v),
            None => {
                let e = VmError::from(VmErrorKind::NoReturn(func.to_string()));
                Err(e.at(func, vmf.instrs.len(), "<end of function>"))
            }
        }
    }

    fn block(
        &mut self,
        vmf: &'e VmFunction,
        instrs: &'e [Instr],
        frame: &mut Frame<D::Value>,
        replay: bool,
    ) -> Result<Option<D::Value>, VmError> {
        for (idx, instr) in instrs.iter().enumerate() {
            let flow = self
                .step(vmf, idx, instr, frame, replay)
                .map_err(|e| e.at(&vmf.name, idx, &render_instr(instr)))?;
            if flow.is_some() {
                return Ok(flow);
            }
        }
        Ok(None)
    }

    /// Grants `dst` a pool block of `bytes`; the block it held goes back.
    fn grant(
        &mut self,
        vmf: &VmFunction,
        frame: &mut Frame<D::Value>,
        dst: Reg,
        bytes: usize,
    ) -> Result<(), VmError> {
        let admitted = self.domain.admit(vmf, dst, bytes, None)?;
        let account = self.domain.memory().filter(|_| admitted);
        let old = match account.map(|mem| mem.pool.alloc(bytes)) {
            Some(size) => frame.granted.insert(dst, size),
            None => frame.granted.remove(&dst),
        };
        self.free(old);
        Ok(())
    }

    /// Returns a granted block to the pool.
    fn free(&mut self, block: Option<usize>) {
        if let (Some(size), Some(mem)) = (block, self.domain.memory()) {
            mem.pool.free(size);
        }
    }

    fn step(
        &mut self,
        vmf: &'e VmFunction,
        idx: usize,
        instr: &'e Instr,
        frame: &mut Frame<D::Value>,
        replay: bool,
    ) -> Result<Option<D::Value>, VmError> {
        match instr {
            Instr::AllocTensor { dst, shape, dtype } => {
                let dims = eval_dims(shape, &frame.heap)?;
                self.grant(vmf, frame, *dst, tensor_bytes(&dims, *dtype)?)?;
                frame.set(*dst, D::Value::alloc(&dims, *dtype))?;
            }
            Instr::AllocStorage { dst, bytes } => {
                let size = eval_size(bytes, &frame.heap)?;
                let site = (vmf.name.clone(), idx);
                let admitted = self.domain.admit(vmf, *dst, size, Some(&site))?;
                let (id, bytes) = match self.domain.memory().filter(|_| admitted) {
                    Some(mem) => mem.planned.request(site, size),
                    None => (0, size),
                };
                frame.set(*dst, D::Value::storage(id, bytes))?;
            }
            Instr::TensorFromStorage {
                dst,
                storage,
                shape,
                dtype,
            } => {
                let storage = frame.get(*storage)?;
                let avail = storage
                    .bytes()
                    .ok_or_else(|| mismatch("storage", storage.kind()))?;
                let dims = eval_dims(shape, &frame.heap)?;
                let required = tensor_bytes(&dims, *dtype)?;
                if required > avail {
                    // Graceful degradation (§4.3): the runtime shape
                    // exceeded its declared upper bound. Instead of
                    // failing the run, take the tensor from the pool — the
                    // unplanned path.
                    self.grant(vmf, frame, *dst, required)?;
                    if let Some(mem) = self.domain.memory() {
                        mem.fallbacks += 1;
                        let name = || "alloc_fallback".to_string();
                        relax_trace::instant("vm", name, || Payload::None);
                    }
                }
                frame.set(*dst, D::Value::alloc(&dims, *dtype))?;
            }
            Instr::Kill { reg } => {
                self.free(frame.granted.remove(reg));
                frame.set(*reg, D::Value::none())?;
            }
            Instr::CallTir {
                func, args, dsts, ..
            } => {
                let prim = self
                    .exec
                    .tir_funcs
                    .get(func)
                    .ok_or_else(|| VmErrorKind::UnknownTir(func.clone()))?;
                frame.check_tensors(args.iter().chain(dsts))?;
                self.domain
                    .call_tir(func, prim, &frame.regs, args, dsts, replay)?;
            }
            Instr::CallLib { func, args, dsts } => {
                frame.check_tensors(args.iter().chain(dsts))?;
                self.domain
                    .call_lib(func, &frame.regs, args, dsts, replay)?;
            }
            Instr::CallBuiltin { func, args, dst } => {
                let out = self
                    .domain
                    .call_builtin(func, &frame.values(args)?, replay)?;
                frame.set(*dst, out)?;
            }
            Instr::CallFunc { func, args, dst } => {
                let out = self.call(func, &frame.values(args)?)?;
                frame.set(*dst, out)?;
            }
            Instr::MatchShape { src, dims, ctx } => {
                let src = frame.get(*src)?;
                let actual = src
                    .dims()
                    .ok_or_else(|| mismatch("tensor or shape", src.kind()))?;
                self.domain.shape_check(ctx, dims.len())?;
                match_shape(&actual, dims, ctx, &mut frame.heap)?;
            }
            Instr::LoadConst { dst, index } => {
                let c = self.exec.constants.get(*index).ok_or_else(|| {
                    mismatch("a constant-pool entry", "out-of-range constant index")
                })?;
                frame.set(*dst, D::Value::constant(c))?;
            }
            Instr::MakeTuple { dst, items } => {
                let items = frame.values(items)?;
                frame.set(*dst, D::Value::tuple(items))?;
            }
            Instr::GetItem { dst, src, index } => {
                let src = frame.get(*src)?;
                let items = src.items().ok_or_else(|| mismatch("tuple", src.kind()))?;
                let item = items.get(*index).cloned().ok_or_else(|| {
                    mismatch("a tuple index in range", "out-of-range tuple index")
                })?;
                frame.set(*dst, item)?;
            }
            Instr::MakeShape { dst, dims } => {
                let dims = eval_all(dims, &frame.heap)?;
                frame.set(*dst, D::Value::shape(dims))?;
            }
            Instr::CaptureRegion { id, keys, body } => {
                let replaying = self.domain.capture(*id, eval_all(keys, &frame.heap)?);
                if let Some(v) = self.block(vmf, body, frame, replaying)? {
                    return Ok(Some(v));
                }
            }
            Instr::Ret { src } => return Ok(Some(frame.get(*src)?.clone())),
        }
        Ok(None)
    }
}

impl<V: RegValue> Frame<V> {
    fn get(&self, reg: Reg) -> Result<&V, VmErrorKind> {
        self.regs.get(reg).ok_or_else(out_of_range)
    }

    fn set(&mut self, reg: Reg, v: V) -> Result<(), VmErrorKind> {
        *self.regs.get_mut(reg).ok_or_else(out_of_range)? = v;
        Ok(())
    }

    /// The values in `regs`, in order.
    fn values(&self, regs: &[Reg]) -> Result<Vec<V>, VmErrorKind> {
        regs.iter().map(|r| self.get(*r).cloned()).collect()
    }

    /// Fails unless every register in `regs` holds a tensor.
    fn check_tensors<'r>(&self, regs: impl Iterator<Item = &'r Reg>) -> Result<(), VmErrorKind> {
        for reg in regs {
            match self.get(*reg)?.kind() {
                "tensor" => {}
                other => return Err(mismatch("tensor", other)),
            }
        }
        Ok(())
    }
}

/// A register of the wrong kind, or none at all.
pub(crate) fn mismatch(expected: &'static str, actual: &'static str) -> VmErrorKind {
    VmErrorKind::TypeMismatch { expected, actual }
}

fn out_of_range() -> VmErrorKind {
    mismatch("a value in a frame register", "out-of-range register")
}

/// `MatchShape`'s rule: a variable not yet in `heap` binds to its runtime
/// value; any other dimension must evaluate to it.
fn match_shape(
    actual: &[i64],
    dims: &[PrimExpr],
    ctx: &str,
    heap: &mut HashMap<SymVar, i64>,
) -> Result<(), VmErrorKind> {
    let mismatch = |detail| VmErrorKind::ShapeCheck {
        ctx: ctx.to_string(),
        detail,
    };
    if actual.len() != dims.len() {
        let (want, got) = (dims.len(), actual.len());
        let detail = format!("rank mismatch: expected {want}, got {got}");
        return Err(mismatch(detail));
    }
    for (expr, &actual) in dims.iter().zip(actual) {
        match expr {
            PrimExpr::Var(v) if !heap.contains_key(v) => {
                heap.insert(v.clone(), actual);
            }
            e => {
                let expected = e.eval(heap).map_err(VmErrorKind::Eval)?;
                if expected != actual {
                    let detail = format!("dimension `{e}` = {expected}, runtime value {actual}");
                    return Err(mismatch(detail));
                }
            }
        }
    }
    Ok(())
}

/// An allocation size (a tensor dimension or a storage's byte count): an
/// unbound variable fails `Eval`, a negative size `ShapeCheck` naming the
/// expression. (`MakeShape` values are values, not sizes, and keep their
/// sign.)
fn eval_size(expr: &PrimExpr, heap: &HashMap<SymVar, i64>) -> Result<usize, VmErrorKind> {
    let size = expr.eval(heap).map_err(VmErrorKind::Eval)?;
    usize::try_from(size).map_err(|_| VmErrorKind::ShapeCheck {
        ctx: "allocation".to_string(),
        detail: format!("size `{expr}` = {size} is negative"),
    })
}

fn eval_dims(shape: &[PrimExpr], heap: &HashMap<SymVar, i64>) -> Result<Vec<usize>, VmErrorKind> {
    shape.iter().map(|d| eval_size(d, heap)).collect()
}

fn eval_all(exprs: &[PrimExpr], heap: &HashMap<SymVar, i64>) -> Result<Vec<i64>, VmErrorKind> {
    let vals: Result<Vec<i64>, _> = exprs.iter().map(|e| e.eval(heap)).collect();
    vals.map_err(VmErrorKind::Eval)
}

/// Byte size of a tensor, with overflow-checked arithmetic: adversarial
/// shapes whose element count times element size exceeds `usize` must
/// surface as a [`VmErrorKind::StorageOverflow`], not a debug panic or a
/// release-mode wraparound that under-allocates. The dry run sizes its
/// costs by the same rule.
pub fn tensor_bytes(dims: &[usize], dtype: DataType) -> Result<usize, VmErrorKind> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .and_then(|n| n.checked_mul(dtype.size_bytes()))
        .ok_or(VmErrorKind::StorageOverflow {
            required: usize::MAX,
            available: 0,
        })
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
