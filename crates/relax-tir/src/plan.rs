//! Shape-specialized kernel plans: compiled tensor programs.
//!
//! The reference interpreter ([`crate::interp`]) re-walks the `Stmt` /
//! [`TirExpr`] tree and re-evaluates symbolic [`PrimExpr`] indices against a
//! `HashMap` environment on every element of every launch. This module
//! performs that work **once per concrete shape**: [`compile`] lowers a
//! [`PrimFunc`] plus a concrete shape binding into a flat, allocation-free
//! [`KernelPlan`] —
//!
//! - loops with precomputed extents (affine in the enclosing loop counters),
//! - buffer accesses reduced to a single base-offset + stride affine form
//!   when the indices are affine and provably in bounds (non-affine or
//!   unprovable indices fall back to a per-dimension checked slot),
//! - scalar expression trees flattened into a register-style op tape
//!   (`Select` compiles to conditional jumps, preserving the interpreter's
//!   lazy evaluation),
//! - `Alloc` scratch buffers preallocated per launch and re-zeroed at the
//!   allocation point,
//! - innermost loops of elementwise float stores run as **rows**
//!   (`Compiler::try_row`, on every plan): access bases and strides are
//!   evaluated once per row and each tape op runs over the whole row,
//!   not one tape walk per element ([`KernelPlan::scalar_stores`] counts
//!   the stores left on the tape).
//!
//! A plan is bit-identical to the interpreter by construction (the tape
//! reuses the interpreter's [`Scalar`] promotion rules). Anything the
//! planner cannot express returns [`PlanError::Unsupported`]; there is no
//! fallback, so the VM fails that launch with a typed error. The
//! interpreter is the oracle plans are tested against.
//!
//! [`KernelPlan::run`] executes the plan on the thread that launches it.
//! Parallelism comes from the layer above — a serving core runs one step
//! per worker, each on its own VM — not from inside a kernel.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use relax_arith::{DataType, EvalError, PrimExpr, Var};

use crate::expr::{Scalar, TirExpr};
use crate::func::PrimFunc;
use crate::interp::{self, InterpError};
use crate::ndarray::{round_to_dtype, DataBuf, NDArray};
use crate::stmt::Stmt;

/// Error raised while compiling a kernel plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The function uses a construct the planner does not model; the
    /// kernel cannot run as a plan, and callers report it as an error.
    Unsupported(String),
    /// Binding the concrete shapes against the declared symbolic shapes
    /// failed — the interpreter would fail identically, so callers should
    /// surface this error as-is.
    Interp(InterpError),
}

impl PlanError {
    fn unsupported(reason: impl Into<String>) -> PlanError {
        PlanError::Unsupported(reason.into())
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unsupported(r) => write!(f, "kernel not plannable: {r}"),
            PlanError::Interp(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

// ---------------------------------------------------------------------------
// Index expressions
// ---------------------------------------------------------------------------

/// An affine combination of loop counters: `base + Σ coeff·iter[slot]`.
///
/// Terms are sorted by slot, merged, and non-zero, so the representation is
/// canonical. Arithmetic wraps exactly like [`PrimExpr::eval`].
#[derive(Debug, Clone, PartialEq)]
struct Affine {
    base: i64,
    terms: Vec<(usize, i64)>,
}

impl Affine {
    fn constant(base: i64) -> Affine {
        Affine {
            base,
            terms: Vec::new(),
        }
    }

    fn iter(slot: usize) -> Affine {
        Affine {
            base: 0,
            terms: vec![(slot, 1)],
        }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.base)
    }

    /// `self + k·other`, merging duplicate terms.
    fn add_scaled(&self, other: &Affine, k: i64) -> Affine {
        let mut terms = self.terms.clone();
        for &(slot, coeff) in &other.terms {
            let kc = coeff.wrapping_mul(k);
            if let Some(t) = terms.iter_mut().find(|t| t.0 == slot) {
                t.1 = t.1.wrapping_add(kc);
            } else {
                terms.push((slot, kc));
            }
        }
        terms.retain(|t| t.1 != 0);
        terms.sort_unstable_by_key(|t| t.0);
        Affine {
            base: self.base.wrapping_add(other.base.wrapping_mul(k)),
            terms,
        }
    }

    fn scale(&self, k: i64) -> Affine {
        Affine::constant(0).add_scaled(self, k)
    }

    fn coeff(&self, slot: usize) -> i64 {
        self.terms
            .iter()
            .find(|t| t.0 == slot)
            .map(|t| t.1)
            .unwrap_or(0)
    }

    /// The affine with the `slot` term removed.
    fn without(&self, slot: usize) -> Affine {
        Affine {
            base: self.base,
            terms: self
                .terms
                .iter()
                .copied()
                .filter(|t| t.0 != slot)
                .collect(),
        }
    }

    fn eval(&self, iters: &[i64]) -> i64 {
        let mut v = self.base;
        for &(slot, coeff) in &self.terms {
            v = v.wrapping_add(coeff.wrapping_mul(iters[slot]));
        }
        v
    }

    /// Conservative `[min, max]` over iteration spaces `0..iter_max[slot]`,
    /// or `None` if an extent is unknown or the bound overflows (in which
    /// case the caller keeps runtime checks).
    fn range(&self, iter_max: &[Option<i64>]) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (self.base, self.base);
        for &(slot, coeff) in &self.terms {
            let m = (*iter_max.get(slot)?)?;
            let top = coeff.checked_mul((m - 1).max(0))?;
            if coeff >= 0 {
                hi = hi.checked_add(top)?;
            } else {
                lo = lo.checked_add(top)?;
            }
        }
        Some((lo, hi))
    }
}

/// A lowered index expression: affine fast path, or a residual tree for
/// non-affine arithmetic (`//`, `%`, `min`, `max` over loop counters),
/// evaluated with exactly the semantics of [`PrimExpr::eval`] but against a
/// flat counter array instead of a hash map.
#[derive(Debug, Clone)]
enum IdxExpr {
    Aff(Affine),
    Add(Box<IdxExpr>, Box<IdxExpr>),
    Sub(Box<IdxExpr>, Box<IdxExpr>),
    Mul(Box<IdxExpr>, Box<IdxExpr>),
    FloorDiv(Box<IdxExpr>, Box<IdxExpr>),
    FloorMod(Box<IdxExpr>, Box<IdxExpr>),
    Min(Box<IdxExpr>, Box<IdxExpr>),
    Max(Box<IdxExpr>, Box<IdxExpr>),
}

impl IdxExpr {
    fn as_affine(&self) -> Option<&Affine> {
        match self {
            IdxExpr::Aff(a) => Some(a),
            _ => None,
        }
    }

    fn eval(&self, iters: &[i64]) -> Result<i64, EvalError> {
        Ok(match self {
            IdxExpr::Aff(a) => a.eval(iters),
            IdxExpr::Add(a, b) => a.eval(iters)?.wrapping_add(b.eval(iters)?),
            IdxExpr::Sub(a, b) => a.eval(iters)?.wrapping_sub(b.eval(iters)?),
            IdxExpr::Mul(a, b) => a.eval(iters)?.wrapping_mul(b.eval(iters)?),
            IdxExpr::FloorDiv(a, b) => {
                let (a, b) = (a.eval(iters)?, b.eval(iters)?);
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.div_euclid(b)
            }
            IdxExpr::FloorMod(a, b) => {
                let (a, b) = (a.eval(iters)?, b.eval(iters)?);
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.rem_euclid(b)
            }
            IdxExpr::Min(a, b) => a.eval(iters)?.min(b.eval(iters)?),
            IdxExpr::Max(a, b) => a.eval(iters)?.max(b.eval(iters)?),
        })
    }
}

// ---------------------------------------------------------------------------
// Buffer accesses
// ---------------------------------------------------------------------------

/// A lowered buffer access.
#[derive(Debug, Clone)]
enum Access {
    /// Every index was affine and provably in bounds: a single flat
    /// row-major offset, no runtime checks.
    Flat(Affine),
    /// Per-dimension expressions with the interpreter's negative-index and
    /// bounds checks applied at run time.
    Checked(Vec<IdxExpr>),
}

// ---------------------------------------------------------------------------
// The scalar op tape
// ---------------------------------------------------------------------------

type Reg = u16;

/// One op of the flattened scalar expression tape. `dst` is the register
/// written (ignored by jumps).
#[derive(Debug, Clone)]
struct TapeOp {
    dst: Reg,
    op: Op,
}

#[derive(Debug, Clone)]
enum Op {
    ConstF(f64),
    ConstI(i64),
    Idx(IdxExpr),
    Load { buf: usize, access: Access },
    LoadDyn { buf: usize, idx_regs: Vec<Reg> },
    Add(Reg, Reg),
    Sub(Reg, Reg),
    Mul(Reg, Reg),
    Div(Reg, Reg),
    Max(Reg, Reg),
    Min(Reg, Reg),
    Shr(Reg, Reg),
    BitAnd(Reg, Reg),
    Exp(Reg),
    Sqrt(Reg),
    Tanh(Reg),
    Sigmoid(Reg),
    Neg(Reg),
    CastF(Reg),
    CastI(Reg),
    IdxEq(IdxExpr, IdxExpr),
    IdxLe(IdxExpr, IdxExpr),
    Copy(Reg),
    Jump(usize),
    JumpIfZero(Reg, usize),
}

// ---------------------------------------------------------------------------
// Plan statements and the plan itself
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PStmt {
    Loop {
        iter: usize,
        extent: IdxExpr,
        body: Vec<PStmt>,
    },
    IfEq {
        lhs: IdxExpr,
        rhs: IdxExpr,
        then: Vec<PStmt>,
    },
    Store {
        tape: Vec<TapeOp>,
        result: Reg,
        buf: usize,
        access: Access,
        /// The *declared* dtype of the destination buffer — store values
        /// are cast to its representation class before rounding to the
        /// actual array dtype, mirroring the interpreter.
        dtype: DataType,
    },
    /// Re-zeroes a scratch buffer (emitted at each `Alloc` point).
    ZeroScratch { buf: usize },
    /// An innermost loop run a **row** at a time: `body` holds only
    /// `Store`s that [`Compiler::try_row`] proved element-order
    /// independent. A launch that breaks the proof (aliased arguments,
    /// an integer view, a read-only output) runs `body` as the plain
    /// loop.
    Row {
        iter: usize,
        extent: IdxExpr,
        body: Vec<PStmt>,
    },
    /// A cache-blocked matmul **superinstruction**: an entire
    /// `for j { for k { if k == 0 { Y = c }; Y = Y + X·W } }` reduction
    /// nest collapsed into one plan entry. Recognition (schedule-gated,
    /// see [`Compiler::try_macro`]) proves the nest is the canonical dot
    /// pattern over flat, in-bounds affine accesses; execution then runs
    /// a register-blocked loop (`k` outer over blocks of `j`) that keeps
    /// accumulators out of memory while preserving the scalar tape's
    /// exact per-cell rounding sequence — every partial sum is rounded
    /// to the destination dtype after each multiply-accumulate, exactly
    /// as the tape's store/load round-trip does, so results are bitwise
    /// identical.
    MacroMatmul {
        /// Iter slots of the consumed spatial (`j`) and reduction (`k`)
        /// loops; the executor pins them to zero to evaluate bases.
        j_iter: usize,
        k_iter: usize,
        /// Concrete trip counts (both `>= 1`).
        nj: i64,
        nk: i64,
        /// Output / accumulator access (`coeff(k) == 0`).
        y_buf: usize,
        y: Affine,
        /// Stationary operand (`coeff(j) == 0`), hoisted out of the
        /// block loop.
        x_buf: usize,
        x: Affine,
        /// Moving operand.
        w_buf: usize,
        w: Affine,
        /// `true` when the stationary operand is the *first* multiply
        /// operand in the source tape — preserved because NaN payload
        /// propagation is the one place f64 multiplication is sensitive
        /// to operand order.
        x_first: bool,
        /// Reduction init constant (the `if k == 0` store value).
        init: f64,
        /// The original scalar loop nest, executed verbatim when a
        /// storage binding breaks the blocked fast path (integer views,
        /// read-only output) so errors and integer semantics are
        /// reproduced exactly.
        fallback: Box<PStmt>,
    },
}

/// A buffer slot in the plan: a parameter or a scratch allocation, with
/// fully concrete dimensions.
#[derive(Debug, Clone)]
struct BufDecl {
    dims: Vec<usize>,
    numel: usize,
    dtype: DataType,
    /// `Some(i)` for the i-th parameter; `None` for scratch.
    param: Option<usize>,
}

/// A compiled, shape-specialized tensor program. Fully owned (no
/// `Rc`-backed IR nodes inside), hence `Send + Sync`: a plan cache shares
/// one behind an `Arc` across VMs.
#[derive(Debug)]
pub struct KernelPlan {
    body: Vec<PStmt>,
    bufs: Vec<BufDecl>,
    written: Vec<bool>,
    num_params: usize,
    num_iters: usize,
    num_regs: usize,
    /// `true` when the body contains at least one macro-op
    /// superinstruction.
    has_macros: bool,
    /// Stores outside every row and macro-op.
    scalar_stores: usize,
    /// The pre-macroization scalar body, kept only when macroization or
    /// sibling fusion rewrote the plan. Macro recognition proves
    /// operand/output **slots** distinct, but launch-time argument
    /// aliasing can still make them share storage, where the blocked
    /// loop order and fused statement order become observable — aliased
    /// launches run this body instead (and run rows element by element).
    scalar_body: Option<Vec<PStmt>>,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Lowers `func` with the given concrete argument shapes into a
/// [`KernelPlan`].
///
/// # Errors
///
/// [`PlanError::Interp`] if the shapes contradict the declared symbolic
/// shapes (the interpreter would fail identically);
/// [`PlanError::Unsupported`] if the function uses constructs the planner
/// does not model.
pub fn compile(func: &PrimFunc, shapes: &[Vec<usize>]) -> Result<KernelPlan, PlanError> {
    let mut env = HashMap::new();
    interp::bind_shapes_dims(func.params(), shapes, &mut env).map_err(PlanError::Interp)?;

    let mut c = Compiler {
        env,
        bufs: Vec::new(),
        buf_slot: HashMap::new(),
        written: Vec::new(),
        iter_max: Vec::new(),
        iter_slot: HashMap::new(),
        num_regs: 0,
    };
    for (i, p) in func.params().iter().enumerate() {
        let dims = shapes[i].clone();
        let numel = checked_numel(&dims)?;
        let slot = c.bufs.len();
        if c.buf_slot.insert(p.id(), slot).is_some() {
            return Err(PlanError::unsupported("duplicate parameter buffer"));
        }
        c.bufs.push(BufDecl {
            dims,
            numel,
            dtype: p.dtype(),
            param: Some(i),
        });
        c.written.push(false);
    }

    let mut body = Vec::new();
    c.lower_stmt(func.body(), &mut body)?;

    // Schedule-gated superinstruction recognition: functions opted in via
    // the `relax.schedule` attribute (manually through
    // `crate::schedule::Schedule::into_func` or by the pipeline's
    // auto-scheduler) get the blocked matmul macro-op plus row-level
    // sibling fusion of elementwise epilogues into the macro loop.
    let mut scalar_body = None;
    let mut has_macros = false;
    if func.attr("relax.schedule").is_some() {
        let original = body.clone();
        let mut changed = c.macroize_stmts(&mut body);
        changed |= c.fuse_rows(&mut body);
        has_macros = contains_macro(&body);
        if changed {
            scalar_body = Some(original);
        }
    }
    // Rows come last and on every plan, so fused epilogue loops become
    // rows too.
    c.rowize(&mut body);

    Ok(KernelPlan {
        scalar_stores: scalar_stores(&body),
        body,
        num_params: func.params().len(),
        num_iters: c.iter_max.len(),
        num_regs: c.num_regs,
        bufs: c.bufs,
        written: c.written,
        has_macros,
        scalar_body,
    })
}

struct Compiler {
    /// Concrete bindings of the shape variables.
    env: HashMap<Var, i64>,
    bufs: Vec<BufDecl>,
    buf_slot: HashMap<u64, usize>,
    written: Vec<bool>,
    /// Conservative max trip count per iter slot (`None` = unknown).
    iter_max: Vec<Option<i64>>,
    /// Active loop variables.
    iter_slot: HashMap<Var, usize>,
    num_regs: usize,
}

impl Compiler {
    fn lower_stmt(&mut self, s: &Stmt, out: &mut Vec<PStmt>) -> Result<(), PlanError> {
        match s {
            Stmt::For { var, extent, body } => {
                let ext = self.lower_prim(extent)?;
                let max = match &ext {
                    IdxExpr::Aff(a) => a.range(&self.iter_max).map(|(_, hi)| hi),
                    _ => None,
                };
                let slot = self.iter_max.len();
                self.iter_max.push(max);
                if self.iter_slot.insert(var.clone(), slot).is_some() {
                    return Err(PlanError::unsupported("shadowed loop variable"));
                }
                let mut inner = Vec::new();
                let r = self.lower_stmt(body, &mut inner);
                self.iter_slot.remove(var);
                r?;
                out.push(PStmt::Loop {
                    iter: slot,
                    extent: ext,
                    body: inner,
                });
                Ok(())
            }
            Stmt::Seq(stmts) => {
                for s in stmts {
                    self.lower_stmt(s, out)?;
                }
                Ok(())
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                let mut tape = Vec::new();
                let mut next: Reg = 0;
                let result = self.compile_expr(value, &mut tape, &mut next)?;
                let buf = *self
                    .buf_slot
                    .get(&buffer.id())
                    .ok_or_else(|| PlanError::unsupported("store to unbound buffer"))?;
                let access = self.lower_access(buf, indices)?;
                self.written[buf] = true;
                self.num_regs = self.num_regs.max(next as usize);
                out.push(PStmt::Store {
                    tape,
                    result,
                    buf,
                    access,
                    dtype: buffer.dtype(),
                });
                Ok(())
            }
            Stmt::IfEq { lhs, rhs, then } => {
                let lhs = self.lower_prim(lhs)?;
                let rhs = self.lower_prim(rhs)?;
                let mut inner = Vec::new();
                self.lower_stmt(then, &mut inner)?;
                out.push(PStmt::IfEq {
                    lhs,
                    rhs,
                    then: inner,
                });
                Ok(())
            }
            Stmt::Alloc { buffer, body } => {
                let mut dims = Vec::with_capacity(buffer.ndim());
                for d in buffer.shape() {
                    let v = self
                        .lower_prim(d)?
                        .as_affine()
                        .and_then(Affine::as_const)
                        .ok_or_else(|| {
                            PlanError::unsupported("scratch extent not a compile-time constant")
                        })?;
                    if v < 0 {
                        return Err(PlanError::unsupported("negative scratch extent"));
                    }
                    dims.push(v as usize);
                }
                let numel = checked_numel(&dims)?;
                let slot = self.bufs.len();
                if self.buf_slot.insert(buffer.id(), slot).is_some() {
                    return Err(PlanError::unsupported("shadowed scratch buffer"));
                }
                self.bufs.push(BufDecl {
                    dims,
                    numel,
                    dtype: buffer.dtype(),
                    param: None,
                });
                self.written.push(true);
                out.push(PStmt::ZeroScratch { buf: slot });
                let r = self.lower_stmt(body, out);
                self.buf_slot.remove(&buffer.id());
                r
            }
            Stmt::Evaluate => Ok(()),
        }
    }

    fn lower_prim(&self, e: &PrimExpr) -> Result<IdxExpr, PlanError> {
        use IdxExpr::*;
        Ok(match e {
            PrimExpr::Var(v) => {
                if let Some(&c) = self.env.get(v) {
                    Aff(Affine::constant(c))
                } else if let Some(&s) = self.iter_slot.get(v) {
                    Aff(Affine::iter(s))
                } else {
                    return Err(PlanError::unsupported(format!(
                        "unbound symbolic variable `{}` in index",
                        v.name()
                    )));
                }
            }
            PrimExpr::Int(v) => Aff(Affine::constant(*v)),
            PrimExpr::Add(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (a.as_affine(), b.as_affine()) {
                    (Some(x), Some(y)) => Aff(x.add_scaled(y, 1)),
                    _ => Add(Box::new(a), Box::new(b)),
                }
            }
            PrimExpr::Sub(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (a.as_affine(), b.as_affine()) {
                    (Some(x), Some(y)) => Aff(x.add_scaled(y, -1)),
                    _ => Sub(Box::new(a), Box::new(b)),
                }
            }
            PrimExpr::Mul(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (a.as_affine(), b.as_affine()) {
                    (Some(x), Some(y)) => {
                        if let Some(k) = y.as_const() {
                            Aff(x.scale(k))
                        } else if let Some(k) = x.as_const() {
                            Aff(y.scale(k))
                        } else {
                            Mul(Box::new(a), Box::new(b))
                        }
                    }
                    _ => Mul(Box::new(a), Box::new(b)),
                }
            }
            PrimExpr::FloorDiv(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (const_of(&a), const_of(&b)) {
                    (Some(x), Some(y)) if y != 0 => Aff(Affine::constant(x.div_euclid(y))),
                    _ => FloorDiv(Box::new(a), Box::new(b)),
                }
            }
            PrimExpr::FloorMod(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (const_of(&a), const_of(&b)) {
                    (Some(x), Some(y)) if y != 0 => Aff(Affine::constant(x.rem_euclid(y))),
                    _ => FloorMod(Box::new(a), Box::new(b)),
                }
            }
            PrimExpr::Min(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (const_of(&a), const_of(&b)) {
                    (Some(x), Some(y)) => Aff(Affine::constant(x.min(y))),
                    _ => Min(Box::new(a), Box::new(b)),
                }
            }
            PrimExpr::Max(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                match (const_of(&a), const_of(&b)) {
                    (Some(x), Some(y)) => Aff(Affine::constant(x.max(y))),
                    _ => Max(Box::new(a), Box::new(b)),
                }
            }
        })
    }

    /// Lowers a multi-dimensional access into [`Access`]: the flat affine
    /// fast path requires every dimension affine *and* provably in bounds
    /// (the interpreter checks every dimension, so collapsing to a flat
    /// offset is only sound once the checks are proven redundant).
    fn lower_access(&self, buf: usize, indices: &[PrimExpr]) -> Result<Access, PlanError> {
        let decl = &self.bufs[buf];
        if indices.len() != decl.dims.len() {
            return Err(PlanError::unsupported("access rank mismatch"));
        }
        let lowered: Vec<IdxExpr> = indices
            .iter()
            .map(|e| self.lower_prim(e))
            .collect::<Result<_, _>>()?;
        // Under a loop that never runs (an empty expert's rows) no access is made.
        let never = self
            .iter_slot
            .values()
            .any(|&s| self.iter_max[s].is_some_and(|m| m <= 0));
        let mut flat = Affine::constant(0);
        let mut provable = true;
        for (idx, &extent) in lowered.iter().zip(&decl.dims) {
            let Some(aff) = idx.as_affine() else {
                provable = false;
                break;
            };
            let in_bounds = never
                || aff
                    .range(&self.iter_max)
                    .is_some_and(|(lo, hi)| lo >= 0 && hi < extent as i64);
            if !in_bounds {
                provable = false;
                break;
            }
            flat = flat.scale(extent as i64).add_scaled(aff, 1);
        }
        if provable {
            Ok(Access::Flat(flat))
        } else {
            Ok(Access::Checked(lowered))
        }
    }

    fn compile_expr(
        &self,
        e: &TirExpr,
        tape: &mut Vec<TapeOp>,
        next: &mut Reg,
    ) -> Result<Reg, PlanError> {
        let alloc = |next: &mut Reg| -> Result<Reg, PlanError> {
            let r = *next;
            *next = next
                .checked_add(1)
                .ok_or_else(|| PlanError::unsupported("expression too large"))?;
            Ok(r)
        };
        let emit = |tape: &mut Vec<TapeOp>, next: &mut Reg, op: Op| -> Result<Reg, PlanError> {
            let dst = alloc(next)?;
            tape.push(TapeOp { dst, op });
            Ok(dst)
        };
        Ok(match e {
            TirExpr::FloatImm(v) => emit(tape, next, Op::ConstF(*v))?,
            TirExpr::IntImm(v) => emit(tape, next, Op::ConstI(*v))?,
            TirExpr::Index(p) => {
                let idx = self.lower_prim(p)?;
                emit(tape, next, Op::Idx(idx))?
            }
            TirExpr::Load(buffer, indices) => {
                let buf = *self
                    .buf_slot
                    .get(&buffer.id())
                    .ok_or_else(|| PlanError::unsupported("load from unbound buffer"))?;
                let access = self.lower_access(buf, indices)?;
                emit(tape, next, Op::Load { buf, access })?
            }
            TirExpr::LoadDyn(buffer, indices) => {
                let buf = *self
                    .buf_slot
                    .get(&buffer.id())
                    .ok_or_else(|| PlanError::unsupported("load from unbound buffer"))?;
                if indices.len() != self.bufs[buf].dims.len() {
                    return Err(PlanError::unsupported("dynamic access rank mismatch"));
                }
                let mut idx_regs = Vec::with_capacity(indices.len());
                for idx in indices {
                    idx_regs.push(self.compile_expr(idx, tape, next)?);
                }
                emit(tape, next, Op::LoadDyn { buf, idx_regs })?
            }
            TirExpr::Add(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Add(ra, rb))?
            }
            TirExpr::Sub(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Sub(ra, rb))?
            }
            TirExpr::Mul(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Mul(ra, rb))?
            }
            TirExpr::Div(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Div(ra, rb))?
            }
            TirExpr::Max(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Max(ra, rb))?
            }
            TirExpr::Min(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Min(ra, rb))?
            }
            TirExpr::Shr(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::Shr(ra, rb))?
            }
            TirExpr::BitAnd(a, b) => {
                let (ra, rb) = (
                    self.compile_expr(a, tape, next)?,
                    self.compile_expr(b, tape, next)?,
                );
                emit(tape, next, Op::BitAnd(ra, rb))?
            }
            TirExpr::Exp(a) => {
                let r = self.compile_expr(a, tape, next)?;
                emit(tape, next, Op::Exp(r))?
            }
            TirExpr::Sqrt(a) => {
                let r = self.compile_expr(a, tape, next)?;
                emit(tape, next, Op::Sqrt(r))?
            }
            TirExpr::Tanh(a) => {
                let r = self.compile_expr(a, tape, next)?;
                emit(tape, next, Op::Tanh(r))?
            }
            TirExpr::Sigmoid(a) => {
                let r = self.compile_expr(a, tape, next)?;
                emit(tape, next, Op::Sigmoid(r))?
            }
            TirExpr::Neg(a) => {
                let r = self.compile_expr(a, tape, next)?;
                emit(tape, next, Op::Neg(r))?
            }
            TirExpr::Cast(dt, a) => {
                let r = self.compile_expr(a, tape, next)?;
                let op = if dt.is_float() {
                    Op::CastF(r)
                } else {
                    Op::CastI(r)
                };
                emit(tape, next, op)?
            }
            TirExpr::IndexEq(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                emit(tape, next, Op::IdxEq(a, b))?
            }
            TirExpr::IndexLe(a, b) => {
                let (a, b) = (self.lower_prim(a)?, self.lower_prim(b)?);
                emit(tape, next, Op::IdxLe(a, b))?
            }
            // `Select` keeps the interpreter's lazy evaluation: only the
            // taken branch executes, so branch-local errors (e.g. division
            // by zero) surface identically.
            TirExpr::Select(c, t, e) => {
                let rc = self.compile_expr(c, tape, next)?;
                let dst = alloc(next)?;
                let jz = tape.len();
                tape.push(TapeOp {
                    dst: 0,
                    op: Op::JumpIfZero(rc, 0),
                });
                let rt = self.compile_expr(t, tape, next)?;
                tape.push(TapeOp {
                    dst,
                    op: Op::Copy(rt),
                });
                let jend = tape.len();
                tape.push(TapeOp {
                    dst: 0,
                    op: Op::Jump(0),
                });
                let else_at = tape.len();
                if let Op::JumpIfZero(_, t) = &mut tape[jz].op {
                    *t = else_at;
                }
                let re = self.compile_expr(e, tape, next)?;
                tape.push(TapeOp {
                    dst,
                    op: Op::Copy(re),
                });
                let end_at = tape.len();
                if let Op::Jump(t) = &mut tape[jend].op {
                    *t = end_at;
                }
                dst
            }
        })
    }

    // -- superinstruction recognition --------------------------------------

    /// Rewrites every recognizable reduction nest in `stmts` into a
    /// [`PStmt::MacroMatmul`]; returns whether anything changed.
    fn macroize_stmts(&self, stmts: &mut [PStmt]) -> bool {
        let mut changed = false;
        for s in stmts.iter_mut() {
            changed |= self.macroize_stmt(s);
        }
        changed
    }

    fn macroize_stmt(&self, s: &mut PStmt) -> bool {
        if let Some(m) = self.try_macro(s) {
            *s = m;
            return true;
        }
        match s {
            PStmt::Loop { body, .. } => self.macroize_stmts(body),
            PStmt::IfEq { then, .. } => self.macroize_stmts(then),
            _ => false,
        }
    }

    /// Matches the canonical lowered dot nest
    ///
    /// ```text
    /// Loop j { Loop k {
    ///     IfEq k == 0 { Store Y[..] = ConstF(c) }
    ///     Store Y[..] = tape[Load Y, Load X, Load W, Mul(1,2), Add(0,3)]
    /// } }
    /// ```
    ///
    /// with constant trip counts, all accesses flat (proven in bounds),
    /// `Y` independent of `k`, one multiply operand independent of `j`
    /// (the stationary operand), a float destination dtype, and operand
    /// slots distinct from the output slot. Anything else is left to the
    /// scalar tape.
    fn try_macro(&self, s: &PStmt) -> Option<PStmt> {
        let PStmt::Loop {
            iter: j_iter,
            extent: ej,
            body: jbody,
        } = s
        else {
            return None;
        };
        let nj = const_of(ej)?;
        let [PStmt::Loop {
            iter: k_iter,
            extent: ek,
            body: kbody,
        }] = jbody.as_slice()
        else {
            return None;
        };
        let nk = const_of(ek)?;
        if nj < 1 || nk < 1 {
            return None;
        }
        let [PStmt::IfEq { lhs, rhs, then }, PStmt::Store {
            tape,
            result,
            buf: y_buf,
            access: Access::Flat(y),
            dtype,
        }] = kbody.as_slice()
        else {
            return None;
        };
        // Init guard must be exactly `k == 0`.
        if *lhs.as_affine()? != Affine::iter(*k_iter) || rhs.as_affine()?.as_const()? != 0 {
            return None;
        }
        let [PStmt::Store {
            tape: itape,
            result: ires,
            buf: ibuf,
            access: Access::Flat(iy),
            dtype: idt,
        }] = then.as_slice()
        else {
            return None;
        };
        let [TapeOp {
            dst: d0,
            op: Op::ConstF(init),
        }] = itape.as_slice()
        else {
            return None;
        };
        if ires != d0 || ibuf != y_buf || iy != y || idt != dtype || !dtype.is_float() {
            return None;
        }
        // Update tape: Load Y, Load A, Load B, Mul(A,B), Add(Y,·).
        let [TapeOp {
            dst: r0,
            op:
                Op::Load {
                    buf: ly,
                    access: Access::Flat(ay),
                },
        }, TapeOp {
            dst: r1,
            op:
                Op::Load {
                    buf: b1,
                    access: Access::Flat(a1),
                },
        }, TapeOp {
            dst: r2,
            op:
                Op::Load {
                    buf: b2,
                    access: Access::Flat(a2),
                },
        }, TapeOp {
            dst: r3,
            op: Op::Mul(m1, m2),
        }, TapeOp {
            dst: r4,
            op: Op::Add(s1, s2),
        }] = tape.as_slice()
        else {
            return None;
        };
        if ly != y_buf || ay != y || (*m1, *m2) != (*r1, *r2) || (*s1, *s2) != (*r0, *r3) {
            return None;
        }
        if result != r4 || y.coeff(*k_iter) != 0 {
            return None;
        }
        // Pick the stationary operand; keep tape operand order for the
        // multiply.
        let (x_buf, x, w_buf, w, x_first) = if a1.coeff(*j_iter) == 0 {
            (*b1, a1.clone(), *b2, a2.clone(), true)
        } else if a2.coeff(*j_iter) == 0 {
            (*b2, a2.clone(), *b1, a1.clone(), false)
        } else {
            return None;
        };
        // Distinct slots: the blocked loop defers Y stores to block
        // boundaries, which an operand aliasing Y would observe.
        if x_buf == *y_buf || w_buf == *y_buf {
            return None;
        }
        Some(PStmt::MacroMatmul {
            j_iter: *j_iter,
            k_iter: *k_iter,
            nj,
            nk,
            y_buf: *y_buf,
            y: y.clone(),
            x_buf,
            x,
            w_buf,
            w,
            x_first,
            init: *init,
            fallback: Box::new(s.clone()),
        })
    }

    // -- sibling row fusion ------------------------------------------------

    /// Merges adjacent top-level loops when one contains a macro-op and
    /// both walk the same rows of every shared buffer — the elementwise
    /// epilogue (`Z = act(Y + B)`) then runs inside the matmul's row
    /// loop, one pass per row. Returns whether anything fused.
    fn fuse_rows(&self, stmts: &mut Vec<PStmt>) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i + 1 < stmts.len() {
            if let Some(fused) = self.try_fuse(&stmts[i], &stmts[i + 1]) {
                stmts[i] = fused;
                stmts.remove(i + 1);
                changed = true;
            } else {
                i += 1;
            }
        }
        changed
    }

    /// Row-fusion legality: equal constant trip counts, and every buffer
    /// written on either side and touched by both sides must be accessed
    /// only through flat affines with one *identical* outer-iteration
    /// stride `c > 0` and residual range `[0, c)` on both sides — each
    /// side's iteration `r` then touches only slice `[c·r, c·(r+1))`, so
    /// interleaving `A_r; B_r` preserves every cross-statement
    /// read-after-write of the original `all A; all B` order.
    fn try_fuse(&self, a: &PStmt, b: &PStmt) -> Option<PStmt> {
        let PStmt::Loop {
            iter: ia,
            extent: ea,
            body: ba,
        } = a
        else {
            return None;
        };
        let PStmt::Loop {
            iter: ib,
            extent: eb,
            body: bb,
        } = b
        else {
            return None;
        };
        if const_of(ea)? != const_of(eb)? {
            return None;
        }
        if !contains_macro(ba) && !contains_macro(bb) {
            return None;
        }
        let mut sa = ParScan::default();
        scan_stmts(ba, &mut sa);
        let mut sb = ParScan::default();
        scan_stmts(bb, &mut sb);
        if sa.zeroes || sb.zeroes {
            return None;
        }
        let wa: HashSet<usize> = sa.stores.iter().map(|(b, _)| *b).collect();
        let wb: HashSet<usize> = sb.stores.iter().map(|(b, _)| *b).collect();
        let touched = |s: &ParScan| -> HashSet<usize> {
            s.stores
                .iter()
                .chain(&s.loads)
                .map(|(b, _)| *b)
                .chain(s.dyn_bufs.iter().copied())
                .collect()
        };
        let (ta, tb) = (touched(&sa), touched(&sb));
        let shared: HashSet<usize> = wa
            .iter()
            .filter(|b| tb.contains(b))
            .chain(wb.iter().filter(|b| ta.contains(b)))
            .copied()
            .collect();
        if shared.is_empty() {
            // No cross-statement dataflow: fusion buys nothing.
            return None;
        }
        if sa
            .dyn_bufs
            .iter()
            .chain(&sb.dyn_bufs)
            .any(|b| shared.contains(b))
        {
            return None;
        }
        let mut stride: HashMap<usize, i64> = HashMap::new();
        for (scan, it) in [(&sa, *ia), (&sb, *ib)] {
            for (buf, access) in scan.stores.iter().chain(&scan.loads) {
                if !shared.contains(buf) {
                    continue;
                }
                let Access::Flat(aff) = access else {
                    return None;
                };
                let c = aff.coeff(it);
                if c <= 0 {
                    return None;
                }
                match stride.get(buf) {
                    Some(&prev) if prev != c => return None,
                    _ => {
                        stride.insert(*buf, c);
                    }
                }
                let (lo, hi) = aff.without(it).range(&self.iter_max)?;
                if lo < 0 || hi >= c {
                    return None;
                }
            }
        }
        // Move B's body under A's counter slot.
        let mut body = ba.clone();
        let mut remapped = bb.clone();
        remap_iter(&mut remapped, *ib, *ia);
        body.extend(remapped);
        Some(PStmt::Loop {
            iter: *ia,
            extent: ea.clone(),
            body,
        })
    }

    // -- rows --------------------------------------------------------------

    /// Rewrites every loop [`Compiler::try_row`] admits into a
    /// [`PStmt::Row`]. A macro-op's scalar fallback is left as it is.
    fn rowize(&self, stmts: &mut [PStmt]) {
        for s in stmts.iter_mut() {
            match s {
                PStmt::Loop { iter, extent, body } if self.try_row(*iter, body) => {
                    let (iter, extent, body) = (*iter, extent.clone(), std::mem::take(body));
                    *s = PStmt::Row { iter, extent, body };
                }
                PStmt::Loop { body, .. } => self.rowize(body),
                PStmt::IfEq { then, .. } => self.rowize(then),
                _ => {}
            }
        }
    }

    /// Row legality for the loop over counter `iter`: only stores, to
    /// distinct float buffers through flat accesses that move with
    /// `iter`; only jump-free float ops (`ConstF`, flat float `Load`s,
    /// arithmetic, unary math, `CastF`, `Copy`) whose operands precede
    /// their destination; and no store reads a buffer another writes, nor
    /// its own anywhere but its own cell. No element then reads a cell
    /// another element or store writes, so running the tapes a row at a
    /// time, store after store, stores the element order's values.
    fn try_row(&self, iter: usize, body: &[PStmt]) -> bool {
        let mut stores: Vec<(usize, &Affine, &[TapeOp])> = Vec::with_capacity(body.len());
        for s in body {
            let PStmt::Store {
                tape,
                buf,
                access: Access::Flat(aff),
                dtype,
                ..
            } = s
            else {
                return false;
            };
            if !dtype.is_float() || aff.coeff(iter) == 0 || stores.iter().any(|w| w.0 == *buf) {
                return false;
            }
            stores.push((*buf, aff, tape));
        }
        let written = |b: usize| stores.iter().any(|w| w.0 == b);
        stores.iter().all(|&(own, own_aff, tape)| {
            tape.iter().all(|TapeOp { dst, op }| match op {
                Op::Load {
                    buf,
                    access: Access::Flat(a),
                } => {
                    self.bufs[*buf].dtype.is_float()
                        && (!written(*buf) || (*buf == own && a == own_aff))
                }
                Op::ConstF(_) => true,
                Op::Add(x, y)
                | Op::Sub(x, y)
                | Op::Mul(x, y)
                | Op::Div(x, y)
                | Op::Max(x, y)
                | Op::Min(x, y) => x < dst && y < dst,
                Op::Exp(x)
                | Op::Sqrt(x)
                | Op::Tanh(x)
                | Op::Sigmoid(x)
                | Op::Neg(x)
                | Op::CastF(x)
                | Op::Copy(x) => x < dst,
                _ => false,
            })
        })
    }
}

fn const_of(e: &IdxExpr) -> Option<i64> {
    e.as_affine().and_then(Affine::as_const)
}

/// Element count of a buffer, rejecting adversarial shapes whose product
/// overflows `usize` (a wrapped count would defeat every downstream
/// bounds proof).
fn checked_numel(dims: &[usize]) -> Result<usize, PlanError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| PlanError::unsupported("buffer element count overflows usize"))
}

#[derive(Default)]
struct ParScan {
    stores: Vec<(usize, Access)>,
    loads: Vec<(usize, Access)>,
    dyn_bufs: Vec<usize>,
    zeroes: bool,
}

fn scan_stmts(stmts: &[PStmt], scan: &mut ParScan) {
    for s in stmts {
        match s {
            PStmt::Loop { body, .. } | PStmt::Row { body, .. } => scan_stmts(body, scan),
            PStmt::IfEq { then, .. } => scan_stmts(then, scan),
            PStmt::ZeroScratch { .. } => scan.zeroes = true,
            PStmt::Store {
                tape, buf, access, ..
            } => {
                scan.stores.push((*buf, access.clone()));
                for op in tape {
                    match &op.op {
                        Op::Load { buf, access } => scan.loads.push((*buf, access.clone())),
                        Op::LoadDyn { buf, .. } => scan.dyn_bufs.push(*buf),
                        _ => {}
                    }
                }
            }
            // A macro reports the same accesses its scalar nest would:
            // the full affines still carry the consumed `j`/`k` terms,
            // so row fusion's stride analysis is unchanged.
            PStmt::MacroMatmul {
                y_buf,
                y,
                x_buf,
                x,
                w_buf,
                w,
                ..
            } => {
                scan.stores.push((*y_buf, Access::Flat(y.clone())));
                scan.loads.push((*y_buf, Access::Flat(y.clone())));
                scan.loads.push((*x_buf, Access::Flat(x.clone())));
                scan.loads.push((*w_buf, Access::Flat(w.clone())));
            }
        }
    }
}

/// `true` if any statement (recursively) is a macro-op.
fn contains_macro(stmts: &[PStmt]) -> bool {
    stmts.iter().any(|s| match s {
        PStmt::MacroMatmul { .. } => true,
        PStmt::Loop { body, .. } => contains_macro(body),
        PStmt::IfEq { then, .. } => contains_macro(then),
        _ => false,
    })
}

/// Stores (recursively) outside every row and macro-op.
fn scalar_stores(stmts: &[PStmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            PStmt::Store { .. } => 1,
            PStmt::Loop { body, .. } => scalar_stores(body),
            PStmt::IfEq { then, .. } => scalar_stores(then),
            _ => 0,
        })
        .sum()
}

/// Moves every reference to counter slot `from` onto slot `to` — used by
/// row fusion to run the epilogue's body under the matmul loop's counter.
/// Slots are compile-unique, so `from` cannot collide with a loop bound
/// inside `stmts`.
fn remap_iter(stmts: &mut [PStmt], from: usize, to: usize) {
    let remap_aff = |a: &mut Affine| {
        let c = a.coeff(from);
        if c != 0 {
            *a = a.without(from).add_scaled(&Affine::iter(to), c);
        }
    };
    fn remap_idx(e: &mut IdxExpr, f: &impl Fn(&mut Affine)) {
        match e {
            IdxExpr::Aff(a) => f(a),
            IdxExpr::Add(a, b)
            | IdxExpr::Sub(a, b)
            | IdxExpr::Mul(a, b)
            | IdxExpr::FloorDiv(a, b)
            | IdxExpr::FloorMod(a, b)
            | IdxExpr::Min(a, b)
            | IdxExpr::Max(a, b) => {
                remap_idx(a, f);
                remap_idx(b, f);
            }
        }
    }
    fn remap_access(a: &mut Access, f: &impl Fn(&mut Affine)) {
        match a {
            Access::Flat(aff) => f(aff),
            Access::Checked(idxs) => idxs.iter_mut().for_each(|e| remap_idx(e, f)),
        }
    }
    fn walk(stmts: &mut [PStmt], f: &impl Fn(&mut Affine)) {
        for s in stmts {
            match s {
                PStmt::Loop { extent, body, .. } | PStmt::Row { extent, body, .. } => {
                    remap_idx(extent, f);
                    walk(body, f);
                }
                PStmt::IfEq { lhs, rhs, then } => {
                    remap_idx(lhs, f);
                    remap_idx(rhs, f);
                    walk(then, f);
                }
                PStmt::Store { tape, access, .. } => {
                    remap_access(access, f);
                    for op in tape {
                        match &mut op.op {
                            Op::Load { access, .. } => remap_access(access, f),
                            Op::Idx(e) => remap_idx(e, f),
                            Op::IdxEq(a, b) | Op::IdxLe(a, b) => {
                                remap_idx(a, f);
                                remap_idx(b, f);
                            }
                            _ => {}
                        }
                    }
                }
                PStmt::ZeroScratch { .. } => {}
                PStmt::MacroMatmul {
                    y, x, w, fallback, ..
                } => {
                    f(y);
                    f(x);
                    f(w);
                    walk(std::slice::from_mut(&mut **fallback), f);
                }
            }
        }
    }
    walk(stmts, &remap_aff);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A borrowed view of one unique storage's atomic cells: float or integer
/// representation. All cell traffic is `Relaxed` — a plain load/store on
/// x86 — because a launch runs on one thread (see
/// [`crate::ndarray::DataBuf`]).
enum ViewData<'a> {
    F(&'a [AtomicU64]),
    I(&'a [AtomicI64]),
}

struct StorageView<'a> {
    data: ViewData<'a>,
    /// Whether the plan is allowed to store through this view (derived
    /// from the compiler's `written` table; a store through a read-only
    /// view is rejected exactly like an out-of-bounds access).
    writable: bool,
    /// The *actual* dtype of the bound array (store rounding), which can
    /// differ from the declared buffer dtype.
    dtype: DataType,
}

impl StorageView<'_> {
    fn read(&self, flat: usize) -> Option<Scalar> {
        match &self.data {
            ViewData::F(s) => s
                .get(flat)
                .map(|c| Scalar::F(f64::from_bits(c.load(Ordering::Relaxed)))),
            ViewData::I(s) => s.get(flat).map(|c| Scalar::I(c.load(Ordering::Relaxed))),
        }
    }

    fn write(&self, flat: usize, v: Scalar) -> Option<()> {
        if !self.writable {
            return None;
        }
        match &self.data {
            ViewData::F(s) => {
                s.get(flat)?.store(
                    round_to_dtype(v.as_f64(), self.dtype).to_bits(),
                    Ordering::Relaxed,
                );
                Some(())
            }
            ViewData::I(s) => {
                s.get(flat)?.store(v.as_i64(), Ordering::Relaxed);
                Some(())
            }
        }
    }

    fn zero(&self) {
        match &self.data {
            ViewData::F(s) => s.iter().for_each(|c| c.store(0, Ordering::Relaxed)),
            ViewData::I(s) => s.iter().for_each(|c| c.store(0, Ordering::Relaxed)),
        }
    }
}

fn oob(index: usize, len: usize) -> InterpError {
    InterpError::Array(crate::ndarray::NDArrayError::IndexOutOfBounds { index, len })
}

/// Launch-time context the [`Machine`] reads but never writes.
struct RunCtx<'p> {
    plan: &'p KernelPlan,
    /// Buffer slot → unique storage index (launch-dependent: clones alias).
    storage_of: &'p [usize],
    /// Two parameter slots share one storage. Row legality is proven over
    /// slots, so such a launch runs every row element by element.
    aliased: bool,
}

/// The register machine walking a plan: flat counters instead of a hash-map
/// environment, a register file instead of tree recursion, and direct slice
/// access instead of per-element locking.
struct Machine<'a> {
    views: Vec<StorageView<'a>>,
    iters: Vec<i64>,
    regs: Vec<Scalar>,
    /// Row registers: register `r` of element `t` at `r·n + t`.
    rows: Vec<f64>,
}

impl Machine<'_> {
    fn exec(&mut self, ctx: &RunCtx, s: &PStmt) -> Result<(), InterpError> {
        match s {
            PStmt::Loop { iter, extent, body } | PStmt::Row { iter, extent, body } => {
                let n = extent.eval(&self.iters)?;
                let row = matches!(s, PStmt::Row { .. }) && !ctx.aliased;
                if row && n > 0 && self.run_row(ctx, *iter, n as usize, body) {
                    return Ok(());
                }
                for i in 0..n.max(0) {
                    self.iters[*iter] = i;
                    for st in body {
                        self.exec(ctx, st)?;
                    }
                }
                Ok(())
            }
            PStmt::IfEq { lhs, rhs, then } => {
                if lhs.eval(&self.iters)? == rhs.eval(&self.iters)? {
                    for st in then {
                        self.exec(ctx, st)?;
                    }
                }
                Ok(())
            }
            PStmt::ZeroScratch { buf } => {
                self.views[ctx.storage_of[*buf]].zero();
                Ok(())
            }
            PStmt::Store {
                tape,
                result,
                buf,
                access,
                dtype,
            } => {
                self.eval_tape(ctx, tape)?;
                let v = self.regs[*result as usize].cast(*dtype);
                let flat = self.resolve(ctx, *buf, access)?;
                let numel = ctx.plan.bufs[*buf].numel;
                self.views[ctx.storage_of[*buf]]
                    .write(flat, v)
                    .ok_or_else(|| oob(flat, numel))
            }
            PStmt::MacroMatmul {
                j_iter,
                k_iter,
                nj,
                nk,
                y_buf,
                y,
                x_buf,
                x,
                w_buf,
                w,
                x_first,
                init,
                fallback,
            } => {
                let (sy, sx, sw) = (
                    ctx.storage_of[*y_buf],
                    ctx.storage_of[*x_buf],
                    ctx.storage_of[*w_buf],
                );
                let fast = self.views[sy].writable
                    && matches!(self.views[sy].data, ViewData::F(_))
                    && matches!(self.views[sx].data, ViewData::F(_))
                    && matches!(self.views[sw].data, ViewData::F(_));
                if !fast {
                    // Integer views or a read-only output: the scalar
                    // nest reproduces those semantics (and errors)
                    // exactly.
                    return self.exec(ctx, fallback);
                }
                // Pin the consumed counters to zero so the affines
                // evaluate to block bases; outer-loop terms stay live.
                self.iters[*j_iter] = 0;
                self.iters[*k_iter] = 0;
                let (y0, x0, w0) = (y.eval(&self.iters), x.eval(&self.iters), w.eval(&self.iters));
                let (yj, xk) = (y.coeff(*j_iter), x.coeff(*k_iter));
                let (wj, wk) = (w.coeff(*j_iter), w.coeff(*k_iter));
                let dt = self.views[sy].dtype;
                let (ViewData::F(ys), ViewData::F(xs), ViewData::F(ws)) = (
                    &self.views[sy].data,
                    &self.views[sx].data,
                    &self.views[sw].data,
                ) else {
                    unreachable!("fast path checked above");
                };
                let (y_len, x_len, w_len) = (
                    ctx.plan.bufs[*y_buf].numel,
                    ctx.plan.bufs[*x_buf].numel,
                    ctx.plan.bufs[*w_buf].numel,
                );
                let cell = |s: &[AtomicU64], flat: i64, numel: usize| {
                    if flat < 0 {
                        return Err(InterpError::NegativeIndex(flat));
                    }
                    s.get(flat as usize)
                        .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
                        .ok_or_else(|| oob(flat as usize, numel))
                };
                // Register-blocked loop: `k` outer, a block of `j`
                // inner, accumulators in registers. Per output cell the
                // multiply-accumulate sequence is still `k`-ascending
                // with a round to the destination dtype after every
                // step, so each cell sees the exact rounding chain of
                // the scalar tape's store/load round-trip.
                const BJ: i64 = 64;
                let mut acc = [0.0f64; BJ as usize];
                let init_r = round_to_dtype(*init, dt);
                let mut jb = 0i64;
                while jb < *nj {
                    let bw = (*nj - jb).min(BJ);
                    acc[..bw as usize].fill(init_r);
                    for k in 0..*nk {
                        let xf = cell(xs, x0 + xk * k, x_len)?;
                        let wb = w0 + wk * k + wj * jb;
                        for t in 0..bw {
                            let wf = cell(ws, wb + wj * t, w_len)?;
                            // Not identical branches: multiply operand
                            // order decides which NaN payload propagates,
                            // and the tape's order must be preserved.
                            #[allow(clippy::if_same_then_else)]
                            let p = if *x_first { xf * wf } else { wf * xf };
                            let t = t as usize;
                            acc[t] = round_to_dtype(acc[t] + p, dt);
                        }
                    }
                    let yb = y0 + yj * jb;
                    for t in 0..bw {
                        let flat = yb + yj * t;
                        if flat < 0 {
                            return Err(InterpError::NegativeIndex(flat));
                        }
                        ys.get(flat as usize)
                            .ok_or_else(|| oob(flat as usize, y_len))?
                            .store(acc[t as usize].to_bits(), Ordering::Relaxed);
                    }
                    jb += bw;
                }
                Ok(())
            }
        }
    }

    /// Runs a row's stores one tape op at a time across all `n` elements
    /// (counter `iter` over `0..n`). Returns `false`, having touched
    /// nothing, when a view breaks the row's proof — an integer view, a
    /// read-only output, an access outside its storage — so the caller
    /// runs the loop element by element, which reproduces those
    /// semantics and errors exactly.
    fn run_row(&mut self, ctx: &RunCtx, iter: usize, n: usize, body: &[PStmt]) -> bool {
        self.iters[iter] = 0;
        let Machine {
            views, iters, rows, ..
        } = self;
        // An access's float cells, offset at element 0, stride and
        // storage dtype.
        let place = |buf: usize, aff: &Affine, store: bool| {
            let view = &views[ctx.storage_of[buf]];
            let ViewData::F(cells) = view.data else {
                return None;
            };
            let (base, step) = (aff.eval(iters), aff.coeff(iter));
            let last = step.checked_mul(n as i64 - 1)?.checked_add(base)?;
            let fits = base.min(last) >= 0 && (base.max(last) as usize) < cells.len();
            (fits && (view.writable || !store)).then_some((cells, base, step, view.dtype))
        };
        fn flat(st: &PStmt) -> (&[TapeOp], usize, usize, &Affine) {
            match st {
                PStmt::Store {
                    tape,
                    result,
                    buf,
                    access: Access::Flat(aff),
                    ..
                } => (tape, *result as usize, *buf, aff),
                _ => unreachable!("a row holds flat stores only"),
            }
        }
        let fits = body.iter().map(flat).all(|(tape, _, buf, aff)| {
            place(buf, aff, true).is_some()
                && tape.iter().all(|op| match &op.op {
                    Op::Load {
                        buf,
                        access: Access::Flat(a),
                    } => place(*buf, a, false).is_some(),
                    _ => true,
                })
        });
        if !fits {
            return false;
        }
        rows.resize(rows.len().max(ctx.plan.num_regs * n), 0.0);
        for (tape, result, buf, aff) in body.iter().map(flat) {
            for TapeOp { dst, op } in tape {
                let (done, rest) = rows.split_at_mut(*dst as usize * n);
                let out = &mut rest[..n];
                let src = |r: &Reg| &done[*r as usize * n..][..n];
                match op {
                    Op::ConstF(v) => out.fill(*v),
                    Op::Load {
                        buf,
                        access: Access::Flat(a),
                    } => {
                        let (cells, base, step, _) = place(*buf, a, false).expect("checked above");
                        for (t, o) in out.iter_mut().enumerate() {
                            let c = &cells[(base + step * t as i64) as usize];
                            *o = f64::from_bits(c.load(Ordering::Relaxed));
                        }
                    }
                    Op::Add(a, b) => zip_row(out, src(a), src(b), first_nan(|x, y| x + y)),
                    Op::Sub(a, b) => zip_row(out, src(a), src(b), |x, y| x - y),
                    Op::Mul(a, b) => zip_row(out, src(a), src(b), first_nan(|x, y| x * y)),
                    Op::Div(a, b) => zip_row(out, src(a), src(b), |x, y| x / y),
                    Op::Max(a, b) => zip_row(out, src(a), src(b), f64::max),
                    Op::Min(a, b) => zip_row(out, src(a), src(b), f64::min),
                    Op::Exp(a) => map_row(out, src(a), f64::exp),
                    Op::Sqrt(a) => map_row(out, src(a), f64::sqrt),
                    Op::Tanh(a) => map_row(out, src(a), f64::tanh),
                    Op::Sigmoid(a) => map_row(out, src(a), |v| 1.0 / (1.0 + (-v).exp())),
                    Op::Neg(a) => map_row(out, src(a), |v| -v),
                    Op::CastF(a) | Op::Copy(a) => out.copy_from_slice(src(a)),
                    _ => unreachable!("a row's tapes hold float ops only"),
                }
            }
            let (cells, base, step, dtype) = place(buf, aff, true).expect("checked above");
            for (t, v) in rows[result * n..][..n].iter().enumerate() {
                let c = &cells[(base + step * t as i64) as usize];
                c.store(round_to_dtype(*v, dtype).to_bits(), Ordering::Relaxed);
            }
        }
        true
    }

    /// Resolves an access to an absolute flat offset. `Flat` accesses were
    /// proven in bounds at compile time; `Checked` accesses replicate the
    /// interpreter's negative-index and per-dimension bounds checks (and
    /// their exact error values).
    fn resolve(&self, ctx: &RunCtx, buf: usize, access: &Access) -> Result<usize, InterpError> {
        match access {
            Access::Flat(aff) => {
                let v = aff.eval(&self.iters);
                if v < 0 {
                    return Err(InterpError::NegativeIndex(v));
                }
                Ok(v as usize)
            }
            Access::Checked(idxs) => flat_of(
                &ctx.plan.bufs[buf].dims,
                idxs.iter()
                    .map(|e| e.eval(&self.iters).map_err(InterpError::from)),
            ),
        }
    }

    fn eval_tape(&mut self, ctx: &RunCtx, tape: &[TapeOp]) -> Result<(), InterpError> {
        let mut pc = 0usize;
        while pc < tape.len() {
            let TapeOp { dst, op } = &tape[pc];
            let dst = *dst as usize;
            match op {
                Op::Jump(t) => {
                    pc = *t;
                    continue;
                }
                Op::JumpIfZero(c, t) => {
                    if self.regs[*c as usize].as_i64() == 0 {
                        pc = *t;
                        continue;
                    }
                }
                Op::ConstF(v) => self.regs[dst] = Scalar::F(*v),
                Op::ConstI(v) => self.regs[dst] = Scalar::I(*v),
                Op::Idx(e) => self.regs[dst] = Scalar::I(e.eval(&self.iters)?),
                Op::Load { buf, access } => {
                    let flat = self.resolve(ctx, *buf, access)?;
                    let numel = ctx.plan.bufs[*buf].numel;
                    self.regs[dst] = self.views[ctx.storage_of[*buf]]
                        .read(flat)
                        .ok_or_else(|| oob(flat, numel))?;
                }
                Op::LoadDyn { buf, idx_regs } => {
                    let flat = flat_of(
                        &ctx.plan.bufs[*buf].dims,
                        idx_regs.iter().map(|r| Ok(self.regs[*r as usize].as_i64())),
                    )?;
                    let numel = ctx.plan.bufs[*buf].numel;
                    self.regs[dst] = self.views[ctx.storage_of[*buf]]
                        .read(flat)
                        .ok_or_else(|| oob(flat, numel))?;
                }
                Op::Add(a, b) => {
                    self.regs[dst] = interp::binop(
                        self.regs[*a as usize],
                        self.regs[*b as usize],
                        |x, y| x + y,
                        |x, y| x.wrapping_add(y),
                    )
                }
                Op::Sub(a, b) => {
                    self.regs[dst] = interp::binop(
                        self.regs[*a as usize],
                        self.regs[*b as usize],
                        |x, y| x - y,
                        |x, y| x.wrapping_sub(y),
                    )
                }
                Op::Mul(a, b) => {
                    self.regs[dst] = interp::binop(
                        self.regs[*a as usize],
                        self.regs[*b as usize],
                        |x, y| x * y,
                        |x, y| x.wrapping_mul(y),
                    )
                }
                Op::Div(a, b) => {
                    let (x, y) = (self.regs[*a as usize], self.regs[*b as usize]);
                    self.regs[dst] = match (x, y) {
                        (Scalar::I(x), Scalar::I(y)) => {
                            if y == 0 {
                                return Err(InterpError::Eval(EvalError::DivisionByZero));
                            }
                            Scalar::I(x.div_euclid(y))
                        }
                        _ => Scalar::F(x.as_f64() / y.as_f64()),
                    };
                }
                Op::Max(a, b) => {
                    self.regs[dst] = interp::binop(
                        self.regs[*a as usize],
                        self.regs[*b as usize],
                        f64::max,
                        i64::max,
                    )
                }
                Op::Min(a, b) => {
                    self.regs[dst] = interp::binop(
                        self.regs[*a as usize],
                        self.regs[*b as usize],
                        f64::min,
                        i64::min,
                    )
                }
                Op::Shr(a, b) => {
                    let (x, y) = (
                        self.regs[*a as usize].as_i64(),
                        self.regs[*b as usize].as_i64(),
                    );
                    self.regs[dst] = Scalar::I(((x as u64) >> (y as u64 & 63)) as i64);
                }
                Op::BitAnd(a, b) => {
                    self.regs[dst] = Scalar::I(
                        self.regs[*a as usize].as_i64() & self.regs[*b as usize].as_i64(),
                    );
                }
                Op::Exp(a) => self.regs[dst] = Scalar::F(self.regs[*a as usize].as_f64().exp()),
                Op::Sqrt(a) => self.regs[dst] = Scalar::F(self.regs[*a as usize].as_f64().sqrt()),
                Op::Tanh(a) => self.regs[dst] = Scalar::F(self.regs[*a as usize].as_f64().tanh()),
                Op::Sigmoid(a) => {
                    let v = self.regs[*a as usize].as_f64();
                    self.regs[dst] = Scalar::F(1.0 / (1.0 + (-v).exp()));
                }
                Op::Neg(a) => {
                    self.regs[dst] = match self.regs[*a as usize] {
                        Scalar::F(v) => Scalar::F(-v),
                        Scalar::I(v) => Scalar::I(v.wrapping_neg()),
                    };
                }
                Op::CastF(a) => self.regs[dst] = Scalar::F(self.regs[*a as usize].as_f64()),
                Op::CastI(a) => self.regs[dst] = Scalar::I(self.regs[*a as usize].as_i64()),
                Op::IdxEq(a, b) => {
                    self.regs[dst] =
                        Scalar::I((a.eval(&self.iters)? == b.eval(&self.iters)?) as i64)
                }
                Op::IdxLe(a, b) => {
                    self.regs[dst] =
                        Scalar::I((a.eval(&self.iters)? <= b.eval(&self.iters)?) as i64)
                }
                Op::Copy(a) => self.regs[dst] = self.regs[*a as usize],
            }
            pc += 1;
        }
        Ok(())
    }
}

/// Row-major flat offset of one index per dimension (the compiler checked
/// the rank), without a heap allocation, and with the interpreter's exact
/// errors: an index that fails to evaluate or is negative wins over one
/// out of range in any dimension, and the first dimension out of range
/// is the one reported.
fn flat_of(
    dims: &[usize],
    indices: impl Iterator<Item = Result<i64, InterpError>>,
) -> Result<usize, InterpError> {
    let mut flat = Ok(0usize);
    for (i, (idx, &extent)) in indices.zip(dims).enumerate() {
        let idx = idx?;
        if idx < 0 {
            return Err(InterpError::NegativeIndex(idx));
        }
        flat = flat.and_then(|f| match idx as usize {
            idx if idx < extent => Ok(f * extent + idx),
            idx => Err(oob(idx, extent.max(i))),
        });
    }
    flat
}

fn zip_row(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

fn map_row(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

/// A commutative float op with the scalar tape's NaN choice: when both
/// operands are NaN, the first one's payload propagates. A vectorized
/// row loop may swap the operands of `x + y`, so a NaN `x` is combined
/// with itself instead.
fn first_nan(op: impl Fn(f64, f64) -> f64) -> impl Fn(f64, f64) -> f64 {
    move |x, y| if x.is_nan() { op(x, x) } else { op(x, y) }
}

impl KernelPlan {
    /// `true` if schedule-gated macro-op recognition rewrote this plan —
    /// its hot loops execute as blocked superinstructions instead of the
    /// scalar op tape.
    pub fn scheduled(&self) -> bool {
        self.has_macros
    }

    /// Stores this plan runs on the scalar tape, one tape walk per
    /// element: those no row or macro-op covers (a gather's `LoadDyn`, a
    /// reduction's stride-0 store, a `Select`, an index outside its
    /// proof). `0` means every store runs a row or a macro-op at a time.
    pub fn scalar_stores(&self) -> usize {
        self.scalar_stores
    }

    /// Executes the plan on `args` (inputs then outputs, the calling
    /// convention of [`interp::run`]) on the calling thread.
    ///
    /// `_threads` is unread: a plan always runs on the thread that
    /// launches it. The argument stays only because the `benchmark`
    /// package's probes call `run(&args, 1)`; pass `1`.
    ///
    /// # Errors
    ///
    /// The same errors, with the same payloads, as the reference
    /// interpreter on the same arguments.
    pub fn run(&self, args: &[NDArray], _threads: usize) -> Result<(), InterpError> {
        if args.len() != self.num_params {
            return Err(InterpError::ArgCountMismatch {
                expected: self.num_params,
                actual: args.len(),
            });
        }
        for decl in &self.bufs {
            if let Some(p) = decl.param {
                if args[p].shape() != decl.dims.as_slice() {
                    return Err(InterpError::ShapeMismatch {
                        buffer: format!("arg{p}"),
                        detail: format!(
                            "plan specialized for {:?}, argument has {:?}",
                            decl.dims,
                            args[p].shape()
                        ),
                    });
                }
            }
        }

        // Bind buffer slots to unique storages: parameters borrow the
        // caller's arrays (cloned arguments alias one storage), scratch is
        // fresh per launch.
        let scratch: Vec<DataBuf> = self
            .bufs
            .iter()
            .filter(|d| d.param.is_none())
            .map(|d| DataBuf::zeros(d.dtype, d.numel))
            .collect();
        let mut storage_of = vec![usize::MAX; self.bufs.len()];
        let mut storages: Vec<(&DataBuf, DataType)> = Vec::new();
        let mut by_id: HashMap<usize, usize> = HashMap::new();
        let mut aliased = false;
        for (slot, decl) in self.bufs.iter().enumerate() {
            if let Some(p) = decl.param {
                let arr = &args[p];
                if let Some(&s) = by_id.get(&arr.storage_id()) {
                    aliased = true;
                    storage_of[slot] = s;
                } else {
                    by_id.insert(arr.storage_id(), storages.len());
                    storage_of[slot] = storages.len();
                    storages.push((arr.storage(), arr.dtype()));
                }
            }
        }
        let scratch_slots = self
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.param.is_none());
        for ((slot, decl), db) in scratch_slots.zip(&scratch) {
            storage_of[slot] = storages.len();
            storages.push((db, decl.dtype));
        }
        let mut writable = vec![false; storages.len()];
        for (slot, &w) in self.written.iter().enumerate() {
            if w {
                writable[storage_of[slot]] = true;
            }
        }
        let views = storages
            .into_iter()
            .zip(writable)
            .map(|((db, dtype), writable)| StorageView {
                data: match db {
                    DataBuf::F(v) => ViewData::F(v),
                    DataBuf::I(v) => ViewData::I(v),
                },
                writable,
                dtype,
            })
            .collect();

        let ctx = RunCtx {
            plan: self,
            storage_of: &storage_of,
            aliased,
        };
        let mut m = Machine {
            views,
            iters: vec![0; self.num_iters],
            regs: vec![Scalar::I(0); self.num_regs],
            rows: Vec::new(),
        };
        // Aliased arguments void the macro/fusion slot-distinctness
        // proofs: run the original scalar body.
        let body = match &self.scalar_body {
            Some(scalar) if aliased => scalar,
            _ => &self.body,
        };
        for stmt in body {
            m.exec(&ctx, stmt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::builder::grid;

    /// Symbolic-batch matmul with `IfEq` reduction init (Figure 4 shape).
    fn matmul_func(k: i64, m: i64) -> PrimFunc {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into(), k.into()], DataType::F32);
        let w = Buffer::new("W", vec![k.into(), m.into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into(), m.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.into()), ("j", m.into()), ("k", k.into())]);
        let (i, j, kk) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
        let init = Stmt::IfEq {
            lhs: kk.clone().into(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &y,
                vec![i.clone().into(), j.clone().into()],
                TirExpr::FloatImm(0.0),
            )),
        };
        let update = Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
                + TirExpr::load(&x, vec![i.into(), kk.clone().into()])
                    * TirExpr::load(&w, vec![kk.into(), j.into()]),
        );
        PrimFunc::new("mm", vec![x, w, y], 1, nest.build(Stmt::seq(vec![init, update])))
    }

    fn mm_args(n: usize, k: usize, m: usize) -> Vec<NDArray> {
        let x = NDArray::from_f64(
            &[n, k],
            DataType::F32,
            (0..n * k).map(|i| (i % 13) as f64 * 0.25).collect(),
        )
        .unwrap();
        let w = NDArray::from_f64(
            &[k, m],
            DataType::F32,
            (0..k * m).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect(),
        )
        .unwrap();
        let y = NDArray::zeros(&[n, m], DataType::F32);
        vec![x, w, y]
    }

    #[test]
    fn matmul_plan_matches_interpreter() {
        let f = matmul_func(5, 6);
        let shapes = vec![vec![4, 5], vec![5, 6], vec![4, 6]];
        let plan = compile(&f, &shapes).unwrap();

        let args = mm_args(4, 5, 6);
        let reference = mm_args(4, 5, 6);
        interp::run(&f, &reference).unwrap();
        plan.run(&args, 1).unwrap();
        assert_eq!(args[2].to_f64_vec(), reference[2].to_f64_vec());
    }

    #[test]
    fn aliased_arguments_still_run_correctly() {
        // out aliases the input: the plan must match the interpreter
        // exactly.
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.into())]);
        let body = nest.build(Stmt::store(
            &y,
            vec![iv[0].clone().into()],
            TirExpr::load(&x, vec![iv[0].clone().into()]) * TirExpr::FloatImm(2.0),
        ));
        let f = PrimFunc::new("double", vec![x, y], 1, body);
        let plan = compile(&f, &[vec![8], vec![8]]).unwrap();

        let a = NDArray::from_f64(&[8], DataType::F32, (0..8).map(|v| v as f64).collect()).unwrap();
        let alias = a.clone();
        plan.run(&[a.clone(), alias], 1).unwrap();

        let b = NDArray::from_f64(&[8], DataType::F32, (0..8).map(|v| v as f64).collect()).unwrap();
        let b_alias = b.clone();
        interp::run(&f, &[b.clone(), b_alias]).unwrap();
        assert_eq!(a.to_f64_vec(), b.to_f64_vec());
    }

    #[test]
    fn scratch_alloc_matches_interpreter() {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let out = Buffer::new("O", vec![n.clone().into()], DataType::F32);
        let ws = Buffer::new("ws", vec![16.into()], DataType::F32);
        let (iv1, nest1) = grid(&[("i", 16.into())]);
        let fill = nest1.build(Stmt::store(
            &ws,
            vec![iv1[0].clone().into()],
            TirExpr::Index(iv1[0].clone().into()) * TirExpr::IntImm(3),
        ));
        let (iv2, nest2) = grid(&[("i", n.clone().into())]);
        let copy = nest2.build(Stmt::store(
            &out,
            vec![iv2[0].clone().into()],
            TirExpr::load(&x, vec![iv2[0].clone().into()])
                + TirExpr::load(&ws, vec![PrimExpr::from(iv2[0].clone()).floor_mod(16.into())]),
        ));
        let body = Stmt::Alloc {
            buffer: ws,
            body: Box::new(Stmt::seq(vec![fill, copy])),
        };
        let f = PrimFunc::new("ws_add", vec![x, out], 1, body);
        let plan = compile(&f, &[vec![20], vec![20]]).unwrap();

        let mk = || {
            (
                NDArray::from_f64(&[20], DataType::F32, (0..20).map(|v| v as f64 * 0.5).collect())
                    .unwrap(),
                NDArray::zeros(&[20], DataType::F32),
            )
        };
        let (x1, o1) = mk();
        plan.run(&[x1, o1.clone()], 1).unwrap();
        let (x2, o2) = mk();
        interp::run(&f, &[x2, o2.clone()]).unwrap();
        assert_eq!(o1.to_f64_vec(), o2.to_f64_vec());
    }

    #[test]
    fn non_affine_store_uses_checked_access_and_matches() {
        // O[i*i mod n] — `i*i` is not affine, exercising the checked slot.
        let x = Buffer::new("X", vec![5.into()], DataType::F32);
        let y = Buffer::new("Y", vec![5.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", 5.into())]);
        let i = iv[0].clone();
        let sq = PrimExpr::from(i.clone()) * PrimExpr::from(i.clone());
        let body = nest.build(Stmt::store(
            &y,
            vec![sq.floor_mod(5.into())],
            TirExpr::load(&x, vec![i.into()]),
        ));
        let f = PrimFunc::new("scatter_sq", vec![x, y], 1, body);
        let plan = compile(&f, &[vec![5], vec![5]]).unwrap();

        let mk = || {
            (
                NDArray::from_f64(&[5], DataType::F32, vec![1., 2., 3., 4., 5.]).unwrap(),
                NDArray::zeros(&[5], DataType::F32),
            )
        };
        let (x1, y1) = mk();
        plan.run(&[x1, y1.clone()], 1).unwrap();
        let (x2, y2) = mk();
        interp::run(&f, &[x2, y2.clone()]).unwrap();
        assert_eq!(y1.to_f64_vec(), y2.to_f64_vec());
    }

    #[test]
    fn gather_loaddyn_matches_and_blocks_parallel_writes() {
        // O[i] = T[I[i]] — a dynamic read of a read-only table beside an
        // affine store.
        let tbl = Buffer::new("T", vec![4.into()], DataType::F32);
        let idx = Buffer::new("I", vec![6.into()], DataType::I64);
        let out = Buffer::new("O", vec![6.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", 6.into())]);
        let i = iv[0].clone();
        let body = nest.build(Stmt::store(
            &out,
            vec![i.clone().into()],
            TirExpr::LoadDyn(
                tbl.clone(),
                vec![TirExpr::load(&idx, vec![i.into()])],
            ),
        ));
        let f = PrimFunc::new("gather", vec![tbl, idx, out], 1, body);
        let plan = compile(&f, &[vec![4], vec![6], vec![6]]).unwrap();

        let mk = || {
            (
                NDArray::from_f64(&[4], DataType::F32, vec![10., 20., 30., 40.]).unwrap(),
                NDArray::from_i64(&[6], DataType::I64, vec![3, 0, 2, 1, 3, 0]).unwrap(),
                NDArray::zeros(&[6], DataType::F32),
            )
        };
        let (t1, i1, o1) = mk();
        plan.run(&[t1, i1, o1.clone()], 1).unwrap();
        let (t2, i2, o2) = mk();
        interp::run(&f, &[t2, i2, o2.clone()]).unwrap();
        assert_eq!(o1.to_f64_vec(), o2.to_f64_vec());
    }

    #[test]
    fn out_of_bounds_errors_match_interpreter() {
        // Store past the end: plan and interpreter must raise the same
        // error payload.
        let x = Buffer::new("X", vec![4.into()], DataType::F32);
        let y = Buffer::new("Y", vec![4.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", 4.into())]);
        let i = iv[0].clone();
        let body = nest.build(Stmt::store(
            &y,
            vec![PrimExpr::from(i.clone()) + 2.into()],
            TirExpr::load(&x, vec![i.into()]),
        ));
        let f = PrimFunc::new("shift", vec![x, y], 1, body);
        let plan = compile(&f, &[vec![4], vec![4]]).unwrap();
        let mk = || {
            (
                NDArray::zeros(&[4], DataType::F32),
                NDArray::zeros(&[4], DataType::F32),
            )
        };
        let (x1, y1) = mk();
        let e1 = plan.run(&[x1, y1], 1).unwrap_err();
        let (x2, y2) = mk();
        let e2 = interp::run(&f, &[x2, y2]).unwrap_err();
        assert_eq!(e1, e2);
    }

    #[test]
    fn unbound_extent_is_unsupported() {
        let x = Buffer::new("X", vec![4.into()], DataType::F32);
        let free = Var::new("free");
        let (iv, nest) = grid(&[("i", free.into())]);
        let body = nest.build(Stmt::store(
            &x,
            vec![iv[0].clone().into()],
            TirExpr::FloatImm(1.0),
        ));
        let f = PrimFunc::new("bad", vec![x], 1, body);
        assert!(matches!(
            compile(&f, &[vec![4]]),
            Err(PlanError::Unsupported(_))
        ));
    }

    #[test]
    fn shape_contradiction_is_interp_error() {
        let f = matmul_func(3, 4);
        let err = compile(&f, &[vec![2, 9], vec![3, 4], vec![2, 4]]).unwrap_err();
        assert!(matches!(err, PlanError::Interp(InterpError::ShapeMismatch { .. })));
    }

    #[test]
    fn triangular_loop_matches_interpreter() {
        // Causal-style: O[i, j] only written for j <= i (inner extent i+1),
        // with a mask select — exercises iter-dependent extents and jumps.
        let o = Buffer::new("O", vec![6.into(), 6.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", 6.into())]);
        let i = iv[0].clone();
        let j = Var::new("j");
        let inner = Stmt::store(
            &o,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::Select(
                Box::new(TirExpr::IndexLe(j.clone().into(), i.clone().into())),
                Box::new(
                    TirExpr::Index(PrimExpr::from(i.clone()) + PrimExpr::from(j.clone()))
                        * TirExpr::FloatImm(0.5),
                ),
                Box::new(TirExpr::FloatImm(-1.0)),
            ),
        )
        .in_loop(j, PrimExpr::from(i) + 1.into());
        let f = PrimFunc::new("tri", vec![o.clone()], 1, nest.build(inner));
        let plan = compile(&f, &[vec![6, 6]]).unwrap();

        let o1 = NDArray::zeros(&[6, 6], DataType::F32);
        plan.run(std::slice::from_ref(&o1), 1).unwrap();
        let o2 = NDArray::zeros(&[6, 6], DataType::F32);
        interp::run(&f, std::slice::from_ref(&o2)).unwrap();
        assert_eq!(o1.to_f64_vec(), o2.to_f64_vec());
    }

    // -- schedule-gated macro-op execution ---------------------------------

    fn bits(a: &NDArray) -> Vec<u64> {
        a.to_f64_vec().into_iter().map(f64::to_bits).collect()
    }

    fn scheduled_mm(k: i64, m: i64) -> PrimFunc {
        crate::schedule::auto_schedule(&matmul_func(k, m)).expect("dot pattern detected")
    }

    #[test]
    fn scheduled_matmul_macro_is_bitwise_equal() {
        let shapes = vec![vec![96, 64], vec![64, 64], vec![96, 64]];
        let plain = compile(&matmul_func(64, 64), &shapes).unwrap();
        let sched = compile(&scheduled_mm(64, 64), &shapes).unwrap();
        assert!(!plain.scheduled());
        assert!(sched.scheduled());

        let reference = mm_args(96, 64, 64);
        interp::run(&matmul_func(64, 64), &reference).unwrap();

        let macro_run = mm_args(96, 64, 64);
        sched.run(&macro_run, 1).unwrap();
        assert_eq!(bits(&macro_run[2]), bits(&reference[2]));

        let unsched = mm_args(96, 64, 64);
        plain.run(&unsched, 1).unwrap();
        assert_eq!(bits(&unsched[2]), bits(&reference[2]));
    }

    /// Matmul followed by an elementwise epilogue `Z = tanh(Y + B)` as a
    /// *sibling* loop nest — row fusion must pull the epilogue into the
    /// macro loop and stay bitwise equal.
    fn matmul_epilogue_func(k: i64, m: i64) -> PrimFunc {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into(), k.into()], DataType::F32);
        let w = Buffer::new("W", vec![k.into(), m.into()], DataType::F32);
        let b = Buffer::new("B", vec![m.into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into(), m.into()], DataType::F32);
        let z = Buffer::new("Z", vec![n.clone().into(), m.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.clone().into()), ("j", m.into()), ("k", k.into())]);
        let (i, j, kk) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
        let init = Stmt::IfEq {
            lhs: kk.clone().into(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &y,
                vec![i.clone().into(), j.clone().into()],
                TirExpr::FloatImm(0.0),
            )),
        };
        let update = Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
                + TirExpr::load(&x, vec![i.into(), kk.clone().into()])
                    * TirExpr::load(&w, vec![kk.into(), j.into()]),
        );
        let mm = nest.build(Stmt::seq(vec![init, update]));
        let (ev, enest) = grid(&[("i2", n.into()), ("j2", m.into())]);
        let (i2, j2) = (ev[0].clone(), ev[1].clone());
        let ep = enest.build(Stmt::store(
            &z,
            vec![i2.clone().into(), j2.clone().into()],
            TirExpr::Tanh(Box::new(
                TirExpr::load(&y, vec![i2.into(), j2.clone().into()])
                    + TirExpr::load(&b, vec![j2.into()]),
            )),
        ));
        PrimFunc::new("mm_act", vec![x, w, b, y, z], 2, Stmt::seq(vec![mm, ep]))
    }

    fn mm_ep_args(n: usize, k: usize, m: usize) -> Vec<NDArray> {
        let mut args = mm_args(n, k, m);
        let b = NDArray::from_f64(
            &[m],
            DataType::F32,
            (0..m).map(|i| (i % 5) as f64 * 0.125 - 0.25).collect(),
        )
        .unwrap();
        args.insert(2, b);
        args.push(NDArray::zeros(&[n, m], DataType::F32));
        args
    }

    #[test]
    fn scheduled_epilogue_fuses_rows_and_stays_bitwise() {
        let f = matmul_epilogue_func(64, 64);
        let g = crate::schedule::auto_schedule(&f).expect("dot pattern detected");
        let shapes = vec![
            vec![96, 64],
            vec![64, 64],
            vec![64],
            vec![96, 64],
            vec![96, 64],
        ];
        let plain = compile(&f, &shapes).unwrap();
        let sched = compile(&g, &shapes).unwrap();
        assert!(sched.scheduled());
        // Fusion merged the epilogue into the matmul's row loop: one
        // top-level statement, whose epilogue loop runs as a row.
        assert_eq!(sched.body.len(), 1);
        assert_eq!((sched.scalar_stores(), plain.scalar_stores()), (0, 2));

        let reference = mm_ep_args(96, 64, 64);
        interp::run(&f, &reference).unwrap();

        let args = mm_ep_args(96, 64, 64);
        sched.run(&args, 1).unwrap();
        assert_eq!(bits(&args[3]), bits(&reference[3]), "Y");
        assert_eq!(bits(&args[4]), bits(&reference[4]), "Z");

        let unsched = mm_ep_args(96, 64, 64);
        plain.run(&unsched, 1).unwrap();
        assert_eq!(bits(&unsched[4]), bits(&reference[4]));
    }

    #[test]
    fn scheduled_plan_with_aliased_output_runs_scalar_body() {
        // Square matmul where the output aliases the left operand: the
        // blocked executor's deferred stores would be observable, so the
        // launch must drop to the preserved scalar body and match the
        // interpreter exactly.
        let sched = compile(
            &scheduled_mm(8, 8),
            &[vec![8, 8], vec![8, 8], vec![8, 8]],
        )
        .unwrap();
        assert!(sched.scheduled());

        let args = mm_args(8, 8, 8);
        let aliased = vec![args[2].clone(), args[1].clone(), args[2].clone()];
        sched.run(&aliased, 1).unwrap();

        let reference = mm_args(8, 8, 8);
        let r_aliased = vec![
            reference[2].clone(),
            reference[1].clone(),
            reference[2].clone(),
        ];
        interp::run(&matmul_func(8, 8), &r_aliased).unwrap();
        assert_eq!(bits(&aliased[2]), bits(&r_aliased[2]));
    }

    #[test]
    fn scheduled_plan_on_integer_arrays_uses_scalar_fallback() {
        // Bind I64 arrays to the F32-declared function: the macro's fast
        // path needs float views, so it must run its scalar fallback and
        // agree with the unscheduled plan bit for bit.
        let shapes = vec![vec![6, 5], vec![5, 4], vec![6, 4]];
        let plain = compile(&matmul_func(5, 4), &shapes).unwrap();
        let sched = compile(&scheduled_mm(5, 4), &shapes).unwrap();
        assert!(sched.scheduled());

        let mk = || {
            vec![
                NDArray::from_i64(&[6, 5], DataType::I64, (0..30).map(|v| v % 7 - 3).collect())
                    .unwrap(),
                NDArray::from_i64(&[5, 4], DataType::I64, (0..20).map(|v| v % 5 - 2).collect())
                    .unwrap(),
                NDArray::zeros(&[6, 4], DataType::I64),
            ]
        };
        let a = mk();
        sched.run(&a, 1).unwrap();
        let b = mk();
        plain.run(&b, 1).unwrap();
        assert_eq!(bits(&a[2]), bits(&b[2]));
    }
}
