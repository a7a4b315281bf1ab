//! Reference interpreter for tensor programs.
//!
//! The interpreter executes a [`PrimFunc`] on host [`NDArray`]s in
//! destination-passing style: callers pass inputs *and* pre-allocated
//! outputs. Symbolic shape variables in buffer shapes are bound by
//! unification against the concrete shapes of the arguments, mirroring how
//! compiled tensor programs receive shape information at runtime.

use std::collections::HashMap;
use std::fmt;

use relax_arith::{EvalError, PrimExpr, Var};

use crate::buffer::Buffer;
use crate::expr::{Scalar, TirExpr};
use crate::func::PrimFunc;
use crate::ndarray::{NDArray, NDArrayError};
use crate::stmt::Stmt;

/// Error raised while interpreting a tensor program.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Argument count differed from the parameter count.
    ArgCountMismatch {
        /// Parameters expected.
        expected: usize,
        /// Arguments provided.
        actual: usize,
    },
    /// A concrete argument shape contradicted the declared symbolic shape.
    ShapeMismatch {
        /// The parameter buffer name.
        buffer: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A buffer was referenced that is neither a parameter nor allocated.
    UnboundBuffer(String),
    /// Evaluating a symbolic index failed.
    Eval(EvalError),
    /// An array access failed.
    Array(NDArrayError),
    /// A computed index was negative.
    NegativeIndex(i64),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::ArgCountMismatch { expected, actual } => {
                write!(f, "expected {expected} arguments, got {actual}")
            }
            InterpError::ShapeMismatch { buffer, detail } => {
                write!(f, "shape mismatch for buffer `{buffer}`: {detail}")
            }
            InterpError::UnboundBuffer(name) => write!(f, "unbound buffer `{name}`"),
            InterpError::Eval(e) => write!(f, "index evaluation failed: {e}"),
            InterpError::Array(e) => write!(f, "array access failed: {e}"),
            InterpError::NegativeIndex(v) => write!(f, "negative buffer index {v}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<EvalError> for InterpError {
    fn from(e: EvalError) -> Self {
        InterpError::Eval(e)
    }
}

impl From<NDArrayError> for InterpError {
    fn from(e: NDArrayError) -> Self {
        InterpError::Array(e)
    }
}

/// Binds the symbolic dimensions of `params` against concrete `args`,
/// extending `env`. Declared constant or already-bound dimensions are
/// checked; fresh variables are bound.
///
/// # Errors
///
/// Returns [`InterpError::ShapeMismatch`] on contradiction.
pub fn bind_shapes(
    params: &[Buffer],
    args: &[NDArray],
    env: &mut HashMap<Var, i64>,
) -> Result<(), InterpError> {
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    bind_shapes_dims(params, &shapes, env)
}

/// Shape-only variant of [`bind_shapes`]: unifies declared symbolic shapes
/// against concrete dimension vectors. Used by the runtime and by the
/// performance simulator's shape-level dry run.
///
/// # Errors
///
/// Returns [`InterpError::ShapeMismatch`] on contradiction.
pub fn bind_shapes_dims(
    params: &[Buffer],
    shapes: &[Vec<usize>],
    env: &mut HashMap<Var, i64>,
) -> Result<(), InterpError> {
    if params.len() != shapes.len() {
        return Err(InterpError::ArgCountMismatch {
            expected: params.len(),
            actual: shapes.len(),
        });
    }
    for (param, arg_shape) in params.iter().zip(shapes) {
        if param.ndim() != arg_shape.len() {
            return Err(InterpError::ShapeMismatch {
                buffer: param.name().to_string(),
                detail: format!(
                    "declared {} dims, argument has {}",
                    param.ndim(),
                    arg_shape.len()
                ),
            });
        }
        for (dim_expr, &actual) in param.shape().iter().zip(arg_shape) {
            match dim_expr {
                PrimExpr::Var(v) if !env.contains_key(v) => {
                    env.insert(v.clone(), actual as i64);
                }
                expr => {
                    // Solve linear expressions over a single unbound
                    // variable: a fused function's parameter may declare a
                    // compound dimension like `n * 2` (Figure 8), from
                    // which the runtime recovers `n`.
                    let unbound: Vec<_> = relax_arith::free_vars(expr)
                        .into_iter()
                        .filter(|v| !env.contains_key(v))
                        .collect();
                    if let [v] = unbound.as_slice() {
                        if let Some(solution) = solve_linear_dim(expr, v, actual as i64, env) {
                            env.insert(v.clone(), solution);
                            continue;
                        }
                        return Err(InterpError::ShapeMismatch {
                            buffer: param.name().to_string(),
                            detail: format!("cannot solve dimension `{expr}` = {actual} for `{v}`"),
                        });
                    }
                    let expected = expr.eval(env)?;
                    if expected != actual as i64 {
                        return Err(InterpError::ShapeMismatch {
                            buffer: param.name().to_string(),
                            detail: format!(
                                "dimension `{expr}` evaluates to {expected}, argument has {actual}"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Solves `expr(v) == target` for `v` assuming `expr` is affine in `v`
/// (probing at `v = 0` and `v = 1`); verifies the solution before returning
/// it, so non-affine expressions simply fail to solve.
///
/// The probe binding is written into `env` itself (the caller guarantees `v`
/// is unbound on entry) and removed before returning, avoiding a clone of
/// the whole environment per solved dimension.
fn solve_linear_dim(
    expr: &PrimExpr,
    v: &Var,
    target: i64,
    env: &mut HashMap<Var, i64>,
) -> Option<i64> {
    let result = solve_linear_probe(expr, v, target, env);
    env.remove(v);
    result
}

fn solve_linear_probe(
    expr: &PrimExpr,
    v: &Var,
    target: i64,
    env: &mut HashMap<Var, i64>,
) -> Option<i64> {
    env.insert(v.clone(), 0);
    let b = expr.eval(env).ok()?;
    env.insert(v.clone(), 1);
    let a = expr.eval(env).ok()? - b;
    if a == 0 {
        return (b == target).then_some(0);
    }
    if (target - b) % a != 0 {
        return None;
    }
    let candidate = (target - b) / a;
    if candidate < 0 {
        return None;
    }
    env.insert(v.clone(), candidate);
    (expr.eval(env).ok()? == target).then_some(candidate)
}

/// Executes a tensor program on the given arguments (inputs then outputs),
/// mutating the output arrays in place.
///
/// # Errors
///
/// Fails on argument/shape mismatches, out-of-bounds accesses, or unbound
/// symbolic variables.
///
/// # Examples
///
/// ```
/// use relax_tir::{interp, Buffer, NDArray, PrimFunc, Stmt, TirExpr, grid};
/// use relax_arith::{DataType, Var};
/// let n = Var::new("n");
/// let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
/// let y = Buffer::new("Y", vec![n.into()], DataType::F32);
/// let (iv, nest) = grid(&[("i", Var::new("n2").into())]);
/// # // extent must match the param shape var; rebuild properly:
/// # let n = Var::new("n");
/// # let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
/// # let y = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
/// # let (iv, nest) = grid(&[("i", n.into())]);
/// let body = nest.build(Stmt::store(
///     &y, vec![iv[0].clone().into()],
///     TirExpr::load(&x, vec![iv[0].clone().into()]) * TirExpr::FloatImm(2.0),
/// ));
/// let f = PrimFunc::new("double", vec![x, y], 1, body);
/// let xs = NDArray::from_f64(&[3], DataType::F32, vec![1.0, 2.0, 3.0])?;
/// let ys = NDArray::zeros(&[3], DataType::F32);
/// interp::run(&f, &[xs, ys.clone()])?;
/// assert_eq!(ys.to_f64_vec(), vec![2.0, 4.0, 6.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(func: &PrimFunc, args: &[NDArray]) -> Result<(), InterpError> {
    run_with_env(func, args, HashMap::new())
}

/// Like [`run`], but with pre-bound symbolic variables (used when extra
/// symbolic arguments are passed through `call_tir`).
pub fn run_with_env(
    func: &PrimFunc,
    args: &[NDArray],
    mut env: HashMap<Var, i64>,
) -> Result<(), InterpError> {
    bind_shapes(func.params(), args, &mut env)?;
    let mut ctx = Context {
        buffers: func
            .params()
            .iter()
            .zip(args)
            .map(|(p, a)| (p.id(), a.clone()))
            .collect(),
        env,
    };
    ctx.exec(func.body())
}

struct Context {
    buffers: HashMap<u64, NDArray>,
    env: HashMap<Var, i64>,
}

impl Context {
    fn exec(&mut self, stmt: &Stmt) -> Result<(), InterpError> {
        match stmt {
            Stmt::For { var, extent, body } => {
                let n = extent.eval(&self.env)?;
                for i in 0..n.max(0) {
                    self.env.insert(var.clone(), i);
                    self.exec(body)?;
                }
                self.env.remove(var);
                Ok(())
            }
            Stmt::Seq(stmts) => {
                for s in stmts {
                    self.exec(s)?;
                }
                Ok(())
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                let v = self.eval(value)?;
                let arr = self.lookup(buffer)?;
                let flat = self.flat(&arr, indices)?;
                arr.set(flat, v.cast(buffer.dtype()))?;
                Ok(())
            }
            Stmt::IfEq { lhs, rhs, then } => {
                if lhs.eval(&self.env)? == rhs.eval(&self.env)? {
                    self.exec(then)?;
                }
                Ok(())
            }
            Stmt::Alloc { buffer, body } => {
                let shape: Vec<usize> = buffer
                    .shape()
                    .iter()
                    .map(|d| {
                        let v = d.eval(&self.env)?;
                        if v < 0 {
                            Err(InterpError::NegativeIndex(v))
                        } else {
                            Ok(v as usize)
                        }
                    })
                    .collect::<Result<_, _>>()?;
                let arr = NDArray::zeros(&shape, buffer.dtype());
                self.buffers.insert(buffer.id(), arr);
                let r = self.exec(body);
                self.buffers.remove(&buffer.id());
                r
            }
            Stmt::Evaluate => Ok(()),
        }
    }

    fn lookup(&self, buffer: &Buffer) -> Result<NDArray, InterpError> {
        self.buffers
            .get(&buffer.id())
            .cloned()
            .ok_or_else(|| InterpError::UnboundBuffer(buffer.name().to_string()))
    }

    fn flat(&self, arr: &NDArray, indices: &[PrimExpr]) -> Result<usize, InterpError> {
        let mut concrete = Vec::with_capacity(indices.len());
        for idx in indices {
            let v = idx.eval(&self.env)?;
            if v < 0 {
                return Err(InterpError::NegativeIndex(v));
            }
            concrete.push(v as usize);
        }
        Ok(arr.flat_index(&concrete)?)
    }

    fn eval(&self, expr: &TirExpr) -> Result<Scalar, InterpError> {
        Ok(match expr {
            TirExpr::FloatImm(v) => Scalar::F(*v),
            TirExpr::IntImm(v) => Scalar::I(*v),
            TirExpr::Index(e) => Scalar::I(e.eval(&self.env)?),
            TirExpr::Load(buffer, indices) => {
                let arr = self.lookup(buffer)?;
                let flat = self.flat(&arr, indices)?;
                arr.get(flat)?
            }
            TirExpr::Add(a, b) => binop(
                self.eval(a)?,
                self.eval(b)?,
                |x, y| x + y,
                |x, y| x.wrapping_add(y),
            ),
            TirExpr::Sub(a, b) => binop(
                self.eval(a)?,
                self.eval(b)?,
                |x, y| x - y,
                |x, y| x.wrapping_sub(y),
            ),
            TirExpr::Mul(a, b) => binop(
                self.eval(a)?,
                self.eval(b)?,
                |x, y| x * y,
                |x, y| x.wrapping_mul(y),
            ),
            TirExpr::Div(a, b) => {
                let (x, y) = (self.eval(a)?, self.eval(b)?);
                match (x, y) {
                    (Scalar::I(x), Scalar::I(y)) => {
                        if y == 0 {
                            return Err(InterpError::Eval(EvalError::DivisionByZero));
                        }
                        Scalar::I(x.div_euclid(y))
                    }
                    _ => Scalar::F(x.as_f64() / y.as_f64()),
                }
            }
            TirExpr::Max(a, b) => binop(self.eval(a)?, self.eval(b)?, f64::max, i64::max),
            TirExpr::Min(a, b) => binop(self.eval(a)?, self.eval(b)?, f64::min, i64::min),
            TirExpr::Shr(a, b) => {
                let (x, y) = (self.eval(a)?.as_i64(), self.eval(b)?.as_i64());
                Scalar::I(((x as u64) >> (y as u64 & 63)) as i64)
            }
            TirExpr::BitAnd(a, b) => Scalar::I(self.eval(a)?.as_i64() & self.eval(b)?.as_i64()),
            TirExpr::Exp(a) => Scalar::F(self.eval(a)?.as_f64().exp()),
            TirExpr::Sqrt(a) => Scalar::F(self.eval(a)?.as_f64().sqrt()),
            TirExpr::Tanh(a) => Scalar::F(self.eval(a)?.as_f64().tanh()),
            TirExpr::Sigmoid(a) => {
                let v = self.eval(a)?.as_f64();
                Scalar::F(1.0 / (1.0 + (-v).exp()))
            }
            TirExpr::Neg(a) => match self.eval(a)? {
                Scalar::F(v) => Scalar::F(-v),
                Scalar::I(v) => Scalar::I(v.wrapping_neg()),
            },
            TirExpr::Cast(dt, a) => self.eval(a)?.cast(*dt),
            TirExpr::Select(c, t, e) => {
                if self.eval(c)?.as_i64() != 0 {
                    self.eval(t)?
                } else {
                    self.eval(e)?
                }
            }
            TirExpr::IndexEq(a, b) => Scalar::I((a.eval(&self.env)? == b.eval(&self.env)?) as i64),
            TirExpr::IndexLe(a, b) => Scalar::I((a.eval(&self.env)? <= b.eval(&self.env)?) as i64),
            TirExpr::LoadDyn(buffer, indices) => {
                let arr = self.lookup(buffer)?;
                let mut concrete = Vec::with_capacity(indices.len());
                for idx in indices {
                    let v = self.eval(idx)?.as_i64();
                    if v < 0 {
                        return Err(InterpError::NegativeIndex(v));
                    }
                    concrete.push(v as usize);
                }
                arr.get(arr.flat_index(&concrete)?)?
            }
        })
    }
}

/// Applies the interpreter's numeric promotion rule: `I op I` stays integer
/// (with the given wrapping op), anything else promotes to `f64`. Shared
/// with the compiled kernel plans (`crate::plan`) so both paths are
/// bit-identical by construction.
pub(crate) fn binop(
    a: Scalar,
    b: Scalar,
    ff: fn(f64, f64) -> f64,
    fi: fn(i64, i64) -> i64,
) -> Scalar {
    match (a, b) {
        (Scalar::I(x), Scalar::I(y)) => Scalar::I(fi(x, y)),
        _ => Scalar::F(ff(a.as_f64(), b.as_f64())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::grid;
    use relax_arith::DataType;

    /// Builds the paper's Figure 4 matmul: Y[n,256] = X[n,128] @ W[128,256],
    /// scaled down to Y[n,4] = X[n,3] @ W[3,4] for the test.
    fn matmul_func(k: i64, m: i64) -> (PrimFunc, Var) {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into(), k.into()], DataType::F32);
        let w = Buffer::new("W", vec![k.into(), m.into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into(), m.into()], DataType::F32);
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
        let body = nest.build(Stmt::seq(vec![init, update]));
        (PrimFunc::new("mm", vec![x, w, y], 1, body), n)
    }

    #[test]
    fn matmul_with_symbolic_batch() {
        let (f, _) = matmul_func(3, 4);
        let x = NDArray::from_f64(&[2, 3], DataType::F32, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let w =
            NDArray::from_f64(&[3, 4], DataType::F32, (0..12).map(|v| v as f64).collect()).unwrap();
        let y = NDArray::zeros(&[2, 4], DataType::F32);
        run(&f, &[x, w, y.clone()]).unwrap();
        // Row 0: [1,2,3] @ W -> [32, 38, 44, 50]
        assert_eq!(y.to_f64_vec()[..4], [32., 38., 44., 50.]);
    }

    #[test]
    fn shape_unification_rejects_contradiction() {
        let (f, _) = matmul_func(3, 4);
        let x = NDArray::zeros(&[2, 5], DataType::F32); // K=5 contradicts 3
        let w = NDArray::zeros(&[3, 4], DataType::F32);
        let y = NDArray::zeros(&[2, 4], DataType::F32);
        let err = run(&f, &[x, w, y]).unwrap_err();
        assert!(matches!(err, InterpError::ShapeMismatch { .. }));
    }

    #[test]
    fn shared_symbolic_var_must_agree_across_buffers() {
        let (f, _) = matmul_func(3, 4);
        let x = NDArray::zeros(&[2, 3], DataType::F32);
        let w = NDArray::zeros(&[3, 4], DataType::F32);
        let y = NDArray::zeros(&[5, 4], DataType::F32); // batch 5 != 2
        assert!(run(&f, &[x, w, y]).is_err());
    }

    #[test]
    fn arg_count_checked() {
        let (f, _) = matmul_func(3, 4);
        let x = NDArray::zeros(&[2, 3], DataType::F32);
        let err = run(&f, &[x]).unwrap_err();
        assert_eq!(
            err,
            InterpError::ArgCountMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn alloc_scoped_workspace_executes() {
        // out[i] = ws[i] where ws[i] = X[i] * 3, ws allocated locally.
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let out = Buffer::new("O", vec![n.clone().into()], DataType::F32);
        let ws = Buffer::with_scope(
            "ws",
            vec![n.clone().into()],
            DataType::F32,
            crate::buffer::MemScope::Global,
        );
        let (iv1, nest1) = grid(&[("i", n.clone().into())]);
        let fill = nest1.build(Stmt::store(
            &ws,
            vec![iv1[0].clone().into()],
            TirExpr::load(&x, vec![iv1[0].clone().into()]) * TirExpr::FloatImm(3.0),
        ));
        let (iv2, nest2) = grid(&[("i", n.clone().into())]);
        let copy = nest2.build(Stmt::store(
            &out,
            vec![iv2[0].clone().into()],
            TirExpr::load(&ws, vec![iv2[0].clone().into()]),
        ));
        let body = Stmt::Alloc {
            buffer: ws,
            body: Box::new(Stmt::seq(vec![fill, copy])),
        };
        let f = PrimFunc::new("scaled_copy", vec![x, out], 1, body);
        let xs = NDArray::from_f64(&[3], DataType::F32, vec![1., 2., 3.]).unwrap();
        let os = NDArray::zeros(&[3], DataType::F32);
        run(&f, &[xs, os.clone()]).unwrap();
        assert_eq!(os.to_f64_vec(), vec![3., 6., 9.]);
    }

    #[test]
    fn quant_decode_bit_ops() {
        // W[j] = ((data[j/8] >> (j%8*4)) & 15) - 7, u32-packed 4-bit weights.
        let data = Buffer::new("data", vec![1.into()], DataType::U32);
        let w = Buffer::new("W", vec![8.into()], DataType::F32);
        let (iv, nest) = grid(&[("j", 8.into())]);
        let j = iv[0].clone();
        let nibble = TirExpr::BitAnd(
            Box::new(TirExpr::Shr(
                Box::new(TirExpr::load(
                    &data,
                    vec![PrimExpr::from(j.clone()).floor_div(8.into())],
                )),
                Box::new(TirExpr::Index(
                    PrimExpr::from(j.clone()).floor_mod(8.into()) * 4.into(),
                )),
            )),
            Box::new(TirExpr::IntImm(15)),
        );
        let body = nest.build(Stmt::store(
            &w,
            vec![j.into()],
            TirExpr::Cast(DataType::F32, Box::new(nibble - TirExpr::IntImm(7))),
        ));
        let f = PrimFunc::new("decode_q4", vec![data, w], 1, body);
        // Pack nibbles 0..8 into one u32: 0x76543210
        let packed = NDArray::from_i64(&[1], DataType::U32, vec![0x7654_3210]).unwrap();
        let out = NDArray::zeros(&[8], DataType::F32);
        run(&f, &[packed, out.clone()]).unwrap();
        assert_eq!(
            out.to_f64_vec(),
            vec![-7., -6., -5., -4., -3., -2., -1., 0.]
        );
    }
}
