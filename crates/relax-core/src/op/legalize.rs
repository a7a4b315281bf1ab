//! Legalization: generating loop-level tensor programs for high-level
//! operators.
//!
//! The `LegalizeOps` pass (§4.7) walks every graph-level operator call and
//! replaces it with `call_tir` of a generated [`PrimFunc`]. The generators
//! here specialize every statically known dimension and keep symbolic
//! dimensions (batch size, sequence length) dynamic — the key property the
//! paper relies on ("generate code that specializes to most static
//! dimensions and only uses dynamic dimensions when necessary").

use std::fmt;

use relax_arith::{DataType, PrimExpr, Var};
use relax_tir::{grid, Buffer, MemScope, PrimFunc, Stmt, TirExpr};

use crate::expr::OpAttrs;
use crate::op::{attr_axes, attr_f64_or, attr_i64, InferError, Op};
use crate::struct_info::StructInfo;

/// Error produced while legalizing an operator to a tensor program.
#[derive(Debug, Clone, PartialEq)]
pub enum LegalizeError {
    /// The operator cannot be legalized because an input shape is coarse.
    CoarseShape {
        /// Operator name.
        op: &'static str,
    },
    /// The operator has no tensor-program legalization (e.g. the
    /// data-dependent `unique`, which lowers to a runtime builtin instead).
    Unsupported {
        /// Operator name.
        op: &'static str,
        /// Detail.
        detail: String,
    },
    /// Shape deduction failed while computing the output layout.
    Infer(InferError),
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::CoarseShape { op } => {
                write!(f, "{op}: cannot legalize with coarse input shapes")
            }
            LegalizeError::Unsupported { op, detail } => write!(f, "{op}: {detail}"),
            LegalizeError::Infer(e) => write!(f, "legalization failed: {e}"),
        }
    }
}

impl std::error::Error for LegalizeError {}

impl From<InferError> for LegalizeError {
    fn from(e: InferError) -> Self {
        LegalizeError::Infer(e)
    }
}

fn dims_of(op: Op, s: &StructInfo) -> Result<&[PrimExpr], LegalizeError> {
    s.tensor_dims()
        .ok_or(LegalizeError::CoarseShape { op: op.name() })
}

fn dtype_of(s: &StructInfo) -> DataType {
    s.tensor_dtype().unwrap_or(DataType::F32)
}

fn ivs_to_idx(ivs: &[Var]) -> Vec<PrimExpr> {
    ivs.iter().map(|v| PrimExpr::from(v.clone())).collect()
}

fn named_grid(dims: &[PrimExpr]) -> (Vec<Var>, relax_tir::LoopNest) {
    let names: Vec<String> = (0..dims.len()).map(|i| format!("i{i}")).collect();
    let spec: Vec<(&str, PrimExpr)> = names
        .iter()
        .map(String::as_str)
        .zip(dims.iter().cloned())
        .collect();
    grid(&spec)
}

/// Generates the tensor program implementing `op` for the given argument
/// annotations.
///
/// # Errors
///
/// Fails for coarse input shapes, for operators that lower to runtime
/// builtins instead ([`Op::Unique`]), or on inference errors.
pub fn legalize(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    match op {
        Op::Add | Op::Sub | Op::Mul | Op::Divide | Op::Maximum => {
            legalize_binary(op, attrs, args, func_name)
        }
        Op::Exp
        | Op::Relu
        | Op::Sqrt
        | Op::Neg
        | Op::Sigmoid
        | Op::Silu
        | Op::Gelu
        | Op::Tanh
        | Op::Cast => legalize_unary(op, attrs, args, func_name),
        Op::Matmul => legalize_matmul(op, attrs, args, func_name),
        Op::Reshape | Op::Flatten => legalize_reshape(op, attrs, args, func_name),
        Op::Permute => legalize_permute(op, attrs, args, func_name),
        Op::Concat => legalize_concat(op, attrs, args, func_name),
        Op::Take => legalize_take(op, attrs, args, func_name),
        Op::Sum | Op::Mean => legalize_reduce(op, attrs, args, func_name),
        Op::Softmax => legalize_softmax(op, attrs, args, func_name),
        Op::RmsNorm => legalize_rms_norm(op, attrs, args, func_name),
        Op::LayerNorm => legalize_layer_norm(op, attrs, args, func_name),
        Op::Split => legalize_split(op, attrs, args, func_name),
        Op::Slice => legalize_slice(op, attrs, args, func_name),
        Op::Attention => legalize_attention(op, attrs, args, func_name),
        Op::Unique => Err(LegalizeError::Unsupported {
            op: op.name(),
            detail: "data-dependent output shape; lowered to runtime builtin".to_string(),
        }),
    }
}

fn legalize_binary(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let a_dims = dims_of(op, &args[0])?.to_vec();
    let b_dims = dims_of(op, &args[1])?.to_vec();
    let a = Buffer::new("A", a_dims.clone(), dtype_of(&args[0]));
    let b = Buffer::new("B", b_dims.clone(), dtype_of(&args[1]));
    let o = Buffer::new("O", out_dims.clone(), dtype_of(&out_sinfo));
    let (ivs, nest) = named_grid(&out_dims);
    let idx = ivs_to_idx(&ivs);
    let a_idx = broadcast_index(&a_dims, &idx);
    let b_idx = broadcast_index(&b_dims, &idx);
    let lhs = TirExpr::load(&a, a_idx);
    let rhs = TirExpr::load(&b, b_idx);
    let value = match op {
        Op::Add => lhs + rhs,
        Op::Sub => lhs - rhs,
        Op::Mul => lhs * rhs,
        Op::Divide => lhs / rhs,
        Op::Maximum => TirExpr::Max(Box::new(lhs), Box::new(rhs)),
        _ => unreachable!("binary legalization dispatch"),
    };
    let body = nest.build(Stmt::store(&o, idx, value));
    Ok(PrimFunc::new(func_name, vec![a, b, o], 1, body))
}

/// Aligns an operand's indices to the output iteration space by suffix
/// broadcasting; size-1 dimensions index at 0.
fn broadcast_index(operand_dims: &[PrimExpr], out_idx: &[PrimExpr]) -> Vec<PrimExpr> {
    let offset = out_idx.len() - operand_dims.len();
    operand_dims
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if d.as_int() == Some(1) {
                PrimExpr::Int(0)
            } else {
                out_idx[offset + i].clone()
            }
        })
        .collect()
}

fn legalize_unary(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let dims = dims_of(op, &args[0])?.to_vec();
    let x = Buffer::new("X", dims.clone(), dtype_of(&args[0]));
    let o = Buffer::new("O", dims.clone(), dtype_of(&out_sinfo));
    let (ivs, nest) = named_grid(&dims);
    let idx = ivs_to_idx(&ivs);
    let xv = TirExpr::load(&x, idx.clone());
    let value = unary_value(op, attrs, xv);
    let body = nest.build(Stmt::store(&o, idx, value));
    Ok(PrimFunc::new(func_name, vec![x, o], 1, body))
}

fn unary_value(op: Op, attrs: &OpAttrs, x: TirExpr) -> TirExpr {
    match op {
        Op::Exp => TirExpr::Exp(Box::new(x)),
        Op::Relu => TirExpr::Max(Box::new(x), Box::new(TirExpr::FloatImm(0.0))),
        Op::Sqrt => TirExpr::Sqrt(Box::new(x)),
        Op::Neg => TirExpr::Neg(Box::new(x)),
        Op::Sigmoid => TirExpr::Sigmoid(Box::new(x)),
        Op::Tanh => TirExpr::Tanh(Box::new(x)),
        Op::Silu => x.clone() * TirExpr::Sigmoid(Box::new(x)),
        Op::Gelu => {
            // 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
            let x3 = x.clone() * x.clone() * x.clone();
            let inner =
                TirExpr::FloatImm(0.797_884_560_8) * (x.clone() + TirExpr::FloatImm(0.044715) * x3);
            TirExpr::FloatImm(0.5) * x * (TirExpr::FloatImm(1.0) + TirExpr::Tanh(Box::new(inner)))
        }
        Op::Cast => {
            let dt = attrs
                .get("dtype")
                .and_then(|v| v.parse().ok())
                .unwrap_or(DataType::F32);
            TirExpr::Cast(dt, Box::new(x))
        }
        _ => unreachable!("unary legalization dispatch"),
    }
}

fn legalize_matmul(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let a_dims = dims_of(op, &args[0])?.to_vec();
    let b_dims = dims_of(op, &args[1])?.to_vec();
    let k = a_dims.last().expect("rank checked by infer").clone();
    let a = Buffer::new("X", a_dims.clone(), dtype_of(&args[0]));
    let b = Buffer::new("W", b_dims.clone(), dtype_of(&args[1]));
    let o = Buffer::new("Y", out_dims.clone(), dtype_of(&out_sinfo));

    // Loops: all output dims, then the reduction dim.
    let mut loop_dims = out_dims.clone();
    loop_dims.push(k);
    let (ivs, nest) = named_grid(&loop_dims);
    let out_idx = ivs_to_idx(&ivs[..out_dims.len()]);
    let kv = PrimExpr::from(ivs[out_dims.len()].clone());

    // a index: batch dims + [i, k]
    let mut a_idx = out_idx[..out_dims.len() - 1].to_vec();
    a_idx.push(kv.clone());
    // b index: 2-D ([k, j]) or batched ([batch.., k, j]).
    let b_idx = if b_dims.len() == 2 {
        vec![kv.clone(), out_idx[out_dims.len() - 1].clone()]
    } else {
        let mut idx = out_idx[..out_dims.len() - 2].to_vec();
        idx.push(kv.clone());
        idx.push(out_idx[out_dims.len() - 1].clone());
        idx
    };

    let init = Stmt::IfEq {
        lhs: kv,
        rhs: 0.into(),
        then: Box::new(Stmt::store(&o, out_idx.clone(), TirExpr::FloatImm(0.0))),
    };
    let update = Stmt::store(
        &o,
        out_idx.clone(),
        TirExpr::load(&o, out_idx) + TirExpr::load(&a, a_idx) * TirExpr::load(&b, b_idx),
    );
    let body = nest.build(Stmt::seq(vec![init, update]));
    Ok(PrimFunc::new(func_name, vec![a, b, o], 1, body))
}

fn legalize_reshape(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let in_dims = dims_of(op, &args[0])?.to_vec();
    let x = Buffer::new("X", in_dims.clone(), dtype_of(&args[0]));
    let o = Buffer::new("O", out_dims.clone(), dtype_of(&out_sinfo));
    // Leading dims the two shapes share index one-to-one. Only the rest is
    // linearized and delinearized, so no div/mod by a shared dim is emitted
    // — for a symbolic one (`batch`, `seq`) the simplifier could not fold it.
    let shared = out_dims
        .iter()
        .zip(&in_dims)
        .take_while(|(o, i)| o == i)
        .count();
    // A reshape that only merges trailing input dims (merge heads, flatten)
    // walks the input grid and stores at the linearized index, so every
    // index stays affine. Any other walks the output grid and delinearizes.
    let merge = out_dims.len() == shared + 1 && in_dims.len() > shared + 1;
    let walked = if merge { &in_dims } else { &out_dims };
    let (ivs, nest) = named_grid(walked);
    let idx = ivs_to_idx(&ivs);
    let mut linear = PrimExpr::Int(0);
    for (iv, d) in idx.iter().zip(walked).skip(shared) {
        linear = linear * d.clone() + iv.clone();
    }
    let mut other = idx[..shared].to_vec();
    let store = if merge {
        other.push(linear);
        Stmt::store(&o, other, TirExpr::load(&x, idx))
    } else {
        other.resize(in_dims.len(), PrimExpr::Int(0));
        let mut rem = linear;
        for i in (shared..in_dims.len()).rev() {
            if i == shared {
                other[i] = rem.clone();
            } else {
                other[i] = rem.clone().floor_mod(in_dims[i].clone());
                rem = rem.floor_div(in_dims[i].clone());
            }
        }
        Stmt::store(&o, idx, TirExpr::load(&x, other))
    };
    Ok(PrimFunc::new(func_name, vec![x, o], 1, nest.build(store)))
}

fn legalize_permute(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let in_dims = dims_of(op, &args[0])?.to_vec();
    let axes = attr_axes(op, attrs, "axes", in_dims.len())?;
    let x = Buffer::new("X", in_dims.clone(), dtype_of(&args[0]));
    let o = Buffer::new("O", out_dims.clone(), dtype_of(&out_sinfo));
    let (ivs, nest) = named_grid(&out_dims);
    let out_idx = ivs_to_idx(&ivs);
    let mut in_idx = vec![PrimExpr::Int(0); in_dims.len()];
    for (j, &src_axis) in axes.iter().enumerate() {
        in_idx[src_axis] = out_idx[j].clone();
    }
    let body = nest.build(Stmt::store(&o, out_idx, TirExpr::load(&x, in_idx)));
    Ok(PrimFunc::new(func_name, vec![x, o], 1, body))
}

fn legalize_concat(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let axis = attr_i64(op, attrs, "axis")? as usize;
    let o = Buffer::new("O", out_dims, dtype_of(&out_sinfo));
    let mut params = Vec::new();
    let mut parts = Vec::new();
    let mut offset = PrimExpr::Int(0);
    for (t, arg) in args.iter().enumerate() {
        let dims = dims_of(op, arg)?.to_vec();
        let buf = Buffer::new(format!("X{t}"), dims.clone(), dtype_of(arg));
        let (ivs, nest) = named_grid(&dims);
        let in_idx = ivs_to_idx(&ivs);
        let mut out_idx = in_idx.clone();
        out_idx[axis] = out_idx[axis].clone() + offset.clone();
        parts.push(nest.build(Stmt::store(&o, out_idx, TirExpr::load(&buf, in_idx))));
        offset = offset + dims[axis].clone();
        params.push(buf);
    }
    params.push(o);
    Ok(PrimFunc::new(func_name, params, 1, Stmt::seq(parts)))
}

fn legalize_take(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let table_dims = dims_of(op, &args[0])?.to_vec();
    let idx_dims = dims_of(op, &args[1])?.to_vec();
    let table = Buffer::new("T", table_dims.clone(), dtype_of(&args[0]));
    let indices = Buffer::new("I", idx_dims.clone(), dtype_of(&args[1]));
    let o = Buffer::new("O", out_dims.clone(), dtype_of(&out_sinfo));
    let (ivs, nest) = named_grid(&out_dims);
    let out_idx = ivs_to_idx(&ivs);
    let gather = TirExpr::load(&indices, out_idx[..idx_dims.len()].to_vec());
    let mut dyn_idx: Vec<TirExpr> = vec![gather];
    for iv in &out_idx[idx_dims.len()..] {
        dyn_idx.push(TirExpr::Index(iv.clone()));
    }
    let body = nest.build(Stmt::store(
        &o,
        out_idx,
        TirExpr::LoadDyn(table.clone(), dyn_idx),
    ));
    Ok(PrimFunc::new(func_name, vec![table, indices, o], 1, body))
}

fn legalize_reduce(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let in_dims = dims_of(op, &args[0])?.to_vec();
    let axis = attr_i64(op, attrs, "axis")? as usize;
    let x = Buffer::new("X", in_dims.clone(), dtype_of(&args[0]));
    let o = Buffer::new("O", out_dims.clone(), dtype_of(&out_sinfo));
    let mut loop_dims = out_dims.clone();
    loop_dims.push(in_dims[axis].clone());
    let (ivs, nest) = named_grid(&loop_dims);
    let out_idx = ivs_to_idx(&ivs[..out_dims.len()]);
    let kv = PrimExpr::from(ivs[out_dims.len()].clone());
    let mut in_idx = out_idx.clone();
    in_idx.insert(axis, kv.clone());
    let mut term = TirExpr::load(&x, in_idx);
    if op == Op::Mean {
        term = term
            / TirExpr::Cast(
                DataType::F32,
                Box::new(TirExpr::Index(in_dims[axis].clone())),
            );
    }
    let init = Stmt::IfEq {
        lhs: kv,
        rhs: 0.into(),
        then: Box::new(Stmt::store(&o, out_idx.clone(), TirExpr::FloatImm(0.0))),
    };
    let update = Stmt::store(&o, out_idx.clone(), TirExpr::load(&o, out_idx) + term);
    let body = nest.build(Stmt::seq(vec![init, update]));
    Ok(PrimFunc::new(func_name, vec![x, o], 1, body))
}

fn legalize_softmax(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let _ = op.infer(args, attrs)?;
    let dims = dims_of(op, &args[0])?.to_vec();
    let dt = dtype_of(&args[0]);
    let x = Buffer::new("X", dims.clone(), dt);
    let o = Buffer::new("O", dims.clone(), dt);
    let outer = dims[..dims.len() - 1].to_vec();
    let d = dims[dims.len() - 1].clone();
    let mbuf = Buffer::with_scope("row_max", outer.clone(), DataType::F32, MemScope::Local);
    let sbuf = Buffer::with_scope("row_sum", outer.clone(), DataType::F32, MemScope::Local);

    let mut loop_dims = outer.clone();
    loop_dims.push(d);

    // Pass 1: running maximum.
    let (iv1, nest1) = named_grid(&loop_dims);
    let o_idx1 = ivs_to_idx(&iv1[..outer.len()]);
    let k1 = PrimExpr::from(iv1[outer.len()].clone());
    let full1 = {
        let mut v = o_idx1.clone();
        v.push(k1.clone());
        v
    };
    let pass1 = nest1.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: k1.clone(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &mbuf,
                o_idx1.clone(),
                TirExpr::FloatImm(f64::NEG_INFINITY),
            )),
        },
        Stmt::store(
            &mbuf,
            o_idx1.clone(),
            TirExpr::Max(
                Box::new(TirExpr::load(&mbuf, o_idx1.clone())),
                Box::new(TirExpr::load(&x, full1)),
            ),
        ),
    ]));

    // Pass 2: exponential sum.
    let (iv2, nest2) = named_grid(&loop_dims);
    let o_idx2 = ivs_to_idx(&iv2[..outer.len()]);
    let k2 = PrimExpr::from(iv2[outer.len()].clone());
    let full2 = {
        let mut v = o_idx2.clone();
        v.push(k2.clone());
        v
    };
    let pass2 = nest2.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: k2.clone(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(&sbuf, o_idx2.clone(), TirExpr::FloatImm(0.0))),
        },
        Stmt::store(
            &sbuf,
            o_idx2.clone(),
            TirExpr::load(&sbuf, o_idx2.clone())
                + TirExpr::Exp(Box::new(
                    TirExpr::load(&x, full2) - TirExpr::load(&mbuf, o_idx2.clone()),
                )),
        ),
    ]));

    // Pass 3: normalize.
    let (iv3, nest3) = named_grid(&loop_dims);
    let o_idx3 = ivs_to_idx(&iv3[..outer.len()]);
    let k3 = PrimExpr::from(iv3[outer.len()].clone());
    let full3 = {
        let mut v = o_idx3.clone();
        v.push(k3);
        v
    };
    let pass3 = nest3.build(Stmt::store(
        &o,
        full3.clone(),
        TirExpr::Exp(Box::new(
            TirExpr::load(&x, full3) - TirExpr::load(&mbuf, o_idx3.clone()),
        )) / TirExpr::load(&sbuf, o_idx3),
    ));

    let body = Stmt::Alloc {
        buffer: mbuf,
        body: Box::new(Stmt::Alloc {
            buffer: sbuf,
            body: Box::new(Stmt::seq(vec![pass1, pass2, pass3])),
        }),
    };
    Ok(PrimFunc::new(func_name, vec![x, o], 1, body))
}

fn legalize_rms_norm(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let _ = op.infer(args, attrs)?;
    let dims = dims_of(op, &args[0])?.to_vec();
    let w_dims = dims_of(op, &args[1])?.to_vec();
    let dt = dtype_of(&args[0]);
    let eps = attr_f64_or(attrs, "eps", 1e-5);
    let x = Buffer::new("X", dims.clone(), dt);
    let w = Buffer::new("W", w_dims, dt);
    let o = Buffer::new("O", dims.clone(), dt);
    let outer = dims[..dims.len() - 1].to_vec();
    let d = dims[dims.len() - 1].clone();
    let ss = Buffer::with_scope("sq_sum", outer.clone(), DataType::F32, MemScope::Local);

    let mut loop_dims = outer.clone();
    loop_dims.push(d.clone());

    let (iv1, nest1) = named_grid(&loop_dims);
    let o_idx1 = ivs_to_idx(&iv1[..outer.len()]);
    let k1 = PrimExpr::from(iv1[outer.len()].clone());
    let full1 = {
        let mut v = o_idx1.clone();
        v.push(k1.clone());
        v
    };
    let xv = TirExpr::load(&x, full1);
    let accumulate = nest1.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: k1,
            rhs: 0.into(),
            then: Box::new(Stmt::store(&ss, o_idx1.clone(), TirExpr::FloatImm(0.0))),
        },
        Stmt::store(
            &ss,
            o_idx1.clone(),
            TirExpr::load(&ss, o_idx1) + xv.clone() * xv,
        ),
    ]));

    let (iv2, nest2) = named_grid(&loop_dims);
    let o_idx2 = ivs_to_idx(&iv2[..outer.len()]);
    let k2 = PrimExpr::from(iv2[outer.len()].clone());
    let full2 = {
        let mut v = o_idx2.clone();
        v.push(k2.clone());
        v
    };
    let mean_sq =
        TirExpr::load(&ss, o_idx2) / TirExpr::Cast(DataType::F32, Box::new(TirExpr::Index(d)));
    let normalize = nest2.build(Stmt::store(
        &o,
        full2.clone(),
        TirExpr::load(&x, full2) * TirExpr::load(&w, vec![k2])
            / TirExpr::Sqrt(Box::new(mean_sq + TirExpr::FloatImm(eps))),
    ));

    let body = Stmt::Alloc {
        buffer: ss,
        body: Box::new(Stmt::seq(vec![accumulate, normalize])),
    };
    Ok(PrimFunc::new(func_name, vec![x, w, o], 1, body))
}

fn legalize_layer_norm(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let _ = op.infer(args, attrs)?;
    let dims = dims_of(op, &args[0])?.to_vec();
    let dt = dtype_of(&args[0]);
    let eps = attr_f64_or(attrs, "eps", 1e-5);
    let x = Buffer::new("X", dims.clone(), dt);
    let gamma = Buffer::new("G", vec![dims[dims.len() - 1].clone()], dt);
    let beta = Buffer::new("B", vec![dims[dims.len() - 1].clone()], dt);
    let o = Buffer::new("O", dims.clone(), dt);
    let outer = dims[..dims.len() - 1].to_vec();
    let d = dims[dims.len() - 1].clone();
    let mean = Buffer::with_scope("mean", outer.clone(), DataType::F32, MemScope::Local);
    let var = Buffer::with_scope("var", outer.clone(), DataType::F32, MemScope::Local);

    let mut loop_dims = outer.clone();
    loop_dims.push(d.clone());
    let inv_d = |e: TirExpr, d: &PrimExpr| {
        e / TirExpr::Cast(DataType::F32, Box::new(TirExpr::Index(d.clone())))
    };

    // Pass 1: mean.
    let (iv1, nest1) = named_grid(&loop_dims);
    let o1 = ivs_to_idx(&iv1[..outer.len()]);
    let k1 = PrimExpr::from(iv1[outer.len()].clone());
    let full1 = {
        let mut v = o1.clone();
        v.push(k1.clone());
        v
    };
    let pass1 = nest1.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: k1,
            rhs: 0.into(),
            then: Box::new(Stmt::store(&mean, o1.clone(), TirExpr::FloatImm(0.0))),
        },
        Stmt::store(
            &mean,
            o1.clone(),
            TirExpr::load(&mean, o1.clone()) + inv_d(TirExpr::load(&x, full1), &d),
        ),
    ]));

    // Pass 2: variance.
    let (iv2, nest2) = named_grid(&loop_dims);
    let o2 = ivs_to_idx(&iv2[..outer.len()]);
    let k2 = PrimExpr::from(iv2[outer.len()].clone());
    let full2 = {
        let mut v = o2.clone();
        v.push(k2.clone());
        v
    };
    let centered = TirExpr::load(&x, full2) - TirExpr::load(&mean, o2.clone());
    let pass2 = nest2.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: k2,
            rhs: 0.into(),
            then: Box::new(Stmt::store(&var, o2.clone(), TirExpr::FloatImm(0.0))),
        },
        Stmt::store(
            &var,
            o2.clone(),
            TirExpr::load(&var, o2.clone()) + inv_d(centered.clone() * centered, &d),
        ),
    ]));

    // Pass 3: normalize + affine.
    let (iv3, nest3) = named_grid(&loop_dims);
    let o3 = ivs_to_idx(&iv3[..outer.len()]);
    let k3 = PrimExpr::from(iv3[outer.len()].clone());
    let full3 = {
        let mut v = o3.clone();
        v.push(k3.clone());
        v
    };
    let norm = (TirExpr::load(&x, full3.clone()) - TirExpr::load(&mean, o3.clone()))
        / TirExpr::Sqrt(Box::new(TirExpr::load(&var, o3) + TirExpr::FloatImm(eps)));
    let pass3 = nest3.build(Stmt::store(
        &o,
        full3,
        norm * TirExpr::load(&gamma, vec![k3.clone()]) + TirExpr::load(&beta, vec![k3]),
    ));

    let body = Stmt::Alloc {
        buffer: mean,
        body: Box::new(Stmt::Alloc {
            buffer: var,
            body: Box::new(Stmt::seq(vec![pass1, pass2, pass3])),
        }),
    };
    Ok(PrimFunc::new(func_name, vec![x, gamma, beta, o], 1, body))
}

fn legalize_split(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let StructInfo::Tuple(fields) = &out_sinfo else {
        unreachable!("split infers a tuple");
    };
    let in_dims = dims_of(op, &args[0])?.to_vec();
    let dt = dtype_of(&args[0]);
    let axis = attr_i64(op, attrs, "axis")? as usize;
    let x = Buffer::new("X", in_dims, dt);
    let mut params = vec![x.clone()];
    let mut parts = Vec::new();
    for (s, field) in fields.iter().enumerate() {
        let fdims = field
            .tensor_dims()
            .ok_or(LegalizeError::CoarseShape { op: op.name() })?
            .to_vec();
        let out = Buffer::new(format!("O{s}"), fdims.clone(), dt);
        let (ivs, nest) = named_grid(&fdims);
        let out_idx = ivs_to_idx(&ivs);
        let mut in_idx = out_idx.clone();
        in_idx[axis] = in_idx[axis].clone() + fdims[axis].clone() * PrimExpr::Int(s as i64);
        parts.push(nest.build(Stmt::store(&out, out_idx, TirExpr::load(&x, in_idx))));
        params.push(out);
    }
    let num_outputs = fields.len();
    Ok(PrimFunc::new(
        func_name,
        params,
        num_outputs,
        Stmt::seq(parts),
    ))
}

fn legalize_slice(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let out_sinfo = op.infer(args, attrs)?;
    let out_dims = dims_of(op, &out_sinfo)?.to_vec();
    let in_dims = dims_of(op, &args[0])?.to_vec();
    let dt = dtype_of(&args[0]);
    let axis = attr_i64(op, attrs, "axis")? as usize;
    let begin = attr_i64(op, attrs, "begin")?;
    let x = Buffer::new("X", in_dims, dt);
    let o = Buffer::new("O", out_dims.clone(), dt);
    let (ivs, nest) = named_grid(&out_dims);
    let out_idx = ivs_to_idx(&ivs);
    let mut in_idx = out_idx.clone();
    in_idx[axis] = in_idx[axis].clone() + PrimExpr::Int(begin);
    let body = nest.build(Stmt::store(&o, out_idx, TirExpr::load(&x, in_idx)));
    Ok(PrimFunc::new(func_name, vec![x, o], 1, body))
}

fn legalize_attention(
    op: Op,
    attrs: &OpAttrs,
    args: &[StructInfo],
    func_name: &str,
) -> Result<PrimFunc, LegalizeError> {
    let _ = op.infer(args, attrs)?;
    let q_dims = dims_of(op, &args[0])?.to_vec();
    let k_dims = dims_of(op, &args[1])?.to_vec();
    let dt = dtype_of(&args[0]);
    let scale = attr_f64_or(attrs, "scale", 1.0);
    let causal = attrs.get("causal").map(String::as_str) == Some("true");

    let (b, h, s, d) = (
        q_dims[0].clone(),
        q_dims[1].clone(),
        q_dims[2].clone(),
        q_dims[3].clone(),
    );
    let skv = k_dims[2].clone();
    // Grouped-query attention: query head h reads kv head h // group.
    let group: i64 = match (q_dims[1].as_int(), k_dims[1].as_int()) {
        (Some(hq), Some(hkv)) if hkv > 0 => hq / hkv,
        _ => 1,
    };
    let kv_head = |h: PrimExpr| -> PrimExpr {
        if group == 1 {
            h
        } else {
            h.floor_div(group.into())
        }
    };

    let q = Buffer::new("Q", q_dims.clone(), dt);
    let k = Buffer::new("K", k_dims.clone(), dt);
    let v = Buffer::new("V", k_dims.clone(), dt);
    let o = Buffer::new("O", q_dims.clone(), dt);
    let scores = Buffer::with_scope(
        "scores",
        vec![b.clone(), h.clone(), s.clone(), skv.clone()],
        DataType::F32,
        MemScope::Local,
    );
    let mbuf = Buffer::with_scope(
        "row_max",
        vec![b.clone(), h.clone(), s.clone()],
        DataType::F32,
        MemScope::Local,
    );
    let sbuf = Buffer::with_scope(
        "row_sum",
        vec![b.clone(), h.clone(), s.clone()],
        DataType::F32,
        MemScope::Local,
    );

    // Pass 1: scores[b,h,i,j] = scale * sum_kd q·k (+ causal mask)
    let (iv1, nest1) = grid(&[
        ("b", b.clone()),
        ("h", h.clone()),
        ("i", s.clone()),
        ("j", skv.clone()),
        ("kd", d.clone()),
    ]);
    let (bv, hv, i1, j1, kd) = (
        PrimExpr::from(iv1[0].clone()),
        PrimExpr::from(iv1[1].clone()),
        PrimExpr::from(iv1[2].clone()),
        PrimExpr::from(iv1[3].clone()),
        PrimExpr::from(iv1[4].clone()),
    );
    let sc_idx1 = vec![bv.clone(), hv.clone(), i1.clone(), j1.clone()];
    let pass1 = nest1.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: kd.clone(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &scores,
                sc_idx1.clone(),
                TirExpr::FloatImm(0.0),
            )),
        },
        Stmt::store(
            &scores,
            sc_idx1.clone(),
            TirExpr::load(&scores, sc_idx1.clone())
                + TirExpr::load(&q, vec![bv.clone(), hv.clone(), i1.clone(), kd.clone()])
                    * TirExpr::load(&k, vec![bv, kv_head(hv), j1, kd]),
        ),
    ]));

    // Pass 2: scale + causal mask.
    let (iv2, nest2) = grid(&[
        ("b", b.clone()),
        ("h", h.clone()),
        ("i", s.clone()),
        ("j", skv.clone()),
    ]);
    let sc_idx2: Vec<PrimExpr> = ivs_to_idx(&iv2);
    let scaled = TirExpr::load(&scores, sc_idx2.clone()) * TirExpr::FloatImm(scale);
    let masked = if causal {
        // Allowed when j <= i + (skv - s); queries align to the cache tail.
        let i = sc_idx2[2].clone();
        let j = sc_idx2[3].clone();
        TirExpr::Select(
            Box::new(TirExpr::IndexLe(j, i + skv.clone() - s.clone())),
            Box::new(scaled.clone()),
            Box::new(TirExpr::FloatImm(-1e9)),
        )
    } else {
        scaled
    };
    let pass2 = nest2.build(Stmt::store(&scores, sc_idx2, masked));

    // Pass 3-4: softmax statistics over j.
    let (iv3, nest3) = grid(&[
        ("b", b.clone()),
        ("h", h.clone()),
        ("i", s.clone()),
        ("j", skv.clone()),
    ]);
    let row3 = ivs_to_idx(&iv3[..3]);
    let j3 = PrimExpr::from(iv3[3].clone());
    let full3 = {
        let mut x = row3.clone();
        x.push(j3.clone());
        x
    };
    let pass3 = nest3.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: j3.clone(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &mbuf,
                row3.clone(),
                TirExpr::FloatImm(f64::NEG_INFINITY),
            )),
        },
        Stmt::store(
            &mbuf,
            row3.clone(),
            TirExpr::Max(
                Box::new(TirExpr::load(&mbuf, row3.clone())),
                Box::new(TirExpr::load(&scores, full3)),
            ),
        ),
    ]));
    let (iv4, nest4) = grid(&[
        ("b", b.clone()),
        ("h", h.clone()),
        ("i", s.clone()),
        ("j", skv.clone()),
    ]);
    let row4 = ivs_to_idx(&iv4[..3]);
    let j4 = PrimExpr::from(iv4[3].clone());
    let full4 = {
        let mut x = row4.clone();
        x.push(j4.clone());
        x
    };
    let pass4 = nest4.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: j4.clone(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(&sbuf, row4.clone(), TirExpr::FloatImm(0.0))),
        },
        Stmt::store(
            &sbuf,
            row4.clone(),
            TirExpr::load(&sbuf, row4.clone())
                + TirExpr::Exp(Box::new(
                    TirExpr::load(&scores, full4) - TirExpr::load(&mbuf, row4.clone()),
                )),
        ),
    ]));

    // Pass 5: weighted sum over v.
    let (iv5, nest5) = grid(&[("b", b), ("h", h), ("i", s), ("kd", d), ("j", skv)]);
    let (b5, h5, i5, kd5, j5) = (
        PrimExpr::from(iv5[0].clone()),
        PrimExpr::from(iv5[1].clone()),
        PrimExpr::from(iv5[2].clone()),
        PrimExpr::from(iv5[3].clone()),
        PrimExpr::from(iv5[4].clone()),
    );
    let out_idx = vec![b5.clone(), h5.clone(), i5.clone(), kd5.clone()];
    let row5 = vec![b5.clone(), h5.clone(), i5.clone()];
    let weight = TirExpr::Exp(Box::new(
        TirExpr::load(&scores, vec![b5.clone(), h5.clone(), i5, j5.clone()])
            - TirExpr::load(&mbuf, row5.clone()),
    )) / TirExpr::load(&sbuf, row5);
    let pass5 = nest5.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: j5.clone(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(&o, out_idx.clone(), TirExpr::FloatImm(0.0))),
        },
        Stmt::store(
            &o,
            out_idx.clone(),
            TirExpr::load(&o, out_idx) + weight * TirExpr::load(&v, vec![b5, kv_head(h5), j5, kd5]),
        ),
    ]));

    let body = Stmt::Alloc {
        buffer: scores,
        body: Box::new(Stmt::Alloc {
            buffer: mbuf,
            body: Box::new(Stmt::Alloc {
                buffer: sbuf,
                body: Box::new(Stmt::seq(vec![pass1, pass2, pass3, pass4, pass5])),
            }),
        }),
    };
    Ok(PrimFunc::new(func_name, vec![q, k, v, o], 1, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::DataType;
    use relax_tir::{analysis, interp, NDArray};

    fn t32(dims: Vec<PrimExpr>) -> StructInfo {
        StructInfo::tensor(dims, DataType::F32)
    }

    #[test]
    fn binary_add_executes() {
        let n = Var::new("n");
        let f = legalize(
            Op::Add,
            &OpAttrs::new(),
            &[t32(vec![n.clone().into()]), t32(vec![n.into()])],
            "add",
        )
        .unwrap();
        let a = NDArray::from_f64(&[3], DataType::F32, vec![1., 2., 3.]).unwrap();
        let b = NDArray::from_f64(&[3], DataType::F32, vec![10., 20., 30.]).unwrap();
        let o = NDArray::zeros(&[3], DataType::F32);
        interp::run(&f, &[a, b, o.clone()]).unwrap();
        assert_eq!(o.to_f64_vec(), vec![11., 22., 33.]);
        assert_eq!(
            analysis::pattern_kind(&f),
            analysis::PatternKind::ElementWise
        );
    }

    #[test]
    fn bias_broadcast_executes() {
        let n = Var::new("n");
        let f = legalize(
            Op::Add,
            &OpAttrs::new(),
            &[t32(vec![n.into(), 2.into()]), t32(vec![2.into()])],
            "add_bias",
        )
        .unwrap();
        let a = NDArray::from_f64(&[2, 2], DataType::F32, vec![0., 1., 2., 3.]).unwrap();
        let b = NDArray::from_f64(&[2], DataType::F32, vec![10., 20.]).unwrap();
        let o = NDArray::zeros(&[2, 2], DataType::F32);
        interp::run(&f, &[a, b, o.clone()]).unwrap();
        assert_eq!(o.to_f64_vec(), vec![10., 21., 12., 23.]);
    }

    #[test]
    fn matmul_legalization_is_fma_fusible() {
        let n = Var::new("n");
        let f = legalize(
            Op::Matmul,
            &OpAttrs::new(),
            &[t32(vec![n.into(), 4.into()]), t32(vec![4.into(), 2.into()])],
            "mm",
        )
        .unwrap();
        assert_eq!(
            analysis::pattern_kind(&f),
            analysis::PatternKind::OutputEwiseFusible
        );
        let a = NDArray::from_f64(&[1, 4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        let b = NDArray::from_f64(&[4, 2], DataType::F32, (0..8).map(f64::from).collect()).unwrap();
        let o = NDArray::zeros(&[1, 2], DataType::F32);
        interp::run(&f, &[a, b, o.clone()]).unwrap();
        assert_eq!(o.to_f64_vec(), vec![40., 50.]);
    }

    #[test]
    fn reshape_flatten_round_trip() {
        let (n, s) = (Var::new("n"), Var::new("s"));
        let f = legalize(
            Op::Reshape,
            &OpAttrs::new(),
            &[
                t32(vec![n.clone().into(), s.clone().into(), 2.into(), 2.into()]),
                StructInfo::shape(vec![n.into(), s.into(), 4.into()]),
            ],
            "reshape",
        )
        .unwrap();
        let vals: Vec<f64> = (0..24).map(f64::from).collect();
        let x = NDArray::from_f64(&[2, 3, 2, 2], DataType::F32, vals.clone()).unwrap();
        let o = NDArray::zeros(&[2, 3, 4], DataType::F32);
        interp::run(&f, &[x, o.clone()]).unwrap();
        assert_eq!(o.to_f64_vec(), vals);
        assert_eq!(analysis::pattern_kind(&f), analysis::PatternKind::Injective);
        // The shared leading dims are indexed one-to-one and the merged
        // trailing dims are walked on the input grid: nothing divides.
        let text = f.to_string();
        assert!(!text.contains("//") && !text.contains('%'), "{text}");
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let n = Var::new("n");
        let f = legalize(
            Op::Softmax,
            &OpAttrs::new(),
            &[t32(vec![n.into(), 4.into()])],
            "softmax",
        )
        .unwrap();
        let x = NDArray::from_f64(
            &[2, 4],
            DataType::F32,
            vec![1., 2., 3., 4., -1., 0., 1., 2.],
        )
        .unwrap();
        let o = NDArray::zeros(&[2, 4], DataType::F32);
        interp::run(&f, &[x, o.clone()]).unwrap();
        let v = o.to_f64_vec();
        let row0: f64 = v[..4].iter().sum();
        let row1: f64 = v[4..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-5 && (row1 - 1.0).abs() < 1e-5);
        // Monotone within a row.
        assert!(v[0] < v[1] && v[1] < v[2] && v[2] < v[3]);
    }

    #[test]
    fn rms_norm_matches_reference() {
        let f = legalize(
            Op::RmsNorm,
            &OpAttrs::new(),
            &[t32(vec![1.into(), 4.into()]), t32(vec![4.into()])],
            "rms_norm",
        )
        .unwrap();
        let x = NDArray::from_f64(&[1, 4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        let w = NDArray::from_f64(&[4], DataType::F32, vec![1., 1., 1., 1.]).unwrap();
        let o = NDArray::zeros(&[1, 4], DataType::F32);
        interp::run(&f, &[x, w, o.clone()]).unwrap();
        let ms: f64 = (1. + 4. + 9. + 16.) / 4.0;
        let denom = (ms + 1e-5).sqrt();
        let got = o.to_f64_vec();
        for (g, e) in got.iter().zip([1., 2., 3., 4.]) {
            assert!((g - e / denom).abs() < 1e-5);
        }
    }

    #[test]
    fn take_gathers_rows() {
        let f = legalize(
            Op::Take,
            &OpAttrs::new(),
            &[
                t32(vec![3.into(), 2.into()]),
                StructInfo::tensor(vec![2.into()], DataType::I64),
            ],
            "take",
        )
        .unwrap();
        let table =
            NDArray::from_f64(&[3, 2], DataType::F32, vec![0., 1., 10., 11., 20., 21.]).unwrap();
        let idx = NDArray::from_i64(&[2], DataType::I64, vec![2, 0]).unwrap();
        let o = NDArray::zeros(&[2, 2], DataType::F32);
        interp::run(&f, &[table, idx, o.clone()]).unwrap();
        assert_eq!(o.to_f64_vec(), vec![20., 21., 0., 1.]);
    }

    #[test]
    fn causal_attention_masks_future() {
        let mut attrs = OpAttrs::new();
        attrs.insert("scale".into(), "1.0".into());
        attrs.insert("causal".into(), "true".into());
        let s = 2usize;
        let f = legalize(
            Op::Attention,
            &attrs,
            &[
                t32(vec![1.into(), 1.into(), (s as i64).into(), 2.into()]),
                t32(vec![1.into(), 1.into(), (s as i64).into(), 2.into()]),
                t32(vec![1.into(), 1.into(), (s as i64).into(), 2.into()]),
            ],
            "attention",
        )
        .unwrap();
        // v rows are distinguishable; q=k makes position 0 attend only to 0.
        let q = NDArray::from_f64(&[1, 1, 2, 2], DataType::F32, vec![1., 0., 0., 1.]).unwrap();
        let k = q.deep_copy();
        let v = NDArray::from_f64(&[1, 1, 2, 2], DataType::F32, vec![5., 0., 0., 7.]).unwrap();
        let o = NDArray::zeros(&[1, 1, 2, 2], DataType::F32);
        interp::run(&f, &[q, k, v, o.clone()]).unwrap();
        let out = o.to_f64_vec();
        // Row 0 attends only to position 0 -> exactly [5, 0].
        assert!((out[0] - 5.0).abs() < 1e-5 && out[1].abs() < 1e-5);
        // Row 1 mixes both rows.
        assert!(out[2] > 0.0 && out[3] > 0.0);
    }

    #[test]
    fn unique_has_no_tir_legalization() {
        let err = legalize(
            Op::Unique,
            &OpAttrs::new(),
            &[t32(vec![4.into()])],
            "unique",
        )
        .unwrap_err();
        assert!(matches!(err, LegalizeError::Unsupported { .. }));
    }

    #[test]
    fn coarse_shapes_cannot_legalize() {
        let err = legalize(
            Op::Exp,
            &OpAttrs::new(),
            &[StructInfo::tensor_ndim(2, DataType::F32)],
            "exp",
        )
        .unwrap_err();
        assert_eq!(err, LegalizeError::CoarseShape { op: "relax.exp" });
    }
}

#[cfg(test)]
mod new_op_tests {
    use super::*;
    use relax_arith::DataType;
    use relax_tir::{interp, NDArray};

    fn t32(dims: Vec<PrimExpr>) -> StructInfo {
        StructInfo::tensor(dims, DataType::F32)
    }

    #[test]
    fn layer_norm_matches_reference() {
        let f = legalize(
            Op::LayerNorm,
            &OpAttrs::new(),
            &[
                t32(vec![1.into(), 4.into()]),
                t32(vec![4.into()]),
                t32(vec![4.into()]),
            ],
            "layer_norm",
        )
        .unwrap();
        let x = NDArray::from_f64(&[1, 4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        let g = NDArray::from_f64(&[4], DataType::F32, vec![2., 2., 2., 2.]).unwrap();
        let b = NDArray::from_f64(&[4], DataType::F32, vec![0.5; 4]).unwrap();
        let o = NDArray::zeros(&[1, 4], DataType::F32);
        interp::run(&f, &[x, g, b, o.clone()]).unwrap();
        let mean = 2.5f64;
        let var = (1.5f64.powi(2) + 0.5f64.powi(2)) * 2.0 / 4.0;
        for (i, got) in o.to_f64_vec().iter().enumerate() {
            let xn = ((i + 1) as f64 - mean) / (var + 1e-5).sqrt();
            let expect = xn * 2.0 + 0.5;
            assert!((got - expect).abs() < 1e-4, "{i}: {got} vs {expect}");
        }
    }

    #[test]
    fn split_halves_along_axis() {
        let mut attrs = OpAttrs::new();
        attrs.insert("axis".into(), "1".into());
        attrs.insert("sections".into(), "2".into());
        let f = legalize(Op::Split, &attrs, &[t32(vec![2.into(), 4.into()])], "split").unwrap();
        assert_eq!(f.num_outputs(), 2);
        let x = NDArray::from_f64(&[2, 4], DataType::F32, (0..8).map(f64::from).collect()).unwrap();
        let a = NDArray::zeros(&[2, 2], DataType::F32);
        let b = NDArray::zeros(&[2, 2], DataType::F32);
        interp::run(&f, &[x, a.clone(), b.clone()]).unwrap();
        assert_eq!(a.to_f64_vec(), vec![0., 1., 4., 5.]);
        assert_eq!(b.to_f64_vec(), vec![2., 3., 6., 7.]);
    }

    #[test]
    fn split_rejects_uneven_sections() {
        let mut attrs = OpAttrs::new();
        attrs.insert("axis".into(), "0".into());
        attrs.insert("sections".into(), "3".into());
        let err = legalize(Op::Split, &attrs, &[t32(vec![4.into()])], "split").unwrap_err();
        assert!(matches!(
            err,
            LegalizeError::Infer(InferError::ShapeConflict { .. })
        ));
    }

    #[test]
    fn slice_extracts_interior_window() {
        let mut attrs = OpAttrs::new();
        attrs.insert("axis".into(), "0".into());
        attrs.insert("begin".into(), "1".into());
        attrs.insert("end".into(), "3".into());
        let n = relax_arith::Var::new("c");
        let f = legalize(Op::Slice, &attrs, &[t32(vec![4.into(), n.into()])], "slice").unwrap();
        let x = NDArray::from_f64(&[4, 2], DataType::F32, (0..8).map(f64::from).collect()).unwrap();
        let o = NDArray::zeros(&[2, 2], DataType::F32);
        interp::run(&f, &[x, o.clone()]).unwrap();
        assert_eq!(o.to_f64_vec(), vec![2., 3., 4., 5.]);
        // Out-of-range slices are statically rejected.
        let mut bad = OpAttrs::new();
        bad.insert("axis".into(), "0".into());
        bad.insert("begin".into(), "2".into());
        bad.insert("end".into(), "9".into());
        assert!(legalize(Op::Slice, &bad, &[t32(vec![4.into()])], "s").is_err());
    }

    #[test]
    fn split_through_the_whole_pipeline() {
        // Split the symbolic axis of (n, 4) into two (n, 2) halves, then
        // add them: exercises tuple-returning call_tir end to end.
        use crate::builder::BlockBuilder;
        use crate::expr::Expr;
        let mut bb = BlockBuilder::new();
        let n = relax_arith::Var::new("n");
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![n.into(), 4.into()], DataType::F32),
            )],
        );
        bb.begin_dataflow();
        let attrs: OpAttrs = [
            ("axis".to_string(), "1".to_string()),
            ("sections".to_string(), "2".to_string()),
        ]
        .into_iter()
        .collect();
        let halves = bb
            .emit_op_attrs(Op::Split, vec![p[0].clone().into()], attrs)
            .unwrap();
        let a = bb
            .emit(Expr::TupleGetItem(Box::new(halves.clone().into()), 0))
            .unwrap();
        let b = bb
            .emit(Expr::TupleGetItem(Box::new(halves.into()), 1))
            .unwrap();
        let out = bb
            .emit_output(Expr::op_call(Op::Add, vec![a.into(), b.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let m = bb.finish();
        assert!(crate::wellformed::assert_well_formed(&m).is_ok());
    }
}
