//! The high-level operator registry: names, shape-deduction rules
//! (`FInferStructInfo`) and legalization to loop-level tensor programs.

mod legalize;

pub use legalize::{legalize, LegalizeError};

use std::fmt;

use relax_arith::{Analyzer, DataType, PrimExpr};

use crate::expr::OpAttrs;
use crate::struct_info::{ShapeDesc, StructInfo};

/// A registered graph-level tensor operator.
///
/// Each operator has a *registered shape deduction rule* ([`Op::infer`])
/// that takes input annotations (and, for shape-consuming operators like
/// `reshape`, input *values*) and produces the output annotation — the
/// forward deduction of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Element-wise addition (with suffix broadcasting).
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Mul,
    /// Element-wise division.
    Divide,
    /// Element-wise maximum.
    Maximum,
    /// Element-wise exponential.
    Exp,
    /// Rectified linear unit.
    Relu,
    /// Element-wise square root.
    Sqrt,
    /// Element-wise negation.
    Neg,
    /// Logistic sigmoid.
    Sigmoid,
    /// SiLU activation `x * sigmoid(x)`.
    Silu,
    /// GELU activation (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Data type cast; attrs: `dtype`.
    Cast,
    /// Matrix multiplication; supports `[.., m, k] × [k, n]` and equal-rank
    /// batched forms.
    Matmul,
    /// Reshape; second argument is the target shape value.
    Reshape,
    /// Flatten to one dimension.
    Flatten,
    /// Dimension permutation; attrs: `axes` (comma-separated).
    Permute,
    /// Concatenation; attrs: `axis`.
    Concat,
    /// Embedding lookup along axis 0: `take(table, indices)`.
    Take,
    /// Sum reduction; attrs: `axis`.
    Sum,
    /// Mean reduction; attrs: `axis`.
    Mean,
    /// Softmax over the last axis.
    Softmax,
    /// Root-mean-square normalization over the last axis; args
    /// `(x, weight)`; attrs: `eps`.
    RmsNorm,
    /// Splits a tensor into equal sections along an axis; attrs: `axis`,
    /// `sections`. Produces a tuple.
    Split,
    /// Static slice along one axis; attrs: `axis`, `begin`, `end`.
    Slice,
    /// Layer normalization over the last axis; args `(x, gamma, beta)`;
    /// attrs: `eps`.
    LayerNorm,
    /// Data-dependent deduplication; output shape unknown at compile time.
    Unique,
    /// Fused scaled-dot-product attention `(q, k, v)` with shapes
    /// `[b, h, s, d]`; attrs: `scale`, `causal`.
    Attention,
}

impl Op {
    /// The canonical operator name, e.g. `"relax.matmul"`.
    pub fn name(self) -> &'static str {
        match self {
            Op::Add => "relax.add",
            Op::Sub => "relax.sub",
            Op::Mul => "relax.mul",
            Op::Divide => "relax.divide",
            Op::Maximum => "relax.maximum",
            Op::Exp => "relax.exp",
            Op::Relu => "relax.relu",
            Op::Sqrt => "relax.sqrt",
            Op::Neg => "relax.neg",
            Op::Sigmoid => "relax.sigmoid",
            Op::Silu => "relax.silu",
            Op::Gelu => "relax.gelu",
            Op::Tanh => "relax.tanh",
            Op::Cast => "relax.cast",
            Op::Matmul => "relax.matmul",
            Op::Reshape => "relax.reshape",
            Op::Flatten => "relax.flatten",
            Op::Permute => "relax.permute",
            Op::Concat => "relax.concat",
            Op::Take => "relax.take",
            Op::Sum => "relax.sum",
            Op::Mean => "relax.mean",
            Op::Softmax => "relax.softmax",
            Op::RmsNorm => "relax.rms_norm",
            Op::Split => "relax.split",
            Op::Slice => "relax.slice",
            Op::LayerNorm => "relax.layer_norm",
            Op::Unique => "relax.unique",
            Op::Attention => "relax.attention",
        }
    }

    /// Short name used when generating tensor-program names during
    /// legalization (e.g. `matmul`, `rms_norm`).
    pub fn short_name(self) -> &'static str {
        self.name().trim_start_matches("relax.")
    }

    /// All registered operators.
    pub fn all() -> &'static [Op] {
        &[
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Divide,
            Op::Maximum,
            Op::Exp,
            Op::Relu,
            Op::Sqrt,
            Op::Neg,
            Op::Sigmoid,
            Op::Silu,
            Op::Gelu,
            Op::Tanh,
            Op::Cast,
            Op::Matmul,
            Op::Reshape,
            Op::Flatten,
            Op::Permute,
            Op::Concat,
            Op::Take,
            Op::Sum,
            Op::Mean,
            Op::Softmax,
            Op::RmsNorm,
            Op::Split,
            Op::Slice,
            Op::LayerNorm,
            Op::Unique,
            Op::Attention,
        ]
    }

    /// Looks up an operator by its short name (`"matmul"`, `"rms_norm"`).
    pub fn from_short_name(name: &str) -> Option<Op> {
        Op::all().iter().copied().find(|o| o.short_name() == name)
    }

    /// Deduces the output annotation from the inputs (forward deduction).
    ///
    /// # Errors
    ///
    /// Returns [`InferError`] when arity, ranks, dtypes, or provably
    /// mismatched dimensions rule the call out.
    pub fn infer(self, args: &[StructInfo], attrs: &OpAttrs) -> Result<StructInfo, InferError> {
        match self {
            Op::Add | Op::Sub | Op::Mul | Op::Divide | Op::Maximum => {
                expect_arity(self, args, 2)?;
                infer_broadcast_binary(self, &args[0], &args[1])
            }
            Op::Exp
            | Op::Relu
            | Op::Sqrt
            | Op::Neg
            | Op::Sigmoid
            | Op::Silu
            | Op::Gelu
            | Op::Tanh
            | Op::Softmax => {
                expect_arity(self, args, 1)?;
                expect_tensor(self, &args[0]).map(|_| args[0].clone())
            }
            Op::Cast => {
                expect_arity(self, args, 1)?;
                expect_tensor(self, &args[0])?;
                let dtype = attr_dtype(self, attrs, "dtype")?;
                match &args[0] {
                    StructInfo::Tensor { shape, .. } => Ok(StructInfo::Tensor {
                        shape: shape.clone(),
                        dtype: Some(dtype),
                    }),
                    _ => unreachable!("checked by expect_tensor"),
                }
            }
            Op::Matmul => {
                expect_arity(self, args, 2)?;
                infer_matmul(self, &args[0], &args[1])
            }
            Op::Reshape => {
                expect_arity(self, args, 2)?;
                expect_tensor(self, &args[0])?;
                let dtype = args[0].tensor_dtype();
                match &args[1] {
                    StructInfo::Shape(ShapeDesc::Known(dims)) => {
                        check_same_numel(self, &args[0], dims)?;
                        Ok(StructInfo::Tensor {
                            shape: ShapeDesc::Known(dims.clone()),
                            dtype,
                        })
                    }
                    StructInfo::Shape(ShapeDesc::Ndim(n)) => Ok(StructInfo::Tensor {
                        shape: ShapeDesc::Ndim(*n),
                        dtype,
                    }),
                    StructInfo::Shape(ShapeDesc::Unknown) | StructInfo::Object => {
                        Ok(StructInfo::Tensor {
                            shape: ShapeDesc::Unknown,
                            dtype,
                        })
                    }
                    other => Err(InferError::BadArgument {
                        op: self.name(),
                        detail: format!("reshape target must be a Shape, got {other}"),
                    }),
                }
            }
            Op::Flatten => {
                expect_arity(self, args, 1)?;
                expect_tensor(self, &args[0])?;
                let dtype = args[0].tensor_dtype();
                match args[0].tensor_dims() {
                    Some(dims) => {
                        let numel = dims
                            .iter()
                            .cloned()
                            .fold(PrimExpr::Int(1), |acc, d| acc * d);
                        let numel = Analyzer::new().simplify(&numel);
                        Ok(StructInfo::Tensor {
                            shape: ShapeDesc::Known(vec![numel]),
                            dtype,
                        })
                    }
                    None => Ok(StructInfo::Tensor {
                        shape: ShapeDesc::Ndim(1),
                        dtype,
                    }),
                }
            }
            Op::Permute => {
                expect_arity(self, args, 1)?;
                expect_tensor(self, &args[0])?;
                let dtype = args[0].tensor_dtype();
                let dims = args[0]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "permute requires a known-shape tensor".to_string(),
                    })?;
                let axes = attr_axes(self, attrs, "axes", dims.len())?;
                Ok(StructInfo::Tensor {
                    shape: ShapeDesc::Known(axes.iter().map(|&a| dims[a].clone()).collect()),
                    dtype,
                })
            }
            Op::Concat => {
                if args.is_empty() {
                    return Err(InferError::Arity {
                        op: self.name(),
                        expected: 1,
                        actual: 0,
                    });
                }
                infer_concat(self, args, attrs)
            }
            Op::Take => {
                expect_arity(self, args, 2)?;
                let table_dims = args[0]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "take requires a known-shape table".to_string(),
                    })?;
                let dtype = args[0].tensor_dtype();
                let idx_dims = args[1]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "take requires known-shape indices".to_string(),
                    })?;
                let mut out = idx_dims.to_vec();
                out.extend(table_dims[1..].iter().cloned());
                Ok(StructInfo::Tensor {
                    shape: ShapeDesc::Known(out),
                    dtype,
                })
            }
            Op::Sum | Op::Mean => {
                expect_arity(self, args, 1)?;
                let dims = args[0]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "reduction requires a known-shape tensor".to_string(),
                    })?;
                let axis = attr_i64(self, attrs, "axis")? as usize;
                if axis >= dims.len() {
                    return Err(InferError::BadArgument {
                        op: self.name(),
                        detail: format!("axis {axis} out of range for rank {}", dims.len()),
                    });
                }
                let mut out = dims.to_vec();
                out.remove(axis);
                Ok(StructInfo::Tensor {
                    shape: ShapeDesc::Known(out),
                    dtype: args[0].tensor_dtype(),
                })
            }
            Op::RmsNorm => {
                expect_arity(self, args, 2)?;
                expect_tensor(self, &args[0])?;
                expect_tensor(self, &args[1])?;
                Ok(args[0].clone())
            }
            Op::LayerNorm => {
                expect_arity(self, args, 3)?;
                for a in args {
                    expect_tensor(self, a)?;
                }
                Ok(args[0].clone())
            }
            Op::Split => {
                expect_arity(self, args, 1)?;
                let dims = args[0]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "split requires a known-shape tensor".to_string(),
                    })?;
                let axis = attr_i64(self, attrs, "axis")? as usize;
                let sections = attr_i64(self, attrs, "sections")?;
                if axis >= dims.len() || sections < 1 {
                    return Err(InferError::BadAttr {
                        op: self.name(),
                        key: "axis/sections".to_string(),
                    });
                }
                // The split axis must divide evenly; for symbolic dims the
                // division is recorded symbolically.
                let analyzer = Analyzer::new();
                let part = match dims[axis].as_int() {
                    Some(v) if v % sections != 0 => {
                        return Err(InferError::ShapeConflict {
                            op: self.name(),
                            detail: format!("axis extent {v} not divisible by {sections}"),
                        })
                    }
                    Some(v) => PrimExpr::Int(v / sections),
                    None => analyzer.simplify(&dims[axis].clone().floor_div(sections.into())),
                };
                let mut field = dims.to_vec();
                field[axis] = part;
                let sinfo = StructInfo::Tensor {
                    shape: ShapeDesc::Known(field),
                    dtype: args[0].tensor_dtype(),
                };
                Ok(StructInfo::Tuple(vec![sinfo; sections as usize]))
            }
            Op::Slice => {
                expect_arity(self, args, 1)?;
                let dims = args[0]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "slice requires a known-shape tensor".to_string(),
                    })?;
                let axis = attr_i64(self, attrs, "axis")? as usize;
                let begin = attr_i64(self, attrs, "begin")?;
                let end = attr_i64(self, attrs, "end")?;
                if axis >= dims.len() || begin < 0 || end < begin {
                    return Err(InferError::BadAttr {
                        op: self.name(),
                        key: "axis/begin/end".to_string(),
                    });
                }
                if let Some(extent) = dims[axis].as_int() {
                    if end > extent {
                        return Err(InferError::ShapeConflict {
                            op: self.name(),
                            detail: format!("slice end {end} exceeds extent {extent}"),
                        });
                    }
                }
                let mut out = dims.to_vec();
                out[axis] = PrimExpr::Int(end - begin);
                Ok(StructInfo::Tensor {
                    shape: ShapeDesc::Known(out),
                    dtype: args[0].tensor_dtype(),
                })
            }
            Op::Unique => {
                expect_arity(self, args, 1)?;
                expect_tensor(self, &args[0])?;
                // Data-dependent: only the rank (1) and dtype are known.
                Ok(StructInfo::Tensor {
                    shape: ShapeDesc::Ndim(1),
                    dtype: args[0].tensor_dtype(),
                })
            }
            Op::Attention => {
                expect_arity(self, args, 3)?;
                let q = args[0]
                    .tensor_dims()
                    .ok_or_else(|| InferError::BadArgument {
                        op: self.name(),
                        detail: "attention requires known-shape q".to_string(),
                    })?;
                if q.len() != 4 {
                    return Err(InferError::BadArgument {
                        op: self.name(),
                        detail: format!("attention expects [b, h, s, d] q, got rank {}", q.len()),
                    });
                }
                // Grouped-query attention: the number of query heads must
                // be a multiple of the number of KV heads.
                if let Some(k) = args[1].tensor_dims() {
                    if let (Some(hq), Some(hkv)) = (q[1].as_int(), k[1].as_int()) {
                        if hkv == 0 || hq % hkv != 0 {
                            return Err(InferError::ShapeConflict {
                                op: self.name(),
                                detail: format!(
                                    "query heads {hq} not a multiple of kv heads {hkv}"
                                ),
                            });
                        }
                    }
                }
                Ok(args[0].clone())
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Error produced by operator shape deduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// Wrong number of arguments.
    Arity {
        /// Operator name.
        op: &'static str,
        /// Arguments expected.
        expected: usize,
        /// Arguments given.
        actual: usize,
    },
    /// An argument had the wrong structure.
    BadArgument {
        /// Operator name.
        op: &'static str,
        /// Detail.
        detail: String,
    },
    /// Two dimensions were provably unequal.
    ShapeConflict {
        /// Operator name.
        op: &'static str,
        /// Detail.
        detail: String,
    },
    /// A required attribute was missing or malformed.
    BadAttr {
        /// Operator name.
        op: &'static str,
        /// Attribute key.
        key: String,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Arity {
                op,
                expected,
                actual,
            } => write!(f, "{op}: expected {expected} arguments, got {actual}"),
            InferError::BadArgument { op, detail } => write!(f, "{op}: {detail}"),
            InferError::ShapeConflict { op, detail } => {
                write!(f, "{op}: shape conflict: {detail}")
            }
            InferError::BadAttr { op, key } => {
                write!(f, "{op}: missing or malformed attribute `{key}`")
            }
        }
    }
}

impl std::error::Error for InferError {}

fn expect_arity(op: Op, args: &[StructInfo], n: usize) -> Result<(), InferError> {
    if args.len() != n {
        Err(InferError::Arity {
            op: op.name(),
            expected: n,
            actual: args.len(),
        })
    } else {
        Ok(())
    }
}

fn expect_tensor(op: Op, s: &StructInfo) -> Result<&StructInfo, InferError> {
    match s {
        StructInfo::Tensor { .. } => Ok(s),
        other => Err(InferError::BadArgument {
            op: op.name(),
            detail: format!("expected a Tensor argument, got {other}"),
        }),
    }
}

fn merge_dtype(
    op: Op,
    a: Option<DataType>,
    b: Option<DataType>,
) -> Result<Option<DataType>, InferError> {
    match (a, b) {
        (Some(x), Some(y)) if x != y => Err(InferError::BadArgument {
            op: op.name(),
            detail: format!("dtype mismatch: {x} vs {y}"),
        }),
        (Some(x), _) => Ok(Some(x)),
        (_, y) => Ok(y),
    }
}

fn infer_broadcast_binary(
    op: Op,
    a: &StructInfo,
    b: &StructInfo,
) -> Result<StructInfo, InferError> {
    expect_tensor(op, a)?;
    expect_tensor(op, b)?;
    let dtype = merge_dtype(op, a.tensor_dtype(), b.tensor_dtype())?;
    let (ad, bd) = match (a.tensor_dims(), b.tensor_dims()) {
        (Some(ad), Some(bd)) => (ad, bd),
        _ => {
            // Coarse fallback: rank of the higher-rank side if known.
            let ndim = match (a, b) {
                (StructInfo::Tensor { shape: sa, .. }, StructInfo::Tensor { shape: sb, .. }) => {
                    match (sa.ndim(), sb.ndim()) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        _ => None,
                    }
                }
                _ => None,
            };
            return Ok(StructInfo::Tensor {
                shape: match ndim {
                    Some(n) => ShapeDesc::Ndim(n),
                    None => ShapeDesc::Unknown,
                },
                dtype,
            });
        }
    };
    // Suffix broadcasting: the lower-rank operand must match the trailing
    // dimensions of the higher-rank one (or be scalar).
    let (long, short) = if ad.len() >= bd.len() {
        (ad, bd)
    } else {
        (bd, ad)
    };
    let offset = long.len() - short.len();
    let analyzer = Analyzer::new();
    for (i, sdim) in short.iter().enumerate() {
        let ldim = &long[offset + i];
        if sdim.as_int() == Some(1) {
            continue;
        }
        if sdim.is_const() && ldim.is_const() && sdim.as_int() != ldim.as_int() {
            return Err(InferError::ShapeConflict {
                op: op.name(),
                detail: format!("dimension `{sdim}` vs `{ldim}`"),
            });
        }
        let _ = analyzer; // equality beyond constants is accepted (runtime checked)
    }
    Ok(StructInfo::Tensor {
        shape: ShapeDesc::Known(long.to_vec()),
        dtype,
    })
}

fn infer_matmul(op: Op, a: &StructInfo, b: &StructInfo) -> Result<StructInfo, InferError> {
    expect_tensor(op, a)?;
    expect_tensor(op, b)?;
    let dtype = merge_dtype(op, a.tensor_dtype(), b.tensor_dtype())?;
    let (ad, bd) = match (a.tensor_dims(), b.tensor_dims()) {
        (Some(ad), Some(bd)) => (ad, bd),
        _ => {
            return Ok(StructInfo::Tensor {
                shape: ShapeDesc::Unknown,
                dtype,
            })
        }
    };
    if ad.len() < 2 || bd.len() < 2 {
        return Err(InferError::BadArgument {
            op: op.name(),
            detail: "matmul operands must have rank >= 2".to_string(),
        });
    }
    let k_a = &ad[ad.len() - 1];
    let k_b = &bd[bd.len() - 2];
    if k_a.is_const() && k_b.is_const() && k_a.as_int() != k_b.as_int() {
        return Err(InferError::ShapeConflict {
            op: op.name(),
            detail: format!("inner dimensions `{k_a}` vs `{k_b}`"),
        });
    }
    let mut out: Vec<PrimExpr>;
    if bd.len() == 2 {
        out = ad[..ad.len() - 1].to_vec();
        out.push(bd[1].clone());
    } else if ad.len() == bd.len() {
        // Batched: leading dims must agree (constants checked).
        for (x, y) in ad[..ad.len() - 2].iter().zip(&bd[..bd.len() - 2]) {
            if x.is_const() && y.is_const() && x.as_int() != y.as_int() {
                return Err(InferError::ShapeConflict {
                    op: op.name(),
                    detail: format!("batch dimensions `{x}` vs `{y}`"),
                });
            }
        }
        out = ad[..ad.len() - 1].to_vec();
        out.push(bd[bd.len() - 1].clone());
    } else {
        return Err(InferError::BadArgument {
            op: op.name(),
            detail: format!("unsupported matmul ranks {} x {}", ad.len(), bd.len()),
        });
    }
    Ok(StructInfo::Tensor {
        shape: ShapeDesc::Known(out),
        dtype,
    })
}

fn infer_concat(op: Op, args: &[StructInfo], attrs: &OpAttrs) -> Result<StructInfo, InferError> {
    let axis = attr_i64(op, attrs, "axis")? as usize;
    let mut dims: Option<Vec<PrimExpr>> = None;
    let mut dtype = None;
    for a in args {
        expect_tensor(op, a)?;
        dtype = merge_dtype(op, dtype, a.tensor_dtype())?;
        let ad = a.tensor_dims().ok_or_else(|| InferError::BadArgument {
            op: op.name(),
            detail: "concat requires known shapes".to_string(),
        })?;
        if axis >= ad.len() {
            return Err(InferError::BadArgument {
                op: op.name(),
                detail: format!("axis {axis} out of range for rank {}", ad.len()),
            });
        }
        match &mut dims {
            None => dims = Some(ad.to_vec()),
            Some(acc) => {
                if acc.len() != ad.len() {
                    return Err(InferError::ShapeConflict {
                        op: op.name(),
                        detail: "rank mismatch between concat inputs".to_string(),
                    });
                }
                acc[axis] = Analyzer::new().simplify(&(acc[axis].clone() + ad[axis].clone()));
            }
        }
    }
    Ok(StructInfo::Tensor {
        shape: ShapeDesc::Known(dims.expect("at least one arg")),
        dtype,
    })
}

fn check_same_numel(op: Op, input: &StructInfo, target: &[PrimExpr]) -> Result<(), InferError> {
    if let Some(dims) = input.tensor_dims() {
        let analyzer = Analyzer::new();
        let in_numel = dims
            .iter()
            .cloned()
            .fold(PrimExpr::Int(1), |acc, d| acc * d);
        let out_numel = target
            .iter()
            .cloned()
            .fold(PrimExpr::Int(1), |acc, d| acc * d);
        let a = analyzer.simplify(&in_numel);
        let b = analyzer.simplify(&out_numel);
        if a.is_const() && b.is_const() && a != b {
            return Err(InferError::ShapeConflict {
                op: op.name(),
                detail: format!("reshape changes element count: {a} vs {b}"),
            });
        }
    }
    Ok(())
}

/// Parses an `i64` attribute.
pub(crate) fn attr_i64(op: Op, attrs: &OpAttrs, key: &str) -> Result<i64, InferError> {
    attrs
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or(InferError::BadAttr {
            op: op.name(),
            key: key.to_string(),
        })
}

/// Parses an `f64` attribute, with a default.
pub(crate) fn attr_f64_or(attrs: &OpAttrs, key: &str, default: f64) -> f64 {
    attrs
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a permutation attribute like `"1,0"` and validates it.
pub(crate) fn attr_axes(
    op: Op,
    attrs: &OpAttrs,
    key: &str,
    rank: usize,
) -> Result<Vec<usize>, InferError> {
    let raw = attrs.get(key).ok_or(InferError::BadAttr {
        op: op.name(),
        key: key.to_string(),
    })?;
    let axes: Option<Vec<usize>> = raw.split(',').map(|s| s.trim().parse().ok()).collect();
    let axes = axes.ok_or(InferError::BadAttr {
        op: op.name(),
        key: key.to_string(),
    })?;
    let mut seen = vec![false; rank];
    if axes.len() != rank
        || axes
            .iter()
            .any(|&a| a >= rank || std::mem::replace(&mut seen[a], true))
    {
        return Err(InferError::BadAttr {
            op: op.name(),
            key: key.to_string(),
        });
    }
    Ok(axes)
}

/// Parses a dtype attribute.
pub(crate) fn attr_dtype(op: Op, attrs: &OpAttrs, key: &str) -> Result<DataType, InferError> {
    attrs
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or(InferError::BadAttr {
            op: op.name(),
            key: key.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::Var;

    fn t(dims: Vec<PrimExpr>) -> StructInfo {
        StructInfo::tensor(dims, DataType::F32)
    }

    #[test]
    fn binary_same_shape() {
        let n = Var::new("n");
        let a = t(vec![n.clone().into(), 4.into()]);
        let out = Op::Add
            .infer(&[a.clone(), a.clone()], &OpAttrs::new())
            .unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn binary_suffix_broadcast() {
        let n = Var::new("n");
        let a = t(vec![n.clone().into(), 256.into()]);
        let bias = t(vec![256.into()]);
        let out = Op::Add.infer(&[a.clone(), bias], &OpAttrs::new()).unwrap();
        assert_eq!(out, a);
        let bad = t(vec![128.into()]);
        assert!(Op::Add.infer(&[a, bad], &OpAttrs::new()).is_err());
    }

    #[test]
    fn matmul_nd_by_2d() {
        let n = Var::new("n");
        let x = t(vec![n.clone().into(), 128.into()]);
        let w = t(vec![128.into(), 256.into()]);
        let out = Op::Matmul.infer(&[x, w], &OpAttrs::new()).unwrap();
        assert_eq!(out, t(vec![n.into(), 256.into()]));
    }

    #[test]
    fn matmul_batched_and_conflicts() {
        let b = Var::new("b");
        let q = t(vec![b.clone().into(), 8.into(), 1.into(), 64.into()]);
        let k = t(vec![b.clone().into(), 8.into(), 64.into(), 32.into()]);
        let out = Op::Matmul.infer(&[q, k], &OpAttrs::new()).unwrap();
        assert_eq!(out, t(vec![b.into(), 8.into(), 1.into(), 32.into()]));
        let x = t(vec![4.into(), 128.into()]);
        let w = t(vec![64.into(), 256.into()]);
        assert!(matches!(
            Op::Matmul.infer(&[x, w], &OpAttrs::new()),
            Err(InferError::ShapeConflict { .. })
        ));
    }

    #[test]
    fn reshape_and_flatten_track_symbolic_numel() {
        let n = Var::new("n");
        // Figure 3: reshape (n, 2, 2) with shape (n, 4); flatten -> (n*4,)
        let x = t(vec![n.clone().into(), 2.into(), 2.into()]);
        let target = StructInfo::shape(vec![n.clone().into(), 4.into()]);
        let reshaped = Op::Reshape.infer(&[x, target], &OpAttrs::new()).unwrap();
        assert_eq!(reshaped, t(vec![n.clone().into(), 4.into()]));
        let flat = Op::Flatten.infer(&[reshaped], &OpAttrs::new()).unwrap();
        let expected = Analyzer::new().simplify(&(PrimExpr::from(n) * 4.into()));
        assert_eq!(flat.tensor_dims().unwrap(), &[expected]);
    }

    #[test]
    fn reshape_rejects_provably_wrong_numel() {
        let x = t(vec![2.into(), 3.into()]);
        let target = StructInfo::shape(vec![7.into()]);
        assert!(matches!(
            Op::Reshape.infer(&[x, target], &OpAttrs::new()),
            Err(InferError::ShapeConflict { .. })
        ));
    }

    #[test]
    fn unique_is_data_dependent() {
        let n = Var::new("n");
        let x = t(vec![n.into()]);
        let out = Op::Unique.infer(&[x], &OpAttrs::new()).unwrap();
        assert_eq!(out, StructInfo::tensor_ndim(1, DataType::F32));
    }

    #[test]
    fn permute_applies_axes() {
        let (n, m) = (Var::new("n"), Var::new("m"));
        let x = t(vec![n.clone().into(), m.clone().into()]);
        let mut attrs = OpAttrs::new();
        attrs.insert("axes".into(), "1,0".into());
        let out = Op::Permute.infer(&[x], &attrs).unwrap();
        assert_eq!(out, t(vec![m.into(), n.into()]));
        let bad: OpAttrs = [("axes".to_string(), "0,0".to_string())]
            .into_iter()
            .collect();
        let y = t(vec![2.into(), 3.into()]);
        assert!(Op::Permute.infer(&[y], &bad).is_err());
    }

    #[test]
    fn concat_sums_axis() {
        let n = Var::new("n");
        let a = t(vec![n.clone().into(), 8.into()]);
        let b = t(vec![1.into(), 8.into()]);
        let mut attrs = OpAttrs::new();
        attrs.insert("axis".into(), "0".into());
        let out = Op::Concat.infer(&[a, b], &attrs).unwrap();
        let expected = Analyzer::new().simplify(&(PrimExpr::from(n) + 1.into()));
        assert_eq!(out.tensor_dims().unwrap()[0], expected);
    }

    #[test]
    fn take_produces_gathered_shape() {
        let s = Var::new("s");
        let table = t(vec![32000.into(), 4096.into()]);
        let idx = StructInfo::tensor(vec![1.into(), s.clone().into()], DataType::F32);
        let out = Op::Take.infer(&[table, idx], &OpAttrs::new()).unwrap();
        assert_eq!(out, t(vec![1.into(), s.into(), 4096.into()]));
    }

    #[test]
    fn cast_changes_dtype_only() {
        let n = Var::new("n");
        let x = t(vec![n.clone().into()]);
        let attrs: OpAttrs = [("dtype".to_string(), "f16".to_string())]
            .into_iter()
            .collect();
        let out = Op::Cast.infer(&[x], &attrs).unwrap();
        assert_eq!(out, StructInfo::tensor(vec![n.into()], DataType::F16));
    }

    #[test]
    fn op_names_round_trip() {
        for &op in Op::all() {
            assert_eq!(Op::from_short_name(op.short_name()), Some(op));
            assert!(op.name().starts_with("relax."));
            assert_eq!(op.to_string(), op.short_name());
        }
        assert_eq!(Op::from_short_name("nope"), None);
    }

    #[test]
    fn split_and_slice_infer() {
        let n = Var::new("n");
        let x = t(vec![n.clone().into(), 8.into()]);
        let attrs: OpAttrs = [
            ("axis".to_string(), "1".to_string()),
            ("sections".to_string(), "2".to_string()),
        ]
        .into_iter()
        .collect();
        let out = Op::Split.infer(std::slice::from_ref(&x), &attrs).unwrap();
        match out {
            StructInfo::Tuple(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].tensor_dims().unwrap()[1], PrimExpr::Int(4));
            }
            other => panic!("expected tuple, got {other}"),
        }
        // Symbolic split axis records a floor division.
        let y = t(vec![n.clone().into()]);
        let sattrs: OpAttrs = [
            ("axis".to_string(), "0".to_string()),
            ("sections".to_string(), "2".to_string()),
        ]
        .into_iter()
        .collect();
        let out = Op::Split.infer(&[y], &sattrs).unwrap();
        let StructInfo::Tuple(fields) = out else {
            panic!()
        };
        assert_eq!(
            fields[0].tensor_dims().unwrap()[0],
            Analyzer::new().simplify(&PrimExpr::from(n).floor_div(2.into()))
        );
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let a = StructInfo::tensor(vec![4.into()], DataType::F32);
        let b = StructInfo::tensor(vec![4.into()], DataType::F16);
        assert!(Op::Add.infer(&[a, b], &OpAttrs::new()).is_err());
    }
}
