//! Forward symbolic shape deduction (§4.1).
//!
//! Deduction is *forward* (an expression's annotation follows from its
//! inputs' annotations), *local* (a call is deduced from the callee's
//! signature alone — isolated symbolic relations at function boundaries),
//! and *total with a coarse fallback* (when specific information cannot be
//! inferred, a rank-level annotation is returned rather than failing).

use std::collections::HashSet;
use std::fmt;

use relax_arith::{PrimExpr, SubstMap, Var as SymVar};

use crate::expr::Expr;
use crate::module::IRModule;
use crate::op::InferError;
use crate::struct_info::{unify_struct_info, Compat, ShapeDesc, StructInfo};

/// Error raised by shape deduction.
#[derive(Debug, Clone, PartialEq)]
pub enum DeduceError {
    /// Operator-level inference failed.
    Infer(InferError),
    /// A referenced graph-level function does not exist.
    UnknownGlobal(String),
    /// A referenced tensor program does not exist.
    UnknownTir(String),
    /// Call arguments are statically incompatible with the callee signature.
    IncompatibleCall {
        /// The callee.
        callee: String,
        /// Detail.
        detail: String,
    },
    /// Tuple projection on a non-tuple or out-of-range index.
    BadTupleAccess {
        /// Human-readable detail.
        detail: String,
    },
    /// A `match_cast` target is statically impossible.
    ImpossibleMatchCast {
        /// The source annotation.
        from: String,
        /// The asserted annotation.
        to: String,
    },
}

impl fmt::Display for DeduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeduceError::Infer(e) => write!(f, "{e}"),
            DeduceError::UnknownGlobal(name) => write!(f, "unknown function `{name}`"),
            DeduceError::UnknownTir(name) => write!(f, "unknown tensor program `{name}`"),
            DeduceError::IncompatibleCall { callee, detail } => {
                write!(f, "incompatible call to `{callee}`: {detail}")
            }
            DeduceError::BadTupleAccess { detail } => write!(f, "bad tuple access: {detail}"),
            DeduceError::ImpossibleMatchCast { from, to } => {
                write!(f, "match_cast from `{from}` to `{to}` can never succeed")
            }
        }
    }
}

impl std::error::Error for DeduceError {}

impl From<InferError> for DeduceError {
    fn from(e: InferError) -> Self {
        DeduceError::Infer(e)
    }
}

/// Deduces the structural annotation of an expression against a module.
///
/// # Errors
///
/// Fails only for *statically impossible* programs (unknown callees,
/// provably conflicting shapes); coarse information degrades gracefully to
/// rank-level annotations instead.
///
/// # Examples
///
/// ```
/// use relax_core::{deduce, Expr, IRModule, Op, StructInfo, Var};
/// use relax_arith::{DataType, Var as SymVar};
/// let n = SymVar::new("n");
/// let x = Var::new("x", StructInfo::tensor(vec![n.clone().into(), 4.into()], DataType::F32));
/// let m = IRModule::new();
/// let flat = Expr::op_call(Op::Flatten, vec![x.into()]);
/// let out = deduce(&flat, &m)?;
/// assert_eq!(out.to_string(), "Tensor(((n * 4),), \"f32\")");
/// # Ok::<(), relax_core::DeduceError>(())
/// ```
pub fn deduce(expr: &Expr, module: &IRModule) -> Result<StructInfo, DeduceError> {
    #[cfg(test)]
    tests::STEPS.with(|s| s.set(s.get() + 1));
    match expr {
        Expr::Var(v) => Ok(v.struct_info().clone()),
        Expr::Constant(arr) => Ok(StructInfo::tensor(
            arr.shape()
                .iter()
                .map(|&d| PrimExpr::from(d as i64))
                .collect(),
            arr.dtype(),
        )),
        Expr::ShapeValue(dims) => Ok(StructInfo::shape(dims.clone())),
        Expr::PrimValue(e) => Ok(StructInfo::Prim(e.clone())),
        Expr::Tuple(items) => {
            let fields: Result<Vec<_>, _> = items.iter().map(|e| deduce(e, module)).collect();
            Ok(StructInfo::Tuple(fields?))
        }
        Expr::TupleGetItem(e, index) => match deduce(e, module)? {
            StructInfo::Tuple(fields) => {
                fields
                    .get(*index)
                    .cloned()
                    .ok_or_else(|| DeduceError::BadTupleAccess {
                        detail: format!("index {index} out of range for {} fields", fields.len()),
                    })
            }
            other => Err(DeduceError::BadTupleAccess {
                detail: format!("projection on non-tuple `{other}`"),
            }),
        },
        Expr::CallOp { op, args, attrs } => {
            let arg_infos: Result<Vec<_>, _> = args.iter().map(|a| deduce(a, module)).collect();
            Ok(op.infer(&arg_infos?, attrs)?)
        }
        Expr::CallGlobal { func, args } => {
            let callee = module
                .function(func)
                .ok_or_else(|| DeduceError::UnknownGlobal(func.clone()))?;
            let arg_infos: Result<Vec<_>, _> = args.iter().map(|a| deduce(a, module)).collect();
            let arg_infos = arg_infos?;
            if callee.params.len() != arg_infos.len() {
                return Err(DeduceError::IncompatibleCall {
                    callee: func.clone(),
                    detail: format!(
                        "expected {} arguments, got {}",
                        callee.params.len(),
                        arg_infos.len()
                    ),
                });
            }
            deduce_call_signature(
                func,
                &callee
                    .params
                    .iter()
                    .map(|p| p.struct_info().clone())
                    .collect::<Vec<_>>(),
                &callee.ret_sinfo,
                &arg_infos,
            )
        }
        Expr::CallTir {
            func, out_sinfo, ..
        } => {
            if module.tir_func(func).is_none() {
                return Err(DeduceError::UnknownTir(func.clone()));
            }
            Ok(out_sinfo.clone())
        }
        Expr::CallDps { out_sinfo, .. } => Ok(out_sinfo.clone()),
        Expr::MatchCast { value, sinfo } => {
            let from = deduce(value, module)?;
            let mut map = SubstMap::new();
            // match_cast binds *fresh* variables in `sinfo`; check for
            // static impossibility only (e.g. rank conflicts).
            if unify_struct_info(sinfo, &from, &mut map) == Compat::Incompatible {
                return Err(DeduceError::ImpossibleMatchCast {
                    from: from.to_string(),
                    to: sinfo.to_string(),
                });
            }
            Ok(sinfo.clone())
        }
    }
}

/// Deduces the result of calling a function with the given signature — the
/// subgraph-call deduction of Figure 7. Symbolic variables in the parameter
/// annotations bind to caller expressions; the return annotation is
/// instantiated with those bindings, and any dimension still mentioning an
/// unbound callee variable is erased to a coarse rank-level annotation.
pub fn deduce_call_signature(
    callee_name: &str,
    params: &[StructInfo],
    ret: &StructInfo,
    args: &[StructInfo],
) -> Result<StructInfo, DeduceError> {
    let mut map = SubstMap::new();
    for (p, a) in params.iter().zip(args) {
        if unify_struct_info(p, a, &mut map) == Compat::Incompatible {
            return Err(DeduceError::IncompatibleCall {
                callee: callee_name.to_string(),
                detail: format!("argument `{a}` does not match parameter `{p}`"),
            });
        }
    }
    // Callee-side variables that did not receive a binding must be erased
    // from the instantiated return annotation.
    let mut callee_vars: HashSet<SymVar> = HashSet::new();
    for p in params {
        callee_vars.extend(p.free_symbolic_vars());
    }
    callee_vars.extend(ret.free_symbolic_vars());
    let unbound: HashSet<SymVar> = callee_vars
        .into_iter()
        .filter(|v| !map.contains_key(v))
        .collect();
    Ok(ret.substituted(&map).erase_containing(&unbound))
}

/// Convenience: deduce with coarse-annotation awareness for shape values.
pub fn shape_of(sinfo: &StructInfo) -> Option<ShapeDesc> {
    match sinfo {
        StructInfo::Tensor { shape, .. } => Some(shape.clone()),
        StructInfo::Shape(s) => Some(s.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Function, OpAttrs, Var};
    use crate::op::Op;
    use relax_arith::{DataType, Var as SV};
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`deduce`] made on this thread.
        pub(super) static STEPS: Cell<usize> = const { Cell::new(0) };
    }

    /// §4.1: forward deduction takes time linear in the number of
    /// operations. Each binding is deduced from its inputs' annotations
    /// alone, never by re-walking their producers, so the steps of an
    /// `n`-op chain grow exactly with `n`.
    #[test]
    fn deduction_steps_grow_linearly_with_the_chain() {
        let steps = |ops: usize| {
            let mut bb = crate::BlockBuilder::new();
            let x = StructInfo::tensor(vec![SV::new("n").into(), 64.into()], DataType::F32);
            let p = bb.begin_function("main", vec![("x".into(), x)]);
            bb.begin_dataflow();
            let before = STEPS.with(Cell::get);
            let mut cur = p[0].clone();
            for i in 0..ops {
                let op = [Op::Relu, Op::Exp, Op::Silu][i % 3];
                cur = bb.emit(Expr::op_call(op, vec![cur.into()])).unwrap();
            }
            STEPS.with(Cell::get) - before
        };
        let counts = [steps(64), steps(256), steps(1024)];
        assert!(counts[0] > 0);
        assert_eq!(counts, [counts[0], 4 * counts[0], 16 * counts[0]]);
    }

    /// Builds `subfn(s: Shape([n, m])) -> Tensor((n * m,), "f32")` from
    /// Figure 7 of the paper.
    fn subfn() -> Function {
        let n = SV::new("n");
        let m = SV::new("m");
        let s = Var::new(
            "s",
            StructInfo::shape(vec![n.clone().into(), m.clone().into()]),
        );
        Function {
            params: vec![s.clone()],
            blocks: vec![],
            ret: s.into(),
            ret_sinfo: StructInfo::tensor(vec![PrimExpr::from(n) * m.into()], DataType::F32),
            attrs: OpAttrs::new(),
        }
    }

    fn module_with_subfn() -> IRModule {
        let mut m = IRModule::new();
        m.add_function("subfn", subfn());
        m
    }

    #[test]
    fn figure7_lv0_symbolic_times_const() {
        // lv0 = subfn(shape(n, 4)) : Tensor((n * 4,), "f32")
        let m = module_with_subfn();
        let n = SV::new("n");
        let call = Expr::CallGlobal {
            func: "subfn".into(),
            args: vec![Expr::ShapeValue(vec![n.clone().into(), 4.into()])],
        };
        let out = deduce(&call, &m).unwrap();
        assert_eq!(out.to_string(), "Tensor(((n * 4),), \"f32\")");
    }

    #[test]
    fn figure7_lv1_constants_fold() {
        // lv1 = subfn(shape(3, 4)) : Tensor((12,), "f32")
        let m = module_with_subfn();
        let call = Expr::CallGlobal {
            func: "subfn".into(),
            args: vec![Expr::ShapeValue(vec![3.into(), 4.into()])],
        };
        let out = deduce(&call, &m).unwrap();
        assert_eq!(out.to_string(), "Tensor((12,), \"f32\")");
    }

    #[test]
    fn figure7_lv2_compound_expression() {
        // lv2 = subfn(shape(n + 1, 4)) : Tensor(((n + 1) * 4,), "f32")
        let m = module_with_subfn();
        let n = SV::new("n");
        let call = Expr::CallGlobal {
            func: "subfn".into(),
            args: vec![Expr::ShapeValue(vec![
                PrimExpr::from(n.clone()) + 1.into(),
                4.into(),
            ])],
        };
        let out = deduce(&call, &m).unwrap();
        // Canonicalized to n*4 + 4.
        let expected = relax_arith::simplify(&((PrimExpr::from(n) + 1.into()) * 4.into()));
        assert_eq!(out.tensor_dims().unwrap(), &[expected]);
    }

    #[test]
    fn figure7_lv3_coarse_arg_erases_return() {
        // lv3 = subfn(y: Shape(ndim=2)) : Tensor(ndim=1, dtype="f32")
        let m = module_with_subfn();
        let y = Var::new("y", StructInfo::shape_ndim(2));
        let call = Expr::CallGlobal {
            func: "subfn".into(),
            args: vec![y.into()],
        };
        let out = deduce(&call, &m).unwrap();
        assert_eq!(out, StructInfo::tensor_ndim(1, DataType::F32));
    }

    #[test]
    fn call_arity_mismatch_detected() {
        let m = module_with_subfn();
        let call = Expr::CallGlobal {
            func: "subfn".into(),
            args: vec![],
        };
        assert!(matches!(
            deduce(&call, &m),
            Err(DeduceError::IncompatibleCall { .. })
        ));
        let missing = Expr::CallGlobal {
            func: "nope".into(),
            args: vec![],
        };
        assert!(matches!(
            deduce(&missing, &m),
            Err(DeduceError::UnknownGlobal(_))
        ));
    }

    #[test]
    fn match_cast_returns_target_and_rejects_impossible() {
        let m = IRModule::new();
        let x = Var::new("x", StructInfo::tensor_ndim(1, DataType::F32));
        let mcast = Expr::MatchCast {
            value: Box::new(x.clone().into()),
            sinfo: StructInfo::tensor(vec![SV::new("m").into()], DataType::F32),
        };
        let out = deduce(&mcast, &m).unwrap();
        assert_eq!(out.tensor_dims().unwrap().len(), 1);
        // Rank conflict can never succeed.
        let bad = Expr::MatchCast {
            value: Box::new(x.into()),
            sinfo: StructInfo::tensor(vec![1.into(), 2.into()], DataType::F32),
        };
        assert!(matches!(
            deduce(&bad, &m),
            Err(DeduceError::ImpossibleMatchCast { .. })
        ));
    }

    #[test]
    fn tuple_projection() {
        let m = IRModule::new();
        let x = Var::new(
            "x",
            StructInfo::tuple(vec![
                StructInfo::tensor(vec![4.into()], DataType::F32),
                StructInfo::Object,
            ]),
        );
        let p0 = Expr::TupleGetItem(Box::new(x.clone().into()), 0);
        assert_eq!(
            deduce(&p0, &m).unwrap(),
            StructInfo::tensor(vec![4.into()], DataType::F32)
        );
        let p9 = Expr::TupleGetItem(Box::new(x.into()), 9);
        assert!(matches!(
            deduce(&p9, &m),
            Err(DeduceError::BadTupleAccess { .. })
        ));
    }

    #[test]
    fn call_tir_uses_declared_annotation() {
        let mut m = IRModule::new();
        let x = relax_tir::Buffer::new("X", vec![1.into()], DataType::F32);
        m.add_tir_func(relax_tir::PrimFunc::new(
            "id",
            vec![x],
            1,
            relax_tir::Stmt::Evaluate,
        ));
        let n = SV::new("n");
        let call = Expr::CallTir {
            func: "id".into(),
            args: vec![],
            out_sinfo: StructInfo::tensor(vec![n.into(), 256.into()], DataType::F16),
            sym_args: vec![],
        };
        let out = deduce(&call, &m).unwrap();
        assert_eq!(out.to_string(), "Tensor((n, 256), \"f16\")");
        let bad = Expr::CallTir {
            func: "missing".into(),
            args: vec![],
            out_sinfo: StructInfo::Object,
            sym_args: vec![],
        };
        assert!(matches!(deduce(&bad, &m), Err(DeduceError::UnknownTir(_))));
    }
}
