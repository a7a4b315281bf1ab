//! Operator legalization (§4.7): lower every high-level operator call to
//! `call_tir` of a generated tensor program.

use std::collections::HashMap;

use relax_core::{deduce, legalize, Expr, IRModule, LegalizeError, Op, OpAttrs, StructInfo};

use crate::error::PassError;

/// Lowers all graph-level operator calls in the module to `call_tir`.
/// Returns the number of call sites legalized.
///
/// Data-dependent operators with no loop-level implementation
/// ([`Op::Unique`]) are left in place; [`crate::lower_to_vm`] lowers them
/// to runtime builtins. Calls already lowered (e.g. partial library
/// dispatch that ran earlier) are untouched — this composability is the
/// point of partial lowering.
///
/// One kernel per distinct computation: [`legalize`] reads nothing but the
/// operator, its attributes and its arguments' annotations (shape and prim
/// value arguments carry their values in theirs), so a call site that
/// repeats all three reuses the kernel an earlier site generated.
///
/// # Errors
///
/// Fails when a tensor program cannot be generated (coarse shapes reaching
/// an operator that needs them).
pub fn legalize_module(module: &mut IRModule) -> Result<usize, PassError> {
    let mut legalized = 0;
    let mut kernels: HashMap<(Op, OpAttrs, Vec<StructInfo>), String> = HashMap::new();
    for fname in module.function_names() {
        let mut func = match module.function(&fname) {
            Some(f) => f.clone(),
            None => continue,
        };
        let mut changed = false;
        for block_idx in 0..func.blocks.len() {
            for binding_idx in 0..func.blocks[block_idx].bindings.len() {
                let value = func.blocks[block_idx].bindings[binding_idx].value.clone();
                let Expr::CallOp { op, args, attrs } = value else {
                    continue;
                };
                if op == Op::Unique {
                    continue;
                }
                // Deduce argument annotations against the current module.
                let mut arg_sinfos = Vec::with_capacity(args.len());
                for a in &args {
                    arg_sinfos.push(deduce(a, module)?);
                }
                let key = (op, attrs, arg_sinfos);
                let tir_name = match kernels.get(&key) {
                    Some(name) => name.clone(),
                    None => {
                        let prim = match legalize(op, &key.1, &key.2, op.short_name()) {
                            Ok(p) => p,
                            Err(LegalizeError::Unsupported { .. }) => continue,
                            Err(e) => return Err(e.into()),
                        };
                        let name = module.add_tir_func(prim);
                        kernels.insert(key, name.clone());
                        name
                    }
                };
                // Tensor-valued arguments only: shape values are baked into
                // the generated program.
                let tensor_args: Vec<Expr> = args
                    .iter()
                    .filter(|a| !matches!(a, Expr::ShapeValue(_) | Expr::PrimValue(_)))
                    .cloned()
                    .collect();
                let binding = &mut func.blocks[block_idx].bindings[binding_idx];
                let out_sinfo = binding.var.struct_info().clone();
                // Pass the symbolic dimensions of the output as extra
                // symbolic arguments (Figure 4).
                let mut sym_args: Vec<relax_arith::PrimExpr> = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for v in out_sinfo.free_symbolic_vars() {
                    if seen.insert(v.clone()) {
                        sym_args.push(v.into());
                    }
                }
                sym_args.sort_by_key(|e| e.to_string());
                binding.value = Expr::CallTir {
                    func: tir_name,
                    args: tensor_args,
                    out_sinfo,
                    sym_args,
                };
                changed = true;
                legalized += 1;
            }
        }
        if changed {
            module.add_function(fname, func);
        }
    }
    Ok(legalized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::Var as SV;
    use relax_core::{assert_well_formed, BlockBuilder, DataType, StructInfo};

    #[test]
    fn ops_become_call_tir() {
        let mut bb = BlockBuilder::new();
        let n = SV::new("n");
        let p = bb.begin_function(
            "main",
            vec![
                (
                    "x".into(),
                    StructInfo::tensor(vec![n.clone().into(), 128.into()], DataType::F32),
                ),
                (
                    "w".into(),
                    StructInfo::tensor(vec![128.into(), 256.into()], DataType::F32),
                ),
            ],
        );
        bb.begin_dataflow();
        let mm = bb
            .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
            .unwrap();
        let out = bb
            .emit_output(Expr::op_call(Op::Relu, vec![mm.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        legalize_module(&mut m).unwrap();
        let f = m.function("main").unwrap();
        for b in f.bindings() {
            assert!(matches!(b.value, Expr::CallTir { .. }));
        }
        assert!(m.tir_func("matmul").is_some());
        assert!(m.tir_func("relu").is_some());
        assert!(assert_well_formed(&m).is_ok());
        // Output annotations preserved through lowering.
        let text = m.to_string();
        assert!(text.contains("call_tir(matmul"));
    }

    #[test]
    fn unique_is_left_for_the_runtime() {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![8.into()], DataType::F32),
            )],
        );
        let u = bb.emit_op(Op::Unique, &[p[0].clone()]).unwrap();
        bb.finish_function(u.into(), None).unwrap();
        let mut m = bb.finish();
        legalize_module(&mut m).unwrap();
        let f = m.function("main").unwrap();
        let b = f.bindings().next().unwrap();
        assert!(matches!(b.value, Expr::CallOp { op: Op::Unique, .. }));
    }

    /// Legalizes a function of the given parameters whose body is the
    /// given call sites (built over the parameter variables), and returns
    /// the kernel each site calls and the number of kernels generated.
    fn callees(
        params: Vec<(&str, StructInfo)>,
        sites: impl Fn(&[relax_core::Var]) -> Vec<Expr>,
    ) -> (Vec<String>, usize) {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            params
                .into_iter()
                .map(|(name, sinfo)| (name.to_string(), sinfo))
                .collect(),
        );
        let mut last = None;
        for site in sites(&p) {
            last = Some(bb.emit(site).unwrap());
        }
        bb.finish_function(last.unwrap().into(), None).unwrap();
        let mut m = bb.finish();
        legalize_module(&mut m).unwrap();
        assert!(assert_well_formed(&m).is_ok());
        let names = m
            .function("main")
            .unwrap()
            .bindings()
            .map(|b| match &b.value {
                Expr::CallTir { func, .. } => func.clone(),
                other => panic!("not legalized: {other:?}"),
            })
            .collect();
        (names, m.tir_funcs().count())
    }

    fn f32s(dims: &[i64]) -> StructInfo {
        StructInfo::tensor(dims.iter().map(|&d| d.into()).collect(), DataType::F32)
    }

    fn call(op: Op, args: &[&relax_core::Var]) -> Expr {
        Expr::op_call(op, args.iter().map(|&v| v.clone().into()).collect())
    }

    #[test]
    fn identical_call_sites_share_one_kernel() {
        let n = SV::new("n");
        let x = StructInfo::tensor(vec![n.clone().into(), 8.into()], DataType::F32);
        let (names, kernels) = callees(
            vec![("x", x.clone()), ("y", x), ("w", f32s(&[8, 4]))],
            |p| {
                vec![
                    call(Op::Matmul, &[&p[0], &p[2]]),
                    call(Op::Matmul, &[&p[1], &p[2]]),
                ]
            },
        );
        assert_eq!(names, ["matmul", "matmul"]);
        assert_eq!(kernels, 1);
    }

    #[test]
    fn a_different_dim_dtype_attr_or_reshape_target_is_another_kernel() {
        // A static dimension.
        let (names, kernels) = callees(
            vec![
                ("x", f32s(&[2, 8])),
                ("w", f32s(&[8, 4])),
                ("v", f32s(&[8, 6])),
            ],
            |p| {
                vec![
                    call(Op::Matmul, &[&p[0], &p[1]]),
                    call(Op::Matmul, &[&p[0], &p[2]]),
                ]
            },
        );
        assert_eq!(
            (names, kernels),
            (vec!["matmul".into(), "matmul1".into()], 2)
        );
        // A dtype.
        let (names, kernels) = callees(
            vec![
                ("x", f32s(&[2, 8])),
                (
                    "h",
                    StructInfo::tensor(vec![2.into(), 8.into()], DataType::F16),
                ),
            ],
            |p| vec![call(Op::Exp, &[&p[0]]), call(Op::Exp, &[&p[1]])],
        );
        assert_eq!((names, kernels), (vec!["exp".into(), "exp1".into()], 2));
        // An attribute.
        let axis = |a: &str| -> relax_core::OpAttrs {
            [("axis".to_string(), a.to_string())].into_iter().collect()
        };
        let (names, kernels) = callees(vec![("x", f32s(&[2, 3]))], |p| {
            [axis("0"), axis("1")]
                .into_iter()
                .map(|attrs| Expr::CallOp {
                    op: Op::Sum,
                    args: vec![p[0].clone().into()],
                    attrs,
                })
                .collect()
        });
        assert_eq!((names, kernels), (vec!["sum".into(), "sum1".into()], 2));
        // A reshape target, which is a shape value argument.
        let (names, kernels) = callees(vec![("x", f32s(&[2, 6]))], |p| {
            [[3, 4], [4, 3]]
                .into_iter()
                .map(|[a, b]| {
                    Expr::op_call(
                        Op::Reshape,
                        vec![
                            p[0].clone().into(),
                            Expr::ShapeValue(vec![a.into(), b.into()]),
                        ],
                    )
                })
                .collect()
        });
        assert_eq!(
            (names, kernels),
            (vec!["reshape".into(), "reshape1".into()], 2)
        );
    }
}
