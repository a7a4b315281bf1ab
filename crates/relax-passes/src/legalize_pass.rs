//! Operator legalization (§4.7): lower every high-level operator call to
//! `call_tir` of a generated tensor program.

use relax_core::{deduce, legalize, Expr, IRModule, LegalizeError, Op};

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
/// # Errors
///
/// Fails when a tensor program cannot be generated (coarse shapes reaching
/// an operator that needs them).
pub fn legalize_module(module: &mut IRModule) -> Result<usize, PassError> {
    let mut legalized = 0;
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
                let prim = match legalize(op, &attrs, &arg_sinfos, op.short_name()) {
                    Ok(p) => p,
                    Err(LegalizeError::Unsupported { .. }) => continue,
                    Err(e) => return Err(e.into()),
                };
                let tir_name = module.add_tir_func(prim);
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
}
