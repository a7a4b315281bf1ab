//! Constant folding by partial lowering: a constant-argument operator call
//! is legalized to a tensor program and *executed at compile time* — a
//! small demonstration of the cross-level abstraction (the compiler runs
//! the same loop-level code the runtime would).

use relax_core::{deduce, legalize, Expr, IRModule, LegalizeError, Op};
use relax_tir::{interp, NDArray};

/// Folds operator calls whose arguments are all constants. Returns the
/// number of bindings folded.
pub fn fold_constants(module: &mut IRModule) -> usize {
    let mut folded = 0;
    for fname in module.function_names() {
        let Some(mut func) = module.function(&fname).cloned() else {
            continue;
        };
        let mut changed = false;
        for block in &mut func.blocks {
            for binding in &mut block.bindings {
                let Expr::CallOp { op, args, attrs } = &binding.value else {
                    continue;
                };
                if *op == Op::Unique {
                    continue;
                }
                let consts: Option<Vec<NDArray>> = args
                    .iter()
                    .map(|a| match a {
                        Expr::Constant(c) => Some(c.clone()),
                        _ => None,
                    })
                    .collect();
                let Some(consts) = consts else { continue };
                if consts.is_empty() {
                    continue;
                }
                // Compute the static output shape.
                let Ok(out_sinfo) = deduce(&binding.value, module) else {
                    continue;
                };
                let Some(dims) = out_sinfo.tensor_dims() else {
                    continue;
                };
                let concrete: Option<Vec<usize>> = dims
                    .iter()
                    .map(|d| d.as_int().map(|v| v as usize))
                    .collect();
                let Some(concrete) = concrete else { continue };
                let dtype = out_sinfo
                    .tensor_dtype()
                    .unwrap_or(relax_core::DataType::F32);
                // Legalize and execute at compile time.
                let arg_sinfos: Vec<_> =
                    args.iter().filter_map(|a| deduce(a, module).ok()).collect();
                let prim = match legalize(*op, attrs, &arg_sinfos, "fold") {
                    Ok(p) => p,
                    Err(LegalizeError::Unsupported { .. } | LegalizeError::CoarseShape { .. }) => {
                        continue
                    }
                    Err(_) => continue,
                };
                let out = NDArray::zeros(&concrete, dtype);
                let mut all: Vec<NDArray> = consts;
                all.push(out.clone());
                if interp::run(&prim, &all).is_err() {
                    continue;
                }
                binding.value = Expr::Constant(out);
                folded += 1;
                changed = true;
            }
        }
        if changed {
            module.add_function(fname, func);
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::{BlockBuilder, DataType, StructInfo};

    #[test]
    fn constant_add_folds_to_a_constant() {
        let mut bb = BlockBuilder::new();
        let _p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![2.into()], DataType::F32),
            )],
        );
        let c1 = NDArray::from_f64(&[2], DataType::F32, vec![1.0, 2.0]).unwrap();
        let c2 = NDArray::from_f64(&[2], DataType::F32, vec![10.0, 20.0]).unwrap();
        let sum = bb
            .emit(Expr::op_call(
                Op::Add,
                vec![Expr::Constant(c1), Expr::Constant(c2)],
            ))
            .unwrap();
        bb.finish_function(sum.into(), None).unwrap();
        let mut m = bb.finish();
        assert_eq!(fold_constants(&mut m), 1);
        let f = m.function("main").unwrap();
        let b = f.bindings().next().unwrap();
        match &b.value {
            Expr::Constant(c) => assert_eq!(c.to_f64_vec(), vec![11.0, 22.0]),
            other => panic!("expected folded constant, got {other:?}"),
        }
    }

    #[test]
    fn non_constant_args_are_untouched() {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![2.into()], DataType::F32),
            )],
        );
        let out = bb.emit_op(Op::Relu, &[p[0].clone()]).unwrap();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        assert_eq!(fold_constants(&mut m), 0);
    }
}
