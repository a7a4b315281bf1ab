//! Constant folding by partial lowering: a constant-argument operator call
//! is legalized to a tensor program and *executed at compile time* — a
//! small demonstration of the cross-level abstraction (the compiler runs
//! the same loop-level code the runtime would).

use relax_core::{deduce, legalize, Expr, IRModule, Op};
use relax_tir::{interp, NDArray};

/// Folds operator calls whose arguments are all constants. Returns the
/// number of bindings folded.
pub fn fold_constants(module: &mut IRModule) -> usize {
    // A fold reads only its own constant arguments, so every fold is found
    // in one read-only walk and then written in place.
    let mut folds = Vec::new();
    for (fname, func) in module.functions() {
        for (bi, block) in func.blocks.iter().enumerate() {
            for (i, binding) in block.bindings.iter().enumerate() {
                if let Some(out) = fold(&binding.value, module) {
                    folds.push((fname.clone(), bi, i, out));
                }
            }
        }
    }
    let folded = folds.len();
    for (fname, bi, i, out) in folds {
        let func = module.function_mut(&fname).expect("name just listed");
        func.blocks[bi].bindings[i].value = Expr::Constant(out);
    }
    folded
}

/// Runs an operator call with constant arguments at compile time.
fn fold(value: &Expr, module: &IRModule) -> Option<NDArray> {
    let Expr::CallOp { op, args, attrs } = value else {
        return None;
    };
    if *op == Op::Unique {
        return None;
    }
    let consts: Vec<NDArray> = args
        .iter()
        .map(|a| match a {
            Expr::Constant(c) => Some(c.clone()),
            _ => None,
        })
        .collect::<Option<_>>()?;
    if consts.is_empty() {
        return None;
    }
    // Compute the static output shape.
    let out_sinfo = deduce(value, module).ok()?;
    let concrete: Vec<usize> = out_sinfo
        .tensor_dims()?
        .iter()
        .map(|d| d.as_int().map(|v| v as usize))
        .collect::<Option<_>>()?;
    let dtype = out_sinfo
        .tensor_dtype()
        .unwrap_or(relax_core::DataType::F32);
    // Legalize and execute at compile time.
    let arg_sinfos: Vec<_> = args.iter().filter_map(|a| deduce(a, module).ok()).collect();
    let prim = legalize(*op, attrs, &arg_sinfos, "fold").ok()?;
    let out = NDArray::zeros(&concrete, dtype);
    let mut all: Vec<NDArray> = consts;
    all.push(out.clone());
    interp::run(&prim, &all).ok()?;
    Some(out)
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
