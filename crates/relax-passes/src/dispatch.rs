//! Partial library lowering (§4.6): pattern-match graph regions and
//! replace them with `call_dps_library` calls into vendor kernels.
//!
//! Registered "(subgraph pattern, library function)" pairs include single
//! operators (matmul → `cublas.matmul`, rms_norm → `cutlass.rms_norm`) and
//! the matmul-with-epilogue fusion pattern (matmul + relu →
//! `cublas.matmul_relu`). The pass lowers *part* of the program and leaves
//! the rest for later passes — composability with code generation is the
//! point.

use std::collections::{HashMap, HashSet};

use relax_core::{Expr, IRModule, Op};

/// Applies partial library lowering — matmul + ReLU, then matmul and
/// rms_norm alone — and returns the number of call sites dispatched.
pub fn dispatch_library(module: &mut IRModule) -> usize {
    let mut dispatched = 0;
    for fname in module.function_names() {
        let Some(mut func) = module.function(&fname).cloned() else {
            continue;
        };
        // Count variable uses to validate single-use fusion of epilogues.
        let mut uses: HashMap<u64, usize> = HashMap::new();
        let mut count = |e: &Expr| {
            let mut vars = Vec::new();
            e.collect_used_vars(&mut vars);
            for v in vars {
                *uses.entry(v.id()).or_insert(0) += 1;
            }
        };
        for b in func.bindings() {
            count(&b.value);
        }
        count(&func.ret);

        let mut changed = false;
        for block in &mut func.blocks {
            // Bindings consumed into an epilogue pattern: now dead, not
            // dispatched individually (DCE removes them).
            let mut consumed: HashSet<usize> = HashSet::new();
            // Epilogue pattern first: matmul at i, relu at j > i consuming it.
            for j in 0..block.bindings.len() {
                let Expr::CallOp {
                    op: Op::Relu,
                    args: relu_args,
                    ..
                } = &block.bindings[j].value
                else {
                    continue;
                };
                let Some(src) = relu_args.first().and_then(Expr::as_var) else {
                    continue;
                };
                if uses.get(&src.id()).copied().unwrap_or(0) != 1 {
                    continue;
                }
                let Some(i) = block.bindings[..j]
                    .iter()
                    .position(|b| b.var.id() == src.id())
                else {
                    continue;
                };
                let Expr::CallOp {
                    op: Op::Matmul,
                    args: mm_args,
                    ..
                } = &block.bindings[i].value
                else {
                    continue;
                };
                let out_sinfo = block.bindings[j].var.struct_info().clone();
                block.bindings[j].value = Expr::CallDps {
                    func: "cublas.matmul_relu".into(),
                    args: mm_args.clone(),
                    out_sinfo,
                };
                // The matmul binding becomes dead; DCE removes it.
                consumed.insert(i);
                dispatched += 1;
                changed = true;
            }
            for (bi, binding) in block.bindings.iter_mut().enumerate() {
                if consumed.contains(&bi) {
                    continue;
                }
                let Expr::CallOp { op, args, .. } = &binding.value else {
                    continue;
                };
                let lib = match op {
                    Op::Matmul => "cublas.matmul",
                    Op::RmsNorm => "cutlass.rms_norm",
                    _ => continue,
                };
                binding.value = Expr::CallDps {
                    func: lib.into(),
                    args: args.clone(),
                    out_sinfo: binding.var.struct_info().clone(),
                };
                dispatched += 1;
                changed = true;
            }
        }
        if changed {
            module.add_function(fname, func);
        }
    }
    dispatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dce::dead_code_elimination;
    use relax_arith::Var as SV;
    use relax_core::{BlockBuilder, DataType, StructInfo};

    fn mm_relu_module() -> IRModule {
        let mut bb = BlockBuilder::new();
        let n = SV::new("n");
        let p = bb.begin_function(
            "main",
            vec![
                (
                    "x".into(),
                    StructInfo::tensor(vec![n.into(), 128.into()], DataType::F32),
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
        bb.finish()
    }

    #[test]
    fn epilogue_pattern_wins_over_single_op() {
        let mut m = mm_relu_module();
        let n = dispatch_library(&mut m);
        assert_eq!(n, 1);
        dead_code_elimination(&mut m);
        let f = m.function("main").unwrap();
        let bindings: Vec<_> = f.bindings().collect();
        assert_eq!(bindings.len(), 1);
        match &bindings[0].value {
            Expr::CallDps { func, args, .. } => {
                assert_eq!(func, "cublas.matmul_relu");
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected CallDps, got {other:?}"),
        }
    }
}
