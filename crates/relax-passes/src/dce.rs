//! Dead-code elimination over dataflow blocks.
//!
//! Because dataflow blocks are side-effect free by construction (§3.1),
//! any binding whose variable is never used can be removed without
//! changing observable behaviour — the motivating example the paper gives
//! for the dataflow-block design.

use std::collections::HashSet;

use relax_core::{BlockKind, IRModule};

/// Removes unused bindings inside dataflow blocks, rewriting the functions
/// in place. Returns the number of bindings removed.
pub fn dead_code_elimination(module: &mut IRModule) -> usize {
    let mut removed = 0;
    for fname in module.function_names() {
        let func = module.function_mut(&fname).expect("name just listed");
        // One backward walk: every use of a binding comes after it, so
        // when the walk reaches a binding, `used` already holds everything
        // the return value and the kept bindings read — including inputs
        // orphaned by a removal further down — and nothing the walk adds
        // later can name it.
        let mut vars = Vec::new();
        func.ret.collect_used_vars(&mut vars);
        let mut used: HashSet<u64> = vars.drain(..).map(|v| v.id()).collect();
        for block in func.blocks.iter_mut().rev() {
            let dataflow = block.kind == BlockKind::Dataflow;
            for b in block.bindings.iter().rev() {
                if !dataflow || used.contains(&b.var.id()) {
                    b.value.collect_used_vars(&mut vars);
                    used.extend(vars.drain(..).map(|v| v.id()));
                }
            }
            if dataflow {
                let before = block.bindings.len();
                block.bindings.retain(|b| used.contains(&b.var.id()));
                removed += before - block.bindings.len();
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::{BlockBuilder, DataType, Expr, Op, StructInfo};

    #[test]
    fn unused_chains_are_removed_transitively() {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![4.into()], DataType::F32),
            )],
        );
        bb.begin_dataflow();
        // dead chain: d1 -> d2 (both unused by the output)
        let d1 = bb
            .emit(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
            .unwrap();
        let _d2 = bb.emit(Expr::op_call(Op::Relu, vec![d1.into()])).unwrap();
        let out = bb
            .emit_output(Expr::op_call(Op::Relu, vec![p[0].clone().into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        let removed = dead_code_elimination(&mut m);
        assert_eq!(removed, 2);
        let f = m.function("main").unwrap();
        assert_eq!(f.bindings().count(), 1);
        // Idempotent.
        assert_eq!(dead_code_elimination(&mut m), 0);
    }
}
