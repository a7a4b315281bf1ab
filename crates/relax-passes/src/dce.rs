//! Dead-code elimination over dataflow blocks.
//!
//! Because dataflow blocks are side-effect free by construction (§3.1),
//! any binding whose variable is never used can be removed without
//! changing observable behaviour — the motivating example the paper gives
//! for the dataflow-block design.

use std::collections::HashSet;

use relax_core::IRModule;

/// Removes unused bindings inside dataflow blocks. Returns the number of
/// bindings removed.
pub fn dead_code_elimination(module: &mut IRModule) -> usize {
    let mut removed = 0;
    for fname in module.function_names() {
        let Some(mut func) = module.function(&fname).cloned() else {
            continue;
        };
        // Iterate to a fixed point: removing a binding can orphan its
        // inputs.
        loop {
            let mut used: HashSet<u64> = HashSet::new();
            let mut collect = |e: &relax_core::Expr| {
                let mut vars = Vec::new();
                e.collect_used_vars(&mut vars);
                for v in vars {
                    used.insert(v.id());
                }
            };
            for b in func.bindings() {
                collect(&b.value);
            }
            collect(&func.ret);

            let mut removed_this_round = 0;
            for block in &mut func.blocks {
                if block.kind != relax_core::BlockKind::Dataflow {
                    continue;
                }
                let before = block.bindings.len();
                block.bindings.retain(|b| used.contains(&b.var.id()));
                removed_this_round += before - block.bindings.len();
            }
            removed += removed_this_round;
            if removed_this_round == 0 {
                break;
            }
        }
        module.add_function(fname, func);
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
