//! Common-subexpression elimination over dataflow blocks.
//!
//! Like dead-code elimination, this relies on the purity guarantee of
//! dataflow blocks (§3.1): two bindings computing structurally identical
//! pure expressions can share one computation without changing behaviour.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use relax_core::{Expr, IRModule, Var};

/// Feeds the structure of a pure expression to `h`, variables by
/// identity, or returns `None` for an expression CSE does not share.
/// Expressions that hash alike are compared with `==` before sharing.
fn hash_pure(expr: &Expr, h: &mut impl Hasher) -> Option<()> {
    std::mem::discriminant(expr).hash(h);
    let hash_all = |args: &[Expr], h: &mut _| {
        args.len().hash(h);
        args.iter().try_for_each(|a| hash_pure(a, h))
    };
    match expr {
        Expr::Var(v) => v.id().hash(h),
        // Constants are interned by value elsewhere; treat each constant
        // occurrence as unique (cheap to load, rarely worth sharing).
        // Subgraph calls are pure in Relax, but keep CSE local and
        // conservative: skip them and match_cast (which binds fresh
        // symbolic variables).
        Expr::Constant(_) | Expr::CallGlobal { .. } | Expr::MatchCast { .. } => return None,
        Expr::ShapeValue(dims) => dims.hash(h),
        Expr::PrimValue(e) => e.hash(h),
        Expr::Tuple(items) => hash_all(items, h)?,
        Expr::TupleGetItem(e, i) => {
            hash_pure(e, h)?;
            i.hash(h);
        }
        Expr::CallOp { op, args, attrs } => {
            op.hash(h);
            attrs.hash(h);
            hash_all(args, h)?;
        }
        Expr::CallTir {
            func,
            args,
            sym_args,
            out_sinfo,
        } => {
            func.hash(h);
            out_sinfo.hash(h);
            sym_args.hash(h);
            hash_all(args, h)?;
        }
        Expr::CallDps {
            func,
            args,
            out_sinfo,
        } => {
            func.hash(h);
            out_sinfo.hash(h);
            hash_all(args, h)?;
        }
    }
    Some(())
}

/// Replaces, in place, every use of a variable that `map` names.
pub(crate) fn replace_vars(expr: &mut Expr, map: &HashMap<u64, Var>) {
    match expr {
        Expr::Var(v) => {
            if let Some(r) = map.get(&v.id()) {
                *v = r.clone();
            }
        }
        Expr::Constant(_) | Expr::ShapeValue(_) | Expr::PrimValue(_) => {}
        Expr::TupleGetItem(e, _) | Expr::MatchCast { value: e, .. } => replace_vars(e, map),
        Expr::Tuple(args)
        | Expr::CallOp { args, .. }
        | Expr::CallGlobal { args, .. }
        | Expr::CallTir { args, .. }
        | Expr::CallDps { args, .. } => {
            for e in args {
                replace_vars(e, map);
            }
        }
    }
}

/// Deduplicates identical pure computations inside each dataflow block,
/// rewriting the functions in place. Returns the number of bindings
/// rewritten to reuse an earlier result.
pub fn common_subexpr_elimination(module: &mut IRModule) -> usize {
    let mut rewritten = 0;
    for fname in module.function_names() {
        let func = module.function_mut(&fname).expect("name just listed");
        for block in &mut func.blocks {
            if block.kind != relax_core::BlockKind::Dataflow {
                continue;
            }
            // Structural hash -> the bindings computing an expression of
            // that hash.
            let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut alias: HashMap<u64, Var> = HashMap::new();
            for i in 0..block.bindings.len() {
                if !alias.is_empty() {
                    replace_vars(&mut block.bindings[i].value, &alias);
                }
                let mut h = DefaultHasher::new();
                if hash_pure(&block.bindings[i].value, &mut h).is_none() {
                    continue;
                }
                let same = seen.entry(h.finish()).or_default();
                let value = &block.bindings[i].value;
                match same.iter().find(|&&j| block.bindings[j].value == *value) {
                    Some(&j) => {
                        // Later uses of this binding go to the earlier
                        // variable; keep the binding as an alias so
                        // outputs stay valid (DCE removes it if dead).
                        let prev = block.bindings[j].var.clone();
                        alias.insert(block.bindings[i].var.id(), prev.clone());
                        block.bindings[i].value = Expr::Var(prev);
                        rewritten += 1;
                    }
                    None => same.push(i),
                }
            }
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::{BlockBuilder, DataType, Op, StructInfo};

    #[test]
    fn duplicate_computations_are_shared() {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![4.into()], DataType::F32),
            )],
        );
        bb.begin_dataflow();
        let a = bb
            .emit(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
            .unwrap();
        let b = bb
            .emit(Expr::op_call(Op::Exp, vec![p[0].clone().into()]))
            .unwrap();
        let sum = bb
            .emit_output(Expr::op_call(Op::Add, vec![a.into(), b.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(sum.into(), None).unwrap();
        let mut m = bb.finish();
        assert_eq!(common_subexpr_elimination(&mut m), 1);
        crate::dead_code_elimination(&mut m);
        let f = m.function("main").unwrap();
        // exp computed once; add reads it twice.
        let exps = f
            .bindings()
            .filter(|b| matches!(&b.value, Expr::CallOp { op: Op::Exp, .. }))
            .count();
        assert_eq!(exps, 1);
        assert!(relax_core::assert_well_formed(&m).is_ok());
    }

    #[test]
    fn attrs_distinguish_computations() {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![2.into(), 3.into()], DataType::F32),
            )],
        );
        bb.begin_dataflow();
        let ax0: relax_core::OpAttrs = [("axis".to_string(), "0".to_string())]
            .into_iter()
            .collect();
        let ax1: relax_core::OpAttrs = [("axis".to_string(), "1".to_string())]
            .into_iter()
            .collect();
        let a = bb
            .emit_op_attrs(Op::Sum, vec![p[0].clone().into()], ax0)
            .unwrap();
        let _b = bb
            .emit_op_attrs(Op::Sum, vec![p[0].clone().into()], ax1)
            .unwrap();
        let out = bb.emit_output(Expr::Var(a)).unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        assert_eq!(common_subexpr_elimination(&mut m), 0);
    }

    #[test]
    fn match_cast_is_never_merged() {
        let mut bb = BlockBuilder::new();
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![4.into()], DataType::F32),
            )],
        );
        bb.begin_dataflow();
        let u = bb.emit_op(Op::Unique, &[p[0].clone()]).unwrap();
        let m1 = relax_arith::Var::new("m1");
        let m2 = relax_arith::Var::new("m2");
        let c1 = bb
            .emit_match_cast(
                u.clone().into(),
                StructInfo::tensor(vec![m1.into()], DataType::F32),
            )
            .unwrap();
        let _c2 = bb
            .emit_match_cast(u.into(), StructInfo::tensor(vec![m2.into()], DataType::F32))
            .unwrap();
        let out = bb.emit_output(Expr::Var(c1)).unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        assert_eq!(common_subexpr_elimination(&mut m), 0);
    }
}
