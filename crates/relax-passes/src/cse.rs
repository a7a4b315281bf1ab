//! Common-subexpression elimination over dataflow blocks.
//!
//! Like dead-code elimination, this relies on the purity guarantee of
//! dataflow blocks (§3.1): two bindings computing structurally identical
//! pure expressions can share one computation without changing behaviour.

use std::collections::HashMap;

use relax_core::{Expr, IRModule, Var};

/// A structural key for pure expressions; variables are keyed by identity.
fn expr_key(expr: &Expr) -> Option<String> {
    use std::fmt::Write;
    fn go(expr: &Expr, out: &mut String) -> Option<()> {
        match expr {
            Expr::Var(v) => write!(out, "v{}", v.id()).ok(),
            // Constants are interned by value elsewhere; treat each constant
            // occurrence as unique (cheap to load, rarely worth sharing).
            Expr::Constant(_) => None,
            Expr::ShapeValue(dims) => {
                out.push_str("shape(");
                for d in dims {
                    write!(out, "{d},").ok()?;
                }
                out.push(')');
                Some(())
            }
            Expr::PrimValue(e) => write!(out, "prim({e})").ok(),
            Expr::Tuple(items) => {
                out.push_str("tup(");
                for i in items {
                    go(i, out)?;
                    out.push(',');
                }
                out.push(')');
                Some(())
            }
            Expr::TupleGetItem(e, i) => {
                out.push_str("get(");
                go(e, out)?;
                write!(out, ",{i})").ok()
            }
            Expr::CallOp { op, args, attrs } => {
                write!(out, "op({}", op.name()).ok()?;
                for (k, v) in attrs {
                    write!(out, ",{k}={v}").ok()?;
                }
                out.push(';');
                for a in args {
                    go(a, out)?;
                    out.push(',');
                }
                out.push(')');
                Some(())
            }
            Expr::CallTir {
                func,
                args,
                sym_args,
                out_sinfo,
            } => {
                write!(out, "tir({func}:{out_sinfo};").ok()?;
                for a in args {
                    go(a, out)?;
                    out.push(',');
                }
                for s in sym_args {
                    write!(out, "|{s}").ok()?;
                }
                out.push(')');
                Some(())
            }
            Expr::CallDps {
                func,
                args,
                out_sinfo,
            } => {
                write!(out, "dps({func}:{out_sinfo};").ok()?;
                for a in args {
                    go(a, out)?;
                    out.push(',');
                }
                out.push(')');
                Some(())
            }
            // Subgraph calls are pure in Relax, but keep CSE local and
            // conservative: skip them and match_cast (which binds fresh
            // symbolic variables).
            Expr::CallGlobal { .. } | Expr::MatchCast { .. } => None,
        }
    }
    let mut s = String::new();
    go(expr, &mut s)?;
    Some(s)
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
            let mut seen: HashMap<String, Var> = HashMap::new();
            let mut alias: HashMap<u64, Var> = HashMap::new();
            for binding in &mut block.bindings {
                if !alias.is_empty() {
                    replace_vars(&mut binding.value, &alias);
                }
                if let Some(key) = expr_key(&binding.value) {
                    match seen.get(&key) {
                        Some(prev) => {
                            // Later uses of this binding go to the earlier
                            // variable; keep the binding as an alias so
                            // outputs stay valid (DCE removes it if dead).
                            alias.insert(binding.var.id(), prev.clone());
                            binding.value = Expr::Var(prev.clone());
                            rewritten += 1;
                        }
                        None => {
                            seen.insert(key, binding.var.clone());
                        }
                    }
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
