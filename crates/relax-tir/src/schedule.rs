//! The kernel schedule decision: which tensor programs run as macro-ops.
//!
//! [`auto_schedule`] detects the canonical reduction nest that the plan
//! compiler's cache-blocked matmul superinstruction accelerates and
//! stamps the `relax.schedule` attribute on it. The attribute is the
//! whole schedule: plan compilation (`crate::plan`) recognizes the
//! macro-op and fuses elementwise epilogues into its row loop only in
//! stamped functions, and proves the result bitwise equal to the scalar
//! tape. The exec-stage `schedule_kernels` pass (relax-passes) applies it
//! to every tensor program of a compiled executable.

use relax_arith::{free_vars, PrimExpr, Var};

use crate::expr::TirExpr;
use crate::func::PrimFunc;
use crate::stmt::Stmt;

/// Pipeline auto-scheduler: detects the canonical reduction nest the plan
/// compiler's cache-blocked matmul superinstruction accelerates —
/// `for k { if k == 0 { Y[..] = c }; Y[..] = Y[..] + A[..] * B[..] } }`
/// with `k` absent from `Y`'s indices — and opts the function into
/// macro-op recognition via the `relax.schedule` attribute. Functions
/// without the pattern are left untouched (`None`).
pub fn auto_schedule(func: &PrimFunc) -> Option<PrimFunc> {
    if func.attr("relax.schedule").is_some() {
        // Already stamped, e.g. by a previous pass run.
        return None;
    }
    if !has_dot_pattern(func.body()) {
        return None;
    }
    Some(func.with_attr("relax.schedule", "macro"))
}

fn has_dot_pattern(s: &Stmt) -> bool {
    match s {
        Stmt::For { var, body, .. } => is_dot_body(var, body) || has_dot_pattern(body),
        Stmt::Seq(stmts) => stmts.iter().any(has_dot_pattern),
        Stmt::IfEq { then, .. } => has_dot_pattern(then),
        Stmt::Alloc { body, .. } => has_dot_pattern(body),
        Stmt::Store { .. } | Stmt::Evaluate => false,
    }
}

/// `body` (of a loop over `k`) is `[if k == 0 { Y = c }; Y += A * B]`.
fn is_dot_body(k: &Var, body: &Stmt) -> bool {
    let Stmt::Seq(stmts) = body else {
        return false;
    };
    if stmts.len() != 2 {
        return false;
    }
    let Stmt::IfEq { lhs, rhs, then } = &stmts[0] else {
        return false;
    };
    if lhs != &PrimExpr::from(k.clone()) || rhs != &PrimExpr::Int(0) {
        return false;
    }
    let Stmt::Store {
        buffer: yb,
        indices: yi,
        value: init,
    } = &**then
    else {
        return false;
    };
    if !matches!(init, TirExpr::FloatImm(_)) {
        return false;
    }
    let Stmt::Store {
        buffer,
        indices,
        value,
    } = &stmts[1]
    else {
        return false;
    };
    if buffer.id() != yb.id() || indices != yi {
        return false;
    }
    if indices.iter().any(|e| free_vars(e).contains(k)) {
        return false;
    }
    let TirExpr::Add(acc, prod) = value else {
        return false;
    };
    let TirExpr::Load(lb, li) = &**acc else {
        return false;
    };
    if lb.id() != buffer.id() || li != indices {
        return false;
    }
    matches!(
        &**prod,
        TirExpr::Mul(a, b)
            if matches!(&**a, TirExpr::Load(_, _)) && matches!(&**b, TirExpr::Load(_, _))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::builder::grid;
    use relax_arith::DataType;

    fn matmul(n: i64, k: i64, m: i64) -> PrimFunc {
        let x = Buffer::new("X", vec![n.into(), k.into()], DataType::F32);
        let w = Buffer::new("W", vec![k.into(), m.into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.into(), m.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.into()), ("j", m.into()), ("k", k.into())]);
        let (i, j, kk) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
        let init = Stmt::IfEq {
            lhs: kk.clone().into(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &y,
                vec![i.clone().into(), j.clone().into()],
                TirExpr::FloatImm(0.0),
            )),
        };
        let update = Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
                + TirExpr::load(&x, vec![i.into(), kk.clone().into()])
                    * TirExpr::load(&w, vec![kk.into(), j.into()]),
        );
        PrimFunc::new(
            "mm",
            vec![x, w, y],
            1,
            nest.build(Stmt::seq(vec![init, update])),
        )
    }

    #[test]
    fn auto_schedule_marks_reduction_nests_only() {
        let mm = matmul(8, 6, 10);
        let marked = auto_schedule(&mm).unwrap();
        assert_eq!(marked.attr("relax.schedule"), Some("macro"));

        // Pure elementwise: no reduction nest, no mark.
        let x = Buffer::new("X", vec![4.into()], DataType::F32);
        let y = Buffer::new("Y", vec![4.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", 4.into())]);
        let body = nest.build(Stmt::store(
            &y,
            vec![iv[0].clone().into()],
            TirExpr::load(&x, vec![iv[0].clone().into()]) + TirExpr::FloatImm(1.0),
        ));
        let ew = PrimFunc::new("add1", vec![x, y], 1, body);
        assert!(auto_schedule(&ew).is_none());
    }
}
