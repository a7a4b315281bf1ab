//! Analysis feedback (§4.2, Algorithm 1 applied module-wide): classify
//! every tensor program and record the result as a function attribute that
//! graph-level fusion reads.

use relax_core::IRModule;
use relax_tir::analysis;

/// Attribute key under which the compute pattern is recorded.
pub const COMPUTE_PATTERN_ATTR: &str = "compute_pattern";

/// Annotates every tensor program in the module with its compute pattern.
/// Returns the number of programs whose recorded pattern changed (newly
/// annotated or reclassified).
///
/// This is the *analysis feedback* optimization pattern: instead of
/// manually annotating properties on every high-level operator, the
/// compiler derives them from the loop structure of the tensor programs —
/// which also covers customized programs (like quantization decode) that
/// have no graph-level operator at all.
pub fn annotate_compute_patterns(module: &mut IRModule) -> usize {
    let names: Vec<String> = module.tir_funcs().map(|(n, _)| n.clone()).collect();
    let mut updated = 0;
    for name in names {
        let func = module.tir_func(&name).expect("name just listed").clone();
        let kind = analysis::pattern_kind(&func).to_string();
        if func.attr(COMPUTE_PATTERN_ATTR) == Some(kind.as_str()) {
            continue;
        }
        module.set_tir_func(name, func.with_attr(COMPUTE_PATTERN_ATTR, kind));
        updated += 1;
    }
    updated
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::{DataType, Var};
    use relax_tir::{grid, Buffer, PrimFunc, Stmt, TirExpr};

    #[test]
    fn patterns_recorded_as_attrs() {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.into())]);
        let body = nest.build(Stmt::store(
            &y,
            vec![iv[0].clone().into()],
            TirExpr::Exp(Box::new(TirExpr::load(&x, vec![iv[0].clone().into()]))),
        ));
        let mut m = IRModule::new();
        m.add_tir_func(PrimFunc::new("exp", vec![x, y], 1, body));
        annotate_compute_patterns(&mut m);
        assert_eq!(
            m.tir_func("exp").unwrap().attr(COMPUTE_PATTERN_ATTR),
            Some("ElementWise")
        );
    }
}
