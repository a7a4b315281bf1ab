//! Analysis feedback (§4.2, Algorithm 1 applied module-wide): classify
//! every tensor program and record the result as a function attribute that
//! graph-level fusion reads.

use relax_core::IRModule;
use relax_tir::analysis;

/// Attribute key under which the compute pattern is recorded.
pub const COMPUTE_PATTERN_ATTR: &str = "compute_pattern";

/// Annotates every tensor program in the module with its compute pattern.
/// Returns the number of programs newly annotated.
///
/// Each program is classified once: a program that already records its
/// pattern is skipped. That is exact within [`crate::compile`], where only
/// this pass and [`crate::lift_tir_workspaces`] replace a tensor program
/// under its name, and workspace lifting runs after the last annotation;
/// a debug build still checks every skipped program's recorded pattern.
///
/// This is the *analysis feedback* optimization pattern: instead of
/// manually annotating properties on every high-level operator, the
/// compiler derives them from the loop structure of the tensor programs —
/// which also covers customized programs (like quantization decode) that
/// have no graph-level operator at all.
pub fn annotate_compute_patterns(module: &mut IRModule) -> usize {
    let fresh: Vec<_> = module
        .tir_funcs()
        .filter_map(|(name, func)| {
            if let Some(recorded) = func.attr(COMPUTE_PATTERN_ATTR) {
                debug_assert_eq!(
                    recorded,
                    analysis::pattern_kind(func).to_string(),
                    "`{name}` records a stale compute pattern"
                );
                return None;
            }
            let kind = analysis::pattern_kind(func).to_string();
            Some((name.clone(), func.with_attr(COMPUTE_PATTERN_ATTR, kind)))
        })
        .collect();
    let annotated = fresh.len();
    for (name, func) in fresh {
        module.set_tir_func(name, func);
    }
    annotated
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
