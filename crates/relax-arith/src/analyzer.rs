//! Bound analysis and symbolic proofs.

use std::collections::HashMap;

use crate::expr::{PrimExpr, Var};
use crate::simplify::simplify_with_bounds;

/// An inclusive integer interval used for constant-bound analysis.
///
/// `i64::MIN` / `i64::MAX` act as negative / positive infinity; all interval
/// arithmetic saturates so overflow degrades to "unknown" rather than
/// wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntBound {
    /// Inclusive lower bound (`i64::MIN` means unbounded below).
    pub min: i64,
    /// Inclusive upper bound (`i64::MAX` means unbounded above).
    pub max: i64,
}

impl IntBound {
    /// The unbounded interval.
    pub fn everything() -> Self {
        IntBound {
            min: i64::MIN,
            max: i64::MAX,
        }
    }

    /// A single-point interval.
    pub fn constant(v: i64) -> Self {
        IntBound { min: v, max: v }
    }

    /// The interval `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn range(min: i64, max: i64) -> Self {
        assert!(min <= max, "IntBound::range requires min <= max");
        IntBound { min, max }
    }

    /// The non-negative interval `[0, +inf)`, the default assumption for
    /// tensor shape variables.
    pub fn nonneg() -> Self {
        IntBound {
            min: 0,
            max: i64::MAX,
        }
    }

    /// Interval `[1, +inf)` for strictly positive dimensions.
    pub fn positive() -> Self {
        IntBound {
            min: 1,
            max: i64::MAX,
        }
    }

    /// Returns `true` when the interval is a single point.
    pub fn is_const(&self) -> bool {
        self.min == self.max
    }

    fn add(self, other: IntBound) -> IntBound {
        IntBound {
            min: sat_add(self.min, other.min),
            max: sat_add(self.max, other.max),
        }
    }

    fn neg(self) -> IntBound {
        IntBound {
            min: sat_neg(self.max),
            max: sat_neg(self.min),
        }
    }

    fn sub(self, other: IntBound) -> IntBound {
        self.add(other.neg())
    }

    fn mul(self, other: IntBound) -> IntBound {
        let candidates = [
            sat_mul(self.min, other.min),
            sat_mul(self.min, other.max),
            sat_mul(self.max, other.min),
            sat_mul(self.max, other.max),
        ];
        IntBound {
            min: *candidates.iter().min().expect("non-empty"),
            max: *candidates.iter().max().expect("non-empty"),
        }
    }

    fn floor_div(self, other: IntBound) -> IntBound {
        // Division by an interval containing zero is unbounded.
        if other.min <= 0 && other.max >= 0 {
            return IntBound::everything();
        }
        let candidates = [
            sat_div(self.min, other.min),
            sat_div(self.min, other.max),
            sat_div(self.max, other.min),
            sat_div(self.max, other.max),
        ];
        IntBound {
            min: *candidates.iter().min().expect("non-empty"),
            max: *candidates.iter().max().expect("non-empty"),
        }
    }

    fn floor_mod(self, other: IntBound) -> IntBound {
        if other.min >= 1 && other.max < i64::MAX {
            // Euclidean remainder with positive divisor lies in [0, max-1].
            IntBound::range(0, other.max - 1)
        } else {
            IntBound::everything()
        }
    }

    fn min_with(self, other: IntBound) -> IntBound {
        IntBound {
            min: self.min.min(other.min),
            max: self.max.min(other.max),
        }
    }

    fn max_with(self, other: IntBound) -> IntBound {
        IntBound {
            min: self.min.max(other.min),
            max: self.max.max(other.max),
        }
    }
}

fn sat_add(a: i64, b: i64) -> i64 {
    if a == i64::MIN || b == i64::MIN {
        return i64::MIN;
    }
    if a == i64::MAX || b == i64::MAX {
        return i64::MAX;
    }
    a.saturating_add(b)
}

fn sat_neg(a: i64) -> i64 {
    if a == i64::MIN {
        i64::MAX
    } else if a == i64::MAX {
        i64::MIN
    } else {
        -a
    }
}

fn sat_mul(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let inf_a = a == i64::MIN || a == i64::MAX;
    let inf_b = b == i64::MIN || b == i64::MAX;
    if inf_a || inf_b {
        let positive = (a > 0) == (b > 0);
        return if positive { i64::MAX } else { i64::MIN };
    }
    a.saturating_mul(b)
}

fn sat_div(a: i64, b: i64) -> i64 {
    if b == 0 {
        return if a >= 0 { i64::MAX } else { i64::MIN };
    }
    if a == i64::MIN || a == i64::MAX {
        let positive = (a > 0) == (b > 0);
        return if positive { i64::MAX } else { i64::MIN };
    }
    a.div_euclid(b)
}

/// Computes the constant interval of `expr` under variable bounds `env`.
///
/// Variables missing from `env` are assumed unbounded. This works directly on
/// the expression tree (no simplification), so it terminates even when called
/// from inside the simplifier.
pub(crate) fn bound_of(expr: &PrimExpr, env: &HashMap<Var, IntBound>) -> IntBound {
    match expr {
        PrimExpr::Int(v) => IntBound::constant(*v),
        PrimExpr::Var(v) => env.get(v).copied().unwrap_or_else(IntBound::everything),
        PrimExpr::Add(a, b) => bound_of(a, env).add(bound_of(b, env)),
        PrimExpr::Sub(a, b) => bound_of(a, env).sub(bound_of(b, env)),
        PrimExpr::Mul(a, b) => bound_of(a, env).mul(bound_of(b, env)),
        PrimExpr::FloorDiv(a, b) => bound_of(a, env).floor_div(bound_of(b, env)),
        PrimExpr::FloorMod(a, b) => bound_of(a, env).floor_mod(bound_of(b, env)),
        PrimExpr::Min(a, b) => bound_of(a, env).min_with(bound_of(b, env)),
        PrimExpr::Max(a, b) => bound_of(a, env).max_with(bound_of(b, env)),
    }
}

/// Symbolic analyzer: carries variable bounds and answers equality and
/// inequality queries about symbolic expressions.
///
/// The memory planner uses [`Analyzer::prove_equal`] to decide storage reuse
/// between dynamic allocations (Algorithm 3 in the paper) and
/// [`Analyzer::upper_bound`] to compute static allocation sizes once the user
/// declares shape upper bounds (e.g. a maximum context length).
///
/// # Examples
///
/// ```
/// use relax_arith::{Analyzer, IntBound, PrimExpr, Var};
/// let n = Var::new("n");
/// let mut ana = Analyzer::new();
/// ana.bind(n.clone(), IntBound::range(0, 2048));
/// let bytes = PrimExpr::from(n.clone()) * 4.into();
/// assert_eq!(ana.upper_bound(&bytes), Some(8192));
/// assert!(ana.can_prove_nonneg(&bytes));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    bounds: HashMap<Var, IntBound>,
}

impl Analyzer {
    /// Creates an analyzer with no variable bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a bound for a variable, replacing any previous bound.
    pub fn bind(&mut self, var: Var, bound: IntBound) {
        self.bounds.insert(var, bound);
    }

    /// Declares a variable to be a non-negative shape dimension.
    pub fn bind_shape_var(&mut self, var: Var) {
        self.bounds.entry(var).or_insert_with(IntBound::nonneg);
    }

    /// Simplifies an expression using the declared bounds.
    pub fn simplify(&self, expr: &PrimExpr) -> PrimExpr {
        simplify_with_bounds(expr, &self.bounds)
    }

    /// Computes the constant interval of an expression.
    pub fn const_int_bound(&self, expr: &PrimExpr) -> IntBound {
        let simplified = self.simplify(expr);
        bound_of(&simplified, &self.bounds)
    }

    /// Proves `a == b` symbolically. Returns `false` when the equality cannot
    /// be established (it may still hold at runtime).
    pub fn prove_equal(&self, a: &PrimExpr, b: &PrimExpr) -> bool {
        if a == b {
            return true;
        }
        let diff = self.simplify(&(a.clone() - b.clone()));
        if diff == PrimExpr::Int(0) {
            return true;
        }
        let bound = bound_of(&diff, &self.bounds);
        bound.min == 0 && bound.max == 0
    }

    /// Proves `a >= b`.
    pub fn can_prove_ge(&self, a: &PrimExpr, b: &PrimExpr) -> bool {
        let diff = self.simplify(&(a.clone() - b.clone()));
        bound_of(&diff, &self.bounds).min >= 0
    }

    /// Proves `a >= 0`.
    pub fn can_prove_nonneg(&self, a: &PrimExpr) -> bool {
        self.can_prove_ge(a, &PrimExpr::Int(0))
    }

    /// Returns the finite static upper bound of an expression, if one exists
    /// under the declared variable bounds.
    pub fn upper_bound(&self, expr: &PrimExpr) -> Option<i64> {
        let b = self.const_int_bound(expr);
        (b.max != i64::MAX).then_some(b.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prove_polynomial_equalities() {
        let n = Var::new("n");
        let ana = Analyzer::new();
        let a = PrimExpr::from(n.clone()) * 2.into();
        let b = PrimExpr::from(n.clone()) + n.clone().into();
        assert!(ana.prove_equal(&a, &b));
        let c = (PrimExpr::from(n.clone()) + 1.into()) * 4.into();
        let d = PrimExpr::from(n.clone()) * 4.into() + 4.into();
        assert!(ana.prove_equal(&c, &d));
        assert!(!ana.prove_equal(&a, &c));
    }

    #[test]
    fn distinct_vars_not_equal() {
        let n = Var::new("n");
        let m = Var::new("m");
        let ana = Analyzer::new();
        assert!(!ana.prove_equal(&n.clone().into(), &m.clone().into()));
    }

    #[test]
    fn bounds_enable_inequalities() {
        let n = Var::new("n");
        let mut ana = Analyzer::new();
        ana.bind(n.clone(), IntBound::range(1, 128));
        assert!(ana.can_prove_ge(&PrimExpr::from(n.clone()), &PrimExpr::Int(1)));
        assert_eq!(ana.upper_bound(&(PrimExpr::from(n) * 4.into())), Some(512));
    }

    #[test]
    fn unbounded_var_has_no_upper_bound() {
        let n = Var::new("n");
        let ana = Analyzer::new();
        assert_eq!(ana.upper_bound(&PrimExpr::from(n)), None);
    }

    #[test]
    fn bound_aware_min_max_simplify() {
        let n = Var::new("n");
        let mut ana = Analyzer::new();
        ana.bind(n.clone(), IntBound::range(0, 2048));
        let e = PrimExpr::from(n.clone()).min(4096.into());
        assert_eq!(ana.simplify(&e), PrimExpr::Var(n.clone()));
        let e = PrimExpr::from(n).max(4096.into());
        assert_eq!(ana.simplify(&e), PrimExpr::Int(4096));
    }

    #[test]
    fn floormod_bound_with_positive_divisor() {
        let n = Var::new("n");
        let mut ana = Analyzer::new();
        ana.bind_shape_var(n.clone());
        let e = PrimExpr::from(n).floor_mod(8.into());
        let b = ana.const_int_bound(&e);
        assert_eq!(b, IntBound::range(0, 7));
    }

    #[test]
    fn saturating_interval_arithmetic() {
        let n = Var::new("n");
        let ana = Analyzer::new();
        // Unbounded n: n * n has unknown sign bounds but must not panic.
        let e = PrimExpr::from(n.clone()) * n.clone().into();
        let b = ana.const_int_bound(&e);
        assert_eq!(b.max, i64::MAX);
    }
}
