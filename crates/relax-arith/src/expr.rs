//! Core expression types: symbolic variables and integer expressions.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(0);

/// A symbolic integer variable, such as the `n` in a tensor shape `(n, 4)`.
///
/// Two variables are equal only if they were created by the same call to
/// [`Var::new`]; names are purely cosmetic, so distinct `Var::new("n")`
/// calls produce distinct variables. Cloning is cheap (reference counted).
///
/// # Examples
///
/// ```
/// use relax_arith::Var;
/// let a = Var::new("n");
/// let b = a.clone();
/// assert_eq!(a, b);
/// assert_ne!(a, Var::new("n"));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Arc<VarData>);

#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
struct VarData {
    id: u64,
    name: String,
}

impl Var {
    /// Creates a fresh symbolic variable with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Var(Arc::new(VarData {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
        }))
    }

    /// Returns the display name of the variable.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Returns the globally unique id of this variable.
    pub fn id(&self) -> u64 {
        self.0.id
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({}#{})", self.0.name, self.0.id)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.name)
    }
}

/// A symbolic integer expression used for tensor shape dimensions.
///
/// Expressions are built from variables and constants with standard operator
/// overloads plus [`PrimExpr::floor_div`], [`PrimExpr::floor_mod`],
/// [`PrimExpr::min`] and [`PrimExpr::max`]. All arithmetic is over `i64`.
///
/// # Examples
///
/// ```
/// use relax_arith::{PrimExpr, Var};
/// let n = Var::new("n");
/// let e = (PrimExpr::from(n) + 1.into()) * 4.into();
/// assert_eq!(e.to_string(), "((n + 1) * 4)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum PrimExpr {
    /// A symbolic variable.
    Var(Var),
    /// An integer constant.
    Int(i64),
    /// Addition.
    Add(Box<PrimExpr>, Box<PrimExpr>),
    /// Subtraction.
    Sub(Box<PrimExpr>, Box<PrimExpr>),
    /// Multiplication.
    Mul(Box<PrimExpr>, Box<PrimExpr>),
    /// Floor division (rounds toward negative infinity).
    FloorDiv(Box<PrimExpr>, Box<PrimExpr>),
    /// Floor modulo (result has the sign of the divisor).
    FloorMod(Box<PrimExpr>, Box<PrimExpr>),
    /// Minimum of two expressions.
    Min(Box<PrimExpr>, Box<PrimExpr>),
    /// Maximum of two expressions.
    Max(Box<PrimExpr>, Box<PrimExpr>),
}

/// Error returned by [`PrimExpr::eval`] when evaluation cannot complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable in the expression had no binding in the environment.
    UnboundVar(String),
    /// Division or modulo by zero.
    DivisionByZero,
    /// An intermediate value overflowed `i64`.
    Overflow,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(name) => write!(f, "unbound symbolic variable `{name}`"),
            EvalError::DivisionByZero => write!(f, "division by zero in shape expression"),
            EvalError::Overflow => write!(f, "shape expression overflows i64"),
        }
    }
}

impl std::error::Error for EvalError {}

impl PrimExpr {
    /// Creates a fresh variable expression (shorthand for `Var::new(..).into()`).
    pub fn var(name: impl Into<String>) -> Self {
        PrimExpr::Var(Var::new(name))
    }

    /// Returns the constant value if this expression is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PrimExpr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the variable if this expression is a bare variable reference.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            PrimExpr::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` if the expression contains no symbolic variables.
    pub fn is_const(&self) -> bool {
        match self {
            PrimExpr::Var(_) => false,
            PrimExpr::Int(_) => true,
            PrimExpr::Add(a, b)
            | PrimExpr::Sub(a, b)
            | PrimExpr::Mul(a, b)
            | PrimExpr::FloorDiv(a, b)
            | PrimExpr::FloorMod(a, b)
            | PrimExpr::Min(a, b)
            | PrimExpr::Max(a, b) => a.is_const() && b.is_const(),
        }
    }

    /// Floor division by `rhs` (rounds toward negative infinity).
    pub fn floor_div(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::FloorDiv(Box::new(self), Box::new(rhs))
    }

    /// Floor modulo by `rhs` (result has the sign of the divisor).
    pub fn floor_mod(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::FloorMod(Box::new(self), Box::new(rhs))
    }

    /// Minimum of `self` and `rhs`.
    pub fn min(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::Min(Box::new(self), Box::new(rhs))
    }

    /// Maximum of `self` and `rhs`.
    pub fn max(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::Max(Box::new(self), Box::new(rhs))
    }

    /// Evaluates the expression under concrete variable bindings.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundVar`] if a variable is missing from
    /// `env`, [`EvalError::DivisionByZero`] for a zero divisor, and
    /// [`EvalError::Overflow`] when a sum, difference or product leaves
    /// `i64`: a shape never wraps.
    ///
    /// # Examples
    ///
    /// ```
    /// use relax_arith::{PrimExpr, Var};
    /// use std::collections::HashMap;
    /// let n = Var::new("n");
    /// let e = PrimExpr::from(n.clone()) * 4.into();
    /// let mut env = HashMap::new();
    /// env.insert(n, 3);
    /// assert_eq!(e.eval(&env)?, 12);
    /// # Ok::<(), relax_arith::EvalError>(())
    /// ```
    pub fn eval(&self, env: &HashMap<Var, i64>) -> Result<i64, EvalError> {
        match self {
            PrimExpr::Var(v) => env
                .get(v)
                .copied()
                .ok_or_else(|| EvalError::UnboundVar(v.name().to_string())),
            PrimExpr::Int(v) => Ok(*v),
            PrimExpr::Add(a, b) => checked(a.eval(env)?.checked_add(b.eval(env)?)),
            PrimExpr::Sub(a, b) => checked(a.eval(env)?.checked_sub(b.eval(env)?)),
            PrimExpr::Mul(a, b) => checked(a.eval(env)?.checked_mul(b.eval(env)?)),
            PrimExpr::FloorDiv(a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(a.div_euclid(b))
            }
            PrimExpr::FloorMod(a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                if b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(a.rem_euclid(b))
            }
            PrimExpr::Min(a, b) => Ok(a.eval(env)?.min(b.eval(env)?)),
            PrimExpr::Max(a, b) => Ok(a.eval(env)?.max(b.eval(env)?)),
        }
    }
}

/// A checked sum, difference or product: `None` is an overflow.
fn checked(v: Option<i64>) -> Result<i64, EvalError> {
    v.ok_or(EvalError::Overflow)
}

impl From<i64> for PrimExpr {
    fn from(v: i64) -> Self {
        PrimExpr::Int(v)
    }
}

impl From<usize> for PrimExpr {
    fn from(v: usize) -> Self {
        PrimExpr::Int(v as i64)
    }
}

impl From<i32> for PrimExpr {
    fn from(v: i32) -> Self {
        PrimExpr::Int(v as i64)
    }
}

impl From<Var> for PrimExpr {
    fn from(v: Var) -> Self {
        PrimExpr::Var(v)
    }
}

impl From<&Var> for PrimExpr {
    fn from(v: &Var) -> Self {
        PrimExpr::Var(v.clone())
    }
}

impl std::ops::Add for PrimExpr {
    type Output = PrimExpr;
    fn add(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for PrimExpr {
    type Output = PrimExpr;
    fn sub(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for PrimExpr {
    type Output = PrimExpr;
    fn mul(self, rhs: PrimExpr) -> PrimExpr {
        PrimExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for PrimExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimExpr::Var(v) => write!(f, "{v}"),
            PrimExpr::Int(v) => write!(f, "{v}"),
            PrimExpr::Add(a, b) => write!(f, "({a} + {b})"),
            PrimExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            PrimExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            PrimExpr::FloorDiv(a, b) => write!(f, "({a} // {b})"),
            PrimExpr::FloorMod(a, b) => write!(f, "({a} % {b})"),
            PrimExpr::Min(a, b) => write!(f, "min({a}, {b})"),
            PrimExpr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

impl fmt::Debug for PrimExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrimExpr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_identity_is_by_id_not_name() {
        let a = Var::new("n");
        let b = Var::new("n");
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a.name(), "n");
    }

    #[test]
    fn display_matches_paper_syntax() {
        let n = Var::new("n");
        let e = PrimExpr::from(n) * 4.into();
        assert_eq!(e.to_string(), "(n * 4)");
    }

    #[test]
    fn eval_arithmetic() {
        let n = Var::new("n");
        let m = Var::new("m");
        let mut env = HashMap::new();
        env.insert(n.clone(), 7);
        env.insert(m.clone(), 3);
        let e = (PrimExpr::from(n.clone()) + m.clone().into()) * 2.into();
        assert_eq!(e.eval(&env).unwrap(), 20);
        let d = PrimExpr::from(n.clone()).floor_div(m.clone().into());
        assert_eq!(d.eval(&env).unwrap(), 2);
        let r = PrimExpr::from(n).floor_mod(m.into());
        assert_eq!(r.eval(&env).unwrap(), 1);
    }

    #[test]
    fn eval_floor_semantics_for_negatives() {
        let env = HashMap::new();
        let e = PrimExpr::from(-7i64).floor_div(2.into());
        assert_eq!(e.eval(&env).unwrap(), -4);
        let m = PrimExpr::from(-7i64).floor_mod(2.into());
        assert_eq!(m.eval(&env).unwrap(), 1);
    }

    #[test]
    fn eval_errors() {
        let n = Var::new("n");
        let env = HashMap::new();
        assert_eq!(
            PrimExpr::from(n).eval(&env),
            Err(EvalError::UnboundVar("n".into()))
        );
        assert_eq!(
            PrimExpr::from(1i64).floor_div(0.into()).eval(&env),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn eval_refuses_overflow_instead_of_wrapping() {
        let n = Var::new("n");
        let env = HashMap::from([(n.clone(), 1i64 << 62)]);
        let times = |k: i64| PrimExpr::from(n.clone()) * k.into();
        assert_eq!(times(4).eval(&env), Err(EvalError::Overflow));
        assert_eq!(times(-2).eval(&env), Ok(i64::MIN));
        let sum = PrimExpr::from(n.clone()) + n.clone().into();
        assert_eq!(sum.eval(&env), Err(EvalError::Overflow));
        let diff = PrimExpr::from(i64::MIN) - n.into();
        assert_eq!(diff.eval(&env), Err(EvalError::Overflow));
    }

    #[test]
    fn is_const_and_accessors() {
        let n = Var::new("n");
        assert!(PrimExpr::from(3i64).is_const());
        assert!(!(PrimExpr::from(n.clone()) + 1.into()).is_const());
        assert_eq!(PrimExpr::from(5i64).as_int(), Some(5));
        assert_eq!(PrimExpr::from(n.clone()).as_var(), Some(&n));
    }
}
