//! Compute expressions evaluated inside tensor-program loop nests.

use std::fmt;

use relax_arith::{DataType, PrimExpr};

use crate::buffer::Buffer;

/// A runtime scalar produced while interpreting a tensor program.
///
/// Floating-point types (including `f16`) are carried as `f64`; integer
/// types as `i64`. Bit operations interpret the integer payload with the
/// width of the operation's source data type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A floating-point value.
    F(f64),
    /// An integer value.
    I(i64),
}

impl Scalar {
    /// Converts to `f64`, widening integers.
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::F(v) => v,
            Scalar::I(v) => v as f64,
        }
    }

    /// Converts to `i64`, truncating floats toward zero.
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::F(v) => v as i64,
            Scalar::I(v) => v,
        }
    }

    /// Casts the scalar to the representation class of `dtype`.
    pub fn cast(self, dtype: DataType) -> Scalar {
        if dtype.is_float() {
            Scalar::F(self.as_f64())
        } else {
            Scalar::I(self.as_i64())
        }
    }
}

/// A compute expression inside a tensor program.
///
/// Index arithmetic uses the shared symbolic integer expressions
/// ([`PrimExpr`]); values can be floating point or integer, supporting both
/// ordinary dense math and the bit-twiddling needed by customized operators
/// such as 4-bit quantization decode (`(W[k, j/8] >> (k%8*4)) & 15 - 7`).
#[derive(Debug, Clone, PartialEq)]
pub enum TirExpr {
    /// Floating-point immediate.
    FloatImm(f64),
    /// Integer immediate.
    IntImm(i64),
    /// Embeds a symbolic integer expression (loop variables, shape
    /// dimensions) as a scalar value.
    Index(PrimExpr),
    /// Loads `buffer[indices]`.
    Load(Buffer, Vec<PrimExpr>),
    /// Addition.
    Add(Box<TirExpr>, Box<TirExpr>),
    /// Subtraction.
    Sub(Box<TirExpr>, Box<TirExpr>),
    /// Multiplication.
    Mul(Box<TirExpr>, Box<TirExpr>),
    /// Division (float division for float operands, floor division for
    /// integers).
    Div(Box<TirExpr>, Box<TirExpr>),
    /// Maximum.
    Max(Box<TirExpr>, Box<TirExpr>),
    /// Minimum.
    Min(Box<TirExpr>, Box<TirExpr>),
    /// Logical shift right (integer).
    Shr(Box<TirExpr>, Box<TirExpr>),
    /// Bitwise and (integer).
    BitAnd(Box<TirExpr>, Box<TirExpr>),
    /// Exponential.
    Exp(Box<TirExpr>),
    /// Square root.
    Sqrt(Box<TirExpr>),
    /// Error-function based GELU-friendly tanh.
    Tanh(Box<TirExpr>),
    /// Logistic sigmoid (used by SiLU).
    Sigmoid(Box<TirExpr>),
    /// Negation.
    Neg(Box<TirExpr>),
    /// Cast to a data type's representation class.
    Cast(DataType, Box<TirExpr>),
    /// `if cond != 0 { then } else { otherwise }`.
    Select(Box<TirExpr>, Box<TirExpr>, Box<TirExpr>),
    /// `1` if the two index expressions are equal else `0`.
    IndexEq(PrimExpr, PrimExpr),
    /// `1` if `lhs <= rhs` else `0` (used for causal attention masks).
    IndexLe(PrimExpr, PrimExpr),
    /// Data-dependent load: indices are runtime values (gather /
    /// embedding lookup).
    LoadDyn(Buffer, Vec<TirExpr>),
}

impl TirExpr {
    /// Loads `buffer[indices]` (convenience constructor).
    pub fn load(buffer: &Buffer, indices: Vec<PrimExpr>) -> TirExpr {
        TirExpr::Load(buffer.clone(), indices)
    }

    /// Rebuilds an operator node from `f` of each operand. Leaves
    /// (immediates, indices, loads and index comparisons) come back as
    /// clones; a data-dependent load maps its index values.
    pub(crate) fn map_operands(&self, f: &mut impl FnMut(&TirExpr) -> TirExpr) -> TirExpr {
        match self {
            TirExpr::Add(a, b) => TirExpr::Add(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Sub(a, b) => TirExpr::Sub(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Mul(a, b) => TirExpr::Mul(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Div(a, b) => TirExpr::Div(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Max(a, b) => TirExpr::Max(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Min(a, b) => TirExpr::Min(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Shr(a, b) => TirExpr::Shr(Box::new(f(a)), Box::new(f(b))),
            TirExpr::BitAnd(a, b) => TirExpr::BitAnd(Box::new(f(a)), Box::new(f(b))),
            TirExpr::Exp(a) => TirExpr::Exp(Box::new(f(a))),
            TirExpr::Sqrt(a) => TirExpr::Sqrt(Box::new(f(a))),
            TirExpr::Tanh(a) => TirExpr::Tanh(Box::new(f(a))),
            TirExpr::Sigmoid(a) => TirExpr::Sigmoid(Box::new(f(a))),
            TirExpr::Neg(a) => TirExpr::Neg(Box::new(f(a))),
            TirExpr::Cast(dt, a) => TirExpr::Cast(*dt, Box::new(f(a))),
            TirExpr::Select(c, t, e) => {
                TirExpr::Select(Box::new(f(c)), Box::new(f(t)), Box::new(f(e)))
            }
            TirExpr::LoadDyn(b, idx) => TirExpr::LoadDyn(b.clone(), idx.iter().map(f).collect()),
            TirExpr::FloatImm(_)
            | TirExpr::IntImm(_)
            | TirExpr::Index(_)
            | TirExpr::Load(..)
            | TirExpr::IndexEq(..)
            | TirExpr::IndexLe(..) => self.clone(),
        }
    }

    /// Collects every buffer read by this expression into `out`.
    pub fn collect_reads(&self, out: &mut Vec<(Buffer, Vec<PrimExpr>)>) {
        match self {
            TirExpr::Load(b, idx) => out.push((b.clone(), idx.clone())),
            TirExpr::LoadDyn(b, idx) => {
                // Data-dependent access: record the buffer with no static
                // index structure, and recurse into the index values.
                out.push((b.clone(), Vec::new()));
                for i in idx {
                    i.collect_reads(out);
                }
            }
            TirExpr::FloatImm(_) | TirExpr::IntImm(_) | TirExpr::Index(_) => {}
            TirExpr::IndexEq(_, _) | TirExpr::IndexLe(_, _) => {}
            TirExpr::Add(a, b)
            | TirExpr::Sub(a, b)
            | TirExpr::Mul(a, b)
            | TirExpr::Div(a, b)
            | TirExpr::Max(a, b)
            | TirExpr::Min(a, b)
            | TirExpr::Shr(a, b)
            | TirExpr::BitAnd(a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            TirExpr::Exp(a)
            | TirExpr::Sqrt(a)
            | TirExpr::Tanh(a)
            | TirExpr::Sigmoid(a)
            | TirExpr::Neg(a)
            | TirExpr::Cast(_, a) => a.collect_reads(out),
            TirExpr::Select(c, t, e) => {
                c.collect_reads(out);
                t.collect_reads(out);
                e.collect_reads(out);
            }
        }
    }
}

impl std::ops::Add for TirExpr {
    type Output = TirExpr;
    fn add(self, rhs: TirExpr) -> TirExpr {
        TirExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for TirExpr {
    type Output = TirExpr;
    fn sub(self, rhs: TirExpr) -> TirExpr {
        TirExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for TirExpr {
    type Output = TirExpr;
    fn mul(self, rhs: TirExpr) -> TirExpr {
        TirExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for TirExpr {
    type Output = TirExpr;
    fn div(self, rhs: TirExpr) -> TirExpr {
        TirExpr::Div(Box::new(self), Box::new(rhs))
    }
}

impl From<f64> for TirExpr {
    fn from(v: f64) -> Self {
        TirExpr::FloatImm(v)
    }
}

impl From<i64> for TirExpr {
    fn from(v: i64) -> Self {
        TirExpr::IntImm(v)
    }
}

impl From<PrimExpr> for TirExpr {
    fn from(e: PrimExpr) -> Self {
        TirExpr::Index(e)
    }
}

impl fmt::Display for TirExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TirExpr::FloatImm(v) => write!(f, "{v}"),
            TirExpr::IntImm(v) => write!(f, "{v}"),
            TirExpr::Index(e) => write!(f, "{e}"),
            TirExpr::Load(b, idx) => {
                write!(f, "{}[", b.name())?;
                for (i, e) in idx.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            TirExpr::Add(a, b) => write!(f, "({a} + {b})"),
            TirExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            TirExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            TirExpr::Div(a, b) => write!(f, "({a} / {b})"),
            TirExpr::Max(a, b) => write!(f, "max({a}, {b})"),
            TirExpr::Min(a, b) => write!(f, "min({a}, {b})"),
            TirExpr::Shr(a, b) => write!(f, "({a} >> {b})"),
            TirExpr::BitAnd(a, b) => write!(f, "({a} & {b})"),
            TirExpr::Exp(a) => write!(f, "exp({a})"),
            TirExpr::Sqrt(a) => write!(f, "sqrt({a})"),
            TirExpr::Tanh(a) => write!(f, "tanh({a})"),
            TirExpr::Sigmoid(a) => write!(f, "sigmoid({a})"),
            TirExpr::Neg(a) => write!(f, "(-{a})"),
            TirExpr::Cast(dt, a) => write!(f, "cast<{dt}>({a})"),
            TirExpr::Select(c, t, e) => write!(f, "select({c}, {t}, {e})"),
            TirExpr::IndexEq(a, b) => write!(f, "({a} == {b})"),
            TirExpr::IndexLe(a, b) => write!(f, "({a} <= {b})"),
            TirExpr::LoadDyn(b, idx) => {
                write!(f, "{}[", b.name())?;
                for (i, e) in idx.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::Var;

    #[test]
    fn scalar_casts() {
        assert_eq!(Scalar::F(2.7).as_i64(), 2);
        assert_eq!(Scalar::I(3).as_f64(), 3.0);
        assert_eq!(Scalar::I(3).cast(DataType::F32), Scalar::F(3.0));
        assert_eq!(Scalar::F(3.9).cast(DataType::I64), Scalar::I(3));
    }

    #[test]
    fn collect_reads_finds_all_loads() {
        let i = Var::new("i");
        let a = Buffer::new("A", vec![8.into()], DataType::F32);
        let b = Buffer::new("B", vec![8.into()], DataType::F32);
        let e = TirExpr::load(&a, vec![i.clone().into()]) * TirExpr::load(&b, vec![i.into()])
            + TirExpr::FloatImm(1.0);
        let mut reads = Vec::new();
        e.collect_reads(&mut reads);
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].0, a);
        assert_eq!(reads[1].0, b);
    }

    #[test]
    fn display_matches_paper_style() {
        let k = Var::new("k");
        let w = Buffer::new("Wdata", vec![128.into(), 32.into()], DataType::U32);
        let e = TirExpr::BitAnd(
            Box::new(TirExpr::Shr(
                Box::new(TirExpr::load(
                    &w,
                    vec![k.clone().into(), PrimExpr::from(k).floor_div(8.into())],
                )),
                Box::new(TirExpr::IntImm(4)),
            )),
            Box::new(TirExpr::IntImm(15)),
        );
        assert_eq!(e.to_string(), "((Wdata[k, (k // 8)] >> 4) & 15)");
    }
}
