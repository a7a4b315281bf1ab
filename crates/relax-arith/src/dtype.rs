//! Tensor element data types shared by every level of the compiler.

use std::fmt;
use std::str::FromStr;

/// Element type of a tensor or buffer.
///
/// The reproduction interprets `f16` values with `f32` host arithmetic (the
/// size is still two bytes for memory accounting, matching how the paper's
/// evaluation reports f16 activation memory).
///
/// # Examples
///
/// ```
/// use relax_arith::DataType;
/// assert_eq!(DataType::F16.size_bytes(), 2);
/// assert_eq!("f32".parse::<DataType>()?, DataType::F32);
/// # Ok::<(), relax_arith::ParseDataTypeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Boolean, stored as one byte.
    Bool,
    /// 8-bit signed integer.
    I8,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer (also the type of shape values).
    I64,
    /// 8-bit unsigned integer.
    U8,
    /// 32-bit unsigned integer (used for packed 4-bit quantized weights).
    U32,
    /// 16-bit IEEE float (computed in f32 on the host).
    F16,
    /// 32-bit IEEE float.
    F32,
}

impl DataType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DataType::Bool | DataType::I8 | DataType::U8 => 1,
            DataType::F16 => 2,
            DataType::I32 | DataType::U32 | DataType::F32 => 4,
            DataType::I64 => 8,
        }
    }

    /// Returns `true` for floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::F16 | DataType::F32)
    }

    /// Canonical short name, e.g. `"f32"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DataType::Bool => "bool",
            DataType::I8 => "i8",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::U8 => "u8",
            DataType::U32 => "u32",
            DataType::F16 => "f16",
            DataType::F32 => "f32",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown data type name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDataTypeError {
    input: String,
}

impl fmt::Display for ParseDataTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown data type `{}`", self.input)
    }
}

impl std::error::Error for ParseDataTypeError {}

impl FromStr for DataType {
    type Err = ParseDataTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "bool" => DataType::Bool,
            "i8" => DataType::I8,
            "i32" => DataType::I32,
            "i64" => DataType::I64,
            "u8" => DataType::U8,
            "u32" => DataType::U32,
            "f16" => DataType::F16,
            "f32" => DataType::F32,
            _ => {
                return Err(ParseDataTypeError {
                    input: s.to_string(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DataType::Bool.size_bytes(), 1);
        assert_eq!(DataType::F16.size_bytes(), 2);
        assert_eq!(DataType::F32.size_bytes(), 4);
        assert_eq!(DataType::I64.size_bytes(), 8);
        assert_eq!(DataType::U32.size_bytes(), 4);
    }

    #[test]
    fn parse_round_trip() {
        for dt in [
            DataType::Bool,
            DataType::I8,
            DataType::I32,
            DataType::I64,
            DataType::U8,
            DataType::U32,
            DataType::F16,
            DataType::F32,
        ] {
            assert_eq!(dt.as_str().parse::<DataType>().unwrap(), dt);
        }
        assert!("f64".parse::<DataType>().is_err());
    }

    #[test]
    fn float_int_classification() {
        assert!(DataType::F16.is_float());
        assert!(!DataType::U32.is_float());
    }
}
