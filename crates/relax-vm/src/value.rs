//! Runtime values held in VM registers, and the argument checks every
//! runtime builtin runs on them.

use std::fmt;

use relax_arith::DataType;
use relax_tir::NDArray;

use crate::domain::RegValue;
use crate::kv_cache::KvCache;
use crate::registry::KernelError;

/// A runtime value in a VM register.
#[derive(Debug, Clone)]
pub enum Value {
    /// An uninitialized register.
    None,
    /// A tensor.
    Tensor(NDArray),
    /// A tuple of values.
    Tuple(Vec<Value>),
    /// A first-class shape value (concrete at runtime).
    Shape(Vec<i64>),
    /// A storage block produced by static memory planning.
    Storage {
        /// Identity assigned by the allocator.
        id: u64,
        /// Size in bytes.
        bytes: usize,
    },
    /// A paged KV-cache handle (cloning aliases the same pages).
    KvCache(KvCache),
}

impl Value {
    /// Returns the tensor, if this value is one.
    pub fn as_tensor(&self) -> Option<&NDArray> {
        match self {
            Value::Tensor(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the tuple fields, if this value is a tuple.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the shape dims, if this value is a shape.
    pub fn as_shape(&self) -> Option<&[i64]> {
        match self {
            Value::Shape(dims) => Some(dims),
            _ => None,
        }
    }

    /// Returns the KV-cache handle, if this value is one.
    pub fn as_kv_cache(&self) -> Option<&KvCache> {
        match self {
            Value::KvCache(c) => Some(c),
            _ => None,
        }
    }

    /// What a launch span records for this argument: a tensor's shape, a
    /// shape's values, a KV cache's `[batch, heads, head_dim]` and each
    /// stream's length (of a stack: its longest member's), else nothing.
    pub(crate) fn launch_dims(&self) -> Vec<usize> {
        match self {
            Value::Tensor(t) => t.shape().to_vec(),
            Value::Shape(dims) => dims.iter().map(|&d| d.max(0) as usize).collect(),
            Value::KvCache(c) => {
                let (cfg, lens) = (c.config(), c.lens());
                let longest = |s| lens.iter().skip(s).step_by(cfg.streams).max().copied();
                cfg.launch_dims((0..cfg.streams).map(|s| longest(s).unwrap_or(0)))
            }
            _ => Vec::new(),
        }
    }

    /// A short description of the value kind for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::None => "none",
            Value::Tensor(_) => "tensor",
            Value::Tuple(_) => "tuple",
            Value::Shape(_) => "shape",
            Value::Storage { .. } => "storage",
            Value::KvCache(_) => "kv_cache",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => f.write_str("none"),
            Value::Tensor(t) => write!(f, "Tensor(shape={:?}, \"{}\")", t.shape(), t.dtype()),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Shape(dims) => write!(f, "shape{dims:?}"),
            Value::Storage { id, bytes } => write!(f, "storage#{id}({bytes}B)"),
            Value::KvCache(c) => write!(f, "{c:?}"),
        }
    }
}

impl RegValue for Value {
    fn none() -> Self {
        Value::None
    }

    fn alloc(dims: &[usize], dtype: DataType) -> Self {
        Value::Tensor(NDArray::zeros(dims, dtype))
    }

    fn constant(c: &NDArray) -> Self {
        Value::Tensor(c.clone())
    }

    fn shape(dims: Vec<i64>) -> Self {
        Value::Shape(dims)
    }

    fn tuple(items: Vec<Self>) -> Self {
        Value::Tuple(items)
    }

    fn storage(id: u64, bytes: usize) -> Self {
        Value::Storage { id, bytes }
    }

    fn kind(&self) -> &'static str {
        Value::kind(self)
    }

    fn dims(&self) -> Option<Vec<i64>> {
        match self {
            Value::Tensor(t) => Some(t.shape().iter().map(|&d| d as i64).collect()),
            Value::Shape(dims) => Some(dims.clone()),
            _ => None,
        }
    }

    fn items(&self) -> Option<&[Self]> {
        self.as_tuple()
    }

    fn as_shape(&self) -> Option<&[i64]> {
        Value::as_shape(self)
    }

    fn bytes(&self) -> Option<usize> {
        match self {
            Value::Storage { bytes, .. } => Some(*bytes),
            _ => None,
        }
    }
}

impl From<NDArray> for Value {
    fn from(t: NDArray) -> Self {
        Value::Tensor(t)
    }
}

/// Argument `i` of the builtin `kernel`, as the `what` that `pick` selects;
/// anything else is the builtin's [`KernelError`]. The VM's builtins and
/// the dry run read their arguments through it, so both refuse alike.
///
/// # Errors
///
/// A missing argument, or one `pick` does not select.
pub fn want<'a, V: RegValue, T>(
    kernel: &str,
    args: &'a [V],
    i: usize,
    what: &str,
    pick: impl FnOnce(&'a V) -> Option<T>,
) -> Result<T, KernelError> {
    let v = args
        .get(i)
        .ok_or_else(|| KernelError::new(kernel, format!("missing {what} argument")))?;
    pick(v).ok_or_else(|| KernelError::new(kernel, format!("expected a {what}, got {}", v.kind())))
}

/// Argument `i` of the builtin `kernel` as a tensor.
pub(crate) fn want_tensor<'a>(
    kernel: &str,
    args: &'a [Value],
    i: usize,
) -> Result<&'a NDArray, KernelError> {
    want(kernel, args, i, "tensor", Value::as_tensor)
}

/// Argument `i` of the builtin `kernel` as a KV-cache handle.
pub(crate) fn want_cache<'a>(
    kernel: &str,
    args: &'a [Value],
    i: usize,
) -> Result<&'a KvCache, KernelError> {
    want(kernel, args, i, "kv_cache", Value::as_kv_cache)
}

/// Argument `i` of the builtin `kernel` as a shape of exactly `dims` dims,
/// for the VM's builtins and the dry run alike.
///
/// # Errors
///
/// As [`want`], or a shape of another length.
pub fn want_shape<'a, V: RegValue>(
    kernel: &str,
    args: &'a [V],
    i: usize,
    dims: usize,
) -> Result<&'a [i64], KernelError> {
    let d = want(kernel, args, i, "shape", V::as_shape)?;
    if d.len() != dims {
        let detail = format!("expected a shape of {dims} dims, got {}", d.len());
        return Err(KernelError::new(kernel, detail));
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::DataType;

    #[test]
    fn accessors() {
        let t = NDArray::zeros(&[2], DataType::F32);
        let v = Value::Tensor(t.clone());
        assert!(v.as_tensor().is_some());
        assert!(v.as_tuple().is_none());
        assert_eq!(v.kind(), "tensor");
        let tup = Value::Tuple(vec![v, Value::Shape(vec![3])]);
        assert_eq!(tup.as_tuple().unwrap().len(), 2);
        assert_eq!(Value::Shape(vec![1, 2]).as_shape().unwrap(), &[1, 2]);
    }
}
