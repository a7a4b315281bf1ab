//! Buffers: the memory operands of loop-level tensor programs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relax_arith::{DataType, PrimExpr};

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(0);

/// Memory scope of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemScope {
    /// Device global memory: function parameters and workspaces live here.
    #[default]
    Global,
    /// Function-local scratch (shared memory / registers in real backends).
    /// Local buffers do not count toward global memory traffic.
    Local,
}

impl fmt::Display for MemScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemScope::Global => f.write_str("global"),
            MemScope::Local => f.write_str("local"),
        }
    }
}

/// A typed, symbolically shaped memory region operated on by a tensor
/// program.
///
/// Buffers have reference identity: cloning a `Buffer` aliases it, and two
/// buffers are equal only if they originate from the same
/// [`Buffer::new`] call. Shapes may contain symbolic dimensions.
///
/// # Examples
///
/// ```
/// use relax_tir::Buffer;
/// use relax_arith::{DataType, PrimExpr, Var};
/// let n = Var::new("n");
/// let x = Buffer::new("X", vec![n.into(), 128.into()], DataType::F32);
/// assert_eq!(x.ndim(), 2);
/// assert_eq!(x.to_string(), "X: Buffer((n, 128), \"f32\")");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Buffer(Arc<BufferData>);

#[derive(PartialEq, Eq, Hash)]
struct BufferData {
    id: u64,
    name: String,
    shape: Vec<PrimExpr>,
    dtype: DataType,
    scope: MemScope,
}

impl Buffer {
    /// Creates a new global-scope buffer.
    pub fn new(name: impl Into<String>, shape: Vec<PrimExpr>, dtype: DataType) -> Self {
        Self::with_scope(name, shape, dtype, MemScope::Global)
    }

    /// Creates a buffer in an explicit memory scope.
    pub fn with_scope(
        name: impl Into<String>,
        shape: Vec<PrimExpr>,
        dtype: DataType,
        scope: MemScope,
    ) -> Self {
        Buffer(Arc::new(BufferData {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            shape,
            dtype,
            scope,
        }))
    }

    /// Returns a new buffer identical to this one but in the given scope.
    /// The result has fresh identity.
    pub fn rescoped(&self, scope: MemScope) -> Buffer {
        Buffer::with_scope(self.name(), self.shape().to_vec(), self.dtype(), scope)
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The globally unique identity of this buffer.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The (possibly symbolic) shape.
    pub fn shape(&self) -> &[PrimExpr] {
        &self.0.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.shape.len()
    }

    /// Element data type.
    pub fn dtype(&self) -> DataType {
        self.0.dtype
    }

    /// Memory scope.
    pub fn scope(&self) -> MemScope {
        self.0.scope
    }

    /// Symbolic number of elements (product of all dimensions).
    pub fn num_elements(&self) -> PrimExpr {
        self.0
            .shape
            .iter()
            .cloned()
            .fold(PrimExpr::Int(1), |acc, d| acc * d)
    }

    /// Symbolic size in bytes.
    pub fn size_bytes(&self) -> PrimExpr {
        self.num_elements() * PrimExpr::Int(self.dtype().size_bytes() as i64)
    }
}

impl fmt::Display for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: Buffer((", self.name())?;
        for (i, d) in self.shape().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "), \"{}\")", self.dtype())
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Buffer({}#{})", self.name(), self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::Var;

    #[test]
    fn identity_is_by_allocation() {
        let a = Buffer::new("X", vec![4.into()], DataType::F32);
        let b = Buffer::new("X", vec![4.into()], DataType::F32);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn symbolic_sizes() {
        let n = Var::new("n");
        let b = Buffer::new("Y", vec![n.clone().into(), 256.into()], DataType::F16);
        let elems = relax_arith::simplify(&b.num_elements());
        assert_eq!(
            elems,
            relax_arith::simplify(&(PrimExpr::from(n.clone()) * 256.into()))
        );
        let bytes = relax_arith::simplify(&b.size_bytes());
        assert_eq!(
            bytes,
            relax_arith::simplify(&(PrimExpr::from(n) * 512.into()))
        );
    }

    #[test]
    fn rescoped_changes_scope_and_identity() {
        let a = Buffer::new("W", vec![8.into()], DataType::F32);
        let local = a.rescoped(MemScope::Local);
        assert_eq!(local.scope(), MemScope::Local);
        assert_ne!(a, local);
        assert_eq!(a.scope(), MemScope::Global);
    }
}
