//! Shape-level register values: what the dry run holds where the VM holds
//! a [`relax_vm::Value`].

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_vm::domain::{tensor_bytes, RegValue};
use relax_vm::{KvCacheConfig, VmErrorKind};

/// Dimensions as sizes (a negative one reads as 0).
pub(crate) fn sizes(dims: &[i64]) -> Vec<usize> {
    dims.iter().map(|&d| d.max(0) as usize).collect()
}

/// A runtime value tracked at the shape level.
#[derive(Debug, Clone, PartialEq)]
pub enum SimValue {
    /// Uninitialized.
    None,
    /// A tensor's shape and dtype.
    Tensor {
        /// Concrete dimensions.
        dims: Vec<i64>,
        /// Element type.
        dtype: DataType,
    },
    /// A tuple.
    Tuple(Vec<SimValue>),
    /// A first-class shape.
    Shape(Vec<i64>),
    /// A storage block.
    Storage(usize),
    /// A paged KV-cache handle: per-stream logical token counts plus
    /// the fixed geometry, tracked so paged-append builtins can be
    /// charged for the appended slice only.
    KvCache {
        /// Logical token count per stream.
        streams: Vec<i64>,
        /// Batch dimension.
        batch: i64,
        /// KV head count.
        heads: i64,
        /// Head dimension.
        head_dim: i64,
        /// Element dtype.
        dtype: DataType,
    },
}

impl SimValue {
    /// Constructs a tensor shape value.
    pub fn tensor(dims: Vec<i64>, dtype: DataType) -> Self {
        SimValue::Tensor { dims, dtype }
    }

    /// A tensor's bytes by the loop's checked `tensor_bytes` (a size beyond
    /// `usize` fails `StorageOverflow`, as in the VM); 0 for other values.
    pub(crate) fn byte_size(&self) -> Result<usize, VmErrorKind> {
        let tensor = self.tensor_arg();
        tensor.map_or(Ok(0), |(dims, dtype)| tensor_bytes(&dims, dtype))
    }

    /// A tensor's dimensions and dtype, as the VM's rules take them.
    pub(crate) fn tensor_arg(&self) -> Option<(Vec<usize>, DataType)> {
        match self {
            SimValue::Tensor { dims, dtype } => Some((sizes(dims), *dtype)),
            _ => None,
        }
    }

    /// A cache's geometry and per-stream lengths, as the VM's rules take
    /// them.
    pub(crate) fn kv_cache(&self) -> Option<(KvCacheConfig, Vec<usize>)> {
        let SimValue::KvCache {
            streams,
            batch,
            heads,
            head_dim,
            dtype,
        } = self
        else {
            return None;
        };
        let size = |d: &i64| (*d).max(0) as usize;
        let cfg = KvCacheConfig {
            streams: streams.len(),
            batch: size(batch),
            heads: size(heads),
            head_dim: size(head_dim),
            dtype: *dtype,
        };
        Some((cfg, sizes(streams)))
    }

    /// The dimensions the launch log records for this argument, as
    /// `relax_vm::Value::launch_dims` does for the VM's.
    pub(crate) fn launch_dims(&self) -> Vec<usize> {
        match self {
            SimValue::Tensor { dims, .. } | SimValue::Shape(dims) => sizes(dims),
            _ => self
                .kv_cache()
                .map(|(cfg, lens)| cfg.launch_dims(lens))
                .unwrap_or_default(),
        }
    }
}

impl RegValue for SimValue {
    fn none() -> Self {
        SimValue::None
    }

    fn alloc(dims: &[usize], dtype: DataType) -> Self {
        SimValue::tensor(dims.iter().map(|&d| d as i64).collect(), dtype)
    }

    fn constant(c: &NDArray) -> Self {
        Self::alloc(c.shape(), c.dtype())
    }

    fn shape(dims: Vec<i64>) -> Self {
        SimValue::Shape(dims)
    }

    fn tuple(items: Vec<Self>) -> Self {
        SimValue::Tuple(items)
    }

    fn storage(_: u64, bytes: usize) -> Self {
        SimValue::Storage(bytes)
    }

    fn kind(&self) -> &'static str {
        match self {
            SimValue::None => "none",
            SimValue::Tensor { .. } => "tensor",
            SimValue::Tuple(_) => "tuple",
            SimValue::Shape(_) => "shape",
            SimValue::Storage(_) => "storage",
            SimValue::KvCache { .. } => "kv_cache",
        }
    }

    fn dims(&self) -> Option<Vec<i64>> {
        match self {
            SimValue::Tensor { dims, .. } | SimValue::Shape(dims) => Some(dims.clone()),
            _ => None,
        }
    }

    fn items(&self) -> Option<&[Self]> {
        match self {
            SimValue::Tuple(items) => Some(items),
            _ => None,
        }
    }

    fn as_shape(&self) -> Option<&[i64]> {
        match self {
            SimValue::Shape(dims) => Some(dims),
            _ => None,
        }
    }

    fn bytes(&self) -> Option<usize> {
        match self {
            SimValue::Storage(bytes) => Some(*bytes),
            _ => None,
        }
    }
}
