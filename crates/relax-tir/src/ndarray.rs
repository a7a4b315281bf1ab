//! Host tensors used by the tensor-program interpreter and the VM.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::Arc;

use relax_arith::DataType;

use crate::expr::Scalar;

/// Error produced by [`NDArray`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NDArrayError {
    /// An index exceeded the array extent.
    IndexOutOfBounds {
        /// The offending flat index.
        index: usize,
        /// The number of elements.
        len: usize,
    },
    /// Number of elements did not match the shape.
    LengthMismatch {
        /// Elements expected from the shape.
        expected: usize,
        /// Elements provided.
        actual: usize,
    },
    /// Two arrays in a raw-bits copy had different dtypes.
    DtypeMismatch {
        /// Destination dtype name.
        dst: String,
        /// Source dtype name.
        src: String,
    },
}

impl fmt::Display for NDArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NDArrayError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of {len} elements")
            }
            NDArrayError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} elements, got {actual}")
            }
            NDArrayError::DtypeMismatch { dst, src } => {
                write!(f, "raw copy between dtypes {dst} and {src}")
            }
        }
    }
}

impl std::error::Error for NDArrayError {}

/// The shared element storage behind an [`NDArray`].
///
/// Elements live in per-cell atomics — `f16`/`f32` values as their
/// [`f32::to_bits`] pattern in an [`AtomicU32`] (4 bytes a cell),
/// integers in an [`AtomicI64`] (8 bytes) — so storage is shared without
/// any lock or `unsafe`:
/// weights and KV pages are read by every serving worker, compiled
/// kernel plans (`crate::plan`) address the cell slices directly, and
/// accessors never block. All cell traffic uses [`Ordering::Relaxed`]
/// (a plain load/store on x86): a kernel launch runs on one thread, and
/// cross-thread visibility of its results comes from the hand-off that
/// passes the array on (the serving core's lock, a channel, a thread
/// join) before any other thread reads it.
pub(crate) enum DataBuf {
    /// Float elements, stored as `f32` bit patterns. Every store rounds
    /// to the dtype first ([`float_bits`]), and no float dtype is wider
    /// than `f32`, so the narrowing is exact.
    F(Vec<AtomicU32>),
    /// `i64` elements.
    I(Vec<AtomicI64>),
}

impl DataBuf {
    /// A zero-filled buffer of `n` elements in the host representation
    /// of `dtype`.
    pub(crate) fn zeros(dtype: DataType, n: usize) -> DataBuf {
        if dtype.is_float() {
            // 0.0f32.to_bits() == 0, so zeroed cells are zeroed floats.
            DataBuf::F((0..n).map(|_| AtomicU32::new(0)).collect())
        } else {
            DataBuf::I((0..n).map(|_| AtomicI64::new(0)).collect())
        }
    }

    /// A detached copy of the current contents.
    fn snapshot(&self) -> DataBuf {
        match self {
            DataBuf::F(v) => DataBuf::F(
                v.iter()
                    .map(|c| AtomicU32::new(c.load(Ordering::Relaxed)))
                    .collect(),
            ),
            DataBuf::I(v) => DataBuf::I(
                v.iter()
                    .map(|c| AtomicI64::new(c.load(Ordering::Relaxed)))
                    .collect(),
            ),
        }
    }
}

impl PartialEq for DataBuf {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DataBuf::F(a), DataBuf::F(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.load(Ordering::Relaxed) == y.load(Ordering::Relaxed))
            }
            (DataBuf::I(a), DataBuf::I(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.load(Ordering::Relaxed) == y.load(Ordering::Relaxed))
            }
            _ => false,
        }
    }
}

impl fmt::Debug for DataBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataBuf::F(v) => write!(f, "DataBuf::F({} cells)", v.len()),
            DataBuf::I(v) => write!(f, "DataBuf::I({} cells)", v.len()),
        }
    }
}

/// A reference-counted host tensor.
///
/// Cloning an `NDArray` aliases the same storage — exactly the semantics of
/// destination-passing style, where a callee writes into a caller-provided
/// array. Use [`NDArray::deep_copy`] for a detached copy.
///
/// Storage is an `Arc<DataBuf>` of per-element atomic cells, so sharing
/// is lock-free: every accessor is a plain relaxed load/store, compiled
/// kernel plans run against the cell slices with no per-launch lock,
/// and mutation through one alias is visible through all others (see
/// `DataBuf` for the memory-ordering argument).
///
/// Floating-point dtypes (`f16`, `f32`) keep `f32` bits in 4-byte cells,
/// rounded to the dtype on every store and at construction, and are read
/// back widened to `f64`; integer dtypes keep `i64` in 8-byte cells.
/// *Logical* size accounting ([`NDArray::size_bytes`]) always uses the
/// declared [`DataType`], which is what the paper's memory experiments
/// report.
///
/// # Examples
///
/// ```
/// use relax_tir::NDArray;
/// use relax_arith::DataType;
/// let a = NDArray::zeros(&[2, 3], DataType::F16);
/// assert_eq!(a.numel(), 6);
/// assert_eq!(a.size_bytes(), 12); // f16 = 2 bytes per element
/// ```
#[derive(Clone)]
pub struct NDArray {
    dtype: DataType,
    shape: Vec<usize>,
    data: Arc<DataBuf>,
}

impl PartialEq for NDArray {
    fn eq(&self, other: &Self) -> bool {
        if self.dtype != other.dtype || self.shape != other.shape {
            return false;
        }
        // Same storage ⇒ same contents.
        if Arc::ptr_eq(&self.data, &other.data) {
            return true;
        }
        *self.data == *other.data
    }
}

impl NDArray {
    /// Creates a zero-filled array.
    pub fn zeros(shape: &[usize], dtype: DataType) -> Self {
        let n: usize = shape.iter().product();
        NDArray {
            dtype,
            shape: shape.to_vec(),
            data: Arc::new(DataBuf::zeros(dtype, n)),
        }
    }

    /// Creates an array from `f64` values, converted as
    /// [`NDArray::set`] converts them: a float dtype rounds each value
    /// with [`round_to_dtype`], an integer dtype truncates toward zero.
    ///
    /// ```
    /// use relax_arith::DataType;
    /// use relax_tir::NDArray;
    /// let a = NDArray::from_f64(&[1], DataType::F32, vec![0.1]).unwrap();
    /// assert_eq!(a.to_f64_vec(), [0.1f32 as f64]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::LengthMismatch`] if `values.len()` does not
    /// equal the product of `shape`.
    pub fn from_f64(
        shape: &[usize],
        dtype: DataType,
        values: Vec<f64>,
    ) -> Result<Self, NDArrayError> {
        let n: usize = shape.iter().product();
        if values.len() != n {
            return Err(NDArrayError::LengthMismatch {
                expected: n,
                actual: values.len(),
            });
        }
        let data = if dtype.is_float() {
            DataBuf::F(
                values
                    .into_iter()
                    .map(|v| AtomicU32::new(float_bits(v, dtype)))
                    .collect(),
            )
        } else {
            DataBuf::I(
                values
                    .into_iter()
                    .map(|v| AtomicI64::new(v as i64))
                    .collect(),
            )
        };
        Ok(NDArray {
            dtype,
            shape: shape.to_vec(),
            data: Arc::new(data),
        })
    }

    /// Creates an array from `i64` values. A float dtype rounds each
    /// value as [`NDArray::from_f64`] rounds `v as f64`.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::LengthMismatch`] on a length/shape mismatch.
    pub fn from_i64(
        shape: &[usize],
        dtype: DataType,
        values: Vec<i64>,
    ) -> Result<Self, NDArrayError> {
        let n: usize = shape.iter().product();
        if values.len() != n {
            return Err(NDArrayError::LengthMismatch {
                expected: n,
                actual: values.len(),
            });
        }
        let data = if dtype.is_float() {
            DataBuf::F(
                values
                    .into_iter()
                    .map(|v| AtomicU32::new(float_bits(v as f64, dtype)))
                    .collect(),
            )
        } else {
            DataBuf::I(values.into_iter().map(AtomicI64::new).collect())
        };
        Ok(NDArray {
            dtype,
            shape: shape.to_vec(),
            data: Arc::new(data),
        })
    }

    /// The shared storage cells, which kernel plans address directly.
    pub(crate) fn storage(&self) -> &DataBuf {
        &self.data
    }

    /// Element data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Concrete shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Logical size in bytes under the declared data type.
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// Reads the element at a flat index.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::IndexOutOfBounds`] for an invalid index.
    pub fn get(&self, flat: usize) -> Result<Scalar, NDArrayError> {
        match &*self.data {
            DataBuf::F(v) => v.get(flat).map(|c| Scalar::F(load_float(c))),
            DataBuf::I(v) => v.get(flat).map(|c| Scalar::I(c.load(Ordering::Relaxed))),
        }
        .ok_or(NDArrayError::IndexOutOfBounds {
            index: flat,
            len: self.numel(),
        })
    }

    /// Writes the element at a flat index, converting to the array dtype.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&self, flat: usize, value: Scalar) -> Result<(), NDArrayError> {
        let len = self.numel();
        match &*self.data {
            DataBuf::F(v) => {
                let cell = v
                    .get(flat)
                    .ok_or(NDArrayError::IndexOutOfBounds { index: flat, len })?;
                cell.store(float_bits(value.as_f64(), self.dtype), Ordering::Relaxed);
            }
            DataBuf::I(v) => {
                let cell = v
                    .get(flat)
                    .ok_or(NDArrayError::IndexOutOfBounds { index: flat, len })?;
                cell.store(value.as_i64(), Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Converts multidimensional indices to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::IndexOutOfBounds`] if any coordinate exceeds
    /// its extent or the rank differs.
    pub fn flat_index(&self, indices: &[usize]) -> Result<usize, NDArrayError> {
        if indices.len() != self.shape.len() {
            return Err(NDArrayError::IndexOutOfBounds {
                index: indices.len(),
                len: self.shape.len(),
            });
        }
        let mut flat = 0usize;
        for (i, (&idx, &extent)) in indices.iter().zip(&self.shape).enumerate() {
            if idx >= extent {
                return Err(NDArrayError::IndexOutOfBounds {
                    index: idx,
                    len: extent.max(i),
                });
            }
            flat = flat * extent + idx;
        }
        Ok(flat)
    }

    /// Fills the array with a constant.
    pub fn fill(&self, value: Scalar) {
        match &*self.data {
            DataBuf::F(v) => {
                let bits = float_bits(value.as_f64(), self.dtype);
                v.iter().for_each(|c| c.store(bits, Ordering::Relaxed));
            }
            DataBuf::I(v) => {
                let x = value.as_i64();
                v.iter().for_each(|c| c.store(x, Ordering::Relaxed));
            }
        }
    }

    /// Returns a detached copy with fresh storage.
    pub fn deep_copy(&self) -> NDArray {
        NDArray {
            dtype: self.dtype,
            shape: self.shape.clone(),
            data: Arc::new(self.data.snapshot()),
        }
    }

    /// Returns a view of the same storage with a different shape.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::LengthMismatch`] if the element counts differ.
    pub fn reshaped(&self, shape: &[usize]) -> Result<NDArray, NDArrayError> {
        let n: usize = shape.iter().product();
        if n != self.numel() {
            return Err(NDArrayError::LengthMismatch {
                expected: self.numel(),
                actual: n,
            });
        }
        Ok(NDArray {
            dtype: self.dtype,
            shape: shape.to_vec(),
            data: Arc::clone(&self.data),
        })
    }

    /// Copies `len` elements from `src` (starting at flat index
    /// `src_off`) into this array (starting at flat index `dst_off`) as
    /// raw storage bits, without any per-element dtype conversion.
    ///
    /// Stored values already carry their dtype's rounding (applied on
    /// every store and at construction), so a same-dtype bit copy is
    /// exact — this is the bulk row-copy primitive behind the KV-cache
    /// kernels, replacing element-wise `get`/`set` loops.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::DtypeMismatch`] when the dtypes differ and
    /// [`NDArrayError::IndexOutOfBounds`] when either range exceeds its
    /// array.
    pub fn copy_range_from(
        &self,
        dst_off: usize,
        src: &NDArray,
        src_off: usize,
        len: usize,
    ) -> Result<(), NDArrayError> {
        if self.dtype != src.dtype {
            return Err(NDArrayError::DtypeMismatch {
                dst: self.dtype.to_string(),
                src: src.dtype.to_string(),
            });
        }
        let dst_end = dst_off.saturating_add(len);
        if dst_end > self.numel() {
            return Err(NDArrayError::IndexOutOfBounds {
                index: dst_end,
                len: self.numel(),
            });
        }
        let src_end = src_off.saturating_add(len);
        if src_end > src.numel() {
            return Err(NDArrayError::IndexOutOfBounds {
                index: src_end,
                len: src.numel(),
            });
        }
        match (&*self.data, &*src.data) {
            (DataBuf::F(d), DataBuf::F(s)) => {
                for i in 0..len {
                    d[dst_off + i].store(s[src_off + i].load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            (DataBuf::I(d), DataBuf::I(s)) => {
                for i in 0..len {
                    d[dst_off + i].store(s[src_off + i].load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            // Same dtype implies the same buffer family.
            _ => unreachable!("equal dtypes share a storage family"),
        }
        Ok(())
    }

    /// Returns `true` if `other` aliases the same storage.
    pub fn same_storage(&self, other: &NDArray) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Copies the contents to an `f64` vector.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match &*self.data {
            DataBuf::F(v) => v.iter().map(load_float).collect(),
            DataBuf::I(v) => v.iter().map(|c| c.load(Ordering::Relaxed) as f64).collect(),
        }
    }

    /// Copies the `dst.len()` elements starting at flat index `off` into
    /// `dst` as `f64` — [`NDArray::to_f64_vec`] for a range, so a reader
    /// of one row does not copy the tensor around it.
    ///
    /// # Errors
    ///
    /// Returns [`NDArrayError::IndexOutOfBounds`] when the range exceeds
    /// the array.
    pub fn read_f64_range(&self, off: usize, dst: &mut [f64]) -> Result<(), NDArrayError> {
        let end = off.saturating_add(dst.len());
        if end > self.numel() {
            return Err(NDArrayError::IndexOutOfBounds {
                index: end,
                len: self.numel(),
            });
        }
        match &*self.data {
            DataBuf::F(v) => {
                for (d, c) in dst.iter_mut().zip(&v[off..end]) {
                    *d = load_float(c);
                }
            }
            DataBuf::I(v) => {
                for (d, c) in dst.iter_mut().zip(&v[off..end]) {
                    *d = c.load(Ordering::Relaxed) as f64;
                }
            }
        }
        Ok(())
    }

    /// Copies the contents to an `i64` vector (floats truncate toward zero).
    pub fn to_i64_vec(&self) -> Vec<i64> {
        match &*self.data {
            DataBuf::F(v) => v.iter().map(|c| load_float(c) as i64).collect(),
            DataBuf::I(v) => v.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Rounds a host `f64` to the precision of the logical float dtype — the
/// rounding [`NDArray::set`] applies on every store. Reference library
/// kernels use it to emulate destination-dtype accumulation so their
/// results stay bit-identical to generated tensor programs.
pub fn round_to_dtype(v: f64, dtype: DataType) -> f64 {
    match dtype {
        DataType::F32 => v as f32 as f64,
        // Emulate f16 by quantizing the mantissa to 10 bits via f32 bit
        // manipulation: good enough for numeric plausibility tests.
        DataType::F16 => {
            let f = v as f32;
            if !f.is_finite() {
                return f as f64;
            }
            let bits = f.to_bits();
            let truncated = bits & !((1u32 << 13) - 1);
            f32::from_bits(truncated) as f64
        }
        _ => v,
    }
}

/// The bits a float cell of `dtype` holds for `v`: `v` rounded to the
/// dtype, then narrowed to `f32`. The narrowing is exact, because no
/// float dtype is wider than `f32`.
#[inline]
pub(crate) fn float_bits(v: f64, dtype: DataType) -> u32 {
    (round_to_dtype(v, dtype) as f32).to_bits()
}

/// The host value of a float cell, widened to `f64` (exact).
#[inline]
pub(crate) fn load_float(cell: &AtomicU32) -> f64 {
    f32::from_bits(cell.load(Ordering::Relaxed)) as f64
}

impl fmt::Debug for NDArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NDArray(shape={:?}, dtype={}, {} bytes)",
            self.shape,
            self.dtype,
            self.size_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_fill() {
        let a = NDArray::zeros(&[2, 2], DataType::F32);
        assert_eq!(a.get(0).unwrap(), Scalar::F(0.0));
        a.fill(Scalar::F(2.5));
        assert_eq!(a.get(3).unwrap(), Scalar::F(2.5));
    }

    #[test]
    fn clone_aliases_deep_copy_detaches() {
        let a = NDArray::zeros(&[4], DataType::I64);
        let alias = a.clone();
        let copy = a.deep_copy();
        a.set(0, Scalar::I(7)).unwrap();
        assert_eq!(alias.get(0).unwrap(), Scalar::I(7));
        assert_eq!(copy.get(0).unwrap(), Scalar::I(0));
        assert!(a.same_storage(&alias));
        assert!(!a.same_storage(&copy));
    }

    #[test]
    fn flat_index_row_major() {
        let a = NDArray::zeros(&[2, 3], DataType::F32);
        assert_eq!(a.flat_index(&[1, 2]).unwrap(), 5);
        assert!(a.flat_index(&[2, 0]).is_err());
        assert!(a.flat_index(&[0]).is_err());
    }

    #[test]
    fn logical_byte_size_uses_dtype() {
        let a = NDArray::zeros(&[8], DataType::F16);
        assert_eq!(a.size_bytes(), 16);
        let b = NDArray::zeros(&[8], DataType::U32);
        assert_eq!(b.size_bytes(), 32);
    }

    #[test]
    fn reshape_preserves_storage() {
        let a = NDArray::from_f64(&[2, 3], DataType::F32, vec![0., 1., 2., 3., 4., 5.]).unwrap();
        let b = a.reshaped(&[3, 2]).unwrap();
        assert!(a.same_storage(&b));
        assert!(a.reshaped(&[7]).is_err());
    }

    #[test]
    fn f16_rounding_applies_on_store() {
        let a = NDArray::zeros(&[1], DataType::F16);
        a.set(0, Scalar::F(1.0 + 1e-6)).unwrap();
        // Mantissa truncated: value close to but not exactly 1 + 1e-6.
        let v = a.get(0).unwrap().as_f64();
        assert!((v - 1.0).abs() < 1e-3);
        assert_ne!(v, 1.0 + 1e-6);
    }

    #[test]
    fn float_cells_are_four_bytes_and_integer_cells_eight() {
        let cell_bytes = |dtype| match NDArray::zeros(&[1], dtype).storage() {
            DataBuf::F(v) => std::mem::size_of_val(&v[0]),
            DataBuf::I(v) => std::mem::size_of_val(&v[0]),
        };
        assert_eq!(cell_bytes(DataType::F32), 4);
        assert_eq!(cell_bytes(DataType::F16), 4);
        assert_eq!(cell_bytes(DataType::I64), 8);
        assert_eq!(cell_bytes(DataType::U32), 8);
    }

    #[test]
    fn construction_rounds_like_a_store() {
        let a = NDArray::from_f64(&[1], DataType::F32, vec![0.1]).unwrap();
        assert_eq!(a.get(0).unwrap(), Scalar::F(0.1f32 as f64));
        let h = NDArray::from_f64(&[1], DataType::F16, vec![1.0 + 1e-6]).unwrap();
        let stored = NDArray::zeros(&[1], DataType::F16);
        stored.set(0, Scalar::F(1.0 + 1e-6)).unwrap();
        assert_eq!(h.get(0).unwrap(), Scalar::F(1.0));
        assert_eq!(h, stored);
        // 2^53 + 1 is not an f64; `as f64` rounds it to 2^53, an f32.
        let big = (1i64 << 53) + 1;
        let i = NDArray::from_i64(&[1], DataType::F32, vec![big]).unwrap();
        assert_eq!(
            i.get(0).unwrap(),
            Scalar::F(round_to_dtype(big as f64, DataType::F32))
        );
        let odd = (1i64 << 40) + 1;
        let j = NDArray::from_i64(&[1], DataType::F32, vec![odd]).unwrap();
        assert_eq!(j.get(0).unwrap(), Scalar::F((1u64 << 40) as f64));
        // Integer dtypes keep every bit.
        let k = NDArray::from_i64(&[1], DataType::I64, vec![big]).unwrap();
        assert_eq!(k.get(0).unwrap(), Scalar::I(big));
    }

    #[test]
    fn from_vec_length_validation() {
        assert!(NDArray::from_f64(&[2, 2], DataType::F32, vec![1.0; 3]).is_err());
        assert!(NDArray::from_i64(&[2], DataType::I64, vec![1, 2]).is_ok());
    }

    #[test]
    fn copy_range_is_a_bitwise_copy() {
        let src = NDArray::from_f64(&[6], DataType::F32, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let dst = NDArray::zeros(&[8], DataType::F32);
        dst.copy_range_from(2, &src, 1, 4).unwrap();
        assert_eq!(dst.to_f64_vec(), vec![0., 0., 2., 3., 4., 5., 0., 0.]);
        // Bounds are checked on both sides.
        assert!(dst.copy_range_from(6, &src, 0, 3).is_err());
        assert!(dst.copy_range_from(0, &src, 5, 2).is_err());
        // Dtype families must match exactly.
        let ints = NDArray::zeros(&[8], DataType::I64);
        assert!(matches!(
            ints.copy_range_from(0, &src, 0, 1),
            Err(NDArrayError::DtypeMismatch { .. })
        ));
        // f16-rounded values copy bit-exactly (no re-rounding).
        let h = NDArray::zeros(&[1], DataType::F16);
        h.set(0, Scalar::F(1.0 + 1e-6)).unwrap();
        let h2 = NDArray::zeros(&[1], DataType::F16);
        h2.copy_range_from(0, &h, 0, 1).unwrap();
        assert_eq!(h.get(0).unwrap(), h2.get(0).unwrap());
    }

    #[test]
    fn read_range_agrees_with_the_whole_copy() {
        let a = NDArray::from_f64(&[2, 3], DataType::F32, vec![0., 1., 2., 3., 4., 5.]).unwrap();
        let mut row = [0.0; 3];
        a.read_f64_range(3, &mut row).unwrap();
        assert_eq!(row, a.to_f64_vec()[3..]);
        let ints = NDArray::from_i64(&[4], DataType::I64, vec![7, 8, 9, 10]).unwrap();
        ints.read_f64_range(1, &mut row).unwrap();
        assert_eq!(row, [8., 9., 10.]);
        a.read_f64_range(6, &mut []).unwrap();
        assert!(a.read_f64_range(4, &mut row).is_err());
        assert!(a.read_f64_range(7, &mut []).is_err());
    }

    #[test]
    fn storage_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NDArray>();
    }

    #[test]
    fn equality_compares_contents_and_shape() {
        let a = NDArray::from_f64(&[2], DataType::F32, vec![1.0, 2.0]).unwrap();
        let b = NDArray::from_f64(&[2], DataType::F32, vec![1.0, 2.0]).unwrap();
        let c = NDArray::from_f64(&[2], DataType::F32, vec![1.0, 3.0]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, a.clone()); // aliasing short-circuit
        let d = NDArray::from_f64(&[1, 2], DataType::F32, vec![1.0, 2.0]).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn writes_through_one_alias_are_seen_by_threads_holding_another() {
        let a = NDArray::zeros(&[64], DataType::F32);
        let alias = a.clone();
        let t = std::thread::spawn(move || {
            for i in 0..64 {
                alias.set(i, Scalar::F(i as f64)).unwrap();
            }
        });
        t.join().unwrap();
        // The join is the happens-before edge; every write is visible.
        assert_eq!(
            a.to_f64_vec(),
            (0..64).map(|i| i as f64).collect::<Vec<_>>()
        );
    }
}
