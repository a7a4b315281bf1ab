//! The runtime-function table: "vendor library" kernels callable through
//! `call_dps_library`, and the value-returning runtime builtins.
//!
//! Library functions are supplied by a registry and linked into the final
//! runnable module (§3.3). In this reproduction the kernels are native Rust
//! reference implementations; the performance simulator assigns them the
//! higher efficiency a tuned vendor kernel would have.
//!
//! The registry is the one place that knows which Rust function
//! implements a callee and how many arguments it takes: a fixed table
//! built in [`Registry::default`], every entry with its signature. The
//! validator ([`verify`](mod@crate::verify)) checks calls against it, and the VM
//! runs every `CallLib` and every `CallBuiltin` through it. Builtins take
//! register values and nothing else, and return one: the paged KV-cache
//! builtins `append_paged` and `attention` (a cache handle the host made
//! on its page pool) and the MoE routing builtins (shape arguments) are
//! entries like `builtin.unique`.

use std::collections::HashMap;
use std::fmt;

use relax_tir::{NDArray, Scalar};

use crate::memory::KvPoolExhausted;
use crate::value::{want_tensor, Value};
use crate::{kv_cache, moe};

/// Error raised by a library kernel or builtin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError {
    /// The kernel name.
    pub kernel: String,
    /// What went wrong.
    pub detail: String,
    /// The typed cause when a KV page pool refused an acquire — what
    /// callers match on to tell retryable pressure from a broken call.
    pub pool_exhausted: Option<KvPoolExhausted>,
}

impl KernelError {
    /// `kernel`'s error with `detail`.
    pub fn new(kernel: impl Into<String>, detail: impl Into<String>) -> Self {
        KernelError {
            kernel: kernel.into(),
            detail: detail.into(),
            pool_exhausted: None,
        }
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel `{}` failed: {}", self.kernel, self.detail)
    }
}

impl std::error::Error for KernelError {}

/// A destination-passing library kernel: reads `inputs`, writes `outputs`.
pub type LibKernel = fn(&[NDArray], &[NDArray]) -> Result<(), String>;

/// A value-returning builtin: reads register values (tensors, shapes, KV
/// cache handles) and returns the value its destination register takes.
/// Its own failures name it in the [`KernelError`], keeping a typed cause
/// such as [`KernelError::pool_exhausted`].
pub type BuiltinFn = fn(&[Value]) -> Result<Value, KernelError>;

/// Registry of library kernels and builtins, each with its signature.
#[derive(Clone)]
pub struct Registry {
    /// Library kernels with their (inputs, outputs) arity.
    libs: HashMap<String, (LibKernel, (usize, usize))>,
    /// Builtins with their input arity.
    builtins: HashMap<String, (BuiltinFn, usize)>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Registry({} libs, {} builtins)",
            self.libs.len(),
            self.builtins.len()
        )
    }
}

impl Default for Registry {
    /// The fixed table: cuBLAS/CUTLASS-style kernels plus the runtime
    /// builtins.
    fn default() -> Self {
        let libs: [(&str, LibKernel, (usize, usize)); 4] = [
            ("cublas.matmul", lib_matmul, (2, 1)),
            ("cublas.matmul_relu", lib_matmul_relu, (2, 1)),
            ("cutlass.rms_norm", lib_rms_norm, (2, 1)),
            ("vm.builtin.kv_append", lib_kv_append, (2, 1)),
        ];
        let builtins: [(&str, BuiltinFn, usize); 6] = [
            ("builtin.unique", builtin_unique, 1),
            (
                "vm.builtin.kv_cache.append_paged",
                kv_cache::builtin_append_paged,
                3,
            ),
            (
                "vm.builtin.kv_cache.attention",
                kv_cache::builtin_attention,
                3,
            ),
            ("vm.builtin.moe.route", moe::builtin_route, 1),
            ("vm.builtin.moe.gather", moe::builtin_gather, 3),
            ("vm.builtin.moe.scatter", moe::builtin_scatter, 3),
        ];
        Registry {
            libs: libs
                .into_iter()
                .map(|(name, kernel, sig)| (name.to_string(), (kernel, sig)))
                .collect(),
            builtins: builtins
                .into_iter()
                .map(|(name, func, inputs)| (name.to_string(), (func, inputs)))
                .collect(),
        }
    }
}

impl Registry {
    /// Creates the registry (cuBLAS/CUTLASS-style kernels plus the runtime
    /// builtins).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declared (inputs, outputs) arity of a library kernel; `None` when
    /// no such kernel is registered.
    pub fn lib_signature(&self, name: &str) -> Option<(usize, usize)> {
        self.libs.get(name).map(|&(_, sig)| sig)
    }

    /// Declared input arity of a builtin; `None` when no such builtin is
    /// registered.
    pub fn builtin_signature(&self, name: &str) -> Option<usize> {
        self.builtins.get(name).map(|&(_, inputs)| inputs)
    }

    /// The library kernel registered as `name`, called with `inputs`
    /// inputs and `outputs` outputs: its registration and signature
    /// checked without the data, for the VM and the dry run alike.
    ///
    /// # Errors
    ///
    /// [`KernelError`] for an unknown kernel or a wrong number of
    /// arguments.
    pub fn check_lib(
        &self,
        name: &str,
        inputs: usize,
        outputs: usize,
    ) -> Result<LibKernel, KernelError> {
        signed(&self.libs, name, "(inputs, outputs)", (inputs, outputs))
    }

    /// Invokes a library kernel in destination-passing style, after
    /// [`check_lib`](Self::check_lib).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] for unknown kernels, a wrong number of
    /// arguments, or kernel failures.
    pub fn call_lib(
        &self,
        name: &str,
        inputs: &[NDArray],
        outputs: &[NDArray],
    ) -> Result<(), KernelError> {
        let kernel = self.check_lib(name, inputs.len(), outputs.len())?;
        kernel(inputs, outputs).map_err(|detail| KernelError::new(name, detail))
    }

    /// The builtin registered as `name`, called with `inputs` arguments:
    /// its registration and arity checked without the data, for the VM and
    /// the dry run alike.
    ///
    /// # Errors
    ///
    /// [`KernelError`] for an unknown builtin or a wrong number of
    /// arguments.
    pub fn check_builtin(&self, name: &str, inputs: usize) -> Result<BuiltinFn, KernelError> {
        signed(&self.builtins, name, "inputs", inputs)
    }

    /// Invokes a value-returning builtin on register values.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] for unknown builtins, a wrong number of
    /// arguments, or failures.
    pub fn call_builtin(&self, name: &str, args: &[Value]) -> Result<Value, KernelError> {
        self.check_builtin(name, args.len())?(args)
    }
}

/// The function registered as `name` in `table`, called with signature
/// `got` (the `what` of the refusal's text).
fn signed<F: Copy, S: Copy + PartialEq + fmt::Debug>(
    table: &HashMap<String, (F, S)>,
    name: &str,
    what: &str,
    got: S,
) -> Result<F, KernelError> {
    let fail = |detail| KernelError::new(name, detail);
    let &(func, sig) = table
        .get(name)
        .ok_or_else(|| fail("not registered".into()))?;
    if got != sig {
        return Err(fail(format!("expected {what} = {sig:?}, got {got:?}")));
    }
    Ok(func)
}

/// `out = a @ b` with `a: [.., m, k]` and `b: [k, n]` or equal-rank batched.
fn lib_matmul(inputs: &[NDArray], outputs: &[NDArray]) -> Result<(), String> {
    matmul_impl(inputs, outputs, false)
}

/// Matmul with fused ReLU epilogue (the "matmul with epilogue" pattern of
/// §4.6).
fn lib_matmul_relu(inputs: &[NDArray], outputs: &[NDArray]) -> Result<(), String> {
    matmul_impl(inputs, outputs, true)
}

/// The matmul kernels' shape rule, which they and the dry run both run:
/// `a: [.., m, k]` and `b: [.., k, n]`. Returns `[batch, m, k, n]` (the
/// batch is `a`'s leading dims), else the detail of the kernel's error.
pub fn check_matmul(a: &[usize], b: &[usize]) -> Result<[usize; 4], String> {
    if a.len() < 2 || b.len() < 2 {
        return Err("matmul operands must have rank >= 2".to_string());
    }
    let k = a[a.len() - 1];
    if b[b.len() - 2] != k {
        return Err(format!(
            "inner dimension mismatch: {k} vs {}",
            b[b.len() - 2]
        ));
    }
    let batch = a[..a.len() - 2].iter().product();
    Ok([batch, a[a.len() - 2], k, b[b.len() - 1]])
}

fn matmul_impl(inputs: &[NDArray], outputs: &[NDArray], relu: bool) -> Result<(), String> {
    let (a, b, out) = (&inputs[0], &inputs[1], &outputs[0]);
    let [batch, m, k, n] = check_matmul(a.shape(), b.shape())?;
    let b_batched = b.shape().len() == a.shape().len();
    let av = a.to_f64_vec();
    let bv = b.to_f64_vec();
    // Accumulate with per-step destination-dtype rounding, exactly like
    // the generated tensor program (which accumulates through the f32
    // output buffer) — keeps library and codegen paths bit-identical, so
    // the pipeline ablations can assert exact output equality.
    let out_dt = out.dtype();
    for bi in 0..batch {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    let aidx = (bi * m + i) * k + kk;
                    let bidx = if b_batched {
                        (bi * k + kk) * n + j
                    } else {
                        kk * n + j
                    };
                    acc = relax_tir::round_to_dtype(acc + av[aidx] * bv[bidx], out_dt);
                }
                if relu {
                    acc = acc.max(0.0);
                }
                out.set((bi * m + i) * n + j, Scalar::F(acc))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// `cutlass.rms_norm`'s shape rule, which it and the dry run both run: `x`
/// has a last dim `d` and `w` has `d` elements. Returns `(rows, d)`, else
/// the detail of the kernel's error.
pub fn check_rms_norm(x: &[usize], w: &[usize]) -> Result<(usize, usize), String> {
    let d = *x.last().ok_or("rms_norm needs rank >= 1")?;
    let w_len: usize = w.iter().product();
    if w_len != d {
        return Err(format!("weight length {w_len} != {d}"));
    }
    Ok((x.iter().product::<usize>() / d.max(1), d))
}

/// RMS normalization over the last axis: `out = x * w / sqrt(mean(x^2) + eps)`.
fn lib_rms_norm(inputs: &[NDArray], outputs: &[NDArray]) -> Result<(), String> {
    let (x, w, out) = (&inputs[0], &inputs[1], &outputs[0]);
    let (rows, d) = check_rms_norm(x.shape(), w.shape())?;
    let xv = x.to_f64_vec();
    let wv = w.to_f64_vec();
    const EPS: f64 = 1e-5;
    for r in 0..rows {
        let row = &xv[r * d..(r + 1) * d];
        // The generated program accumulates the squared sum through an
        // f32 local buffer and divides by `d` cast to f32 — mirror both
        // so this kernel stays bit-identical to the codegen path.
        let mut sq_sum = 0.0;
        for v in row {
            sq_sum = relax_tir::round_to_dtype(sq_sum + v * v, relax_arith::DataType::F32);
        }
        let ms = sq_sum / (d as f32 as f64);
        let denom = (ms + EPS).sqrt();
        for (c, v) in row.iter().enumerate() {
            out.set(r * d + c, Scalar::F(v * wv[c] / denom))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `vm.builtin.kv_append`'s shape rule, which it and the dry run both run:
/// rank-4 `cache`, `new` and `out` of one `(b, h, _, hd)` geometry, `out`
/// as long as the other two; else the detail of the kernel's error.
pub fn check_kv_append(cs: &[usize], ns: &[usize], os: &[usize]) -> Result<(), String> {
    if cs.len() != 4 || ns.len() != 4 || os.len() != 4 {
        return Err("kv_append expects rank-4 tensors".to_string());
    }
    if os[2] != cs[2] + ns[2] {
        return Err(format!(
            "output length {} != cache {} + new {}",
            os[2], cs[2], ns[2]
        ));
    }
    let (b, h, hd) = (os[0], os[1], os[3]);
    if cs[0] != b || cs[1] != h || cs[3] != hd || ns[0] != b || ns[1] != h || ns[3] != hd {
        return Err("kv_append operand shape mismatch".to_string());
    }
    Ok(())
}

/// KV-cache append along axis 2: `out[.., 0..s, ..] = cache`,
/// `out[.., s.., ..] = new`. The runtime KV cache of real deployments
/// appends in place into pre-allocated pages (`vm.builtin.kv_cache.*`);
/// this copy-based kernel is the differential-test oracle, so it must
/// stay fast at long contexts: for each `(b, h)` row block the cache
/// and new segments are contiguous in both source and destination, so
/// the whole kernel is `2·b·h` bulk bit copies instead of a 4-deep
/// scalar loop ([`kv_append_reference`]).
fn lib_kv_append(inputs: &[NDArray], outputs: &[NDArray]) -> Result<(), String> {
    let (cache, new, out) = (&inputs[0], &inputs[1], &outputs[0]);
    check_kv_append(cache.shape(), new.shape(), out.shape())?;
    let (cs2, ns2) = (cache.shape()[2], new.shape()[2]);
    let os = out.shape().to_vec();
    if cache.dtype() != out.dtype() || new.dtype() != out.dtype() {
        // Mixed dtypes cannot bit-copy; keep the converting scalar path.
        return kv_append_reference(inputs, outputs);
    }
    let (b, h, hd) = (os[0], os[1], os[3]);
    for bi in 0..b {
        for hi in 0..h {
            let row = bi * h + hi;
            let dst = row * os[2] * hd;
            out.copy_range_from(dst, cache, row * cs2 * hd, cs2 * hd)
                .map_err(|e| e.to_string())?;
            out.copy_range_from(dst + cs2 * hd, new, row * ns2 * hd, ns2 * hd)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The per-element `kv_append`: a 4-deep scalar loop with one converting
/// `set` per element. It is the mixed-dtype path of
/// `vm.builtin.kv_append`, and on same-dtype inputs the oracle the
/// row-copy path must equal bitwise
/// (`kv_append_row_copy_matches_scalar_reference`).
fn kv_append_reference(inputs: &[NDArray], outputs: &[NDArray]) -> Result<(), String> {
    let (cache, new, out) = (&inputs[0], &inputs[1], &outputs[0]);
    check_kv_append(cache.shape(), new.shape(), out.shape())?;
    let (cs2, ns2) = (cache.shape()[2], new.shape()[2]);
    let os = out.shape().to_vec();
    let (b, h, hd) = (os[0], os[1], os[3]);
    let cv = cache.to_f64_vec();
    let nv = new.to_f64_vec();
    for bi in 0..b {
        for hi in 0..h {
            for si in 0..os[2] {
                for di in 0..hd {
                    let v = if si < cs2 {
                        cv[((bi * h + hi) * cs2 + si) * hd + di]
                    } else {
                        nv[((bi * h + hi) * ns2 + (si - cs2)) * hd + di]
                    };
                    out.set(((bi * h + hi) * os[2] + si) * hd + di, Scalar::F(v))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(())
}

/// Sorted deduplication; the canonical data-dependent operator (Figure 3).
/// Numbers ascend and every NaN collapses into one after them (numpy's
/// `unique` order): a total order, which the sort requires.
fn builtin_unique(args: &[Value]) -> Result<Value, KernelError> {
    const OP: &str = "builtin.unique";
    let x = want_tensor(OP, args, 0)?;
    let mut vals = x.to_f64_vec();
    vals.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
    });
    vals.dedup_by(|a, b| a == b || (a.is_nan() && b.is_nan()));
    let out = NDArray::from_f64(&[vals.len()], x.dtype(), vals);
    out.map(Value::Tensor)
        .map_err(|e| KernelError::new(OP, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::KvPagePool;
    use relax_arith::DataType;
    use std::sync::Arc;

    #[test]
    fn matmul_kernel_matches_reference() {
        let r = Registry::new();
        let a = NDArray::from_f64(&[2, 3], DataType::F32, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = NDArray::from_f64(&[3, 2], DataType::F32, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let out = NDArray::zeros(&[2, 2], DataType::F32);
        r.call_lib("cublas.matmul", &[a, b], std::slice::from_ref(&out))
            .unwrap();
        assert_eq!(out.to_f64_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_relu_clamps() {
        let r = Registry::new();
        let a = NDArray::from_f64(&[1, 1], DataType::F32, vec![-3.0]).unwrap();
        let b = NDArray::from_f64(&[1, 1], DataType::F32, vec![2.0]).unwrap();
        let out = NDArray::zeros(&[1, 1], DataType::F32);
        r.call_lib("cublas.matmul_relu", &[a, b], std::slice::from_ref(&out))
            .unwrap();
        assert_eq!(out.to_f64_vec(), vec![0.0]);
    }

    #[test]
    fn batched_matmul() {
        let r = Registry::new();
        // 2 batches of 1x2 @ 2x1
        let a = NDArray::from_f64(&[2, 1, 2], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        let b = NDArray::from_f64(&[2, 2, 1], DataType::F32, vec![1., 1., 2., 2.]).unwrap();
        let out = NDArray::zeros(&[2, 1, 1], DataType::F32);
        r.call_lib("cublas.matmul", &[a, b], std::slice::from_ref(&out))
            .unwrap();
        assert_eq!(out.to_f64_vec(), vec![3., 14.]);
    }

    #[test]
    fn unique_builtin_dedups_sorted() {
        let r = Registry::new();
        let x = NDArray::from_f64(&[5], DataType::F32, vec![3., 1., 3., 2., 1.]).unwrap();
        let out = r.call_builtin("builtin.unique", &[x.into()]).unwrap();
        let out = out.as_tensor().unwrap();
        assert_eq!(out.shape(), &[3]);
        assert_eq!(out.to_f64_vec(), vec![1., 2., 3.]);
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let r = Registry::new();
        let err = r.call_lib("nope", &[], &[]).unwrap_err();
        assert_eq!(err.kernel, "nope");
        assert_eq!(r.call_builtin("nope", &[]).unwrap_err().kernel, "nope");
        assert_eq!(r.lib_signature("cublas.matmul"), Some((2, 1)));
        assert_eq!(
            (r.lib_signature("nope"), r.builtin_signature("nope")),
            (None, None)
        );
    }

    #[test]
    fn kv_append_row_copy_matches_scalar_reference() {
        let r = Registry::new();
        let (b, h, s, n, hd) = (2usize, 3usize, 5usize, 2usize, 4usize);
        let mut x = 0.5f64;
        // Values as kernels produce them: rounded to the dtype on store.
        let mut next = || {
            x = (x * 1103515245.0 + 12345.0) % 1.0e6;
            relax_tir::round_to_dtype(x / 1.0e6 - 0.5, DataType::F32)
        };
        let cache = NDArray::from_f64(
            &[b, h, s, hd],
            DataType::F32,
            (0..b * h * s * hd).map(|_| next()).collect(),
        )
        .unwrap();
        let new = NDArray::from_f64(
            &[b, h, n, hd],
            DataType::F32,
            (0..b * h * n * hd).map(|_| next()).collect(),
        )
        .unwrap();
        let fast = NDArray::zeros(&[b, h, s + n, hd], DataType::F32);
        let slow = NDArray::zeros(&[b, h, s + n, hd], DataType::F32);
        r.call_lib(
            "vm.builtin.kv_append",
            &[cache.clone(), new.clone()],
            std::slice::from_ref(&fast),
        )
        .unwrap();
        kv_append_reference(&[cache, new], std::slice::from_ref(&slow)).unwrap();
        assert_eq!(fast, slow);
    }

    /// The KV-cache builtins are registry entries like any other: the
    /// registry appends through a cache the host made on its pool.
    #[test]
    fn kv_cache_builtins_run_from_the_registry_given_a_pool() {
        let r = Registry::new();
        for (name, arity) in [
            ("vm.builtin.kv_cache.append_paged", 3),
            ("vm.builtin.kv_cache.attention", 3),
        ] {
            assert_eq!(r.builtin_signature(name), Some(arity), "{name}");
        }
        let pool = Arc::new(KvPagePool::with_capacity(2, 8));
        let cfg = kv_cache::KvCacheConfig {
            streams: 1,
            batch: 1,
            heads: 1,
            head_dim: 2,
            dtype: DataType::F32,
        };
        let cache = kv_cache::KvCache::new(cfg, Arc::clone(&pool));
        let rows = NDArray::from_f64(&[1, 1, 3, 2], DataType::F32, vec![1.; 6]).unwrap();
        let args = [
            Value::KvCache(cache.clone()),
            rows.clone().into(),
            Value::Shape(vec![0]),
        ];
        r.call_builtin("vm.builtin.kv_cache.append_paged", &args)
            .unwrap();
        assert_eq!((cache.len(0), pool.stats().in_use), (3, 2));
        assert_eq!(cache.view(0).unwrap(), rows);
    }

    #[test]
    fn rms_norm_kernel_matches_reference() {
        let r = Registry::new();
        let x = NDArray::from_f64(&[1, 4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        let w = NDArray::from_f64(&[4], DataType::F32, vec![1., 1., 1., 1.]).unwrap();
        let out = NDArray::zeros(&[1, 4], DataType::F32);
        r.call_lib("cutlass.rms_norm", &[x, w], std::slice::from_ref(&out))
            .unwrap();
        let denom = ((1. + 4. + 9. + 16.) / 4.0f64 + 1e-5).sqrt();
        for (g, e) in out.to_f64_vec().iter().zip([1., 2., 3., 4.]) {
            assert!((g - e / denom).abs() < 1e-5);
        }
    }
}
