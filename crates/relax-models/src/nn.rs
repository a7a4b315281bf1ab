//! The `nn.Module`-style model builder and shared transformer components.

use std::collections::HashMap;
use std::fmt;

use relax_arith::{DataType, PrimExpr};
use relax_core::{BlockBuilder, BuildError, Expr, IRModule, Op, OpAttrs, StructInfo, Var};
use relax_tir::{grid, Buffer, PrimFunc, Stmt, TirExpr};

/// Error raised while constructing a model.
#[derive(Debug)]
pub enum ModelError {
    /// The underlying IR builder failed.
    Build(BuildError),
    /// A named parameter was not declared.
    UnknownParam(String),
    /// A configuration value is invalid.
    BadConfig(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Build(e) => write!(f, "{e}"),
            ModelError::UnknownParam(p) => write!(f, "unknown parameter `{p}`"),
            ModelError::BadConfig(d) => write!(f, "bad model configuration: {d}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<BuildError> for ModelError {
    fn from(e: BuildError) -> Self {
        ModelError::Build(e)
    }
}

/// Builds one graph-level function of a model, with named parameters and
/// concise operator helpers.
///
/// # Examples
///
/// ```
/// use relax_models::ModelBuilder;
/// use relax_core::{IRModule, StructInfo, DataType};
/// let mut mb = ModelBuilder::begin(
///     IRModule::new(),
///     "f",
///     vec![("x".into(), StructInfo::tensor(vec![4.into()], DataType::F32))],
/// );
/// let x = mb.param("x")?;
/// let y = mb.silu(x)?;
/// let m = mb.finish(y.into())?;
/// assert!(m.function("f").is_some());
/// # Ok::<(), relax_models::ModelError>(())
/// ```
pub struct ModelBuilder {
    bb: BlockBuilder,
    params: HashMap<String, Var>,
}

impl ModelBuilder {
    /// Starts building a function named `fname` on top of `module`.
    pub fn begin(module: IRModule, fname: &str, params: Vec<(String, StructInfo)>) -> ModelBuilder {
        let mut bb = BlockBuilder::from_module(module);
        let names: Vec<String> = params.iter().map(|(n, _)| n.clone()).collect();
        let vars = bb.begin_function(fname, params);
        bb.begin_dataflow();
        ModelBuilder {
            bb,
            params: names.into_iter().zip(vars).collect(),
        }
    }

    /// Looks up a declared parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownParam`] for undeclared names.
    pub fn param(&self, name: &str) -> Result<Var, ModelError> {
        self.params
            .get(name)
            .cloned()
            .ok_or_else(|| ModelError::UnknownParam(name.to_string()))
    }

    /// Emits an arbitrary expression.
    pub fn emit(&mut self, expr: Expr) -> Result<Var, ModelError> {
        Ok(self.bb.emit(expr)?)
    }

    /// Emits an expression as a dataflow output (visible to the return).
    pub fn output(&mut self, expr: Expr) -> Result<Var, ModelError> {
        Ok(self.bb.emit_output(expr)?)
    }

    /// Matrix multiplication.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::Matmul, &[a, b])?)
    }

    /// Element-wise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::Add, &[a, b])?)
    }

    /// Element-wise multiplication.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::Mul, &[a, b])?)
    }

    /// SiLU activation.
    pub fn silu(&mut self, x: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::Silu, &[x])?)
    }

    /// GELU activation.
    pub fn gelu(&mut self, x: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::Gelu, &[x])?)
    }

    /// RMS normalization over the last axis.
    pub fn rms_norm(&mut self, x: Var, weight: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::RmsNorm, &[x, weight])?)
    }

    /// Embedding lookup.
    pub fn take(&mut self, table: Var, indices: Var) -> Result<Var, ModelError> {
        Ok(self.bb.emit_op(Op::Take, &[table, indices])?)
    }

    /// Reshape to symbolic target dimensions.
    pub fn reshape(&mut self, x: Var, dims: Vec<PrimExpr>) -> Result<Var, ModelError> {
        Ok(self.bb.emit(Expr::CallOp {
            op: Op::Reshape,
            args: vec![x.into(), Expr::ShapeValue(dims)],
            attrs: OpAttrs::new(),
        })?)
    }

    /// Dimension permutation.
    pub fn permute(&mut self, x: Var, axes: &[usize]) -> Result<Var, ModelError> {
        let spec: Vec<String> = axes.iter().map(usize::to_string).collect();
        let attrs: OpAttrs = [("axes".to_string(), spec.join(","))].into_iter().collect();
        Ok(self.bb.emit_op_attrs(Op::Permute, vec![x.into()], attrs)?)
    }

    /// Concatenation along `axis`.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Result<Var, ModelError> {
        let attrs: OpAttrs = [("axis".to_string(), axis.to_string())]
            .into_iter()
            .collect();
        Ok(self.bb.emit_op_attrs(
            Op::Concat,
            parts.iter().map(|v| Expr::Var(v.clone())).collect(),
            attrs,
        )?)
    }

    /// Fused scaled-dot-product attention over `[b, h, s, d]` operands,
    /// with grouped-query support (`k`/`v` may have fewer heads).
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        scale: f64,
        causal: bool,
    ) -> Result<Var, ModelError> {
        let mut attrs = OpAttrs::new();
        attrs.insert("scale".into(), scale.to_string());
        attrs.insert("causal".into(), causal.to_string());
        Ok(self
            .bb
            .emit_op_attrs(Op::Attention, vec![q.into(), k.into(), v.into()], attrs)?)
    }

    /// Appends one step's keys or values `(b, h, 1, hd)` to a KV cache
    /// `(b, h, s, hd)` via the `vm.builtin.kv_append` runtime function —
    /// the paged-KV-cache equivalent that real deployments use instead of
    /// re-materializing the cache every step.
    pub fn kv_append(&mut self, cache: Var, new: Var) -> Result<Var, ModelError> {
        let cd = cache
            .struct_info()
            .tensor_dims()
            .ok_or_else(|| ModelError::BadConfig("kv cache needs a known shape".into()))?
            .to_vec();
        let nd = new
            .struct_info()
            .tensor_dims()
            .ok_or_else(|| ModelError::BadConfig("kv update needs a known shape".into()))?
            .to_vec();
        if cd.len() != 4 || nd.len() != 4 {
            return Err(ModelError::BadConfig(
                "kv_append expects rank-4 tensors".into(),
            ));
        }
        let dtype = cache.struct_info().tensor_dtype().unwrap_or(DataType::F32);
        let grown = relax_arith::simplify(&(cd[2].clone() + nd[2].clone()));
        let out_sinfo = StructInfo::tensor(
            vec![cd[0].clone(), cd[1].clone(), grown, cd[3].clone()],
            dtype,
        );
        Ok(self.bb.emit(Expr::CallDps {
            func: "vm.builtin.kv_append".into(),
            args: vec![cache.into(), new.into()],
            out_sinfo,
        })?)
    }

    /// Appends one step's keys or values `(b, h, n, hd)` **in place**
    /// onto one stream of a first-class paged KV-cache handle via
    /// `vm.builtin.kv_cache.append_paged`, and returns the handle again
    /// (`Object`-typed). Chaining the returned handle into the next
    /// append keeps the whole sequence of in-place updates ordered and
    /// alive through purity-based cleanups.
    pub fn kv_append_paged(
        &mut self,
        cache: Var,
        new: Var,
        stream: usize,
    ) -> Result<Var, ModelError> {
        let stream = i64::try_from(stream)
            .map_err(|_| ModelError::BadConfig(format!("stream {stream} out of range")))?;
        Ok(self.bb.emit(Expr::CallDps {
            func: "vm.builtin.kv_cache.append_paged".into(),
            args: vec![
                cache.into(),
                new.into(),
                Expr::ShapeValue(vec![stream.into()]),
            ],
            out_sinfo: StructInfo::Object,
        })?)
    }

    /// Fused attention of `q` (`(b, hq, s, hd)`) against two streams of
    /// a paged KV-cache handle, reading pages in place
    /// (`vm.builtin.kv_cache.attention`). The builtin applies the
    /// standard `1/sqrt(hd)` scale.
    pub fn kv_attention_paged(
        &mut self,
        q: Var,
        cache: Var,
        k_stream: usize,
        v_stream: usize,
        causal: bool,
    ) -> Result<Var, ModelError> {
        let out_sinfo = q.struct_info().clone();
        let enc = |v: usize| -> Result<PrimExpr, ModelError> {
            Ok(i64::try_from(v)
                .map_err(|_| ModelError::BadConfig(format!("stream {v} out of range")))?
                .into())
        };
        Ok(self.bb.emit(Expr::CallDps {
            func: "vm.builtin.kv_cache.attention".into(),
            args: vec![
                q.into(),
                cache.into(),
                Expr::ShapeValue(vec![
                    enc(k_stream)?,
                    enc(v_stream)?,
                    i64::from(causal).into(),
                ]),
            ],
            out_sinfo,
        })?)
    }

    /// `(b, s, heads * hd)` → `(b, heads, s, hd)`.
    pub(crate) fn split_heads(
        &mut self,
        x: Var,
        b: &PrimExpr,
        s: &PrimExpr,
        heads: i64,
        hd: i64,
    ) -> Result<Var, ModelError> {
        let x = self.reshape(x, vec![b.clone(), s.clone(), heads.into(), hd.into()])?;
        self.permute(x, &[0, 2, 1, 3])
    }

    /// `(b, heads, s, hd)` → `(b, s, width)`, the inverse of
    /// [`Self::split_heads`] with `width = heads * hd`.
    pub(crate) fn merge_heads(
        &mut self,
        x: Var,
        b: &PrimExpr,
        s: &PrimExpr,
        width: i64,
    ) -> Result<Var, ModelError> {
        let x = self.permute(x, &[0, 2, 1, 3])?;
        self.reshape(x, vec![b.clone(), s.clone(), width.into()])
    }

    /// Opens a decoder's KV state under `mode`; a paged decoder threads
    /// its `kv_cache` handle parameter.
    pub(crate) fn kv_begin(&self, mode: KvMode) -> Result<KvState, ModelError> {
        let handle = match mode {
            KvMode::Paged => Some(self.param("kv_cache")?),
            KvMode::Copy | KvMode::Emit => None,
        };
        Ok(KvState {
            mode,
            handle,
            outs: Vec::new(),
        })
    }

    /// Causal self-attention of decoder layer `l` (parameters prefixed
    /// `p`) over head-split `q`/`k`/`v`, storing the fed keys and values
    /// the way `kv`'s mode says.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attend_cached(
        &mut self,
        kv: &mut KvState,
        p: &str,
        l: usize,
        q: Var,
        k: Var,
        v: Var,
        scale: f64,
    ) -> Result<Var, ModelError> {
        let (k, v) = match kv.mode {
            KvMode::Paged => {
                // In-place paged appends; the handle chain orders them.
                let cache = kv.handle.take().expect("paged KV state holds its handle");
                let cache = self.kv_append_paged(cache, k, 2 * l)?;
                let cache = self.kv_append_paged(cache, v, 2 * l + 1)?;
                kv.handle = Some(cache.clone());
                return self.kv_attention_paged(q, cache, 2 * l, 2 * l + 1, true);
            }
            KvMode::Copy => {
                // Append to the cache along the sequence axis.
                let k_cache = self.param(&format!("{p}.k_cache"))?;
                let v_cache = self.param(&format!("{p}.v_cache"))?;
                (self.kv_append(k_cache, k)?, self.kv_append(v_cache, v)?)
            }
            KvMode::Emit => (k, v),
        };
        kv.outs.push(self.output(k.clone().into())?);
        kv.outs.push(self.output(v.clone().into())?);
        self.attention(q, k, v, scale, true)
    }

    /// Closes a decoder's KV state into the values its function returns
    /// after the logits: the cache tensors, or the paged handle (returning
    /// it keeps the append chain alive through purity-based cleanups).
    pub(crate) fn kv_finish(&mut self, kv: KvState) -> Result<Vec<Expr>, ModelError> {
        match kv.handle {
            Some(handle) => Ok(vec![self.output(handle.into())?.into()]),
            None => Ok(kv.outs.into_iter().map(Expr::Var).collect()),
        }
    }

    /// Pre-norm self-attention block with residual over `(b, s, heads *
    /// hd)` states, weights `{p}.norm1` and `{p}.{wq,wk,wv,wo}`: causal
    /// over `kv` for decoder layer `l`, bidirectional without one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn self_attention(
        &mut self,
        x: Var,
        p: &str,
        b: &PrimExpr,
        s: &PrimExpr,
        heads: i64,
        hd: i64,
        kv: Option<(&mut KvState, usize)>,
    ) -> Result<Var, ModelError> {
        let scale = 1.0 / (hd as f64).sqrt();
        let norm1 = self.param(&format!("{p}.norm1"))?;
        let hn = self.rms_norm(x.clone(), norm1)?;
        let q = self.matmul(hn.clone(), self.param(&format!("{p}.wq"))?)?;
        let k = self.matmul(hn.clone(), self.param(&format!("{p}.wk"))?)?;
        let v = self.matmul(hn, self.param(&format!("{p}.wv"))?)?;
        let q = self.split_heads(q, b, s, heads, hd)?;
        let k = self.split_heads(k, b, s, heads, hd)?;
        let v = self.split_heads(v, b, s, heads, hd)?;
        let att = match kv {
            Some((kv, l)) => self.attend_cached(kv, p, l, q, k, v, scale)?,
            None => self.attention(q, k, v, scale, false)?,
        };
        let att = self.merge_heads(att, b, s, heads * hd)?;
        let o = self.matmul(att, self.param(&format!("{p}.wo"))?)?;
        self.add(x, o)
    }

    /// Pre-norm GELU feed-forward block with residual, weights
    /// `{p}.norm2`, `{p}.w_up` and `{p}.w_down`.
    pub(crate) fn gelu_mlp(&mut self, x: Var, p: &str) -> Result<Var, ModelError> {
        let norm2 = self.param(&format!("{p}.norm2"))?;
        let hn = self.rms_norm(x.clone(), norm2)?;
        let up = self.matmul(hn, self.param(&format!("{p}.w_up"))?)?;
        let up = self.gelu(up)?;
        let down = self.matmul(up, self.param(&format!("{p}.w_down"))?)?;
        self.add(x, down)
    }

    /// Refines a value's shape through `match_cast`, introducing the
    /// symbolic variables of `sinfo` with a runtime check — the
    /// data-dependent-shape idiom of the paper's Figure 3 (an MoE
    /// gather's row count is only known once the router has run).
    pub fn match_cast(&mut self, value: Var, sinfo: StructInfo) -> Result<Var, ModelError> {
        Ok(self.bb.emit_match_cast(value.into(), sinfo)?)
    }

    /// Per-token expert assignment: argmax of router logits `(t, E)`
    /// into `(t,)` i64 via the `vm.builtin.moe.route` runtime builtin.
    pub fn moe_route(&mut self, logits: Var) -> Result<Var, ModelError> {
        let dims = logits
            .struct_info()
            .tensor_dims()
            .ok_or_else(|| ModelError::BadConfig("router logits need a known shape".into()))?
            .to_vec();
        if dims.len() != 2 {
            return Err(ModelError::BadConfig(
                "router logits must be rank 2 (tokens, experts)".into(),
            ));
        }
        let out_sinfo = StructInfo::tensor(vec![dims[0].clone()], DataType::I64);
        Ok(self.bb.emit(Expr::CallDps {
            func: "vm.builtin.moe.route".into(),
            args: vec![logits.into()],
            out_sinfo,
        })?)
    }

    /// Gathers the token rows assigned to `expert` into a fresh matrix
    /// whose row count is **data-dependent**: the annotation is the
    /// coarse `Tensor(ndim=2)`, to be refined by a `match_cast` that
    /// binds the runtime count to a fresh symbolic dim.
    pub fn moe_gather(&mut self, tokens: Var, assign: Var, expert: i64) -> Result<Var, ModelError> {
        let dtype = tokens.struct_info().tensor_dtype().unwrap_or(DataType::F32);
        Ok(self.bb.emit(Expr::CallDps {
            func: "vm.builtin.moe.gather".into(),
            args: vec![
                tokens.into(),
                assign.into(),
                Expr::ShapeValue(vec![expert.into()]),
            ],
            out_sinfo: StructInfo::tensor_ndim(2, dtype),
        })?)
    }

    /// Scatters an expert's output rows `(n_e, d)` back to their token
    /// positions in a `(tokens, d)` matrix (zeros elsewhere).
    pub fn moe_scatter(
        &mut self,
        rows: Var,
        assign: Var,
        expert: i64,
        tokens: PrimExpr,
        d: PrimExpr,
    ) -> Result<Var, ModelError> {
        let dtype = rows.struct_info().tensor_dtype().unwrap_or(DataType::F32);
        Ok(self.bb.emit(Expr::CallDps {
            func: "vm.builtin.moe.scatter".into(),
            args: vec![
                rows.into(),
                assign.into(),
                Expr::ShapeValue(vec![expert.into(), tokens.clone()]),
            ],
            out_sinfo: StructInfo::tensor(vec![tokens, d], dtype),
        })?)
    }

    /// A linear layer with 4-bit quantized weights: the customized
    /// quantization-decode tensor program of Figure 9 followed by a
    /// matmul. `wdata` packs eight 4-bit values per `u32` along the output
    /// axis; `wscale` holds one scale per 32 outputs.
    ///
    /// The decode program has no graph-level operator — exactly the
    /// "customized operators that cannot be easily represented on graph
    /// level" case that cross-level abstraction exists for; analysis
    /// feedback classifies it `Injective` and fusion merges it into the
    /// matmul.
    pub fn q4_linear(
        &mut self,
        x: Var,
        wdata: Var,
        wscale: Var,
        k: i64,
        n: i64,
        dtype: DataType,
    ) -> Result<Var, ModelError> {
        if n % 32 != 0 {
            return Err(ModelError::BadConfig(format!(
                "q4 output dimension {n} must be a multiple of 32"
            )));
        }
        let decode = build_decode_q4(k, n, dtype);
        let name = self.bb.add_tir_func(decode);
        let w = self.bb.emit(Expr::CallTir {
            func: name,
            args: vec![wdata.into(), wscale.into()],
            out_sinfo: StructInfo::tensor(vec![k.into(), n.into()], dtype),
            sym_args: vec![],
        })?;
        self.matmul(x, w)
    }

    /// Finishes the function, returning the updated module.
    ///
    /// # Errors
    ///
    /// Propagates return-annotation deduction failures.
    pub fn finish(mut self, ret: Expr) -> Result<IRModule, ModelError> {
        self.bb.end_dataflow();
        self.bb.finish_function(ret, None)?;
        Ok(self.bb.finish())
    }
}

/// Where a decoder layer's fed keys and values go.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KvMode {
    /// Appended to per-layer `(b, h, s, hd)` cache tensor parameters
    /// (`{p}.k_cache`/`{p}.v_cache`) by the copy-based `kv_append`; the
    /// grown caches are returned.
    Copy,
    /// Appended in place to streams `2l`/`2l+1` of the one first-class
    /// `kv_cache` handle, which is returned.
    Paged,
    /// Returned as they are — a prefill producing the initial caches.
    Emit,
}

/// What a decoder threads through its layers under a [`KvMode`].
pub(crate) struct KvState {
    mode: KvMode,
    /// The paged handle after the latest append.
    handle: Option<Var>,
    /// Cache tensors to return, `k` then `v` per layer.
    outs: Vec<Var>,
}

/// A named constant-shape tensor parameter.
pub(crate) fn tensor_param(name: String, dims: &[i64], dtype: DataType) -> (String, StructInfo) {
    let dims = dims.iter().map(|&d| d.into()).collect();
    (name, StructInfo::tensor(dims, dtype))
}

/// The parameters of one [`ModelBuilder::self_attention`] +
/// [`ModelBuilder::gelu_mlp`] encoder layer of width `d` prefixed `p`.
pub(crate) fn encoder_layer_params(
    p: &str,
    d: i64,
    ffn: i64,
    dtype: DataType,
) -> Vec<(String, StructInfo)> {
    let mut params = vec![tensor_param(format!("{p}.norm1"), &[d], dtype)];
    for w in ["wq", "wk", "wv", "wo"] {
        params.push(tensor_param(format!("{p}.{w}"), &[d, d], dtype));
    }
    params.push(tensor_param(format!("{p}.norm2"), &[d], dtype));
    params.push(tensor_param(format!("{p}.w_up"), &[d, ffn], dtype));
    params.push(tensor_param(format!("{p}.w_down"), &[ffn, d], dtype));
    params
}

/// Builds the `decode_q4` tensor program of Figure 9:
/// `W[kk, j] = (((data[kk, j//8] >> (j%8*4)) & 15) - 7) * scale[kk, j//32]`.
pub fn build_decode_q4(k: i64, n: i64, dtype: DataType) -> PrimFunc {
    let wdata = Buffer::new("Wdata", vec![k.into(), (n / 8).into()], DataType::U32);
    let wscale = Buffer::new("Wscale", vec![k.into(), (n / 32).into()], dtype);
    let w = Buffer::new("W", vec![k.into(), n.into()], dtype);
    let (iv, nest) = grid(&[("kk", k.into()), ("j", n.into())]);
    let (kk, j) = (PrimExpr::from(iv[0].clone()), PrimExpr::from(iv[1].clone()));
    let nibble = TirExpr::BitAnd(
        Box::new(TirExpr::Shr(
            Box::new(TirExpr::load(
                &wdata,
                vec![kk.clone(), j.clone().floor_div(8.into())],
            )),
            Box::new(TirExpr::Index(j.clone().floor_mod(8.into()) * 4.into())),
        )),
        Box::new(TirExpr::IntImm(15)),
    );
    let value = TirExpr::Cast(dtype, Box::new(nibble - TirExpr::IntImm(7)))
        * TirExpr::load(&wscale, vec![kk.clone(), j.clone().floor_div(32.into())]);
    let body = nest.build(Stmt::store(&w, vec![kk, j], value));
    PrimFunc::new("decode_q4", vec![wdata, wscale, w], 1, body)
}

/// Packs float weights into the q4 format used by [`build_decode_q4`]
/// (for numeric tests): returns `(wdata_u32, wscale)` vectors for a
/// `(k, n)` weight matrix given per-group scales.
pub fn pack_q4(weights: &[Vec<u8>], scales: &[Vec<f64>]) -> (Vec<i64>, Vec<f64>) {
    let mut data = Vec::new();
    for row in weights {
        for chunk in row.chunks(8) {
            let mut word: u32 = 0;
            for (i, &nib) in chunk.iter().enumerate() {
                word |= u32::from(nib & 0xF) << (i * 4);
            }
            data.push(i64::from(word));
        }
    }
    let flat_scales = scales.iter().flatten().copied().collect();
    (data, flat_scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_tir::{interp, NDArray};

    #[test]
    fn decode_q4_matches_reference() {
        // 1x32 weight row: nibbles 0..16 repeated, scale 2.0.
        let k = 1i64;
        let n = 32i64;
        let f = build_decode_q4(k, n, DataType::F32);
        let nibbles: Vec<u8> = (0..32).map(|i| (i % 16) as u8).collect();
        let (data, scales) = pack_q4(std::slice::from_ref(&nibbles), &[vec![2.0]]);
        let wdata = NDArray::from_i64(&[1, 4], DataType::U32, data).unwrap();
        let wscale = NDArray::from_f64(&[1, 1], DataType::F32, scales).unwrap();
        let w = NDArray::zeros(&[1, 32], DataType::F32);
        interp::run(&f, &[wdata, wscale, w.clone()]).unwrap();
        let got = w.to_f64_vec();
        for (j, g) in got.iter().enumerate() {
            let expect = ((j % 16) as f64 - 7.0) * 2.0;
            assert_eq!(*g, expect, "at {j}");
        }
        // Analysis feedback: decode is injective (fusible into matmul).
        assert_eq!(
            relax_tir::analysis::pattern_kind(&f),
            relax_tir::analysis::PatternKind::Injective
        );
    }

    #[test]
    fn q4_linear_builds_and_infers() {
        let mut mb = ModelBuilder::begin(
            IRModule::new(),
            "f",
            vec![
                (
                    "x".into(),
                    StructInfo::tensor(vec![1.into(), 64.into()], DataType::F32),
                ),
                (
                    "wd".into(),
                    StructInfo::tensor(vec![64.into(), 4.into()], DataType::U32),
                ),
                (
                    "ws".into(),
                    StructInfo::tensor(vec![64.into(), 1.into()], DataType::F32),
                ),
            ],
        );
        let x = mb.param("x").unwrap();
        let wd = mb.param("wd").unwrap();
        let ws = mb.param("ws").unwrap();
        let y = mb.q4_linear(x, wd, ws, 64, 32, DataType::F32).unwrap();
        assert_eq!(
            y.struct_info().tensor_dims().unwrap(),
            &[PrimExpr::Int(1), PrimExpr::Int(32)]
        );
        let out = mb.output(y.into()).unwrap();
        let m = mb.finish(out.into()).unwrap();
        assert!(relax_core::assert_well_formed(&m).is_ok());
    }

    #[test]
    fn bad_q4_dims_rejected() {
        let mut mb = ModelBuilder::begin(
            IRModule::new(),
            "f",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![1.into(), 8.into()], DataType::F32),
            )],
        );
        let x = mb.param("x").unwrap();
        let err = mb
            .q4_linear(x.clone(), x.clone(), x, 8, 20, DataType::F32)
            .unwrap_err();
        assert!(matches!(err, ModelError::BadConfig(_)));
    }
}
