//! Decoder-only transformer LLMs with KV caches (the models of Figures
//! 14–18 and Tables 2–3).

use relax_arith::{DataType, PrimExpr, Var as SymVar};
use relax_core::{Expr, IRModule, StructInfo};

use crate::nn::{tensor_param, KvMode, ModelBuilder, ModelError};

/// Configuration of a decoder-only LLM.
#[derive(Debug, Clone, PartialEq)]
pub struct LlamaConfig {
    /// Model name as used in the paper's figures.
    pub name: String,
    /// Hidden size.
    pub hidden: i64,
    /// Feed-forward intermediate size.
    pub intermediate: i64,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Number of query heads.
    pub n_heads: i64,
    /// Number of KV heads (grouped-query attention when < `n_heads`).
    pub n_kv_heads: i64,
    /// Per-head dimension.
    pub head_dim: i64,
    /// Vocabulary size.
    pub vocab: i64,
    /// Maximum context length (used as the planning upper bound).
    pub max_context: i64,
    /// Weight/activation dtype.
    pub dtype: DataType,
    /// Whether linear weights are 4-bit quantized.
    pub quant4: bool,
}

impl LlamaConfig {
    /// Llama3-8B.
    pub fn llama3_8b() -> Self {
        LlamaConfig {
            name: "Llama3-8B".into(),
            hidden: 4096,
            intermediate: 14336,
            n_layers: 32,
            n_heads: 32,
            n_kv_heads: 8,
            head_dim: 128,
            vocab: 128_256,
            max_context: 8192,
            dtype: DataType::F16,
            quant4: false,
        }
    }

    /// Gemma1.1-7B.
    pub fn gemma_7b() -> Self {
        LlamaConfig {
            name: "Gemma1.1-7B".into(),
            hidden: 3072,
            intermediate: 24576,
            n_layers: 28,
            n_heads: 16,
            n_kv_heads: 16,
            head_dim: 256,
            vocab: 256_000,
            max_context: 8192,
            dtype: DataType::F16,
            quant4: false,
        }
    }

    /// Qwen2-7B.
    pub fn qwen2_7b() -> Self {
        LlamaConfig {
            name: "Qwen2-7B".into(),
            hidden: 3584,
            intermediate: 18944,
            n_layers: 28,
            n_heads: 28,
            n_kv_heads: 4,
            head_dim: 128,
            vocab: 152_064,
            max_context: 8192,
            dtype: DataType::F16,
            quant4: false,
        }
    }

    /// Llama2-7B (used on phones in Table 3 for VRAM reasons).
    pub fn llama2_7b() -> Self {
        LlamaConfig {
            name: "Llama2-7B".into(),
            hidden: 4096,
            intermediate: 11008,
            n_layers: 32,
            n_heads: 32,
            n_kv_heads: 32,
            head_dim: 128,
            vocab: 32_000,
            max_context: 4096,
            dtype: DataType::F16,
            quant4: false,
        }
    }

    /// Phi3-mini-4k.
    pub fn phi3_mini() -> Self {
        LlamaConfig {
            name: "Phi3-mini-4k".into(),
            hidden: 3072,
            intermediate: 8192,
            n_layers: 32,
            n_heads: 32,
            n_kv_heads: 32,
            head_dim: 96,
            vocab: 32_064,
            max_context: 4096,
            dtype: DataType::F16,
            quant4: false,
        }
    }

    /// RedPajama-3B.
    pub fn redpajama_3b() -> Self {
        LlamaConfig {
            name: "RedPajama-3B".into(),
            hidden: 2560,
            intermediate: 10240,
            n_layers: 32,
            n_heads: 32,
            n_kv_heads: 32,
            head_dim: 80,
            vocab: 50_432,
            max_context: 2048,
            dtype: DataType::F16,
            quant4: false,
        }
    }

    /// A tiny configuration that executes numerically in tests (with
    /// grouped-query attention exercised).
    pub fn tiny() -> Self {
        LlamaConfig {
            name: "Tiny".into(),
            hidden: 32,
            intermediate: 64,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 1,
            head_dim: 32,
            vocab: 32,
            max_context: 64,
            dtype: DataType::F32,
            quant4: false,
        }
    }

    /// Returns a copy using 4-bit quantized weights.
    pub fn quantized(mut self) -> Self {
        self.quant4 = true;
        self.name = format!("{} (q4)", self.name);
        self
    }

    /// Total parameter count.
    pub fn param_count(&self) -> f64 {
        let qkv = self.hidden * (self.n_heads + 2 * self.n_kv_heads) * self.head_dim;
        let o = self.n_heads * self.head_dim * self.hidden;
        let ffn = 3 * self.hidden * self.intermediate;
        let per_layer = qkv + o + ffn + 2 * self.hidden;
        let embed = 2 * self.vocab * self.hidden; // embedding + lm head
        (per_layer * self.n_layers as i64 + embed + self.hidden) as f64
    }

    /// Parameter bytes under the configured precision (4-bit quantization
    /// stores half a byte per weight plus one f16 scale per 32 weights).
    pub fn weight_bytes(&self) -> f64 {
        if self.quant4 {
            self.param_count() * (0.5 + 2.0 / 32.0)
        } else {
            self.param_count() * self.dtype.size_bytes() as f64
        }
    }

    /// Dense FLOPs per generated token per sequence (≈ 2 × parameters).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.param_count()
    }

    /// KV-cache bytes read per token per context position per sequence.
    pub fn kv_bytes_per_pos(&self) -> f64 {
        (2 * self.n_layers as i64 * self.n_kv_heads * self.head_dim) as f64
            * self.dtype.size_bytes() as f64
    }

    /// Kernels per decoded token after fusion.
    pub fn kernels_fused(&self) -> u32 {
        (self.n_layers as u32) * 9 + 3
    }

    /// Kernels per decoded token under eager per-operator execution.
    pub fn kernels_eager(&self) -> u32 {
        (self.n_layers as u32) * 24 + 4
    }
}

/// Parameter specifications of a built function, in call order.
#[derive(Debug, Clone)]
pub struct ModelIr {
    /// The module containing the function.
    pub module: IRModule,
    /// The built function's name.
    pub func: String,
    /// `(name, annotation)` of each parameter in order.
    pub params: Vec<(String, StructInfo)>,
    /// The symbolic batch-size variable.
    pub batch: SymVar,
    /// The function's other symbolic variable: the KV-cache length
    /// (copy-based decode), the number of tokens fed per sequence (paged
    /// decode, prefill) or the audio length (the Whisper functions).
    pub seq: SymVar,
}

fn weight_param_specs(config: &LlamaConfig) -> Vec<(String, StructInfo)> {
    let dt = config.dtype;
    let h = config.hidden;
    let q_out = config.n_heads * config.head_dim;
    let kv_out = config.n_kv_heads * config.head_dim;
    let mut params = vec![tensor_param("embed".to_string(), &[config.vocab, h], dt)];
    let linear = |name: &str, k: i64, n: i64| -> Vec<(String, StructInfo)> {
        if config.quant4 {
            vec![
                tensor_param(format!("{name}_q"), &[k, n / 8], DataType::U32),
                tensor_param(format!("{name}_s"), &[k, n / 32], dt),
            ]
        } else {
            vec![tensor_param(name.to_string(), &[k, n], dt)]
        }
    };
    for l in 0..config.n_layers {
        params.push(tensor_param(format!("l{l}.attn_norm"), &[h], dt));
        params.extend(linear(&format!("l{l}.wq"), h, q_out));
        params.extend(linear(&format!("l{l}.wk"), h, kv_out));
        params.extend(linear(&format!("l{l}.wv"), h, kv_out));
        params.extend(linear(&format!("l{l}.wo"), q_out, h));
        params.push(tensor_param(format!("l{l}.ffn_norm"), &[h], dt));
        params.extend(linear(&format!("l{l}.w_gate"), h, config.intermediate));
        params.extend(linear(&format!("l{l}.w_up"), h, config.intermediate));
        params.extend(linear(&format!("l{l}.w_down"), config.intermediate, h));
    }
    params.push(tensor_param("final_norm".to_string(), &[h], dt));
    params.extend(linear("lm_head", h, config.vocab));
    params
}

/// Applies the (possibly quantized) linear layer named `name` with
/// weight shape `(k, n)`.
fn linear(
    mb: &mut ModelBuilder,
    config: &LlamaConfig,
    name: &str,
    x: relax_core::Var,
    k: i64,
    n: i64,
) -> Result<relax_core::Var, ModelError> {
    if config.quant4 {
        let wd = mb.param(&format!("{name}_q"))?;
        let ws = mb.param(&format!("{name}_s"))?;
        mb.q4_linear(x, wd, ws, k, n, config.dtype)
    } else {
        let w = mb.param(name)?;
        mb.matmul(x, w)
    }
}

/// How many tokens per sequence one call feeds.
#[derive(Clone, Copy)]
enum Feed {
    /// One: `tokens` is `(batch, 1)` and the model's other symbolic
    /// dimension is the cache length `kv_len`.
    One,
    /// A symbolic `seq`: `tokens` is `(batch, seq)`.
    Seq,
}

/// The one model body behind the four public entry points: embedding,
/// `n_layers` × (attention over the KV mode's cache + SwiGLU MLP), and —
/// unless the function only emits caches — final norm and LM head.
fn build(
    config: &LlamaConfig,
    func: &str,
    cache: KvMode,
    feed: Feed,
) -> Result<ModelIr, ModelError> {
    let b = SymVar::new("batch");
    let seq = SymVar::new(match feed {
        Feed::One => "kv_len",
        Feed::Seq => "seq",
    });
    let h = config.hidden;
    let hd = config.head_dim;
    let nh = config.n_heads;
    let nkv = config.n_kv_heads;
    let be: PrimExpr = b.clone().into();
    let se: PrimExpr = match feed {
        Feed::One => 1.into(),
        Feed::Seq => seq.clone().into(),
    };

    let mut params: Vec<(String, StructInfo)> = vec![(
        "tokens".to_string(),
        StructInfo::tensor(vec![be.clone(), se.clone()], DataType::I64),
    )];
    match cache {
        KvMode::Copy => {
            let cache = StructInfo::tensor(
                vec![be.clone(), nkv.into(), seq.clone().into(), hd.into()],
                config.dtype,
            );
            for l in 0..config.n_layers {
                params.push((format!("l{l}.k_cache"), cache.clone()));
                params.push((format!("l{l}.v_cache"), cache.clone()));
            }
        }
        KvMode::Paged => params.push(("kv_cache".to_string(), StructInfo::Object)),
        KvMode::Emit => {}
    }
    params.extend(weight_param_specs(config));

    let mut mb = ModelBuilder::begin(IRModule::new(), func, params.clone());
    let tokens = mb.param("tokens")?;
    let embed = mb.param("embed")?;
    let mut x = mb.take(embed, tokens)?; // (b, s, h)
    let mut kv = mb.kv_begin(cache)?;
    let scale = 1.0 / (hd as f64).sqrt();

    for l in 0..config.n_layers {
        let p = format!("l{l}");
        let attn_norm = mb.param(&format!("{p}.attn_norm"))?;
        let hn = mb.rms_norm(x.clone(), attn_norm)?;
        let q = linear(&mut mb, config, &format!("{p}.wq"), hn.clone(), h, nh * hd)?;
        let k = linear(&mut mb, config, &format!("{p}.wk"), hn.clone(), h, nkv * hd)?;
        let v = linear(&mut mb, config, &format!("{p}.wv"), hn, h, nkv * hd)?;
        let q = mb.split_heads(q, &be, &se, nh, hd)?;
        let k = mb.split_heads(k, &be, &se, nkv, hd)?;
        let v = mb.split_heads(v, &be, &se, nkv, hd)?;
        let att = mb.attend_cached(&mut kv, &p, l, q, k, v, scale)?;
        let att = mb.merge_heads(att, &be, &se, nh * hd)?;
        let o = linear(&mut mb, config, &format!("{p}.wo"), att, nh * hd, h)?;
        x = mb.add(x, o)?;
        // Feed-forward with SwiGLU.
        let ffn_norm = mb.param(&format!("{p}.ffn_norm"))?;
        let hn2 = mb.rms_norm(x.clone(), ffn_norm)?;
        let inter = config.intermediate;
        let gate = linear(
            &mut mb,
            config,
            &format!("{p}.w_gate"),
            hn2.clone(),
            h,
            inter,
        )?;
        let gate = mb.silu(gate)?;
        let up = linear(&mut mb, config, &format!("{p}.w_up"), hn2, h, inter)?;
        let act = mb.mul(gate, up)?;
        let down = linear(&mut mb, config, &format!("{p}.w_down"), act, inter, h)?;
        x = mb.add(x, down)?;
    }

    let mut ret: Vec<Expr> = Vec::new();
    if !matches!(cache, KvMode::Emit) {
        let final_norm = mb.param("final_norm")?;
        let xn = mb.rms_norm(x, final_norm)?;
        let logits = linear(&mut mb, config, "lm_head", xn, h, config.vocab)?;
        ret.push(mb.output(logits.into())?.into());
    }
    ret.extend(mb.kv_finish(kv)?);
    let module = mb.finish(Expr::Tuple(ret))?;
    Ok(ModelIr {
        module,
        func: func.into(),
        params,
        batch: b,
        seq,
    })
}

/// Builds the single-step decode function: takes the next token ids and
/// per-layer KV caches, returns `(logits, new K/V caches...)`. Both the
/// batch size and the cache length are symbolic — the paper's point that
/// one compilation serves arbitrary batch sizes and sequence lengths.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_decode(config: &LlamaConfig) -> Result<ModelIr, ModelError> {
    build(config, "decode", KvMode::Copy, Feed::One)
}

/// Builds the decode function over a **paged** KV cache: takes `(b, s)`
/// token ids with a symbolic `s` and one first-class cache handle (streams
/// `2l`/`2l+1` hold layer `l`'s K/V), appends in place through
/// `vm.builtin.kv_cache.append_paged`, and attends directly over the
/// pages. Returns `(logits (b, s, vocab), cache handle)` — one logits row
/// per fed position; the handle is threaded through every append so the
/// in-place updates stay ordered, and returning it keeps the chain alive
/// through purity-based cleanups.
///
/// One compilation serves every feed length: a whole prompt, a single
/// decoded token (`s = 1`), or a window of speculative proposals. Causal
/// attention over the paged cache gives row `i` exactly the attended set
/// a sequential single-token decode would see, so the per-row logits are
/// bitwise-identical to feeding the same tokens one at a time.
///
/// Unlike [`build_decode`], no `(b, h, s, hd)` cache tensors cross the
/// call boundary and no step re-materializes the cache: KV memory is
/// bounded by the VM's page pool.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_decode_paged(config: &LlamaConfig) -> Result<ModelIr, ModelError> {
    build(config, "decode_paged", KvMode::Paged, Feed::Seq)
}

/// [`build_decode_paged`] under the name `decode_paged_multi` — the same
/// body, kept as a second public name for the callers that compile a
/// separate verify executable for speculative decoding.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_decode_paged_multi(config: &LlamaConfig) -> Result<ModelIr, ModelError> {
    build(config, "decode_paged_multi", KvMode::Paged, Feed::Seq)
}

/// Builds the prefill function: consumes the whole prompt `(b, s)` and
/// produces the initial per-layer KV caches.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_prefill(config: &LlamaConfig) -> Result<ModelIr, ModelError> {
    build(config, "prefill", KvMode::Emit, Feed::Seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_decode_is_well_formed() {
        let ir = build_decode(&LlamaConfig::tiny()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
        let f = ir.module.function("decode").unwrap();
        // tokens + 2 caches/layer + weights
        assert_eq!(f.params.len(), ir.params.len());
        // Output: logits + 2 caches per layer.
        match &f.ret {
            Expr::Tuple(items) => assert_eq!(items.len(), 1 + 2 * 2),
            other => panic!("expected tuple return, got {other:?}"),
        }
    }

    #[test]
    fn tiny_prefill_is_well_formed() {
        let ir = build_prefill(&LlamaConfig::tiny()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
    }

    #[test]
    fn quantized_config_builds() {
        let ir = build_decode(&LlamaConfig::tiny().quantized()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
        // Quantized weights double the per-linear parameter count.
        assert!(ir.params.len() > build_decode(&LlamaConfig::tiny()).unwrap().params.len());
    }

    #[test]
    fn cost_model_magnitudes_are_sane() {
        let c = LlamaConfig::llama3_8b();
        let params = c.param_count();
        assert!((7e9..9e9).contains(&params), "got {params}");
        assert!((14e9..18e9).contains(&c.weight_bytes()));
        let q = c.clone().quantized();
        assert!(q.weight_bytes() < c.weight_bytes() / 3.0);
        // GQA shrinks the KV footprint 4x vs MHA.
        let kv = c.kv_bytes_per_pos();
        assert_eq!(kv, (2 * 32 * 8 * 128) as f64 * 2.0);
        assert!(c.kernels_eager() > c.kernels_fused());
    }

    #[test]
    fn presets_cover_the_paper_models() {
        for c in [
            LlamaConfig::llama3_8b(),
            LlamaConfig::gemma_7b(),
            LlamaConfig::qwen2_7b(),
            LlamaConfig::llama2_7b(),
            LlamaConfig::phi3_mini(),
            LlamaConfig::redpajama_3b(),
        ] {
            assert!(c.param_count() > 1e9, "{}", c.name);
            assert!(c.n_heads % c.n_kv_heads == 0);
            assert!(c.intermediate % 32 == 0 && c.vocab % 32 == 0);
        }
    }
}

#[cfg(test)]
mod structure_tests {
    use super::*;
    use relax_core::Expr;

    #[test]
    fn decode_parameter_inventory_matches_architecture() {
        let cfg = LlamaConfig::tiny();
        let ir = build_decode(&cfg).unwrap();
        // tokens + 2 caches/layer + embed + 9 weights/layer + final_norm +
        // lm_head.
        let expected = 1 + 2 * cfg.n_layers + 1 + 9 * cfg.n_layers + 2;
        assert_eq!(ir.params.len(), expected);
        // Quantization doubles every linear's parameter entries (data +
        // scales): 7 linears per layer + lm_head.
        let q = build_decode(&cfg.clone().quantized()).unwrap();
        assert_eq!(q.params.len(), expected + 7 * cfg.n_layers + 1);
    }

    #[test]
    fn decode_uses_kv_append_not_concat() {
        let ir = build_decode(&LlamaConfig::tiny()).unwrap();
        let f = ir.module.function("decode").unwrap();
        let mut appends = 0;
        let mut concats = 0;
        for b in f.bindings() {
            match &b.value {
                Expr::CallDps { func, .. } if func == "vm.builtin.kv_append" => appends += 1,
                Expr::CallOp {
                    op: relax_core::Op::Concat,
                    ..
                } => concats += 1,
                _ => {}
            }
        }
        assert_eq!(appends, 2 * LlamaConfig::tiny().n_layers);
        assert_eq!(concats, 0);
    }

    #[test]
    fn attention_uses_gqa_head_counts() {
        let cfg = LlamaConfig::tiny();
        assert!(cfg.n_kv_heads < cfg.n_heads);
        let ir = build_decode(&cfg).unwrap();
        let f = ir.module.function("decode").unwrap();
        let mut saw_attention = 0;
        for b in f.bindings() {
            if let Expr::CallOp {
                op: relax_core::Op::Attention,
                args,
                ..
            } = &b.value
            {
                saw_attention += 1;
                // q heads and kv heads differ.
                let q = args[0]
                    .as_var()
                    .unwrap()
                    .struct_info()
                    .tensor_dims()
                    .unwrap()[1]
                    .as_int()
                    .unwrap();
                let k = args[1]
                    .as_var()
                    .unwrap()
                    .struct_info()
                    .tensor_dims()
                    .unwrap()[1]
                    .as_int()
                    .unwrap();
                assert_eq!(q, cfg.n_heads);
                assert_eq!(k, cfg.n_kv_heads);
            }
        }
        assert_eq!(saw_attention, cfg.n_layers);
    }

    #[test]
    fn decode_paged_threads_one_cache_handle() {
        let cfg = LlamaConfig::tiny();
        let ir = build_decode_paged(&cfg).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
        let f = ir.module.function("decode_paged").unwrap();
        let (mut appends, mut attns, mut copy_appends) = (0, 0, 0);
        for b in f.bindings() {
            if let Expr::CallDps { func, .. } = &b.value {
                match func.as_str() {
                    "vm.builtin.kv_cache.append_paged" => appends += 1,
                    "vm.builtin.kv_cache.attention" => attns += 1,
                    "vm.builtin.kv_append" => copy_appends += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(appends, 2 * cfg.n_layers);
        assert_eq!(attns, cfg.n_layers);
        // The paged path never re-materializes the cache.
        assert_eq!(copy_appends, 0);
        // Return is (logits, final cache handle); only one handle param.
        match &f.ret {
            Expr::Tuple(items) => assert_eq!(items.len(), 2),
            other => panic!("expected tuple return, got {other:?}"),
        }
        let handles = ir
            .params
            .iter()
            .filter(|(_, si)| matches!(si, StructInfo::Object))
            .count();
        assert_eq!(handles, 1);
        // Same weights as the copy-based decode, minus the cache tensors.
        let d = build_decode(&cfg).unwrap();
        assert_eq!(ir.params.len() + 2 * cfg.n_layers, d.params.len() + 1);
    }

    /// `decode_paged_multi` is a second name, not a second body.
    #[test]
    fn decode_paged_and_multi_differ_only_in_name() {
        let cfg = LlamaConfig::tiny();
        let one = build_decode_paged(&cfg).unwrap();
        let multi = build_decode_paged_multi(&cfg).unwrap().module.to_string();
        assert_eq!(
            one.module.to_string(),
            multi.replace("decode_paged_multi", "decode_paged")
        );
    }

    #[test]
    fn prefill_and_decode_share_weight_names() {
        let cfg = LlamaConfig::tiny();
        let d = build_decode(&cfg).unwrap();
        let p = build_prefill(&cfg).unwrap();
        let weights = |ir: &ModelIr| -> Vec<String> {
            ir.params
                .iter()
                .map(|(n, _)| n.clone())
                .filter(|n| n != "tokens" && !n.contains("cache"))
                .collect()
        };
        assert_eq!(weights(&d), weights(&p));
    }
}
