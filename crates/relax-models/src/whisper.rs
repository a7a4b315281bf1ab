//! Whisper-style encoder–decoder speech transformer (Figure 19).

use relax_arith::{DataType, PrimExpr, Var as SymVar};
use relax_core::{Expr, IRModule, StructInfo};

use crate::llama::ModelIr;
use crate::nn::{encoder_layer_params, tensor_param, KvMode, ModelBuilder, ModelError};

/// Configuration of an encoder–decoder speech model.
#[derive(Debug, Clone, PartialEq)]
pub struct WhisperConfig {
    /// Model name.
    pub name: String,
    /// Model width.
    pub d_model: i64,
    /// Attention heads.
    pub n_heads: i64,
    /// Encoder layers.
    pub enc_layers: usize,
    /// Decoder layers.
    pub dec_layers: usize,
    /// Feed-forward width.
    pub ffn: i64,
    /// Encoder sequence length (30 s of audio = 1500 frames).
    pub audio_ctx: i64,
    /// Vocabulary size.
    pub vocab: i64,
    /// Maximum decoded tokens.
    pub max_tokens: i64,
    /// Data type.
    pub dtype: DataType,
}

impl WhisperConfig {
    /// Whisper-large-v3.
    pub fn large_v3() -> Self {
        WhisperConfig {
            name: "Whisper-large-v3".into(),
            d_model: 1280,
            n_heads: 20,
            enc_layers: 32,
            dec_layers: 32,
            ffn: 5120,
            audio_ctx: 1500,
            vocab: 51_866,
            max_tokens: 448,
            dtype: DataType::F16,
        }
    }

    /// A tiny configuration for numeric tests.
    pub fn tiny() -> Self {
        WhisperConfig {
            name: "Whisper-tiny-test".into(),
            d_model: 16,
            n_heads: 2,
            enc_layers: 2,
            dec_layers: 2,
            ffn: 32,
            audio_ctx: 8,
            vocab: 32,
            max_tokens: 16,
            dtype: DataType::F32,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> i64 {
        self.d_model / self.n_heads
    }

    /// Total parameter count.
    pub fn param_count(&self) -> f64 {
        let attn = 4 * self.d_model * self.d_model;
        let mlp = 2 * self.d_model * self.ffn;
        let enc = (attn + mlp + 2 * self.d_model) * self.enc_layers as i64;
        // Decoder layers have self- and cross-attention.
        let dec = (2 * attn + mlp + 3 * self.d_model) * self.dec_layers as i64;
        let embed = self.vocab * self.d_model;
        (enc + dec + embed) as f64
    }

    /// Parameter bytes.
    pub fn weight_bytes(&self) -> f64 {
        self.param_count() * self.dtype.size_bytes() as f64
    }

    /// Encoder FLOPs for one 30-second window.
    pub fn encoder_flops(&self) -> f64 {
        let s = self.audio_ctx as f64;
        let d = self.d_model as f64;
        let layer =
            2.0 * s * (4.0 * d * d) + 2.0 * s * (2.0 * d * self.ffn as f64) + 4.0 * s * s * d;
        layer * self.enc_layers as f64
    }

    /// Decoder FLOPs per generated token.
    pub fn decoder_flops_per_token(&self) -> f64 {
        let d = self.d_model as f64;
        let layer = 2.0 * (8.0 * d * d) + 2.0 * (2.0 * d * self.ffn as f64);
        layer * self.dec_layers as f64 + 2.0 * d * self.vocab as f64
    }
}

/// Builds the audio encoder: `(b, s_audio, d_model)` features to hidden
/// states of the same shape (the sequence length is symbolic, so shorter
/// audio windows reuse the same compilation).
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_encoder(config: &WhisperConfig) -> Result<ModelIr, ModelError> {
    let b = SymVar::new("batch");
    let s = SymVar::new("s_audio");
    let d = config.d_model;

    let mut params: Vec<(String, StructInfo)> = vec![(
        "features".to_string(),
        StructInfo::tensor(
            vec![b.clone().into(), s.clone().into(), d.into()],
            config.dtype,
        ),
    )];
    for l in 0..config.enc_layers {
        params.extend(encoder_layer_params(
            &format!("e{l}"),
            d,
            config.ffn,
            config.dtype,
        ));
    }

    let mut mb = ModelBuilder::begin(IRModule::new(), "encode", params.clone());
    let mut x = mb.param("features")?;
    let be: PrimExpr = b.clone().into();
    let se: PrimExpr = s.clone().into();
    for l in 0..config.enc_layers {
        let p = format!("e{l}");
        // Bidirectional self-attention (not causal).
        x = mb.self_attention(x, &p, &be, &se, config.n_heads, config.head_dim(), None)?;
        x = mb.gelu_mlp(x, &p)?;
    }
    let out = mb.output(x.into())?;
    let module = mb.finish(out.into())?;
    Ok(ModelIr {
        module,
        func: "encode".into(),
        params,
        batch: b,
        seq: s,
    })
}

/// Builds the decoder step over a **paged** self-attention KV cache: next
/// token + cache handle + precomputed cross-attention keys/values. Per
/// layer, causal self-attention whose K/V live in streams `2l`/`2l+1` of
/// the one cache handle, appended in place via
/// `vm.builtin.kv_cache.append_paged`; cross-attention over the encoder
/// keys/values; and the GELU MLP; then the tied-embedding LM head.
/// Returns `(logits, cache handle)`.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_decoder_step_paged(config: &WhisperConfig) -> Result<ModelIr, ModelError> {
    let b = SymVar::new("batch");
    let s_audio = SymVar::new("s_audio");
    let d = config.d_model;
    let nh = config.n_heads;
    let hd = config.head_dim();
    let dt = config.dtype;
    let scale = 1.0 / (hd as f64).sqrt();
    let be: PrimExpr = b.clone().into();
    let one: PrimExpr = 1.into();

    let mut params: Vec<(String, StructInfo)> = vec![
        (
            "tokens".to_string(),
            StructInfo::tensor(vec![be.clone(), one.clone()], DataType::I64),
        ),
        ("kv_cache".to_string(), StructInfo::Object),
    ];
    let per_head = StructInfo::tensor(
        vec![be.clone(), nh.into(), s_audio.clone().into(), hd.into()],
        dt,
    );
    for l in 0..config.dec_layers {
        // Cross-attention keys/values are precomputed once per utterance
        // by `build_cross_kv` (as real Whisper deployments do).
        params.push((format!("d{l}.cross_k"), per_head.clone()));
        params.push((format!("d{l}.cross_v"), per_head.clone()));
    }
    params.push(tensor_param("embed".to_string(), &[config.vocab, d], dt));
    for l in 0..config.dec_layers {
        params.push(tensor_param(format!("d{l}.norm1"), &[d], dt));
        for w in ["wq", "wk", "wv", "wo", "cq", "co"] {
            params.push(tensor_param(format!("d{l}.{w}"), &[d, d], dt));
        }
        params.push(tensor_param(format!("d{l}.norm_x"), &[d], dt));
        params.push(tensor_param(format!("d{l}.norm2"), &[d], dt));
        params.push(tensor_param(format!("d{l}.w_up"), &[d, config.ffn], dt));
        params.push(tensor_param(format!("d{l}.w_down"), &[config.ffn, d], dt));
    }
    params.push(tensor_param("final_norm".to_string(), &[d], dt));

    let mut mb = ModelBuilder::begin(IRModule::new(), "decode_paged", params.clone());
    let tokens = mb.param("tokens")?;
    let embed = mb.param("embed")?;
    let mut x = mb.take(embed.clone(), tokens)?;
    let mut kv = mb.kv_begin(KvMode::Paged)?;

    for l in 0..config.dec_layers {
        let p = format!("d{l}");
        // Causal self-attention with cache.
        x = mb.self_attention(x, &p, &be, &one, nh, hd, Some((&mut kv, l)))?;

        // Cross-attention over the precomputed encoder keys/values.
        let norm_x = mb.param(&format!("{p}.norm_x"))?;
        let hx = mb.rms_norm(x.clone(), norm_x)?;
        let cq = mb.matmul(hx, mb.param(&format!("{p}.cq"))?)?;
        let cq = mb.split_heads(cq, &be, &one, nh, hd)?;
        let ck = mb.param(&format!("{p}.cross_k"))?;
        let cv = mb.param(&format!("{p}.cross_v"))?;
        let catt = mb.attention(cq, ck, cv, scale, false)?;
        let catt = mb.merge_heads(catt, &be, &one, d)?;
        let co = mb.matmul(catt, mb.param(&format!("{p}.co"))?)?;
        x = mb.add(x, co)?;

        x = mb.gelu_mlp(x, &p)?;
    }
    let final_norm = mb.param("final_norm")?;
    let xn = mb.rms_norm(x, final_norm)?;
    // Tied embedding: logits = x @ embed^T.
    let embed_t = mb.permute(embed, &[1, 0])?;
    let logits = mb.matmul(xn, embed_t)?;
    let mut ret: Vec<Expr> = vec![mb.output(logits.into())?.into()];
    ret.extend(mb.kv_finish(kv)?);
    let module = mb.finish(Expr::Tuple(ret))?;
    Ok(ModelIr {
        module,
        func: "decode_paged".into(),
        params,
        batch: b,
        seq: s_audio,
    })
}

/// Builds the once-per-utterance cross-attention projection: encoder
/// states to the per-layer cross keys and values consumed by
/// [`build_decoder_step_paged`].
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_cross_kv(config: &WhisperConfig) -> Result<ModelIr, ModelError> {
    let b = SymVar::new("batch");
    let s_audio = SymVar::new("s_audio");
    let d = config.d_model;
    let dt = config.dtype;

    let mut params: Vec<(String, StructInfo)> = vec![(
        "enc_states".to_string(),
        StructInfo::tensor(vec![b.clone().into(), s_audio.clone().into(), d.into()], dt),
    )];
    for l in 0..config.dec_layers {
        params.push(tensor_param(format!("d{l}.ck"), &[d, d], dt));
        params.push(tensor_param(format!("d{l}.cv"), &[d, d], dt));
    }

    let mut mb = ModelBuilder::begin(IRModule::new(), "cross_kv", params.clone());
    let enc = mb.param("enc_states")?;
    let be: PrimExpr = b.clone().into();
    let sa: PrimExpr = s_audio.clone().into();
    let mut outs = Vec::new();
    for l in 0..config.dec_layers {
        let ck = mb.matmul(enc.clone(), mb.param(&format!("d{l}.ck"))?)?;
        let cv = mb.matmul(enc.clone(), mb.param(&format!("d{l}.cv"))?)?;
        let ck = mb.split_heads(ck, &be, &sa, config.n_heads, config.head_dim())?;
        let cv = mb.split_heads(cv, &be, &sa, config.n_heads, config.head_dim())?;
        outs.push(mb.output(ck.into())?);
        outs.push(mb.output(cv.into())?);
    }
    let module = mb.finish(Expr::Tuple(outs.into_iter().map(Expr::Var).collect()))?;
    Ok(ModelIr {
        module,
        func: "cross_kv".into(),
        params,
        batch: b,
        seq: s_audio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_encoder_and_decoder_are_well_formed() {
        let c = WhisperConfig::tiny();
        let enc = build_encoder(&c).unwrap();
        assert!(relax_core::assert_well_formed(&enc.module).is_ok());
        let paged = build_decoder_step_paged(&c).unwrap();
        assert!(relax_core::assert_well_formed(&paged.module).is_ok());
        let n_appends = paged
            .module
            .function("decode_paged")
            .unwrap()
            .bindings()
            .filter(|b| {
                matches!(&b.value, Expr::CallDps { func, .. }
                    if func == "vm.builtin.kv_cache.append_paged")
            })
            .count();
        assert_eq!(n_appends, 2 * c.dec_layers);
        let cross = build_cross_kv(&c).unwrap();
        assert!(relax_core::assert_well_formed(&cross.module).is_ok());
    }

    #[test]
    fn large_v3_parameters_in_expected_range() {
        let c = WhisperConfig::large_v3();
        // Whisper-large-v3 has ~1.55B parameters.
        let p = c.param_count();
        assert!((1.2e9..1.9e9).contains(&p), "got {p}");
        assert!(c.encoder_flops() > c.decoder_flops_per_token());
    }
}
