//! LLaVA-style multimodal pipeline: a ViT vision encoder plus projector
//! feeding a Llama-family language model (Figure 20).

use relax_arith::{DataType, PrimExpr, Var as SymVar};
use relax_core::{IRModule, StructInfo};

use crate::llama::{LlamaConfig, ModelIr};
use crate::nn::{encoder_layer_params, tensor_param, ModelBuilder, ModelError};

/// Configuration of the LLaVA vision tower + projector.
#[derive(Debug, Clone, PartialEq)]
pub struct LlavaConfig {
    /// Name.
    pub name: String,
    /// Vision transformer width.
    pub vision_dim: i64,
    /// Vision transformer layers.
    pub vision_layers: usize,
    /// Vision attention heads.
    pub vision_heads: i64,
    /// Vision MLP width.
    pub vision_ffn: i64,
    /// Image patch tokens (CLIP ViT-L/14 at 336 px: 24×24 + CLS = 577).
    pub patches: i64,
    /// The language model.
    pub llm: LlamaConfig,
    /// Data type.
    pub dtype: DataType,
}

impl LlavaConfig {
    /// LLaVA-1.5 7B: CLIP ViT-L/14-336 + Vicuna-7B.
    pub fn llava_7b() -> Self {
        LlavaConfig {
            name: "LLaVA-1.5-7B".into(),
            vision_dim: 1024,
            vision_layers: 24,
            vision_heads: 16,
            vision_ffn: 4096,
            patches: 577,
            llm: LlamaConfig::llama2_7b(),
            dtype: DataType::F16,
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> Self {
        LlavaConfig {
            name: "LLaVA-tiny-test".into(),
            vision_dim: 16,
            vision_layers: 2,
            vision_heads: 2,
            vision_ffn: 32,
            patches: 5,
            llm: LlamaConfig::tiny(),
            dtype: DataType::F32,
        }
    }

    /// FLOPs to encode one image.
    pub fn vision_flops(&self) -> f64 {
        let s = self.patches as f64;
        let d = self.vision_dim as f64;
        let layer =
            2.0 * s * 4.0 * d * d + 2.0 * s * 2.0 * d * self.vision_ffn as f64 + 4.0 * s * s * d;
        layer * self.vision_layers as f64 + 2.0 * s * d * self.llm.hidden as f64
    }
}

/// Builds the vision encoder + projector: patch embeddings
/// `(b, patches, vision_dim)` to LLM-space embeddings
/// `(b, patches, llm_hidden)`.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_vision_encoder(config: &LlavaConfig) -> Result<ModelIr, ModelError> {
    let b = SymVar::new("batch");
    let d = config.vision_dim;
    let nh = config.vision_heads;
    let dt = config.dtype;

    let mut params: Vec<(String, StructInfo)> = vec![(
        "patches".to_string(),
        StructInfo::tensor(vec![b.clone().into(), config.patches.into(), d.into()], dt),
    )];
    for l in 0..config.vision_layers {
        params.extend(encoder_layer_params(
            &format!("v{l}"),
            d,
            config.vision_ffn,
            dt,
        ));
    }
    params.push(tensor_param(
        "projector".to_string(),
        &[d, config.llm.hidden],
        dt,
    ));

    let mut mb = ModelBuilder::begin(IRModule::new(), "encode_image", params.clone());
    let mut x = mb.param("patches")?;
    let be: PrimExpr = b.clone().into();
    let pe: PrimExpr = config.patches.into();
    for l in 0..config.vision_layers {
        let p = format!("v{l}");
        x = mb.self_attention(x, &p, &be, &pe, nh, d / nh, None)?;
        x = mb.gelu_mlp(x, &p)?;
    }
    let proj = mb.param("projector")?;
    let embedded = mb.matmul(x, proj)?;
    let out = mb.output(embedded.into())?;
    let module = mb.finish(out.into())?;
    Ok(ModelIr {
        module,
        func: "encode_image".into(),
        params,
        batch: b,
        seq: SymVar::new("patches_const"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_vision_encoder_is_well_formed() {
        let ir = build_vision_encoder(&LlavaConfig::tiny()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
        let f = ir.module.function("encode_image").unwrap();
        // Projector output is in LLM hidden space.
        let dims = f.ret_sinfo.tensor_dims().unwrap();
        assert_eq!(dims[2].as_int(), Some(LlavaConfig::tiny().llm.hidden));
    }

    #[test]
    fn llava_7b_magnitudes() {
        let c = LlavaConfig::llava_7b();
        assert!(c.vision_flops() > 0.0);
    }
}
