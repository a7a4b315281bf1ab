//! Printer/parser round-trip golden tests over the model frontends.
//!
//! For each model the printed IR must (a) match the committed golden
//! file under `tests/golden/` byte-for-byte and (b) re-parse through the
//! textual parser into a module that prints identically — the printed
//! form is a fixed point of print → parse → print.
//!
//! To regenerate the goldens after an intentional printer or builder
//! change: `RELAX_BLESS=1 cargo test --test golden_roundtrip`.

use std::path::PathBuf;

use relax::core::{parse_functions, IRModule};
use relax::models::llama::{
    build_decode, build_decode_paged, build_decode_paged_multi, build_prefill, LlamaConfig,
};
use relax::models::llava::{build_vision_encoder, LlavaConfig};
use relax::models::moe::{build_dense_ffn, build_dispatch, build_ffn_with_assignments};
use relax::models::whisper::{
    build_cross_kv, build_decoder_step_paged, build_encoder, WhisperConfig,
};
use relax::models::MoeConfig;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.relax"))
}

/// Golden comparison (RELAX_BLESS=1 regenerates); returns the printed
/// text.
fn check_golden(name: &str, module: &IRModule) -> String {
    let text = module.to_string();
    let path = golden_path(name);
    if std::env::var("RELAX_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("bless {name}: {e}"));
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name}: missing golden file {path:?} ({e}); regenerate with RELAX_BLESS=1")
    });
    assert_eq!(
        text, golden,
        "{name}: printed IR diverged from {path:?}; if intentional, \
         regenerate with RELAX_BLESS=1"
    );
    text
}

fn check_roundtrip(name: &str, module: &IRModule) {
    let text = check_golden(name, module);

    // Structural round trip: parse the printed text and require the
    // reparse to print identically (print∘parse is a fixed point).
    let mut reparsed = IRModule::new();
    parse_functions(&text, &mut reparsed)
        .unwrap_or_else(|e| panic!("{name}: printed IR failed to re-parse: {e}"));
    assert_eq!(
        reparsed.functions().count(),
        module.functions().count(),
        "{name}: function count changed across the round trip"
    );
    assert_eq!(
        reparsed.to_string(),
        text,
        "{name}: print→parse→print is not a fixed point"
    );
    relax::core::assert_well_formed(&reparsed)
        .unwrap_or_else(|e| panic!("{name}: reparsed module ill-formed: {e}"));
}

#[test]
fn llama_decode_roundtrips() {
    let ir = build_decode(&LlamaConfig::tiny()).unwrap();
    check_roundtrip("llama_tiny_decode", &ir.module);
}

#[test]
fn llava_vision_encoder_roundtrips() {
    let ir = build_vision_encoder(&LlavaConfig::tiny()).unwrap();
    check_roundtrip("llava_tiny_vision_encoder", &ir.module);
}

/// The MoE router + ragged per-expert FFN dispatch: every
/// data-dependent `match_cast` binding in the printed form must survive
/// the textual round trip.
#[test]
fn moe_dispatch_roundtrips() {
    let ir = build_dispatch(&MoeConfig::tiny()).unwrap();
    check_roundtrip("moe_tiny_dispatch", &ir.module);
}

/// The speculative-decoding pair in one module: a 1-layer draft's paged
/// decode next to the verify model's variable-length multi-token decode
/// (symbolic `seq` flowing into the `(batch, seq, vocab)` logits).
#[test]
fn spec_decode_draft_verify_roundtrips() {
    let cfg = LlamaConfig::tiny();
    let draft_cfg = LlamaConfig {
        n_layers: 1,
        ..cfg.clone()
    };
    let draft = build_decode_paged(&draft_cfg).unwrap();
    let mut module = build_decode_paged_multi(&cfg).unwrap().module;
    for (name, func) in draft.module.functions() {
        module.add_function(name.clone(), func.clone());
    }
    check_roundtrip("spec_decode_draft_verify", &module);
}

/// The copy-cache prefill, and the 4-bit-quantized decode — golden
/// only: its `decode_q4` tensor programs print alongside the graph
/// function and the textual parser reads graph functions only.
#[test]
fn llama_prefill_and_q4_decode_roundtrip() {
    let ir = build_prefill(&LlamaConfig::tiny()).unwrap();
    check_roundtrip("llama_tiny_prefill", &ir.module);
    let ir = build_decode(&LlamaConfig::tiny().quantized()).unwrap();
    check_golden("llama_tiny_q4_decode", &ir.module);
}

#[test]
fn whisper_paged_step_encoder_and_cross_kv_roundtrip() {
    let cfg = WhisperConfig::tiny();
    let ir = build_decoder_step_paged(&cfg).unwrap();
    check_roundtrip("whisper_tiny_decoder_step_paged", &ir.module);
    let ir = build_encoder(&cfg).unwrap();
    check_roundtrip("whisper_tiny_encoder", &ir.module);
    let ir = build_cross_kv(&cfg).unwrap();
    check_roundtrip("whisper_tiny_cross_kv", &ir.module);
}

#[test]
fn moe_ffn_variants_roundtrip() {
    let cfg = MoeConfig::tiny();
    let ir = build_ffn_with_assignments(&cfg).unwrap();
    check_roundtrip("moe_tiny_ffn_with_assignments", &ir.module);
    let ir = build_dense_ffn(&cfg).unwrap();
    check_roundtrip("moe_tiny_dense_ffn", &ir.module);
}
