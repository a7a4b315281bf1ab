//! Figure 20: LLaVA time to generate 32 tokens for one image on NVIDIA
//! RTX 4090 and Apple M2 Ultra, vs HuggingFace Transformers, vLLM and
//! llama.cpp. The pipeline is: vision encode (577 patch tokens) → LLM
//! prefill over image+prompt tokens → 32 decode steps, the last two both
//! the served paged step.

use relax_bench::{compile_decode, profile_of, relax_decode_s, sim_args};
use relax_models::llava::{build_vision_encoder, LlavaConfig};
use relax_passes::{compile, CompileOptions};
use relax_sim::baseline::{decode_latency_s, Baseline};
use relax_sim::{simulate, DeviceSpec};

const GEN_TOKENS: i64 = 32;
const PROMPT_TOKENS: i64 = 32;

fn relax_generation_s(cfg: &LlavaConfig, device: &DeviceSpec) -> f64 {
    // Vision encoder.
    let vis = build_vision_encoder(cfg).expect("build vision");
    let vis_exec = compile(vis.module.clone(), &CompileOptions::default()).expect("compile");
    let vis_args = sim_args(&vis.params, &[("batch", 1)], None);
    let vis_t = simulate(&vis_exec, &vis.func, &vis_args, device, true)
        .expect("simulate vision")
        .total_s;

    // One served step for the whole generation: the image + prompt tokens
    // are one step on an empty cache, then 32 decode steps with a growing
    // cache.
    let llm = compile_decode(&cfg.llm, &CompileOptions::default()).expect("compile");
    let prefill_len = cfg.patches + PROMPT_TOKENS;
    let pre_args = llm.step_args(1, prefill_len, 0);
    let pre_t = simulate(&llm.exec, &llm.ir.func, &pre_args, device, true)
        .expect("simulate prefill")
        .total_s;
    let mid_ctx = prefill_len + GEN_TOKENS / 2;
    let dec_t = relax_decode_s(&llm, device, 1, mid_ctx).expect("simulate decode");
    vis_t + pre_t + dec_t * GEN_TOKENS as f64
}

fn baseline_generation_s(b: Baseline, cfg: &LlavaConfig, device: &DeviceSpec) -> Option<f64> {
    let profile = profile_of(&cfg.llm);
    let lib_eff = device.lib_efficiency.unwrap_or(device.gen_efficiency);
    // Vision encoder: compute bound; baselines run it through their
    // framework with varying overheads.
    let vis_eff = match b {
        Baseline::HfEager => lib_eff * 0.8,
        Baseline::Vllm => lib_eff,
        Baseline::LlamaCpp => {
            if device.backend == "Metal" {
                (device.gen_efficiency * 1.4).min(0.8)
            } else {
                device.gen_efficiency * 0.95
            }
        }
        Baseline::HfCompile => lib_eff,
    };
    let vis_t = cfg.vision_flops() / (vis_eff * device.peak_flops);
    // Prefill: compute bound pass over prompt+image tokens.
    let prefill_len = (cfg.patches + PROMPT_TOKENS) as f64;
    let prefill_t = prefill_len * profile.flops_per_token / (vis_eff * device.peak_flops);
    let ctx = (cfg.patches + PROMPT_TOKENS + GEN_TOKENS / 2) as u32;
    let dec = decode_latency_s(b, &profile, device, 1, ctx)?;
    Some(vis_t + prefill_t + dec * GEN_TOKENS as f64)
}

fn main() {
    let cfg = LlavaConfig::llava_7b();
    println!("# Figure 20: LLaVA 32-token generation time (s) for one image");
    println!("# paper: Relax competitive on both NVIDIA and Apple platforms\n");
    for device in [DeviceSpec::rtx4090(), DeviceSpec::apple_m2_ultra()] {
        println!("## {device}\n");
        println!("| system          | seconds |");
        println!("| --------------- | ------- |");
        for b in [Baseline::HfEager, Baseline::Vllm, Baseline::LlamaCpp] {
            match baseline_generation_s(b, &cfg, &device) {
                Some(t) => println!("| {:<15} | {t:7.2} |", b.label()),
                None => println!("| {:<15} | {:>7} |", b.label(), "n/a"),
            }
        }
        let relax = relax_generation_s(&cfg, &device);
        println!("| {:<15} | {relax:7.2} |", "Relax");
        println!();
    }
}
