//! Figure 19: time to transcribe a 30-second speech clip with
//! Whisper-large-v3 on NVIDIA RTX 4090 and Apple M2 Ultra, comparing
//! HuggingFace Transformers, WhisperX, Faster-Whisper, whisper.cpp and
//! Relax. (WhisperX and Faster-Whisper have no Apple GPU support.)

use relax_bench::sim_args;
use relax_models::whisper::{
    build_cross_kv, build_decoder_step_paged, build_encoder, WhisperConfig,
};
use relax_passes::{compile, CompileOptions};
use relax_sim::{simulate, DeviceSpec, SimValue};

/// Tokens decoded for a 30-second utterance (a typical dense transcript).
const DECODED_TOKENS: i64 = 224;

/// Relax end-to-end transcription: one encoder pass plus `DECODED_TOKENS`
/// decode steps over a paged self-attention cache growing step by step.
fn relax_transcribe_s(cfg: &WhisperConfig, device: &DeviceSpec) -> f64 {
    let enc = build_encoder(cfg).expect("build encoder");
    let enc_exec = compile(enc.module.clone(), &CompileOptions::default()).expect("compile");
    let audio = [("batch", 1), ("s_audio", cfg.audio_ctx)];
    let enc_args = sim_args(&enc.params, &audio, None);
    let enc_report =
        simulate(&enc_exec, &enc.func, &enc_args, device, true).expect("simulate encoder");

    // Cross-attention keys/values are projected once per utterance.
    let cross = build_cross_kv(cfg).expect("build cross_kv");
    let cross_exec = compile(cross.module.clone(), &CompileOptions::default()).expect("compile");
    let cross_args = sim_args(&cross.params, &audio, None);
    let cross_report =
        simulate(&cross_exec, &cross.func, &cross_args, device, true).expect("simulate cross_kv");

    let dec = build_decoder_step_paged(cfg).expect("build decoder");
    let dec_exec = compile(dec.module.clone(), &CompileOptions::default()).expect("compile");
    let mut total = enc_report.total_s + cross_report.total_s;
    // Sample the decode cost at a few cache lengths and integrate (the
    // cost is affine in the cache length).
    let samples = [1i64, DECODED_TOKENS / 2, DECODED_TOKENS];
    let mut times = Vec::new();
    for &kv in &samples {
        let cache = SimValue::KvCache {
            streams: vec![kv; 2 * cfg.dec_layers],
            batch: 1,
            heads: cfg.n_heads,
            head_dim: cfg.head_dim(),
            dtype: cfg.dtype,
        };
        let args = sim_args(&dec.params, &audio, Some(&cache));
        let r = simulate(&dec_exec, &dec.func, &args, device, true).expect("simulate decoder");
        times.push(r.total_s);
    }
    // Trapezoidal integral over the token index.
    let avg = (times[0] + 2.0 * times[1] + times[2]) / 4.0;
    total += avg * DECODED_TOKENS as f64;
    total
}

/// Analytical baseline models for the ASR systems.
fn baseline_transcribe_s(system: &str, cfg: &WhisperConfig, device: &DeviceSpec) -> Option<f64> {
    let bw = device.mem_efficiency * device.mem_bandwidth;
    let lib_eff = device.lib_efficiency.unwrap_or(device.gen_efficiency);
    let enc_compute = cfg.encoder_flops() / (lib_eff * device.peak_flops);
    let dec_weight_t = cfg.weight_bytes() / bw;
    let per_tok = |kernels: f64, host_per_kernel: f64, eff: f64| {
        let compute = cfg.decoder_flops_per_token() / (eff * device.peak_flops);
        dec_weight_t.max(compute) + kernels * host_per_kernel
    };
    let toks = DECODED_TOKENS as f64;
    let kernels_eager = (cfg.dec_layers * 30) as f64;
    let kernels_fused = (cfg.dec_layers * 12) as f64;
    match (system, device.backend) {
        // HF Transformers: eager per-op execution.
        ("HF Transformers", _) => {
            Some(enc_compute * 1.3 + toks * per_tok(kernels_eager, 10e-6, lib_eff))
        }
        // WhisperX: batched/efficient inference, CUDA-only.
        ("WhisperX", "CUDA" | "ROCm") => {
            Some(enc_compute * 1.05 + toks * per_tok(kernels_fused, 2e-6, lib_eff))
        }
        // Faster-Whisper (CTranslate2), CUDA-only.
        ("Faster-Whisper", "CUDA" | "ROCm") => {
            Some(enc_compute * 1.1 + toks * per_tok(kernels_fused, 3e-6, lib_eff))
        }
        // whisper.cpp: hand kernels, strong on Metal.
        ("whisper.cpp", "Metal") => {
            let eff = (device.gen_efficiency * 1.4).min(0.8);
            Some(enc_compute * lib_eff / eff + toks * per_tok(kernels_fused * 1.3, 2e-6, eff))
        }
        ("whisper.cpp", "CUDA" | "ROCm") => {
            let eff = device.gen_efficiency * 0.95;
            Some(enc_compute * lib_eff / eff + toks * per_tok(kernels_fused * 1.3, 2e-6, eff))
        }
        _ => None,
    }
}

fn main() {
    let cfg = WhisperConfig::large_v3();
    println!("# Figure 19: Whisper-large-v3, 30-second transcription time (s)");
    println!("# paper: Relax 14% faster than baselines on RTX 4090, competitive on M2 Ultra\n");
    for device in [DeviceSpec::rtx4090(), DeviceSpec::apple_m2_ultra()] {
        println!("## {device}\n");
        println!("| system          | seconds |");
        println!("| --------------- | ------- |");
        for system in [
            "HF Transformers",
            "WhisperX",
            "Faster-Whisper",
            "whisper.cpp",
        ] {
            match baseline_transcribe_s(system, &cfg, &device) {
                Some(t) => println!("| {system:<15} | {t:7.2} |"),
                None => println!("| {system:<15} | {:>7} |", "n/a"),
            }
        }
        let relax = relax_transcribe_s(&cfg, &device);
        println!("| {:<15} | {relax:7.2} |", "Relax");
        println!();
    }
}
