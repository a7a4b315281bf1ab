//! Analytical models of the baseline systems in the paper's evaluation.
//!
//! Each baseline is modelled by the structural properties the paper's §5.1
//! discussion attributes to it:
//!
//! - **HF eager** launches one kernel per operator with Python dispatch
//!   overhead on top;
//! - **HF + torch.compile** fuses, but requires a *static KV cache*, so
//!   attention always pays for the full maximum context;
//! - **vLLM** uses paged attention and tuned kernels but adds a scheduler
//!   step per token, and supports only CUDA/ROCm;
//! - **llama.cpp** uses hand-written kernels that are excellent on Apple
//!   Metal, decent on CUDA, absent on Android GPUs (CPU-only there), and
//!   its decode path is tuned for small batches.
//!
//! The Relax numbers are *not* modelled here — they come from dry-running
//! the actual compiled executable ([`crate::simulate`]).

use crate::device::DeviceSpec;
use crate::profile::Profile;

/// A baseline system from the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// HuggingFace Transformers with PyTorch eager.
    HfEager,
    /// HuggingFace Transformers with `torch.compile` (static KV cache).
    HfCompile,
    /// vLLM.
    Vllm,
    /// llama.cpp.
    LlamaCpp,
}

impl Baseline {
    /// Display name used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Baseline::HfEager => "HF (eager)",
            Baseline::HfCompile => "HF (compile)",
            Baseline::Vllm => "vLLM",
            Baseline::LlamaCpp => "llama.cpp",
        }
    }

    /// Whether the baseline supports the device's backend (the paper's
    /// support matrix: vLLM and torch.compile lack Apple GPU support;
    /// llama.cpp lacks Android GPU kernels).
    pub fn supports(self, device: &DeviceSpec) -> bool {
        match self {
            Baseline::HfEager => matches!(device.backend, "CUDA" | "ROCm" | "Metal"),
            Baseline::HfCompile | Baseline::Vllm => {
                matches!(device.backend, "CUDA" | "ROCm")
            }
            Baseline::LlamaCpp => matches!(device.backend, "CUDA" | "ROCm" | "Metal" | "CPU"),
        }
    }
}

/// Per-token decode latency of a baseline in seconds, or `None` when the
/// platform is unsupported.
pub fn decode_latency_s(
    baseline: Baseline,
    profile: &Profile,
    device: &DeviceSpec,
    batch: u32,
    context: u32,
) -> Option<f64> {
    if !baseline.supports(device) {
        return None;
    }
    let bw = device.mem_efficiency * device.mem_bandwidth;
    let weight_t = profile.weight_bytes / bw;
    let kv = |ctx: u32| profile.kv_bytes_per_pos * batch as f64 * ctx as f64 / bw;
    let compute = |eff: f64| batch as f64 * profile.flops_per_token / (eff * device.peak_flops);
    let lib_eff = device.lib_efficiency.unwrap_or(device.gen_efficiency);

    let t = match baseline {
        Baseline::HfEager => {
            // Per-op kernels + Python dispatch (~8 µs/op host side).
            let launches = profile.kernels_eager as f64 * (device.launch_overhead + 8e-6);
            weight_t.max(compute(lib_eff)) + kv(context) + launches
        }
        Baseline::HfCompile => {
            // Fused kernels, but the static KV cache reads the full
            // maximum context every step.
            let launches = profile.kernels_fused as f64 * device.launch_overhead;
            weight_t.max(compute(lib_eff)) + kv(profile.max_context) + launches
        }
        Baseline::Vllm => {
            // Paged attention + tuned kernels + a scheduling step.
            let launches = profile.kernels_fused as f64 * device.launch_overhead;
            weight_t.max(compute(lib_eff)) + kv(context) + launches + 30e-6
        }
        Baseline::LlamaCpp => {
            // Hand-written kernels: superb on Metal, good on CUDA, and a
            // decode path tuned for batch 1.
            let hand_eff = match device.backend {
                "Metal" => (device.gen_efficiency * 1.45).min(0.80),
                "CPU" => device.gen_efficiency,
                _ => device.gen_efficiency * 0.95,
            };
            let mem_quality = if device.backend == "Metal" { 1.05 } else { 0.9 };
            let batch_penalty = 1.0 + 0.08 * (batch.saturating_sub(1)) as f64;
            let launches = (profile.kernels_fused as f64 * 1.3) * device.launch_overhead;
            (weight_t / mem_quality).max(compute(hand_eff) * batch_penalty)
                + kv(context) / mem_quality
                + launches
        }
    };
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama8b() -> Profile {
        Profile {
            name: "Llama3-8B".into(),
            weight_bytes: 16e9,
            flops_per_token: 16e9,
            kv_bytes_per_pos: 2.0 * 32.0 * 8.0 * 128.0 * 2.0,
            kernels_fused: 200,
            kernels_eager: 900,
            max_context: 8192,
        }
    }

    #[test]
    fn support_matrix_matches_paper() {
        let apple = DeviceSpec::apple_m2_ultra();
        assert!(!Baseline::Vllm.supports(&apple));
        assert!(!Baseline::HfCompile.supports(&apple));
        assert!(Baseline::LlamaCpp.supports(&apple));
        assert!(Baseline::HfEager.supports(&apple));
        let android = DeviceSpec::samsung_s23();
        assert!(!Baseline::LlamaCpp.supports(&android)); // GPU backend
        assert!(Baseline::LlamaCpp.supports(&DeviceSpec::samsung_s24_cpu()));
    }

    #[test]
    fn eager_is_slowest_on_nvidia() {
        let d = DeviceSpec::rtx4090();
        let p = llama8b();
        let eager = decode_latency_s(Baseline::HfEager, &p, &d, 1, 1024).unwrap();
        let compiled = decode_latency_s(Baseline::HfCompile, &p, &d, 1, 1024).unwrap();
        let vllm = decode_latency_s(Baseline::Vllm, &p, &d, 1, 1024).unwrap();
        assert!(eager > compiled.min(vllm));
    }

    #[test]
    fn static_kv_hurts_torch_compile_at_short_context() {
        let d = DeviceSpec::rtx4090();
        let p = llama8b();
        let compiled = decode_latency_s(Baseline::HfCompile, &p, &d, 1, 128).unwrap();
        let vllm = decode_latency_s(Baseline::Vllm, &p, &d, 1, 128).unwrap();
        // torch.compile pays the max-context KV read; vLLM does not.
        assert!(compiled > vllm);
    }

    #[test]
    fn llamacpp_excels_on_metal_but_not_cuda() {
        let p = llama8b();
        let apple = DeviceSpec::apple_m2_ultra();
        let nvidia = DeviceSpec::rtx4090();
        let lc_apple = decode_latency_s(Baseline::LlamaCpp, &p, &apple, 1, 1024).unwrap();
        let hf_apple = decode_latency_s(Baseline::HfEager, &p, &apple, 1, 1024).unwrap();
        assert!(lc_apple < hf_apple);
        // At batch 16 on NVIDIA, llama.cpp's batch penalty shows.
        let lc = decode_latency_s(Baseline::LlamaCpp, &p, &nvidia, 16, 1024).unwrap();
        let vllm = decode_latency_s(Baseline::Vllm, &p, &nvidia, 16, 1024).unwrap();
        assert!(lc > vllm);
    }

    /// Per-token decode latency of an *ideal roofline* execution: the
    /// lower bound any system could reach.
    fn roofline_floor_s(profile: &Profile, device: &DeviceSpec, batch: u32, context: u32) -> f64 {
        let bw = device.mem_efficiency * device.mem_bandwidth;
        let weight_t = profile.weight_bytes / bw;
        let kv_t = profile.kv_bytes_per_pos * batch as f64 * context as f64 / bw;
        let eff = device.lib_efficiency.unwrap_or(device.gen_efficiency);
        let compute_t = batch as f64 * profile.flops_per_token / (eff * device.peak_flops);
        weight_t.max(compute_t) + kv_t
    }

    #[test]
    fn baselines_never_beat_the_roofline_floor() {
        let p = llama8b();
        for d in [DeviceSpec::rtx4090(), DeviceSpec::apple_m2_ultra()] {
            let floor = roofline_floor_s(&p, &d, 1, 1024);
            for b in [
                Baseline::HfEager,
                Baseline::HfCompile,
                Baseline::Vllm,
                Baseline::LlamaCpp,
            ] {
                if let Some(t) = decode_latency_s(b, &p, &d, 1, 1024) {
                    // llama.cpp's Metal mem_quality is modelled slightly
                    // above the generic mem efficiency, so give 10% slack.
                    assert!(t > floor * 0.85, "{:?} on {} broke the floor", b, d.name);
                }
            }
        }
    }

    #[test]
    fn latency_grows_with_batch() {
        let p = llama8b();
        let d = DeviceSpec::rtx4090();
        for b in [Baseline::HfEager, Baseline::Vllm] {
            let t1 = decode_latency_s(b, &p, &d, 1, 512).unwrap();
            let t16 = decode_latency_s(b, &p, &d, 16, 512).unwrap();
            assert!(t16 > t1);
        }
    }
}
