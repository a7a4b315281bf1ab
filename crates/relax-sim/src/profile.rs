//! Analytical model profiles shared by the baseline strategies.

/// The cost structure of one transformer model, used by the analytical
/// baseline simulators (the Relax numbers instead come from dry-running
/// the actual compiled executable).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Model name, e.g. `"Llama3-8B"`.
    pub name: String,
    /// Total parameter bytes after the evaluated quantization.
    pub weight_bytes: f64,
    /// Dense FLOPs per generated token per sequence (≈ 2 × parameters).
    pub flops_per_token: f64,
    /// KV-cache bytes read per token per context position per sequence.
    pub kv_bytes_per_pos: f64,
    /// Kernels per token in a fused compilation.
    pub kernels_fused: u32,
    /// Kernels per token in eager per-operator execution.
    pub kernels_eager: u32,
    /// The model's maximum context length (static-KV baselines pay for all
    /// of it).
    pub max_context: u32,
}
