//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! The "Relax" numbers are produced by compiling the actual models through
//! the full pipeline and dry-running the resulting executable on the
//! device cost model; baseline numbers come from the analytical strategy
//! models in [`relax_sim::baseline`].

#![forbid(unsafe_code)]

use std::collections::HashMap;

use relax_core::{ShapeDesc, StructInfo};
use relax_models::llama::{build_decode, build_prefill, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_sim::{simulate, DeviceSpec, Profile, SimError, SimValue};
use relax_vm::Executable;

/// A model compiled once and reusable across batch sizes and sequence
/// lengths ("Relax compiles models only once for arbitrary batch sizes and
/// sequence lengths", §5.1).
pub struct CompiledModel {
    /// The lowered executable.
    pub exec: Executable,
    /// The model IR description (parameter specs and symbolic variables).
    pub ir: ModelIr,
}

/// Compiles the decode function of an LLM configuration.
///
/// # Errors
///
/// Propagates model-construction and pipeline failures.
pub fn compile_decode(
    config: &LlamaConfig,
    opts: &CompileOptions,
) -> Result<CompiledModel, Box<dyn std::error::Error>> {
    let ir = build_decode(config)?;
    let exec = compile(ir.module.clone(), opts)?;
    Ok(CompiledModel { exec, ir })
}

/// Compiles the prefill function of an LLM configuration.
///
/// # Errors
///
/// Propagates model-construction and pipeline failures.
pub fn compile_prefill(
    config: &LlamaConfig,
    opts: &CompileOptions,
) -> Result<CompiledModel, Box<dyn std::error::Error>> {
    let ir = build_prefill(config)?;
    let exec = compile(ir.module.clone(), opts)?;
    Ok(CompiledModel { exec, ir })
}

/// Materializes shape-level arguments for a built function, binding its
/// symbolic batch and sequence variables.
pub fn sim_args(ir: &ModelIr, batch: i64, seq: i64) -> Vec<SimValue> {
    let mut env = HashMap::new();
    env.insert(ir.batch.clone(), batch);
    env.insert(ir.seq.clone(), seq);
    ir.params
        .iter()
        .map(|(_, sinfo)| match sinfo {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                dtype,
            } => SimValue::tensor(
                dims.iter()
                    .map(|d| d.eval(&env).expect("model params bind batch/seq only"))
                    .collect(),
                dtype.unwrap_or(relax_core::DataType::F32),
            ),
            other => panic!("unexpected parameter annotation {other}"),
        })
        .collect()
}

/// Steady-state decode latency of a compiled model (seconds per token).
///
/// # Errors
///
/// Propagates dry-run failures.
pub fn relax_decode_s(
    model: &CompiledModel,
    device: &DeviceSpec,
    batch: i64,
    context: i64,
) -> Result<f64, SimError> {
    let args = sim_args(&model.ir, batch, context);
    let report = simulate(&model.exec, &model.ir.func, &args, device, true)?;
    Ok(report.total_s)
}

/// The best Relax configuration per batch size: the cross-level design
/// lets the compiler pick generated matvec kernels at batch 1 and library
/// kernels otherwise (§5.1). Compiles both variants once and selects the
/// faster per call.
pub struct RelaxAdaptive {
    with_lib: CompiledModel,
    without_lib: CompiledModel,
}

impl RelaxAdaptive {
    /// Compiles both library and codegen-only variants.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn new(config: &LlamaConfig) -> Result<Self, Box<dyn std::error::Error>> {
        let with_lib = compile_decode(config, &CompileOptions::default())?;
        let without_lib = compile_decode(
            config,
            &CompileOptions {
                dispatch_library: false,
                ..CompileOptions::default()
            },
        )?;
        Ok(RelaxAdaptive {
            with_lib,
            without_lib,
        })
    }

    /// Best decode latency at the given batch and context.
    ///
    /// # Errors
    ///
    /// Propagates dry-run failures.
    pub fn decode_s(&self, device: &DeviceSpec, batch: i64, context: i64) -> Result<f64, SimError> {
        let a = relax_decode_s(&self.with_lib, device, batch, context)?;
        let b = relax_decode_s(&self.without_lib, device, batch, context)?;
        Ok(a.min(b))
    }
}

/// Builds the analytical [`Profile`] of an LLM configuration for the
/// baseline strategy models.
pub fn profile_of(config: &LlamaConfig) -> Profile {
    Profile {
        name: config.name.clone(),
        weight_bytes: config.weight_bytes(),
        flops_per_token: config.flops_per_token(),
        kv_bytes_per_pos: config.kv_bytes_per_pos(),
        kernels_fused: config.kernels_fused(),
        kernels_eager: config.kernels_eager(),
        max_context: config.max_context as u32,
    }
}

/// Formats a row of `ms` values as a markdown table row.
pub fn fmt_row(label: &str, values: &[Option<f64>]) -> String {
    let cells: Vec<String> = values
        .iter()
        .map(|v| match v {
            Some(ms) => format!("{ms:8.2}"),
            None => format!("{:>8}", "n/a"),
        })
        .collect();
    format!("| {label:<14} | {} |", cells.join(" | "))
}

/// Prints a markdown table header.
pub fn print_header(first: &str, cols: &[&str]) {
    let cells: Vec<String> = cols.iter().map(|c| format!("{c:>8}")).collect();
    println!("| {first:<14} | {} |", cells.join(" | "));
    let dashes: Vec<String> = cols.iter().map(|_| "-".repeat(8)).collect();
    println!("| {} | {} |", "-".repeat(14), dashes.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_compiles_and_simulates_tiny() {
        let cfg = LlamaConfig::tiny();
        let model = compile_decode(&cfg, &CompileOptions::default()).unwrap();
        let d = DeviceSpec::rtx4090();
        let t1 = relax_decode_s(&model, &d, 1, 8).unwrap();
        let t16 = relax_decode_s(&model, &d, 16, 8).unwrap();
        assert!(t1 > 0.0 && t16 > t1 * 0.5);
        // Same compilation serves both shapes — the paper's key claim.
    }

    #[test]
    fn adaptive_relax_is_at_least_as_good_as_either_variant() {
        let cfg = LlamaConfig::tiny();
        let adaptive = RelaxAdaptive::new(&cfg).unwrap();
        let d = DeviceSpec::rtx4090();
        let best = adaptive.decode_s(&d, 4, 16).unwrap();
        let with_lib = relax_decode_s(&adaptive.with_lib, &d, 4, 16).unwrap();
        let without = relax_decode_s(&adaptive.without_lib, &d, 4, 16).unwrap();
        assert!(best <= with_lib && best <= without);
    }
}

pub mod figures;
