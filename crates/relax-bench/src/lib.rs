//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! The "Relax" numbers are produced by compiling the actual models through
//! the full pipeline and dry-running the resulting executable on the
//! device cost model; baseline numbers come from the analytical strategy
//! models in [`relax_sim::baseline`].

#![forbid(unsafe_code)]

use relax_core::{ShapeDesc, StructInfo};
use relax_models::llama::{build_decode_paged, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_sim::{simulate, DeviceSpec, Profile, SimValue};
use relax_vm::{Executable, VmError};

/// A model compiled once and reusable across batch sizes and sequence
/// lengths ("Relax compiles models only once for arbitrary batch sizes and
/// sequence lengths", §5.1).
pub struct CompiledModel {
    /// The lowered executable.
    pub exec: Executable,
    /// The model IR description (parameter specs and symbolic variables).
    pub ir: ModelIr,
    /// The configuration it was built from (the KV cache's geometry).
    pub config: LlamaConfig,
}

impl CompiledModel {
    /// Dry-run arguments of one step: `seq` tokens for each of `batch`
    /// sequences over a cache whose streams hold `context` tokens. A
    /// prompt is a `seq = n` step on an empty cache (`context = 0`), a
    /// decoded token a `seq = 1` step.
    pub fn step_args(&self, batch: i64, seq: i64, context: i64) -> Vec<SimValue> {
        let cache = kv_cache(&self.config, batch, context);
        sim_args(
            &self.ir.params,
            &[("batch", batch), ("seq", seq)],
            Some(&cache),
        )
    }
}

/// Compiles the served step of an LLM configuration: `decode_paged`, whose
/// prompt and decoded tokens are the same `(batch, seq)` call over one
/// paged KV cache.
///
/// # Errors
///
/// Propagates model-construction and pipeline failures.
pub fn compile_decode(
    config: &LlamaConfig,
    opts: &CompileOptions,
) -> Result<CompiledModel, Box<dyn std::error::Error>> {
    let ir = build_decode_paged(config)?;
    let exec = compile(ir.module.clone(), opts)?;
    Ok(CompiledModel {
        exec,
        ir,
        config: config.clone(),
    })
}

/// [`compile_decode`] under the default options with a static memory plan
/// for at most `batch` sequences of `seq` tokens each (§4.3's upper-bound
/// planning).
///
/// # Errors
///
/// Propagates model-construction and pipeline failures.
pub fn compile_decode_bounded(
    config: &LlamaConfig,
    batch: i64,
    seq: i64,
) -> Result<CompiledModel, Box<dyn std::error::Error>> {
    let ir = build_decode_paged(config)?;
    let opts = CompileOptions::default()
        .with_bound(ir.batch.clone(), batch)
        .with_bound(ir.seq.clone(), seq);
    let exec = compile(ir.module.clone(), &opts)?;
    Ok(CompiledModel {
        exec,
        ir,
        config: config.clone(),
    })
}

/// The shape-level paged KV cache of `batch` sequences, each holding
/// `context` tokens on every stream (streams `2l`/`2l + 1` hold layer
/// `l`'s keys and values). `batch` is the summed batch, as
/// `KvCache::config()` reports it for a stack of per-sequence caches.
pub fn kv_cache(config: &LlamaConfig, batch: i64, context: i64) -> SimValue {
    SimValue::KvCache {
        streams: vec![context; 2 * config.n_layers],
        batch,
        heads: config.n_kv_heads,
        head_dim: config.head_dim,
        dtype: config.dtype,
    }
}

/// Materializes shape-level arguments for a built function's `params`:
/// every symbolic dimension takes its value from `dims` by variable name,
/// and an `Object` parameter (a KV cache handle) takes `cache`.
///
/// # Panics
///
/// On a symbolic dimension `dims` does not bind, an `Object` parameter
/// without a `cache`, or any other parameter annotation.
pub fn sim_args(
    params: &[(String, StructInfo)],
    dims: &[(&str, i64)],
    cache: Option<&SimValue>,
) -> Vec<SimValue> {
    let dim = |param: &str, d: &relax_arith::PrimExpr| -> i64 {
        d.as_int().unwrap_or_else(|| {
            let var = d.as_var().map(|v| v.name());
            let bound = dims.iter().find(|(name, _)| Some(*name) == var);
            bound
                .unwrap_or_else(|| panic!("{param}: dimension {d} is unbound"))
                .1
        })
    };
    params
        .iter()
        .map(|(name, sinfo)| match sinfo {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(shape),
                dtype,
            } => SimValue::tensor(
                shape.iter().map(|d| dim(name, d)).collect(),
                dtype.unwrap_or(relax_core::DataType::F32),
            ),
            StructInfo::Object => cache
                .unwrap_or_else(|| panic!("{name}: no KV cache given"))
                .clone(),
            other => panic!("{name}: unexpected parameter annotation {other}"),
        })
        .collect()
}

/// Steady-state decode latency of a compiled model (seconds per token):
/// one `seq = 1` step of `batch` sequences over `context` cached tokens.
///
/// # Errors
///
/// Propagates dry-run failures.
pub fn relax_decode_s(
    model: &CompiledModel,
    device: &DeviceSpec,
    batch: i64,
    context: i64,
) -> Result<f64, VmError> {
    let args = model.step_args(batch, 1, context);
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
    pub fn decode_s(&self, device: &DeviceSpec, batch: i64, context: i64) -> Result<f64, VmError> {
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

    /// The cache holds the figure's batch: a batch-1 cache beside
    /// `(16, 1)` tokens would charge one sequence's KV reads and make
    /// b = 16 cheaper than b = 1.
    #[test]
    fn harness_compiles_and_simulates_tiny() {
        let cfg = LlamaConfig::tiny();
        let model = compile_decode(&cfg, &CompileOptions::default()).unwrap();
        let d = DeviceSpec::rtx4090();
        let t1 = relax_decode_s(&model, &d, 1, 8).unwrap();
        let t16 = relax_decode_s(&model, &d, 16, 8).unwrap();
        assert!(t1 > 0.0 && t16 >= t1, "b=1 {t1} s, b=16 {t16} s");
        // Reading 32 more cached tokens costs only the paged attention's
        // KV reads (8 -> 9 and 40 -> 41 tokens stay inside their pages, so
        // the appends charge alike), and those scale with the batch.
        let bytes = |batch: i64, context: i64| -> f64 {
            let args = model.step_args(batch, 1, context);
            simulate(&model.exec, &model.ir.func, &args, &d, true)
                .unwrap()
                .bytes
        };
        let attention = |batch: i64| bytes(batch, 40) - bytes(batch, 8);
        assert!(attention(1) > 0.0);
        assert_eq!(attention(16), 16.0 * attention(1));
    }

    #[test]
    #[should_panic(expected = "tokens: dimension seq is unbound")]
    fn sim_args_panics_on_an_unbound_dimension() {
        let ir = build_decode_paged(&LlamaConfig::tiny()).unwrap();
        let cache = kv_cache(&LlamaConfig::tiny(), 1, 0);
        sim_args(&ir.params, &[("batch", 1)], Some(&cache));
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
