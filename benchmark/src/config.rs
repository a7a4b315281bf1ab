//! The fixed configuration every run uses, echoed into every `--out` row:
//! model dimensions, compile options, serving knobs, and weights that do
//! not depend on `--seed` (so two seeds differ only in their inputs).

use std::sync::Arc;
use std::time::Duration;

use relax_arith::DataType;
use relax_core::{IRModule, StructInfo};
use relax_models::llama::{self, LlamaConfig};
use relax_models::moe::{self, MoeConfig};
use relax_passes::{compile, CompileOptions};
use relax_serve::{SessionConfig, SessionModelSpec, SpeculativeSpec};
use relax_tir::{round_to_dtype, NDArray};
use relax_vm::{Executable, KvCacheConfig, Value};

use crate::workload::{fnv64, Rng, Workload};

/// Entries the VM plan cache keeps (`SessionManager` hard-codes the same).
pub const PLAN_CACHE_CAPACITY: usize = 64;
/// Rows of the fixed token table `moe_ragged` gathers its steps from.
pub const MOE_TABLE_ROWS: usize = 256;

pub fn bench_llama() -> LlamaConfig {
    LlamaConfig {
        name: "BenchLlama".into(),
        hidden: 64,
        intermediate: 128,
        n_layers: 4,
        n_heads: 2,
        n_kv_heads: 1,
        head_dim: 32,
        vocab: 64,
        max_context: 512,
        dtype: DataType::F32,
        quant4: false,
    }
}

pub fn bench_moe() -> MoeConfig {
    MoeConfig { d_model: 64, d_ff: 128, experts: 8, dtype: DataType::F32 }
}

pub fn session_config() -> SessionConfig {
    SessionConfig {
        workers: 1,
        page_tokens: 16,
        pool_pages: 65536,
        max_running: 32,
        default_deadline: Duration::from_secs(3600),
        ..SessionConfig::default()
    }
}

/// The configuration as a JSON object, for the `--out` row.
pub fn describe() -> String {
    let (l, m, s) = (bench_llama(), bench_moe(), session_config());
    format!(
        "{{\"llama\": {{\"hidden\": {}, \"intermediate\": {}, \"n_layers\": {}, \"n_heads\": {}, \
         \"n_kv_heads\": {}, \"head_dim\": {}, \"vocab\": {}, \"max_context\": {}, \"dtype\": \"f32\", \
         \"quant4\": false}}, \"moe\": {{\"d_model\": {}, \"d_ff\": {}, \"experts\": {}, \
         \"table_rows\": {MOE_TABLE_ROWS}}}, \"compile_options\": \"default\", \
         \"session\": {{\"workers\": {}, \"page_tokens\": {}, \"pool_pages\": {}, \"max_running\": {}, \
         \"default_deadline_s\": {}}}, \"plan_cache_capacity\": {PLAN_CACHE_CAPACITY}, \
         \"vm_parallelism\": 1}}",
        l.hidden,
        l.intermediate,
        l.n_layers,
        l.n_heads,
        l.n_kv_heads,
        l.head_dim,
        l.vocab,
        l.max_context,
        m.d_model,
        m.d_ff,
        m.experts,
        s.workers,
        s.page_tokens,
        s.pool_pages,
        s.max_running,
        s.default_deadline.as_secs(),
    )
}

/// One built function: its module and parameter inventory.
pub struct Built {
    pub module: IRModule,
    pub func: String,
    pub params: Vec<(String, StructInfo)>,
}

impl From<llama::ModelIr> for Built {
    fn from(ir: llama::ModelIr) -> Self {
        Built { module: ir.module, func: ir.func, params: ir.params }
    }
}

impl From<moe::MoeIr> for Built {
    fn from(ir: moe::MoeIr) -> Self {
        Built { module: ir.module, func: ir.func, params: ir.params }
    }
}

/// Builds the modules a workload executes: `[decode_paged, prefill]` for
/// the serving workloads, `[moe_dispatch]` for `moe_ragged`.
pub fn build_models(w: Workload) -> Vec<Built> {
    match w {
        Workload::ChatDecode | Workload::LongPrompt => {
            let cfg = bench_llama();
            vec![
                llama::build_decode_paged(&cfg).expect("build decode_paged").into(),
                llama::build_prefill(&cfg).expect("build prefill").into(),
            ]
        }
        Workload::MoeRagged => {
            vec![moe::build_dispatch(&bench_moe()).expect("build moe_dispatch").into()]
        }
    }
}

pub fn compile_default(module: &IRModule) -> Arc<Executable> {
    Arc::new(compile(module.clone(), &CompileOptions::default()).expect("compile"))
}

/// One weight tensor, a function of its parameter name alone: an
/// xorshift stream seeded by a hash of the name. Norm gains sit near 1,
/// embeddings in ±1, linear weights in ±2/√fan_in; every value is
/// rounded to the tensor's dtype as a kernel-produced value would be.
fn weight(name: &str, sinfo: &StructInfo) -> NDArray {
    let dims: Vec<usize> = sinfo
        .tensor_dims()
        .expect("weight with a known shape")
        .iter()
        .map(|d| d.as_int().expect("weight with constant dims") as usize)
        .collect();
    let dtype = sinfo.tensor_dtype().expect("weight with a dtype");
    let mut rng = Rng::new(fnv64(name.as_bytes()));
    let scale = if name.ends_with("norm") || name == "embed" || name == "moe.token_table" {
        1.0
    } else {
        2.0 / (dims[0] as f64).sqrt()
    };
    let n: usize = dims.iter().product();
    let vals = (0..n)
        .map(|_| {
            let u = rng.unit() * 2.0 - 1.0;
            let v = if name.ends_with("norm") { 1.0 + 0.1 * u } else { scale * u };
            round_to_dtype(v, dtype)
        })
        .collect();
    NDArray::from_f64(&dims, dtype, vals).expect("weight tensor")
}

/// The fixed 256-row token table `moe_ragged` gathers its steps from.
pub fn moe_table() -> NDArray {
    let d = bench_moe().d_model;
    weight(
        "moe.token_table",
        &StructInfo::tensor(vec![(MOE_TABLE_ROWS as i64).into(), d.into()], DataType::F32),
    )
}

/// The weight parameters, in order: token inputs and cache parameters are not weights.
fn weight_params(params: &[(String, StructInfo)]) -> impl Iterator<Item = &(String, StructInfo)> {
    params.iter().filter(|(name, _)| name != "tokens" && !name.contains("cache"))
}

/// Weight arguments in parameter order.
pub fn weights(params: &[(String, StructInfo)]) -> Vec<Value> {
    weight_params(params).map(|(name, sinfo)| Value::Tensor(weight(name, sinfo))).collect()
}

/// [`weights`] with every layer past the first made a bitwise identity
/// (`wo` and `w_down` zeroed, so both residual adds contribute `+0`): a
/// 1-layer draft built from the same names then agrees with this model's
/// argmax everywhere, and acceptance is set by the injected noise alone.
pub fn identity_tail_weights(params: &[(String, StructInfo)]) -> Vec<Value> {
    weight_params(params)
        .map(|(name, sinfo)| {
            let t = weight(name, sinfo);
            let tail = name.strip_prefix('l').and_then(|r| r.split_once('.')).is_some_and(|(l, f)| {
                l.parse::<usize>().is_ok_and(|l| l >= 1) && (f == "wo" || f == "w_down")
            });
            Value::Tensor(if tail { NDArray::zeros(t.shape(), t.dtype()) } else { t })
        })
        .collect()
}

pub fn kv_config(cfg: &LlamaConfig) -> KvCacheConfig {
    KvCacheConfig {
        streams: 2 * cfg.n_layers,
        batch: 1,
        heads: cfg.n_kv_heads as usize,
        head_dim: cfg.head_dim as usize,
        dtype: cfg.dtype,
    }
}

/// The serving spec over already built `[decode_paged, prefill]` models.
pub fn llama_spec(models: &[Built]) -> SessionModelSpec {
    SessionModelSpec {
        decode: compile_default(&models[0].module),
        decode_func: models[0].func.clone(),
        prefill: Some(compile_default(&models[1].module)),
        prefill_func: models[1].func.clone(),
        weights: weights(&models[0].params),
        cache: kv_config(&bench_llama()),
        speculative: None,
    }
}

/// The fixed speculative-decoding spec of the `serve.spec` probe: a
/// 1-layer draft sharing layer 0 (same weight names, so same values) with
/// the identity-tail 4-layer verify model.
pub fn speculative_spec() -> SessionModelSpec {
    let vcfg = bench_llama();
    let dcfg = LlamaConfig { n_layers: 1, ..vcfg.clone() };
    let models = build_models(Workload::ChatDecode);
    let multi: Built = llama::build_decode_paged_multi(&vcfg).expect("build verify").into();
    let draft: Built = llama::build_decode_paged(&dcfg).expect("build draft").into();
    SessionModelSpec {
        weights: identity_tail_weights(&models[0].params),
        speculative: Some(SpeculativeSpec {
            draft: compile_default(&draft.module),
            draft_func: draft.func.clone(),
            draft_weights: weights(&draft.params),
            draft_cache: kv_config(&dcfg),
            verify: compile_default(&multi.module),
            verify_func: multi.func.clone(),
            lookahead: 4,
            noise: 0.2,
            noise_seed: 0xD1CE_5EED,
        }),
        ..llama_spec(&models)
    }
}
