//! Trace smoke: capture a full compile → VM → serving run, export it as
//! Chrome trace-event JSON, and verify the export with the in-repo
//! checker. CI runs this to guarantee the trace layer stays honest end
//! to end; humans run it to get a trace to open in `chrome://tracing`
//! or Perfetto.
//!
//! ```sh
//! cargo run --release --example trace_smoke
//! # then load target/trace_smoke.json in a trace viewer
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use relax::core::{ShapeDesc, StructInfo};
use relax::models::llama::{build_decode_paged, LlamaConfig};
use relax::passes::{compile, CompileOptions};
use relax::serve::{SessionConfig, SessionManager, SessionModelSpec, SessionRequest};
use relax::tir::NDArray;
use relax::vm::{KvCacheConfig, Value};

/// A constant fill of every weight parameter (weights have no symbolic
/// dims), in parameter order.
fn constant_weights(params: &[(String, StructInfo)]) -> Vec<Value> {
    let weights = params
        .iter()
        .filter(|(name, _)| name != "tokens" && name != "kv_cache");
    weights
        .map(|(_, sinfo)| match sinfo {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                dtype: Some(dt),
            } => {
                let dims: Vec<usize> = dims
                    .iter()
                    .map(|d| d.eval(&HashMap::new()).expect("bound") as usize)
                    .collect();
                let n = dims.iter().product();
                Value::Tensor(NDArray::from_f64(&dims, *dt, vec![0.01; n]).expect("shape"))
            }
            other => panic!("unexpected annotation {other}"),
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `Capture` turns tracing on for the duration regardless of the
    // `RELAX_TRACE` env switch, so this smoke works both ways.
    let capture = relax::trace::Capture::begin();

    // Compile (traced: pipeline root, one span per pass, fixpoint rounds).
    let cfg = LlamaConfig::tiny();
    let ir = build_decode_paged(&cfg)?;
    let exec = compile(ir.module.clone(), &CompileOptions::default())?;

    // A small 4-worker serving burst (traced: async session spans opened
    // on the scheduler thread and closed wherever each session resolves,
    // with step, plan-compile and kernel spans on the workers).
    let mgr = SessionManager::new(
        SessionModelSpec {
            decode: Arc::new(exec),
            decode_func: "decode_paged".into(),
            prefill: None,
            prefill_func: String::new(),
            weights: constant_weights(&ir.params),
            cache: KvCacheConfig {
                streams: 2 * cfg.n_layers,
                batch: 1,
                heads: cfg.n_kv_heads as usize,
                head_dim: cfg.head_dim as usize,
                dtype: cfg.dtype,
            },
            speculative: None,
        },
        SessionConfig {
            workers: 4,
            ..SessionConfig::default()
        },
    );
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            mgr.submit(SessionRequest {
                prompt: vec![3, 1, 4, 1 + i % 5],
                max_new_tokens: 4,
                deadline: None,
            })
        })
        .collect();
    for t in tickets {
        t.wait()?;
    }
    let stats = mgr.shutdown();

    // Export and verify.
    let trace = capture.finish();
    trace
        .validate()
        .map_err(|e| format!("malformed trace: {e}"))?;
    let json = trace.chrome_json();
    let chrome = relax::trace::validate_chrome_trace(&json)
        .map_err(|e| format!("chrome export failed the checker: {e}"))?;

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/target/trace_smoke.json");
    std::fs::write(out, &json)?;

    println!("wrote {out}");
    println!(
        "events={} sync_pairs={} async_pairs={} instants={} threads={} dropped={}",
        chrome.events,
        chrome.sync_pairs,
        chrome.async_pairs,
        chrome.instants,
        chrome.threads,
        chrome.dropped
    );
    println!("\n{}", trace.flame_summary());

    // The smoke is only green if the trace really covered every layer and
    // closed every session span.
    if trace.sync_span_count("compile", "pipeline") != 1 {
        return Err("missing compile pipeline span".into());
    }
    if chrome.async_pairs as u64 != stats.admitted {
        return Err(format!(
            "async session spans ({}) != admitted sessions ({})",
            chrome.async_pairs, stats.admitted
        )
        .into());
    }
    if chrome.threads < 2 {
        return Err("serving burst did not record multiple threads".into());
    }
    println!("trace smoke OK");
    Ok(())
}
