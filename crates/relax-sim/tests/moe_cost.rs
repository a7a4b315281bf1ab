//! Dry-run costing of the ragged MoE dispatch: the per-expert token
//! count `n_e` is decided by the router at runtime, so the simulator
//! cannot know it — it must apply the worst-case planning rule (§4.2)
//! and bound every expert's ragged activation by the full token batch.
//! These tests pin that rule: the dispatch simulates at any token
//! count, the cost grows monotonically with tokens, and the per-expert
//! FFN work is bounded below by `experts ×` the dense single-expert
//! FFN cost (each expert charged as if it saw all `t` tokens).

use relax_core::DataType;
use relax_models::moe::{build_dispatch, build_ffn_with_assignments};
use relax_models::MoeConfig;
use relax_passes::{compile, CompileOptions};
use relax_sim::{simulate, DeviceSpec, SimReport, SimValue};
use relax_vm::Executable;

fn f32_tensor(dims: &[i64]) -> SimValue {
    SimValue::Tensor {
        dims: dims.to_vec(),
        dtype: DataType::F32,
    }
}

fn expert_weights(cfg: &MoeConfig) -> Vec<SimValue> {
    let mut vals = Vec::new();
    for _ in 0..cfg.experts {
        vals.push(f32_tensor(&[cfg.d_model, cfg.d_ff]));
        vals.push(f32_tensor(&[cfg.d_ff, cfg.d_model]));
    }
    vals
}

fn sim_dispatch(exec: &Executable, cfg: &MoeConfig, t: i64) -> SimReport {
    let mut args = vec![
        f32_tensor(&[t, cfg.d_model]),
        f32_tensor(&[cfg.d_model, cfg.experts]),
    ];
    args.extend(expert_weights(cfg));
    simulate(exec, "moe_dispatch", &args, &DeviceSpec::rtx4090(), true)
        .unwrap_or_else(|e| panic!("moe_dispatch t={t} failed to simulate: {e}"))
}

#[test]
fn ragged_dispatch_costs_at_any_token_count_and_grows_monotonically() {
    let cfg = MoeConfig::tiny();
    let exec = compile(
        build_dispatch(&cfg).unwrap().module,
        &CompileOptions::default(),
    )
    .unwrap();
    let reports: Vec<SimReport> = [1i64, 5, 16]
        .iter()
        .map(|&t| sim_dispatch(&exec, &cfg, t))
        .collect();
    for w in reports.windows(2) {
        assert!(
            w[1].flops > w[0].flops && w[1].bytes > w[0].bytes,
            "dispatch cost must grow with the token count: {reports:?}"
        );
    }
}

#[test]
fn every_expert_is_bounded_by_the_full_token_batch() {
    let cfg = MoeConfig::tiny();
    let exec = compile(
        build_dispatch(&cfg).unwrap().module,
        &CompileOptions::default(),
    )
    .unwrap();
    let t = 8i64;
    let report = sim_dispatch(&exec, &cfg, t);
    // Worst-case rule: each of the `e` experts is charged the dense FFN
    // on all `t` tokens (two matmuls), on top of the router matmul.
    let (d, h, e) = (cfg.d_model as f64, cfg.d_ff as f64, cfg.experts as f64);
    let per_expert = 2.0 * t as f64 * d * h + 2.0 * t as f64 * h * d;
    let router = 2.0 * t as f64 * d * e;
    assert!(
        report.flops >= e * per_expert + router,
        "ragged dispatch under-costed: {} < {}",
        report.flops,
        e * per_expert + router
    );
}

#[test]
fn ffn_with_given_assignments_simulates_too() {
    let cfg = MoeConfig::tiny();
    let exec = compile(
        build_ffn_with_assignments(&cfg).unwrap().module,
        &CompileOptions::default(),
    )
    .unwrap();
    let t = 6i64;
    let mut args = vec![
        f32_tensor(&[t, cfg.d_model]),
        SimValue::Tensor {
            dims: vec![t],
            dtype: DataType::I64,
        },
    ];
    args.extend(expert_weights(&cfg));
    let report = simulate(&exec, "moe_ffn", &args, &DeviceSpec::rtx4090(), true).unwrap();
    assert!(report.kernels > 0 && report.flops > 0.0);
}
