//! Mixture-of-experts layer with data-dependent token routing — the
//! `match_cast` stress workload (§2, §4.2).
//!
//! A router assigns every token to one expert, so the row count each
//! expert FFN sees (`n_e`) is decided by an argmax over runtime data.
//! The graph expresses the layer exactly like the paper's Figure 3
//! expresses `unique`:
//!
//! ```text
//! assign           = vm.builtin.moe.route(matmul(tokens, router_w))
//! g_e: Tensor(ndim=2) = vm.builtin.moe.gather(tokens, assign, [e])
//! t_e = match_cast(g_e, Tensor((n_e, d)))      # fresh symbolic n_e
//! y_e = matmul(silu-FFN(t_e))                  # ragged call_tir
//! out += vm.builtin.moe.scatter(y_e, assign, [e, t])
//! ```
//!
//! The per-expert FFNs legalize to `call_tir` kernels whose leading
//! dimension is the freshly bound `n_e` — fusion, memory planning and
//! the VM's plan cache all see genuinely ragged shapes that change
//! every call. [`reference_moe`] and [`reference_route`] are the
//! pure-Rust differential oracle: they replicate the interpreter's
//! f32 store-rounding exactly (accumulate with `r32` per step, SiLU as
//! one rounded store of `x * sigmoid_f64(x)`), so the compiled module
//! must match them **bitwise** on every seed, worker count, and
//! pipeline ablation.

use relax_arith::{DataType, Var as SymVar};
use relax_core::{Expr, IRModule, StructInfo};
use relax_tir::round_to_dtype;

use crate::nn::{ModelBuilder, ModelError};

/// Configuration of one MoE feed-forward layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoeConfig {
    /// Model (token embedding) dimension.
    pub d_model: i64,
    /// Expert FFN hidden dimension.
    pub d_ff: i64,
    /// Number of experts.
    pub experts: i64,
    /// Weight/activation dtype.
    pub dtype: DataType,
}

impl MoeConfig {
    /// A tiny configuration that executes numerically in tests.
    pub fn tiny() -> Self {
        MoeConfig {
            d_model: 8,
            d_ff: 16,
            experts: 4,
            dtype: DataType::F32,
        }
    }
}

/// The built MoE function plus its parameter inventory.
#[derive(Debug, Clone)]
pub struct MoeIr {
    /// The module containing the function.
    pub module: IRModule,
    /// The built function's name.
    pub func: String,
    /// `(name, annotation)` of each parameter in order.
    pub params: Vec<(String, StructInfo)>,
    /// The symbolic token-count variable `t`.
    pub tokens: SymVar,
}

/// Per-expert weight parameter specs (in call order): `e{i}.w1`
/// `(d_model, d_ff)` and `e{i}.w2` `(d_ff, d_model)`.
fn expert_param_specs(cfg: &MoeConfig) -> Vec<(String, StructInfo)> {
    let mut params = Vec::new();
    for e in 0..cfg.experts {
        params.push((
            format!("e{e}.w1"),
            StructInfo::tensor(vec![cfg.d_model.into(), cfg.d_ff.into()], cfg.dtype),
        ));
        params.push((
            format!("e{e}.w2"),
            StructInfo::tensor(vec![cfg.d_ff.into(), cfg.d_model.into()], cfg.dtype),
        ));
    }
    params
}

/// Emits the gather → expert-FFN → scatter-add body given an assignment
/// vector; shared by the routed and assignment-fed builders.
fn emit_expert_dispatch(
    mb: &mut ModelBuilder,
    cfg: &MoeConfig,
    tokens: relax_core::Var,
    assign: relax_core::Var,
    t: &SymVar,
) -> Result<relax_core::Var, ModelError> {
    let d = cfg.d_model;
    let mut acc: Option<relax_core::Var> = None;
    for e in 0..cfg.experts {
        let gathered = mb.moe_gather(tokens.clone(), assign.clone(), e)?;
        // The gather's row count is data-dependent: bind it to a fresh
        // symbolic dim. Everything downstream is ragged in n_e.
        let ne = SymVar::new(format!("n{e}"));
        let casted = mb.match_cast(
            gathered,
            StructInfo::tensor(vec![ne.into(), d.into()], cfg.dtype),
        )?;
        let w1 = mb.param(&format!("e{e}.w1"))?;
        let w2 = mb.param(&format!("e{e}.w2"))?;
        let h1 = mb.matmul(casted, w1)?;
        let act = mb.silu(h1)?;
        let y = mb.matmul(act, w2)?;
        let scattered = mb.moe_scatter(y, assign.clone(), e, t.clone().into(), d.into())?;
        acc = Some(match acc {
            // Unassigned positions are zero and `r32(x + 0) == x`, so
            // the scatter-add chain is bitwise-exact.
            Some(prev) => mb.add(prev, scattered)?,
            None => scattered,
        });
    }
    Ok(acc.expect("at least one expert"))
}

/// Builds `moe_dispatch(tokens (t, d), router_w, e*.w1, e*.w2)`: router
/// argmax → per-expert gather/FFN/scatter-add. The token count `t` is
/// symbolic; every per-expert row count `n_e` is bound at runtime by
/// `match_cast`.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_dispatch(cfg: &MoeConfig) -> Result<MoeIr, ModelError> {
    let t = SymVar::new("t");
    let mut params: Vec<(String, StructInfo)> = vec![
        (
            "tokens".to_string(),
            StructInfo::tensor(vec![t.clone().into(), cfg.d_model.into()], cfg.dtype),
        ),
        (
            "router_w".to_string(),
            StructInfo::tensor(vec![cfg.d_model.into(), cfg.experts.into()], cfg.dtype),
        ),
    ];
    params.extend(expert_param_specs(cfg));

    let mut mb = ModelBuilder::begin(IRModule::new(), "moe_dispatch", params.clone());
    let tokens = mb.param("tokens")?;
    let router_w = mb.param("router_w")?;
    let logits = mb.matmul(tokens.clone(), router_w)?;
    let assign = mb.moe_route(logits)?;
    let out = emit_expert_dispatch(&mut mb, cfg, tokens, assign, &t)?;
    let out = mb.output(out.into())?;
    let module = mb.finish(Expr::Var(out))?;
    Ok(MoeIr {
        module,
        func: "moe_dispatch".into(),
        params,
        tokens: t,
    })
}

/// Builds `moe_ffn(tokens (t, d), assign (t,), e*.w1, e*.w2)`: the same
/// expert dispatch but with the assignment supplied as an input, so a
/// differential test can force arbitrary routings — empty experts,
/// all-tokens-to-one-expert, more experts than tokens.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_ffn_with_assignments(cfg: &MoeConfig) -> Result<MoeIr, ModelError> {
    let t = SymVar::new("t");
    let mut params: Vec<(String, StructInfo)> = vec![
        (
            "tokens".to_string(),
            StructInfo::tensor(vec![t.clone().into(), cfg.d_model.into()], cfg.dtype),
        ),
        (
            "assign".to_string(),
            StructInfo::tensor(vec![t.clone().into()], DataType::I64),
        ),
    ];
    params.extend(expert_param_specs(cfg));

    let mut mb = ModelBuilder::begin(IRModule::new(), "moe_ffn", params.clone());
    let tokens = mb.param("tokens")?;
    let assign = mb.param("assign")?;
    let out = emit_expert_dispatch(&mut mb, cfg, tokens, assign, &t)?;
    let out = mb.output(out.into())?;
    let module = mb.finish(Expr::Var(out))?;
    Ok(MoeIr {
        module,
        func: "moe_ffn".into(),
        params,
        tokens: t,
    })
}

/// Builds the dense baseline `dense_ffn(tokens (t, d), w1, w2)`: one
/// FFN applied to every token — the non-ragged comparison point the
/// `dynamic_workloads` bench measures MoE dispatch against.
///
/// # Errors
///
/// Propagates IR construction failures.
pub fn build_dense_ffn(cfg: &MoeConfig) -> Result<MoeIr, ModelError> {
    let t = SymVar::new("t");
    let params: Vec<(String, StructInfo)> = vec![
        (
            "tokens".to_string(),
            StructInfo::tensor(vec![t.clone().into(), cfg.d_model.into()], cfg.dtype),
        ),
        (
            "w1".to_string(),
            StructInfo::tensor(vec![cfg.d_model.into(), cfg.d_ff.into()], cfg.dtype),
        ),
        (
            "w2".to_string(),
            StructInfo::tensor(vec![cfg.d_ff.into(), cfg.d_model.into()], cfg.dtype),
        ),
    ];
    let mut mb = ModelBuilder::begin(IRModule::new(), "dense_ffn", params.clone());
    let tokens = mb.param("tokens")?;
    let w1 = mb.param("w1")?;
    let w2 = mb.param("w2")?;
    let h1 = mb.matmul(tokens, w1)?;
    let act = mb.silu(h1)?;
    let y = mb.matmul(act, w2)?;
    let out = mb.output(y.into())?;
    let module = mb.finish(Expr::Var(out))?;
    Ok(MoeIr {
        module,
        func: "dense_ffn".into(),
        params,
        tokens: t,
    })
}

fn r32(x: f64) -> f64 {
    round_to_dtype(x, DataType::F32)
}

/// `C = A (t×k) @ B (k×n)` with the interpreter's exact f32 semantics:
/// the accumulator lives in the f32 output buffer, so every
/// multiply-add rounds (`acc = r32(acc + a*b)`, products in f64).
fn matmul_r32(a: &[f64], b: &[f64], t: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; t * n];
    for i in 0..t {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc = r32(acc + a[i * k + kk] * b[kk * n + j]);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// SiLU with the legalized kernel's semantics: `x * sigmoid(x)` fully
/// in f64 (sigmoid is **not** rounded separately), one f32 store.
fn silu_r32(x: f64) -> f64 {
    r32(x * (1.0 / (1.0 + (-x).exp())))
}

/// Pure-Rust router oracle: `argmax(tokens @ router_w)` per token,
/// first maximum wins (strict `>`), matmul in interpreter f32
/// semantics. Bitwise-matches `vm.builtin.moe.route` on the logits the
/// compiled matmul produces.
pub fn reference_route(
    tokens: &[f64],
    router_w: &[f64],
    t: usize,
    d: usize,
    experts: usize,
) -> Vec<i64> {
    let logits = matmul_r32(tokens, router_w, t, d, experts);
    (0..t)
        .map(|i| {
            let row = &logits[i * experts..(i + 1) * experts];
            let mut best = 0usize;
            for (j, &x) in row.iter().enumerate() {
                if x > row[best] {
                    best = j;
                }
            }
            best as i64
        })
        .collect()
}

/// Pure-Rust MoE oracle: routes token `i` to expert `assign[i]` and
/// runs `w2 · silu(w1 · x)` row-wise with the interpreter's f32
/// rounding. Because every kernel in the compiled layer is
/// row-independent with identical per-store rounding, and the
/// scatter-add chain only ever adds zeros to each position, this is
/// bitwise-equal to executing the built module — the differential
/// oracle `tests/moe_diff.rs` asserts against.
///
/// `experts_w1[e]` is `(d × h)` row-major, `experts_w2[e]` is `(h × d)`.
pub fn reference_moe(
    tokens: &[f64],
    assign: &[i64],
    experts_w1: &[Vec<f64>],
    experts_w2: &[Vec<f64>],
    d: usize,
    h: usize,
) -> Vec<f64> {
    let t = assign.len();
    let mut out = vec![0.0f64; t * d];
    for (i, &e) in assign.iter().enumerate() {
        let e = e as usize;
        let x = &tokens[i * d..(i + 1) * d];
        let h1 = matmul_r32(x, &experts_w1[e], 1, d, h);
        let a: Vec<f64> = h1.iter().map(|&v| silu_r32(v)).collect();
        let y = matmul_r32(&a, &experts_w2[e], 1, h, d);
        out[i * d..(i + 1) * d].copy_from_slice(&y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_module_is_well_formed() {
        let ir = build_dispatch(&MoeConfig::tiny()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
        let f = ir.module.function("moe_dispatch").unwrap();
        // One route + E gathers + E scatters, and E match_casts binding
        // fresh symbolic dims.
        let (mut routes, mut gathers, mut scatters, mut casts) = (0, 0, 0, 0);
        for b in f.bindings() {
            match &b.value {
                Expr::CallDps { func, .. } => match func.as_str() {
                    "vm.builtin.moe.route" => routes += 1,
                    "vm.builtin.moe.gather" => gathers += 1,
                    "vm.builtin.moe.scatter" => scatters += 1,
                    _ => {}
                },
                Expr::MatchCast { sinfo, .. } => {
                    let dims = sinfo.tensor_dims().unwrap();
                    assert!(dims[0].as_int().is_none(), "n_e must stay symbolic");
                    casts += 1;
                }
                _ => {}
            }
        }
        let e = MoeConfig::tiny().experts;
        assert_eq!((routes, gathers, scatters, casts), (1, e, e, e));
    }

    #[test]
    fn assignment_fed_module_is_well_formed() {
        let ir = build_ffn_with_assignments(&MoeConfig::tiny()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
        assert_eq!(ir.params[1].0, "assign");
    }

    #[test]
    fn dense_baseline_is_well_formed() {
        let ir = build_dense_ffn(&MoeConfig::tiny()).unwrap();
        assert!(relax_core::assert_well_formed(&ir.module).is_ok());
    }

    #[test]
    fn reference_route_is_first_max() {
        // Identity-ish router: token i has a 1 in column i%2.
        let tokens = vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        let router = vec![1.0, 0.0, 0.0, 1.0]; // d=2, E=2
        assert_eq!(reference_route(&tokens, &router, 3, 2, 2), vec![0, 1, 0]);
    }

    #[test]
    fn reference_moe_routes_rows_independently() {
        // Two experts: identity-scaled FFNs with different gains.
        let d = 2usize;
        let h = 2usize;
        let eye = |g: f64| -> Vec<f64> { vec![g, 0.0, 0.0, g] };
        let w1 = vec![eye(1.0), eye(2.0)];
        let w2 = vec![eye(1.0), eye(1.0)];
        let tokens = vec![1.0, 2.0, 3.0, 4.0];
        let out = reference_moe(&tokens, &[0, 1], &w1, &w2, d, h);
        // Token 0 through expert 0: silu(x); token 1 through expert 1:
        // silu(2x).
        assert_eq!(out[0], silu_r32(1.0));
        assert_eq!(out[2], silu_r32(6.0));
    }
}
