//! Property-style tests over the compiler's core invariants.
//!
//! These were originally `proptest` properties; to keep the workspace
//! building fully offline they are now deterministic seeded-generator
//! loops over the same input distributions. Every case that fails prints
//! the seed that produced it, so failures reproduce exactly.

use std::collections::HashMap;

use relax::core::{BlockBuilder, DataType, Expr, Op, StructInfo};
use relax::passes::{compile, CompileOptions};
use relax::tir::NDArray;
use relax::vm::{Instr, Value, Vm};
use relax_arith::{simplify, substitute, Analyzer, PrimExpr, SubstMap, Var as SymVar};

// ---------------------------------------------------------------------
// Deterministic generator (in-repo xorshift PRNG; no external deps).
// ---------------------------------------------------------------------

/// Small xorshift64* PRNG: deterministic, seed-reproducible.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform integer in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// Random expression over two fixed variables, depth-bounded (mirrors the
/// old proptest `arb_expr` strategy).
fn gen_expr(rng: &mut XorShift, a: &SymVar, b: &SymVar, depth: u32) -> PrimExpr {
    if depth == 0 || rng.range(0, 3) == 0 {
        return match rng.range(0, 3) {
            0 => PrimExpr::Int(rng.range(-6, 7)),
            1 => PrimExpr::Var(a.clone()),
            _ => PrimExpr::Var(b.clone()),
        };
    }
    let x = gen_expr(rng, a, b, depth - 1);
    let y = gen_expr(rng, a, b, depth - 1);
    match rng.range(0, 7) {
        0 => x + y,
        1 => x - y,
        2 => x * y,
        3 => x.floor_div(y),
        4 => x.floor_mod(y),
        5 => x.min(y),
        _ => x.max(y),
    }
}

// ---------------------------------------------------------------------
// Symbolic arithmetic properties.
// ---------------------------------------------------------------------

/// Simplification preserves evaluation wherever the original expression
/// evaluates (division by zero may legitimately disappear after
/// simplification, e.g. `0 * (x // 0)`).
#[test]
fn simplify_preserves_evaluation() {
    let a = SymVar::new("a");
    let b = SymVar::new("b");
    for seed in 0..256u64 {
        let mut rng = XorShift::new(seed + 1);
        let va = rng.range(1, 50);
        let vb = rng.range(1, 50);
        let e = gen_expr(&mut rng, &a, &b, 4);
        let mut env = HashMap::new();
        env.insert(a.clone(), va);
        env.insert(b.clone(), vb);
        if let Ok(expected) = e.eval(&env) {
            let s = simplify(&e);
            let got = s.eval(&env).expect("simplified form must still evaluate");
            assert_eq!(got, expected, "seed {seed}: expr {e} simplified to {s}");
        }
    }
}

/// Simplification is idempotent.
#[test]
fn simplify_is_idempotent() {
    let a = SymVar::new("a");
    let b = SymVar::new("b");
    for seed in 0..256u64 {
        let mut rng = XorShift::new(seed + 0x1000);
        let e = gen_expr(&mut rng, &a, &b, 4);
        let once = simplify(&e);
        let twice = simplify(&once);
        assert_eq!(once, twice, "seed {seed}: expr {e}");
    }
}

/// prove_equal is sound: whenever the analyzer claims two expressions are
/// equal, they evaluate identically on concrete inputs.
#[test]
fn prove_equal_is_sound() {
    let a = SymVar::new("a");
    let b = SymVar::new("b");
    let ana = Analyzer::new();
    for seed in 0..256u64 {
        let mut rng = XorShift::new(seed + 0x2000);
        let va = rng.range(1, 40);
        let vb = rng.range(1, 40);
        let e1 = gen_expr(&mut rng, &a, &b, 4);
        let e2 = gen_expr(&mut rng, &a, &b, 4);
        if ana.prove_equal(&e1, &e2) {
            let mut env = HashMap::new();
            env.insert(a.clone(), va);
            env.insert(b.clone(), vb);
            if let (Ok(x), Ok(y)) = (e1.eval(&env), e2.eval(&env)) {
                assert_eq!(x, y, "seed {seed}: {e1} vs {e2}");
            }
            // Division-by-zero on either side: no claim to check.
        }
    }
}

/// Substitution commutes with evaluation.
#[test]
fn substitution_commutes_with_evaluation() {
    let a = SymVar::new("a");
    let b = SymVar::new("b");
    for seed in 0..256u64 {
        let mut rng = XorShift::new(seed + 0x3000);
        let va = rng.range(1, 30);
        let vb = rng.range(1, 30);
        let e = gen_expr(&mut rng, &a, &b, 4);
        let mut map = SubstMap::new();
        map.insert(a.clone(), PrimExpr::Int(va));
        map.insert(b.clone(), PrimExpr::Int(vb));
        let mut env = HashMap::new();
        env.insert(a.clone(), va);
        env.insert(b.clone(), vb);
        if let Ok(expected) = e.eval(&env) {
            let substituted = substitute(&e, &map);
            assert_eq!(
                substituted.eval(&HashMap::new()).unwrap(),
                expected,
                "seed {seed}: expr {e}"
            );
        }
    }
}

/// Upper bounds are conservative: evaluating under any assignment within
/// the declared bounds never exceeds the analyzer's bound.
#[test]
fn upper_bounds_are_conservative() {
    let a = SymVar::new("a");
    let b = SymVar::new("b");
    for seed in 0..256u64 {
        let mut rng = XorShift::new(seed + 0x4000);
        let ba = rng.range(1, 20);
        let bb = rng.range(1, 20);
        let va = rng.range(1, 20).min(ba);
        let vb = rng.range(1, 20).min(bb);
        let e = gen_expr(&mut rng, &a, &b, 4);
        let mut ana = Analyzer::new();
        ana.bind(a.clone(), relax_arith::IntBound::range(0, ba));
        ana.bind(b.clone(), relax_arith::IntBound::range(0, bb));
        if let Some(bound) = ana.upper_bound(&e) {
            let mut env = HashMap::new();
            env.insert(a.clone(), va);
            env.insert(b.clone(), vb);
            if let Ok(v) = e.eval(&env) {
                assert!(v <= bound, "seed {seed}: {e} = {v} > bound {bound}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Whole-pipeline properties on random operator chains.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChainOp {
    Relu,
    Exp,
    Silu,
    Neg,
    AddSelf,
    MulSelf,
    Matmul8,
}

fn gen_chain(rng: &mut XorShift) -> Vec<ChainOp> {
    let len = rng.range(1, 8) as usize;
    (0..len)
        .map(|_| match rng.range(0, 7) {
            0 => ChainOp::Relu,
            1 => ChainOp::Exp,
            2 => ChainOp::Silu,
            3 => ChainOp::Neg,
            4 => ChainOp::AddSelf,
            5 => ChainOp::MulSelf,
            _ => ChainOp::Matmul8,
        })
        .collect()
}

fn build_chain(ops: &[ChainOp]) -> relax::core::IRModule {
    let mut bb = BlockBuilder::new();
    let n = SymVar::new("n");
    let p = bb.begin_function(
        "main",
        vec![
            (
                "x".into(),
                StructInfo::tensor(vec![n.into(), 8.into()], DataType::F32),
            ),
            (
                "w".into(),
                StructInfo::tensor(vec![8.into(), 8.into()], DataType::F32),
            ),
        ],
    );
    bb.begin_dataflow();
    let mut cur = p[0].clone();
    for op in ops {
        cur = match op {
            ChainOp::Relu => bb.emit_op(Op::Relu, &[cur]).unwrap(),
            ChainOp::Exp => bb.emit_op(Op::Exp, &[cur]).unwrap(),
            ChainOp::Silu => bb.emit_op(Op::Silu, &[cur]).unwrap(),
            ChainOp::Neg => bb.emit_op(Op::Neg, &[cur]).unwrap(),
            ChainOp::AddSelf => bb.emit_op(Op::Add, &[cur.clone(), cur]).unwrap(),
            ChainOp::MulSelf => bb.emit_op(Op::Mul, &[cur.clone(), cur]).unwrap(),
            ChainOp::Matmul8 => bb.emit_op(Op::Matmul, &[cur, p[1].clone()]).unwrap(),
        };
    }
    let out = bb.emit_output(Expr::Var(cur)).unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    bb.finish()
}

/// The optimized pipeline computes the same values as the unoptimized one
/// on every random operator chain — fusion, library dispatch, memory
/// planning and graph capture are all semantics-preserving.
#[test]
fn optimized_pipeline_is_semantics_preserving() {
    for seed in 0..24u64 {
        let mut rng = XorShift::new(seed + 0x5000);
        let ops = gen_chain(&mut rng);
        let module = build_chain(&ops);
        let x = NDArray::from_f64(
            &[2, 8],
            DataType::F32,
            (0..16).map(|v| (v as f64) / 9.0 - 0.7).collect(),
        )
        .unwrap();
        let w = NDArray::from_f64(
            &[8, 8],
            DataType::F32,
            (0..64).map(|v| ((v % 9) as f64) / 9.0 - 0.4).collect(),
        )
        .unwrap();
        let args = [Value::Tensor(x), Value::Tensor(w)];

        let full = compile(module.clone(), &CompileOptions::default()).unwrap();
        let base = compile(module, &CompileOptions::baseline()).unwrap();
        let out_full = Vm::new(full).run("main", &args).unwrap();
        let out_base = Vm::new(base).run("main", &args).unwrap();
        let a = out_full.as_tensor().unwrap().to_f64_vec();
        let b = out_base.as_tensor().unwrap().to_f64_vec();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            if x.is_finite() || y.is_finite() {
                let tol = 1e-3 * (1.0 + x.abs().max(y.abs()));
                assert!((x - y).abs() < tol, "seed {seed}: {x} vs {y} (ops {ops:?})");
            }
        }
    }
}

/// Memory planning never uses more storages than the unplanned path uses
/// allocations, and eliminates every dynamic allocation.
#[test]
fn planner_reduces_allocations() {
    for seed in 0..24u64 {
        let mut rng = XorShift::new(seed + 0x6000);
        let ops = gen_chain(&mut rng);
        let module = build_chain(&ops);
        let opts_unplanned = CompileOptions {
            memory_plan: false,
            graph_capture: false,
            ..CompileOptions::default()
        };
        let unplanned = compile(module.clone(), &opts_unplanned).unwrap();
        let planned = compile(module, &CompileOptions::default()).unwrap();
        let count = |exec: &relax::vm::Executable, pat: fn(&Instr) -> bool| -> usize {
            exec.funcs
                .values()
                .map(|f| {
                    fn walk(instrs: &[Instr], pat: fn(&Instr) -> bool) -> usize {
                        instrs
                            .iter()
                            .map(|i| match i {
                                Instr::CaptureRegion { body, .. } => walk(body, pat),
                                other => usize::from(pat(other)),
                            })
                            .sum()
                    }
                    walk(&f.instrs, pat)
                })
                .sum()
        };
        let allocs = count(&unplanned, |i| matches!(i, Instr::AllocTensor { .. }));
        let storages = count(&planned, |i| matches!(i, Instr::AllocStorage { .. }));
        let leftover_dynamic = count(&planned, |i| matches!(i, Instr::AllocTensor { .. }));
        assert_eq!(leftover_dynamic, 0, "seed {seed}");
        assert!(
            storages <= allocs,
            "seed {seed}: {storages} storages vs {allocs} allocs"
        );
    }
}
