//! End-to-end tracing properties: random modules through the fully
//! verified pipeline must always produce a well-formed span tree that
//! agrees exactly with the `CompileReport`, and the Chrome export must
//! pass the in-repo checker.
//!
//! Deterministic seeded-generator loops (in-repo xorshift, matching the
//! `tests/properties.rs` conventions); failures print the seed.

use relax::core::{BlockBuilder, DataType, Expr, Op, StructInfo};
use relax::passes::{compile_with_report, CompileOptions};
use relax::trace::{Capture, EventKind};
use relax::vm::{Value, Vm};
use relax_arith::Var as SymVar;
use relax_tir::NDArray;

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

/// A random elementwise/matmul chain over `(x: (n, 8), w: (8, 8))`.
fn build_random_chain(rng: &mut XorShift) -> relax::core::IRModule {
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
    for _ in 0..rng.range(1, 8) {
        cur = match rng.range(0, 7) {
            0 => bb.emit_op(Op::Relu, &[cur]).unwrap(),
            1 => bb.emit_op(Op::Exp, &[cur]).unwrap(),
            2 => bb.emit_op(Op::Silu, &[cur]).unwrap(),
            3 => bb.emit_op(Op::Neg, &[cur]).unwrap(),
            4 => bb.emit_op(Op::Add, &[cur.clone(), cur]).unwrap(),
            5 => bb.emit_op(Op::Mul, &[cur.clone(), cur]).unwrap(),
            _ => bb.emit_op(Op::Matmul, &[cur, p[1].clone()]).unwrap(),
        };
    }
    let out = bb.emit_output(Expr::Var(cur)).unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    bb.finish()
}

/// Random small modules through the fully verified pipeline: no panics,
/// clean verification, and a trace whose span tree validates — every
/// span closed, parents preceding children — with exactly one `pass:`
/// span per `CompileReport` entry (the report's timings are *derived*
/// from these spans, so the counts must agree by construction).
#[test]
fn traced_compiles_are_well_formed_and_agree_with_report() {
    for seed in 0..16u64 {
        let mut rng = XorShift::new(seed + 0x7000);
        let module = build_random_chain(&mut rng);

        let capture = Capture::begin();
        let (exec, report) = compile_with_report(module, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: pipeline failed: {e}"));
        // The compiled executable still runs — inside the capture window:
        // tracing is process-global, so a VM run after `finish()` would
        // emit its `plan:*` spans into whichever capture the other test
        // holds at that moment and leave one open when that one finishes.
        let x = NDArray::zeros(&[3, 8], DataType::F32);
        let w = NDArray::zeros(&[8, 8], DataType::F32);
        Vm::new(exec)
            .run("main", &[Value::Tensor(x), Value::Tensor(w)])
            .unwrap_or_else(|e| panic!("seed {seed}: vm failed: {e}"));
        let trace = capture.finish();

        trace
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: malformed trace: {e}"));
        assert_eq!(
            trace.sync_span_count("compile", "pass:"),
            report.passes.len(),
            "seed {seed}: pass spans must match CompileReport entries"
        );
        assert!(report.total >= report.pass_time(), "seed {seed}");
        // One pipeline root span per compile, and one fixpoint round span
        // per recorded iteration.
        assert_eq!(trace.sync_span_count("compile", "pipeline"), 1);
        let rounds: usize = report.fixpoints.iter().map(|f| f.iterations).sum();
        assert_eq!(
            trace.sync_span_count("compile", "round:"),
            rounds,
            "seed {seed}: fixpoint round spans must match iteration counts"
        );

        // The Chrome export of the same trace passes the in-repo checker.
        let stats = relax::trace::validate_chrome_trace(&trace.chrome_json())
            .unwrap_or_else(|e| panic!("seed {seed}: chrome export invalid: {e}"));
        assert_eq!(stats.events, trace.events.len());
    }
}

/// Every begin event's parent (when recorded) is an enclosing span on
/// the same thread for sync spans — the compile pipeline is
/// single-threaded, so every pass span must sit under the pipeline root.
#[test]
fn pass_spans_nest_under_the_pipeline_root() {
    let mut rng = XorShift::new(42);
    let module = build_random_chain(&mut rng);
    let capture = Capture::begin();
    compile_with_report(module, &CompileOptions::default()).unwrap();
    let trace = capture.finish();
    trace.validate().unwrap();

    let root = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::Begin && e.name == "pipeline")
        .expect("pipeline root span");
    assert_eq!(root.parent, None);
    for e in &trace.events {
        if e.kind == EventKind::Begin && e.cat == "compile" && e.name != "pipeline" {
            assert!(
                e.parent.is_some(),
                "span `{}` must nest under the pipeline",
                e.name
            );
        }
    }
}
