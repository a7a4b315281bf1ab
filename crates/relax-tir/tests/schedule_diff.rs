//! Differential property test for the schedule decision: a matmul
//! stamped by `auto_schedule` (or, for an integer nest, by hand) must
//! compile to a plan whose results are bit-identical to the unscheduled
//! plan and to the reference interpreter across randomly drawn shapes
//! and dtypes.
//!
//! The generator is a seeded xorshift64* so failures reproduce exactly.

use relax_arith::DataType;
use relax_tir::{grid, interp, plan, Buffer, NDArray, PrimFunc, Stmt, TirExpr};

/// xorshift64* — deterministic, dependency-free PRNG.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[lo, hi]`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// The exact stored bits of an array.
fn bits(a: &NDArray) -> Vec<u64> {
    if matches!(a.dtype(), DataType::F16 | DataType::F32) {
        a.to_f64_vec().iter().map(|v| v.to_bits()).collect()
    } else {
        a.to_i64_vec().iter().map(|v| *v as u64).collect()
    }
}

fn rand_floats(rng: &mut XorShift, shape: &[usize], dtype: DataType) -> NDArray {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| (rng.next() % 64) as f64 * 0.25 - 8.0)
        .collect();
    NDArray::from_f64(shape, dtype, data).unwrap()
}

fn rand_ints(rng: &mut XorShift, shape: &[usize], dtype: DataType) -> NDArray {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| (rng.next() % 21) as i64 - 10).collect();
    NDArray::from_i64(shape, dtype, data).unwrap()
}

/// Concrete-shape matmul with the `IfEq` reduction init, the nest
/// `auto_schedule` stamps.
fn matmul(n: usize, k: usize, m: usize, dtype: DataType) -> PrimFunc {
    let x = Buffer::new("X", vec![(n as i64).into(), (k as i64).into()], dtype);
    let w = Buffer::new("W", vec![(k as i64).into(), (m as i64).into()], dtype);
    let y = Buffer::new("Y", vec![(n as i64).into(), (m as i64).into()], dtype);
    let (iv, nest) = grid(&[
        ("i", (n as i64).into()),
        ("j", (m as i64).into()),
        ("k", (k as i64).into()),
    ]);
    let (i, j, kk) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
    let init = Stmt::IfEq {
        lhs: kk.clone().into(),
        rhs: 0.into(),
        then: Box::new(Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            if matches!(dtype, DataType::F16 | DataType::F32) {
                TirExpr::FloatImm(0.0)
            } else {
                TirExpr::IntImm(0)
            },
        )),
    };
    let update = Stmt::store(
        &y,
        vec![i.clone().into(), j.clone().into()],
        TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
            + TirExpr::load(&x, vec![i.into(), kk.clone().into()])
                * TirExpr::load(&w, vec![kk.into(), j.into()]),
    );
    PrimFunc::new(
        "mm",
        vec![x, w, y],
        1,
        nest.build(Stmt::seq(vec![init, update])),
    )
}

/// Runs the scheduled function three ways against the unscheduled
/// reference: interpreter, scheduled plan and unscheduled plan — all
/// bitwise.
fn assert_schedule_matches(f: &PrimFunc, sched: &PrimFunc, args: &[NDArray]) {
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let plain = plan::compile(f, &shapes).expect("unscheduled plan");
    let scheduled = plan::compile(sched, &shapes).expect("scheduled plan");

    let reference: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
    let unsched: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
    let sched_out: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();

    interp::run(f, &reference).unwrap();
    plain.run(&unsched, 1).unwrap();
    scheduled.run(&sched_out, 1).unwrap();

    let want = bits(&reference[2]);
    assert_eq!(want, bits(&unsched[2]), "unscheduled plan vs interp");
    assert_eq!(want, bits(&sched_out[2]), "scheduled plan vs interp");
}

#[test]
fn integer_matmul_schedules_stay_bitwise() {
    // An integer-declared matmul never becomes a macro-op (its operands
    // and output are not float), even when stamped: `auto_schedule`
    // refuses the integer nest, so stamp the attribute directly. The
    // stamped plan stays on the scalar tape and must still agree exactly.
    let mut rng = XorShift::new(0x5eed_5c4e);
    for (n, k, m) in [(4, 4, 4), (3, 5, 70)] {
        let f = matmul(n, k, m, DataType::I64);
        assert!(relax_tir::schedule::auto_schedule(&f).is_none());
        let sched = f.with_attr("relax.schedule", "macro");
        let shapes = vec![vec![n, k], vec![k, m], vec![n, m]];
        let compiled = plan::compile(&sched, &shapes).expect("stamped integer plan");
        assert!(
            !compiled.scheduled(),
            "an integer nest must not become a macro-op"
        );
        assert!(
            compiled.scalar_stores() > 0,
            "an integer nest stays on the scalar tape"
        );
        let x = rand_ints(&mut rng, &[n, k], DataType::I64);
        let w = rand_ints(&mut rng, &[k, m], DataType::I64);
        let y = NDArray::zeros(&[n, m], DataType::I64);
        assert_schedule_matches(&f, &sched, &[x, w, y]);
    }
}

#[test]
fn auto_schedule_macro_path_matches_across_random_shapes() {
    // The pipeline's auto-scheduled macro plans, over random non-square
    // shapes that do and do not hit the register-block boundary
    // (BJ = 64): F32 at drawn widths, F16 at every width.
    let mut rng = XorShift::new(0x5eed_5c4f);
    let check = |rng: &mut XorShift, n: usize, k: usize, m: usize, dtype: DataType| {
        let f = matmul(n, k, m, dtype);
        let sched =
            relax_tir::schedule::auto_schedule(&f).expect("matmul nest should auto-schedule");
        let shapes = vec![vec![n, k], vec![k, m], vec![n, m]];
        let compiled = plan::compile(&sched, &shapes).expect("scheduled plan");
        assert!(
            compiled.scheduled(),
            "{dtype:?} {n}x{k}x{m} should run the macro-op"
        );
        let x = rand_floats(rng, &[n, k], dtype);
        let w = rand_floats(rng, &[k, m], dtype);
        let y = NDArray::zeros(&[n, m], dtype);
        assert_schedule_matches(&f, &sched, &[x, w, y]);
    };
    for _ in 0..4 {
        let (n, k) = (rng.range(1, 9), rng.range(1, 9));
        let m = [1, 63, 64, 65][rng.range(0, 3)];
        check(&mut rng, n, k, m, DataType::F32);
    }
    for m in [1, 63, 64, 65] {
        let (n, k) = (rng.range(1, 9), rng.range(1, 9));
        check(&mut rng, n, k, m, DataType::F16);
    }
}
