//! Differential property test: shape-specialized kernel plans must be
//! bit-identical to the reference interpreter across randomly drawn
//! shapes, dtypes and kernel families.
//!
//! The generator is a seeded xorshift64* so failures reproduce exactly.

use relax_arith::{DataType, Var};
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

/// The exact stored bits of an array, so float comparisons are equality of
/// representation, not approximate.
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
    let data = (0..n).map(|_| (rng.next() % 201) as i64 - 100).collect();
    NDArray::from_i64(shape, dtype, data).unwrap()
}

/// Runs `func` two ways — interpreter and plan — on deep copies of
/// `args`, and asserts every buffer ends bit-identical.
fn assert_plan_matches(func: &PrimFunc, args: &[NDArray]) {
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let compiled = plan::compile(func, &shapes)
        .unwrap_or_else(|e| panic!("{} must be plannable at {:?}: {}", func.name(), shapes, e));

    let reference: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
    let planned: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();

    interp::run(func, &reference).unwrap();
    compiled.run(&planned, 1).unwrap();

    for (i, r) in reference.iter().enumerate() {
        assert_eq!(
            bits(r),
            bits(&planned[i]),
            "{} arg {} mismatch at {:?}",
            func.name(),
            i,
            shapes
        );
    }
}

/// Family 1: float elementwise with Select / Min / Max / index predicates.
fn ewise_select_func(dtype: DataType) -> PrimFunc {
    let n = Var::new("n");
    let m = Var::new("m");
    let x = Buffer::new("X", vec![n.clone().into(), m.clone().into()], dtype);
    let y = Buffer::new("Y", vec![n.clone().into(), m.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.into()), ("j", m.into())]);
    let (i, j) = (iv[0].clone(), iv[1].clone());
    let load = || TirExpr::load(&x, vec![i.clone().into(), j.clone().into()]);
    let value = TirExpr::Select(
        Box::new(TirExpr::IndexLe(i.clone().into(), j.clone().into())),
        Box::new(load() + TirExpr::FloatImm(1.0)),
        Box::new(TirExpr::Max(
            Box::new(load() * TirExpr::FloatImm(2.0)),
            Box::new(TirExpr::Min(
                Box::new(load()),
                Box::new(TirExpr::FloatImm(0.5)),
            )),
        )),
    );
    let body = nest.build(Stmt::store(&y, vec![i.into(), j.into()], value));
    PrimFunc::new("ewise_select", vec![x, y], 1, body)
}

/// Family 2: matmul with `IfEq` reduction init (Figure 4 shape).
fn matmul_func() -> PrimFunc {
    let n = Var::new("n");
    let k = Var::new("k");
    let m = Var::new("m");
    let x = Buffer::new("X", vec![n.clone().into(), k.clone().into()], DataType::F32);
    let w = Buffer::new("W", vec![k.clone().into(), m.clone().into()], DataType::F32);
    let y = Buffer::new("Y", vec![n.clone().into(), m.clone().into()], DataType::F32);
    let (iv, nest) = grid(&[("i", n.into()), ("j", m.into()), ("k", k.into())]);
    let (i, j, kk) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
    let init = Stmt::IfEq {
        lhs: kk.clone().into(),
        rhs: 0.into(),
        then: Box::new(Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::FloatImm(0.0),
        )),
    };
    let update = Stmt::store(
        &y,
        vec![i.clone().into(), j.clone().into()],
        TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
            + TirExpr::load(&x, vec![i.into(), kk.clone().into()])
                * TirExpr::load(&w, vec![kk.into(), j.into()]),
    );
    PrimFunc::new("mm", vec![x, w, y], 1, nest.build(Stmt::seq(vec![init, update])))
}

/// Family 3: gather through a data-dependent index (LoadDyn path).
fn gather_func(dtype: DataType) -> PrimFunc {
    let n = Var::new("n");
    let m = Var::new("m");
    let x = Buffer::new("X", vec![m.into()], dtype);
    let idx = Buffer::new("I", vec![n.clone().into()], DataType::I64);
    let o = Buffer::new("O", vec![n.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.into())]);
    let i = iv[0].clone();
    let body = nest.build(Stmt::store(
        &o,
        vec![i.clone().into()],
        TirExpr::LoadDyn(x.clone(), vec![TirExpr::load(&idx, vec![i.into()])]),
    ));
    PrimFunc::new("gather", vec![x, idx, o], 1, body)
}

/// Family 4: integer elementwise with Shr / BitAnd / Neg / Cast.
fn int_bits_func(dtype: DataType) -> PrimFunc {
    let n = Var::new("n");
    let x = Buffer::new("X", vec![n.clone().into()], dtype);
    let y = Buffer::new("Y", vec![n.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.into())]);
    let i = iv[0].clone();
    let load = || TirExpr::load(&x, vec![i.clone().into()]);
    let value = TirExpr::Add(
        Box::new(TirExpr::BitAnd(
            Box::new(TirExpr::Shr(Box::new(load()), Box::new(TirExpr::IntImm(1)))),
            Box::new(TirExpr::IntImm(7)),
        )),
        Box::new(TirExpr::Neg(Box::new(TirExpr::Cast(
            dtype,
            Box::new(load()),
        )))),
    );
    let body = nest.build(Stmt::store(&y, vec![i.into()], value));
    PrimFunc::new("int_bits", vec![x, y], 1, body)
}

#[test]
fn ewise_select_matches_across_random_shapes_and_dtypes() {
    let mut rng = XorShift::new(0x5eed_0001);
    for trial in 0..12 {
        let dtype = if trial % 2 == 0 {
            DataType::F32
        } else {
            DataType::F16
        };
        let f = ewise_select_func(dtype);
        let (n, m) = (rng.range(1, 9), rng.range(1, 9));
        let x = rand_floats(&mut rng, &[n, m], dtype);
        let y = NDArray::zeros(&[n, m], dtype);
        assert_plan_matches(&f, &[x, y]);
    }
}

#[test]
fn matmul_matches_across_random_shapes() {
    let mut rng = XorShift::new(0x5eed_0002);
    let f = matmul_func();
    for _ in 0..8 {
        let (n, k, m) = (rng.range(1, 7), rng.range(1, 7), rng.range(1, 7));
        let x = rand_floats(&mut rng, &[n, k], DataType::F32);
        let w = rand_floats(&mut rng, &[k, m], DataType::F32);
        let y = NDArray::zeros(&[n, m], DataType::F32);
        assert_plan_matches(&f, &[x, w, y]);
    }
}

#[test]
fn gather_matches_across_random_shapes() {
    let mut rng = XorShift::new(0x5eed_0003);
    for trial in 0..8 {
        let dtype = if trial % 2 == 0 {
            DataType::F32
        } else {
            DataType::I32
        };
        let f = gather_func(dtype);
        let (n, m) = (rng.range(1, 12), rng.range(1, 12));
        let x = if dtype == DataType::F32 {
            rand_floats(&mut rng, &[m], dtype)
        } else {
            rand_ints(&mut rng, &[m], dtype)
        };
        let indices = (0..n).map(|_| rng.range(0, m - 1) as i64).collect();
        let idx = NDArray::from_i64(&[n], DataType::I64, indices).unwrap();
        let o = NDArray::zeros(&[n], dtype);
        assert_plan_matches(&f, &[x, idx, o]);
    }
}

#[test]
fn int_bit_ops_match_across_random_shapes_and_dtypes() {
    let mut rng = XorShift::new(0x5eed_0004);
    for trial in 0..12 {
        let dtype = if trial % 2 == 0 {
            DataType::I64
        } else {
            DataType::I32
        };
        let f = int_bits_func(dtype);
        let n = rng.range(1, 33);
        let x = rand_ints(&mut rng, &[n], dtype);
        let y = NDArray::zeros(&[n], dtype);
        assert_plan_matches(&f, &[x, y]);
    }
}
