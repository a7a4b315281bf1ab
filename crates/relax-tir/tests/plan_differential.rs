//! Differential property test: shape-specialized kernel plans must be
//! bit-identical to the reference interpreter across randomly drawn
//! shapes, dtypes and kernel families.
//!
//! The generator is a seeded xorshift64* so failures reproduce exactly.

use relax_arith::{DataType, PrimExpr, Var};
use relax_tir::interp::{self, InterpError};
use relax_tir::{grid, plan, Buffer, NDArray, PrimFunc, Stmt, TirExpr};

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
fn matmul_func(dtype: DataType) -> PrimFunc {
    let n = Var::new("n");
    let k = Var::new("k");
    let m = Var::new("m");
    let x = Buffer::new("X", vec![n.clone().into(), k.clone().into()], dtype);
    let w = Buffer::new("W", vec![k.clone().into(), m.clone().into()], dtype);
    let y = Buffer::new("Y", vec![n.clone().into(), m.clone().into()], dtype);
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
    PrimFunc::new(
        "mm",
        vec![x, w, y],
        1,
        nest.build(Stmt::seq(vec![init, update])),
    )
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
    let f = matmul_func(DataType::F32);
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

// ---------------------------------------------------------------------------
// Elementwise rows: innermost loops of float stores over flat accesses.
// ---------------------------------------------------------------------------

/// Innermost (row) extents every row family is drawn at.
const ROW_EXTENTS: [usize; 5] = [1, 2, 7, 31, 64];

/// Random floats with NaN, ±inf and ±0.0 mixed in (about one in four).
fn rand_special(rng: &mut XorShift, shape: &[usize], dtype: DataType) -> NDArray {
    const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| match rng.next() % 20 {
            k @ 0..=4 => SPECIAL[k as usize],
            _ => (rng.next() % 64) as f64 * 0.25 - 8.0,
        })
        .collect();
    NDArray::from_f64(shape, dtype, data).unwrap()
}

/// Runs `check` on every row extent × {f32, f16} with a few outer extents.
fn for_rows(seed: u64, mut check: impl FnMut(&mut XorShift, DataType, usize, usize)) {
    let mut rng = XorShift::new(seed);
    for dtype in [DataType::F32, DataType::F16] {
        for m in ROW_EXTENTS {
            let n = rng.range(1, 4);
            check(&mut rng, dtype, n, m);
        }
    }
}

/// `func` on seeded inputs of the given shapes: every argument filled by
/// [`rand_special`], outputs included (stores that read their own buffer
/// see the initial contents).
fn rows_match(func: &PrimFunc, rng: &mut XorShift, dtype: DataType, shapes: &[Vec<usize>]) {
    let args: Vec<NDArray> = shapes.iter().map(|s| rand_special(rng, s, dtype)).collect();
    assert_plan_matches(func, &args);
}

/// Layout copies: a 2-D transpose (strided load), a 3-D permute, a
/// head-merging store `O[i, h·m + j] = X[i, h, j]`, an offset slice and a
/// reversed (negative-stride) read.
fn layout_funcs(dtype: DataType) -> Vec<(PrimFunc, usize)> {
    let (n, m, c) = (Var::new("n"), Var::new("m"), Var::new("c"));
    let mut funcs = Vec::new();

    let x = Buffer::new("X", vec![m.clone().into(), n.clone().into()], dtype);
    let o = Buffer::new("O", vec![n.clone().into(), m.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.clone().into()), ("j", m.clone().into())]);
    let (i, j) = (iv[0].clone(), iv[1].clone());
    let body = nest.build(Stmt::store(
        &o,
        vec![i.clone().into(), j.clone().into()],
        TirExpr::load(&x, vec![j.into(), i.into()]),
    ));
    funcs.push((PrimFunc::new("transpose", vec![x, o], 1, body), 0));

    let x = Buffer::new(
        "X",
        vec![2.into(), n.clone().into(), m.clone().into()],
        dtype,
    );
    let o = Buffer::new(
        "O",
        vec![n.clone().into(), 2.into(), m.clone().into()],
        dtype,
    );
    let (iv, nest) = grid(&[
        ("i", n.clone().into()),
        ("h", 2.into()),
        ("j", m.clone().into()),
    ]);
    let (i, h, j) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
    let body = nest.build(Stmt::store(
        &o,
        vec![i.clone().into(), h.clone().into(), j.clone().into()],
        TirExpr::load(&x, vec![h.into(), i.into(), j.into()]),
    ));
    funcs.push((PrimFunc::new("permute3", vec![x, o], 1, body), 1));

    let x = Buffer::new(
        "X",
        vec![n.clone().into(), 2.into(), m.clone().into()],
        dtype,
    );
    let o = Buffer::new("O", vec![n.clone().into(), c.into()], dtype);
    let (iv, nest) = grid(&[
        ("i", n.clone().into()),
        ("h", 2.into()),
        ("j", m.clone().into()),
    ]);
    let (i, h, j) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
    let merged = PrimExpr::from(h.clone()) * PrimExpr::from(m.clone()) + PrimExpr::from(j.clone());
    let body = nest.build(Stmt::store(
        &o,
        vec![i.clone().into(), merged],
        TirExpr::load(&x, vec![i.into(), h.into(), j.into()]),
    ));
    funcs.push((PrimFunc::new("merge_heads", vec![x, o], 1, body), 2));

    let x = Buffer::new(
        "X",
        vec![n.clone().into(), PrimExpr::from(m.clone()) + 1.into()],
        dtype,
    );
    let o = Buffer::new("O", vec![n.clone().into(), m.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.clone().into()), ("j", m.clone().into())]);
    let (i, j) = (iv[0].clone(), iv[1].clone());
    let body = nest.build(Stmt::store(
        &o,
        vec![i.clone().into(), j.clone().into()],
        TirExpr::load(&x, vec![i.into(), PrimExpr::from(j) + 1.into()]),
    ));
    funcs.push((PrimFunc::new("slice", vec![x, o], 1, body), 3));

    let x = Buffer::new("X", vec![n.clone().into(), m.clone().into()], dtype);
    let o = Buffer::new("O", vec![n.clone().into(), m.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.into()), ("j", m.clone().into())]);
    let (i, j) = (iv[0].clone(), iv[1].clone());
    let reversed = PrimExpr::from(m) - 1.into() - PrimExpr::from(j.clone());
    let body = nest.build(Stmt::store(
        &o,
        vec![i.clone().into(), j.into()],
        TirExpr::load(&x, vec![i.into(), reversed]),
    ));
    funcs.push((PrimFunc::new("reverse", vec![x, o], 1, body), 4));
    funcs
}

#[test]
fn layout_copies_match_across_row_extents() {
    for_rows(0x5eed_0101, |rng, dtype, n, m| {
        for (f, kind) in layout_funcs(dtype) {
            let shapes = match kind {
                0 => vec![vec![m, n], vec![n, m]],
                1 => vec![vec![2, n, m], vec![n, 2, m]],
                2 => vec![vec![n, 2, m], vec![n, 2 * m]],
                3 => vec![vec![n, m + 1], vec![n, m]],
                _ => vec![vec![n, m], vec![n, m]],
            };
            rows_match(&f, rng, dtype, &shapes);
        }
    });
}

/// Broadcast loads: a stride-0 row operand `C[i]`, a column vector
/// `B[j]` and a constant, in one store.
fn broadcast_func(dtype: DataType) -> PrimFunc {
    let (n, m) = (Var::new("n"), Var::new("m"));
    let a = Buffer::new("A", vec![n.clone().into(), m.clone().into()], dtype);
    let b = Buffer::new("B", vec![m.clone().into()], dtype);
    let c = Buffer::new("C", vec![n.clone().into()], dtype);
    let o = Buffer::new("O", vec![n.clone().into(), m.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.into()), ("j", m.into())]);
    let (i, j) = (iv[0].clone(), iv[1].clone());
    let value = TirExpr::load(&a, vec![i.clone().into(), j.clone().into()])
        * TirExpr::load(&c, vec![i.clone().into()])
        + TirExpr::load(&b, vec![j.clone().into()])
        - TirExpr::FloatImm(0.5);
    let body = nest.build(Stmt::store(&o, vec![i.into(), j.into()], value));
    PrimFunc::new("broadcast", vec![a, b, c, o], 1, body)
}

#[test]
fn broadcast_loads_match_across_row_extents() {
    for_rows(0x5eed_0102, |rng, dtype, n, m| {
        let f = broadcast_func(dtype);
        rows_match(&f, rng, dtype, &[vec![n, m], vec![m], vec![n], vec![n, m]]);
    });
}

/// Unary chains: six stores in one innermost loop — each unary op alone,
/// then `-(sqrt(tanh(sigmoid(exp(x)))))` with a cast through f16.
fn unary_func(dtype: DataType) -> PrimFunc {
    let (n, m) = (Var::new("n"), Var::new("m"));
    let x = Buffer::new("X", vec![n.clone().into(), m.clone().into()], dtype);
    let outs: Vec<Buffer> = (0..6)
        .map(|k| {
            Buffer::new(
                format!("O{k}"),
                vec![n.clone().into(), m.clone().into()],
                dtype,
            )
        })
        .collect();
    let (iv, nest) = grid(&[("i", n.into()), ("j", m.into())]);
    let idx = vec![iv[0].clone().into(), iv[1].clone().into()];
    let xv = || Box::new(TirExpr::load(&x, idx.clone()));
    let chain = TirExpr::Neg(Box::new(TirExpr::Sqrt(Box::new(TirExpr::Tanh(Box::new(
        TirExpr::Sigmoid(Box::new(TirExpr::Cast(
            DataType::F16,
            Box::new(TirExpr::Exp(xv())),
        ))),
    ))))));
    let values = [
        TirExpr::Exp(xv()),
        TirExpr::Sigmoid(xv()),
        TirExpr::Tanh(xv()),
        TirExpr::Sqrt(xv()),
        TirExpr::Neg(xv()),
        chain,
    ];
    let stores = outs
        .iter()
        .zip(values)
        .map(|(o, v)| Stmt::store(o, idx.clone(), v))
        .collect();
    let mut params = vec![x];
    params.extend(outs);
    PrimFunc::new("unary_chain", params, 6, nest.build(Stmt::seq(stores)))
}

#[test]
fn unary_chains_match_across_row_extents() {
    for_rows(0x5eed_0103, |rng, dtype, n, m| {
        let f = unary_func(dtype);
        rows_match(&f, rng, dtype, &vec![vec![n, m]; 7]);
    });
}

/// Division, max and min, and a store that reads its own buffer at its
/// own index (`Y = Y·0.5 + A / B`).
fn div_max_min_func(dtype: DataType) -> PrimFunc {
    let (n, m) = (Var::new("n"), Var::new("m"));
    let shape = || vec![n.clone().into(), m.clone().into()];
    let a = Buffer::new("A", shape(), dtype);
    let b = Buffer::new("B", shape(), dtype);
    let o = Buffer::new("O", shape(), dtype);
    let y = Buffer::new("Y", shape(), dtype);
    let (iv, nest) = grid(&[("i", n.clone().into()), ("j", m.clone().into())]);
    let idx = vec![iv[0].clone().into(), iv[1].clone().into()];
    let ld = |buf: &Buffer| Box::new(TirExpr::load(buf, idx.clone()));
    let value = TirExpr::Max(
        Box::new(TirExpr::Div(ld(&a), ld(&b))),
        Box::new(TirExpr::Min(ld(&a), ld(&b))),
    );
    let acc =
        TirExpr::load(&y, idx.clone()) * TirExpr::FloatImm(0.5) + TirExpr::Div(ld(&a), ld(&b));
    let body = nest.build(Stmt::seq(vec![
        Stmt::store(&o, idx.clone(), value),
        Stmt::store(&y, idx.clone(), acc),
    ]));
    PrimFunc::new("div_max_min", vec![a, b, o, y], 2, body)
}

#[test]
fn div_max_min_match_across_row_extents() {
    for_rows(0x5eed_0104, |rng, dtype, n, m| {
        let f = div_max_min_func(dtype);
        rows_match(&f, rng, dtype, &vec![vec![n, m]; 4]);
    });
}

/// An eight-input add chain, `((X0 + X1) + X2) + … + X7`.
fn add_chain_func(dtype: DataType) -> PrimFunc {
    let (n, m) = (Var::new("n"), Var::new("m"));
    let xs: Vec<Buffer> = (0..8)
        .map(|k| {
            Buffer::new(
                format!("X{k}"),
                vec![n.clone().into(), m.clone().into()],
                dtype,
            )
        })
        .collect();
    let o = Buffer::new("O", vec![n.clone().into(), m.clone().into()], dtype);
    let (iv, nest) = grid(&[("i", n.into()), ("j", m.into())]);
    let idx = vec![iv[0].clone().into(), iv[1].clone().into()];
    let sum = xs[1..]
        .iter()
        .fold(TirExpr::load(&xs[0], idx.clone()), |acc, x| {
            acc + TirExpr::load(x, idx.clone())
        });
    let body = nest.build(Stmt::store(&o, idx, sum));
    let mut params = xs;
    params.push(o);
    PrimFunc::new("add8", params, 1, body)
}

#[test]
fn add_chain_of_eight_inputs_matches_across_row_extents() {
    for_rows(0x5eed_0105, |rng, dtype, n, m| {
        let f = add_chain_func(dtype);
        rows_match(&f, rng, dtype, &vec![vec![n, m]; 9]);
    });
}

// -- loops whose element order is observable: they must keep it -------------

/// Deep-copies `args`, then makes argument `alias` share the storage of
/// argument `target`, for the interpreter and the plan alike.
fn assert_plan_matches_aliased(func: &PrimFunc, args: &[NDArray], alias: usize, target: usize) {
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let compiled = plan::compile(func, &shapes).unwrap();
    let aliased = || {
        let mut copy: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
        copy[alias] = copy[target].clone();
        copy
    };
    let (reference, planned) = (aliased(), aliased());
    interp::run(func, &reference).unwrap();
    compiled.run(&planned, 1).unwrap();
    for (i, r) in reference.iter().enumerate() {
        assert_eq!(
            bits(r),
            bits(&planned[i]),
            "{} arg {i} at {shapes:?}",
            func.name()
        );
    }
}

/// Asserts the plan refuses `args`, naming argument `arg`, and the
/// interpreter still runs them.
fn assert_refused(func: &PrimFunc, args: &[NDArray], arg: &str) {
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let err = plan::compile(func, &shapes)
        .unwrap()
        .run(args, 1)
        .unwrap_err();
    assert!(
        matches!(&err, InterpError::ShapeMismatch { buffer, .. } if buffer == arg),
        "{}: want {arg} refused, got {err}",
        func.name()
    );
    interp::run(func, args).unwrap();
}

#[test]
fn in_place_reversal_through_one_storage_is_refused() {
    // O[i, j] = 2·X[i, m-1-j] with O and X one storage: each element
    // would read a cell an earlier element may already have overwritten.
    for_rows(0x5eed_0106, |rng, dtype, n, m| {
        let (nv, mv) = (Var::new("n"), Var::new("m"));
        let x = Buffer::new("X", vec![nv.clone().into(), mv.clone().into()], dtype);
        let o = Buffer::new("O", vec![nv.clone().into(), mv.clone().into()], dtype);
        let (iv, nest) = grid(&[("i", nv.into()), ("j", mv.clone().into())]);
        let (i, j) = (iv[0].clone(), iv[1].clone());
        let reversed = PrimExpr::from(mv) - 1.into() - PrimExpr::from(j.clone());
        let body = nest.build(Stmt::store(
            &o,
            vec![i.clone().into(), j.into()],
            TirExpr::load(&x, vec![i.into(), reversed]) * TirExpr::FloatImm(2.0),
        ));
        let f = PrimFunc::new("reverse_in_place", vec![x, o], 1, body);
        let x = rand_special(rng, &[n, m], dtype);
        assert_refused(&f, &[x.clone(), x], "arg1");
    });
}

#[test]
fn elementwise_square_of_one_storage_runs_a_row_and_matches() {
    // O = X·X with both inputs one storage: a read-only alias.
    for_rows(0x5eed_010a, |rng, dtype, n, m| {
        let (nv, mv) = (Var::new("n"), Var::new("m"));
        let shape = || vec![nv.clone().into(), mv.clone().into()];
        let (a, b, o) = (
            Buffer::new("A", shape(), dtype),
            Buffer::new("B", shape(), dtype),
            Buffer::new("O", shape(), dtype),
        );
        let (iv, nest) = grid(&[("i", nv.clone().into()), ("j", mv.clone().into())]);
        let idx = vec![iv[0].clone().into(), iv[1].clone().into()];
        let value = TirExpr::load(&a, idx.clone()) * TirExpr::load(&b, idx.clone());
        let body = nest.build(Stmt::store(&o, idx, value));
        let f = PrimFunc::new("square", vec![a, b, o], 1, body);
        let shapes = vec![vec![n, m]; 3];
        assert_eq!(plan::compile(&f, &shapes).unwrap().scalar_stores(), 0);
        let args: Vec<NDArray> = shapes.iter().map(|s| rand_special(rng, s, dtype)).collect();
        assert_plan_matches_aliased(&f, &args, 1, 0);
    });
}

#[test]
fn scheduled_square_matmul_of_one_storage_runs_the_macro_and_matches() {
    // Y = X·X through the blocked matmul with both operands one storage.
    for_rows(0x5eed_010b, |rng, dtype, _, m| {
        let f = relax_tir::schedule::auto_schedule(&matmul_func(dtype)).unwrap();
        let shapes = vec![vec![m, m]; 3];
        assert!(plan::compile(&f, &shapes).unwrap().scheduled());
        let args: Vec<NDArray> = shapes.iter().map(|s| rand_special(rng, s, dtype)).collect();
        assert_plan_matches_aliased(&f, &args, 1, 0);
    });
}

#[test]
fn recurrence_over_the_row_matches() {
    // X[i, j+1] = X[i, j] + Y[i, j+1]: each element reads the one the
    // previous element stored.
    for_rows(0x5eed_0107, |rng, dtype, n, m| {
        let (nv, mv) = (Var::new("n"), Var::new("m"));
        let y = Buffer::new("Y", vec![nv.clone().into(), mv.clone().into()], dtype);
        let x = Buffer::new("X", vec![nv.clone().into(), mv.clone().into()], dtype);
        let (iv, nest) = grid(&[("i", nv.into()), ("j", PrimExpr::from(mv) - 1.into())]);
        let (i, j) = (iv[0].clone(), iv[1].clone());
        let next = PrimExpr::from(j.clone()) + 1.into();
        let body = nest.build(Stmt::store(
            &x,
            vec![i.clone().into(), next.clone()],
            TirExpr::load(&x, vec![i.clone().into(), j.into()])
                + TirExpr::load(&y, vec![i.into(), next]),
        ));
        let f = PrimFunc::new("prefix_sum", vec![y, x], 1, body);
        rows_match(&f, rng, dtype, &[vec![n, m], vec![n, m]]);
    });
}

#[test]
fn second_store_reading_the_first_ahead_matches() {
    // A[i, j] = 2·X[i, j]; B[i, j] = A[i, j+1] + 1 in one loop: element j
    // of B reads the A cell element j+1 has not stored yet.
    for_rows(0x5eed_0108, |rng, dtype, n, m| {
        let (nv, mv) = (Var::new("n"), Var::new("m"));
        let wide = || vec![nv.clone().into(), PrimExpr::from(mv.clone()) + 1.into()];
        let x = Buffer::new("X", wide(), dtype);
        let a = Buffer::new("A", wide(), dtype);
        let b = Buffer::new("B", vec![nv.clone().into(), mv.clone().into()], dtype);
        let (iv, nest) = grid(&[("i", nv.into()), ("j", mv.into())]);
        let (i, j) = (iv[0].clone(), iv[1].clone());
        let at = vec![i.clone().into(), j.clone().into()];
        let ahead = vec![i.into(), PrimExpr::from(j) + 1.into()];
        let body = nest.build(Stmt::seq(vec![
            Stmt::store(
                &a,
                at.clone(),
                TirExpr::load(&x, at.clone()) * TirExpr::FloatImm(2.0),
            ),
            Stmt::store(&b, at, TirExpr::load(&a, ahead) + TirExpr::FloatImm(1.0)),
        ]));
        let f = PrimFunc::new("read_ahead", vec![x, a, b], 2, body);
        rows_match(
            &f,
            rng,
            dtype,
            &[vec![n, m + 1], vec![n, m + 1], vec![n, m]],
        );
    });
}

#[test]
fn stride_zero_store_matches() {
    // S[i] = S[i] + X[i, j]: every element of the row stores one cell.
    for_rows(0x5eed_0109, |rng, dtype, n, m| {
        let (nv, mv) = (Var::new("n"), Var::new("m"));
        let x = Buffer::new("X", vec![nv.clone().into(), mv.clone().into()], dtype);
        let s = Buffer::new("S", vec![nv.clone().into()], dtype);
        let (iv, nest) = grid(&[("i", nv.into()), ("j", mv.into())]);
        let (i, j) = (iv[0].clone(), iv[1].clone());
        let body = nest.build(Stmt::store(
            &s,
            vec![i.clone().into()],
            TirExpr::load(&s, vec![i.clone().into()]) + TirExpr::load(&x, vec![i.into(), j.into()]),
        ));
        let f = PrimFunc::new("row_sum", vec![x, s], 1, body);
        rows_match(&f, rng, dtype, &[vec![n, m], vec![n]]);
    });
}

#[test]
fn every_row_family_runs_a_row_at_a_time() {
    let (n, m) = (3, 7);
    for dtype in [DataType::F32, DataType::F16] {
        let mut families: Vec<(PrimFunc, Vec<Vec<usize>>)> = vec![
            (
                broadcast_func(dtype),
                vec![vec![n, m], vec![m], vec![n], vec![n, m]],
            ),
            (unary_func(dtype), vec![vec![n, m]; 7]),
            (div_max_min_func(dtype), vec![vec![n, m]; 4]),
            (add_chain_func(dtype), vec![vec![n, m]; 9]),
        ];
        let layouts = [
            vec![vec![m, n], vec![n, m]],
            vec![vec![2, n, m], vec![n, 2, m]],
            vec![vec![n, 2, m], vec![n, 2 * m]],
            vec![vec![n, m + 1], vec![n, m]],
            vec![vec![n, m], vec![n, m]],
        ];
        families.extend(
            layout_funcs(dtype)
                .into_iter()
                .map(|(f, kind)| (f, layouts[kind].clone())),
        );
        for (f, shapes) in families {
            let compiled = plan::compile(&f, &shapes).unwrap();
            assert_eq!(
                compiled.scalar_stores(),
                0,
                "{} left stores on the scalar tape",
                f.name()
            );
        }
    }
}

#[test]
fn only_element_order_independent_loops_become_rows() {
    let x = Buffer::new("X", vec![9.into()], DataType::F32);
    let y = Buffer::new("Y", vec![9.into()], DataType::F32);
    let j = Var::new("j");
    let at = |d: i64| vec![PrimExpr::from(j.clone()) + d.into()];
    let ld = |b: &Buffer, d: i64| TirExpr::load(b, at(d));
    let func = |body: Vec<Stmt>| {
        let body = Stmt::seq(body).in_loop(j.clone(), 8.into());
        PrimFunc::new("f", vec![x.clone(), y.clone()], 1, body)
    };
    let compiled = |f: &PrimFunc| plan::compile(f, &[vec![9], vec![9]]).unwrap();
    // A store reading its own cell and a shifted input is a row; a
    // recurrence, a second store reading the first ahead, a stride-0
    // store and an integer tape keep the element order.
    let sum = TirExpr::load(&y, vec![0.into()]) + ld(&x, 0);
    let index = TirExpr::Index(j.clone().into());
    let cases = [
        (vec![Stmt::store(&y, at(0), ld(&x, 1) + ld(&y, 0))], 0),
        (vec![Stmt::store(&y, at(1), ld(&y, 0) + ld(&x, 0))], 1),
        (
            vec![
                Stmt::store(&x, at(0), 1.0.into()),
                Stmt::store(&y, at(0), ld(&x, 1)),
            ],
            2,
        ),
        (vec![Stmt::store(&y, vec![0.into()], sum)], 1),
        (vec![Stmt::store(&y, at(0), index)], 1),
    ];
    for (body, scalar) in cases {
        let f = func(body);
        assert_eq!(compiled(&f).scalar_stores(), scalar, "{f}");
    }
    // Integer arrays bound to a row's float buffers break the launch
    // contract: the plan refuses them.
    let value = ld(&x, 1) * 2.5.into() + ld(&y, 0);
    let f = func(vec![Stmt::store(&y, at(0), value)]);
    let ints = |k: i64| NDArray::from_i64(&[9], DataType::I64, (0..9).map(|v| v * k - 4).collect());
    assert_refused(&f, &[ints(1).unwrap(), ints(-3).unwrap()], "arg0");
}

#[test]
fn checked_index_errors_keep_the_interpreters_precedence() {
    // A negative index in any dimension wins over an earlier one out
    // of range; among out-of-range dimensions the first is reported.
    for (d0, d1) in [(2, -1), (3, 4), (0, 5)] {
        let y = Buffer::new("Y", vec![2.into(), 3.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", 2.into())]);
        let i = PrimExpr::from(iv[0].clone());
        let idx = vec![i.clone() + d0.into(), i + d1.into()];
        let f = PrimFunc::new(
            "bad",
            vec![y.clone()],
            1,
            nest.build(Stmt::store(&y, idx, 1.0.into())),
        );
        let out = || [NDArray::zeros(&[2, 3], DataType::F32)];
        let planned = plan::compile(&f, &[vec![2, 3]])
            .unwrap()
            .run(&out(), 1)
            .unwrap_err();
        assert_eq!(
            planned,
            interp::run(&f, &out()).unwrap_err(),
            "Y[i + {d0}, i + {d1}]"
        );
    }
}
