//! Storage round trip: a float value written through any store path and
//! read back through any read path keeps exactly the bits
//! `round_to_dtype(v, dtype)` gives it, and the reference interpreter's
//! store of the same value agrees.
//!
//! Store paths: `NDArray::set`, `fill` and `copy_range_from`, a plan's
//! scalar-tape store, a `PStmt::Row` store and a `MacroMatmul` store.
//! Read paths: `get`, `to_f64_vec`, `read_f64_range` and a plan load (on
//! a row and on the scalar tape). The values are the ones a narrower cell
//! could mangle: signed zeros, infinities, NaN payloads, the smallest f32
//! subnormal, `f32::MAX`, values the f32 conversion rounds, and values on
//! either side of the f16 truncation boundary.
//!
//! Run it in release too: rows are vectorized only there.

use relax_arith::{DataType, PrimExpr};
use relax_tir::{
    grid, interp, plan, round_to_dtype, schedule, Buffer, NDArray, PrimFunc, Scalar, Stmt, TirExpr,
};

const DTYPES: [DataType; 2] = [DataType::F32, DataType::F16];

/// Elements each row-store loop writes: past one vector width, with a
/// remainder.
const ROW: usize = 9;

fn values() -> Vec<f64> {
    // f16 keeps 10 mantissa bits: `ulp16` is its step at 1.0 and `ulp32`
    // f32's.
    let (ulp16, ulp32) = (2f64.powi(-10), 2f64.powi(-23));
    vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_0000_0000_0000),
        f64::from_bits(0x7ffc_0000_2000_0000),
        f64::from_bits(0x7ff9_2340_0000_0000),
        f64::from_bits(0xfffa_0000_0000_0000),
        f32::from_bits(1) as f64,
        -(f32::from_bits(1) as f64),
        f32::MAX as f64,
        1e300,
        0.1,
        1.0 + ulp16,
        1.0 + ulp16 - ulp32,
        1.0 + ulp16 + ulp32,
        1.0 + ulp16 - ulp32 / 128.0,
        -(1.0 + ulp16 - ulp32),
        -3.0,
    ]
}

/// The bits every path must produce for `v` in a `dtype` cell.
fn want(v: f64, dtype: DataType) -> u64 {
    round_to_dtype(v, dtype).to_bits()
}

fn bits(a: &NDArray) -> Vec<u64> {
    a.to_f64_vec().into_iter().map(f64::to_bits).collect()
}

fn vector(n: usize, dtype: DataType) -> Buffer {
    Buffer::new("X", vec![(n as i64).into()], dtype)
}

/// `Y[i] = X[i]`: a row copy, so reads go through the row load.
fn row_copy(n: usize, dtype: DataType) -> PrimFunc {
    let (x, y) = (
        vector(n, dtype),
        Buffer::new("Y", vec![(n as i64).into()], dtype),
    );
    let (iv, nest) = grid(&[("i", (n as i64).into())]);
    let i = iv[0].clone();
    let body = nest.build(Stmt::store(
        &y,
        vec![i.clone().into()],
        TirExpr::load(&x, vec![i.into()]),
    ));
    PrimFunc::new("row_copy", vec![x, y], 1, body)
}

/// `Y[i] = select(0 <= i, X[i], X[i])`: a `Select` keeps the copy on the
/// scalar tape, so reads go through the tape's load.
fn tape_copy(n: usize, dtype: DataType) -> PrimFunc {
    let (x, y) = (
        vector(n, dtype),
        Buffer::new("Y", vec![(n as i64).into()], dtype),
    );
    let (iv, nest) = grid(&[("i", (n as i64).into())]);
    let i = iv[0].clone();
    let load = || TirExpr::load(&x, vec![i.clone().into()]);
    let value = TirExpr::Select(
        Box::new(TirExpr::IndexLe(0.into(), i.clone().into())),
        Box::new(load()),
        Box::new(load()),
    );
    let body = nest.build(Stmt::store(&y, vec![i.into()], value));
    PrimFunc::new("tape_copy", vec![x, y], 1, body)
}

/// `Y[k] = v_k` for every value, one store each and no loop: every store
/// runs on the scalar tape.
fn const_stores(vals: &[f64], dtype: DataType) -> PrimFunc {
    let y = vector(vals.len(), dtype);
    let stores = vals
        .iter()
        .enumerate()
        .map(|(k, v)| Stmt::store(&y, vec![(k as i64).into()], TirExpr::FloatImm(*v)))
        .collect();
    PrimFunc::new("const_stores", vec![y], 1, Stmt::seq(stores))
}

/// `for j in 0..ROW { Y[k·ROW + j] = v_k }` for every value: every store
/// runs as a row.
fn const_rows(vals: &[f64], dtype: DataType) -> PrimFunc {
    let y = vector(vals.len() * ROW, dtype);
    let loops = vals
        .iter()
        .enumerate()
        .map(|(k, v)| {
            let (iv, nest) = grid(&[("j", (ROW as i64).into())]);
            let at = PrimExpr::from(iv[0].clone()) + PrimExpr::from((k * ROW) as i64);
            nest.build(Stmt::store(&y, vec![at], TirExpr::FloatImm(*v)))
        })
        .collect();
    PrimFunc::new("const_rows", vec![y], 1, Stmt::seq(loops))
}

/// `Y[i, j] = -0 + Σ_k X[i, k] · W[k, j]` over `X: [n, 1]` and the 1×1
/// identity `W`, auto-scheduled into a `MacroMatmul`. The `-0` init is
/// the additive identity for every value, so each `Y[i, 0]` is `X[i, 0]`.
fn identity_matmul(n: usize, dtype: DataType) -> PrimFunc {
    let x = Buffer::new("X", vec![(n as i64).into(), 1.into()], dtype);
    let w = Buffer::new("W", vec![1.into(), 1.into()], dtype);
    let y = Buffer::new("Y", vec![(n as i64).into(), 1.into()], dtype);
    let (iv, nest) = grid(&[("i", (n as i64).into()), ("j", 1.into()), ("k", 1.into())]);
    let (i, j, k) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
    let init = Stmt::IfEq {
        lhs: k.clone().into(),
        rhs: 0.into(),
        then: Box::new(Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::FloatImm(-0.0),
        )),
    };
    let update = Stmt::store(
        &y,
        vec![i.clone().into(), j.clone().into()],
        TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
            + TirExpr::load(&x, vec![i.into(), k.clone().into()])
                * TirExpr::load(&w, vec![k.into(), j.into()]),
    );
    let f = PrimFunc::new(
        "mm",
        vec![x, w, y],
        1,
        nest.build(Stmt::seq(vec![init, update])),
    );
    schedule::auto_schedule(&f).expect("the identity matmul should auto-schedule")
}

/// An array holding `vals`, written one `set` at a time.
fn set_each(vals: &[f64], dtype: DataType) -> NDArray {
    let a = NDArray::zeros(&[vals.len()], dtype);
    for (k, v) in vals.iter().enumerate() {
        a.set(k, Scalar::F(*v)).unwrap();
    }
    a
}

/// Asserts that every read path sees `expected[k]` at element `k` of `a`,
/// and that the reference interpreter's copies agree with the plans'.
fn assert_reads(path: &str, a: &NDArray, expected: &[u64]) {
    let (n, dtype) = (a.numel(), a.dtype());
    assert_eq!(n, expected.len(), "{path}: element count");
    let ctx = |how: &str, k: usize| format!("{path} {dtype}, read by {how}, element {k}");

    for (k, &w) in expected.iter().enumerate() {
        assert_eq!(a.get(k).unwrap().as_f64().to_bits(), w, "{}", ctx("get", k));
        let mut one = [0.0];
        a.read_f64_range(k, &mut one).unwrap();
        assert_eq!(one[0].to_bits(), w, "{}", ctx("read_f64_range of one", k));
    }
    let mut whole = vec![0.0; n];
    a.read_f64_range(0, &mut whole).unwrap();
    let sources: [(&str, Vec<u64>); 2] = [
        ("to_f64_vec", bits(a)),
        (
            "read_f64_range",
            whole.into_iter().map(f64::to_bits).collect(),
        ),
    ];
    for (how, got) in &sources {
        for (k, (g, w)) in got.iter().zip(expected).enumerate() {
            assert_eq!(g, w, "{}", ctx(how, k));
        }
    }

    for (how, f, on_tape) in [
        ("a row load", row_copy(n, dtype), 0),
        ("a tape load", tape_copy(n, dtype), 1),
    ] {
        let compiled = plan::compile(&f, &[vec![n], vec![n]]).unwrap();
        assert_eq!(compiled.scalar_stores(), on_tape, "{}", ctx(how, 0));
        let planned = NDArray::zeros(&[n], dtype);
        compiled.run(&[a.clone(), planned.clone()], 1).unwrap();
        let reference = NDArray::zeros(&[n], dtype);
        interp::run(&f, &[a.clone(), reference.clone()]).unwrap();
        for (k, ((p, r), w)) in bits(&planned)
            .iter()
            .zip(bits(&reference))
            .zip(expected)
            .enumerate()
        {
            assert_eq!(*p, *w, "{}", ctx(how, k));
            assert_eq!(
                r,
                *w,
                "{}",
                ctx(&format!("the interpreter's copy of {how}"), k)
            );
        }
    }
}

/// The reference: the interpreter storing each value as a constant.
fn interpreted(vals: &[f64], dtype: DataType) -> Vec<u64> {
    let y = NDArray::zeros(&[vals.len()], dtype);
    interp::run(&const_stores(vals, dtype), std::slice::from_ref(&y)).unwrap();
    bits(&y)
}

fn expected(vals: &[f64], dtype: DataType) -> Vec<u64> {
    let want: Vec<u64> = vals.iter().map(|v| want(*v, dtype)).collect();
    assert_eq!(
        interpreted(vals, dtype),
        want,
        "interpreter vs round_to_dtype, {dtype}"
    );
    want
}

#[test]
fn set_round_trips_every_value() {
    let vals = values();
    for dtype in DTYPES {
        assert_reads("set", &set_each(&vals, dtype), &expected(&vals, dtype));
    }
}

#[test]
fn fill_round_trips_every_value() {
    let vals = values();
    for dtype in DTYPES {
        let want = expected(&vals, dtype);
        for (v, w) in vals.iter().zip(want) {
            let a = NDArray::zeros(&[3], dtype);
            a.fill(Scalar::F(*v));
            assert_reads(&format!("fill({v:?})"), &a, &[w; 3]);
        }
    }
}

#[test]
fn copy_range_from_round_trips_every_value() {
    let vals = values();
    let n = vals.len();
    for dtype in DTYPES {
        let src = set_each(&vals, dtype);
        // One bulk range, then one element at a time in reverse order.
        let bulk = NDArray::zeros(&[n], dtype);
        bulk.copy_range_from(0, &src, 0, n).unwrap();
        let single = NDArray::zeros(&[n], dtype);
        for k in (0..n).rev() {
            single.copy_range_from(k, &src, k, 1).unwrap();
        }
        let want = expected(&vals, dtype);
        assert_reads("copy_range_from", &bulk, &want);
        assert_reads("copy_range_from of one", &single, &want);
    }
}

#[test]
fn scalar_tape_stores_round_trip_every_value() {
    let vals = values();
    for dtype in DTYPES {
        let f = const_stores(&vals, dtype);
        let compiled = plan::compile(&f, &[vec![vals.len()]]).unwrap();
        assert_eq!(
            compiled.scalar_stores(),
            vals.len(),
            "every store on the tape"
        );
        let y = NDArray::zeros(&[vals.len()], dtype);
        compiled.run(std::slice::from_ref(&y), 1).unwrap();
        assert_reads("scalar-tape store", &y, &expected(&vals, dtype));
    }
}

#[test]
fn row_stores_round_trip_every_value() {
    let vals = values();
    let n = vals.len() * ROW;
    for dtype in DTYPES {
        let f = const_rows(&vals, dtype);
        let compiled = plan::compile(&f, &[vec![n]]).unwrap();
        assert_eq!(compiled.scalar_stores(), 0, "every store a row");
        let planned = NDArray::zeros(&[n], dtype);
        compiled.run(std::slice::from_ref(&planned), 1).unwrap();
        let reference = NDArray::zeros(&[n], dtype);
        interp::run(&f, std::slice::from_ref(&reference)).unwrap();
        assert_eq!(
            bits(&planned),
            bits(&reference),
            "row stores vs interpreter, {dtype}"
        );
        let want: Vec<u64> = expected(&vals, dtype)
            .into_iter()
            .flat_map(|w| [w; ROW])
            .collect();
        assert_reads("row store", &planned, &want);
    }
}

#[test]
fn macro_matmul_stores_round_trip_every_value() {
    let vals = values();
    let n = vals.len();
    for dtype in DTYPES {
        let f = identity_matmul(n, dtype);
        let shapes = [vec![n, 1], vec![1, 1], vec![n, 1]];
        let compiled = plan::compile(&f, &shapes).unwrap();
        assert!(
            compiled.scheduled(),
            "the matmul should run as a MacroMatmul"
        );
        let x = set_each(&vals, dtype).reshaped(&[n, 1]).unwrap();
        let w = NDArray::from_f64(&[1, 1], dtype, vec![1.0]).unwrap();
        let planned = NDArray::zeros(&[n, 1], dtype);
        compiled
            .run(&[x.clone(), w.clone(), planned.clone()], 1)
            .unwrap();
        let reference = NDArray::zeros(&[n, 1], dtype);
        interp::run(&f, &[x, w, reference.clone()]).unwrap();
        assert_eq!(
            bits(&planned),
            bits(&reference),
            "MacroMatmul vs interpreter, {dtype}"
        );
        assert_reads(
            "MacroMatmul store",
            &planned.reshaped(&[n]).unwrap(),
            &expected(&vals, dtype),
        );
    }
}
