//! Differential property test for the schedule layer: every combination
//! of the schedule primitives (`tile` × `reorder` × `unroll` ×
//! `cache_block`) applied to a matmul must compile to a plan whose
//! results are bit-identical to the unscheduled plan and to the
//! reference interpreter across randomly drawn shapes and dtypes.
//!
//! The generator is a seeded xorshift64* so failures reproduce exactly.

use relax_arith::DataType;
use relax_tir::{grid, interp, plan, Buffer, NDArray, PrimFunc, Schedule, Stmt, TirExpr};

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

/// Concrete-shape matmul with the `IfEq` reduction init, the nest every
/// schedule primitive targets.
fn matmul(n: usize, k: usize, m: usize, dtype: DataType) -> PrimFunc {
    let x = Buffer::new(
        "X",
        vec![(n as i64).into(), (k as i64).into()],
        dtype,
    );
    let w = Buffer::new(
        "W",
        vec![(k as i64).into(), (m as i64).into()],
        dtype,
    );
    let y = Buffer::new(
        "Y",
        vec![(n as i64).into(), (m as i64).into()],
        dtype,
    );
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
    PrimFunc::new("mm", vec![x, w, y], 1, nest.build(Stmt::seq(vec![init, update])))
}

/// Applies the primitives selected by `mask` (bit 0 = cache_block,
/// bit 1 = tile, bit 2 = reorder, bit 3 = unroll) in an order where each
/// is applicable, returning the scheduled function.
fn apply_mask(f: &PrimFunc, mask: u32, bi: usize, bj: usize, tk: usize) -> PrimFunc {
    let mut s = Schedule::new(f);
    let cache_block = mask & 1 != 0;
    if cache_block {
        s.cache_block("i", "j", bi as i64, bj as i64).unwrap();
    }
    if mask & 2 != 0 {
        // `cache_block` consumed i and j, so tile the reduction instead
        // (order-preserving splits are always legal).
        if cache_block {
            s.tile("k", tk as i64).unwrap();
        } else {
            s.tile("i", bi as i64).unwrap();
        }
    }
    if mask & 4 != 0 {
        // Swap the outermost spatial pair — distinct store dims on both
        // branches, so the reorder passes the legality check.
        if cache_block {
            s.reorder(&["j.o", "i.o"]).unwrap();
        } else if mask & 2 != 0 {
            s.reorder(&["j", "i.o"]).unwrap();
        } else {
            s.reorder(&["j", "i"]).unwrap();
        }
    }
    if mask & 8 != 0 {
        let inner_k = if cache_block && mask & 2 != 0 {
            "k.i"
        } else {
            "k"
        };
        s.unroll(inner_k).unwrap();
    }
    s.into_func()
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
fn all_primitive_combinations_match_bitwise_across_random_shapes() {
    let mut rng = XorShift::new(0x5eed_5c4d);
    for mask in 0..16u32 {
        for trial in 0..3 {
            let dtype = if (mask + trial) % 2 == 0 {
                DataType::F32
            } else {
                DataType::F16
            };
            // Block sizes first, shapes as multiples, so every tile and
            // cache_block divides exactly.
            let (bi, bj, tk) = (rng.range(2, 4), rng.range(2, 4), rng.range(2, 3));
            let n = bi * rng.range(1, 3);
            let m = bj * rng.range(1, 3);
            let k = tk * rng.range(1, 3);
            let f = matmul(n, k, m, dtype);
            let sched = apply_mask(&f, mask, bi, bj, tk);
            assert!(
                sched.attr("relax.schedule").is_some() || mask == 0,
                "mask {mask:04b} should record a transcript"
            );
            let x = rand_floats(&mut rng, &[n, k], dtype);
            let w = rand_floats(&mut rng, &[k, m], dtype);
            let y = NDArray::zeros(&[n, m], dtype);
            assert_schedule_matches(&f, &sched, &[x, w, y]);
        }
    }
}

#[test]
fn integer_matmul_schedules_stay_bitwise() {
    // An integer-declared matmul never becomes a macro-op (its operands
    // and output are not float); the scheduled plan runs the scalar tape
    // and must still agree exactly.
    let mut rng = XorShift::new(0x5eed_5c4e);
    for mask in [1u32, 3, 7, 15] {
        let (bi, bj, tk) = (2, 2, 2);
        let (n, k, m) = (bi * 2, tk * 2, bj * 2);
        let f = matmul(n, k, m, DataType::I64);
        let sched = apply_mask(&f, mask, bi, bj, tk);
        let x = rand_ints(&mut rng, &[n, k], DataType::I64);
        let w = rand_ints(&mut rng, &[k, m], DataType::I64);
        let y = NDArray::zeros(&[n, m], DataType::I64);
        assert_schedule_matches(&f, &sched, &[x, w, y]);
    }
}

#[test]
fn auto_schedule_macro_path_matches_across_random_shapes() {
    // The pipeline's auto-scheduled macro plans, over random shapes that
    // do and do not hit the register-block boundary (BJ = 64).
    let mut rng = XorShift::new(0x5eed_5c4f);
    for _ in 0..4 {
        let (n, k) = (rng.range(1, 9), rng.range(1, 9));
        let m = [1, 63, 64, 65][rng.range(0, 3)];
        let f = matmul(n, k, m, DataType::F32);
        let sched =
            relax_tir::schedule::auto_schedule(&f).expect("matmul nest should auto-schedule");
        let x = rand_floats(&mut rng, &[n, k], DataType::F32);
        let w = rand_floats(&mut rng, &[k, m], DataType::F32);
        let y = NDArray::zeros(&[n, m], DataType::F32);
        assert_schedule_matches(&f, &sched, &[x, w, y]);
    }
}
