//! The host roofline is a floor no measured kernel may beat.
//!
//! `relax-sim` prices kernels from a traffic model (`KernelProfile`) over
//! a roofline (`Roofline::host_cpu()`). Here the auto-scheduled 96×64×64
//! matmul — the blocked macro-op plan the pipeline emits for every matmul
//! nest — runs on the executor, and even its fastest run must take at
//! least the roofline's minimum time. A fraction above 1 means the
//! traffic model undercounts the kernel's work or the executor skips it.

use std::time::Instant;

use relax_core::{legalize, DataType, Op, OpAttrs, StructInfo};
use relax_sim::{KernelProfile, Roofline};
use relax_tir::{plan, schedule, NDArray};

fn filled(dims: &[usize], period: usize) -> NDArray {
    let n: usize = dims.iter().product();
    NDArray::from_f64(
        dims,
        DataType::F32,
        (0..n).map(|i| (i % period) as f64 * 0.125).collect(),
    )
    .unwrap()
}

#[test]
fn scheduled_matmul_never_beats_the_host_roofline() {
    let (m, k, n) = (96usize, 64usize, 64usize);
    let info = |r: usize, c: usize| {
        StructInfo::tensor(vec![(r as i64).into(), (c as i64).into()], DataType::F32)
    };
    let mm = legalize(Op::Matmul, &OpAttrs::new(), &[info(m, k), info(k, n)], "mm").unwrap();
    let args = [
        filled(&[m, k], 13),
        filled(&[k, n], 7),
        NDArray::zeros(&[m, n], DataType::F32),
    ];
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let sched = plan::compile(&schedule::auto_schedule(&mm).unwrap(), &shapes).unwrap();
    assert!(
        sched.scheduled(),
        "the matmul nest should compile to a macro-op plan"
    );

    let fastest_s = (0..5)
        .map(|_| {
            let t = Instant::now();
            sched.run(&args, 1).unwrap();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let roof = Roofline::host_cpu();
    let profile = KernelProfile::matmul_blocked(m, n, k, DataType::F32.size_bytes());
    let fraction = roof.fraction(&profile, fastest_s);
    assert!(
        fraction <= 1.0,
        "scheduled matmul ran in {:.1} us, {fraction:.2}x of the host roofline ({:?}-bound)",
        fastest_s * 1e6,
        roof.bound(&profile)
    );
}
