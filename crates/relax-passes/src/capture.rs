//! Graph offloading (§4.5): the CUDA Graph model.
//!
//! After static memory planning, maximal runs of kernel launches whose
//! memory comes from planned storage are wrapped into `CaptureRegion`s.
//! The VM captures such a region on first execution and replays it on
//! subsequent executions with a single launch overhead — re-capturing
//! whenever the symbolic shapes feeding the region change (the region's
//! key expressions).

use std::collections::BTreeSet;

use relax_arith::{PrimExpr, Var as SymVar};
use relax_vm::{Instr, VmFunction};

/// Minimum number of kernel launches for a region to be worth capturing.
const MIN_KERNELS: usize = 2;

fn capturable(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::CallTir { .. }
            | Instr::CallLib { .. }
            | Instr::TensorFromStorage { .. }
            | Instr::Kill { .. }
    )
}

fn is_kernel(instr: &Instr) -> bool {
    matches!(instr, Instr::CallTir { .. } | Instr::CallLib { .. })
}

fn collect_sym_vars(instr: &Instr, out: &mut BTreeSet<SymVar>) {
    let mut exprs: Vec<&PrimExpr> = Vec::new();
    match instr {
        Instr::TensorFromStorage { shape, .. } | Instr::AllocTensor { shape, .. } => {
            exprs.extend(shape.iter());
        }
        Instr::CallTir { sym_args, .. } => exprs.extend(sym_args.iter()),
        Instr::AllocStorage { bytes, .. } => exprs.push(bytes),
        Instr::MakeShape { dims, .. } | Instr::MatchShape { dims, .. } => exprs.extend(dims.iter()),
        _ => {}
    }
    for e in exprs {
        out.extend(relax_arith::free_vars(e));
    }
}

/// Wraps maximal capturable instruction runs in `CaptureRegion`s.
///
/// Only meaningful after [`crate::plan_memory`]: a function still
/// containing dynamic `AllocTensor`s gets no regions around them. Returns
/// the rewritten function and the number of regions created.
pub fn offload_capture(func: &VmFunction) -> (VmFunction, usize) {
    let mut out: Vec<Instr> = Vec::new();
    let mut run: Vec<Instr> = Vec::new();
    let mut regions = 0usize;

    let flush = |run: &mut Vec<Instr>, out: &mut Vec<Instr>, regions: &mut usize| {
        let kernels = run.iter().filter(|i| is_kernel(i)).count();
        if kernels >= MIN_KERNELS {
            let mut keys = BTreeSet::new();
            for i in run.iter() {
                collect_sym_vars(i, &mut keys);
            }
            out.push(Instr::CaptureRegion {
                id: *regions,
                keys: keys.into_iter().map(PrimExpr::from).collect(),
                body: std::mem::take(run),
            });
            *regions += 1;
        } else {
            out.append(run);
        }
    };

    for instr in &func.instrs {
        if capturable(instr) {
            run.push(instr.clone());
        } else {
            flush(&mut run, &mut out, &mut regions);
            out.push(instr.clone());
        }
    }
    flush(&mut run, &mut out, &mut regions);

    (
        VmFunction {
            name: func.name.clone(),
            num_params: func.num_params,
            num_regs: func.num_regs,
            instrs: out,
        },
        regions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::DataType;

    #[test]
    fn contiguous_kernel_runs_are_wrapped() {
        let n = SymVar::new("n");
        let f = VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 6,
            instrs: vec![
                Instr::MatchShape {
                    src: 0,
                    dims: vec![n.clone().into()],
                    ctx: "p".into(),
                },
                Instr::AllocStorage {
                    dst: 4,
                    bytes: 1024.into(),
                },
                Instr::TensorFromStorage {
                    dst: 1,
                    storage: 4,
                    shape: vec![n.clone().into()],
                    dtype: DataType::F32,
                },
                Instr::CallTir {
                    func: "a".into(),
                    args: vec![0],
                    dsts: vec![1],
                    sym_args: vec![],
                },
                Instr::CallTir {
                    func: "b".into(),
                    args: vec![1],
                    dsts: vec![1],
                    sym_args: vec![],
                },
                Instr::Ret { src: 1 },
            ],
        };
        let (wrapped, regions) = offload_capture(&f);
        assert_eq!(regions, 1);
        let region = wrapped
            .instrs
            .iter()
            .find_map(|i| match i {
                Instr::CaptureRegion { body, keys, .. } => Some((body.clone(), keys.clone())),
                _ => None,
            })
            .expect("a region");
        assert_eq!(region.0.len(), 3); // tensor_from + 2 calls
                                       // The region key includes the dynamic dimension n.
        assert_eq!(region.1.len(), 1);
    }

    #[test]
    fn single_kernel_runs_are_not_captured() {
        let f = VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 2,
            instrs: vec![
                Instr::CallTir {
                    func: "a".into(),
                    args: vec![0],
                    dsts: vec![1],
                    sym_args: vec![],
                },
                Instr::Ret { src: 1 },
            ],
        };
        let (wrapped, regions) = offload_capture(&f);
        assert_eq!(regions, 0);
        assert_eq!(wrapped.instrs, f.instrs);
    }

    #[test]
    fn dynamic_allocs_break_regions() {
        let n = SymVar::new("n");
        let call = |name: &str| Instr::CallTir {
            func: name.into(),
            args: vec![0],
            dsts: vec![1],
            sym_args: vec![],
        };
        let f = VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 3,
            instrs: vec![
                call("a"),
                call("b"),
                Instr::AllocTensor {
                    dst: 2,
                    shape: vec![n.into()],
                    dtype: DataType::F32,
                },
                call("c"),
                Instr::Ret { src: 1 },
            ],
        };
        let (wrapped, regions) = offload_capture(&f);
        assert_eq!(regions, 1); // only the leading a;b pair
        assert!(wrapped
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::AllocTensor { .. })));
    }
}
