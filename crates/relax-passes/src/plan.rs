//! Dynamic shape–aware memory planning (§4.3, Algorithm 3).
//!
//! Operates on the lowered instruction form: every `AllocTensor` becomes a
//! `TensorFromStorage` of a planned storage block, where reuse between two
//! dynamic allocations is justified by *proving* their symbolic sizes
//! equal (e.g. a `(2, n)` f32 tensor reuses the storage of an earlier,
//! now-dead `(n, 2)` tensor because `8n == 8n`). When the user declares
//! upper bounds for symbolic variables (e.g. a maximum context length),
//! storages are sized to the bound and the plan becomes fully static —
//! the prerequisite for graph capture (§4.5).

use std::collections::HashMap;

use relax_arith::{Analyzer, DataType, IntBound, PrimExpr, Var as SymVar};
use relax_vm::{Instr, Reg, VmFunction};

/// One planned storage block.
#[derive(Debug, Clone)]
struct Storage {
    reg: Reg,
    /// Index of its symbolic byte size (or constant upper bound) in the
    /// plan's distinct sizes.
    size: usize,
    free: bool,
}

/// Plans memory for a lowered function under optional shape upper bounds.
///
/// Returns the rewritten function; `AllocStorage` instructions are placed
/// after the parameter `MatchShape` prologue so symbolic sizes can be
/// evaluated. The number of storages is the maximum number of
/// simultaneously live intermediate tensors, not the total number of
/// allocations — the Figure 10 example goes from four allocations to two
/// storages.
pub fn plan_memory(func: &VmFunction, bounds: &HashMap<SymVar, i64>) -> VmFunction {
    let mut analyzer = Analyzer::new();
    for (v, b) in bounds {
        analyzer.bind(v.clone(), IntBound::range(0, *b));
    }

    let mut next_reg = func.num_regs;
    let mut storages: Vec<Storage> = Vec::new();
    // Which storage backs each tensor register.
    let mut backing: HashMap<Reg, usize> = HashMap::new();
    let mut rewritten: Vec<Instr> = Vec::new();
    // Sizes and proofs are memoized: a variable's bound is fixed once it
    // is declared, so each `(shape, dtype)` is sized once and each pair
    // of distinct sizes is compared once.
    let mut sizes: Vec<PrimExpr> = Vec::new();
    let mut size_of: HashMap<(&[PrimExpr], DataType), usize> = HashMap::new();
    let mut proven: HashMap<(usize, usize), bool> = HashMap::new();

    for instr in &func.instrs {
        match instr {
            Instr::AllocTensor { dst, shape, dtype } => {
                let need = *size_of.entry((shape, *dtype)).or_insert_with(|| {
                    // Declare every symbolic variable non-negative for
                    // bound reasoning.
                    for d in shape {
                        for v in relax_arith::free_vars(d) {
                            if !bounds.contains_key(&v) {
                                analyzer.bind_shape_var(v);
                            }
                        }
                    }
                    let elem: PrimExpr = shape
                        .iter()
                        .cloned()
                        .fold(PrimExpr::Int(1), |acc, d| acc * d);
                    let bytes_expr =
                        analyzer.simplify(&(elem * PrimExpr::Int(dtype.size_bytes() as i64)));
                    // Prefer the static upper bound when it exists.
                    let planned = match analyzer.upper_bound(&bytes_expr) {
                        Some(bound) => PrimExpr::Int(bound),
                        None => bytes_expr,
                    };
                    sizes.iter().position(|s| *s == planned).unwrap_or_else(|| {
                        sizes.push(planned);
                        sizes.len() - 1
                    })
                });
                // RequestReuseWithSymShape: a free storage with provably
                // equal size (or, for static sizes, enough capacity).
                // Among static candidates pick the *smallest* adequate
                // block (best-fit, matching `PooledAllocator`): first-fit
                // lets a small tensor squat in a large block and forces a
                // fresh storage for the next large tensor. Symbolic
                // matches are provably exact, so they rank ahead of any
                // oversized static block.
                let reuse = storages
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| {
                        if !s.free {
                            return None;
                        }
                        match (sizes[s.size].as_int(), sizes[need].as_int()) {
                            (Some(have), Some(need)) if have >= need => {
                                Some((i, (have - need) as u64))
                            }
                            (Some(_), Some(_)) => None,
                            _ => proven
                                .entry((s.size, need))
                                .or_insert_with(|| {
                                    analyzer.prove_equal(&sizes[s.size], &sizes[need])
                                })
                                .then_some((i, 0)),
                        }
                    })
                    .min_by_key(|&(i, waste)| (waste, i))
                    .map(|(i, _)| i);
                let sidx = match reuse {
                    Some(i) => {
                        storages[i].free = false;
                        i
                    }
                    None => {
                        let reg = next_reg;
                        next_reg += 1;
                        storages.push(Storage {
                            reg,
                            size: need,
                            free: false,
                        });
                        storages.len() - 1
                    }
                };
                backing.insert(*dst, sidx);
                rewritten.push(Instr::TensorFromStorage {
                    dst: *dst,
                    storage: storages[sidx].reg,
                    shape: shape.clone(),
                    dtype: *dtype,
                });
            }
            Instr::Kill { reg } => {
                if let Some(sidx) = backing.remove(reg) {
                    storages[sidx].free = true;
                }
                rewritten.push(instr.clone());
            }
            other => rewritten.push(other.clone()),
        }
    }

    // Hoist each storage allocation as early as possible: right after the
    // parameter prologue when its size is evaluable there (constant, or
    // using only variables the parameter `MatchShape`s bind), else
    // immediately before its first use (a `match_cast` later in the body
    // may be what binds the storage's symbolic variables).
    let prologue_end = rewritten
        .iter()
        .position(|i| !matches!(i, Instr::MatchShape { .. }))
        .unwrap_or(rewritten.len());
    let prologue_vars: std::collections::HashSet<SymVar> = rewritten[..prologue_end]
        .iter()
        .flat_map(|i| match i {
            Instr::MatchShape { dims, .. } => dims
                .iter()
                .flat_map(relax_arith::free_vars)
                .collect::<Vec<_>>(),
            _ => Vec::new(),
        })
        .collect();
    // Place them in one output pass. Every storage backs the tensor whose
    // allocation created it, so each has a first use.
    let (at_prologue, at_use): (Vec<&Storage>, Vec<&Storage>) = storages.iter().partition(|s| {
        relax_arith::free_vars(&sizes[s.size])
            .into_iter()
            .all(|v| prologue_vars.contains(&v))
    });
    let mut at_use: HashMap<Reg, &Storage> = at_use.into_iter().map(|s| (s.reg, s)).collect();
    let alloc = |s: &Storage| Instr::AllocStorage {
        dst: s.reg,
        bytes: sizes[s.size].clone(),
    };
    let mut instrs = Vec::with_capacity(rewritten.len() + storages.len());
    for (pc, instr) in rewritten.into_iter().enumerate() {
        if pc == prologue_end {
            instrs.extend(at_prologue.iter().map(|s| alloc(s)));
        }
        if let Instr::TensorFromStorage { storage, .. } = &instr {
            if let Some(s) = at_use.remove(storage) {
                instrs.push(alloc(s));
            }
        }
        instrs.push(instr);
    }

    VmFunction {
        name: func.name.clone(),
        num_params: func.num_params,
        num_regs: next_reg,
        instrs,
    }
}

/// `true` if every storage in the planned function has a constant size —
/// i.e. the plan is fully static and graph capture is legal.
#[cfg(test)]
pub(crate) fn plan_is_static(func: &VmFunction) -> bool {
    func.instrs.iter().all(|i| match i {
        Instr::AllocStorage { bytes, .. } => bytes.is_const(),
        Instr::AllocTensor { .. } => false,
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::DataType;

    /// Figure 10: four intermediates with shapes (2,n), (n,2), (n,2), (2,n)
    /// and chained lifetimes plan into exactly two storages.
    fn figure10_func() -> (VmFunction, SymVar) {
        let n = SymVar::new("n");
        let sh_a = vec![PrimExpr::Int(2), n.clone().into()];
        let sh_b = vec![n.clone().into(), PrimExpr::Int(2)];
        let instrs = vec![
            Instr::MatchShape {
                src: 0,
                dims: sh_a.clone(),
                ctx: "param".into(),
            },
            // lv0 = exp(x)
            Instr::AllocTensor {
                dst: 1,
                shape: sh_a.clone(),
                dtype: DataType::F32,
            },
            Instr::CallTir {
                func: "exp".into(),
                args: vec![0],
                dsts: vec![1],
                sym_args: vec![],
            },
            // lv1 = transpose(lv0); lv0 dies
            Instr::AllocTensor {
                dst: 2,
                shape: sh_b.clone(),
                dtype: DataType::F32,
            },
            Instr::CallTir {
                func: "transpose".into(),
                args: vec![1],
                dsts: vec![2],
                sym_args: vec![],
            },
            Instr::Kill { reg: 1 },
            // lv2 = relu(lv1); lv1 dies
            Instr::AllocTensor {
                dst: 3,
                shape: sh_b,
                dtype: DataType::F32,
            },
            Instr::CallTir {
                func: "relu".into(),
                args: vec![2],
                dsts: vec![3],
                sym_args: vec![],
            },
            Instr::Kill { reg: 2 },
            // lv3 = transpose(lv2); lv2 dies
            Instr::AllocTensor {
                dst: 4,
                shape: sh_a,
                dtype: DataType::F32,
            },
            Instr::CallTir {
                func: "transpose".into(),
                args: vec![3],
                dsts: vec![4],
                sym_args: vec![],
            },
            Instr::Kill { reg: 3 },
            Instr::Ret { src: 4 },
        ];
        (
            VmFunction {
                name: "main".into(),
                num_params: 1,
                num_regs: 5,
                instrs,
            },
            n,
        )
    }

    #[test]
    fn figure10_plans_two_storages() {
        let (f, _) = figure10_func();
        let planned = plan_memory(&f, &HashMap::new());
        let storages: Vec<&Instr> = planned
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::AllocStorage { .. }))
            .collect();
        // (2,n) and (n,2) have provably equal byte sizes -> full chaining
        // down to 2 storages.
        assert_eq!(storages.len(), 2);
        assert!(!planned
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::AllocTensor { .. })));
        // Without bounds the plan is symbolic, not static.
        assert!(!plan_is_static(&planned));
    }

    #[test]
    fn distinct_sym_vars_do_not_share_storage() {
        let n = SymVar::new("n");
        let m = SymVar::new("m");
        let instrs = vec![
            Instr::AllocTensor {
                dst: 0,
                shape: vec![n.into()],
                dtype: DataType::F32,
            },
            Instr::Kill { reg: 0 },
            Instr::AllocTensor {
                dst: 1,
                shape: vec![m.into()],
                dtype: DataType::F32,
            },
            Instr::Ret { src: 1 },
        ];
        let f = VmFunction {
            name: "f".into(),
            num_params: 0,
            num_regs: 2,
            instrs,
        };
        let planned = plan_memory(&f, &HashMap::new());
        let storages = planned
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::AllocStorage { .. }))
            .count();
        assert_eq!(storages, 2);
    }

    #[test]
    fn upper_bounds_make_the_plan_static() {
        let (f, n) = figure10_func();
        let bounds: HashMap<SymVar, i64> = [(n, 1024)].into_iter().collect();
        let planned = plan_memory(&f, &bounds);
        assert!(plan_is_static(&planned));
        for i in &planned.instrs {
            if let Instr::AllocStorage { bytes, .. } = i {
                // 2 * 1024 * 4 bytes
                assert_eq!(bytes.as_int(), Some(8192));
            }
        }
    }

    /// Regression: first-fit reuse let a small tensor squat in a large
    /// free block. Lifetimes: A(100) and B(50) both die, then C(50) and
    /// D(100) allocate. First-fit put C into A's 100-element block, so D
    /// found only B's 50 free and forced a third storage; best-fit puts C
    /// into B and D into A — two storages total.
    #[test]
    fn best_fit_avoids_small_tensor_squatting_in_large_block() {
        let alloc = |dst: Reg, n: i64| Instr::AllocTensor {
            dst,
            shape: vec![n.into()],
            dtype: DataType::F32,
        };
        let instrs = vec![
            alloc(0, 100), // A
            alloc(1, 50),  // B
            Instr::Kill { reg: 0 },
            Instr::Kill { reg: 1 },
            alloc(2, 50),  // C: best-fit -> B's block
            alloc(3, 100), // D: best-fit -> A's block
            Instr::Ret { src: 3 },
        ];
        let f = VmFunction {
            name: "f".into(),
            num_params: 0,
            num_regs: 4,
            instrs,
        };
        let planned = plan_memory(&f, &HashMap::new());
        let sizes: Vec<i64> = planned
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::AllocStorage { bytes, .. } => bytes.as_int(),
                _ => None,
            })
            .collect();
        assert_eq!(sizes.len(), 2, "first-fit inflates this to 3 storages");
        assert_eq!(sizes.iter().sum::<i64>(), 400 + 200);
    }

    #[test]
    fn static_sizes_reuse_bigger_free_blocks() {
        let instrs = vec![
            Instr::AllocTensor {
                dst: 0,
                shape: vec![100.into()],
                dtype: DataType::F32,
            },
            Instr::Kill { reg: 0 },
            Instr::AllocTensor {
                dst: 1,
                shape: vec![50.into()],
                dtype: DataType::F32,
            },
            Instr::Ret { src: 1 },
        ];
        let f = VmFunction {
            name: "f".into(),
            num_params: 0,
            num_regs: 2,
            instrs,
        };
        let planned = plan_memory(&f, &HashMap::new());
        let storages = planned
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::AllocStorage { .. }))
            .count();
        assert_eq!(storages, 1);
    }
}
