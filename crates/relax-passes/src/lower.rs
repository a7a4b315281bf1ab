//! Lowering to the virtual machine (§4.7): erase annotations, turn every
//! binding into low-level instructions, insert runtime shape population /
//! checks, and emit liveness (`Kill`) events that drive the runtime memory
//! pool — or, after [`crate::plan_memory`], static storage reuse.

use std::collections::{HashMap, HashSet};

use relax_core::{Expr, Function, IRModule, Op, ShapeDesc, StructInfo};
use relax_vm::{Executable, Instr, Reg, VmFunction};

use crate::error::PassError;
use crate::workspace::LiftedWorkspaces;

/// Lowers every graph function to VM instructions.
///
/// `workspaces` is the map produced by [`crate::lift_tir_workspaces`]:
/// call sites of those tensor programs get graph-level workspace
/// allocations inserted (the "lift allocation to graph level" rewrite of
/// Figure 11), which later participate in memory planning.
///
/// The executable carries the module's tensor programs.
///
/// # Errors
///
/// Fails on constructs that should have been removed by earlier passes
/// (un-legalized operators other than data-dependent builtins, coarse
/// output shapes on foreign calls).
pub fn lower_to_vm(
    module: &IRModule,
    workspaces: &HashMap<String, LiftedWorkspaces>,
) -> Result<Executable, PassError> {
    let mut exec = Executable::new();
    exec.tir_funcs = module
        .tir_funcs()
        .map(|(name, f)| (name.clone(), f.clone()))
        .collect();
    let fnames = module.function_names();
    for fname in fnames {
        let func = module.function(&fname).expect("listed");
        let vmf = lower_function(&fname, func, module, workspaces, &mut exec)?;
        exec.funcs.insert(fname, vmf);
    }
    Ok(exec)
}

struct LowerCtx<'a> {
    instrs: Vec<Instr>,
    var_reg: HashMap<u64, Reg>,
    next_reg: Reg,
    exec: &'a mut Executable,
    /// Registers holding intermediate tensors we allocated (kill targets).
    allocated: HashSet<Reg>,
}

impl LowerCtx<'_> {
    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Materializes an argument expression into a register.
    fn expr_to_reg(&mut self, expr: &Expr, pass: &'static str) -> Result<Reg, PassError> {
        match expr {
            Expr::Var(v) => {
                self.var_reg
                    .get(&v.id())
                    .copied()
                    .ok_or_else(|| PassError::Unsupported {
                        pass,
                        detail: format!("variable `{}` has no register", v.name()),
                    })
            }
            Expr::Constant(c) => {
                let index = self.exec.add_constant(c.clone());
                let dst = self.fresh();
                self.instrs.push(Instr::LoadConst { dst, index });
                Ok(dst)
            }
            Expr::ShapeValue(dims) => {
                let dst = self.fresh();
                self.instrs.push(Instr::MakeShape {
                    dst,
                    dims: dims.clone(),
                });
                Ok(dst)
            }
            Expr::TupleGetItem(src, index) => {
                let s = self.expr_to_reg(src, pass)?;
                let dst = self.fresh();
                self.instrs.push(Instr::GetItem {
                    dst,
                    src: s,
                    index: *index,
                });
                Ok(dst)
            }
            Expr::Tuple(items) => {
                let regs: Result<Vec<Reg>, _> =
                    items.iter().map(|e| self.expr_to_reg(e, pass)).collect();
                let dst = self.fresh();
                self.instrs.push(Instr::MakeTuple { dst, items: regs? });
                Ok(dst)
            }
            other => Err(PassError::Unsupported {
                pass,
                detail: format!("argument expression not lowerable: {other:?}"),
            }),
        }
    }

    /// Allocates output tensors for a DPS call with the given annotation.
    /// Returns (dst tensor regs, optional tuple assembly).
    fn alloc_outputs(
        &mut self,
        out_sinfo: &StructInfo,
        pass: &'static str,
    ) -> Result<(Vec<Reg>, bool), PassError> {
        match out_sinfo {
            StructInfo::Tensor { shape, dtype } => {
                let ShapeDesc::Known(dims) = shape else {
                    return Err(PassError::Unsupported {
                        pass,
                        detail: "foreign call output must have a known symbolic shape".to_string(),
                    });
                };
                let dst = self.fresh();
                self.instrs.push(Instr::AllocTensor {
                    dst,
                    shape: dims.clone(),
                    dtype: dtype.unwrap_or(relax_core::DataType::F32),
                });
                self.allocated.insert(dst);
                Ok((vec![dst], false))
            }
            StructInfo::Tuple(fields) => {
                let mut regs = Vec::new();
                for f in fields {
                    let (mut r, _) = self.alloc_outputs(f, pass)?;
                    regs.append(&mut r);
                }
                Ok((regs, true))
            }
            other => Err(PassError::Unsupported {
                pass,
                detail: format!("cannot allocate output for annotation {other}"),
            }),
        }
    }
}

fn lower_function(
    fname: &str,
    func: &Function,
    module: &IRModule,
    workspaces: &HashMap<String, LiftedWorkspaces>,
    exec: &mut Executable,
) -> Result<VmFunction, PassError> {
    const PASS: &str = "lower_to_vm";
    let mut ctx = LowerCtx {
        instrs: Vec::new(),
        var_reg: HashMap::new(),
        next_reg: func.params.len(),
        exec,
        allocated: HashSet::new(),
    };

    // Parameter registers + boundary shape population/checks.
    for (i, p) in func.params.iter().enumerate() {
        ctx.var_reg.insert(p.id(), i);
        let dims = match p.struct_info() {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                ..
            } => Some(dims.clone()),
            StructInfo::Shape(ShapeDesc::Known(dims)) => Some(dims.clone()),
            _ => None,
        };
        if let Some(dims) = dims {
            ctx.instrs.push(Instr::MatchShape {
                src: i,
                dims,
                ctx: format!("{fname} param {}", p.name()),
            });
        }
    }

    // Alias resolution: `lv1 = lv0` and `lv1 = match_cast(lv0, ..)` share
    // the same register, so liveness must be computed on alias roots.
    let bindings: Vec<_> = func.bindings().cloned().collect();
    let mut alias: HashMap<u64, u64> = HashMap::new();
    let resolve = |alias: &HashMap<u64, u64>, mut id: u64| -> u64 {
        while let Some(&next) = alias.get(&id) {
            id = next;
        }
        id
    };
    for b in &bindings {
        let aliased = match &b.value {
            Expr::Var(v) => Some(v.id()),
            Expr::MatchCast { value, .. } => value.as_var().map(|v| v.id()),
            _ => None,
        };
        if let Some(src) = aliased {
            let root = resolve(&alias, src);
            alias.insert(b.var.id(), root);
        }
    }

    // Liveness: last binding index at which each alias root is used.
    let mut last_use: HashMap<u64, usize> = HashMap::new();
    for (i, b) in bindings.iter().enumerate() {
        let mut used = Vec::new();
        b.value.collect_used_vars(&mut used);
        for v in used {
            last_use.insert(resolve(&alias, v.id()), i);
        }
        // A binding that aliases keeps its source live until the alias's
        // own last use; treat the definition itself as a use so the root's
        // last_use can only move later.
        last_use.insert(resolve(&alias, b.var.id()), i);
    }
    {
        let mut used = Vec::new();
        func.ret.collect_used_vars(&mut used);
        for v in used {
            last_use.insert(resolve(&alias, v.id()), usize::MAX);
        }
    }

    for (bi, b) in bindings.iter().enumerate() {
        let dst = match &b.value {
            Expr::Var(_) | Expr::Constant(_) | Expr::ShapeValue(_) | Expr::TupleGetItem(..) => {
                let r = ctx.expr_to_reg(&b.value, PASS)?;
                // Alias directly (copy-free).
                r
            }
            Expr::PrimValue(e) => {
                let dst = ctx.fresh();
                ctx.instrs.push(Instr::MakeShape {
                    dst,
                    dims: vec![e.clone()],
                });
                dst
            }
            Expr::Tuple(items) => {
                let regs: Result<Vec<Reg>, _> =
                    items.iter().map(|e| ctx.expr_to_reg(e, PASS)).collect();
                let dst = ctx.fresh();
                ctx.instrs.push(Instr::MakeTuple { dst, items: regs? });
                dst
            }
            Expr::CallOp { op, args, .. } => {
                if *op != Op::Unique {
                    return Err(PassError::Unsupported {
                        pass: PASS,
                        detail: format!("operator `{}` reached lowering un-legalized", op.name()),
                    });
                }
                let regs: Result<Vec<Reg>, _> =
                    args.iter().map(|e| ctx.expr_to_reg(e, PASS)).collect();
                let dst = ctx.fresh();
                ctx.instrs.push(Instr::CallBuiltin {
                    func: "builtin.unique".into(),
                    args: regs?,
                    dst,
                });
                dst
            }
            Expr::CallGlobal { func: callee, args } => {
                let regs: Result<Vec<Reg>, _> =
                    args.iter().map(|e| ctx.expr_to_reg(e, PASS)).collect();
                let dst = ctx.fresh();
                ctx.instrs.push(Instr::CallFunc {
                    func: callee.clone(),
                    args: regs?,
                    dst,
                });
                dst
            }
            Expr::CallTir {
                func: callee,
                args,
                out_sinfo,
                sym_args,
            } => {
                let mut arg_regs = Vec::new();
                for a in args {
                    arg_regs.push(ctx.expr_to_reg(a, PASS)?);
                }
                // Graph-level workspace allocation for lifted programs.
                if let Some(ws) = workspaces.get(callee) {
                    for buf in &ws.buffers {
                        let r = ctx.fresh();
                        ctx.instrs.push(Instr::AllocTensor {
                            dst: r,
                            shape: buf.shape().to_vec(),
                            dtype: buf.dtype(),
                        });
                        ctx.allocated.insert(r);
                        arg_regs.push(r);
                    }
                }
                let (dsts, is_tuple) = ctx.alloc_outputs(out_sinfo, PASS)?;
                ctx.instrs.push(Instr::CallTir {
                    func: callee.clone(),
                    args: arg_regs,
                    dsts: dsts.clone(),
                    sym_args: sym_args.clone(),
                });
                if is_tuple {
                    let dst = ctx.fresh();
                    ctx.instrs.push(Instr::MakeTuple { dst, items: dsts });
                    dst
                } else {
                    dsts[0]
                }
            }
            Expr::CallDps {
                func: callee,
                args,
                out_sinfo,
            } => {
                let mut arg_regs = Vec::new();
                for a in args {
                    arg_regs.push(ctx.expr_to_reg(a, PASS)?);
                }
                // KV-cache and MoE builtins are not destination-passing:
                // the VM dispatches them on first-class handle/shape
                // values and writes the result (a handle or a tensor —
                // possibly with a data-dependent shape) to a fresh
                // register, so no output allocation happens here.
                if callee.starts_with(relax_vm::KV_CACHE_PREFIX)
                    || callee.starts_with(relax_vm::MOE_PREFIX)
                {
                    let dst = ctx.fresh();
                    ctx.instrs.push(Instr::CallBuiltin {
                        func: callee.clone(),
                        args: arg_regs,
                        dst,
                    });
                    dst
                } else {
                    let (dsts, is_tuple) = ctx.alloc_outputs(out_sinfo, PASS)?;
                    ctx.instrs.push(Instr::CallLib {
                        func: callee.clone(),
                        args: arg_regs,
                        dsts: dsts.clone(),
                    });
                    if is_tuple {
                        let dst = ctx.fresh();
                        ctx.instrs.push(Instr::MakeTuple { dst, items: dsts });
                        dst
                    } else {
                        dsts[0]
                    }
                }
            }
            Expr::MatchCast { value, sinfo } => {
                let src = ctx.expr_to_reg(value, PASS)?;
                if let StructInfo::Tensor {
                    shape: ShapeDesc::Known(dims),
                    ..
                }
                | StructInfo::Shape(ShapeDesc::Known(dims)) = sinfo
                {
                    ctx.instrs.push(Instr::MatchShape {
                        src,
                        dims: dims.clone(),
                        ctx: format!("{fname} match_cast {}", b.var.name()),
                    });
                }
                src
            }
        };
        ctx.var_reg.insert(b.var.id(), dst);

        // Kill intermediates whose alias root saw its last use here.
        let mut used = Vec::new();
        b.value.collect_used_vars(&mut used);
        used.push(b.var.clone());
        for v in used {
            let root = resolve(&alias, v.id());
            if last_use.get(&root) == Some(&bi) {
                if let Some(&reg) = ctx.var_reg.get(&v.id()) {
                    if ctx.allocated.remove(&reg) {
                        ctx.instrs.push(Instr::Kill { reg });
                    }
                }
            }
        }
    }

    let ret_reg = ctx.expr_to_reg(&func.ret, PASS)?;
    ctx.instrs.push(Instr::Ret { src: ret_reg });

    let _ = module;
    Ok(VmFunction {
        name: fname.to_string(),
        num_params: func.params.len(),
        num_regs: ctx.next_reg,
        instrs: ctx.instrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legalize_pass::legalize_module;
    use relax_arith::Var as SV;
    use relax_core::{BlockBuilder, DataType, StructInfo};
    use relax_tir::NDArray;
    use relax_vm::{Value, Vm};

    fn build_and_lower() -> Executable {
        let mut bb = BlockBuilder::new();
        let n = SV::new("n");
        let p = bb.begin_function(
            "main",
            vec![
                (
                    "x".into(),
                    StructInfo::tensor(vec![n.into(), 4.into()], DataType::F32),
                ),
                (
                    "w".into(),
                    StructInfo::tensor(vec![4.into(), 2.into()], DataType::F32),
                ),
            ],
        );
        bb.begin_dataflow();
        let mm = bb
            .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
            .unwrap();
        let out = bb
            .emit_output(Expr::op_call(Op::Relu, vec![mm.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        legalize_module(&mut m).unwrap();
        lower_to_vm(&m, &HashMap::new()).unwrap()
    }

    #[test]
    fn lowered_program_runs_end_to_end() {
        let exec = build_and_lower();
        let mut vm = Vm::new(exec);
        let x = NDArray::from_f64(
            &[2, 4],
            DataType::F32,
            vec![1., -1., 2., -2., 3., -3., 4., -4.],
        )
        .unwrap();
        let w = NDArray::from_f64(&[4, 2], DataType::F32, vec![1.; 8]).unwrap();
        let out = vm
            .run("main", &[Value::Tensor(x), Value::Tensor(w)])
            .unwrap();
        let t = out.as_tensor().unwrap();
        assert_eq!(t.shape(), &[2, 2]);
        // Row sums are 0 -> relu(0) = 0.
        assert_eq!(t.to_f64_vec(), vec![0., 0., 0., 0.]);
        let tel = vm.telemetry();
        assert_eq!(tel.kernel_launches, 2);
        // The matmul intermediate was killed and recycled.
        assert_eq!(tel.pool.fresh_allocations, 2);
    }

    #[test]
    fn kill_instructions_enable_pool_reuse_across_runs() {
        let exec = build_and_lower();
        let mut vm = Vm::new(exec);
        let x = NDArray::zeros(&[2, 4], DataType::F32);
        let w = NDArray::zeros(&[4, 2], DataType::F32);
        vm.run(
            "main",
            &[Value::Tensor(x.clone()), Value::Tensor(w.clone())],
        )
        .unwrap();
        let f1 = vm.telemetry().pool.footprint;
        vm.run("main", &[Value::Tensor(x), Value::Tensor(w)])
            .unwrap();
        let f2 = vm.telemetry().pool.footprint;
        // Second run reuses the pool blocks: footprint unchanged.
        assert_eq!(f1, f2);
        assert!(vm.telemetry().pool.reuses >= 2);
    }

    #[test]
    fn boundary_checks_reject_bad_inputs() {
        let exec = build_and_lower();
        let mut vm = Vm::new(exec);
        let x = NDArray::zeros(&[2, 5], DataType::F32); // K=5 contradicts 4
        let w = NDArray::zeros(&[4, 2], DataType::F32);
        let err = vm
            .run("main", &[Value::Tensor(x), Value::Tensor(w)])
            .unwrap_err();
        assert!(matches!(err.kind, relax_vm::VmErrorKind::ShapeCheck { .. }));
    }
}
