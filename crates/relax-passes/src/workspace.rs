//! Cross-level tensor program workspace lifting (§4.4).
//!
//! Tensor programs that allocate global-memory workspaces (e.g. a split-K
//! matmul's partial-accumulation buffer) are rewritten to take the
//! workspace as an explicit parameter; the graph level then allocates it,
//! letting it participate in global memory planning.

use std::collections::HashMap;

use relax_core::IRModule;
use relax_tir::transform::lift_workspaces;
use relax_tir::Buffer;

/// Information about the workspaces lifted out of one tensor program.
#[derive(Debug, Clone)]
pub struct LiftedWorkspaces {
    /// The workspace buffers, in parameter order (between inputs and
    /// outputs).
    pub buffers: Vec<Buffer>,
}

/// Lifts constant-size global workspaces out of every tensor program in
/// the module. Returns, per rewritten program, the lifted workspace
/// buffers; [`crate::lower_to_vm`] uses this map to emit graph-level
/// allocations at each call site.
///
/// Workspaces with symbolic sizes are left in place (the graph level could
/// not evaluate their extent in caller terms).
pub fn lift_tir_workspaces(module: &mut IRModule) -> HashMap<String, LiftedWorkspaces> {
    let mut lifted = HashMap::new();
    let names: Vec<String> = module.tir_funcs().map(|(n, _)| n.clone()).collect();
    for name in names {
        let func = module.tir_func(&name).expect("listed").clone();
        let Some((new_func, buffers)) = lift_workspaces(&func) else {
            continue;
        };
        // Only constant-size workspaces can be allocated by the caller.
        if !buffers
            .iter()
            .all(|b| b.shape().iter().all(|d| d.is_const()))
        {
            continue;
        }
        module.set_tir_func(name.clone(), new_func);
        lifted.insert(name, LiftedWorkspaces { buffers });
    }
    lifted
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::{DataType, Var};
    use relax_tir::{grid, PrimFunc, Stmt, TirExpr};

    /// A `mm_split_k`-style function with an 8 MiB global workspace
    /// (Figure 11).
    fn split_k_func() -> PrimFunc {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into(), 16.into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into(), 16.into()], DataType::F32);
        let ws = Buffer::new("workspace", vec![(8 * 1024 * 1024).into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.into()), ("j", 16.into())]);
        let copy = nest.build(Stmt::store(
            &y,
            vec![iv[0].clone().into(), iv[1].clone().into()],
            TirExpr::load(&x, vec![iv[0].clone().into(), iv[1].clone().into()]),
        ));
        let body = Stmt::Alloc {
            buffer: ws,
            body: Box::new(copy),
        };
        PrimFunc::new("mm_split_k", vec![x, y], 1, body)
    }

    #[test]
    fn constant_workspace_is_lifted() {
        let mut m = IRModule::new();
        m.add_tir_func(split_k_func());
        let lifted = lift_tir_workspaces(&mut m);
        assert_eq!(lifted.len(), 1);
        let info = &lifted["mm_split_k"];
        assert_eq!(info.buffers.len(), 1);
        let f = m.tir_func("mm_split_k").unwrap();
        // X, workspace, Y
        assert_eq!(f.params().len(), 3);
        assert_eq!(f.params()[1].name(), "workspace");
        let mut allocs = 0;
        f.body().for_each_alloc(&mut |_| allocs += 1);
        assert_eq!(allocs, 0);
    }

    #[test]
    fn symbolic_workspace_stays_internal() {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![4.into()], DataType::F32);
        let y = Buffer::new("Y", vec![4.into()], DataType::F32);
        let ws = Buffer::new("workspace", vec![n.into()], DataType::F32);
        let body = Stmt::Alloc {
            buffer: ws,
            body: Box::new(Stmt::Evaluate),
        };
        let mut m = IRModule::new();
        m.add_tir_func(PrimFunc::new("f", vec![x, y], 1, body));
        let lifted = lift_tir_workspaces(&mut m);
        assert!(lifted.is_empty());
        assert_eq!(m.tir_func("f").unwrap().params().len(), 2);
    }
}
