//! Transformations over tensor programs: buffer/variable rewriting, the
//! function-merging machinery behind `FuseTensorIR`, and workspace lifting.

use std::collections::HashMap;
use std::fmt;

use relax_arith::{substitute, PrimExpr, SubstMap, Var};

use crate::buffer::{Buffer, MemScope};
use crate::expr::TirExpr;
use crate::func::PrimFunc;
use crate::stmt::Stmt;

/// Error raised by tensor-program transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// Caller argument count did not match callee parameters.
    ArityMismatch {
        /// Callee function name.
        callee: String,
        /// Parameters expected.
        expected: usize,
        /// Arguments provided.
        actual: usize,
    },
    /// Callee shapes could not be unified with caller shapes.
    ShapeUnification {
        /// Callee function name.
        callee: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::ArityMismatch {
                callee,
                expected,
                actual,
            } => write!(
                f,
                "call to `{callee}` expects {expected} buffers, got {actual}"
            ),
            TransformError::ShapeUnification { callee, detail } => {
                write!(f, "cannot unify shapes calling `{callee}`: {detail}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// A rewriting context mapping old buffers to new buffers and symbolic
/// variables to replacement expressions. Loop variables are freshened on
/// the fly so a callee body can be inlined multiple times.
#[derive(Debug, Default)]
pub struct Rewriter {
    /// Buffer replacement, keyed by old buffer identity.
    pub buffer_map: HashMap<u64, Buffer>,
    /// Symbolic variable substitution (shape vars and loop vars).
    pub var_map: SubstMap,
}

impl Rewriter {
    /// Rewrites an index expression.
    fn rewrite_index(&self, e: &PrimExpr) -> PrimExpr {
        substitute(e, &self.var_map)
    }

    /// Rewrites a buffer reference, materializing rebuilt local buffers
    /// whose shapes mention substituted variables.
    fn rewrite_buffer(&mut self, b: &Buffer) -> Buffer {
        if let Some(nb) = self.buffer_map.get(&b.id()) {
            return nb.clone();
        }
        let new_shape: Vec<PrimExpr> = b.shape().iter().map(|d| self.rewrite_index(d)).collect();
        if new_shape == b.shape() {
            return b.clone();
        }
        let nb = Buffer::with_scope(b.name(), new_shape, b.dtype(), b.scope());
        self.buffer_map.insert(b.id(), nb.clone());
        nb
    }

    /// Rewrites a compute expression.
    pub fn rewrite_expr(&mut self, e: &TirExpr) -> TirExpr {
        match e {
            TirExpr::Index(i) => TirExpr::Index(self.rewrite_index(i)),
            TirExpr::Load(b, idx) => TirExpr::Load(
                self.rewrite_buffer(b),
                idx.iter().map(|i| self.rewrite_index(i)).collect(),
            ),
            TirExpr::IndexEq(a, b) => {
                TirExpr::IndexEq(self.rewrite_index(a), self.rewrite_index(b))
            }
            TirExpr::IndexLe(a, b) => {
                TirExpr::IndexLe(self.rewrite_index(a), self.rewrite_index(b))
            }
            TirExpr::LoadDyn(b, idx) => TirExpr::LoadDyn(
                self.rewrite_buffer(b),
                idx.iter().map(|i| self.rewrite_expr(i)).collect(),
            ),
            other => other.map_operands(&mut |a| self.rewrite_expr(a)),
        }
    }

    /// Rewrites a statement tree, freshening loop variables.
    pub fn rewrite_stmt(&mut self, s: &Stmt) -> Stmt {
        match s {
            Stmt::For { var, extent, body } => {
                let fresh = Var::new(var.name());
                let extent = self.rewrite_index(extent);
                let shadow = self.var_map.insert(var.clone(), fresh.clone().into());
                let body = Box::new(self.rewrite_stmt(body));
                match shadow {
                    Some(prev) => {
                        self.var_map.insert(var.clone(), prev);
                    }
                    None => {
                        self.var_map.remove(var);
                    }
                }
                Stmt::For {
                    var: fresh,
                    extent,
                    body,
                }
            }
            Stmt::Seq(stmts) => Stmt::Seq(stmts.iter().map(|s| self.rewrite_stmt(s)).collect()),
            Stmt::Store {
                buffer,
                indices,
                value,
            } => Stmt::Store {
                buffer: self.rewrite_buffer(buffer),
                indices: indices.iter().map(|i| self.rewrite_index(i)).collect(),
                value: self.rewrite_expr(value),
            },
            Stmt::IfEq { lhs, rhs, then } => Stmt::IfEq {
                lhs: self.rewrite_index(lhs),
                rhs: self.rewrite_index(rhs),
                then: Box::new(self.rewrite_stmt(then)),
            },
            Stmt::Alloc { buffer, body } => {
                let nb = Buffer::with_scope(
                    buffer.name(),
                    buffer
                        .shape()
                        .iter()
                        .map(|d| self.rewrite_index(d))
                        .collect(),
                    buffer.dtype(),
                    buffer.scope(),
                );
                self.buffer_map.insert(buffer.id(), nb.clone());
                Stmt::Alloc {
                    buffer: nb,
                    body: Box::new(self.rewrite_stmt(body)),
                }
            }
            Stmt::Evaluate => Stmt::Evaluate,
        }
    }
}

/// Unifies a callee parameter buffer's declared shape with the caller-side
/// shape, extending `var_map` with bindings for fresh callee variables.
///
/// # Errors
///
/// Returns [`TransformError::ShapeUnification`] on rank mismatch or when a
/// non-variable callee dimension would need to bind.
pub fn unify_param_shape(
    callee: &str,
    param: &Buffer,
    arg_shape: &[PrimExpr],
    var_map: &mut SubstMap,
) -> Result<(), TransformError> {
    if param.ndim() != arg_shape.len() {
        return Err(TransformError::ShapeUnification {
            callee: callee.to_string(),
            detail: format!(
                "buffer `{}` has rank {}, argument has rank {}",
                param.name(),
                param.ndim(),
                arg_shape.len()
            ),
        });
    }
    for (dim, actual) in param.shape().iter().zip(arg_shape) {
        match dim {
            PrimExpr::Var(v) => {
                if let Some(bound) = var_map.get(v) {
                    if bound != actual && substitute(actual, var_map) != *bound {
                        return Err(TransformError::ShapeUnification {
                            callee: callee.to_string(),
                            detail: format!(
                                "variable `{v}` bound to both `{bound}` and `{actual}`"
                            ),
                        });
                    }
                } else {
                    var_map.insert(v.clone(), actual.clone());
                }
            }
            other => {
                let substituted = substitute(other, var_map);
                let expected = substitute(actual, var_map);
                if substituted != expected {
                    return Err(TransformError::ShapeUnification {
                        callee: callee.to_string(),
                        detail: format!(
                            "dimension `{other}` does not match argument dimension `{actual}`"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// One call site to inline when merging tensor programs.
#[derive(Debug, Clone)]
pub struct InlineCall {
    /// The callee tensor program.
    pub func: PrimFunc,
    /// Buffers supplied for every callee parameter (inputs then outputs).
    pub args: Vec<Buffer>,
}

/// Merges a straight-line sequence of tensor-program calls into one
/// function — the loop-level half of `FuseTensorIR` (§4.2).
///
/// `params` become the parameters of the merged function (inputs followed
/// by `num_outputs` outputs). Any buffer used by the calls that is not in
/// `params` is allocated as a function-local intermediate; because locals do
/// not count as global memory traffic, this transformation is what makes
/// fusion profitable in the cost model.
///
/// # Errors
///
/// Fails if a call's argument count or shapes cannot be matched to its
/// callee signature.
pub fn merge_calls(
    name: impl Into<String>,
    params: Vec<Buffer>,
    num_outputs: usize,
    calls: &[InlineCall],
) -> Result<PrimFunc, TransformError> {
    let mut body_parts: Vec<Stmt> = Vec::new();
    let mut intermediates: Vec<Buffer> = Vec::new();
    let param_ids: std::collections::HashSet<u64> = params.iter().map(Buffer::id).collect();

    for call in calls {
        if call.func.params().len() != call.args.len() {
            return Err(TransformError::ArityMismatch {
                callee: call.func.name().to_string(),
                expected: call.func.params().len(),
                actual: call.args.len(),
            });
        }
        let mut rewriter = Rewriter::default();
        for (p, a) in call.func.params().iter().zip(&call.args) {
            unify_param_shape(call.func.name(), p, a.shape(), &mut rewriter.var_map)?;
            rewriter.buffer_map.insert(p.id(), a.clone());
        }
        body_parts.push(rewriter.rewrite_stmt(call.func.body()));
        for a in &call.args {
            if !param_ids.contains(&a.id()) && !intermediates.contains(a) {
                intermediates.push(a.clone());
            }
        }
    }

    // Intermediates become locals, redirected in one walk and wrapped in
    // allocations, innermost last-used first.
    let locals: Vec<Buffer> = intermediates
        .iter()
        .rev()
        .map(|buf| match buf.scope() {
            MemScope::Local => buf.clone(),
            _ => buf.rescoped(MemScope::Local),
        })
        .collect();
    let redirect: HashMap<u64, Buffer> = intermediates
        .iter()
        .rev()
        .zip(&locals)
        .map(|(buf, local)| (buf.id(), local.clone()))
        .collect();
    let mut body = redirect_buffers(&Stmt::seq(body_parts), &redirect);
    for local in locals {
        body = Stmt::Alloc {
            buffer: local,
            body: Box::new(body),
        };
    }
    Ok(PrimFunc::new(name, params, num_outputs, body))
}

/// Replaces references to the buffers `map` names and nothing else: the
/// statements were just rewritten, their indices simplified, by
/// [`Rewriter::rewrite_stmt`].
fn redirect_buffers(stmt: &Stmt, map: &HashMap<u64, Buffer>) -> Stmt {
    match stmt {
        Stmt::For { var, extent, body } => Stmt::For {
            var: var.clone(),
            extent: extent.clone(),
            body: Box::new(redirect_buffers(body, map)),
        },
        Stmt::Seq(ss) => Stmt::Seq(ss.iter().map(|s| redirect_buffers(s, map)).collect()),
        Stmt::Store {
            buffer,
            indices,
            value,
        } => Stmt::Store {
            buffer: map.get(&buffer.id()).unwrap_or(buffer).clone(),
            indices: indices.clone(),
            value: redirect_expr(value, map),
        },
        Stmt::IfEq { lhs, rhs, then } => Stmt::IfEq {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            then: Box::new(redirect_buffers(then, map)),
        },
        Stmt::Alloc { buffer, body } => Stmt::Alloc {
            buffer: buffer.clone(),
            body: Box::new(redirect_buffers(body, map)),
        },
        Stmt::Evaluate => Stmt::Evaluate,
    }
}

fn redirect_expr(e: &TirExpr, map: &HashMap<u64, Buffer>) -> TirExpr {
    let redirect = |b: &Buffer| map.get(&b.id()).unwrap_or(b).clone();
    match e {
        TirExpr::Load(b, idx) => TirExpr::Load(redirect(b), idx.clone()),
        TirExpr::LoadDyn(b, idx) => TirExpr::LoadDyn(
            redirect(b),
            idx.iter().map(|i| redirect_expr(i, map)).collect(),
        ),
        other => other.map_operands(&mut |a| redirect_expr(a, map)),
    }
}

/// Lifts global-memory workspace allocations out of a tensor program
/// (§4.4): each `Alloc` of a global buffer is removed from the body and the
/// buffer becomes an explicit parameter placed *before* the outputs, so the
/// graph level can allocate it and hand it to memory planning.
///
/// Returns the rewritten function and the lifted workspace buffers, or
/// `None` if the function allocates no global workspace.
pub fn lift_workspaces(func: &PrimFunc) -> Option<(PrimFunc, Vec<Buffer>)> {
    let workspaces = crate::analysis::find_workspaces(func);
    if workspaces.is_empty() {
        return None;
    }
    let body = strip_allocs(func.body(), &workspaces);
    let mut params: Vec<Buffer> = func.inputs().to_vec();
    params.extend(workspaces.iter().cloned());
    params.extend(func.outputs().iter().cloned());
    let lifted = PrimFunc::new(func.name(), params, func.num_outputs(), body);
    // Preserve attributes.
    let lifted = func
        .attrs()
        .iter()
        .fold(lifted, |f, (k, v)| f.with_attr(k.clone(), v.clone()));
    Some((lifted, workspaces))
}

fn strip_allocs(stmt: &Stmt, targets: &[Buffer]) -> Stmt {
    match stmt {
        Stmt::Alloc { buffer, body } if targets.contains(buffer) => strip_allocs(body, targets),
        Stmt::Alloc { buffer, body } => Stmt::Alloc {
            buffer: buffer.clone(),
            body: Box::new(strip_allocs(body, targets)),
        },
        Stmt::For { var, extent, body } => Stmt::For {
            var: var.clone(),
            extent: extent.clone(),
            body: Box::new(strip_allocs(body, targets)),
        },
        Stmt::Seq(ss) => Stmt::Seq(ss.iter().map(|s| strip_allocs(s, targets)).collect()),
        Stmt::IfEq { lhs, rhs, then } => Stmt::IfEq {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            then: Box::new(strip_allocs(then, targets)),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::grid;
    use crate::interp;
    use crate::ndarray::NDArray;
    use relax_arith::DataType;

    fn scale_func(name: &str, factor: f64) -> PrimFunc {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.into())]);
        let body = nest.build(Stmt::store(
            &y,
            vec![iv[0].clone().into()],
            TirExpr::load(&x, vec![iv[0].clone().into()]) * TirExpr::FloatImm(factor),
        ));
        PrimFunc::new(name, vec![x, y], 1, body)
    }

    #[test]
    fn merge_two_elementwise_calls_runs_correctly() {
        let n = Var::new("n");
        let f2 = scale_func("double", 2.0);
        let f3 = scale_func("triple", 3.0);
        let x = Buffer::new("x", vec![n.clone().into()], DataType::F32);
        let tmp = Buffer::new("tmp", vec![n.clone().into()], DataType::F32);
        let out = Buffer::new("out", vec![n.clone().into()], DataType::F32);
        let fused = merge_calls(
            "fused_double_triple",
            vec![x.clone(), out.clone()],
            1,
            &[
                InlineCall {
                    func: f2,
                    args: vec![x, tmp.clone()],
                },
                InlineCall {
                    func: f3,
                    args: vec![tmp, out],
                },
            ],
        )
        .unwrap();
        // The intermediate must have become a local alloc.
        let mut local_allocs = 0;
        fused.body().for_each_alloc(&mut |b| {
            assert_eq!(b.scope(), MemScope::Local);
            local_allocs += 1;
        });
        assert_eq!(local_allocs, 1);
        // Execute: out = x * 6
        let xs = NDArray::from_f64(&[4], DataType::F32, vec![1., 2., 3., 4.]).unwrap();
        let os = NDArray::zeros(&[4], DataType::F32);
        interp::run(&fused, &[xs, os.clone()]).unwrap();
        assert_eq!(os.to_f64_vec(), vec![6., 12., 18., 24.]);
    }

    #[test]
    fn merge_detects_arity_mismatch() {
        let f = scale_func("s", 2.0);
        let n = Var::new("n");
        let x = Buffer::new("x", vec![n.into()], DataType::F32);
        let err = merge_calls(
            "bad",
            vec![x.clone()],
            0,
            &[InlineCall {
                func: f,
                args: vec![x],
            }],
        )
        .unwrap_err();
        assert!(matches!(err, TransformError::ArityMismatch { .. }));
    }

    #[test]
    fn unify_binds_and_checks() {
        let callee_n = Var::new("n");
        let p = Buffer::new("P", vec![callee_n.clone().into(), 4.into()], DataType::F32);
        let caller_m = Var::new("m");
        let mut map = SubstMap::new();
        unify_param_shape(
            "f",
            &p,
            &[PrimExpr::from(caller_m.clone()) * 2.into(), 4.into()],
            &mut map,
        )
        .unwrap();
        assert_eq!(
            map.get(&callee_n),
            Some(&(PrimExpr::from(caller_m) * 2.into()))
        );
        // Constant mismatch is rejected.
        let p2 = Buffer::new("P2", vec![8.into()], DataType::F32);
        let mut map2 = SubstMap::new();
        assert!(unify_param_shape("f", &p2, &[9.into()], &mut map2).is_err());
    }

    #[test]
    fn workspace_lifting_moves_alloc_to_params() {
        let n = Var::new("n");
        let x = Buffer::new("X", vec![n.clone().into()], DataType::F32);
        let y = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
        let ws = Buffer::new("workspace", vec![1024.into()], DataType::F32);
        let (iv, nest) = grid(&[("i", n.clone().into())]);
        let inner = nest.build(Stmt::store(
            &y,
            vec![iv[0].clone().into()],
            TirExpr::load(&x, vec![iv[0].clone().into()]),
        ));
        let body = Stmt::Alloc {
            buffer: ws.clone(),
            body: Box::new(inner),
        };
        let f = PrimFunc::new("mm_split_k", vec![x, y], 1, body);
        let (lifted, spaces) = lift_workspaces(&f).unwrap();
        assert_eq!(spaces, vec![ws.clone()]);
        assert_eq!(lifted.params().len(), 3);
        // Workspace sits between inputs and outputs.
        assert_eq!(lifted.params()[1], ws);
        assert_eq!(lifted.outputs()[0].name(), "Y");
        let mut allocs = 0;
        lifted.body().for_each_alloc(&mut |_| allocs += 1);
        assert_eq!(allocs, 0);
        // Functions without workspaces return None.
        assert!(lift_workspaces(&scale_func("s", 1.0)).is_none());
    }
}
