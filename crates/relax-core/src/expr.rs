//! Graph-level expressions, bindings, dataflow blocks and functions.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relax_arith::PrimExpr;
use relax_tir::NDArray;

use crate::op::Op;
use crate::struct_info::StructInfo;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(0);

/// A graph-level variable carrying its structural annotation.
///
/// Variables have reference identity (cloning aliases) and are created by
/// the [`crate::BlockBuilder`] with their annotation already deduced.
/// Dataflow variables (`is_dataflow`) are scoped to their dataflow block.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Var(Arc<VarData>);

struct VarData {
    id: u64,
    name: String,
    sinfo: StructInfo,
    is_dataflow: bool,
}

impl PartialEq for VarData {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for VarData {}
impl std::hash::Hash for VarData {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Var {
    /// Creates a function-scope variable with the given annotation.
    pub fn new(name: impl Into<String>, sinfo: StructInfo) -> Self {
        Var(Arc::new(VarData {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            sinfo,
            is_dataflow: false,
        }))
    }

    /// Creates a dataflow-scoped variable.
    pub fn new_dataflow(name: impl Into<String>, sinfo: StructInfo) -> Self {
        Var(Arc::new(VarData {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            sinfo,
            is_dataflow: true,
        }))
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Globally unique identity.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The structural annotation.
    pub fn struct_info(&self) -> &StructInfo {
        &self.0.sinfo
    }

    /// `true` if scoped to a dataflow block.
    pub fn is_dataflow(&self) -> bool {
        self.0.is_dataflow
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({}#{})", self.name(), self.id())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Operator attributes (axis selections, epsilon values, …) stored as a
/// small string map with typed accessors.
pub type OpAttrs = BTreeMap<String, String>;

/// A graph-level expression.
///
/// The cross-level foreign call primitives [`Expr::CallTir`] and
/// [`Expr::CallDps`] carry their output annotation explicitly (the paper's
/// Figure 4); [`Expr::MatchCast`] asserts a more specific annotation with a
/// runtime check, introducing fresh symbolic variables (Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(Var),
    /// A constant tensor.
    Constant(NDArray),
    /// A symbolic shape as a first-class value, e.g. `shape(n, 4)`.
    ShapeValue(Vec<PrimExpr>),
    /// A symbolic integer as a first-class value.
    PrimValue(PrimExpr),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple projection.
    TupleGetItem(Box<Expr>, usize),
    /// A call to a registered high-level operator.
    CallOp {
        /// The operator.
        op: Op,
        /// Arguments.
        args: Vec<Expr>,
        /// Operator attributes.
        attrs: OpAttrs,
    },
    /// A call to another graph-level function in the module.
    CallGlobal {
        /// Callee name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `call_tir(func, args, out_sinfo, sym_args)` — destination-passing
    /// call of a loop-level tensor program (Figure 5 semantics).
    CallTir {
        /// Name of the tensor program in the module.
        func: String,
        /// Input arguments.
        args: Vec<Expr>,
        /// Annotation of the output tensor(s); drives allocation.
        out_sinfo: StructInfo,
        /// Extra symbolic arguments passed to the tensor program.
        sym_args: Vec<PrimExpr>,
    },
    /// `call_dps_library(name, args, out_sinfo)` — destination-passing call
    /// into an external library function from the registry.
    CallDps {
        /// Registered library function name (e.g. `"cutlass.rms_norm"`).
        func: String,
        /// Input arguments.
        args: Vec<Expr>,
        /// Annotation of the output tensor(s).
        out_sinfo: StructInfo,
    },
    /// `match_cast(value, sinfo)` — asserts `sinfo` at runtime, binding any
    /// fresh symbolic variables it mentions.
    MatchCast {
        /// The value whose structure is asserted.
        value: Box<Expr>,
        /// The asserted annotation.
        sinfo: StructInfo,
    },
}

impl Expr {
    /// Convenience constructor for an operator call without attributes.
    pub fn op_call(op: Op, args: Vec<Expr>) -> Expr {
        Expr::CallOp {
            op,
            args,
            attrs: OpAttrs::new(),
        }
    }

    /// Returns the variable if this expression is a variable reference.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Expr::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Collects variables referenced by this expression (not recursing into
    /// nested sub-expressions of tuples only — full recursion).
    pub fn collect_used_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Var(v) => out.push(v.clone()),
            Expr::Constant(_) | Expr::ShapeValue(_) | Expr::PrimValue(_) => {}
            Expr::Tuple(items) => {
                for e in items {
                    e.collect_used_vars(out);
                }
            }
            Expr::TupleGetItem(e, _) => e.collect_used_vars(out),
            Expr::CallOp { args, .. }
            | Expr::CallGlobal { args, .. }
            | Expr::CallTir { args, .. }
            | Expr::CallDps { args, .. } => {
                for e in args {
                    e.collect_used_vars(out);
                }
            }
            Expr::MatchCast { value, .. } => value.collect_used_vars(out),
        }
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}

impl From<&Var> for Expr {
    fn from(v: &Var) -> Self {
        Expr::Var(v.clone())
    }
}

/// A single binding `var = value` inside a block.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The bound variable (annotation included).
    pub var: Var,
    /// The bound expression.
    pub value: Expr,
}

/// The kind of a binding block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A side-effect-free, control-flow-free region (`with dataflow():`),
    /// where reordering and dead-code elimination are always safe.
    Dataflow,
    /// An ordinary binding sequence.
    Binding,
}

/// A sequence of bindings, optionally marked as a dataflow block.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingBlock {
    /// Dataflow or plain.
    pub kind: BlockKind,
    /// The bindings in program order.
    pub bindings: Vec<Binding>,
}

/// A graph-level function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Parameter variables (annotations included).
    pub params: Vec<Var>,
    /// Body blocks in order.
    pub blocks: Vec<BindingBlock>,
    /// The returned expression (commonly a variable).
    pub ret: Expr,
    /// Return annotation.
    pub ret_sinfo: StructInfo,
    /// Function attributes.
    pub attrs: OpAttrs,
}

impl Function {
    /// The signature as a callable annotation, used for call-site deduction
    /// with only the signature (isolated symbolic relations at function
    /// boundaries).
    pub fn signature(&self) -> StructInfo {
        StructInfo::callable(
            self.params
                .iter()
                .map(|p| p.struct_info().clone())
                .collect(),
            self.ret_sinfo.clone(),
        )
    }

    /// Iterates over all bindings in all blocks.
    pub fn bindings(&self) -> impl Iterator<Item = &Binding> {
        self.blocks.iter().flat_map(|b| b.bindings.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::DataType;

    #[test]
    fn var_identity_and_annotation() {
        let s = StructInfo::tensor(vec![4.into()], DataType::F32);
        let a = Var::new("x", s.clone());
        let b = Var::new("x", s.clone());
        assert_ne!(a, b);
        assert_eq!(a.struct_info(), &s);
        assert!(!a.is_dataflow());
        assert!(Var::new_dataflow("lv", s).is_dataflow());
    }

    #[test]
    fn collect_used_vars_traverses_nesting() {
        let s = StructInfo::tensor(vec![4.into()], DataType::F32);
        let a = Var::new("a", s.clone());
        let b = Var::new("b", s.clone());
        let e = Expr::op_call(
            Op::Add,
            vec![
                Expr::Tuple(vec![a.clone().into()]),
                Expr::TupleGetItem(Box::new(Expr::Var(b.clone())), 0),
            ],
        );
        let mut used = Vec::new();
        e.collect_used_vars(&mut used);
        assert_eq!(used, vec![a, b]);
    }

    #[test]
    fn signature_reflects_params_and_ret() {
        let s = StructInfo::tensor(vec![4.into()], DataType::F32);
        let p = Var::new("x", s.clone());
        let f = Function {
            params: vec![p.clone()],
            blocks: vec![],
            ret: p.into(),
            ret_sinfo: s.clone(),
            attrs: OpAttrs::new(),
        };
        assert_eq!(f.signature(), StructInfo::callable(vec![s.clone()], s));
    }
}
