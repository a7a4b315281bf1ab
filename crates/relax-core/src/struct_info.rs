//! Structural annotations (the paper's Table 1): `Object`, `Shape`,
//! `Tensor`, `Tuple` and `Callable`.
//!
//! Every Relax value carries a [`StructInfo`] annotation conveying its
//! compile-time structure — including *first-class symbolic shapes*, where
//! tensor dimensions are symbolic integer expressions tracked globally
//! across the program.

use std::collections::HashSet;
use std::fmt;

use relax_arith::{free_vars, substitute, DataType, PrimExpr, SubstMap, Var};

/// Compile-time knowledge about a shape: fully symbolic dimensions, a known
/// rank with unknown dimensions, or nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShapeDesc {
    /// All dimensions known as symbolic expressions, e.g. `(n, 4)`.
    Known(Vec<PrimExpr>),
    /// Only the rank is known, e.g. `Shape(ndim=2)`.
    Ndim(usize),
    /// Nothing is known.
    Unknown,
}

impl ShapeDesc {
    /// The rank, if known.
    pub fn ndim(&self) -> Option<usize> {
        match self {
            ShapeDesc::Known(dims) => Some(dims.len()),
            ShapeDesc::Ndim(n) => Some(*n),
            ShapeDesc::Unknown => None,
        }
    }

    /// The dimensions, if fully known.
    pub fn dims(&self) -> Option<&[PrimExpr]> {
        match self {
            ShapeDesc::Known(dims) => Some(dims),
            _ => None,
        }
    }

    /// Erases symbolic detail down to (at most) the rank.
    pub fn erased(&self) -> ShapeDesc {
        match self.ndim() {
            Some(n) => ShapeDesc::Ndim(n),
            None => ShapeDesc::Unknown,
        }
    }
}

/// The structural annotation of a Relax value (paper Table 1).
///
/// # Examples
///
/// ```
/// use relax_core::StructInfo;
/// use relax_arith::{DataType, PrimExpr, Var};
/// let n = Var::new("n");
/// let t = StructInfo::tensor(vec![n.into(), 4.into()], DataType::F32);
/// assert_eq!(t.to_string(), "Tensor((n, 4), \"f32\")");
/// let s = StructInfo::shape_ndim(2);
/// assert_eq!(s.to_string(), "Shape(ndim=2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StructInfo {
    /// Any runtime value.
    Object,
    /// A shape value, e.g. `Shape([n, 4])`.
    Shape(ShapeDesc),
    /// A scalar integer value known symbolically (e.g. a dimension passed
    /// as a first-class value).
    Prim(PrimExpr),
    /// A tensor with (possibly symbolic) shape and element type.
    Tensor {
        /// Shape knowledge.
        shape: ShapeDesc,
        /// Element type; `None` when unknown.
        dtype: Option<DataType>,
    },
    /// A fixed-length tuple.
    Tuple(Vec<StructInfo>),
    /// A function value with parameter and result annotations.
    Callable {
        /// Parameter annotations.
        params: Vec<StructInfo>,
        /// Result annotation.
        ret: Box<StructInfo>,
    },
}

impl StructInfo {
    /// A tensor with fully known symbolic shape.
    pub fn tensor(shape: Vec<PrimExpr>, dtype: DataType) -> StructInfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Known(shape),
            dtype: Some(dtype),
        }
    }

    /// A tensor with known rank but unknown dimensions
    /// (`Tensor(ndim=2, dtype="f32")`).
    pub fn tensor_ndim(ndim: usize, dtype: DataType) -> StructInfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Ndim(ndim),
            dtype: Some(dtype),
        }
    }

    /// A fully unknown tensor.
    pub fn tensor_unknown() -> StructInfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Unknown,
            dtype: None,
        }
    }

    /// A shape value with known symbolic dimensions.
    pub fn shape(dims: Vec<PrimExpr>) -> StructInfo {
        StructInfo::Shape(ShapeDesc::Known(dims))
    }

    /// A shape value with only the rank known.
    pub fn shape_ndim(ndim: usize) -> StructInfo {
        StructInfo::Shape(ShapeDesc::Ndim(ndim))
    }

    /// A tuple annotation.
    pub fn tuple(fields: Vec<StructInfo>) -> StructInfo {
        StructInfo::Tuple(fields)
    }

    /// A callable annotation.
    pub fn callable(params: Vec<StructInfo>, ret: StructInfo) -> StructInfo {
        StructInfo::Callable {
            params,
            ret: Box::new(ret),
        }
    }

    /// Returns the tensor shape dimensions if this is a tensor with fully
    /// known shape.
    pub fn tensor_dims(&self) -> Option<&[PrimExpr]> {
        match self {
            StructInfo::Tensor { shape, .. } => shape.dims(),
            _ => None,
        }
    }

    /// Returns the tensor element type if known.
    pub fn tensor_dtype(&self) -> Option<DataType> {
        match self {
            StructInfo::Tensor { dtype, .. } => *dtype,
            _ => None,
        }
    }

    /// Erases symbolic shape information, keeping ranks and dtypes — the
    /// "any/unknown dimension" representation that the paper's baselines
    /// (Relay, ONNX) use and that the ablation mode reproduces.
    pub fn erased(&self) -> StructInfo {
        match self {
            StructInfo::Object => StructInfo::Object,
            StructInfo::Shape(s) => StructInfo::Shape(s.erased()),
            StructInfo::Prim(_) => StructInfo::Object,
            StructInfo::Tensor { shape, dtype } => StructInfo::Tensor {
                shape: shape.erased(),
                dtype: *dtype,
            },
            StructInfo::Tuple(fields) => {
                StructInfo::Tuple(fields.iter().map(StructInfo::erased).collect())
            }
            StructInfo::Callable { params, ret } => StructInfo::Callable {
                params: params.iter().map(StructInfo::erased).collect(),
                ret: Box::new(ret.erased()),
            },
        }
    }

    /// Collects the symbolic variables appearing in the annotation.
    pub fn free_symbolic_vars(&self) -> HashSet<Var> {
        let mut out = HashSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut HashSet<Var>) {
        match self {
            StructInfo::Object => {}
            StructInfo::Shape(ShapeDesc::Known(dims)) => {
                for d in dims {
                    out.extend(free_vars(d));
                }
            }
            StructInfo::Shape(_) => {}
            StructInfo::Prim(e) => out.extend(free_vars(e)),
            StructInfo::Tensor { shape, .. } => {
                if let ShapeDesc::Known(dims) = shape {
                    for d in dims {
                        out.extend(free_vars(d));
                    }
                }
            }
            StructInfo::Tuple(fields) => {
                for f in fields {
                    f.collect_vars(out);
                }
            }
            StructInfo::Callable { params, ret } => {
                for p in params {
                    p.collect_vars(out);
                }
                ret.collect_vars(out);
            }
        }
    }

    /// Substitutes symbolic variables throughout the annotation.
    pub fn substituted(&self, map: &SubstMap) -> StructInfo {
        match self {
            StructInfo::Object => StructInfo::Object,
            StructInfo::Shape(ShapeDesc::Known(dims)) => StructInfo::Shape(ShapeDesc::Known(
                dims.iter().map(|d| substitute(d, map)).collect(),
            )),
            StructInfo::Shape(s) => StructInfo::Shape(s.clone()),
            StructInfo::Prim(e) => StructInfo::Prim(substitute(e, map)),
            StructInfo::Tensor { shape, dtype } => StructInfo::Tensor {
                shape: match shape {
                    ShapeDesc::Known(dims) => {
                        ShapeDesc::Known(dims.iter().map(|d| substitute(d, map)).collect())
                    }
                    other => other.clone(),
                },
                dtype: *dtype,
            },
            StructInfo::Tuple(fields) => {
                StructInfo::Tuple(fields.iter().map(|f| f.substituted(map)).collect())
            }
            StructInfo::Callable { params, ret } => StructInfo::Callable {
                params: params.iter().map(|p| p.substituted(map)).collect(),
                ret: Box::new(ret.substituted(map)),
            },
        }
    }

    /// Erases dimensions that mention any of the `forbidden` variables —
    /// used by call-site deduction when a callee's return annotation refers
    /// to symbolic variables the caller could not bind.
    pub fn erase_containing(&self, forbidden: &HashSet<Var>) -> StructInfo {
        if forbidden.is_empty() {
            return self.clone();
        }
        match self {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                dtype,
            } => {
                if dims.iter().all(|d| free_vars(d).is_disjoint(forbidden)) {
                    self.clone()
                } else {
                    StructInfo::Tensor {
                        shape: ShapeDesc::Ndim(dims.len()),
                        dtype: *dtype,
                    }
                }
            }
            StructInfo::Shape(ShapeDesc::Known(dims)) => {
                if dims.iter().all(|d| free_vars(d).is_disjoint(forbidden)) {
                    self.clone()
                } else {
                    StructInfo::Shape(ShapeDesc::Ndim(dims.len()))
                }
            }
            StructInfo::Prim(e) => {
                if free_vars(e).is_disjoint(forbidden) {
                    self.clone()
                } else {
                    StructInfo::Object
                }
            }
            StructInfo::Tuple(fields) => StructInfo::Tuple(
                fields
                    .iter()
                    .map(|f| f.erase_containing(forbidden))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Erases dimensions whose symbolic variables are not all in `bound`:
    /// used when a callee's return annotation mentions variables the caller
    /// could not bind (the dynamic-fallback path of Figure 7, producing
    /// e.g. `Tensor(ndim=1, dtype="f32")`).
    pub fn erase_unbound(&self, bound: &HashSet<Var>) -> StructInfo {
        match self {
            StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                dtype,
            } => {
                if dims.iter().all(|d| free_vars(d).is_subset(bound)) {
                    self.clone()
                } else {
                    StructInfo::Tensor {
                        shape: ShapeDesc::Ndim(dims.len()),
                        dtype: *dtype,
                    }
                }
            }
            StructInfo::Shape(ShapeDesc::Known(dims)) => {
                if dims.iter().all(|d| free_vars(d).is_subset(bound)) {
                    self.clone()
                } else {
                    StructInfo::Shape(ShapeDesc::Ndim(dims.len()))
                }
            }
            StructInfo::Prim(e) => {
                if free_vars(e).is_subset(bound) {
                    self.clone()
                } else {
                    StructInfo::Object
                }
            }
            StructInfo::Tuple(fields) => {
                StructInfo::Tuple(fields.iter().map(|f| f.erase_unbound(bound)).collect())
            }
            other => other.clone(),
        }
    }
}

/// Outcome of checking whether a value annotated `arg` can flow into a
/// position annotated `param`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compat {
    /// Statically guaranteed compatible.
    Static,
    /// Possibly compatible; a lightweight runtime check is required at the
    /// boundary (the paper's dynamic fallback).
    RuntimeCheck,
    /// Statically incompatible.
    Incompatible,
}

/// Structurally unifies `param` (which may contain symbolic variables to
/// bind) against `arg`, extending `map`, and reports compatibility.
///
/// This implements the paper's *isolated symbolic relations at function
/// boundaries*: deduction of a call needs only the callee signature.
/// Fresh variables in `param` bind to the corresponding `arg` expressions;
/// already-bound or non-variable dimensions are compared for provable
/// equality; coarse arguments against specific parameters yield
/// [`Compat::RuntimeCheck`].
pub fn unify_struct_info(param: &StructInfo, arg: &StructInfo, map: &mut SubstMap) -> Compat {
    use StructInfo as S;
    match (param, arg) {
        (S::Object, _) => Compat::Static,
        (_, S::Object) => Compat::RuntimeCheck,
        (
            S::Tensor {
                shape: ps,
                dtype: pd,
            },
            S::Tensor {
                shape: as_,
                dtype: ad,
            },
        ) => {
            let dtype_compat = match (pd, ad) {
                (Some(p), Some(a)) if p != a => return Compat::Incompatible,
                (Some(_), None) => Compat::RuntimeCheck,
                _ => Compat::Static,
            };
            combine(dtype_compat, unify_shape(ps, as_, map))
        }
        (S::Shape(ps), S::Shape(as_)) => unify_shape(ps, as_, map),
        (S::Prim(p), S::Prim(a)) => unify_dim(p, a, map),
        (S::Tuple(pf), S::Tuple(af)) => {
            if pf.len() != af.len() {
                return Compat::Incompatible;
            }
            let mut worst = Compat::Static;
            for (p, a) in pf.iter().zip(af) {
                worst = combine(worst, unify_struct_info(p, a, map));
                if worst == Compat::Incompatible {
                    return worst;
                }
            }
            worst
        }
        (
            S::Callable {
                params: pp,
                ret: pr,
            },
            S::Callable {
                params: ap,
                ret: ar,
            },
        ) => {
            if pp.len() != ap.len() {
                return Compat::Incompatible;
            }
            // Function annotations are compared for structural agreement.
            let mut worst = Compat::Static;
            for (p, a) in pp.iter().zip(ap) {
                worst = combine(worst, unify_struct_info(p, a, map));
            }
            combine(worst, unify_struct_info(pr, ar, map))
        }
        _ => Compat::Incompatible,
    }
}

fn unify_shape(param: &ShapeDesc, arg: &ShapeDesc, map: &mut SubstMap) -> Compat {
    match (param, arg) {
        (ShapeDesc::Known(pd), ShapeDesc::Known(ad)) => {
            if pd.len() != ad.len() {
                return Compat::Incompatible;
            }
            let mut worst = Compat::Static;
            for (p, a) in pd.iter().zip(ad) {
                worst = combine(worst, unify_dim(p, a, map));
                if worst == Compat::Incompatible {
                    return worst;
                }
            }
            worst
        }
        (ShapeDesc::Known(pd), ShapeDesc::Ndim(n)) => {
            if pd.len() != *n {
                Compat::Incompatible
            } else {
                Compat::RuntimeCheck
            }
        }
        (ShapeDesc::Known(_), ShapeDesc::Unknown) => Compat::RuntimeCheck,
        (ShapeDesc::Ndim(pn), other) => match other.ndim() {
            Some(an) if an == *pn => Compat::Static,
            Some(_) => Compat::Incompatible,
            None => Compat::RuntimeCheck,
        },
        (ShapeDesc::Unknown, _) => Compat::Static,
    }
}

fn unify_dim(param: &PrimExpr, arg: &PrimExpr, map: &mut SubstMap) -> Compat {
    match param {
        PrimExpr::Var(v) => {
            if let Some(bound) = map.get(v) {
                let bound = bound.clone();
                prove_dim_equal(&bound, arg, map)
            } else {
                map.insert(v.clone(), arg.clone());
                Compat::Static
            }
        }
        _ => prove_dim_equal(param, arg, map),
    }
}

fn prove_dim_equal(param: &PrimExpr, arg: &PrimExpr, map: &SubstMap) -> Compat {
    let analyzer = relax_arith::Analyzer::new();
    let substituted = substitute(param, map);
    if analyzer.prove_equal(&substituted, arg) {
        Compat::Static
    } else if substituted.is_const() && arg.is_const() {
        Compat::Incompatible
    } else {
        Compat::RuntimeCheck
    }
}

fn combine(a: Compat, b: Compat) -> Compat {
    use Compat::*;
    match (a, b) {
        (Incompatible, _) | (_, Incompatible) => Incompatible,
        (RuntimeCheck, _) | (_, RuntimeCheck) => RuntimeCheck,
        _ => Static,
    }
}

impl fmt::Display for StructInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructInfo::Object => f.write_str("Object"),
            StructInfo::Shape(ShapeDesc::Known(dims)) => {
                write!(f, "Shape([")?;
                for (i, d) in dims.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, "])")
            }
            StructInfo::Shape(ShapeDesc::Ndim(n)) => write!(f, "Shape(ndim={n})"),
            StructInfo::Shape(ShapeDesc::Unknown) => write!(f, "Shape"),
            StructInfo::Prim(e) => write!(f, "Prim({e})"),
            StructInfo::Tensor { shape, dtype } => {
                let dt = match dtype {
                    Some(d) => format!("\"{d}\""),
                    None => "dtype=None".to_string(),
                };
                match shape {
                    ShapeDesc::Known(dims) => {
                        write!(f, "Tensor((")?;
                        for (i, d) in dims.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{d}")?;
                        }
                        if dims.len() == 1 {
                            write!(f, ",")?;
                        }
                        write!(f, "), {dt})")
                    }
                    ShapeDesc::Ndim(n) => write!(f, "Tensor(ndim={n}, {dt})"),
                    ShapeDesc::Unknown => write!(f, "Tensor(ndim=None, {dt})"),
                }
            }
            StructInfo::Tuple(fields) => {
                write!(f, "Tuple[")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{field}")?;
                }
                write!(f, "]")
            }
            StructInfo::Callable { params, ret } => {
                write!(f, "Callable([")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "], {ret})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_table1() {
        let n = Var::new("n");
        assert_eq!(StructInfo::Object.to_string(), "Object");
        assert_eq!(
            StructInfo::shape(vec![n.clone().into(), 4.into()]).to_string(),
            "Shape([n, 4])"
        );
        assert_eq!(StructInfo::shape_ndim(2).to_string(), "Shape(ndim=2)");
        assert_eq!(
            StructInfo::tensor(vec![n.clone().into(), 4.into()], DataType::F32).to_string(),
            "Tensor((n, 4), \"f32\")"
        );
        assert_eq!(
            StructInfo::tensor_unknown().to_string(),
            "Tensor(ndim=None, dtype=None)"
        );
        let tup = StructInfo::tuple(vec![
            StructInfo::tensor(vec![n.clone().into(), 4.into()], DataType::F32),
            StructInfo::Object,
        ]);
        assert_eq!(tup.to_string(), "Tuple[Tensor((n, 4), \"f32\"), Object]");
        let callable = StructInfo::callable(
            vec![StructInfo::tensor(
                vec![n.clone().into(), 4.into()],
                DataType::F32,
            )],
            StructInfo::tensor(vec![PrimExpr::from(n) * 4.into()], DataType::F32),
        );
        assert_eq!(
            callable.to_string(),
            "Callable([Tensor((n, 4), \"f32\")], Tensor(((n * 4),), \"f32\"))"
        );
    }

    #[test]
    fn erasure_keeps_rank() {
        let n = Var::new("n");
        let t = StructInfo::tensor(vec![n.into(), 4.into()], DataType::F32);
        assert_eq!(t.erased(), StructInfo::tensor_ndim(2, DataType::F32));
    }

    #[test]
    fn unify_binds_fresh_vars() {
        let n = Var::new("n");
        let m = Var::new("m");
        let param = StructInfo::shape(vec![n.clone().into(), m.clone().into()]);
        let caller = Var::new("k");
        let arg = StructInfo::shape(vec![caller.clone().into(), 4.into()]);
        let mut map = SubstMap::new();
        assert_eq!(unify_struct_info(&param, &arg, &mut map), Compat::Static);
        assert_eq!(map.get(&n), Some(&PrimExpr::from(caller)));
        assert_eq!(map.get(&m), Some(&PrimExpr::from(4i64)));
    }

    #[test]
    fn unify_detects_static_conflicts() {
        let param = StructInfo::tensor(vec![4.into()], DataType::F32);
        let arg = StructInfo::tensor(vec![5.into()], DataType::F32);
        let mut map = SubstMap::new();
        assert_eq!(
            unify_struct_info(&param, &arg, &mut map),
            Compat::Incompatible
        );
        let arg2 = StructInfo::tensor(vec![4.into()], DataType::F16);
        assert_eq!(
            unify_struct_info(&param, &arg2, &mut map),
            Compat::Incompatible
        );
    }

    #[test]
    fn coarse_args_need_runtime_checks() {
        let n = Var::new("n");
        let m = Var::new("m");
        let param = StructInfo::shape(vec![n.into(), m.into()]);
        let arg = StructInfo::shape_ndim(2);
        let mut map = SubstMap::new();
        assert_eq!(
            unify_struct_info(&param, &arg, &mut map),
            Compat::RuntimeCheck
        );
        // Rank mismatch is statically wrong even for coarse args.
        let arg3 = StructInfo::shape_ndim(3);
        assert_eq!(
            unify_struct_info(&param, &arg3, &mut map),
            Compat::Incompatible
        );
    }

    #[test]
    fn repeated_var_must_prove_equal() {
        let n = Var::new("n");
        // param: Tensor((n, n)) — both dims must match.
        let param = StructInfo::tensor(vec![n.clone().into(), n.clone().into()], DataType::F32);
        let k = Var::new("k");
        let ok = StructInfo::tensor(
            vec![
                PrimExpr::from(k.clone()) * 2.into(),
                PrimExpr::from(k.clone()) + k.clone().into(),
            ],
            DataType::F32,
        );
        let mut map = SubstMap::new();
        assert_eq!(unify_struct_info(&param, &ok, &mut map), Compat::Static);
        let maybe = StructInfo::tensor(
            vec![PrimExpr::from(k.clone()), PrimExpr::from(Var::new("j"))],
            DataType::F32,
        );
        let mut map2 = SubstMap::new();
        assert_eq!(
            unify_struct_info(&param, &maybe, &mut map2),
            Compat::RuntimeCheck
        );
    }

    #[test]
    fn erase_unbound_drops_unresolvable_dims() {
        let n = Var::new("n");
        let m = Var::new("m");
        let t = StructInfo::tensor(
            vec![PrimExpr::from(n.clone()) * m.clone().into()],
            DataType::F32,
        );
        let bound: HashSet<Var> = [n].into_iter().collect();
        assert_eq!(
            t.erase_unbound(&bound),
            StructInfo::tensor_ndim(1, DataType::F32)
        );
    }

    #[test]
    fn substitution_rewrites_shapes() {
        let n = Var::new("n");
        let t = StructInfo::tensor(vec![PrimExpr::from(n.clone()) * 4.into()], DataType::F32);
        let map: SubstMap = [(n, PrimExpr::Int(3))].into_iter().collect();
        assert_eq!(
            t.substituted(&map),
            StructInfo::tensor(vec![12.into()], DataType::F32)
        );
    }

    #[test]
    fn free_vars_collected_across_nesting() {
        let n = Var::new("n");
        let m = Var::new("m");
        let t = StructInfo::tuple(vec![
            StructInfo::tensor(vec![n.clone().into()], DataType::F32),
            StructInfo::shape(vec![m.clone().into()]),
        ]);
        let fv = t.free_symbolic_vars();
        assert!(fv.contains(&n) && fv.contains(&m));
    }
}
