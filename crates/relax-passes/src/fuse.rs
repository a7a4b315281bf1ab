//! Dynamic shape–aware operator fusion (§4.2): `FuseOps` (Algorithm 2)
//! groups tensor-program calls into subgraph functions using the compute
//! patterns from analysis feedback, and `FuseTensorIR` merges each
//! subgraph's tensor programs into a single loop-level function.

use std::collections::{BTreeSet, HashMap, HashSet};

use relax_arith::{PrimExpr, Var as SymVar};
use relax_core::{
    Binding, BindingBlock, BlockKind, Expr, Function, IRModule, OpAttrs, StructInfo, Var,
};
use relax_tir::analysis::PatternKind;
use relax_tir::transform::{merge_calls, InlineCall};
use relax_tir::Buffer;

use crate::annotate::COMPUTE_PATTERN_ATTR;
use crate::cse::replace_vars;
use crate::error::PassError;

/// Attribute marking subgraph functions produced by `FuseOps`.
pub const PRIMITIVE_ATTR: &str = "primitive";

fn kind_of(module: &IRModule, expr: &Expr) -> Option<PatternKind> {
    let Expr::CallTir { func, .. } = expr else {
        return None;
    };
    module
        .tir_func(func)?
        .attr(COMPUTE_PATTERN_ATTR)?
        .parse()
        .ok()
}

fn is_heavy(kind: PatternKind) -> bool {
    matches!(
        kind,
        PatternKind::OutputEwiseFusible | PatternKind::Reduction
    )
}

struct UnionFind {
    parent: Vec<usize>,
    heavy: Vec<bool>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            heavy: vec![false; n],
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let heavy = self.heavy[ra] || self.heavy[rb];
            self.parent[ra] = rb;
            self.heavy[rb] = heavy;
        }
    }
}

/// `FuseOps` (Algorithm 2): groups fusible `call_tir` bindings into new
/// subgraph functions and replaces them with subgraph calls, preserving
/// symbolic shapes by passing extra shape parameters where needed (Figure
/// 8). Returns the number of subgraph functions created.
pub fn fuse_ops(module: &mut IRModule) -> usize {
    let mut created = 0;
    for fname in module.function_names() {
        let func = module.function_mut(&fname).expect("name just listed");
        if func.attrs.contains_key(PRIMITIVE_ATTR) {
            continue;
        }
        // The caller keeps its name in the module while its blocks are out,
        // so the subgraphs added beside it cannot take that name.
        let mut blocks = std::mem::take(&mut func.blocks);
        let ret = func.ret.clone();
        fuse_blocks(module, &mut blocks, &ret, &mut created);
        module.function_mut(&fname).expect("caller kept").blocks = blocks;
    }
    created
}

fn fuse_blocks(
    module: &mut IRModule,
    blocks: &mut [BindingBlock],
    ret: &Expr,
    created: &mut usize,
) {
    for block_idx in 0..blocks.len() {
        if blocks[block_idx].kind != BlockKind::Dataflow {
            continue;
        }
        let bindings = &blocks[block_idx].bindings;
        let n = bindings.len();
        if n < 2 {
            continue;
        }
        // Producer map: var id -> binding index; users map: var id ->
        // indices of the bindings that read it.
        let producer: HashMap<u64, usize> = bindings
            .iter()
            .enumerate()
            .map(|(i, b)| (b.var.id(), i))
            .collect();
        let mut users: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut deps: Vec<Vec<Var>> = Vec::with_capacity(n);
        for (i, b) in bindings.iter().enumerate() {
            let mut vars = Vec::new();
            b.value.collect_used_vars(&mut vars);
            for v in &vars {
                users.entry(v.id()).or_default().push(i);
            }
            deps.push(vars);
        }
        let kinds: Vec<Option<PatternKind>> =
            bindings.iter().map(|b| kind_of(module, &b.value)).collect();

        let mut uf = UnionFind::new(n);
        for (i, k) in kinds.iter().enumerate() {
            if let Some(k) = k {
                uf.heavy[i] = is_heavy(*k);
            }
        }
        for i in 0..n {
            let Some(ck) = kinds[i] else { continue };
            for d in &deps[i] {
                let Some(&j) = producer.get(&d.id()) else {
                    continue;
                };
                let Some(pk) = kinds[j] else { continue };
                if should_fuse(&mut uf, j, i, pk, ck) {
                    uf.union(j, i);
                }
            }
        }

        // Collect groups.
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            groups.entry(uf.find(i)).or_default().push(i);
        }

        // Vars used outside this block (other blocks, later bindings are
        // inside; plus the function return).
        let mut outside_uses: HashSet<u64> = HashSet::new();
        {
            let mut vars = Vec::new();
            for (bi, block) in blocks.iter().enumerate() {
                if bi != block_idx {
                    for b in &block.bindings {
                        b.value.collect_used_vars(&mut vars);
                    }
                }
            }
            ret.collect_used_vars(&mut vars);
            outside_uses.extend(vars.iter().map(Var::id));
        }

        let mut remove: HashSet<usize> = HashSet::new();
        let mut replace: HashMap<usize, Expr> = HashMap::new();

        let mut group_list: Vec<Vec<usize>> =
            groups.into_values().filter(|g| g.len() >= 2).collect();
        group_list.sort_by_key(|g| g[0]);
        for members in group_list {
            let member_set: HashSet<usize> = members.iter().copied().collect();
            // Outputs: member vars used by non-members or outside.
            let outputs: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| {
                    let vid = bindings[i].var.id();
                    outside_uses.contains(&vid)
                        || users
                            .get(&vid)
                            .is_some_and(|us| us.iter().any(|j| !member_set.contains(j)))
                })
                .collect();
            let last = *members.last().expect("non-empty group");
            if outputs != vec![last] {
                continue; // only single-output groups materialize
            }
            if let Some(call) = materialize_group(module, bindings, &members, created) {
                for &i in &members {
                    if i != last {
                        remove.insert(i);
                    }
                }
                replace.insert(last, call);
            }
        }

        if remove.is_empty() && replace.is_empty() {
            continue;
        }
        let bindings = std::mem::take(&mut blocks[block_idx].bindings);
        let mut new_bindings = Vec::with_capacity(n);
        for (i, b) in bindings.into_iter().enumerate() {
            if remove.contains(&i) {
                continue;
            }
            if let Some(call) = replace.remove(&i) {
                new_bindings.push(Binding {
                    var: b.var,
                    value: call,
                });
            } else {
                new_bindings.push(b);
            }
        }
        blocks[block_idx].bindings = new_bindings;
    }
}

fn should_fuse(
    uf: &mut UnionFind,
    producer: usize,
    consumer: usize,
    pk: PatternKind,
    ck: PatternKind,
) -> bool {
    let pg = uf.find(producer);
    let cg = uf.find(consumer);
    if pg == cg {
        return false;
    }
    let both_heavy = uf.heavy[pg] && uf.heavy[cg];
    if both_heavy {
        return false;
    }
    match ck {
        // Element-wise epilogues fuse behind anything fusible (matmul +
        // relu, rms_norm prologue chains, ...).
        PatternKind::ElementWise | PatternKind::Broadcast => {
            pk.is_fusible_prologue() || is_heavy(pk)
        }
        // Injective ops chain with other injective-ish ops.
        PatternKind::Injective => pk.is_fusible_prologue(),
        // Heavy consumers absorb injective prologues (decode_q4 + matmul,
        // Figure 9).
        PatternKind::OutputEwiseFusible | PatternKind::Reduction => pk.is_fusible_prologue(),
        PatternKind::Opaque => false,
    }
}

/// Builds the subgraph function for a fused group; returns the call
/// expression to substitute for the group's final binding.
fn materialize_group(
    module: &mut IRModule,
    bindings: &[Binding],
    members: &[usize],
    created: &mut usize,
) -> Option<Expr> {
    let produced: HashSet<u64> = members.iter().map(|&i| bindings[i].var.id()).collect();

    // External inputs in order of first use.
    let mut external: Vec<Var> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for &i in members {
        let mut vars = Vec::new();
        bindings[i].value.collect_used_vars(&mut vars);
        for v in vars {
            if !produced.contains(&v.id()) && seen.insert(v.id()) {
                external.push(v);
            }
        }
    }

    // Symbolic variables needed vs bindable from tensor parameters.
    let mut needed: BTreeSet<SymVar> = BTreeSet::new();
    for &i in members {
        needed.extend(bindings[i].var.struct_info().free_symbolic_vars());
    }
    for v in &external {
        needed.extend(v.struct_info().free_symbolic_vars());
    }
    let mut bindable: HashSet<SymVar> = HashSet::new();
    for v in &external {
        if let Some(dims) = v.struct_info().tensor_dims() {
            for d in dims {
                if let Some(sv) = d.as_var() {
                    bindable.insert(sv.clone());
                }
            }
        }
    }
    let extra: Vec<SymVar> = needed
        .iter()
        .filter(|v| !bindable.contains(v))
        .cloned()
        .collect();

    // Fresh parameter variables; remap body expressions onto them.
    let mut remap: HashMap<u64, Var> = HashMap::new();
    let mut params: Vec<Var> = Vec::new();
    for v in &external {
        let p = Var::new(v.name(), v.struct_info().clone());
        remap.insert(v.id(), p.clone());
        params.push(p);
    }
    if !extra.is_empty() {
        params.push(Var::new(
            "s",
            StructInfo::shape(extra.iter().map(|v| PrimExpr::from(v.clone())).collect()),
        ));
    }

    let mut body = Vec::new();
    for &i in members {
        let mut b = bindings[i].clone();
        replace_vars(&mut b.value, &remap);
        body.push(b);
    }
    let last_var = bindings[*members.last()?].var.clone();

    // Name: fused_<short names of callees>.
    let mut parts = vec!["fused".to_string()];
    for &i in members {
        if let Expr::CallTir { func, .. } = &bindings[i].value {
            parts.push(func.clone());
        }
    }
    let base = parts.join("_");
    let name = module.fresh_function_name(&base);

    let mut attrs = OpAttrs::new();
    attrs.insert(PRIMITIVE_ATTR.into(), "1".into());
    let fused = Function {
        params,
        blocks: vec![BindingBlock {
            kind: BlockKind::Binding,
            bindings: body,
        }],
        ret: last_var.clone().into(),
        ret_sinfo: last_var.struct_info().clone(),
        attrs,
    };
    module.add_function(name.clone(), fused);
    *created += 1;

    let mut args: Vec<Expr> = external.into_iter().map(Expr::Var).collect();
    if !extra.is_empty() {
        args.push(Expr::ShapeValue(
            extra.into_iter().map(PrimExpr::from).collect(),
        ));
    }
    Some(Expr::CallGlobal { func: name, args })
}

/// `FuseTensorIR`: merges the tensor programs called inside each subgraph
/// function into one, and rewrites call sites from subgraph calls back to
/// `call_tir` of the merged program (the yellow step of Figure 9). The
/// tensor programs no `call_tir` launches any more (every call of them was
/// merged away) leave the module. Returns the number of subgraphs merged.
///
/// One kernel per distinct computation: subgraphs that agree on their
/// parameter annotations, callees, argument wiring, output annotations
/// and returned value, names aside, share the kernel merged for the first
/// of them.
///
/// # Errors
///
/// Propagates tensor-program merge failures.
pub fn fuse_tensor_ir(module: &mut IRModule) -> Result<usize, PassError> {
    let fused_names: Vec<String> = module
        .functions()
        .filter(|(_, f)| f.attrs.contains_key(PRIMITIVE_ATTR))
        .map(|(n, _)| n.clone())
        .collect();
    // Merge every subgraph first, then rewrite all call sites in one walk.
    let mut kernels: HashMap<SubgraphKey, String> = HashMap::new();
    let mut merged: HashMap<String, String> = HashMap::new();
    for gname in fused_names {
        let gfunc = module.function(&gname).expect("name just listed");
        let Some(key) = subgraph_key(gfunc) else {
            continue;
        };
        let tir_name = match kernels.get(&key) {
            Some(name) => name.clone(),
            None => {
                let Some(prim) = merge_subgraph(module, &gname, gfunc)? else {
                    continue;
                };
                let name = module.add_tir_func(prim);
                kernels.insert(key, name.clone());
                name
            }
        };
        module.remove_function(&gname);
        merged.insert(gname, tir_name);
    }
    if merged.is_empty() {
        return Ok(0);
    }
    for fname in module.function_names() {
        let caller = module.function_mut(&fname).expect("name just listed");
        for binding in caller.blocks.iter_mut().flat_map(|b| &mut b.bindings) {
            let Expr::CallGlobal { func, args } = &mut binding.value else {
                continue;
            };
            let Some(tir_name) = merged.get(func.as_str()) else {
                continue;
            };
            let mut tensor_args = Vec::new();
            let mut sym_args = Vec::new();
            for a in std::mem::take(args) {
                match a {
                    Expr::ShapeValue(dims) => sym_args.extend(dims),
                    other => tensor_args.push(other),
                }
            }
            binding.value = Expr::CallTir {
                func: tir_name.clone(),
                args: tensor_args,
                out_sinfo: binding.var.struct_info().clone(),
                sym_args,
            };
        }
    }
    let launched: HashSet<String> = module
        .functions()
        .flat_map(|(_, f)| f.bindings())
        .filter_map(|b| match &b.value {
            Expr::CallTir { func, .. } => Some(func.clone()),
            _ => None,
        })
        .collect();
    module.retain_tir_funcs(|name| launched.contains(name));
    Ok(merged.len())
}

/// What [`merge_subgraph`] reads of a subgraph, without its names: the
/// parameter annotations, then per binding the callee, the positions of
/// its arguments and its output annotation, then the position of the
/// returned value. A position indexes the parameters followed by the
/// bindings.
#[derive(PartialEq, Eq, Hash)]
struct SubgraphKey {
    params: Vec<StructInfo>,
    calls: Vec<(String, Vec<usize>, StructInfo)>,
    ret: usize,
}

/// The key of a subgraph made only of `call_tir`s of variables, or `None`
/// (which [`merge_subgraph`] would refuse too).
fn subgraph_key(gfunc: &Function) -> Option<SubgraphKey> {
    let mut position: HashMap<u64, usize> = gfunc
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id(), i))
        .collect();
    let mut calls = Vec::new();
    for b in gfunc.bindings() {
        let Expr::CallTir {
            func,
            args,
            out_sinfo,
            ..
        } = &b.value
        else {
            return None;
        };
        let args = args
            .iter()
            .map(|a| position.get(&a.as_var()?.id()).copied())
            .collect::<Option<Vec<usize>>>()?;
        position.insert(b.var.id(), position.len());
        calls.push((func.clone(), args, out_sinfo.clone()));
    }
    Some(SubgraphKey {
        params: gfunc
            .params
            .iter()
            .map(|p| p.struct_info().clone())
            .collect(),
        calls,
        ret: *position.get(&gfunc.ret.as_var()?.id())?,
    })
}

/// Builds the merged tensor program for one subgraph function, or `None`
/// if the subgraph contains constructs the merger does not handle.
fn merge_subgraph(
    module: &IRModule,
    gname: &str,
    gfunc: &Function,
) -> Result<Option<relax_tir::PrimFunc>, PassError> {
    let mut buffers: HashMap<u64, Buffer> = HashMap::new();
    let mut param_buffers: Vec<Buffer> = Vec::new();
    for p in &gfunc.params {
        match p.struct_info() {
            StructInfo::Tensor { .. } => {
                let Some(dims) = p.struct_info().tensor_dims() else {
                    return Ok(None);
                };
                let dtype = p
                    .struct_info()
                    .tensor_dtype()
                    .unwrap_or(relax_core::DataType::F32);
                let buf = Buffer::new(p.name(), dims.to_vec(), dtype);
                buffers.insert(p.id(), buf.clone());
                param_buffers.push(buf);
            }
            StructInfo::Shape(_) => {} // symbolic shape parameter: not a buffer
            _ => return Ok(None),
        }
    }
    let mut calls: Vec<InlineCall> = Vec::new();
    for b in gfunc.bindings() {
        let Expr::CallTir {
            func,
            args,
            out_sinfo,
            ..
        } = &b.value
        else {
            return Ok(None);
        };
        let Some(callee) = module.tir_func(func) else {
            return Ok(None);
        };
        let mut arg_bufs = Vec::new();
        for a in args {
            let Expr::Var(v) = a else { return Ok(None) };
            let Some(buf) = buffers.get(&v.id()) else {
                return Ok(None);
            };
            arg_bufs.push(buf.clone());
        }
        let Some(out_dims) = out_sinfo.tensor_dims() else {
            return Ok(None);
        };
        let out_dtype = out_sinfo
            .tensor_dtype()
            .unwrap_or(relax_core::DataType::F32);
        let out_buf = Buffer::new(b.var.name(), out_dims.to_vec(), out_dtype);
        buffers.insert(b.var.id(), out_buf.clone());
        arg_bufs.push(out_buf);
        calls.push(InlineCall {
            func: callee.clone(),
            args: arg_bufs,
        });
    }
    let Some(ret_var) = gfunc.ret.as_var() else {
        return Ok(None);
    };
    let Some(ret_buf) = buffers.get(&ret_var.id()).cloned() else {
        return Ok(None);
    };
    let mut all_params = param_buffers;
    all_params.push(ret_buf);
    let merged = merge_calls(gname, all_params, 1, &calls)?;
    Ok(Some(merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate_compute_patterns;
    use crate::legalize_pass::legalize_module;
    use relax_arith::Var as SV;
    use relax_core::{assert_well_formed, BlockBuilder, DataType, Op};
    use relax_tir::{interp, NDArray};

    /// matmul -> add(bias) -> relu on symbolic batch; the classic fusion.
    fn build_module() -> IRModule {
        let mut bb = BlockBuilder::new();
        let n = SV::new("n");
        let p = bb.begin_function(
            "main",
            vec![
                (
                    "x".into(),
                    StructInfo::tensor(vec![n.into(), 8.into()], DataType::F32),
                ),
                (
                    "w".into(),
                    StructInfo::tensor(vec![8.into(), 4.into()], DataType::F32),
                ),
                (
                    "b".into(),
                    StructInfo::tensor(vec![4.into()], DataType::F32),
                ),
            ],
        );
        bb.begin_dataflow();
        let mm = bb
            .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
            .unwrap();
        let biased = bb.emit_op(Op::Add, &[mm, p[2].clone()]).unwrap();
        let out = bb
            .emit_output(Expr::op_call(Op::Relu, vec![biased.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        bb.finish()
    }

    #[test]
    fn fuse_ops_groups_matmul_epilogue() {
        let mut m = build_module();
        legalize_module(&mut m).unwrap();
        annotate_compute_patterns(&mut m);
        let groups = fuse_ops(&mut m);
        assert_eq!(groups, 1);
        assert!(assert_well_formed(&m).is_ok());
        // Caller now has a single subgraph call.
        let main = m.function("main").unwrap();
        let bindings: Vec<_> = main.bindings().collect();
        assert_eq!(bindings.len(), 1);
        assert!(matches!(&bindings[0].value, Expr::CallGlobal { .. }));
        // The fused function exists, is primitive, and contains 3 call_tirs.
        let fused_name = match &bindings[0].value {
            Expr::CallGlobal { func, .. } => func.clone(),
            _ => unreachable!(),
        };
        let fused = m.function(&fused_name).unwrap();
        assert!(fused.attrs.contains_key(PRIMITIVE_ATTR));
        assert_eq!(fused.bindings().count(), 3);
    }

    #[test]
    fn fuse_tensor_ir_produces_single_kernel_that_runs() {
        let mut m = build_module();
        legalize_module(&mut m).unwrap();
        annotate_compute_patterns(&mut m);
        fuse_ops(&mut m);
        let merged = fuse_tensor_ir(&mut m).unwrap();
        assert_eq!(merged, 1);
        assert!(assert_well_formed(&m).is_ok());
        let main = m.function("main").unwrap();
        let bindings: Vec<_> = main.bindings().collect();
        assert_eq!(bindings.len(), 1);
        let Expr::CallTir { func, args, .. } = &bindings[0].value else {
            panic!("expected call_tir after FuseTensorIR");
        };
        assert_eq!(args.len(), 3);
        // Execute the merged kernel: relu(x@w + bias).
        let prim = m.tir_func(func).unwrap().clone();
        let x =
            NDArray::from_f64(&[2, 8], DataType::F32, (0..16).map(f64::from).collect()).unwrap();
        let w = NDArray::from_f64(
            &[8, 4],
            DataType::F32,
            (0..32).map(|v| (v % 5) as f64 - 2.0).collect(),
        )
        .unwrap();
        let bias = NDArray::from_f64(&[4], DataType::F32, vec![0.5, -100.0, 0.0, 1.0]).unwrap();
        let out = NDArray::zeros(&[2, 4], DataType::F32);
        interp::run(&prim, &[x.clone(), w.clone(), bias.clone(), out.clone()]).unwrap();
        // Reference.
        let xv = x.to_f64_vec();
        let wv = w.to_f64_vec();
        let bv = bias.to_f64_vec();
        for i in 0..2 {
            for j in 0..4 {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += xv[i * 8 + k] * wv[k * 4 + j];
                }
                let expect = (acc + bv[j]).max(0.0);
                let got = out.to_f64_vec()[i * 4 + j];
                assert!((got - expect).abs() < 1e-4, "({i},{j}): {got} vs {expect}");
            }
        }
        // One intermediate became local inside the merged kernel.
        let mut locals = 0;
        prim.body().for_each_alloc(&mut |b| {
            assert_eq!(b.scope(), relax_tir::MemScope::Local);
            locals += 1;
        });
        assert_eq!(locals, 2); // matmul out + add out
    }

    #[test]
    fn opaque_programs_do_not_fuse() {
        // softmax (opaque multi-store) between two elementwise ops.
        let mut bb = BlockBuilder::new();
        let n = SV::new("n");
        let p = bb.begin_function(
            "main",
            vec![(
                "x".into(),
                StructInfo::tensor(vec![n.into(), 8.into()], DataType::F32),
            )],
        );
        bb.begin_dataflow();
        let e = bb.emit_op(Op::Exp, &[p[0].clone()]).unwrap();
        let s = bb.emit_op(Op::Softmax, &[e]).unwrap();
        let out = bb
            .emit_output(Expr::op_call(Op::Relu, vec![s.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        legalize_module(&mut m).unwrap();
        annotate_compute_patterns(&mut m);
        let groups = fuse_ops(&mut m);
        assert_eq!(groups, 0);
        assert_eq!(m.function("main").unwrap().bindings().count(), 3);
    }

    /// Two matmul + add groups over `x`/`w` and `y`/`w` (`x` and `y` of one
    /// annotation), returned as a tuple so each stays its own group. The
    /// second group adds its matmul output on the left when `swap` is
    /// false, on the right when it is true.
    fn two_epilogue_groups(swap: bool) -> IRModule {
        let mut bb = BlockBuilder::new();
        let n = SV::new("n");
        let xs = StructInfo::tensor(vec![n.into(), 4.into()], DataType::F32);
        let p = bb.begin_function(
            "main",
            vec![
                ("x".into(), xs.clone()),
                ("y".into(), xs),
                (
                    "w".into(),
                    StructInfo::tensor(vec![4.into(), 4.into()], DataType::F32),
                ),
            ],
        );
        bb.begin_dataflow();
        let m1 = bb
            .emit_op(Op::Matmul, &[p[0].clone(), p[2].clone()])
            .unwrap();
        let o1 = bb.emit_op(Op::Add, &[m1, p[0].clone()]).unwrap();
        let m2 = bb
            .emit_op(Op::Matmul, &[p[1].clone(), p[2].clone()])
            .unwrap();
        let o2 = if swap {
            bb.emit_op(Op::Add, &[p[1].clone(), m2]).unwrap()
        } else {
            bb.emit_op(Op::Add, &[m2, p[1].clone()]).unwrap()
        };
        let out = bb
            .emit_output(Expr::Tuple(vec![o1.into(), o2.into()]))
            .unwrap();
        bb.end_dataflow();
        bb.finish_function(out.into(), None).unwrap();
        let mut m = bb.finish();
        legalize_module(&mut m).unwrap();
        annotate_compute_patterns(&mut m);
        assert_eq!(fuse_ops(&mut m), 2);
        assert_eq!(fuse_tensor_ir(&mut m).unwrap(), 2);
        assert!(assert_well_formed(&m).is_ok());
        m
    }

    /// The merged kernels `main` calls, in call order.
    fn merged_callees(m: &IRModule) -> Vec<String> {
        m.function("main")
            .unwrap()
            .bindings()
            .filter_map(|b| match &b.value {
                Expr::CallTir { func, .. } => Some(func.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn identical_groups_share_one_merged_kernel() {
        let m = two_epilogue_groups(false);
        let callees = merged_callees(&m);
        assert_eq!(callees.len(), 2);
        assert_eq!(callees[0], callees[1]);
        // Run the shared kernel for each site: x @ w + x and y @ w + y.
        let prim = m.tir_func(&callees[0]).unwrap();
        let w =
            NDArray::from_f64(&[4, 4], DataType::F32, (0..16).map(f64::from).collect()).unwrap();
        for x in [vec![1.0; 4], vec![0.5, -1.0, 2.0, 0.0]] {
            let xs = NDArray::from_f64(&[1, 4], DataType::F32, x.clone()).unwrap();
            let out = NDArray::zeros(&[1, 4], DataType::F32);
            interp::run(prim, &[xs, w.clone(), out.clone()]).unwrap();
            let want: Vec<f64> = (0..4)
                .map(|j| (0..4).map(|k| x[k] * (k * 4 + j) as f64).sum::<f64>() + x[j])
                .collect();
            assert_eq!(out.to_f64_vec(), want);
        }
    }

    #[test]
    fn differently_wired_groups_get_two_merged_kernels() {
        let callees = merged_callees(&two_epilogue_groups(true));
        assert_eq!(callees.len(), 2);
        assert_ne!(callees[0], callees[1]);
    }
}
