//! Robustness integration tests: executable validation, error provenance,
//! fault injection, and graceful degradation.
//!
//! Four guarantees are exercised end to end:
//!
//! 1. the validator rejects hand-corrupted executables with named
//!    violations while pipeline-produced executables pass;
//! 2. every `VmErrorKind` variant is constructible, carries a frame trace,
//!    and leaves the VM in a clean state — a successful run immediately
//!    after any failure counts as a recovery;
//! 3. a run whose shapes exceed the declared planning bounds completes via
//!    the pooled-allocator fallback instead of failing;
//! 4. a failing runtime builtin names itself in its `KernelError`, an
//!    exhausted KV page pool keeps its typed cause, and a cache draws
//!    pages only from the pool it was made on.

use std::sync::Arc;

use relax::arith::{PrimExpr, Var as SymVar};
use relax::core::{BlockBuilder, DataType, Expr, IRModule, Op, StructInfo};
use relax::models::llama::{build_decode_paged, LlamaConfig};
use relax::passes::{compile, CompileOptions};
use relax::tir::{grid, Buffer, NDArray, PrimFunc, Stmt, TirExpr};
use relax::vm::registry::Registry;
use relax::vm::{
    verify, Executable, FaultPlan, Instr, KvCache, KvCacheConfig, KvPagePool, Value, Vm,
    VmErrorKind, VmFunction,
};

/// x @ w1 -> relu -> @ w2 -> rms_norm on a symbolic batch dimension.
fn mlp_module() -> (IRModule, SymVar) {
    let mut bb = BlockBuilder::new();
    let n = SymVar::new("n");
    let p = bb.begin_function(
        "main",
        vec![
            (
                "x".into(),
                StructInfo::tensor(vec![n.clone().into(), 8.into()], DataType::F32),
            ),
            (
                "w1".into(),
                StructInfo::tensor(vec![8.into(), 16.into()], DataType::F32),
            ),
            (
                "w2".into(),
                StructInfo::tensor(vec![16.into(), 8.into()], DataType::F32),
            ),
            (
                "g".into(),
                StructInfo::tensor(vec![8.into()], DataType::F32),
            ),
        ],
    );
    bb.begin_dataflow();
    let h = bb
        .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
        .unwrap();
    let h = bb.emit(Expr::op_call(Op::Relu, vec![h.into()])).unwrap();
    let h = bb.emit_op(Op::Matmul, &[h, p[2].clone()]).unwrap();
    let out = bb
        .emit_output(Expr::op_call(
            Op::RmsNorm,
            vec![h.into(), p[3].clone().into()],
        ))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    (bb.finish(), n)
}

/// Compiles the MLP with a planning bound of `bound` on the batch var,
/// without graph capture (so instructions stay at the top level and are
/// easy to corrupt surgically).
fn compiled_mlp(bound: i64) -> Executable {
    let (m, n) = mlp_module();
    let opts = CompileOptions {
        graph_capture: false,
        ..CompileOptions::default()
    }
    .with_bound(n, bound);
    compile(m, &opts).unwrap()
}

fn mlp_args(batch: usize) -> Vec<Value> {
    let fill = |dims: &[usize], scale: f64| {
        let numel: usize = dims.iter().product();
        NDArray::from_f64(
            dims,
            DataType::F32,
            (0..numel)
                .map(|i| ((i % 11) as f64 - 5.0) * scale)
                .collect(),
        )
        .unwrap()
    };
    vec![
        Value::Tensor(fill(&[batch, 8], 0.1)),
        Value::Tensor(fill(&[8, 16], 0.05)),
        Value::Tensor(fill(&[16, 8], 0.05)),
        Value::Tensor(fill(&[8], 0.2)),
    ]
}

fn main_instrs(exec: &mut Executable) -> &mut Vec<Instr> {
    &mut exec.funcs.get_mut("main").unwrap().instrs
}

fn violations_of(exec: &Executable) -> Vec<(&'static str, String)> {
    match verify(exec, &Registry::new()) {
        Ok(()) => Vec::new(),
        Err(e) => e
            .violations
            .into_iter()
            .map(|v| (v.rule, v.to_string()))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Validator: pipeline output passes, corrupted executables are rejected with
// named violations.
// ---------------------------------------------------------------------------

#[test]
fn pipeline_produced_executables_pass_validation() {
    let (m, n) = mlp_module();
    for opts in [
        CompileOptions::default().with_bound(n.clone(), 64),
        CompileOptions::baseline(),
        CompileOptions {
            graph_capture: false,
            ..CompileOptions::default()
        },
    ] {
        // `compile` itself validates after lowering, planning and capture;
        // assert the final artifact also passes a standalone check.
        let exec = compile(m.clone(), &opts).unwrap();
        assert!(verify(&exec, &Registry::new()).is_ok());
    }
}

#[test]
fn validator_rejects_use_after_kill() {
    let mut exec = compiled_mlp(64);
    let instrs = main_instrs(&mut exec);
    let kill_at = instrs
        .iter()
        .position(|i| matches!(i, Instr::Kill { .. }))
        .expect("plan emits kills");
    // Kill the same register twice.
    let dup = instrs[kill_at].clone();
    instrs.insert(kill_at + 1, dup);
    let v = violations_of(&exec);
    assert!(v.iter().any(|(rule, _)| *rule == "use-after-kill"), "{v:?}");
}

#[test]
fn validator_rejects_undefined_register() {
    let mut exec = compiled_mlp(64);
    let f = exec.funcs.get_mut("main").unwrap();
    // Point the return at a fresh register nothing ever writes.
    f.num_regs += 1;
    let unset = f.num_regs - 1;
    for i in &mut f.instrs {
        if let Instr::Ret { src } = i {
            *src = unset;
        }
    }
    let v = violations_of(&exec);
    assert!(
        v.iter().any(|(rule, _)| *rule == "undefined-register"),
        "{v:?}"
    );
}

#[test]
fn validator_rejects_arity_mismatch() {
    let mut exec = compiled_mlp(64);
    let instrs = main_instrs(&mut exec);
    for i in instrs.iter_mut() {
        if let Instr::CallLib { args, .. } = i {
            args.push(0); // one argument too many
            break;
        }
    }
    let v = violations_of(&exec);
    assert!(v.iter().any(|(rule, _)| *rule == "arity-mismatch"), "{v:?}");
}

#[test]
fn validator_rejects_unbound_symbolic_var() {
    let mut exec = compiled_mlp(64);
    // Strip the match_shape prologue: symbolic shapes are never bound.
    main_instrs(&mut exec).retain(|i| !matches!(i, Instr::MatchShape { .. }));
    let v = violations_of(&exec);
    assert!(
        v.iter().any(|(rule, _)| *rule == "unbound-symbolic-var"),
        "{v:?}"
    );
}

#[test]
fn validator_rejects_tensor_on_dead_storage() {
    let mut exec = compiled_mlp(64);
    let instrs = main_instrs(&mut exec);
    let (at, storage) = instrs
        .iter()
        .enumerate()
        .find_map(|(i, instr)| match instr {
            Instr::TensorFromStorage { storage, .. } => Some((i, *storage)),
            _ => None,
        })
        .expect("plan emits tensor_from");
    instrs.insert(at, Instr::Kill { reg: storage });
    let v = violations_of(&exec);
    assert!(v.iter().any(|(rule, _)| *rule == "dead-storage"), "{v:?}");
}

#[test]
fn violations_render_with_rule_function_and_pc() {
    let mut exec = compiled_mlp(64);
    main_instrs(&mut exec).retain(|i| !matches!(i, Instr::MatchShape { .. }));
    let err = verify(&exec, &Registry::new()).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("invariant violation"), "{text}");
    assert!(text.contains("[unbound-symbolic-var] main[pc "), "{text}");
}

// ---------------------------------------------------------------------------
// Error taxonomy: every VmErrorKind variant, with provenance and recovery.
// ---------------------------------------------------------------------------

/// Asserts the VM completes a clean run right after `err` and counted it
/// as a recovery.
fn assert_recovers(vm: &mut Vm, args: &[Value]) {
    let before = vm.telemetry().recoveries;
    vm.run("main", args)
        .expect("VM must be reusable after an error");
    assert_eq!(vm.telemetry().recoveries, before + 1);
    assert_eq!(
        vm.telemetry().pool.in_use,
        0,
        "failed run leaked pool blocks"
    );
}

#[test]
fn unknown_function_errors_and_vm_recovers() {
    let mut vm = Vm::new(compiled_mlp(64));
    let err = vm.run("nope", &[]).unwrap_err();
    assert!(matches!(err.kind, VmErrorKind::UnknownFunction(_)));
    assert_recovers(&mut vm, &mlp_args(2));
}

#[test]
fn arg_count_errors_with_entry_frame() {
    let mut vm = Vm::new(compiled_mlp(64));
    let err = vm.run("main", &mlp_args(2)[..2]).unwrap_err();
    assert!(matches!(
        err.kind,
        VmErrorKind::ArgCount {
            expected: 4,
            actual: 2,
            ..
        }
    ));
    assert_eq!(err.origin().unwrap().instr, "<function entry>");
    assert_recovers(&mut vm, &mlp_args(2));
}

#[test]
fn type_mismatch_errors_with_trace() {
    let mut exec = compiled_mlp(64);
    // Project a tuple field out of a tensor parameter.
    let instrs = main_instrs(&mut exec);
    let at = instrs
        .iter()
        .position(|i| !matches!(i, Instr::MatchShape { .. }))
        .unwrap();
    instrs.insert(
        at,
        Instr::GetItem {
            dst: 4,
            src: 0,
            index: 0,
        },
    );
    let mut vm = Vm::new(exec);
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    assert!(matches!(
        err.kind,
        VmErrorKind::TypeMismatch {
            expected: "tuple",
            ..
        }
    ));
    let origin = err.origin().unwrap();
    assert_eq!(origin.func, "main");
    assert_eq!(origin.pc, at);
    assert!(origin.instr.contains('['), "{}", origin.instr);
    // The executable itself is corrupt, so no run can succeed — but the
    // failed run must not leak pool memory.
    assert_eq!(vm.telemetry().pool.in_use, 0);
}

#[test]
fn injected_shape_check_fault_errors_and_recovers() {
    let mut vm = Vm::new(compiled_mlp(64));
    vm.inject_faults(FaultPlan::new().fail_shape_check(2));
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    assert!(matches!(err.kind, VmErrorKind::ShapeCheck { .. }));
    assert!(err.to_string().contains("injected fault"), "{err}");
    let origin = err.origin().unwrap();
    assert!(origin.instr.contains("match_shape"), "{}", origin.instr);
    assert_eq!(vm.telemetry().faults_injected, 1);
    assert_recovers(&mut vm, &mlp_args(2));
}

#[test]
fn planned_storage_overflow_degrades_to_the_pool() {
    // Storage planned for a batch of 4, run at 32: the tensors that
    // outgrow it come from the pooled allocator, which gets every block
    // back.
    let mut vm = Vm::new(compiled_mlp(4));
    vm.run("main", &mlp_args(32)).unwrap();
    assert!(vm.telemetry().fallback_allocs >= 1);
    assert_eq!(vm.telemetry().pool.in_use, 0);
}

#[test]
fn unbound_symbolic_var_errors_at_evaluation() {
    let mut exec = compiled_mlp(64);
    main_instrs(&mut exec).retain(|i| !matches!(i, Instr::MatchShape { .. }));
    // The validator rejects this executable (see above); running it anyway
    // shows the VM degrades to a traced Eval error, not a panic.
    let mut vm = Vm::new(exec);
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    assert!(matches!(err.kind, VmErrorKind::Eval(_)));
    assert!(err.origin().unwrap().instr.contains("tensor_from"));
}

#[test]
fn a_negative_allocation_size_fails_its_shape_check() {
    // main(x: (n,)) { y = alloc (n - 4,); ret y } at n = 1.
    let n = SymVar::new("n");
    let mut exec = Executable::new();
    let instrs = vec![
        Instr::MatchShape {
            src: 0,
            dims: vec![n.clone().into()],
            ctx: "x".into(),
        },
        Instr::AllocTensor {
            dst: 1,
            shape: vec![PrimExpr::from(n) - 4.into()],
            dtype: DataType::F32,
        },
        Instr::Ret { src: 1 },
    ];
    let main = VmFunction {
        name: "main".into(),
        num_params: 1,
        num_regs: 2,
        instrs,
    };
    exec.funcs.insert("main".into(), main);
    let mut vm = Vm::new(exec);
    let x = Value::Tensor(NDArray::zeros(&[1], DataType::F32));
    let err = vm.run("main", &[x]).unwrap_err();
    match &err.kind {
        VmErrorKind::ShapeCheck { ctx, detail } => {
            assert_eq!(ctx, "allocation");
            assert_eq!(detail, "size `(n - 4)` = -3 is negative");
        }
        other => panic!("expected ShapeCheck, got {other}"),
    }
    assert_eq!(err.origin().unwrap().pc, 1);
}

#[test]
fn interp_error_carries_call_tir_frame() {
    // relu's X and Y buffers share shape (n,); passing a mis-sized
    // destination makes the tensor-program interpreter fail.
    let n = SymVar::new("n");
    let xb = Buffer::new("X", vec![n.clone().into()], DataType::F32);
    let yb = Buffer::new("Y", vec![n.clone().into()], DataType::F32);
    let (iv, nest) = grid(&[("i", n.clone().into())]);
    let body = nest.build(Stmt::store(
        &yb,
        vec![iv[0].clone().into()],
        TirExpr::Max(
            Box::new(TirExpr::load(&xb, vec![iv[0].clone().into()])),
            Box::new(TirExpr::FloatImm(0.0)),
        ),
    ));
    let relu = PrimFunc::new("relu", vec![xb, yb], 1, body);
    let mut exec = Executable::new();
    exec.tir_funcs.insert("relu".into(), relu);
    exec.funcs.insert(
        "main".into(),
        VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 2,
            instrs: vec![
                Instr::AllocTensor {
                    dst: 1,
                    shape: vec![8.into()],
                    dtype: DataType::F32,
                },
                Instr::CallTir {
                    func: "relu".into(),
                    args: vec![0],
                    dsts: vec![1],
                    sym_args: vec![],
                },
                Instr::Ret { src: 1 },
            ],
        },
    );
    let mut vm = Vm::new(exec);
    let x = NDArray::zeros(&[4], DataType::F32); // 4 != 8
    let err = vm.run("main", &[Value::Tensor(x)]).unwrap_err();
    assert!(matches!(err.kind, VmErrorKind::Interp(_)), "{err}");
    let origin = err.origin().unwrap();
    assert_eq!(origin.pc, 1);
    assert!(origin.instr.contains("call_tir"), "{}", origin.instr);
    // The VM is reusable with a correctly sized input.
    let ok = NDArray::zeros(&[8], DataType::F32);
    vm.run("main", &[Value::Tensor(ok)]).unwrap();
    assert_eq!(vm.telemetry().recoveries, 1);
}

#[test]
fn injected_kernel_fault_errors_and_recovers() {
    let mut vm = Vm::new(compiled_mlp(64));
    vm.inject_faults(FaultPlan::new().fail_kernel(2));
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    match &err.kind {
        VmErrorKind::Kernel(k) => assert_eq!(k.detail, "injected fault"),
        other => panic!("expected Kernel, got {other}"),
    }
    assert!(err.origin().unwrap().instr.contains("call_lib"));
    assert_eq!(vm.telemetry().faults_injected, 1);
    assert_recovers(&mut vm, &mlp_args(2));
}

#[test]
fn injected_alloc_fault_errors_and_recovers() {
    let mut vm = Vm::new(compiled_mlp(64));
    vm.inject_faults(FaultPlan::new().fail_alloc(1));
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    assert!(matches!(err.kind, VmErrorKind::StorageOverflow { .. }));
    assert!(err.origin().unwrap().instr.contains("alloc_storage"));
    assert_eq!(vm.telemetry().faults_injected, 1);
    assert_recovers(&mut vm, &mlp_args(2));
}

#[test]
fn unknown_tir_errors_with_trace() {
    let mut exec = compiled_mlp(64);
    main_instrs(&mut exec).push(Instr::CallTir {
        func: "missing_kernel".into(),
        args: vec![],
        dsts: vec![],
        sym_args: vec![],
    });
    // Move the stray call before the return so it executes.
    let instrs = main_instrs(&mut exec);
    let last = instrs.len() - 1;
    instrs.swap(last - 1, last);
    let mut vm = Vm::new(exec);
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    match &err.kind {
        VmErrorKind::UnknownTir(name) => assert_eq!(name, "missing_kernel"),
        other => panic!("expected UnknownTir, got {other}"),
    }
    assert!(err.origin().unwrap().instr.contains("call_tir"));
}

#[test]
fn no_return_errors_with_end_frame() {
    let mut exec = compiled_mlp(64);
    main_instrs(&mut exec).retain(|i| !matches!(i, Instr::Ret { .. }));
    let mut vm = Vm::new(exec);
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    assert!(matches!(err.kind, VmErrorKind::NoReturn(_)));
    assert_eq!(err.origin().unwrap().instr, "<end of function>");
    // Even without a return, the run's pool blocks were reclaimed.
    assert_eq!(vm.telemetry().pool.in_use, 0);
}

#[test]
fn traced_errors_render_function_pc_and_instruction() {
    let mut vm = Vm::new(compiled_mlp(64));
    vm.inject_faults(FaultPlan::new().fail_kernel(1));
    let err = vm.run("main", &mlp_args(2)).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("injected fault"), "{text}");
    assert!(text.contains("at main[pc "), "{text}");
    assert!(text.contains("call_lib"), "{text}");
}

// ---------------------------------------------------------------------------
// Builtin failures: a runtime builtin's error keeps its kernel name and, for
// an exhausted page pool, the typed cause serving retries on.
// ---------------------------------------------------------------------------

/// Tiny llama's compiled `decode_paged`, the geometry of a cache for it,
/// and zero weights in parameter order after `tokens` and `kv_cache`.
fn tiny_paged_llama() -> (Executable, KvCacheConfig, Vec<Value>) {
    let cfg = LlamaConfig::tiny();
    let ir = build_decode_paged(&cfg).unwrap();
    let kv = KvCacheConfig {
        streams: 2 * cfg.n_layers,
        batch: 1,
        heads: cfg.n_kv_heads as usize,
        head_dim: cfg.head_dim as usize,
        dtype: cfg.dtype,
    };
    let weights = ir
        .params
        .iter()
        .filter(|(name, _)| name != "tokens" && name != "kv_cache")
        .map(|(_, sinfo)| {
            let dims: Vec<usize> = sinfo
                .tensor_dims()
                .unwrap()
                .iter()
                .map(|d| d.as_int().unwrap() as usize)
                .collect();
            Value::Tensor(NDArray::zeros(&dims, cfg.dtype))
        })
        .collect();
    let exec = compile(ir.module, &CompileOptions::default()).unwrap();
    (exec, kv, weights)
}

/// `decode_paged`'s arguments for one call feeding `tokens` to `cache`.
fn paged_args(tokens: &[i64], cache: &KvCache, weights: &[Value]) -> Vec<Value> {
    let tokens = NDArray::from_i64(&[1, tokens.len()], DataType::I64, tokens.to_vec()).unwrap();
    let mut args = vec![Value::Tensor(tokens), Value::KvCache(cache.clone())];
    args.extend_from_slice(weights);
    args
}

#[test]
fn exhausted_page_pool_fails_append_paged_with_its_typed_cause() {
    let (exec, kv, weights) = tiny_paged_llama();
    let mut vm = Vm::new(exec);
    // One 16-token page in the whole pool; a 17-token prompt needs two.
    let pool = Arc::new(KvPagePool::with_capacity(16, 1));
    let cache = KvCache::new(kv, pool.clone());
    let args = paged_args(&[1; 17], &cache, &weights);
    let err = vm.run("decode_paged", &args).unwrap_err();
    match &err.kind {
        VmErrorKind::Kernel(k) => {
            assert!(k.pool_exhausted.is_some(), "{k}");
            assert_eq!(k.kernel, "vm.builtin.kv_cache.append_paged");
        }
        other => panic!("expected Kernel, got {other}"),
    }
    assert!(err
        .origin()
        .unwrap()
        .instr
        .contains("vm.builtin.kv_cache.append_paged"));
    // The refused append left nothing behind.
    assert!(cache.is_empty());
    drop(cache);
    let st = pool.stats();
    assert!(st.reconciles() && st.in_use == 0, "{st:?}");
}

/// A cache draws its pages from the pool it was made on; the VM that runs
/// it holds none.
#[test]
fn a_cache_draws_pages_only_from_its_own_pool() {
    let (exec, kv, weights) = tiny_paged_llama();
    let mut vm = Vm::new(exec);
    let pool = Arc::new(KvPagePool::unbounded(16));
    let cache = KvCache::new(kv, pool.clone());
    // A 17-token prompt spans two pages, then three single-token steps.
    vm.run("decode_paged", &paged_args(&[1; 17], &cache, &weights))
        .unwrap();
    for token in 2..5 {
        vm.run("decode_paged", &paged_args(&[token], &cache, &weights))
            .unwrap();
    }
    assert_eq!(cache.len(0), 20);
    let st = pool.stats();
    assert!(st.reconciles() && st.in_use > 0, "{st:?}");
    drop(cache);
    let st = pool.stats();
    assert!(st.reconciles() && st.in_use == 0, "{st:?}");
}

#[test]
fn moe_gather_with_a_malformed_shape_fails_under_its_own_name() {
    let mut exec = Executable::new();
    exec.funcs.insert(
        "main".into(),
        VmFunction {
            name: "main".into(),
            num_params: 2,
            num_regs: 4,
            instrs: vec![
                // gather takes shape[expert]; this passes two dims.
                Instr::MakeShape {
                    dst: 2,
                    dims: vec![0.into(), 0.into()],
                },
                Instr::CallBuiltin {
                    func: "vm.builtin.moe.gather".into(),
                    args: vec![0, 1, 2],
                    dst: 3,
                },
                Instr::Ret { src: 3 },
            ],
        },
    );
    // The call is well-formed as far as arity goes: only the value is wrong.
    assert_eq!(violations_of(&exec), Vec::new());
    let mut vm = Vm::new(exec);
    let tokens = NDArray::zeros(&[2, 4], DataType::F32);
    let assign = NDArray::from_i64(&[2], DataType::I64, vec![0, 1]).unwrap();
    let err = vm
        .run("main", &[Value::Tensor(tokens), Value::Tensor(assign)])
        .unwrap_err();
    match &err.kind {
        VmErrorKind::Kernel(k) => {
            assert_eq!(k.kernel, "vm.builtin.moe.gather");
            assert_eq!(k.detail, "expected a shape of 1 dims, got 2");
            assert!(k.pool_exhausted.is_none());
        }
        other => panic!("expected Kernel, got {other}"),
    }
    assert_eq!(err.origin().unwrap().pc, 1);
}

#[test]
fn an_out_of_range_tuple_index_fails_typed() {
    let mut exec = Executable::new();
    exec.funcs.insert(
        "main".into(),
        VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 3,
            instrs: vec![
                Instr::MakeTuple {
                    dst: 1,
                    items: vec![0],
                },
                Instr::GetItem {
                    dst: 2,
                    src: 1,
                    index: 5,
                },
                Instr::Ret { src: 2 },
            ],
        },
    );
    let mut vm = Vm::new(exec);
    let x = NDArray::zeros(&[2], DataType::F32);
    let err = vm.run("main", &[Value::Tensor(x)]).unwrap_err();
    match &err.kind {
        VmErrorKind::TypeMismatch { expected, actual } => {
            assert_eq!(*expected, "a tuple index in range");
            assert_eq!(*actual, "out-of-range tuple index");
        }
        other => panic!("expected TypeMismatch, got {other}"),
    }
    assert_eq!(err.origin().unwrap().pc, 1);
}

#[test]
fn verify_reports_a_tuple_index_out_of_range_of_its_make_tuple() {
    let exec = |index: usize| {
        let mut exec = Executable::new();
        let instrs = vec![
            Instr::MakeTuple {
                dst: 1,
                items: vec![0, 0],
            },
            Instr::GetItem {
                dst: 2,
                src: 1,
                index,
            },
            Instr::Ret { src: 2 },
        ];
        let func = VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 3,
            instrs,
        };
        exec.funcs.insert("main".into(), func);
        exec
    };
    assert!(verify(&exec(1), &Registry::new()).is_ok());
    let err = verify(&exec(2), &Registry::new()).unwrap_err();
    assert_eq!(err.violations.len(), 1, "{err}");
    assert_eq!(err.violations[0].rule, "arity-mismatch");
    assert_eq!(err.violations[0].pc, 1);
}

// ---------------------------------------------------------------------------
// Systematic recovery: every fault site, same VM, clean state each time.
// ---------------------------------------------------------------------------

#[test]
fn vm_recovers_after_faults_at_every_site() {
    let mut vm = Vm::new(compiled_mlp(64));
    let args = mlp_args(2);
    let plans = [
        FaultPlan::new().fail_alloc(1),
        FaultPlan::new().fail_kernel(1),
        FaultPlan::new().fail_shape_check(1),
        FaultPlan::new().fail_alloc(2).fail_kernel(3),
    ];
    let mut recoveries = 0;
    for plan in plans {
        vm.inject_faults(plan);
        let err = vm.run("main", &args).unwrap_err();
        assert!(err.origin().is_some(), "injected faults carry a trace");
        assert_eq!(vm.telemetry().pool.in_use, 0);
        vm.clear_faults();
        vm.run("main", &args)
            .expect("clean run after injected fault");
        recoveries += 1;
        assert_eq!(vm.telemetry().recoveries, recoveries);
    }
    assert_eq!(vm.telemetry().faults_injected, plans_fault_count());
}

fn plans_fault_count() -> u64 {
    // Each plan fires once per run except the combined plan, which fires
    // only its first scheduled fault (the error aborts the run before the
    // third kernel call).
    4
}

// ---------------------------------------------------------------------------
// Graceful degradation: bound-exceeding shapes complete via the pool.
// ---------------------------------------------------------------------------

#[test]
fn bound_exceeding_run_completes_via_pooled_fallback() {
    let (m, n) = mlp_module();
    // Plan for n <= 4, then run n = 32.
    let opts = CompileOptions::default().with_bound(n, 4);
    let exec = compile(m.clone(), &opts).unwrap();
    let mut vm = Vm::new(exec);

    let small = vm.run("main", &mlp_args(2)).unwrap();
    assert_eq!(small.as_tensor().unwrap().shape(), &[2, 8]);
    assert_eq!(vm.telemetry().fallback_allocs, 0);

    let big = vm.run("main", &mlp_args(32)).unwrap();
    assert_eq!(big.as_tensor().unwrap().shape(), &[32, 8]);
    let tel = vm.telemetry();
    assert!(tel.fallback_allocs >= 1, "overflow must use the pool");

    // The degraded run computes the same numbers as an unplanned build.
    let baseline = compile(m, &CompileOptions::baseline()).unwrap();
    let mut base_vm = Vm::new(baseline);
    let expect = base_vm.run("main", &mlp_args(32)).unwrap();
    let (got, want) = (
        big.as_tensor().unwrap().to_f64_vec(),
        expect.as_tensor().unwrap().to_f64_vec(),
    );
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-4, "{g} vs {w}");
    }
}
