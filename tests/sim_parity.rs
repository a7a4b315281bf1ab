//! The dry run against the VM: one launch log, two walkers.
//!
//! Every paper figure is a `relax_sim` dry run, a shape-level walk of the
//! compiled executable that claims to charge exactly the kernels the VM
//! launches. Each case here runs one executable on a fresh `Vm` twice
//! (cold, then warm) and through `simulate_with_memory` twice (cold, then
//! warm) on the same argument shapes, each run under its own trace
//! capture. The VM's `kernel:`, `lib:` and `builtin:` spans and the dry
//! run's `sim` instants are the launch log; per case:
//!
//! - the launches, as (name, payload) pairs, are equal in order: kernel,
//!   shape signature and plan-cache outcome;
//! - `kernels == tir_calls + lib_calls + builtin_calls`, cold and warm;
//! - `launches == kernel_launches + builtin_calls`, cold and warm (the dry
//!   run charges a builtin as a device kernel, the VM counts it apart);
//! - the cold dry run's `plan_compiles` equals the VM's compiles in its
//!   first run, and neither warm run compiles;
//! - every tensor argument, one row longer, that breaks a `MatchShape` in
//!   the VM (a constant weight dimension, or a variable an earlier
//!   argument bound) fails the dry run with the VM's error.
//!
//! A refusal table beside them holds one malformed launch per runtime
//! function (paged KV append and attention, the MoE builtins, the library
//! kernels, an unregistered kernel and builtin, a builtin's argument
//! count, a negative allocation size and one that overflows `i64`) and per
//! frame rule (an out-of-range register, a call with the wrong argument
//! count), each with the text the VM refuses it with; the dry run must
//! refuse every entry with the VM's error. The VM and the dry run run one
//! loop and fail with one error type: "the VM's error" is the same kind,
//! the same text and the same frame trace. The dry run's memory tracker
//! must return a reallocated register's block as the VM's pool does.
//!
//! Stated exceptions:
//!
//! - `moe_dispatch`: the dry run bounds each expert's data-dependent row
//!   count by the whole token batch (§4.2's worst-case rule). Launch names
//!   are equal, every dry-run dimension is at least the VM's, and the dry
//!   run compiles no more plans than the VM.
//! - `planned_bytes`: the dry run leaves out storages that escape through
//!   `Ret` (Table 2 counts activations only), so it is at most the VM's,
//!   except on MoE. Each case prints its gap.

use std::collections::HashMap;
use std::sync::Arc;

use relax::arith::{PrimExpr, Var as SymVar};
use relax::core::{DataType, IRModule, ShapeDesc, StructInfo};
use relax::models::llama::{build_decode, build_decode_paged, build_prefill, LlamaConfig};
use relax::models::llava::{build_vision_encoder, LlavaConfig};
use relax::models::moe::{build_dispatch, MoeConfig};
use relax::models::whisper::{
    build_cross_kv, build_decoder_step_paged, build_encoder, WhisperConfig,
};
use relax::passes::{compile, CompileOptions};
use relax::sim::{simulate, simulate_with_memory, DeviceSpec, MemoryTracker, SimValue};
use relax::tir::NDArray;
use relax::trace::{Capture, EventKind, Payload};
use relax::vm::{
    Executable, Instr, KvCache, KvCacheConfig, KvPagePool, Telemetry, Value, Vm, VmError,
    VmErrorKind, VmFunction, KV_PAGE_TOKENS,
};

/// A plan-cache capacity above every case's distinct kernel keys.
const PLAN_KEYS: usize = 4096;

/// Tokens of context every cache of the paged decode cases holds.
const CONTEXT: usize = 13;

/// The benchmark's llama dimensions.
fn llama_config() -> LlamaConfig {
    LlamaConfig {
        name: "BenchLlama".into(),
        hidden: 64,
        intermediate: 128,
        n_layers: 4,
        n_heads: 2,
        n_kv_heads: 1,
        head_dim: 32,
        vocab: 64,
        max_context: 512,
        dtype: DataType::F32,
        quant4: false,
    }
}

/// The benchmark's MoE dimensions.
fn moe_config() -> MoeConfig {
    MoeConfig {
        d_model: 64,
        d_ff: 128,
        experts: 8,
        dtype: DataType::F32,
    }
}

/// One executable, one function and a way to make its arguments.
struct Case {
    label: String,
    exec: Arc<Executable>,
    func: String,
    /// Fresh arguments for one run: a KV cache appends in place.
    args: Box<dyn Fn() -> Vec<Value>>,
    /// The §4.2 worst-case rule applies (`moe_dispatch`).
    worst_case: bool,
}

impl Case {
    fn new(
        label: String,
        exec: &Arc<Executable>,
        func: &str,
        args: impl Fn() -> Vec<Value> + 'static,
    ) -> Case {
        Case {
            label,
            exec: Arc::clone(exec),
            func: func.to_string(),
            args: Box::new(args),
            worst_case: false,
        }
    }
}

fn compiled(module: IRModule, opts: &CompileOptions) -> Arc<Executable> {
    Arc::new(compile(module, opts).unwrap())
}

fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Arguments for `params` with the symbolic dimensions named in `env`:
/// token ids below `vocab` for i64 tensors, small values otherwise, and
/// `Value::None` for an object (a KV cache the caller supplies).
fn materialize(params: &[(String, StructInfo)], env: &[(&str, i64)], vocab: i64) -> Vec<Value> {
    let env: HashMap<&str, i64> = env.iter().copied().collect();
    let mut seed = 0x5EED_u64;
    params
        .iter()
        .map(|(name, sinfo)| {
            let StructInfo::Tensor {
                shape: ShapeDesc::Known(dims),
                dtype,
            } = sinfo
            else {
                return Value::None;
            };
            let dims: Vec<usize> = dims
                .iter()
                .map(|d| {
                    let v = d.as_int().unwrap_or_else(|| {
                        let var = d.as_var().unwrap_or_else(|| panic!("{name}: dim {d}"));
                        env[var.name()]
                    });
                    v as usize
                })
                .collect();
            let n = dims.iter().product();
            let t = match dtype.unwrap() {
                DataType::I64 => {
                    let ids = (0..n).map(|_| (next(&mut seed) % vocab as u64) as i64);
                    NDArray::from_i64(&dims, DataType::I64, ids.collect())
                }
                dt => {
                    let vals = (0..n).map(|_| next(&mut seed) as f64 / (1u64 << 33) as f64 - 0.125);
                    NDArray::from_f64(&dims, dt, vals.collect())
                }
            };
            Value::Tensor(t.unwrap())
        })
        .collect()
}

/// A stack of `members` caches of the llama's geometry, each holding
/// `context` tokens on every stream.
fn filled_stack(cfg: &LlamaConfig, members: usize, context: usize) -> KvCache {
    let kv = KvCacheConfig {
        streams: 2 * cfg.n_layers,
        batch: 1,
        heads: cfg.n_kv_heads as usize,
        head_dim: cfg.head_dim as usize,
        dtype: cfg.dtype,
    };
    let pool = Arc::new(KvPagePool::unbounded(KV_PAGE_TOKENS));
    let caches: Vec<KvCache> = (0..members)
        .map(|_| KvCache::new(kv, pool.clone()))
        .collect();
    let rows = NDArray::zeros(&[1, kv.heads, context, kv.head_dim], kv.dtype);
    for cache in &caches {
        for s in (0..kv.streams).filter(|_| context > 0) {
            cache.append(s, &rows).unwrap();
        }
    }
    KvCache::stack(&caches).unwrap()
}

/// The shape-level twin of a VM argument (a stack's members hold equal
/// lengths here, so its first member's stand for all).
fn sim_value(v: &Value) -> SimValue {
    match v {
        Value::Tensor(t) => {
            SimValue::tensor(t.shape().iter().map(|&d| d as i64).collect(), t.dtype())
        }
        Value::KvCache(c) => {
            let cfg = c.config();
            SimValue::KvCache {
                streams: c.lens()[..cfg.streams].iter().map(|&l| l as i64).collect(),
                batch: cfg.batch as i64,
                heads: cfg.heads as i64,
                head_dim: cfg.head_dim as i64,
                dtype: cfg.dtype,
            }
        }
        Value::Shape(dims) => SimValue::Shape(dims.clone()),
        other => panic!("no shape-level twin for a {} argument", other.kind()),
    }
}

/// The name prefixes of a launch's span (VM) or instant (dry run).
const LAUNCHES: [&str; 3] = ["kernel:", "lib:", "builtin:"];

/// Launches logged on this thread: (span or instant name, payload).
type Log = Vec<(String, Payload)>;

/// Runs `f` under a trace capture; returns its result and the launches
/// the `cat` category logged on this thread.
fn logged<T>(cat: &str, f: impl FnOnce() -> T) -> (T, Log) {
    let capture = Capture::begin();
    let out = f();
    let trace = capture.finish();
    let tid = relax::trace::thread_id();
    let log = trace
        .events
        .into_iter()
        .filter(|e| e.tid == tid && e.cat == cat)
        .filter(|e| matches!(e.kind, EventKind::End | EventKind::Instant))
        .filter(|e| LAUNCHES.iter().any(|class| e.name.starts_with(class)))
        .map(|e| (e.name, e.payload))
        .collect();
    (out, log)
}

fn signature(payload: &Payload) -> Vec<Vec<usize>> {
    let Payload::Kernel { shapes, .. } = payload else {
        unreachable!("launches carry kernel payloads")
    };
    shapes
        .split(';')
        .map(|arg| match arg {
            "-" => Vec::new(),
            dims => dims.split('x').map(|d| d.parse().unwrap()).collect(),
        })
        .collect()
}

/// The two logs are the same launches; under the worst-case rule, the
/// same names with every dry-run dimension at least the VM's.
fn assert_same_launches(label: &str, worst_case: bool, vm: &Log, sim: &Log) {
    for (i, ((vm_name, vm_pay), (sim_name, sim_pay))) in vm.iter().zip(sim).enumerate() {
        let at = format!("{label}: launch {i}");
        if !worst_case {
            assert_eq!((vm_name, vm_pay), (sim_name, sim_pay), "{at}");
            continue;
        }
        assert_eq!(vm_name, sim_name, "{at}");
        let (v, s) = (signature(vm_pay), signature(sim_pay));
        let bounded = v.len() == s.len()
            && v.iter()
                .zip(&s)
                .all(|(v, s)| v.len() == s.len() && v.iter().zip(s).all(|(v, s)| s >= v));
        assert!(
            bounded,
            "{at} {vm_name}: dry run {s:?} does not bound the VM's {v:?}"
        );
    }
    assert_eq!(vm.len(), sim.len(), "{label}: launch count");
}

/// `(kernels, launches)` as the dry run counts them, from VM telemetry.
fn vm_counts(t: &Telemetry) -> (u64, u64) {
    (
        t.tir_calls + t.lib_calls + t.builtin_calls,
        t.kernel_launches + t.builtin_calls,
    )
}

fn plan_compiles(vm: &Vm) -> u64 {
    vm.kernel_stats().values().map(|s| s.plan_compiles).sum()
}

/// Checks one case; returns its cold launch count and the VM's planned
/// bytes minus the dry run's.
fn check(case: &Case) -> (usize, i64) {
    let label = &case.label;
    let device = DeviceSpec::rtx4090();
    let (cold_args, warm_args) = ((case.args)(), (case.args)());
    let sim_args: Vec<SimValue> = cold_args.iter().map(sim_value).collect();

    let mut vm = Vm::new((*case.exec).clone());
    // The dry run charges one compile per distinct (kernel, shapes) key,
    // an unbounded cache: more keys than the default 64 (the unfused
    // copy decode has 91) would make the VM evict and compile again.
    vm.set_plan_cache_capacity(PLAN_KEYS);
    let run = |vm: &mut Vm, args: &[Value]| {
        vm.run(&case.func, args)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
    };
    let (_, vm_cold) = logged("vm", || run(&mut vm, &cold_args));
    let (cold_tel, cold_compiles) = (vm.telemetry(), plan_compiles(&vm));
    let (_, vm_warm) = logged("vm", || run(&mut vm, &warm_args));
    let warm_tel = vm.telemetry();
    assert_eq!(
        plan_compiles(&vm),
        cold_compiles,
        "{label}: the VM's warm run compiled"
    );

    let mut mem = MemoryTracker::new();
    let mut sim = |warm: bool| {
        logged("sim", || {
            simulate_with_memory(&case.exec, &case.func, &sim_args, &device, warm, &mut mem)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        })
    };
    let (cold, sim_cold) = sim(false);
    let (warm, sim_warm) = sim(true);

    assert!(!vm_cold.is_empty(), "{label}: nothing launched");
    assert_same_launches(
        &format!("{label} cold"),
        case.worst_case,
        &vm_cold,
        &sim_cold,
    );
    assert_same_launches(
        &format!("{label} warm"),
        case.worst_case,
        &vm_warm,
        &sim_warm,
    );

    let (cold_k, cold_l) = vm_counts(&cold_tel);
    let (all_k, all_l) = vm_counts(&warm_tel);
    assert_eq!(
        (cold.kernels, cold.launches),
        (cold_k, cold_l),
        "{label} cold: counters"
    );
    assert_eq!(
        (warm.kernels, warm.launches),
        (all_k - cold_k, all_l - cold_l),
        "{label} warm: counters"
    );
    if case.worst_case {
        assert!(
            cold.plan_compiles <= cold_compiles,
            "{label}: plan compiles"
        );
    } else {
        assert_eq!(cold.plan_compiles, cold_compiles, "{label}: plan compiles");
    }
    assert_eq!(warm.plan_compiles, 0, "{label}: the warm dry run compiled");

    let gap = warm_tel.planned_bytes as i64 - mem.planned_bytes() as i64;
    assert!(
        case.worst_case || gap >= 0,
        "{label}: dry-run planned bytes {} exceed the VM's {}",
        mem.planned_bytes(),
        warm_tel.planned_bytes
    );
    (vm_cold.len(), gap)
}

/// Each tensor argument in turn, one row longer: wherever that breaks a
/// `MatchShape` in the VM (a constant weight dimension, or a variable an
/// earlier argument bound), the dry run fails with the VM's error.
/// Returns how many arguments did.
fn check_shape_failures(case: &Case) -> usize {
    let label = &case.label;
    let mut failures = 0;
    for i in 0..(case.args)().len() {
        let mut args = (case.args)();
        let Some(t) = args[i].as_tensor() else {
            continue;
        };
        let (mut dims, dtype) = (t.shape().to_vec(), t.dtype());
        dims[0] += 1;
        args[i] = Value::Tensor(NDArray::zeros(&dims, dtype));
        let vm = Vm::new((*case.exec).clone()).run(&case.func, &args);
        let Err(
            vm @ VmError {
                kind: VmErrorKind::ShapeCheck { .. },
                ..
            },
        ) = vm
        else {
            continue;
        };
        let sim_args: Vec<SimValue> = args.iter().map(sim_value).collect();
        let sim = simulate(
            &case.exec,
            &case.func,
            &sim_args,
            &DeviceSpec::rtx4090(),
            false,
        );
        let label = format!("{label}: argument {i} one row longer");
        assert_same_error(sim.expect_err(&label), &vm, &label);
        failures += 1;
    }
    assert!(failures > 0, "{label}: no argument broke a MatchShape");
    failures
}

/// The dry run failed with the VM's error: the same kind, the same text
/// and the same frame trace.
fn assert_same_error(sim: VmError, vm: &VmError, label: &str) {
    let same_kind = std::mem::discriminant(&sim.kind) == std::mem::discriminant(&vm.kind);
    assert!(
        same_kind,
        "{label}: dry run {:?}, VM {:?}",
        sim.kind, vm.kind
    );
    assert_eq!(sim.kind.to_string(), vm.kind.to_string(), "{label}: text");
    assert_eq!(sim.trace, vm.trace, "{label}: frame trace");
}

fn check_all(cases: &[Case]) {
    for case in cases {
        let (launches, gap) = check(case);
        let failures = check_shape_failures(case);
        println!(
            "{}: {launches} launches, planned_bytes VM - dry run = {gap}, \
             {failures} mis-shaped arguments fail both sides",
            case.label
        );
    }
}

#[test]
fn paged_decode_and_prompt_launch_alike() {
    let cfg = llama_config();
    let ir = build_decode_paged(&cfg).unwrap();
    let exec = compiled(ir.module.clone(), &CompileOptions::default());
    let steps = [
        (1, 1, CONTEXT),
        (3, 1, CONTEXT),
        (8, 1, CONTEXT),
        (1, CONTEXT, 0),
    ];
    let cases: Vec<Case> = steps
        .into_iter()
        .map(|(b, n, context)| {
            let (cfg, params) = (cfg.clone(), ir.params.clone());
            let args = move || {
                let env = [("batch", b as i64), ("seq", n as i64)];
                let mut args = materialize(&params, &env, cfg.vocab);
                args[1] = Value::KvCache(filled_stack(&cfg, b, context));
                args
            };
            let label = format!("decode_paged b={b} n={n} context={context}");
            Case::new(label, &exec, &ir.func, args)
        })
        .collect();
    check_all(&cases);
}

/// The copy-based decode step at `opts`.
fn copy_decode_case(label: String, opts: &CompileOptions) -> Case {
    let cfg = llama_config();
    let ir = build_decode(&cfg).unwrap();
    let exec = compiled(ir.module.clone(), opts);
    let params = ir.params.clone();
    let args = move || materialize(&params, &[("batch", 2), ("kv_len", 7)], cfg.vocab);
    Case::new(label, &exec, &ir.func, args)
}

#[test]
fn copy_decode_and_prefill_launch_alike() {
    let cfg = llama_config();
    let ir = build_prefill(&cfg).unwrap();
    let exec = compiled(ir.module.clone(), &CompileOptions::default());
    let params = ir.params.clone();
    let env = [("batch", 1), ("seq", CONTEXT as i64)];
    let prefill = move || materialize(&params, &env, cfg.vocab);
    check_all(&[
        copy_decode_case("decode b=2 kv_len=7".into(), &CompileOptions::default()),
        Case::new(format!("prefill seq={CONTEXT}"), &exec, &ir.func, prefill),
    ]);
}

#[test]
fn every_ablation_config_launches_alike() {
    let cases: Vec<Case> = (0..16u32)
        .map(|mask| {
            let opts = CompileOptions {
                dispatch_library: mask & 1 != 0,
                fusion: mask & 2 != 0,
                memory_plan: mask & 4 != 0,
                graph_capture: mask & 8 != 0,
                ..CompileOptions::default()
            };
            copy_decode_case(format!("decode config {mask:04b}"), &opts)
        })
        .collect();
    check_all(&cases);
}

#[test]
fn whisper_launches_alike() {
    let cfg = WhisperConfig::tiny();
    let env = [("batch", 1), ("s_audio", cfg.audio_ctx)];
    let kv = KvCacheConfig {
        streams: 2 * cfg.dec_layers,
        batch: 1,
        heads: cfg.n_heads as usize,
        head_dim: cfg.head_dim() as usize,
        dtype: cfg.dtype,
    };
    let cases: Vec<Case> = [
        build_encoder(&cfg).unwrap(),
        build_cross_kv(&cfg).unwrap(),
        build_decoder_step_paged(&cfg).unwrap(),
    ]
    .into_iter()
    .map(|ir| {
        let exec = compiled(ir.module.clone(), &CompileOptions::default());
        let (params, vocab) = (ir.params.clone(), cfg.vocab);
        // The decoder step's self-attention cache holds three tokens.
        let args = move || {
            let mut args = materialize(&params, &env, vocab);
            if let Some(slot) = args.iter().position(|a| matches!(a, Value::None)) {
                let pool = Arc::new(KvPagePool::unbounded(KV_PAGE_TOKENS));
                let cache = KvCache::new(kv, pool);
                let rows = NDArray::zeros(&[1, kv.heads, 3, kv.head_dim], kv.dtype);
                for s in 0..kv.streams {
                    cache.append(s, &rows).unwrap();
                }
                args[slot] = Value::KvCache(cache);
            }
            args
        };
        Case::new(format!("whisper {}", ir.func), &exec, &ir.func, args)
    })
    .collect();
    check_all(&cases);
}

#[test]
fn llava_vision_tower_launches_alike() {
    let ir = build_vision_encoder(&LlavaConfig::tiny()).unwrap();
    let exec = compiled(ir.module.clone(), &CompileOptions::default());
    let params = ir.params.clone();
    let args = move || materialize(&params, &[("batch", 1)], 1);
    check_all(&[Case::new(
        "llava vision tower".into(),
        &exec,
        &ir.func,
        args,
    )]);
}

#[test]
fn moe_dispatch_launches_are_bounded_by_the_worst_case() {
    let ir = build_dispatch(&moe_config()).unwrap();
    let exec = compiled(ir.module.clone(), &CompileOptions::default());
    let params = ir.params.clone();
    let args = move || materialize(&params, &[("t", 7)], 1);
    let mut case = Case::new("moe_dispatch t=7".into(), &exec, &ir.func, args);
    case.worst_case = true;
    check_all(&[case]);
}

/// One malformed launch and the `VmErrorKind` text the VM refuses it with.
struct Refusal {
    label: &'static str,
    exec: Executable,
    func: String,
    args: Vec<Value>,
    want: String,
}

/// `main` over `params` arguments: `body` runs on registers from `params`
/// on, and the last one it writes is returned.
fn hand_built(params: usize, body: Vec<Instr>, num_regs: usize) -> Executable {
    let mut instrs = body;
    instrs.push(Instr::Ret { src: num_regs - 1 });
    let mut exec = Executable::new();
    let main = VmFunction {
        name: "main".into(),
        num_params: params,
        num_regs,
        instrs,
    };
    exec.funcs.insert("main".into(), main);
    exec
}

/// `main(args..) = func(args.., shape)`: one builtin launch, its shape
/// operand (when given) made in place.
fn builtin_launch(func: &str, params: usize, shape: Option<&[i64]>) -> Executable {
    let mut body = Vec::new();
    let mut args: Vec<usize> = (0..params).collect();
    if let Some(dims) = shape {
        let dims = dims.iter().map(|&d| d.into()).collect();
        body.push(Instr::MakeShape { dst: params, dims });
        args.push(params);
    }
    let dst = args.len();
    body.push(Instr::CallBuiltin {
        func: func.into(),
        args,
        dst,
    });
    hand_built(params, body, dst + 1)
}

/// `main(args..) = func(args..) -> out`: one library launch writing a
/// fresh f32 tensor of shape `out`.
fn lib_launch(func: &str, params: usize, out: &[i64]) -> Executable {
    let body = vec![
        Instr::AllocTensor {
            dst: params,
            shape: out.iter().map(|&d| d.into()).collect(),
            dtype: DataType::F32,
        },
        Instr::CallLib {
            func: func.into(),
            args: (0..params).collect(),
            dsts: vec![params],
        },
    ];
    hand_built(params, body, params + 1)
}

/// `main(x: (n,)) = alloc (size(n),)`.
fn alloc_of(size: fn(PrimExpr) -> PrimExpr) -> Executable {
    let n = SymVar::new("n");
    let body = vec![
        Instr::MatchShape {
            src: 0,
            dims: vec![n.clone().into()],
            ctx: "x".into(),
        },
        Instr::AllocTensor {
            dst: 1,
            shape: vec![size(n.into())],
            dtype: DataType::F32,
        },
    ];
    hand_built(1, body, 2)
}

/// `main() = sub()`, where `sub` takes one argument.
fn call_short() -> Executable {
    let call = Instr::CallFunc {
        func: "sub".into(),
        args: vec![],
        dst: 0,
    };
    let mut exec = hand_built(0, vec![call], 1);
    let sub = VmFunction {
        name: "sub".into(),
        num_params: 1,
        num_regs: 1,
        instrs: vec![Instr::Ret { src: 0 }],
    };
    exec.funcs.insert("sub".into(), sub);
    exec
}

/// A cache of `heads` KV heads of dim 4, batch 1, two streams holding
/// three tokens each.
fn small_cache(heads: usize) -> Value {
    let kv = KvCacheConfig {
        streams: 2,
        batch: 1,
        heads,
        head_dim: 4,
        dtype: DataType::F32,
    };
    let cache = KvCache::new(kv, Arc::new(KvPagePool::unbounded(KV_PAGE_TOKENS)));
    for s in 0..kv.streams {
        cache
            .append(s, &NDArray::zeros(&[1, heads, 3, 4], kv.dtype))
            .unwrap();
    }
    Value::KvCache(cache)
}

fn f32s(dims: &[usize]) -> Value {
    Value::Tensor(NDArray::zeros(dims, DataType::F32))
}

fn i64s(dims: &[usize]) -> Value {
    Value::Tensor(NDArray::zeros(dims, DataType::I64))
}

/// The refusal table: one malformed launch per runtime function.
fn refusals() -> Vec<Refusal> {
    let kernel = |name: &str, detail: &str| format!("kernel `{name}` failed: {detail}");
    let attention = "vm.builtin.kv_cache.attention";
    let append = "vm.builtin.kv_cache.append_paged";
    let (route, gather, scatter) = (
        "vm.builtin.moe.route",
        "vm.builtin.moe.gather",
        "vm.builtin.moe.scatter",
    );
    let attend = |shape: &[i64]| builtin_launch(attention, 2, Some(shape));
    // A batch-1 cache beside (16, 1) tokens: the served step at the wrong
    // batch, which the dry run once costed as one sequence's KV reads.
    let cfg = LlamaConfig::tiny();
    let ir = build_decode_paged(&cfg).unwrap();
    let mut served = materialize(&ir.params, &[("batch", 16), ("seq", 1)], cfg.vocab);
    served[1] = Value::KvCache(filled_stack(&cfg, 1, CONTEXT));
    let mut table = vec![Refusal {
        label: "decode_paged: batch-1 cache, (16, 1) tokens",
        exec: compile(ir.module, &CompileOptions::default()).unwrap(),
        func: ir.func,
        args: served,
        want: kernel(
            append,
            "appended tensor [16, 1, 1, 32] does not match cache geometry \
             (batch=1, heads=1, head_dim=32)",
        ),
    }];
    let hand_built = [
        (
            "attention: batch mismatch",
            attend(&[0, 1, 1]),
            vec![f32s(&[2, 1, 1, 4]), small_cache(1)],
            kernel(
                attention,
                "query [2, 1, 1, 4] does not match cache geometry (batch=1, head_dim=4)",
            ),
        ),
        (
            "attention: head_dim mismatch",
            attend(&[0, 1, 1]),
            vec![f32s(&[1, 1, 1, 5]), small_cache(1)],
            kernel(
                attention,
                "query [1, 1, 1, 5] does not match cache geometry (batch=1, head_dim=4)",
            ),
        ),
        (
            "attention: query heads not a multiple of KV heads",
            attend(&[0, 1, 1]),
            vec![f32s(&[1, 3, 1, 4]), small_cache(2)],
            kernel(attention, "query heads 3 not a multiple of kv heads 2"),
        ),
        (
            "attention: out-of-range stream",
            attend(&[0, 9, 1]),
            vec![f32s(&[1, 1, 1, 4]), small_cache(1)],
            kernel(attention, "stream 9 out of range (2)"),
        ),
        (
            "append_paged: wrong dtype",
            builtin_launch(append, 2, Some(&[0])),
            vec![
                small_cache(1),
                Value::Tensor(NDArray::zeros(&[1, 1, 1, 4], DataType::F16)),
            ],
            kernel(append, "appended dtype f16 != cache dtype f32"),
        ),
        (
            "moe.route: zero experts",
            builtin_launch(route, 1, None),
            vec![f32s(&[3, 0])],
            kernel(route, "router logits have zero experts"),
        ),
        (
            "moe.gather: uncovered assignment",
            builtin_launch(gather, 2, Some(&[0])),
            vec![f32s(&[3, 4]), i64s(&[2])],
            kernel(gather, "assignment [2] does not cover 3 tokens"),
        ),
        (
            "moe.gather: f32 assignment",
            builtin_launch(gather, 2, Some(&[0])),
            vec![f32s(&[3, 4]), f32s(&[3])],
            kernel(gather, "assignment dtype f32 != i64"),
        ),
        (
            "moe.scatter: negative token count",
            builtin_launch(scatter, 2, Some(&[0, -1])),
            vec![f32s(&[2, 4]), i64s(&[3])],
            kernel(scatter, "negative token count -1"),
        ),
        (
            "cublas.matmul: inner dimension mismatch",
            lib_launch("cublas.matmul", 2, &[2, 3]),
            vec![f32s(&[2, 4]), f32s(&[5, 3])],
            kernel("cublas.matmul", "inner dimension mismatch: 4 vs 5"),
        ),
        (
            "cutlass.rms_norm: wrong weight length",
            lib_launch("cutlass.rms_norm", 2, &[2, 4]),
            vec![f32s(&[2, 4]), f32s(&[3])],
            kernel("cutlass.rms_norm", "weight length 3 != 4"),
        ),
        (
            "vm.builtin.kv_append: wrong output length",
            lib_launch("vm.builtin.kv_append", 2, &[1, 1, 4, 4]),
            vec![f32s(&[1, 1, 2, 4]), f32s(&[1, 1, 1, 4])],
            kernel("vm.builtin.kv_append", "output length 4 != cache 2 + new 1"),
        ),
        (
            "alloc_tensor: a negative size",
            alloc_of(|n| n - 4.into()),
            vec![f32s(&[1])],
            "runtime shape check failed at allocation: size `(n - 4)` = -3 is negative".into(),
        ),
        (
            "alloc_tensor: a size that overflows i64",
            alloc_of(|n| n * 4.into()),
            vec![Value::Shape(vec![1 << 62])],
            "shape evaluation failed: shape expression overflows i64".into(),
        ),
        (
            "builtin.unique: two arguments",
            builtin_launch("builtin.unique", 2, None),
            vec![f32s(&[3]), f32s(&[3])],
            kernel("builtin.unique", "expected inputs = 1, got 2"),
        ),
        (
            "call_lib: an unregistered kernel",
            lib_launch("nope.kernel", 2, &[2, 3]),
            vec![f32s(&[2, 4]), f32s(&[4, 3])],
            kernel("nope.kernel", "not registered"),
        ),
        (
            "call_builtin: an unregistered builtin",
            builtin_launch("vm.builtin.nope", 1, None),
            vec![f32s(&[2, 4])],
            kernel("vm.builtin.nope", "not registered"),
        ),
        (
            "cublas.matmul: one input",
            lib_launch("cublas.matmul", 1, &[2, 3]),
            vec![f32s(&[2, 4])],
            kernel(
                "cublas.matmul",
                "expected (inputs, outputs) = (2, 1), got (1, 1)",
            ),
        ),
        (
            "make_shape: register 7 of 2",
            hand_built(
                0,
                vec![Instr::MakeShape {
                    dst: 7,
                    dims: vec![],
                }],
                2,
            ),
            vec![],
            "expected a value in a frame register, got out-of-range register".into(),
        ),
        (
            "call_func: one argument short",
            call_short(),
            vec![],
            "`sub` expects 1 args, got 0".into(),
        ),
    ];
    table.extend(
        hand_built
            .into_iter()
            .map(|(label, exec, args, want)| Refusal {
                label,
                exec,
                func: "main".into(),
                args,
                want,
            }),
    );
    table
}

#[test]
fn malformed_launches_are_refused_alike_with_the_vms_text() {
    for case in refusals() {
        let vm = Vm::new(case.exec.clone()).run(&case.func, &case.args);
        let err = vm.expect_err(case.label);
        assert_eq!(err.kind.to_string(), case.want, "{}", case.label);
        // The dry run refuses the same launch with the VM's error.
        let args: Vec<SimValue> = case.args.iter().map(sim_value).collect();
        let sim = simulate(&case.exec, &case.func, &args, &DeviceSpec::rtx4090(), false);
        assert_same_error(sim.expect_err(case.label), &err, case.label);
    }
}

/// Two allocations into register 0, 4 KiB then 8 KiB, and a `Kill`: the
/// second returns the first's block, so nothing stays in use, in the
/// dry run's memory tracker as in the VM's pool.
#[test]
fn reallocating_a_register_returns_its_block_alike() {
    let alloc = |n: i64| Instr::AllocTensor {
        dst: 0,
        shape: vec![n.into()],
        dtype: DataType::F32,
    };
    let body = vec![
        alloc(1024),
        alloc(2048),
        Instr::Kill { reg: 0 },
        Instr::MakeShape {
            dst: 1,
            dims: vec![],
        },
    ];
    let exec = hand_built(0, body, 2);
    let mut vm = Vm::new(exec.clone());
    vm.run("main", &[]).unwrap();
    assert_eq!(vm.telemetry().pool.in_use, 0, "the VM's pool");
    let mut mem = MemoryTracker::new();
    let device = DeviceSpec::rtx4090();
    simulate_with_memory(&exec, "main", &[], &device, false, &mut mem).unwrap();
    assert_eq!(mem.pool.stats().in_use, 0, "the dry run's tracker");
}
