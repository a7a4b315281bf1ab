//! Probes of single layers, timed from outside through public functions:
//! compile-side probes over the workload's own modules, and fixed micro
//! probes that are the same on every workload.

use std::sync::Arc;
use std::time::Instant;

use relax_arith::{simplify, DataType, PrimExpr, Var as SymVar};
use relax_core::{check_module, legalize, parse_functions, IRModule, Op, OpAttrs, StructInfo};
use relax_passes::{compile_with_report, CompileOptions};
use relax_serve::SessionManager;
use relax_sim::{simulate, DeviceSpec, KernelProfile, Roofline, SimValue};
use relax_tir::{plan, schedule, NDArray, Scalar};
use relax_vm::{CachedPlan, Instr, KvCache, KvPagePool, SharedPlanCache};

use crate::config::{self, Built, PLAN_CACHE_CAPACITY};
use crate::metrics::Values;
use crate::run::{serve_phase, Until};
use crate::stats::median;
use crate::workload::{self, Workload};

/// Median nanoseconds of `f` over `reps` calls.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn count_instrs(instrs: &[Instr], kernels: &mut usize) -> usize {
    instrs
        .iter()
        .map(|i| match i {
            Instr::CaptureRegion { body, .. } => 1 + count_instrs(body, kernels),
            Instr::CallTir { .. } | Instr::CallLib { .. } => {
                *kernels += 1;
                1
            }
            _ => 1,
        })
        .sum()
}

/// Builders, printer → parser, well-formedness, `simplify`, and the pass
/// records of `compile_with_report`, summed over the workload's modules.
pub fn compile_side(w: Workload, v: &mut Values) {
    const REPS: usize = 5;
    v.set("models.build_ms", time_ns(REPS, || config::build_models(w)) / 1e6);
    let models = config::build_models(w);
    let print_parse = |m: &Built| {
        let mut reparsed = IRModule::new();
        parse_functions(&m.module.to_string(), &mut reparsed).expect("printed module re-parses");
        reparsed
    };
    v.set("core.print_parse_ms", time_ns(REPS, || models.iter().map(print_parse).collect::<Vec<_>>()) / 1e6);
    v.set(
        "core.wellformed_ms",
        time_ns(REPS, || models.iter().map(|m| check_module(&m.module).len()).sum::<usize>()) / 1e6,
    );

    // The shape arithmetic the pipeline meets: paging, head splitting, growth by one.
    let n = PrimExpr::from(SymVar::new("n"));
    let exprs = [
        (n.clone() + 1.into()) * 64.into() - 64.into(),
        (n.clone() + 15.into()).floor_div(16.into()) * 16.into(),
        (n.clone() * 2.into() * 32.into()).floor_div(64.into()),
        (n.clone() + n.clone()) * 4.into() + 0.into(),
        n.clone() * 1.into() + (n.clone() - n.clone()),
    ];
    let per_batch = time_ns(200, || exprs.iter().map(simplify).collect::<Vec<_>>());
    v.set("arith.simplify_ns", per_batch / exprs.len() as f64);

    let passes = [
        "legalize",
        "annotate_patterns",
        "fuse_ops",
        "fuse_tensor_ir",
        "dispatch_library",
        "cleanup",
        "lower_to_vm",
        "schedule_kernels",
        "memory_plan",
        "graph_capture",
    ];
    let mut total_ms = Vec::new();
    let mut pass_us: Vec<Vec<f64>> = vec![Vec::new(); passes.len()];
    let (mut instrs, mut kernels) = (0, 0);
    for rep in 0..REPS {
        let mut sums = vec![0.0; passes.len()];
        let mut total = 0.0;
        for m in &models {
            let (exec, report) =
                compile_with_report(m.module.clone(), &CompileOptions::default()).expect("compile");
            total += report.total.as_secs_f64() * 1e3;
            for p in &report.passes {
                let bucket = if matches!(p.name.as_str(), "const_fold" | "cse" | "dce") {
                    "cleanup"
                } else {
                    p.name.as_str()
                };
                if let Some(i) = passes.iter().position(|n| *n == bucket) {
                    sums[i] += p.wall.as_secs_f64() * 1e6;
                }
            }
            if rep == 0 {
                instrs += exec.funcs.values().map(|f| count_instrs(&f.instrs, &mut kernels)).sum::<usize>();
            }
        }
        total_ms.push(total);
        for (samples, s) in pass_us.iter_mut().zip(sums) {
            samples.push(s);
        }
    }
    v.set("passes.total_ms", median(&total_ms));
    for (name, samples) in passes.iter().zip(&pass_us) {
        v.set(&format!("passes.{name}_us"), median(samples));
    }
    v.set("passes.exec_instrs", instrs as f64);
    v.set("passes.exec_kernels", kernels as f64);
}

fn tensor_info(dims: &[i64]) -> StructInfo {
    StructInfo::tensor(dims.iter().map(|&d| d.into()).collect(), DataType::F32)
}

fn filled(dims: &[usize], period: usize) -> NDArray {
    let n: usize = dims.iter().product();
    NDArray::from_f64(dims, DataType::F32, (0..n).map(|i| (i % period) as f64 * 0.125).collect())
        .expect("probe tensor")
}

/// The 96×64×64 matmul as a scheduled (macro-op) plan and as a scalar
/// tape, its fraction of the host roofline (bytes computed from tensor
/// sizes, not measured), a 64-token causal attention plan, and raw
/// `NDArray` cell access.
fn tir_probes(v: &mut Values) {
    let (m, k, n) = (96usize, 64usize, 64usize);
    let mm = legalize(Op::Matmul, &OpAttrs::new(), &[tensor_info(&[96, 64]), tensor_info(&[64, 64])], "mm")
        .expect("legalize matmul");
    let args = [filled(&[m, k], 13), filled(&[k, n], 7), NDArray::zeros(&[m, n], DataType::F32)];
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let scalar = plan::compile(&mm, &shapes).expect("plan matmul");
    let sched = plan::compile(&schedule::auto_schedule(&mm).expect("matmul auto-schedules"), &shapes)
        .expect("plan scheduled matmul");
    assert!(sched.scheduled() && !scalar.scheduled(), "matmul probe plans are not the two tiers");
    let sched_ns = time_ns(15, || sched.run(&args, 1).expect("run scheduled matmul"));
    v.set("tir.matmul_sched_us", sched_ns / 1e3);
    v.set("tir.matmul_scalar_us", time_ns(3, || scalar.run(&args, 1).expect("run scalar matmul")) / 1e3);
    let profile = KernelProfile::matmul_blocked(m, n, k, DataType::F32.size_bytes());
    v.set("tir.matmul_sched_roofline_frac", Roofline::host_cpu().fraction(&profile, sched_ns / 1e9));

    let cfg = config::bench_llama();
    let (s, hq, hkv, hd) = (64, cfg.n_heads, cfg.n_kv_heads, cfg.head_dim);
    let mut attrs = OpAttrs::new();
    attrs.insert("scale".into(), format!("{}", 1.0 / (hd as f64).sqrt()));
    attrs.insert("causal".into(), "true".into());
    let infos = [tensor_info(&[1, hq, s, hd]), tensor_info(&[1, hkv, s, hd]), tensor_info(&[1, hkv, s, hd])];
    let attn = legalize(Op::Attention, &attrs, &infos, "attn").expect("legalize attention");
    let dims = |h: i64| [1, h as usize, s as usize, hd as usize];
    let args = [
        filled(&dims(hq), 11),
        filled(&dims(hkv), 5),
        filled(&dims(hkv), 3),
        NDArray::zeros(&dims(hq), DataType::F32),
    ];
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let attn_plan = plan::compile(&attn, &shapes).expect("plan attention");
    v.set("tir.attention_s64_us", time_ns(5, || attn_plan.run(&args, 1).expect("run attention")) / 1e3);

    let cells = NDArray::zeros(&[64 * 1024], DataType::F32);
    let rw = time_ns(5, || {
        for i in 0..cells.numel() {
            let x = match cells.get(i).expect("in range") {
                Scalar::F(x) => x,
                _ => 0.0,
            };
            cells.set(i, Scalar::F(x + 1.0)).expect("in range");
        }
    });
    v.set("tir.ndarray_rw_ns_per_elem", rw / cells.numel() as f64);
}

/// `SharedPlanCache::lookup` on a full cache: a key that is there, a key that is not.
fn plan_cache_probes(v: &mut Values) {
    let cache = SharedPlanCache::new(PLAN_CACHE_CAPACITY);
    let key = |i: usize| vec![vec![i + 1, 64], vec![64, 64]];
    for i in 0..PLAN_CACHE_CAPACITY {
        cache.insert("probe_kernel", &key(i), CachedPlan::Unplannable);
    }
    let (hit, miss) = (key(7), key(PLAN_CACHE_CAPACITY + 7));
    const BATCH: usize = 2000;
    let lookups = |k: &[Vec<usize>]| (0..BATCH).filter(|_| cache.lookup("probe_kernel", k).is_some()).count();
    v.set("vm.plan_cache.lookup_hit_ns", time_ns(9, || assert_eq!(lookups(&hit), BATCH)) / BATCH as f64);
    v.set("vm.plan_cache.lookup_miss_ns", time_ns(9, || assert_eq!(lookups(&miss), 0)) / BATCH as f64);
}

/// One session's paged cache in the benchmark geometry: single-token
/// appends up to 256 tokens of context, paged attention reads at 64 and
/// 256, a gathered view, and a full truncate.
fn kv_probes(v: &mut Values) {
    let cfg = config::bench_llama();
    let kv = config::kv_config(&cfg);
    let pool = Arc::new(KvPagePool::with_capacity(config::session_config().page_tokens, 4096));
    let row = filled(&[1, kv.heads, 1, kv.head_dim], 9);
    let q = filled(&[1, cfg.n_heads as usize, 1, kv.head_dim], 11);
    let grow = |cache: &KvCache, to: usize| {
        for _ in cache.len(0)..to {
            for s in 0..kv.streams {
                cache.append(s, &row).expect("append");
            }
        }
    };
    let (mut append_ns, mut truncate_us) = (Vec::new(), Vec::new());
    let cache = KvCache::new(kv, pool.clone());
    for _ in 0..5 {
        let t = Instant::now();
        grow(&cache, 256);
        append_ns.push(t.elapsed().as_nanos() as f64 / 256.0);
        let t = Instant::now();
        cache.truncate_to(&vec![0; kv.streams]).expect("truncate");
        truncate_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    v.set("vm.kv.append_ns_per_token", median(&append_ns));
    v.set("vm.kv.truncate_us", median(&truncate_us));
    grow(&cache, 64);
    v.set(
        "vm.kv.attention_us_ctx64",
        time_ns(15, || cache.attention(&q, 0, 1, true).expect("attention")) / 1e3,
    );
    grow(&cache, 256);
    v.set(
        "vm.kv.attention_us_ctx256",
        time_ns(9, || cache.attention(&q, 0, 1, true).expect("attention")) / 1e3,
    );
    v.set("vm.kv.view_us_ctx256", time_ns(15, || cache.view(0).expect("view")) / 1e3);
}

/// The dry-run simulator over the compiled step (computed, not measured):
/// one paged decode step at 64 tokens of context, or one 32-token
/// `moe_dispatch` step divided by its tokens.
fn sim_probe(w: Workload, models: &[Built], v: &mut Values) {
    let weights = |m: &Built| -> Vec<SimValue> {
        config::weights(&m.params)
            .iter()
            .map(|w| {
                let t = w.as_tensor().expect("weight tensor");
                SimValue::tensor(t.shape().iter().map(|&d| d as i64).collect(), t.dtype())
            })
            .collect()
    };
    let m = &models[0];
    let (mut args, tokens) = match w {
        Workload::MoeRagged => {
            (vec![SimValue::tensor(vec![32, config::bench_moe().d_model], DataType::F32)], 32.0)
        }
        _ => {
            let kv = config::kv_config(&config::bench_llama());
            let cache = SimValue::KvCache {
                streams: vec![64; kv.streams],
                batch: 1,
                heads: kv.heads as i64,
                head_dim: kv.head_dim as i64,
                dtype: kv.dtype,
            };
            (vec![SimValue::tensor(vec![1, 1], DataType::I64), cache], 1.0)
        }
    };
    args.extend(weights(m));
    let exec = config::compile_default(&m.module);
    let r = simulate(&exec, &m.func, &args, &DeviceSpec::rtx4090(), true).expect("dry run");
    v.set("sim.flops_per_token", r.flops / tokens);
    v.set("sim.bytes_per_token", r.bytes / tokens);
    v.set("sim.kernels_per_token", r.kernels as f64 / tokens);
    v.set("sim.launches_per_token", r.launches as f64 / tokens);
}

/// The fixed speculative-decoding probe, the same on every workload: 24
/// dealt sessions through a `SessionManager` with a `SpeculativeSpec`,
/// the committed streams asserted equal to plain greedy decoding of the
/// same model. Returns the number of sessions that differ.
fn spec_probe(v: &mut Values) -> usize {
    const SEED: u64 = 0x5EC0DE;
    let list: Vec<_> =
        workload::generate(Workload::ChatDecode, SEED).into_iter().filter(|e| !e.probe).take(24).collect();
    let spec = config::speculative_spec();
    let plain = relax_serve::SessionModelSpec { speculative: None, ..spec.clone() };
    let run = |model| {
        let mgr = SessionManager::new(model, config::session_config());
        let phase = serve_phase(&mgr, Workload::ChatDecode, &list, Until::Entries(list.len()));
        let plans = mgr.speculative_plan_stats();
        (phase, plans, mgr.shutdown())
    };
    let (fast, (draft, verify), stats) = run(spec);
    let (slow, _, _) = run(plain);
    let stream = |p: &crate::run::Phase, i: usize| p.outputs.iter().find(|o| o.index == i).map(|o| o.hash);
    let differ = (0..list.len())
        .filter(|&i| stream(&fast, i).is_none() || stream(&fast, i) != stream(&slow, i))
        .count();
    v.set("serve.spec.tokens_per_s", stats.tokens as f64 / fast.open_s);
    v.set("serve.spec.acceptance", stats.spec_accepted as f64 / stats.spec_proposed.max(1) as f64);
    v.set("serve.spec.tokens_per_step", stats.tokens as f64 / stats.speculations.max(1) as f64);
    v.set("serve.spec.rollbacks", (stats.spec_proposed - stats.spec_accepted) as f64);
    v.set("serve.spec.verify_hit_rate", verify.hit_rate());
    v.set("serve.spec.draft_hit_rate", draft.hit_rate());
    differ + fast.errored + slow.errored
}

/// All fixed micro probes. Returns the output mismatches they found.
pub fn micro(w: Workload, models: &[Built], v: &mut Values) -> usize {
    tir_probes(v);
    plan_cache_probes(v);
    kv_probes(v);
    sim_probe(w, models, v);
    spec_probe(v)
}
