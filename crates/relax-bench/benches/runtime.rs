//! Runtime micro-benchmarks: VM decode steps on the executable tiny model,
//! raw tensor-program execution comparing the reference interpreter
//! against shape-specialized kernel plans,
//! serving throughput through the `relax-serve` worker pool (1, 4 and 8
//! workers over the shared plan cache), the kv-append kernel pair
//! (scalar reference vs row-copy), and mixed-traffic session serving
//! (continuous paged batching vs the shape-batched copy baseline).
//!
//! Plain `std::time::Instant` harness (see `relax_bench::timing`); run with
//! `cargo bench -p relax-bench --bench runtime`. Writes the medians to
//! `BENCH_runtime.json` at the repository root (`target/` in fast mode).

use std::sync::Arc;

use relax_arith::{DataType, Var as SymVar};
use relax_bench::timing::{bench, fast_mode};
use relax_core::{ShapeDesc, StructInfo};
use relax_models::llama::LlamaConfig;
use relax_passes::{compile, compile_with_report, CompileOptions, PassRecord};
use relax_serve::chaos::{run_chaos, ChaosConfig, ChaosRequest};
use relax_serve::{
    ServeConfig, ServeEngine, SessionConfig, SessionManager, SessionModelSpec, SessionRequest,
};
use relax_tir::{grid, interp, plan, Buffer, NDArray, PrimFunc, Stmt, TirExpr};
use relax_vm::registry::{kv_append_reference, Registry};
use relax_vm::{KvCacheConfig, Value, Vm};

fn tiny_decode_args(ir: &relax_models::llama::ModelIr, batch: usize, kv: usize) -> Vec<Value> {
    let mut env = std::collections::HashMap::new();
    env.insert(ir.batch.clone(), batch as i64);
    env.insert(ir.seq.clone(), kv as i64);
    ir.params
        .iter()
        .map(|(name, sinfo)| {
            let (dims, dt) = match sinfo {
                StructInfo::Tensor {
                    shape: ShapeDesc::Known(d),
                    dtype,
                } => (
                    d.iter()
                        .map(|e| e.eval(&env).unwrap() as usize)
                        .collect::<Vec<_>>(),
                    dtype.unwrap(),
                ),
                _ => unreachable!(),
            };
            if name == "tokens" {
                Value::Tensor(NDArray::from_i64(&dims, dt, vec![1; dims.iter().product()]).unwrap())
            } else {
                let n: usize = dims.iter().product();
                Value::Tensor(
                    NDArray::from_f64(&dims, dt, (0..n).map(|i| (i % 7) as f64 * 0.1).collect())
                        .unwrap(),
                )
            }
        })
        .collect()
}

/// The default pipeline's decode step (library dispatch on): the numbers
/// the other figures quote.
fn bench_vm_decode(rows: &mut Vec<(String, f64)>) {
    let cfg = LlamaConfig::tiny();
    let ir = relax_models::llama::build_decode(&cfg).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let mut vm = Vm::new(exec);
    let args = tiny_decode_args(&ir, 2, 8);
    let m = bench("vm/tiny_llm_decode_step", || {
        vm.run("decode", std::hint::black_box(&args)).unwrap()
    });
    rows.push(("vm/tiny_llm_decode_step".into(), m));
}

/// The decode loop with every kernel generated (no library dispatch), run
/// two ways: reference interpreter (plan cache disabled) and warm kernel
/// plans.
///
/// Returns `(interp_ns, plan_ns)`.
fn bench_vm_decode_plan_modes(rows: &mut Vec<(String, f64)>) -> (f64, f64) {
    let cfg = LlamaConfig::tiny();
    let ir = relax_models::llama::build_decode(&cfg).unwrap();
    let opts = CompileOptions {
        dispatch_library: false,
        ..CompileOptions::default()
    };
    let exec = compile(ir.module.clone(), &opts).unwrap();
    let args = tiny_decode_args(&ir, 2, 8);

    let mut vm = Vm::new(exec.clone());
    vm.set_plan_cache_capacity(0); // pure interpreter — the pre-plan path
    let interp_ns = bench("vm/decode_gen_kernels/interp", || {
        vm.run("decode", std::hint::black_box(&args)).unwrap()
    });

    let mut vm = Vm::new(exec);
    let plan_ns = bench("vm/decode_gen_kernels/plan", || {
        vm.run("decode", std::hint::black_box(&args)).unwrap()
    });

    rows.push(("vm/decode_gen_kernels/interp".into(), interp_ns));
    rows.push(("vm/decode_gen_kernels/plan".into(), plan_ns));
    (interp_ns, plan_ns)
}

fn matmul_func() -> PrimFunc {
    let n = SymVar::new("n");
    let x = Buffer::new("X", vec![n.clone().into(), 64.into()], DataType::F32);
    let w = Buffer::new("W", vec![64.into(), 64.into()], DataType::F32);
    let y = Buffer::new("Y", vec![n.clone().into(), 64.into()], DataType::F32);
    let (iv, nest) = grid(&[("i", n.into()), ("j", 64.into()), ("k", 64.into())]);
    let (i, j, k) = (iv[0].clone(), iv[1].clone(), iv[2].clone());
    let body = nest.build(Stmt::seq(vec![
        Stmt::IfEq {
            lhs: k.clone().into(),
            rhs: 0.into(),
            then: Box::new(Stmt::store(
                &y,
                vec![i.clone().into(), j.clone().into()],
                TirExpr::FloatImm(0.0),
            )),
        },
        Stmt::store(
            &y,
            vec![i.clone().into(), j.clone().into()],
            TirExpr::load(&y, vec![i.clone().into(), j.clone().into()])
                + TirExpr::load(&x, vec![i.into(), k.clone().into()])
                    * TirExpr::load(&w, vec![k.into(), j.into()]),
        ),
    ]));
    PrimFunc::new("mm", vec![x, w, y], 1, body)
}

/// Raw symbolic-batch matmul: reference interpreter vs compiled plan.
fn bench_tir_matmul(rows: &mut Vec<(String, f64)>) {
    let f = matmul_func();
    let xs = NDArray::from_f64(
        &[8, 64],
        DataType::F32,
        (0..512).map(|i| (i % 13) as f64).collect(),
    )
    .unwrap();
    let ws = NDArray::from_f64(
        &[64, 64],
        DataType::F32,
        (0..4096).map(|i| (i % 7) as f64 * 0.1).collect(),
    )
    .unwrap();
    let ys = NDArray::zeros(&[8, 64], DataType::F32);
    let args = [xs, ws, ys];

    let m = bench("tir/matmul_8x64x64/interp", || {
        interp::run(&f, std::hint::black_box(&args)).unwrap()
    });
    rows.push(("tir/matmul_8x64x64/interp".into(), m));

    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let compiled = plan::compile(&f, &shapes).unwrap();
    let m = bench("tir/matmul_8x64x64/plan", || {
        compiled.run(std::hint::black_box(&args), 1).unwrap()
    });
    rows.push(("tir/matmul_8x64x64/plan".into(), m));
}

/// A larger symbolic-batch matmul (96×64×64) on the scalar plan tape.
fn bench_tir_matmul_large(rows: &mut Vec<(String, f64)>) {
    let f = matmul_func();
    let xs = NDArray::from_f64(
        &[96, 64],
        DataType::F32,
        (0..96 * 64).map(|i| (i % 13) as f64).collect(),
    )
    .unwrap();
    let ws = NDArray::from_f64(
        &[64, 64],
        DataType::F32,
        (0..4096).map(|i| (i % 7) as f64 * 0.1).collect(),
    )
    .unwrap();
    let ys = NDArray::zeros(&[96, 64], DataType::F32);
    let args = [xs, ws, ys];
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let compiled = plan::compile(&f, &shapes).unwrap();
    let plan_ns = bench("tir/matmul_96x64x64/plan", || {
        compiled.run(std::hint::black_box(&args), 1).unwrap()
    });
    rows.push(("tir/matmul_96x64x64/plan".into(), plan_ns));
}

/// One row of the kernel-schedule ablation: the same kernel executed
/// scheduled (macro-op plan), unscheduled (scalar plan tape), or through
/// the vendor-library stand-in.
struct ScheduleRow {
    name: String,
    variant: &'static str,
    /// Host CPUs available to this row — thread-scaling context, same
    /// rationale as the serving rows.
    host_threads: usize,
    median_ns: f64,
}

/// Kernel-schedule ablation (scheduled vs unscheduled vs library) for
/// the 96×64×64 matmul and the tiny-model decode step. Returns the rows
/// and the headline `matmul_scheduled_vs_unscheduled` speedup.
///
/// Before timing anything the scheduled plan is checked bitwise against
/// the unscheduled one — a fast wrong kernel must fail the bench, not
/// publish a number.
fn bench_kernel_schedule(rows: &mut Vec<(String, f64)>) -> (Vec<ScheduleRow>, f64) {
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out: Vec<ScheduleRow> = Vec::new();
    let mut push = |rows: &mut Vec<(String, f64)>, name: String, variant: &'static str, ns: f64| {
        rows.push((name.clone(), ns));
        out.push(ScheduleRow {
            name,
            variant,
            host_threads,
            median_ns: ns,
        });
    };

    // --- matmul 96×64×64: scalar plan vs macro-op plan vs library ---
    let f = matmul_func();
    let sched_f = relax_tir::schedule::auto_schedule(&f).expect("matmul nest auto-schedules");
    let xs = NDArray::from_f64(
        &[96, 64],
        DataType::F32,
        (0..96 * 64).map(|i| (i % 13) as f64).collect(),
    )
    .unwrap();
    let ws = NDArray::from_f64(
        &[64, 64],
        DataType::F32,
        (0..4096).map(|i| (i % 7) as f64 * 0.1).collect(),
    )
    .unwrap();
    let ys = NDArray::zeros(&[96, 64], DataType::F32);
    let args = [xs, ws, ys];
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let plain = plan::compile(&f, &shapes).unwrap();
    let scheduled = plan::compile(&sched_f, &shapes).unwrap();
    assert!(
        scheduled.scheduled(),
        "scheduled matmul plan should contain macro-ops"
    );

    // Bitwise guard before any timing.
    {
        let a: Vec<NDArray> = args.iter().map(|x| x.deep_copy()).collect();
        let b: Vec<NDArray> = args.iter().map(|x| x.deep_copy()).collect();
        plain.run(&a, 1).unwrap();
        scheduled.run(&b, 1).unwrap();
        let bits = |arr: &NDArray| -> Vec<u64> {
            arr.to_f64_vec().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&a[2]),
            bits(&b[2]),
            "scheduled matmul diverged bitwise from the scalar plan"
        );
    }

    let un_ns = bench("kernel_schedule/matmul_96x64x64/unscheduled", || {
        plain.run(std::hint::black_box(&args), 1).unwrap()
    });
    push(
        rows,
        "kernel_schedule/matmul_96x64x64/unscheduled".into(),
        "unscheduled",
        un_ns,
    );
    let s_ns = bench("kernel_schedule/matmul_96x64x64/scheduled", || {
        scheduled.run(std::hint::black_box(&args), 1).unwrap()
    });
    push(
        rows,
        "kernel_schedule/matmul_96x64x64/scheduled".into(),
        "scheduled",
        s_ns,
    );
    let registry = Registry::new();
    let lib_in = [args[0].deep_copy(), args[1].deep_copy()];
    let lib_out = args[2].deep_copy();
    let lib_ns = bench("kernel_schedule/matmul_96x64x64/library", || {
        registry
            .call_lib(
                "cublas.matmul",
                std::hint::black_box(&lib_in),
                std::slice::from_ref(&lib_out),
            )
            .unwrap()
    });
    push(
        rows,
        "kernel_schedule/matmul_96x64x64/library".into(),
        "library",
        lib_ns,
    );

    // Roofline sanity: the measured scheduled time must sit at or above
    // the physical floor of the host model — a fraction above 1 means
    // the measurement or the traffic model is broken (relax-sim).
    let roof = relax_sim::Roofline::host_cpu();
    let profile = relax_sim::KernelProfile::matmul_blocked(96, 64, 64, 4);
    let fraction = roof.fraction(&profile, s_ns * 1e-9);
    println!(
        "kernel_schedule/roofline_fraction              {fraction:>11.4}  ({:?}-bound)",
        roof.bound(&profile)
    );
    assert!(
        fraction <= 1.0,
        "scheduled matmul claims {fraction:.2}x of the host roofline"
    );

    // --- decode step: generated kernels with scheduling on/off, and the
    // library-dispatch pipeline as the reference bar ---
    let cfg = LlamaConfig::tiny();
    let ir = relax_models::llama::build_decode(&cfg).unwrap();
    let dargs = tiny_decode_args(&ir, 2, 8);
    for (tag, variant, opts) in [
        (
            "kernel_schedule/decode/scheduled",
            "scheduled",
            CompileOptions {
                dispatch_library: false,
                ..CompileOptions::default()
            },
        ),
        (
            "kernel_schedule/decode/unscheduled",
            "unscheduled",
            CompileOptions {
                dispatch_library: false,
                kernel_schedule: false,
                ..CompileOptions::default()
            },
        ),
        (
            "kernel_schedule/decode/library",
            "library",
            CompileOptions::default(),
        ),
    ] {
        let exec = compile(ir.module.clone(), &opts).unwrap();
        let mut vm = Vm::new(exec);
        let ns = bench(tag, || {
            vm.run("decode", std::hint::black_box(&dargs)).unwrap()
        });
        push(rows, tag.into(), variant, ns);
    }

    (out, un_ns / s_ns)
}

/// KV-append micro-bench: the copy-based scalar oracle
/// (`kv_append_reference`) against the row-copy library kernel
/// (`vm.builtin.kv_append`) at several context lengths — the before/after
/// pair for the inner-loop rewrite. Both re-materialize the grown cache;
/// the paged in-place path is measured end to end in
/// `serving_continuous`.
fn bench_kv_append(rows: &mut Vec<(String, f64)>) {
    let registry = Registry::new();
    let (b, h, hd) = (1usize, 2usize, 32usize);
    for len in [15usize, 63, 255] {
        let cache = NDArray::from_f64(
            &[b, h, len, hd],
            DataType::F32,
            (0..b * h * len * hd).map(|i| (i % 11) as f64 * 0.25).collect(),
        )
        .unwrap();
        let new = NDArray::from_f64(
            &[b, h, 1, hd],
            DataType::F32,
            (0..b * h * hd).map(|i| (i % 5) as f64 * 0.5).collect(),
        )
        .unwrap();
        let out = NDArray::zeros(&[b, h, len + 1, hd], DataType::F32);
        let inputs = [cache, new];
        let name = format!("kv_append/len{len}/reference");
        let m = bench(&name, || {
            kv_append_reference(std::hint::black_box(&inputs), std::slice::from_ref(&out))
                .unwrap()
        });
        rows.push((name, m));
        let name = format!("kv_append/len{len}/row_copy");
        let m = bench(&name, || {
            registry
                .call_lib(
                    "vm.builtin.kv_append",
                    std::hint::black_box(&inputs),
                    std::slice::from_ref(&out),
                )
                .unwrap()
        });
        rows.push((name, m));
    }
}

/// One serving configuration measured to steady state.
struct ServingRow {
    name: String,
    workers: usize,
    /// Host CPUs actually available to this row's worker threads. On a
    /// 1-core host a 4-worker row cannot beat 1 worker — the honest
    /// ceiling for CPU-bound decode is parity, and this column is what
    /// makes that legible in the JSON.
    host_threads: usize,
    /// Best wall time for one full wave of `requests` submissions, ns.
    total_ns: f64,
    ns_per_req: f64,
    /// Sum of kernel-plan compilations across all workers.
    plan_compiles: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Distinct plan keys resident at shutdown.
    cold_keys: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
}

/// Pushes `requests` tiny-decode submissions (two interleaved shape
/// signatures) through a fresh engine, `repeats` waves, and keeps the
/// best wall time. The report from shutdown supplies the cache and
/// latency columns.
fn serve_run(name: &str, workers: usize, requests: usize) -> ServingRow {
    let ir = relax_models::llama::build_decode(&LlamaConfig::tiny()).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let arg_sets = [tiny_decode_args(&ir, 1, 4), tiny_decode_args(&ir, 2, 8)];

    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers,
            queue_capacity: requests + 1,
            ..ServeConfig::default()
        },
    );
    // Best-of-N waves: on a shared 1-core host individual waves are
    // noisy; the minimum over more waves is the stable statistic.
    let repeats = if fast_mode() { 2 } else { 9 };
    let mut best_ns = f64::INFINITY;
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        let tickets: Vec<_> = (0..requests)
            .map(|i| {
                engine
                    .submit("decode", &arg_sets[i % arg_sets.len()])
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64);
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.failed, 0);
    let ns_per_req = best_ns / requests as f64;
    println!("{name:<40} {ns_per_req:>12.0} ns/req  ({requests} reqs/wave)");
    ServingRow {
        name: name.to_string(),
        workers,
        host_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        total_ns: best_ns,
        ns_per_req,
        plan_compiles: report.total_plan_compiles(),
        cache_hits: report.stats.plan_cache.hits,
        cache_misses: report.stats.plan_cache.misses,
        cold_keys: report.stats.plan_cache.len as u64,
        p50_ns: report.stats.latency.p50_ns,
        p95_ns: report.stats.latency.p95_ns,
        p99_ns: report.stats.latency.p99_ns,
    }
}

/// Serving throughput: the same decode workload through 1, 4 and 8
/// workers over the shared plan cache.
fn bench_serving(rows: &mut Vec<(String, f64)>) -> Vec<ServingRow> {
    let requests = if fast_mode() { 8 } else { 32 };
    let runs = vec![
        serve_run("serve/decode/workers1_shared", 1, requests),
        serve_run("serve/decode/workers4_shared", 4, requests),
        serve_run("serve/decode/workers8_shared", 8, requests),
    ];
    for r in &runs {
        rows.push((r.name.clone(), r.ns_per_req));
    }
    runs
}

/// One chaos run's availability figures.
struct ChaosRow {
    fault_rate: f64,
    submitted: u64,
    completed: u64,
    scheduled_faults: u64,
    availability: f64,
    retries: u64,
    restarts: u64,
    p99_ns: u64,
}

/// Availability under injected faults: the same decode workload through
/// the chaos harness at 0%, 1% and 5% fault rates (seeded worker
/// panics, stalls, dropped replies and kernel faults), with retry,
/// overload control and supervision on. The invariant asserts here are
/// absolute (no hung ticket, no corrupted survivor); the availability
/// column is the figure the robustness story quotes.
fn bench_chaos_availability() -> Vec<ChaosRow> {
    let ir = relax_models::llama::build_decode(&LlamaConfig::tiny()).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let requests = if fast_mode() { 24 } else { 100 };
    let workload: Vec<ChaosRequest> = (0..requests)
        .map(|i| {
            let (batch, kv) = if i % 2 == 0 { (1, 4) } else { (2, 8) };
            ("decode".to_string(), tiny_decode_args(&ir, batch, kv))
        })
        .collect();
    [0.0, 0.01, 0.05]
        .iter()
        .map(|&fault_rate| {
            let chaos = run_chaos(
                exec.clone(),
                &workload,
                ChaosConfig {
                    fault_rate,
                    ..ChaosConfig::default()
                },
            );
            assert_eq!(chaos.unresolved, 0, "a ticket hung under chaos");
            assert_eq!(chaos.mismatches, 0, "chaos corrupted a surviving session");
            let stats = &chaos.report.stats;
            println!(
                "serve/chaos fault_rate={fault_rate:<5} availability={:<6.3} \
                 ({}/{} completed, {} faults, {} retries, {} restarts)",
                chaos.availability,
                chaos.completed,
                chaos.submitted,
                chaos.scheduled_faults,
                stats.retries,
                stats.restarts,
            );
            ChaosRow {
                fault_rate,
                submitted: chaos.submitted,
                completed: chaos.completed,
                scheduled_faults: chaos.scheduled_faults,
                availability: chaos.availability,
                retries: stats.retries,
                restarts: stats.restarts,
                p99_ns: stats.latency.p99_ns,
            }
        })
        .collect()
}

/// One mixed-traffic session-serving configuration.
struct ContinuousRow {
    name: String,
    sessions: usize,
    workers: usize,
    /// Generated tokens across all sessions (prompt tokens excluded).
    tokens: u64,
    /// Wall time for the whole wave, ns.
    total_ns: f64,
    tokens_per_s: f64,
    /// Per-session submit-to-finish latency percentiles, ns.
    p50_ns: u64,
    p99_ns: u64,
    /// Page-pool columns (zero for the copy-based baseline, which has
    /// no pool — its KV memory is unbounded re-materialized tensors).
    peak_pages_in_use: u64,
    pool_capacity_pages: u64,
    pool_utilization: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Mixed traffic: varied prompt lengths and token budgets so sessions
/// admit and retire at different iterations.
fn mixed_session_schedule(n: usize) -> Vec<SessionRequest> {
    let vocab = LlamaConfig::tiny().vocab;
    (0..n)
        .map(|i| SessionRequest {
            prompt: (0..2 + i % 7).map(|t| ((i * 3 + t) % vocab as usize) as i64).collect(),
            max_new_tokens: 3 + i % 5,
            deadline: None,
        })
        .collect()
}

/// Deterministic weights shared by the paged manager and the copy-based
/// baseline (weights have no symbolic dims).
fn session_weights(ir: &relax_models::llama::ModelIr) -> Vec<Value> {
    let env = std::collections::HashMap::new();
    ir.params
        .iter()
        // Weights only: drop the token input, the paged handle, and the
        // copy path's per-layer `l{i}.k_cache`/`l{i}.v_cache` tensors.
        .filter(|(name, _)| name != "tokens" && !name.contains("cache"))
        .map(|(_, sinfo)| {
            let (dims, dt) = match sinfo {
                StructInfo::Tensor {
                    shape: ShapeDesc::Known(d),
                    dtype,
                } => (
                    d.iter()
                        .map(|e| e.eval(&env).unwrap() as usize)
                        .collect::<Vec<usize>>(),
                    dtype.unwrap(),
                ),
                _ => unreachable!(),
            };
            let n: usize = dims.iter().product();
            Value::Tensor(
                NDArray::from_f64(&dims, dt, (0..n).map(|i| (i % 7) as f64 * 0.1).collect())
                    .unwrap(),
            )
        })
        .collect()
}

/// The paged side: continuous batching through [`SessionManager`] — all
/// sessions submitted up front, iteration-level admit/retire, in-place
/// paged appends on a bounded page pool.
fn serve_sessions_paged(schedule: &[SessionRequest], workers: usize) -> ContinuousRow {
    let cfg = LlamaConfig::tiny();
    let paged_ir = relax_models::llama::build_decode_paged(&cfg).unwrap();
    let paged_exec = compile(paged_ir.module.clone(), &CompileOptions::default()).unwrap();
    let spec = SessionModelSpec {
        decode: Arc::new(paged_exec),
        decode_func: "decode_paged".into(),
        prefill: None,
        prefill_func: String::new(),
        weights: session_weights(&paged_ir),
        cache: KvCacheConfig {
            streams: 2 * cfg.n_layers,
            batch: 1,
            heads: cfg.n_kv_heads as usize,
            head_dim: cfg.head_dim as usize,
            dtype: cfg.dtype,
        },
        speculative: None,
    };
    let mgr = SessionManager::new(
        spec,
        SessionConfig {
            workers,
            pool_pages: 256,
            ..SessionConfig::default()
        },
    );
    let start = std::time::Instant::now();
    let tickets: Vec<_> = schedule.iter().map(|r| mgr.submit(r.clone())).collect();
    for t in tickets {
        t.wait().expect("paged session failed");
    }
    let total_ns = start.elapsed().as_nanos() as f64;
    let mut lats = mgr.completion_latencies_ns();
    lats.sort_unstable();
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    let ps = pool.stats();
    assert_eq!(ps.in_use, 0, "bench leaked pages: {ps:?}");
    let capacity = ps.capacity as u64;
    ContinuousRow {
        name: format!("serve_sessions/paged_continuous_w{workers}"),
        sessions: schedule.len(),
        workers,
        tokens: stats.tokens,
        total_ns,
        tokens_per_s: stats.tokens as f64 / (total_ns / 1e9),
        p50_ns: percentile(&lats, 0.50),
        p99_ns: percentile(&lats, 0.99),
        peak_pages_in_use: stats.peak_pages_in_use,
        pool_capacity_pages: capacity,
        pool_utilization: stats.peak_pages_in_use as f64 / capacity.max(1) as f64,
    }
}

/// The baseline: the same workload as stateless requests through
/// [`ServeEngine`] on the copy-based decode — each step re-materializes
/// every KV cache through `vm.builtin.kv_append` and threads the grown
/// tensors back through the next submission, in lockstep rounds.
fn serve_sessions_copy_baseline(schedule: &[SessionRequest], workers: usize) -> ContinuousRow {
    let cfg = LlamaConfig::tiny();
    let decode_ir = relax_models::llama::build_decode(&cfg).unwrap();
    let decode_exec = compile(decode_ir.module.clone(), &CompileOptions::default()).unwrap();
    let prefill_ir = relax_models::llama::build_prefill(&cfg).unwrap();
    let prefill_exec = compile(prefill_ir.module.clone(), &CompileOptions::default()).unwrap();
    let weights = session_weights(&decode_ir);
    let (nkv, hd) = (cfg.n_kv_heads as usize, cfg.head_dim as usize);
    let streams = 2 * cfg.n_layers;

    struct CopySession {
        prompt: Vec<i64>,
        max_new: usize,
        caches: Vec<NDArray>,
        fed: usize,
        generated: Vec<i64>,
    }

    let engine = ServeEngine::new(
        decode_exec,
        ServeConfig {
            workers,
            queue_capacity: schedule.len() + 1,
            ..ServeConfig::default()
        },
    );
    let mut prefill_vm = Vm::new(prefill_exec);
    let start = std::time::Instant::now();
    let mut sessions: Vec<CopySession> = schedule
        .iter()
        .map(|r| {
            let caches: Vec<NDArray> = if r.prompt.len() > 1 {
                let prefix = &r.prompt[..r.prompt.len() - 1];
                let tokens =
                    NDArray::from_i64(&[1, prefix.len()], DataType::I64, prefix.to_vec()).unwrap();
                let mut args = vec![Value::Tensor(tokens)];
                args.extend(weights.iter().cloned());
                let out = prefill_vm.run("prefill", &args).unwrap();
                out.as_tuple()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_tensor().unwrap().clone())
                    .collect()
            } else {
                (0..streams)
                    .map(|_| NDArray::zeros(&[1, nkv, 0, hd], cfg.dtype))
                    .collect()
            };
            let fed = caches[0].shape()[2];
            CopySession {
                prompt: r.prompt.clone(),
                max_new: r.max_new_tokens,
                caches,
                fed,
                generated: Vec::new(),
            }
        })
        .collect();
    let mut completions: Vec<u64> = Vec::new();
    let mut tokens = 0u64;
    loop {
        let active: Vec<usize> = (0..sessions.len())
            .filter(|&i| sessions[i].generated.len() < sessions[i].max_new)
            .collect();
        if active.is_empty() {
            break;
        }
        let round: Vec<(usize, relax_serve::Ticket)> = active
            .iter()
            .map(|&i| {
                let s = &sessions[i];
                let token = if s.fed < s.prompt.len() {
                    s.prompt[s.fed]
                } else {
                    s.generated[s.fed - s.prompt.len()]
                };
                let t = NDArray::from_i64(&[1, 1], DataType::I64, vec![token]).unwrap();
                let mut args = vec![Value::Tensor(t)];
                args.extend(s.caches.iter().cloned().map(Value::Tensor));
                args.extend(weights.iter().cloned());
                (i, engine.submit("decode", &args).unwrap())
            })
            .collect();
        for (i, ticket) in round {
            let out = ticket.wait().expect("baseline decode failed");
            let items = out.as_tuple().unwrap().to_vec();
            let s = &mut sessions[i];
            let next = session_argmax(items[0].as_tensor().unwrap());
            s.caches = items[1..]
                .iter()
                .map(|v| v.as_tensor().unwrap().clone())
                .collect();
            s.fed += 1;
            if s.fed >= s.prompt.len() {
                s.generated.push(next);
                tokens += 1;
            }
            if s.generated.len() >= s.max_new {
                completions.push(start.elapsed().as_nanos() as u64);
            }
        }
    }
    let total_ns = start.elapsed().as_nanos() as f64;
    engine.shutdown();
    completions.sort_unstable();
    ContinuousRow {
        name: format!("serve_sessions/copy_lockstep_w{workers}"),
        sessions: schedule.len(),
        workers,
        tokens,
        total_ns,
        tokens_per_s: tokens as f64 / (total_ns / 1e9),
        p50_ns: percentile(&completions, 0.50),
        p99_ns: percentile(&completions, 0.99),
        peak_pages_in_use: 0,
        pool_capacity_pages: 0,
        pool_utilization: 0.0,
    }
}

fn session_argmax(logits: &NDArray) -> i64 {
    let vals = logits.to_f64_vec();
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in vals.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as i64
}

/// Mixed-traffic session serving: continuous paged batching vs the
/// shape-batched copy baseline on the same session schedule, plus a
/// 1-worker paged row for the worker-scaling column. Tokens must match
/// between the two paths — both greedy-decode the same weights.
fn bench_serving_continuous(rows: &mut Vec<(String, f64)>) -> Vec<ContinuousRow> {
    let sessions = if fast_mode() { 6 } else { 12 };
    let schedule = mixed_session_schedule(sessions);
    let runs = vec![
        serve_sessions_copy_baseline(&schedule, 4),
        serve_sessions_paged(&schedule, 1),
        serve_sessions_paged(&schedule, 4),
    ];
    for r in &runs {
        println!(
            "{:<40} {:>10.0} tok/s  p99 {:>10} ns  pages {}/{}",
            r.name, r.tokens_per_s, r.p99_ns, r.peak_pages_in_use, r.pool_capacity_pages
        );
        rows.push((r.name.clone(), r.total_ns / r.tokens.max(1) as f64));
    }
    assert_eq!(
        runs[0].tokens, runs[2].tokens,
        "paged and copy baselines generated different token counts"
    );
    runs
}

/// One row of the `dynamic_workloads` section: throughput plus the
/// ragged-shape plan-cache counters for a data-dependent workload (or
/// its dense/plain baseline).
struct DynamicRow {
    name: String,
    tokens: u64,
    total_ns: f64,
    tokens_per_s: f64,
    /// Draft-acceptance rate (`spec_accepted / spec_proposed`); zero on
    /// non-speculative rows.
    acceptance: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// MoE ragged dispatch vs the dense single-FFN baseline on the same
/// token stream. Every `moe_ffn` call runs per-expert kernels whose
/// leading dim is a runtime-bound `match_cast` symbol, so the plan
/// cache sees a genuinely ragged shape population; the dense baseline
/// sees one shape per token count.
fn bench_moe_dynamic(rows: &mut Vec<(String, f64)>) -> Vec<DynamicRow> {
    use relax_models::moe::{build_dense_ffn, build_ffn_with_assignments, MoeConfig};
    use relax_vm::registry::Registry;
    use relax_vm::SharedPlanCache;

    let cfg = MoeConfig::tiny();
    let (d, h, e) = (
        cfg.d_model as usize,
        cfg.d_ff as usize,
        cfg.experts as usize,
    );
    let tensor = |dims: &[usize]| {
        let n: usize = dims.iter().product();
        Value::Tensor(
            NDArray::from_f64(
                dims,
                cfg.dtype,
                (0..n).map(|i| (i % 7) as f64 * 0.1 - 0.3).collect(),
            )
            .unwrap(),
        )
    };
    let mut expert_weights = Vec::new();
    for _ in 0..e {
        expert_weights.push(tensor(&[d, h]));
        expert_weights.push(tensor(&[h, d]));
    }
    let ragged: Vec<usize> = [1usize, 3, 5, 8, 13, 2, 7, 11]
        .iter()
        .cycle()
        .take(if fast_mode() { 16 } else { 48 })
        .copied()
        .collect();

    let moe_exec = Arc::new(
        compile(
            build_ffn_with_assignments(&cfg).unwrap().module,
            &CompileOptions::default(),
        )
        .unwrap(),
    );
    let dense_exec = Arc::new(
        compile(build_dense_ffn(&cfg).unwrap().module, &CompileOptions::default()).unwrap(),
    );
    let registry = Arc::new(Registry::new());

    let mut out = Vec::new();
    for (name, dense) in [("dynamic/moe_ffn_ragged", false), ("dynamic/dense_ffn_baseline", true)] {
        let cache = SharedPlanCache::new(256);
        let exec = if dense { &dense_exec } else { &moe_exec };
        let mut vm = Vm::from_parts(exec.clone(), registry.clone(), cache.clone());
        let mut tokens = 0u64;
        let start = std::time::Instant::now();
        for (step, &t) in ragged.iter().enumerate() {
            let mut args = vec![tensor(&[t, d])];
            if dense {
                args.push(expert_weights[0].clone());
                args.push(expert_weights[1].clone());
            } else {
                let assign: Vec<i64> = (0..t).map(|i| ((step + i * 3) % e) as i64).collect();
                args.push(Value::Tensor(
                    NDArray::from_i64(&[t], DataType::I64, assign).unwrap(),
                ));
                args.extend(expert_weights.iter().cloned());
            }
            let func = if dense { "dense_ffn" } else { "moe_ffn" };
            vm.run(func, &args).expect("dynamic MoE bench step failed");
            tokens += t as u64;
        }
        let total_ns = start.elapsed().as_nanos() as f64;
        let st = cache.stats();
        let row = DynamicRow {
            name: name.into(),
            tokens,
            total_ns,
            tokens_per_s: tokens as f64 / (total_ns / 1e9),
            acceptance: 0.0,
            cache_hits: st.hits,
            cache_misses: st.misses,
        };
        println!(
            "{:<40} {:>10.0} tok/s  plan cache {}/{} hits",
            row.name,
            row.tokens_per_s,
            st.hits,
            st.hits + st.misses
        );
        rows.push((row.name.clone(), total_ns / tokens.max(1) as f64));
        out.push(row);
    }
    out
}

/// A deliberately launch-overhead-bound configuration for the
/// speculative-decoding comparison: arithmetic per kernel is tiny, so a
/// multi-token verify feed costs about one single-token pass and the
/// draft/verify cost ratio tracks the layer counts.
fn spec_bench_cfg(n_layers: usize) -> LlamaConfig {
    LlamaConfig {
        name: "SpecBench".into(),
        hidden: 8,
        intermediate: 8,
        n_layers,
        n_heads: 1,
        n_kv_heads: 1,
        head_dim: 8,
        vocab: 16,
        max_context: 128,
        dtype: DataType::F32,
        quant4: false,
    }
}

/// Verify-model weights where every layer past the first is a bitwise
/// identity: `l{>=1}.wo` and `l{>=1}.w_down` are zero, so both residual
/// adds contribute exactly `+0` (`r32(x + 0) == x`). A 1-layer draft
/// built from the same deterministic weight pattern then agrees with
/// the verify argmax everywhere — acceptance is set purely by the
/// injected proposal noise.
fn identity_tail_weights(ir: &relax_models::llama::ModelIr) -> Vec<Value> {
    let mut weights = session_weights(ir);
    let names: Vec<&String> = ir
        .params
        .iter()
        .map(|(n, _)| n)
        .filter(|n| *n != "tokens" && !n.contains("cache"))
        .collect();
    for (i, name) in names.iter().enumerate() {
        let zero_it = name
            .strip_prefix('l')
            .and_then(|rest| rest.split_once('.'))
            .is_some_and(|(layer, field)| {
                layer.parse::<usize>().is_ok_and(|l| l >= 1)
                    && (field == "wo" || field == "w_down")
            });
        if zero_it {
            if let Value::Tensor(t) = &weights[i] {
                weights[i] = Value::Tensor(NDArray::zeros(t.shape(), t.dtype()));
            }
        }
    }
    weights
}

/// Speculative decoding vs plain autoregressive decoding on the same
/// session schedule: a 1-layer draft proposes 6 tokens per step, the
/// 12-layer verify model scores them in one variable-length paged feed
/// whose per-row marginal cost is a fraction of a full single-token
/// pass. The committed streams must match the plain run
/// token-for-token; the win is reported as tokens/s and must exceed 1x
/// at acceptance >= 0.7 (noise 0.05 puts acceptance near 0.9).
fn bench_spec_decode(rows: &mut Vec<(String, f64)>) -> Vec<DynamicRow> {
    use relax_serve::SpeculativeSpec;

    let vcfg = spec_bench_cfg(12);
    let dcfg = spec_bench_cfg(1);
    let paged_ir = relax_models::llama::build_decode_paged(&vcfg).unwrap();
    let paged_exec = Arc::new(compile(paged_ir.module.clone(), &CompileOptions::default()).unwrap());
    let multi_exec = Arc::new(
        compile(
            relax_models::llama::build_decode_paged_multi(&vcfg)
                .unwrap()
                .module,
            &CompileOptions::default(),
        )
        .unwrap(),
    );
    let draft_ir = relax_models::llama::build_decode_paged(&dcfg).unwrap();
    let draft_exec = Arc::new(compile(draft_ir.module.clone(), &CompileOptions::default()).unwrap());

    let weights = identity_tail_weights(&paged_ir);
    let kv = |layers: usize| KvCacheConfig {
        streams: 2 * layers,
        batch: 1,
        heads: vcfg.n_kv_heads as usize,
        head_dim: vcfg.head_dim as usize,
        dtype: vcfg.dtype,
    };
    let spec = SessionModelSpec {
        decode: paged_exec,
        decode_func: "decode_paged".into(),
        prefill: None,
        prefill_func: String::new(),
        weights,
        cache: kv(vcfg.n_layers),
        speculative: Some(SpeculativeSpec {
            draft: draft_exec,
            draft_func: "decode_paged".into(),
            draft_weights: session_weights(&draft_ir),
            draft_cache: kv(dcfg.n_layers),
            verify: multi_exec,
            verify_func: "decode_paged_multi".into(),
            lookahead: 6,
            noise: 0.05,
            noise_seed: 0xD1CE_5EED,
        }),
    };
    let plain = SessionModelSpec {
        speculative: None,
        ..spec.clone()
    };
    let sessions = if fast_mode() { 3 } else { 5 };
    let max_new = if fast_mode() { 12 } else { 24 };
    let schedule: Vec<SessionRequest> = (0..sessions)
        .map(|i| SessionRequest {
            prompt: (0..3).map(|t| ((i * 5 + t) % vcfg.vocab as usize) as i64).collect(),
            max_new_tokens: max_new,
            deadline: None,
        })
        .collect();

    let run = |name: &str, model: &SessionModelSpec| {
        // The 12-layer verify model holds 24 KV streams per session (plus
        // 2 draft streams); at ~27 tokens of context that is ~52 pages per
        // session, so the full 5-session schedule needs a deeper pool than
        // the tiny-model benches.
        let mgr = SessionManager::new(
            model.clone(),
            SessionConfig {
                workers: 1,
                pool_pages: 1024,
                ..SessionConfig::default()
            },
        );
        let start = std::time::Instant::now();
        let tickets: Vec<_> = schedule.iter().map(|r| mgr.submit(r.clone())).collect();
        let streams: Vec<Vec<i64>> = tickets
            .into_iter()
            .map(|t| t.wait().expect("spec bench session failed").tokens)
            .collect();
        let total_ns = start.elapsed().as_nanos() as f64;
        let (_, verify_plans) = mgr.speculative_plan_stats();
        let stats = mgr.shutdown();
        let acceptance = stats.spec_accepted as f64 / stats.spec_proposed.max(1) as f64;
        let row = DynamicRow {
            name: name.into(),
            tokens: stats.tokens,
            total_ns,
            tokens_per_s: stats.tokens as f64 / (total_ns / 1e9),
            acceptance,
            cache_hits: verify_plans.hits,
            cache_misses: verify_plans.misses,
        };
        println!(
            "{:<40} {:>10.0} tok/s  acceptance {:.2}",
            row.name, row.tokens_per_s, row.acceptance
        );
        (row, streams, stats)
    };
    let (spec_row, spec_streams, spec_stats) = run("dynamic/spec_decode_accepted", &spec);
    let (plain_row, plain_streams, _) = run("dynamic/plain_decode_baseline", &plain);

    // Differential guarantee, re-checked in the bench itself: rejection
    // sampling never changes the stream, only the step count.
    assert_eq!(
        spec_streams, plain_streams,
        "speculative decoding perturbed the committed token streams"
    );
    assert!(
        spec_stats.speculations > 0,
        "spec bench never speculated: {spec_stats:?}"
    );
    assert!(
        spec_row.acceptance >= 0.7,
        "draft acceptance {:.3} fell below the 0.7 bar",
        spec_row.acceptance
    );
    assert!(
        spec_row.tokens_per_s > plain_row.tokens_per_s,
        "speculative decode must beat plain decode at acceptance {:.2}: {} vs {} tok/s",
        spec_row.acceptance,
        spec_row.tokens_per_s,
        plain_row.tokens_per_s
    );
    for r in [&spec_row, &plain_row] {
        rows.push((r.name.clone(), r.total_ns / r.tokens.max(1) as f64));
    }
    vec![spec_row, plain_row]
}

/// Where a bench artifact is written: the committed `BENCH_runtime.json`
/// of a full run goes to the repository root; smoke-sized (`--fast`)
/// numbers and the multi-megabyte trace go under `target/`, so neither a
/// CI run nor a trace ever rewrites a committed file.
fn artifact_path(name: &str, committed: bool) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    if committed && !fast_mode() {
        return format!("{root}/{name}");
    }
    std::fs::create_dir_all(format!("{root}/target")).expect("create target/");
    format!("{root}/target/{name}")
}

/// Re-runs the 4-worker shared-cache serving wave with tracing captured
/// and writes the Chrome trace-event export to `target/BENCH_trace.json`.
/// The export is validated with the in-repo checker before it is
/// written; a bad trace fails the bench run.
fn export_serving_trace() {
    let capture = relax_trace::Capture::begin();
    let requests = if fast_mode() { 8 } else { 32 };
    serve_run("serve/decode/workers4_traced", 4, requests);
    let trace = capture.finish();
    trace.validate().expect("serving trace is well-formed");
    let json = trace.chrome_json();
    let stats = relax_trace::validate_chrome_trace(&json).expect("chrome export passes the checker");
    let path = artifact_path("BENCH_trace.json", false);
    std::fs::write(&path, &json).expect("write BENCH_trace.json");
    println!(
        "wrote {path} ({} events, {} request spans, {} threads, {} dropped)",
        stats.events, stats.async_pairs, stats.threads, stats.dropped
    );
}

/// One full-pipeline compile of the tiny decode module, reporting where
/// the compile time goes pass by pass.
fn compile_pass_rows() -> Vec<PassRecord> {
    let cfg = LlamaConfig::tiny();
    let ir = relax_models::llama::build_decode(&cfg).unwrap();
    let (_, report) = compile_with_report(ir.module, &CompileOptions::default()).unwrap();
    report.passes
}

/// Serializes results as JSON by hand — the workspace has no serde.
#[allow(clippy::too_many_arguments)]
fn write_json(
    rows: &[(String, f64)],
    speedups: &[(&str, f64)],
    passes: &[PassRecord],
    serving: &[ServingRow],
    continuous: &[ContinuousRow],
    dynamic: &[DynamicRow],
    chaos: &[ChaosRow],
    schedule: &[ScheduleRow],
) {
    // Thread-scaling rows only make sense relative to the host's actual
    // core count (a 1-core CI box cannot show a parallel win).
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!("{{\n  \"host_threads\": {host_threads},\n  \"results\": [\n");
    for (i, (name, ns)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"median_ns\": {ns:.1}}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"compile_passes\": [\n");
    for (i, p) in passes.iter().enumerate() {
        let sep = if i + 1 < passes.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"stage\": \"{:?}\", \"wall_ns\": {}, \"changed\": {}}}{sep}\n",
            p.name,
            p.stage,
            p.wall.as_nanos(),
            p.changed
        ));
    }
    out.push_str("  ],\n  \"serving\": [\n");
    for (i, r) in serving.iter().enumerate() {
        let sep = if i + 1 < serving.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"workers\": {}, \"host_threads\": {}, \
             \"total_ns\": {:.0}, \"ns_per_req\": {:.1}, \"plan_compiles\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cold_keys\": {}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}{sep}\n",
            r.name,
            r.workers,
            r.host_threads,
            r.total_ns,
            r.ns_per_req,
            r.plan_compiles,
            r.cache_hits,
            r.cache_misses,
            r.cold_keys,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
        ));
    }
    // Session serving: continuous paged batching vs the shape-batched
    // copy baseline on one mixed-traffic schedule. The page-pool columns
    // are zero on the baseline rows (no pool — unbounded copies).
    out.push_str("  ],\n  \"serving_continuous\": [\n");
    for (i, r) in continuous.iter().enumerate() {
        let sep = if i + 1 < continuous.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"sessions\": {}, \"workers\": {}, \
             \"tokens\": {}, \"total_ns\": {:.0}, \"tokens_per_s\": {:.1}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"peak_pages_in_use\": {}, \
             \"pool_capacity_pages\": {}, \"pool_utilization\": {:.4}}}{sep}\n",
            r.name,
            r.sessions,
            r.workers,
            r.tokens,
            r.total_ns,
            r.tokens_per_s,
            r.p50_ns,
            r.p99_ns,
            r.peak_pages_in_use,
            r.pool_capacity_pages,
            r.pool_utilization,
        ));
    }
    // Dynamic-shape stress workloads: MoE ragged dispatch vs the dense
    // FFN baseline, and speculative decoding vs plain autoregressive
    // decoding — each pair runs the same token stream, so tokens_per_s
    // is directly comparable within a pair. `acceptance` is the
    // draft-acceptance rate (speculative rows only); the cache columns
    // are the shared plan cache's hit/miss counters under the ragged
    // shape population.
    out.push_str("  ],\n  \"dynamic_workloads\": [\n");
    for (i, r) in dynamic.iter().enumerate() {
        let sep = if i + 1 < dynamic.len() { "," } else { "" };
        let denom = (r.cache_hits + r.cache_misses).max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"tokens\": {}, \"total_ns\": {:.0}, \
             \"tokens_per_s\": {:.1}, \"acceptance\": {:.4}, \
             \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \
             \"plan_cache_hit_rate\": {:.4}}}{sep}\n",
            r.name,
            r.tokens,
            r.total_ns,
            r.tokens_per_s,
            r.acceptance,
            r.cache_hits,
            r.cache_misses,
            r.cache_hits as f64 / denom,
        ));
    }
    // Kernel-schedule ablation: the same kernel as a macro-op plan
    // (scheduled), a scalar plan tape (unscheduled), and the vendor
    // library stand-in — matmul and decode, with the host core count on
    // every row since thread-scaling claims depend on it.
    out.push_str("  ],\n  \"kernel_schedule\": [\n");
    for (i, s) in schedule.iter().enumerate() {
        let sep = if i + 1 < schedule.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"variant\": \"{}\", \"host_threads\": {}, \
             \"median_ns\": {:.1}}}{sep}\n",
            s.name, s.variant, s.host_threads, s.median_ns,
        ));
    }
    out.push_str("  ],\n  \"availability_under_chaos\": [\n");
    for (i, c) in chaos.iter().enumerate() {
        let sep = if i + 1 < chaos.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"fault_rate\": {:.2}, \"submitted\": {}, \"completed\": {}, \
             \"scheduled_faults\": {}, \"availability\": {:.4}, \"retries\": {}, \
             \"restarts\": {}, \"p99_ns\": {}}}{sep}\n",
            c.fault_rate,
            c.submitted,
            c.completed,
            c.scheduled_faults,
            c.availability,
            c.retries,
            c.restarts,
            c.p99_ns,
        ));
    }
    // Contended lock sites observed during this bench process (from the
    // relax-trace LockSite instrumentation). An empty list means no
    // instrumented lock ever blocked — the lock-free hot paths held.
    out.push_str("  ],\n  \"lock_wait\": [\n");
    let lock_waits = relax_trace::lock_wait_stats();
    for (i, w) in lock_waits.iter().enumerate() {
        let sep = if i + 1 < lock_waits.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"site\": \"{}\", \"waits\": {}, \"total_wait_ns\": {}, \
             \"max_wait_ns\": {}}}{sep}\n",
            w.site, w.waits, w.total_wait_ns, w.max_wait_ns,
        ));
    }
    out.push_str("  ],\n  \"speedup\": {\n");
    for (i, (name, x)) in speedups.iter().enumerate() {
        let sep = if i + 1 < speedups.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {x:.2}{sep}\n"));
    }
    // Pre-refactor numbers (captured on the same 1-core host, commit
    // 15bd2a9, before the lock-free storage / kernel pool / sharded
    // queue work) so before/after stays comparable in one file.
    out.push_str("  },\n  \"baseline_pre_refactor\": {\n");
    out.push_str("    \"host_threads\": 1,\n");
    out.push_str("    \"results\": [\n");
    let baseline = [
        ("vm/decode_gen_kernels/plan", 4243233.8),
        ("tir/matmul_8x64x64/plan", 2003014.6),
        ("tir/matmul_96x64x64/plan", 25174184.0),
        ("serve/decode/workers1_shared", 884310.8),
        ("serve/decode/workers4_shared", 1162575.2),
    ];
    for (i, (name, ns)) in baseline.iter().enumerate() {
        let sep = if i + 1 < baseline.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"name\": \"{name}\", \"median_ns\": {ns:.1}}}{sep}\n"
        ));
    }
    out.push_str("    ],\n    \"speedup\": {\n");
    out.push_str("      \"serve_decode_4w_vs_1w\": 0.76\n");
    out.push_str("    }\n  }\n}\n");
    let path = artifact_path("BENCH_runtime.json", true);
    std::fs::write(&path, out).expect("write BENCH_runtime.json");
    println!("wrote {path}");
}

fn main() {
    let mut rows: Vec<(String, f64)> = Vec::new();
    bench_vm_decode(&mut rows);
    let (interp_ns, plan_ns) = bench_vm_decode_plan_modes(&mut rows);
    bench_tir_matmul(&mut rows);
    bench_tir_matmul_large(&mut rows);
    let (schedule_rows, sched_speedup) = bench_kernel_schedule(&mut rows);
    bench_kv_append(&mut rows);
    let serving = bench_serving(&mut rows);
    let continuous = bench_serving_continuous(&mut rows);
    let mut dynamic = bench_moe_dynamic(&mut rows);
    dynamic.extend(bench_spec_decode(&mut rows));

    let mm_interp = rows
        .iter()
        .find(|(n, _)| n == "tir/matmul_8x64x64/interp")
        .map(|(_, v)| *v)
        .unwrap();
    let mm_plan = rows
        .iter()
        .find(|(n, _)| n == "tir/matmul_8x64x64/plan")
        .map(|(_, v)| *v)
        .unwrap();
    let mut speedups = vec![
        ("decode_plan_vs_interp", interp_ns / plan_ns),
        ("matmul_plan_vs_interp", mm_interp / mm_plan),
        ("matmul_scheduled_vs_unscheduled", sched_speedup),
        (
            "serve_decode_4w_vs_1w",
            serving[0].total_ns / serving[1].total_ns,
        ),
        (
            "serve_decode_8w_vs_1w",
            serving[0].total_ns / serving[2].total_ns,
        ),
        // Mixed-traffic sessions: continuous paged batching over the
        // shape-batched copy baseline (same schedule, same tokens).
        (
            "serve_sessions_paged_vs_copy",
            continuous[2].tokens_per_s / continuous[0].tokens_per_s,
        ),
    ];
    // Dynamic-shape workloads: the MoE ratio prices the ragged
    // route/gather/scatter machinery against one dense FFN on the same
    // tokens; the spec-decode ratio must clear 1x (asserted in the
    // bench) since rejection sampling keeps the stream bitwise equal.
    speedups.push((
        "moe_ragged_vs_dense_ffn",
        dynamic[0].tokens_per_s / dynamic[1].tokens_per_s,
    ));
    speedups.push((
        "spec_decode_vs_plain",
        dynamic[2].tokens_per_s / dynamic[3].tokens_per_s,
    ));
    for (name, x) in &speedups {
        println!("{name:<40} {x:>11.2}x");
    }
    let chaos = bench_chaos_availability();
    export_serving_trace();
    let passes = compile_pass_rows();
    for p in &passes {
        println!(
            "compile/{:<32} {:>8} ns  changed={}",
            p.name,
            p.wall.as_nanos(),
            p.changed
        );
    }
    write_json(
        &rows,
        &speedups,
        &passes,
        &serving,
        &continuous,
        &dynamic,
        &chaos,
        &schedule_rows,
    );
}
