//! One KV path under the paper figures: at every (model, batch, context,
//! configuration) point a figure costs, the copy-based `decode` and the
//! served `decode_paged` dry-run the same launches once the KV-append and
//! attention launches are removed, and the paged step charges no more
//! bytes than the copy step. Moving a figure from one step to the other
//! can then change only its KV terms.
//!
//! Compiling and dry-running the figure models is shape-level work: the
//! whole file runs in about 13 s in a debug build, 1.5 s in release.

use relax_bench::{kv_cache, sim_args};
use relax_models::llama::{build_decode, build_decode_paged, LlamaConfig};
use relax_models::llava::LlavaConfig;
use relax_passes::{compile, CompileOptions};
use relax_sim::{simulate, DeviceSpec, SimReport, SimValue};
use relax_trace::{Capture, EventKind, Payload};

/// The launches a dry run logged on this thread: (instant name, payload).
type Log = Vec<(String, Payload)>;

/// The kernels that append to or attend over a KV cache, on either path.
const KV_KERNELS: [&str; 4] = [
    "vm.builtin.kv_append",
    "vm.builtin.kv_cache.append_paged",
    "vm.builtin.kv_cache.attention",
    "attention",
];

/// A steady-state dry run of `func` under a trace capture.
fn dry_run(exec: &relax_vm::Executable, func: &str, args: &[SimValue]) -> (SimReport, Log) {
    let capture = Capture::begin();
    let report = simulate(exec, func, args, &DeviceSpec::rtx4090(), true)
        .unwrap_or_else(|e| panic!("{func}: {e}"));
    let trace = capture.finish();
    let tid = relax_trace::thread_id();
    let log = trace
        .events
        .into_iter()
        .filter(|e| e.tid == tid && e.cat == "sim" && matches!(e.kind, EventKind::Instant))
        .map(|e| (e.name, e.payload))
        .collect();
    (report, log)
}

/// `log` without its KV-append and attention launches.
fn without_kv(log: Log) -> Log {
    log.into_iter()
        .filter(|launch| !KV_KERNELS.contains(&kernel(launch)))
        .collect()
}

/// The kernel a launch ran.
fn kernel(launch: &(String, Payload)) -> &str {
    match &launch.1 {
        Payload::Kernel { kernel, .. } => kernel,
        other => panic!("{}: a launch without a kernel payload: {other:?}", launch.0),
    }
}

/// Asserts that the two logs, KV launches removed, are the same launches
/// but for one stated difference: where the copy step launches one fused
/// kernel `fused_<a>_<b>_..`, the paged step may launch its parts `a`,
/// `b`, .. apart. Under generated kernels with fusion that happens once, at
/// the first layer's attention output projection (`permute`, `reshape`,
/// the `wo` matmul and, quantized, its `decode_q4`). Returns how often.
fn assert_alike(at: &str, copy: &Log, paged: &Log) -> usize {
    let (mut i, mut j, mut apart) = (0, 0, 0);
    while i < copy.len() && j < paged.len() {
        if copy[i] == paged[j] {
            (i, j) = (i + 1, j + 1);
            continue;
        }
        let fused = kernel(&copy[i]);
        let parts = (2..=4).find(|&n| {
            j + n <= paged.len() && {
                let names: Vec<&str> = paged[j..j + n].iter().map(kernel).collect();
                copy[i].0.starts_with("kernel:") && fused == format!("fused_{}", names.join("_"))
            }
        });
        let Some(n) = parts else {
            panic!(
                "{at}: copy launch {i} {:?} vs paged launch {j} {:?}",
                copy[i], paged[j]
            );
        };
        (i, j, apart) = (i + 1, j + n, apart + 1);
    }
    assert_eq!(
        (copy.len() - i, paged.len() - j),
        (0, 0),
        "{at}: launches left over"
    );
    apart
}

/// One figure's decode points: a model under the configurations it is
/// compiled with, at every batch and context it is costed at.
struct Points {
    config: LlamaConfig,
    opts: Vec<CompileOptions>,
    batches: Vec<i64>,
    contexts: Vec<i64>,
}

/// Checks every point; returns how many it checked.
fn check(points: &Points) -> usize {
    let cfg = &points.config;
    let copy = build_decode(cfg).unwrap();
    let paged = build_decode_paged(cfg).unwrap();
    let mut checked = 0;
    for opts in &points.opts {
        let copy_exec = compile(copy.module.clone(), opts).unwrap();
        let paged_exec = compile(paged.module.clone(), opts).unwrap();
        for &b in &points.batches {
            for &context in &points.contexts {
                let at = format!("{} {opts:?} b={b} context={context}", cfg.name);
                let copy_dims = [("batch", b), ("kv_len", context)];
                let copy_args = sim_args(&copy.params, &copy_dims, None);
                let cache = kv_cache(cfg, b, context);
                let paged_args = sim_args(&paged.params, &[("batch", b), ("seq", 1)], Some(&cache));
                let (copy_report, copy_log) = dry_run(&copy_exec, &copy.func, &copy_args);
                let (paged_report, paged_log) = dry_run(&paged_exec, &paged.func, &paged_args);
                let (copy_log, paged_log) = (without_kv(copy_log), without_kv(paged_log));
                assert!(!copy_log.is_empty(), "{at}: nothing launched");
                let unfused = assert_alike(&at, &copy_log, &paged_log);
                let want = usize::from(opts.fusion && !opts.dispatch_library);
                assert_eq!(unfused, want, "{at}: output projections fused apart");
                assert!(
                    paged_report.bytes <= copy_report.bytes,
                    "{at}: the paged step charges {} bytes, the copy step {}",
                    paged_report.bytes,
                    copy_report.bytes
                );
                checked += 1;
            }
        }
    }
    checked
}

/// Library dispatch on and off: every figure takes the faster per batch.
fn adaptive(base: CompileOptions) -> [CompileOptions; 2] {
    let no_library = CompileOptions {
        dispatch_library: false,
        ..base.clone()
    };
    [base, no_library]
}

#[test]
fn tiny_copy_and_paged_decode_launch_alike_apart_from_kv() {
    let opts = (0..16u32)
        .map(|mask| CompileOptions {
            dispatch_library: mask & 1 != 0,
            fusion: mask & 2 != 0,
            memory_plan: mask & 4 != 0,
            graph_capture: mask & 8 != 0,
            ..CompileOptions::default()
        })
        .collect();
    let points = Points {
        config: LlamaConfig::tiny(),
        opts,
        batches: vec![1, 4, 16],
        contexts: vec![1, 8, 40],
    };
    assert_eq!(check(&points), 16 * 3 * 3);
}

#[test]
fn every_figure_point_launches_alike_apart_from_kv() {
    let defaults = || adaptive(CompileOptions::default()).to_vec();
    let fig17 = [
        CompileOptions {
            graph_capture: false,
            ..CompileOptions::default()
        },
        CompileOptions {
            fusion: false,
            ..CompileOptions::default()
        },
    ]
    .into_iter()
    .flat_map(adaptive)
    .chain([
        CompileOptions::default(),
        CompileOptions {
            dispatch_library: false,
            ..CompileOptions::default()
        },
        CompileOptions::baseline(),
        // Table 2's unplanned decode.
        CompileOptions {
            memory_plan: false,
            graph_capture: false,
            ..CompileOptions::default()
        },
    ])
    .collect();
    let quantized = [
        LlamaConfig::llama2_7b(),
        LlamaConfig::phi3_mini(),
        LlamaConfig::redpajama_3b(),
        LlamaConfig::llama3_8b(),
    ]
    .map(LlamaConfig::quantized);
    let llava = LlavaConfig::llava_7b();
    let mut all = vec![
        // Fig. 17 and Table 2 (decode) on Llama3-8B; Figs. 14-16 on it too.
        Points {
            config: LlamaConfig::llama3_8b(),
            opts: fig17,
            batches: vec![1, 4, 8, 16, 32, 64],
            contexts: vec![512, 1024],
        },
        // Figs. 14-16.
        Points {
            config: LlamaConfig::gemma_7b(),
            opts: defaults(),
            batches: vec![1, 4, 8, 16],
            contexts: vec![1024],
        },
        Points {
            config: LlamaConfig::qwen2_7b(),
            opts: defaults(),
            batches: vec![1, 4, 8, 16],
            contexts: vec![1024],
        },
        // Fig. 20's decode: the middle of 32 steps after image + prompt.
        Points {
            config: llava.llm.clone(),
            opts: defaults(),
            batches: vec![1],
            contexts: vec![llava.patches + 32 + 16],
        },
    ];
    // Fig. 18 and Table 3.
    all.extend(quantized.into_iter().map(|config| Points {
        config,
        opts: defaults(),
        batches: vec![1],
        contexts: vec![512],
    }));
    let checked: usize = all.iter().map(check).sum();
    assert_eq!(checked, 8 * 6 * 2 + 2 * 2 * 4 + 2 + 4 * 2);
}
