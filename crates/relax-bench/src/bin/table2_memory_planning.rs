//! Table 2: activation memory of Llama3-8B inference with and without
//! static memory planning, measured over successive prefills of lengths
//! {128, 256, 512, 1024} and successive decodes at batch {1, 16, 32, 64}.
//!
//! This experiment is a *measurement* of the compiler's actual memory
//! behaviour, not a performance model: the planned path sums the static
//! storages produced by Algorithm 3 (sized with the declared upper bounds),
//! while the unplanned path replays the allocation/free event stream of
//! the lowered program against the runtime recycling pool.

use relax_bench::{compile_decode, compile_decode_bounded, CompiledModel};
use relax_models::llama::LlamaConfig;
use relax_passes::CompileOptions;
use relax_sim::{simulate_with_memory, DeviceSpec, MemoryTracker};

const MIB: f64 = 1024.0 * 1024.0;

/// Activation MiB of `model` over successive steps, each `(batch, seq,
/// context)`.
fn measure(model: &CompiledModel, device: &DeviceSpec, steps: &[(i64, i64, i64)]) -> f64 {
    let mut mem = MemoryTracker::new();
    for &(batch, seq, context) in steps {
        let args = model.step_args(batch, seq, context);
        simulate_with_memory(&model.exec, &model.ir.func, &args, device, true, &mut mem)
            .expect("simulate");
    }
    mem.total_bytes() as f64 / MIB
}

fn main() {
    let cfg = LlamaConfig::llama3_8b();
    let device = DeviceSpec::rtx4090();
    println!("# Table 2: activation memory (MiB) with vs without static memory planning");
    println!(
        "# model: {}, measured from the compiler's own allocation stream\n",
        cfg.name
    );
    // One served step for both workloads: a prompt is a step of `n` tokens
    // on an empty cache, a decode a step of one token per sequence.
    let unplanned_model = compile_decode(
        &cfg,
        &CompileOptions {
            memory_plan: false,
            graph_capture: false,
            ..CompileOptions::default()
        },
    )
    .expect("compile");

    // ---- Prefill workload: successive lengths, batch 1. ----
    let prefills = [128, 256, 512, 1024].map(|n| (1, n, 0));
    let planned = measure(
        &compile_decode_bounded(&cfg, 1, 1024).expect("compile"),
        &device,
        &prefills,
    );
    let unplanned = measure(&unplanned_model, &device, &prefills);
    println!("| Llama3-8B Prefill        |    MiB |");
    println!("| ------------------------ | ------ |");
    println!("| Relax w/o planning       | {unplanned:6.1} |");
    println!("| Relax w/  planning       | {planned:6.1} |");
    println!(
        "| reduction                | {:5.1}% |",
        (1.0 - planned / unplanned) * 100.0
    );
    println!("# paper: 192.7 MiB -> 149.7 MiB (22% reduction)\n");

    // ---- Decode workload: successive batches at a fixed context. ----
    let decodes = [1, 16, 32, 64].map(|b| (b, 1, 512));
    let planned_dec = measure(
        &compile_decode_bounded(&cfg, 64, 1).expect("compile"),
        &device,
        &decodes,
    );
    let unplanned_dec = measure(&unplanned_model, &device, &decodes);
    println!("| Llama3-8B Decode         |    MiB |");
    println!("| ------------------------ | ------ |");
    println!("| Relax w/o planning       | {unplanned_dec:6.1} |");
    println!("| Relax w/  planning       | {planned_dec:6.1} |");
    println!(
        "| reduction                | {:5.1}% |",
        (1.0 - planned_dec / unplanned_dec) * 100.0
    );
    println!("# paper: 150.0 MiB -> 88.2 MiB (40% reduction)");
}
