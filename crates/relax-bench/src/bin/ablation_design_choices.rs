//! Ablations of the design choices DESIGN.md §5 calls out — each one maps
//! to a claim in the paper:
//!
//! 1. **Symbolic storage reuse** (§4.3): the memory planner reuses a
//!    storage only when it can *prove* byte-size equality. Erasing the
//!    symbolic relations (fresh variables per dimension, the "any"
//!    representation of Relay/ONNX) destroys that reuse.
//! 2. **Upper-bound planning** (§4.3): declaring workload bounds makes the
//!    plan fully static — fixed bytes across all shapes — which is what
//!    legalizes graph capture and memory-constrained deployment.
//! 3. **Shape-keyed capture** (§4.5): replays happen when dynamic shapes
//!    recur; changing shapes re-capture instead of replaying stale graphs.

use std::collections::HashMap;
use std::sync::Arc;

use relax_bench::{compile_decode, compile_decode_bounded};
use relax_models::llama::LlamaConfig;
use relax_passes::{plan_memory, CompileOptions};
use relax_sim::{simulate_with_memory, DeviceSpec, MemoryTracker};
use relax_vm::Instr;

fn main() {
    let cfg = LlamaConfig::tiny();
    let device = DeviceSpec::rtx4090();

    // ---------------------------------------------------------------
    // 1. Symbolic relations enable storage reuse.
    // ---------------------------------------------------------------
    println!("## 1. symbolic storage reuse (prove-equal) vs erased relations\n");
    {
        use relax_arith::{PrimExpr, Var as SymVar};
        use relax_vm::VmFunction;
        let n = SymVar::new("n");
        // a = alloc (2, n); kill; b = alloc (n, 2): reusable only because
        // 8n == 8n is provable.
        let chain = |second_dim: Vec<PrimExpr>| -> usize {
            let f = VmFunction {
                name: "f".into(),
                num_params: 0,
                num_regs: 2,
                instrs: vec![
                    Instr::AllocTensor {
                        dst: 0,
                        shape: vec![2.into(), n.clone().into()],
                        dtype: relax_core::DataType::F32,
                    },
                    Instr::Kill { reg: 0 },
                    Instr::AllocTensor {
                        dst: 1,
                        shape: second_dim,
                        dtype: relax_core::DataType::F32,
                    },
                    Instr::Ret { src: 1 },
                ],
            };
            plan_memory(&f, &HashMap::new())
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::AllocStorage { .. }))
                .count()
        };
        let with_relations = chain(vec![n.clone().into(), 2.into()]);
        // The erased world: a fresh variable that carries no relation to n.
        let erased = chain(vec![SymVar::new("any0").into(), 2.into()]);
        println!("- storages with symbolic relations ((2,n) then (n,2)): {with_relations}");
        println!("- storages with erased relations  ((2,n) then (any,2)): {erased}");
        assert_eq!(with_relations, 1);
        assert_eq!(erased, 2);
        println!("  -> tracking `2*n == n*2` halves the storages, as in Figure 10\n");
    }

    // ---------------------------------------------------------------
    // 2. Upper-bound planning produces a shape-independent static plan.
    // ---------------------------------------------------------------
    println!("## 2. upper-bound planning: plan size across growing shapes\n");
    {
        let model_b = compile_decode_bounded(&cfg, 8, 64).expect("compile");
        let model_u = compile_decode(&cfg, &CompileOptions::default()).expect("compile");
        println!("| after prompts     | bounded plan (B) | unbounded plan (B) |");
        println!("| ----------------- | ---------------- | ------------------ |");
        let mut mem_b = MemoryTracker::new();
        let mut mem_u = MemoryTracker::new();
        let mut bounded_sizes = Vec::new();
        // Prompts of `n` tokens for each of `batch` sequences.
        for (batch, n) in [(1i64, 4i64), (2, 16), (8, 64)] {
            for (model, mem) in [(&model_b, &mut mem_b), (&model_u, &mut mem_u)] {
                let args = model.step_args(batch, n, 0);
                simulate_with_memory(&model.exec, &model.ir.func, &args, &device, true, mem)
                    .expect("simulate");
            }
            println!(
                "| b={batch:<2} n={n:<4}       | {:16} | {:18} |",
                mem_b.planned_bytes(),
                mem_u.planned_bytes()
            );
            bounded_sizes.push(mem_b.planned_bytes());
        }
        assert!(
            bounded_sizes.windows(2).all(|w| w[0] == w[1]),
            "a bounded plan must not grow with the workload"
        );
        println!("  -> the bounded plan is constant: memory use is predictable");
        println!("     before the first token runs (deployability, §5.3)\n");
    }

    // ---------------------------------------------------------------
    // 3. Shape-keyed capture: replay on recurrence, re-capture on change.
    // ---------------------------------------------------------------
    println!("## 3. shape-keyed graph capture\n");
    {
        let model = compile_decode(&cfg, &CompileOptions::default()).expect("compile");
        use relax_tir::NDArray;
        use relax_vm::{KvCache, KvCacheConfig, KvPagePool, Value, Vm, KV_PAGE_TOKENS};
        let kv = KvCacheConfig {
            streams: 2 * cfg.n_layers,
            batch: 1,
            heads: cfg.n_kv_heads as usize,
            head_dim: cfg.head_dim as usize,
            dtype: cfg.dtype,
        };
        let cache = KvCache::new(kv, Arc::new(KvPagePool::unbounded(KV_PAGE_TOKENS)));
        let mut vm = Vm::new(model.exec.clone());
        // `n` more tokens (id 0) of one sequence, zero weights; the cache
        // grows in place.
        let mut run = |n: usize| {
            let args: Vec<Value> = model
                .step_args(1, n as i64, 0)
                .iter()
                .map(|arg| match arg {
                    relax_sim::SimValue::Tensor { dims, dtype } => {
                        let dims: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
                        Value::Tensor(NDArray::zeros(&dims, *dtype))
                    }
                    _ => Value::KvCache(cache.clone()),
                })
                .collect();
            vm.run(&model.ir.func, &args).unwrap();
        };
        run(4); // capture
        run(4); // replay (same shapes)
        run(8); // re-capture (n changed)
        run(8); // replay
        let tel = vm.telemetry();
        println!(
            "- captures: {} (one per distinct shape signature)",
            tel.captures
        );
        println!("- replays:  {} (recurring shapes replay)", tel.replays);
        assert!(tel.captures >= 2 && tel.replays >= 2);
    }
    println!("\nall design-choice ablations hold");
}
