//! The solo probe: the head of the workload's list re-run on one thread
//! with one `Vm` per executable and one `KvPagePool`, issuing the
//! `Vm::run` calls a serving worker issues — no manager, no batching, no
//! second thread — and reading the counters the VM layer publishes:
//! `Vm::telemetry()`, `Vm::kernel_stats()`, `plan_cache().stats()` and the
//! pool statistics. Every count it reports is a function of the list
//! alone, so it runs twice and any count that differs fails the run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_vm::registry::Registry;
use relax_vm::{KvCache, KvPagePool, SharedPlanCache, Value, Vm};

use crate::config::{self, Built, PLAN_CACHE_CAPACITY};
use crate::metrics::Values;
use crate::reference::{argmax, hash_tokens, hash_values, Output};
use crate::run::MoeRun;
use crate::workload::{Entry, Workload};

/// What the VMs of one solo pass published, and what the pass produced.
pub struct Solo {
    pub values: Values,
    pub outputs: Vec<Output>,
    /// The kernel that took the most run time.
    pub top_kernel: String,
}

fn token_tensor(tokens: &[i64]) -> Value {
    Value::Tensor(
        NDArray::from_i64(&[1, tokens.len()], DataType::I64, tokens.to_vec()).expect("token tensor"),
    )
}

fn timed_run(vm: &mut Vm, func: &str, args: &[Value], wall: &mut Duration) -> Value {
    let t = Instant::now();
    let out = vm.run(func, args).expect("solo step");
    *wall += t.elapsed();
    out
}

/// Runs `head` the way a worker would and sums what the VMs report.
pub fn run(w: Workload, models: &[Built], head: &[Entry]) -> Solo {
    let mut wall = Duration::ZERO;
    let mut steps = 0u64;
    let mut outputs = Vec::with_capacity(head.len());
    let pool = Arc::new(KvPagePool::with_capacity(
        config::session_config().page_tokens,
        config::session_config().pool_pages,
    ));
    let vms: Vec<Vm> = match w {
        Workload::MoeRagged => {
            let mut moe = MoeRun::new();
            for (index, entry) in head.iter().enumerate() {
                let args = moe.args(entry);
                let out = timed_run(&mut moe.vm, &models[0].func, &args, &mut wall);
                steps += 1;
                let hash = hash_values(&out.as_tensor().expect("moe output").to_f64_vec());
                outputs.push(Output { index, hash, ..Output::default() });
            }
            vec![moe.vm]
        }
        _ => {
            let spec = config::llama_spec(models);
            let registry = Arc::new(Registry::new());
            let vm_of = |exec| {
                let mut vm =
                    Vm::from_parts(exec, registry.clone(), SharedPlanCache::new(PLAN_CACHE_CAPACITY));
                vm.set_kv_pool(pool.clone());
                vm
            };
            let mut decode = vm_of(spec.decode.clone());
            let mut prefill = vm_of(spec.prefill.clone().expect("prefill executable"));
            for (index, entry) in head.iter().enumerate() {
                let cache = KvCache::new(spec.cache, pool.clone());
                let prefix = &entry.prompt[..entry.prompt.len() - 1];
                if !prefix.is_empty() {
                    let mut args = vec![token_tensor(prefix)];
                    args.extend(spec.weights.iter().cloned());
                    let kv = timed_run(&mut prefill, &spec.prefill_func, &args, &mut wall);
                    steps += 1;
                    for (stream, t) in kv.as_tuple().expect("prefill returns a tuple").iter().enumerate() {
                        cache.append(stream, t.as_tensor().expect("kv tensor")).expect("seed the cache");
                    }
                }
                let mut token = *entry.prompt.last().expect("non-empty prompt");
                let mut tokens = Vec::with_capacity(entry.new_tokens);
                while tokens.len() < entry.new_tokens {
                    let mut args = vec![token_tensor(&[token]), Value::KvCache(cache.clone())];
                    args.extend(spec.weights.iter().cloned());
                    let out = timed_run(&mut decode, &spec.decode_func, &args, &mut wall);
                    steps += 1;
                    token = argmax(
                        out.as_tuple().expect("decode returns a tuple")[0].as_tensor().expect("logits"),
                    );
                    tokens.push(token);
                }
                outputs.push(Output { index, hash: hash_tokens(&tokens), tokens, ..Output::default() });
            }
            vec![decode, prefill]
        }
    };

    // Sum what the VMs publish.
    let mut v = Values::default();
    let tokens: usize = head.iter().map(|e| e.counted_tokens(w)).sum();
    let (mut tir, mut lib, mut builtin, mut checks, mut fresh, mut fallback, mut planned, mut plan_fallbacks) =
        (0u64, 0u64, 0u64, 0u64, 0usize, 0u64, 0usize, 0u64);
    let (mut probes, mut hits, mut misses, mut evictions, mut compiles) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut tir_run, mut lib_run, mut compile_time) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut by_kernel: HashMap<String, Duration> = HashMap::new();
    for vm in &vms {
        let t = vm.telemetry();
        tir += t.tir_calls;
        lib += t.lib_calls;
        builtin += t.builtin_calls;
        checks += t.shape_checks;
        fresh += t.pool.fresh_allocations;
        fallback += t.fallback_allocs;
        planned += t.planned_bytes;
        plan_fallbacks += t.plan_fallbacks;
        let c = vm.plan_cache().stats();
        probes += c.probes;
        hits += c.hits;
        misses += c.misses;
        evictions += c.evictions;
        for (name, k) in vm.kernel_stats() {
            compiles += k.plan_compiles;
            compile_time += k.compile_time;
            if vm.executable().tir_funcs.contains_key(name) {
                tir_run += k.run_time;
            } else {
                lib_run += k.run_time;
            }
            *by_kernel.entry(name.clone()).or_default() += k.run_time;
        }
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let per_step = |x: f64| x / steps as f64;
    let dispatch = wall.saturating_sub(tir_run + lib_run + compile_time);
    let share = |d: Duration| d.as_secs_f64() / wall.as_secs_f64();
    v.set("passes.planned_bytes", planned as f64);
    v.set("vm.run_us_per_step", per_step(us(wall)));
    v.set("vm.dispatch_self_us_per_step", per_step(us(dispatch)));
    v.set("vm.dispatch_self_share", share(dispatch));
    v.set("vm.tir_calls_per_step", per_step(tir as f64));
    v.set("vm.lib_calls_per_step", per_step(lib as f64));
    v.set("vm.builtin_calls_per_step", per_step(builtin as f64));
    v.set("vm.shape_checks_per_step", per_step(checks as f64));
    v.set("vm.lib_run_share", share(lib_run));
    v.set("vm.alloc.fresh_per_step", per_step(fresh as f64));
    v.set("vm.alloc.fallback_allocs", fallback as f64);
    v.set("vm.plan_cache.probes", probes as f64);
    v.set("vm.plan_cache.hits", hits as f64);
    v.set("vm.plan_cache.misses", misses as f64);
    v.set("vm.plan_cache.evictions", evictions as f64);
    v.set("vm.plan_cache.hit_rate", hits as f64 / probes.max(1) as f64);
    v.set("vm.plan_cache.compiles_per_1k_tokens", compiles as f64 * 1e3 / tokens as f64);
    v.set("tir.plan_compile_ms_total", compile_time.as_secs_f64() * 1e3);
    v.set("tir.plan_compile_us_per_miss", us(compile_time) / compiles.max(1) as f64);
    v.set("tir.kernel_run_share", share(tir_run));
    v.set("tir.kernel_run_us_per_step", per_step(us(tir_run)));
    let (top_kernel, top) =
        by_kernel.into_iter().max_by_key(|(name, d)| (*d, name.clone())).unwrap_or_default();
    v.set(
        "tir.top_kernel_share",
        top.as_secs_f64() / (tir_run + lib_run).as_secs_f64().max(f64::MIN_POSITIVE),
    );
    v.set("tir.plan_fallbacks", plan_fallbacks as f64);
    drop(vms);
    let p = pool.stats();
    v.set("vm.kv.pool_acquires", p.acquires as f64);
    v.set("vm.kv.pool_reuse_share", p.reuses as f64 / p.acquires.max(1) as f64);
    v.set("vm.kv.pool_peak_pages", p.peak_in_use as f64);
    v.set("vm.kv.pool_exhaustions", p.exhaustions as f64);
    Solo { values: v, outputs, top_kernel }
}
