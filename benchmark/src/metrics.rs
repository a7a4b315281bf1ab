//! The metric names, units and directions — the one table `BENCHMARK.json`
//! must agree with (a test compares them) — and the result line.

use std::fmt::Write as _;

/// `(name, unit, better)`.
pub type Spec = (&'static str, &'static str, &'static str);

/// Printed with `--trace 0`. Every workload prints every one; none is ever 0.
pub const END_TO_END: [Spec; 7] = [
    ("setup_s", "s", "lower"),
    ("compile_ms", "ms", "lower"),
    ("tokens_per_s", "1/s", "higher"),
    ("ttft_p50_ms", "ms", "lower"),
    ("itl_p50_ms", "ms", "lower"),
    ("cpu_ms_per_token", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Printed with `--trace 1`. Every workload prints every one, 0 where a
/// layer is not executed. Prefixes are crate names; `host.*` and `bench.*`
/// describe the measurement, not the program.
pub const PER_LAYER: [Spec; 98] = [
    // Compile side, over the workload's own modules.
    ("models.build_ms", "ms", "lower"),
    ("core.print_parse_ms", "ms", "lower"),
    ("core.wellformed_ms", "ms", "lower"),
    ("arith.simplify_ns", "ns", "lower"),
    ("passes.total_ms", "ms", "lower"),
    ("passes.legalize_us", "us", "lower"),
    ("passes.annotate_patterns_us", "us", "lower"),
    ("passes.fuse_ops_us", "us", "lower"),
    ("passes.fuse_tensor_ir_us", "us", "lower"),
    ("passes.dispatch_library_us", "us", "lower"),
    ("passes.cleanup_us", "us", "lower"),
    ("passes.lower_to_vm_us", "us", "lower"),
    ("passes.schedule_kernels_us", "us", "lower"),
    ("passes.memory_plan_us", "us", "lower"),
    ("passes.graph_capture_us", "us", "lower"),
    ("passes.exec_instrs", "count", "lower"),
    ("passes.exec_kernels", "count", "lower"),
    ("passes.planned_bytes", "bytes", "lower"),
    // VM dispatch, from the solo probe.
    ("vm.run_us_per_step", "us", "lower"),
    ("vm.dispatch_self_us_per_step", "us", "lower"),
    ("vm.dispatch_self_share", "share", "lower"),
    ("vm.tir_calls_per_step", "count", "lower"),
    ("vm.lib_calls_per_step", "count", "lower"),
    ("vm.builtin_calls_per_step", "count", "lower"),
    ("vm.shape_checks_per_step", "count", "lower"),
    ("vm.lib_run_share", "share", "lower"),
    ("vm.alloc.fresh_per_step", "count", "lower"),
    ("vm.alloc.fallback_allocs", "count", "lower"),
    // Plan cache and plan compiler.
    ("vm.plan_cache.probes", "count", "lower"),
    ("vm.plan_cache.hits", "count", "higher"),
    ("vm.plan_cache.misses", "count", "lower"),
    ("vm.plan_cache.evictions", "count", "lower"),
    ("vm.plan_cache.hit_rate", "share", "higher"),
    ("vm.plan_cache.compiles_per_1k_tokens", "count", "lower"),
    ("vm.plan_cache.lookup_hit_ns", "ns", "lower"),
    ("vm.plan_cache.lookup_miss_ns", "ns", "lower"),
    ("tir.plan_compile_ms_total", "ms", "lower"),
    ("tir.plan_compile_us_per_miss", "us", "lower"),
    // Kernels.
    ("tir.kernel_run_share", "share", "lower"),
    ("tir.kernel_run_us_per_step", "us", "lower"),
    ("tir.top_kernel_share", "share", "lower"),
    ("tir.plan_fallbacks", "count", "lower"),
    ("tir.matmul_sched_us", "us", "lower"),
    ("tir.matmul_scalar_us", "us", "lower"),
    ("tir.matmul_sched_roofline_frac", "share", "higher"),
    ("tir.attention_s64_us", "us", "lower"),
    ("tir.ndarray_rw_ns_per_elem", "ns", "lower"),
    // Paged KV cache.
    ("vm.kv.append_ns_per_token", "ns", "lower"),
    ("vm.kv.attention_us_ctx64", "us", "lower"),
    ("vm.kv.attention_us_ctx256", "us", "lower"),
    ("vm.kv.view_us_ctx256", "us", "lower"),
    ("vm.kv.truncate_us", "us", "lower"),
    ("vm.kv.pool_acquires", "count", "lower"),
    ("vm.kv.pool_reuse_share", "share", "higher"),
    ("vm.kv.pool_peak_pages", "count", "lower"),
    ("vm.kv.pool_exhaustions", "count", "lower"),
    // Serving, from the traced replay.
    ("serve.iterations", "count", "lower"),
    ("serve.prefills", "count", "lower"),
    ("serve.decodes", "count", "lower"),
    ("serve.tokens", "count", "higher"),
    ("serve.iter_batch_mean", "count", "higher"),
    ("serve.evicted", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.admit_wait_us_p50", "us", "lower"),
    ("serve.prefill_step_ms_p50", "ms", "lower"),
    ("serve.decode_step_ms_p50", "ms", "lower"),
    ("serve.sched_self_share", "share", "lower"),
    ("serve.step_self_share", "share", "lower"),
    ("serve.kernel_share", "share", "lower"),
    ("serve.lib_share", "share", "lower"),
    ("serve.plan_share", "share", "lower"),
    ("serve.worker_idle_share", "share", "lower"),
    ("serve.ttft_ms_p90", "ms", "lower"),
    ("serve.iter_ms_p90", "ms", "lower"),
    ("serve.session_ms_p50", "ms", "lower"),
    ("serve.session_ms_p90", "ms", "lower"),
    // The fixed speculative-decoding probe.
    ("serve.spec.tokens_per_s", "1/s", "higher"),
    ("serve.spec.acceptance", "share", "higher"),
    ("serve.spec.tokens_per_step", "count", "higher"),
    ("serve.spec.rollbacks", "count", "lower"),
    ("serve.spec.verify_hit_rate", "share", "higher"),
    ("serve.spec.draft_hit_rate", "share", "higher"),
    // Dry-run simulator: computed, not measured.
    ("sim.flops_per_token", "count", "lower"),
    ("sim.bytes_per_token", "bytes", "lower"),
    ("sim.kernels_per_token", "count", "lower"),
    ("sim.launches_per_token", "count", "lower"),
    // The measurement itself.
    ("trace.overhead_share", "share", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.lock_wait_us", "us", "lower"),
    ("trace.unaccounted_share", "share", "lower"),
    ("host.canary_ms_before", "ms", "lower"),
    ("host.canary_ms_after", "ms", "lower"),
    ("host.threads", "count", "higher"),
    ("bench.poll_resolution_us", "us", "lower"),
    ("bench.workload_hash", "count", "higher"),
    ("bench.mismatches", "count", "lower"),
];

/// Counts that must repeat exactly for one seed and one `--seconds`: the
/// solo probe runs twice in a process and `repeat.sh` compares two
/// processes.
pub const EXACT: [&str; 31] = [
    "passes.exec_instrs",
    "passes.exec_kernels",
    "passes.planned_bytes",
    "vm.tir_calls_per_step",
    "vm.lib_calls_per_step",
    "vm.builtin_calls_per_step",
    "vm.shape_checks_per_step",
    "vm.alloc.fresh_per_step",
    "vm.alloc.fallback_allocs",
    "vm.plan_cache.probes",
    "vm.plan_cache.hits",
    "vm.plan_cache.misses",
    "vm.plan_cache.evictions",
    "vm.plan_cache.hit_rate",
    "vm.plan_cache.compiles_per_1k_tokens",
    "tir.plan_fallbacks",
    "vm.kv.pool_acquires",
    "vm.kv.pool_reuse_share",
    "vm.kv.pool_peak_pages",
    "vm.kv.pool_exhaustions",
    "serve.spec.acceptance",
    "serve.spec.tokens_per_step",
    "serve.spec.rollbacks",
    "serve.spec.verify_hit_rate",
    "serve.spec.draft_hit_rate",
    "sim.flops_per_token",
    "sim.bytes_per_token",
    "sim.kernels_per_token",
    "sim.launches_per_token",
    "bench.workload_hash",
    "bench.mismatches",
];

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: exactly the names of
    /// `specs`, in their order. A missing name is a bug in this benchmark.
    pub fn metrics_json(&self, specs: &[Spec]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, _)) in specs.iter().enumerate() {
            let v = self.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                .expect("write to string");
        }
        out.push('}');
        out
    }
}

/// The last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &Values,
    specs: &[Spec],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        values.metrics_json(specs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|s| s.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} is listed twice");
            assert!(name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|s| s.0 == name), "{name} is not a per-layer metric");
        }
    }

    #[test]
    fn result_line_holds_exactly_the_listed_metrics() {
        let mut v = Values::default();
        for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
            v.set(name, i as f64 + 0.5);
        }
        v.set("not.listed", 1.0);
        let line = result_line(true, 3, 0, &v, &END_TO_END);
        let json = relax_trace::parse_json(&line).expect("result line parses");
        assert_eq!(json.get("attempted").and_then(|j| j.as_f64()), Some(3.0));
        let metrics = json.get("metrics").expect("metrics");
        for (name, unit, _) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        }
        assert!(metrics.get("not.listed").is_none());
    }
}
