#!/usr/bin/env bash
# Runs the runtime micro-benchmarks and writes BENCH_runtime.json — at the
# repository root for a full run, under target/ with --fast, so the CI
# smoke never rewrites the committed numbers. It holds median ns/iter per
# benchmark plus interpreter-vs-plan and 1-vs-N-thread speedups, and
# carries a "compile_passes" section (per-pass wall time and changed flags for one full default
# compile of the tiny decode module, from `compile_with_report`) and a
# "serving" section: decode throughput through the relax-serve worker
# pool — 1 vs 4 vs 8 workers over the shared plan cache, with
# per-request p50/p95/p99 latency and cross-worker compile counts.
# Interpret the worker-scaling rows against each row's "host_threads":
# a 1-core host cannot show a multi-worker win (parity is the honest
# ceiling there). A "lock_wait" section reports every instrumented lock
# site that blocked during the run (relax-trace LockSite counters) —
# empty means the lock-free hot paths held. "baseline_pre_refactor"
# preserves the numbers from before the concurrency refactor for
# before/after comparison.
#
# A "serving_continuous" section runs one mixed-traffic session schedule
# (varied prompt lengths and token budgets) through the continuous-
# batching SessionManager on the paged KV cache and through the
# shape-batched copy-append lockstep baseline, reporting tokens/s, p99
# session latency and page-pool utilization for each; "kv_append" rows
# give the scalar-reference vs row-copy kernel pair at several context
# lengths (the before/after for the inner-loop rewrite).
#
# A "kernel_schedule" section carries the schedule-layer ablation:
# matmul (96x64x64) and the tiny decode step each measured as a scheduled
# macro-op plan, an unscheduled scalar plan, and the vendor-library
# stand-in, with per-row "host_threads"; the headline ratio is
# "matmul_scheduled_vs_unscheduled" under "speedup". The scheduled row is
# checked bitwise against the unscheduled plan and sanity-checked against
# the host roofline model (relax-sim) before it is written.
#
# A "dynamic_workloads" section stresses data-dependent shapes end to
# end: MoE ragged dispatch (route/gather/expert-FFN/scatter) vs a dense
# FFN on the same tokens, and speculative decoding (1-layer draft,
# deep verify model, one variable-length paged verify feed per step)
# vs plain autoregressive decode on the same session schedule. Each row
# carries tokens/s, the draft-acceptance rate, and the shared plan
# cache's hit/miss counters under the ragged shape population; the
# bench asserts the committed token streams are bitwise equal and that
# "spec_decode_vs_plain" under "speedup" clears 1x at acceptance >= 0.7.
# "moe_ragged_vs_dense_ffn" prices the dynamic routing machinery
# against the static baseline.
#
# The "availability_under_chaos" section reruns the decode workload
# through the seeded chaos harness at 0%, 1% and 5% fault rates (worker
# panics, stalls, dropped replies, kernel faults) with retry and
# supervision on, recording completed/submitted availability, retry and
# restart counts, and p99 latency under faults.
#
# Also writes target/BENCH_trace.json (never committed: it is megabytes):
# a Chrome trace-event export of one traced 4-worker serving wave (open
# in chrome://tracing or Perfetto), validated by the in-repo checker
# before it is written.
#
# Usage: scripts/bench.sh [--fast]
#   --fast   smoke sizing (RELAX_BENCH_FAST=1): a few small batches, for CI.
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_runtime.json
if [ "${1:-}" = "--fast" ]; then
    export RELAX_BENCH_FAST=1
    out=target/BENCH_runtime.json
fi

cargo bench -p relax-bench --bench runtime
echo "==> $out"
cat "$out"
echo "==> target/BENCH_trace.json"
test -s target/BENCH_trace.json
