#!/usr/bin/env bash
# The full offline CI gate: release build, workspace tests, and rustdoc,
# all with warnings denied. No network access is required — the workspace
# has zero external dependencies (see README "Offline-build policy").
set -euo pipefail
cd "$(dirname "$0")/.."

# Building the benchmark package rewrites benchmark/Cargo.lock. Keep a copy
# and put it back on exit, so a run leaves the tree as it found it.
mkdir -p target
cp benchmark/Cargo.lock target/ci-benchmark-Cargo.lock
trap 'cp target/ci-benchmark-Cargo.lock benchmark/Cargo.lock' EXIT

export RUSTFLAGS="-D warnings"
export RUSTDOCFLAGS="-D warnings"
# The golden-file tests rewrite their goldens under RELAX_BLESS=1 and then
# pass; a gate run must compare, never bless.
unset RELAX_BLESS

echo "==> checking #![forbid(unsafe_code)] in every crate root"
missing=0
for lib in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "MISSING forbid(unsafe_code): $lib"
        missing=1
    fi
done
[ "$missing" -eq 0 ]

echo "==> non-test source lines per crate (informational)"
# The count every line target in ROADMAP.md uses; nothing is checked.
scripts/src_lines.sh

echo "==> cargo fmt --all --check"
# The workspace only; benchmark/ is its own workspace with its own
# rustfmt.toml.
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> serving-core loop rules on a toy Work, under a time limit"
# Steps of these tests park at a gate the test opens; a hang fails the gate.
timeout 300 cargo test -p relax-serve --release -q --lib core::

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> relax-serve suite (release)"
# The whole serving crate at once: the admission deque, latency reservoir
# and toy-core unit tests, sessions over the paged KV cache (sessions,
# spec_decode, prompt_feed, and batched_decode: sessions sharing their
# decode steps bitwise equal to each served alone), shutdown under load
# with a balanced trace (shutdown), and seeded fault injection
# (session_chaos_* in sessions and spec_decode). The suites assert the
# accounting identity submitted == retired + evicted + failed + shed and a
# reconciled page pool with nothing leaked.
cargo test -p relax-serve --release -q

echo "==> relax-serve suite x3, one test thread on one core (wall-clock-dependence gate)"
# Serving tests must not depend on how fast or in which order threads
# run: time-sensitive ones move a manual clock instead of sleeping.
one_core=env
if command -v taskset >/dev/null 2>&1; then one_core="taskset -c 0"; fi
for _ in 1 2 3; do
    $one_core cargo test -p relax-serve --release -q -- --test-threads 1
    # What a shared decode step rests on below the serving crate: append
    # and attention through a stack of caches, bitwise each member alone.
    $one_core cargo test -p relax-vm --release -q --lib \
        stacked_append_and_attention_match_each_member_alone_bitwise -- --test-threads 1
done
# A born-expired session must be shed, never dispatched: the race this
# once lost about 1 run in 100 (the loop read the clock before taking
# the lock submit pushes under) cannot come back unseen.
for run in $(seq 50); do
    out=$($one_core cargo test -p relax-serve --release -q --test shutdown \
        shutdown_under_load_resolves_every_session 2>&1) ||
        { echo "$out"; echo "shutdown_under_load failed on run $run of 50"; exit 1; }
done

echo "==> dynamic-shape stress smoke: MoE routing + speculative decoding (release)"
# The two end-to-end dynamic workloads, differentially tested: the
# match_cast-mediated MoE dispatch against its pure-Rust oracle across
# ragged token counts, the worst-case dry-run costing of the ragged
# dispatch, and the goldens (speculative draft/verify sessions against
# plain decode run with the relax-serve suite above). The dry run every
# figure comes from is the VM's one instruction loop over a second,
# shape-level domain; sim_parity pins the two domains to each other: the
# same launches with the same shape signatures, and the same counters, on
# every model it costs; the same errors (one VmError type: the same kind,
# text and frame trace) on a table of one malformed launch per runtime
# function and per frame rule, and on every argument one row too long; and
# the same pool accounting. The shape domain's own cost and memory-tracker
# unit tests run here under the release build the figures use.
cargo test --release -q --test moe_diff
cargo test -p relax-sim --release -q --test moe_cost
cargo test -p relax-sim --release -q --lib
cargo test --release -q --test sim_parity
cargo test --release -q --test golden_roundtrip

echo "==> kernel-plan differentials, pipeline ablation + paged-attention sweep smoke (release)"
# Kernel plans against the reference interpreter (plan_differential:
# random shapes, the row families and the loops that must keep their
# element order), auto-scheduled (macro-op) plans against unscheduled plans
# and the interpreter (schedule_diff: random F32/F16 shapes around the
# 64-column block edge, and a stamped integer nest on the scalar tape),
# every float store path and read path against round_to_dtype's bits
# (storage_roundtrip: NDArray writes, scalar-tape, row and macro-op
# stores, on signed zeros, NaN payloads, subnormals and the f16 boundary),
# and every generated kernel of the served paged llama and moe_dispatch
# through plans vs the interpreter, with only the embedding gathers left
# on the scalar tape (kernel_plans_e2e), all bitwise; the scheduled
# matmul's fastest run against the host roofline floor (kernel_roofline);
# plus the pipeline ablation: 16 configs, each against the interpreter,
# and the 12 model builders under the 16 configs, each executable against
# its two committed digests (tests/golden/compile_digests.txt over the whole
# printed executable, tests/golden/compile_digests_name_free.txt over the VM
# functions with each kernel name replaced by the kernel's canonical print),
# every kernel an executable carries launched by some call_tir.
# Release matters: rows are vectorized there. The plan.rs unit tests run
# here too (the launch contract's refusals, macro-op and fused-row plans).
cargo test -p relax-tir --release -q --lib plan::
cargo test -p relax-tir --release -q --test plan_differential
cargo test -p relax-tir --release -q --test schedule_diff
cargo test -p relax-tir --release -q --test storage_roundtrip
cargo test --release -q --test kernel_plans_e2e
cargo test --release -q --test kernel_roofline
cargo test --release -q --test pipeline_ablation
# The one hand-written kernel on the serving path: the paged-attention
# builtin against the legalized Op::Attention, bitwise, over context
# length x page size x query rows x GQA x mask x dtype.
cargo test -p relax-vm --release -q --lib paged_attention_matches_legalized_tir_bitwise
# The shared plan cache under eight contending threads: its one lock only
# contends at release timing.
cargo test -p relax-vm --release -q --test plan_cache_stress

echo "==> cargo doc --workspace --no-deps"
cargo doc --workspace --no-deps -q

echo "==> trace smoke (RELAX_TRACE=1, Chrome export checked in-process)"
RELAX_TRACE=1 cargo run --release -q --example trace_smoke >/dev/null
test -s target/trace_smoke.json

echo "==> every root example (release), stdout discarded"
# The examples are the user-facing walkthroughs; a panic in any of them
# fails the gate. Each takes well under a second on 2 vCPUs.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    cargo run --release -q --example "$name" >/dev/null
done

echo "==> paper-figure binaries (release), each against its golden stdout"
# Every table and figure binary of EXPERIMENTS.md; each finishes in about
# a second on 2 vCPUs and prints the same bytes every run. A change that
# moves a figure number updates crates/relax-bench/golden/ with it.
for bin in crates/relax-bench/src/bin/*.rs; do
    name=$(basename "$bin" .rs)
    cargo run --release -q -p relax-bench --bin "$name" |
        diff -u "crates/relax-bench/golden/$name.txt" -
done

echo "==> benchmark package: contract tests + 2-second smoke of every workload"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --fast >/dev/null
# The binary exits 0 even when outputs mismatch the goldens; the rows say so.
python3 - target/benchmark/benchmark.json <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))
bad = [(r["workload"], r["trace"]) for r in rows if r["correct"] is not True or r["failed"] != 0]
if bad or not rows:
    sys.exit(f"benchmark smoke: rows missing, incorrect or with failed operations: {bad}")
PY

echo "CI gate passed."
