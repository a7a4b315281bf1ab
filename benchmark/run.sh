#!/usr/bin/env bash
# Every workload with --trace 0, then with --trace 1. Leaves one row per run,
# the merged rows (benchmark.json) and the Chrome traces under
# target/benchmark/. `--fast` is a 2-second smoke with the same names.
# SEED=<n> picks the seed (default 1, which has golden files).
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
[ "${1:-}" = "--fast" ] && seconds=2
seed="${SEED:-1}"
out=target/benchmark
mkdir -p "$out"
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/relax-benchmark"

rows=()
for trace in 0 1; do
    for w in chat_decode long_prompt moe_ragged; do
        row="$out/$w.trace$trace.json"
        echo "==> $w --trace $trace --seed $seed --seconds $seconds" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$row"
        rows+=("$row")
    done
done
python3 - "$out/benchmark.json" "${rows[@]}" <<'PY'
import json, sys
json.dump([json.load(open(p)) for p in sys.argv[2:]], open(sys.argv[1], "w"), indent=1)
print("wrote", sys.argv[1], file=sys.stderr)
PY
