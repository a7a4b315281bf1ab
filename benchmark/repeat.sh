#!/usr/bin/env bash
# The driver's acceptance check, run locally. For each workload: two sets of
# RUNS (default 10) `--trace 0` runs, a different seed each, the two sets
# interleaved. Prints per metric each set's median, quartiles and spread
# (quartile distance / median, quartiles as statistics.quantiles(n=4) gives
# them) and the distance between the two medians, and exits non-zero if a
# spread (setup_s excepted) or a median distance exceeds the metric's bound.
# Then two `--trace 1` processes on one seed must agree on every exact count.
#   RUNS=3 RUN_SECONDS=4 benchmark/repeat.sh chat_decode   # a quick look
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${RUNS:-10}"
seconds="${RUN_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
workloads=("$@")
[ ${#workloads[@]} -eq 0 ] && workloads=(chat_decode long_prompt moe_ragged)
out=target/benchmark/repeat
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/relax-benchmark"

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        for set in a b; do
            # Seeds without golden files, as the driver's are: checked directly.
            seed=$((2 + i))
            [ "$set" = b ] && seed=$((102 + i))
            echo "==> $w set $set run $i (seed $seed, ${seconds}s)" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out/$w.$set.$i.json" >/dev/null
        done
    done
    for p in 1 2; do
        echo "==> $w --trace 1, process $p" >&2
        "$bin" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 --out "$out/$w.traced.$p.json" >/dev/null
    done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = []
print(f"| workload | metric | set | median | q1 | q3 | spread | median distance | bound |")
print(f"|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    rows = {s: [json.load(open(f"{out}/{w}.{s}.{i}.json")) for i in range(1, runs + 1)] for s in "ab"}
    for s in "ab":
        for r in rows[s]:
            if not r["correct"]:
                bad.append(f"{w} seed {r['seed']}: {r['failed']} of {r['attempted']} failed")
    for name, m in spec.items():
        med = {}
        for s in "ab":
            vals = [r["metrics"][name]["value"] for r in rows[s]]
            med[s] = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med[s]
            if name != "setup_s" and spread > m["bound"]:
                bad.append(f"{w} {name} set {s}: spread {spread:.3f} > {m['bound']}")
            # "Worse" for set b against set a, as the driver takes the second median against the first.
            worse = (med["b"] - med["a"]) / med["a"] * (1 if m["better"] == "lower" else -1) if s == "b" else None
            dist = "" if worse is None else f"{worse:+.3f}"
            if worse is not None and worse > m["bound"]:
                bad.append(f"{w} {name}: second median worse by {worse:.3f} > {m['bound']}")
            print(f"| {w} | {name} | {s} | {med[s]:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {dist} | {m['bound']} |")
    t1, t2 = (json.load(open(f"{out}/{w}.traced.{p}.json")) for p in (1, 2))
    for t in (t1, t2):
        if not t["correct"]:
            bad.append(f"{w} --trace 1: {t['failed']} failed")
    for name in t1["notes"]["exact_counts"]:
        a, b = t1["metrics"][name]["value"], t2["metrics"][name]["value"]
        if a != b:
            bad.append(f"{w} {name}: {a} in one process, {b} in another")
    noisy = sum(r["noisy"] for s in "ab" for r in rows[s])
    print(f"\n{w}: {noisy} of {2 * runs} runs marked noisy by the canary; "
          f"{len(t1['notes']['exact_counts'])} exact counts agree across two --trace 1 processes\n")
for line in bad:
    print("FAIL:", line)
sys.exit(1 if bad else 0)
PY
