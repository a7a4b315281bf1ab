#!/usr/bin/env bash
# Non-test source lines: for a Rust file, the lines before its first
# `#[cfg(test)]` (the whole file when it has none). This is the count the
# line targets in ROADMAP.md and CHANGES.md use.
#
#   scripts/src_lines.sh                 each crate's src/, then the total
#   scripts/src_lines.sh <file.rs>...    each file, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of one file before its first `#[cfg(test)]`.
lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        n=$(lines "$file")
        printf '%6d  %s\n' "$n" "$file"
        total=$((total + n))
    done
else
    for crate in crates/*/; do
        sum=0
        while IFS= read -r file; do
            sum=$((sum + $(lines "$file")))
        done < <(find "$crate/src" -name '*.rs')
        printf '%6d  %s\n' "$sum" "$(basename "$crate")"
        total=$((total + sum))
    done
fi
printf '%6d  total\n' "$total"
