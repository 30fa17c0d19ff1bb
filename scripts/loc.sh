#!/usr/bin/env bash
# Non-test Rust: the lines of a file before its first `#[cfg(test)]`. With no
# argument, every crates/*/src/**/*.rs summed per crate — the line counts
# ROADMAP.md quotes; with file paths, those files one by one.
# Run from anywhere: ./scripts/loc.sh [file.rs ...]
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    by=file
    files=("$@")
else
    by=crate
    mapfile -d '' files < <(find crates/*/src -name '*.rs' -print0)
fi

awk -v by="$by" '
    FNR == 1 {
        counting = 1
        key = FILENAME
        if (by == "crate") { split(FILENAME, path, "/"); key = "crates/" path[2] "/src" }
    }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[key]++; total++ }
    END {
        for (k in lines) printf "%6d %s\n", lines[k], k
        printf "%6d total\n", total
    }' "${files[@]}" | sort -k2
