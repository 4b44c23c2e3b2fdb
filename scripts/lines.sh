#!/usr/bin/env bash
# Counts non-test Rust lines: every line of each `*.rs` file outside
# `tests/`, `examples/`, `perfbench/`, `target/` and the crates' `tests/`
# directories, minus top-level `#[cfg(test)] mod` blocks (a `#[cfg(test)]`
# line at column 0 followed by `mod name {`, through the `}` at column 0
# that closes it; a `mod name;` declaration counts). Prints the total,
# then one line per crate directory.
#
# Usage: scripts/lines.sh [TREE]   (TREE defaults to the repository root)
set -euo pipefail
tree="${1:-$(dirname "$0")/..}"
cd "$tree"
find . -name '*.rs' \
    -not -path './tests/*' -not -path './examples/*' \
    -not -path './perfbench/*' -not -path './target/*' \
    -not -path './crates/*/tests/*' -not -path './.bench_build/*' |
    sort |
    xargs awk '
        FNR == 1 { skip = 0; pending = 0 }
        skip { if ($0 ~ /^}/) skip = 0; next }
        pending {
            pending = 0
            if ($0 ~ /^(pub(\(crate\))? )?mod [A-Za-z_0-9]+ *\{/) { skip = 1; next }
            count(FILENAME)  # the attribute line of an item that is no mod block
        }
        /^#\[cfg\(test\)\]$/ { pending = 1; next }
        { count(FILENAME) }
        function count(file,   dir) {
            dir = file
            sub(/^\.\//, "", dir)
            if (dir ~ /^crates\//) { split(dir, p, "/"); dir = p[1] "/" p[2] } else { sub(/\/.*/, "", dir) }
            total++; per[dir]++
        }
        END {
            printf "non-test Rust lines: %d\n", total
            for (d in per) printf "  %-20s %d\n", d, per[d] | "sort"
        }'
