#!/bin/sh
# Counts the non-test lines of every crate: each `.rs` file under
# `crates/<name>/src`, cut at its first `#[cfg(test)]` line. Prints one
# `<lines> <crate>` row per crate, then `<lines> total`.
#
# Usage: ci/loc.sh [repo root] (default: the current directory)
set -eu
root=${1:-.}
total=0
for src in "$root"/crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    lines=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { cut = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        !cut { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%6d %s\n' "$lines" "$crate"
    total=$((total + lines))
done
printf '%6d total\n' "$total"
