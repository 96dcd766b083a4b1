#!/usr/bin/env bash
# Non-test lines of code: every .rs file under crates/*/src,
# crates/*/benches, src/ and examples/, counted up to its first
# `#[cfg(test)]` line, plus every Cargo.toml outside perfbench/.
# Prints one "lines path" row per file, largest first, then the total.
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
{
    for dir in crates/*/src crates/*/benches src examples; do
        if [ -d "$dir" ]; then find "$dir" -name '*.rs'; fi
    done
    find . -name Cargo.toml -not -path './perfbench/*' -not -path './target/*' |
        sed 's|^\./||'
} | sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
done | sort -k1,1nr -k2 | awk '{ print; total += $1 } END { print total, "total" }'
