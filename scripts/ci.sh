#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite under both
# execution backends, and a kernel-benchmark smoke run.
# Usage: scripts/ci.sh
#
# The workspace has no third-party dependencies, so every cargo call runs
# with --offline --locked: nothing is fetched and Cargo.lock must not
# change. The perfbench package keeps its own lock file, which cargo
# rewrites to match the library crates, so it runs without --locked.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Size is tracked like performance: print the non-test line count
# (scripts/loc.sh) and the five largest files. This is a report, not a gate.
echo "==> non-test lines of code"
loc=$(scripts/loc.sh)
echo "$loc" | tail -n 1
echo "$loc" | sed -n 1,5p

# Unsafe confinement: the workspace's only `unsafe` code is one call in
# the register-tile dispatch of crates/kernels/src/dense.rs (the AVX2
# instantiation, run after its run-time feature check, in the one module
# that carries `allow(unsafe_code)`) and the counting global allocator of
# the bench_kernels binary. Any other `unsafe` block, fn, impl or trait
# under crates/ or src/, any other `allow(unsafe_code)`, or a library
# crate other than srda-kernels without `forbid(unsafe_code)` fails.
echo "==> unsafe confined to the audited sites"
dispatch=crates/kernels/src/dense.rs
allocator=crates/bench/src/bin/bench_kernels.rs
unsafe_lines=$(grep -rnw unsafe crates src --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
stray=$(echo "$unsafe_lines" | grep -v -e "^$dispatch:" -e "^$allocator:" || true)
allows=$(grep -rn 'allow(unsafe_code)' crates src --include='*.rs' || true)
if [ -n "$stray" ] ||
    [ "$(echo "$unsafe_lines" | grep -c "^$dispatch:")" -ne 1 ] ||
    [ "$(echo "$allows" | grep -c .)" -ne 1 ] ||
    [ "$(echo "$allows" | grep -c "^$dispatch:")" -ne 1 ]; then
    echo "unsafe code outside the audited sites:" >&2
    echo "$unsafe_lines" >&2
    echo "$allows" >&2
    exit 1
fi
for lib in crates/*/src/lib.rs; do
    [ "$lib" = crates/kernels/src/lib.rs ] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || {
        echo "$lib does not forbid unsafe_code" >&2
        exit 1
    }
done
grep -q '^#!\[deny(unsafe_code)\]' crates/kernels/src/lib.rs || {
    echo "crates/kernels/src/lib.rs does not deny unsafe_code" >&2
    exit 1
}

echo "==> cargo clippy (warnings are errors)"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

# Rustdoc warnings are errors too, so a deletion cannot leave a dangling
# intra-doc link behind.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --workspace --no-deps

# Every test must pass under the serial backend AND a thread-
# oversubscribed one: results are required to be bitwise identical, so
# nothing may rely on the default ExecPolicy resolving to serial.
echo "==> cargo test (SRDA_THREADS=1, serial backend)"
SRDA_THREADS=1 cargo test --offline --locked --workspace -q

echo "==> cargo test (SRDA_THREADS=4, threaded backend)"
SRDA_THREADS=4 cargo test --offline --locked --workspace -q

# Tracing must be a pure observer: the whole suite also passes with the
# recorder armed from the environment (golden-trajectory and bitwise
# determinism tests then run with live telemetry attached).
echo "==> cargo test (SRDA_TRACE=1, recorder armed)"
SRDA_TRACE=1 cargo test --offline --locked --workspace -q

# Numerics hardening pass: the kernel, linalg, sparse and solver suites
# run again at release codegen with debug assertions and overflow checks
# baked in, so the Gram / Cholesky / certification kernels and their
# bitwise oracle tests are exercised with every internal invariant armed
# under the same optimizations production uses.
echo "==> cargo test (release + debug-assertions + overflow-checks, kernels/linalg/sparse/solvers)"
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true \
    cargo test -q --offline --locked --release -p srda-kernels -p srda-linalg -p srda-sparse -p srda-solvers

# The fit benchmark is its own package (perfbench/Cargo.toml) that calls
# the library crates' public API; its unit tests fail to build when that
# API changes under it.
echo "==> cargo test (perfbench, offline)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Every benchmarked workload (BENCHMARK.json) runs one short timed loop of
# real fits end to end under the benchmark's own output checks (test error
# bounds, the disk fit against the in-memory one). The last line perfbench
# prints is its result object, which must report "correct": true.
echo "==> perfbench workloads (one short run each, outputs checked)"
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    echo "    $workload"
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 |
        tail -n 1)
    case "$result" in
        *'"correct": true'*) ;;
        *)
            echo "perfbench $workload is not correct: $result" >&2
            exit 1
            ;;
    esac
done

# Bench smoke: tiny scale, still exercises every kernel and the
# serial-vs-threaded bitwise check (bench_kernels exits nonzero on any
# divergence). The full-scale BENCH_kernels.json is produced manually.
echo "==> bench smoke (bench_kernels, reduced scale)"
SRDA_BENCH_SCALE=0.05 SRDA_BENCH_THREADS=4 \
    cargo run -q --offline --locked --release -p srda-bench --bin bench_kernels \
    -- target/BENCH_kernels.smoke.json

# Zero-overhead gate: an instrumented-but-disabled recorder must cost
# < 2% on a hot kernel versus an enabled one (the overhead probe in
# bench_kernels runs at a fixed, noise-resistant shape regardless of
# SRDA_BENCH_SCALE). This is the observability layer's core promise:
# leaving the plumbing compiled in is free.
echo "==> recorder zero-overhead gate (< 2%)"
rel_delta=$(sed -n 's/.*"rel_delta": \([-0-9.e]*\).*/\1/p' \
    target/BENCH_kernels.smoke.json)
awk -v d="$rel_delta" 'BEGIN { exit !(d < 0.02) }' || {
    echo "recorder overhead $rel_delta exceeds the 2% budget" >&2
    exit 1
}

# Every example runs once in release and must exit 0; clippy above only
# compiles them. Their printed numbers are not gated.
echo "==> examples (each runs once in release)"
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "    $name"
    cargo run -q --offline --locked --release --example "$name" > /dev/null
done

# Kill-and-resume smoke: a fit cut off by an iteration budget must exit
# with code 3, leave a checkpoint behind, and — after `srda resume` —
# produce a model file that is byte-identical to the uninterrupted
# baseline (SRDAMDL1 stores raw float bits, so `cmp` is exact).
echo "==> kill-and-resume smoke (srda train --iter-budget / srda resume)"
cargo build -q --offline --locked --release -p srda-cli
SRDA=target/release/srda
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$SRDA" generate --dataset news --scale 0.02 --seed 11 \
    --out "$SMOKE_DIR/data.svm"
"$SRDA" train --data "$SMOKE_DIR/data.svm" \
    --model "$SMOKE_DIR/baseline.srda" --solver lsqr --iters 8
set +e
"$SRDA" train --data "$SMOKE_DIR/data.svm" \
    --model "$SMOKE_DIR/partial.srda" --solver lsqr --iters 8 \
    --iter-budget 20 --checkpoint-dir "$SMOKE_DIR/ckpt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "expected exit code 3 (interrupted), got $rc" >&2
    exit 1
fi
test -f "$SMOKE_DIR/ckpt/srda-fit.ckpt" || {
    echo "interrupted train left no checkpoint" >&2
    exit 1
}
test ! -f "$SMOKE_DIR/partial.srda" || {
    echo "interrupted train must not write a model" >&2
    exit 1
}
"$SRDA" resume --data "$SMOKE_DIR/data.svm" \
    --checkpoint "$SMOKE_DIR/ckpt/srda-fit.ckpt" \
    --model "$SMOKE_DIR/resumed.srda"
cmp "$SMOKE_DIR/baseline.srda" "$SMOKE_DIR/resumed.srda" || {
    echo "resumed model diverges from the uninterrupted baseline" >&2
    exit 1
}

# The 20-class smoke corpus has 19 responses, solved in memory one per
# panel; a budget of 60 iterations runs out inside the eighth (the first
# seven spend 7 × 8 = 56), so the checkpoint holds seven finished
# responses and a panel mid-solve.
echo "==> kill-and-resume smoke inside a later lockstep panel"
set +e
"$SRDA" train --data "$SMOKE_DIR/data.svm" \
    --model "$SMOKE_DIR/partial2.srda" --solver lsqr --iters 8 \
    --iter-budget 60 --checkpoint-dir "$SMOKE_DIR/ckpt2"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "expected exit code 3 (interrupted), got $rc" >&2
    exit 1
fi
"$SRDA" resume --data "$SMOKE_DIR/data.svm" \
    --checkpoint "$SMOKE_DIR/ckpt2/srda-fit.ckpt" \
    --model "$SMOKE_DIR/resumed2.srda"
cmp "$SMOKE_DIR/baseline.srda" "$SMOKE_DIR/resumed2.srda" || {
    echo "model resumed inside a panel diverges from the baseline" >&2
    exit 1
}

# Observability smoke: a traced train must emit the srda-obs-v1 report
# to --metrics-out, cover the fit with solver telemetry, and produce a
# model byte-identical to the untraced baseline above.
echo "==> trace smoke (srda train --trace --metrics-out)"
"$SRDA" train --data "$SMOKE_DIR/data.svm" \
    --model "$SMOKE_DIR/traced.srda" --solver lsqr --iters 8 \
    --trace --metrics-out "$SMOKE_DIR/metrics.json" 2>/dev/null
grep -q '"schema": "srda-obs-v1"' "$SMOKE_DIR/metrics.json" || {
    echo "--metrics-out did not emit the srda-obs-v1 schema" >&2
    exit 1
}
grep -q '"solver": "lsqr"' "$SMOKE_DIR/metrics.json" || {
    echo "metrics report carries no LSQR telemetry" >&2
    exit 1
}
cmp "$SMOKE_DIR/baseline.srda" "$SMOKE_DIR/traced.srda" || {
    echo "traced model diverges from the untraced baseline" >&2
    exit 1
}

# Certification smoke: one sample with a huge-magnitude feature drives
# κ(K) ≈ 1e13, too much for the screen's rounding bound (η̄ ≥ γ̄ ≈ 3e-15)
# to certify, so the response takes the per-column compensated path: the
# report's `certify.compensated` counter must be positive. `--certify`
# must exit 0 with no Suspect certificate (a Suspect survivor exits 4,
# failing this gate under `set -e`).
echo "==> certify smoke (srda train --certify on ill-conditioned data)"
cat > "$SMOKE_DIR/illcond.svm" <<'EOF'
0 0:3e6 1:0.4
0 0:1.1 1:0.7 2:0.2
0 1:0.9 2:0.4
0 0:0.8 1:0.3 2:0.6
1 0:0.2 2:1.3
1 0:0.5 1:1.1 2:0.9
1 1:0.3 2:1.4
1 0:0.1 1:0.8 2:1.2
EOF
"$SRDA" train --data "$SMOKE_DIR/illcond.svm" \
    --model "$SMOKE_DIR/illcond.srda" --solver ne --certify \
    --metrics-out "$SMOKE_DIR/certify-metrics.json" \
    2> "$SMOKE_DIR/certify.log"
grep -q "verdict" "$SMOKE_DIR/certify.log" || {
    echo "--certify printed no solution certificates" >&2
    exit 1
}
if grep -q "Suspect" "$SMOKE_DIR/certify.log"; then
    echo "--certify left a Suspect certificate on the smoke fixture" >&2
    exit 1
fi
compensated=$(sed -n 's/.*"certify\.compensated": \([0-9]*\).*/\1/p' \
    "$SMOKE_DIR/certify-metrics.json")
[ "${compensated:-0}" -gt 0 ] || {
    echo "the certify smoke never reached the compensated path" >&2
    exit 1
}

echo "CI OK"
