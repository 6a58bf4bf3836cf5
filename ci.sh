#!/bin/sh
# Pre-PR gate: formatting, lints, release build, full test suite.
# Run from the repository root; exits non-zero on the first failure.
set -eu

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (bounded conformance smoke: 64 generated programs)"
# The differential conformance harness (tests/conformance.rs) generates
# its programs from fixed seeds, so this is deterministic; local runs
# without the variable use the fuller 256-case default.
XPLACER_CONFORMANCE_CASES=64 cargo test -q

echo "==> bench smoke + regression gate"
cargo run --release -q -p xplacer-bench --bin reproduce_all -- --smoke
cargo run --release -q -p xplacer-bench --bin bench -- compare \
    crates/bench/baselines/BENCH_smoke.json results/BENCH_smoke.json \
    --max-regress 0.10

echo "==> access-path microbench + throughput + telemetry-overhead gate"
cargo run --release -q -p xplacer-bench --bin access_path -- --smoke \
    --out results/BENCH_access_path.json
cargo run --release -q -p xplacer-bench --bin bench -- compare-access \
    crates/bench/baselines/BENCH_access_path.json results/BENCH_access_path.json \
    --max-regress 0.20

echo "==> xplacer top replay smoke + determinism"
# Record an event trace, replay the dashboard twice, and require the
# --frames/--ascii output to be byte-identical (the golden-snapshot
# contract, exercised through the real binary).
./target/release/xplacer demo lulesh --log-level quiet \
    --events-out results/top_events.json
./target/release/xplacer top --replay results/top_events.json \
    --frames 3 --ascii --log-level quiet > results/top_frames_a.txt
./target/release/xplacer top --replay results/top_events.json \
    --frames 3 --ascii --log-level quiet > results/top_frames_b.txt
cmp results/top_frames_a.txt results/top_frames_b.txt
grep -q "ping-pong" results/top_frames_a.txt

echo "==> xplacer blame golden + xplacer diff gate"
# Blame the demo-recorded trace through the real binary and byte-compare
# against the committed snapshot (the same bytes tests/blame.rs
# maintains; regenerate with XPLACER_BLESS=1).
./target/release/xplacer blame --replay results/top_events.json \
    --log-level quiet > results/blame_replay.txt
cmp results/blame_replay.txt tests/golden/blame_replay_lulesh.golden
# Self-diff must report zero deltas and exit 0.
./target/release/xplacer diff results/top_events.json results/top_events.json \
    --log-level quiet > results/diff_self.txt
grep -q "no differences" results/diff_self.txt
# A genuinely slower "after" run must trip the nonzero-exit regression
# gate: diff a cheap pathfinder run against the expensive lulesh run.
./target/release/xplacer demo pathfinder --log-level quiet \
    --events-out results/pathfinder_events.json > /dev/null
if ./target/release/xplacer diff results/pathfinder_events.json \
    results/top_events.json --log-level quiet > results/diff_regressed.txt; then
    echo "ci: xplacer diff failed to flag a regression" >&2
    exit 1
fi
grep -q "verdict: regressed" results/diff_regressed.txt
# bench compare explains its gate with the same trace diff via --events.
cargo run --release -q -p xplacer-bench --bin bench -- compare \
    crates/bench/baselines/BENCH_smoke.json results/BENCH_smoke.json \
    --max-regress 0.10 --events results/top_events.json results/top_events.json \
    > results/bench_compare_events.txt
grep -q "no differences" results/bench_compare_events.txt

echo "==> live xplacer blame matches blame --replay of the same run"
# Live blame folds the recorded event ring in place, with the allocation
# labels --events-out writes; replaying that file must print the same
# bytes. The demo rings of these workloads drop no events.
for w in pathfinder backprop lulesh; do
    ./target/release/xplacer demo "$w" --log-level quiet \
        --events-out "results/live_${w}_events.json" > /dev/null
    ./target/release/xplacer blame "$w" --log-level quiet > "results/blame_live_$w.txt"
    ./target/release/xplacer blame --replay "results/live_${w}_events.json" \
        --log-level quiet > "results/blame_replay_$w.txt"
    cmp "results/blame_live_$w.txt" "results/blame_replay_$w.txt"
done

echo "==> replay readers refuse broken traces with exit 2"
# A truncated trace and a document nested 100 000 deep must be reported
# as usage errors (exit exactly 2), never crash or yield a report.
size=$(wc -c < results/top_events.json)
head -c $((size / 2)) results/top_events.json > results/events_truncated.json
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "[" }' > results/events_deep.json
expect_exit_2() {
    code=0
    ./target/release/xplacer "$@" --log-level quiet > /dev/null 2>&1 || code=$?
    if [ "$code" -ne 2 ]; then
        echo "ci: xplacer $* exited $code, expected 2" >&2
        exit 1
    fi
}
for f in results/events_truncated.json results/events_deep.json; do
    expect_exit_2 blame --replay "$f"
    expect_exit_2 diff results/top_events.json "$f"
done

echo "==> xplacer optimize smoke + jobs-determinism + regression gate"
# The closed-loop optimizer must (a) find a plan strictly below the
# unhinted lulesh baseline, (b) produce byte-identical reports for any
# --jobs value (the ordered-merge pool contract, exercised through the
# real binary), and (c) match the committed golden and stay within the
# bench regression budget.
./target/release/xplacer optimize lulesh --jobs 2 --smoke --log-level quiet \
    --bench-out results/BENCH_optimize.json > results/optimize_j2.txt
./target/release/xplacer optimize lulesh --jobs 1 --smoke --log-level quiet \
    > results/optimize_j1.txt
./target/release/xplacer optimize lulesh --jobs 8 --smoke --log-level quiet \
    > results/optimize_j8.txt
cmp results/optimize_j1.txt results/optimize_j2.txt
cmp results/optimize_j1.txt results/optimize_j8.txt
cmp results/optimize_j2.txt tests/golden/optimize_lulesh.golden
grep -q "winner:" results/optimize_j2.txt
cargo run --release -q -p xplacer-bench --bin bench -- compare \
    crates/bench/baselines/BENCH_optimize.json results/BENCH_optimize.json \
    --max-regress 0.10

echo "==> xplacer analyze: MiniCU examples + determinism"
# The interpreter through the real binary: every mini example must
# analyze cleanly (set -e catches a nonzero exit) and byte-identically
# twice, and the alternating example must report its anti-pattern.
for f in examples/mini/*.cu; do
    name=$(basename "$f" .cu)
    ./target/release/xplacer analyze "$f" --log-level quiet \
        > "results/analyze_${name}_a.txt"
    ./target/release/xplacer analyze "$f" --log-level quiet \
        > "results/analyze_${name}_b.txt"
    cmp "results/analyze_${name}_a.txt" "results/analyze_${name}_b.txt"
done
grep -q "alternating CPU/GPU accesses" results/analyze_alternating_a.txt

echo "==> xplacer check: buggy corpus gate + clean-workload gate"
# Every bug-injection program must exit 1 and reproduce its committed
# golden byte-for-byte through the real binary (table on stdout, then
# the --json document — the same layout tests/check.rs maintains;
# regenerate with XPLACER_BLESS=1).
for f in tests/corpus/buggy/*.cu; do
    name=$(basename "$f" .cu)
    # Run from inside the corpus dir so the report's target matches the
    # golden's bare "<name>.cu".
    if (cd tests/corpus/buggy && ../../../target/release/xplacer check \
        "$name.cu" --log-level quiet) > "results/check_$name.txt"; then
        echo "ci: xplacer check missed the defect in $name" >&2
        exit 1
    fi
    printf -- '---- json ----\n' >> "results/check_$name.txt"
    (cd tests/corpus/buggy && ../../../target/release/xplacer check \
        "$name.cu" --json --log-level quiet) \
        >> "results/check_$name.txt" 2>/dev/null || true
    cmp "results/check_$name.txt" "tests/corpus/buggy/$name.check.golden"
done
# Every built-in workload must check clean: exit 0 (set -e catches
# anything else) with an empty-findings report.
for w in lulesh sw pathfinder backprop gaussian lud nn cfd; do
    ./target/release/xplacer check "$w" --log-level quiet > "results/check_$w.txt"
    grep -q "clean" "results/check_$w.txt"
done

echo "==> xplacer check: bulk vs per-word parity"
# Every built-in workload: the bulk fast path and --no-bulk must print the
# same table and the same JSON document (under --json the table moves to
# stderr, which the first pair already compares).
for w in lulesh sw pathfinder backprop gaussian lud nn cfd; do
    for fmt in "" "--json"; do
        ./target/release/xplacer check "$w" $fmt --log-level quiet \
            > "results/check_${w}_bulk.txt" 2>/dev/null
        ./target/release/xplacer check "$w" $fmt --no-bulk --log-level quiet \
            > "results/check_${w}_word.txt" 2>/dev/null
        cmp "results/check_${w}_bulk.txt" "results/check_${w}_word.txt"
    done
done

echo "ci: all checks passed"
