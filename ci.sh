#!/bin/sh
# Pre-PR gate: formatting, lints, release build, full test suite.
# Run from the repository root; exits non-zero on the first failure.
set -eu

# The gate leaves tracked files as it found them (a stale Cargo.lock that
# a build rewrites, a blessed golden): remember their state to compare at
# the end. Outside a git checkout there is nothing to compare.
in_git=no
if git rev-parse --git-dir > /dev/null 2>&1; then
    in_git=yes
    tracked_before=$(git status --porcelain --untracked-files=no)
fi

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

echo "==> perfbench build + self-tests"
# perfbench (run through BENCHMARK.json) is its own cargo workspace that
# compiles against the library crates' public API; build it here so a
# change to that API cannot break the benchmark unnoticed.
cargo test --manifest-path perfbench/Cargo.toml --locked -q

echo "==> access-path microbench + throughput + telemetry-overhead gate"
# The smoke record goes to an untracked file: results/BENCH_access_path.json
# is the committed full-size record.
cargo run --release -q -p xplacer-bench --bin access_path -- --smoke \
    --out results/access_path_smoke.json
cargo run --release -q -p xplacer-bench --bin bench -- compare-access \
    crates/bench/baselines/BENCH_access_path.json results/access_path_smoke.json \
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

echo "==> live xplacer blame matches blame --replay of the same run"
# Live blame folds the recorded event ring in place, with the allocation
# labels --events-out writes; replaying that file must print the same
# bytes. Every verb records with the same ring depth: ring_overflow.cu
# emits more events than a 65 536-event ring holds, and `run` must keep
# them all.
for w in pathfinder backprop lulesh tests/corpus/events/ring_overflow.cu; do
    name=$(basename "$w" .cu)
    record=demo
    case "$w" in *.cu) record=run ;; esac
    ./target/release/xplacer "$record" "$w" --log-level quiet \
        --events-out "results/live_${name}_events.json" > /dev/null
    ./target/release/xplacer blame "$w" --log-level quiet > "results/blame_live_$name.txt"
    ./target/release/xplacer blame --replay "results/live_${name}_events.json" \
        --log-level quiet > "results/blame_replay_$name.txt"
    cmp "results/blame_live_$name.txt" "results/blame_replay_$name.txt"
done

echo "==> replay readers refuse broken traces with exit 2"
# A truncated trace, a document nested 100 000 deep, an evict whose
# `writeback_pages` (2^32 + 1) does not fit its 32-bit count, an event
# whose `seq` is -1 and a fault on a GPU the node does not have (`gpu1`)
# must be reported as usage errors (exit exactly 2), never crash, wrap,
# default or yield a report.
size=$(wc -c < results/top_events.json)
head -c $((size / 2)) results/top_events.json > results/events_truncated.json
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "[" }' > results/events_deep.json
awk '{ print } /"events": \[/ { print "    {\"t\": 0, \"cost\": 0, \"kind\": \"evict\", \"pages\": 1, \"bytes\": 65536, \"writeback_pages\": 4294967297, \"writeback_bytes\": 65536}," }' \
    results/top_events.json > results/events_writeback_overflow.json
awk '!done && /"seq": / { sub(/"seq": [0-9]+/, "\"seq\": -1"); done = 1 } { print }' \
    results/top_events.json > results/events_bad_seq.json
awk '!done && /"dev": "gpu0"/ { sub(/"gpu0"/, "\"gpu1\""); done = 1 } { print }' \
    results/top_events.json > results/events_gpu1.json
expect_exit_2() {
    code=0
    ./target/release/xplacer "$@" --log-level quiet > /dev/null 2>&1 || code=$?
    if [ "$code" -ne 2 ]; then
        echo "ci: xplacer $* exited $code, expected 2" >&2
        exit 1
    fi
}
for f in results/events_truncated.json results/events_deep.json \
    results/events_writeback_overflow.json results/events_bad_seq.json \
    results/events_gpu1.json; do
    expect_exit_2 blame --replay "$f"
    expect_exit_2 diff results/top_events.json "$f"
done

echo "==> a closed pipe or a full disk is not a crash"
# A reader that stops early (`| head`) closes stdout under a report larger
# than the pipe holds: the verb must exit with its own status (0 here),
# without a panic. Any other stdout error must exit exactly 2.
{
    code=0
    ./target/release/xplacer profile lulesh --json --log-level quiet \
        2> results/pipe_err.txt || code=$?
    echo "$code" > results/pipe_status.txt
} | head -c 1 > /dev/null
code=$(cat results/pipe_status.txt)
if [ "$code" != 0 ] || grep -q panicked results/pipe_err.txt; then
    echo "ci: profile into a closed pipe exited $code:" >&2
    cat results/pipe_err.txt >&2
    exit 1
fi
# reproduce_all keeps the same contract. It writes results/ into its
# working directory, so it runs in one of its own under results/.
mkdir -p results/reproduce_pipe
{
    code=0
    (cd results/reproduce_pipe && ../../target/release/reproduce_all --only table1_api) \
        2> results/reproduce_pipe_err.txt || code=$?
    echo "$code" > results/reproduce_pipe_status.txt
} | head -c 1 > /dev/null
code=$(cat results/reproduce_pipe_status.txt)
if [ "$code" != 0 ] || grep -q panicked results/reproduce_pipe_err.txt; then
    echo "ci: reproduce_all into a closed pipe exited $code:" >&2
    cat results/reproduce_pipe_err.txt >&2
    exit 1
fi
if [ -e /dev/full ]; then
    code=0
    ./target/release/xplacer platforms > /dev/full 2> /dev/null || code=$?
    if [ "$code" -ne 2 ]; then
        echo "ci: xplacer platforms > /dev/full exited $code, expected 2" >&2
        exit 1
    fi
    code=0
    (cd results/reproduce_pipe && ../../target/release/reproduce_all --only table1_api) \
        > /dev/full 2> /dev/null || code=$?
    if [ "$code" -ne 2 ]; then
        echo "ci: reproduce_all --only table1_api > /dev/full exited $code, expected 2" >&2
        exit 1
    fi
fi

echo "==> xplacer optimize smoke + jobs-determinism + golden"
# The closed-loop optimizer must (a) find a plan strictly below the
# unhinted lulesh baseline, (b) produce byte-identical reports for any
# --jobs value (the ordered-merge pool contract, exercised through the
# real binary), and (c) match the committed golden.
./target/release/xplacer optimize lulesh --jobs 2 --smoke --log-level quiet \
    > results/optimize_j2.txt
./target/release/xplacer optimize lulesh --jobs 1 --smoke --log-level quiet \
    > results/optimize_j1.txt
./target/release/xplacer optimize lulesh --jobs 8 --smoke --log-level quiet \
    > results/optimize_j8.txt
cmp results/optimize_j1.txt results/optimize_j2.txt
cmp results/optimize_j1.txt results/optimize_j8.txt
cmp results/optimize_j2.txt tests/golden/optimize_lulesh.golden
grep -q "winner:" results/optimize_j2.txt
# The MiniCU path of the full search: the same jobs and golden contract
# on a program target (tests/optimize.rs maintains the golden).
for jobs in 1 2; do
    ./target/release/xplacer optimize examples/mini/smith_waterman.cu \
        --jobs "$jobs" --log-level quiet > "results/optimize_sw_j$jobs.txt"
done
cmp results/optimize_sw_j1.txt results/optimize_sw_j2.txt
cmp results/optimize_sw_j1.txt tests/golden/optimize_smith_waterman.golden
# Every evaluation's profile digest sees every event: the ping-pong program
# emits 1 230 001, and its evidence rows pin the uncapped fold. Release
# only: a debug build takes minutes on it.
./target/release/xplacer optimize tests/corpus/optimize/pingpong.cu --log-level quiet \
    > results/optimize_pingpong.txt
cmp results/optimize_pingpong.txt tests/golden/optimize_pingpong.golden

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
# Every built-in workload and every mini example (where the interpreter's
# sweep fast path engages): the bulk fast path and --no-bulk must print the
# same table, the same JSON document (under --json the table moves to
# stderr, which the first pair already compares) and exit alike. The
# examples exit 1 with findings, so the exit codes are compared here
# rather than left to set -e; anything but a report (0 or 1) fails.
for w in lulesh sw pathfinder backprop gaussian lud nn cfd examples/mini/*.cu; do
    name=$(basename "$w" .cu)
    for fmt in "" "--json"; do
        bulk=0
        ./target/release/xplacer check "$w" $fmt --log-level quiet \
            > "results/check_${name}_bulk.txt" 2>/dev/null || bulk=$?
        word=0
        ./target/release/xplacer check "$w" $fmt --no-bulk --log-level quiet \
            > "results/check_${name}_word.txt" 2>/dev/null || word=$?
        if [ "$bulk" -ne "$word" ] || [ "$bulk" -gt 1 ]; then
            echo "ci: xplacer check $w $fmt exited $bulk with bulk, $word without" >&2
            exit 1
        fi
        cmp "results/check_${name}_bulk.txt" "results/check_${name}_word.txt"
    done
done

if [ "$in_git" = yes ]; then
    echo "==> tracked files as the run found them"
    tracked_after=$(git status --porcelain --untracked-files=no)
    if [ "$tracked_after" != "$tracked_before" ]; then
        echo "ci: the run changed the status of these tracked files:" >&2
        printf '%s\n%s\n' "$tracked_before" "$tracked_after" | sed '/^$/d' | sort | uniq -u >&2
        exit 1
    fi
fi

echo "ci: all checks passed"
