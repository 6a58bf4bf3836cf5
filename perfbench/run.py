#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark.

    python3 perfbench/run.py --workload <native|minicu|optimize|replay> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (its own cargo workspace under perfbench/,
release profile, offline) into $CARGO_TARGET_DIR, default .bench_build at
the repository root, then runs the one workload in a process of its own.
The run is pinned to one CPU: a workload runs on one thread, and on a
2-vCPU host a run that migrates between CPUs (or whose optimizer worker
thread lands on the other one) measured up to 25 % slower than a pinned
run. glibc's mmap threshold is fixed at its initial 128 KiB, so every
large buffer of every op comes from the OS as in a fresh `xplacer`
process; with the default, which rises after the first large free, the
peak RSS of a run depended on the order of its ops by up to 25 %. The
last line of stdout is the JSON result the binary prints. Exits
non-zero, printing no result, if the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"perfbench: build exited {built.returncode}", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    cpu = max(os.sched_getaffinity(0))
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=run_env,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run exited {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
