#!/usr/bin/env python3
"""Builds and runs the wall-clock fix-serving benchmark (see METRICS.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds the engine (src/) and
the benchmark with CMake into $CARGO_TARGET_DIR (default .bench_build),
runs the harness self-check, then one measurement. Build output goes to
stderr; the last stdout line is the result JSON. Exits non-zero without a
result when the sources are missing or the build or self-check fails, and
non-zero after the result when a correctness gate fails. Traced runs keep
their spans under <build dir>/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("office-open", "crowd-closed", "wire-storm")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def to_stderr(cmd, timeout):
    """Runs `cmd` with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = to_stderr(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], 300)
        if rc:
            return rc
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return to_stderr(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"], 840)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources src/ not found beside perfbench/",
              file=sys.stderr)
        return 2
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.join(ROOT, out_root)
    build_dir = os.path.join(out_root, "perfbench")
    if build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if to_stderr([os.path.join(build_dir, "perfbench_selftest")], 60):
        print("perfbench: harness self-check failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: measurement timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
