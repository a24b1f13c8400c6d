#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload census_cold --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (the gpuscale library from src/, the gpuscaled
daemon, and the perfbench runner) into .bench_build/ with CMake, then
runs one workload from the repository root.  Build output goes to
stderr; the last line of stdout is the run's JSON result.  Result
files and span dumps are kept under .bench_out/.  See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def build(targets):
    """Configure once, then build the targets; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr) == 0


def source_digest():
    """SHA-256 over the benchmarked sources and the benchmark itself."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD of the checkout when it is a git work tree, else ""."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics self-tests")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.call(
            [os.path.join(BUILD_DIR, "perfbench_selftest")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["perfbench", "gpuscaled"]):
        print("run.py: build failed", file=sys.stderr)
        return 1
    # Write back what the build left dirty now, so that the writeback
    # does not land on the daemon's journal fsyncs during the run.
    os.sync()

    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: perfbench timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: perfbench exited {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (IndexError, ValueError, KeyError):
        print("run.py: perfbench printed no result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace == 1)
    if got != want:
        print(f"run.py: metrics {got} do not match BENCHMARK.json {want}",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
