#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload, print the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_kernels --seed 0 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json. --seed 0 reproduces the builtin
scenarios' kernel seeds and gates every run against baselines/; any other seed
re-draws the kernel seeds. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced run. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

The driver (perfbench/CMakeLists.txt) is configured and built into
$CARGO_TARGET_DIR when that is set, else .bench_build/, both relative to the
repository root. Each run writes its generated suite file, a full report and,
when traced, a Chrome trace to <build dir>/results/. A generated suite replays
with the scenario CLI: tcdm_run run --no-builtin --file <suite file>.

Tests of the benchmark itself: python3 perfbench/test_perfbench.py
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DRIVER_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / configured).resolve()


def run_step(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"'{' '.join(cmd)}' failed with exit code {proc.returncode}")


def build(out):
    cmake_dir = out / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    run_step(["cmake", "--build", str(cmake_dir), "-j", str(jobs)], BUILD_TIMEOUT_S)
    return cmake_dir / "perfbench_driver"


def source_digest():
    """sha256 over the simulator and benchmark sources, for like-for-like comparison."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baselines", default=str(ROOT / "baselines"),
                        help="directory of recorded baselines the default seed is gated on")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    for needed in ("src", "baselines"):
        if not (ROOT / needed).is_dir():
            fail(f"{ROOT / needed} is missing: run from a full checkout of the repository", 2)

    out = build_dir()
    driver = build(out)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / "results"), "--baselines", str(Path(args.baselines).resolve()),
           "--git-commit", git_commit(), "--source-sha256", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or parse_result(lines[-1]) is None:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode} and no result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
