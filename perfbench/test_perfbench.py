#!/usr/bin/env python3
"""Tests for the repository benchmark itself.

Run from the repository root:  python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py on short runs (about a second each, after
the first build) and inspects its result line and the report it writes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as perfbench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace=0, extra=(), seconds=1):
    """Runs the benchmark; returns (stdout lines, parsed result line, report)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    report_path = (perfbench_run.build_dir() / "results" /
                   f"{workload}-seed{seed}-trace{trace}.json")
    return lines, json.loads(lines[-1]), json.loads(report_path.read_text())


class BenchmarkOutput(unittest.TestCase):
    def test_output_names_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result, _ = bench("system_scaleout", 3, trace=trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected)
            text = "\n".join(lines[:-1])
            for name, unit in expected.items():
                self.assertRegex(text, rf"\b{name}\s+\S+ {unit}\b")
            self.assertRegex(text, r"scenarios attempted \d+ failed \d+")

    def test_every_workload_of_benchmark_json_is_generated(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for name in names:
            _, result, report = bench(name, 11)
            self.assertTrue(result["correct"], report["failures"])
            suite = perfbench_run.build_dir() / "results" / report["suite_file"]
            self.assertEqual(json.loads(suite.read_text())["suite"], name)


class FailureAccounting(unittest.TestCase):
    def test_injected_baseline_mismatch_is_counted_as_failure(self):
        scratch = perfbench_run.build_dir() / "test-baselines"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(ROOT / "baselines", scratch)
        _, clean, _ = bench("system_scaleout", 0, extra=["--baselines", str(scratch)])
        self.assertEqual(clean["failed"], 0)

        path = scratch / "multi_cluster_scaling.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["n2/tree/burst8/cycles"]["value"] *= 1.10
        path.write_text(json.dumps(doc))
        _, result, report = bench("system_scaleout", 0, extra=["--baselines", str(scratch)])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("n2/tree/burst8" in f for f in report["failures"]))
        shutil.rmtree(scratch)

    def test_missing_sources_exit_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=perfbench_run.build_dir()) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mixed_traffic",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Seeding(unittest.TestCase):
    def test_same_seed_gives_identical_fingerprints(self):
        _, _, first = bench("mixed_traffic", 7)
        _, _, second = bench("mixed_traffic", 7)
        self.assertEqual(first["fingerprints"], second["fingerprints"])

    def test_non_default_seed_changes_a_mixed_traffic_cycle_count(self):
        _, default, base = bench("mixed_traffic", 0)
        _, other, drawn = bench("mixed_traffic", 5)
        self.assertTrue(default["correct"] and other["correct"], drawn["failures"])
        self.assertEqual(base["fingerprints"].keys(), drawn["fingerprints"].keys())
        changed = [name for name, fp in base["fingerprints"].items()
                   if fp["cycles"] != drawn["fingerprints"][name]["cycles"]]
        self.assertTrue(changed)


if __name__ == "__main__":
    unittest.main()
