#!/usr/bin/env python3
"""Self-check of the benchmark on small suites.

Run from anywhere: python3 perfbench/test_perfbench.py
It builds the harness through run.py, then checks that every metric in
BENCHMARK.json is printed with its unit, that the deterministic quality
metrics repeat exactly (across runs, and across 1 vs 4 threads on
grid_t4), that no job fails, that the traced run's time attribution is
sane, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload of the harness; BENCHMARK.json names a subset of them.
WORKLOADS = ["best_r32", "incii_r32", "grid_t4"]
assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
QUALITY = ["exec_cycles", "mem_ops", "fit_jobs"]
SMALL = ["--loops", "40", "--seconds", "1"]
BINARY = run.build()


def bench(workload, *args, trace=0):
    out = subprocess.run([BINARY, "--workload", workload, "--seed", "3",
                          "--trace", str(trace), *SMALL, *args],
                         capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return out.returncode, result


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    def check_named(self, result, spec):
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_metrics_and_correctness(self):
        for w in WORKLOADS:
            rc, result = bench(w)
            self.assertEqual(rc, 0, w)
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)
            self.assertGreaterEqual(result["attempted"], 40, w)
            self.check_named(result, SPEC["end_to_end"])
            for name, v in values(result).items():
                self.assertGreater(v, 0, (w, name))

    def test_quality_repeats(self):
        for w in WORKLOADS:
            first, second = bench(w)[1], bench(w)[1]
            for name in QUALITY:
                self.assertEqual(values(first)[name], values(second)[name],
                                 (w, name))
        one = values(bench("grid_t4", "--threads", "1")[1])
        four = values(bench("grid_t4", "--threads", "4")[1])
        for name in QUALITY:
            self.assertEqual(one[name], four[name], name)

    def test_traced_run(self):
        for w in WORKLOADS:
            rc, result = bench(w, trace=1)
            self.assertEqual(rc, 0, w)
            self.assertTrue(result["correct"], w)
            self.check_named(result, SPEC["per_layer"])
            v = values(result)
            # Negative would mean the replay model misattributes time.
            self.assertGreater(v["pipeliner.other_s"],
                               -0.05 * v["pipeliner.s"], w)
            self.assertGreater(v["regalloc.calls"], 0, w)
            pool = v["driver.claims"] > 0 and v["memo.requests"] > 0
            self.assertEqual(pool, w == "grid_t4", w)

    def test_pinned_census(self):
        # The harness fails the run unless best_r32 on the pinned suite
        # reproduces the certificate census 1223 / 16 / 19.
        out = subprocess.run([BINARY, "--workload", "best_r32",
                              "--seconds", "1"],
                             capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("census 1223/16/19", out.stdout)

    def test_refuses_without_sources(self):
        bare = os.path.join(run.build_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run([sys.executable, "perfbench/run.py",
                              "--workload", "best_r32", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True,
                             timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
