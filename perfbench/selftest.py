"""Tests of the benchmark itself, at the smoke size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
a tampered output counts as a failed operation, and that the benchmark
refuses to run without the lampwalk sources.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from workloads import MiniPipeline, PaperWalks, summarize_walk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench"


def scratch_dir():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class MetricsPrint(unittest.TestCase):
    def check_run(self, trace, wanted):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--size", "smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
                for m in wanted:
                    self.assertIn(m["name"], proc.stdout.split("\n{")[0])

    def test_end_to_end_metrics(self):
        self.check_run(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_run(1, SPEC["per_layer"])

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))


class TamperedOutputs(unittest.TestCase):
    def test_flipped_k_fails_its_walk(self):
        wl = PaperWalks(4, "smoke", Path("."))
        wl.imports()
        wl.prepare()
        wl.run()
        self.assertEqual(wl.check({}), [])
        analysis, cli, _, sampling = wl.lw
        traj = sampling.walk(wl.c, wl.params["horizon"], cli.trajectory_rng(4, 1),
                             kdist=wl.kdist, x_level_cap=0)
        traj.steps[7] = dataclasses.replace(traj.steps[7], k=traj.steps[7].k + 1)
        wl.summaries[1] = summarize_walk(
            traj, analysis.analyze_records(traj.ks()), analysis.stable_so_far_flags(traj),
            analysis.dominant_record_times(traj), analysis.detect_stabilization(traj),
        )
        self.assertEqual(wl.check({}), ["walk-1"])

    def test_flipped_k_fails_its_trajectory(self):
        cwd = os.getcwd()
        with scratch_dir() as tmp:
            try:
                wl = MiniPipeline(5, "smoke", Path(tmp))
                wl.imports()
                wl.run()
            finally:
                os.chdir(cwd)
            golden = reference.load_golden()
            self.assertEqual(wl.check(golden), [])
            path = Path(tmp) / "runs" / "trajectory-0001.csv"
            lines = path.read_text().splitlines(keepends=True)
            row = next(csv.reader([lines[3]]))
            row[1] = str(int(row[1]) + 1)
            lines[3] = ",".join(row) + "\n"
            path.write_text("".join(lines))
            self.assertEqual(wl.check(golden), ["trajectory-1"])

    def test_later_round_must_match_checked_round(self):
        checked = {"failed": [], "fingerprints": [["a", "1"], ["b", "2"]]}
        later = {"fingerprints": [["a", "1"], ["b", "3"]]}
        self.assertEqual(run.count_failures([checked, later]), (4, 1))


class BareCheckout(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with scratch_dir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "paper-walks", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
