"""Smoke test of the benchmark at tiny sizes; runs in well under a minute.

Run from the root of a checkout:

    python3 bench/smoke_test.py

It runs every workload traced and untraced and asserts that every metric
is printed with its unit, that only erdos-demo fails, and that the
traced counts repeat.  It then feeds the checks tampered reports (a
raised d_k, a shifted box, a loosened bound) and asserts that each one
is rejected, and that the benchmark refuses to run without ``src/``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from cantorforge import cli  # noqa: E402

import checks  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

SCRATCH = HERE / "out" / "smoke"


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


class PrintedMetrics(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, metrics in ((0, END_TO_END), (1, LAYER_METRICS)):
                with self.subTest(workload=workload, trace=trace):
                    run = bench(workload, trace)
                    self.assertEqual(run.returncode, 0, run.stderr)
                    result = json.loads(run.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], run.stderr)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, dict(metrics))
                    ops = len(make_ops(workload, 5, tiny=True))
                    self.assertEqual(result["attempted"] % ops, 0)
                    erdos_fails = workload == "chains-1d"
                    self.assertEqual(result["failed"], result["attempted"] // ops if erdos_fails else 0)

    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            run = bench("mapped-square", 1)
            self.assertEqual(run.returncode, 0, run.stderr)
            metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
            counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["nested_rd.cell_image_box.calls"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        run = bench("deep-square", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(run.returncode, 0)
        self.assertEqual(run.stdout, "")


class TamperedReports(unittest.TestCase):
    """The checks accept real reports and reject each tampered copy."""

    reports: dict[str, tuple[dict, dict]] = {}

    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        for workload in WORKLOADS:
            for i, op in enumerate(make_ops(workload, 5, tiny=True)):
                config = SCRATCH / f"{workload}-{i}.json"
                out = SCRATCH / f"{workload}-{i}.report.json"
                config.write_text(json.dumps(op["config"]), encoding="utf-8")
                cli.run_scenario(str(config), out_path=str(out), threads=1)
                cls.reports[op["name"]] = (op, json.loads(out.read_text(encoding="utf-8")))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def assert_rejected(self, name, tamper):
        op, report = self.reports[name]
        self.assertEqual(checks.check_report(op, report), [], name)
        bad = copy.deepcopy(report)
        tamper(bad)
        self.assertNotEqual(checks.check_report(op, bad), [], name)

    def test_raised_dk(self):
        def raise_dk(report):
            dk = report["results"]["dk"]
            dk[-1] = pair(2 * checks.rat(dk[-1]))

        for name in ("interior-rd", "nondegeneracy", "nondegeneracy-mapped", "rotate-fix"):
            self.assert_rejected(name, raise_dk)

    def test_shifted_boxes(self):
        def shift_interior(report):
            box = report["results"]["interior_box"][0]
            box["lo"] = pair(checks.rat(box["lo"]) + Fraction(1, 100))

        def shift_component(report):
            box = report["geometry"]["boxes"][-1]["box"]
            box[0] = [pair(checks.rat(end) + 1) for end in box[0]]

        def shift_bbox(report):
            node = report["results"]["certificate"]["root"]
            while node["children"]:
                node = node["children"][-1]
            lo, hi = node["components"][0]["bbox"][1]
            node["components"][0]["bbox"][1] = [lo, pair(checks.rat(hi) + Fraction(1, 2**70))]

        self.assert_rejected("interior-rd", shift_interior)
        self.assert_rejected("interior-rd", shift_component)
        for name in ("nondegeneracy", "nondegeneracy-mapped", "rotate-fix"):
            self.assert_rejected(name, shift_bbox)

    def test_loosened_bounds(self):
        def loosen_chain(report):
            point = report["results"]["points"][0]
            point["bound"] = pair(checks.rat(point["bound"]) * 2)

        def loosen_sweep(report):
            point = report["results"]["sweep"]["points"][-1]
            point["bound"] = pair(checks.rat(point["bound"]) + Fraction(1, 10**30))

        def widen_ratio(report):
            ratios = report["results"]["certificate"]["root"]["ratios"]
            key = sorted(ratios)[0]
            ratios[key][1] = pair(Fraction(10))

        def move_witness(report):
            record = next(r for r in report["results"]["obstruction"]["records"] if r["ok"])
            record["witness_map"] = pair(checks.rat(record["witness_map"]) + 1)

        def bend_residual(report):
            point = report["results"]["distance"]["interior"]["points"][0]
            x, y = point["witness"]
            point["witness"] = [pair(checks.rat(x) + Fraction(1, 1000)), y]

        self.assert_rejected("interior-rd", loosen_chain)
        self.assert_rejected("interior-1d", loosen_chain)
        self.assert_rejected("sweep-1d", loosen_sweep)
        self.assert_rejected("nondegeneracy", widen_ratio)
        self.assert_rejected("rotate-fix", widen_ratio)
        self.assert_rejected("erdos-demo", move_witness)
        self.assert_rejected("distance-alpha-2", bend_residual)
        self.assert_rejected("distance-alpha-3/2", bend_residual)


if __name__ == "__main__":
    unittest.main()
