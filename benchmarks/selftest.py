"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root::

    python3 benchmarks/selftest.py

They check that every metric named in ``BENCHMARK.json`` is printed with its
unit, that a corrupted output counts as a failed op, and that the generated
inputs depend on the seed only.  The smoke runs take about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fredinfo    # noqa: E402
import numpy as np  # noqa: E402

import checks      # noqa: E402
import run         # noqa: E402
import worker      # noqa: E402
import workloads   # noqa: E402


def _smoke(trace: int) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--all",
                           "--smoke", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class MetricsAreReported(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def _check(self, trace: int, section: str) -> None:
        results, text = _smoke(trace)
        self.assertEqual(set(results), {w["name"] for w in self.spec["workloads"]})
        for workload, res in results.items():
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"], f"{workload}: {text}")
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)
            names = {m["name"]: m["unit"] for m in self.spec[section]}
            self.assertEqual(set(res["metrics"]), set(names), workload)
            for name, m in res["metrics"].items():
                self.assertEqual(m["unit"], names[name], f"{workload} {name}")
                self.assertTrue(math.isfinite(m["value"]), f"{workload} {name}")
                self.assertIn(f"  {name} ", text)      # human-readable line too

    def test_end_to_end_metrics(self):
        self._check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self._check(1, "per_layer")


class CorruptedOutputFails(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(HERE, "out", "selftest")
        shutil.rmtree(self.work, ignore_errors=True)
        run.write_inputs(self.work)

    def _plan_ops(self, workload: str, n: int) -> list[dict]:
        ops = workloads.make_ops(workload, 3, n)
        return [run._materialize(op, i, self.work) for i, op in enumerate(ops)]

    def test_good_sweeps_pass_and_edited_csv_fails(self):
        op = self._plan_ops("closed_sweep", 1)[0]
        lat, failures = worker.run_ops([op])
        self.assertEqual(failures, [])
        with open(op["out"] + ".csv") as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[1] = str(int(cells[1]) + 1)                  # k0 of the first level
        bad = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
        self.assertTrue(checks.check_sweep_csv(op["config"], bad))

    def test_wrong_program_answers_are_counted(self):
        metric = fredinfo.metric
        original = metric.max_message_length_log2
        metric.max_message_length_log2 = lambda *a, **kw: original(*a, **kw) + 1.0
        try:
            ops = self._plan_ops("mc_sweep", 2)
            _, failures = worker.run_ops(ops)
        finally:
            metric.max_message_length_log2 = original
        self.assertEqual(len(failures), len(ops))
        self.assertIn("logL_max", failures[0]["problems"][0])

    def test_oracle_checks_reject_wrong_values(self):
        packing = workloads.packing_case(random.Random(5), 2, 4)
        count = fredinfo.greedy_packing_count(
            packing["axes"], packing["epsilon"], packing["step"])
        self.assertEqual(checks.check_packing(packing, count), [])
        self.assertTrue(checks.check_packing(packing, 1))
        self.assertTrue(checks.check_packing(packing, 1 << 60))
        lam = [1.0 / (k * math.pi) ** 2 for k in range(1, 9)]
        op = {"n_nodes": 300}
        self.assertEqual(checks.check_nystrom(op, np.asarray(lam), 300), [])
        self.assertTrue(checks.check_nystrom(op, np.asarray(lam) * 1.01, 300))

    def test_cli_checks_reject_wrong_output(self):
        for op in self._plan_ops("cli_cold", 5):
            rc, out, err = worker.execute(op, subprocess_cli=False)
            self.assertEqual(checks.check_cli(op, rc, out, err), [], op["name"])
            self.assertTrue(checks.check_cli(op, 2, out, err))
            if op["name"] != "simulate":
                self.assertTrue(checks.check_cli(op, rc, out.replace("3", "4", 1), err),
                                op["name"])


class InputsDependOnTheSeedOnly(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            a = workloads.make_ops(workload, 11, workloads.SMOKE_OPS[workload] * 2)
            b = workloads.make_ops(workload, 11, workloads.SMOKE_OPS[workload] * 2)
            c = workloads.make_ops(workload, 12, workloads.SMOKE_OPS[workload] * 2)
            self.assertEqual(json.dumps(a), json.dumps(b))
            self.assertNotEqual(json.dumps(a), json.dumps(c))

    def test_op_shapes_do_not_depend_on_the_seed(self):
        def shape(op):
            if op["kind"] == "sweep":
                c = op["config"]
                grid = c.get("epsilon_grid") or c["log2_inv_eps_grid"]
                return (c["model"]["kind"], len(grid), c.get("k_max"), c["trials"],
                        c.get("rho", {}).get("kind"))
            if op["kind"] == "packing":
                lo, hi = workloads.PACKING_CANDIDATES
                n = workloads.packing_candidates(op["axes"], op["step"])
                band = math.log(n / lo) / math.log(hi / lo) * workloads.PACKING_BANDS
                return (len(op["axes"]), min(int(band), workloads.PACKING_BANDS - 1))
            return op.get("n_nodes", op.get("name"))
        for workload in workloads.WORKLOADS:
            n = workloads.OPS[workload]
            a = sorted(map(str, map(shape, workloads.make_ops(workload, 1, n))))
            b = sorted(map(str, map(shape, workloads.make_ops(workload, 2, n))))
            self.assertEqual(a, b, workload)


if __name__ == "__main__":
    unittest.main()
