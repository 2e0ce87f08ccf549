"""Tests of the benchmark definition and its Python helpers.

Run with `python3 perfbench/run.py --self-test` (which also builds the
binary these tests drive) or, once built, with
`python3 -m unittest discover -s perfbench/tests`.
"""

import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import steady  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ContractShape(unittest.TestCase):
    def test_keys_and_limits(self):
        c = contract()
        self.assertEqual(set(c), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= c["run_seconds"] <= 60)
        self.assertTrue(2 <= len(c["workloads"]) <= 8)
        for w in c["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        names = [w["name"] for w in c["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        for m in c["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in c["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        metrics = c["end_to_end"] + c["per_layer"]
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        all_names = names + [m["name"] for m in metrics]
        self.assertEqual(len(all_names), len(set(all_names)))
        setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in c["end_to_end"]))

    def test_paths_hold_only_the_benchmark(self):
        c = contract()
        self.assertEqual(c["paths"], ["perfbench"])
        for arg in c["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg)


class PrintedMetricsMatchContract(unittest.TestCase):
    """Every metric the binary prints is in BENCHMARK.json with its unit
    (and nothing is missing), for every workload in both modes."""

    def test_every_workload_and_mode(self):
        c = contract()
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, details, result = run.run_once(workload, 1, 1,
                                                         trace)
                    self.assertEqual(code, 0, "\n".join(details))
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        run.contract_errors(result, c, trace), [])
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class SteadyMath(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 12.0]
        q1, med, q3 = steady.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(steady.spread(values), (q3 - q1) / med)

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(steady.worsening(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(steady.worsening(100, 90, "lower"), -0.1)
        self.assertAlmostEqual(steady.worsening(100, 90, "higher"), 0.1)
        self.assertAlmostEqual(steady.worsening(100, 110, "higher"), -0.1)


if __name__ == "__main__":
    unittest.main()
