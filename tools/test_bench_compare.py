#!/usr/bin/env python3
"""Unit tests for bench_compare.py (run by ctest as a python test).

These exercise the gate logic itself — threshold math, missing-metric
failures, min-count noise gating, exact metrics and result matching —
against synthetic reports written to a temp directory, so the perf gate
in CI is itself regression-tested.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare


def memory_report(bench="astrea_latency", **overrides):
    """One results-array report entry in the memory-experiment shape."""
    result = {
        "d": 9,
        "shots": 20000,
        "logical_errors": 120,
        "ler": 6e-3,
        "gave_ups": 40,
        "latency_ns": {"p50": 400.0, "p90": 600.0, "p99": 800.0},
        "latency_nontrivial_ns": {"p99": 900.0},
    }
    result.update(overrides)
    return {"bench": bench, "schema_version": 1, "results": [result]}


def blossom_report(**overrides):
    """A results-object report in the wall-clock distribution shape."""
    result = {
        "samples": 1523,
        "mean_ns": 9000.0,
        "p50_ns": 7000.0,
        "p90_ns": 20000.0,
        "p99_ns": 52000.0,
        "fraction_above_1us": 1.0,
    }
    result.update(overrides)
    return {"bench": "blossom_latency", "schema_version": 1,
            "results": result}


def micro_report(**overrides):
    """One kernel-microbench entry in the matching_micro shape."""
    result = {
        "m": 10,
        "rows": 945,
        "legacy_ns": 40000.0,
        "scalar_ns": 4000.0,
        "simd_ns": 1000.0,
        "speedup_scalar": 10.0,
        "speedup_simd": 40.0,
    }
    result.update(overrides)
    return {"bench": "matching_micro", "schema_version": 1,
            "results": [result]}


def throughput_report(**overrides):
    """One decode-throughput entry with per-kernel-tier blocks."""
    tier = {"single_ns": 400.0, "batched_ns": 150.0,
            "single_per_sec": 2.5e6, "batched_per_sec": 6.6e6,
            "batched_vs_single": 2.64}
    result = {
        "d": 7,
        "shots": 8192,
        "scalar": dict(tier),
        "avx2": dict(tier),
        "avx512": dict(tier),
    }
    result.update(overrides)
    return {"bench": "decode_throughput", "schema_version": 1,
            "results": [result]}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, report):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(report, f)
        return path

    def run_compare(self, baseline, current, extra=None):
        argv = ["--baseline", self.write("base.json", baseline),
                "--current", self.write("cur.json", current)]
        return bench_compare.main(argv + (extra or []))

    def test_identical_reports_pass(self):
        self.assertEqual(
            self.run_compare(memory_report(), memory_report()), 0)

    def test_improvement_passes(self):
        faster = memory_report(
            latency_ns={"p50": 300.0, "p90": 500.0, "p99": 700.0})
        self.assertEqual(
            self.run_compare(memory_report(), faster), 0)

    def test_within_threshold_passes(self):
        near = memory_report(
            latency_ns={"p50": 400.0, "p90": 600.0, "p99": 880.0})
        self.assertEqual(
            self.run_compare(memory_report(), near), 0)

    def test_p99_regression_fails(self):
        slow = memory_report(
            latency_ns={"p50": 400.0, "p90": 600.0, "p99": 1000.0})
        self.assertEqual(
            self.run_compare(memory_report(), slow), 1)

    def test_metric_override_tightens_threshold(self):
        near = memory_report(
            latency_ns={"p50": 400.0, "p90": 600.0, "p99": 880.0})
        self.assertEqual(
            self.run_compare(memory_report(), near,
                             ["--metric", "latency_ns.p99=0.05"]), 1)

    def test_missing_metric_fails(self):
        gutted = memory_report()
        del gutted["results"][0]["latency_ns"]["p99"]
        self.assertEqual(
            self.run_compare(memory_report(), gutted), 1)

    def test_missing_result_row_fails(self):
        empty = dict(memory_report(), results=[])
        self.assertEqual(
            self.run_compare(memory_report(), empty), 1)

    def test_ler_regression_fails(self):
        worse = memory_report(ler=9e-3, logical_errors=180)
        self.assertEqual(
            self.run_compare(memory_report(), worse), 1)

    def test_low_count_rate_is_skipped(self):
        # 3 vs 9 logical errors is a 3x "regression" but statistically
        # meaningless; both sides below --min-count must be skipped.
        base = memory_report(ler=1.5e-4, logical_errors=3)
        cur = memory_report(ler=4.5e-4, logical_errors=9)
        self.assertEqual(self.run_compare(base, cur), 0)
        # But once either side has enough events, the gate applies.
        cur_big = memory_report(ler=4.5e-4, logical_errors=90)
        self.assertEqual(self.run_compare(base, cur_big), 1)

    def test_exact_metric_fails_on_any_change(self):
        base = blossom_report()
        cur = blossom_report(samples=1524)
        self.assertEqual(self.run_compare(base, cur), 1)

    def test_blossom_within_loose_threshold_passes(self):
        cur = blossom_report(p99_ns=80000.0, mean_ns=15000.0,
                             p50_ns=9000.0, p90_ns=30000.0)
        self.assertEqual(
            self.run_compare(blossom_report(), cur,
                             ["--threshold", "3.0"]), 0)

    def test_zero_baseline_fails_on_new_nonzero(self):
        base = memory_report(gave_ups=0)
        cur = memory_report(gave_ups=25)
        self.assertEqual(self.run_compare(base, cur), 1)

    def test_bench_name_mismatch_is_usage_error(self):
        self.assertEqual(
            self.run_compare(memory_report(), blossom_report()), 2)

    def test_speedup_increase_passes(self):
        cur = micro_report(speedup_simd=80.0, speedup_scalar=20.0)
        self.assertEqual(self.run_compare(micro_report(), cur), 0)

    def test_speedup_within_threshold_passes(self):
        # -20% is inside the default -30% floor.
        cur = micro_report(speedup_simd=32.0)
        self.assertEqual(self.run_compare(micro_report(), cur), 0)

    def test_speedup_collapse_fails(self):
        cur = micro_report(speedup_simd=10.0)
        self.assertEqual(self.run_compare(micro_report(), cur), 1)

    def test_speedup_threshold_flag_loosens_floor(self):
        cur = micro_report(speedup_simd=10.0)
        self.assertEqual(
            self.run_compare(micro_report(), cur,
                             ["--speedup-threshold", "0.9"]), 0)

    def test_kernel_rows_are_exact(self):
        cur = micro_report(rows=944)
        self.assertEqual(self.run_compare(micro_report(), cur), 1)

    def test_results_matched_by_m(self):
        base = micro_report()
        base["results"].append(dict(base["results"][0], m=8, rows=105))
        cur = micro_report()
        cur["results"].append(dict(cur["results"][0], m=8, rows=105))
        cur["results"].reverse()
        self.assertEqual(self.run_compare(base, cur), 0)

    def test_dropped_unlisted_field_fails_coverage(self):
        # "shots" is not in DEFAULT_METRICS; dropping it must still
        # fail — the coverage walk catches silently removed fields.
        gutted = memory_report()
        del gutted["results"][0]["shots"]
        self.assertEqual(
            self.run_compare(memory_report(), gutted), 1)

    def test_dropped_nested_unlisted_field_fails_coverage(self):
        gutted = memory_report()
        del gutted["results"][0]["latency_ns"]["p90"]
        # p90 IS listed; also drop an unlisted nested sibling to prove
        # the walk reaches nested objects.
        base = memory_report()
        base["results"][0]["latency_ns"]["overflow"] = 0
        self.assertEqual(self.run_compare(base, gutted), 1)

    def test_extra_current_fields_pass_coverage(self):
        # New fields in the current report are fine (the baseline will
        # pick them up when regenerated).
        grown = memory_report()
        grown["results"][0]["new_metric"] = 1.0
        self.assertEqual(
            self.run_compare(memory_report(), grown), 0)

    def test_histogram_bins_exempt_from_coverage(self):
        # Bin keys are data-dependent: a different sampled HW mix must
        # not fail the structural check.
        base = memory_report()
        base["results"][0]["hw_histogram"] = {
            "total": 100, "bins": {"1": 50, "6": 2}}
        cur = memory_report()
        cur["results"][0]["hw_histogram"] = {
            "total": 100, "bins": {"1": 52}}
        self.assertEqual(self.run_compare(base, cur), 0)

    def perf_block(self, available=True, ipc=1.5, llc=0.02):
        if not available:
            return {"available": False, "counters_enabled": True,
                    "stage_stride": 64, "stages": {}}
        return {"available": True, "counters_enabled": True,
                "stage_stride": 64, "ipc": ipc, "llc_miss_rate": llc,
                "cycles_per_shot": 900.0, "stages": {}}

    def test_perf_skipped_when_baseline_unavailable(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(available=False)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(ipc=0.1, llc=0.9)
        self.assertEqual(self.run_compare(base, cur), 0)

    def test_perf_skipped_when_current_unavailable(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block()
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(available=False)
        self.assertEqual(self.run_compare(base, cur), 0)

    def test_perf_block_absence_is_not_a_regression(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block()
        self.assertEqual(self.run_compare(base, memory_report()), 0)

    def test_ipc_floor_fails_on_collapse(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(ipc=2.0)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(ipc=1.0)
        self.assertEqual(self.run_compare(base, cur), 1)

    def test_ipc_within_threshold_passes(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(ipc=2.0)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(ipc=1.8)
        self.assertEqual(self.run_compare(base, cur), 0)

    def test_ipc_increase_passes(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(ipc=1.0)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(ipc=3.0)
        self.assertEqual(self.run_compare(base, cur), 0)

    def test_llc_miss_rate_ceiling_fails_on_jump(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(llc=0.02)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(llc=0.10)
        self.assertEqual(self.run_compare(base, cur), 1)

    def test_llc_miss_rate_improvement_passes(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(llc=0.10)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(llc=0.02)
        self.assertEqual(self.run_compare(base, cur), 0)

    def test_perf_threshold_flag_loosens_gate(self):
        base = memory_report()
        base["results"][0]["perf"] = self.perf_block(ipc=2.0)
        cur = memory_report()
        cur["results"][0]["perf"] = self.perf_block(ipc=1.0)
        self.assertEqual(
            self.run_compare(base, cur, ["--perf-threshold", "0.6"]),
            0)

    def test_null_simd_column_is_skipped(self):
        # Baseline measured AVX2; current host lacks it and emits
        # null. Optional kernel columns skip instead of failing.
        cur = micro_report(simd_ns=None, speedup_simd=None)
        self.assertEqual(self.run_compare(micro_report(), cur), 0)

    def test_absent_simd_column_is_skipped(self):
        cur = micro_report()
        del cur["results"][0]["simd_ns"]
        del cur["results"][0]["speedup_simd"]
        self.assertEqual(self.run_compare(micro_report(), cur), 0)

    def test_present_simd_column_still_gated(self):
        cur = micro_report(speedup_simd=10.0)
        self.assertEqual(self.run_compare(micro_report(), cur), 1)

    def test_throughput_identical_passes(self):
        self.assertEqual(
            self.run_compare(throughput_report(), throughput_report()),
            0)

    def test_throughput_batched_collapse_fails(self):
        cur = throughput_report()
        cur["results"][0]["avx2"] = dict(
            cur["results"][0]["avx2"],
            batched_per_sec=2.5e6, batched_vs_single=1.0)
        self.assertEqual(
            self.run_compare(throughput_report(), cur), 1)

    def test_throughput_null_tier_block_is_skipped(self):
        # A host without AVX-512 emits the whole tier block as null;
        # the per-metric checks and the coverage walk both skip it.
        cur = throughput_report(avx512=None)
        self.assertEqual(
            self.run_compare(throughput_report(), cur), 0)

    def test_throughput_scalar_tier_is_required(self):
        # The scalar tier is not optional: dropping it must fail.
        cur = throughput_report(scalar=None)
        self.assertEqual(
            self.run_compare(throughput_report(), cur), 1)

    def test_results_matched_by_distance_not_order(self):
        base = memory_report()
        base["results"].append(
            dict(base["results"][0], d=11,
                 latency_ns={"p50": 500.0, "p90": 700.0, "p99": 900.0}))
        cur = memory_report()
        cur["results"].append(
            dict(cur["results"][0], d=11,
                 latency_ns={"p50": 500.0, "p90": 700.0, "p99": 900.0}))
        cur["results"].reverse()
        self.assertEqual(self.run_compare(base, cur), 0)


if __name__ == "__main__":
    unittest.main()
