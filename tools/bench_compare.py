#!/usr/bin/env python3
"""Compare a bench JSON report against a committed baseline.

The bench binaries emit schema-versioned reports (see bench_util.hh /
tools/validate_report.py). This tool diffs the headline metrics of a
fresh report against a baseline committed under bench/baselines/ and
fails when a metric regressed beyond its threshold, giving CI a
perf-regression gate.

Two metric families are treated differently:

* Latency percentiles (modeled cycles for the hardware decoders, so
  deterministic given seed and thread count; wall-clock for software
  baselines, so noisy). A relative increase beyond the per-metric
  threshold fails; improvements always pass.
* Rates backed by event counts (ler, gave_ups). These are Monte-Carlo
  estimates: with fewer than --min-count events in both runs the
  comparison is skipped as statistically meaningless, otherwise a
  relative increase beyond the threshold fails.

Results are matched between the two reports by their "d" entry when
present, by position otherwise. A metric present in the baseline but
missing from the current report fails the gate: silently dropping a
metric is exactly the kind of regression this tool exists to catch.
That guarantee is structural, not list-based: after the per-metric
comparisons, every leaf field of each baseline result must still
exist in the current report (histogram bins and the host-dependent
"perf" block excepted), so a renamed or dropped field fails even if
it was never in DEFAULT_METRICS.

Hardware perf-counter metrics (perf.ipc, perf.llc_miss_rate) are
gated only when both reports were collected with working counters
(perf.available true on both sides); a run on a locked-down host
skips them instead of failing.

Optional kernel columns (the simd microbench columns and the
per-tier avx2/avx512 throughput blocks) are emitted as JSON null on
hosts that lack the instruction set; when either side of the
comparison lacks such a value, the metric is skipped rather than
failed, and the structural coverage check exempts it.

Exit codes: 0 pass, 1 regression (or missing metric), 2 usage/IO error.

Usage:
    bench_compare.py --baseline bench/baselines/astrea_latency.json \
        --current astrea_report.json [--threshold 0.15]
        [--metric latency_ns.p99=0.10] [--min-count 10]
"""

import argparse
import json
import sys

# Metrics compared by default: (dotted path, kind). Only paths present
# in the baseline are checked, so one list serves every bench schema.
# Kinds: "latency" (relative limit --threshold), "rate" (relative limit
# --rate-threshold, skipped below --min-count events), "exact" (must
# match bit-for-bit: these are deterministic given seed and threads),
# "speedup" (a ratio that must not FALL more than --speedup-threshold
# below the baseline; increases always pass).
DEFAULT_METRICS = [
    # Memory-experiment reports (results array, e.g. astrea_latency).
    ("latency_ns.p50", "latency"),
    ("latency_ns.p90", "latency"),
    ("latency_ns.p99", "latency"),
    ("latency_nontrivial_ns.p99", "latency"),
    ("ler", "rate"),
    ("gave_ups", "rate"),
    # Wall-clock distribution reports (results object, e.g.
    # blossom_latency).
    ("samples", "exact"),
    ("mean_ns", "latency"),
    ("p50_ns", "latency"),
    ("p90_ns", "latency"),
    ("p99_ns", "latency"),
    ("fraction_above_1us", "latency"),
    # Kernel microbench reports (results array keyed by "m", e.g.
    # matching_micro).
    ("rows", "exact"),
    ("legacy_ns", "latency"),
    ("scalar_ns", "latency"),
    ("simd_ns", "latency"),
    ("speedup_scalar", "speedup"),
    ("speedup_simd", "speedup"),
    # Decode-throughput macro-bench (results array keyed by "d",
    # per-kernel-tier blocks; decodes/sec and the batched-vs-single
    # ratio are floors).
    ("scalar.single_per_sec", "speedup"),
    ("scalar.batched_per_sec", "speedup"),
    ("scalar.batched_vs_single", "speedup"),
    ("avx2.single_per_sec", "speedup"),
    ("avx2.batched_per_sec", "speedup"),
    ("avx2.batched_vs_single", "speedup"),
    ("avx512.single_per_sec", "speedup"),
    ("avx512.batched_per_sec", "speedup"),
    ("avx512.batched_vs_single", "speedup"),
    # Fleet saturation macro-bench (results array keyed by "case" =
    # STREAMSxSHARDS). Throughput and the fleet-vs-synchronous ratio
    # are floors; the client-observed ingest latency percentiles are
    # ceilings.
    ("shots_per_sec", "speedup"),
    ("single_per_sec", "speedup"),
    ("fleet_vs_single", "speedup"),
    ("p50_ingest_ns", "latency"),
    ("p99_ingest_ns", "latency"),
    # Hardware perf counters (reports run with --perf-counters on a
    # perf-capable host). IPC is a floor, the LLC miss rate a ceiling;
    # both are skipped unless perf.available is true in BOTH reports.
    ("perf.ipc", "perf_floor"),
    ("perf.llc_miss_rate", "perf_ceiling"),
]

# Event-count fields guarding each rate metric (noise gate).
RATE_COUNT_FIELDS = {
    "ler": "logical_errors",
    "gave_ups": "gave_ups",
}

# Optional kernel columns: benches emit these as null (or an entire
# null block) on hosts that lack the instruction set. When either side
# of the comparison lacks the value, the metric is skipped rather than
# failed — "not measured here" is not a regression. They are likewise
# exempt from the structural coverage check.
OPTIONAL_METRIC_PREFIXES = (
    "simd_ns",
    "speedup_simd",
    "avx2",
    "avx512",
)


def is_optional_metric(path):
    return any(path == p or path.startswith(p + ".")
               for p in OPTIONAL_METRIC_PREFIXES)

# Subtrees exempt from the structural coverage check: histogram bin
# keys are data-dependent (which Hamming weights a run happens to
# sample), and the perf block depends on host counter access.
COVERAGE_EXEMPT_PREFIXES = (
    "hw_histogram.bins",
    "gave_up_hw.bins",
    "perf",
)


def leaf_paths(obj, prefix=""):
    """Yield the dotted path of every non-dict leaf under obj."""
    if not isinstance(obj, dict):
        yield prefix
        return
    for key, value in obj.items():
        sub = "%s.%s" % (prefix, key) if prefix else key
        for path in leaf_paths(value, sub):
            yield path


def check_coverage(label, base_res, cur_res, checked, failures,
                   lines):
    """Fail when any baseline leaf vanished from the current result.

    `checked` paths were already compared (and failed loudly if
    missing) by compare_metric; exempt subtrees are data- or
    host-dependent. Everything else present in the baseline must
    still exist: a silently dropped field is a regression.
    """
    missing = []
    for path in leaf_paths(base_res):
        if path in checked:
            continue
        if any(path == p or path.startswith(p + ".")
               for p in COVERAGE_EXEMPT_PREFIXES):
            continue
        if is_optional_metric(path):
            continue
        if lookup(cur_res, path) is None:
            missing.append(path)
    for path in sorted(missing):
        failures.append(
            "%s %s: present in baseline but missing from current "
            "report" % (label, path))
        lines.append("  %-28s baseline field MISSING from current "
                     "report  FAIL" % path)


def lookup(obj, dotted):
    """Resolve a dotted path; None when any component is missing."""
    node = obj
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


# Keys identifying a result row, tried in order: decoding distance for
# the memory-experiment benches, tile node count for the kernel
# microbenches, the STREAMSxSHARDS case name for the fleet saturation
# bench.
RESULT_KEYS = ("d", "m", "case")


def result_key(result):
    if isinstance(result, dict):
        for key in RESULT_KEYS:
            if key in result:
                return key
    return None


def result_label(result, index):
    key = result_key(result)
    if key is not None:
        return "%s=%s" % (key, result[key])
    return "result[%d]" % index


def match_results(baseline, current):
    """Pair up result entries by "d"/"m" when present, else by index."""
    base_list = baseline.get("results", [])
    cur_list = current.get("results", [])
    # Single-result benches emit one results object instead of a list.
    if isinstance(base_list, dict):
        return [("results", base_list,
                 cur_list if isinstance(cur_list, dict) else None)]
    cur_by_key = {
        (result_key(r), r[result_key(r)]): r
        for r in cur_list if result_key(r) is not None
    }
    pairs = []
    for i, base in enumerate(base_list):
        key = result_key(base)
        if key is not None:
            pairs.append((result_label(base, i), base,
                          cur_by_key.get((key, base[key]))))
        else:
            cur = cur_list[i] if i < len(cur_list) else None
            pairs.append((result_label(base, i), base, cur))
    return pairs


def compare_metric(label, path, kind, threshold, base_res, cur_res,
                   min_count, failures, lines):
    if kind in ("perf_floor", "perf_ceiling"):
        # Counter-derived metrics only compare when both runs had
        # working counters; a locked-down host is not a regression.
        base_avail = lookup(base_res, "perf.available")
        cur_avail = (lookup(cur_res, "perf.available")
                     if cur_res is not None else None)
        if base_avail is not True or cur_avail is not True:
            lines.append(
                "  %-28s skip (perf counters unavailable)" % path)
            return

    base_val = lookup(base_res, path)
    if base_val is None:
        # The baseline never had this metric; nothing to guard.
        return
    cur_val = lookup(cur_res, path) if cur_res is not None else None
    if cur_val is None:
        if is_optional_metric(path):
            lines.append(
                "  %-28s %12g -> null  skip (optional kernel column "
                "absent)" % (path, base_val))
            return
        failures.append("%s %s: missing from current report" %
                        (label, path))
        lines.append("  %-28s %12g -> MISSING  FAIL" %
                     (path, base_val))
        return

    if kind == "rate":
        count_field = RATE_COUNT_FIELDS.get(path.split(".")[0])
        if count_field is not None:
            base_n = base_res.get(count_field, 0)
            cur_n = cur_res.get(count_field, 0)
            if base_n < min_count and cur_n < min_count:
                lines.append(
                    "  %-28s %12g -> %-12g skip (<%d events)" %
                    (path, base_val, cur_val, min_count))
                return

    if kind == "exact":
        regressed = cur_val != base_val
        delta_text = "changed" if regressed else "identical"
        verdict = "FAIL" if regressed else "ok"
        lines.append("  %-28s %12g -> %-12g %s (%s, exact)" %
                     (path, base_val, cur_val, delta_text, verdict))
        if regressed:
            failures.append(
                "%s %s: %g -> %g (deterministic metric changed)" %
                (label, path, base_val, cur_val))
        return

    if kind in ("speedup", "perf_floor"):
        # A speedup (or IPC) is a floor: falling below the baseline
        # beyond the threshold fails, getting faster always passes.
        if base_val <= 0:
            return
        delta = (cur_val - base_val) / base_val
        regressed = delta < -threshold
        verdict = "FAIL" if regressed else "ok"
        lines.append("  %-28s %12g -> %-12g %+.1f%% (%s, limit "
                     "-%.0f%%)" %
                     (path, base_val, cur_val, 100.0 * delta, verdict,
                      100.0 * threshold))
        if regressed:
            failures.append("%s %s: %gx -> %gx fell more than %.0f%%" %
                            (label, path, base_val, cur_val,
                             100.0 * threshold))
        return

    if base_val <= 0:
        regressed = cur_val > 0
        delta_text = "new-nonzero" if regressed else "ok"
    else:
        delta = (cur_val - base_val) / base_val
        regressed = delta > threshold
        delta_text = "%+.1f%%" % (100.0 * delta)

    verdict = "FAIL" if regressed else "ok"
    lines.append("  %-28s %12g -> %-12g %s (%s, limit +%.0f%%)" %
                 (path, base_val, cur_val, delta_text, verdict,
                  100.0 * threshold))
    if regressed:
        failures.append("%s %s: %g -> %g exceeds +%.0f%%" %
                        (label, path, base_val, cur_val,
                         100.0 * threshold))


def parse_metric_overrides(specs):
    overrides = {}
    for spec in specs:
        if "=" not in spec:
            raise ValueError(
                "--metric expects PATH=THRESHOLD, got %r" % spec)
        path, _, value = spec.partition("=")
        overrides[path] = float(value)
    return overrides


def load_report(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff a bench report against a baseline.")
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative limit for latency metrics "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--rate-threshold", type=float, default=0.25,
                        help="relative limit for rate metrics "
                             "(default 0.25)")
    parser.add_argument("--speedup-threshold", type=float, default=0.30,
                        help="how far a speedup ratio may fall below "
                             "its baseline (default 0.30 = -30%%)")
    parser.add_argument("--perf-threshold", type=float, default=0.25,
                        help="relative limit for hardware perf-counter "
                             "metrics (default 0.25)")
    parser.add_argument("--min-count", type=int, default=10,
                        help="skip rate metrics when both runs saw "
                             "fewer events than this (default 10)")
    parser.add_argument("--metric", action="append", default=[],
                        metavar="PATH=THRESHOLD",
                        help="override one metric's threshold; "
                             "repeatable")
    args = parser.parse_args(argv)

    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
        overrides = parse_metric_overrides(args.metric)
    except (OSError, ValueError) as exc:
        print("bench_compare: %s" % exc, file=sys.stderr)
        return 2

    if baseline.get("bench") != current.get("bench"):
        print("bench_compare: comparing different benches: %r vs %r" %
              (baseline.get("bench"), current.get("bench")),
              file=sys.stderr)
        return 2

    failures = []
    print("bench_compare: %s (baseline %s vs current %s)" %
          (baseline.get("bench"), args.baseline, args.current))
    pairs = match_results(baseline, current)
    if not pairs:
        print("bench_compare: baseline has no results", file=sys.stderr)
        return 2
    for label, base_res, cur_res in pairs:
        print("%s:" % label)
        if cur_res is None:
            failures.append("%s: missing from current report" % label)
            print("  MISSING from current report  FAIL")
            continue
        lines = []
        for path, kind in DEFAULT_METRICS:
            if kind == "latency":
                default = args.threshold
            elif kind == "speedup":
                default = args.speedup_threshold
            elif kind in ("perf_floor", "perf_ceiling"):
                default = args.perf_threshold
            else:
                default = args.rate_threshold
            threshold = overrides.get(path, default)
            compare_metric(label, path, kind, threshold, base_res,
                           cur_res, args.min_count, failures, lines)
        checked = {path for path, _ in DEFAULT_METRICS}
        check_coverage(label, base_res, cur_res, checked, failures,
                       lines)
        for line in lines:
            print(line)

    if failures:
        print("\nbench_compare: %d regression(s):" % len(failures))
        for failure in failures:
            print("  " + failure)
        return 1
    print("\nbench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
