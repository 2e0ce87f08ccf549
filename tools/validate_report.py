#!/usr/bin/env python3
"""Validate a bench --json-out report against the expected schema.

Usage: validate_report.py [--require-audit] REPORT.json [...]

Checks that each file parses as JSON and carries the standard envelope
written by bench_util.hh (beginBenchReport/finishBenchReport):

  {
    "bench": "<id>",
    "schema_version": 1,
    "config": { ... },
    "results": [...] or { ... },
    "metrics": {
      "counters": {...}, "gauges": {...},
      "int_histograms": {...}, "latency_histograms": {...}
    }
  }

Files whose top level carries a "service" key are instead validated
against the decode service's /statusz schema (DecodeServiceCore::
statuszJson), so CI can point this script at a scraped snapshot.
Schema version 1 (no auditor), 2 (with an "audit" object), 3 (adds a
"perf" object with hardware-counter attribution), 4 (adds a
"trace_store" object for the tail-sampled decode tracer) and 5 (adds
an always-present "fleet" object for the sharded ingest fleet;
enabled:false when serve runs without --fleet) are all accepted;
--require-audit additionally demands schema >= 2 with a running
auditor that completed at least one audit and dropped no samples.

Exits nonzero with a message on the first violation, so CI fails when a
bench silently stops producing valid reports.
"""

import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_audit(path, audit, require_audit):
    """Validate the statusz 'audit' object (schema version 2)."""
    if not isinstance(audit, dict):
        fail(path, "'audit' must be an object")
    for key in ("enabled", "rate", "offered", "sampled", "completed",
                "queue_depth", "queue_capacity", "queue_drops",
                "oversize_drops", "optimal", "suboptimal",
                "observable_mismatches", "optimality_rate",
                "give_ups_offered", "give_ups_audited",
                "give_up_oracle_success", "give_up_coverage",
                "captures"):
        if key not in audit:
            fail(path, f"audit missing '{key}'")
    for key in ("offered", "sampled", "completed", "queue_drops",
                "oversize_drops", "optimal", "suboptimal",
                "observable_mismatches", "captures"):
        v = audit[key]
        if not isinstance(v, int) or v < 0:
            fail(path, f"audit.{key} must be a non-negative integer")
    rate = audit["optimality_rate"]
    if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
        fail(path, "audit.optimality_rate must be in [0, 1]")
    if require_audit:
        if not audit["enabled"]:
            fail(path, "audit.enabled is false (--require-audit)")
        if audit["completed"] < 1:
            fail(path, "audit.completed is 0 (--require-audit)")
        if audit["queue_drops"] != 0:
            fail(path, f"audit.queue_drops is "
                       f"{audit['queue_drops']} (--require-audit)")


def validate_perf(path, perf):
    """Validate the statusz 'perf' object (schema version 3)."""
    if not isinstance(perf, dict):
        fail(path, "'perf' must be an object")
    for key in ("counters_enabled", "available", "stage_stride",
                "stages"):
        if key not in perf:
            fail(path, f"perf missing '{key}'")
    for key in ("counters_enabled", "available"):
        if not isinstance(perf[key], bool):
            fail(path, f"perf.{key} must be a bool")
    # A degradation reason is only required when counters were actually
    # requested: with --perf-counters off the layer never probes, so
    # "available: false" with no reason is the normal idle state.
    if (perf["counters_enabled"] and not perf["available"]
            and "reason" not in perf):
        fail(path, "perf unavailable but no 'reason' given")
    if not isinstance(perf["stages"], dict):
        fail(path, "perf.stages must be an object")
    for stage, t in perf["stages"].items():
        for key in ("sections", "shots", "cycles", "instructions",
                    "ipc", "llc_miss_rate", "cycles_per_shot"):
            if key not in t:
                fail(path, f"perf.stages.{stage} missing '{key}'")


def validate_trace_store(path, trace):
    """Validate the statusz 'trace_store' object (schema version 4)."""
    if not isinstance(trace, dict):
        fail(path, "'trace_store' must be an object")
    for key in ("enabled", "considered", "kept", "dropped", "evicted",
                "spans_dropped", "occupancy", "capacity",
                "tail_threshold_ns", "tail_effective_ns",
                "head_stride"):
        if key not in trace:
            fail(path, f"trace_store missing '{key}'")
    if not isinstance(trace["enabled"], bool):
        fail(path, "trace_store.enabled must be a bool")
    for key in ("considered", "kept", "dropped", "evicted",
                "spans_dropped", "occupancy", "capacity",
                "head_stride"):
        v = trace[key]
        if not isinstance(v, int) or v < 0:
            fail(path,
                 f"trace_store.{key} must be a non-negative integer")
    if trace["occupancy"] > trace["capacity"]:
        fail(path, "trace_store.occupancy exceeds capacity")
    for key in ("tail_threshold_ns", "tail_effective_ns"):
        v = trace[key]
        if not isinstance(v, (int, float)) or v < 0:
            fail(path, f"trace_store.{key} must be >= 0")


def validate_fleet(path, fleet, schema):
    """Validate the statusz 'fleet' object (schema version >= 5).

    Schema 6 dropped 'max_delay_ns' with the fleet's age-based flush.
    """
    if not isinstance(fleet, dict):
        fail(path, "'fleet' must be an object")
    if "enabled" not in fleet:
        fail(path, "fleet missing 'enabled'")
    if not isinstance(fleet["enabled"], bool):
        fail(path, "fleet.enabled must be a bool")
    if not fleet["enabled"]:
        return  # serve without --fleet: just the enabled flag.
    keys = ["shards", "ring_capacity", "max_batch",
            "shed_low_watermark", "shed_high_watermark",
            "max_priority", "connections", "frames",
            "malformed_frames", "enqueued", "shed", "ring_full",
            "coalesced_batches", "decoded_shots", "queue_depths"]
    if schema == 5:
        keys.append("max_delay_ns")
    for key in keys:
        if key not in fleet:
            fail(path, f"fleet missing '{key}'")
    for key in ("shards", "ring_capacity", "max_batch", "max_priority",
                "connections", "frames", "malformed_frames",
                "enqueued", "shed", "ring_full", "coalesced_batches",
                "decoded_shots"):
        v = fleet[key]
        if not isinstance(v, int) or v < 0:
            fail(path, f"fleet.{key} must be a non-negative integer")
    if fleet["shards"] < 1:
        fail(path, "fleet.shards must be >= 1")
    for key in ("shed_low_watermark", "shed_high_watermark"):
        v = fleet[key]
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            fail(path, f"fleet.{key} must be a fraction in [0, 1]")
    depths = fleet["queue_depths"]
    if not isinstance(depths, list) or len(depths) != fleet["shards"]:
        fail(path, "fleet.queue_depths must be an array with one "
                   "entry per shard")
    for i, v in enumerate(depths):
        if not isinstance(v, int) or v < 0:
            fail(path, f"fleet.queue_depths[{i}] must be a "
                       f"non-negative integer")


def validate_statusz(path, doc, require_audit=False):
    """Validate a decode-service /statusz snapshot."""
    if doc.get("service") != "astrea_serve":
        fail(path, f"unknown service {doc.get('service')!r}")
    schema = doc.get("schema_version")
    if schema not in (1, 2, 3, 4, 5, 6):
        fail(path, f"unknown schema_version {schema!r}")
    if require_audit and schema < 2:
        fail(path, "--require-audit needs schema_version >= 2")
    for key in ("healthy", "uptime_ticks", "config", "totals",
                "window", "slo", "drift"):
        if key not in doc:
            fail(path, f"missing top-level key '{key}'")
    if schema >= 2:
        if "audit" not in doc:
            fail(path, "schema_version 2 requires an 'audit' object")
        validate_audit(path, doc["audit"], require_audit)
    if schema >= 3:
        if "perf" not in doc:
            fail(path, "schema_version 3 requires a 'perf' object")
        validate_perf(path, doc["perf"])
    if schema >= 4:
        if "trace_store" not in doc:
            fail(path,
                 "schema_version 4 requires a 'trace_store' object")
        validate_trace_store(path, doc["trace_store"])
    if schema >= 5:
        if "fleet" not in doc:
            fail(path, "schema_version 5 requires a 'fleet' object")
        validate_fleet(path, doc["fleet"], schema)

    config = doc["config"]
    for key in ("d", "p", "decoder", "workers", "budget_ns",
                "slo_target", "window_seconds"):
        if key not in config:
            fail(path, f"config missing '{key}'")

    totals = doc["totals"]
    for key in ("decodes", "nontrivial_decodes", "logical_errors",
                "give_ups", "deadline_misses"):
        if key not in totals:
            fail(path, f"totals missing '{key}'")
        if not isinstance(totals[key], int) or totals[key] < 0:
            fail(path, f"totals.{key} must be a non-negative integer")

    window = doc["window"]
    for key in ("decodes", "decode_rate_hz", "deadline_miss_fraction",
                "give_up_fraction", "logical_error_fraction",
                "latency_ns"):
        if key not in window:
            fail(path, f"window missing '{key}'")
    for key in ("count", "p50", "p90", "p99", "p999"):
        if key not in window["latency_ns"]:
            fail(path, f"window.latency_ns missing '{key}'")
    for key in ("deadline_miss_fraction", "give_up_fraction",
                "logical_error_fraction"):
        v = window[key]
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            fail(path, f"window.{key} must be a fraction in [0, 1]")

    for key in ("target", "error_budget", "fast_burn", "slow_burn"):
        if key not in doc["slo"]:
            fail(path, f"slo missing '{key}'")
    for key in ("chi_square", "threshold", "baseline_ready",
                "alarmed"):
        if key not in doc["drift"]:
            fail(path, f"drift missing '{key}'")
    chi = doc["drift"]["chi_square"]
    if not isinstance(chi, (int, float)) or not 0.0 <= chi <= 1.0:
        fail(path, "drift.chi_square must be in [0, 1]")

    print(f"{path}: ok (service={doc['service']}, "
          f"decodes={totals['decodes']})")


def validate(path, require_audit=False):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"not readable as JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "top level is not an object")

    if "service" in doc:
        validate_statusz(path, doc, require_audit)
        return
    if require_audit:
        fail(path, "--require-audit only applies to /statusz "
                   "snapshots")

    for key in ("bench", "schema_version", "config", "results",
                "metrics"):
        if key not in doc:
            fail(path, f"missing top-level key '{key}'")

    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail(path, "'bench' must be a nonempty string")
    if doc["schema_version"] != 1:
        fail(path, f"unknown schema_version {doc['schema_version']!r}")
    if not isinstance(doc["config"], dict):
        fail(path, "'config' must be an object")
    if not isinstance(doc["results"], (dict, list)):
        fail(path, "'results' must be an object or array")

    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        fail(path, "'metrics' must be an object")
    for section in ("counters", "gauges", "int_histograms",
                    "latency_histograms"):
        if section not in metrics:
            fail(path, f"metrics missing section '{section}'")
        if not isinstance(metrics[section], dict):
            fail(path, f"metrics section '{section}' is not an object")

    for name, snap in metrics["latency_histograms"].items():
        for field in ("count", "mean_ns", "min_ns", "max_ns", "p50_ns",
                      "p90_ns", "p99_ns"):
            if field not in snap:
                fail(path,
                     f"latency histogram '{name}' missing '{field}'")

    # Optional: allocations-per-decode block (bench_astrea_latency).
    if "allocations" in doc:
        alloc = doc["allocations"]
        if not isinstance(alloc, dict):
            fail(path, "'allocations' must be an object")
        for key in ("hook_installed", "decodes", "total", "per_decode"):
            if key not in alloc:
                fail(path, f"allocations missing '{key}'")
        if not isinstance(alloc["hook_installed"], bool):
            fail(path, "allocations.hook_installed must be a bool")
        for key in ("decodes", "total"):
            if not isinstance(alloc[key], int) or alloc[key] < 0:
                fail(path,
                     f"allocations.{key} must be a non-negative "
                     f"integer")
        per = alloc["per_decode"]
        if not isinstance(per, (int, float)) or per < 0:
            fail(path, "allocations.per_decode must be >= 0")
        if alloc["hook_installed"] and alloc["per_decode"] != 0:
            fail(path,
                 "allocations.per_decode must be 0 when the counting "
                 "hook is installed (steady-state decode must not "
                 "allocate)")

    print(f"{path}: ok (bench={doc['bench']})")


def main(argv):
    require_audit = False
    paths = []
    for arg in argv[1:]:
        if arg == "--require-audit":
            require_audit = True
        else:
            paths.append(arg)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        validate(path, require_audit)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
