#!/usr/bin/env python3
"""Render tail-sampled decode traces as stage-latency waterfalls.

Input is the decode service's trace endpoints (telemetry/
trace_store.hh): a /traces/<id> detail JSON renders as a waterfall of
the decode's stage spans (gather -> matching -> verdict, offsets
relative to the batch start), and a /traces index JSON renders as a
table of the kept traces, slowest first. A capture file is a detail
document of its trigger and renders the same way. A bare http:// URL is fetched
directly, so chasing an exemplar is one command:

  curl -H 'Accept: application/openmetrics-text' host:9500/metrics \\
      | grep -o 'trace_id="[0-9a-f]*"'
  ./trace_report.py http://host:9500/traces/<id>

Usage:
  trace_report.py FILE.json|URL [--width=N]
  trace_report.py --self-test
"""

import json
import sys

BAR = "#"

# Retention reasons in display order (trace_store.hh bit order).
REASON_ORDER = ["slow", "give_up", "audit", "stride",
                "logical_error"]


def load(source):
    if source.startswith("http://") or source.startswith("https://"):
        from urllib.request import urlopen

        with urlopen(source) as resp:
            return json.loads(resp.read().decode("utf-8"))
    with open(source, "r", encoding="utf-8") as f:
        return json.load(f)


def format_ns(ns):
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def reasons_text(reasons):
    ordered = [r for r in REASON_ORDER if r in reasons]
    ordered += [r for r in reasons if r not in REASON_ORDER]
    return ",".join(ordered) if ordered else "-"


def render_detail(doc, width=48, out=sys.stdout):
    """Waterfall for one /traces/<id> detail document."""
    spans = doc.get("spans", [])
    audit = doc.get("audit", {})

    out.write(f"trace {doc.get('trace_id', '?')}: "
              f"{doc.get('decoder', '?')} decode, "
              f"shot {doc.get('shot', '?')} on stream "
              f"{doc.get('stream', '?')}\n")
    out.write(f"  hw {doc.get('hw', 0)}, latency "
              f"{format_ns(doc.get('latency_ns', 0.0))}, "
              f"{doc.get('cycles', 0)} cycles, outcome "
              f"{doc.get('outcome', '?')}, kept for "
              f"{reasons_text(doc.get('reasons', []))}\n")
    if audit.get("done"):
        gap = audit.get("weight_gap_decades", 0.0)
        out.write(f"  audit: "
                  f"{'OBSERVABLE MISMATCH' if audit.get('mismatch') else 'verdict matches oracle'}"
                  f", weight gap {gap:.4g} decades\n")
    elif audit.get("sampled"):
        out.write("  audit: sampled, verdict pending\n")
    if "trigger" in doc:
        out.write(f"  capture trigger {doc['trigger']}, "
                  f"{len(doc.get('recent', []))} recent decodes\n")

    if not spans:
        out.write("  (no spans recorded)\n")
        return

    # Scale the waterfall to the window the spans cover.
    start = min(s["start_ns"] for s in spans)
    end = max(s["start_ns"] + s["dur_ns"] for s in spans)
    total = max(end - start, 1)
    name_w = max(len(s["stage"]) for s in spans)

    out.write(f"  spans (offsets relative to batch start, "
              f"{format_ns(total)} window):\n")
    for s in spans:
        off = s["start_ns"] - start
        lead = int(round(width * off / total))
        bar = max(1, int(round(width * s["dur_ns"] / total)))
        bar = min(bar, width - min(lead, width - 1))
        scope = "batch" if s.get("shot", -1) < 0 else "shot "
        out.write(f"    {s['stage']:<{name_w}} {scope} "
                  f"{format_ns(s['start_ns']):>9} +"
                  f"{format_ns(s['dur_ns']):>9}  "
                  f"|{' ' * min(lead, width - 1)}{BAR * bar}"
                  f"{' ' * max(0, width - lead - bar)}|\n")
    dropped = doc.get("dropped_spans", 0)
    if dropped:
        out.write(f"    [+{dropped} spans dropped at the buffer cap]\n")


def render_index(doc, out=sys.stdout):
    """Table for a /traces index document, slowest first."""
    traces = doc.get("traces", [])
    out.write(f"{len(traces)} kept traces "
              f"(store occupancy {doc.get('occupancy', '?')}, "
              f"{doc.get('kept', '?')} kept since start)\n")
    if not traces:
        return
    rows = sorted(traces, key=lambda t: -t.get("latency_ns", 0.0))
    out.write(f"{'trace_id':<17} {'latency':>9} {'hw':>3} "
              f"{'outcome':<13} {'audit':<6} reasons\n")
    for t in rows:
        if "audit_mismatch" in t:
            audit = "MISM" if t["audit_mismatch"] else "ok"
        elif t.get("audited"):
            audit = "wait"
        else:
            audit = "-"
        out.write(f"{t.get('trace_id', '?'):<17} "
                  f"{format_ns(t.get('latency_ns', 0.0)):>9} "
                  f"{t.get('hw', 0):>3} "
                  f"{t.get('outcome', '?'):<13} "
                  f"{audit:<6} "
                  f"{reasons_text(t.get('reasons', []))}\n")


def render(doc, width=48, out=sys.stdout):
    if "traces" in doc:
        render_index(doc, out=out)
    elif "trace_id" in doc:
        render_detail(doc, width=width, out=out)
    else:
        raise ValueError("neither a /traces index nor a /traces/<id> "
                         "detail document")


# ---------------------------------------------------------------------------
# Self-test

DETAIL_FIXTURE = {
    "trace_schema_version": 1,
    "trace_id": "00c0ffee00c0ffee",
    "shot": 123,
    "stream": 1,
    "decoder": "astrea",
    "hw": 8,
    "latency_ns": 5123.0,
    "cycles": 870,
    "outcome": "ok",
    "reasons": ["slow", "audit"],
    "trigger": "logical_error",
    "recent": [{"shot": 122}, {"shot": 123}],
    "audit": {"sampled": True, "done": True, "mismatch": False,
              "weight_gap_decades": 0.125, "oracle_weight": 10.5,
              "oracle_obs": 0},
    "spans": [
        {"stage": "batch", "shot": -1, "start_ns": 0,
         "dur_ns": 9000},
        {"stage": "gather", "shot": 3, "start_ns": 1200,
         "dur_ns": 300},
        {"stage": "matching", "shot": 3, "start_ns": 1500,
         "dur_ns": 3000},
        {"stage": "verdict", "shot": 3, "start_ns": 4500,
         "dur_ns": 100},
    ],
    "dropped_spans": 0,
    "defects": [1, 2, 3],
}

INDEX_FIXTURE = {
    "trace_schema_version": 1,
    "kept": 12,
    "occupancy": 2,
    "traces": [
        {"trace_id": "00c0ffee00c0ffee", "latency_ns": 5123.0,
         "hw": 8, "outcome": "ok", "reasons": ["slow"],
         "audited": True, "audit_mismatch": False},
        {"trace_id": "deadbeefdeadbeef", "latency_ns": 99123.0,
         "hw": 14, "outcome": "give_up", "reasons": ["give_up"]},
    ],
}


def self_test():
    import io

    out = io.StringIO()
    render(DETAIL_FIXTURE, width=24, out=out)
    text = out.getvalue()
    assert "trace 00c0ffee00c0ffee" in text, text
    for stage in ("batch", "gather", "matching", "verdict"):
        assert stage in text, text
    assert "5.12us" in text, text
    assert "slow,audit" in text, text
    assert "weight gap 0.125 decades" in text, text
    assert "capture trigger logical_error, 2 recent decodes" in text, text
    # The matching bar must be longer than the verdict bar.
    bars = {line.split()[0]: line.count(BAR)
            for line in text.splitlines() if BAR in line}
    assert bars["matching"] > bars["verdict"], bars

    out = io.StringIO()
    render(INDEX_FIXTURE, out=out)
    text = out.getvalue()
    assert "2 kept traces" in text, text
    # Slowest first: the give-up sorts above the ok trace.
    assert text.find("deadbeef") < text.find("c0ffee"), text
    assert "give_up" in text, text

    try:
        render({"nope": 1})
    except ValueError:
        pass
    else:
        raise AssertionError("accepted an unrecognized document")

    print("trace_report.py self-test: OK")
    return 0


def main(argv):
    width = 48
    sources = []
    for arg in argv[1:]:
        if arg == "--self-test":
            return self_test()
        if arg.startswith("--width="):
            width = max(10, int(arg.split("=", 1)[1]))
        elif arg.startswith("--"):
            print(f"unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            sources.append(arg)
    if len(sources) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        doc = load(sources[0])
    except (OSError, ValueError, KeyError,
            json.JSONDecodeError) as e:
        print(f"error: cannot load {sources[0]}: {e}",
              file=sys.stderr)
        return 1
    try:
        render(doc, width=width)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        sys.stderr.close()
        return 0
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: cannot render {sources[0]}: {e}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
