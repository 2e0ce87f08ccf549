#!/usr/bin/env python3
"""Steadiness helper: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10 --out .bench_build/set1.json
    python3 perfbench/steady.py --runs 10 --compare .bench_build/set1.json

Round i runs every workload once with seed (seed base + i), in
BENCHMARK.json order on even rounds and reversed on odd ones, so a
slow minute on the host does not land on one workload only. For each
end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound: "steady" below a third
of the bound, "ok" within it, "NOISY" above. With --compare it also
checks that each median is not worse than the earlier set's by more
than the bound. Exits 1 if a spread or a comparison fails, or a run
was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    if better == "lower":
        return (after - before) / before
    return (before - after) / before


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", help="save the raw values as JSON")
    ap.add_argument("--compare", help="earlier --out file to compare with")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    order = [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in order}
    ok = True
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in (order if i % 2 == 0 else list(reversed(order))):
            res = run(w, seed, seconds)
            if not res["correct"]:
                print(f"{w} seed {seed}: INCORRECT", flush=True)
                ok = False
            for m in metrics:
                values[w][m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"round {i} {w} seed {seed}: " + ", ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                for m in metrics), flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "values": values}, f, indent=1)

    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)["values"]

    print(f"\n{'workload':12} {'metric':16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in order:
        for m in metrics:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = quartiles(v)
            s = spread(v)
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "NOISY"
                ok = False
            if before is not None and len(before[w][m["name"]]) >= 2:
                worse = worsening(statistics.median(before[w][m["name"]]),
                                  med, m["better"])
                verdict += f"; vs earlier {worse:+.3f}"
                if worse > m["bound"]:
                    verdict += " WORSE"
                    ok = False
            print(f"{w:12} {m['name']:16} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {s:8.4f} {m['bound']:6.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
