#!/usr/bin/env python3
"""Build and run one end-to-end benchmark run.

    python3 perfbench/run.py --workload serve_paced --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (and the library from src/) into .bench_build/ on
first use, runs .bench_build/perfbench/astrea_perfbench, checks that
the metrics it printed are exactly the ones BENCHMARK.json lists for
the mode (end_to_end with --trace 0, per_layer with --trace 1) with
the same units, and prints the binary's detail lines followed by its
one-line JSON result. The exit code is the binary's: 0, or 1 when an
output check failed. Anything else (no sources, build failure, a
metric set that disagrees with BENCHMARK.json) exits non-zero without
a result line.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own unit tests (perfbench/tests/).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_paced", "serve_flood")
RUN_TIMEOUT_S = 170


def build(target):
    """Configure once, then build `target` (a no-op when up to date)."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2", "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def contract_errors(result, contract, trace):
    """Differences between the printed metrics and BENCHMARK.json."""
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in contract[section]}
    got = result.get("metrics", {})
    errors = []
    for name, unit in want.items():
        if name not in got:
            errors.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            errors.append(f"{name}: unit {got[name].get('unit')!r}, "
                          f"BENCHMARK.json says {unit!r}")
    for name in got:
        if name not in want:
            errors.append(f"metric {name} is not in BENCHMARK.json "
                          f"{section}")
    return errors


def run_once(workload, seed, seconds, trace):
    """Run the binary; returns (exit code, detail lines, result dict)."""
    binary = build("astrea_perfbench")
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output (exit {proc.returncode})")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def self_test():
    rc = subprocess.run([build("perfbench_selftest")]).returncode
    py = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return rc or py


def main():
    try:
        return run_main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, RuntimeError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


def run_main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    contract = load_contract()
    code, details, result = run_once(args.workload, args.seed, args.seconds,
                                     args.trace)
    errors = contract_errors(result, contract, args.trace)
    if errors:
        for line in details:
            print(line, file=sys.stderr)
        for e in errors:
            print(f"run.py: {e}", file=sys.stderr)
        return 3
    for line in details:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
