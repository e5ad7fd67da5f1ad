#!/usr/bin/env python3
"""Steadiness check: runs workloads N times and reports each metric's spread.

    python3 perfbench/steady.py --workload cell_store --runs 10
    python3 perfbench/steady.py --runs 10 --first-seed 101   # every workload

Each run uses another seed (first-seed, first-seed + 1, ...). Per metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
IQR / median, and flags every end-to-end metric whose spread exceeds its
bound in BENCHMARK.json ("!!") or a third of it ("~").
Exits 1 when any run is incorrect or any end-to-end spread exceeds its
bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout + result.stderr)
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "!!"
                    ok = False
                elif spread > bound / 3:
                    flag = "~"
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} {flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
