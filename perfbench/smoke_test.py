#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Runs every workload at its smallest size (--size smoke) untraced and
traced, and asserts that:
  * every run is correct with no failed check (error_ratio 0);
  * every end-to-end / per-layer metric of BENCHMARK.json appears with
    its unit;
  * the trace's spans nest: each child lies inside its parent, every self
    time is >= 0, and the self times add up to the root span;
  * run.py refuses to run (non-zero exit, no result line) in a directory
    holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed assertion.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench" / "smoke"


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def run(workload, trace, spans=None, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "0.5",
               "--trace", str(trace), "--size", "smoke"]
    if spans is not None:
        command += ["--spans", str(spans)]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def check_spans(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    check(spans, f"{path.name}: no spans written")
    children = {}
    for span in spans:
        check(span["end_ns"] >= span["start_ns"],
              f"{path.name}: span {span['id']} ends before it starts")
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            check(parent["start_ns"] <= span["start_ns"] and
                  span["end_ns"] <= parent["end_ns"],
                  f"{path.name}: span {span['id']} ({span['name']}) escapes "
                  f"its parent {parent['name']}")
            children.setdefault(span["parent"], []).append(span)
    roots = [s for s in spans if s["parent"] < 0]
    check(len(roots) == 1, f"{path.name}: {len(roots)} root spans")
    total_self = 0
    for span in spans:
        kids = sorted(children.get(span["id"], []), key=lambda s: s["start_ns"])
        for left, right in zip(kids, kids[1:]):
            check(left["end_ns"] <= right["start_ns"],
                  f"{path.name}: children of {span['name']} overlap")
        self_ns = (span["end_ns"] - span["start_ns"]) - sum(
            k["end_ns"] - k["start_ns"] for k in kids)
        check(self_ns >= 0, f"{path.name}: {span['name']} self time < 0")
        total_self += self_ns
    root = roots[0]
    check(total_self == root["end_ns"] - root["start_ns"],
          f"{path.name}: self times do not add up to the root span")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            spans = SCRATCH / f"{workload}.spans.jsonl" if trace else None
            result = run(workload, trace, spans)
            lines = result.stdout.strip().splitlines()
            check(result.returncode == 0 and lines,
                  f"{workload} trace {trace}: exit {result.returncode}\n"
                  + result.stdout + result.stderr)
            line = json.loads(lines[-1])
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result line keys {sorted(line)}")
            check(line["correct"] and line["failed"] == 0 and
                  line["attempted"] >= 1,
                  f"{workload} trace {trace}: not correct: {line}")
            check(any(l.strip().startswith("error_ratio") and " 0 fraction"
                      in l for l in lines),
                  f"{workload}: error_ratio is not reported as 0")
            for metric in spec[section]:
                value = line["metrics"].get(metric["name"])
                check(value is not None and value["unit"] == metric["unit"],
                      f"{workload}: metric {metric['name']} missing or not "
                      f"in {metric['unit']}")
            if spans is not None:
                check_spans(spans)
        print(f"ok {workload}")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run("cell_store", 0, cwd=bare)
    check(result.returncode != 0 and '"correct"' not in result.stdout,
          "run.py produced a result without the library sources")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("ok bare checkout refused")


if __name__ == "__main__":
    main()
