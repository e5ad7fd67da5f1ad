#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, checks it.

    python3 perfbench/run.py --workload grid_scale --seed 1 --trace 0

Builds perfbench_driver (and the slpdas library it links) from this
checkout's sources into .bench_build/perfbench, runs the workload, checks
the result digest against the one pinned in perfbench/digests.json for
that seed (when one is pinned) and that every metric BENCHMARK.json names
is present with its unit, then prints a human-readable report followed by
the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--seconds defaults to BENCHMARK.json's run_seconds. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.
Exits 1 when any output is wrong, 2 when the benchmark cannot run.
Extra flags: --size smoke (smallest inputs), --spans FILE (keep the span
trace), --pin (record this run's digest in digests.json).
"""
import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORK = BUILD / "work"
DIGESTS = HERE / "digests.json"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message):
    log("run.py: " + message)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "include" / "slpdas"
    ).is_dir():
        die("slpdas sources not found next to perfbench/ (src/, include/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def attempt():
        if not (BUILD / "CMakeCache.txt").is_file():
            command = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                command += ["-G", "Ninja"]
            if subprocess.run(command, stdout=sys.stderr).returncode != 0:
                return False
        command = ["cmake", "--build", str(BUILD), "-j", jobs]
        return subprocess.run(command, stdout=sys.stderr).returncode == 0

    if not attempt():
        # A build directory left by another checkout path cannot be
        # reconfigured in place; start it afresh once.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not attempt():
            die("building perfbench_driver failed")


def make_work_root():
    """Creates the parent of every run's work directory and marks it as an
    ext4 top directory (FS_TOPDIR_FL). ext4 then places each run's
    directory, and the files made in it, in another block group than the
    run before. On ext4 without a journal, creating a file scans past every
    inode of its block group freed in the last ~30 s, so without the flag
    the files one run deletes when it ends slowed the cache stores of the
    next run's first 30 s by up to 450 us each. Other file systems ignore
    the flag or refuse it, which is harmless."""
    WORK.mkdir(parents=True, exist_ok=True)
    if not sys.platform.startswith("linux"):
        return
    import fcntl
    # FS_IOC_GETFLAGS = _IOR('f', 1, long), FS_IOC_SETFLAGS = _IOW('f', 2, long)
    size = struct.calcsize("l") << 16
    get_flags, set_flags = (2 << 30) | size | 0x6601, (1 << 30) | size | 0x6602
    topdir = 0x00020000  # FS_TOPDIR_FL
    fd = os.open(WORK, os.O_RDONLY)
    try:
        flags, = struct.unpack("i", fcntl.ioctl(fd, get_flags, b"\0" * 4))
        fcntl.ioctl(fd, set_flags, struct.pack("i", flags | topdir))
    except OSError:
        pass
    finally:
        os.close(fd)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for directory in ("src", "include", "perfbench"):
        files += sorted(p for p in (ROOT / directory).rglob("*") if p.is_file())
    for path in files:
        if path.suffix in (".cpp", ".hpp", ".txt", ".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's result digest for its seed")
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    build()
    make_work_root()

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    command = [str(DRIVER), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--size", args.size, "--work-dir",
               str(work_dir)]
    if args.spans:
        command += ["--spans", str(Path(args.spans).resolve())]
    started = time.monotonic()
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        die("driver timed out")
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if "fatal" in report:
        print("FAILED: " + report["fatal"])
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)
    if result.returncode != 0 or not report:
        die(f"driver exited with {result.returncode}")

    failures = list(report["failures"])
    failed = report["failed"]
    attempted = report["attempted"]

    key = f"{args.workload}/{args.size}"
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = pinned.get(key, {}).get(str(args.seed))
    if args.pin:
        pinned.setdefault(key, {})[str(args.seed)] = report["digest"]
        DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    elif expected is not None:
        attempted += report["cells"]
        if report["digest"] != expected:
            failed += report["cells"]
            failures.append(f"result digest {report['digest']} != pinned "
                            f"{expected} for {key} seed {args.seed}")

    section = "per_layer" if args.trace else "end_to_end"
    measured = report[section]
    metrics = {}
    for metric in spec[section]:
        value = measured.get(metric["name"])
        if value is None or value["unit"] != metric["unit"] or \
                value["value"] is None:
            failed += 1
            failures.append(f"metric {metric['name']} missing or not in "
                            f"{metric['unit']}")
            continue
        metrics[metric["name"]] = value
    error_ratio = failed / attempted if attempted else 1.0

    context = dict(report["context"])
    context.update(seed=args.seed, workload=args.workload, size=args.size,
                   commit=git_commit(), source_digest=source_digest())
    print("context: " + json.dumps(context, sort_keys=True))
    print(f"{args.workload}: {report['cells']} cells, {report['runs']} runs, "
          f"{report['repetitions']} timed repetition(s) after a warm-up, "
          f"digest {report['digest']}"
          + ("" if expected is None else " (pinned)"))
    for name, value in measured.items():
        number = "null" if value["value"] is None else f"{value['value']:.6g}"
        print(f"  {name:34} {number} {value['unit']}")
    print(f"  {'error_ratio':34} {error_ratio:.6g} fraction "
          f"({failed} failed of {attempted} checked)")
    if args.trace:
        traced = report["traced_wall_s"]
        self_sum = sum(v["value"] for v in report["self_s"].values())
        print(f"traced one-thread decomposition {traced:.4f} s (self times "
              f"sum to {self_sum:.4f} s) vs untraced one-thread pipeline "
              f"{report['untraced_wall_s']:.4f} s; self time per span:")
        for name, value in sorted(report["self_s"].items(),
                                  key=lambda item: -item[1]["value"]):
            print(f"  {name:34} {value['value']:.6f} s "
                  f"{100.0 * value['value'] / traced:6.2f}%")
    for failure in failures:
        print("FAILED: " + failure)
    log(f"run.py: driver took {time.monotonic() - started:.1f} s")

    correct = failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
