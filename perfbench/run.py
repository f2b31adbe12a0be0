#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds the benchmark from the sources in this checkout (the
engine under src/ and the driver under perfbench/) and runs one workload;
the last line of standard output is the JSON result. The second builds and
runs the benchmark's unit tests, then runs every workload once with one
expectation deliberately made wrong and confirms each run reports it as a
failed operation.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["wisc_edb", "mvv_server", "reach_datalog", "kb_write"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out, targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: engine sources not found under %s" % (ROOT / "src"))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        subprocess.run(["cmake", "--build", str(out), "--target", target,
                        "-j", jobs], stdout=sys.stderr, check=True)


def run(out, workload, seed, seconds, trace, perturb=False):
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    command = [str(out / "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--out", str(runs)]
    if perturb:
        command += ["--perturb", "1"]
    return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def self_check(out):
    build(out, ["perfbench", "perfbench_test"])
    ok = subprocess.run([str(out / "perfbench_test")]).returncode == 0
    for workload in WORKLOADS:
        result = run(out, workload, 7, 2, False, perturb=True)
        last = result.stdout.strip().splitlines()[-1]
        doc = json.loads(last)
        caught = (result.returncode != 0 and not doc["correct"]
                  and doc["failed"] >= 1)
        print("self-check %-14s failed=%d correct=%s exit=%d: %s" %
              (workload, doc["failed"], doc["correct"], result.returncode,
               "caught" if caught else "MISSED"))
        ok = ok and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    out = build_dir()
    try:
        if args.self_check:
            return self_check(out)
        if args.workload is None:
            parser.error("--workload is required")
        build(out, ["perfbench"])
        result = run(out, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
