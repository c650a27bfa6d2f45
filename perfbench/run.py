#!/usr/bin/env python3
"""Builds the SIMBA benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload portal_day|storm|chaos --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout; everything it builds or writes
goes under .bench_build/ at the checkout root. It configures and builds
perfbench/CMakeLists.txt (Release) on every call, which is a no-op once
the build is current, then runs simba_perfbench in its own process.

Its stdout is passed through; the last line is the result JSON
{"correct", "attempted", "failed", "metrics"}. Simulated-fault warnings
the program logs on stderr go to .bench_build/perfbench-logs/. Each run
records its correctness hash per (workload, seed, seconds); a later run
of the same triple that prints another hash fails, because a change
that only claims speed must leave the simulation identical.

Exit codes: 0 correct, 1 a correctness check failed (the JSON says
"correct": false), 2 the benchmark could not build or run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORKLOADS = ("portal_day", "storm", "chaos")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "fleet" / "fleet.h").is_file():
        die(f"no SIMBA source tree at {ROOT / 'src'}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure,
                 ["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die(f"build step failed: {' '.join(step)}")
    return BUILD / target


def self_test():
    binary = build("perfbench_metrics_test")
    return subprocess.run([str(binary)]).returncode


def check_hash(args, stdout):
    """Compares this run's correctness hash with the recorded one."""
    match = re.search(r"^correctness_hash=([0-9a-f]{16})$", stdout, re.M)
    if not match:
        return "simba_perfbench printed no correctness hash"
    records = OUT / "perfbench-records"
    records.mkdir(parents=True, exist_ok=True)
    record = records / f"{args.workload}-seed{args.seed}-s{args.seconds}.hash"
    if record.exists():
        expected = record.read_text().strip()
        if expected != match.group(1):
            return (f"correctness hash {match.group(1)} differs from "
                    f"{expected} recorded by an earlier run at this seed")
    else:
        record.write_text(match.group(1) + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("simba_perfbench")
    logs = OUT / "perfbench-logs"
    logs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = OUT / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans / f"{name}.jsonl")]
    with open(logs / f"{name}.log", "w") as log:
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"simba_perfbench did not finish within {RUN_TIMEOUT_S} s")
    with open(logs / f"{name}.log") as log:
        for line in log:
            if line.startswith("perfbench:"):
                sys.stderr.write(line)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        die(f"simba_perfbench exited with code {proc.returncode} and no result")
    print("\n".join(lines[:-1]))
    problem = check_hash(args, proc.stdout)
    if problem:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
