#!/usr/bin/env python3
"""Build and run the DAPPER simulator host-throughput benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload perf-attack --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/ with CMake in Release mode; later runs rebuild only
what changed. The measuring program, simbench, does all measuring in one
single-threaded process. Its stdout is relayed unchanged; the last line
is the result object, whose metric names are checked against
BENCHMARK.json before this script exits 0. Build output goes to stderr.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simbench")
PINNED = os.path.join(HERE, "pinned.txt")
# The result must be printed within 180 s of the start of a run.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """Git sha when the checkout is a repository, else a digest of the
    simulator and benchmark sources."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)} are not "
             "attempted, correct, failed, metrics")
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if got != want:
        fail(f"metric names {got} differ from BENCHMARK.json {want}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="1/16-window horizon (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", PINNED, "--git-sha", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"simbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"simbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("simbench printed nothing")
    check_result(lines[-1], spec, args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
