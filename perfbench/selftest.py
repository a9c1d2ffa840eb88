#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, at a 1/16-window horizon so the whole test takes a few
minutes:
  * every workload, untraced and traced, prints a last line that parses
    as the result object, with the metric names BENCHMARK.json lists, all
    values finite, and `correct` true (this includes the pinned
    fingerprints and the traced == untraced fingerprint check);
  * runOnce, the benchmark's hand-built System path and the traced path
    export identical stats dicts for every cell at two seeds;
  * a pinned fingerprint that no longer matches makes the run incorrect;
  * a bad flag, an unknown workload and missing arguments exit non-zero;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result;
  * a build without optimisation is refused.
Temporary files go under .bench_build/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(RUN + ["--workload", name, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke"])
            res = result_of(proc)
            what = f"{name} --trace {trace}"
            check(proc.returncode == 0 and res is not None,
                  f"{what}: exits 0 with a JSON last line")
            if res is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result keys")
            want = [m["name"] for m in spec[section]]
            check(list(res["metrics"]) == want,
                  f"{what}: metric names match BENCHMARK.json {section}")
            units = {m["name"]: m["unit"] for m in spec[section]}
            check(all(isinstance(v.get("value"), (int, float)) and
                      math.isfinite(v["value"]) and
                      v.get("unit") == units.get(k)
                      for k, v in res["metrics"].items()),
                  f"{what}: every value finite, units as declared")
            check(res["correct"] is True and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  f"{what}: correct, nothing failed")

        binary = os.path.join(BUILD, "simbench")
        for seed in ("1", "9"):
            proc = run([binary, "--self-check", "--workload", name,
                        "--seed", seed, "--smoke"])
            check(proc.returncode == 0,
                  f"{name} seed {seed}: runOnce == hand-built == traced")
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)

    # The correctness gate: a pinned fingerprint that no longer matches
    # must turn `correct` false and count the cell as failed.
    bad_pins = os.path.join(BUILD, "selftest-bad-pins.txt")
    with open(os.path.join(HERE, "pinned.txt")) as src, \
            open(bad_pins, "w") as dst:
        for line in src:
            if not line.startswith("#"):
                line = line.rsplit("\t", 1)[0] + "\t0000000000000000\n"
            dst.write(line)
    proc = run([os.path.join(BUILD, "simbench"), "--workload", "perf-attack",
                "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke",
                "--pinned", bad_pins])
    res = result_of(proc)
    check(res is not None and res["correct"] is False and res["failed"] > 0,
          "a changed pinned fingerprint fails the run")
    os.remove(bad_pins)

    base = ["--seed", "1", "--seconds", "1", "--trace", "0"]
    for args, what in (
            (["--workload", "perf-attack", "--bogus"] + base, "a bad flag"),
            (["--workload", "no-such-workload"] + base, "an unknown workload"),
            (["--workload", "perf-attack"], "missing arguments"),
            (["--workload", "perf-attack", "--seed", "1", "--seconds", "1",
              "--trace", "2"], "--trace 2")):
        proc = run(RUN + args)
        check(proc.returncode != 0 and result_of(proc) is None,
              f"{what} exits non-zero without a result")

    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([sys.executable, "perfbench/run.py", "--workload",
                "perf-attack"] + base, cwd=bare)
    check(proc.returncode != 0 and result_of(proc) is None,
          "bare directory exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    debug = os.path.join(BUILD, "selftest-debug")
    ok = (run(["cmake", "-S", HERE, "-B", debug,
               "-DCMAKE_BUILD_TYPE=Debug"]).returncode == 0 and
          run(["cmake", "--build", debug, "--target", "simbench",
               "-j", "4"]).returncode == 0)
    check(ok, "debug build of simbench compiles")
    if ok:
        proc = run([os.path.join(debug, "simbench"), "--workload",
                    "perf-attack", "--pinned",
                    os.path.join(HERE, "pinned.txt")] + base)
        check(proc.returncode == 3 and result_of(proc) is None,
              "an unoptimised build refuses to time")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
