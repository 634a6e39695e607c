#!/usr/bin/env python3
"""Runs one workload of the hinpriv end-to-end benchmark.

    python3 perfbench/run.py --workload serve_d1 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, RelWithDebInfo by default) into
.bench_build/; every run then starts it with its inputs under
.bench_build/data/. Its last stdout line is the JSON result; build output
goes to stderr. Exits non-zero when the build fails, the run breaks or any
answer is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# One run must end within 180 s; leave room to clean up.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    make = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"]
    return subprocess.call(make, stdout=sys.stderr) == 0


def run_binary(args, capture):
    """Runs the binary with its own data directory; returns (code, stdout)."""
    data_dir = os.path.join(ROOT, ".bench_build", "data", str(os.getpid()))
    command = [BINARY, "--data_dir", data_dir] + args
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def last_json(stdout):
    lines = (stdout or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test():
    """Small inputs, a few seconds per run: every metric of BENCHMARK.json
    prints with its unit, every per-layer metric is measured (non-zero) on
    some workload, and a corrupted reference answer fails the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    small = ["--seed", "3", "--seconds", "1", "--users", "4000",
             "--targets", "200"]
    problems = []
    measured = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, stdout = run_binary(
                ["--workload", workload, "--trace", trace] + small, True)
            result = last_json(stdout)
            label = "%s --trace %s" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: failed (exit %d)" % (label, code))
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit")
                   for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, want %s" % (label, got, want))
            for name, m in result["metrics"].items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or (
                        key == "end_to_end" and value <= 0):
                    problems.append("%s: %s = %r" % (label, name, value))
                elif value != 0:
                    measured.add(name)
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append("%s: attempted %d failed %d" % (
                    label, result["attempted"], result["failed"]))
        code, stdout = run_binary(["--workload", workload, "--trace", "0",
                                   "--corrupt_reference", "1"] + small, True)
        result = last_json(stdout)
        if code == 0 or (result is not None and result["correct"]):
            problems.append("%s: a corrupted reference did not fail the run"
                            % workload)
    for m in spec["per_layer"]:
        if m["name"] not in measured:
            problems.append("%s is 0 on every workload" % m["name"])
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, _ = run_binary(bench_args, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
