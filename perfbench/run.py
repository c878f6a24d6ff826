#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 16 --trace 0

The first run configures and builds perfbench/ (with the simulator
sources under src/) into .bench_build/perfbench; later runs rebuild
incrementally. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A run is correct when the executable's own checks pass and, for the
pinned seeds in pins.json, its exact simulated outputs match the pins.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("fig6_sweep", "table4_swap", "tenants_churn", "serve_mix")

# Worker threads of every pool; with the calling thread that is three
# of the machine's four cores.
THREADS = 2

# Knobs that select other code paths; run.py drops them (so every run
# measures the defaults) and the executable refuses them when set.
REFUSED_ENV = ("MOSAIC_BATCH", "MOSAIC_FULL_POOL", "MOSAIC_FAULTS",
               "MOSAIC_RESUME_DIR")

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def load_json(name):
    with open(name) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(os.path.join(BENCH_DIR, "pins.json"))
    exe = build()

    env = {k: v for k, v in os.environ.items() if k not in REFUSED_ENV}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(THREADS), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    problems = list(report["violations"])
    pinned = pins["outputs"][args.workload].get(str(args.seed))
    if pinned is not None:
        for name, want in pinned.items():
            if report["outputs"].get(name) != want:
                problems.append("output %s differs from its pin" % name)
    correct = not problems

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    got = report["metrics"]
    unknown = sorted(set(got) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    print("metrics (%s, seed %d):" % (args.workload, args.seed))
    for name in sorted(got):
        print("  %-32s %14.6g %s" % (name, got[name], units[name]))
    for p in problems:
        print("CHECK FAILED: " + p)

    if args.trace:
        # A layer the workload never calls did no work.
        chosen = {m["name"]: got.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
    else:
        missing = [m["name"] for m in spec["end_to_end"]
                   if m["name"] not in got]
        if missing:
            fail("perfbench did not report " + ", ".join(missing))
        chosen = {m["name"]: got[m["name"]] for m in spec["end_to_end"]}

    attempted = report["attempted"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": report["failed"] if correct else attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))


if __name__ == "__main__":
    main()
