#!/usr/bin/env python3
"""End-to-end benchmark of the vmincqr library: one command, three workloads.

    python3 e2ebench/run.py                       # every workload, table
    python3 e2ebench/run.py --workload lot_screen --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest            # harness self-tests
    python3 e2ebench/run.py --compare A.json B.json

Builds the library and the harness from this checkout into .bench_build/
(first run only; later runs rebuild what changed), then runs the harness.
With --workload the last stdout line is the JSON result object; build
output goes to stderr. Result records (host and config blocks included) and
traced runs' spans land in .bench_build/results/. See e2ebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ["lot_screen", "infield_online", "refit_grid"]
BUILD_TYPE = "RelWithDebInfo"
HOST_KEYS = ["nproc", "cpu_model", "build_type"]


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, **quiet)


def harness(*args):
    os.makedirs(RESULTS, exist_ok=True)
    return subprocess.run([os.path.join(BUILD, "e2ebench_harness"), *args],
                          stdout=subprocess.PIPE, text=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    code = subprocess.run([os.path.join(BUILD, "e2ebench_selftest")]).returncode
    listed = harness("--list-metrics").stdout.split()
    registry = {(listed[i], listed[i + 1], listed[i + 2])
                for i in range(0, len(listed), 3)}
    bench = load_benchmark()
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in bench[kind]}
    if registry != declared:
        print("FAIL  harness metrics differ from BENCHMARK.json:",
              sorted(registry ^ declared))
        code = 1
    else:
        print("ok    harness metrics match BENCHMARK.json")
    names = {w["name"] for w in bench["workloads"]}
    if names != set(WORKLOADS):
        print("FAIL  BENCHMARK.json workloads differ:", sorted(names ^ set(WORKLOADS)))
        code = 1
    return code


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if any(a["host"].get(k) != b["host"].get(k) for k in HOST_KEYS):
        fail(f"refusing to compare results from different hosts: "
             f"{a['host']} vs {b['host']}")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or trace modes")
    print(f"{'metric':<30} {'A':>14} {'B':>14} {'B/A':>8}")
    for name, m in a["metrics"].items():
        if name in b["metrics"]:
            va, vb = m["value"], b["metrics"][name]["value"]
            ratio = f"{vb / va:8.3f}" if va else "       -"
            print(f"{name:<30} {va:>14.6g} {vb:>14.6g} {ratio} {m['unit']}")
    return 0


def run_all(seed, seconds):
    failed = []
    for workload in WORKLOADS:
        proc = harness("--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0",
                       "--results-dir", RESULTS)
        print(proc.stdout.rsplit("\n{", 1)[0].rstrip("\n"), flush=True)
        if proc.returncode != 0:
            failed.append(workload)
    if failed:
        print(f"e2ebench: failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"e2ebench: all workloads correct; records in {RESULTS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    build()
    if args.selftest:
        return selftest()
    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    proc = harness("--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(args.trace),
                   "--results-dir", RESULTS)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
