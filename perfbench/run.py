#!/usr/bin/env python3
"""Performance benchmark entry point (the command BENCHMARK.json names).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which pulls in src/) as an
optimized CMake project under .bench_build/perfbench, runs wfs_perfbench for
one workload, checks its result line against BENCHMARK.json (every declared
metric present with its declared unit, nothing undeclared) and prints it as
the last line of stdout. Build output and progress go to stderr.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. A
storage layer the workload never touches reports zero for its columns.
Exit status: the runner's (1 on a correctness failure, with a result line);
2 without a result line when the sources are missing or the build fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wfs_perfbench")
RUNNER_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Serialize concurrent runs in one checkout on the build tree.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "wfs_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def normalize(result, declared, trace):
    """Keep exactly the declared metrics of this mode, zero-filling storage
    layers the workload bypasses; reject unit drift."""
    metrics = result["metrics"]
    kept = {}
    for spec in declared["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        got = metrics.pop(name, None)
        if got is None:
            if not (trace and name.startswith("storage.")):
                fail(f"runner did not report {name}")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name} reported in {got['unit']}, declared {unit}")
        kept[name] = {"value": got["value"], "unit": unit}
    for name in sorted(metrics):
        print(f"perfbench: undeclared metric {name} dropped", file=sys.stderr)
    result["metrics"] = kept
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workdir = os.path.join(ROOT, ".bench_build", "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"runner exited {proc.returncode} without a result")
    result = normalize(json.loads(lines[-1]), declared, args.trace == 1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
