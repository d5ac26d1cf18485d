#!/usr/bin/env python3
"""Self-test of the benchmark's output contract.

    python3 perfbench/check.py [--workload NAME ...] [--seed N]

For each workload (default: every workload in BENCHMARK.json) this runs
perfbench/run.py once untraced and twice traced, with the shortest run
length, prints the end-to-end metrics and the per-event net ratios, and
asserts that

  * each result is correct, with attempted >= 1 and failed == 0;
  * the untraced result names exactly the declared end-to-end metrics and
    the traced one exactly the declared per-layer metrics, each with its
    declared unit and a finite numeric value;
  * the deterministic counts (simcore.events, net.*, storage.*.ops,
    wf.jobs) are identical across the two traced runs.

Exits 0 when every assertion holds, 1 otherwise (any golden mismatch
included). A full check takes about two minutes on a quiet host, most of
it the fig2-light passes.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def deterministic(name):
    return (name in ("simcore.events", "wf.jobs") or name.startswith("net.")
            or (name.startswith("storage.") and name.endswith(".ops")))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def check_result(result, declared, what):
    errors = []
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{what}: not correct ({result.get('failed')} failed)")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{what}: attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            errors.append(f"{what}: missing {name}")
        elif got.get("unit") != unit:
            errors.append(f"{what}: {name} unit {got.get('unit')!r}, declared {unit!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{what}: {name} value {got.get('value')!r} is not a finite number")
    for name in sorted(set(metrics) - set(want)):
        errors.append(f"{what}: undeclared metric {name}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    errors = []
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        try:
            plain = run(workload, args.seed, 0)
            first = run(workload, args.seed, 1)
            second = run(workload, args.seed, 1)
        except AssertionError as e:
            errors.append(str(e))
            continue
        errors += check_result(plain, bench["end_to_end"], f"{workload} --trace 0")
        errors += check_result(first, bench["per_layer"], f"{workload} --trace 1")
        counts = sorted(n for n in first["metrics"] if deterministic(n))
        for name in counts:
            a = first["metrics"][name]["value"]
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                errors.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
        shown = [(n, plain["metrics"].get(n, {})) for n in (m["name"] for m in bench["end_to_end"])]
        shown += [(n, first["metrics"].get(n, {})) for n in ("net.touches_per_event", "net.fills_per_event")]
        print(f"check: {workload}: " + ", ".join(f"{n}={v.get('value')} {v.get('unit')}" for n, v in shown)
              + f"; {len(counts)} deterministic counts compared", file=sys.stderr)

    for e in errors:
        print(f"check: FAIL {e}", file=sys.stderr)
    print("check: " + ("FAIL" if errors else "ok"), file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
