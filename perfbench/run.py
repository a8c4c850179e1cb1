#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the checkout's sources, runs the
workload in a fresh process and passes its output through; the last line
is the result object. With --trace 1 the workload runs twice, each time in
a fresh process with the same seed: untraced, then traced. The traced
result carries the per-layer metrics plus trace.overhead_pct, the traced
run's phase wall time against the untraced run's.

Exits non-zero without printing a result when the build, a run or an
output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    # dune's shared cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    return done.returncode == 0


def run(args, trace):
    """One fresh process: (note lines, result object), or None on failure."""
    done = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    return lines[:-1], json.loads(lines[-1])


def wall_s(notes):
    for line in notes:
        if line.startswith("# wall_s "):
            return float(line.split()[2])
    raise ValueError("run printed no wall_s note")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not build():
        return 1
    untraced = run(args, 0)
    if untraced is None:
        return 1
    notes, result = untraced
    if args.trace == 1:
        traced = run(args, 1)
        if traced is None:
            return 1
        notes, result = traced
        overhead = 100.0 * (wall_s(notes) / wall_s(untraced[0]) - 1.0)
        result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
