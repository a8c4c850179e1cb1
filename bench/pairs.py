#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, printed as a Markdown table.

    python3 bench/pairs.py PARENT_REV WORKLOAD METRIC --seeds 2 3 4 ...

Exports the committed trees of PARENT_REV and of the change (--change,
default HEAD) into two temporary directories with `git archive`, builds
perfbench in each, then runs `perfbench/run.py --workload WORKLOAD
--seed S --seconds N --trace 0` once per tree for every seed, the two
runs of a pair back to back in alternating order (parent first on the
first pair, change first on the second, and so on), so host drift hits
both sides alike. It prints the per-pair values, how many pairs the
change won, both medians with their quartiles, the ratio of the medians
and the gap in units of the parent's quartile distance: the figures a
wall-clock claim needs (ROADMAP.md, "How to claim a gain here"). A second
table follows with both sides' medians and quartiles of every
`end_to_end` metric BENCHMARK.json names, from the same runs, so one
command also shows whether anything else got worse.

METRIC may also be one of the `run.*` timings (run.votes_per_s,
run.cast_p50_ms, run.cast_p95_ms, run.results_s): an untraced result
object does not carry them, so they are read from the `# run.NAME=VALUE`
notes line perfbench prints before it. Which direction is better comes
from BENCHMARK.json's metric list, which names those four (votes_per_s
higher-is-better, the others lower), or from --better for a metric it
does not name. A run that fails or prints no value for METRIC is reported and
leaves its pair out of the counts.
Uncommitted edits are not benchmarked: commit first, or pass --change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# The timings perfbench prints only on its notes line, as
# `# run.votes_per_s=122.31/s run.cast_p50_ms=210.5ms ...`: each value
# runs straight into its unit, so the unit is stripped by name.
NOTES_UNITS = {
    "run.votes_per_s": "1/s",
    "run.cast_p50_ms": "ms",
    "run.cast_p95_ms": "ms",
    "run.results_s": "s",
}


def export(rev, dest):
    """Write the tree of commit REV into DEST (no .git, no build state)."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                          cwd=tree, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"pairs: build failed in {tree}")


def notes_metrics(lines):
    """The run.* timings on perfbench's notes lines, as {name: value}."""
    found = {}
    for line in lines:
        if not line.startswith("# "):
            continue
        for token in line[2:].split():
            name, sep, text = token.partition("=")
            unit = NOTES_UNITS.get(name)
            if not sep or unit is None or not text.endswith(unit):
                continue
            try:
                found[name] = float(text[: -len(unit)])
            except ValueError:
                pass
    return found


def run(tree, workload, seed, seconds):
    """The result object of one perfbench run, or None if it failed; the
    notes line's run.* timings join its metrics where it lacks them."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    metrics = result.setdefault("metrics", {})
    for name, value in notes_metrics(lines[:-1]).items():
        metrics.setdefault(name, {"value": value, "unit": NOTES_UNITS[name]})
    return result


def value_of(result, metric):
    if result is None or result.get("failed", 0) != 0:
        return None
    value = result.get("metrics", {}).get(metric, {}).get("value")
    return float(value) if value is not None else None


def spec_of(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def better_of(spec, metric, override):
    if override:
        return override
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        if m["name"] == metric:
            return m["better"]
    sys.exit(f"pairs: BENCHMARK.json does not name {metric}; pass --better")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", metavar="PARENT_REV")
    p.add_argument("workload", metavar="WORKLOAD")
    p.add_argument("metric", metavar="METRIC")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--change", default="HEAD", help="revision of the change (default HEAD)")
    p.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--better", choices=("lower", "higher"))
    p.add_argument("--keep", action="store_true", help="keep the exported trees")
    args = p.parse_args()

    root = tempfile.mkdtemp(prefix="pairs-")
    trees = {"parent": os.path.join(root, "parent"), "change": os.path.join(root, "change")}
    try:
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        spec = spec_of(trees["change"])
        better = better_of(spec, args.metric, args.better)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        for tree in trees.values():
            build(tree)

        rows = []
        results = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                result = run(trees[side], args.workload, seed, seconds)
                got[side] = value_of(result, args.metric)
                results[side].append(result)
                # every run's whole result, for the metrics not tabulated
                print(f"# seed {seed} {side}: {json.dumps(result)}", file=sys.stderr, flush=True)
            rows.append((seed, order[0], got["parent"], got["change"]))
    finally:
        if not args.keep:
            shutil.rmtree(root, ignore_errors=True)

    def wins(par, chg):
        return chg < par if better == "lower" else chg > par

    fmt = lambda v: "failed" if v is None else f"{v:.4g}"
    print(f"`{args.workload}` `{args.metric}` ({better} is better), {seconds} s runs, "
          f"parent {args.parent} vs change {args.change}:\n")
    print("| pair | seed | first | parent | change | change better |")
    print("|---:|---:|---|---:|---:|---|")
    done = []
    for n, (seed, first, par, chg) in enumerate(rows, 1):
        ok = par is not None and chg is not None
        if ok:
            done.append((par, chg))
        print(f"| {n} | {seed} | {first} | {fmt(par)} | {fmt(chg)} | "
              f"{('yes' if wins(par, chg) else 'no') if ok else '-'} |")
    if not done:
        print("\nno complete pair")
        return 1
    pars = [a for a, _ in done]
    chgs = [b for _, b in done]
    pm, cm = statistics.median(pars), statistics.median(chgs)
    (p1, p3), (c1, c3) = quartiles(pars), quartiles(chgs)
    iqr = p3 - p1
    print()
    print("| | parent | change |")
    print("|---|---:|---:|")
    print(f"| median [quartiles] | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] |")
    print(f"| pairs won by the change | | {sum(wins(a, b) for a, b in done)} / {len(done)} |")
    gap = abs(pm - cm) / iqr if iqr > 0 else float("inf")
    print(f"\n{medians_sentence(pm, cm, better)}; the gap "
          f"{abs(pm - cm):.4g} is {gap:.1f}x the parent's quartile distance ({iqr:.4g}).")
    failed = len(rows) - len(done)
    if failed:
        print(f"{failed} pair(s) left out: a run failed or printed no value.")
    print_end_to_end(spec, results)
    return 0


def medians_sentence(parent, change, better):
    """How far apart the medians are, naming the side that is ahead."""
    if parent == change:
        return "Medians equal"
    change_ahead = change < parent if better == "lower" else change > parent
    ratio = max(parent, change) / min(parent, change) if min(parent, change) > 0 else float("inf")
    side = "the change's" if change_ahead else "the parent's"
    return f"Medians {ratio:.2f}x apart in {side} favour"


def print_end_to_end(spec, results):
    """Median [quartiles] of every end_to_end metric on both sides."""
    def summary(side, metric):
        xs = [v for v in (value_of(r, metric) for r in results[side]) if v is not None]
        if not xs:
            return "-"
        q1, q3 = quartiles(xs)
        return f"{statistics.median(xs):.4g} [{q1:.4g}, {q3:.4g}]"

    print("\nEvery `end_to_end` metric over the same runs, median [quartiles]:\n")
    print("| metric | better | parent | change |")
    print("|---|---|---:|---:|")
    for m in spec.get("end_to_end", []):
        print(f"| `{m['name']}` ({m['unit']}) | {m['better']} | "
              f"{summary('parent', m['name'])} | {summary('change', m['name'])} |")
    for side in ("parent", "change"):
        bad = sum(1 for r in results[side] if r is None or r.get("failed", 0) != 0)
        if bad:
            print(f"\n{side}: {bad} run(s) failed or reported failed operations.")


if __name__ == "__main__":
    sys.exit(main())
