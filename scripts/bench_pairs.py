#!/usr/bin/env python
"""Compare the repository benchmark between a base commit and the
working tree, in alternating pairs of runs.

    python scripts/bench_pairs.py BASE [--workload W ...] [--pairs N]
        [--seconds S] [--first-seed K] [--trace 0|1]

``BASE`` is any git revision. Both sides are exported to temporary
directories, ``BASE`` with ``git archive`` and the working tree as its
tracked and untracked, not ignored, files (edits included), so neither
side starts from the other's bytecode. Then, per workload, pair ``i``
runs ``perfbench/run.py --seed K+i`` once on each side, the base first
in pairs 1, 3, 5, ... and the working tree first in the others, so a
host that speeds up or slows down for minutes at a time favours
neither side.

For each metric the report gives each side's median and quartiles, the
median change, how that change compares with the base's own quartile
spread, and in how many pairs the working tree was better (the
direction comes from ``BENCHMARK.json``). A host this noisy needs ten
or more 20-s pairs before a gain is worth claiming.

The exit status is 1 when any run fails to finish or reports a failed
operation (``"failed"`` above 0), else 0: it does not judge speed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True).stdout


def export_revision(revision: str, destination: str) -> None:
    archive = git("archive", "--format=tar", revision)
    subprocess.run(["tar", "-x", "-C", destination], input=archive, check=True)


def export_worktree(destination: str) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = os.path.join(REPO, name)
        if os.path.isfile(source):  # a tracked file may be deleted
            target = os.path.join(destination, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def child_env() -> Dict[str, str]:
    # each tree imports its own src/; an inherited PYTHONPATH must not
    # put another one ahead of it
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def warm(tree: str) -> None:
    """Build the tree's compiled kernels before any timed run."""
    subprocess.run([sys.executable, "-c",
                    "from repro import native; native.kernels()"],
                   cwd=tree, env={**child_env(), "PYTHONPATH": "src"},
                   check=True)


def run(tree: str, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One benchmark run; its last stdout line, or a failure record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=child_env(), capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode or not isinstance(result, dict):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    return result


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(workload: str, pairs: List[dict], better: Dict[str, str]) -> None:
    print(f"\n## {workload}: {len(pairs)} pairs")
    print(f"{'metric':40s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'change':>8s} "
          f"{'gap/IQR':>8s} {'wins':>6s}")
    for name in pairs[0]["base"]["metrics"]:
        base = [pair["base"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        if not any(base + change):
            continue  # a metric this workload never reaches reads 0
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        relative = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
        spread = b3 - b1
        gap = f"{abs(cm - bm) / spread:.1f}" if spread else "n/a"
        print(f"{name:40s} {f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>30s} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30s} {relative:>8s} "
              f"{gap:>8s} {f'{wins}/{len(pairs)}':>6s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE",
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", action="append",
                        help="a BENCHMARK.json workload (repeatable; "
                             "default: all of them)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=100,
                        help="pair i runs seed FIRST_SEED + i on both sides")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    workloads = args.workload or [entry["name"] for entry in manifest["workloads"]]
    metrics = manifest["per_layer" if args.trace else "end_to_end"]
    better = {entry["name"]: entry["better"] for entry in metrics}

    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as temp:
        trees = {"base": os.path.join(temp, "base"),
                 "change": os.path.join(temp, "change")}
        for tree in trees.values():
            os.mkdir(tree)
        export_revision(args.base, trees["base"])
        export_worktree(trees["change"])
        for tree in trees.values():
            warm(tree)
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, args.seconds,
                                     args.trace)
                    outcome = pair[side]
                    if "error" in outcome or outcome.get("failed"):
                        failed = True
                        print(f"{workload} seed {seed} {side}: FAILED "
                              f"{outcome.get('error', outcome.get('failed'))}",
                              file=sys.stderr)
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                      f"{order[0]} first) done", file=sys.stderr)
                if all("metrics" in outcome for outcome in pair.values()):
                    pairs.append(pair)
            if pairs:
                report(workload, pairs, better)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
