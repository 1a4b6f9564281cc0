"""Paired benchmark runs of two revisions, to compare them run for run.

    python3 scripts/paired_runs.py PARENT [CHANGE] [--pairs N] [--seed S]
                                   [--workload NAME ...]

Extracts each revision with ``git archive`` into its own fresh temporary
directory, so both sides start without bytecode caches.  CHANGE defaults
to the working tree (``git stash create``: tracked and staged changes,
so stage new files first).  For each workload that ``BENCHMARK.json``
lists (or each ``--workload``), it runs ``perfbench/run.py --trace 0``
on both sides for ``run_seconds`` at the seed given, ``--pairs`` times,
the parent first in even pairs and the change first in odd ones.  It then prints, per workload and end-to-end metric, the
median and quartiles of each side and the pairs the change wins (better
in the metric's direction), and last one JSON line with every value.
Runs share ``bench_snapshot``'s environment.  Nothing in ``perfbench/``
or ``BENCHMARK.json`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from bench_snapshot import ROOT, _last_json, _run


def _tree(revision: Optional[str]) -> str:
    """The commit to archive: revision, or the working tree if None."""
    argv = ["git", "stash", "create"] if revision is None \
        else ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip() or _tree("HEAD")


def _extract(revision: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?", default=None)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": _tree(args.parent), "change": _tree(args.change)}

    values: dict = {w: {side: [] for side in sides} for w in workloads}
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as parent_dir, \
            tempfile.TemporaryDirectory() as change_dir:
        roots = {"parent": Path(parent_dir), "change": Path(change_dir)}
        for side, revision in sides.items():
            _extract(revision, roots[side])
        for w in workloads:
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    proc, _ = _run([sys.executable, "perfbench/run.py",
                                    "--workload", w, "--seed", str(args.seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                                   roots[side])
                    result = _last_json(proc)
                    if not result.get("correct") or result.get("failed"):
                        problems.append(f"{w} {side} pair {k}: "
                                        f"{json.dumps(result)[:300]}")
                    values[w][side].append(
                        {name: m["value"] for name, m
                         in result.get("metrics", {}).items()})
                print(f"{w}: pair {k + 1}/{args.pairs} done", file=sys.stderr)

    print(f"seed {args.seed}, {args.pairs} pairs of {seconds} s runs; "
          f"parent {sides['parent'][:12]}, change {sides['change'][:12]}")
    for w in workloads:
        print(w)
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            got = {side: [run.get(name) for run in values[w][side]]
                   for side in sides}
            if None in got["parent"] + got["change"]:
                print(f"  {name:14s} missing in some runs")
                continue
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(got["parent"], got["change"]))
            spread = {side: "{1:.5g} [{0:.5g}, {2:.5g}]".format(
                *_quartiles(got[side])) for side in sides}
            print(f"  {name:14s} parent {spread['parent']:32s} "
                  f"change {spread['change']:32s} "
                  f"wins {wins}/{len(got['change'])}")
    for message in problems:
        print(f"problem: {message}")
    print(json.dumps({"seed": args.seed, "seconds": seconds,
                      "revisions": sides, "values": values}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
