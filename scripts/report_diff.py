"""Check that two revisions print the same CLI reports.

    python3 scripts/report_diff.py PARENT [CHANGE]

Extracts each revision with ``git archive`` into its own fresh temporary
directory (CHANGE defaults to the working tree, as in
``paired_runs.py``: stage new files first), runs each command of
``COMMANDS`` there as ``python -m selfref.cli`` under
``bench_snapshot``'s environment, and compares the exit codes and the
JSON reports with every ``wall_time_s`` removed, at any depth.  It
prints ``same`` or ``differs`` per command and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from bench_snapshot import _run
from paired_runs import _extract, _tree

_BUDGETS = ([], ["--node-budget", "0"], ["--node-budget", "234"],
            ["--node-budget", "2000"],
            ["--witness-bound", "300", "--node-budget", "20000"],
            ["--upsilon", "¬(x=x)"], ["--upsilon", "x=x"])
COMMANDS = [
    *([command, *flags] for command in ("berry", "tarski-experiment")
      for flags in _BUDGETS),
    ["tarski-experiment", "--upsilon", "Formula(x)"],
    # a quantifier property, read through lane nodes
    ["berry", "--upsilon", "∃x′(x′+(x′)=x)"],
    ["tarski-experiment", "--node-budget", "2000", "--upsilon",
     "∃x′(x′+(x′)=x)"],
    # spot checks cut inside an α sweep, one of them read in bulk
    ["berry", "--node-budget", "30000"],
    ["berry", "--upsilon", "¬(x=x)", "--node-budget", "30000"],
    ["berry", "--micro-maxlen", "9", "--witness-bound", "2"],
    ["berry", "--micro-maxlen", "14"],
    ["berry", "--witness-bound", "3000"],
    ["dominate", "--x", "3"],
    ["dominate", "--x", "2", "--kotlarski"],
    ["dominate", "--x", "50", "--kotlarski"],
    *(["refute-truth", "--preset", preset]
      for preset in ("everything-true", "nothing-true", "parity")),
    ["diagonalize", "--psi", "x=x"],
    ["rosser"],
    ["goedel"],
    ["selftest"],
    ["tb", "--psi", "x=x"],
]


def _untimed(report):
    """report with every wall_time_s removed, at any depth."""
    if isinstance(report, dict):
        return {key: _untimed(value) for key, value in report.items()
                if key != "wall_time_s"}
    if isinstance(report, list):
        return [_untimed(value) for value in report]
    return report


def _report(argv: list[str], root: Path) -> tuple[int, object]:
    proc, _ = _run([sys.executable, "-m", "selfref.cli", *argv], root)
    try:
        return proc.returncode, _untimed(json.loads(proc.stdout))
    except json.JSONDecodeError:
        return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?", default=None)
    args = ap.parse_args()
    sides = (_tree(args.parent), _tree(args.change))
    print(f"parent {sides[0][:12]}, change {sides[1][:12]}")
    differ = 0
    with tempfile.TemporaryDirectory() as parent_dir, \
            tempfile.TemporaryDirectory() as change_dir:
        roots = (Path(parent_dir), Path(change_dir))
        for revision, root in zip(sides, roots):
            _extract(revision, root)
        for argv in COMMANDS:
            parent, change = (_report(argv, root) for root in roots)
            same = parent == change
            differ += not same
            detail = "" if same or parent[0] == change[0] \
                else f" (exit {parent[0]} -> {change[0]})"
            print(f"{'same' if same else 'differs'}{detail}: "
                  f"{' '.join(argv)}")
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
