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
from functools import reduce
from pathlib import Path

from bench_snapshot import ROOT, _run
from paired_runs import _extract, _tree

# a formula of 382 tokens that holds numeral(24) and numeral(23) twice
# each, so render and encode pass them as shared numerals; every
# character is one token, so its code folds the pinned token ids
_N24, _N23 = "1+(" * 23 + "1" + ")" * 23, "1+(" * 22 + "1" + ")" * 22
_SHARED_NUMERALS = f"{_N24}=x∧({_N23}<x′)∧({_N24}·(x′′)={_N23})"
_IDS = json.loads((ROOT / "src/selfref/fixtures/codes.json").read_text(
    encoding="utf-8"))["ids"]
_SHARED_NUMERALS_CODE = reduce(lambda code, token: code * 24 + _IDS[token],
                               _SHARED_NUMERALS, 0)
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
    # spot checks cut inside an α sweep, which the loop runs
    ["berry", "--node-budget", "30000"],
    ["berry", "--upsilon", "¬(x=x)", "--node-budget", "30000"],
    # a property over a term with no interpretation, UNKNOWN everywhere
    *([command, "--upsilon", "inst(x,x,x)+(1)=x"]
      for command in ("berry", "tarski-experiment")),
    ["berry", "--micro-maxlen", "9", "--witness-bound", "2"],
    ["berry", "--micro-maxlen", "14"],
    # the nothing-true report at micro length 14, whose α sweeps never
    # stop, and a definability table whose formulas read an oracle atom
    ["berry", "--upsilon", "¬(x=x)", "--micro-maxlen", "14"],
    ["tarski-experiment", "--upsilon", "¬(Formula(x))"],
    ["berry", "--witness-bound", "3000"],
    ["dominate", "--x", "3"],
    ["dominate", "--x", "2", "--kotlarski"],
    ["dominate", "--x", "50", "--kotlarski"],
    *(["refute-truth", "--preset", preset]
      for preset in ("everything-true", "nothing-true", "parity")),
    # verdict failures, exit 1: a code that decodes to nothing, and a
    # candidate whose sentence the node budget leaves UNKNOWN
    ["decode", "24"],
    ["parse", _SHARED_NUMERALS],
    ["encode", _SHARED_NUMERALS],
    ["decode", str(_SHARED_NUMERALS_CODE)],
    ["refute-truth", "--candidate", "x=x", "--node-budget", "5"],
    ["diagonalize", "--psi", "x=x"],
    ["rosser"],
    ["goedel"],
    ["remark-demo"],
    ["selftest"],
    ["tb", "--psi", "x=x"],
    # bounded proof search: a proof, an exhausted frontier, an axiom, a
    # spent budget, and a goal deeper than any pool template
    ["prove", "--goal", "¬(¬(0=0))"],
    ["prove", "--goal", "0<1"],
    ["prove", "--goal", "∀x(¬(x<0))"],
    ["prove", "--goal", "Tr(0)", "--budget", "100"],
    ["prove", "--goal", "¬(" * 300 + "0=0" + ")" * 300, "--budget", "20000"],
    # a proof through an ex_intro premise, and a universal goal whose
    # budget goes on instances of the axioms' universals
    ["prove", "--goal", "∃x(x=0)"],
    ["prove", "--goal", "∀x(x<1+(1)→(x<1∨(x=1)))", "--budget", "2000"],
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
            label = " ".join(argv)
            if len(label) > 100:
                label = label[:97] + "..."
            print(f"{'same' if same else 'differs'}{detail}: {label}")
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
