"""Benchmark for ``selfref``: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: the items of a pass run back to
back in one process, and passes run one at a time, each in a fresh
interpreter (``child.py``) with a fixed ``PYTHONHASHSEED``, so each pass
pays the cold caches every CLI invocation pays.  Passes repeat while the
next one should end within S seconds, and at least three run.  The
end-to-end metrics are medians over passes, with times taken to a
nominal host speed (see ``REFERENCE_NOMINAL_S``).

With ``--trace 1`` the run alternates plain and traced passes; the
traced passes use two hash seeds, and every count they report must agree
(the determinism probe), else the run is not correct.  Spans go to
``.perfbench-out/`` at the root of the checkout.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("oracle-eval", "proof-search", "micro-catalogue",
                  "giant-codes")
# Times are reported at the host speed where child.reference_s() takes this
# long; the first output line gives the raw wall-clock medians as well.
REFERENCE_NOMINAL_S = 0.0022
HASH_SEED = "0"
PROBE_HASH_SEEDS = ("0", "1")
MIN_PASSES = 3
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
# counts that must not depend on the hash seed or on the run
DETERMINISTIC_UNITS = ("count", "ratio")


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, trace: bool = False,
              hash_seed: str = HASH_SEED, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    if trace:
        argv.append("--trace")
    if spans is not None:
        argv += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SELFREF_BUDGET_PROFILE")}
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} pass of {workload} exited with "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, values beyond it) of the highest percentile that
    still has at least ten values beyond it; the maximum when no
    percentile has."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def scale(reference: list[float]) -> float:
    """Factor that takes times measured next to these reference samples to
    the nominal host speed."""
    return REFERENCE_NOMINAL_S / statistics.median(reference)


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    first = passes[0]
    labels = [label for label, _, _ in first["items"]]
    per_item = {label: [] for label in labels}
    for p in passes:
        for label, seconds, local in p["items"]:
            per_item[label].append(seconds * REFERENCE_NOMINAL_S / local)
    item_s = [statistics.median(v) for v in per_item.values()]
    tail_s, tail_pct, beyond = tail(item_s)
    n = len(labels)
    failed = sum(len(p["failed"]) for p in passes)
    return {
        "setup_s": (statistics.median(
            c["setup_s"] * scale(c["setup_reference_s"]) for c in setups),
            "s"),
        "pass_s": (statistics.median(
            p["pass_s"] * scale(p["reference_s"]) for p in passes), "s"),
        "item_p50_ms": (1e3 * statistics.median(item_s), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "decided_share": (first["decided"] / n, "ratio"),
        "failed_share": (failed / (n * len(passes)), "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes),
                        "MB"),
    }, {"items": n, "tail_percentile": round(tail_pct, 2),
        "tail_items_beyond": beyond,
        "wall_pass_s": round(statistics.median(p["pass_s"] for p in passes), 4),
        "wall_setup_s": round(statistics.median(c["setup_s"] for c in setups),
                              4),
        "reference_ms": round(1e3 * statistics.median(
            x for p in passes for x in p["reference_s"]), 4)}


def problems_of(passes: list[dict]) -> list[str]:
    problems = []
    for p in passes:
        problems += p["errors"]
        if p["warm_entries"]:
            problems.append(f"caches not cold at pass start: "
                            f"{p['warm_entries']}")
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes ran different inputs")
    if len({(p["decided"], tuple(p["failed"])) for p in passes}) > 1:
        problems.append("passes reached different verdicts")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=14)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w, seed = args.workload, args.seed

    try:
        run_child(w, seed, "setup")  # compiles bytecode, warms the disk cache
        start = time.perf_counter()
        if args.trace:
            OUT.mkdir(exist_ok=True)
            plain, traced = [], []
            for hash_seed in PROBE_HASH_SEEDS:
                plain.append(run_child(w, seed, "pass"))
                traced.append(run_child(
                    w, seed, "pass", trace=True, hash_seed=hash_seed,
                    spans=OUT / f"{w}-seed{seed}-hash{hash_seed}.spans"))
        else:
            # start a pass while it should end within the run's seconds,
            # judging by the last one
            passes, last = [], 0.0
            while len(passes) < MIN_PASSES or \
                    time.perf_counter() - start + last < args.seconds:
                t = time.perf_counter()
                passes.append(run_child(w, seed, "pass"))
                last = time.perf_counter() - t
            setups = list(passes)
            while len(setups) < MIN_SETUPS:
                setups.append(run_child(w, seed, "setup"))
    except (ChildFailed, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    if args.trace:
        runs = plain + traced
        problems = problems_of(runs)
        layers = [t["layers"] for t in traced]
        for name, (value, unit) in layers[0].items():
            if unit in DETERMINISTIC_UNITS and any(
                    other[name][0] != value for other in layers[1:]):
                problems.append(f"determinism probe: {name} differs between "
                                f"hash seeds {PROBE_HASH_SEEDS}")
        metrics = {name: (value if unit in DETERMINISTIC_UNITS else
                          statistics.median(lay[name][0] for lay in layers),
                          unit)
                   for name, (value, unit) in layers[0].items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(t["pass_s"] * scale(t["reference_s"])
                              for t in traced)
            / statistics.median(p["pass_s"] * scale(p["reference_s"])
                                for p in plain), "ratio")
        report = metrics
        info = {"items": len(traced[0]["items"])}
    else:
        runs = passes
        problems = problems_of(runs)
        metrics, info = end_to_end(passes, setups)
        report = {k: v for k, v in metrics.items() if k != "failed_share"}
    attempted = sum(len(r["items"]) for r in runs)
    failed = sum(len(r["failed"]) for r in runs)

    print(f"perfbench {w} seed={seed} trace={args.trace} passes={len(runs)} "
          f"digest={runs[0]['digest'][:16]} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for message in problems[:20]:
        print(f"problem: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
