"""Write one BENCH_<n>.json: the benchmark plus the suite-level timings.

    python3 scripts/bench_snapshot.py N

Runs ``perfbench/run.py`` once on each workload that ``BENCHMARK.json``
lists, for its ``run_seconds`` and at the fixed seed ``SEED`` (so that
snapshots compare run for run), and keeps the final JSON line of each
run.  A second, traced run per workload (``--trace 1 --seconds 1``)
gives its deterministic work counters, the metrics in count and ratio
units, which go under ``counters``.  It also records the per-criterion
times of ``acceptance.run_all()``, the wall time and outcome of the
tier-1 suite (``python -m pytest -q`` with ``src`` on the path), the
lines of each module under ``src/selfref`` and their total, the number
of usable CPUs, the Python version and the git revision, and writes all
of it to ``BENCH_<N>.json`` at the root of the checkout.  Nothing in
``perfbench/`` is changed or configured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# units of the traced metrics that count work; trace.overhead_ratio is
# a ratio of times and is left out
COUNTER_UNITS = ("count", "ratio")
CRITERIA = """
import json
from selfref.acceptance import run_all
print(json.dumps([{"number": r.number, "ok": r.ok, "elapsed_s": r.elapsed,
                   "limit_s": r.limit} for r in run_all()]))
"""


def _env(root: Path = ROOT) -> dict:
    """The environment every benchmark and test run gets: a fixed hash
    seed, the checkout at root on the path, and no budget profile."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SELFREF_BUDGET_PROFILE", None)
    return env


def _run(argv: list[str], root: Path = ROOT
         ) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=_env(root), capture_output=True,
                          text=True)
    return proc, time.perf_counter() - start


def _last_json(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def _counters(result: dict) -> dict:
    if "metrics" not in result:
        return result
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] in COUNTER_UNITS
            and name != "trace.overhead_ratio"}


def _git_revision() -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _src_lines() -> dict:
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((ROOT / "src" / "selfref").glob("*.py"))}
    return dict(lines, total=sum(lines.values()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    benchmark, counters = {}, {}
    for name in (w["name"] for w in spec["workloads"]):
        run = [sys.executable, "perfbench/run.py", "--workload", name,
               "--seed", str(SEED)]
        proc, _ = _run(run + ["--seconds", str(seconds), "--trace", "0"])
        benchmark[name] = _last_json(proc)
        proc, _ = _run(run + ["--seconds", "1", "--trace", "1"])
        counters[name] = _counters(_last_json(proc))
        print(f"{name}: done", file=sys.stderr)
    proc, criteria_s = _run([sys.executable, "-c", CRITERIA])
    criteria = _last_json(proc)
    proc, tier1_s = _run([sys.executable, "-m", "pytest", "-q",
                          "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"])
    summary = proc.stdout.strip().splitlines()[-1:] or [""]
    snapshot = {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "seconds": seconds,
        "benchmark": benchmark,
        "counters": counters,
        "acceptance": {"wall_s": round(criteria_s, 3), "criteria": criteria},
        "tier1": {"wall_s": round(tier1_s, 3), "exit": proc.returncode,
                  "summary": summary[0]},
        "src_lines": _src_lines(),
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
