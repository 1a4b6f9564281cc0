"""One fresh interpreter: import, set up, run one timed pass, check.

``run.py`` starts this file once per pass, one at a time, so every pass
starts with the package's caches cold, as every CLI invocation does.
The last line of standard output is one JSON object for the parent.

    python3 perfbench/child.py --workload NAME --seed N --mode pass|setup
                               [--trace] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The host's throughput drifts by about +-20 % over tens of seconds, as a
# fixed loop timed alone shows, and a pass cannot outlast that drift.  So
# a pass also times a reference step that touches nothing of selfref: an
# arithmetic loop and a round of dict stores and lookups under nested
# tuple keys, the two kinds of work the workloads mix.  It runs at the
# start of the pass, every REFERENCE_EVERY_S between steps, and at the
# end; the parent rescales the pass time by its median duration, and each
# item by the samples on either side of it.
REFERENCE_ITERATIONS = 20_000
REFERENCE_KEYS = tuple(((i, (i + 1, (i + 2, "k"))), i) for i in range(6_000))
REFERENCE_EVERY_S = 0.25


def reference_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    table = {}
    for key, value in REFERENCE_KEYS:
        table[key] = value
    for key, _ in REFERENCE_KEYS:
        acc += table[key]
    return time.perf_counter() - start


# public cached entry points a timed pass must find empty; setup may fill
# the ones its workload lists in ``warm``
COLD_ENTRY_POINTS = (
    ("diagonal", "diagonal_sentence"),
    ("enumeration", "formulas_of_length"),
    ("proofs", "standard_theory"),
    ("diagonal", "build_diag_formula"),
)


def import_package():
    """Import ``selfref.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import selfref.cli  # noqa: F401  (pulls in every layer)
    import selfref

    origin = Path(selfref.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"selfref imported from {origin}, not from {SRC}")


def cache_entries(functions: dict) -> dict[str, int]:
    """Entries held by each cached function (0 when it has no cache)."""
    return {name: fn.cache_info().currsize if hasattr(fn, "cache_info")
            else 0 for name, fn in functions.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)  # plain inputs, untimed
    start = time.perf_counter()
    import_package()
    # captured before the tracer rebinds them, so cache_info stays reachable
    entry_points = {name: getattr(sys.modules[f"selfref.{m}"], name)
                    for m, name in COLD_ENTRY_POINTS}
    at_import = cache_entries(entry_points)
    install_s = 0.0
    tracer = None
    if args.trace:
        from tracer import Tracer

        t = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        install_s = time.perf_counter() - t

    workload.setup()
    setup_s = time.perf_counter() - start - install_s
    setup_reference = [reference_s() for _ in range(3)]

    at_pass = cache_entries(entry_points)
    warm_entries = [name for name, n in at_import.items() if n] + [
        name for name, n in at_pass.items()
        if n and name not in workload.warm]
    result = {"digest": workload.digest, "setup_s": setup_s,
              "setup_reference_s": setup_reference,
              "warm_entries": warm_entries}
    if args.mode == "pass":
        if tracer is not None:
            tracer.reset_totals()
        items: list[list] = []  # [label, seconds, local reference]
        outputs: dict[str, object] = {}
        errors: list[str] = []
        reference = [reference_s()]
        # (samples taken so far, item) per item: an item is rescaled by
        # the mean of the samples just before and just after it
        pending: list[tuple[int, list]] = []
        begin = last_reference = time.perf_counter()
        for block in workload.blocks():
            for label, thunk, is_item in block:
                if time.perf_counter() - last_reference > REFERENCE_EVERY_S:
                    t = time.perf_counter()
                    reference.append(reference_s())
                    last_reference = time.perf_counter()
                    begin += last_reference - t
                if tracer is not None:
                    tracer.item = len(items)
                t = time.perf_counter()
                try:
                    output = thunk()
                except Exception as exc:  # an item that raises has failed
                    output = None
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                    if not is_item:
                        break
                if is_item:
                    items.append([label, time.perf_counter() - t])
                    pending.append((len(reference), items[-1]))
                    if output is not None:
                        outputs[label] = output
        pass_s = time.perf_counter() - begin
        reference.append(reference_s())
        for taken, item in pending:
            item.append((reference[taken - 1] + reference[taken]) / 2)
        if tracer is not None:
            tracer.on = False
            result["layers"] = tracer.metrics(pass_s)
            if args.spans:
                tracer.write(args.spans)
        failed = set(label.split(":")[0] for label in errors)
        for message in workload.check(outputs):
            failed.add(message.split(":")[0])
            errors.append(message)
        result.update({
            "pass_s": pass_s,
            "reference_s": reference,
            "items": items,
            "decided": sum(1 for label, *_ in items if label in outputs
                           and workload.decided(label, outputs[label])),
            "failed": sorted(failed),
            "errors": errors[:20],
        })
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
