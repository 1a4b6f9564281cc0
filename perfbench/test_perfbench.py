"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``.

They sit outside the package's ``testpaths`` so the tier-1 suite does not
pay for them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import corpus
from run import OUT, ROOT, WORKLOAD_NAMES, run_child

HERE = Path(__file__).resolve().parent


def _python(code: str, hash_seed: str = "0") -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_oracle_eval_generator_reproduces_criterion_14():
    sys.path.insert(0, str(ROOT / "src"))
    from selfref.acceptance import _random_formula
    from selfref.syntax import free_vars

    rng = random.Random(14)
    triples = corpus.substitution_triples(corpus.ORACLE_EVAL_GENERATOR_SEED,
                                          corpus.ORACLE_EVAL_TRIPLES)
    assert len(triples) == 500
    for phi, v, m, rest in triples:
        want = _random_formula(rng, rng.randrange(1, 5))
        want_v, want_m = rng.randrange(3), rng.randrange(12)
        want_rest = {w: rng.randrange(12) for w in free_vars(want)
                     if w != want_v}
        assert (corpus.build(phi), v, m, dict(rest)) == \
            (want, want_v, want_m, want_rest)


def test_digests_need_no_selfref_and_ignore_the_hash_seed():
    code = ("import json, sys; from workloads import WORKLOADS; "
            "d = {n: w(3).digest for n, w in WORKLOADS.items()}; "
            "assert not any(m.startswith('selfref') for m in sys.modules); "
            "print(json.dumps(d, sort_keys=True))")
    first, second = _python(code, "0"), _python(code, "1")
    assert first == second
    assert sorted(json.loads(first)) == sorted(WORKLOAD_NAMES)


def test_caches_are_cold_when_the_timed_pass_starts():
    for name in WORKLOAD_NAMES:
        assert run_child(name, 1, "setup")["warm_entries"] == []


def test_tracer_sees_copied_and_call_time_bindings():
    code = """
import sys
sys.path.insert(0, "../src")
from tracer import Tracer
t = Tracer(); t.install()
import selfref.cli as cli
from selfref import coding, semantics, syntax
assert getattr(cli.decode, "__perfbench_traced__", False)
assert getattr(coding.decode, "__perfbench_traced__", False)
env = semantics.standard_oracle_env()
phi = syntax.OracleAtom("Formula", (syntax.numeral(9929),))
semantics.evaluate(phi, env)
m = t.metrics(1.0)
print(m["coding.decode.calls"][0], m["oracle.Formula.calls"][0],
      m["semantics.evaluate.calls"][0])
"""
    decode_calls, formula_calls, evaluations = map(int, _python(code).split())
    assert decode_calls >= 1 and formula_calls == 1 and evaluations == 1


def test_traced_counts_repeat_across_runs():
    def counts() -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "proof-search", "--seed", "2", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] == "count"}

    assert counts() == counts()


def test_refuses_to_run_without_the_package_source():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
