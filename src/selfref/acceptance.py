"""Executable acceptance checks, one per release criterion.

Each criterion is a zero-argument function returning a CriterionResult.
The pytest suite runs them one per test so failures stay isolated; the
command line ``selftest`` subcommand runs the same functions and prints
one line per criterion.  Wall-clock caps are part of the criteria with
pinned budgets, so a slow pass is a failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .berry import (
    berry_contradiction_report, build_bundle, least_undefinable,
    length_audit, micro_universe, pigeonhole_duplicate,
    truth_oracle_property,
)
from .bignat import BigNat
from .coding import decode, encode, quote
from .diagonal import (
    check_fixed_point, diagonal_sentence, normalize_psi,
    refute_truth_definition, taut_equiv,
)
from .domination import (
    F_fixed_input, F_kotlarski, build_psi, defined_function,
    dominates_check, micro_domination_env, micro_scheme,
)
from .enumeration import count_formulas, formulas_of_length
from .proofs import (
    NotFound, bounded_proof_search, check_proof, load_fixture_proof,
    neg_neg_proof, not_below_zero_proof, remark_demo, rosser_sentence,
    standard_theory, successor_bound_proof,
)
from .semantics import Budget, Truth, eval_term, evaluate, standard_oracle_env
from .syntax import (
    Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt, Mul, Not,
    One, Or, OracleAtom, OracleFun, Var, Zero, free_vars, length,
    numeral, substitute,
)

T = Truth.TRUE
F = Truth.FALSE


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    elapsed: float
    limit: Optional[float]

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        cap = f" (cap {self.limit:.0f}s)" if self.limit else ""
        return (f"[{status}] criterion {self.number:02d} {self.title}: "
                f"{self.detail} [{self.elapsed:.2f}s{cap}]")


def _timed(number: int, title: str, limit: Optional[float],
           fn: Callable[[], tuple[bool, str]]) -> CriterionResult:
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    if ok and limit is not None and elapsed >= limit:
        ok = False
        detail += f"; wall time {elapsed:.2f}s at or over the {limit:.0f}s cap"
    return CriterionResult(number, title, ok, detail, elapsed, limit)


# -- shared corpora ---------------------------------------------------------------------

_X = Var(0)
_EVEN = Exists(Var(2), Eq(Add(Var(2), Var(2)), _X))

FIXED_POINT_CORPUS: tuple[tuple[str, Formula, Optional[Truth]], ...] = (
    # expected None means: derived from the sentence code, not pinned
    ("tautology", Eq(_X, _X), T),
    ("contradiction", Not(Eq(_X, _X)), F),
    ("parity-even", _EVEN, None),
    ("parity-odd", Not(_EVEN), None),
    ("above-five", Lt(numeral(5), _X), T),
    ("below-five", Lt(_X, numeral(5)), F),
    ("zero", Eq(_X, Zero()), F),
    ("successor", Exists(Var(2), Eq(Add(Var(2), One()), _X)), T),
    ("growth", Lt(_X, Add(_X, One())), T),
    ("multiple-of-three", Exists(Var(2), Eq(Mul(numeral(3), Var(2)), _X)), T),
)

TRUTH_CANDIDATES: tuple[tuple[str, Formula], ...] = (
    ("everything-true", Eq(_X, _X)),
    ("nothing-true", Not(Eq(_X, _X))),
    ("parity", _EVEN),
)

BERRY_CORPUS: tuple[Formula, ...] = (
    Eq(_X, _X),
    Not(Eq(_X, _X)),
    truth_oracle_property(),
    _EVEN,
    Lt(_X, numeral(5)),
)


def _code_mod(code, m: int) -> int:
    return code.mod_int(m) if isinstance(code, BigNat) else code % m


def _random_term(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice([Zero(), One(), Var(rng.randrange(3)),
                           numeral(rng.randrange(2, 9))])
    kind = rng.randrange(6)
    if kind <= 1:
        return _random_term(rng, 0)
    if kind == 2:
        return Add(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 3:
        return Mul(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 4:
        return OracleFun("len", (_random_term(rng, depth - 1),))
    return OracleFun("D", (_random_term(rng, depth - 1),
                           _random_term(rng, depth - 1)))


def _random_formula(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice([
            Eq(_random_term(rng, 1), _random_term(rng, 1)),
            Lt(_random_term(rng, 1), _random_term(rng, 1)),
            OracleAtom("Formula", (_random_term(rng, 1),)),
        ])
    kind = rng.randrange(8)
    if kind <= 1:
        return _random_formula(rng, 0)
    if kind == 2:
        return Not(_random_formula(rng, depth - 1))
    if kind in (3, 4):
        ctor = rng.choice([And, Or, Implies, Iff])
        return ctor(_random_formula(rng, depth - 1),
                    _random_formula(rng, depth - 1))
    ctor = rng.choice([Forall, Exists])
    return ctor(Var(rng.randrange(3)), _random_formula(rng, depth - 1))


# -- the criteria -----------------------------------------------------------------------

def criterion_01() -> CriterionResult:
    def check() -> tuple[bool, str]:
        bad = [m for m in range(1, 501) if length(numeral(m)) != 4 * m - 3]
        vars_ok = length(Var(2)) == 3
        eq_ok = length(Eq(_X, _X)) == 3
        ok = not bad and vars_ok and eq_ok
        detail = ("length(numeral(m)) = 4m-3 for m in 1..500; "
                  "double-primed variable costs 3; x=x costs 3")
        if bad:
            detail = f"law fails first at m={bad[0]}"
        return ok, detail
    return _timed(1, "numeral length law", 1.0, check)


def criterion_02() -> CriterionResult:
    def check() -> tuple[bool, str]:
        counts = []
        for n in range(3, 9):
            built = len(formulas_of_length(n))
            counted = count_formulas(n)
            if built != counted:
                return False, (f"mismatch at length {n}: built {built}, "
                               f"recurrence says {counted}")
            counts.append(built)
        total = sum(counts)
        return True, (f"{total} formulas of length <= 8; per-length counts "
                      f"{counts} match the recurrence recount")
    return _timed(2, "finite enumeration with independent recount", None,
                  check)


def criterion_03() -> CriterionResult:
    def check() -> tuple[bool, str]:
        rng = random.Random(2020)
        env = standard_oracle_env()
        for i in range(1000):
            phi = _random_formula(rng, rng.randrange(1, 7))
            code = encode(phi)
            if decode(code) != phi:
                return False, f"decode(encode(.)) misses at sample {i}"
            if eval_term(quote(phi), {}, env) != code:
                return False, f"quote denotes a different value at sample {i}"
        return True, "decode(encode(phi)) = phi and quote(phi) denotes " \
                     "encode(phi) on 1000 random formulas of depth <= 6"
    return _timed(3, "coding roundtrip", 10.0, check)


def criterion_04() -> CriterionResult:
    def check() -> tuple[bool, str]:
        p = Eq(_X, _X)
        q = Lt(Zero(), One())
        moved = taut_equiv(Not(Iff(p, q)), Iff(Not(p), q))
        control = taut_equiv(Not(Iff(p, q)), Iff(p, q))
        ok = moved and not control
        return ok, "negation hops across the biconditional by exhaustive " \
                   "truth table, and the unnegated control is rejected"
    return _timed(4, "tautology step", None, check)


def criterion_05() -> CriterionResult:
    def check() -> tuple[bool, str]:
        verdicts = []
        for name, psi, expected in FIXED_POINT_CORPUS:
            cert = diagonal_sentence(psi)
            report = check_fixed_point(cert)
            if report.equivalence is not T:
                return False, f"{name}: the two sides were not certified equal"
            if report.theta_truth not in (T, F):
                return False, f"{name}: verdict undecided"
            if report.theta_truth is not report.psi_at_code_truth:
                return False, f"{name}: sides disagree"
            if name.startswith("parity"):
                even_code = _code_mod(cert.theta_code, 2) == 0
                expected = (T if even_code else F) if name == "parity-even" \
                    else (F if even_code else T)
            if expected is not None and report.theta_truth is not expected:
                return False, f"{name}: got {report.theta_truth}, " \
                              f"wanted {expected}"
            verdicts.append(f"{name}={report.theta_truth.name}")
        return True, "; ".join(verdicts)
    return _timed(5, "fixed points across a 10-formula corpus", 60.0, check)


def criterion_06() -> CriterionResult:
    def check() -> tuple[bool, str]:
        parts = []
        for name, candidate in TRUTH_CANDIDATES:
            report = refute_truth_definition(candidate)
            if not report.refuted:
                return False, f"{name}: no refutation produced"
            if report.theta_truth not in (T, F) or \
                    report.candidate_at_code not in (T, F):
                return False, f"{name}: sides not certified"
            if report.theta_truth is report.candidate_at_code:
                return False, f"{name}: biconditional held"
            parts.append(f"{name}: sentence {report.theta_truth.name}, "
                         f"candidate says {report.candidate_at_code.name}")
        return True, "; ".join(parts)
    return _timed(6, "truth-definition refutation", None, check)


def criterion_07() -> CriterionResult:
    def check() -> tuple[bool, str]:
        ells = []
        for upsilon in BERRY_CORPUS:
            audit = length_audit(build_bundle(upsilon))
            if not audit.bound_holds:
                return False, (f"bound fails: {audit.b_length} vs "
                               f"{audit.six_ell}")
            ell = audit.six_ell // 6
            if ell <= 24:
                return False, f"base length {ell} not above 24"
            ells.append(ell)
        return True, f"all 5 bundles satisfy length(B) < 6*ell; ells {ells}"
    return _timed(7, "Berry length bound", None, check)


def criterion_08() -> CriterionResult:
    def check() -> tuple[bool, str]:
        by_length = micro_universe(12)
        shuffled = micro_universe(12, order="shuffled")
        b1 = least_undefinable(by_length)
        b2 = least_undefinable(shuffled)
        if b1 != b2:
            return False, f"enumeration order changed the value: {b1} vs {b2}"
        genuine = berry_contradiction_report(
            build_bundle(truth_oracle_property()), by_length)
        if not genuine.uniqueness.unique:
            return False, "uniqueness sweep failed"
        if not (genuine.tb_licensed and genuine.contradiction):
            return False, "genuine truth oracle did not produce the clash"
        nothing = berry_contradiction_report(
            build_bundle(Not(Eq(_X, _X))), by_length)
        if nothing.tb_licensed or nothing.contradiction:
            return False, "nothing-true oracle was not clean"
        return True, (f"least undefinable value {b1} under both orders; "
                      "uniqueness exhaustive; genuine oracle clashes, "
                      "nothing-true stays clean")
    return _timed(8, "micro-Berry experiment", 120.0, check)


def criterion_09() -> CriterionResult:
    def check() -> tuple[bool, str]:
        rng = random.Random(1000)
        for i in range(1000):
            p = rng.randint(1, 100)
            codes = [rng.randrange(p) for _ in range(p + 1)]
            pair = pigeonhole_duplicate(codes)
            if pair is None:
                return False, f"no duplicate reported at sample {i}"
            a, b = pair
            if not (a < b and codes[a] == codes[b]):
                return False, f"bad pair at sample {i}"
        return True, "1000 random lists of p+1 codes below p <= 100 " \
                     "all yield a verified duplicate"
    return _timed(9, "pigeonhole duplicates", None, check)


def criterion_10() -> CriterionResult:
    def check() -> tuple[bool, str]:
        theory = standard_theory()
        fixtures = [("neg_neg_zero_eq_zero.prf", neg_neg_proof().conclusion)]
        for k in range(4):
            fixtures.append((f"not_below_zero_{k}.prf",
                             not_below_zero_proof(k).conclusion))
            fixtures.append((f"successor_bound_{k}.prf",
                             successor_bound_proof(k).conclusion))
        for name, conclusion in fixtures:
            proof = load_fixture_proof(name)
            if not check_proof(proof, theory, conclusion=conclusion):
                return False, f"fixture {name} failed the checker"
        goal = Not(Not(Eq(Zero(), Zero())))
        found = bounded_proof_search(goal, theory, 50)
        if isinstance(found, NotFound):
            return False, "search missed the double negation within 50 nodes"
        if not check_proof(found, theory, conclusion=goal):
            return False, "search returned an invalid proof"
        alarm = bounded_proof_search(Not(Eq(Zero(), Zero())), theory, 100_000)
        if not isinstance(alarm, NotFound):
            return False, "search claims to refute 0=0: inconsistency alarm"
        return True, (f"{len(fixtures)} fixture proofs check; search "
                      f"re-finds the double negation within 50 nodes and "
                      f"never refutes 0=0 at budget 100000")
    return _timed(10, "proof system fixtures and bounded search", 60.0, check)


def criterion_11() -> CriterionResult:
    def check() -> tuple[bool, str]:
        theory = standard_theory()
        built = rosser_sentence(theory)
        x, p, q = Var(0), Var(1), Var(2)
        outrun = Forall(p, Implies(
            OracleAtom("prf", (p, x)),
            Exists(q, And(Lt(q, p),
                          OracleAtom("prf", (q, OracleFun("neg", (x,))))))))
        expected_left = substitute(
            normalize_psi(outrun), 1,
            numeral(built.certificate.theta_code))
        bicond = built.biconditional
        if not isinstance(bicond, Iff):
            return False, "biconditional is not an Iff"
        if bicond.left != expected_left or bicond.right != built.rho:
            return False, "biconditional shape does not match the display"
        if not isinstance(bounded_proof_search(built.rho, theory, 10_000),
                          NotFound):
            return False, "search proved the Rosser sentence"
        if not isinstance(bounded_proof_search(Not(built.rho), theory,
                                               10_000), NotFound):
            return False, "search proved the negated Rosser sentence"
        return True, ("biconditional matches the outrun display; neither "
                      "the sentence nor its negation found at budget 10000 "
                      "(evidence only, not independence)")
    return _timed(11, "Rosser sentence shape and search evidence", None,
                  check)


def criterion_12() -> CriterionResult:
    def check() -> tuple[bool, str]:
        report = remark_demo()
        if not report.reduction_to_pr:
            return False, "propositional reduction did not certify"
        if not report.not_delta_check:
            return False, "refutation of the false sentence failed the checker"
        fixture = load_fixture_proof("neg_neg_zero_eq_zero.prf")
        if not check_proof(fixture, standard_theory(),
                           conclusion=Not(report.delta)):
            return False, "fixture proof of the negation failed"
        if not report.remark_check:
            return False, "extension proof failed the checker"
        if report.remark_conclusion != Not(Not(report.delta)):
            return False, "extension proved the wrong sentence"
        if report.remark_theory.sound_for_standard_model:
            return False, "extension was not flagged unsound"
        return True, ("biconditional for the refutable sentence reduces to "
                      "a bare provability claim; fixture refutation checks; "
                      "adopting the biconditional lets the extension prove "
                      "the adopted sentence's negation")
    return _timed(12, "refutable fixed point shortcut", None, check)


def criterion_13() -> CriterionResult:
    def check() -> tuple[bool, str]:
        scheme = micro_scheme()
        budget = Budget(witness_bound=2700)
        bounds: dict[int, object] = {}
        for x in range(51):
            value = F_kotlarski(x, budget)
            if not isinstance(value, int):
                return False, f"bound undecided at {x}"
            bounds[x] = value
        for code in range(len(scheme.formulas)):
            fn = defined_function(scheme, code, up_to=50, budget=budget)
            if not dominates_check(bounds, fn, 0, 50):
                return False, f"catalogue function {code} not dominated"
        env = micro_domination_env()
        bundle = build_psi(OracleAtom("Tr", (_X,)))
        graph_points = []
        for x in range(6):
            fx = F_fixed_input(x)
            if not isinstance(fx, int):
                return False, f"fixed-input value undecided at {x}"
            verdict = evaluate(bundle.graph, env, assignment={0: x, 1: fx})
            if verdict is not T:
                return False, f"graph not certified at ({x}, {fx})"
            graph_points.append((x, fx))
        return True, (f"strict domination of all 3 catalogue functions on "
                      f"[code, 50]; graph certified at {graph_points}")
    return _timed(13, "dominating bound and its defining graph", 60.0, check)


def criterion_14() -> CriterionResult:
    def check() -> tuple[bool, str]:
        rng = random.Random(14)
        env = standard_oracle_env()
        budget = Budget()
        for i in range(500):
            phi = _random_formula(rng, rng.randrange(1, 5))
            v = rng.randrange(3)
            m = rng.randrange(12)
            rest = {w: rng.randrange(12) for w in free_vars(phi) if w != v}
            left = evaluate(substitute(phi, v, numeral(m)), env, budget,
                            assignment=rest)
            right = evaluate(phi, env, budget, assignment={**rest, v: m})
            if left is not right:
                return False, (f"sample {i}: substitution gave "
                               f"{left.name}, assignment gave {right.name}")
        return True, "substitution and direct assignment agree on 500 " \
                     "random formula/variable/value triples"
    return _timed(14, "substitution lemma", None, check)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
