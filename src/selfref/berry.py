"""Length-bounded definability and the shortest-description clash.

A property of codes Y(x) induces three formulas over the oracle
signature.  The inner one says "some formula shorter than z describes
exactly y", the middle one says "u is the least number with no such
description below v", and the outer sentence plugs in a concrete
length bound: six times the middle formula's own token count.  The
outer sentence is itself shorter than that bound, which is the engine
of every argument in this module: a description bound that the
describing formula beats.

The formulas are evaluated over micro universes: exhaustive catalogues
of every one-free-variable formula of the core signature below a
length cap, with the oracle symbols reinterpreted over catalogue
indices instead of full codes.  Formula(a) means "a is a catalogue
index", len(a) is the indexed formula's token count, D(a, y) is a
pairing code standing for the statement "formula a describes exactly
y", and Tr judges those pairing codes by actually computing each
catalogue formula's solution set.  At this scale every definability
verdict is exact, so the reports below can replay the two clashes
faithfully: a genuine truth oracle makes the outer sentence true at
the least undescribed number while closure under the truth
biconditionals makes it false there, and the ladder argument ends in
one catalogue code describing two different numbers.

Genuine definers are certified within the budget's value horizon; the
ladder treats numbers beyond it as undescribed, which is sound here
because every catalogue definer pins a value far below any horizon in
use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache, cached_property
from typing import Callable, Optional

from .bignat import as_int
from .diagonal import normalize_psi
from .semantics import (
    Budget, OracleEnv, OracleUndecided, Truth, evaluate, pair, t_and,
    t_implies, t_or, unpair,
)
from .syntax import (
    And, Eq, Exists, Forall, Formula, Implies, Lt, Mul, Not, OracleAtom,
    OracleFun, Var, conj, length, numeral, render, substitute,
)

_U, _V, _W, _ALPHA = Var(0), Var(1), Var(2), Var(3)
_BINDER_FLOOR = 4


class BudgetInsufficient(Exception):
    """A verdict needed by a report did not settle within the budget."""


def truth_oracle_property(index: int = 0) -> Formula:
    """The one-free-variable property handing truth to the Tr oracle."""
    return OracleAtom("Tr", (Var(index),))


# -- the three formulas ------------------------------------------------------

@dataclass(frozen=True)
class BerryBundle:
    upsilon: Formula
    normalized_upsilon: Formula
    def_formula: Formula
    berry_formula: Formula
    b_formula: Formula
    ell: int
    q_term: object


def _def_at(norm: Formula, y: Var) -> Formula:
    applied = substitute(norm, 1, OracleFun("D", (_ALPHA, y)))
    return Exists(_ALPHA, conj(
        OracleAtom("Formula", (_ALPHA,)),
        Lt(OracleFun("len", (_ALPHA,)), _V),
        applied,
    ))


def build_bundle(upsilon: Formula) -> BerryBundle:
    """All three description-bound formulas for one property of codes.

    The inner formula has free variables y, z at indices 0, 1; the
    middle one has u, v there; the outer sentence keeps u free and
    binds the bound variable at index 1, exactly as displayed.  The
    property's own binders are pushed to index four and above so the
    scaffolding indices stay clean.
    """
    norm = normalize_psi(upsilon, binder_floor=_BINDER_FLOOR)
    def_formula = _def_at(norm, _U)
    berry_formula = And(
        Not(def_formula),
        Forall(_W, Implies(Lt(_W, _U), _def_at(norm, _W))),
    )
    ell = length(berry_formula)
    q_term = Mul(numeral(6), numeral(ell))
    b_formula = Exists(_V, And(Eq(_V, q_term), berry_formula))
    return BerryBundle(
        upsilon=upsilon,
        normalized_upsilon=norm,
        def_formula=def_formula,
        berry_formula=berry_formula,
        b_formula=b_formula,
        ell=ell,
        q_term=q_term,
    )


@dataclass(frozen=True)
class LengthAudit:
    b_length: int
    six_ell: int
    bound_holds: bool
    compact_estimate: int
    matches_compact_estimate: bool


def length_audit(bundle: BerryBundle) -> LengthAudit:
    """The load-bearing inequality, plus the 24 + 5*ell figure that a
    parenthesis-free rendering would give (informational only)."""
    b_length = length(bundle.b_formula)
    compact = 24 + 5 * bundle.ell
    return LengthAudit(
        b_length=b_length,
        six_ell=6 * bundle.ell,
        bound_holds=b_length < 6 * bundle.ell,
        compact_estimate=compact,
        matches_compact_estimate=b_length == compact,
    )


# -- micro universes ---------------------------------------------------------

@dataclass(frozen=True)
class FormulaFacts:
    """The exact solution picture of one catalogue formula."""

    index: int
    formula: Formula
    length: int
    solutions: tuple[int, ...]
    exact: bool
    cofinite: bool
    defines: Optional[int]


def _describe_status(fact: FormulaFacts, n: int, horizon: int) -> Truth:
    """Does this formula describe exactly n?  Unknown only when the
    solution set is not fully pinned and n could still be the lone
    solution."""
    if fact.defines == n:
        return Truth.TRUE
    if fact.exact or fact.cofinite:
        return Truth.FALSE
    if n in fact.solutions:
        return Truth.FALSE if len(fact.solutions) >= 2 else Truth.UNKNOWN
    if n <= horizon:
        return Truth.FALSE
    return Truth.UNKNOWN


@dataclass(frozen=True)
class MicroUniverse:
    max_len: int
    budget: Budget
    formulas: tuple[Formula, ...]
    facts: tuple[FormulaFacts, ...]

    @property
    def value_horizon(self) -> int:
        return self.budget.witness_bound

    @cached_property
    def defined_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {n: [] for n in range(self.value_horizon + 1)}
        for fact in self.facts:
            if fact.defines is not None and fact.defines in out:
                out[fact.defines].append(fact.index)
        return {n: tuple(ix) for n, ix in out.items()}

    def least_undefined_below(self, bound: int) -> int:
        """The least value no catalogue formula shorter than the bound
        describes; the micro reading of the middle formula."""
        for n in range(self.value_horizon + 1):
            hits = [f for f in self.facts if f.length < bound
                    and _describe_status(f, n, self.value_horizon)
                    is not Truth.FALSE]
            if not hits:
                return n
            if all(_describe_status(f, n, self.value_horizon)
                   is Truth.UNKNOWN for f in hits):
                raise BudgetInsufficient(
                    f"describability of {n} below length {bound} unsettled")
        raise BudgetInsufficient("every value within the horizon is described")


@lru_cache(maxsize=8)
def _build_universe(max_len: int, budget: Budget, order: str) -> MicroUniverse:
    from .enumeration import unary_formulas
    from .semantics import defines

    formulas = list(unary_formulas(max_len - 1))
    if order == "shuffled":
        random.Random(0).shuffle(formulas)
    elif order != "length":
        raise ValueError(f"unknown enumeration order {order!r}")
    facts = []
    for i, phi in enumerate(formulas):
        rep = defines(phi, None, budget)
        ints = tuple(s for s in rep.solutions if s != "...")
        cofinite = "..." in rep.solutions
        pinned = rep.exact and not cofinite and len(ints) == 1
        facts.append(FormulaFacts(
            index=i,
            formula=phi,
            length=length(phi),
            solutions=ints,
            exact=rep.exact,
            cofinite=cofinite,
            defines=ints[0] if pinned else None,
        ))
    return MicroUniverse(
        max_len=max_len,
        budget=budget,
        formulas=tuple(formulas),
        facts=tuple(facts),
    )


def micro_universe(max_len: int = 12, budget: Optional[Budget] = None,
                   order: str = "length") -> MicroUniverse:
    return _build_universe(max_len, budget or Budget(), order)


def least_undefinable(universe: MicroUniverse) -> int:
    """The least value described by no catalogue formula at all."""
    horizon = universe.value_horizon
    for n in range(horizon + 1):
        statuses = [_describe_status(f, n, horizon) for f in universe.facts]
        if Truth.TRUE in statuses:
            continue
        if Truth.UNKNOWN in statuses:
            raise BudgetInsufficient(
                f"describability of {n} unsettled within the budget")
        return n
    raise BudgetInsufficient("every value within the horizon is described")


# -- the index-code oracle reading -------------------------------------------

def _index(value) -> int:
    out = as_int(value)
    if out is None:
        raise OracleUndecided("value too large for the catalogue")
    return out


def micro_env(universe: MicroUniverse,
              bundle: Optional[BerryBundle] = None) -> OracleEnv:
    """Oracle symbols read over catalogue indices.

    With a bundle supplied, the catalogue is extended by one slot
    carrying the bundle's outer sentence, whose pairing statements Tr
    judges under the plain-catalogue reading: the sentence describes
    the least value no catalogue formula describes.  D(a, y) is the
    Cantor code of (a, y) plus one, so no statement has code 0.
    """
    n_pure = len(universe.formulas)
    code_count = n_pure + (1 if bundle is not None else 0)
    horizon = universe.value_horizon
    berry_value: list[Optional[int]] = [None]

    def formula_fn(a) -> bool:
        a = _index(a)
        return 0 <= a < code_count

    def len_fn(a):
        a = _index(a)
        if 0 <= a < n_pure:
            return universe.facts[a].length
        if a == n_pure and bundle is not None:
            return length(bundle.b_formula)
        return 0

    def d_fn(a, y):
        return pair(_index(a), _index(y)) + 1

    def tr_fn(code) -> bool:
        code = _index(code)
        if code <= 0:
            return False
        a, y = unpair(code - 1)
        if 0 <= a < n_pure:
            got = _describe_status(universe.facts[a], y, horizon)
            if got is Truth.UNKNOWN:
                raise OracleUndecided("description status beyond the horizon")
            return got is Truth.TRUE
        if a == n_pure and bundle is not None:
            if berry_value[0] is None:
                berry_value[0] = least_undefinable(universe)
            return y == berry_value[0]
        return False

    return OracleEnv(
        atoms={"Formula": formula_fn, "Tr": tr_fn},
        funs={"len": len_fn, "D": d_fn},
        atom_supports={"Formula": code_count},
    )


def _sweep_budget(universe: MicroUniverse, budget: Budget,
                  bundle: Optional[BerryBundle]) -> Budget:
    codes = len(universe.formulas) + (1 if bundle is not None else 0)
    return replace(budget, witness_bound=max(budget.witness_bound, codes + 1))


# -- judging the property over pairing codes ----------------------------------

def _upsilon_judge(bundle: BerryBundle, universe: MicroUniverse,
                   env: OracleEnv, budget: Budget
                   ) -> Callable[[int, int], Truth]:
    """Truth of the property applied to the pairing code of (a, y)."""
    horizon = universe.value_horizon
    n_pure = len(universe.formulas)
    if bundle.normalized_upsilon == truth_oracle_property(1):
        def judge(a: int, y: int) -> Truth:
            if 0 <= a < n_pure:
                return _describe_status(universe.facts[a], y, horizon)
            try:
                return Truth.TRUE if env.atoms["Tr"](pair(a, y) + 1) \
                    else Truth.FALSE
            except OracleUndecided:
                return Truth.UNKNOWN
        return judge

    memo: dict[int, Truth] = {}

    def judge(a: int, y: int) -> Truth:
        code = pair(a, y) + 1
        got = memo.get(code)
        if got is None:
            got = evaluate(bundle.normalized_upsilon, env, budget,
                           assignment={1: code})
            memo[code] = got
        return got

    return judge


class _DefTable:
    """Memoized verdicts of the inner formula, computed by enumerating
    the catalogue exactly as the formula's own quantifier would."""

    def __init__(self, bundle, universe, env, budget, with_bundle_slot):
        self.universe = universe
        self.judge = _upsilon_judge(bundle, universe, env, budget)
        self.lengths = [f.length for f in universe.facts]
        if with_bundle_slot:
            self.lengths.append(length(bundle.b_formula))
        self.memo: dict[tuple[int, int], tuple[Truth, Optional[int]]] = {}

    def defined(self, bound: int, n: int) -> tuple[Truth, Optional[int]]:
        """Verdict of "some formula shorter than the bound describes n"
        and the least witnessing catalogue code, if any."""
        key = (bound, n)
        if key in self.memo:
            return self.memo[key]
        verdict = Truth.FALSE
        witness = None
        for a, alen in enumerate(self.lengths):
            if alen >= bound:
                continue
            got = self.judge(a, n)
            if got is Truth.TRUE:
                verdict, witness = Truth.TRUE, a
                break
            verdict = t_or(verdict, got)
        self.memo[key] = (verdict, witness)
        return self.memo[key]

    def berry_status(self, bound: int, n: int) -> Truth:
        out = ~self.defined(bound, n)[0]
        for m in range(n):
            out = t_and(out, self.defined(bound, m)[0])
            if out is Truth.FALSE:
                break
        return out


# -- the truth-biconditional check ---------------------------------------------

def _tb_check(bundle: BerryBundle, universe: MicroUniverse, env: OracleEnv,
              budget: Budget, sample_cap: int = 40):
    """Sample the biconditionals "property holds at the statement's
    code iff the statement holds" over certified description facts."""
    judge = _upsilon_judge(bundle, universe, env, budget)
    horizon = universe.value_horizon
    sample: list[tuple[int, int, Truth]] = []
    true_seen = false_seen = 0
    for fact in universe.facts:
        if true_seen < sample_cap and fact.defines is not None:
            sample.append((fact.index, fact.defines, Truth.TRUE))
            true_seen += 1
        if false_seen < sample_cap:
            other = 0 if fact.defines == 0 else (fact.defines or 0) + 1
            got = _describe_status(fact, other, horizon)
            if got is Truth.FALSE:
                sample.append((fact.index, other, Truth.FALSE))
                false_seen += 1
        if true_seen >= sample_cap and false_seen >= sample_cap:
            break
    counterexample = None
    for a, y, right in sample:
        left = judge(a, y)
        if left is not right:
            counterexample = (a, y, left, right)
            break
    return counterexample is None, counterexample


# -- reports -------------------------------------------------------------------

@dataclass(frozen=True)
class UniquenessCheck:
    bounds_checked: tuple[int, ...]
    extensions: dict[int, tuple[int, ...]]
    unique: bool
    formula_spot_checks: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class BerryContradictionReport:
    berry_value: int
    tb_licensed: bool
    tb_counterexample: Optional[tuple]
    uniqueness: UniquenessCheck
    b_at_berry_genuine: Truth
    def_at_berry_closed: Truth
    b_at_berry_closed: Truth
    contradiction: bool
    note: str


def _b_instance(bundle: BerryBundle, n: int) -> Formula:
    return substitute(bundle.b_formula, 0, numeral(n))


def berry_contradiction_report(bundle: BerryBundle,
                               universe: MicroUniverse,
                               budget: Optional[Budget] = None
                               ) -> BerryContradictionReport:
    """Both horns of the description-bound clash.

    Uniqueness: for every length bound, at most one number satisfies
    the middle formula, checked by enumerating the catalogue and
    spot-confirmed against direct formula evaluation.  Instability:
    the outer sentence holds at the least undescribed number while the
    catalogue ignores the sentence itself, and flips to false once the
    sentence joins the catalogue, because it is shorter than its own
    length bound.  Both verdicts standing is the contradiction: when
    the property is a genuine truth oracle, no consistent reading
    covers the sentence's own code.
    """
    budget = budget or universe.budget
    env_pure = micro_env(universe)
    env_closed = micro_env(universe, bundle)
    sweep = _sweep_budget(universe, budget, bundle)
    bval = least_undefinable(universe)
    six_ell = 6 * bundle.ell

    table = _DefTable(bundle, universe, env_pure, budget,
                      with_bundle_slot=False)
    umax = min(universe.value_horizon, 16)
    bounds = tuple(range(universe.max_len + 1)) + (six_ell,)
    extensions: dict[int, tuple[int, ...]] = {}
    unique = True
    for bound in bounds:
        hits = []
        for n in range(umax + 1):
            got = table.berry_status(bound, n)
            if got is Truth.UNKNOWN:
                raise BudgetInsufficient(
                    f"uniqueness sweep unsettled at bound {bound}, value {n}")
            if got is Truth.TRUE:
                hits.append(n)
        extensions[bound] = tuple(hits)
        if len(hits) > 1:
            unique = False

    spots = []
    focus = extensions[six_ell][0] if extensions[six_ell] else 0
    for bound, n in ((six_ell, focus), (six_ell, focus + 1),
                     (universe.max_len, 0)):
        inst = substitute(substitute(bundle.berry_formula, 0, numeral(n)),
                          1, numeral(bound))
        direct = evaluate(inst, env_pure, sweep)
        meta = table.berry_status(bound, n)
        spots.append((f"bound={bound},value={n}", meta.name, direct.name))
    uniqueness = UniquenessCheck(
        bounds_checked=bounds,
        extensions=extensions,
        unique=unique,
        formula_spot_checks=tuple(spots),
    )

    tb_licensed, tb_counterexample = _tb_check(bundle, universe, env_pure,
                                               budget)
    b_genuine = evaluate(_b_instance(bundle, bval), env_pure, sweep)
    def_closed = evaluate(
        substitute(substitute(bundle.def_formula, 0, numeral(bval)),
                   1, bundle.q_term),
        env_closed, sweep)
    b_closed = evaluate(_b_instance(bundle, bval), env_closed, sweep)
    contradiction = (tb_licensed and b_genuine is Truth.TRUE
                     and def_closed is Truth.TRUE
                     and b_closed is Truth.FALSE)
    if contradiction:
        note = ("the sentence is true at the least undescribed number yet "
                "its own catalogue membership forces a description below "
                "the bound: no truth oracle survives its own sentence")
    elif not tb_licensed:
        note = ("the property fails its truth biconditionals on the "
                "catalogue, so the closure step is never licensed and no "
                "clash arises")
    else:
        note = "no contradiction surfaced at this scale"
    return BerryContradictionReport(
        berry_value=bval,
        tb_licensed=tb_licensed,
        tb_counterexample=tb_counterexample,
        uniqueness=uniqueness,
        b_at_berry_genuine=b_genuine,
        def_at_berry_closed=def_closed,
        b_at_berry_closed=b_closed,
        contradiction=contradiction,
        note=note,
    )


def pigeonhole_duplicate(codes, p: int) -> Optional[tuple[int, int]]:
    """First pair of positions sharing a value.

    When the list has at least p + 1 entries all below p, a duplicate
    is guaranteed; the argument p only documents that contract.
    """
    seen: dict[int, int] = {}
    for j, code in enumerate(codes):
        if code in seen:
            return seen[code], j
        seen[code] = j
    return None


@dataclass(frozen=True)
class LadderStep:
    value: int
    def_truth: Truth
    star_truth: Truth
    code: int
    genuine: bool


@dataclass(frozen=True)
class ClashChain:
    duplicate_code: int
    i: int
    j: int
    steps: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class TarskiExperimentReport:
    tb_licensed: bool
    tb_counterexample: Optional[tuple]
    p_bound: int
    berry_value: Optional[int]
    ladder: tuple[LadderStep, ...]
    ladder_break: Optional[int]
    codes: tuple[int, ...]
    duplicate: Optional[tuple[int, int]]
    clash: Optional[ClashChain]
    conclusion: str


def syntactic_tarski_experiment(universe: MicroUniverse,
                                bundle: BerryBundle,
                                budget: Optional[Budget] = None
                                ) -> TarskiExperimentReport:
    """The ladder argument replayed over a catalogue.

    Each rung claims "if everything below n has a short description,
    so does n".  Genuine descriptions carry the rungs up to the least
    undescribed number; there the rung fails semantically, and only
    the truth biconditionals (if the property honours them) can force
    it by handing the outer sentence itself a catalogue slot.  Every
    later number then leans on that same slot, so among codes assigned
    to 0..p at least two coincide, and the duplicated code would
    describe two different numbers: a chain collapsing to an equation
    between distinct numerals.
    """
    budget = budget or universe.budget
    env = micro_env(universe, bundle)
    tb_licensed, tb_counterexample = _tb_check(bundle, universe,
                                               micro_env(universe), budget)
    n_pure = len(universe.formulas)
    bundle_code = n_pure
    p_bound = n_pure + 1
    six_ell = 6 * bundle.ell
    table = _DefTable(bundle, universe, micro_env(universe), budget,
                      with_bundle_slot=False)

    horizon = universe.value_horizon
    steps: list[LadderStep] = []
    ladder_break = None
    berry_value = None
    antecedent = Truth.TRUE
    for n in range(min(horizon, p_bound) + 1):
        def_truth, witness = table.defined(six_ell, n)
        star = t_implies(antecedent, def_truth)
        if star is not Truth.TRUE and ladder_break is None:
            ladder_break = n
        if def_truth is Truth.FALSE and berry_value is None:
            berry_value = n
        steps.append(LadderStep(
            value=n,
            def_truth=def_truth,
            star_truth=star,
            code=witness if witness is not None else bundle_code,
            genuine=witness is not None,
        ))
        antecedent = t_and(antecedent, def_truth)

    if not tb_licensed:
        conclusion = (
            "the truth biconditional fails on the catalogue (see the "
            "counterexample), so the ladder is never licensed past its "
            f"first semantic failure at {ladder_break}")
        return TarskiExperimentReport(
            tb_licensed=False,
            tb_counterexample=tb_counterexample,
            p_bound=p_bound,
            berry_value=berry_value,
            ladder=tuple(steps),
            ladder_break=ladder_break,
            codes=(),
            duplicate=None,
            clash=None,
            conclusion=conclusion,
        )

    by_value = {s.value: s for s in steps}
    codes = []
    for n in range(p_bound + 1):
        step = by_value.get(n)
        if step is not None and step.genuine:
            codes.append(step.code)
        else:
            codes.append(bundle_code)
    duplicate = pigeonhole_duplicate(codes, p_bound)
    clash = None
    conclusion = "no duplicate description surfaced"
    if duplicate is not None:
        i, j = duplicate
        shared = codes[i]
        first = Eq(numeral(i), numeral(i))
        last = Eq(numeral(i), numeral(j))
        first_truth = evaluate(first, env, budget)
        last_truth = evaluate(last, env, budget)
        middle = (
            f"code {shared} describes {i}, and by the duplicate claim "
            f"also {j}; exact description turns the first into the second"
        )
        clash = ClashChain(
            duplicate_code=shared,
            i=i,
            j=j,
            steps=(
                (render(first), first_truth.name),
                (middle, "forced by the biconditionals"),
                (render(last), last_truth.name),
            ),
        )
        conclusion = (
            f"contradiction: one code ({shared}) is charged with "
            f"describing both {i} and {j}, collapsing to the false "
            f"equation {i} = {j}")
    return TarskiExperimentReport(
        tb_licensed=True,
        tb_counterexample=tb_counterexample,
        p_bound=p_bound,
        berry_value=berry_value,
        ladder=tuple(steps),
        ladder_break=ladder_break,
        codes=tuple(codes),
        duplicate=duplicate,
        clash=clash,
        conclusion=conclusion,
    )
