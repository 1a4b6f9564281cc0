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
catalogue formula's solution set, kept as its sweep's solution mask.
At this scale every definability verdict is exact, so the reports
below can replay the two clashes faithfully: a genuine truth oracle
makes the outer sentence true at the least undescribed number while
closure under the truth biconditionals makes it false there, and the
ladder argument ends in one catalogue code describing two different
numbers.

Genuine definers are certified within the budget's value horizon; the
ladder treats numbers beyond it as undescribed, which is sound here
because every catalogue definer pins a value far below any horizon in
use.  A formula whose sweep ran out of nodes is undecided from the
first value left open, so a small node budget gives UNKNOWN verdicts,
never different ones.

The inner formula's quantifier over catalogue entries is replayed one
length at a time: the genuine truth oracle reads an index of the
description facts, and any other property is judged over a length's
statement codes by one batch, in blocks that double, up to the first
TRUE.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable, Optional

from .diagonal import normalize_psi
from .semantics import (
    Budget, OracleEnv, Truth, _Batch, _definability, catalogue_env, evaluate,
    from_bool, statement_code, statement_codes, t_and, t_implies, t_or,
    truth_at,
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
    """The exact solution picture of one catalogue formula: solutions
    is the sweep's solution mask, bit y set where the formula holds at
    y, over 0..witness_bound."""

    index: int
    formula: Formula
    length: int
    solutions: int
    exact: bool
    cofinite: bool
    defines: Optional[int]
    undecided: Optional[int]  # the first swept value left UNKNOWN


def _describe_status(fact: FormulaFacts, n: int, horizon: int) -> Truth:
    """Does this formula describe exactly n?  Unknown only when the
    solution set is not fully pinned and n could still be the lone
    solution: a value beyond the horizon, or at or past the first value
    the sweep left undecided."""
    if fact.defines == n:
        return Truth.TRUE
    if fact.exact or fact.cofinite:
        return Truth.FALSE
    if fact.solutions >> n & 1:  # a second solution rules n out
        return Truth.FALSE if fact.solutions & (fact.solutions - 1) \
            else Truth.UNKNOWN
    if n <= horizon and (fact.undecided is None or n < fact.undecided):
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


@lru_cache(maxsize=8)
def _build_universe(max_len: int, budget: Budget, order: str) -> MicroUniverse:
    """The catalogue below max_len in the given order, with the facts of
    one definability pass: the catalogue's formulas are built from shared
    shorter ones, and the pass reads each shared subformula once."""
    from .enumeration import unary_formulas

    formulas = list(unary_formulas(max_len - 1))
    if order == "shuffled":
        random.Random(0).shuffle(formulas)
    elif order != "length":
        raise ValueError(f"unknown enumeration order {order!r}")
    facts = []  # each reading is turned into facts as it comes
    for i, (phi, (exact, mask, cofinite, _, undecided)) in enumerate(
            zip(formulas, _definability(formulas, None, budget))):
        pinned = exact and not cofinite and mask and not mask & (mask - 1)
        facts.append(FormulaFacts(
            index=i,
            formula=phi,
            length=length(phi),
            solutions=mask,
            exact=exact,
            cofinite=cofinite,
            defines=mask.bit_length() - 1 if pinned else None,
            undecided=undecided,
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


def least_undefinable(universe: MicroUniverse,
                      bound: Optional[int] = None) -> int:
    """The least value described by no catalogue formula, or by none
    shorter than the bound: the micro reading of the middle formula."""
    horizon = universe.value_horizon
    facts = [f for f in universe.facts if bound is None or f.length < bound]
    for n in range(horizon + 1):
        statuses = [_describe_status(f, n, horizon) for f in facts]
        if Truth.TRUE in statuses:
            continue
        if Truth.UNKNOWN in statuses:
            raise BudgetInsufficient(
                f"describability of {n} unsettled within the budget")
        return n
    raise BudgetInsufficient("every value within the horizon is described")


# -- the index-code oracle reading -------------------------------------------

def micro_env(universe: MicroUniverse,
              bundle: Optional[BerryBundle] = None) -> OracleEnv:
    """Oracle symbols read over catalogue indices (see catalogue_env).

    len(a) is the token count of entry a, and D(a, y) the code of the
    statement "entry a describes exactly y", which Tr judges by the
    entry's description facts.  With a bundle supplied, the catalogue is
    extended by one slot carrying the bundle's outer sentence, whose
    statements Tr judges under the plain-catalogue reading: the sentence
    describes the least value no catalogue formula describes.
    """
    facts, horizon = universe.facts, universe.value_horizon
    lengths = [f.length for f in facts]
    if bundle is not None:
        lengths.append(length(bundle.b_formula))
    berry_value: list[Optional[int]] = [None]

    def judge(a: int, y: int) -> Truth:
        if a < len(facts):
            return _describe_status(facts[a], y, horizon)
        if berry_value[0] is None:
            berry_value[0] = least_undefinable(universe)
        return from_bool(y == berry_value[0])

    return catalogue_env(len(lengths), judge, {
        "len": lambda a: lengths[a] if a < len(lengths) else 0,
        "D": statement_code})


def _sweep_budget(universe: MicroUniverse, budget: Budget,
                  bundle: Optional[BerryBundle]) -> Budget:
    codes = len(universe.formulas) + (1 if bundle is not None else 0)
    return replace(budget, witness_bound=max(budget.witness_bound, codes + 1))


# -- judging the property over pairing codes ----------------------------------

def _upsilon_judge(bundle: BerryBundle, universe: MicroUniverse,
                   env: OracleEnv, budget: Budget
                   ) -> Callable[[int, int], Truth]:
    """Truth of the property applied to the statement "catalogue entry a
    describes exactly y"."""
    if bundle.normalized_upsilon == truth_oracle_property(1):
        horizon = universe.value_horizon
        return lambda a, y: _describe_status(universe.facts[a], y, horizon)

    at = truth_at(bundle.normalized_upsilon, env, budget)
    return lambda a, y: at({1: statement_code(a, y)})


class _DefTable:
    """Memoized verdicts of the inner formula, computed by enumerating
    the catalogue exactly as the formula's own quantifier would.

    A length is judged in bulk: the genuine Tr through an index of the
    description facts, and any other property through a _Batch over the
    length's statement codes, whose lane code the table's batches share,
    so a property read value by value is compiled once per table."""

    def __init__(self, bundle, universe, env, budget):
        self.judge = _upsilon_judge(bundle, universe, env, budget)
        self.entries: dict[int, list[int]] = {}  # per length, in order
        for fact in universe.facts:
            self.entries.setdefault(fact.length, []).append(fact.index)
        self.memo: dict[tuple[int, int], tuple[Truth, Optional[int]]] = {}
        self.facts, self.horizon = universe.facts, universe.value_horizon
        self.upsilon, self.env = bundle.normalized_upsilon, env
        self.budget = budget
        self.codes: dict = {}  # lane code, shared by the table's batches
        self.index: Optional[dict] = None
        if self.upsilon == truth_oracle_property(1):
            # per length: the first entry defining each value, and the
            # entries whose facts are open (neither exact nor cofinite)
            self.index = {alen: ({}, []) for alen in self.entries}
            for fact in universe.facts:
                first, open_ = self.index[fact.length]
                if fact.defines is not None:
                    first.setdefault(fact.defines, fact.index)
                if not (fact.exact or fact.cofinite):
                    open_.append(fact.index)

    def defined(self, bound: int, n: int) -> tuple[Truth, Optional[int]]:
        """Verdict of "some formula shorter than the bound describes n"
        and the least witnessing catalogue code, if any."""
        found = [self._of_length(alen, n) for alen in self.entries
                 if alen < bound]
        witness = min((a for _, a in found if a is not None), default=None)
        return reduce(t_or, (v for v, _ in found), Truth.FALSE), witness

    def _of_length(self, alen: int, n: int) -> tuple[Truth, Optional[int]]:
        """defined over the catalogue formulas of one length alone."""
        key = (alen, n)
        if key not in self.memo:
            self.memo[key] = self._judge_length(alen, n)
        return self.memo[key]

    def _judge_length(self, alen: int, n: int) -> tuple[Truth, Optional[int]]:
        """The length's entries in order, up to the first TRUE, read by one
        batch over their statement codes in blocks of 1, 2, 4, ... entries,
        each value within the whole node budget."""
        entries = self.entries[alen]
        if self.index is not None:  # only open entries can be UNKNOWN
            first, entries = self.index[alen]
            if n in first:
                return Truth.TRUE, first[n]
            unknown = any(_describe_status(self.facts[a], n, self.horizon)
                          is Truth.UNKNOWN for a in entries)
            return Truth.UNKNOWN if unknown else Truth.FALSE, None
        batch = _Batch(1, {}, statement_codes(entries, n), self.env,
                       self.budget, False, self.codes)
        verdict = Truth.FALSE
        for block, true, false in batch.blocks(self.upsilon):
            if true:
                return Truth.TRUE, entries[(true & -true).bit_length() - 1]
            if false != block:
                verdict = Truth.UNKNOWN
        return verdict, None

    def berry_status(self, bound: int, n: int) -> Truth:
        out = ~self.defined(bound, n)[0]
        for m in range(n):
            out = t_and(out, self.defined(bound, m)[0])
            if out is Truth.FALSE:
                break
        return out


# -- the truth-biconditional check ---------------------------------------------

# the biconditionals _tb_check samples, per verdict of the statement
_TB_SAMPLE = 40


def _tb_check(table: _DefTable):
    """Sample the biconditionals "property holds at the statement's
    code iff the statement holds" over certified description facts,
    with the table's judge of the property."""
    sample: list[tuple[int, int, Truth]] = []
    true_seen = false_seen = 0
    for fact in table.facts:
        if true_seen < _TB_SAMPLE and fact.defines is not None:
            sample.append((fact.index, fact.defines, Truth.TRUE))
            true_seen += 1
        if false_seen < _TB_SAMPLE:
            other = 0 if fact.defines == 0 else (fact.defines or 0) + 1
            got = _describe_status(fact, other, table.horizon)
            if got is Truth.FALSE:
                sample.append((fact.index, other, Truth.FALSE))
                false_seen += 1
        if true_seen >= _TB_SAMPLE and false_seen >= _TB_SAMPLE:
            break
    if not sample:  # an empty sample would license the ladder vacuously
        raise BudgetInsufficient(
            "no truth biconditional settled within the budget")
    counterexample = None
    for a, y, right in sample:
        left = table.judge(a, y)
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

    table = _DefTable(bundle, universe, env_pure, budget)
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

    tb_licensed, tb_counterexample = _tb_check(table)
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


def pigeonhole_duplicate(codes) -> Optional[tuple[int, int]]:
    """First pair of positions sharing a value: one exists whenever the
    list holds more entries than values it draws from."""
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
    table = _DefTable(bundle, universe, micro_env(universe), budget)
    tb_licensed, tb_counterexample = _tb_check(table)
    n_pure = len(universe.formulas)
    bundle_code = n_pure
    p_bound = n_pure + 1
    six_ell = 6 * bundle.ell

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

    codes: list[int] = []
    duplicate = clash = None
    if not tb_licensed:
        conclusion = (
            "the truth biconditional fails on the catalogue (see the "
            "counterexample), so the ladder is never licensed past its "
            f"first semantic failure at {ladder_break}")
    else:
        # the rungs past the ladder all lean on the bundle's own slot
        codes = [s.code for s in steps]
        codes += [bundle_code] * (p_bound + 1 - len(codes))
        duplicate = pigeonhole_duplicate(codes)
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
        tb_licensed=tb_licensed,
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
