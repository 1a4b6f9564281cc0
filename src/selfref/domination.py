"""Dominating bounds over a pinned catalogue of definable functions.

A function is definable when a two-free-variable formula carves out its
graph.  Given finitely many such formulas, the least strict upper bound
on their witnessed outputs dominates every one of them: past a
function's own catalogue code, the bound always computes a value
strictly above the function's.  Two bound variants are built here: one
fixes the function input at the enumeration point and one enumerates
inputs too, matching the classical 1 + max construction.

The enumeration "over all formulas below x" is only feasible against a
small code space, so the catalogue is a pinned bijection between an
initial segment of the naturals and a fixture list of formulas; it
plays the role the full coding plays in the large, faithfully but in
miniature.  The bound's own defining formula is also built: given a
truth-judging property, psi(u, v) says every catalogue formula below u
with some witnessed output at u has one below v, and the graph formula
conjoins minimality.  The micro environment interprets the instance
codes so the graph formula's verdicts are certified exactly.

The self-application step, that the bound would be definable and hence
dominate itself, has no executable content at this scale: the bound is
not a catalogue member, which the builders make plain by indexing
functions only through catalogue codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from .diagonal import NotOneFree, normalize_psi
from .parser import parse_formula
from .semantics import (Budget, OracleEnv, Truth, Unknown, _swept,
                        catalogue_env, evaluate, pair, statement_code,
                        truth_at, unpair)
from .syntax import (Add, And, Exists, Forall, Formula, Implies, Lt, Not,
                     One, OracleAtom, OracleFun, Var, free_vars, substitute)

__all__ = [
    "DefinedFunction", "F_fixed_input", "F_kotlarski", "MicroScheme",
    "NotOneFree", "PsiBundle", "Unknown", "UnresolvedPoint", "build_psi",
    "defined_function", "dominates_check", "micro_domination_env",
    "micro_scheme",
]

_U, _V, _ALPHA, _Z, _W = Var(0), Var(1), Var(2), Var(3), Var(4)
# binders for a normalized truth property start above every variable
# with a fixed role in psi
_BINDER_FLOOR = 5


class UnresolvedPoint(Exception):
    """A domination window contains a point without certified values."""

    def __init__(self, x: int):
        self.x = x
        super().__init__(f"no certified value at {x}")


@dataclass(frozen=True)
class MicroScheme:
    """A bijection between an initial segment of the naturals and a
    finite list of two-free-variable formulas (inputs in variable 0,
    outputs in variable 1)."""

    formulas: tuple[Formula, ...]

    def __post_init__(self):
        for phi in self.formulas:
            if free_vars(phi) != {0, 1}:
                raise ValueError(f"catalogue formulas need exactly the "
                                 f"free variables 0 and 1: {phi!r}")
        if len(set(self.formulas)) != len(self.formulas):
            raise ValueError("catalogue codes must be injective")

    def formula(self, code: int) -> Formula:
        if not 0 <= code < len(self.formulas):
            raise KeyError(code)
        return self.formulas[code]


def _fixture_file() -> Path:
    return Path(__file__).resolve().parent / "fixtures" / "micro_catalogue.txt"


@lru_cache(maxsize=1)
def micro_scheme() -> MicroScheme:
    """The pinned catalogue: successor, doubling, squaring."""
    lines = _fixture_file().read_text(encoding="utf-8").splitlines()
    return MicroScheme(tuple(parse_formula(line) for line in lines if line))


# -- witness search --------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _witness_scan(phi: Formula, x: int, budget: Budget
                  ) -> tuple[Optional[int], bool, bool]:
    """(least witness, saw a second one, emptiness certified).

    Reads the mask pair of a sweep of outputs 0..witness_bound at input
    x under the caller's whole budget; a value in neither mask leaves
    the scan inconclusive.  When no output is TRUE, an existential
    evaluation decides whether the output set is certifiably empty or
    merely out of reach.
    """
    true, false = _swept(phi, 1, {0: x}, OracleEnv(), budget)
    if (true | false) != (1 << budget.witness_bound + 1) - 1:
        return (None, False, False)
    if true:
        return ((true & -true).bit_length() - 1, (true & (true - 1)) != 0,
                False)
    anywhere = evaluate(Exists(_V, phi), budget=budget, assignment={0: x})
    return (None, False, anywhere is Truth.FALSE)


def _bound(x: int, inputs, budget: Optional[Budget],
           scheme: Optional[MicroScheme]) -> Union[int, Unknown]:
    """Least y above every witnessed catalogue output at the inputs,
    over catalogue codes up to x; 0 when nothing is witnessed."""
    scheme = scheme or micro_scheme()
    budget = budget or Budget()
    best = 0
    for code in range(min(x, len(scheme.formulas) - 1) + 1):
        for u in inputs:
            least, _, empty = _witness_scan(scheme.formulas[code], u, budget)
            if least is not None:
                best = max(best, least + 1)
            elif not empty:
                return Unknown(f"witness search for catalogue code {code} "
                               f"at input {u} is inconclusive")
    return best


def F_fixed_input(x: int, budget: Optional[Budget] = None,
                  scheme: Optional[MicroScheme] = None) -> Union[int, Unknown]:
    """Least y making every witnessed catalogue output at input x fall
    below y, over catalogue codes up to x; 0 when nothing is witnessed."""
    return _bound(x, (x,), budget, scheme)


def F_kotlarski(x: int, budget: Optional[Budget] = None,
                scheme: Optional[MicroScheme] = None) -> Union[int, Unknown]:
    """Same bound with inputs enumerated too: 1 + max over codes and
    inputs up to x of the witnessed outputs."""
    return _bound(x, range(x + 1), budget, scheme)


# -- verified graphs and domination ------------------------------------------------------


@dataclass(frozen=True)
class DefinedFunction:
    """A catalogue formula with a verified stretch of its graph."""

    formula: Formula
    micro_code: int
    samples: tuple[tuple[int, int], ...]


def defined_function(scheme: MicroScheme, micro_code: int, up_to: int,
                     budget: Optional[Budget] = None
                     ) -> Union[DefinedFunction, Unknown]:
    """Certify the graph on inputs 0..up_to.

    Raises ValueError when some input has two witnessed outputs in the
    sweep range: that formula defines a relation, not a function.
    """
    budget = budget or Budget()
    phi = scheme.formula(micro_code)
    samples = []
    for m in range(up_to + 1):
        least, second, empty = _witness_scan(phi, m, budget)
        if second:
            raise ValueError(f"two outputs witnessed at input {m}: "
                             f"not a function graph")
        if least is None:
            if empty:
                continue
            return Unknown(f"no certified output at input {m}")
        samples.append((m, least))
    return DefinedFunction(phi, micro_code, tuple(samples))


def dominates_check(f_values: dict, fn: DefinedFunction,
                    lo: int, hi: int) -> bool:
    """Strict majorization over [max(lo, fn.micro_code), hi]."""
    graph = dict(fn.samples)
    for x in range(max(lo, fn.micro_code), hi + 1):
        bound = f_values.get(x)
        if not isinstance(bound, int):
            raise UnresolvedPoint(x)
        if x not in graph:
            raise UnresolvedPoint(x)
        if not bound > graph[x]:
            return False
    return True


# -- the defining formula ----------------------------------------------------------------


@dataclass(frozen=True)
class PsiBundle:
    """The bound's defining formula and its minimized graph form."""

    psi: Formula
    graph: Formula


def build_psi(upsilon: Formula) -> PsiBundle:
    """psi(u, v): every catalogue formula below u with a witnessed
    instance at u has one witnessed below v, witnessing judged by the
    one-free-variable property upsilon over instance codes.

    The catalogue-membership guard makes the quantifier range over
    formulas, mirroring how the enumeration reads "every formula with a
    code at most u".  The graph formula conjoins minimality of v.
    """
    if free_vars(upsilon) != {0}:
        raise NotOneFree("the truth property must have exactly one "
                         "free variable")
    judged = normalize_psi(upsilon, binder_floor=_BINDER_FLOOR)

    def judge(term) -> Formula:
        return substitute(judged, 1, term)

    code = OracleFun("inst", (_ALPHA, _U, _Z))
    some = Exists(_Z, judge(code))
    below = Exists(_Z, And(Lt(_Z, _V), judge(code)))
    per_alpha = Implies(OracleAtom("Formula", (_ALPHA,)),
                        Implies(some, below))
    psi = Forall(_ALPHA, Implies(Lt(_ALPHA, Add(_U, One())), per_alpha))
    minimal = Forall(_W, Implies(Lt(_W, _V), Not(substitute(psi, 1, _W))))
    return PsiBundle(psi, And(psi, minimal))


# -- the micro environment ---------------------------------------------------------------


def micro_domination_env() -> OracleEnv:
    """Interpret instance codes over the catalogue (see catalogue_env).

    inst(a, m, n) is the code of the statement "catalogue formula a
    holds at (m, n)", which Tr judges by evaluating that formula."""
    judges = [truth_at(phi) for phi in micro_scheme().formulas]

    def judge(a: int, rest: int) -> Truth:
        m, n = unpair(rest)
        return judges[a]({0: m, 1: n})

    return catalogue_env(len(judges), judge, {
        "inst": lambda a, m, n: statement_code(a, pair(m, n))})
