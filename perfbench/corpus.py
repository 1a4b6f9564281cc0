"""Benchmark inputs, generated without importing ``selfref``.

Every corpus is plain data (nested tuples and strings), so its digest can
be computed here and compared between two commits of the package: both
sides of a comparison are shown to run the same items.  ``build`` turns
a tuple tree into ``selfref.syntax`` objects through the package's public
constructors only.

The item sets and their order are pinned by the generator seeds below:
corpora drawn from other generator seeds differ in cost, and other orders
in the heap each item meets, by more than the bounds in
``BENCHMARK.json`` allow (see ``NOTES.md``).  ``--seed`` draws only the
constants of the two seeded properties of ``giant-codes``, whose cost
does not depend on them.
"""

from __future__ import annotations

import hashlib
import json
import random

# -- oracle-eval: criterion 14's grammar -----------------------------------------------
#
# The two generators below consume the random stream exactly as the
# criterion's private helpers do (argument lists are built before
# ``choice`` draws from them), so generator seed 14 yields its 500 triples.

ORACLE_EVAL_GENERATOR_SEED = 14
ORACLE_EVAL_TRIPLES = 500
# criterion 14 runs at the default 500,000 nodes, where three triples take
# 14.2, 7.3 and 2.9 s: one pass would outlast a run.  At 5,000 nodes every
# two-quantifier sweep (4,291 nodes) still finishes and the deeper ones stop
# at the budget, which semantics.budget_hits and decided_share report.
ORACLE_EVAL_NODE_BUDGET = 5_000


def _term(rng: random.Random, depth: int) -> tuple:
    if depth == 0:
        return rng.choice([("Zero",), ("One",), ("Var", rng.randrange(3)),
                           ("Num", rng.randrange(2, 9))])
    kind = rng.randrange(6)
    if kind <= 1:
        return _term(rng, 0)
    if kind == 2:
        return ("Add", _term(rng, depth - 1), _term(rng, depth - 1))
    if kind == 3:
        return ("Mul", _term(rng, depth - 1), _term(rng, depth - 1))
    if kind == 4:
        return ("len", _term(rng, depth - 1))
    return ("D", _term(rng, depth - 1), _term(rng, depth - 1))


def _formula(rng: random.Random, depth: int) -> tuple:
    if depth == 0:
        return rng.choice([
            ("Eq", _term(rng, 1), _term(rng, 1)),
            ("Lt", _term(rng, 1), _term(rng, 1)),
            ("Formula", _term(rng, 1)),
        ])
    kind = rng.randrange(8)
    if kind <= 1:
        return _formula(rng, 0)
    if kind == 2:
        return ("Not", _formula(rng, depth - 1))
    if kind in (3, 4):
        ctor = rng.choice(["And", "Or", "Implies", "Iff"])
        return (ctor, _formula(rng, depth - 1), _formula(rng, depth - 1))
    ctor = rng.choice(["Forall", "Exists"])
    return (ctor, rng.randrange(3), _formula(rng, depth - 1))


def free_vars(x: tuple, bound: frozenset = frozenset()) -> set[int]:
    tag = x[0]
    if tag == "Var":
        return set() if x[1] in bound else {x[1]}
    if tag in ("Forall", "Exists"):
        return free_vars(x[2], bound | {x[1]})
    out: set[int] = set()
    for child in x[1:]:
        if isinstance(child, tuple):
            out |= free_vars(child, bound)
    return out


def substitution_triples(generator_seed: int, count: int) -> list[tuple]:
    """(formula, variable, value, other assignments) as criterion 14 draws
    them; other assignments are a sorted tuple of (variable, value)."""
    rng = random.Random(generator_seed)
    out = []
    for _ in range(count):
        phi = _formula(rng, rng.randrange(1, 5))
        v = rng.randrange(3)
        m = rng.randrange(12)
        # small ints iterate in ascending order in the criterion's frozenset
        rest = tuple((w, rng.randrange(12))
                     for w in sorted(free_vars(phi)) if w != v)
        out.append((phi, v, m, rest))
    return out


# -- proof-search ------------------------------------------------------------------------

PROPOSITIONAL_GENERATOR_SEED = 2009
PROPOSITIONAL_GOALS = 20
PROPOSITIONAL_NODE_BUDGET = 5_000
FIXTURE_NODE_BUDGET = 5_000

# closed atoms with their truth in the standard model, fixed here so the
# checks do not rely on the evaluator under test
ATOMS: dict[str, bool] = {
    "0=0": True, "0<1": True, "1<0": False,
    "0=1": False, "1=1+0": True, "2<3": True,
}


def _goal(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.25:
        return ("Atom", rng.choice(sorted(ATOMS)))
    kind = rng.randrange(5)
    if kind == 0:
        return ("Not", _goal(rng, depth - 1))
    ctor = ("And", "Or", "Implies", "Iff")[kind - 1]
    return (ctor, _goal(rng, depth - 1), _goal(rng, depth - 1))


def propositional_goals(generator_seed: int, count: int) -> list[tuple]:
    rng = random.Random(generator_seed)
    return [_goal(rng, rng.randrange(1, 4)) for _ in range(count)]


def truth(goal: tuple) -> bool:
    """Truth of a closed propositional goal, by its own truth table."""
    tag = goal[0]
    if tag == "Atom":
        return ATOMS[goal[1]]
    if tag == "Not":
        return not truth(goal[1])
    a, b = truth(goal[1]), truth(goal[2])
    return {"And": a and b, "Or": a or b, "Implies": (not a) or b,
            "Iff": a == b}[tag]


# (kind, argument, node budget, expected outcome) pinned by criteria 10 and 11;
# "none" means any outcome except a proof
PINNED_SEARCHES: tuple[tuple[str, object, int, str], ...] = (
    ("goal", ("Not", ("Not", ("Atom", "0=0"))), 50, "proved"),
    ("goal", ("Not", ("Atom", "0=0")), 100_000, "none"),
    ("rosser", "rho", 10_000, "none"),
    ("rosser", "not-rho", 10_000, "none"),
)

FIXTURES: tuple[tuple[str, str, int], ...] = (
    ("neg_neg_zero_eq_zero.prf", "neg_neg", 0),
    *((f"not_below_zero_{k}.prf", "not_below_zero", k) for k in range(4)),
    *((f"successor_bound_{k}.prf", "successor_bound", k) for k in range(4)),
)


# -- micro-catalogue ----------------------------------------------------------------------

MICRO_MAX_LEN = 12
KOTLARSKI_UP_TO = 50
KOTLARSKI_WITNESS_BOUND = 2_700
GRAPH_POINTS = 6
# the pinned catalogue (successor, doubling, squaring), recomputed here
CATALOGUE_FUNCTIONS = (lambda m: m + 1, lambda m: 2 * m, lambda m: m * m)


# -- giant-codes ------------------------------------------------------------------------

# criterion 05's corpus: (name, spelling, pinned verdict or None for parity)
FIXED_POINT_PROPERTIES: tuple[tuple[str, str, object], ...] = (
    ("tautology", "x=x", True),
    ("contradiction", "¬(x=x)", False),
    ("parity-even", "∃x′′(x′′+(x′′)=x)", None),
    ("parity-odd", "¬(∃x′′(x′′+(x′′)=x))", None),
    ("above-five", "1+(1+(1+(1+(1))))<x", True),
    ("below-five", "x<1+(1+(1+(1+(1))))", False),
    ("zero", "x=0", False),
    ("successor", "∃x′′(x′′+(1)=x)", True),
    ("growth", "x<x+(1)", True),
    ("multiple-of-three", "∃x′′(1+(1+(1))·(x′′)=x)", True),
)
PRESETS = ("everything-true", "nothing-true", "parity")


def numeral_text(k: int) -> str:
    if k == 0:
        return "0"
    return "1+(" * (k - 1) + "1" + ")" * (k - 1)


def seeded_properties(seed: int) -> list[tuple[str, str, object]]:
    """Two one-variable properties from fixed templates, each with a seeded
    constant k in 2..9, which moves neither the cost nor the shape.

    "multiple-of-k" has its verdict from the code modulo k (None here);
    "above-k" is TRUE at every giant code.
    """
    rng = random.Random(seed)
    k, j = rng.randrange(2, 10), rng.randrange(2, 10)
    return [(f"multiple-of-{k}", f"∃x′′({numeral_text(k)}·(x′′)=x)", None),
            (f"above-{j}", f"{numeral_text(j)}<x", True)]


# -- shared helpers -------------------------------------------------------------------------

def digest(items) -> str:
    """sha256 of the canonical JSON spelling of a corpus."""
    text = json.dumps(items, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build(x: tuple):
    """selfref syntax object for a tuple tree (formula, term or goal atom)."""
    from selfref import syntax as S

    tag = x[0]
    if tag == "Zero":
        return S.Zero()
    if tag == "One":
        return S.One()
    if tag == "Var":
        return S.Var(x[1])
    if tag == "Num":
        return S.numeral(x[1])
    if tag in ("Add", "Mul", "Eq", "Lt", "And", "Or", "Implies", "Iff"):
        return getattr(S, tag)(build(x[1]), build(x[2]))
    if tag in ("len", "D"):
        return S.OracleFun(tag, tuple(build(c) for c in x[1:]))
    if tag == "Formula":
        return S.OracleAtom(tag, (build(x[1]),))
    if tag == "Not":
        return S.Not(build(x[1]))
    if tag in ("Forall", "Exists"):
        return getattr(S, tag)(S.Var(x[1]), build(x[2]))
    if tag == "Atom":
        return _ATOM_BUILDERS[x[1]](S)
    raise ValueError(f"unknown node {tag!r}")


_ATOM_BUILDERS = {
    "0=0": lambda S: S.Eq(S.Zero(), S.Zero()),
    "0<1": lambda S: S.Lt(S.Zero(), S.One()),
    "1<0": lambda S: S.Lt(S.One(), S.Zero()),
    "0=1": lambda S: S.Eq(S.Zero(), S.One()),
    "1=1+0": lambda S: S.Eq(S.One(), S.Add(S.One(), S.Zero())),
    "2<3": lambda S: S.Lt(S.Add(S.One(), S.One()),
                          S.Add(S.One(), S.Add(S.One(), S.One()))),
}
