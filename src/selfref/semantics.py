"""Bounded evaluation of formulas over the standard naturals.

Quantifiers range over all of N, so a terminating evaluator can only
ever certify some verdicts.  The result type is three-valued: TRUE and
FALSE are exact claims about the standard model, UNKNOWN means the
search budget ran out before the verdict was forced.  Connectives
follow the strong Kleene tables.

Several devices let the evaluator reach exact verdicts far beyond
brute-force sweeping:

* bounded patterns -- a quantifier shaped like "all v below t" or
  "some v below t" with a small closed bound is iterated exactly;
* linear solving -- an existential whose body forces the quantified
  variable through a linear equation is decided by solving it, which
  works even when the values involved are run-length giants;
* tail analysis -- bodies built from polynomial comparisons (and
  oracle atoms with a declared finite support) are eventually constant
  along v, and the crossover point is computable, so a sweep up to it
  plus the tail verdict is exact;
* witnesses -- an evaluation may carry a map from tree paths of
  existential nodes to claimed witness values; a witnessed node is
  checked only at its witness, which can certify TRUE outright or
  expose the claim as FALSE at that witness.

Tree paths are tuples of child indices: 0 for the body of a negation
or quantifier, 0/1 for left/right of binary nodes, argument position
for oracle symbols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Optional

from .bignat import BigNat, BigNatError
from .syntax import (
    Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt, Mul, Nat,
    Not, Num, One, OracleAtom, OracleFun, Or, Term, Var, Zero, free_vars,
)

Path = tuple[int, ...]
WitnessMap = dict[Path, Nat]


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __invert__(self) -> "Truth":
        if self is Truth.TRUE:
            return Truth.FALSE
        if self is Truth.FALSE:
            return Truth.TRUE
        return Truth.UNKNOWN


def t_and(a: Truth, b: Truth) -> Truth:
    if a is Truth.FALSE or b is Truth.FALSE:
        return Truth.FALSE
    if a is Truth.TRUE and b is Truth.TRUE:
        return Truth.TRUE
    return Truth.UNKNOWN


def t_or(a: Truth, b: Truth) -> Truth:
    if a is Truth.TRUE or b is Truth.TRUE:
        return Truth.TRUE
    if a is Truth.FALSE and b is Truth.FALSE:
        return Truth.FALSE
    return Truth.UNKNOWN


def t_implies(a: Truth, b: Truth) -> Truth:
    return t_or(~a, b)


def t_iff(a: Truth, b: Truth) -> Truth:
    if Truth.UNKNOWN in (a, b):
        return Truth.UNKNOWN
    return Truth.TRUE if a is b else Truth.FALSE


def from_bool(b: bool) -> Truth:
    return Truth.TRUE if b else Truth.FALSE


@dataclass(frozen=True)
class Budget:
    """Caps on evaluation effort.

    witness_bound: how far unbounded quantifier sweeps go.
    iter_cap: largest bounded range that is iterated exactly.
    node_budget: total number of formula-node visits allowed.
    depth_bound: nesting depth allowed before giving up.
    """

    witness_bound: int = 64
    iter_cap: int = 4096
    node_budget: int = 500_000
    depth_bound: int = 256


class OracleUndecided(Exception):
    """An oracle cannot answer on this input within exact arithmetic."""


class BudgetExceeded(Exception):
    pass


@dataclass
class OracleEnv:
    """Interpretations for the oracle symbols.

    atoms map names to predicates on evaluated arguments, funs to
    functions.  atom_supports[name] = s declares that the atom is
    False whenever any argument is >= s, which gives quantifier tails
    an exact verdict even where the predicate itself is expensive.
    """

    atoms: dict[str, Callable[..., bool]] = field(default_factory=dict)
    funs: dict[str, Callable[..., Nat]] = field(default_factory=dict)
    atom_supports: dict[str, int] = field(default_factory=dict)


def pair(p: int, q: int) -> int:
    """Cantor pairing: the catalogue readings pack oracle codes with it."""
    return (p + q) * (p + q + 1) // 2 + q


def unpair(t: int) -> tuple[int, int]:
    """The pair with the given Cantor code (t >= 0)."""
    w = (isqrt(8 * t + 1) - 1) // 2
    q = t - w * (w + 1) // 2
    return w - q, q


@dataclass(frozen=True)
class Unknown:
    """A result left undecided, with the reason."""

    detail: str = ""


@dataclass
class EvalReport:
    truth: Truth
    nodes_used: int
    budget_hit: bool


def _as_int_if_small(v: Nat) -> Nat:
    if isinstance(v, BigNat) and v.digits24 <= 16:
        return v.to_int()
    return v


def eval_term(t: Term, assignment: dict[int, Nat],
              env: OracleEnv) -> Nat:
    """Exact value of a term; raises when off the exact fragment."""
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1
    if isinstance(t, Num):
        return t.value
    if isinstance(t, Var):
        try:
            return assignment[t.index]
        except KeyError:
            raise OracleUndecided(f"unassigned variable x{t.index}") \
                from None
    if isinstance(t, Add):
        return _as_int_if_small(
            eval_term(t.left, assignment, env)
            + eval_term(t.right, assignment, env)
        )
    if isinstance(t, Mul):
        return _as_int_if_small(
            eval_term(t.left, assignment, env)
            * eval_term(t.right, assignment, env)
        )
    if isinstance(t, OracleFun):
        fn = env.funs.get(t.name)
        if fn is None:
            raise OracleUndecided(f"no interpretation for {t.name}")
        args = [eval_term(a, assignment, env) for a in t.args]
        return fn(*args)
    raise OracleUndecided(f"cannot evaluate {t!r}")


# -- polynomial views of terms ------------------------------------------


def _poly(t: Term, v: int, assignment: dict[int, Nat],
          env: OracleEnv) -> Optional[list[Nat]]:
    """Coefficients of t as a polynomial in variable v, or None.

    Coefficient arithmetic is exact; anything that leaves the
    supported fragment (huge products, oracle terms over v) bails out.
    """
    try:
        if isinstance(t, Var) and t.index == v:
            return [0, 1]
        if v not in free_vars(t):
            return [eval_term(t, assignment, env)]
        if isinstance(t, Add):
            pa = _poly(t.left, v, assignment, env)
            pb = _poly(t.right, v, assignment, env)
            if pa is None or pb is None:
                return None
            out = [0] * max(len(pa), len(pb))
            for i, c in enumerate(pa):
                out[i] = out[i] + c
            for i, c in enumerate(pb):
                out[i] = out[i] + c
            return out
        if isinstance(t, Mul):
            pa = _poly(t.left, v, assignment, env)
            pb = _poly(t.right, v, assignment, env)
            if pa is None or pb is None:
                return None
            out: list[Nat] = [0] * (len(pa) + len(pb) - 1)
            for i, c in enumerate(pa):
                for j, d in enumerate(pb):
                    if _is_zero(c) or _is_zero(d):
                        continue
                    out[i + j] = out[i + j] + c * d
            return out
    except (BigNatError, OracleUndecided):
        return None
    return None


def _is_zero(c: Nat) -> bool:
    return c == 0


def _poly_sub(pa: list[Nat], pb: list[Nat]) -> Optional[list[tuple[int, Nat]]]:
    """pa - pb as signed coefficients [(sign, magnitude)]."""
    out: list[tuple[int, Nat]] = []
    try:
        for i in range(max(len(pa), len(pb))):
            a = pa[i] if i < len(pa) else 0
            b = pb[i] if i < len(pb) else 0
            if a == b:
                out.append((0, 0))
            elif _nat_lt(b, a):
                out.append((1, _nat_sub(a, b)))
            else:
                out.append((-1, _nat_sub(b, a)))
    except BigNatError:
        return None
    while out and out[-1][0] == 0:
        out.pop()
    return out


def _nat_lt(a: Nat, b: Nat) -> bool:
    if isinstance(a, BigNat):
        return a < b
    if isinstance(b, BigNat):
        return b > a
    return a < b


def _nat_sub(a: Nat, b: Nat) -> Nat:
    if isinstance(a, BigNat):
        return a.sub(b)
    if isinstance(b, BigNat):
        raise BigNatError("negative")
    return a - b


def _poly_threshold(diff: list[tuple[int, Nat]]) -> Optional[int]:
    """A v beyond which the signed polynomial keeps the sign of its
    leading coefficient.  1 + sum of |coefficients| always works, and
    a constant polynomial has its sign everywhere."""
    if len(diff) <= 1:
        return 0
    total = 0
    for _, mag in diff:
        if isinstance(mag, BigNat):
            if not mag.is_materializable():
                return None
            mag = mag.to_int()
        total += mag
        if total > 10**7:
            return None
    return total + 1


# -- the evaluator -------------------------------------------------------


class Evaluator:
    def __init__(self, env: OracleEnv, budget: Budget,
                 witnesses: Optional[WitnessMap] = None):
        self.env = env
        self.budget = budget
        self.witnesses = witnesses or {}
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget.node_budget:
            raise BudgetExceeded

    def eval(self, phi: Formula, asg: dict[int, Nat], path: Path,
             depth: int = 0) -> Truth:
        self._tick()
        if depth > self.budget.depth_bound:
            return Truth.UNKNOWN
        if isinstance(phi, (Eq, Lt)):
            return self._atom_compare(phi, asg)
        if isinstance(phi, OracleAtom):
            return self._atom_oracle(phi, asg)
        if isinstance(phi, Not):
            return ~self.eval(phi.body, asg, path + (0,), depth + 1)
        if isinstance(phi, And):
            left = self.eval(phi.left, asg, path + (0,), depth + 1)
            if left is Truth.FALSE:
                return Truth.FALSE
            return t_and(left, self.eval(phi.right, asg, path + (1,),
                                         depth + 1))
        if isinstance(phi, Or):
            left = self.eval(phi.left, asg, path + (0,), depth + 1)
            if left is Truth.TRUE:
                return Truth.TRUE
            return t_or(left, self.eval(phi.right, asg, path + (1,),
                                        depth + 1))
        if isinstance(phi, Implies):
            left = self.eval(phi.left, asg, path + (0,), depth + 1)
            if left is Truth.FALSE:
                return Truth.TRUE
            return t_implies(left, self.eval(phi.right, asg, path + (1,),
                                             depth + 1))
        if isinstance(phi, Iff):
            left = self.eval(phi.left, asg, path + (0,), depth + 1)
            right = self.eval(phi.right, asg, path + (1,), depth + 1)
            return t_iff(left, right)
        if isinstance(phi, Exists):
            return self._exists(phi, asg, path, depth)
        if isinstance(phi, Forall):
            return self._forall(phi, asg, path, depth)
        raise OracleUndecided(f"cannot evaluate {phi!r}")

    # -- atoms -----------------------------------------------------------

    def _atom_compare(self, phi, asg) -> Truth:
        try:
            a = eval_term(phi.left, asg, self.env)
            b = eval_term(phi.right, asg, self.env)
            if isinstance(phi, Eq):
                return from_bool(a == b)
            return from_bool(_nat_lt(a, b))
        except (BigNatError, OracleUndecided):
            return Truth.UNKNOWN

    def _atom_oracle(self, phi: OracleAtom, asg) -> Truth:
        try:
            args = [eval_term(a, asg, self.env) for a in phi.args]
        except (BigNatError, OracleUndecided):
            return Truth.UNKNOWN
        support = self.env.atom_supports.get(phi.name)
        if support is not None:
            if support <= 0:
                return Truth.FALSE
            try:
                if any(_nat_lt(support - 1, a) for a in args):
                    return Truth.FALSE
            except BigNatError:
                pass
        fn = self.env.atoms.get(phi.name)
        if fn is None:
            return Truth.UNKNOWN
        try:
            return from_bool(fn(*args))
        except (BigNatError, OracleUndecided):
            return Truth.UNKNOWN

    # -- quantifiers -------------------------------------------------------

    def _exists(self, phi: Exists, asg, path: Path, depth: int) -> Truth:
        v = phi.var.index
        if path in self.witnesses:
            inner = dict(asg)
            inner[v] = self.witnesses[path]
            return self.eval(phi.body, inner, path + (0,), depth + 1)
        bounded = self._bounded_range(phi, asg)
        if bounded is not None:
            limit, rest = bounded
            verdict = Truth.FALSE
            for w in range(limit):
                inner = dict(asg)
                inner[v] = w
                got = self.eval(rest, inner, path + (0, 1), depth + 1)
                if got is Truth.TRUE:
                    return Truth.TRUE
                verdict = t_or(verdict, got)
            return verdict
        solved = self._solve_linear(phi.body, v, asg)
        if solved is not None:
            found, value = solved
            if not found:
                return Truth.FALSE
            inner = dict(asg)
            inner[v] = value
            return self.eval(phi.body, inner, path + (0,), depth + 1)
        tail = self._eventual(phi.body, v, asg)
        if tail is not None and tail[1] is Truth.TRUE:
            return Truth.TRUE
        verdict = Truth.FALSE
        for w in range(self.budget.witness_bound + 1):
            inner = dict(asg)
            inner[v] = w
            got = self.eval(phi.body, inner, path + (0,), depth + 1)
            if got is Truth.TRUE:
                return Truth.TRUE
            verdict = t_or(verdict, got)
        if verdict is Truth.FALSE and tail is not None \
                and tail[1] is Truth.FALSE \
                and tail[0] <= self.budget.witness_bound + 1:
            return Truth.FALSE
        return Truth.UNKNOWN

    def _forall(self, phi: Forall, asg, path: Path, depth: int) -> Truth:
        v = phi.var.index
        bounded = self._bounded_range(phi, asg)
        if bounded is not None:
            limit, rest = bounded
            verdict = Truth.TRUE
            for w in range(limit):
                inner = dict(asg)
                inner[v] = w
                got = self.eval(rest, inner, path + (0, 1), depth + 1)
                if got is Truth.FALSE:
                    return Truth.FALSE
                verdict = t_and(verdict, got)
            return verdict
        tail = self._eventual(phi.body, v, asg)
        if tail is not None and tail[1] is Truth.FALSE:
            return Truth.FALSE
        verdict = Truth.TRUE
        for w in range(self.budget.witness_bound + 1):
            inner = dict(asg)
            inner[v] = w
            got = self.eval(phi.body, inner, path + (0,), depth + 1)
            if got is Truth.FALSE:
                return Truth.FALSE
            verdict = t_and(verdict, got)
        if verdict is Truth.TRUE and tail is not None \
                and tail[1] is Truth.TRUE \
                and tail[0] <= self.budget.witness_bound + 1:
            return Truth.TRUE
        return Truth.UNKNOWN

    def _bounded_range(self, phi, asg) -> Optional[tuple[int, Formula]]:
        """Match 'some v: v<t and rest' / 'all v: v<t implies rest'."""
        v = phi.var.index
        body = phi.body
        if isinstance(phi, Exists):
            if not isinstance(body, And):
                return None
            guard, rest = body.left, body.right
        else:
            if not isinstance(body, Implies):
                return None
            guard, rest = body.left, body.right
        if not (isinstance(guard, Lt) and guard.left == Var(v)):
            return None
        if v in free_vars(guard.right):
            return None
        try:
            limit = eval_term(guard.right, asg, self.env)
        except (BigNatError, OracleUndecided):
            return None
        if isinstance(limit, BigNat):
            if limit > self.budget.iter_cap:
                return None
            limit = limit.to_int()
        if limit > self.budget.iter_cap:
            return None
        return limit, rest

    def _solve_linear(self, body: Formula, v: int,
                      asg) -> Optional[tuple[bool, Nat]]:
        """If a mandatory conjunct pins v linearly, solve for it.

        Returns None when no conjunct pins v, (False, 0) when the
        pinning equation has no solution in N (so the existential is
        exactly false), and (True, value) otherwise.
        """
        for conjunct in _and_spine(body):
            if not isinstance(conjunct, Eq):
                continue
            pl = _poly(conjunct.left, v, asg, self.env)
            pr = _poly(conjunct.right, v, asg, self.env)
            if pl is None or pr is None or max(len(pl), len(pr)) > 2:
                continue
            diff = _poly_sub(pl, pr)
            if diff is None or len(diff) != 2:
                continue
            sign1, slope = diff[1]
            sign0, const = diff[0] if diff else (0, 0)
            if sign1 == 0:
                continue
            # slope*v + const = 0 with opposite signs required
            if sign0 == 0:
                return True, 0
            if sign0 == sign1:
                return False, 0
            try:
                value = _nat_divide_exact(const, slope)
            except BigNatError:
                continue
            if value is None:
                return False, 0
            return True, value
        return None

    def _eventual(self, phi: Formula, v: int,
                  asg) -> Optional[tuple[int, Truth]]:
        """A (threshold, verdict) with verdict holding for all values
        of v at or beyond the threshold, or None."""
        if isinstance(phi, (Eq, Lt)):
            pl = _poly(phi.left, v, asg, self.env)
            pr = _poly(phi.right, v, asg, self.env)
            if pl is None or pr is None:
                return None
            diff = _poly_sub(pl, pr)
            if diff is None:
                return None
            if not diff:
                # identical polynomials
                return (0, Truth.TRUE if isinstance(phi, Eq) else Truth.FALSE)
            th = _poly_threshold(diff)
            if th is None:
                return None
            if isinstance(phi, Eq):
                return (th, Truth.FALSE)
            lead = diff[-1][0]
            return (th, Truth.TRUE if lead < 0 else Truth.FALSE)
        if isinstance(phi, OracleAtom):
            support = self.env.atom_supports.get(phi.name)
            if v not in free_vars(phi):
                got = self._atom_oracle(phi, asg)
                return None if got is Truth.UNKNOWN else (0, got)
            if support is None:
                return None
            for arg in phi.args:
                p = _poly(arg, v, asg, self.env)
                if p is not None and len(p) > 1:
                    return (max(support, 1), Truth.FALSE)
            return None
        if isinstance(phi, Not):
            sub = self._eventual(phi.body, v, asg)
            if sub is None:
                return None
            return (sub[0], ~sub[1])
        if isinstance(phi, (And, Or, Implies, Iff)):
            lt = self._eventual(phi.left, v, asg)
            rt = self._eventual(phi.right, v, asg)
            # an absorbing child decides the verdict at its own threshold
            absorbing: list[tuple[int, Truth]] = []
            if isinstance(phi, And):
                for side in (lt, rt):
                    if side and side[1] is Truth.FALSE:
                        absorbing.append((side[0], Truth.FALSE))
            elif isinstance(phi, Or):
                for side in (lt, rt):
                    if side and side[1] is Truth.TRUE:
                        absorbing.append((side[0], Truth.TRUE))
            elif isinstance(phi, Implies):
                if lt and lt[1] is Truth.FALSE:
                    absorbing.append((lt[0], Truth.TRUE))
                if rt and rt[1] is Truth.TRUE:
                    absorbing.append((rt[0], Truth.TRUE))
            if absorbing:
                return min(absorbing, key=lambda p: p[0])
            if lt is None or rt is None:
                return None
            lv, rv = lt[1], rt[1]
            if isinstance(phi, And):
                out = t_and(lv, rv)
            elif isinstance(phi, Or):
                out = t_or(lv, rv)
            elif isinstance(phi, Implies):
                out = t_implies(lv, rv)
            else:
                out = t_iff(lv, rv)
            if out is Truth.UNKNOWN:
                return None
            return (max(lt[0], rt[0]), out)
        if isinstance(phi, (Forall, Exists)):
            # over a nonempty domain a vacuous quantifier is transparent
            if phi.var.index not in free_vars(phi.body):
                return self._eventual(phi.body, v, asg)
            return None
        return None


def _and_spine(phi: Formula):
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        else:
            yield node


def _nat_divide_exact(a: Nat, b: Nat) -> Optional[Nat]:
    """a / b over N, or None when b does not divide a."""
    if isinstance(b, BigNat):
        if not b.is_materializable():
            raise BigNatError("divisor too large")
        b = b.to_int()
    if b == 0:
        raise BigNatError("division by zero")
    if isinstance(a, BigNat):
        q, r = a.divmod_int(b)
        return q if r == 0 else None
    q, r = divmod(a, b)
    return q if r == 0 else None


# -- public API -----------------------------------------------------------


def evaluate(phi: Formula, env: Optional[OracleEnv] = None,
             budget: Optional[Budget] = None,
             witnesses: Optional[WitnessMap] = None,
             assignment: Optional[dict[int, Nat]] = None) -> Truth:
    return evaluate_full(phi, env, budget, witnesses, assignment).truth


def evaluate_full(phi: Formula, env: Optional[OracleEnv] = None,
                  budget: Optional[Budget] = None,
                  witnesses: Optional[WitnessMap] = None,
                  assignment: Optional[dict[int, Nat]] = None) -> EvalReport:
    ev = Evaluator(env or OracleEnv(), budget or Budget(), witnesses)
    try:
        truth = ev.eval(phi, assignment or {}, ())
        return EvalReport(truth, ev.nodes, False)
    except BudgetExceeded:
        return EvalReport(Truth.UNKNOWN, ev.nodes, True)
    except (BigNatError, OracleUndecided):
        return EvalReport(Truth.UNKNOWN, ev.nodes, False)


@dataclass
class DefinesReport:
    exact: bool
    solutions: list
    note: str = ""


def defines(phi: Formula, env: Optional[OracleEnv] = None,
            budget: Optional[Budget] = None,
            universe: Optional[int] = None) -> DefinesReport:
    """The set of values of x that satisfy a one-free-variable formula.

    With a universe bound the sweep covers exactly that range.  Without
    one the sweep runs to the witness bound and tail analysis decides
    whether anything can hide beyond it.
    """
    env = env or OracleEnv()
    budget = budget or Budget()
    fv = free_vars(phi)
    if fv - {0}:
        return DefinesReport(False, [], "extra free variables")
    ev = Evaluator(env, budget)
    limit = universe if universe is not None else budget.witness_bound + 1
    solutions = []
    decisive = True
    try:
        for w in range(limit):
            got = ev.eval(phi, {0: w}, ())
            if got is Truth.TRUE:
                solutions.append(w)
            elif got is Truth.UNKNOWN:
                decisive = False
    except BudgetExceeded:
        return DefinesReport(False, solutions, "budget exhausted")
    if universe is not None:
        return DefinesReport(decisive, solutions,
                             "relative to the finite universe")
    tail = ev._eventual(phi, 0, {})
    if decisive and tail is not None and tail[1] is Truth.FALSE \
            and tail[0] <= limit:
        return DefinesReport(True, solutions, "tail is false")
    if tail is not None and tail[1] is Truth.TRUE and tail[0] <= limit:
        return DefinesReport(True, solutions + ["..."],
                             "cofinitely many solutions")
    return DefinesReport(False, solutions, "beyond the sweep is unchecked")


def standard_oracle_env(prf: Optional[Callable[[Nat, Nat], bool]] = None
                        ) -> OracleEnv:
    """The intended reading of the oracle symbols over codes.

    len is digit count, neg wraps a code in negation digitwise,
    Formula recognizes codes of formulas, D(a, y) is the code of the
    sentence saying "the formula coded by a holds of y and nothing
    else".  prf is pluggable; without it proof claims stay undecided.
    """
    from . import coding
    from .syntax import Forall as FA, Iff as IFF, numeral

    def len_fn(a: Nat) -> Nat:
        if isinstance(a, int) and a <= 0:
            return 1
        return coding.code_length(a)

    def neg_fn(a: Nat) -> Nat:
        if isinstance(a, int) and a <= 0:
            return 0
        return coding.neg_code(a)

    def formula_fn(a: Nat) -> bool:
        if isinstance(a, BigNat) and not a.is_materializable():
            raise OracleUndecided("code too large to inspect")
        try:
            return isinstance(coding.decode(a), Formula)
        except coding.NotACode:
            return False

    def d_fn(a: Nat, y: Nat) -> Nat:
        if isinstance(a, BigNat) and not a.is_materializable():
            raise OracleUndecided("code too large to inspect")
        try:
            phi = coding.decode(a)
        except coding.NotACode:
            return 0
        if not isinstance(phi, Formula):
            return 0
        fv = free_vars(phi)
        if len(fv) != 1:
            return 0
        (index,) = fv
        sentence = FA(Var(index), IFF(phi, Eq(Var(index), numeral(y))))
        code = coding.encode(sentence)
        return code

    env = OracleEnv(
        funs={"len": len_fn, "neg": neg_fn, "D": d_fn},
        atoms={"Formula": formula_fn},
    )
    if prf is not None:
        env.atoms["prf"] = prf
    return env
