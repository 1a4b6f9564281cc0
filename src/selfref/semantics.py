"""Bounded evaluation of formulas over the standard naturals.

Quantifiers range over all of N, so a terminating evaluator can only
ever certify some verdicts.  The result type is three-valued: TRUE and
FALSE are exact claims about the standard model, UNKNOWN means the
search budget ran out before the verdict was forced.  Connectives
follow the strong Kleene tables.

Several devices let the evaluator reach exact verdicts far beyond
brute-force sweeping.  Each names the values of the quantified variable
that decide the quantifier, and one loop runs them:

* bounded patterns -- a quantifier shaped like "all v below t" or
  "some v below t" with a small closed bound is iterated exactly;
* linear solving -- an existential whose body forces the quantified
  variable through a linear equation is decided by solving it, which
  works even when the values involved are run-length giants;
* tail analysis -- bodies built from polynomial comparisons (and
  oracle atoms with a declared finite support) are eventually constant
  along v, and the crossover point is computable, so the values below
  it plus the tail verdict are exact;
* vacuous quantifiers -- over the nonempty domain N a quantifier whose
  variable is not free in its body has its body's verdict, so the body
  runs once;
* witnesses -- an evaluation may carry a map from tree paths of
  existential nodes to claimed witness values; a witnessed node is
  checked only at its witness, which can certify TRUE outright or
  expose the claim as FALSE at that witness.

Tree paths are tuples of child indices: 0 for the body of a negation
or quantifier, 0/1 for left/right of binary nodes, argument position
for oracle symbols.

One interpreter, eval_term, reads a term as its value or, for tail
analysis and linear solving, as a polynomial in the swept variable.
Formulas are compiled into closures (Feeley & Lapalme, "Using closures
for code generation", 1987) lazily, one node at its first visit, so a
formula decided after a few nodes costs no more than a tree walk.  A
sweep reads the whole value range at once, bottom-up (Boncz, Zukowski &
Nes, CIDR 2005): each node's truths are a (TRUE, FALSE) pair of int
bitmasks; = and < over sums and products of numerals and variables, ¬
and the binary connectives are read in bulk, and any other node, such
as an oracle atom or a quantifier, runs its compiled code value by value
at the values where compiled code over the whole formula reaches it.
That mask pair is the sweep's result, which its readers read by bits.
A quantifier visit is never read through a batch: its loop runs its
values one by one.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from math import isqrt
from typing import Callable, Iterable, Iterator, Optional

from .bignat import BigNat, BigNatError, as_int
from .syntax import (
    ORACLE_FUNS, Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt,
    Mul, Nat, Not, Num, One, OracleAtom, OracleFun, Or, Term, Var, Zero,
    preorder,
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


def statement_code(a: int, rest: int) -> int:
    """The code of the statement "catalogue entry a holds at rest", as
    catalogue_env's Tr reads it: the Cantor code plus one, so that no
    statement has code 0."""
    return (a + rest) * (a + rest + 1) // 2 + rest + 1  # pair(a, rest) + 1


def statement_codes(entries: Iterable[int], rest: int) -> list[int]:
    """[statement_code(a, rest) for a in entries], with no call an entry."""
    return [(a + rest) * (a + rest + 1) // 2 + rest + 1 for a in entries]


def catalogue_env(size: int, judge: Callable[[int, int], Truth],
                  funs: dict[str, Callable[..., Nat]]) -> OracleEnv:
    """The oracle symbols read over the indices of a catalogue of size
    entries, the reading both diagonal-free arguments give them.

    Formula(a) says a is an index, with its support declared.  Tr(code)
    is False on 0 and on statements about entries a >= size, and
    otherwise the judgment judge(a, rest) of the statement
    statement_code(a, rest); an UNKNOWN judgment raises OracleUndecided.
    The functions in funs get their arguments read as indices.  A value
    beyond machine integers is no index: reading it raises
    OracleUndecided.
    """
    def index(value: Nat) -> int:
        if type(value) is int:
            return value
        out = as_int(value)
        if out is None:
            raise OracleUndecided("value too large for the catalogue")
        return out

    def formula_fn(a: Nat) -> bool:
        return (a if type(a) is int else index(a)) < size

    def tr_fn(code: Nat) -> bool:
        code = code if type(code) is int else index(code)
        if code <= 0:
            return False
        a, rest = unpair(code - 1)
        if a >= size:
            return False
        got = judge(a, rest)
        if got is Truth.UNKNOWN:
            raise OracleUndecided("catalogue judgment undecided")
        return got is Truth.TRUE

    def reading(fn, arity):
        if arity == 1:
            return lambda a: fn(a if type(a) is int else index(a))
        if arity == 2:
            return lambda a, b: fn(a, b) if type(a) is int and type(b) is int \
                else fn(index(a), index(b))

        def read(*args):
            for a in args:
                if type(a) is not int:
                    return fn(*map(index, args))
            return fn(*args)
        return read

    return OracleEnv(atoms={"Formula": formula_fn, "Tr": tr_fn},
                     funs={name: reading(fn, ORACLE_FUNS.get(name))
                           for name, fn in funs.items()},
                     atom_supports={"Formula": size})


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


def eval_term(t: Term, assignment: dict[int, Nat], env: OracleEnv,
              v: Optional[int] = None):
    """Exact value of a term; raises when off the exact fragment, and
    on a term nested deeper than DEPTH_CAP, which it does not walk.

    Given v, a subterm in which v is free is read as a polynomial in v
    instead: the value is its coefficient list, lowest degree first
    ([0, 1] at v itself), and an oracle function of v raises before it
    evaluates its arguments."""
    kind = type(t)
    if kind is Add or kind is Mul:
        if t.height > DEPTH_CAP:
            raise OracleUndecided("term nested too deep")
        a = eval_term(t.left, assignment, env, v)
        b = eval_term(t.right, assignment, env, v)
        if type(a) is int and type(b) is int:
            return a + b if kind is Add else a * b
        if type(a) is list or type(b) is list:
            return _poly_op(kind, a, b)
        return _as_int_if_small(a + b if kind is Add else a * b)
    if kind is One:
        return 1
    if kind is Var:
        if t.index == v:
            return [0, 1]
        try:
            return assignment[t.index]
        except KeyError:
            raise OracleUndecided(f"unassigned variable x{t.index}") \
                from None
    if kind is Zero:
        return 0
    if kind is Num:
        return t.value
    if kind is OracleFun:
        if v in t.fv:
            raise OracleUndecided(f"{t.name} of the swept variable")
        fn = env.funs.get(t.name)
        if fn is None:
            raise OracleUndecided(f"no interpretation for {t.name}")
        if t.height > DEPTH_CAP:
            raise OracleUndecided("term nested too deep")
        values = []  # a loop, not a comprehension: one frame per level
        for a in t.args:
            values.append(eval_term(a, assignment, env, v))
        return fn(*values)
    raise OracleUndecided(f"cannot evaluate {t!r}")


# Compiled code nests one Python call per formula level and one per term
# level, and tail analysis and linear solving one per level of the
# subtree they read.  Nothing deeper than this cap is evaluated or
# walked, whatever the depth bound says: a formula that reaches past it
# gets UNKNOWN there, well inside the interpreter's default recursion
# limit of 1000.
DEPTH_CAP = 600

_T, _F, _U = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN
_UNREAD = object()  # a memo's answer for a node not read yet
_OFF_FRAGMENT = (BigNatError, OracleUndecided)

# per connective: left value that settles it, the verdict then, and the
# table for the general case
_CONNECTIVES = {And: (_F, _F, t_and), Or: (_T, _T, t_or),
                Implies: (_F, _T, t_implies), Iff: (None, None, t_iff)}


def _compile_term(t: Term, env: OracleEnv) -> Callable[[dict], Nat]:
    """Code computing eval_term(t, asg, env) from asg: the same values,
    and the same exceptions off the exact fragment.  Oracle functions
    are functions of their arguments, so a closed term is computed once,
    on first use."""
    kind = type(t)
    if not t.fv:
        value = None

        def closed(asg):
            nonlocal value
            if value is None:
                value = eval_term(t, asg, env)
            return value
        return closed
    if kind is Var:
        index = t.index

        def var(asg):
            try:
                return asg[index]
            except KeyError:
                raise OracleUndecided(f"unassigned variable x{index}") \
                    from None
        return var
    if kind is Add or kind is Mul:
        left = _compile_term(t.left, env)
        right = _compile_term(t.right, env)
        op = operator.add if kind is Add else operator.mul

        def arith(asg):
            a = left(asg)
            b = right(asg)
            if type(a) is int and type(b) is int:
                return op(a, b)
            return _as_int_if_small(op(a, b))
        return arith
    fn = env.funs.get(t.name) if kind is OracleFun else None
    if fn is None:  # eval_term raises, before reading the arguments
        return lambda asg: eval_term(t, asg, env)
    # map and a loop, not comprehensions: one frame per term level
    args = list(map(_compile_term, t.args, repeat(env)))
    if len(args) == 1:
        (a,) = args
        return lambda asg: fn(a(asg))
    if len(args) == 2:
        a, b = args
        return lambda asg: fn(a(asg), b(asg))

    def call(asg):
        values = []
        for a in args:
            values.append(a(asg))
        return fn(*values)
    return call


def _small(guard, asg, cap: int) -> Optional[int]:
    """A bounded quantifier's range: its guard term's value as an int,
    or None when that is off the exact fragment or above the cap."""
    try:
        n = guard(asg)
    except _OFF_FRAGMENT:
        return None
    if n > cap:
        return None
    return n.to_int() if isinstance(n, BigNat) else n


# -- polynomial views of terms ------------------------------------------


def _coefficients(p) -> list[Nat]:
    """eval_term's value with v given, as a coefficient list."""
    return p if type(p) is list else [p]


def _poly_op(kind, a, b) -> list[Nat]:
    """a + b (kind Add) or a · b (kind Mul), one of them a coefficient
    list, in exact coefficient arithmetic."""
    pa, pb = _coefficients(a), _coefficients(b)
    if kind is Add:
        out = [0] * max(len(pa), len(pb))
        for i, c in enumerate(pa):
            out[i] = out[i] + c
        for i, c in enumerate(pb):
            out[i] = out[i] + c
        return out
    out = [0] * (len(pa) + len(pb) - 1)
    for i, c in enumerate(pa):
        for j, d in enumerate(pb):
            if c != 0 and d != 0:
                out[i + j] = out[i + j] + c * d
    return out


def _poly_sub(a, b) -> list[tuple[int, Nat]]:
    """a - b as signed coefficients [(sign, magnitude)], each side a
    value or a coefficient list."""
    pa, pb = _coefficients(a), _coefficients(b)
    out: list[tuple[int, Nat]] = []
    for i in range(max(len(pa), len(pb))):
        a = pa[i] if i < len(pa) else 0
        b = pb[i] if i < len(pb) else 0
        if a == b:
            out.append((0, 0))
        elif b < a:
            out.append((1, _nat_sub(a, b)))
        else:
            out.append((-1, _nat_sub(b, a)))
    while out and out[-1][0] == 0:
        out.pop()
    return out


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
    """Evaluates formulas by compiling them into closures asg -> Truth.

    A node is compiled on its first visit, with its tree path and depth
    fixed in, and a child only when it is first reached; a quantifier's
    bounded rest is compiled only when the bounded device fires.  Every
    node visit counts against the node budget before the depth check,
    as a tree walk would count it.

    Compiling settles what stays fixed between visits: an oracle atom's
    support and interpretation, an oracle function's arity, and the left
    value after which ∧, ∨ or → takes its right side's value.
    """

    __slots__ = ("env", "budget", "witnesses", "nodes")

    def __init__(self, env: OracleEnv, budget: Budget,
                 witnesses: Optional[WitnessMap] = None):
        self.env = env
        self.budget = budget
        self.witnesses = witnesses or {}
        self.nodes = 0

    def compile(self, phi: Formula) -> Callable[[dict], Truth]:
        """Code for phi, asg -> Truth; each call is one evaluation with
        the whole node budget.  Running out of nodes (after which nodes
        exceeds the budget) or leaving the exact fragment gives UNKNOWN.

        The code refers to the evaluator and the evaluator not to the
        code, so both are freed without the cycle collector."""
        code = self._compile(phi, (), 0)

        def run(asg):
            self.nodes = 0
            try:
                return code(asg)
            except (BudgetExceeded, BigNatError, OracleUndecided):
                return _U
        return run

    def _compile(self, phi: Formula, path: Path, depth: int):
        kind = type(phi)
        if depth > self.budget.depth_bound or depth > DEPTH_CAP:
            return self._leaf(None)
        if kind in _CONNECTIVES:
            return self._connective(phi, path, depth)
        if kind is Exists or kind is Forall:
            return self._quantifier(phi, path, depth)
        if kind is Not:
            return self._negation(phi, path, depth)
        if kind is Eq or kind is Lt or kind is OracleAtom:
            if depth + phi.height > DEPTH_CAP:
                return self._leaf(None)
            return self._atom(phi)
        return self._leaf(f"cannot evaluate {phi!r}")

    def _leaf(self, error: Optional[str]):
        """Code that counts its visit, then gives UNKNOWN or the error."""
        ev, limit = self, self.budget.node_budget

        def run(asg):
            ev.nodes += 1
            if ev.nodes > limit:
                raise BudgetExceeded
            if error is None:
                return _U
            raise OracleUndecided(error)
        return run

    def _negation(self, phi: Not, path: Path, depth: int):
        ev, limit = self, self.budget.node_budget
        body = None

        def run(asg):
            nonlocal body
            ev.nodes += 1
            if ev.nodes > limit:
                raise BudgetExceeded
            if body is None:
                body = ev._compile(phi.body, path + (0,), depth + 1)
            got = body(asg)
            return _F if got is _T else _T if got is _F else _U
        return run

    def _connective(self, phi, path: Path, depth: int):
        ev, limit = self, self.budget.node_budget
        stop, settled, table = _CONNECTIVES[type(phi)]
        # the left value after which the verdict is the right one (∧, ∨, →)
        neutral = None if stop is None else ~stop
        left = right = None

        def run(asg):
            nonlocal left, right
            ev.nodes += 1
            if ev.nodes > limit:
                raise BudgetExceeded
            if left is None:
                left = ev._compile(phi.left, path + (0,), depth + 1)
            a = left(asg)
            if a is stop:
                return settled
            if right is None:
                right = ev._compile(phi.right, path + (1,), depth + 1)
            if a is neutral:
                return right(asg)
            return table(a, right(asg))
        return run

    def _atom(self, phi):
        ev, limit = self, self.budget.node_budget
        if type(phi) is OracleAtom:
            args = [_compile_term(a, self.env) for a in phi.args]
            read = _oracle_reader(phi.name, self.env)
            one = args[0] if len(args) == 1 else None

            def oracle(asg):
                ev.nodes += 1
                if ev.nodes > limit:
                    raise BudgetExceeded
                try:
                    if one:
                        return read(one(asg))  # read raises nothing
                    values = [a(asg) for a in args]
                except _OFF_FRAGMENT:
                    return _U
                return read(*values)
            return oracle
        left = _compile_term(phi.left, self.env)
        right = _compile_term(phi.right, self.env)

        def eq(asg):
            ev.nodes += 1
            if ev.nodes > limit:
                raise BudgetExceeded
            try:
                return _T if left(asg) == right(asg) else _F
            except _OFF_FRAGMENT:
                return _U

        def lt(asg):
            ev.nodes += 1
            if ev.nodes > limit:
                raise BudgetExceeded
            try:
                return _T if left(asg) < right(asg) else _F
            except _OFF_FRAGMENT:
                return _U
        return eq if type(phi) is Eq else lt

    def _quantifier(self, phi, path: Path, depth: int):
        """The devices in order, each naming the values that decide the
        quantifier: a bounded range runs its rest below the bound; a
        witness or a linear solution (existentials only) runs the body at
        one value, an unsolvable equation at none; a tail either stops
        the quantifier or, from a threshold within the witness bound on,
        settles it, and the values below run; a vacuous body runs once.
        All of these are exact.  Otherwise the sweep to the witness bound
        is not.  One loop runs the values: a stop value decides, else the
        verdict is start if the run is exact and no value was UNKNOWN."""
        ev, env, budget = self, self.env, self.budget
        limit, iter_cap = budget.node_budget, budget.iter_cap
        horizon = budget.witness_bound + 1  # values a full sweep runs
        v = phi.var.index
        exists = type(phi) is Exists
        # a TRUE instance settles an existential, a FALSE one a universal
        stop, start = (_T, _F) if exists else (_F, _T)
        # over the nonempty domain N, Qv φ with v not free in φ is φ
        vacuous = v not in phi.body.fv
        witness = self.witnesses.get(path) if exists else None
        walks = depth + phi.height <= DEPTH_CAP
        guard = body = rest = None
        if witness is None and type(phi.body) is (And if exists else Implies) \
                and type(phi.body.left) is Lt:
            var, bound = phi.body.left.left, phi.body.left.right
            if type(var) is Var and var.index == v and v not in bound.fv \
                    and depth + 2 + bound.height <= DEPTH_CAP:
                guard = _compile_term(bound, env)

        def run(asg):
            nonlocal body, rest
            ev.nodes += 1
            if ev.nodes > limit:
                raise BudgetExceeded
            n = None if guard is None else _small(guard, asg, iter_cap)
            values, exact = None, True
            if n is not None:
                if rest is None:
                    rest = ev._compile(phi.body.right, path + (0, 1),
                                       depth + 1)
                code, values = rest, range(n)
            else:
                if body is None:
                    body = ev._compile(phi.body, path + (0,), depth + 1)
                code = body
                if witness is not None:
                    values = (witness,)
                elif walks:
                    solved = exists and _solve_linear(phi.body, asg, env, v)
                    if solved:
                        values = (solved[1],) if solved[0] else ()
                    else:
                        tail = _eventual(phi.body, asg, env, v)
                        if tail is not None and tail[1] is stop:
                            return stop
                        # from its threshold on the tail gives start
                        if tail is not None and tail[0] <= horizon:
                            values = range(tail[0])
                if values is None:  # a vacuous body has its verdict
                    values, exact = range(1 if vacuous else horizon), vacuous
            inner = dict(asg)
            for w in values:
                inner[v] = w
                got = code(inner)
                if got is stop:
                    return stop
                if got is not start:
                    exact = False
            return start if exact else _U
        return run

def _oracle_reader(name: str, env: OracleEnv) -> Callable[..., Truth]:
    """Code giving the truth of oracle atom name at argument values."""
    support = env.atom_supports.get(name)
    fn = env.atoms.get(name)
    if support is not None and support <= 0:
        return lambda *values: _F
    last = -1 if support is None else support - 1

    def read(*values):
        if last >= 0:
            try:
                for a in values:
                    if last < a:
                        return _F
            except BigNatError:
                pass
        if fn is None:
            return _U
        try:
            return _T if fn(*values) else _F
        except _OFF_FRAGMENT:
            return _U
    return read


def _solve_linear(body: Formula, asg, env: OracleEnv,
                  v: int) -> Optional[tuple[bool, Nat]]:
    """If a mandatory conjunct pins v linearly, solve for it.

    Returns None when no conjunct pins v, (False, 0) when the
    pinning equation has no solution in N (so the existential is
    exactly false), and (True, value) otherwise.  A side of degree
    above 1 leaves its conjunct alone, even where the difference of
    the sides is linear.
    """
    for conjunct in preorder(body, _conjuncts):
        if not isinstance(conjunct, Eq):
            continue
        try:
            pl = _coefficients(eval_term(conjunct.left, asg, env, v))
            pr = _coefficients(eval_term(conjunct.right, asg, env, v))
            if max(len(pl), len(pr)) > 2:
                continue
            diff = _poly_sub(pl, pr)
            if len(diff) != 2:
                continue
            (sign0, const), (sign1, slope) = diff
            # slope*v + const = 0 with opposite signs required
            if sign0 == 0:
                return True, 0
            if sign0 == sign1:
                return False, 0
            value = _nat_divide_exact(const, slope)
        except _OFF_FRAGMENT:
            continue
        return (False, 0) if value is None else (True, value)
    return None


def _eventual(phi: Formula, asg, env: OracleEnv, v: int,
              memo: Optional[dict] = None) -> Optional[tuple[int, Truth]]:
    """A (threshold, verdict) with verdict holding for all values
    of v at or beyond the threshold, or None.  A memo, where given,
    keeps each node's answer for later calls with the same asg, env
    and v."""
    if memo is not None:
        got = memo.get(phi, _UNREAD)
        if got is not _UNREAD:
            return got
    kind = type(phi)
    if kind is Eq or kind is Lt or kind is OracleAtom:
        got = _eventual_atom(phi, asg, env, v)
    elif kind is Not:
        sub = _eventual(phi.body, asg, env, v, memo)
        got = sub and (sub[0], ~sub[1])
    elif kind in _CONNECTIVES:
        stop, settled, table = _CONNECTIVES[kind]
        lt = _eventual(phi.left, asg, env, v, memo)
        rt = _eventual(phi.right, asg, env, v, memo)
        # an absorbing child decides the verdict at its own threshold
        absorbing = [side[0] for side, value in ((lt, stop), (rt, settled))
                     if side and side[1] is value]
        if absorbing:
            got = (min(absorbing), settled)
        elif lt is None or rt is None:
            got = None
        else:
            out = table(lt[1], rt[1])
            got = None if out is _U else (max(lt[0], rt[0]), out)
    elif (kind is Forall or kind is Exists) \
            and phi.var.index not in phi.body.fv:
        # over a nonempty domain a vacuous quantifier is transparent
        got = _eventual(phi.body, asg, env, v, memo)
    else:
        got = None
    if memo is not None:
        memo[phi] = got
    return got


def _eventual_atom(phi: Formula, asg, env: OracleEnv,
                   v: int) -> Optional[tuple[int, Truth]]:
    """_eventual of an atom: =, < or an oracle atom."""
    if type(phi) is not OracleAtom:
        try:
            diff = _poly_sub(eval_term(phi.left, asg, env, v),
                             eval_term(phi.right, asg, env, v))
        except _OFF_FRAGMENT:
            return None
        if not diff:
            # identical polynomials
            return (0, _T if type(phi) is Eq else _F)
        th = _poly_threshold(diff)
        # from th on the difference has its leading coefficient's sign
        holds = type(phi) is Lt and diff[-1][0] < 0
        return None if th is None else (th, _T if holds else _F)
    support = env.atom_supports.get(phi.name)
    if v not in phi.fv:
        try:
            args = [eval_term(a, asg, env) for a in phi.args]
        except _OFF_FRAGMENT:
            return None
        got = _oracle_reader(phi.name, env)(*args)
        return None if got is _U else (0, got)
    if support is None:
        return None
    # natural coefficients: with one of positive degree nonzero,
    # the argument is at least v, so from the support on it is out
    for arg in phi.args:
        try:
            p = _coefficients(eval_term(arg, asg, env, v))
        except _OFF_FRAGMENT:
            continue
        if any(c != 0 for c in p[1:]):
            return (max(support, 1), _F)
    return None


def _conjuncts(node) -> tuple:
    return (node.left, node.right) if isinstance(node, And) else ()


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
    truth = ev.compile(phi)(assignment or {})
    return EvalReport(truth, ev.nodes, ev.nodes > ev.budget.node_budget)


def truth_at(phi: Formula, env: Optional[OracleEnv] = None,
             budget: Optional[Budget] = None) -> Callable[[dict], Truth]:
    """phi compiled once, as asg -> evaluate(phi, env, budget,
    assignment=asg): each call gets the whole node budget, where a sweep
    shares one budget over all its values."""
    return Evaluator(env or OracleEnv(), budget or Budget()).compile(phi)


def _swept(phi: Formula, var: int, asg: dict, env: OracleEnv,
           budget: Budget) -> tuple[int, int]:
    """phi's truths at var = 0..witness_bound, the rest of asg fixed, as
    a (TRUE, FALSE) mask pair: bit w of the first is set where phi is
    TRUE at var = w, of the second where it is FALSE, and a value in
    neither is UNKNOWN, as is each from the one at which the nodes
    visited in all exceed the node budget on."""
    reach = range(min(budget.witness_bound, budget.node_budget) + 1)
    return _Batch(var, asg, reach, env, budget, True).read(phi)


_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _mask(bools) -> int:
    """The mask whose bit i is the i-th of bools."""
    return int(b"0" + bytes(bools)[::-1].translate(_TO_DIGITS), 2)


def _bits(mask: int, n: int) -> bytes:
    """The first n bits of mask as bytes 0 and 1, bit i at index i."""
    digits = bin(mask & ((1 << n) - 1) | 1 << n)[:2:-1]  # 0b1 dropped
    return digits.encode().translate(_FROM_DIGITS)


def _positions(mask: int) -> list[int]:
    """The indices of mask's set bits, in order."""
    if not mask:
        return []
    lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length()
    return list(compress(range(lo, hi), _bits(mask >> lo, hi - lo)))


def _lanes(value):
    """A batched term value as one iterable of its values."""
    return repeat(value) if type(value) is int else value


class _Lane:
    """A node that its compiled code, with that code's evaluator, runs
    value by value, only at the values where compiled code over the whole
    formula reaches it.  It keeps the values it ran as a mask, its (TRUE,
    FALSE) masks, and the nodes it visited at each value."""

    __slots__ = ("code", "ran", "true", "false", "nodes")

    def __init__(self, code, n: int, limit: int):
        self.code = code
        self.ran = self.true = self.false = 0
        # limit + 1 until run: a value not run is cut or not counted
        self.nodes = [limit + 1] * n


class _Batch:
    """Formulas read at var = each of values at once, the rest of asg
    fixed.  A formula's truths are a (TRUE, FALSE) pair of ints, bit i
    of each for values[i]: the bit-sliced strong Kleene encoding.  = and
    < over the terms that term reads, ¬, the binary connectives and a
    vacuous quantifier, as its body (N is nonempty), are read in bulk,
    the swept variable against an int over range(0, n) as one bit or a
    run of bits.  Any other node is a lane node, which its compiled code
    runs value by value where compiled code over the whole formula reaches
    it: an oracle atom, an atom over other terms, a quantifier over a
    variable free in its body, a vacuous quantifier over a lane node (its
    tail may not settle it), and a root past the depth bound, within which
    no node is cut by depth.  Values are range(0, n) or a list.  Where
    shared, the node budget covers all values, else each value gets it
    whole.  The memo keeps a node with no lane node below as its pair,
    equal pairs as one tuple, and a lane node with what it ran, once per
    batch; codes keeps lane code, and may be shared by batches under one
    budget."""

    __slots__ = ("var", "asg", "values", "env", "budget", "shared", "codes",
                 "full", "memo", "masks", "lanes")

    def __init__(self, var: int, asg: dict, values, env: OracleEnv,
                 budget: Budget, shared: bool, codes: Optional[dict] = None):
        self.var, self.asg, self.values = var, asg, values
        self.env, self.budget, self.shared = env, budget, shared
        self.codes = {} if codes is None else codes
        self.full = (1 << len(values)) - 1
        self.memo: dict[Formula, object] = {}  # a pair, or a _Lane
        self.masks: dict[tuple[int, int], tuple[int, int]] = {}
        self.lanes = 0  # lane node reads so far

    def read(self, phi: Formula) -> tuple[int, int]:
        """phi's (TRUE, FALSE) mask pair, a value in neither where the
        nodes compiled code visits exceed the node budget: up to and at
        it where shared, at it alone otherwise."""
        self._root(phi)
        true, false = self.truths(phi, self.full)
        kept = self.kept(phi, 0, len(self.values))
        return true & kept, false & kept

    def blocks(self, phi: Formula) -> Iterator[tuple]:
        """phi read in blocks of 1, 2, 4, ... values, up to the first
        block with a value at which phi is TRUE, each as the block's mask
        and phi's (TRUE, FALSE) masks within it, a value past the node
        budget in neither: for a batch that is not shared."""
        n, lo = len(self.values), 0
        while lo < n:
            hi = min(2 * lo + 1, n)
            self._root(phi)
            true, false = self.truths(phi, (1 << hi) - (1 << lo))
            if type(self.memo.get(phi)) is tuple:  # no lane: all values read
                hi = n
            kept = self.kept(phi, lo, hi)
            true, false = true & kept, false & kept
            yield (1 << hi) - (1 << lo), true, false
            if true:
                return
            lo = hi

    def _root(self, phi: Formula) -> None:
        """Makes phi one lane node where depth may cut a node of it: past
        the depth bound, within which none is."""
        if phi.height > min(self.budget.depth_bound + 2, DEPTH_CAP) \
                and phi not in self.memo:  # an atom's height is 2
            self.memo[phi] = self._lane(phi)

    def truths(self, phi: Formula, need: int) -> tuple[int, int]:
        """phi's (TRUE, FALSE) masks, where lane nodes run only at need,
        the values at which compiled code over the whole formula reaches
        phi: a connective's right side where its left side is not FALSE
        for ∧ and →, not TRUE for ∨, and everywhere for ↔."""
        got = self.memo.get(phi)
        if got is not None:
            return got if type(got) is tuple else self._run(got, need)
        kind, full, lanes = type(phi), self.full, self.lanes
        if kind is Eq or kind is Lt:
            a = self.term(phi.left)
            b = None if a is None else self.term(phi.right)
            op = operator.eq if kind is Eq else operator.lt
            if b is None:
                mask = None
            elif type(a) is int and type(b) is int:
                mask = full if op(a, b) else 0
            elif type(self.values) is range \
                    and (type(a) is int or type(b) is int) \
                    and (a is self.values or b is self.values):
                mask = self._against(kind, a, b)
            else:
                mask = _mask(map(op, _lanes(a), _lanes(b)))
            got = None if mask is None else (mask, full ^ mask)
        elif kind is Not:
            true, false = self.truths(phi.body, need)
            got = false, true
        elif kind in _CONNECTIVES:
            at, af = self.truths(phi.left, need)
            if kind is Implies:  # a → b is ¬a ∨ b
                at, af = af, at
            if kind is And:
                bt, bf = self.truths(phi.right, need & ~af)
                got = at & bt, af | bf
            elif kind is Iff:
                bt, bf = self.truths(phi.right, need)
                got = at & bt | af & bf, at & bf | af & bt
            else:
                bt, bf = self.truths(phi.right, need & ~at)
                got = at | bt, af & bf
        elif (kind is Forall or kind is Exists) \
                and phi.var.index not in phi.body.fv:
            got = self.truths(phi.body, 0)
            got = got if self.lanes == lanes else None
        if got is None:  # a lane node
            got = self.memo[phi] = self._lane(phi)
            return self._run(got, need)
        if self.lanes == lanes:
            got = self.memo[phi] = self.masks.setdefault(got, got)
        return got

    def _lane(self, phi: Formula) -> _Lane:
        """A lane node for phi, with its code from codes."""
        code = self.codes.get(phi)
        if code is None:
            ev = Evaluator(self.env, self.budget)
            code = self.codes[phi] = ev, ev._compile(phi, (), 0)
        return _Lane(code, len(self.values), self.budget.node_budget)

    def _run(self, lane: _Lane, need: int) -> tuple[int, int]:
        """A lane node's masks, read at need: its compiled code's, value
        by value in order until its own nodes there exceed a shared node
        budget, as the whole formula's then do."""
        self.lanes += 1
        if not need & ~lane.ran:
            return lane.true, lane.false
        (ev, code), asg, spent = lane.code, dict(self.asg), 0
        for i in _positions(need):
            if not lane.ran >> i & 1:
                asg[self.var] = self.values[i]
                ev.nodes = 0
                try:
                    got = code(asg)
                except (BudgetExceeded, BigNatError, OracleUndecided):
                    got = _U
                lane.nodes[i] = ev.nodes
                lane.ran |= 1 << i
                lane.true |= (got is _T) << i
                lane.false |= (got is _F) << i
            spent += lane.nodes[i]
            if spent > self.budget.node_budget and self.shared:
                break
        return lane.true, lane.false

    def _against(self, kind, a, b) -> int:
        """x=c, c=x, x<c or c<x, with values range(0, n) and c an int: the
        bit at c, the bits below it, or those above it."""
        k = min(a if type(a) is int else b, len(self.values))
        if kind is Eq:
            return (1 << k) & self.full
        return (1 << k) - 1 if type(b) is int \
            else (self.full >> k + 1) << k + 1

    def counts(self, phi: Formula, need: int, out: dict) -> dict:
        """out, with one more for each node that compiled code over the
        whole formula visits below phi, off what truths(phi, need) read,
        at the values it visits it at: keyed by their mask for a node
        visited once a value (an atom read in bulk, or a vacuous quantifier
        over no lane node, which its tail settles at once), by (lane, mask)
        for a lane node."""
        got, kind = self.memo.get(phi), type(phi)
        if type(got) is _Lane:
            out[got, need] = out.get((got, need), 0) + 1
            return out
        out[need] = out.get(need, 0) + 1
        if kind is Not:
            self.counts(phi.body, need, out)
        elif kind in _CONNECTIVES:
            at, af = self.truths(phi.left, need)
            self.counts(phi.left, need, out)
            self.counts(phi.right, need & ~af if kind is And or kind is Implies
                        else need & ~at if kind is Or else need, out)
        return out

    def kept(self, phi: Formula, lo: int, hi: int) -> int:
        """The values lo..hi-1, as a mask, at which compiled code's nodes
        stay within the node budget: each value's where not shared, else
        their running sum from lo on."""
        need, limit = (1 << hi) - (1 << lo), self.budget.node_budget
        # a value visits at most phi.length nodes: without a lane node
        # below phi, only a budget below that total needs the counts
        if type(self.memo.get(phi)) is tuple and limit >= phi.length * (
                hi - lo if self.shared else 1):
            return need
        total = [0] * (hi - lo)
        for key, k in self.counts(phi, need, {}).items():
            if type(key) is int:
                row = _bits(key >> lo, hi - lo)
            else:
                row = map(operator.mul, _bits(key[1] >> lo, hi - lo),
                          key[0].nodes[lo:hi])
            total = list(map(operator.add, total,
                             row if k == 1 else map(k.__mul__, row)))
        if not self.shared:
            return _mask(map(limit.__ge__, total)) << lo
        return need & (1 << lo + bisect_right(list(accumulate(total)),
                                              limit)) - 1

    def term(self, t: Term):
        """t at every value: an int where var is not in t, else the
        values in order; None unless t is +, · over 0, 1, int numerals and
        variables with int values."""
        kind = type(t)
        if kind is Add or kind is Mul:
            a = self.term(t.left)
            b = None if a is None else self.term(t.right)
            op = operator.add if kind is Add else operator.mul
            if b is None:
                return None
            if type(a) is int and type(b) is int:
                return op(a, b)
            return list(map(op, _lanes(a), _lanes(b)))
        if kind is Var and t.index == self.var:
            return self.values
        value = self.asg.get(t.index) if kind is Var else t.value \
            if kind is Num else {Zero: 0, One: 1}.get(kind)
        return value if type(value) is int else None


@dataclass
class DefinesReport:
    exact: bool
    solutions: list
    note: str = ""
    undecided: Optional[int] = None  # the first swept value left UNKNOWN


def defines(phi: Formula, env: Optional[OracleEnv] = None,
            budget: Optional[Budget] = None) -> DefinesReport:
    """The set of values of x that satisfy a one-free-variable formula.

    The sweep runs to the witness bound and tail analysis decides
    whether anything can hide beyond it.  The report is exact only when
    every swept value is decided.  This is defines_all's one-formula
    case.
    """
    return next(defines_all((phi,), env, budget))


def defines_all(formulas: Iterable[Formula], env: Optional[OracleEnv] = None,
                budget: Optional[Budget] = None) -> Iterator[DefinesReport]:
    """defines(phi, env, budget) for each of formulas, yielded in order
    one at a time: one _definability pass, lane nodes and all."""
    budget = budget or Budget()
    values = range(budget.witness_bound + 1)
    for exact, mask, cofinite, note, undecided in \
            _definability(formulas, env, budget):
        solutions = list(compress(values, _bits(mask, len(values))))
        yield DefinesReport(exact, solutions + ["..."] if cofinite
                            else solutions, note, undecided)


def _definability(formulas: Iterable[Formula], env: Optional[OracleEnv],
                  budget: Budget) -> Iterator[tuple]:
    """For each of formulas in order, defines' reading as (exact, the
    solution mask over 0..witness_bound, cofinite, note, undecided).
    The formulas share one _Batch over the values of x, as _swept reads
    them, and one memo of tail readings, so a subformula common to many
    of them is read once per call, not once per formula."""
    env, limit = env or OracleEnv(), budget.witness_bound + 1
    batch = _Batch(0, {}, range(min(limit - 1, budget.node_budget) + 1),
                   env, budget, True)
    tails: dict = {}
    for phi in formulas:
        if phi.fv - {0}:
            yield False, 0, False, "extra free variables", None
            continue
        true, false = batch.read(phi)
        unknown = ((1 << limit) - 1) & ~(true | false)
        tail = None if unknown or phi.height > DEPTH_CAP \
            else _eventual(phi, {}, env, 0, tails)
        if unknown:  # undecided from the lowest value in neither mask
            yield False, true, False, "a swept value is unknown", \
                (unknown & -unknown).bit_length() - 1
        elif tail is not None and tail[0] <= limit and tail[1] is _F:
            yield True, true, False, "tail is false", None
        elif tail is not None and tail[0] <= limit and tail[1] is _T:
            yield True, true, True, "cofinitely many solutions", None
        else:
            yield False, true, False, "beyond the sweep is unchecked", None


def standard_oracle_env(prf: Optional[Callable[[Nat, Nat], bool]] = None
                        ) -> OracleEnv:
    """The intended reading of the oracle symbols over codes.

    len is digit count, neg wraps a code in negation digitwise,
    Formula recognizes codes of formulas, D(a, y) is the code of the
    sentence saying "the formula coded by a holds of y and nothing
    else".  prf is pluggable; without it proof claims stay undecided.
    Formula and D share one table of decoded codes, so each code is
    parsed once per environment.
    """
    from . import coding
    from .syntax import numeral

    def len_fn(a: Nat) -> Nat:
        if isinstance(a, int) and a <= 0:
            return 1
        return coding.code_length(a)

    def neg_fn(a: Nat) -> Nat:
        if isinstance(a, int) and a <= 0:
            return 0
        return coding.neg_code(a)

    decoded: dict[int, object] = {}  # code -> node, or None for no code

    def decode(a: Nat):
        if isinstance(a, BigNat):
            if not a.is_materializable():
                raise OracleUndecided("code too large to inspect")
            a = a.to_int()
        if a not in decoded:
            try:
                decoded[a] = coding.decode(a)
            except coding.NotACode:
                decoded[a] = None
        return decoded[a]

    def formula_fn(a: Nat) -> bool:
        return isinstance(decode(a), Formula)

    def d_fn(a: Nat, y: Nat) -> Nat:
        phi = decode(a)
        if not isinstance(phi, Formula):
            return 0
        fv = phi.fv
        if len(fv) != 1:
            return 0
        (index,) = fv
        sentence = Forall(Var(index), Iff(phi, Eq(Var(index), numeral(y))))
        code = coding.encode(sentence)
        return code

    env = OracleEnv(
        funs={"len": len_fn, "neg": neg_fn, "D": d_fn},
        atoms={"Formula": formula_fn},
    )
    if prf is not None:
        env.atoms["prf"] = prf
    return env
