"""Terms and formulas of arithmetic, plus a few oracle symbols.

The language has constants 0 and 1, binary + and ·, equality and order,
the usual connectives and quantifiers, and a fixed set of oracle symbols
(relation symbols like ``prf`` and function symbols like ``len``) that
later layers give meaning to.

The canonical spelling is deliberately rigid so that token counts can be
computed without building strings: every binary operator keeps its left
operand bare and wraps its right operand in parentheses, negation and
quantifiers wrap their body in parentheses, and the i-th variable is
written ``x`` followed by i prime marks.  Under this convention each
symbol is one token, a variable of index i is i+1 tokens, and the
numeral for n (``1+(1+(...))``) is exactly 4n-3 tokens for n >= 1.

Numerals above a small size are held as lazy ``Num`` nodes that know
their value instead of an actual chain of additions; the token stream,
token count and digit code of a ``Num`` are produced arithmetically, so
the node behaves exactly like the chain it abbreviates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .bignat import BigNat, BigNatError

# Explicit 1+(1+(...)) chains are built only up to this value; larger
# numerals become lazy Num nodes so trees stay shallow.
NUMERAL_EXPLICIT_MAX = 256
# Largest numeral the token stream will spell out in full.
NUMERAL_STREAM_MAX = 2_000_000

Nat = Union[int, BigNat]


class SyntaxError_(ValueError):
    """Raised for malformed terms or formulas."""


# -- the oracle signature -----------------------------------------------
# Relation and function symbols beyond arithmetic, with their arities.
# Tr and inst are read only over micro catalogues and have no digit in
# the coding, so a formula that uses them has no code.

ORACLE_ATOMS: dict[str, int] = {"prf": 2, "Formula": 1, "Tr": 1}
ORACLE_FUNS: dict[str, int] = {"len": 1, "D": 2, "neg": 1, "inst": 3}


# -- terms -------------------------------------------------------------


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise SyntaxError_("variable index must be nonnegative")


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Num(Term):
    """The numeral 1+(1+(...)) for a value too large to spell out."""

    value: Nat

    def __post_init__(self):
        v = self.value
        if isinstance(v, int):
            if v < 1:
                raise SyntaxError_("Num stands for the numeral of n >= 1")
        elif isinstance(v, BigNat):
            if v < 1:
                raise SyntaxError_("Num stands for the numeral of n >= 1")
        else:
            raise SyntaxError_(f"Num value must be int or BigNat, got {v!r}")


@dataclass(frozen=True)
class OracleFun(Term):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        arity = ORACLE_FUNS.get(self.name)
        if arity is None:
            raise SyntaxError_(f"unknown oracle function {self.name!r}")
        if len(self.args) != arity:
            raise SyntaxError_(
                f"{self.name} expects {arity} arguments, got {len(self.args)}"
            )


# -- formulas ----------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class OracleAtom(Formula):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        arity = ORACLE_ATOMS.get(self.name)
        if arity is None:
            raise SyntaxError_(f"unknown oracle relation {self.name!r}")
        if len(self.args) != arity:
            raise SyntaxError_(
                f"{self.name} expects {arity} arguments, got {len(self.args)}"
            )


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


_BINARY_TERMS = (Add, Mul)
_COMPARISONS = (Eq, Lt)
_BINARY_FORMULAS = (And, Or, Implies, Iff)
_QUANTIFIERS = (Forall, Exists)

_CONNECTIVE_TOKEN = {And: "∧", Or: "∨", Implies: "→", Iff: "↔"}
_TERM_OP_TOKEN = {Add: "+", Mul: "·"}
_QUANTIFIER_TOKEN = {Forall: "∀", Exists: "∃"}


# -- construction helpers ----------------------------------------------


def numeral(n: Nat) -> Term:
    """The canonical term with value n: 0, 1, or 1+(1+(...))."""
    if isinstance(n, BigNat):
        if n.digits24 <= 8:
            n = n.to_int()
        else:
            return Num(n)
    if n < 0:
        raise SyntaxError_("no numerals for negative values")
    if n == 0:
        return Zero()
    if n > NUMERAL_EXPLICIT_MAX:
        return Num(n)
    t: Term = One()
    for _ in range(n - 1):
        t = Add(One(), t)
    return t


def conj(*parts: Formula) -> Formula:
    """Left-fold conjunction of one or more formulas."""
    if not parts:
        raise SyntaxError_("conj needs at least one formula")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(*parts: Formula) -> Formula:
    """Left-fold disjunction of one or more formulas."""
    if not parts:
        raise SyntaxError_("disj needs at least one formula")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# -- traversals ---------------------------------------------------------


def _children(node) -> tuple:
    if isinstance(node, _BINARY_TERMS + _COMPARISONS + _BINARY_FORMULAS):
        return (node.left, node.right)
    if isinstance(node, Not):
        return (node.body,)
    if isinstance(node, _QUANTIFIERS):
        return (node.body,)
    if isinstance(node, (OracleFun, OracleAtom)):
        return node.args
    return ()


def length(x) -> Nat:
    """Token count of the canonical spelling, computed arithmetically."""
    total: Nat = 0
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, (Zero, One)):
            total = total + 1
        elif isinstance(node, Var):
            total = total + node.index + 1
        elif isinstance(node, Num):
            v = node.value
            if isinstance(v, int):
                total = total + (4 * v - 3)
            else:
                total = (v * 4).sub(3) + total
        elif isinstance(node, _BINARY_TERMS + _BINARY_FORMULAS):
            total = total + 3
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, _COMPARISONS):
            total = total + 1
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Not):
            total = total + 3
            stack.append(node.body)
        elif isinstance(node, _QUANTIFIERS):
            total = total + node.var.index + 4
            stack.append(node.body)
        elif isinstance(node, (OracleFun, OracleAtom)):
            total = total + len(node.args) + 2
            stack.extend(node.args)
        else:
            raise SyntaxError_(f"not a term or formula: {node!r}")
    return total


def free_vars(x) -> frozenset[int]:
    out: set[int] = set()
    stack: list[tuple] = [(x, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Var):
            if node.index not in bound:
                out.add(node.index)
        elif isinstance(node, _QUANTIFIERS):
            stack.append((node.body, bound | {node.var.index}))
        else:
            for child in _children(node):
                stack.append((child, bound))
    return frozenset(out)


def is_sentence(phi: Formula) -> bool:
    return isinstance(phi, Formula) and not free_vars(phi)


# -- token stream and rendering -----------------------------------------


def token_pieces(x) -> Iterator:
    """Canonical token stream with lazy numerals left as Num nodes.

    Yields token strings, except that each Num node comes through
    as itself so that consumers can handle its spelling
    arithmetically instead of expanding it.
    """
    stack: list = [x]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        node = item
        if isinstance(node, Zero):
            yield "0"
        elif isinstance(node, One):
            yield "1"
        elif isinstance(node, Var):
            yield "x"
            for _ in range(node.index):
                yield "′"
        elif isinstance(node, Num):
            yield node
        elif isinstance(node, _BINARY_TERMS):
            op = _TERM_OP_TOKEN[type(node)]
            stack.extend([")", node.right, "(", op, node.left])
        elif isinstance(node, _COMPARISONS):
            op = "=" if isinstance(node, Eq) else "<"
            stack.extend([node.right, op, node.left])
        elif isinstance(node, Not):
            stack.extend([")", node.body, "("])
            yield "¬"
        elif isinstance(node, _BINARY_FORMULAS):
            op = _CONNECTIVE_TOKEN[type(node)]
            stack.extend([")", node.right, "(", op, node.left])
        elif isinstance(node, _QUANTIFIERS):
            stack.extend([")", node.body, "(", node.var])
            yield _QUANTIFIER_TOKEN[type(node)]
        elif isinstance(node, (OracleFun, OracleAtom)):
            yield node.name
            parts: list = ["("]
            for i, arg in enumerate(node.args):
                if i:
                    parts.append(",")
                parts.append(arg)
            parts.append(")")
            stack.extend(reversed(parts))
        else:
            raise SyntaxError_(f"not a term or formula: {node!r}")


def tokens(x, compact: bool = False) -> Iterator[str]:
    """Canonical token stream.

    With compact=True, lazy numerals come out as a single '#<value>'
    token instead of being spelled out; without it they are expanded,
    which fails for values past NUMERAL_STREAM_MAX.
    """
    for piece in token_pieces(x):
        if isinstance(piece, str):
            yield piece
            continue
        v = piece.value
        if compact:
            if isinstance(v, BigNat):
                if not v.is_materializable():
                    raise BigNatError(
                        "numeral value too large even for compact form"
                    )
                v = v.to_int()
            yield "#" + str(v)
            continue
        if isinstance(v, BigNat):
            if v > NUMERAL_STREAM_MAX:
                raise BigNatError("numeral too large to spell out")
            v = v.to_int()
        if v > NUMERAL_STREAM_MAX:
            raise BigNatError("numeral too large to spell out")
        for _ in range(v - 1):
            yield "1"
            yield "+"
            yield "("
        yield "1"
        for _ in range(v - 1):
            yield ")"


def render(x, compact: bool = False) -> str:
    """Canonical spelling as a single string."""
    return "".join(tokens(x, compact=compact))


# -- substitution --------------------------------------------------------


def fresh_index(avoid: frozenset[int] | set[int]) -> int:
    i = 0
    while i in avoid:
        i += 1
    return i


def substitute(x, index: int, replacement: Term):
    """Replace free occurrences of the variable with a term.

    Bound variables that would capture a free variable of the
    replacement are renamed to the smallest safe index first.
    """
    if not isinstance(replacement, Term):
        raise SyntaxError_("replacement must be a term")
    repl_free = free_vars(replacement)

    def go(node):
        if isinstance(node, Var):
            return replacement if node.index == index else node
        if isinstance(node, (Zero, One, Num)):
            return node
        if isinstance(node, _QUANTIFIERS):
            ctor = type(node)
            if node.var.index == index:
                return node
            if index not in free_vars(node.body):
                return node
            if node.var.index in repl_free:
                avoid = free_vars(node.body) | repl_free | {index}
                fresh = Var(fresh_index(avoid))
                renamed = go_rename(node.body, node.var.index, fresh)
                return ctor(fresh, go(renamed))
            return ctor(node.var, go(node.body))
        if isinstance(node, _BINARY_TERMS + _COMPARISONS + _BINARY_FORMULAS):
            return type(node)(go(node.left), go(node.right))
        if isinstance(node, Not):
            return Not(go(node.body))
        if isinstance(node, (OracleFun, OracleAtom)):
            return type(node)(node.name, tuple(go(a) for a in node.args))
        raise SyntaxError_(f"not a term or formula: {node!r}")

    def go_rename(node, old: int, new_var: Var):
        return substitute(node, old, new_var)

    return go(x)
