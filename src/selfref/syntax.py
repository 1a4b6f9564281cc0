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

Nodes are immutable and carry facts that never change: the free-variable
set and the tree size are computed once, at construction, from the
children's; the structural hash is computed on the first ``hash()``.
Hashing, equality and substitution use explicit stacks, so nesting depth
is limited by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

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


# -- nodes ---------------------------------------------------------------

# Equal free-variable sets are one shared frozenset object.  The table
# holds one entry per distinct set ever built; formulas use few variables.
_FV_SETS: dict[frozenset[int], frozenset[int]] = {}


def _shared(fv: frozenset[int]) -> frozenset[int]:
    return _FV_SETS.setdefault(fv, fv)


_NO_VARS = _shared(frozenset())


def _union(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    if b <= a:
        return a
    if a <= b:
        return b
    return _shared(a | b)


class _Node:
    """An immutable syntax node.

    ``fv`` is the set of free variable indices and ``size`` the number
    of nodes in the tree (a quantifier's variable is not counted, so it
    never exceeds the token length); both are set at construction.
    ``_hash`` stays unset until the first ``hash()``.
    """

    __slots__ = ("fv", "size", "_hash")
    # field names in constructor order, read by repr and by pattern matching
    _fields: tuple[str, ...] = ()
    # fixed per class (assigned below), so hashes and therefore set and
    # dict orders are the same in every run
    _TAG: int

    def _parts(self) -> tuple:
        """Scalars and child nodes that make up the node's identity."""
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _hash_tree(self)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        return _same_tree(self, other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


# Slot writers for construction; ordinary assignment is refused.
_set_fv = _Node.fv.__set__
_set_size = _Node.size.__set__
_set_hash = _Node._hash.__set__


def _hash_tree(root: _Node) -> int:
    """Hash every not yet hashed node under root, children first."""
    stack = [root]
    while stack:
        node = stack[-1]
        try:
            h = hash((node._TAG, *[p._hash if isinstance(p, _Node) else p
                                   for p in node._parts()]))
        except AttributeError:  # some child is not hashed yet
            todo = [c for c in _children(node) if not hasattr(c, "_hash")]
            if not todo:
                raise
            stack.extend(todo)
            continue
        _set_hash(node, h)
        stack.pop()
    return root._hash


def _same_tree(a: _Node, b: _Node) -> bool:
    """Structural equality: type, size and any cached hashes first."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a.size != b.size:
            return False
        ha = getattr(a, "_hash", None)
        hb = getattr(b, "_hash", None)
        if ha is not None and hb is not None and ha != hb:
            return False
        for p, q in zip(a._parts(), b._parts()):
            if isinstance(p, _Node):
                stack.append((p, q))
            elif p != q:
                return False
    return True


# -- terms -------------------------------------------------------------


class Term(_Node):
    __slots__ = ()


class _Constant(Term):
    __slots__ = ()

    def __init__(self):
        _set_fv(self, _NO_VARS)
        _set_size(self, 1)


class Zero(_Constant):
    __slots__ = ()


class One(_Constant):
    __slots__ = ()


class Var(Term):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise SyntaxError_("variable index must be nonnegative")
        _set_index(self, index)
        _set_fv(self, _shared(frozenset((index,))))
        _set_size(self, 1)

    def _parts(self) -> tuple:
        return (self.index,)


_set_index = Var.index.__set__


class Num(Term):
    """The numeral 1+(1+(...)) for a value too large to spell out."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Nat):
        if isinstance(value, (int, BigNat)):
            if value < 1:
                raise SyntaxError_("Num stands for the numeral of n >= 1")
        else:
            raise SyntaxError_(
                f"Num value must be int or BigNat, got {value!r}")
        _set_value(self, value)
        _set_fv(self, _NO_VARS)
        _set_size(self, 1)

    def _parts(self) -> tuple:
        return (self.value,)


_set_value = Num.value.__set__


class _Binary(_Node):
    """Two operands: the term operators, comparisons and connectives."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)
        _set_fv(self, _union(left.fv, right.fv))
        _set_size(self, 1 + left.size + right.size)

    def _parts(self) -> tuple:
        return (self.left, self.right)


_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


class _Oracle(_Node):
    """An oracle symbol applied to argument terms."""

    __slots__ = _fields = ("name", "args")
    _ARITIES: dict[str, int]
    _KIND: str

    def __init__(self, name: str, args):
        args = tuple(args)
        arity = self._ARITIES.get(name)
        if arity is None:
            raise SyntaxError_(f"unknown oracle {self._KIND} {name!r}")
        if len(args) != arity:
            raise SyntaxError_(
                f"{name} expects {arity} arguments, got {len(args)}")
        _set_name(self, name)
        _set_args(self, args)
        fv = _NO_VARS
        for a in args:
            fv = _union(fv, a.fv)
        _set_fv(self, fv)
        _set_size(self, 1 + sum(a.size for a in args))

    def _parts(self) -> tuple:
        return (self.name, *self.args)


_set_name = _Oracle.name.__set__
_set_args = _Oracle.args.__set__


class Add(_Binary, Term):
    __slots__ = ()


class Mul(_Binary, Term):
    __slots__ = ()


class OracleFun(_Oracle, Term):
    __slots__ = ()
    _ARITIES = ORACLE_FUNS
    _KIND = "function"


# -- formulas ----------------------------------------------------------


class Formula(_Node):
    __slots__ = ()


class Eq(_Binary, Formula):
    __slots__ = ()


class Lt(_Binary, Formula):
    __slots__ = ()


class OracleAtom(_Oracle, Formula):
    __slots__ = ()
    _ARITIES = ORACLE_ATOMS
    _KIND = "relation"


class Not(Formula):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        _set_not_body(self, body)
        _set_fv(self, body.fv)
        _set_size(self, 1 + body.size)

    def _parts(self) -> tuple:
        return (self.body,)


_set_not_body = Not.body.__set__


class And(_Binary, Formula):
    __slots__ = ()


class Or(_Binary, Formula):
    __slots__ = ()


class Implies(_Binary, Formula):
    __slots__ = ()


class Iff(_Binary, Formula):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: Var, body: Formula):
        _set_var(self, var)
        _set_quantifier_body(self, body)
        fv = body.fv
        if var.index in fv:
            fv = _shared(fv - {var.index})
        _set_fv(self, fv)
        _set_size(self, 1 + body.size)

    def _parts(self) -> tuple:
        return (self.var.index, self.body)


_set_var = _Quantifier.var.__set__
_set_quantifier_body = _Quantifier.body.__set__


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


for _tag, _cls in enumerate((Zero, One, Var, Num, Add, Mul, OracleFun, Eq, Lt,
                             OracleAtom, Not, And, Or, Implies, Iff, Forall,
                             Exists)):
    _cls._TAG = _tag


_COMPARISONS = (Eq, Lt)

_BINARY_TOKEN = {Add: "+", Mul: "·", Eq: "=", Lt: "<", And: "∧", Or: "∨",
                 Implies: "→", Iff: "↔"}
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
    """Subterms and subformulas; a quantifier's variable is not one."""
    return tuple(p for p in node._parts() if isinstance(p, _Node))


def length(x) -> Nat:
    """Token count of the canonical spelling, computed arithmetically."""
    total: Nat = 0
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, _Constant):
            total = total + 1
        elif isinstance(node, Var):
            total = total + node.index + 1
        elif isinstance(node, Num):
            v = node.value
            if isinstance(v, int):
                total = total + (4 * v - 3)
            else:
                total = (v * 4).sub(3) + total
        elif isinstance(node, _Binary):
            total = total + (1 if isinstance(node, _COMPARISONS) else 3)
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Not):
            total = total + 3
            stack.append(node.body)
        elif isinstance(node, _Quantifier):
            total = total + node.var.index + 4
            stack.append(node.body)
        elif isinstance(node, _Oracle):
            total = total + len(node.args) + 2
            stack.extend(node.args)
        else:
            raise SyntaxError_(f"not a term or formula: {node!r}")
    return total


def free_vars(x) -> frozenset[int]:
    """The free variable indices, read from the node."""
    return x.fv


def is_sentence(phi: Formula) -> bool:
    return isinstance(phi, Formula) and not phi.fv


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
        elif isinstance(node, _COMPARISONS):
            stack.extend([node.right, _BINARY_TOKEN[type(node)], node.left])
        elif isinstance(node, _Binary):
            stack.extend([")", node.right, "(", _BINARY_TOKEN[type(node)],
                          node.left])
        elif isinstance(node, Not):
            stack.extend([")", node.body, "("])
            yield "¬"
        elif isinstance(node, _Quantifier):
            stack.extend([")", node.body, "(", node.var])
            yield _QUANTIFIER_TOKEN[type(node)]
        elif isinstance(node, _Oracle):
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
    replacement are renamed to the smallest safe index first.  Subtrees
    in which the variable is not free are returned as they are.
    """
    if not isinstance(replacement, Term):
        raise SyntaxError_("replacement must be a term")
    if not isinstance(x, _Node):
        raise SyntaxError_(f"not a term or formula: {x!r}")
    # Work items are (node, index, replacement), rewritten onto `done`,
    # or a continuation that builds from the results on top of `done`:
    # (_BUILD, node, var) rebuilds node (with var, for a quantifier) from
    # its rewritten children; (_RENAMED, node, fresh, index, replacement)
    # takes the body renamed to fresh and substitutes into it.
    done: list = []
    work: list[tuple] = [(x, index, replacement)]
    while work:
        item = work.pop()
        if item[0] is _BUILD:
            _, node, var = item
            n = len(_children(node))
            new = done[len(done) - n:]
            del done[len(done) - n:]
            if isinstance(node, _Quantifier):
                done.append(type(node)(var, new[0]))
            elif isinstance(node, _Oracle):
                done.append(type(node)(node.name, new))
            else:
                done.append(type(node)(*new))
        elif item[0] is _RENAMED:
            _, node, fresh, i, repl = item
            work.append((_BUILD, node, fresh))
            work.append((done.pop(), i, repl))
        else:
            node, i, repl = item
            if i not in node.fv:
                done.append(node)
            elif isinstance(node, Var):
                done.append(repl)
            elif isinstance(node, _Quantifier) and node.var.index in repl.fv:
                fresh = Var(fresh_index(node.body.fv | repl.fv | {i}))
                work.append((_RENAMED, node, fresh, i, repl))
                work.append((node.body, node.var.index, fresh))
            else:
                work.append((_BUILD, node, getattr(node, "var", None)))
                work.extend((kid, i, repl)
                            for kid in reversed(_children(node)))
    return done[0]


# continuation markers for substitute's work list
_BUILD = object()
_RENAMED = object()
