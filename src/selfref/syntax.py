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
set, the token length, the height and the structural hash are computed
once, at construction, from the children's.  The token length is a
``BigNat`` at and above a ``Num`` over a ``BigNat``.  Each variable and
explicit numeral is one shared node.  Long nodes also keep their
code and compact spelling once asked for, joined from their children's
(``cached_fact``).  Equality, substitution, ``repr`` and those joins use
explicit stacks, so nesting depth is limited by memory, not by the
interpreter's recursion limit.  ``preorder`` is the one walk that
``repr``, those joins and the other modules' subtree walks share.
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

    ``fv`` is the set of free variable indices, ``length`` the token count
    of the canonical spelling and ``height`` the number of nodes on its
    longest root-to-leaf path (a quantifier's variable is not counted);
    all are set at construction.
    ``_hash`` is ``hash((_TAG, *parts))`` with each child node standing in
    by its own ``_hash``, also set at construction.
    ``_facts`` is left unset until a node that holds facts (see
    ``_holds_facts``) is first encoded or compactly rendered; it then
    holds ``[code, compact spelling]``, each ``None`` until asked for.
    """

    __slots__ = ("fv", "length", "height", "_hash", "_facts")
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
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        return _same_tree(self, other)

    def __repr__(self) -> str:
        return "".join([p for p in preorder(self, _repr_parts)
                        if isinstance(p, str)])


def _repr_parts(item) -> list:
    """A node's repr as strings and child nodes, last first."""
    if not isinstance(item, _Node):
        return []
    parts: list = [f"{type(item).__name__}("]
    for i, name in enumerate(item._fields):
        value = getattr(item, name)
        parts.append(f"{', ' if i else ''}{name}=")
        if isinstance(value, tuple):  # oracle arguments
            for j, v in enumerate(value):
                parts.append(", " if j else "(")
                parts.append(v if isinstance(v, _Node) else repr(v))
            parts.append(",)" if len(value) == 1 else ")")
        else:
            parts.append(value if isinstance(value, _Node) else repr(value))
    parts.append(")")
    return parts[::-1]


# Slot writers for construction; ordinary assignment is refused.
_set_fv = _Node.fv.__set__
_set_length = _Node.length.__set__
_set_height = _Node.height.__set__
_set_hash = _Node._hash.__set__
_set_facts = _Node._facts.__set__


def _set_leaf(node: _Node, fv: frozenset[int], n: Nat, h: int) -> None:
    _set_fv(node, fv)
    _set_length(node, n)
    _set_height(node, 1)
    _set_hash(node, h)


def _same_tree(a: _Node, b: _Node) -> bool:
    """Structural equality: type, hash and token length first."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._hash != b._hash \
                or a.length != b.length:
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
    """0 or 1: one shared node per class, built below."""

    __slots__ = ()
    _SHARED: _Constant

    def __new__(cls):
        return cls._SHARED


class Zero(_Constant):
    __slots__ = ()


class One(_Constant):
    __slots__ = ()


class Var(Term):
    """The variable of an index: one shared node per index."""

    __slots__ = _fields = ("index",)

    def __new__(cls, index: int):
        node = _VARS.get(index)
        if node is None:
            if index < 0:
                raise SyntaxError_("variable index must be nonnegative")
            node = _VARS[index] = object.__new__(cls)
            _set_index(node, index)
            _set_leaf(node, _shared(frozenset((index,))), index + 1,
                      hash((cls._TAG, index)))
        return node

    def _parts(self) -> tuple:
        return (self.index,)


_set_index = Var.index.__set__
# one entry per variable index ever built; formulas use few variables
_VARS: dict[int, Var] = {}


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
        # value - 1 times 1+( and ), around one 1
        _set_leaf(self, _NO_VARS, 4 * value - 3 if isinstance(value, int)
                  else (value * 4).sub(3), hash((self._TAG, value)))

    def _parts(self) -> tuple:
        return (self.value,)


_set_value = Num.value.__set__


class _Binary(_Node):
    """Two operands: the term operators, comparisons and connectives."""

    __slots__ = _fields = ("left", "right")
    # the operator and the parentheses around the right operand
    _TOKENS = 3

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)
        _set_fv(self, _union(left.fv, right.fv))
        _set_length(self, self._TOKENS + left.length + right.length)
        lh, rh = left.height, right.height
        _set_height(self, 1 + (lh if lh > rh else rh))
        _set_hash(self, hash((self._TAG, left._hash, right._hash)))

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
        # the name, the parentheses and a comma between arguments
        _set_length(self, sum((a.length for a in args), len(args) + 2))
        _set_height(self, 1 + max(a.height for a in args))
        _set_hash(self, hash((self._TAG, name, *[a._hash for a in args])))

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
    _TOKENS = 1


class Lt(_Binary, Formula):
    __slots__ = ()
    _TOKENS = 1


class OracleAtom(_Oracle, Formula):
    __slots__ = ()
    _ARITIES = ORACLE_ATOMS
    _KIND = "relation"


class Not(Formula):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        _set_not_body(self, body)
        _set_fv(self, body.fv)
        _set_length(self, 3 + body.length)  # ¬( … )
        _set_height(self, 1 + body.height)
        _set_hash(self, hash((self._TAG, body._hash)))

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
        _set_length(self, 3 + var.length + body.length)  # ∀x( … )
        _set_height(self, 1 + body.height)
        _set_hash(self, hash((self._TAG, var.index, body._hash)))

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

for _cls in (Zero, One):
    _cls._SHARED = object.__new__(_cls)
    _set_leaf(_cls._SHARED, _NO_VARS, 1, hash((_cls._TAG,)))

_COMPARISONS = (Eq, Lt)

_BINARY_TOKEN = {Add: "+", Mul: "·", Eq: "=", Lt: "<", And: "∧", Or: "∨",
                 Implies: "→", Iff: "↔"}
_QUANTIFIER_TOKEN = {Forall: "∀", Exists: "∃"}


# -- construction helpers ----------------------------------------------


def numeral(n: Nat) -> Term:
    """The canonical term with value n: 0, 1, or 1+(1+(...)).  Up to
    NUMERAL_EXPLICIT_MAX it is the one shared node of a table built at
    import, whose entry n is Add(One(), entry n-1); above, a Num."""
    if isinstance(n, BigNat):
        if n.digits24 <= 8:
            n = n.to_int()
        else:
            return Num(n)
    if n < 0:
        raise SyntaxError_("no numerals for negative values")
    if n > NUMERAL_EXPLICIT_MAX:
        return Num(n)
    return _NUMERALS[n]


_NUMERALS: list[Term] = [Zero(), One()]
for _ in range(NUMERAL_EXPLICIT_MAX - 1):
    _NUMERALS.append(Add(One(), _NUMERALS[-1]))


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


def preorder(x, children=_children) -> Iterator:
    """x and every item below it, each before the items children gives
    for it.  The walk keeps an explicit stack and pops the last child
    first, so ``reversed(list(preorder(x)))`` is a postorder, and the
    first child comes out after everything below the others."""
    stack = [x]
    while stack:
        item = stack.pop()
        yield item
        stack.extend(children(item))


def _rebuild(node, done: list, var) -> None:
    """Pop the results for node's children off done and push a node of
    node's kind over them; var is a quantifier's variable."""
    n = len(_children(node))
    kids = done[len(done) - n:]
    del done[len(done) - n:]
    if isinstance(node, _Quantifier):
        done.append(type(node)(var, kids[0]))
    elif isinstance(node, _Oracle):
        done.append(type(node)(node.name, kids))
    else:
        done.append(type(node)(*kids))


def length(x) -> Nat:
    """Token count of the canonical spelling, read from the node."""
    if not isinstance(x, _Node):
        raise SyntaxError_(f"not a term or formula: {x!r}")
    return x.length


def free_vars(x) -> frozenset[int]:
    """The free variable indices, read from the node."""
    return x.fv


def is_sentence(phi: Formula) -> bool:
    return isinstance(phi, Formula) and not phi.fv


# -- token stream and rendering -----------------------------------------

# Nodes shorter than this never cache their code or spelling.
_FACT_FLOOR = 256
# indices into a node's _facts
CODE_FACT, TEXT_FACT = 0, 1


def _holds_facts(node) -> bool:
    """Whether the node keeps its code and compact spelling once asked.

    It does when its token length is at least the floor and has more bits
    than each child's.  The lengths of such nodes on a root-to-leaf path
    have distinct bit counts, so a token lies under at most
    log2(length / floor) + 1 of them, and the cached digits and
    characters stay within that factor of the tree's token count (and
    within twice it on a chain such as a ¬ tower).
    """
    n = node.length
    if type(n) is not int or n < _FACT_FLOOR:
        return False
    bits = n.bit_length()
    return all(c.length.bit_length() < bits for c in _children(node))


def token_pieces(x, facts: list | None = None) -> Iterator:
    """Canonical token stream with lazy numerals left as Num nodes.

    Yields token strings, except that each Num node comes through
    as itself so that consumers can handle its spelling
    arithmetically instead of expanding it.  Given a list for facts,
    so does every node below x that holds facts, and each node that
    comes through is also appended to that list.
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
        elif isinstance(node, Num) or (
                facts is not None and node.length >= _FACT_FLOOR
                and node is not x and _holds_facts(node)):
            if facts is not None:
                facts.append(node)
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


def _known(node, k: int):
    facts = getattr(node, "_facts", None)
    return None if facts is None else facts[k]


def cached_fact(x, k: int, join):
    """Fact k of x: join over x's token pieces, with facts listed.

    Each node among the pieces has fact k filled first, and a node that
    holds facts keeps it.
    """
    if not isinstance(x, _Node):
        raise SyntaxError_(f"not a term or formula: {x!r}")
    n = x.length
    if type(n) is int and n < _FACT_FLOOR:  # nothing here holds facts
        return join(list(token_pieces(x)))
    value = _known(x, k)
    if value is not None:
        return value

    # a node's (node, pieces) pair is listed before the nodes among its
    # pieces, so it comes out after they have filled their facts
    def unfilled(item) -> list:
        if type(item) is tuple or _known(item, k) is not None:
            return []
        found: list = []
        pieces = list(token_pieces(item, found))
        return [(item, pieces), *[p for p in found if not isinstance(p, Num)]]

    for item in preorder(x, unfilled):
        if type(item) is tuple:
            node, pieces = item
            value = join(pieces)
            if node is not x or _holds_facts(node):
                facts = getattr(node, "_facts", None)
                if facts is None:
                    facts = [None, None]
                    _set_facts(node, facts)
                facts[k] = value
    return value


def _numeral_text(node: Num) -> str:
    v = node.value
    if isinstance(v, BigNat):
        if not v.is_materializable():
            raise BigNatError("numeral value too large even for compact form")
        v = v.to_int()
    return "#" + str(v)


def _join_text(pieces: list) -> str:
    try:
        return "".join(pieces)
    except TypeError:  # numerals or nodes among the pieces
        return "".join([
            p if isinstance(p, str)
            else _numeral_text(p) if isinstance(p, Num)
            else cached_fact(p, TEXT_FACT, _join_text)
            for p in pieces])


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
        if compact:
            yield _numeral_text(piece)
            continue
        v = piece.value
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
    """Canonical spelling as a single string; the compact one is a fact."""
    if compact:
        return cached_fact(x, TEXT_FACT, _join_text)
    return "".join(tokens(x))


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
            _rebuild(item[1], done, item[2])
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
