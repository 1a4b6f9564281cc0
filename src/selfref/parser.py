"""Parser for the canonical formula spelling.

Accepts the exact output of ``syntax.render`` plus a few input
conveniences: ASCII aliases (~ & | -> <-> ' * A E), square brackets as
alternative parentheses, ``#123`` for the numeral of 123, and
whitespace anywhere between tokens.  None of the aliases are ever
produced on output, so render-then-parse is the identity on
canonically built trees.
"""

from __future__ import annotations

from . import syntax
from .syntax import (
    Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt, Mul, Not,
    OracleAtom, OracleFun, Or, Term, Var, numeral,
)

_SINGLE = {
    "0": "0", "1": "1", "+": "+", "·": "·", "*": "·", "=": "=", "≠": "≠",
    "¬": "¬", "~": "¬", "∧": "∧", "&": "∧", "∨": "∨", "|": "∨",
    "→": "→", "↔": "↔", "∀": "∀", "∃": "∃",
    "(": "(", ")": ")", "[": "(", "]": ")", ",": ",",
    "′": "′", "'": "′",
}

_ZERO, _ONE = syntax.Zero(), syntax.One()
_CONNECTIVES = {"∧": And, "∨": Or, "→": Implies, "↔": Iff}
_TERM_OPS = {"+": Add, "·": Mul}
# oracle names, longest first so a letter run is cut by longest match
_NAMES = sorted({*syntax.ORACLE_ATOMS, *syntax.ORACLE_FUNS},
                key=len, reverse=True)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _split_letters(run: str, pos: int) -> list[tuple[str, int]]:
    """Cut a letter run into names, variables and quantifier aliases."""
    out = []
    i = 0
    while i < len(run):
        for name in _NAMES:
            if run.startswith(name, i):
                out.append((name, pos + i))
                i += len(name)
                break
        else:
            ch = run[i]
            if ch == "x":
                out.append(("x", pos + i))
            elif ch == "A":
                out.append(("∀", pos + i))
            elif ch == "E":
                out.append(("∃", pos + i))
            else:
                raise ParseError(f"unknown symbol {run!r}", pos + i)
            i += 1
    return out


def _tokenize(text: str) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        # no multi-character token starts with a character of _SINGLE
        tok = _SINGLE.get(ch)
        if tok is not None:
            out.append((tok, i))
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            out.append(("↔", i))
            i += 3
            continue
        if text.startswith("->", i):
            out.append(("→", i))
            i += 2
            continue
        if ch == "<":
            out.append(("<", i))
            i += 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after '#'", i)
            out.append(("#" + text[i + 1 : j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.extend(_split_letters(text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


class _Parser:
    def __init__(self, toks: list[tuple[str, int]], text_len: int):
        self.toks = toks
        self.pos = 0
        self.text_len = text_len

    def peek(self) -> str | None:
        if self.pos < len(self.toks):
            return self.toks[self.pos][0]
        return None

    def here(self) -> int:
        if self.pos < len(self.toks):
            return self.toks[self.pos][1]
        return self.text_len

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.here())
        self.pos += 1

    # -- terms ---------------------------------------------------------

    def variable(self) -> Var:
        self.expect("x")
        index = 0
        while self.peek() == "′":
            self.pos += 1
            index += 1
        return Var(index)

    def factor(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", self.here())
        if tok == "0":
            self.pos += 1
            return _ZERO
        if tok == "1":
            self.pos += 1
            return _ONE
        if tok == "x":
            return self.variable()
        if tok.startswith("#"):
            self.pos += 1
            return numeral(int(tok[1:]))
        if tok in syntax.ORACLE_FUNS:
            self.pos += 1
            self.expect("(")
            args = [self.term()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
            return OracleFun(tok, tuple(args))
        raise ParseError(f"expected a term, got {tok!r}", self.here())

    def term(self) -> Term:
        left = self.factor()
        value = _numval(left)
        pending: list[tuple[Term, type]] = []
        while True:
            tok = self.peek()
            if tok in _TERM_OPS and self._lookahead_open():
                ctor = _TERM_OPS[tok]
                self.pos += 2
                pending.append((left, ctor))
                left = self.factor()
                value = _numval(left)
                continue
            if tok == ")" and pending:
                self.pos += 1
                outer, ctor = pending.pop()
                left = ctor(outer, left)
                if ctor is Add and outer is _ONE and value is not None:
                    value += 1
                    if value > syntax.NUMERAL_EXPLICIT_MAX:
                        left = numeral(value)
                else:
                    value = None
                continue
            if pending:
                raise ParseError(
                    f"expected ')' to close a term, got {tok!r}", self.here()
                )
            return left

    def _lookahead_open(self) -> bool:
        nxt = self.pos + 1
        return nxt < len(self.toks) and self.toks[nxt][0] == "("

    # -- formulas --------------------------------------------------------

    def unit(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a formula", self.here())
        if tok == "¬":
            self.pos += 1
            self.expect("(")
            body = self.formula()
            self.expect(")")
            return Not(body)
        if tok in ("∀", "∃"):
            self.pos += 1
            var = self.variable()
            self.expect("(")
            body = self.formula()
            self.expect(")")
            return (Forall if tok == "∀" else Exists)(var, body)
        if tok in syntax.ORACLE_ATOMS:
            self.pos += 1
            self.expect("(")
            args = [self.term()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
            return OracleAtom(tok, tuple(args))
        left = self.term()
        op = self.peek()
        if op == "=":
            self.pos += 1
            return Eq(left, self.term())
        if op == "<":
            self.pos += 1
            return Lt(left, self.term())
        if op == "≠":
            # input sugar only; the canonical spelling is the negation
            self.pos += 1
            return Not(Eq(left, self.term()))
        raise ParseError(f"expected '=' or '<', got {op!r}", self.here())

    def formula(self) -> Formula:
        out = self.unit()
        while True:
            tok = self.peek()
            if tok in _CONNECTIVES:
                ctor = _CONNECTIVES[tok]
                self.pos += 1
                self.expect("(")
                right = self.formula()
                self.expect(")")
                out = ctor(out, right)
                continue
            return out


def _numval(node: Term) -> int | None:
    """Value of a numeral-shaped leaf, for chain folding."""
    if node is _ONE:
        return 1
    if isinstance(node, syntax.Num) and isinstance(node.value, int):
        return node.value
    return None


def _parse_whole(text: str, rule):
    """Run one grammar rule over all of the text."""
    p = _Parser(_tokenize(text), len(text))
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("nesting too deep", 0) from None
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.here())
    return out


def parse_formula(text: str) -> Formula:
    return _parse_whole(text, _Parser.formula)


def parse_term(text: str) -> Term:
    return _parse_whole(text, _Parser.term)


def parse(text: str):
    """Parse a formula if possible, otherwise a term."""
    try:
        return parse_formula(text)
    except ParseError as first:
        try:
            return parse_term(text)
        except ParseError:
            raise first from None
