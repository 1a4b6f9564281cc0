"""Parser for the canonical formula spelling.

Accepts the exact output of ``syntax.render`` plus a few input
conveniences: ASCII aliases (~ & | -> <-> ' * A E), square brackets as
alternative parentheses, ``#123`` for the numeral of 123, ``≠`` for a
negated equation, and whitespace anywhere between tokens.  None of the
aliases are ever produced on output, so render-then-parse is the
identity on canonically built trees.

Parsing is one left-to-right pass over the tokens that keeps the open
constructs on an explicit stack, so it has no depth limit: any nesting
that fits in memory parses, and ``coding.decode`` inverts
``coding.encode`` however deep the tree.  An operand ``1`` reads the
numeral chain ``1+(1+(…(1)…))`` it starts in one step: a shared
``syntax.numeral`` node, and a frame per level the text leaves open.  An
oracle applied to the wrong number of arguments is a parse error.
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
_ONE_PLUS = (")", Term, Add, (_ONE,))  # the open right side of 1+( … )
_CONNECTIVES = {"∧": And, "∨": Or, "→": Implies, "↔": Iff}
_TERM_OPS = {"+": Add, "·": Mul}
_QUANTIFIERS = {"∀": Forall, "∃": Exists}
# ≠ is input sugar only; the canonical spelling is the negation
_COMPARISONS = {"=": Eq, "<": Lt,
                "≠": lambda left, right: Not(Eq(left, right))}
_ARITIES = {**syntax.ORACLE_ATOMS, **syntax.ORACLE_FUNS}
# oracle names, longest first so a letter run is cut by longest match
_NAMES = sorted(_ARITIES, key=len, reverse=True)


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


def _expect(toks: list[tuple[str, int]], i: int, tok: str) -> int:
    got, pos = toks[i]
    if got != tok:
        raise ParseError(f"expected {tok!r}, got {got!r}", pos)
    return i + 1


def _variable(toks: list[tuple[str, int]], i: int) -> tuple[Var, int]:
    """The variable whose primes start at toks[i], after its 'x'."""
    j = i
    while toks[j][0] == "′":
        j += 1
    return Var(j - i), j


def _parse(toks: list[tuple[str, int]], end: int, top):
    """Parse all of a token list as a ``top``: Term, Formula, or None for
    either.  Each token comes with its position in the text, and ``end``
    is the position just past the last.

    One left-to-right pass over the tokens.  ``done`` is the term or
    formula just completed, and ``stack`` holds the constructs still
    open around it, innermost last, as ``(closer, want, build, parts)``:
    ``want`` is the kind of operand the construct takes next, and on
    closing the node is ``build(*parts, operand)``.  A ``")"`` closer is
    a parenthesized right side (of ``¬``, a quantifier, a connective or
    a term operator), ``","`` an oracle's argument list (``build`` is
    the oracle's name, ``parts`` the arguments so far), and ``"="`` a
    comparison's right term, which ends where the term does.
    """
    toks.append((None, end))
    stack: list[tuple] = []
    # value: done's value while done is a numeral, which a 1+( … ) folds
    done = value = None
    i = 0
    while True:
        tok, pos = toks[i]
        want = stack[-1][1] if stack else top
        if done is None:  # an operand of kind `want` starts at tok
            i += 1
            if tok == "0":
                done = _ZERO
            elif tok == "1":  # a chain 1+(…(1)…) folds in one step
                j = i
                while toks[j][0] == "+" and toks[j + 1][0] == "(" \
                        and toks[j + 2][0] == "1":
                    j += 3
                k, m = (j - i) // 3, 0  # k openers, m closers after them
                while m < k and toks[j + m][0] == ")":
                    m += 1
                stack += [_ONE_PLUS] * (k - m)  # the levels still open
                value, i = m + 1, j + m
                done = numeral(value)
            elif tok == "x":
                done, i = _variable(toks, i)
            elif tok is not None and tok[0] == "#":
                value = int(tok[1:]) or None
                done = numeral(value or 0)
            elif tok in syntax.ORACLE_FUNS or (
                    want is not Term and tok in syntax.ORACLE_ATOMS):
                stack.append((",", Term, tok, []))
                i = _expect(toks, i, "(")
            elif want is not Term and tok == "¬":
                stack.append((")", Formula, Not, ()))
                i = _expect(toks, i, "(")
            elif want is not Term and tok in _QUANTIFIERS:
                var, i = _variable(toks, _expect(toks, i, "x"))
                stack.append((")", Formula, _QUANTIFIERS[tok], (var,)))
                i = _expect(toks, i, "(")
            else:
                what = "a term" if want is Term else "a formula"
                raise ParseError(f"expected {what}" if tok is None
                                 else f"expected {what}, got {tok!r}", pos)
            continue
        is_term = isinstance(done, Term)
        if is_term and tok in _TERM_OPS:
            stack.append((")", Term, _TERM_OPS[tok], (done,)))
            done = value = None
            i = _expect(toks, i + 1, "(")
        elif is_term and stack and stack[-1][0] == "=":
            _, _, build, (left,) = stack.pop()
            done = build(left, done)  # tok is read again, after the formula
        elif is_term and want is not Term and (want or tok is not None):
            # a formula is wanted (or either, with input left): compare
            if tok not in _COMPARISONS:
                raise ParseError(f"expected '=' or '<', got {tok!r}", pos)
            stack.append(("=", Term, _COMPARISONS[tok], (done,)))
            done = value = None
            i += 1
        elif not is_term and tok in _CONNECTIVES:
            stack.append((")", Formula, _CONNECTIVES[tok], (done,)))
            done = value = None
            i = _expect(toks, i + 1, "(")
        elif not stack:
            if tok is not None:
                raise ParseError(f"trailing input {tok!r}", pos)
            return done
        elif stack[-1][0] == ",":
            if tok not in (",", ")"):
                raise ParseError(f"expected ')', got {tok!r}", pos)
            _, _, name, args = stack[-1]
            args.append(done)
            done = value = None
            i += 1
            if tok == ")":
                stack.pop()
                if len(args) != _ARITIES[name]:
                    raise ParseError(f"{name} expects {_ARITIES[name]} "
                                     f"arguments, got {len(args)}", pos)
                done = (OracleAtom if name in syntax.ORACLE_ATOMS
                        else OracleFun)(name, args)
        elif tok != ")":
            close = " to close a term" if want is Term else ""
            raise ParseError(f"expected ')'{close}, got {tok!r}", pos)
        else:
            _, _, build, parts = stack.pop()
            i += 1
            if build is Add and parts[0] is _ONE and value is not None:
                value += 1
                done = numeral(value)
            else:
                done, value = build(*parts, done), None


def parse_formula(text: str) -> Formula:
    return _parse(_tokenize(text), len(text), Formula)


def parse_term(text: str) -> Term:
    return _parse(_tokenize(text), len(text), Term)


def parse(text: str):
    """Parse a formula or a term, whichever the text spells."""
    return _parse(_tokenize(text), len(text), None)
