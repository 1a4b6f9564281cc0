"""Numbering of expressions by base-24 digit strings.

Each token of the canonical spelling is one digit, except the micro
catalogue symbols Tr and inst, which have none: an expression using
them has no code.  The table below assigns ids 1..23; no token gets
the digit 0, so the code of a
nonempty token string never contains a zero digit and the string can
be recovered from the value alone.  Concatenation of token strings is
code(s)*24**|t| + code(t), which is what makes codes of numerals, of
spliced formulas and of a node from its children's cached codes
computable without writing the strings out.

Codes of small expressions are plain ints; codes of expressions
containing large lazy numerals come out as run-length ``BigNat``
values built from the periodic digit blocks of the numeral spelling
(``1+(`` repeated, then ``1``, then ``)`` repeated).
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import accumulate, groupby

from .bignat import (BASE, BigNat, BigNatError, _digit_count,
                     _digits_to_int, _int_to_digits)
from .syntax import CODE_FACT, Nat, Num, Term, cached_fact
from . import parser

TOKEN_IDS: dict[str, int] = {
    "0": 1, "1": 2, "+": 3, "·": 4, "=": 5, "<": 6,
    "¬": 7, "∧": 8, "∨": 9, "→": 10, "↔": 11,
    "∀": 12, "∃": 13, "(": 14, ")": 15, ",": 16,
    "x": 17, "′": 18,
    "prf": 19, "Formula": 20, "len": 21, "D": 22, "neg": 23,
}

ID_TOKENS: dict[int, str] = {v: k for k, v in TOKEN_IDS.items()}

# digit blocks of a numeral spelling: "1+(" repeated, "1", ")" repeated
_NUM_HEAD = (TOKEN_IDS["1"] * BASE + TOKEN_IDS["+"]) * BASE + TOKEN_IDS["("]
_NUM_MID = TOKEN_IDS["1"]
_NUM_TAIL = TOKEN_IDS[")"]


class NotACode(ValueError):
    """The value codes no term or formula, or the expression has no code."""


def load_pinned_table() -> dict:
    """The token table as frozen in the fixture file."""
    text = resources.files("selfref").joinpath(
        "fixtures/codes.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def encode(x) -> Nat:
    """Code of a term or formula as a base-24 digit string value.

    A node that holds facts keeps its code (see ``syntax.cached_fact``).
    """
    return cached_fact(x, CODE_FACT, code_of_pieces)


def code_of_pieces(pieces) -> Nat:
    """Code of the token string that a list of token pieces spells.

    A piece is a token, a lazy ``Num``, whose spelling is three periodic
    digit runs, or a node, whose code is its (cached) fact.
    """
    try:  # tokens only
        return _digits_to_int(bytes(map(TOKEN_IDS.__getitem__, pieces)))
    except KeyError:
        pass
    runs: list[tuple[int, int, int]] = []  # (block, width, count), msb first
    chunks: list[tuple[int, int]] = []  # (value, width) of an explicit stretch
    for kind, group in groupby(pieces, type):
        if kind is str:
            try:
                digits = bytes(map(TOKEN_IDS.__getitem__, group))
            except KeyError as err:
                raise NotACode(f"{err.args[0]!r} has no digit, so an "
                               f"expression using it has no code") from None
            chunks.append((_digits_to_int(digits), len(digits)))
            continue
        for node in group:
            if kind is Num:
                n = node.value
                if isinstance(n, BigNat):
                    raise BigNatError("code of a formula holding a run-form "
                                      "numeral is out of range")
                code = [(_NUM_HEAD, 3, n - 1), (_NUM_MID, 1, 1),
                        (_NUM_TAIL, 1, n - 1)]
            else:
                code = cached_fact(node, CODE_FACT, code_of_pieces)
                if not isinstance(code, BigNat):
                    chunks.append((code, node.length))
                    continue
                code = code._as_runs().runs[::-1]  # it holds a numeral
            runs += [(*_concat(chunks), 1), *code]
            chunks = []
    if runs:
        return BigNat._from_lsb([*runs, (*_concat(chunks), 1)][::-1])
    return _concat(chunks)[0]


def _concat(chunks: list[tuple[int, int]]) -> tuple[int, int]:
    """(value, width) of digit strings given most significant first.

    Shifting by w digits multiplies by 3**w and shifts by 3w bits, since
    24 = 3 * 2**3: the power is a third of the size of 24**w.
    """
    if len(chunks) == 1:
        return chunks[0]
    value = width = 0
    for v, w in chunks:
        value = ((value * 3**w) << 3 * w) + v
        width += w
    return value, width


def decode(code: Nat):
    """The term or formula with this code; raises NotACode otherwise."""
    if isinstance(code, BigNat):
        if not code.is_materializable():
            raise NotACode("value too large to decode")
        code = code.to_int()
    if code <= 0:
        raise NotACode("codes are positive")
    digits = _int_to_digits(code)
    if 0 in digits:
        raise NotACode("zero digit")
    # the tokens at their offsets in the spelling, as parsing it would give
    toks = list(map(ID_TOKENS.__getitem__, digits))
    starts = list(accumulate(map(len, toks), initial=0))
    try:
        return parser._parse(list(zip(toks, starts)), starts[-1], None)
    except parser.ParseError as exc:
        raise NotACode(f"digit string is not a well-formed spelling: {exc}") \
            from None


def quote(x) -> Term:
    """The numeral whose value is the code of x."""
    from .syntax import numeral

    return numeral(encode(x))


def neg_code(code: Nat) -> Nat:
    """Code of the negation of the formula with the given code.

    Works digitwise, so it is total: values that code nothing are
    still wrapped as if they were a formula body.
    """
    if isinstance(code, BigNat):
        ndigits = code.digits24
        head = BigNat.from_int(TOKEN_IDS["¬"] * BASE + TOKEN_IDS["("])
        out = head.shift24(ndigits) + code
        return out.shift24(1) + TOKEN_IDS[")"]
    if code <= 0:
        raise NotACode("codes are positive")
    ndigits = _digit_count(code)
    head = TOKEN_IDS["¬"] * BASE + TOKEN_IDS["("]
    return (head * BASE**ndigits + code) * BASE + TOKEN_IDS[")"]


def code_length(code: Nat) -> Nat:
    """Token count of the string a value codes: its base-24 digit count."""
    if isinstance(code, BigNat):
        return code.digits24
    if code <= 0:
        raise NotACode("codes are positive")
    return _digit_count(code)
