"""Numbering of expressions by base-24 digit strings.

Each token of the canonical spelling is one digit, except the micro
catalogue symbols Tr and inst, which have none: an expression using
them has no code.  The table below assigns ids 1..23; no token gets
the digit 0, so the code of a
nonempty token string never contains a zero digit and the string can
be recovered from the value alone.  Concatenation of token strings is
code(s)*24**|t| + code(t), which is what makes codes of numerals and
of spliced formulas computable without writing the strings out.

Codes of small expressions are plain ints; codes of expressions
containing large lazy numerals come out as run-length ``BigNat``
values built from the periodic digit blocks of the numeral spelling
(``1+(`` repeated, then ``1``, then ``)`` repeated).
"""

from __future__ import annotations

import json
from importlib import resources

from .bignat import BASE, BigNat, BigNatError
from .syntax import Nat, Term, token_pieces
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
_NUM_HEAD = (TOKEN_IDS["1"], TOKEN_IDS["+"], TOKEN_IDS["("])
_NUM_MID = (TOKEN_IDS["1"],)
_NUM_TAIL = (TOKEN_IDS[")"],)


class NotACode(ValueError):
    """The value codes no term or formula, or the expression has no code."""


def load_pinned_table() -> dict:
    """The token table as frozen in the fixture file."""
    text = resources.files("selfref").joinpath(
        "fixtures/codes.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def encode(x) -> Nat:
    """Code of a term or formula as a base-24 digit string value."""
    chunks: list[int] = []
    acc: Nat = 0
    first = True

    def flush():
        nonlocal acc, first
        if not chunks:
            return
        val = 0
        for d in chunks:
            val = val * BASE + d
        if first:
            acc = val
            first = False
        else:
            acc = _shift(acc, len(chunks)) + val
        chunks.clear()

    for piece in token_pieces(x):
        if isinstance(piece, str):
            try:
                chunks.append(TOKEN_IDS[piece])
            except KeyError:
                raise NotACode(f"{piece!r} has no digit, so an expression "
                               f"using it has no code") from None
            if len(chunks) >= 4096:
                flush()
            continue
        # a lazy numeral: splice its digit runs in arithmetically
        flush()
        n = piece.value
        if isinstance(n, BigNat):
            raise BigNatError(
                "code of a formula holding a run-form numeral is out of range"
            )
        runs = [(_NUM_HEAD, n - 1), (_NUM_MID, 1), (_NUM_TAIL, n - 1)]
        block = BigNat.from_runs([(p, c) for p, c in runs if c > 0])
        if first:
            acc = block
            first = False
        else:
            acc = _shift(acc, 4 * n - 3) + block
    flush()
    if first:
        raise NotACode("empty token string")
    return acc


def _shift(value: Nat, k: int) -> Nat:
    if isinstance(value, BigNat):
        return value.shift24(k)
    if k > 4096:
        return BigNat.from_int(value).shift24(k)
    return value * BASE**k


def decode(code: Nat):
    """The term or formula with this code; raises NotACode otherwise."""
    if isinstance(code, BigNat):
        if not code.is_materializable():
            raise NotACode("value too large to decode")
        code = code.to_int()
    if code <= 0:
        raise NotACode("codes are positive")
    digits: list[int] = []
    n = code
    while n:
        n, d = divmod(n, BASE)
        if d == 0:
            raise NotACode("zero digit")
        digits.append(d)
    digits.reverse()
    text = "".join(ID_TOKENS[d] for d in digits)
    try:
        return parser.parse(text)
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


_BIG_CHUNK = BASE**512


def _digit_count(n: int) -> int:
    count = 0
    while n >= _BIG_CHUNK:
        n //= _BIG_CHUNK
        count += 512
    while n:
        n //= BASE
        count += 1
    return count
