"""Digit codes: pinned table, derived values, concatenation laws."""

from __future__ import annotations

import random

import pytest

from selfref.bignat import BASE, BigNat, BigNatError
from selfref.coding import (
    ID_TOKENS, TOKEN_IDS, NotACode, code_length, decode, encode,
    load_pinned_table, neg_code, quote,
)
from selfref.semantics import Truth, evaluate, standard_oracle_env
from selfref.syntax import (
    Eq, Not, Num, One, OracleAtom, Var, Zero, length, numeral, render, tokens,
)
from .test_parser import DEEP_SHAPES, deep_tree
from .test_syntax import _random_formula, _random_term


def test_table_matches_fixture():
    pinned = load_pinned_table()
    assert pinned["base"] == BASE
    assert pinned["ids"] == TOKEN_IDS
    assert sorted(TOKEN_IDS.values()) == list(range(1, 24))
    assert len(ID_TOKENS) == 23


def _code_by_hand(phi) -> int:
    # independent fold over the actual token stream
    val = 0
    for tok in tokens(phi):
        val = val * BASE + TOKEN_IDS[tok]
    return val


def test_hand_checked_values():
    assert _code_by_hand(Eq(Var(0), Var(0))) == 9929
    assert encode(Eq(Var(0), Var(0))) == 9929
    assert encode(One()) == 2
    assert encode(Zero()) == 1
    assert encode(numeral(2)) == \
        ((2 * BASE + 3) * BASE + 14) * BASE**2 + 2 * BASE + 15


def test_encode_matches_token_fold_on_random_trees():
    rng = random.Random(41)
    for _ in range(200):
        phi = _random_formula(rng, 3)
        assert encode(phi) == _code_by_hand(phi)
    for _ in range(200):
        t = _random_term(rng, 3)
        assert encode(t) == _code_by_hand(t)


def test_code_digit_count_is_token_count():
    rng = random.Random(43)
    for _ in range(100):
        phi = _random_formula(rng, 3)
        assert code_length(encode(phi)) == length(phi)


def test_decode_roundtrip():
    rng = random.Random(47)
    for _ in range(200):
        phi = _random_formula(rng, 3)
        assert decode(encode(phi)) == phi
    assert decode(9929) == Eq(Var(0), Var(0))


@pytest.mark.parametrize("shape, depth", DEEP_SHAPES)
def test_decode_inverts_encode_on_deep_nesting(shape, depth):
    tree = deep_tree(shape, depth)
    assert decode(encode(tree)) == tree


def test_formula_oracle_reads_deep_and_misapplied_codes():
    def is_formula(code):
        return evaluate(OracleAtom("Formula", (numeral(code),)),
                        standard_oracle_env())

    assert is_formula(encode(deep_tree("not", 1_000))) is Truth.TRUE
    # the digits of len(0,0)=0: len applied to two arguments
    assert is_formula(99004635193) is Truth.FALSE


def test_decode_rejects_non_codes():
    with pytest.raises(NotACode):
        decode(0)
    with pytest.raises(NotACode):
        decode(24)  # one zero digit
    with pytest.raises(NotACode):
        decode(TOKEN_IDS["("])  # lone parenthesis
    with pytest.raises(NotACode):
        decode(TOKEN_IDS["="] * BASE + TOKEN_IDS["="])
    with pytest.raises(NotACode):
        decode(99004635193)  # len(0,0)=0


@pytest.mark.parametrize("code, message", [
    (99004635193,  # len(0,0)=0
     "len expects 1 arguments, got 2 (at position 7)"),
    (163920807,  # Formula(0,x)
     "Formula expects 1 arguments, got 2 (at position 11)"),
    (29846559028501640,  # prf(x′,neg(0))∧∧
     "expected '(', got '∧' (at position 15)"),
    (4316296109,  # D(0,0)=, which ends early
     "expected a term (at position 7)"),
    (81456851899,  # x′=len(x)prf
     "trailing input 'prf' (at position 9)"),
])
def test_decode_faults_name_their_text_position(code, message):
    # positions count characters of the spelling, so a name token moves
    # everything after it by its length
    with pytest.raises(NotACode) as err:
        decode(code)
    assert str(err.value) == \
        f"digit string is not a well-formed spelling: {message}"


def test_concatenation_law():
    rng = random.Random(53)
    for _ in range(100):
        a = _random_formula(rng, 2)
        b = _random_formula(rng, 2)
        ca, cb = encode(a), encode(b)
        joined = _code_by_hand(a) * BASE ** code_length(cb) + _code_by_hand(b)
        assert ca * BASE ** code_length(cb) + cb == joined


def test_lazy_numeral_codes_match_explicit_spelling():
    for n in [300, 1000, 4000]:
        lazy = Num(n)
        assert encode(lazy) == _code_by_hand(lazy)
        assert code_length(encode(lazy)) == 4 * n - 3


def test_huge_lazy_numeral_code_runs():
    n = 10**9
    code = encode(Num(n))
    assert isinstance(code, BigNat)
    assert code.digits24 == 4 * n - 3
    # leading digits are the 1+( block, trailing digit is )
    assert code.mod_int(BASE) == TOKEN_IDS[")"]
    # the code of numeral(n) obeys code(n) = code("1+(") || code(n-1) || ")"
    smaller = encode(Num(n - 1))
    head = (2 * BASE + 3) * BASE + 14
    expect = BigNat.from_int(head).shift24(4 * (n - 1) - 3) + smaller
    expect = expect.shift24(1) + TOKEN_IDS[")"]
    assert code == expect


def test_formula_with_huge_numeral_inside():
    n = 10**9
    phi = Eq(Num(n), Var(0))
    code = encode(phi)
    assert isinstance(code, BigNat)
    assert code.digits24 == (4 * n - 3) + 2
    assert code.mod_int(BASE) == TOKEN_IDS["x"]


def test_quote_and_neg_code():
    phi = Eq(Zero(), Zero())
    q = quote(phi)
    assert q == numeral(encode(phi))
    nc = neg_code(encode(phi))
    assert decode(nc) == Not(phi)
    assert nc == encode(Not(phi))
    # digitwise wrapping is total even off the code set
    junk = TOKEN_IDS["="]
    wrapped = neg_code(junk)
    assert code_length(wrapped) == 4
    with pytest.raises(NotACode):
        decode(wrapped)


def test_run_form_numeral_value_rejected():
    huge = BigNat.from_runs([((1, 2), 10**30)])
    with pytest.raises(BigNatError):
        encode(Num(huge))
