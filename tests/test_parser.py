"""Round trips and input conveniences of the parser."""

from __future__ import annotations

import random

import pytest

from selfref.coding import decode, encode
from selfref.diagonal import build_delta
from selfref.parser import (ParseError, _tokenize, parse, parse_formula,
                            parse_term)
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Lt, Mul, Not, Num, One, OracleFun, Or, Var,
    Zero, numeral, preorder, render, NUMERAL_EXPLICIT_MAX,
)
from .test_syntax import _random_formula, _random_term


def test_roundtrip_simple():
    for text in ["x=x", "0=0", "x+(1)=0·(x′)", "¬(0=0)",
                 "∀x(∃x′(x<x′))", "x=x∧(x<x′∨(x′=x′))",
                 "prf(x,neg(x))", "Formula(len(x))",
                 "0=0→(0=0↔(1=1))"]:
        assert render(parse_formula(text)) == text


def test_roundtrip_random_trees():
    rng = random.Random(77)
    for _ in range(300):
        phi = _random_formula(rng, 4)
        assert parse_formula(render(phi)) == phi
    for _ in range(300):
        t = _random_term(rng, 4)
        assert parse_term(render(t)) == t


def test_ascii_aliases():
    assert parse_formula("~[0=0]") == Not(Eq(Zero(), Zero()))
    assert parse_formula("Ax(Ex'(x<x'))") == \
        Forall(Var(0), Exists(Var(1), Lt(Var(0), Var(1))))
    assert parse_formula("0=0 & (1=1 | (0<1))") == \
        And(Eq(Zero(), Zero()),
            Or(Eq(One(), One()), Lt(Zero(), One())))
    assert parse_formula("0=0 -> (0=0 <-> (1=1))") is not None
    assert parse_term("x*(1)") == Mul(Var(0), One())


def test_left_fold_shape():
    phi = parse_formula("0=0∧(1=1)∧(0<1)")
    assert phi == And(And(Eq(Zero(), Zero()), Eq(One(), One())),
                      Lt(Zero(), One()))


def test_numeral_chains_parse_and_canonicalize():
    assert parse_term("1+(1+(1))") == numeral(3)
    long = render(numeral(NUMERAL_EXPLICIT_MAX))
    assert parse_term(long) == numeral(NUMERAL_EXPLICIT_MAX)
    # one past the explicit cutoff folds into a lazy numeral
    longer = "1+(" + long + ")"
    out = parse_term(longer)
    assert out == Num(NUMERAL_EXPLICIT_MAX + 1)
    # a hash literal means the same thing
    assert parse_term(f"#{NUMERAL_EXPLICIT_MAX + 1}") == out
    assert parse_term(f"1+(#{NUMERAL_EXPLICIT_MAX})") == out
    assert parse_term("#7") == numeral(7)


def test_very_long_numeral_string():
    m = 5000
    text = "1+(" * (m - 1) + "1" + ")" * (m - 1)
    assert parse_term(text) == numeral(m)


def test_chain_fold_round_trips():
    for n in range(1, 301):
        chain = numeral(n)
        text = render(chain)
        assert text == "1+(" * (n - 1) + "1" + ")" * (n - 1)
        assert parse_term(text) == chain and decode(encode(chain)) == chain
        if n <= NUMERAL_EXPLICIT_MAX:  # read back as the shared node
            assert parse_term(text) is chain
            assert decode(encode(chain)) is chain
        phi = Eq(chain, Var(0))
        assert parse_formula(render(phi)) == phi
        assert decode(encode(phi)) == phi
    # chains that end in something other than a closed 1
    for text, tree in [
            ("1+(1+(x))=1", Eq(Add(One(), Add(One(), Var(0))), One())),
            ("1+(1+(1)·(x))=1",
             Eq(Add(One(), Mul(numeral(2), Var(0))), One())),
            ("1+(1)+(x)=1", Eq(Add(numeral(2), Var(0)), One()))]:
        assert parse_formula(text) == tree and render(tree) == text
        assert decode(encode(tree)) == tree
    assert parse_formula("1+(#300)=1") == parse_formula("#301=1") == \
        Eq(Num(301), One())


def test_diagonal_numerals_are_read_back_shared():
    # the digit constants of δ's Diag formula: each explicit numeral value
    # is one node object, however often δ spells it
    delta = build_delta(parse_formula("x=x"))
    for tree in (parse_formula(render(delta, compact=True)),
                 decode(encode(delta))):
        assert tree == delta
        assert len({id(node) for node in preorder(tree)}) == 489


def test_non_numeral_chains_keep_their_shape():
    t = parse_term("0+(1)+(x)")
    assert t == Add(Add(Zero(), One()), Var(0))
    t2 = parse_term("1+(1+(0))")
    assert t2 == Add(One(), Add(One(), Zero()))
    t3 = parse_term(f"0+(#{NUMERAL_EXPLICIT_MAX})")
    assert t3 == Add(Zero(), numeral(NUMERAL_EXPLICIT_MAX))


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("x=")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_formula("x=x∧0=0")
    with pytest.raises(ParseError):
        parse_formula("2=2")
    with pytest.raises(ParseError):
        parse_term("len(x")
    with pytest.raises(ParseError):
        parse_formula("zebra(x)")


def test_tokens_and_their_positions_are_pinned():
    assert _tokenize("A x (x' = 0 & ~(x<1)) -> E x′ [x <-> #12]") == [
        ("∀", 0), ("x", 2), ("(", 4), ("x", 5), ("′", 6), ("=", 8),
        ("0", 10), ("∧", 12), ("¬", 14), ("(", 15), ("x", 16), ("<", 17),
        ("1", 18), (")", 19), (")", 20), ("→", 22), ("∃", 25), ("x", 27),
        ("′", 28), ("(", 30), ("x", 31), ("↔", 33), ("#12", 37), (")", 40)]
    assert _tokenize("x*1 | 0\t=\n1") == [
        ("x", 0), ("·", 1), ("1", 2), ("∨", 4), ("0", 6), ("=", 8),
        ("1", 10)]
    assert _tokenize("x=x<->0<1->x′′=#007") == [
        ("x", 0), ("=", 1), ("x", 2), ("↔", 3), ("0", 6), ("<", 7),
        ("1", 8), ("→", 9), ("x", 11), ("′", 12), ("′", 13), ("=", 14),
        ("#007", 15)]
    assert _tokenize("x≠1,Tr(inst(0,1,x))") == [
        ("x", 0), ("≠", 1), ("1", 2), (",", 3), ("Tr", 4), ("(", 6),
        ("inst", 7), ("(", 11), ("0", 12), (",", 13), ("1", 14), (",", 15),
        ("x", 16), (")", 17), (")", 18)]


@pytest.mark.parametrize("text, pos, message", [
    ("x = 2", 4, "unexpected character '2'"),
    ("#", 0, "expected digits after '#'"),
    ("x=#a", 2, "expected digits after '#'"),
    ("x=y", 2, "unknown symbol 'y'"),
    ("x - 1", 2, "unexpected character '-'"),
    ("x<-1", 2, "unexpected character '-'"),
    ("Ax(xq=0)", 4, "unknown symbol 'xq'"),
])
def test_tokenizer_error_positions(text, pos, message):
    with pytest.raises(ParseError) as err:
        _tokenize(text)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})"


def test_parse_auto_detects():
    assert parse("x=x") == Eq(Var(0), Var(0))
    assert parse("x+(1)") == Add(Var(0), One())
    rng = random.Random(79)
    for _ in range(200):
        text = render(_random_formula(rng, 4))
        assert parse(text) == parse_formula(text)
        text = render(_random_term(rng, 4))
        assert parse(text) == parse_term(text)


def deep_tree(shape: str, depth: int):
    """A tree nested ``depth`` levels deep in one of five shapes."""
    leaf = Eq(Zero(), Zero())
    out = Zero() if shape == "len" else leaf
    for i in range(depth):
        if shape == "not":
            out = Not(out)
        elif shape == "and":  # right-nested: 0=0∧(0=0∧(...))
            out = And(leaf, out)
        elif shape == "quantifiers":
            out = (Forall, Exists)[i % 2](Var(i % 3), out)
        else:
            out = OracleFun("len", (out,))
    return out


DEEP_SHAPES = [("not", 1_000), ("not", 10_000), ("and", 1_000),
               ("quantifiers", 1_000), ("len", 1_000)]


@pytest.mark.parametrize("shape, depth", DEEP_SHAPES)
def test_deep_nesting_round_trips(shape, depth):
    tree = deep_tree(shape, depth)
    text = render(tree)
    assert (parse_term if shape == "len" else parse_formula)(text) == tree
    assert parse(text) == tree


@pytest.mark.parametrize("text, pos, message", [
    ("", 0, "expected a formula"),
    (")", 0, "expected a formula, got ')'"),
    ("x=x∧0=0", 4, "expected '(', got '0'"),
    ("x+1=0", 2, "expected '(', got '1'"),
    ("¬(x)", 3, "expected '=' or '<', got ')'"),
    ("len(x+(0,1))", 8, "expected ')' to close a term, got ','"),
    ("len(0,0)=0", 7, "len expects 1 arguments, got 2"),
    ("x=x=x", 3, "trailing input '='"),
    # numeral chains that break off, read in one step up to the break
    ("1+(1+(1)", 8, "expected ')' to close a term, got None"),
    ("1+(1+(", 6, "expected a term"),
    ("1+(1+(1)))", 9, "expected '=' or '<', got ')'"),
    ("1+(1+1)", 5, "expected '(', got '1'"),
    ("1+(1", 4, "expected ')' to close a term, got None"),
])
def test_grammar_error_messages(text, pos, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})"


def test_not_equal_sugar():
    # accepted on input only; the canonical grammar spells the negation
    assert parse_formula("0≠0") == Not(Eq(Zero(), Zero()))
    assert parse_formula("∀x[x≠x]") == Forall(Var(0), Not(Eq(Var(0), Var(0))))
    assert render(parse_formula("0≠1")) == "¬(0=1)"
