"""Canonical spelling, token counts, and substitution."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from selfref.bignat import BigNat, BigNatError
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Iff, Implies, Lt, Mul, Not, Num, One,
    OracleAtom, OracleFun, Or, SyntaxError_, Var, Zero, conj, disj,
    free_vars, is_sentence, length, numeral, render, substitute, tokens,
    NUMERAL_EXPLICIT_MAX,
)

x = Var(0)
x1 = Var(1)
x2 = Var(2)


def test_variable_rendering_and_cost():
    assert render(x) == "x"
    assert render(x2) == "x′′"
    assert length(x2) == 3
    assert length(Eq(x, x)) == 3
    assert render(Eq(x, x)) == "x=x"


def test_numeral_spellings():
    assert render(numeral(0)) == "0"
    assert render(numeral(1)) == "1"
    assert render(numeral(2)) == "1+(1)"
    assert render(numeral(3)) == "1+(1+(1))"


def test_numeral_length_law_against_streamed_tokens():
    for m in range(1, 520):
        toks = list(tokens(numeral(m)))
        assert len(toks) == 4 * m - 3
        assert length(numeral(m)) == 4 * m - 3
    assert length(numeral(0)) == 1


def test_large_numerals_go_lazy_but_spell_the_same():
    big = numeral(NUMERAL_EXPLICIT_MAX + 1)
    assert isinstance(big, Num)
    explicit = One()
    for _ in range(NUMERAL_EXPLICIT_MAX):
        explicit = Add(One(), explicit)
    assert list(tokens(big)) == list(tokens(explicit))
    assert length(big) == length(explicit)


def test_bignat_numeral_length():
    n = BigNat.power24(10**9)
    t = numeral(n)
    assert isinstance(t, Num)
    expected = (n * 4).sub(3)
    assert length(t) == expected
    with pytest.raises(BigNatError):
        list(tokens(t))


def test_rendering_of_each_construct():
    phi = Eq(Add(x, One()), Mul(Zero(), x1))
    assert render(phi) == "x+(1)=0·(x′)"
    assert render(Not(Eq(Zero(), Zero()))) == "¬(0=0)"
    assert render(And(Eq(x, x), Or(Lt(x, x1), Eq(x1, x1)))) \
        == "x=x∧(x<x′∨(x′=x′))"
    assert render(Forall(x, Exists(x1, Lt(x, x1)))) == "∀x(∃x′(x<x′))"
    assert render(Implies(Eq(x, x), Iff(Eq(x, x), Eq(x, x)))) \
        == "x=x→(x=x↔(x=x))"
    assert render(OracleAtom("prf", (x, x1))) == "prf(x,x′)"
    assert render(OracleFun("len", (x,))) == "len(x)"
    assert render(OracleFun("D", (x, x1))) == "D(x,x′)"
    assert render(OracleFun("neg", (x,))) == "neg(x)"


def test_length_matches_token_count_on_random_trees():
    rng = random.Random(31)
    for _ in range(300):
        phi = _random_formula(rng, 4)
        assert length(phi) == len(list(tokens(phi)))


def test_left_fold_helpers():
    a, b, c = Eq(x, x), Lt(x, x1), Eq(x1, x1)
    assert conj(a, b, c) == And(And(a, b), c)
    assert disj(a, b) == Or(a, b)
    assert render(conj(a, b, c)) == "x=x∧(x<x′)∧(x′=x′)"


def test_free_vars_and_sentences():
    phi = Forall(x, Exists(x1, Lt(x, Add(x1, x2))))
    assert free_vars(phi) == frozenset({2})
    assert not is_sentence(phi)
    assert is_sentence(Forall(x2, phi))
    assert free_vars(numeral(300)) == frozenset()


def test_substitute_basics():
    phi = Eq(Add(x, x1), x)
    out = substitute(phi, 0, numeral(2))
    assert render(out) == "1+(1)+(x′)=1+(1)"
    # bound occurrences stay put
    psi = Forall(x, Eq(x, x1))
    assert substitute(psi, 0, numeral(5)) == psi


def test_substitute_avoids_capture():
    # replacing x1 by a term mentioning x under a binder on x
    phi = Exists(x, Lt(x, x1))
    out = substitute(phi, 1, Add(x, One()))
    assert isinstance(out, Exists)
    assert out.var != x
    assert free_vars(out) == {0}
    # the renamed binder still bounds the old occurrences
    assert render(out) == "∃x′′(x′′<x+(1))"


def test_substitute_into_oracle_args():
    phi = OracleAtom("prf", (x, OracleFun("neg", (x,))))
    out = substitute(phi, 0, numeral(0))
    assert render(out) == "prf(0,neg(0))"


def test_registry_rejects_unknown_and_wrong_arity():
    with pytest.raises(SyntaxError_):
        OracleAtom("mystery", (x,))
    with pytest.raises(SyntaxError_):
        OracleFun("len", (x, x1))
    with pytest.raises(SyntaxError_):
        Num(0)


def _tower(depth: int, leaf):
    phi = leaf
    for _ in range(depth):
        phi = Not(phi)
    return phi


def test_deep_negation_needs_no_recursion():
    deep = _tower(3000, Eq(x, Zero()))
    assert deep == _tower(3000, Eq(Var(0), Zero()))
    assert hash(deep) == hash(_tower(3000, Eq(Var(0), Zero())))
    assert free_vars(deep) == {0}
    assert substitute(deep, 0, One()) == _tower(3000, Eq(One(), Zero()))


def _reference_free_vars(x) -> frozenset:
    """Free variables by a stack walk that carries the bound indices."""
    out = set()
    stack = [(x, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Var):
            if node.index not in bound:
                out.add(node.index)
        elif isinstance(node, (Forall, Exists)):
            stack.append((node.body, bound | {node.var.index}))
        elif isinstance(node, Not):
            stack.append((node.body, bound))
        elif isinstance(node, (OracleAtom, OracleFun)):
            stack.extend((arg, bound) for arg in node.args)
        elif not isinstance(node, (Zero, One, Num)):
            stack.extend([(node.left, bound), (node.right, bound)])
    return frozenset(out)


def _subtrees(x):
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Forall, Exists, Not)):
            stack.append(node.body)
        elif isinstance(node, (OracleAtom, OracleFun)):
            stack.extend(node.args)
        elif not isinstance(node, (Zero, One, Var, Num)):
            stack.extend([node.left, node.right])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_cached_facts_agree_with_a_fresh_walk(seed, depth):
    phi = _random_formula(random.Random(seed), depth)
    twin = _random_formula(random.Random(seed), depth)
    for node in _subtrees(phi):
        assert free_vars(node) == _reference_free_vars(node)
    # equal free-variable sets are one shared object
    assert free_vars(phi) is free_vars(twin)
    assert phi == twin  # compared before either tree is hashed
    assert hash(phi) == hash(twin)
    assert phi == twin  # and again with both hashes cached
    assert render(phi) == render(twin)


def _random_term(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice([Zero(), One(), Var(rng.randrange(3)),
                           numeral(rng.randrange(2, 9))])
    kind = rng.randrange(6)
    if kind <= 1:
        return _random_term(rng, 0)
    if kind == 2:
        return Add(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 3:
        return Mul(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 4:
        return OracleFun("len", (_random_term(rng, depth - 1),))
    return OracleFun("D", (_random_term(rng, depth - 1),
                           _random_term(rng, depth - 1)))


def _random_formula(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice([
            Eq(_random_term(rng, 1), _random_term(rng, 1)),
            Lt(_random_term(rng, 1), _random_term(rng, 1)),
            OracleAtom("Formula", (_random_term(rng, 1),)),
            OracleAtom("prf", (_random_term(rng, 0), _random_term(rng, 0))),
        ])
    kind = rng.randrange(8)
    if kind <= 1:
        return _random_formula(rng, 0)
    if kind == 2:
        return Not(_random_formula(rng, depth - 1))
    if kind in (3, 4):
        ctor = rng.choice([And, Or, Implies, Iff])
        return ctor(_random_formula(rng, depth - 1),
                    _random_formula(rng, depth - 1))
    ctor = rng.choice([Forall, Exists])
    return ctor(Var(rng.randrange(3)), _random_formula(rng, depth - 1))
