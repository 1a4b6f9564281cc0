"""Codes and compact spellings cached on nodes, against the plain stream.

The reference never reads a cache: it folds ``TOKEN_IDS`` over
``tokens(x)`` and joins ``tokens(x, compact=...)``, both of which walk
every token.  The trees share subtree objects in several contexts, so a
fact filled in one context is read in the others, and the caches are
filled in both orders: every subtree before its root, and the roots
before their subtrees.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from selfref.bignat import _digit_count, _digits_to_int
from selfref.coding import TOKEN_IDS, decode, encode
from selfref.diagonal import build_delta, diagonal_sentence
from selfref.parser import parse, parse_formula
from selfref import syntax
from selfref.syntax import (
    NUMERAL_EXPLICIT_MAX, Add, And, Eq, Exists, Iff, Implies, Lt, Not, One,
    Or, Var, Zero, conj, numeral, preorder, render, tokens,
)
from .test_parser import deep_tree
from .test_syntax import _random_formula

_PSI = parse_formula("∃x′′(x′′+(x′′)=x)")


def _reference_code(x) -> int:
    return _digits_to_int([TOKEN_IDS[t] for t in tokens(x)])


def _shared_numeral(rng: random.Random):
    """A comparison over a shared numeral drawn from the whole table."""
    return Lt(numeral(rng.randint(2, NUMERAL_EXPLICIT_MAX)), Var(0))


def _shared_contexts(rng: random.Random) -> list:
    """Random formulas that hold one shared subtree object in several
    places: long enough to keep facts, with a shared numeral drawn from
    the whole table, and one with a lazy numeral."""
    shared = conj(*[_random_formula(rng, 3) for _ in range(rng.randint(12, 24))],
                  _shared_numeral(rng))
    if rng.random() < 0.5:
        shared = And(shared, Eq(numeral(300), Zero()))
    contexts = []
    for _ in range(rng.randint(2, 4)):
        other = _random_formula(rng, 3)
        contexts.append(rng.choice([
            And(shared, other), Or(other, Not(shared)),
            Exists(Var(rng.randrange(4)), Implies(shared, Iff(other, shared))),
            Not(Not(conj(other, shared, other))),
        ]))
    return contexts


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["random", "delta", "theta", "parsed-delta"]))
def test_cached_facts_match_the_token_stream(seed, roots_first, kind):
    rng = random.Random(seed)
    if kind == "random":
        roots = _shared_contexts(rng)
    else:
        # the one cached Diag object, in delta, in theta, and beside a
        # copy of delta parsed from its spelling
        delta = build_delta(_PSI)
        roots = {"delta": [delta],
                 "theta": [diagonal_sentence(_PSI).theta],
                 "parsed-delta": [delta, parse(render(delta, compact=True))],
                 }[kind]
    nodes = [n for root in roots for n in preorder(root)]
    if kind != "random":  # Diag's 4,009 subtrees would take minutes
        picked = sorted(rng.sample(range(len(nodes)), 40))
        nodes = roots + [nodes[i] for i in picked]
    order = nodes if roots_first else nodes[::-1]
    for node in order:
        assert render(node, compact=True) == "".join(tokens(node,
                                                            compact=True))
        if node.length < 10**6:  # theta's code numeral is not spelled out
            assert encode(node) == _reference_code(node)
    for node in nodes:
        if node.length < 10**6:
            assert render(node) == "".join(tokens(node))


@pytest.mark.parametrize("shape, depth", [("not", 10_000), ("and", 1_000)])
def test_cached_digits_and_characters_stay_linear(shape, depth):
    tree = deep_tree(shape, depth)
    code, text = encode(tree), render(tree, compact=True)
    assert decode(code) == tree
    assert parse_formula(text) == tree
    digits = chars = 0
    for node in preorder(tree):
        facts = getattr(node, "_facts", None)
        if facts is not None:
            digits += _digit_count(facts[0])
            chars += len(facts[1])
    # a node keeps facts only where its token count gains a bit over its
    # children's, so a chain keeps at most about twice its own length
    assert 0 < digits <= 2 * tree.length
    assert 0 < chars <= 2 * len(text)


def _fresh_numeral(n: int):
    """The chain 1+(1+(…)) of value n, built of new, unshared nodes."""
    chain = One()
    for _ in range(n - 1):
        chain = Add(One(), chain)
    return chain


def _forget_numeral_facts() -> None:
    for n in range(2, NUMERAL_EXPLICIT_MAX + 1):
        if getattr(numeral(n), "_facts", None) is not None:
            Add._facts.__delete__(numeral(n))


def test_shared_numerals_spell_and_code_as_a_fresh_chain():
    _forget_numeral_facts()
    values = range(2, NUMERAL_EXPLICIT_MAX + 1)
    fresh = {n: _fresh_numeral(n) for n in values}
    for n in values:  # upward, so each entry is asked before it holds facts
        shared = numeral(n)
        assert shared == fresh[n] and shared is not fresh[n]
        assert getattr(shared, "_facts", None) is None
        text = render(shared, compact=True)
        assert text == render(fresh[n], compact=True) == \
            "1+(" * (n - 1) + "1" + ")" * (n - 1)
        assert encode(shared) == encode(fresh[n]) == _reference_code(fresh[n])
    # a long formula passes each entry whole, so every one keeps its facts
    holder = conj(*[Eq(numeral(n), Var(0)) for n in values])
    twin = conj(*[Eq(fresh[n], Var(0)) for n in values])
    assert render(holder, compact=True) == render(twin, compact=True)
    assert encode(holder) == encode(twin) == _reference_code(twin)
    for n in values:
        assert numeral(n)._facts == [encode(fresh[n]),
                                     render(fresh[n], compact=True)]
        assert render(numeral(n), compact=True) == \
            "".join(tokens(fresh[n], compact=True))
        assert encode(numeral(n)) == _reference_code(fresh[n])


@pytest.mark.parametrize("n", [2, 24, 62])
def test_an_unshared_numeral_in_a_short_formula_keeps_no_facts(n):
    short = Lt(Var(1), _fresh_numeral(n))
    # walked alone, and as a piece of a long formula that keeps facts
    long = And(short, Eq(numeral(300), Zero()))
    assert short.length < syntax._FACT_FLOOR <= long.length
    for phi in short, long:
        assert encode(phi) == _reference_code(phi)
        assert render(phi, compact=True) == "".join(tokens(phi, compact=True))
    assert all(getattr(node, "_facts", None) is None
               for node in preorder(short))


def test_a_fresh_delta_hands_out_fewer_pieces_than_half_its_tokens(
        monkeypatch):
    # the shared numerals hold 6,537 of delta's 11,293 tokens; with their
    # facts filled, each walk of a fresh copy passes them whole
    text = render(build_delta(parse_formula("x=x")), compact=True)
    warm = parse(text)
    code = _reference_code(warm)
    assert (render(warm, compact=True), encode(warm)) == (text, code)
    handed: list = []
    real = syntax.token_pieces

    def counted(x, facts=None):
        pieces = real(x, facts)
        handed.extend(pieces)
        return pieces

    monkeypatch.setattr(syntax, "token_pieces", counted)
    delta = parse(text)
    assert delta == warm and delta is not warm
    assert render(delta, compact=True) == text
    rendered = len(handed)
    assert encode(delta) == code
    encoded = len(handed) - rendered
    assert rendered < delta.length // 2 and encoded < delta.length // 2
    # each of them streams every token outside a shared numeral
    assert rendered == encoded
