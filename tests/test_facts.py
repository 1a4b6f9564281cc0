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
from selfref.syntax import (
    And, Eq, Exists, Iff, Implies, Not, Or, Var, Zero, conj, numeral,
    preorder, render, tokens,
)
from .test_parser import deep_tree
from .test_syntax import _random_formula

_PSI = parse_formula("∃x′′(x′′+(x′′)=x)")


def _reference_code(x) -> int:
    return _digits_to_int([TOKEN_IDS[t] for t in tokens(x)])


def _shared_contexts(rng: random.Random) -> list:
    """Random formulas that hold one shared subtree object in several
    places: long enough to keep facts, and one with a lazy numeral."""
    shared = conj(*[_random_formula(rng, 3) for _ in range(rng.randint(12, 24))])
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
