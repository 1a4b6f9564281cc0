"""Generator and recurrence must agree, and streams must be clean."""

from __future__ import annotations

from itertools import takewhile

from selfref.enumeration import (
    count_formulas, count_terms, formulas_of_length, terms_of_length,
    unary_formulas,
)
from selfref.parser import parse_formula, parse_term
from selfref.proofs import sentence_stream
from selfref.syntax import free_vars, is_sentence, length, render


def test_counts_match_generator():
    for n in range(0, 12):
        assert len(terms_of_length(n)) == count_terms(n)
    for n in range(0, 12):
        assert len(formulas_of_length(n)) == count_formulas(n)


def test_small_term_census():
    assert count_terms(1) == 3
    assert count_terms(2) == 1  # just x′
    assert [render(t) for t in terms_of_length(1)] == ["0", "1", "x"]
    # length 5: one variable x′′′′ plus a+(b) and a·(b) with 1-token parts
    assert count_terms(5) == 1 + 2 * 3 * 3


def test_smallest_formulas():
    threes = [render(f) for f in formulas_of_length(3)]
    assert "x=x" in threes and "0<1" in threes
    assert len(threes) == 2 * 3 * 3


def test_every_generated_formula_is_wellformed():
    for n in range(3, 10):
        for phi in formulas_of_length(n):
            assert length(phi) == n
            assert parse_formula(render(phi)) == phi
    for n in range(1, 8):
        for t in terms_of_length(n):
            assert length(t) == n
            assert parse_term(render(t)) == t


def test_no_duplicates():
    for n in range(3, 10):
        batch = formulas_of_length(n)
        assert len(set(batch)) == len(batch)


def test_sentence_stream():
    first = list(takewhile(lambda phi: length(phi) <= 7, sentence_stream()))
    assert all(is_sentence(phi) for phi in first)
    assert all(length(phi) <= 7 for phi in first)
    texts = [render(phi) for phi in first]
    assert "0=0" in texts
    assert "∀x(x=x)" in texts
    # closed instances only: x=x is open and must not appear
    assert "x=x" not in texts


def test_unary_stream():
    for phi in unary_formulas(8):
        assert free_vars(phi) == {0}
