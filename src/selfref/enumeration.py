"""Exhaustive streams of terms and formulas ordered by token count.

Covers the oracle-free core language only, with fully explicit trees.
Two independent code paths exist on purpose: the generators build the
actual trees, while ``count_terms``/``count_formulas`` recount them
from the grammar's length recurrences without ever constructing a
node, so each can audit the other.

Length facts used by both: a variable of index i is i+1 tokens, so
each length has exactly one variable; binary operators and connectives
add 3 tokens; comparisons add 1; negation adds 3; a quantifier over
the variable of index i adds i+4.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .syntax import (
    Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt, Mul, Not,
    One, Or, Term, Var, Zero,
)

_BIN_TERMS = (Add, Mul)
_COMPARES = (Eq, Lt)
_BIN_FORMS = (And, Or, Implies, Iff)
_QUANTS = (Forall, Exists)


@lru_cache(maxsize=None)
def terms_of_length(n: int) -> tuple[Term, ...]:
    """All core terms whose canonical spelling has exactly n tokens."""
    if n < 1:
        return ()
    out: list[Term] = []
    if n == 1:
        out.append(Zero())
        out.append(One())
    out.append(Var(n - 1))
    for ctor in _BIN_TERMS:
        for la in range(1, n - 3):
            lb = n - 3 - la
            for a in terms_of_length(la):
                for b in terms_of_length(lb):
                    out.append(ctor(a, b))
    return tuple(out)


@lru_cache(maxsize=None)
def formulas_of_length(n: int) -> tuple[Formula, ...]:
    """All core formulas whose canonical spelling has exactly n tokens."""
    if n < 3:
        return ()
    out: list[Formula] = []
    for ctor in _COMPARES:
        for la in range(1, n - 1):
            lb = n - 1 - la
            for a in terms_of_length(la):
                for b in terms_of_length(lb):
                    out.append(ctor(a, b))
    for body in formulas_of_length(n - 3):
        out.append(Not(body))
    for ctor in _BIN_FORMS:
        for la in range(3, n - 5):
            lb = n - 3 - la
            for a in formulas_of_length(la):
                for b in formulas_of_length(lb):
                    out.append(ctor(a, b))
    for ctor in _QUANTS:
        for index in range(0, n - 6):
            for body in formulas_of_length(n - 4 - index):
                out.append(ctor(Var(index), body))
    return tuple(out)


@lru_cache(maxsize=None)
def count_terms(n: int) -> int:
    """Number of core terms of exactly n tokens, by recurrence."""
    if n < 1:
        return 0
    total = 3 if n == 1 else 1  # 0, 1 and the unique variable of this cost
    for la in range(1, n - 3):
        total += 2 * count_terms(la) * count_terms(n - 3 - la)
    return total


@lru_cache(maxsize=None)
def count_formulas(n: int) -> int:
    """Number of core formulas of exactly n tokens, by recurrence."""
    if n < 3:
        return 0
    total = 0
    for la in range(1, n - 1):
        total += 2 * count_terms(la) * count_terms(n - 1 - la)
    total += count_formulas(n - 3)
    for la in range(3, n - 5):
        total += 4 * count_formulas(la) * count_formulas(n - 3 - la)
    for index in range(0, n - 6):
        total += 2 * count_formulas(n - 4 - index)
    return total


def formulas_up_to(max_len: int) -> Iterator[Formula]:
    for n in range(3, max_len + 1):
        yield from formulas_of_length(n)


def unary_formulas(max_len: int) -> Iterator[Formula]:
    """Core formulas whose only free variable is x, by token count."""
    from .syntax import free_vars

    for phi in formulas_up_to(max_len):
        if free_vars(phi) == {0}:
            yield phi
