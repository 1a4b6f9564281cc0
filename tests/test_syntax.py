"""Canonical spelling, token counts, and substitution."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from selfref import syntax
from selfref.bignat import BigNat, BigNatError
from selfref.diagonal import normalize_psi, taut_equiv
from selfref.semantics import OracleEnv, eval_term
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Iff, Implies, Lt, Mul, Not, Num, One,
    OracleAtom, OracleFun, Or, SyntaxError_, Var, Zero, conj, disj,
    free_vars, is_sentence, length, numeral, preorder, render, substitute,
    tokens, NUMERAL_EXPLICIT_MAX, _Node, _children,
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


def test_explicit_numerals_are_one_shared_node_per_value():
    chain = One()  # built by explicit nesting, one fresh node per level
    chains = [Zero(), chain]
    for _ in range(NUMERAL_EXPLICIT_MAX - 1):
        chain = Add(One(), chain)
        chains.append(chain)
    for n, chain in enumerate(chains):
        assert numeral(n) is numeral(n)
        assert numeral(n) == chain and hash(numeral(n)) == hash(chain)
        assert numeral(BigNat.from_int(n)) is numeral(n)
    assert numeral(2) is not chains[2]  # so == above compared structure
    for n in (NUMERAL_EXPLICIT_MAX + 1, NUMERAL_EXPLICIT_MAX + 2, 10**6):
        assert type(numeral(n)) is Num and numeral(n).value == n
        assert numeral(n) is not numeral(n)


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
    assert deep.height == 3002
    assert repr(deep) == "Not(body=" * 3000 + \
        "Eq(left=Var(index=0), right=Zero())" + ")" * 3000
    assert normalize_psi(deep) == _tower(3000, Eq(Var(1), Zero()))
    assert taut_equiv(deep, Eq(x, Zero()))
    assert not taut_equiv(deep, Not(Eq(x, Zero())))


def test_preorder_pops_the_right_child_first():
    a, b, c = Eq(x, Zero()), Lt(x, One()), Eq(One(), x)
    phi = And(a, Or(b, c))
    assert list(preorder(phi)) == [phi, Or(b, c), c, x, One(), b, One(),
                                   x, a, Zero(), x]
    # reversed, every node follows its children
    seen: set = set()
    for node in reversed(list(preorder(phi))):
        assert all(id(kid) in seen for kid in _children(node))
        seen.add(id(node))
    spine = list(preorder(phi, lambda n: (n.left, n.right)
                          if isinstance(n, (And, Or)) else ()))
    assert spine == [phi, Or(b, c), c, b, a]


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


def _kids(node) -> tuple:
    if isinstance(node, (Forall, Exists, Not)):
        return (node.body,)
    if isinstance(node, (OracleAtom, OracleFun)):
        return node.args
    if isinstance(node, (Zero, One, Var, Num)):
        return ()
    return (node.left, node.right)


def _subtrees(x):
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_kids(node))


def _reference_height(x) -> int:
    """Nodes on the longest root-to-leaf path, by a stack walk."""
    best, stack = 0, [(x, 1)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        stack.extend((kid, level + 1) for kid in _kids(node))
    return best


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_cached_facts_agree_with_a_fresh_walk(seed, depth):
    phi = _random_formula(random.Random(seed), depth)
    twin = _random_formula(random.Random(seed), depth)
    for node in _subtrees(phi):
        assert free_vars(node) == _reference_free_vars(node)
        assert node.height == _reference_height(node)
        assert node.length == len(list(tokens(node)))
    # equal free-variable sets are one shared object
    assert free_vars(phi) is free_vars(twin)
    assert phi == twin  # two trees built apart, hashed at construction
    assert hash(phi) == hash(twin)
    assert phi == twin  # and again after hash() has read the cached hashes
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


def test_leaves_are_shared():
    assert One() is One() and Zero() is Zero()
    assert Var(3) is Var(3) and Var(3) is not Var(4)
    assert numeral(2).left is One()
    with pytest.raises(SyntaxError_):
        Var(-1)


_RUN_FORM = BigNat.from_runs([((7,), 1), ((0,), 4200)])


def _fresh_hash(node) -> int:
    """hash((TAG, *parts)) by a walk that reads no cached hash."""
    return hash((node._TAG, *[_fresh_hash(p) if isinstance(p, _Node) else p
                              for p in node._parts()]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4),
       st.sampled_from([None, 300, 10**40, _RUN_FORM]))
def test_hashes_are_the_structural_formula(seed, depth, big):
    phi = _random_formula(random.Random(seed), depth)
    if big is not None:  # a free variable, or else a new conjunct, holds it
        term = Add(One(), numeral(big))
        phi = substitute(phi, min(phi.fv), term) if phi.fv \
            else And(phi, Lt(term, x))
    # every node, a Num over a BigNat and those above it too, holds its
    # hash from construction on
    for node in _subtrees(phi):
        assert node._hash == hash(node) == _fresh_hash(node)


def test_lengths_at_and_above_a_run_form_numeral():
    # the spelled-out count, (v*4).sub(3) plus each node's own tokens
    leaf = Num(_RUN_FORM)
    spelled = (_RUN_FORM * 4).sub(3)
    assert isinstance(length(leaf), BigNat) and length(leaf) == spelled
    atom = Eq(leaf, x)
    assert length(atom) == spelled + 2
    deep = _tower(3000, atom)
    assert isinstance(length(deep), BigNat)
    assert length(deep) == spelled + 2 + 3 * 3000
    assert length(deep).to_int() == 4 * _RUN_FORM.to_int() - 3 + 2 + 9000
    # every kind above it: ∀x′′(…) 6, ∧ 3, < 1, + 3, 1 1, prf(,) 4, x 1
    mixed = Forall(x2, And(deep, Lt(Add(One(), leaf),
                                    OracleAtom("prf", (leaf, x)))))
    assert length(mixed) == spelled + 2 + 3 * 3000 + 6 + 3 + 1 + 3 + 1 \
        + spelled + 4 + spelled + 1


def test_deep_tower_over_a_run_form_numeral_hashes_without_recursion():
    leaf = Eq(Num(_RUN_FORM), x)
    deep = _tower(3000, leaf)
    expected = _fresh_hash(leaf)
    for _ in range(3000):
        expected = hash((Not._TAG, expected))
    assert hash(deep) == expected
    assert hash(_tower(3000, Eq(Num(_RUN_FORM), x))) == expected


def test_shared_subtrees_over_a_run_form_numeral_hash_once(monkeypatch):
    # And(phi, phi) 20 times unfolds to 2**20 leaves, but each of the 22
    # distinct nodes (the Num among them) was hashed once, when built, so
    # hash() walks no children
    phi = shared = Eq(Num(_RUN_FORM), x)
    for _ in range(20):
        phi = And(phi, phi)
    entered = []
    monkeypatch.setattr(syntax, "_children",
                        lambda n: entered.append(n) or _children(n))
    expected = _fresh_hash(shared)
    for _ in range(20):
        expected = hash((And._TAG, expected, expected))
    assert hash(phi) == expected
    walked = len(entered)  # keeps the 2**20-leaf tree out of the report
    assert walked == 0


# -- token counts and substitution on random trees -----------------------------

def _core_term(rng: random.Random, depth: int, top: int):
    """A term over 0, 1, x to x′′′ and Num leaves of int values below top."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Zero(), One(), Var(rng.randrange(4)),
                           Num(rng.randrange(1, top))])
    ctor = rng.choice([Add, Mul])
    return ctor(_core_term(rng, depth - 1, top),
                _core_term(rng, depth - 1, top))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_length_is_the_token_count(seed, depth):
    rng = random.Random(seed)
    term = _core_term(rng, depth, 300)
    phi = _random_formula(rng, depth)
    for node in (term, substitute(phi, 0, term)):
        assert length(node) == len(list(tokens(node)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.fixed_dictionaries({i: st.integers(0, 10**6) for i in range(4)}))
def test_the_substitution_lemma_on_terms(seed, index, asg):
    # t[s/x_index] at asg is t at asg with x_index set to the value of s
    rng = random.Random(seed)
    t, s = _core_term(rng, 4, 10**12), _core_term(rng, 3, 10**12)
    env = OracleEnv()
    inner = {**asg, index: eval_term(s, asg, env)}
    assert eval_term(substitute(t, index, s), asg, env) == \
        eval_term(t, inner, env)
