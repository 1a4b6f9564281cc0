"""Exactness and honesty of the bounded evaluator."""

from __future__ import annotations

import functools
import gc
import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from selfref.acceptance import _random_formula
from selfref.bignat import BigNat, BigNatError
from selfref.enumeration import unary_formulas
from selfref.parser import parse_formula
from selfref.semantics import (
    DEPTH_CAP, Budget, DefinesReport, Evaluator, OracleEnv, OracleUndecided,
    Truth, _Batch, _compile_term, _eventual, _swept, defines,
    defines_all, evaluate, evaluate_full, eval_term, standard_oracle_env,
    t_and, t_iff, t_implies, t_or, truth_at,
)
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Iff, Implies, Lt, Mul, Not, Num, One,
    OracleAtom, OracleFun, Or, Var, Zero, free_vars, numeral, preorder,
    render, substitute,
)
from selfref import coding

T, F, U = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN
x, y, w = Var(0), Var(1), Var(2)


def test_kleene_tables():
    assert t_and(T, U) is U and t_and(F, U) is F
    assert t_or(T, U) is T and t_or(F, U) is U
    assert t_implies(F, U) is T and t_implies(U, F) is U
    assert t_iff(T, U) is U and (~U) is U and (~T) is F


def test_compiled_connectives_follow_the_kleene_tables():
    # 0=0, 0=1 and prf(0,0) (no interpretation) are T, F and U in one
    # node each; a binary node visits its right side unless the left
    # value settles the verdict
    atoms = {T: Eq(Zero(), Zero()), F: Eq(Zero(), One()),
             U: OracleAtom("prf", (Zero(), Zero()))}
    settles = {And: F, Or: T, Implies: F, Iff: None}
    tables = {And: t_and, Or: t_or, Implies: t_implies, Iff: t_iff}
    for kind, table in tables.items():
        for a, left in atoms.items():
            for b, right in atoms.items():
                report = evaluate_full(kind(left, right), OracleEnv())
                assert report.truth is table(a, b), (kind, a, b)
                assert report.nodes_used == \
                    (2 if a is settles[kind] else 3), (kind, a, b)
    for a, body in atoms.items():
        report = evaluate_full(Not(body), OracleEnv())
        assert (report.truth, report.nodes_used) == (~a, 2)


def test_closed_atoms():
    assert evaluate(parse_formula("1+(1)=1+(1)")) is T
    assert evaluate(parse_formula("0<1")) is T
    assert evaluate(parse_formula("1<0")) is F
    assert evaluate(parse_formula("1·(0)=0")) is T


def test_term_eval_with_bignat():
    n = BigNat.power24(100)
    t = Add(Num(n), One())
    val = eval_term(t, {}, OracleEnv())
    assert val == n + 1


def _verdict(phi, budget=None, witnesses=None):
    """The truth and the nodes visited, under OracleEnv()."""
    report = evaluate_full(phi, OracleEnv(), budget, witnesses)
    return report.truth, report.nodes_used


def test_bounded_quantifiers_are_exact():
    # the rest runs below the bound, up to the first stop value
    phi = parse_formula("∀x(x<#5→(x<#6))")
    assert _verdict(phi) == (T, 6)
    psi = parse_formula("∃x(x<#5∧(x+(x)=#8))")
    assert _verdict(psi) == (T, 6)
    chi = parse_formula("∃x(x<#3∧(x+(x)=#8))")
    assert _verdict(chi) == (F, 4)


def test_linear_solver_beyond_sweep():
    # 2v = 10**9: the witness is far outside any sweep; the body runs at
    # the solution only, and not at all when there is none
    big = numeral(10**9)
    phi = Exists(x, Eq(Add(x, x), big))
    assert _verdict(phi, Budget(witness_bound=4)) == (T, 2)
    odd = Exists(x, Eq(Add(x, x), numeral(10**9 + 1)))
    assert _verdict(odd, Budget(witness_bound=4)) == (F, 1)
    for n, verdict in ((1000, (T, 2)), (1001, (F, 1))):
        phi = parse_formula(f"∃x(x+(x)=#{n})")
        assert _verdict(phi, Budget(witness_bound=4)) == verdict


def test_linear_solver_on_run_forms():
    n_even = Num(BigNat.power24(10**12))  # 24**k is even
    assert evaluate(Exists(x, Eq(Add(x, x), n_even))) is T
    n_odd = Num(BigNat.power24(10**12) + 1)
    assert evaluate(Exists(x, Eq(Add(x, x), n_odd))) is F


def test_tail_analysis():
    # all y: y < y+1, exact by the eventual sign of the difference
    assert _verdict(Forall(x, Lt(x, Add(x, One())))) == (T, 1)
    # some y > 3: the tail's TRUE decides it, no value runs
    assert _verdict(parse_formula("∃x(#3<x)")) == (T, 1)
    # no y with y*y = 2
    assert evaluate(Exists(x, Eq(Mul(x, x), numeral(2)))) is F
    # some y with y*y = 25, found by sweeping the values 0..5
    assert _verdict(Exists(x, Eq(Mul(x, x), numeral(25)))) == (T, 7)
    # y*y = big square: degree 2 is past the solver, sweep cannot reach,
    # and the tail cannot bound huge coefficients: honest unknown after
    # the 65 values up to the witness bound
    assert _verdict(Exists(x, Eq(Mul(x, x), numeral(10**8)))) == (U, 66)


def test_undecided_oracles_stay_unknown():
    phi = Exists(x, OracleAtom("prf", (x, numeral(5))))
    assert evaluate(phi) is U
    assert evaluate(Not(phi)) is U


def test_oracle_support_gives_exact_false():
    env = OracleEnv(atoms={"Formula": lambda a: a in (3, 5)},
                    atom_supports={"Formula": 10})
    # nothing in the support satisfies both conjuncts
    phi = Exists(x, And(OracleAtom("Formula", (x,)), Eq(x, numeral(7))))
    assert evaluate(phi, env) is F
    phi2 = Exists(x, And(OracleAtom("Formula", (x,)), Eq(x, numeral(5))))
    assert evaluate(phi2, env) is T


def test_a_zero_slope_argument_gives_no_support_tail():
    # 0·x is 0 at every x, so Formula(0·x) never leaves the support
    env = OracleEnv(atoms={"Formula": lambda a: a == 0},
                    atom_supports={"Formula": 10})
    flat = OracleAtom("Formula", (Mul(Zero(), x),))
    phi = Exists(x, And(flat, Lt(numeral(100), x)))
    assert evaluate(phi, env) is U
    assert evaluate(phi, env, Budget(witness_bound=128)) is T  # x = 101
    report = defines(flat, env)
    assert not report.exact
    assert report.solutions == list(range(65))


def test_witnessed_existentials():
    # the body runs at the witness only
    phi = Exists(x, Eq(Mul(x, x), numeral(10**8)))
    assert _verdict(phi, witnesses={(): 10**4}) == (T, 2)
    assert _verdict(phi, witnesses={(): 10**4 + 1}) == (F, 2)


def test_witness_paths_reach_nested_nodes():
    # some v: (v*v = 81 and some u: u+u = v)
    phi = Exists(x, And(Eq(Mul(x, x), numeral(81)),
                        Exists(y, Eq(Add(y, y), x))))
    got = evaluate(phi, witnesses={(): 9, (0, 1): 4})
    assert got is F  # 4+4 is not 9: the claimed certificate fails
    # without the inner witness the solver pins u = 9/2: no solution,
    # but the outer witness 9 still gets checked honestly
    assert evaluate(phi, witnesses={(): 9}) is F


def test_node_budget_reports():
    phi = Forall(x, Exists(y, OracleAtom("prf", (x, y))))
    report = evaluate_full(phi, budget=Budget(node_budget=10))
    assert report.truth is U
    assert report.budget_hit


def test_depth_bound():
    phi = parse_formula("0=0")
    for _ in range(20):
        phi = Not(phi)
    assert evaluate(phi, budget=Budget(depth_bound=5)) is U


def test_defines_exact_singleton():
    phi = parse_formula("x=#7")
    report = defines(phi)
    assert report.exact and report.solutions == [7]


def test_defines_interval_and_cofinite():
    lt = parse_formula("x<#4")
    report = defines(lt)
    assert report.exact and report.solutions == [0, 1, 2, 3]
    co = parse_formula("~(x=#2)")
    report2 = defines(co)
    assert report2.exact
    assert "..." in report2.solutions


def test_defines_on_universe():
    # a finite universe is a loop over the compiled handle
    phi = parse_formula("∃x′(x′+(x′)=x)")  # even numbers
    at = truth_at(phi)
    swept = [at({0: w}) for w in range(10)]
    assert [w for w, got in enumerate(swept) if got is T] == [0, 2, 4, 6, 8]
    assert U not in swept


def test_defines_is_inexact_when_a_swept_value_is_unknown():
    # Tr has no interpretation, so x = 3 is UNKNOWN, while the tail
    # 5 < x alone would make the set cofinite
    phi = Or(And(Eq(x, numeral(3)), OracleAtom("Tr", (Zero(),))),
             Lt(numeral(5), x))
    assert evaluate(phi, OracleEnv(), assignment={0: 3}) is U
    report = defines(phi, OracleEnv())
    assert not report.exact
    assert report.solutions == list(range(6, 65))


def test_defines_reports_over_unary_11_are_pinned():
    h, count = hashlib.sha256(), 0
    for phi in unary_formulas(11):
        report = defines(phi)
        h.update(repr((report.exact, report.solutions, report.note)).encode())
        count += 1
    assert count == 4110
    assert h.hexdigest() == \
        "bef5fafdedbb859cfd8b7388b9c3616fd6dd5fadba36c7e08f7c930cb1ada3d5"


def test_the_node_budget_covers_a_whole_sweep():
    # value x costs about x nodes and x oracle calls, the whole sweep to
    # 1000 about half a million; the budget stops it after 2000 nodes
    calls = []
    env = OracleEnv(atoms={"Tr": lambda a: calls.append(a) or False})
    phi = Exists(y, And(Lt(y, x), OracleAtom("Tr", (y,))))
    budget = Budget(witness_bound=1000, node_budget=2000)
    swept = _rendered(_swept(phi, 0, {}, env, budget), 1001)
    assert len(swept) == 1001 and len(calls) <= 2 * budget.node_budget
    decided = swept.index(U)
    assert swept[:decided] == [F] * decided and set(swept[decided:]) == {U}
    # a handle gives every value the whole budget
    at = truth_at(phi, env, budget)
    assert [at({0: v}) for v in range(decided, 1001)] == [F] * (1001 - decided)
    report = defines(Eq(x, x), budget=Budget(node_budget=10))
    assert not report.exact and report.solutions == list(range(10))


def test_a_vacuous_quantifier_runs_its_body_once():
    calls = []
    env = OracleEnv(atoms={"Tr": lambda a: calls.append(a) or True})
    # ∀x′(Tr(x)) at x = 3: the tail reads Tr(x) once and settles every
    # value from 0 on, so no value is run
    phi = Forall(y, OracleAtom("Tr", (x,)))
    report = evaluate_full(phi, env, assignment={0: 3})
    assert (report.truth, report.nodes_used, report.budget_hit) == (T, 1, False)
    assert calls == [3]
    # ∀x′(∀x′′(Tr(x)→(x′′=x′′))) at x = 3: the tail does not read a
    # quantifier that binds its own variable, so the outer quantifier runs
    # its body once and has its verdict; there the tail reads Tr(x) once
    # and settles every value of x′′
    for budget in (Budget(), Budget(node_budget=30)):
        calls.clear()
        phi = Forall(y, Forall(w, Implies(OracleAtom("Tr", (x,)), Eq(w, w))))
        report = evaluate_full(phi, env, budget, assignment={0: 3})
        assert (report.truth, report.nodes_used, report.budget_hit) == \
            (T, 2, False)
        assert calls == [3]


def test_linear_solving_tries_the_right_conjunct_first():
    # the ∧-spine is walked right to left and the first conjunct that
    # pins y decides: y = 1 fails the other conjunct at once, where
    # y = 1+(1) would cost one node more
    phi = Exists(y, And(Eq(y, Add(One(), One())), Eq(y, One())))
    report = evaluate_full(phi)
    assert (report.truth, report.nodes_used) == (F, 3)


def test_standard_oracle_env():
    env = standard_oracle_env()
    code = coding.encode(parse_formula("x=x"))
    assert code == 9929
    phi = OracleAtom("Formula", (numeral(code),))
    assert evaluate(phi, env) is T
    assert evaluate(OracleAtom("Formula", (numeral(24),)), env) is F
    # len gives the token count back
    got = eval_term(coding.parser.parse_term("len(#9929)"), {}, env)
    assert got == 3
    # neg wraps: len goes up by three
    neg_of = env.funs["neg"](code)
    assert coding.decode(neg_of) == Not(parse_formula("x=x"))
    # D produces the uniqueness sentence for a one-free-variable code
    d_val = env.funs["D"](code, 5)
    sentence = coding.decode(d_val)
    from selfref.syntax import render
    assert render(sentence) == "∀x(x=x↔(x=1+(1+(1+(1+(1))))))"


def test_standard_env_decodes_each_code_once(monkeypatch):
    decoded = []
    real = coding.decode
    monkeypatch.setattr(coding, "decode",
                        lambda a: decoded.append(a) or real(a))
    env = standard_oracle_env()
    code = coding.encode(parse_formula("x=x"))
    for _ in range(3):
        assert env.atoms["Formula"](code)
        assert env.atoms["Formula"](BigNat.from_int(code))
        assert coding.code_length(env.funs["D"](code, 5)) == 29
        assert not env.atoms["Formula"](24) and env.funs["D"](24, 5) == 0
    assert sorted(decoded) == [24, code]


def test_d_of_rejects_junk():
    env = standard_oracle_env()
    assert env.funs["D"](24, 5) == 0  # zero digit: not a code
    closed = coding.encode(parse_formula("0=0"))
    assert env.funs["D"](closed, 5) == 0  # no free variable


def _criterion_14_triples():
    """The formula/variable/value triples that criterion 14 draws."""
    rng = random.Random(14)
    for _ in range(500):
        phi = _random_formula(rng, rng.randrange(1, 5))
        v = rng.randrange(3)
        m = rng.randrange(12)
        rest = {u: rng.randrange(12) for u in free_vars(phi) if u != v}
        yield phi, v, m, rest


def _accounting_digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(f"{r.truth.name} {r.nodes_used} {r.budget_hit}\n".encode())
    return h.hexdigest()


def _criterion_14_reports(budget):
    env = standard_oracle_env()
    for phi, v, m, rest in _criterion_14_triples():
        yield evaluate_full(substitute(phi, v, numeral(m)), env, budget,
                            assignment=rest)
        yield evaluate_full(phi, env, budget, assignment={**rest, v: m})


def _unary_11_reports(budget):
    for phi in unary_formulas(11):
        for value in range(0, 64, 7):
            yield evaluate_full(phi, budget=budget, assignment={0: value})


@pytest.mark.parametrize("reports, digest", [
    (lambda: _criterion_14_reports(Budget(node_budget=5_000)),
     "b4c8aa85bc3c0e7c3c5ea32d5fa3919780fa57a3434c8acfecfc7f1af7dd9dc6"),
    (lambda: _criterion_14_reports(Budget(node_budget=300, depth_bound=3)),
     "2c60987f12f9588fd1c8933c4b2a2545155cdca52fbc2e6ab7cdad7f95e0201d"),
    (lambda: _unary_11_reports(Budget()),
     "bfaf833f09082ffdfccf0835b6a06608ba03d68f56da6961f6d54877ec4c4463"),
    (lambda: _unary_11_reports(Budget(node_budget=40, witness_bound=20)),
     "bfaf833f09082ffdfccf0835b6a06608ba03d68f56da6961f6d54877ec4c4463"),
    (lambda: _unary_11_reports(Budget(witness_bound=0)),
     "f73745fd5683f9db8bf3bf8872febe50de6cb51f730e00135c4ae6faefa8b0c4"),
], ids=["criterion-14", "criterion-14-tight", "unary-11", "unary-11-tight",
        "unary-11-one-value"])
def test_node_accounting_is_pinned(reports, digest):
    # (truth, nodes_used, budget_hit) of every evaluation, as reports
    # print nodes_used.  Each verdict decided here that a sweep charging
    # every value to the witness bound left UNKNOWN was checked against
    # that sweep at 10**6 nodes, and each one a vacuous quantifier takes
    # from its body against the formula with its vacuous quantifiers
    # deleted, at 10**6 nodes.  The two unary-11 sets agree report for report: past the
    # tail thresholds the witness bound does not count
    assert _accounting_digest(reports()) == digest


def test_evaluation_leaves_no_cyclic_garbage():
    # compiled code refers to its evaluator, never the other way round,
    # so one-shot evaluations are freed by reference counting alone
    env = standard_oracle_env()
    phi = parse_formula("∃x′(x′<#5∧(Formula(x′+(x))))∨(x′′=x)")
    gc.collect()
    for value in range(30):
        evaluate(phi, env, assignment={0: value, 2: 3})
        evaluate_full(phi, env, Budget(node_budget=3), assignment={0: 1})
        evaluate(Not(Eq(y, y)), assignment={1: value})
    at = truth_at(phi, env, Budget(node_budget=40))
    for value in range(30):
        at({0: value, 2: 3})
    del at
    defines(parse_formula("∃x′(x′+(x′)=x)"))
    assert gc.collect() == 0


def _nested(depth: int, wrap, leaf):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


def test_deep_formulas_give_unknown_not_a_traceback():
    unbounded = Budget(depth_bound=10**6)
    deep = _nested(3000, Not, Eq(x, Zero()))
    report = evaluate_full(deep, budget=unbounded, assignment={0: 0})
    assert report.truth is U and not report.budget_hit
    # quantifiers and defines must not walk the deep body either
    assert evaluate(Exists(x, deep), budget=unbounded) is U
    assert evaluate(Forall(x, deep), budget=unbounded) is U
    assert not defines(deep, budget=unbounded).exact
    for op in (Add, Mul):
        chain = _nested(3000, lambda t: op(One(), t), x)
        for phi in (Eq(chain, Zero()), Exists(x, Eq(chain, numeral(5))),
                    OracleAtom("Formula", (chain,))):
            got = evaluate_full(phi, standard_oracle_env(), unbounded,
                                assignment={0: 0})
            assert got.truth is U and not got.budget_hit
    # up to the cap the depth bound alone decides how deep evaluation goes
    at_cap = _nested(DEPTH_CAP - 2, Not, Eq(x, Zero()))
    assert evaluate(at_cap, budget=unbounded, assignment={0: 0}) is T
    assert evaluate(Not(at_cap), budget=unbounded, assignment={0: 0}) is U
    # the linear solver still reads a long chain 1+(1+(...(x)))
    chain = _nested(500, lambda t: Add(One(), t), x)
    assert evaluate(Exists(x, Eq(chain, numeral(505))), budget=unbounded) is T


def test_eval_term_refuses_deep_terms_without_recursing():
    env = standard_oracle_env()
    for wrap in (lambda t: Add(One(), t), lambda t: Mul(One(), t),
                 lambda t: OracleFun("len", (t,))):
        with pytest.raises(OracleUndecided):
            eval_term(_nested(3000, wrap, x), {0: 0}, env)
        # up to the cap the term is computed, by eval_term and by the
        # evaluator's compiled code alike
        at_cap = _nested(DEPTH_CAP - 2, wrap, x)
        assert eval_term(at_cap, {0: 1}, env) >= 1
        assert evaluate(Eq(at_cap, Zero()), env, Budget(depth_bound=10**6),
                        assignment={0: 1}) is F


_T3 = st.sampled_from(list(Truth))
_RANK = {F: 0, U: 1, T: 2}
_OF_RANK = {0: F, 1: U, 2: T}


@settings(derandomize=True, database=None, deadline=None)
@given(_T3, _T3)
def test_connectives_follow_the_strong_kleene_tables(a, b):
    # false < unknown < true; negation reverses the order
    ra, rb = _RANK[a], _RANK[b]
    assert (~a) is _OF_RANK[2 - ra]
    assert t_and(a, b) is _OF_RANK[min(ra, rb)]
    assert t_or(a, b) is _OF_RANK[max(ra, rb)]
    assert t_implies(a, b) is _OF_RANK[max(2 - ra, rb)]
    assert t_iff(a, b) is _OF_RANK[min(max(2 - ra, rb), max(2 - rb, ra))]


_VARS = st.integers(0, 2).map(Var)
_TERMS = st.recursive(
    st.one_of(st.just(Zero()), st.just(One()), _VARS,
              st.integers(2, 300).map(numeral),
              st.integers(1, 40).map(lambda k: Num(BigNat.power24(k) + 1))),
    lambda sub: st.one_of(
        st.builds(Add, sub, sub), st.builds(Mul, sub, sub),
        st.builds(lambda a: OracleFun("len", (a,)), sub),
        st.builds(lambda a: OracleFun("neg", (a,)), sub),
        st.builds(lambda a, b: OracleFun("D", (a, b)), sub, sub),
        st.builds(lambda a, b, c: OracleFun("inst", (a, b, c)),
                  sub, sub, sub)),
    max_leaves=6,
)
_VALUES = st.integers(0, 12)


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # the same exception type is what must agree
        return type(exc)
    return type(value), value


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_TERMS, st.fixed_dictionaries({0: _VALUES, 1: _VALUES},
                                     optional={2: _VALUES}))
def test_compiled_terms_agree_with_eval_term(t, asg):
    env = standard_oracle_env()
    code = _compile_term(t, env)
    expected = _outcome(lambda: eval_term(t, asg, env))
    assert _outcome(lambda: code(asg)) == expected
    assert _outcome(lambda: code(asg)) == expected  # closed parts cached


def _raises(thunk) -> bool:
    try:
        thunk()
    except (BigNatError, OracleUndecided):
        return True
    return False


# a term with v among its free variables where it has any
_TERMS_IN_V = _TERMS.flatmap(lambda t: st.tuples(
    st.just(t), st.sampled_from(sorted(t.fv) or [0, 1, 2])))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_TERMS_IN_V,
       st.fixed_dictionaries({0: _VALUES, 1: _VALUES}, optional={2: _VALUES}))
# 24**(10**7) + 5 stays in run form, as giant codes' coefficients do
@example((Add(Mul(x, Num(BigNat.power24(10**7) + 5)), y), 0), {1: 3})
def test_eval_term_reads_a_polynomial_in_v(term_in_v, asg):
    # the coefficients at w are the term's value at v = w; where the
    # reading raises, an oracle function reads v or the values raise too
    (t, v), env = term_in_v, standard_oracle_env()
    points = range(7)
    try:
        poly = eval_term(t, asg, env, v)
    except (BigNatError, OracleUndecided):
        assert any(type(s) is OracleFun and v in s.fv for s in preorder(t)) \
            or any(_raises(lambda: eval_term(t, {**asg, v: w}, env))
                   for w in points)
        return
    for w in points:
        at_w = 0
        for c in reversed(poly if type(poly) is list else [poly]):
            at_w = at_w * w + c
        assert at_w == eval_term(t, {**asg, v: w}, env)


_SMALL_TERMS = st.recursive(
    st.one_of(st.just(Zero()), st.just(One()), _VARS,
              st.integers(2, 12).map(numeral)),
    lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(Mul, sub, sub),
                          st.builds(lambda a: OracleFun("len", (a,)), sub)),
    max_leaves=3,
)
_FORMULAS = st.recursive(
    st.one_of(st.builds(Eq, _SMALL_TERMS, _SMALL_TERMS),
              st.builds(Lt, _SMALL_TERMS, _SMALL_TERMS),
              st.builds(lambda a: OracleAtom("Formula", (a,)), _SMALL_TERMS)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        *[st.builds(ctor, sub, sub) for ctor in (And, Or, Implies, Iff)],
        st.builds(Forall, _VARS, sub), st.builds(Exists, _VARS, sub)),
    max_leaves=5,
)


_RANDOM_FORMULAS = st.builds(
    lambda seed, depth: _random_formula(random.Random(seed), depth),
    st.integers(0, 10**6), st.integers(1, 4))
_ASSIGNMENTS = st.fixed_dictionaries({0: _VALUES, 1: _VALUES, 2: _VALUES})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(_RANDOM_FORMULAS, _FORMULAS),
       st.lists(_ASSIGNMENTS, min_size=1, max_size=4),
       st.sampled_from([Budget(), Budget(node_budget=7),
                        Budget(depth_bound=1)]))
def test_a_reused_handle_agrees_with_fresh_evaluations(phi, asgs, budget):
    env = standard_oracle_env()
    at = truth_at(phi, env, budget)
    for asg in asgs + asgs:
        assert at(asg) is evaluate(phi, env, budget, assignment=asg)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_FORMULAS, st.fixed_dictionaries({0: _VALUES, 1: _VALUES}),
       st.integers(1, 300), st.integers(0, 8),
       st.integers(0, 3000), st.integers(0, 24))
# values from the tail's threshold on are not charged, so a larger witness
# bound cannot run these out of nodes
@example(Forall(x, Eq(Zero(), Zero())), {0: 0, 1: 0}, 2, 0, 0, 1)
@example(Forall(x, Eq(x, x)), {0: 0, 1: 0}, 10, 2, 0, 8)
def test_larger_budgets_never_flip_a_decided_verdict(phi, asg, nodes, sweep,
                                                     more_nodes, more_sweep):
    env = standard_oracle_env()
    small = evaluate(phi, env, Budget(witness_bound=sweep, node_budget=nodes),
                     assignment=asg)
    large = evaluate(phi, env, Budget(witness_bound=sweep + more_sweep,
                                      node_budget=nodes + more_nodes),
                     assignment=asg)
    assert small is U or large is small


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_FORMULAS, st.fixed_dictionaries({0: _VALUES, 1: _VALUES}),
       st.integers(1, 100), st.integers(0, 8), st.integers(1, 64))
def test_a_larger_witness_bound_never_flips_a_decided_verdict(phi, asg, nodes,
                                                              sweep, more):
    env = standard_oracle_env()
    small = evaluate(phi, env, Budget(witness_bound=sweep, node_budget=nodes),
                     assignment=asg)
    large = evaluate(phi, env, Budget(witness_bound=sweep + more,
                                      node_budget=nodes),
                     assignment=asg)
    assert small is U or large is small


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(_RANDOM_FORMULAS, _FORMULAS), st.sampled_from([Forall, Exists]),
       st.integers(0, 3), _ASSIGNMENTS,
       st.sampled_from([Budget(), Budget(node_budget=7), Budget(depth_bound=1),
                        Budget(witness_bound=0)]))
def test_a_vacuous_quantifier_has_its_bodys_verdict(phi, ctor, k, asg, budget):
    # over the nonempty domain N, Qv φ with v not free in φ is φ; the
    # quantifier's own node and level come on top of the body's budget
    v = [i for i in range(8) if i not in phi.fv][k]
    env = standard_oracle_env()
    body = evaluate(phi, env, budget, assignment=asg)
    wrapped = evaluate(ctor(Var(v), phi), env,
                       replace(budget, node_budget=budget.node_budget + 1,
                               depth_bound=budget.depth_bound + 1),
                       assignment=asg)
    assert body is U or wrapped is body


# -- batched sweeps ----------------------------------------------------------

def _scalar_sweep(phi, var, asg, env, budget):
    """The sweep loop before batching: the compiled code once per value,
    ev.nodes read after each, the values from the one past the budget on
    UNKNOWN."""
    ev, spent, out = Evaluator(env, budget), 0, []
    at, asg = ev.compile(phi), dict(asg)
    for w in range(budget.witness_bound + 1):
        asg[var] = w
        got = at(asg)
        spent += ev.nodes
        if spent > budget.node_budget:
            return out + [U] * (budget.witness_bound + 1 - w)
        out.append(got)
    return out


def _qf_term(rng: random.Random, depth: int):
    """A term over 0, 1, x, x′ and int numerals, spelled out or as Num."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Zero(), One(), Var(rng.randrange(2)),
                           numeral(rng.randrange(2, 9)),
                           Num(rng.randrange(1, 400))])
    ctor = rng.choice([Add, Mul])
    return ctor(_qf_term(rng, depth - 1), _qf_term(rng, depth - 1))


def _qf_formula(rng: random.Random, depth: int):
    """A quantifier-free, oracle-free formula over x and x′."""
    if depth == 0 or rng.random() < 0.25:
        ctor = rng.choice([Eq, Lt])
        return ctor(_qf_term(rng, 2), _qf_term(rng, 2))
    if rng.random() < 0.25:
        return Not(_qf_formula(rng, depth - 1))
    ctor = rng.choice([And, Or, Implies, Iff])
    return ctor(_qf_formula(rng, depth - 1), _qf_formula(rng, depth - 1))


def _formula_nodes(phi) -> int:
    if type(phi) is Not:
        return 1 + _formula_nodes(phi.body)
    if type(phi) in (And, Or, Implies, Iff):
        return 1 + _formula_nodes(phi.left) + _formula_nodes(phi.right)
    return 1


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES,
       st.integers(0, 40), st.data())
def test_a_batched_sweep_equals_the_scalar_loop(seed, var, other, bound, data):
    phi = _qf_formula(random.Random(seed), 4)
    # a value visits at most the formula's connectives and atoms, so this
    # budget can cut the sweep at any value, or not at all
    nodes = data.draw(st.integers(0, _formula_nodes(phi) * (bound + 1)))
    depth = data.draw(st.sampled_from([256, 2]))
    budget = Budget(witness_bound=bound, node_budget=nodes, depth_bound=depth)
    asg = {1 - var: other}
    env = OracleEnv()
    assert _rendered(_swept(phi, var, asg, env, budget), bound + 1) == \
        _scalar_sweep(phi, var, asg, env, budget)


def _truths_at(phi, var, values, budget=None, env=None):
    """[truth_at(phi, env, budget)({var: v}) for v in values] in one
    unshared batch read, as a (TRUE, FALSE) mask pair over the positions
    of values: each value gets the whole node budget."""
    return _Batch(var, {}, values, env or OracleEnv(), budget or Budget(),
                  False).read(phi)


# value lists out of order, with repeats, and past machine words
_VALUE_LISTS = st.lists(st.one_of(st.integers(0, 40),
                                  st.integers(2**62, 2**70)), max_size=12)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES, _VALUE_LISTS,
       st.data())
def test_truths_at_equals_truth_at_per_value(seed, var, other, values, data):
    phi = substitute(_qf_formula(random.Random(seed), 4), 1 - var,
                     Num(other + 1))
    values = values + values[: data.draw(st.integers(0, len(values)))]
    # each value visits at most every node, so this can cut any of them
    nodes = data.draw(st.integers(0, _formula_nodes(phi)))
    depth = data.draw(st.sampled_from([256, 2]))
    budget = Budget(node_budget=nodes, depth_bound=depth)
    got = _truths_at(phi, var, values, budget)
    at = truth_at(phi, OracleEnv(), budget)
    assert _rendered(got, len(values)) == [at({var: v}) for v in values]


@pytest.mark.parametrize("phi", [
    OracleAtom("Tr", (x,)), Exists(y, Eq(y, x)), Exists(x, Eq(x, One())),
    Eq(x, y)],
    ids=["oracle-atom", "quantifier", "quantifier-over-the-swept-variable",
         "second-free-variable"])
def test_truths_at_reads_lane_nodes(phi):
    # each is read value by value, through its compiled code
    env = OracleEnv(atoms={"Tr": lambda a: a % 2 == 1})
    values = [3, 0, 7, 7, 2**64, 1, 40]
    at = truth_at(phi, env)
    assert _rendered(_truths_at(phi, 0, values, env=env), len(values)) == \
        [at({0: v}) for v in values]


@pytest.mark.parametrize("depth", range(5))
def test_the_batch_keeps_the_depth_bound(depth):
    # in ¬…¬(x=0), n negations deep, the atom sits n levels down, and
    # phi.height is n + 2: the batch reads it in bulk when n <= depth,
    # and as one lane node otherwise
    env, values = OracleEnv(), range(4)
    budget = Budget(witness_bound=3, depth_bound=depth)
    for n in range(6):
        for atom in (Eq(x, Zero()), Lt(x, Add(One(), One()))):
            phi = _nested(n, Not, atom)
            assert _rendered(_swept(phi, 0, {}, env, budget), 4) == \
                _scalar_sweep(phi, 0, {}, env, budget)
            at = truth_at(phi, env, budget)
            got = _truths_at(phi, 0, values, budget)
            assert _rendered(got, 4) == [at({0: v}) for v in values]


def _vacuous(rng: random.Random, phi):
    """phi with random subformulas wrapped in ∀ or ∃ over x′′ or x′′′,
    which _qf_formula never uses, so every added quantifier is vacuous."""
    if type(phi) is Not:
        phi = Not(_vacuous(rng, phi.body))
    elif type(phi) in (And, Or, Implies, Iff):
        phi = type(phi)(_vacuous(rng, phi.left), _vacuous(rng, phi.right))
    if rng.random() < 0.3:
        phi = rng.choice([Forall, Exists])(Var(rng.choice([2, 3])), phi)
    return phi


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES,
       st.integers(0, 40), st.data())
def test_a_batched_sweep_reads_vacuous_quantifiers(seed, var, other, bound,
                                                   data):
    rng = random.Random(seed)
    phi = _vacuous(rng, _qf_formula(rng, 4))
    asg = {1 - var: other}
    roomy = Budget(witness_bound=bound)  # a budget that cannot cut
    # compiled code charges a vacuous quantifier one node, so this budget
    # can cut the sweep at any value, or not at all
    nodes = data.draw(st.integers(0, _formula_nodes(phi) * (bound + 1)))
    depth = data.draw(st.sampled_from([256, 2]))
    env = OracleEnv()
    for budget in (roomy, Budget(witness_bound=bound, node_budget=nodes,
                                 depth_bound=depth)):
        assert _rendered(_swept(phi, var, asg, env, budget), bound + 1) == \
            _scalar_sweep(phi, var, asg, env, budget)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES, _VALUE_LISTS,
       st.data())
def test_truths_at_reads_vacuous_quantifiers(seed, var, other, values, data):
    rng = random.Random(seed)
    phi = _vacuous(rng, substitute(_qf_formula(rng, 4), 1 - var,
                                   Num(other + 1)))
    nodes = data.draw(st.integers(0, _formula_nodes(phi)))
    depth = data.draw(st.sampled_from([256, 2]))
    budget = Budget(node_budget=nodes, depth_bound=depth)
    got = _truths_at(phi, var, values, budget)
    at = truth_at(phi, OracleEnv(), budget)
    assert _rendered(got, len(values)) == [at({var: v}) for v in values]


def _rendered(pair, n):
    """A (TRUE, FALSE) mask pair over n values as its truths list, after
    checking that the masks are disjoint and hold no value past n."""
    true, false = pair
    assert true & false == 0 and (true | false) >> n == 0
    return [T if true >> w & 1 else F if false >> w & 1 else U
            for w in range(n)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES,
       st.integers(0, 40), st.data())
def test_the_mask_pair_equals_the_scalar_loop(seed, var, other, bound, data):
    phi = _qf_formula(random.Random(seed), 4)
    nodes = data.draw(st.integers(0, _formula_nodes(phi) * (bound + 1)))
    depth = data.draw(st.sampled_from([256, 2]))
    budget = Budget(witness_bound=bound, node_budget=nodes, depth_bound=depth)
    asg, env = {1 - var: other}, OracleEnv()
    assert _rendered(_swept(phi, var, asg, env, budget), bound + 1) == \
        _scalar_sweep(phi, var, asg, env, budget)


# the three domination formulas, which the batch reads as x′ against an
# int, and one it reads as a lane node: x′ is even
_GRAPHS = [parse_formula("x′=x+(1)"), parse_formula("x′=x+(x)"),
           parse_formula("x′=x·(x)"), Exists(w, Eq(Add(w, w), y))]


@pytest.mark.parametrize("phi", _GRAPHS, ids=render)
@pytest.mark.parametrize("nodes", [500_000, 30, 7, 0])
def test_the_mask_pair_of_a_graph_equals_the_scalar_loop(phi, nodes):
    # 30 and 7 nodes cut the 41 values of each sweep part way
    budget, env = Budget(witness_bound=40, node_budget=nodes), OracleEnv()
    for x_value in range(9):
        assert _rendered(_swept(phi, 1, {0: x_value}, env, budget), 41) == \
            _scalar_sweep(phi, 1, {0: x_value}, env, budget)


# x=c, c=x, x<c and c<x, with c a numeral, a Num, a sum or read from asg
_AGAINST = [lambda c: Eq(x, c), lambda c: Eq(c, x), lambda c: Lt(x, c),
            lambda c: Lt(c, x)]
_HOLDS = [lambda v, c: v == c, lambda v, c: c == v, lambda v, c: v < c,
          lambda v, c: c < v]


@pytest.mark.parametrize("n", [0, 1, 2, 9])
@pytest.mark.parametrize("c", [0, 1, 4, 8, 9, 10, 2**70])
def test_the_batch_reads_x_against_an_int_arithmetically(n, c):
    spellings = [Num(c), y, Add(y, Zero()), Add(Zero(), Num(c))] if c \
        else [Zero(), y, Mul(y, One())]
    for atom, holds in zip(_AGAINST, _HOLDS):
        expected = sum(1 << v for v in range(n) if holds(v, c))
        for term in spellings:
            phi = atom(term)
            # over range(0, n) the arithmetic reading, over a list the lanes
            for values in (range(n), list(range(n))):
                batch = _Batch(0, {1: c}, values, OracleEnv(), Budget(), True)
                assert batch.truths(phi, batch.full) == \
                    (expected, batch.full ^ expected)


def test_truths_at_reads_x_against_an_int_over_any_values():
    # value lists out of order, with repeats and past the constant: the
    # lane reading, value by value
    values = [7, 0, 3, 3, 12, 2**64, 1]
    for atom in _AGAINST:
        for c in (0, 3, 7, 20):
            phi = atom(Num(c) if c else Zero())
            at = truth_at(phi, OracleEnv())
            assert _rendered(_truths_at(phi, 0, values), len(values)) == \
                [at({0: v}) for v in values]


def _reference_defines(phi, env, budget):
    """defines from the scalar sweep loop and the tail alone."""
    if phi.fv - {0}:
        return DefinesReport(False, [], "extra free variables")
    swept = _scalar_sweep(phi, 0, {}, env, budget)
    solutions = [w for w, got in enumerate(swept) if got is T]
    if U in swept:
        return DefinesReport(False, solutions, "a swept value is unknown",
                             swept.index(U))
    tail = _eventual(phi, {}, env, 0)
    if tail is not None and tail[0] <= budget.witness_bound + 1:
        if tail[1] is F:
            return DefinesReport(True, solutions, "tail is false")
        if tail[1] is T:
            return DefinesReport(True, solutions + ["..."],
                                 "cofinitely many solutions")
    return DefinesReport(False, solutions, "beyond the sweep is unchecked")


@pytest.mark.parametrize("budget", [
    Budget(), Budget(node_budget=234), Budget(node_budget=10),
    Budget(witness_bound=0), Budget(depth_bound=2)],
    ids=["default", "nodes-234", "nodes-10", "one-value", "depth-2"])
def test_defines_all_equals_the_scalar_loop_over_the_catalogue(budget):
    # one batch and one tail memo over 1,442 formulas that share their
    # subformulas; the tight budgets take the count walk, through
    # vacuous quantifiers too
    formulas = list(unary_formulas(10))
    env = OracleEnv()
    got = list(defines_all(formulas, env, budget))
    assert len(got) == len(formulas) == 1442
    for phi, report in zip(formulas, got):
        assert report == _reference_defines(phi, env, budget), phi


def test_defines_all_leaves_no_cyclic_garbage():
    # the batch refers to its lane nodes' code and the code to its
    # evaluator, never back, and the tail memo to no code, so a whole
    # catalogue pass and a universe build are freed by reference
    # counting alone
    from selfref.berry import _build_universe

    gc.collect()
    list(defines_all(unary_formulas(8)))
    _build_universe.__wrapped__(8, Budget(), "length")  # past the cache
    assert gc.collect() == 0


# -- lane nodes: what the batch reads value by value -----------------------------

def _lane_env(calls=None):
    """prf, undecided where its second argument is 4 mod 5, Tr, Formula
    with a support, and len.  Where calls is given, each prf call is
    appended to it as its arguments."""
    def prf(a, b):
        if calls is not None:
            calls.append((a, b))
        if b % 5 == 4:
            raise OracleUndecided("undecided")
        return (a + b) % 3 == 1
    return OracleEnv(atoms={"prf": prf, "Tr": lambda a: a % 3 == 1,
                            "Formula": lambda a: a % 2 == 0},
                     funs={"len": lambda a: a // 2 + 1},
                     atom_supports={"Formula": 6})


def _lane_term(rng: random.Random, depth: int, bound: tuple):
    """A term over 0, 1, numerals, x, x′, the bound variables and len."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Zero(), One(), Num(rng.randrange(2, 9)),
                           *map(Var, (0, 1, *bound))])
    if rng.random() < 0.2:
        return OracleFun("len", (_lane_term(rng, depth - 1, bound),))
    return rng.choice([Add, Mul])(_lane_term(rng, depth - 1, bound),
                                  _lane_term(rng, depth - 1, bound))


def _lane_formula(rng: random.Random, depth: int, bound: tuple = (),
                  tags=None):
    """A formula over x and x′ with oracle atoms, oracle functions and
    quantifiers over x′′ and x′′′: bounded ones, vacuous ones, and
    vacuous ones over x′′′′ around a quantifier.  Each prf atom is
    prf(x, t + 1000·k) with its own k, so no two are the same node."""
    tags = tags if tags is not None else iter(range(1, 10**6))
    r = rng.random()
    if depth == 0 or r < 0.2:
        pick = rng.randrange(5)
        term = _lane_term(rng, 2, bound)
        if pick == 0:
            return OracleAtom("prf", (x, Add(term, Num(1000 * next(tags)))))
        if pick == 1:
            return OracleAtom(rng.choice(["Tr", "Formula"]), (term,))
        return rng.choice([Eq, Lt])(term, _lane_term(rng, 2, bound))
    if r < 0.3:
        return Not(_lane_formula(rng, depth - 1, bound, tags))
    if r < 0.55:
        v = rng.choice([2, 3])
        body = _lane_formula(rng, depth - 1, bound + (v,), tags)
        guard = Lt(Var(v), _lane_term(rng, 1, bound))
        q = rng.choice([Exists(Var(v), body), Forall(Var(v), body),
                        Exists(Var(v), And(guard, body)),
                        Forall(Var(v), Implies(guard, body))])
        return rng.choice([Forall, Exists])(Var(4), q) \
            if rng.random() < 0.3 else q
    ctor = rng.choice([And, Or, Implies, Iff])
    return ctor(_lane_formula(rng, depth - 1, bound, tags),
                _lane_formula(rng, depth - 1, bound, tags))


# node budgets from none at all to past every draw's sweep
_LANE_BUDGETS = st.builds(
    lambda wb, nodes, depth: Budget(witness_bound=wb, node_budget=nodes,
                                    depth_bound=depth),
    st.integers(0, 6), st.one_of(st.integers(0, 300), st.just(500_000)),
    st.sampled_from([256, 3, 1]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES,
       st.integers(0, 12), _LANE_BUDGETS)
def test_a_sweep_over_lane_nodes_equals_the_scalar_loop(seed, var, other,
                                                        bound, budget):
    phi = _lane_formula(random.Random(seed), 4)
    asg, env = {1 - var: other}, _lane_env()
    for budget in (budget, replace(budget, witness_bound=bound)):
        n = budget.witness_bound + 1
        assert _rendered(_swept(phi, var, asg, env, budget), n) == \
            _scalar_sweep(phi, var, asg, env, budget), render(phi)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES, _VALUE_LISTS,
       _LANE_BUDGETS)
def test_truths_at_over_lane_nodes_equals_truth_at_per_value(
        seed, var, other, values, budget):
    phi = substitute(_lane_formula(random.Random(seed), 4), 1 - var,
                     Num(other + 1))
    env = _lane_env()
    at = truth_at(phi, env, budget)
    assert _rendered(_truths_at(phi, var, values, budget, env),
                     len(values)) == [at({var: v}) for v in values]


def test_a_vacuous_quantifier_over_a_lane_node_is_one_lane_node():
    # at x = 0 the tail settles ∀x′′′(x=0 ∨ ∃x′′(x′′·x′′=x)) in one
    # node; elsewhere the ∀ runs its body once, ∃ and all, so reading it
    # as its body, at one node a value, would cut the sweep late
    phi = Forall(Var(3), Or(Eq(x, Zero()), Exists(w, Eq(Mul(w, w), x))))
    env = OracleEnv()
    budget = Budget(witness_bound=40, node_budget=40)
    scalar = _scalar_sweep(phi, 0, {}, env, budget)
    assert scalar[:4] == [T, T, F, F] and U in scalar[:10]
    assert _rendered(_swept(phi, 0, {}, env, budget), 41) == scalar
    values = list(range(12))
    for nodes in (1, 5, 12, 40):
        budget = Budget(node_budget=nodes)
        at = truth_at(phi, env, budget)
        assert _rendered(_truths_at(phi, 0, values, budget), 12) == \
            [at({0: v}) for v in values]


def _scalar_cut(phi, var, asg, env, budget) -> int:
    """The value at which _scalar_sweep's nodes in all exceed the
    budget, or witness_bound + 1 where they never do."""
    ev, spent = Evaluator(env, budget), 0
    at, asg = ev.compile(phi), dict(asg)
    for w in range(budget.witness_bound + 1):
        asg[var] = w
        at(asg)
        spent += ev.nodes
        if spent > budget.node_budget:
            return w
    return budget.witness_bound + 1


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), _VALUES, _LANE_BUDGETS)
def test_lane_nodes_run_only_where_compiled_code_runs_them(seed, other,
                                                          budget):
    # prf(x, t) records the swept value x at each call: below the
    # scalar loop's cut the batch makes the scalar loop's calls, and
    # past it only a lane node's own budget stops its runs
    phi = _lane_formula(random.Random(seed), 4)
    asg, batch_calls, scalar_calls = {1: other}, [], []
    _swept(phi, 0, asg, _lane_env(batch_calls), budget)
    _scalar_sweep(phi, 0, asg, _lane_env(scalar_calls), budget)
    cut = _scalar_cut(phi, 0, asg, _lane_env(), budget)

    def below(calls):
        return sorted(c for c in calls if c[0] < cut)
    assert below(batch_calls) == below(scalar_calls), render(phi)
    if cut > budget.witness_bound:  # no cut: the same calls
        assert sorted(batch_calls) == sorted(scalar_calls)


def _has_lane_quantifier(phi) -> bool:
    return any(type(node) in (Exists, Forall)
               and node.var.index in node.body.fv for node in preorder(phi))


@functools.lru_cache(maxsize=1)
def _quantifier_catalogue() -> tuple:
    """The formulas of the length-14 catalogue that hold a quantifier
    over its variable: all that catalogue's lane formulas."""
    return tuple(filter(_has_lane_quantifier, unary_formulas(13)))


@pytest.mark.parametrize("budget", [
    Budget(), Budget(node_budget=234), Budget(node_budget=10),
    Budget(witness_bound=0), Budget(depth_bound=2)],
    ids=["default", "nodes-234", "nodes-10", "one-value", "depth-2"])
def test_defines_all_equals_the_scalar_loop_over_quantifier_formulas(budget):
    # the catalogue's lane formulas through one batch, which runs each of
    # their shared lane nodes once a value
    formulas, env = _quantifier_catalogue(), OracleEnv()
    assert len(formulas) == 1880
    for phi, report in zip(formulas, defines_all(formulas, env, budget)):
        assert report == _reference_defines(phi, env, budget), phi


# -- long quantifier sweeps, read in bulk --------------------------------------------

def _existential_paths(phi, path=()):
    """The tree paths of phi's existential nodes, left to right."""
    if type(phi) is Exists:
        yield path
    if type(phi) in (Not, Exists, Forall):
        yield from _existential_paths(phi.body, path + (0,))
    elif type(phi) in (And, Or, Implies, Iff):
        yield from _existential_paths(phi.left, path + (0,))
        yield from _existential_paths(phi.right, path + (1,))


def _cuts(nodes: int, *points: int) -> list:
    """Node budgets that cut an evaluation of nodes in all one before, at
    and one after each of points and its end, and at sixteenths of it."""
    out = {nodes * k // 16 for k in range(1, 16)}
    for point in (nodes, *points):
        out.update((point - 1, point, point + 1))
    return sorted(b for b in out if b >= 0)


def _berry_direct_reports():
    """The six direct evaluations of both Berry reports at the length-10
    universe: each at node budgets that cut its first α sweep one before,
    at and one after its first stop value (or its end), and throughout."""
    from selfref import berry

    universe = berry.micro_universe(10)
    for upsilon in (berry.truth_oracle_property(), Not(Eq(x, x))):
        bundle = berry.build_bundle(upsilon)
        report = berry.berry_contradiction_report(bundle, universe)
        pure = berry.micro_env(universe)
        closed = berry.micro_env(universe, bundle)
        sweep = berry._sweep_budget(universe, universe.budget, bundle)
        six_ell, bval = 6 * bundle.ell, report.berry_value
        focus = report.uniqueness.extensions[six_ell][0]

        def at(phi, n, bound):
            return substitute(substitute(phi, 0, numeral(n)), 1,
                              numeral(bound))
        b_at = substitute(bundle.b_formula, 0, numeral(bval))
        inner = at(bundle.def_formula, bval, six_ell)
        # each formula and env, its first α sweep alone, and the nodes
        # compiled code visits before that sweep starts
        runs = [(at(bundle.berry_formula, n, bound), pure,
                 at(bundle.def_formula, n, bound), 2)
                for n, bound in ((focus, six_ell), (focus + 1, six_ell),
                                 (0, universe.max_len))]
        runs += [(b_at, pure, inner, 5), (inner, closed, inner, 0),
                 (b_at, closed, inner, 5)]
        for phi, env, first, before in runs:
            whole = evaluate_full(phi, env, sweep).nodes_used
            stop = before + evaluate_full(first, env, sweep).nodes_used
            for nodes in _cuts(whole, stop):
                yield evaluate_full(phi, env,
                                    replace(sweep, node_budget=nodes))


def _graph_point_reports():
    """domination's graph formula over Tr at the six graph points and
    their neighbours, whole and under budgets that cut it throughout."""
    from selfref import domination

    env = domination.micro_domination_env()
    graph = domination.build_psi(OracleAtom("Tr", (x,))).graph
    for u in range(6):
        fx = domination.F_fixed_input(u)
        for v in (fx - 1, fx, fx + 1):
            whole = evaluate_full(graph, env, assignment={0: u, 1: v})
            yield whole
            for nodes in _cuts(whole.nodes_used)[::3]:
                yield evaluate_full(graph, env, Budget(node_budget=nodes),
                                    assignment={0: u, 1: v})


def _sweep_term(rng: random.Random, depth: int, bound: tuple):
    """A term over 0, 1, numerals, x, x′ and the bound variables."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Zero(), One(), Num(rng.randrange(2, 9)),
                           *map(Var, (0, 1, *bound))])
    return rng.choice([Add, Mul])(_sweep_term(rng, depth - 1, bound),
                                  _sweep_term(rng, depth - 1, bound))


def _sweep_formula(rng: random.Random, depth: int, bound: tuple = (),
                   tags=None):
    """A formula as _lane_formula draws them, whose atoms are mostly
    oracle-free, now and then ¬(t = t) or t < t over a len term (which
    call len yet never hold) or a prf atom of its own."""
    tags = tags if tags is not None else iter(range(1, 10**6))
    r = rng.random()
    if depth == 0 or r < 0.2:
        term = _sweep_term(rng, 2, bound)
        pick = rng.randrange(8)
        if pick == 0:
            return OracleAtom("prf", (x, Add(term, Num(1000 * next(tags)))))
        if pick == 1:
            fixed = OracleFun("len", (term,))
            return rng.choice([Not(Eq(fixed, fixed)), Lt(fixed, fixed)])
        return rng.choice([Eq, Lt])(term, _sweep_term(rng, 2, bound))
    if r < 0.3:
        return Not(_sweep_formula(rng, depth - 1, bound, tags))
    if r < 0.5:
        v = rng.choice([2, 3])
        body = _sweep_formula(rng, depth - 1, bound + (v,), tags)
        guard = Lt(Var(v), _sweep_term(rng, 1, bound))
        return rng.choice([Exists(Var(v), body), Forall(Var(v), body),
                           Exists(Var(v), And(guard, body)),
                           Forall(Var(v), Implies(guard, body))])
    return rng.choice([And, Or, Implies, Iff])(
        _sweep_formula(rng, depth - 1, bound, tags),
        _sweep_formula(rng, depth - 1, bound, tags))


def _lane_formula_reports():
    """300 draws under a quantifier over x′′ or x′′′ that their body
    reads: every other one a _lane_formula, the rest a _sweep_formula;
    each under three drawn witness maps and tight depth and node bounds,
    with witness bounds past the values a quantifier runs in its loop."""
    env = _lane_env()
    for seed in range(300):
        rng = random.Random(seed)
        v = rng.choice([2, 3])
        body = (_lane_formula if seed % 2 else _sweep_formula)(rng, 4, (v,))
        phi = rng.choice([Exists, Forall])(Var(v), body)
        asg = {0: rng.randrange(12), 1: rng.randrange(12)}
        paths = list(_existential_paths(phi))
        for _ in range(3):
            witnesses = {p: rng.randrange(8) for p in paths
                         if rng.random() < 0.3}
            budget = Budget(witness_bound=rng.choice([12, 150, 300]),
                            node_budget=rng.choice([30, 300, 3000, 40_000]),
                            depth_bound=rng.choice([1, 2, 3, 4, 6, 256]))
            yield evaluate_full(phi, env, budget, witnesses, asg)


@pytest.mark.parametrize("reports, digest", [
    (_berry_direct_reports, 
     "f7913d41def424890efba2ef3c4cb01bc1d762f18ac3d42853deb0f17f786d07"),
    (_graph_point_reports, 
     "bb0f3587bb0ef95cab484bebfc694dea1b4401941d295ebea6833fb9cb5d6fed"),
    (_lane_formula_reports, 
     "c477c2b1d52dd01d57bf195ca3f86c83480cb990a934e741d09a07a9247e65eb"),
], ids=["berry-direct", "graph-points", "lane-formulas"])
def test_batched_quantifier_accounting_is_pinned(reports, digest):
    # (truth, nodes_used, budget_hit) of each evaluation, pinned with every
    # quantifier run by the loop value by value: a long sweep read in
    # bulk charges the loop's nodes up to its first stop value and runs
    # out of nodes where the loop does
    assert _accounting_digest(reports()) == digest


def _counting_env(calls: Counter, env=None):
    """env (_lane_env unless given), with its functions and oracle atoms
    counting their calls into calls, by name and arguments."""
    env = env or _lane_env()

    def count(name, fn):
        def run(*args):
            calls[name, args] += 1
            return fn(*args)
        return run
    return OracleEnv(atoms={n: count(n, f) for n, f in env.atoms.items()},
                     funs={n: count(n, f) for n, f in env.funs.items()},
                     atom_supports=dict(env.atom_supports))


def test_a_never_true_sweep_calls_its_oracles_at_every_value():
    # ∃x′′(Formula(x′′) ∧ ¬(len(x′′) = len(x′′))) never stops: the loop
    # runs all its values and calls Formula at each, and len twice at
    # each where Formula holds
    phi = Exists(w, And(OracleAtom("Formula", (w,)),
                        Not(Eq(OracleFun("len", (w,)),
                               OracleFun("len", (w,))))))
    calls = Counter()
    env = _counting_env(calls)
    env.atom_supports.pop("Formula")
    report = evaluate_full(phi, env, Budget(witness_bound=1000))
    # UNKNOWN: a sweep to the witness bound leaves the values past it open
    assert report.truth is U
    assert calls == Counter({**{("Formula", (a,)): 1 for a in range(1001)},
                             **{("len", (a,)): 2 for a in range(0, 1001, 2)}})


def _undecided_env(undecided=lambda a: a % 7 == 3):
    """_lane_env, with len undecided at each argument undecided holds at."""
    env = _lane_env()
    length = env.funs["len"]

    def partial(a):
        if undecided(a):
            raise OracleUndecided("undecided")
        return length(a)
    env.funs["len"] = partial
    return env


def test_a_term_over_a_failed_term_fails_where_it_does():
    # len(x) fails at 3, 10, ..., and with it len(x)+1 and the atom over
    # it, which is UNKNOWN there and not FALSE
    env, budget = _undecided_env(), Budget(witness_bound=20)
    phi = Eq(Add(OracleFun("len", (x,)), One()), Num(5))
    swept = _scalar_sweep(phi, 0, {}, env, budget)
    assert swept[3] is swept[10] is U and swept[6] is T
    assert _rendered(_swept(phi, 0, {}, env, budget), 21) == swept
    assert defines(phi, env, budget).undecided == 3


def test_an_oracle_function_of_a_failed_term_is_not_called():
    # len(len(x)+1) fails where len(x) does, with no call of len on the
    # failure
    env, budget = _undecided_env(), Budget(witness_bound=20)
    phi = Eq(OracleFun("len", (Add(OracleFun("len", (x,)), One()),)), x)
    assert defines(phi, env, budget) == _reference_defines(phi, env, budget)


def test_a_bulk_sweep_is_unknown_where_a_term_fails():
    # len is undecided only past the loop's first values, at 500 and up:
    # ∀x′′(x′′<1000 → len(x′′)+1 = len(x′′)+1) is UNKNOWN
    env = _undecided_env(lambda a: a >= 500 and a % 7 == 3)
    term = Add(OracleFun("len", (w,)), One())
    phi = Forall(w, Implies(Lt(w, Num(1000)), Eq(term, term)))
    assert evaluate_full(phi, env).truth is U


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), _VALUES, _VALUE_LISTS,
       _LANE_BUDGETS)
def test_bulk_reads_of_undecided_terms_equal_the_loop(
        seed, var, other, values, budget):
    # len undecided at some arguments fails in the lane nodes over it:
    # the shared sweep and the unshared batch read give the loop's truths
    rng = random.Random(seed)
    draw = _lane_formula if seed % 2 else _sweep_formula
    phi, env = draw(rng, 4), _undecided_env()
    asg = {1 - var: other}
    assert _rendered(_swept(phi, var, asg, env, budget),
                     budget.witness_bound + 1) == \
        _scalar_sweep(phi, var, asg, env, budget), render(phi)
    phi = substitute(phi, 1 - var, Num(other + 1))
    at = truth_at(phi, env, budget)
    assert _rendered(_truths_at(phi, var, values, budget, env),
                     len(values)) == [at({var: v}) for v in values]
