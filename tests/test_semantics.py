"""Exactness and honesty of the bounded evaluator."""

from __future__ import annotations

import pytest

from selfref.bignat import BigNat
from selfref.parser import parse_formula
from selfref.semantics import (
    Budget, DefinesReport, OracleEnv, OracleUndecided, Truth, defines,
    evaluate, evaluate_full, eval_term,
    standard_oracle_env, t_and, t_iff, t_implies, t_or,
)
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Implies, Lt, Mul, Not, Num, One,
    OracleAtom, Or, Var, Zero, numeral,
)
from selfref import coding

T, F, U = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN
x, y, w = Var(0), Var(1), Var(2)


def test_kleene_tables():
    assert t_and(T, U) is U and t_and(F, U) is F
    assert t_or(T, U) is T and t_or(F, U) is U
    assert t_implies(F, U) is T and t_implies(U, F) is U
    assert t_iff(T, U) is U and (~U) is U and (~T) is F


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


def test_bounded_quantifiers_are_exact():
    phi = parse_formula("∀x(x<#5→(x<#6))")
    assert evaluate(phi) is T
    psi = parse_formula("∃x(x<#5∧(x+(x)=#8))")
    assert evaluate(psi) is T
    chi = parse_formula("∃x(x<#3∧(x+(x)=#8))")
    assert evaluate(chi) is F


def test_linear_solver_beyond_sweep():
    # 2v = 10**9: the witness is far outside any sweep
    big = numeral(10**9)
    phi = Exists(x, Eq(Add(x, x), big))
    assert evaluate(phi, budget=Budget(witness_bound=4)) is T
    odd = Exists(x, Eq(Add(x, x), numeral(10**9 + 1)))
    assert evaluate(odd, budget=Budget(witness_bound=4)) is F


def test_linear_solver_on_run_forms():
    n_even = Num(BigNat.power24(10**12))  # 24**k is even
    assert evaluate(Exists(x, Eq(Add(x, x), n_even))) is T
    n_odd = Num(BigNat.power24(10**12) + 1)
    assert evaluate(Exists(x, Eq(Add(x, x), n_odd))) is F


def test_tail_analysis():
    # all y: y < y+1, exact by the eventual sign of the difference
    assert evaluate(Forall(x, Lt(x, Add(x, One())))) is T
    # no y with y*y = 2
    assert evaluate(Exists(x, Eq(Mul(x, x), numeral(2)))) is F
    # some y with y*y = 25, found by sweeping
    assert evaluate(Exists(x, Eq(Mul(x, x), numeral(25)))) is T
    # y*y = big square: degree 2 is past the solver, sweep cannot reach,
    # and the tail cannot bound huge coefficients: honest unknown
    assert evaluate(Exists(x, Eq(Mul(x, x), numeral(10**8)))) is U


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


def test_witnessed_existentials():
    phi = Exists(x, Eq(Mul(x, x), numeral(10**8)))
    assert evaluate(phi, witnesses={(): 10**4}) is T
    assert evaluate(phi, witnesses={(): 10**4 + 1}) is F


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
    phi = parse_formula("∃x′(x′+(x′)=x)")  # even numbers
    report = defines(phi, universe=10)
    assert report.solutions == [0, 2, 4, 6, 8]
    assert report.exact


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


def test_d_of_rejects_junk():
    env = standard_oracle_env()
    assert env.funs["D"](24, 5) == 0  # zero digit: not a code
    closed = coding.encode(parse_formula("0=0"))
    assert env.funs["D"](closed, 5) == 0  # no free variable
