"""Dominating bounds over the micro catalogue of definable functions.

Expected values are hand-derived from the catalogue semantics before the
module existed: the three catalogue formulas define f0(u) = u+1,
f1(u) = 2u, f2(u) = u*u, so the single-enumeration bound at x is
1 + max of f_a(x) over codes a <= x and the double-enumeration bound
also ranges over inputs u <= x.
"""
import pytest

from selfref.semantics import Budget, OracleEnv, Truth, _swept, evaluate
from selfref.syntax import (Add, And, Eq, Exists, Forall, Implies, Lt, Mul,
                            Not, One, OracleAtom, OracleFun, Var, Zero,
                            free_vars, render, substitute)
from selfref.domination import (DefinedFunction, MicroScheme, NotOneFree,
                                PsiBundle, Unknown, UnresolvedPoint,
                                F_fixed_input, F_kotlarski, build_psi,
                                defined_function, dominates_check,
                                micro_domination_env, micro_scheme,
                                _witness_scan)

from .test_semantics import _rendered

U, V = Var(0), Var(1)

SUCC = Eq(V, Add(U, One()))          # f0: v = u+1
DOUBLE = Eq(V, Add(U, U))            # f1: v = u+u
SQUARE = Eq(V, Mul(U, U))            # f2: v = u*u


# -- the catalogue --------------------------------------------------------------------

def test_micro_scheme_contents():
    scheme = micro_scheme()
    assert scheme.formulas == (SUCC, DOUBLE, SQUARE)
    assert [render(phi) for phi in scheme.formulas] == [
        "x′=x+(1)", "x′=x+(x)", "x′=x·(x)"]


def test_micro_scheme_is_cached():
    assert micro_scheme() is micro_scheme()


def test_micro_scheme_validation():
    with pytest.raises(ValueError):
        MicroScheme((SUCC, SUCC))                      # not injective
    with pytest.raises(ValueError):
        MicroScheme((Eq(U, U),))                       # v is missing
    with pytest.raises(ValueError):
        MicroScheme((Eq(Var(1), Var(2)),))             # u is missing


def test_micro_scheme_lookup():
    scheme = micro_scheme()
    assert scheme.formula(2) == SQUARE
    assert len(scheme.formulas) == 3


# -- the single-enumeration bound ------------------------------------------------------

def test_fixed_input_bound_values():
    # 1 + max of f_a(x) over a <= min(x, 2), worked out by hand
    for x, expected in [(0, 2), (1, 3), (2, 5), (3, 10), (4, 17), (5, 26)]:
        assert F_fixed_input(x) == expected


def test_fixed_input_unresolved_beyond_witness_bound():
    # f2(9) = 81 exceeds the default witness bound of 64
    got = F_fixed_input(9)
    assert isinstance(got, Unknown)
    assert F_fixed_input(9, budget=Budget(witness_bound=100)) == 82


def test_fixed_input_vacuous_is_zero():
    # v+1 = u has no witness at u = 0, so the constraint set is empty
    partial = MicroScheme((Eq(Add(V, One()), U),))
    assert F_fixed_input(0, scheme=partial) == 0
    assert F_kotlarski(0, scheme=partial) == 0
    # at u = 3 the witness is v = 2
    assert F_fixed_input(3, scheme=partial) == 3


def test_fixed_input_budget_stability():
    for x in range(6):
        resolved = F_fixed_input(x)
        for bound in (64, 128, 256):
            assert F_fixed_input(x, budget=Budget(witness_bound=bound)) \
                == resolved


# -- the double-enumeration bound ------------------------------------------------------

def test_kotlarski_bound_values():
    for x, expected in [(0, 2), (1, 3), (2, 5), (3, 10), (5, 26)]:
        assert F_kotlarski(x) == expected


def test_kotlarski_single_formula_catalogue():
    only_succ = MicroScheme((SUCC,))
    assert F_kotlarski(3, scheme=only_succ) == 5
    assert F_fixed_input(3, scheme=only_succ) == 5
    assert F_kotlarski(0, scheme=only_succ) == F_fixed_input(0,
                                                             scheme=only_succ)


def test_kotlarski_at_least_fixed_input():
    for x in range(7):
        k, p = F_kotlarski(x), F_fixed_input(x)
        assert isinstance(k, int) and isinstance(p, int)
        assert k >= p


# -- verified function graphs ----------------------------------------------------------

def test_defined_function_samples():
    f0 = defined_function(micro_scheme(), 0, up_to=20)
    assert isinstance(f0, DefinedFunction)
    assert f0.micro_code == 0
    assert f0.samples == tuple((m, m + 1) for m in range(21))


def test_defined_function_needs_budget():
    # f2(9) = 81 is out of reach of the default sweep
    got = defined_function(micro_scheme(), 2, up_to=10)
    assert isinstance(got, Unknown)
    wide = Budget(witness_bound=128)
    f2 = defined_function(micro_scheme(), 2, up_to=10, budget=wide)
    assert f2.samples[10] == (10, 100)


def test_defined_function_rejects_relations():
    # u < v has many witnesses per input: not a function graph
    relation = MicroScheme((Lt(U, V),))
    with pytest.raises(ValueError):
        defined_function(relation, 0, up_to=3)


# -- domination ------------------------------------------------------------------------

def test_domination_over_the_window():
    wide = Budget(witness_bound=2700)
    scheme = micro_scheme()
    f_values = {x: F_kotlarski(x, budget=wide) for x in range(51)}
    for code in range(3):
        fn = defined_function(scheme, code, up_to=50, budget=wide)
        assert dominates_check(f_values, fn, 0, 50) is True


def test_domination_window_respects_micro_code():
    # below the function's own code the comparison is not required:
    # give F a value that loses at x=0 but the window starts at code 1
    scheme = micro_scheme()
    wide = Budget(witness_bound=300)
    f1 = defined_function(scheme, 1, up_to=10, budget=wide)
    f_values = {x: F_kotlarski(x, budget=wide) for x in range(11)}
    f_values[0] = 0
    assert dominates_check(f_values, f1, 0, 10) is True


def test_domination_failure_detected():
    scheme = micro_scheme()
    f0 = defined_function(scheme, 0, up_to=5)
    flat = {x: 2 for x in range(6)}
    assert dominates_check(flat, f0, 0, 5) is False


def test_domination_unresolved_points():
    scheme = micro_scheme()
    f0 = defined_function(scheme, 0, up_to=5)
    gapped = {x: 100 for x in range(6) if x != 3}
    with pytest.raises(UnresolvedPoint) as err:
        dominates_check(gapped, f0, 0, 5)
    assert err.value.x == 3
    unresolved = {x: Unknown("out of budget") for x in range(6)}
    with pytest.raises(UnresolvedPoint):
        dominates_check(unresolved, f0, 0, 5)
    with pytest.raises(UnresolvedPoint) as err:
        dominates_check({x: 100 for x in range(6)}, f0, 0, 9)
    assert err.value.x == 6


# -- the defining formula --------------------------------------------------------------

def _upsilon():
    return OracleAtom("Tr", (Var(0),))


def test_build_psi_shape():
    bundle = build_psi(_upsilon())
    assert isinstance(bundle, PsiBundle)
    u, v, alpha, z, w = Var(0), Var(1), Var(2), Var(3), Var(4)
    code = OracleFun("inst", (alpha, u, z))
    some = Exists(z, OracleAtom("Tr", (code,)))
    below = Exists(z, And(Lt(z, v), OracleAtom("Tr", (code,))))
    per_alpha = Implies(OracleAtom("Formula", (alpha,)),
                        Implies(some, below))
    psi = Forall(alpha, Implies(Lt(alpha, Add(u, One())), per_alpha))
    assert bundle.psi == psi
    graph_tail = Forall(w, Implies(Lt(w, v), Not(substitute(psi, 1, w))))
    assert bundle.graph == And(psi, graph_tail)
    assert free_vars(bundle.psi) == {0, 1}
    assert free_vars(bundle.graph) == {0, 1}


def test_build_psi_rejects_wrong_arity():
    with pytest.raises(NotOneFree):
        build_psi(Eq(Var(0), Var(1)))
    with pytest.raises(NotOneFree):
        build_psi(Eq(Zero(), Zero()))


def test_micro_env_judges_instances():
    env = micro_domination_env()
    # Tr(inst(0, 4, 5)) says formula 0 holds at (4, 5): 5 = 4+1
    def at(code, m, n):
        term = OracleFun("inst", (Var(0), Var(1), Var(2)))
        phi = OracleAtom("Tr", (term,))
        return evaluate(phi, env, assignment={0: code, 1: m, 2: n})
    assert at(0, 4, 5) is Truth.TRUE
    assert at(0, 4, 6) is Truth.FALSE
    assert at(2, 5, 25) is Truth.TRUE
    assert at(2, 5, 24) is Truth.FALSE
    # out-of-catalogue codes judge plain false
    assert at(7, 1, 1) is Truth.FALSE


def test_graph_certifies_the_bound():
    env = micro_domination_env()
    bundle = build_psi(_upsilon())
    for x in range(6):
        fx = F_fixed_input(x)
        got = evaluate(bundle.graph, env, assignment={0: x, 1: fx})
        assert got is Truth.TRUE, (x, fx, got)


def test_graph_rejects_other_values():
    env = micro_domination_env()
    bundle = build_psi(_upsilon())
    fx = F_fixed_input(3)
    too_low = evaluate(bundle.graph, env, assignment={0: 3, 1: fx - 1})
    too_high = evaluate(bundle.graph, env, assignment={0: 3, 1: fx + 1})
    assert too_low is Truth.FALSE
    assert too_high is Truth.FALSE


# -- the witness scan against its list reading ----------------------------------------


def _listed_scan(phi, x, budget):
    """_witness_scan read off the sweep's truths list."""
    swept = _rendered(_swept(phi, 1, {0: x}, OracleEnv(), budget),
                      budget.witness_bound + 1)
    if Truth.UNKNOWN in swept:
        return (None, False, False)
    if Truth.TRUE in swept:
        return (swept.index(Truth.TRUE), swept.count(Truth.TRUE) > 1, False)
    anywhere = evaluate(Exists(V, phi), budget=budget, assignment={0: x})
    return (None, False, anywhere is Truth.FALSE)


@pytest.mark.parametrize("budget", [
    Budget(witness_bound=2700), Budget(witness_bound=5),
    Budget(witness_bound=2700, node_budget=1000)],
    ids=["kotlarski", "narrow", "cut"])
def test_the_witness_scan_equals_its_list_reading(budget):
    # the cut budget runs out at output 1,000 of each sweep: below it a
    # witness shows, yet the scan stays inconclusive
    for phi in (*micro_scheme().formulas, Eq(V, Add(V, U))):
        for x in range(51):
            assert _witness_scan.__wrapped__(phi, x, budget) == \
                _listed_scan(phi, x, budget), (render(phi), x)
