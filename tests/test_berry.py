"""Length-bounded definability and the shortest-description clash.

Expected constants below were frozen from independent scans before the
module existed: the micro definability facts came from sweeping
`defines` over the raw enumeration (universe sizes 10/172/4110 at
length bounds 4/8/12, least undefinable values 2/3/4), and the bundle
lengths come from token arithmetic done by hand: with L the token
count of the normalized property and k its variable-occurrence count,
the inner comparison formula costs 2L + 16k + 80 tokens and the outer
sentence 32 + 5*ell.
"""

import hashlib
import random
import tracemalloc
from collections import Counter

import pytest

from selfref.berry import (
    FormulaFacts,
    _DefTable,
    _build_universe,
    _describe_status,
    BerryBundle,
    BudgetInsufficient,
    berry_contradiction_report,
    build_bundle,
    length_audit,
    least_undefinable,
    micro_env,
    micro_universe,
    pigeonhole_duplicate,
    syntactic_tarski_experiment,
    truth_oracle_property,
)
from selfref.parser import parse_formula
from selfref.semantics import (
    Budget, OracleEnv, Truth, defines, evaluate, evaluate_full,
    statement_code, t_or, truth_at,
)
from selfref.syntax import (
    Add, Eq, Exists, Lt, Mul, Not, Num, OracleAtom, Var, Zero, free_vars,
    length, numeral, render, substitute,
)

EVERYTHING_TRUE = Eq(Var(0), Var(0))
NOTHING_TRUE = Not(Eq(Var(0), Var(0)))
PARITY = Exists(Var(2), Eq(Add(Var(2), Var(2)), Var(0)))
BELOW_FIVE = Lt(Var(0), numeral(5))

CORPUS = [
    (EVERYTHING_TRUE, 122),
    (NOTHING_TRUE, 128),
    (truth_oracle_property(), 106),
    (PARITY, 144),
    (BELOW_FIVE, 136),
]


# -- bundle construction -----------------------------------------------------

def test_bundle_shape_everything_true():
    b = build_bundle(EVERYTHING_TRUE)
    assert free_vars(b.def_formula) == {0, 1}
    assert free_vars(b.berry_formula) == {0, 1}
    assert free_vars(b.b_formula) == {0}
    assert b.ell == 122
    assert b.q_term == Mul(numeral(6), numeral(122))


def test_berry_formula_rendering():
    b = build_bundle(EVERYTHING_TRUE)
    def_u = "∃x′′′(Formula(x′′′)∧(len(x′′′)<x′)∧(D(x′′′,x)=D(x′′′,x)))"
    def_w = "∃x′′′(Formula(x′′′)∧(len(x′′′)<x′)∧(D(x′′′,x′′)=D(x′′′,x′′)))"
    assert render(b.berry_formula) == \
        "¬(" + def_u + ")∧(∀x′′(x′′<x→(" + def_w + ")))"
    text = render(b.b_formula)
    # numerals nest to the right: 6 is 1+(1+(1+(1+(1+(1)))))
    assert text.startswith("∃x′(x′=1+(1+(1+(1+(1+(1)))))·(")
    assert text.endswith(")))))")
    assert parse_formula(render(b.berry_formula)) == b.berry_formula
    assert parse_formula(text) == b.b_formula


def test_bundle_lengths_across_corpus():
    for upsilon, ell in CORPUS:
        b = build_bundle(upsilon)
        assert b.ell == ell
        assert length(b.berry_formula) == ell
        assert length(b.b_formula) == 32 + 5 * ell
        assert length(b.b_formula) < 6 * ell
        assert b.ell > 24


def test_bundle_rejects_wrong_free_variable_count():
    with pytest.raises(ValueError):
        build_bundle(Eq(Zero(), Zero()))
    with pytest.raises(ValueError):
        build_bundle(Eq(Var(0), Var(1)))


def test_length_audit_fields():
    audit = length_audit(build_bundle(EVERYTHING_TRUE))
    assert audit.b_length == 642
    assert audit.six_ell == 732
    assert audit.bound_holds
    assert audit.compact_estimate == 24 + 5 * 122
    assert not audit.matches_compact_estimate
    # any accounting with L > 24 makes the compact estimate obey the bound
    assert all(24 + 5 * n < 6 * n for n in range(25, 200))


def test_bundle_construction_is_deterministic():
    a = build_bundle(PARITY)
    b = build_bundle(PARITY)
    assert a.b_formula == b.b_formula
    assert a.q_term == b.q_term


# -- micro universes ---------------------------------------------------------

def test_micro_universe_small_scale():
    u = micro_universe(4)
    assert len(u.formulas) == 10
    assert least_undefinable(u) == 2
    definers = Counter(f.defines for f in u.facts)
    assert definers[0] == 3 and definers[1] == 2
    assert definers[2] == 0


def test_micro_universe_medium_scale():
    u = micro_universe(8)
    assert len(u.formulas) == 172
    assert least_undefinable(u) == 3
    counts = Counter(f.defines for f in u.facts if f.defines is not None)
    assert counts == {0: 43, 1: 18, 2: 2}


def test_micro_universe_enumeration_is_exhaustive():
    from selfref.enumeration import formulas_of_length
    from selfref.syntax import free_vars as fv

    u = micro_universe(8)
    recount = sum(
        1
        for n in range(3, 8)
        for phi in formulas_of_length(n)
        if fv(phi) == {0}
    )
    assert recount == len(u.formulas)


def test_least_undefinable_is_order_invariant():
    straight = micro_universe(8)
    shuffled = micro_universe(8, order="shuffled")
    assert shuffled.formulas != straight.formulas
    assert sorted(map(render, shuffled.formulas)) == \
        sorted(map(render, straight.formulas))
    assert least_undefinable(shuffled) == least_undefinable(straight) == 3


def test_least_undefinable_monotone_in_expressive_power():
    assert least_undefinable(micro_universe(4)) <= \
        least_undefinable(micro_universe(8))


def test_least_undefinable_short_horizon_is_honest():
    u = micro_universe(8, budget=Budget(witness_bound=2))
    with pytest.raises(BudgetInsufficient):
        least_undefinable(u)


def test_a_decided_least_undefinable_does_not_move_with_the_node_budget():
    # at node budget 0 no swept value is decided, so nothing is undescribed
    decided = set()
    for nodes in (0, 2000, Budget().node_budget):
        try:
            decided.add(least_undefinable(
                micro_universe(10, Budget(node_budget=nodes))))
        except BudgetInsufficient:
            pass
    assert decided == {3}


def _facts_of_report(i, phi, report):
    """A formula's facts read off its defines report, with the solutions
    list as a mask."""
    ints = [s for s in report.solutions if s != "..."]
    cofinite = "..." in report.solutions
    pinned = report.exact and not cofinite and len(ints) == 1
    return FormulaFacts(
        index=i, formula=phi, length=length(phi),
        solutions=sum(1 << s for s in ints), exact=report.exact,
        cofinite=cofinite, defines=ints[0] if pinned else None,
        undecided=report.undecided)


@pytest.mark.parametrize("budget", [
    Budget(), Budget(node_budget=234), Budget(node_budget=10),
    Budget(witness_bound=0), Budget(depth_bound=2)],
    ids=["default", "nodes-234", "nodes-10", "one-value", "depth-2"])
def test_universe_facts_equal_the_defines_reports(budget):
    universe = _build_universe.__wrapped__(11, budget, "length")
    assert len(universe.facts) == 1442
    for i, (phi, fact) in enumerate(zip(universe.formulas, universe.facts)):
        assert fact == _facts_of_report(i, phi, defines(phi, None, budget))


def test_a_wide_witness_bound_keeps_the_universe_small():
    # the facts keep each solution set as one mask: with an int per
    # solution this build peaks at about 108 MB, with masks at 0.7 MB
    _build_universe.cache_clear()
    tracemalloc.start()
    try:
        micro_universe(10, Budget(witness_bound=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("solutions, undecided, expected", [
    # one solution, at 7: 7 might be described, 3 is not, and 70 lies
    # past the horizon
    ({7}, None, {3: Truth.FALSE, 7: Truth.UNKNOWN, 70: Truth.UNKNOWN}),
    # a second solution rules out each, and nothing else is one
    ({2, 7}, None, {2: Truth.FALSE, 3: Truth.FALSE, 7: Truth.FALSE}),
    # from the first undecided value on, anything may be the lone one
    (set(), 5, {4: Truth.FALSE, 5: Truth.UNKNOWN, 9: Truth.UNKNOWN}),
])
def test_describe_status_reads_an_open_fact_by_bits(solutions, undecided,
                                                    expected):
    fact = FormulaFacts(
        index=0, formula=EVERYTHING_TRUE, length=3,
        solutions=sum(1 << s for s in solutions), exact=False,
        cofinite=False, defines=None, undecided=undecided)
    for n, status in expected.items():
        assert _describe_status(fact, n, 64) is status, n


def test_bounded_definition_thresholds():
    u = micro_universe(8)
    expected = [0, 0, 0, 0, 2, 2, 2, 2, 3]
    got = [least_undefinable(u, w) for w in range(9)]
    assert got == expected
    # monotone: a wider length window never loses a defined value
    for w in range(8):
        assert least_undefinable(u, w) <= least_undefinable(u, w + 1)
    assert least_undefinable(u, 100) == least_undefinable(u)


# -- evaluating the bundle over a micro universe ------------------------------

def test_def_instance_evaluation_matches_table():
    u = micro_universe(8)
    bundle = build_bundle(truth_oracle_property())
    env = micro_env(u)
    budget = Budget(witness_bound=len(u.formulas) + 2)
    for w in (4, 8):
        defined = {n for n in range(5) if least_undefinable(u, w) != n
                   and any(u.facts[i].defines == n and u.facts[i].length < w
                           for i in range(len(u.formulas)))}
        for n in range(5):
            inst = substitute(substitute(bundle.def_formula, 0, numeral(n)),
                              1, numeral(w))
            got = evaluate(inst, env, budget)
            assert got is (Truth.TRUE if n in defined else Truth.FALSE)


def test_tr_reads_code_zero_as_false():
    # D codes start at 1, so 0 is no statement and Tr rejects it
    env = micro_env(micro_universe(6))
    assert evaluate(parse_formula("Tr(0)"), env) is Truth.FALSE


def test_berry_and_b_instances_with_genuine_oracle():
    u = micro_universe(8)
    bundle = build_bundle(truth_oracle_property())
    env = micro_env(u)
    budget = Budget(witness_bound=len(u.formulas) + 2)
    for n in range(5):
        inst = substitute(substitute(bundle.berry_formula, 0, numeral(n)),
                          1, numeral(8))
        got = evaluate(inst, env, budget)
        assert got is (Truth.TRUE if n == 3 else Truth.FALSE)
    for n in range(5):
        got = evaluate(substitute(bundle.b_formula, 0, numeral(n)),
                       env, budget)
        assert got is (Truth.TRUE if n == 3 else Truth.FALSE)


def test_b_instances_with_nothing_true_property():
    # with a property satisfied by no code, nothing is ever defined, so
    # zero is the least undefined number and the sentence holds there
    u = micro_universe(8)
    bundle = build_bundle(NOTHING_TRUE)
    env = micro_env(u)
    budget = Budget(witness_bound=len(u.formulas) + 2)
    verdicts = [
        evaluate(substitute(bundle.b_formula, 0, numeral(n)), env, budget)
        for n in range(4)
    ]
    assert verdicts[0] is Truth.TRUE
    assert verdicts[1:] == [Truth.FALSE] * 3


def _counting(env: OracleEnv, calls: Counter) -> OracleEnv:
    """env with every oracle symbol counting its calls into calls."""
    def count(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run
    return OracleEnv(atoms={n: count(n, f) for n, f in env.atoms.items()},
                     funs={n: count(n, f) for n, f in env.funs.items()},
                     atom_supports=dict(env.atom_supports))


def test_catalogue_env_accounting_is_pinned():
    # (truth, nodes_used, budget_hit) and the oracle calls per symbol of
    # every evaluation of the Berry formulas under the catalogue reading;
    # retaken when values a tail settles stopped being swept or charged,
    # which kept every verdict and the oracle calls of every evaluation
    # that stays inside its node budget
    u = micro_universe(8)
    wide = len(u.formulas) + 2
    h = hashlib.sha256()
    for upsilon in (truth_oracle_property(), NOTHING_TRUE):
        bundle = build_bundle(upsilon)
        instances = [substitute(substitute(bundle.berry_formula, 0,
                                           numeral(n)), 1, numeral(bound))
                     for bound in (4, 8, 6 * bundle.ell) for n in range(5)]
        instances += [substitute(bundle.b_formula, 0, numeral(n))
                      for n in range(5)]
        for env in (micro_env(u), micro_env(u, bundle)):
            for budget in (Budget(witness_bound=wide),
                           Budget(witness_bound=wide, node_budget=2000)):
                for phi in instances:
                    calls = Counter()
                    r = evaluate_full(phi, _counting(env, calls), budget)
                    h.update(f"{r.truth.name} {r.nodes_used} {r.budget_hit} "
                             f"{sorted(calls.items())}\n".encode())
    assert h.hexdigest() == \
        "8463dce182d89bd329a9f025fac67cfeb8ef1af8aa402bbc51d1370d542ed23a"


# -- the contradiction report -------------------------------------------------

def test_contradiction_report_with_genuine_oracle():
    u = micro_universe(12)
    bundle = build_bundle(truth_oracle_property())
    report = berry_contradiction_report(bundle, u)
    assert report.berry_value == 4
    assert report.tb_licensed
    assert report.uniqueness.unique
    assert report.b_at_berry_genuine is Truth.TRUE
    assert report.def_at_berry_closed is Truth.TRUE
    assert report.b_at_berry_closed is Truth.FALSE
    assert report.contradiction


def test_contradiction_report_with_nothing_true_is_clean():
    u = micro_universe(12)
    bundle = build_bundle(NOTHING_TRUE)
    report = berry_contradiction_report(bundle, u)
    assert not report.tb_licensed
    assert report.uniqueness.unique
    assert not report.contradiction


def test_uniqueness_verdict_spot_checks_formulas():
    u = micro_universe(8)
    bundle = build_bundle(truth_oracle_property())
    report = berry_contradiction_report(bundle, u)
    assert report.uniqueness.unique
    assert report.uniqueness.formula_spot_checks
    for _, meta, direct in report.uniqueness.formula_spot_checks:
        assert meta == direct


# -- pigeonhole ---------------------------------------------------------------

def test_pigeonhole_examples():
    assert pigeonhole_duplicate([0, 1, 0]) == (0, 2)
    assert pigeonhole_duplicate([0, 1]) is None
    assert pigeonhole_duplicate([]) is None


def test_pigeonhole_random_lists_always_collide():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.randint(1, 100)
        codes = [rng.randrange(p) for _ in range(p + 1)]
        pair = pigeonhole_duplicate(codes)
        assert pair is not None
        i, j = pair
        assert i < j and codes[i] == codes[j]
        assert all(codes[k] != codes[i] for k in range(i))
        assert all(codes[k] not in codes[:k] for k in range(j))


# -- the syntactic ladder experiment -------------------------------------------

def test_tarski_experiment_with_genuine_oracle():
    u = micro_universe(12)
    bundle = build_bundle(truth_oracle_property())
    report = syntactic_tarski_experiment(u, bundle)
    assert report.tb_licensed
    assert report.p_bound == 4111
    assert report.berry_value == 4
    assert len(report.codes) == report.p_bound + 1
    assert all(c < report.p_bound for c in report.codes)
    assert report.ladder_break == 4
    assert report.duplicate == (4, 5)
    assert report.clash is not None
    assert report.clash.i == 4 and report.clash.j == 5
    first, middle, last = report.clash.steps
    assert first[1] == "TRUE" and last[1] == "FALSE"
    assert "contradiction" in report.conclusion


def test_tarski_experiment_ladder_values():
    u = micro_universe(12)
    bundle = build_bundle(truth_oracle_property())
    report = syntactic_tarski_experiment(u, bundle)
    for step in report.ladder[:4]:
        assert step.def_truth is Truth.TRUE and step.genuine
    step4 = report.ladder[4]
    assert step4.def_truth is Truth.FALSE
    assert step4.star_truth is Truth.FALSE
    assert not step4.genuine
    # beyond the break the antecedent is already false, so the
    # implication is semantically vacuous
    assert all(s.star_truth is Truth.TRUE for s in report.ladder[5:8])


def test_tarski_experiment_with_nothing_true_states_tb_failure():
    u = micro_universe(12)
    bundle = build_bundle(NOTHING_TRUE)
    report = syntactic_tarski_experiment(u, bundle)
    assert not report.tb_licensed
    assert report.tb_counterexample is not None
    assert report.ladder_break == 0
    assert report.duplicate is None
    assert report.clash is None
    assert "biconditional" in report.conclusion


# -- the definability table against a scan per (bound, value) ----------------

def _scanned(table: _DefTable, universe, bound: int, n: int):
    """defined(bound, n) by its reading: the entries shorter than the
    bound in catalogue order, up to the first judged TRUE."""
    verdict = Truth.FALSE
    for a, fact in enumerate(universe.facts):
        if fact.length < bound:
            got = table.judge(a, n)
            if got is Truth.TRUE:
                return Truth.TRUE, a
            verdict = t_or(verdict, got)
    return verdict, None


# a value horizon of 2 leaves the genuine judge UNKNOWN on larger values
@pytest.mark.parametrize("horizon", [64, 2])
@pytest.mark.parametrize("order", ["length", "shuffled"])
@pytest.mark.parametrize("upsilon", [truth_oracle_property(), NOTHING_TRUE],
                         ids=["genuine", "nothing-true"])
def test_def_table_columns_match_the_scan_per_bound(horizon, order, upsilon):
    universe = micro_universe(9, Budget(witness_bound=horizon), order)
    bundle = build_bundle(upsilon)
    table = _DefTable(bundle, universe, micro_env(universe), universe.budget)
    for bound in (*range(universe.max_len + 1), 6 * bundle.ell):
        for n in range(17):
            assert table.defined(bound, n) == \
                _scanned(table, universe, bound, n)


# -- the definability table against a per-entry loop --------------------------

_TABLE_BUDGETS = {
    "default": Budget(),
    "nodes-2000": Budget(node_budget=2000),
    "wide": Budget(witness_bound=300, node_budget=20000),
    "nodes-0": Budget(node_budget=0),
}


@pytest.mark.parametrize("budget", _TABLE_BUDGETS.values(),
                         ids=_TABLE_BUDGETS.keys())
@pytest.mark.parametrize("upsilon", [
    truth_oracle_property(), NOTHING_TRUE, EVERYTHING_TRUE,
    OracleAtom("Formula", (Var(0),))],
    ids=["genuine", "nothing-true", "everything-true", "formula"])
def test_def_table_matches_a_per_entry_loop(budget, upsilon):
    universe = micro_universe(10, budget)
    bundle = build_bundle(upsilon)
    table = _DefTable(bundle, universe, micro_env(universe), budget)
    horizon = universe.value_horizon
    if upsilon == truth_oracle_property():
        def judged(a, n):
            return _describe_status(universe.facts[a], n, horizon)
    else:
        at = truth_at(bundle.normalized_upsilon, micro_env(universe), budget)

        def judged(a, n):
            return at({1: statement_code(a, n)})
    memo = {}
    for bound in (*range(universe.max_len + 2), 6 * bundle.ell):
        for n in (*range(18), *range(horizon - 2, horizon + 3)):
            verdict, witness = Truth.FALSE, None
            for fact in universe.facts:  # in catalogue order
                if fact.length >= bound:
                    continue
                key = (fact.index, n)
                if key not in memo:
                    memo[key] = judged(*key)
                if memo[key] is Truth.TRUE:
                    verdict, witness = Truth.TRUE, fact.index
                    break
                verdict = t_or(verdict, memo[key])
            assert table.defined(bound, n) == (verdict, witness)


def test_def_table_stops_at_a_first_true_past_the_first_block():
    # ¬(x<3000) holds at statement codes from 3,000 on: among the 152
    # entries of length 7 the first to describe 0 that way is the 58th,
    # in the sixth block the table reads (entries 32 to 63)
    universe = micro_universe(10)
    bundle = build_bundle(Not(Lt(Var(0), Num(3000))))
    table = _DefTable(bundle, universe, micro_env(universe), universe.budget)
    at = truth_at(bundle.normalized_upsilon, micro_env(universe),
                  universe.budget)
    positions = set()
    for alen, entries in table.entries.items():
        for n in range(18):
            verdict, witness = Truth.FALSE, None
            for a in entries:
                got = at({1: statement_code(a, n)})
                if got is Truth.TRUE:
                    verdict, witness = got, a
                    positions.add(entries.index(a))
                    break
                verdict = t_or(verdict, got)
            assert table._of_length(alen, n) == (verdict, witness)
    assert 57 in positions

