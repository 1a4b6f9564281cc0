"""Proof checker, bounded search, and the provability experiments.

Frozen values here come from hand-built Hilbert derivations (the
fixture proofs were composed step by step before the checker existed)
and from the already-tested enumeration order of sentences: the first
true sentence is 0=0 and the first false one is 0=1.  Node-count
ceilings restate the documented search contract, not tuned numbers.
"""

import hashlib
import inspect
import random
import time
from pathlib import Path

import pytest

from selfref.coding import encode, quote
from selfref.diagonal import diagonal_sentence, normalize_psi, taut_equiv
from selfref.semantics import Budget, Truth, evaluate
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Iff, Implies, Lt, Mul, Not, One, Or,
    OracleAtom, OracleFun, Var, Zero, free_vars, length, numeral, preorder,
    render, substitute,
)
from selfref.parser import parse_formula
from selfref.proofs import (
    Axiom, CheckReport, ConsistentBySoundness, Generalization,
    InconsistencyAlarm, LogicalAxiom, ModusPonens, NotFound, ProofObject,
    ProofStep, RefutedByProof, SearchExhausted, Unknown,
    bounded_proof_search, check_proof, check_proof_report, consistency_witness,
    decode_proof_code, fixture_path, goedel_sentence, load_fixture_proof,
    make_prf, neg_neg_proof, not_below_zero_proof, parse_proof, pr_formula,
    pr_sentence, proof_code, proofs_env, remark_demo, remark_one_proof,
    rosser_pr_formula, rosser_psi,
    rosser_sentence, search_report, serialize_proof,
    standard_theory, successor_bound_proof, tb_stream,
    _AND_ELIM, _DN, _DN_ELIM, _IFF_ELIM, _PAIR, _PATTERNS, _POOL_FORMULA_LEN,
    _SCHEMES, _Searcher, _TRIPLE, _instance,
)

X, X1, X2 = Var(0), Var(1), Var(2)
ZERO_EQ_ZERO = Eq(Zero(), Zero())
DELTA = Not(ZERO_EQ_ZERO)
NOT_DELTA = Not(DELTA)


# -- the pinned axiomatization ------------------------------------------------

def test_axiom_ids_and_shapes():
    ax = standard_theory()
    ids = [aid for aid, _ in ax.axioms]
    assert ids == ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "o1", "o2"]
    by_id = dict(ax.axioms)
    assert by_id["q1"] == Forall(X, Not(Eq(Add(X, One()), Zero())))
    assert by_id["q2"] == Forall(X, Forall(X1, Implies(
        Eq(Add(X, One()), Add(X1, One())), Eq(X, X1))))
    assert by_id["q3"] == Forall(X, Implies(
        Not(Eq(X, Zero())), Exists(X1, Eq(X, Add(X1, One())))))
    assert by_id["q4"] == Forall(X, Eq(Add(X, Zero()), X))
    assert by_id["q5"] == Forall(X, Forall(X1, Eq(
        Add(X, Add(X1, One())), Add(Add(X, X1), One()))))
    assert by_id["q6"] == Forall(X, Eq(Mul(X, Zero()), Zero()))
    assert by_id["q7"] == Forall(X, Forall(X1, Eq(
        Mul(X, Add(X1, One())), Add(Mul(X, X1), X))))
    assert by_id["o1"] == Forall(X, Not(Lt(X, Zero())))
    assert by_id["o2"] == Forall(X, Forall(X1, Iff(
        Lt(X, Add(X1, One())), Or(Lt(X, X1), Eq(X, X1)))))
    for _, phi in ax.axioms:
        assert not free_vars(phi)


def test_axiom_renders_pinned():
    by_id = dict(standard_theory().axioms)
    assert render(by_id["q1"]) == "∀x(¬(x+(1)=0))"
    assert render(by_id["o1"]) == "∀x(¬(x<0))"
    assert render(by_id["o2"]) == "∀x(∀x′(x<x′+(1)↔(x<x′∨(x=x′))))"
    for _, phi in standard_theory().axioms:
        assert parse_formula(render(phi)) == phi


def test_axioms_fixture_file_matches():
    lines = fixture_path("axioms.txt").read_text().strip().split("\n")
    built = standard_theory().axioms
    assert len(lines) == len(built)
    for line, (aid, phi) in zip(lines, built):
        fid, text = line.split("\t")
        assert fid == aid
        assert parse_formula(text) == phi


def test_axioms_true_on_a_grid():
    # every axiom body instance over a small grid is certainly true
    for _, phi in standard_theory().axioms:
        body, vs = phi, []
        while isinstance(body, Forall):
            vs.append(body.var.index)
            body = body.body
        for m in range(5):
            for n in range(5):
                values = dict(zip(vs, (m, n)))
                inst = body
                for v, value in values.items():
                    inst = substitute(inst, v, numeral(value))
                assert evaluate(inst) is Truth.TRUE, render(phi)


def test_theory_handle_extras():
    base = standard_theory()
    assert base.sound_for_standard_model
    extended = base.extend("padded", (ZERO_EQ_ZERO,), True)
    assert extended.axiom_formula("extra0") == ZERO_EQ_ZERO
    twice = extended.extend("padded twice", (DELTA,), False)
    assert twice.axiom_formula("extra1") == DELTA
    assert not twice.sound_for_standard_model
    assert extended.axiom_formula("q1") == base.axiom_formula("q1")


# -- checking hand-built proofs -----------------------------------------------

def test_one_step_axiom_proof():
    T = standard_theory()
    p = ProofObject(steps=(ProofStep(T.axiom_formula("q1"), Axiom("q1")),))
    assert check_proof(p, T)
    assert p.conclusion == T.axiom_formula("q1")


def test_neg_neg_fixture_proof():
    T = standard_theory()
    p = neg_neg_proof()
    assert len(p.steps) == 3
    assert p.conclusion == NOT_DELTA
    assert render(p.conclusion) == "¬(¬(0=0))"
    assert check_proof(p, T)
    assert load_fixture_proof("neg_neg_zero_eq_zero.prf") == p


def test_not_below_zero_instances():
    T = standard_theory()
    for k in range(4):
        p = not_below_zero_proof(k)
        assert check_proof(p, T)
        assert p.conclusion == Not(Lt(numeral(k), Zero()))
        assert len(p.steps) == 3
    assert load_fixture_proof("not_below_zero_2.prf") == not_below_zero_proof(2)


def test_successor_bound_instances():
    T = standard_theory()
    for k in range(4):
        p = successor_bound_proof(k)
        assert check_proof(p, T)
        assert len(p.steps) <= 20
        kbar = numeral(k)
        assert p.conclusion == Forall(X, Implies(
            Lt(X, Add(kbar, One())), Or(Lt(X, kbar), Eq(X, kbar))))
        assert load_fixture_proof(f"successor_bound_{k}.prf") == p


def test_dangling_reference_rejected():
    T = standard_theory()
    p = ProofObject(steps=(
        ProofStep(ZERO_EQ_ZERO, ModusPonens(5, 0)),
    ))
    report = check_proof_report(p, T)
    assert not report.ok
    assert report.failed_step == 0
    assert "reference" in report.reason or "index" in report.reason


def test_wrong_schema_claim_rejected():
    T = standard_theory()
    p = ProofObject(steps=(
        ProofStep(Eq(Zero(), One()), LogicalAxiom("refl")),
    ))
    report = check_proof_report(p, T)
    assert not report.ok and report.failed_step == 0


A, B, C = ZERO_EQ_ZERO, Eq(Zero(), One()), Eq(One(), One())
X_EQ_0, X_EQ_X, X_LT_1 = Eq(X, Zero()), Eq(X, X), Lt(X, One())

# scheme, data, a correct instance, a near miss
SCHEME_ROWS = [
    ("k", (), Implies(A, Implies(B, A)), Implies(A, Implies(B, B))),
    ("s", (),
     Implies(Implies(A, Implies(B, C)),
             Implies(Implies(A, B), Implies(A, C))),
     Implies(Implies(A, Implies(B, C)),
             Implies(Implies(A, B), Implies(B, C)))),
    ("contr", (), Implies(Implies(Not(A), Not(B)), Implies(B, A)),
     Implies(Implies(Not(A), Not(B)), Implies(A, B))),
    ("contrapose2", (), Implies(Implies(A, Not(B)), Implies(B, Not(A))),
     Implies(Implies(A, Not(B)), Implies(B, A))),
    ("dn_intro", (), Implies(A, Not(Not(A))), Implies(A, Not(A))),
    ("dn_elim", (), Implies(Not(Not(A)), A), Implies(Not(Not(A)), B)),
    ("absurd", (), Implies(A, Implies(Not(A), B)),
     Implies(A, Implies(Not(B), B))),
    ("and_intro", (), Implies(A, Implies(B, And(A, B))),
     Implies(A, Implies(B, And(B, A)))),
    ("and_left", (), Implies(And(A, B), A), Implies(And(A, B), B)),
    ("and_right", (), Implies(And(A, B), B), Implies(And(A, B), A)),
    ("or_left", (), Implies(A, Or(A, B)), Implies(B, Or(A, B))),
    ("or_right", (), Implies(B, Or(A, B)), Implies(A, Or(A, B))),
    ("or_elim", (),
     Implies(Implies(A, C), Implies(Implies(B, C), Implies(Or(A, B), C))),
     Implies(Implies(A, C), Implies(Implies(B, C), Implies(Or(B, A), C)))),
    ("iff_intro", (),
     Implies(Implies(A, B), Implies(Implies(B, A), Iff(A, B))),
     Implies(Implies(A, B), Implies(Implies(B, A), Iff(B, A)))),
    ("iff_left", (), Implies(Iff(A, B), Implies(A, B)),
     Implies(Iff(A, B), Implies(B, A))),
    ("iff_right", (), Implies(Iff(A, B), Implies(B, A)),
     Implies(Iff(A, B), Implies(A, B))),
    ("refl", (), ZERO_EQ_ZERO, B),
    ("leibniz", (0, X_LT_1),
     Implies(B, Implies(Lt(Zero(), One()), Lt(One(), One()))),
     Implies(B, Implies(Lt(Zero(), One()), Lt(Zero(), One())))),
    ("inst", (One(),), Implies(Forall(X, X_EQ_X), C),
     Implies(Forall(X, X_EQ_X), A)),
    ("ex_intro", (Zero(),), Implies(A, Exists(X, X_EQ_X)),
     Implies(C, Exists(X, X_EQ_X))),
    # the near misses of ex_elim and gen_vac have the right shape but
    # bind a variable that is free in c
    ("ex_elim", (),
     Implies(Forall(X, Implies(X_EQ_0, A)), Implies(Exists(X, X_EQ_0), A)),
     Implies(Forall(X, Implies(X_EQ_0, X_EQ_X)),
             Implies(Exists(X, X_EQ_0), X_EQ_X))),
    ("gen_vac", (), Implies(A, Forall(X, A)),
     Implies(X_EQ_X, Forall(X, X_EQ_X))),
    ("dist", (),
     Implies(Forall(X, Implies(X_EQ_0, X_LT_1)),
             Implies(Forall(X, X_EQ_0), Forall(X, X_LT_1))),
     Implies(Forall(X, Implies(X_EQ_0, X_LT_1)),
             Implies(Forall(X, X_LT_1), Forall(X, X_EQ_0)))),
]


@pytest.mark.parametrize("scheme, data, instance, near_miss", SCHEME_ROWS,
                         ids=[row[0] for row in SCHEME_ROWS])
def test_each_scheme_accepts_an_instance_and_rejects_a_near_miss(
        scheme, data, instance, near_miss):
    T = standard_theory()
    good = ProofObject((ProofStep(instance, LogicalAxiom(scheme, data)),))
    assert check_proof_report(good, T) == CheckReport(True)
    assert parse_proof(serialize_proof(good)) == good
    bad = ProofObject((ProofStep(near_miss, LogicalAxiom(scheme, data)),))
    report = check_proof_report(bad, T)
    assert not report.ok and report.failed_step == 0
    if not data:
        # serialize_proof writes no data for these schemes, so a proof
        # carrying some would not survive its own round trip
        stray = ProofObject((ProofStep(instance,
                                       LogicalAxiom(scheme, (Zero(),))),))
        assert check_proof_report(stray, T) == \
            CheckReport(False, 0, f"{scheme}: takes no data")


def test_unknown_scheme_rejected():
    p = ProofObject((ProofStep(A, LogicalAxiom("modus_tollens")),))
    report = check_proof_report(p, standard_theory())
    assert not report.ok and report.failed_step == 0
    assert "unknown scheme" in report.reason


def test_mp_shape_checked():
    T = standard_theory()
    p = ProofObject(steps=(
        ProofStep(ZERO_EQ_ZERO, LogicalAxiom("refl")),
        ProofStep(Eq(One(), One()), ModusPonens(0, 0)),
    ))
    assert not check_proof(p, T)


def test_empty_proof_rejected():
    assert not check_proof(ProofObject(steps=()), standard_theory())


def test_generalization_checked():
    T = standard_theory()
    good = ProofObject(steps=(
        ProofStep(Eq(X, X), LogicalAxiom("refl")),
        ProofStep(Forall(X, Eq(X, X)), Generalization(0, 0)),
    ))
    assert check_proof(good, T)
    bad = ProofObject(steps=(
        ProofStep(Eq(X, X), LogicalAxiom("refl")),
        ProofStep(Forall(X1, Eq(X, X)), Generalization(0, 0)),
    ))
    assert not check_proof(bad, T)


# the step of neg_neg_proof() replaced, its replacement, and the reason
CHECKER_ROWS = [
    ("unknown-axiom", 0, ProofStep(ZERO_EQ_ZERO, Axiom("q8")),
     "unknown axiom q8"),
    ("not-the-axiom", 0, ProofStep(ZERO_EQ_ZERO, Axiom("q4")),
     "formula is not axiom q4"),
    ("antecedent", 2, ProofStep(NOT_DELTA, ModusPonens(1, 1)),
     "antecedent does not match"),
    ("consequent", 2, ProofStep(ZERO_EQ_ZERO, ModusPonens(1, 0)),
     "consequent does not match"),
    ("gen-index", 2, ProofStep(NOT_DELTA, Generalization(2, 0)),
     "generalization reference index out of range"),
    ("unknown-kind", 2, ProofStep(NOT_DELTA, "mp 1 0"),
     "unknown justification kind"),
]


@pytest.mark.parametrize("at, step, reason", [row[1:] for row in CHECKER_ROWS],
                         ids=[row[0] for row in CHECKER_ROWS])
def test_each_check_failure_names_its_step_and_reason(at, step, reason):
    steps = list(neg_neg_proof().steps)
    steps[at] = step
    assert check_proof_report(ProofObject(tuple(steps)), standard_theory()) \
        == CheckReport(False, at, reason)


# -- serialization and codes ----------------------------------------------------

def test_serialize_neg_neg_exact():
    text = serialize_proof(neg_neg_proof())
    assert text == (
        "0\t0=0\tlogic refl\n"
        "1\t0=0→(¬(¬(0=0)))\tlogic dn_intro\n"
        "2\t¬(¬(0=0))\tmp 1 0\n"
    )


def test_proof_roundtrip_all_fixtures():
    proofs = [neg_neg_proof(), not_below_zero_proof(2)]
    proofs += [successor_bound_proof(k) for k in range(4)]
    for p in proofs:
        assert parse_proof(serialize_proof(p)) == p
        code = proof_code(p)
        assert isinstance(code, int) and code > 0
        assert decode_proof_code(code) == p


def test_bad_codes_decode_to_none():
    assert decode_proof_code(0) is None
    assert decode_proof_code(1) is None
    rng = random.Random(7)
    for _ in range(60):
        assert decode_proof_code(rng.randrange(2, 10**9)) is None


def test_prf_oracle():
    T = standard_theory()
    prf = make_prf(T)
    p = neg_neg_proof()
    assert prf(proof_code(p), encode(NOT_DELTA))
    assert not prf(0, encode(NOT_DELTA))
    assert not prf(proof_code(p), encode(ZERO_EQ_ZERO))
    assert not prf(proof_code(p), 0)
    rng = random.Random(11)
    for _ in range(50):
        assert not prf(rng.randrange(0, 10**6), encode(NOT_DELTA))


# -- provability formulas -------------------------------------------------------

def test_pr_formula_shape():
    pr = pr_formula()
    assert pr == Exists(X1, OracleAtom("prf", (X1, X)))
    assert render(pr) == "∃x′(prf(x′,x))"
    assert parse_formula(render(pr)) == pr


def test_rosser_pr_formula_shape():
    rpr = rosser_pr_formula()
    neg_y = OracleFun("neg", (X,))
    assert rpr == Exists(X1, And(
        OracleAtom("prf", (X1, X)),
        Forall(X2, Implies(Lt(X2, X1),
                           Not(OracleAtom("prf", (X2, neg_y))))),
    ))
    assert render(rpr) == (
        "∃x′(prf(x′,x)∧(∀x′′(x′′<x′→(¬(prf(x′′,neg(x)))))))"
    )


def test_rosser_psi_shape():
    psi = rosser_psi()
    neg_y = OracleFun("neg", (X,))
    assert psi == Forall(X1, Implies(
        OracleAtom("prf", (X1, X)),
        Exists(X2, And(Lt(X2, X1), OracleAtom("prf", (X2, neg_y)))),
    ))


def test_pr_certified_true_with_witness():
    T = standard_theory()
    p = neg_neg_proof()
    sentence = pr_sentence(NOT_DELTA)
    env = proofs_env(T)
    certified = evaluate(sentence, env, Budget(),
                         witnesses={(): proof_code(p)})
    assert certified is Truth.TRUE
    # without the witness the sweep cannot reach the proof code
    assert evaluate(sentence, env, Budget()) is Truth.UNKNOWN


def test_pr_of_false_sentence_never_true():
    T = standard_theory()
    env = proofs_env(T)
    sentence = pr_sentence(DELTA)
    for bound in (16, 64, 128):
        got = evaluate(sentence, env, Budget(witness_bound=bound))
        assert got is Truth.UNKNOWN


# -- bounded search -------------------------------------------------------------

def test_search_finds_axiom_in_one_step():
    T = standard_theory()
    goal = T.axiom_formula("o1")
    outcome = bounded_proof_search(goal, T, 1000)
    assert isinstance(outcome, ProofObject)
    assert len(outcome.steps) == 1
    assert check_proof(outcome, T)


def test_search_refinds_neg_neg_cheaply():
    T = standard_theory()
    report = search_report(NOT_DELTA, T, 1000)
    assert isinstance(report.outcome, ProofObject)
    assert report.outcome.conclusion == NOT_DELTA
    assert report.nodes_used <= 50
    assert check_proof(report.outcome, T)


def test_search_is_deterministic():
    T = standard_theory()
    a = search_report(NOT_DELTA, T, 1000)
    b = search_report(NOT_DELTA, T, 1000)
    assert serialize_proof(a.outcome) == serialize_proof(b.outcome)
    assert a.nodes_used == b.nodes_used


_ATOMS = ("0<1", "0=0", "0=1", "1<0", "1=1+(0)", "1+(1)<1+(1+(1))")


def _random_goal(rng: random.Random, depth: int):
    """A closed propositional goal over _ATOMS, drawn as the proof-search
    benchmark corpus draws its goals."""
    if depth == 0 or rng.random() < 0.25:
        return parse_formula(rng.choice(_ATOMS))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_random_goal(rng, depth - 1))
    ctor = (And, Or, Implies, Iff)[kind - 1]
    return ctor(_random_goal(rng, depth - 1), _random_goal(rng, depth - 1))


def _pin(goal, budget: int) -> tuple:
    """(outcome kind, nodes used, proof digest or the reason not found)."""
    report = search_report(goal, standard_theory(), budget)
    if isinstance(report.outcome, NotFound):
        return ("not-found", report.nodes_used, report.outcome.reason)
    digest = hashlib.sha256(serialize_proof(report.outcome).encode())
    return ("proved", report.nodes_used, digest.hexdigest()[:16])


def _pinned_goals() -> list:
    """(goal, node budget) for the searches whose outcomes are pinned."""
    rng = random.Random(2009)
    goals = [(_random_goal(rng, rng.randrange(1, 4)), 5_000)
             for _ in range(20)]
    goals += [(successor_bound_proof(k).conclusion, 5_000) for k in range(4)]
    goals.append((DELTA, 100_000))
    rho = rosser_sentence(standard_theory()).rho
    return goals + [(rho, 10_000), (Not(rho), 10_000)]


_SPENT, _EXHAUSTED = "node budget spent", "frontier exhausted"
_PINS = [
    ("not-found", 5000, _SPENT),
    ("proved", 10, "35e62d04a17000a0"),
    ("not-found", 345, _EXHAUSTED),
    ("not-found", 472, _EXHAUSTED),
    ("not-found", 1261, _EXHAUSTED),
    ("not-found", 1262, _EXHAUSTED),
    ("proved", 10, "35e62d04a17000a0"),
    ("not-found", 1270, _EXHAUSTED),
    ("not-found", 5000, _SPENT),
    ("proved", 595, "76ac33d2254096b8"),
    ("proved", 358, "a2e59b8a4a0bf9e0"),
    ("proved", 304, "ab7cc0456164a4fc"),
    ("not-found", 5000, _SPENT),
    ("not-found", 5000, _SPENT),
    ("proved", 559, "a7b827821337e1d5"),
    ("not-found", 345, _EXHAUSTED),
    ("proved", 429, "a2957438adddd525"),
    ("proved", 1060, "d8fa101cc0dad2ba"),
    ("not-found", 345, _EXHAUSTED),
    ("not-found", 3558, _EXHAUSTED),
    *[("not-found", 5000, _SPENT)] * 4,
    ("not-found", 507, _EXHAUSTED),
    *[("not-found", 10_000, _SPENT)] * 2,
]


def test_search_outcomes_are_pinned():
    # every fact is added in a fixed order, so the node counts and the
    # proofs themselves are part of the search's contract
    assert [_pin(goal, budget) for goal, budget in _pinned_goals()] == _PINS


def test_search_outcomes_do_not_depend_on_process_history():
    # the instance memo outlives each search: a cold memo and one warmed
    # by the other searches, run in reverse order, give the same pins
    _instance.cache_clear()
    goals = _pinned_goals()
    cold = [_pin(goal, budget) for goal, budget in goals]
    assert _instance.cache_info().hits > 0
    warm = [_pin(goal, budget) for goal, budget in reversed(goals)]
    assert cold == warm[::-1] == _PINS


@pytest.mark.parametrize("group", [_PAIR, _TRIPLE, _IFF_ELIM, _AND_ELIM,
                                   _DN_ELIM, _DN],
                         ids=["pair", "triple", "iff_elim", "and_elim",
                              "dn_elim", "dn"])
def test_group_programs_add_the_schemes_in_order(group):
    names = [name for name, _ in group[1]]
    rng = random.Random(len(names))
    args = [_random_goal(rng, 2)
            for _ in inspect.signature(_SCHEMES[names[0]]).parameters]
    assert len(set(args)) == len(args)
    searcher = _Searcher(DELTA, standard_theory(), 1000)
    ids = [searcher._intern(arg) for arg in args]
    lookups = []
    searcher._id = lambda row: lookups.append(row) or _Searcher._id(
        searcher, row)
    searcher._add_group(group, *ids)
    assert [(searcher._node(f, {}), prov)
            for f, prov in searcher.facts.items()] == [
        (_SCHEMES[name](*args), ("logic", name, ())) for name in names]
    # one row lookup per distinct subpattern of the group's schemes
    assert len(lookups) == len({node for name in names
                                for node in preorder(_PATTERNS[name])})


def _closes(f: Forall) -> bool:
    """Whether a search for f may generalize its body back to f."""
    searcher = _Searcher(f, standard_theory(), 1000)
    return searcher._intern(f) in searcher.closures.get(
        searcher._intern(f.body), [])


def test_generalization_targets_are_capped_by_tree_size_not_tokens():
    # a quoted code is one node but many tokens
    quoted = Forall(X, Eq(X, numeral(10**60 - 1)))
    assert length(quoted) > 10**60
    assert _closes(quoted)
    # ∀x(¬(…¬(x=x)…)) has k + 4 nodes: the cap of 4 * 64 is inclusive
    cap = 4 * _POOL_FORMULA_LEN
    for k, size in ((cap - 4, cap), (cap - 3, cap + 1)):
        body = Eq(X, X)
        for _ in range(k):
            body = Not(body)
        assert _closes(Forall(X, body)) == (size <= cap)


@pytest.mark.parametrize("text, nodes", [("∀x(¬(¬(x=x))→(x=x))", 16),
                                         ("∀x(x=x→(x=x))", 309)])
def test_search_closes_a_proved_body_under_its_quantifier(text, nodes):
    # proving the body fires the goal's closure, and the proof ends in
    # that one gen step
    T, goal = standard_theory(), parse_formula(text)
    report = search_report(goal, T, 1000)
    steps = report.outcome.steps
    assert report.nodes_used == nodes
    assert steps[-1] == ProofStep(goal, Generalization(len(steps) - 2, 0))
    assert [type(s.justification) for s in steps].count(Generalization) == 1
    assert check_proof(report.outcome, T)


def test_search_never_proves_the_false():
    T = standard_theory()
    for budget in (300, 3000, 100_000):
        outcome = bounded_proof_search(DELTA, T, budget)
        assert isinstance(outcome, NotFound)
        assert outcome.nodes_used <= budget


def test_search_emissions_check():
    T = standard_theory()
    for goal in (T.axiom_formula("q4"), ZERO_EQ_ZERO, NOT_DELTA):
        outcome = bounded_proof_search(goal, T, 2000)
        assert isinstance(outcome, ProofObject)
        assert check_proof(outcome, T)
        assert outcome.conclusion == goal


# -- goedel and rosser ----------------------------------------------------------

def test_goedel_sentence_deterministic_and_unprovable():
    T = standard_theory()
    cert = goedel_sentence(T)
    again = goedel_sentence(T)
    assert cert.theta_code == again.theta_code
    assert not free_vars(cert.theta)
    outcome = bounded_proof_search(cert.theta, T, 10_000)
    assert isinstance(outcome, NotFound)


def test_goedel_report_stays_unknown():
    from selfref.diagonal import check_fixed_point
    T = standard_theory()
    cert = goedel_sentence(T)
    rep = check_fixed_point(cert, proofs_env(T), Budget())
    assert rep.theta_truth is Truth.UNKNOWN
    assert rep.psi_at_code_truth is Truth.UNKNOWN
    assert rep.equivalence is Truth.UNKNOWN


def test_rosser_construction():
    T = standard_theory()
    built = rosser_sentence(T)
    rho = built.rho
    assert not free_vars(rho)
    assert isinstance(built.biconditional, Iff)
    left = built.biconditional.left
    expected_left = substitute(normalize_psi(rosser_psi()), 1,
                               numeral(built.certificate.theta_code))
    assert left == expected_left
    assert built.biconditional.right == rho
    assert built.theory.axiom_formula("extra0") == built.biconditional
    assert built.theory.sound_for_standard_model


def test_rosser_shape_structurally():
    built = rosser_sentence(standard_theory())
    left = built.biconditional.left
    assert isinstance(left, Forall)
    imp = left.body
    assert isinstance(imp, Implies)
    assert isinstance(imp.left, OracleAtom) and imp.left.name == "prf"
    assert imp.left.args[1] == numeral(built.certificate.theta_code)
    inner = imp.right
    assert isinstance(inner, Exists)
    assert isinstance(inner.body, And)
    assert isinstance(inner.body.left, Lt)
    second = inner.body.right
    assert isinstance(second, OracleAtom) and second.name == "prf"
    assert isinstance(second.args[1], OracleFun)
    assert second.args[1].name == "neg"


def test_rosser_not_decided_by_search():
    T = standard_theory()
    built = rosser_sentence(T)
    assert isinstance(bounded_proof_search(built.rho, T, 10_000), NotFound)
    assert isinstance(bounded_proof_search(Not(built.rho), T, 10_000),
                      NotFound)


# -- tb stream ------------------------------------------------------------------

def test_tb_stream_first_element():
    psi = Eq(X, X)
    first = next(iter(tb_stream(psi)))
    q = quote(ZERO_EQ_ZERO)
    assert first == Iff(Eq(q, q), ZERO_EQ_ZERO)
    assert render(first).endswith("↔(0=0)")


def test_tb_stream_injective_and_quick():
    psi = Eq(X, X)
    start = time.time()
    items = []
    for i, item in enumerate(tb_stream(psi)):
        items.append(item)
        if i >= 99:
            break
    assert time.time() - start < 1.0
    assert len(set(items)) == 100


# -- consistency witnessing -------------------------------------------------------

def test_consistency_of_plain_truth():
    got = consistency_witness(ZERO_EQ_ZERO, standard_theory())
    assert isinstance(got, ConsistentBySoundness)


def test_false_sentence_is_refuted_not_certified():
    got = consistency_witness(DELTA, standard_theory())
    assert isinstance(got, RefutedByProof)
    assert got.proof.conclusion == NOT_DELTA
    assert check_proof(got.proof, standard_theory())


def test_rosser_biconditional_consistent_by_certificate():
    T = standard_theory()
    built = rosser_sentence(T)
    got = consistency_witness(built.biconditional, T,
                              certificate=built.certificate)
    assert isinstance(got, ConsistentBySoundness)
    assert "construction" in got.detail


def test_unknown_without_evidence():
    # a sentence too deep for the default sweeps and with no refutation
    sigma = pr_sentence(ZERO_EQ_ZERO)
    got = consistency_witness(sigma, standard_theory(), search_nodes=200)
    assert isinstance(got, Unknown)


def test_inconsistency_alarm_fires():
    base = standard_theory()
    broken = base.extend("broken", (DELTA,), True)
    with pytest.raises(InconsistencyAlarm):
        consistency_witness(NOT_DELTA, broken)


# -- the equivalence demo ----------------------------------------------------------

def test_weak_dl_demo_everything_true():
    from selfref.proofs import weak_dl_equivalence_demo
    report = weak_dl_equivalence_demo(Eq(X, X))
    assert report.first_hit == ZERO_EQ_ZERO
    assert report.scanned == 1
    assert report.failing_verdict is Truth.FALSE
    assert report.flipped_verdict is Truth.TRUE
    assert report.flip_tautology
    assert isinstance(report.witness, ConsistentBySoundness)


def test_weak_dl_demo_nothing_true():
    from selfref.proofs import weak_dl_equivalence_demo
    report = weak_dl_equivalence_demo(Not(Eq(X, X)))
    assert report.first_hit == Eq(Zero(), One())
    assert report.scanned == 2
    assert evaluate(report.first_hit) is Truth.FALSE
    assert isinstance(report.witness, ConsistentBySoundness)


def test_weak_dl_demo_provability():
    from selfref.proofs import weak_dl_equivalence_demo
    report = weak_dl_equivalence_demo(pr_formula())
    assert report.first_hit == ZERO_EQ_ZERO
    assert report.pr_witness_code is not None
    assert isinstance(report.witness, ConsistentBySoundness)


def test_weak_dl_demo_exhaustion():
    from selfref.proofs import weak_dl_equivalence_demo
    # a property giving every biconditional the verdict Unknown: "x is a
    # perfect square" is undecidable at sentence-code magnitudes because the
    # witness sweep and the tail analysis both give out long before sqrt(code)
    opaque = Exists(X1, Eq(Mul(X1, X1), X))
    with pytest.raises(SearchExhausted):
        weak_dl_equivalence_demo(opaque, max_sentences=10)


# -- remark demo --------------------------------------------------------------------

def test_remark_demo_report():
    report = remark_demo()
    assert render(report.delta) == "¬(0=0)"
    assert report.not_delta_check
    assert report.not_delta_proof.conclusion == NOT_DELTA
    assert report.reduction_to_pr
    assert report.pr_verdict is Truth.UNKNOWN
    assert report.remark_check
    assert report.remark_conclusion == Not(NOT_DELTA)
    assert not report.remark_theory.sound_for_standard_model


def test_remark_one_proof_pinned():
    proof, handle = remark_one_proof()
    assert check_proof(proof, handle)
    assert proof.conclusion == Not(NOT_DELTA)
    assert len(proof.steps) == 12
    assert load_fixture_proof("remark_one.prf") == proof
    # theta itself sits among the steps: the extended theory proves
    # both theta and its negation
    assert NOT_DELTA in [s.formula for s in proof.steps]


def test_remark_reduction_is_the_taut_equiv_fact():
    pr_at = substitute(pr_formula(), 0, quote(DELTA))
    assert taut_equiv(Iff(Not(pr_at), DELTA), pr_at)
    assert not taut_equiv(Iff(Not(pr_at), DELTA), Not(pr_at))
