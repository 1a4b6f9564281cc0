"""Fixed points by digit splicing: the diagonal construction.

The expected values here come from two independent routes.  The
splice arithmetic inside Diag is cross-checked against encode() over
the actual substituted tree, and parity facts about the resulting
codes are read off the last token directly (base 24 is even, so a
value is odd exactly when its last digit is).
"""

import dataclasses
import gc
from importlib import resources

import pytest

from selfref import diagonal, syntax
from selfref.bignat import BigNat
from selfref.coding import decode, encode
from selfref.diagonal import (
    bare_occurrence_positions,
    build_delta,
    build_diag_formula,
    check_diag_instance,
    check_fixed_point,
    const_term,
    diagonal_sentence,
    meta_diagonalize,
    normalize_psi,
    refute_truth_definition,
    taut_equiv,
)
from selfref.parser import parse_formula
from selfref.semantics import (
    Budget, OracleEnv, Truth, eval_term, evaluate, standard_oracle_env,
)
from selfref.syntax import (
    Add, And, Eq, Exists, Forall, Iff, Implies, Lt, Mul, Not, One, Or,
    OracleAtom, Var, Zero, free_vars, length, numeral, render, substitute,
    tokens,
)

T, F, U = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN

EVEN = Exists(Var(2), Eq(Add(Var(2), Var(2)), Var(0)))
ODD = Not(EVEN)


def test_diag_formula_matches_frozen_fixture():
    diag = build_diag_formula()
    frozen = (resources.files("selfref") / "fixtures" /
              "diag_formula.txt").read_text().strip()
    assert render(diag) == frozen
    assert parse_formula(frozen) == diag
    # free variables are exactly the input and output slots
    assert free_vars(diag) == {0, 1}


def test_diag_formula_code_pins():
    diag = build_diag_formula()
    assert length(diag) == 11280
    code = encode(diag)
    assert code % 97 == 4
    assert code % (10**9 + 7) == 480273335


def test_diag_free_input_occurs_once():
    toks = list(tokens(build_diag_formula()))
    assert len(bare_occurrence_positions(toks)) == 1


def test_const_term_evaluates_to_its_value():
    env = OracleEnv()
    for k in [0, 1, 23, 24, 25, 576, 1238, 13823, 24**4 + 7]:
        assert eval_term(const_term(k), {}, env) == k
    # Horner form stays small where plain numerals explode
    assert length(const_term(13823)) < 600


@pytest.mark.parametrize("source", [
    "0<x",                 # one occurrence
    "x=x",                 # two
    "x<x+(x)",             # three
    "Ex'(x=x'+(x'))",      # bound variables stay untouched
    "x+(x)=x+(0)",
])
def test_diag_instance_certifies_true(source):
    phi = parse_formula(source)
    report = check_diag_instance(phi)
    assert report.truth is T
    # the image really is the tree-level substitution
    assert report.image == meta_diagonalize(phi)
    assert report.image_code == encode(report.image)


def test_diag_instance_rejects_unsupported_counts():
    with pytest.raises(ValueError):
        check_diag_instance(parse_formula("x+(x)=x+(x)"))
    with pytest.raises(ValueError):
        check_diag_instance(parse_formula("0<1"))


def test_normalize_psi_moves_free_variable_to_y():
    psi = parse_formula("Ax'(x'<x->(x'=0))")
    clean = normalize_psi(psi)
    assert free_vars(clean) == {1}
    assert not bare_occurrence_positions(list(tokens(clean)))


def test_normalize_psi_renames_binders_away_from_x():
    # a binder on bare x would fake a splice point
    psi = parse_formula("Ex(x=x')")  # free variable is x', bound is x
    clean = normalize_psi(psi)
    assert free_vars(clean) == {1}
    assert not bare_occurrence_positions(list(tokens(clean)))


def test_normalize_psi_requires_one_free_variable():
    with pytest.raises(ValueError):
        normalize_psi(parse_formula("x=x'"))
    with pytest.raises(ValueError):
        normalize_psi(parse_formula("0=0"))


def test_delta_has_single_splice_point():
    for psi in (EVEN, ODD, Eq(Var(0), Var(0))):
        delta = build_delta(psi)
        assert len(bare_occurrence_positions(list(tokens(delta)))) == 1


def test_parity_fixed_point_certified_false_on_both_sides():
    cert = diagonal_sentence(EVEN)
    # independent parity oracle: the sentence ends with ")", id 15,
    # and the base is even, so the code is odd
    assert render(cert.delta).endswith(")")
    assert cert.theta_code.mod_int(24) == 15
    assert cert.theta_code.mod_int(2) == 1
    report = check_fixed_point(cert)
    assert report.theta_truth is F
    assert report.psi_at_code_truth is F
    assert report.equivalence is T


def test_parity_flip_certified_true_on_both_sides():
    report = check_fixed_point(diagonal_sentence(ODD))
    assert report.theta_truth is T
    assert report.psi_at_code_truth is T
    assert report.equivalence is T


def _residue(cert, m: int) -> int:
    code = cert.theta_code
    return code.mod_int(m) if isinstance(code, BigNat) else code % m


@pytest.mark.parametrize("name,psi,expected", [
    ("tautology", Eq(Var(0), Var(0)), T),
    ("contradiction", Not(Eq(Var(0), Var(0))), F),
    ("above-five", Lt(numeral(5), Var(0)), T),
    ("below-five", Lt(Var(0), numeral(5)), F),
    ("zero", Eq(Var(0), Zero()), F),
    ("successor", Exists(Var(2), Eq(Add(Var(2), One()), Var(0))), T),
    ("growth", Lt(Var(0), Add(Var(0), One())), T),
])
def test_fixed_points_across_shapes(name, psi, expected):
    report = check_fixed_point(diagonal_sentence(psi))
    assert report.theta_truth is expected, name
    assert report.psi_at_code_truth is expected, name
    assert report.equivalence is T, name


@pytest.mark.parametrize("modulus,shift", [(3, 0), (6, 3)])
def test_fixed_points_on_residue_properties(modulus, shift):
    w = Var(2)
    psi = Exists(w, Eq(Add(Mul(numeral(modulus), w), numeral(shift)),
                       Var(0)))
    cert = diagonal_sentence(psi)
    expected = T if _residue(cert, modulus) == shift else F
    report = check_fixed_point(cert)
    assert report.theta_truth is expected
    assert report.psi_at_code_truth is expected
    assert report.equivalence is T


def test_certificate_summary_reports_sizes():
    cert = diagonal_sentence(EVEN)
    info = cert.summary()
    assert info["delta_tokens"] == int(length(cert.delta))
    assert info["witnessed_nodes"] == len(cert.witnesses)
    # theta's token count is a giant integer, kept as an int
    assert info["theta_tokens"] == 4 * cert.delta_code - 3 \
        + int(length(cert.delta)) - 1


def test_verdicts_stable_under_larger_budgets():
    big = Budget(witness_bound=128, iter_cap=8192,
                 node_budget=2_000_000, depth_bound=512)
    for psi, expected in ((EVEN, F), (ODD, T)):
        cert = diagonal_sentence(psi)
        report = check_fixed_point(cert, budget=big)
        assert report.theta_truth is expected
        assert report.equivalence is T


def test_wrong_witness_cannot_fake_truth():
    cert = diagonal_sentence(ODD)
    env = standard_oracle_env()
    for offset in (1, 2):
        tampered = dict(cert.witnesses)
        tampered[()] = cert.theta_code + offset
        got = evaluate(cert.theta, env, Budget(), tampered)
        assert got is not T


def test_refute_truth_definition_on_parity_candidate():
    report = refute_truth_definition(EVEN)
    assert report.refuted
    assert report.theta_truth is T
    assert report.candidate_at_code is F


def test_refute_truth_definition_on_threshold_candidate():
    report = refute_truth_definition(Lt(numeral(5), Var(0)))
    assert report.refuted
    assert report.theta_truth is F
    assert report.candidate_at_code is T


def test_taut_equiv_basic_laws():
    a = OracleAtom("prf", (Zero(), Zero()))
    b = OracleAtom("Formula", (One(),))
    assert taut_equiv(Implies(a, b), Or(Not(a), b))
    assert taut_equiv(And(a, b), And(b, a))
    assert taut_equiv(Not(Not(a)), a)
    assert not taut_equiv(a, Not(a))
    assert not taut_equiv(Implies(a, b), Implies(b, a))


def test_taut_equiv_folds_closed_comparisons():
    a = OracleAtom("prf", (Zero(), Zero()))
    top = Eq(Zero(), Zero())
    bottom = Eq(Zero(), One())
    assert taut_equiv(Implies(top, a), a)
    assert taut_equiv(Or(bottom, a), a)
    assert taut_equiv(And(top, Not(bottom)), top)


def test_taut_equiv_atom_limit():
    atoms = [OracleAtom("prf", (numeral(i), Zero())) for i in range(6)]
    left = atoms[0]
    for x in atoms[1:]:
        left = And(left, x)
    with pytest.raises(ValueError):
        taut_equiv(left, left, max_atoms=3)


def _direct_equiv(psi, theta):
    at_code = substitute(normalize_psi(psi), 1, numeral(encode(theta)))
    return evaluate(Iff(at_code, theta), standard_oracle_env(), Budget())


def test_flip_equiv_witness_valid_property():
    psi = Eq(Var(0), Var(0))
    theta = Eq(Zero(), Zero())
    assert _direct_equiv(psi, theta) is Truth.TRUE


def test_flip_equiv_witness_unsatisfiable_property():
    psi = Not(Eq(Var(0), Var(0)))
    theta = Eq(Zero(), Zero())
    assert _direct_equiv(psi, theta) is Truth.FALSE


def test_giant_code_arithmetic_leaves_no_cyclic_garbage():
    # the radix conversion's recursive helpers are module functions, not
    # self-referencing closures, so these are freed by reference counting
    psi = parse_formula("∃x′′(x′′+(x′′)=x)")
    delta = build_delta(psi)
    gc.collect()
    code = encode(delta)
    assert decode(code) == delta
    cert = diagonal_sentence.__wrapped__(psi)
    assert isinstance(cert.theta_code, BigNat)
    del cert
    assert gc.collect() == 0


def test_a_second_bare_x_fails_the_splice_point_check(monkeypatch):
    # the extra "∃x(x=0)" sits under a 100-deep tower, inside nodes that
    # keep their spelling, so the check must open them to see it
    extra = Exists(Var(0), Eq(Var(0), Zero()))
    for _ in range(100):
        extra = Not(extra)
    real = diagonal.build_delta
    monkeypatch.setattr(diagonal, "build_delta",
                        lambda psi: And(real(psi), extra))
    with pytest.raises(AssertionError,
                       match="exactly one splice point, found 3"):
        diagonal_sentence.__wrapped__(EVEN)


def test_a_splice_that_disagrees_with_encode_is_caught(monkeypatch):
    real = diagonal._splice_all

    def off_by_one(pieces, a):
        splice = real(pieces, a)
        return dataclasses.replace(splice, y_value=splice.y_value + 1)

    monkeypatch.setattr(diagonal, "_splice_all", off_by_one)
    with pytest.raises(AssertionError,
                       match="splice arithmetic disagrees with encode"):
        diagonal_sentence.__wrapped__(ODD)


def test_a_new_property_streams_only_its_own_tokens(monkeypatch):
    # Diag's 11,280 tokens are read from cached facts once one property
    # has been diagonalized; streaming all of delta and theta would pass
    # about 33,000 tokens through token_pieces
    diagonal_sentence.__wrapped__(EVEN)
    streamed = []
    real = syntax.token_pieces

    def counted(x, facts=None):
        pieces = real(x, facts)
        streamed.extend(pieces)
        return pieces

    for module in (syntax, diagonal):
        monkeypatch.setattr(module, "token_pieces", counted)
    cert = diagonal_sentence.__wrapped__(
        parse_formula("∃x′′(1+(1+(1+(1+(1))))·(x′′)=x)"))
    assert 0 < len(streamed) < 1000
    assert bare_occurrence_positions(list(tokens(cert.delta))) == \
        [cert.summary()["splice_position"]] == [13]
