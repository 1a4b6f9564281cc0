"""Front-door behavior: exit codes, report shape, determinism.

Most cases drive main() in-process and read the JSON report from
capsys; one subprocess case checks the real entry point.  Expected
values are frozen from the module-level oracles elsewhere in the
suite (code of x=x, the micro-catalogue bound table, the first few
sentences of the enumeration stream).
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from selfref import cli
from selfref.cli import main
from selfref.coding import encode
from selfref.parser import parse_formula


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- basics -------------------------------------------------------------------

def test_parse_echoes_canonical_rendering(capsys):
    code, report = _run(capsys, ["parse", "∀x[x=x]"])
    assert code == 0
    assert report["command"] == "parse"
    assert report["outputs"]["canonical"] == "∀x(x=x)"
    assert report["outputs"]["length"] == 7
    assert report["outputs"]["sentence"] is True
    assert report["outputs"]["free_variables"] == []


def test_berry_without_nodes_reports_the_budget_insufficient(capsys):
    # no swept value is decided, so no least undescribed value is either
    code, report = _run(capsys, ["berry", "--micro-maxlen", "8",
                                 "--node-budget", "0"])
    assert code == 1
    assert "budget_insufficient" in report["verdict_failure"]


def test_tarski_without_nodes_reports_the_budget_insufficient(capsys):
    # no truth biconditional is settled, so none licenses the ladder and
    # no 0 = 1 clash may be claimed
    code, report = _run(capsys, ["tarski-experiment", "--micro-maxlen", "8",
                                 "--node-budget", "0"])
    assert code == 1
    assert "budget_insufficient" in report["verdict_failure"]


@pytest.mark.parametrize("command", ["berry", "tarski-experiment"])
def test_micro_maxlen_above_the_cap_is_a_usage_error(capsys, monkeypatch,
                                                     command):
    # the catalogue grows about 4x per length: 17 is refused before any
    # universe is built
    def refuse(*args):
        raise AssertionError("a universe was built")
    monkeypatch.setattr(cli, "micro_universe", refuse)
    maxlen = str(cli._MICRO_MAXLEN_MAX + 1)
    with pytest.raises(SystemExit) as err:
        main([command, "--micro-maxlen", maxlen])
    assert err.value.code == 2
    assert f"at most {cli._MICRO_MAXLEN_MAX}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["berry", "tarski-experiment"])
def test_a_tight_budget_finds_the_least_undefinable_value(capsys, command):
    # values a quantifier's tail settles are not charged, so 234 nodes
    # decide every describability fact up to 4, the default's value
    code, report = _run(capsys, [command, "--node-budget", "234"])
    assert code == 0
    assert report["outputs"]["least_undefinable"] == 4


def test_a_property_over_an_uninterpreted_term_settles_nothing(capsys):
    # the catalogue reading has no inst, so inst(x,x,x)+1 = x is UNKNOWN at
    # every statement code: a term read in bulk keeps each failure
    # through the sum, and no uniqueness or least undefinable value is
    # claimed off an UNKNOWN
    upsilon = ["--upsilon", "inst(x,x,x)+(1)=x"]
    code, report = _run(capsys, ["berry", *upsilon])
    assert code == 1
    assert report["verdict_failure"]["budget_insufficient"] == \
        "uniqueness sweep unsettled at bound 4, value 0"
    code, report = _run(capsys, ["tarski-experiment", *upsilon])
    assert code == 0
    assert report["outputs"]["least_undefinable"] is None


def test_parse_rejects_garbage_with_usage_exit(capsys):
    assert main(["parse", "x=+"]) == 2
    assert capsys.readouterr().out == ""  # no report on usage errors


def test_encode_formula_code_is_pinned(capsys):
    code, report = _run(capsys, ["encode", "x=x"])
    assert code == 0
    assert report["outputs"]["kind"] == "formula"
    assert report["outputs"]["code"] == {
        "base24_digits": 3, "decimal": "9929", "hex": "0x26c9"}


def test_encode_accepts_terms(capsys):
    code, report = _run(capsys, ["encode", "1+(1)"])
    assert code == 0
    assert report["outputs"]["kind"] == "term"


def test_decode_roundtrip(capsys):
    code, report = _run(capsys, ["decode", "9929"])
    assert code == 0
    assert report["outputs"] == {
        "compact": "x=x", "decodes": True, "kind": "formula"}
    code, report = _run(capsys, ["decode", "0x26c9"])
    assert code == 0
    assert report["outputs"]["compact"] == "x=x"


@pytest.mark.parametrize("code", [
    "8083",
    # the digits of len(0,0)=0: an oracle applied to the wrong arity
    "99004635193",
])
def test_decode_non_code_is_verdict_failure(capsys, code):
    exit_code, report = _run(capsys, ["decode", code])
    assert exit_code == 1
    assert report["verdict_failure"]["decodes"] is False


def test_decode_bad_literal_is_usage_error(capsys):
    assert main(["decode", "ninety"]) == 2
    capsys.readouterr()
    assert main(["decode", "-4"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# -- experiments --------------------------------------------------------------

def test_prove_not_found_from_synopsis(capsys):
    code, report = _run(capsys, ["prove", "--goal", "0≠0",
                                 "--budget", "1000"])
    assert code == 0
    out = report["outputs"]
    assert out["outcome"] == "not-found"
    assert out["reason"] == "frontier exhausted"
    assert 0 < out["nodes_used"] <= 1000


def test_prove_finds_double_negation(capsys):
    code, report = _run(capsys, ["prove", "--goal", "¬(¬(0=0))",
                                 "--budget", "100"])
    assert code == 0
    out = report["outputs"]
    assert out["outcome"] == "proved"
    assert out["nodes_used"] == 16
    assert len(out["steps"]) == 3
    assert out["steps"][-1].endswith("mp 0 1")


def test_refute_truth_presets(capsys):
    code, report = _run(capsys, ["refute-truth", "--preset", "parity"])
    assert code == 0
    out = report["outputs"]
    assert out["refuted"] is True
    assert out["sentence_truth"] == "TRUE"
    assert out["candidate_at_code"] == "FALSE"
    code, report = _run(capsys,
                        ["refute-truth", "--preset", "everything-true"])
    assert code == 0
    assert report["outputs"]["sentence_truth"] == "FALSE"
    assert report["outputs"]["candidate_at_code"] == "TRUE"


def test_refute_truth_requires_exactly_one_source(capsys):
    assert main(["refute-truth"]) == 2
    capsys.readouterr()
    assert main(["refute-truth", "--preset", "parity",
                 "--candidate", "x=x"]) == 2


def test_dominate_pinned_values(capsys):
    code, report = _run(capsys, ["dominate", "--x", "4"])
    assert code == 0
    assert report["outputs"]["value"] == 17
    assert report["outputs"]["variant"] == "fixed-input"
    assert len(report["outputs"]["catalogue"]) == 3


def test_dominate_honours_the_node_budget(capsys):
    code, report = _run(capsys, ["dominate", "--x", "4", "--node-budget", "0"])
    assert code == 0 and report["budgets"]["node_budget"] == 0
    assert report["outputs"]["value"] is None
    assert "inconclusive" in report["outputs"]["note"]
    code, report = _run(capsys, ["dominate", "--x", "4"])
    assert code == 0 and report["outputs"]["value"] == 17


def test_dominate_undecided_then_decided_with_budget(capsys):
    code, report = _run(capsys, ["dominate", "--x", "9", "--kotlarski"])
    assert code == 0
    assert report["outputs"]["value"] is None
    assert "undecided" in report["outputs"]["note"]
    code, report = _run(capsys, ["dominate", "--x", "9", "--kotlarski",
                                 "--witness-bound", "128"])
    assert code == 0
    assert report["outputs"]["value"] == 82


def test_tb_first_biconditionals(capsys):
    code, report = _run(capsys, ["tb", "--psi", "∃x′′[x′′+(x′′)=x]",
                                 "--count", "3"])
    assert code == 0
    rows = report["outputs"]["biconditionals"]
    assert [r["verdict"] for r in rows] == ["FALSE", "FALSE", "TRUE"]
    assert rows[0]["biconditional"].endswith("↔(0=0)")


def test_selftest_exit_codes_via_stub(capsys, monkeypatch):
    from selfref import cli
    from selfref.acceptance import CriterionResult
    good = CriterionResult(1, "stub", True, "fine", 0.01, None)
    bad = CriterionResult(2, "stub", False, "broken", 0.01, 1.0)
    monkeypatch.setattr(cli, "run_all", lambda: [good])
    assert cli.main(["selftest"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_all", lambda: [good, bad])
    assert cli.main(["selftest"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict_failure"]["failed"] == [2]


# -- report plumbing ----------------------------------------------------------

def test_reports_are_deterministic_modulo_wall_time(capsys):
    argv = ["refute-truth", "--preset", "parity"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


# both routes to Tarski: the fixed point and its certificate, and the two
# diagonal-free experiments over their catalogues
_PINNED_RUNS = [
    ["refute-truth", "--preset", "everything-true"],
    ["refute-truth", "--preset", "nothing-true"],
    ["refute-truth", "--preset", "parity"],
    ["diagonalize", "--psi", "x=x"],
    ["rosser"],
    ["goedel"],
    ["berry", "--micro-maxlen", "8"],
    ["berry", "--upsilon", "¬(x=x)", "--micro-maxlen", "8"],
    ["tarski-experiment", "--micro-maxlen", "8"],
    ["dominate", "--x", "5"],
    ["dominate", "--x", "20", "--kotlarski"],
    ["tb", "--psi", "x=x"],
]


def test_reports_of_both_routes_are_pinned(capsys):
    h = hashlib.sha256()
    for argv in _PINNED_RUNS:
        code, report = _run(capsys, argv)
        report.pop("wall_time_s")
        h.update(json.dumps([argv, code, report], ensure_ascii=False,
                            sort_keys=True).encode())
    assert h.hexdigest() == \
        "597b14f90db5a9ac683f9b068ab25d93767e4b0605851f70a9b9660be19763f3"


def test_json_flag_duplicates_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["encode", "x=x", "--json", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_report_keys_are_sorted(capsys):
    _, report = _run(capsys, ["parse", "0=0"])
    assert list(report) == sorted(report)
    assert list(report["outputs"]) == sorted(report["outputs"])
    assert set(report) == {"budgets", "command", "inputs", "outputs",
                           "version", "wall_time_s"}


def test_budget_profile_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("SELFREF_BUDGET_PROFILE",
                       "witness-bound=9,node-budget=1234")
    _, report = _run(capsys, ["parse", "0=0"])
    assert report["budgets"]["witness_bound"] == 9
    assert report["budgets"]["node_budget"] == 1234
    _, report = _run(capsys, ["parse", "0=0", "--witness-bound", "33"])
    assert report["budgets"]["witness_bound"] == 33
    assert report["budgets"]["node_budget"] == 1234


def test_bad_budget_profile_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SELFREF_BUDGET_PROFILE", "bogus=1")
    assert main(["parse", "0=0"]) == 2


@pytest.mark.parametrize("bound", ["-4", str(cli._WITNESS_BOUND_MAX + 1)])
def test_out_of_range_budget_profile_is_usage_error(capsys, monkeypatch,
                                                    bound):
    monkeypatch.setenv("SELFREF_BUDGET_PROFILE", f"witness-bound={bound}")
    assert main(["parse", "0=0"]) == 2


def test_entry_point_subprocess():
    done = subprocess.run(
        [sys.executable, "-m", "selfref.cli", "parse", "0=0"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["outputs"]["canonical"] == "0=0"


_DEEP_NEGATION = "¬(" * 1200 + "0=0" + ")" * 1200


@pytest.mark.parametrize("argv, exit_code", [
    # formulas using Tr or inst have no code: a usage error
    (["encode", "Tr(x)"], 2),
    (["encode", "inst(0,0,0)=0"], 2),
    (["diagonalize", "--psi", "Tr(x)"], 2),
    (["refute-truth", "--candidate", "Tr(x)"], 2),
    # an oracle applied to the wrong number of arguments
    (["encode", "len(0,0)=0"], 2),
    # deep nesting, in a term and in a formula, and back from a code
    (["encode", "len(" * 1200 + "0" + ")" * 1200], 0),
    (["encode", _DEEP_NEGATION], 0),
    (["decode", str(encode(parse_formula(_DEEP_NEGATION)))], 0),
    (["diagonalize", "--psi", "¬(" * 1200 + "x=x" + ")" * 1200], 0),
    (["berry", "--micro-maxlen", "6", "--upsilon", "Tr(0)∨(x=x)"], 0),
    # an unsettled report is a verdict failure
    (["berry", "--micro-maxlen", "6", "--upsilon", "inst(x,0,0)=0"], 1),
    # integer flags take values >= 0, the witness bound at most 10**6
    (["berry", "--micro-maxlen", "6", "--witness-bound", "-1"], 2),
    (["dominate", "--x", "1", "--witness-bound", "1" + "0" * 30], 2),
    (["dominate", "--x", "-1"], 2),
    (["berry", "--micro-maxlen", "-3"], 2),
    (["prove", "--goal", "0=0", "--budget", "-1"], 2),
    (["tb", "--psi", "x=x", "--count", "-1"], 2),
    (["diagonalize", "--psi", "x=x", "--node-budget", "-5"], 2),
    # a property needs exactly one free variable
    (["diagonalize", "--psi", "0=0"], 2),
    (["diagonalize", "--psi", "x=x′"], 2),
    (["refute-truth", "--candidate", "0=0"], 2),
    (["tb", "--psi", "0=0"], 2),
    (["berry", "--upsilon", "0=0"], 2),
    (["tarski-experiment", "--upsilon", "x=x′"], 2),
], ids=["encode-Tr", "encode-inst", "diagonalize-Tr", "refute-truth-Tr",
        "encode-arity", "deep-term", "deep-negation", "decode-deep-negation",
        "diagonalize-deep-negation", "berry-Tr0", "berry-unsettled",
        "negative-witness-bound", "huge-witness-bound", "negative-x",
        "negative-micro-maxlen", "negative-budget", "negative-count",
        "negative-node-budget", "diagonalize-closed", "diagonalize-two-free",
        "refute-truth-closed", "tb-closed", "berry-closed",
        "tarski-experiment-two-free"])
def test_exit_codes_without_traceback(argv, exit_code):
    done = subprocess.run([sys.executable, "-m", "selfref.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == exit_code
    assert "Traceback" not in done.stderr
    # usage errors quote a short prefix of the input, not all of it
    assert all(len(line) <= 300 for line in done.stderr.splitlines())


@pytest.mark.parametrize("n", [0, 7, 10**40 - 1, 10**40, 10**40 + 1,
                               99999 * 10**60, 10**5000 - 1, 3**20000])
def test_int_summary_matches_the_decimal_spelling(n):
    text = str(n)
    want = n if len(text) <= 40 else f"{text[0]}.{text[1:5]}e{len(text) - 1}"
    assert cli._int_summary(n) == want


# -- argv fuzz -----------------------------------------------------------------

_NESTED = st.integers(1, 700)
_FORMULA_TEXT = st.one_of(
    st.sampled_from(["x=x", "0=0", "x=x′", "¬(x=x)", "Tr(x)", "Tr(0)∨(x=x)", "∃x′(x′·x′=x)",
                     "x<#" + "9" * 60, "len(x)<x", "prf(x,x)", "inst(x,0,0)=0",
                     "x=+", "", "(((", "∀x", "x=x)", "#-3=x"]),
    _NESTED.map(lambda k: "¬(" * k + "x=x" + ")" * k),
    _NESTED.map(lambda k: "len(" * k + "x" + ")" * k + "=0"),
    _NESTED.map(lambda k: "(" * k + "x=x" + ")" * k),
    st.text(st.sampled_from(list("x′01+·=<¬∧∨→↔∀∃()#9,Trlen ")), max_size=40),
)
_MALFORMED_INT = st.sampled_from(["-1", "-0", "-99999999999", "abc", "", "1.5",
                                  "0x10", "1e3", " 2", "٣", "9" * 400 + "x"])
_HUGE_INT = st.integers(10, 5000).map(lambda k: "9" * k)


def _small_int(top: int):
    return st.one_of(st.integers(0, top).map(str), _MALFORMED_INT)


_CODE_TEXT = st.one_of(
    st.integers(0, 10**6).map(str), _HUGE_INT, _MALFORMED_INT,
    st.integers(0, 10**40).map(hex), st.just("0x" + "f" * 3000))
# per subcommand: its flags and positional argument, each with values
# drawn from a strategy; budgets and --micro-maxlen stay small, so every
# run is short, and huge values go where they cost nothing to refuse
_BUDGET_FLAGS = {"--witness-bound": _small_int(4),
                 "--depth-bound": st.one_of(_small_int(8), _HUGE_INT),
                 "--node-budget": _small_int(300)}
_MICRO = {"--upsilon": _FORMULA_TEXT, "--micro-maxlen": _small_int(6)}
_SUBCOMMANDS = {
    "parse": ([_FORMULA_TEXT], {}),
    "encode": ([_FORMULA_TEXT], {}),
    "decode": ([_CODE_TEXT], {}),
    "diagonalize": ([], {"--psi": _FORMULA_TEXT}),
    "refute-truth": ([], {"--candidate": _FORMULA_TEXT,
                          "--preset": st.one_of(
                              st.sampled_from(sorted(cli._PRESETS)),
                              _FORMULA_TEXT)}),
    "berry": ([], _MICRO),
    "tarski-experiment": ([], _MICRO),
    "prove": ([], {"--goal": _FORMULA_TEXT, "--budget": _small_int(40)}),
    "rosser": ([], {}),
    "goedel": ([], {}),
    "remark-demo": ([], {}),
    "dominate": ([], {"--x": st.one_of(_small_int(6), _HUGE_INT)}),
    "tb": ([], {"--psi": _FORMULA_TEXT, "--count": _small_int(3)}),
}


@st.composite
def _argv(draw):
    """(argv, where --json points: None, or a key of _JSON_PATHS)."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    positional, flags = _SUBCOMMANDS[command]
    argv = [command] + [draw(value) for value in positional
                        if draw(st.integers(0, 3))]
    options = {**flags, **_BUDGET_FLAGS}
    if command in ("berry", "tarski-experiment"):  # the default is 12
        argv += ["--micro-maxlen", draw(st.integers(0, 6).map(str))]
    if command == "dominate" and draw(st.booleans()):
        # F_kotlarski costs x + 1 witness scans per catalogue formula
        argv.append("--kotlarski")
        options["--x"] = _small_int(6)
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
        argv += [flag, draw(options[flag])]
    stray = draw(st.integers(0, 9))
    if stray == 0:  # an unknown subcommand
        argv[0] = draw(_FORMULA_TEXT)
    elif stray == 1:  # a flag no subcommand has, or a stray argument
        argv.append(draw(st.one_of(
            st.sampled_from(["--bogus", "-x", "--", "--json"]),
            _FORMULA_TEXT)))
    return argv, draw(st.sampled_from([None] * 4 + sorted(_JSON_PATHS)))


_JSON_PATHS = {"a directory": "", "a missing directory": "no/such/report.json",
               "a new file": "report.json"}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_argv())
def test_argv_fuzz_gives_an_exit_code_and_short_stderr(drawn):
    argv, json_to = drawn
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if json_to is not None:
            argv = argv + ["--json", os.path.join(tmp, _JSON_PATHS[json_to])]
        try:
            code = main(argv)
        except SystemExit as done:  # argparse's usage errors
            code = done.code
    assert code in (0, 1, 2)
    assert all(len(line) <= 300 for line in err.getvalue().splitlines())


def _streams(argv) -> tuple:
    """Exit code, stdout (wall time dropped) and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    report = out.getvalue()
    if report:
        report = json.loads(report)
        report.pop("wall_time_s")
    return code, report, err.getvalue()


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path):
    unwritable = str(tmp_path / "missing" / "report.json")
    runs = [
        ["parse", "x=+"],  # a usage error of the command
        ["frobnicate"],  # an argparse error
        ["refute-truth", "--preset", "p" * 400],  # capped at 200 characters
        ["parse", "0=0"],
        ["encode", "x=x", "--json", unwritable],
        ["encode", "x=x", "--json", str(tmp_path / "report.json")],
        ["decode", "9929"],
    ]
    cached = [_streams(argv) for argv in runs]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(_streams(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 2, 2, 0, 2, 0, 0]
    assert "… (495 characters)" in cached[2][2]
    assert "cannot write" in cached[4][2]
