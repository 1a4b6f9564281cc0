"""Command-line front door: build objects, run experiments, emit JSON.

Every subcommand writes exactly one JSON report to stdout, key-sorted
and stable, so identical invocations produce byte-identical output
except for the wall-time field.  Exit codes: 0 for success, 1 for a
verdict failure such as a failed invariant or a failed selftest, 2 for
usage errors.

Budget defaults come from the ``SELFREF_BUDGET_PROFILE`` environment
variable (read once at startup, comma-separated ``key=value`` pairs
with the same names as the flags), and the flags win over the profile.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .acceptance import TRUTH_CANDIDATES, run_all
from .berry import (
    BudgetInsufficient, berry_contradiction_report, build_bundle,
    length_audit, micro_universe,
    syntactic_tarski_experiment, truth_oracle_property,
)
from .bignat import BigNat, BigNatError, _digit_count
from .coding import NotACode, decode, encode
from .diagonal import NotOneFree, check_fixed_point, diagonal_sentence, \
    refute_truth_definition
from .domination import F_fixed_input, F_kotlarski, micro_scheme
from .parser import ParseError, parse, parse_formula
from .proofs import (
    NotFound, consistency_witness, goedel_sentence, proofs_env, remark_demo,
    rosser_sentence, search_report, serialize_proof, standard_theory,
    tb_stream,
)
from .semantics import Budget, evaluate
from .syntax import Formula, free_vars, is_sentence, length, render

SCHEME_VERSION = "1"

# keep giant values out of reports: decimal strings above this many
# characters are summarized by their digit counts instead
_DECIMAL_CAP = 100_000
_RENDER_CAP = 100_000
# sweeps hold per-value lists, so memory grows with the witness bound:
# `dominate --x 1` peaks at 49 MB with a bound of 10**6, 19 MB at 20,000
_WITNESS_BOUND_MAX = 10**6
# the catalogue grows about 4x per length: a berry run takes 2.3 s and
# 52 MB at 14, 11-14 s and 275 MB at 16 on two cores, and up to length
# 19 there are 28 million formulas
_MICRO_MAXLEN_MAX = 16

_PRESETS = dict(TRUTH_CANDIDATES)


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors quote at most 200 characters."""

    def error(self, message: str):
        super().error(message if len(message) <= 200
                      else f"{message[:200]}… ({len(message)} characters)")


class _VerdictFailure(Exception):
    """A verdict failure, carrying the report's verdict_failure dict."""


# -- report plumbing --------------------------------------------------------------------

def _int_summary(n: int):
    # digit counts can themselves be astronomical; keep the magnitude, read
    # without str(), which takes quadratic time on such values
    if n < 10**40:
        return n
    length = _digit_count(n, 10)
    head = str(n // 10 ** (length - 5))
    return f"{head[0]}.{head[1:]}e{length - 1}"


def _code_payload(code) -> dict:
    if isinstance(code, BigNat):
        digits = code.digits24
        if not code.is_materializable():
            return {"base24_digits": _int_summary(digits),
                    "note": "value beyond the exact display cap"}
        value = code.to_int()
    else:
        value = int(code)
        digits = BigNat.from_int(value).digits24
    decimal = str(value)
    if len(decimal) > _DECIMAL_CAP:
        return {"base24_digits": _int_summary(digits),
                "note": "decimal display capped"}
    return {"base24_digits": _int_summary(digits), "decimal": decimal,
            "hex": hex(value)}


def _certificate_payload(summary: dict) -> dict:
    return {**summary, "theta_tokens": _int_summary(summary["theta_tokens"])}


def _render_capped(x) -> str:
    try:
        text = render(x, compact=True)
    except BigNatError:
        return "<contains a numeral too large to spell out>"
    if len(text) > _RENDER_CAP:
        return text[:_RENDER_CAP] + "...<capped>"
    return text


def _emit(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"
    sys.stdout.write(text)
    if json_path:
        try:
            Path(json_path).write_text(text, encoding="utf-8")
        except OSError as err:
            raise _Usage(f"cannot write {_echo(json_path)}: {err.strerror}") \
                from None


def _parse_profile(raw: str) -> dict[str, int]:
    profile: dict[str, int] = {}
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        key = key.strip().replace("_", "-")
        if not sep or key not in ("witness-bound", "depth-bound",
                                  "node-budget", "iter-cap"):
            raise _Usage(f"bad budget profile entry {_echo(piece)}")
        try:
            profile[key] = _non_negative(value)
        except argparse.ArgumentTypeError:
            raise _Usage(f"bad budget profile value {_echo(piece)}") \
                from None
    return profile


def _non_negative(text: str, top: Optional[int] = None) -> int:
    """The argparse type of every integer flag: an integer >= 0, and at
    most top if one is given."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {_echo(text)}")
    if top is not None and value > top:
        raise argparse.ArgumentTypeError(
            f"expected at most {top}, got {_echo(text)}")
    return value


def _echo(text: str) -> str:
    """An input as usage messages quote it: at most its first 80 characters."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r}… ({len(text)} characters)"


def _budget(args, profile: dict[str, int]) -> Budget:
    defaults = Budget()
    witness = profile.get("witness-bound", defaults.witness_bound)
    depth = profile.get("depth-bound", defaults.depth_bound)
    nodes = profile.get("node-budget", defaults.node_budget)
    iters = profile.get("iter-cap", defaults.iter_cap)
    if args.witness_bound is not None:
        witness = args.witness_bound
    if witness > _WITNESS_BOUND_MAX:
        raise _Usage(f"the witness bound is at most {_WITNESS_BOUND_MAX}")
    if args.depth_bound is not None:
        depth = args.depth_bound
    if args.node_budget is not None:
        nodes = args.node_budget
    return Budget(witness_bound=witness, iter_cap=iters,
                  node_budget=nodes, depth_bound=depth)


def _formula_arg(text: str) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as err:
        raise _Usage(f"cannot parse formula {_echo(text)}: {err}") from None


# -- subcommand bodies ------------------------------------------------------------------

def _cmd_parse(args, budget) -> tuple[dict, dict]:
    phi = _formula_arg(args.formula)
    tokens = length(phi)
    compact = render(phi, compact=True)
    outputs = {
        "canonical": compact if tokens > 10_000 else render(phi),
        "compact": compact,
        "length": tokens,
        "free_variables": sorted(free_vars(phi)),
        "sentence": is_sentence(phi),
    }
    if tokens > 10_000:
        outputs["note"] = "canonical spelling too long; compact shown"
    return {"formula": args.formula}, outputs


def _cmd_encode(args, budget) -> tuple[dict, dict]:
    try:
        obj = parse(args.expression)
    except ParseError as err:
        raise _Usage(f"cannot parse {_echo(args.expression)}: {err}") \
            from None
    return ({"expression": args.expression},
            {"kind": "formula" if isinstance(obj, Formula) else "term",
             "code": _code_payload(encode(obj))})


def _cmd_decode(args, budget) -> tuple[dict, dict]:
    try:
        code = int(args.code, 0)
    except ValueError:
        raise _Usage(f"bad code literal {_echo(args.code)}") from None
    if code < 0:
        raise _Usage("codes are non-negative")
    inputs = {"code": args.code}
    try:
        obj = decode(code)
    except NotACode as err:
        raise _VerdictFailure({"decodes": False, "reason": str(err)})
    return inputs, {"decodes": True,
                    "kind": "formula" if isinstance(obj, Formula)
                    else "term",
                    "compact": _render_capped(obj)}


def _cmd_diagonalize(args, budget) -> tuple[dict, dict]:
    psi = _formula_arg(args.psi)
    cert = diagonal_sentence(psi)
    report = check_fixed_point(cert, budget=budget)
    outputs = {
        "theta_compact": _render_capped(cert.theta),
        "theta_code": _code_payload(cert.theta_code),
        "certificate": _certificate_payload(cert.summary()),
        "verdicts": {
            "theta": report.theta_truth.name,
            "property_at_code": report.psi_at_code_truth.name,
            "equivalence": report.equivalence.name,
        },
        "nodes_used": report.nodes_used,
    }
    return {"psi": args.psi}, outputs


def _cmd_refute_truth(args, budget) -> tuple[dict, dict]:
    if (args.candidate is None) == (args.preset is None):
        raise _Usage("give exactly one of --candidate or --preset")
    if args.preset is not None:
        candidate = _PRESETS[args.preset]
        inputs = {"preset": args.preset}
    else:
        candidate = _formula_arg(args.candidate)
        inputs = {"candidate": args.candidate}
    report = refute_truth_definition(candidate, budget=budget)
    outputs = {
        "candidate_compact": _render_capped(report.candidate),
        "refuted": report.refuted,
        "sentence_truth": report.theta_truth.name,
        "candidate_at_code": report.candidate_at_code.name,
        "explanation": report.explanation,
        "lambda_code": _code_payload(report.certificate.theta_code),
    }
    if not report.refuted:
        raise _VerdictFailure(outputs)
    return inputs, outputs


def _cmd_berry(args, budget) -> tuple[dict, dict]:
    upsilon = (_formula_arg(args.upsilon) if args.upsilon
               else truth_oracle_property())
    bundle = build_bundle(upsilon)
    audit = length_audit(bundle)
    universe = micro_universe(args.micro_maxlen, budget)
    report = berry_contradiction_report(bundle, universe, budget)
    outputs = {
        "upsilon_compact": _render_capped(upsilon),
        "ell": bundle.ell,
        "b_length": audit.b_length,
        "six_ell": audit.six_ell,
        "bound_holds": audit.bound_holds,
        "least_undefinable": report.berry_value,
        "tb_licensed": report.tb_licensed,
        "uniqueness": report.uniqueness.unique,
        "clash": {
            "b_at_value_genuine": report.b_at_berry_genuine.name,
            "described_at_value": report.def_at_berry_closed.name,
            "b_at_value_described": report.b_at_berry_closed.name,
            "contradiction": report.contradiction,
        },
        "note": report.note,
    }
    if not report.uniqueness.unique:
        raise _VerdictFailure(outputs)
    return ({"upsilon": args.upsilon, "micro_maxlen": args.micro_maxlen},
            outputs)


def _cmd_tarski_experiment(args, budget) -> tuple[dict, dict]:
    upsilon = (_formula_arg(args.upsilon) if args.upsilon
               else truth_oracle_property())
    universe = micro_universe(args.micro_maxlen, budget)
    report = syntactic_tarski_experiment(universe, build_bundle(upsilon),
                                         budget)
    outputs = {
        "upsilon_compact": _render_capped(upsilon),
        "tb_licensed": report.tb_licensed,
        "p_bound": report.p_bound,
        "least_undefinable": report.berry_value,
        "ladder_break": report.ladder_break,
        "codes_listed": len(report.codes),
        "duplicate": list(report.duplicate) if report.duplicate else None,
        "clash": (dataclasses.asdict(report.clash) if report.clash
                  else None),
        "conclusion": report.conclusion,
    }
    return ({"upsilon": args.upsilon, "micro_maxlen": args.micro_maxlen},
            outputs)


def _cmd_prove(args, budget) -> tuple[dict, dict]:
    goal = _formula_arg(args.goal)
    theory = standard_theory()
    report = search_report(goal, theory, args.budget)
    inputs = {"goal": args.goal, "budget": args.budget}
    if isinstance(report.outcome, NotFound):
        return inputs, {"outcome": "not-found",
                        "nodes_used": report.outcome.nodes_used,
                        "reason": report.outcome.reason}
    proof = report.outcome
    return inputs, {"outcome": "proved",
                    "nodes_used": report.nodes_used,
                    "steps": serialize_proof(proof).splitlines()}


def _cmd_rosser(args, budget) -> tuple[dict, dict]:
    built = rosser_sentence(standard_theory())
    outputs = {
        "sentence_length": _int_summary(int(length(built.rho))),
        "biconditional_compact": _render_capped(built.biconditional),
        "certificate": _certificate_payload(built.certificate.summary()),
        "sentence_code": _code_payload(built.certificate.theta_code),
        "extended_theory": built.theory.name,
        "extension_sound": built.theory.sound_for_standard_model,
    }
    return {}, outputs


def _cmd_goedel(args, budget) -> tuple[dict, dict]:
    theory = standard_theory()
    cert = goedel_sentence(theory)
    witness = consistency_witness(cert.theta, theory, budget=budget)
    outputs = {
        "property_compact": _render_capped(cert.psi),
        "certificate": _certificate_payload(cert.summary()),
        "sentence_code": _code_payload(cert.theta_code),
        "consistency_witness": {
            "outcome": type(witness).__name__,
            "detail": getattr(witness, "detail", ""),
        },
    }
    return {}, outputs


def _cmd_remark_demo(args, budget) -> tuple[dict, dict]:
    report = remark_demo()
    outputs = {
        "refutable_sentence": render(report.delta),
        "reduction_to_provability": report.reduction_to_pr,
        "provability_verdict": report.pr_verdict.name,
        "refutation_checked": report.not_delta_check,
        "extension_proof_checked": report.remark_check,
        "extension_conclusion": render(report.remark_conclusion),
        "extension_theory": report.remark_theory.name,
        "extension_sound": report.remark_theory.sound_for_standard_model,
        "note": report.note,
    }
    if not (report.reduction_to_pr and report.not_delta_check
            and report.remark_check):
        raise _VerdictFailure(outputs)
    return {}, outputs


def _cmd_dominate(args, budget) -> tuple[dict, dict]:
    scheme = micro_scheme()
    fn = F_kotlarski if args.kotlarski else F_fixed_input
    value = fn(args.x, budget, scheme)
    outputs = {
        "variant": "kotlarski" if args.kotlarski else "fixed-input",
        "catalogue": [render(phi) for phi in scheme.formulas],
        "value": value if isinstance(value, int) else None,
    }
    if not isinstance(value, int):
        outputs["note"] = ("undecided at this witness bound: "
                           + getattr(value, "detail", ""))
    return {"x": args.x}, outputs


def _cmd_tb(args, budget) -> tuple[dict, dict]:
    psi = _formula_arg(args.psi)
    env = proofs_env(standard_theory())
    rows = []
    stream = tb_stream(psi)
    for _ in range(args.count):
        bicond = next(stream)
        rows.append({
            "biconditional": _render_capped(bicond),
            "verdict": evaluate(bicond, env, budget).name,
        })
    return ({"psi": args.psi, "count": args.count},
            {"biconditionals": rows})


def _cmd_selftest(args, budget) -> tuple[dict, dict]:
    results = run_all()
    rows = [{
        "number": r.number,
        "title": r.title,
        "ok": r.ok,
        "detail": r.detail,
        "wall_time_s": round(r.elapsed, 3),
        "cap_s": r.limit,
    } for r in results]
    outputs = {"criteria": rows, "all_ok": all(r.ok for r in results)}
    if not outputs["all_ok"]:
        raise _VerdictFailure(
            {"failed": [r["number"] for r in rows if not r["ok"]]})
    return {}, outputs


_COMMANDS = {
    "parse": _cmd_parse,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "diagonalize": _cmd_diagonalize,
    "refute-truth": _cmd_refute_truth,
    "berry": _cmd_berry,
    "tarski-experiment": _cmd_tarski_experiment,
    "prove": _cmd_prove,
    "rosser": _cmd_rosser,
    "goedel": _cmd_goedel,
    "remark-demo": _cmd_remark_demo,
    "dominate": _cmd_dominate,
    "tb": _cmd_tb,
    "selftest": _cmd_selftest,
}


# -- argument wiring --------------------------------------------------------------------

@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no
    state in it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--witness-bound", type=_non_negative, default=None,
                        help="existential witness sweep bound")
    shared.add_argument("--depth-bound", type=_non_negative, default=None,
                        help="evaluator recursion bound")
    shared.add_argument("--node-budget", type=_non_negative, default=None,
                        help="evaluator node budget")
    shared.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report to this file")

    top = _Parser(
        prog="selfref",
        description="self-reference laboratory for first-order arithmetic")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", parents=[shared],
                        help="echo the canonical rendering of a formula")
    p.add_argument("formula")

    p = subs.add_parser("encode", parents=[shared],
                        help="code of a formula or term")
    p.add_argument("expression")

    p = subs.add_parser("decode", parents=[shared],
                        help="object denoted by a code")
    p.add_argument("code", help="decimal or 0x-hex")

    p = subs.add_parser("diagonalize", parents=[shared],
                        help="fixed point of a one-variable property")
    p.add_argument("--psi", required=True)

    p = subs.add_parser("refute-truth", parents=[shared],
                        help="counterexample to a truth-definition candidate")
    p.add_argument("--candidate")
    p.add_argument("--preset", choices=sorted(_PRESETS))

    for name in ("berry", "tarski-experiment"):
        p = subs.add_parser(name, parents=[shared])
        p.add_argument("--upsilon", default=None)
        p.add_argument("--micro-maxlen", default=12, type=lambda text:
                       _non_negative(text, _MICRO_MAXLEN_MAX))

    p = subs.add_parser("prove", parents=[shared],
                        help="bounded proof search in the base calculus")
    p.add_argument("--goal", required=True)
    p.add_argument("--budget", type=_non_negative, default=10_000,
                   help="search node budget")

    subs.add_parser("rosser", parents=[shared])
    subs.add_parser("goedel", parents=[shared])
    subs.add_parser("remark-demo", parents=[shared])

    p = subs.add_parser("dominate", parents=[shared],
                        help="dominating bound over the micro catalogue")
    p.add_argument("--x", type=_non_negative, required=True)
    p.add_argument("--kotlarski", action="store_true")

    p = subs.add_parser("tb", parents=[shared],
                        help="first truth biconditionals of a property")
    p.add_argument("--psi", required=True)
    p.add_argument("--count", type=_non_negative, default=5)

    subs.add_parser("selftest", parents=[shared],
                    help="run the acceptance criteria")
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        profile = _parse_profile(os.environ.get("SELFREF_BUDGET_PROFILE", ""))
        budget = _budget(args, profile)
        start = time.perf_counter()
        try:
            inputs, outputs = _COMMANDS[args.command](args, budget)
            code, report = 0, {
                "inputs": {k: v for k, v in inputs.items() if v is not None},
                "outputs": outputs}
        except (_VerdictFailure, BudgetInsufficient) as err:
            code, report = 1, {"verdict_failure": (
                err.args[0] if isinstance(err, _VerdictFailure)
                else {"budget_insufficient": str(err)})}
        report.update(command=args.command, version=SCHEME_VERSION,
                      budgets=dataclasses.asdict(budget),
                      wall_time_s=round(time.perf_counter() - start, 6))
        _emit(report, args.json)
        return code
    except (_Usage, NotACode, NotOneFree) as err:
        # a NotACode escaping a command comes from coding an input that
        # uses a symbol without a digit; decode reports its own verdict
        parser.print_usage(sys.stderr)
        print(f"selfref: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
