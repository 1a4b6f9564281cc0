"""The four workloads: inputs, the timed steps, and the output checks.

A workload is built from its seed as plain data (``corpus``), then
``setup`` makes the shared objects, ``blocks`` lists the timed steps, and
``check`` validates the outputs after the timed pass.  Checks never compare a value against the call that produced it.
Only public functions of ``selfref.*`` are called, and always through
their module at call time, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import Callable, Optional

import corpus

# a step is (label, thunk, is_item); is_item=False marks preparation that
# counts towards pass_s but is no item of its own
Step = tuple[str, Callable[[], object], bool]


class Workload:
    name = ""
    # public cached entry points that setup fills on purpose
    warm: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = self.make_inputs()
        self.digest = corpus.digest(self.inputs)

    def make_inputs(self):
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def blocks(self) -> list[list[Step]]:
        """The timed steps, in blocks of steps that depend on each other."""
        raise NotImplementedError

    def decided(self, label: str, output) -> bool:
        raise NotImplementedError

    def check(self, outputs: dict[str, object]) -> list[str]:
        """Failure messages, one per item whose cross-check failed."""
        raise NotImplementedError


# -- oracle-eval ----------------------------------------------------------------------------

class OracleEval(Workload):
    """Criterion 14: substitute a numeral, or assign the value directly."""

    name = "oracle-eval"

    def make_inputs(self):
        triples = corpus.substitution_triples(
            corpus.ORACLE_EVAL_GENERATOR_SEED, corpus.ORACLE_EVAL_TRIPLES)
        return {"node_budget": corpus.ORACLE_EVAL_NODE_BUDGET,
                "triples": triples}

    def setup(self) -> None:
        from selfref import semantics

        self.env = semantics.standard_oracle_env()
        self.budget = semantics.Budget(
            node_budget=self.inputs["node_budget"])
        self.triples = [(corpus.build(phi), v, m, dict(rest))
                        for phi, v, m, rest in self.inputs["triples"]]

    def blocks(self) -> list[list[Step]]:
        return [[(f"triple-{i}", (lambda i=i: self.run(i)), True)]
                for i in range(len(self.triples))]

    def run(self, i: int):
        from selfref import semantics, syntax

        phi, v, m, rest = self.triples[i]
        left = semantics.evaluate_full(
            syntax.substitute(phi, v, syntax.numeral(m)), self.env,
            self.budget, assignment=rest)
        right = semantics.evaluate_full(phi, self.env, self.budget,
                                        assignment={**rest, v: m})
        return left.truth.name, right.truth.name

    def decided(self, label: str, output) -> bool:
        return "UNKNOWN" not in output

    def check(self, outputs):
        return [f"{label}: substituted {a}, assigned {b}"
                for label, (a, b) in outputs.items()
                if "UNKNOWN" not in (a, b) and a != b]


# -- proof-search ---------------------------------------------------------------------------

class ProofSearch(Workload):
    """Random closed propositional goals, the fixture conclusions, and the
    pinned searches of criteria 10 and 11."""

    name = "proof-search"
    warm = ("standard_theory",)

    def make_inputs(self):
        goals = corpus.propositional_goals(corpus.PROPOSITIONAL_GENERATOR_SEED,
                                           corpus.PROPOSITIONAL_GOALS)
        return {"propositional": goals,
                "propositional_budget": corpus.PROPOSITIONAL_NODE_BUDGET,
                "fixtures": corpus.FIXTURES,
                "fixture_budget": corpus.FIXTURE_NODE_BUDGET,
                "pinned": corpus.PINNED_SEARCHES}

    def setup(self) -> None:
        from selfref import proofs, semantics

        self.theory = proofs.standard_theory()
        self.env = semantics.standard_oracle_env()
        makers = {"neg_neg": lambda k: proofs.neg_neg_proof(),
                  "not_below_zero": proofs.not_below_zero_proof,
                  "successor_bound": proofs.successor_bound_proof}
        self.fixture_goals = {name: makers[kind](k).conclusion
                              for name, kind, k in self.inputs["fixtures"]}
        self.goals: dict[str, tuple[object, int, Optional[tuple]]] = {}
        for i, g in enumerate(self.inputs["propositional"]):
            self.goals[f"goal-{i}"] = (corpus.build(g),
                                       self.inputs["propositional_budget"], g)
        for name, goal in self.fixture_goals.items():
            self.goals[f"fixture-goal-{name}"] = (
                goal, self.inputs["fixture_budget"], None)
        for kind, arg, budget, _ in self.inputs["pinned"]:
            if kind == "goal":
                self.goals[f"pinned-{budget}"] = (corpus.build(arg), budget,
                                                  arg)
        self.rosser = None

    def blocks(self) -> list[list[Step]]:
        blocks = [[(label, (lambda label=label: self.search(label)), True)]
                  for label in self.goals]
        blocks += [[(f"check-{name}",
                     (lambda name=name: self.check_fixture(name)), True)]
                   for name in self.fixture_goals]
        rosser = [("rosser-build", self.build_rosser, True)]
        for kind, arg, budget, _ in self.inputs["pinned"]:
            if kind == "rosser":
                rosser.append((f"rosser-{arg}",
                               (lambda arg=arg, budget=budget:
                                self.search_rosser(arg, budget)), True))
        return blocks + [rosser]

    def search(self, label: str):
        from selfref import proofs

        goal, budget, _ = self.goals[label]
        return proofs.search_report(goal, self.theory, budget).outcome

    def check_fixture(self, name: str) -> bool:
        from selfref import proofs

        proof = proofs.load_fixture_proof(name)
        return proofs.check_proof(proof, self.theory,
                                  conclusion=self.fixture_goals[name])

    def build_rosser(self):
        from selfref import proofs

        self.rosser = proofs.rosser_sentence(self.theory)
        return self.rosser

    def search_rosser(self, which: str, budget: int):
        from selfref import proofs, syntax

        goal = self.rosser.rho if which == "rho" else syntax.Not(
            self.rosser.rho)
        return proofs.search_report(goal, self.theory, budget).outcome

    def decided(self, label: str, output) -> bool:
        from selfref import proofs

        if isinstance(output, proofs.NotFound):
            return output.reason == "frontier exhausted"
        return True

    def check(self, outputs):
        from selfref import proofs, semantics

        failures = []

        def proved(output) -> bool:
            return isinstance(output, proofs.ProofObject)

        for label, output in outputs.items():
            if label in self.goals:
                goal, _, plain = self.goals[label]
                if proved(output) and not proofs.check_proof(
                        output, self.theory, conclusion=goal):
                    failures.append(f"{label}: returned proof fails the checker")
                verdict = semantics.evaluate(goal, self.env)
                if proved(output) and verdict is semantics.Truth.FALSE:
                    failures.append(f"{label}: proved a goal evaluated FALSE")
                if plain is not None:
                    expected = corpus.truth(plain)
                    if proved(output) and not expected:
                        failures.append(f"{label}: proved a false goal")
                    if verdict is not semantics.Truth.UNKNOWN and \
                            (verdict is semantics.Truth.TRUE) != expected:
                        failures.append(f"{label}: evaluator says {verdict}")
            elif label.startswith("check-"):
                if output is not True:
                    failures.append(f"{label}: fixture proof fails the checker")
        for kind, arg, budget, expected in self.inputs["pinned"]:
            label = f"pinned-{budget}" if kind == "goal" else f"rosser-{arg}"
            if label not in outputs:
                continue
            if (expected == "proved") != proved(outputs[label]):
                failures.append(f"{label}: expected {expected}")
        built = outputs.get("rosser-build")
        if built is not None and not _rosser_shape_holds(built):
            failures.append("rosser-build: biconditional shape differs")
        return failures


def _rosser_shape_holds(built) -> bool:
    """Criterion 11: the biconditional is the outrun display at the
    sentence's own code, rebuilt here from the syntax constructors."""
    from selfref import diagonal
    from selfref import syntax as S

    x, p, q = S.Var(0), S.Var(1), S.Var(2)
    outrun = S.Forall(p, S.Implies(
        S.OracleAtom("prf", (p, x)),
        S.Exists(q, S.And(S.Lt(q, p), S.OracleAtom(
            "prf", (q, S.OracleFun("neg", (x,))))))))
    left = S.substitute(diagonal.normalize_psi(outrun), 1,
                        S.numeral(built.certificate.theta_code))
    bicond = built.biconditional
    return isinstance(bicond, S.Iff) and bicond.left == left \
        and bicond.right == built.rho


# -- micro-catalogue -----------------------------------------------------------------------

class MicroCatalogue(Workload):
    """Criteria 08 and 13 plus the ladder experiment, over the finite
    catalogue of short formulas and the pinned domination catalogue."""

    name = "micro-catalogue"

    def make_inputs(self):
        return {"max_len": corpus.MICRO_MAX_LEN,
                "orders": ["length", "shuffled"],
                "kotlarski_up_to": corpus.KOTLARSKI_UP_TO,
                "kotlarski_witness_bound": corpus.KOTLARSKI_WITNESS_BOUND,
                "graph_points": corpus.GRAPH_POINTS}

    def setup(self) -> None:
        from selfref import domination, semantics

        self.scheme = domination.micro_scheme()
        self.env = domination.micro_domination_env()
        self.kot_budget = semantics.Budget(
            witness_bound=self.inputs["kotlarski_witness_bound"])
        self.state: dict[str, object] = {}

    def blocks(self) -> list[list[Step]]:
        from selfref import berry, domination, semantics, syntax

        n = self.inputs["max_len"]
        st = self.state
        x = syntax.Var(0)

        def universe(order: str):
            st[order] = berry.micro_universe(n, order=order)
            return len(st[order].formulas)

        def report(which: str):
            upsilon = berry.truth_oracle_property() if which == "genuine" \
                else syntax.Not(syntax.Eq(x, x))
            st[which] = berry.build_bundle(upsilon)
            return berry.berry_contradiction_report(st[which], st["length"])

        length_block: list[Step] = [
            ("universe-length", lambda: universe("length"), True),
            ("least-length", lambda: berry.least_undefinable(st["length"]),
             True),
            ("berry-genuine", lambda: report("genuine"), True),
            ("berry-nothing", lambda: report("nothing"), True),
            ("tarski", lambda: berry.syntactic_tarski_experiment(
                st["length"], st["genuine"]), True),
        ]
        shuffled_block: list[Step] = [
            ("universe-shuffled", lambda: universe("shuffled"), True),
            ("least-shuffled", lambda: berry.least_undefinable(
                st["shuffled"]), True),
        ]
        up_to = self.inputs["kotlarski_up_to"]
        codes = range(len(self.scheme.formulas))

        def kotlarski():
            st["bounds"] = {u: domination.F_kotlarski(u, self.kot_budget)
                            for u in range(up_to + 1)}
            return st["bounds"]

        def dominated():
            out = {}
            for code in codes:
                fn = domination.defined_function(
                    self.scheme, code, up_to=up_to, budget=self.kot_budget)
                out[code] = (fn, domination.dominates_check(
                    st["bounds"], fn, 0, up_to))
            return out

        def build_graph():
            st["graph"] = domination.build_psi(
                syntax.OracleAtom("Tr", (x,)))

        def graph_points():
            out = []
            for u in range(self.inputs["graph_points"]):
                fx = domination.F_fixed_input(u)
                verdict = semantics.evaluate(
                    st["graph"].graph, self.env,
                    assignment={0: u, 1: fx}).name \
                    if isinstance(fx, int) else None
                out.append((u, fx, verdict))
            return out

        # F_kotlarski(0..50) and the six graph points are one item each:
        # their calls cost alike and run back to back, so as separate
        # items the median item would time one short window of the pass
        domination_block: list[Step] = [
            ("kotlarski", kotlarski, True),
            ("domination", dominated, True),
        ]
        graph_block: list[Step] = [("graph-build", build_graph, False),
                                   ("graph", graph_points, True)]
        return [length_block, shuffled_block, domination_block, graph_block]

    def decided(self, label: str, output) -> bool:
        if label == "kotlarski":
            return all(isinstance(v, int) for v in output.values())
        if label == "domination":
            return all(type(fn).__name__ != "Unknown"
                       for fn, _ in output.values())
        if label == "graph":
            return all(v in ("TRUE", "FALSE") for _, _, v in output)
        return type(output).__name__ != "Unknown"

    def check(self, outputs):
        failures = []
        fns = corpus.CATALOGUE_FUNCTIONS
        a, b = outputs.get("least-length"), outputs.get("least-shuffled")
        if a != b:
            failures.append(f"least-shuffled: {b} under shuffling, {a} by length")
        genuine = outputs.get("berry-genuine")
        if genuine is not None and not (genuine.uniqueness.unique
                                        and genuine.tb_licensed
                                        and genuine.contradiction):
            failures.append("berry-genuine: no exhaustive uniqueness or no clash")
        nothing = outputs.get("berry-nothing")
        if nothing is not None and (nothing.tb_licensed or
                                    nothing.contradiction):
            failures.append("berry-nothing: the nothing-true oracle clashed")
        tarski = outputs.get("tarski")
        if tarski is not None and tarski.duplicate is not None:
            i, j = tarski.duplicate
            if not (i < j and tarski.codes[i] == tarski.codes[j]):
                failures.append("tarski: reported duplicate is not one")
        for u, value in outputs.get("kotlarski", {}).items():
            expected = 1 + max(fns[c](w) for c in range(min(u, 2) + 1)
                               for w in range(u + 1))
            if value != expected:
                failures.append(f"kotlarski: {value} at {u}, "
                                f"recomputed {expected}")
        for code, (fn, dominates) in outputs.get("domination", {}).items():
            if any(y != fns[code](m) for m, y in fn.samples):
                failures.append(f"domination: graph sample of {code} off "
                                f"the function")
            if dominates is not True:
                failures.append(f"domination: bound misses function {code}")
        for u, fx, verdict in outputs.get("graph", []):
            expected = 1 + max(fns[c](u) for c in range(min(u, 2) + 1))
            if fx != expected or verdict != "TRUE":
                failures.append(f"graph: value {fx}, graph {verdict} at {u}")
        return failures


# -- giant-codes --------------------------------------------------------------------------

class GiantCodes(Workload):
    """CLI requests whose codes leave machine range, run in-process."""

    name = "giant-codes"

    def make_inputs(self):
        props = list(corpus.FIXED_POINT_PROPERTIES) + \
            corpus.seeded_properties(self.seed)
        return {"properties": [list(p) for p in props],
                "presets": list(corpus.PRESETS),
                "plain": ["rosser", "goedel"]}

    def setup(self) -> None:
        self.delta_text: dict[str, str] = {}
        self.codes: dict[str, str] = {}

    def cli(self, argv: list[str]):
        from selfref import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, json.loads(buf.getvalue())

    def blocks(self) -> list[list[Step]]:
        blocks: list[list[Step]] = []
        for name, psi, _ in self.inputs["properties"]:
            blocks.append([
                (f"diagonalize-{name}",
                 (lambda psi=psi: self.cli(["diagonalize", "--psi", psi])),
                 True),
                (f"delta-{name}", (lambda name=name, psi=psi:
                                   self.build_delta(name, psi)), False),
                (f"parse-{name}", (lambda name=name: self.cli(
                    ["parse", self.delta_text[name]])), True),
                (f"encode-{name}", (lambda name=name: self.encode(name)),
                 True),
                (f"decode-{name}", (lambda name=name: self.cli(
                    ["decode", self.codes[name]])), True),
            ])
        for preset in self.inputs["presets"]:
            blocks.append([(f"refute-{preset}", (lambda p=preset: self.cli(
                ["refute-truth", "--preset", p])), True)])
        for command in self.inputs["plain"]:
            blocks.append([(command, (lambda c=command: self.cli([c])),
                            True)])
        return blocks

    def build_delta(self, name: str, psi: str) -> None:
        from selfref import diagonal, parser, syntax

        delta = diagonal.build_delta(parser.parse_formula(psi))
        self.delta_text[name] = syntax.render(delta, compact=True)

    def encode(self, name: str):
        code, report = self.cli(["encode", self.delta_text[name]])
        self.codes[name] = report.get("outputs", {}).get("code", {}).get(
            "decimal", "")
        return code, report

    def decided(self, label: str, output) -> bool:
        code, report = output
        out = report.get("outputs", {})
        if label.startswith("diagonalize-"):
            return out.get("verdicts", {}).get("theta") in ("TRUE", "FALSE")
        if label.startswith("refute-"):
            return out.get("refuted") is True
        return code == 0

    def check(self, outputs):
        from selfref import bignat, diagonal, parser

        failures = []
        expected_of = {name: (psi, want)
                       for name, psi, want in self.inputs["properties"]}
        for label, (code, report) in outputs.items():
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            out = report["outputs"]
            kind, _, name = label.partition("-")
            if kind == "diagonalize":
                v = out["verdicts"]
                psi, want = expected_of[name]
                if v["equivalence"] != "TRUE" or v["theta"] != \
                        v["property_at_code"]:
                    failures.append(f"{label}: sides not certified equal")
                    continue
                if want is None:
                    theta_code = diagonal.diagonal_sentence(
                        parser.parse_formula(psi)).theta_code
                    if isinstance(theta_code, int):
                        theta_code = bignat.BigNat.from_int(theta_code)
                    want = _residue_verdict(name, theta_code)
                if v["theta"] != ("TRUE" if want else "FALSE"):
                    failures.append(f"{label}: theta is {v['theta']}")
            elif kind in ("parse", "decode"):
                if out.get("compact") != self.delta_text.get(name):
                    failures.append(f"{label}: compact spelling differs")
            elif kind == "encode":
                if not out.get("code", {}).get("decimal"):
                    failures.append(f"{label}: no decimal code")
            elif kind == "refute" and out.get("refuted") is not True:
                failures.append(f"{label}: not refuted")
        return failures


def _residue_verdict(name: str, code) -> bool:
    """The verdict a parity or multiple-of-k property must give at theta's
    own code, from that code's residue."""
    if name == "parity-even":
        return code.mod_int(2) == 0
    if name == "parity-odd":
        return code.mod_int(2) == 1
    k = int(name.rsplit("-", 1)[1])
    return code.mod_int(k) == 0


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (OracleEval, ProofSearch, MicroCatalogue, GiantCodes)}
