"""Outside-in tracer: spans around the public functions of ``selfref``.

Nothing in ``src/`` knows about it.  ``Tracer.install`` rebinds each
listed function in every ``selfref.*`` module namespace that holds it,
which covers both ``from .coding import decode`` copies and call-time
lookups such as ``coding.decode``.  It also wraps the callables of every
``OracleEnv`` the four environment builders return and the public
``BigNat`` operations.  The recursive ``eval_term`` and the evaluator's
own methods are left alone, so their time stays in the self time of
``semantics.evaluate`` (or of whichever span called the evaluator).

A span is (name, start, end, parent, item).  Spans stay in memory in
flat arrays and are written out by ``write``; self time is a span's
duration minus the time its child spans cover.  A call made while a span
of the same group is open (parse calling parse_formula, BigNat operations
calling each other) opens no span, so calls count entries into a layer.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name)
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("syntax", "free_vars", "syntax.free_vars"),
    ("syntax", "substitute", "syntax.substitute"),
    ("syntax", "length", "syntax.length"),
    ("syntax", "render", "syntax.render"),
    ("parser", "parse", "parser.parse"),
    ("parser", "parse_formula", "parser.parse"),
    ("parser", "parse_term", "parser.parse"),
    ("enumeration", "formulas_of_length", "enumeration"),
    ("enumeration", "terms_of_length", "enumeration"),
    ("coding", "decode", "coding.decode"),
    ("coding", "encode", "coding.encode"),
    ("semantics", "evaluate_full", "semantics.evaluate"),
    ("semantics", "defines", "semantics.defines"),
    ("diagonal", "diagonal_sentence", "diagonal.diagonal_sentence"),
    ("diagonal", "check_fixed_point", "diagonal.check_fixed_point"),
    ("berry", "micro_universe", "berry.micro_universe"),
    ("berry", "least_undefinable", "berry.reports"),
    ("berry", "berry_contradiction_report", "berry.reports"),
    ("berry", "syntactic_tarski_experiment", "berry.reports"),
    ("proofs", "search_report", "proofs.search"),
    ("proofs", "check_proof_report", "proofs.check_proof"),
    ("domination", "F_fixed_input", "domination"),
    ("domination", "F_kotlarski", "domination"),
    ("domination", "defined_function", "domination"),
    ("domination", "dominates_check", "domination"),
    ("domination", "build_psi", "domination"),
    ("cli", "main", "cli.main"),
)

ENV_BUILDERS: tuple[tuple[str, str], ...] = (
    ("semantics", "standard_oracle_env"),
    ("berry", "micro_env"),
    ("proofs", "proofs_env"),
    ("domination", "micro_domination_env"),
)

BIGNAT_STATIC = ("from_int", "from_digits", "from_runs", "power24",
                 "from_json")
BIGNAT_METHODS = ("is_materializable", "to_int", "__add__", "__radd__", "sub",
                  "shift24", "__mul__", "__rmul__", "divmod_int", "mod_int",
                  "compare", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                  "__hash__", "to_json")
ORACLE_SYMBOLS = ("Formula", "D", "len", "neg", "prf", "Tr", "inst")

_MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self) -> None:
        self.on = True
        self.item = -1
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        # spans, one slot per array
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._stack: list[list] = []  # [span index, flat group, child time]
        self.reset_totals()

    # -- totals ------------------------------------------------------------------------

    def reset_totals(self) -> None:
        """Start the per-name totals afresh (spans already kept stay)."""
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.root_s = 0.0
        self.semantics_nodes = 0
        self.budget_hits = 0
        self.search_nodes = 0
        self.parsed_chars = 0
        self.decoded: set = set()
        self.oracle_args: set = set()
        self.built: dict[int, tuple] = {}

    def _id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------------------

    def wrap(self, fn, name: str, group: str | None = None, after=None,
             flat: bool = False):
        """fn with a span named name around each call.  With flat set, a
        call made inside an open span of the same group opens none.
        after(args, result) runs untraced after every call; result is
        None when the call raised."""
        nid = self._id(name, group or name)
        flat_group = self.groups[nid] if flat else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.on or (flat_group is not None and stack
                                 and stack[-1][1] == flat_group):
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            stack.append([idx, flat_group, 0.0])
            tracer.span_start.append(perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                _, _, child = stack.pop()
                tracer.span_end[idx] = end
                duration = end - tracer.span_start[idx]
                tracer.calls[nid] += 1
                tracer.self_s[nid] += duration - child
                tracer.total_s[nid] += duration
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.root_s += duration
                if after is not None:
                    tracer.on = False
                    try:
                        after(args, result)
                    finally:
                        tracer.on = True

        setattr(traced, _MARK, True)
        return traced

    # -- installation --------------------------------------------------------------------

    def install(self) -> None:
        import selfref.cli  # noqa: F401  (pulls in every layer)
        from selfref import bignat

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "selfref" or n.startswith("selfref.")]
        hooks = {
            "parse": self._after_parse,
            "parse_formula": self._after_parse,
            "parse_term": self._after_parse,
            "formulas_of_length": self._after_formulas,
            "decode": self._after_decode,
            "evaluate_full": self._after_evaluate,
            "search_report": self._after_search,
        }
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"selfref.{mod_name}"], attr)
            wrapped = self.wrap(original, name, after=hooks.get(attr),
                                flat=name == "parser.parse")
            _rebind(modules, original, wrapped)
        for mod_name, attr in ENV_BUILDERS:
            original = getattr(sys.modules[f"selfref.{mod_name}"], attr)
            _rebind(modules, original, self._env_builder(original))
        cls = bignat.BigNat
        for attr in BIGNAT_STATIC:
            fn = cls.__dict__[attr].__func__
            setattr(cls, attr, staticmethod(
                self.wrap(fn, f"bignat.{attr}", "bignat", flat=True)))
        for attr in BIGNAT_METHODS:
            setattr(cls, attr, self.wrap(cls.__dict__[attr], f"bignat.{attr}",
                                         "bignat", flat=True))
        getter = cls.__dict__["digits24"].fget
        cls.digits24 = property(
            self.wrap(getter, "bignat.digits24", "bignat", flat=True))
        for sym in ORACLE_SYMBOLS:
            self._id(f"oracle.{sym}", "oracle")
        self.reset_totals()

    def _env_builder(self, build):
        tracer = self

        @functools.wraps(build)
        def traced_builder(*args, **kwargs):
            env = build(*args, **kwargs)
            for table in (env.atoms, env.funs):
                for sym, fn in list(table.items()):
                    if not getattr(fn, _MARK, False):
                        table[sym] = tracer.wrap(
                            fn, f"oracle.{sym}", "oracle",
                            after=tracer._oracle_after(sym))
            return env

        setattr(traced_builder, _MARK, True)
        return traced_builder

    # -- counters read from arguments and results ------------------------------------------

    def _after_parse(self, args, result) -> None:
        self.parsed_chars += len(args[0])

    def _after_formulas(self, args, result) -> None:
        # a result object not seen before was built by this call
        if result is not None:
            self.built.setdefault(id(result), result)

    def _after_decode(self, args, result) -> None:
        self.decoded.add(args[0])

    def _after_evaluate(self, args, result) -> None:
        if result is None:
            return
        self.semantics_nodes += result.nodes_used
        self.budget_hits += bool(result.budget_hit)

    def _after_search(self, args, result) -> None:
        if result is not None:
            self.search_nodes += result.nodes_used

    def _oracle_after(self, sym: str):
        def after(args, result) -> None:
            self.oracle_args.add((sym, args))
        return after

    # -- results -------------------------------------------------------------------------

    def metrics(self, pass_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything since the last reset_totals."""
        def pick(field: list, name: str):
            return field[self._ids[name]] if name in self._ids else 0

        def group(g: str, field: list):
            return sum(v for v, gg in zip(field, self.groups) if gg == g)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        calls = functools.partial(pick, self.calls)
        self_s = functools.partial(pick, self.self_s)
        out: dict[str, tuple[float, str]] = {}
        for name in ("syntax.free_vars", "syntax.substitute"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
        out["syntax.length.self_s"] = (self_s("syntax.length"), "s")
        out["syntax.render.self_s"] = (self_s("syntax.render"), "s")
        out["bignat.calls"] = (group("bignat", self.calls), "count")
        out["bignat.self_s"] = (group("bignat", self.self_s), "s")
        out["bignat.to_int.calls"] = (calls("bignat.to_int"), "count")
        out["parser.parse.calls"] = (calls("parser.parse"), "count")
        out["parser.parse.self_s"] = (self_s("parser.parse"), "s")
        out["parser.parse.chars_per_s"] = (
            ratio(self.parsed_chars, self_s("parser.parse")), "chars/s")
        out["enumeration.formulas_built"] = (
            sum(len(r) for r in self.built.values()), "count")
        out["enumeration.self_s"] = (self_s("enumeration"), "s")
        decodes = calls("coding.decode")
        out["coding.decode.calls"] = (decodes, "count")
        out["coding.decode.self_s"] = (self_s("coding.decode"), "s")
        out["coding.decode.distinct_share"] = (
            ratio(len(self.decoded), decodes), "ratio")
        out["coding.encode.calls"] = (calls("coding.encode"), "count")
        out["coding.encode.self_s"] = (self_s("coding.encode"), "s")
        out["semantics.evaluate.calls"] = (calls("semantics.evaluate"),
                                           "count")
        out["semantics.evaluate.self_s"] = (self_s("semantics.evaluate"), "s")
        out["semantics.nodes"] = (self.semantics_nodes, "count")
        out["semantics.nodes_per_s"] = (
            ratio(self.semantics_nodes,
                  pick(self.total_s, "semantics.evaluate")), "1/s")
        out["semantics.budget_hits"] = (self.budget_hits, "count")
        out["semantics.defines.calls"] = (calls("semantics.defines"), "count")
        out["semantics.defines.self_s"] = (self_s("semantics.defines"), "s")
        for sym in ORACLE_SYMBOLS:
            out[f"oracle.{sym}.calls"] = (calls(f"oracle.{sym}"), "count")
        out["oracle.self_s"] = (group("oracle", self.self_s), "s")
        out["oracle.distinct_share"] = (
            ratio(len(self.oracle_args), group("oracle", self.calls)),
            "ratio")
        for name in ("diagonal.diagonal_sentence", "diagonal.check_fixed_point",
                     "berry.micro_universe", "berry.reports"):
            out[f"{name}.self_s"] = (self_s(name), "s")
        out["proofs.search.calls"] = (calls("proofs.search"), "count")
        out["proofs.search.nodes"] = (self.search_nodes, "count")
        out["proofs.search.self_s"] = (self_s("proofs.search"), "s")
        out["proofs.search.nodes_per_s"] = (
            ratio(self.search_nodes, pick(self.total_s, "proofs.search")),
            "1/s")
        out["proofs.check_proof.self_s"] = (self_s("proofs.check_proof"), "s")
        out["domination.calls"] = (calls("domination"), "count")
        out["domination.self_s"] = (self_s("domination"), "s")
        out["cli.main.calls"] = (calls("cli.main"), "count")
        out["cli.main.self_s"] = (self_s("cli.main"), "s")
        out["trace.unattributed_s"] = (max(pass_s - self.root_s, 0.0), "s")
        return out

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the five raw arrays."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i", "start:d", "end:d", "parent:i",
                             "item:i"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_item):
                arr.tofile(fh)


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
