"""Which source functions call themselves, against a list with bounds.

Syntax trees of any depth are walked on explicit stacks (mostly
``syntax.preorder``), so a function that calls itself is allowed only
where something other than the input's nesting depth bounds it.  This
scans the syntax trees of ``src/selfref/*.py`` for functions that call
themselves by their bare name or as ``self.<method>``; calls through
another object, such as ``super().__init__`` or ``coding.decode``, are
not counted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "selfref"

# qualified name -> what bounds its depth
ALLOWED = {
    # the evaluator refuses terms and formulas deeper than DEPTH_CAP
    "semantics.eval_term": "DEPTH_CAP",
    "semantics._compile_term": "DEPTH_CAP",
    "semantics._eventual": "DEPTH_CAP",
    "semantics._Batch.truths": "DEPTH_CAP",
    "semantics._Batch.counts": "DEPTH_CAP",
    "semantics._Batch.term": "DEPTH_CAP",
    "proofs._match": "the depth of a scheme pattern",
    # radix conversion splits a number in halves
    "bignat._put_digits": "log of the digit count",
    "bignat._join_digits": "log of the digit count",
    "enumeration.terms_of_length": "the token length",
    "enumeration.formulas_of_length": "the token length",
    "enumeration.count_terms": "the token length",
    "enumeration.count_formulas": "the token length",
    "acceptance._random_term": "its depth argument",
    "acceptance._random_formula": "its depth argument",
}


def self_calls(source: str, module: str) -> list[str]:
    """Qualified names of the functions in source that call themselves."""
    found: list[str] = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if any(isinstance(call, ast.Call) and (
                        isinstance(call.func, ast.Name)
                        and call.func.id == name
                        or isinstance(call.func, ast.Attribute)
                        and call.func.attr == name
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "self")
                       for call in ast.walk(child)):
                    found.append(f"{prefix}{name}")
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), f"{module}.")
    return found


def test_scanner_counts_bare_and_self_calls_only():
    source = ("def f(n):\n    return f(n - 1)\n"
              "def g():\n    return coding.g()\n"
              "class C(B):\n"
              "    def __init__(self):\n        super().__init__()\n"
              "    def walk(self):\n"
              "        def inner():\n            return inner()\n"
              "        return self.walk()\n")
    assert self_calls(source, "m") == ["m.f", "m.C.walk", "m.C.walk.inner"]


def test_only_depth_bounded_functions_call_themselves():
    found = sorted(name for path in sorted(SRC.glob("*.py"))
                   for name in self_calls(path.read_text(), path.stem))
    assert found == sorted(ALLOWED)
