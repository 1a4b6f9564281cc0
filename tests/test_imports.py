"""Every name a source module imports is used in that module, every
private name the package defines is used in the package, and every
defaulted parameter of the package is set by some call.

No linter ships with the toolchain, so this scans the syntax trees of
``src/selfref/*.py`` directly.  An imported name counts as used if it
appears as an identifier anywhere in the module or is listed in its
``__all__``.  A private (``_``-prefixed) top-level name or method counts
as used if some module reads it, as a name, an attribute or an import,
outside its own definition.  A defaulted parameter counts as set if a
call in ``src/``, ``tests/``, ``perfbench/`` or ``scripts/`` to a
function of that name passes it, by keyword or by position.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "selfref"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = sorted(path for folder in ("src", "tests", "perfbench", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_scanner_flags_an_unused_import_and_no_used_one():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(sys.argv, d)\n")
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module's private top-level names and private methods of its
    top-level classes, each as (qualified name, defining statement)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.extend((name.id, node) for target in targets
                       for name in ast.walk(target)
                       if isinstance(name, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item)
                       for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return [(name, node) for name, node in out
            if _private(name.rpartition(".")[2])]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Each private name defined in sources (module name -> source) that
    no module reads outside the name's own defining statement."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[int]] = defaultdict(list)  # name -> reading nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) \
                    and not isinstance(node.ctx, ast.Store):
                reads[node.id].append(id(node))
            elif isinstance(node, ast.Attribute) \
                    and not isinstance(node.ctx, ast.Store):
                reads[node.attr].append(id(node))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads[alias.name].append(id(node))
    out = []
    for module, tree in trees.items():
        for name, where in private_definitions(tree):
            own = {id(node) for node in ast.walk(where)}
            if all(read in own for read in reads[name.rpartition(".")[2]]):
                out.append(f"{module} line {where.lineno}: {name}")
    return out


def test_scanner_flags_an_unreferenced_private_name_and_no_read_one():
    sources = {
        "a": ("_LIMIT, _UNUSED = 3, 4\n"
              "def _walk(n):\n"
              "    return _walk(n - 1) if n else _LIMIT\n"
              "class C:\n"
              "    def _step(self):\n"
              "        self._cut = 1\n"
              "    def _cut(self):\n"
              "        return self._step()\n"),
        "b": "from a import C\nC()._cut()\n",
    }
    assert unreferenced_private_names(sources) == [
        "a line 1: _UNUSED", "a line 2: _walk"]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in MODULES}
    assert unreferenced_private_names(sources) == []


def defaulted_parameters(tree: ast.Module) -> list[tuple]:
    """Each defaulted parameter of a function or method in tree, as
    (line, qualified name, name a call uses, parameter, position): a call
    names an __init__ by its class, and position is the parameter's index
    among a call's positional arguments, None if keyword-only."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)  # self or cls comes first
                called = cls if cls and node.name == "__init__" \
                    else node.name
                qualified = f"{cls}.{node.name}" if cls else node.name
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                out.extend((node.lineno, qualified, called, arg.arg, i - bound)
                           for i, arg in enumerate(positional)
                           if i >= first)
                out.extend((node.lineno, qualified, called, arg.arg, None)
                           for arg, default in zip(args.kwonlyargs,
                                                   args.kw_defaults)
                           if default is not None)
                visit(node.body, None)

    visit(tree.body, None)
    return out


def passed_arguments(trees) -> dict[str, set]:
    """For each name calls use, f(...) or x.f(...), the keywords and
    positions its calls pass: a starred argument at position i as
    ("*", i), a ** argument as "**"."""
    passed: dict[str, set] = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            passed[name].update(("*", i) if isinstance(arg, ast.Starred)
                                else i for i, arg in enumerate(node.args))
            passed[name].update(kw.arg or "**" for kw in node.keywords)
    return passed


def unset_parameters(sources: dict[str, str], callers: list[str]
                     ) -> list[str]:
    """Each defaulted parameter defined in sources (module name ->
    source) that no call in callers (sources) passes, by keyword or by
    position, to a function of its name."""
    passed = passed_arguments(ast.parse(source) for source in callers)
    out = []
    for module, source in sources.items():
        for line, qualified, called, arg, at in \
                defaulted_parameters(ast.parse(source)):
            got = passed[called]
            if arg in got or "**" in got or at is not None and (
                    at in got or any(type(g) is tuple and g[1] <= at
                                     for g in got)):
                continue
            out.append(f"{module} line {line}: {qualified}({arg})")
    return out


def test_scanner_flags_a_parameter_no_call_sets_and_no_set_one():
    source = ("def f(a, b=1, *, c=2, d=3):\n"
              "    return g(a)\n"
              "def g(a, b=0, c=0):\n"
              "    return a\n"
              "class C:\n"
              "    def __init__(self, n=0, m=1):\n"
              "        self.step(n)\n"
              "    def step(self, k=1, j=2):\n"
              "        def inner(q=0):\n"
              "            return q\n"
              "        return inner()\n"
              "    @staticmethod\n"
              "    def s(k=1):\n"
              "        return k\n")
    callers = [source, "f(0, 1, c=2)\nC(5)\nC.s(1)\ng(*args)\n"]
    assert unset_parameters({"a": source}, callers) == [
        "a line 1: f(d)", "a line 6: C.__init__(m)", "a line 8: C.step(j)",
        "a line 9: inner(q)"]


# kept with no caller that sets them: ROADMAP item 5 gives them one
UNSET_KEPT = {f"weak_dl_equivalence_demo({arg})"
              for arg in ("budget", "theory", "assist_nodes")}


def test_every_defaulted_parameter_is_set_by_some_call():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in MODULES}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert {entry.partition(": ")[2]
            for entry in unset_parameters(sources, callers)} == UNSET_KEPT
