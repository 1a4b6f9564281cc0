"""Every name a source module imports is used in that module, and every
private name the package defines is used in the package.

No linter ships with the toolchain, so this scans the syntax trees of
``src/selfref/*.py`` directly.  An imported name counts as used if it
appears as an identifier anywhere in the module or is listed in its
``__all__``.  A private (``_``-prefixed) top-level name or method counts
as used if some module reads it, as a name, an attribute or an import,
outside its own definition.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "selfref"
MODULES = sorted(SRC.glob("*.py"))


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
