"""Source hygiene: every name a module of the package imports is read
somewhere in that module, and every private helper the package defines is
named somewhere in it (stdlib ``ast`` only, no linter needed)."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stabdyn"


def unused_imports(source: str) -> list:
    """The names bound by import statements anywhere in ``source`` (``from
    __future__`` excepted) that no expression of the module reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # quoted annotations such as "EdgeShift" read the names inside them
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - read)


def test_scan_finds_unused_and_keeps_read_names():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from typing import Optional, Sequence\n"
              "def f(x: 'Optional[int]') -> None:\n"
              "    from math import gcd, lcm\n"
              "    return gcd(x, 2), os.path.sep\n")
    assert unused_imports(source) == ["Sequence", "json", "lcm"]


def test_package_modules_read_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules
              if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}


def orphaned_private_helpers(sources: dict) -> list:
    """(module, name) for every single-underscore function, method or class
    defined in ``sources`` (module name -> source) that no name, attribute
    or import in any of them names, sorted."""
    defined, named = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return sorted((module, name) for module, name in defined if name not in named)


def test_helper_scan_finds_orphans_and_keeps_named_ones():
    sources = {
        "a": ("class _Used:\n"
              "    def _called(self): return self\n"
              "    def _orphan(self): return 1\n"
              "    def __repr__(self): return ''\n"
              "def _imported(): return _Used()._called()\n"
              "def _unread(): '_unread is named only in this string'\n"),
        "b": "from a import _imported\n",
    }
    assert orphaned_private_helpers(sources) == [("a", "_orphan"), ("a", "_unread")]


def test_package_names_every_private_helper():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert sources
    assert orphaned_private_helpers(sources) == []
