"""Source hygiene: every name a module of the package imports is read
somewhere in that module (stdlib ``ast`` only, no linter needed)."""

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
