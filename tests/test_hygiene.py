"""Source hygiene: every name a module of the package imports is read
somewhere in that module, every private helper the package defines is named
somewhere in it, and every public module-level name that no package module
names has a stated reason to stay (stdlib ``ast`` only, no linter needed)."""

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


def names_in(tree: ast.AST) -> set:
    """Every name, attribute and import alias that ``tree`` names."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    return named


def orphaned_private_helpers(sources: dict) -> list:
    """(module, name) for every single-underscore function, method or class
    defined in ``sources`` (module name -> source) that no name, attribute
    or import in any of them names, sorted."""
    defined, named = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((module, node.name) for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name.startswith("_") and not node.name.startswith("__"))
        named |= names_in(tree)
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


def unreached_public_names(sources: dict) -> list:
    """"module.name" for every public function or class defined at module
    level in ``sources`` that no module other than ``__init__`` names, sorted:
    the names that only the package's exports and outside callers reach."""
    defined, named = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        if module != "__init__":
            named |= names_in(tree)
    return sorted(f"{module}.{name}" for module, name in defined if name not in named)


def test_public_scan_skips_init_and_nested_definitions():
    sources = {
        "a": ("def used(): return 1\n"
              "def exported():\n"
              "    def nested(): return used()\n"
              "    return nested\n"
              "class Kept: pass\n"),
        "__init__": "from .a import exported, Kept\n",
    }
    assert unreached_public_names(sources) == ["a.Kept", "a.exported"]


# Public names that no package module calls, each with the reason it stays.
KEPT_PUBLIC = {
    "sft.full_shift": "public constructor of the full k-shift",
    "codes.shift_code": "public constructor of sigma^k as a code",
    "codes.commutes_with_power": "bench/tracing.py rebinds it",
    "codes.WordMap": "bench/tracing.py rebinds WordMap.to_code",
    "wreath.wr_conj_definitional": "oracle of acceptance 01 for wr_conj",
    "wreath.wr_comm_definitional": "oracle of acceptance 01 for wr_comm",
    "wreath.normal_subgroups_sym": "acceptance 03 checks Sym(m) with it",
    "wreath.imprimitive_permutation": "faithful-representation oracle for wr_mul",
    "wreath.cycle_product": "the base conjugacy and fix-by-null lemma tests",
    "groups.is_transitive_perm_set": "the product-decomposition lemma test",
    "cli.schema_for": "accessor for the shipped stdout schemas",
}


def test_public_names_without_a_package_caller_are_kept_on_purpose():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreached_public_names(sources) == sorted(KEPT_PUBLIC)
