"""Source hygiene: every name a module of the package or of the tests
imports is read somewhere in that module, every private helper the package
defines is named somewhere in it, every parameter of a package function is
read by its body, and every public module-level name that no package module
names, and every defaulted parameter that no package call sets, has a stated
reason to stay (stdlib ``ast`` only, no linter needed)."""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "stabdyn"


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
    # the test modules too: a fixture or helper is imported to be read
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules += sorted(TESTS.glob("*.py"))
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


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def bound_names(body: list) -> set:
    """The names that a function body binds (assignment, loop, ``with`` and
    ``except`` targets, nested definitions), not counting the names that its
    nested functions, lambdas and comprehensions bind for themselves."""
    bound, todo = set(), list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda, *COMPREHENSIONS)):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def global_names_in(tree: ast.AST) -> set:
    """``names_in`` without the names that a function, lambda or
    comprehension binds itself, where it binds them: a parameter or local
    named like a module-level function does not name that function."""
    named = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
            inner = local | bound_names(body) | {
                a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            for child in ast.iter_child_nodes(node):  # decorators and defaults read outside
                visit(child, inner if child in body else local)
            return
        if isinstance(node, COMPREHENSIONS):
            local = local | {n.id for gen in node.generators for n in ast.walk(gen.target)
                             if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Name) and node.id not in local:
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return named


def unreached_public_names(sources: dict) -> list:
    """"module.name" for every public function or class defined at module
    level in ``sources`` that no module other than ``__init__`` names, sorted:
    the names that only the package's exports and outside callers reach.  A
    local or parameter of the same name does not count (``global_names_in``)."""
    defined, named = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        if module != "__init__":
            named |= global_names_in(tree)
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


def test_public_scan_skips_names_bound_in_the_reading_scope():
    sources = {
        "a": ("def images(): return 1\n"
              "def result(): return 2\n"
              "def word(): return 3\n"
              "def called(): return 4\n"
              "def default(): return 5\n"),
        "b": ("def _param(images): return images\n"
              "def _local(xs):\n"
              "    result = [word for word in xs]\n"
              "    def inner(k=default()): return result, k\n"
              "    return inner, called()\n"
              "_lambda = lambda images: images\n"),
    }
    assert unreached_public_names(sources) == ["a.images", "a.result", "a.word"]


# Public names that no package module calls, each with the reason it stays.
KEPT_PUBLIC = {
    "sft.full_shift": "public constructor of the full k-shift",
    "codes.shift_code": "public constructor of sigma^k as a code",
    "codes.commutes_with_power": "bench/tracing.py rebinds it",
    "codes.images": "the compose oracle in test_codes",
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


def unset_parameters(sources: dict) -> list:
    """"module.function(parameter)" for every defaulted parameter of a
    function or method defined in ``sources`` (module name -> source) that
    no call in any of them sets, by keyword or by position, sorted.  Calls
    are matched by the called name (``f(...)`` or ``x.f(...)``); a call of a
    class name stands for its ``__init__``, and a ``*args`` or ``**kwargs``
    argument sets every parameter it can reach."""
    defaults, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cls = methods.get(id(node))
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls is not None and not static else 0  # self or cls
                called = cls.name if node.name == "__init__" and cls is not None else node.name
                label = f"{module}.{cls.name + '.' if cls is not None else ''}{node.name}"
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaults += [(called, label, p.arg, i - skip)
                             for i, p in enumerate(positional) if i >= first]
                defaults += [(called, label, p.arg, None)
                             for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, name, index):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return index is not None and (len(call.args) > index or any(
            isinstance(a, ast.Starred) for a in call.args))

    return sorted(f"{label}({name})" for called, label, name, index in defaults
                  if not any(sets(call, name, index) for call in calls.get(called, ())))


def test_parameter_scan_sees_keyword_positional_and_init_calls():
    sources = {
        "a": ("def f(x, k=1, *, flag=False): return x\n"
              "def g(y=2): return y\n"
              "def h(z=3): return z\n"
              "class C:\n"
              "    def __init__(self, size=0, name=''): self.size = size\n"
              "    def m(self, step=1): return step\n"),
        "b": ("from a import C, f, g, h\n"
              "f(1, flag=True)\n"
              "g(5)\n"
              "h(*[])\n"
              "C(3).m()\n"),
    }
    assert unset_parameters(sources) == ["a.C.__init__(name)", "a.C.m(step)", "a.f(k)"]


# Defaulted parameters that no package call sets, each with the reason it stays.
KEPT_PARAMETERS = {
    "cli.main(argv)": "tests and bench/ pass the argument list",
    "seqs.check_example1_residues(depth)": "the CLI passes --depth through its EXAMPLES table",
    "seqs.check_example2_markers(depth)": "the CLI passes --depth through its EXAMPLES table",
}


def test_package_parameters_are_set_somewhere():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unset_parameters(sources) == sorted(KEPT_PARAMETERS)


def unread_parameters(sources: dict) -> list:
    """"module.function(parameter)" for every parameter of a function or
    method defined in ``sources`` (module name -> source) that its body never
    reads, ``self`` and ``cls`` excepted, sorted."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          + [args.vararg, args.kwarg] if a is not None]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found += [f"{module}.{node.name}({p})" for p in params
                          if p not in read and p not in ("self", "cls")]
    return sorted(found)


def test_unread_scan_sees_nested_reads_and_overwrites():
    sources = {
        "a": ("def f(x, unused, *args, **kwargs):\n"
              "    def inner(): return x + len(args)\n"
              "    return inner\n"
              "def g(y, z=0):\n"
              "    y = 1\n"
              "    return z\n"
              "class C:\n"
              "    def m(self, step): return self\n"
              "    @classmethod\n"
              "    def make(cls, size): return cls(size)\n"),
    }
    assert unread_parameters(sources) == ["a.f(kwargs)", "a.f(unused)", "a.g(y)", "a.m(step)"]


def test_package_functions_read_every_parameter():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_parameters(sources) == []


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_names(sources: dict) -> list:
    """"module: name" for every underscore name that a module of ``sources``
    (module name -> source) imports from a sibling module, and
    "module: .name" for every ``._name`` attribute it reads that it never
    assigns or defines itself, sorted: another module's private state."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        own |= {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        own |= {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update(f"{module}: {a.name}" for a in node.names if private(a.name))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and private(node.attr) and node.attr not in own):
                found.add(f"{module}: .{node.attr}")
    return sorted(found)


def test_private_scan_sees_imports_and_foreign_attributes():
    sources = {
        "a": ("class A:\n"
              "    _memo: dict = None\n"
              "    def __init__(self): self._own = 1\n"
              "    def _helper(self): return self._own, self._memo, self.__class__\n"),
        "b": ("from .a import A, _hidden, __version__\n"
              "from os import _exit\n"
              "def f(x): return x._own, x._helper(), A()._memo, x._foreign\n"),
    }
    assert cross_module_private_names(sources) == [
        "b: ._foreign", "b: ._helper", "b: ._memo", "b: ._own", "b: _hidden"]


def test_package_modules_keep_to_their_own_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert cross_module_private_names(sources) == []
