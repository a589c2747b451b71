"""Start-up guard: importing the package generates no code.  Its records
are classes written out in the source (``stabdyn.records``), so neither
``dataclasses`` nor the ``inspect`` module it imports is loaded, and the
records keep the value semantics of the frozen dataclasses they replace."""

from __future__ import annotations

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from stabdyn.budgets import Budget
from stabdyn.codes import AutomorphismSet, identity_code
from stabdyn.errors import AmbientMismatchError, StabdynError
from stabdyn.groups import cyclic_group
from stabdyn.seqs import ResidueReport
from stabdyn.sft import EntropyResult, Provenance, full_shift
from stabdyn.spectral import CyclicPartition, SmaleDecomposition
from stabdyn.verify import CheckResult
from stabdyn.wreath import WreathContext, WreathElement

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stabdyn"


def test_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, stabdyn, stabdyn.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_package_imports_no_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {name}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert found == []


FROZEN = ["Budget", "Provenance", "EntropyResult", "CyclicPartition", "SmaleDecomposition",
          "AutomorphismSet", "ResidueReport", "CheckResult", "WreathContext", "WreathElement"]


def _frozen_records() -> list:
    """(make, a, b) for each class in FROZEN: make(a) and make(b) are records
    of that class that differ in one field."""
    two, three, group = full_shift(2), full_shift(3), cyclic_group(2)
    z2 = WreathContext(group, 2)
    return [
        (lambda k: Budget(enum_nodes=k), 7, 8),
        (lambda s: Provenance(s, (0,), 2), two, three),
        (lambda lam: EntropyResult(0.5, lam, 3), 2.0, 3.0),
        (lambda s: CyclicPartition(1, (0,), s), two, three),
        (lambda s: SmaleDecomposition(1, s), two, three),
        (lambda r: AutomorphismSet(two, r, (identity_code(two),)), 0, 1),
        (lambda d: ResidueReport("custom", 0, 2, d, (), (), True, None), 4, 5),
        (lambda d: CheckResult("check", True, d), "", "x"),
        (lambda n: WreathContext(group, n), 2, 3),
        (lambda g: WreathElement(z2, g, (1, 0)), (0, 1), (1, 1)),
    ]


@pytest.mark.parametrize("make, same, other", _frozen_records(), ids=FROZEN)
def test_frozen_records_keep_equality_hashing_and_read_only_fields(make, same, other):
    record = make(same)
    assert type(record).__name__ in FROZEN
    assert record == make(same) and hash(record) == hash(make(same))
    assert record != make(other)
    # equal to a record of its own class only, not to the tuple of its fields
    assert record != tuple(getattr(record, name) for name in record.FIELDS)
    field = record.FIELDS[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(make(other), field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == make(same)
    # copy and pickle rebuild a record through its constructor
    assert copy.copy(record) == record
    assert type(pickle.loads(pickle.dumps(record))) is type(record)


def test_records_take_their_fields_in_order_or_by_name():
    assert Budget(enum_nodes=3) == Budget(10_000_000, 20_000, 3, 7)
    assert Budget(enum_nodes=3).values == (10_000_000, 20_000, 3, 7)
    assert CheckResult("c", True).detail == ""
    assert CheckResult(detail="d", name="c", passed=False) == CheckResult("c", False, "d")
    assert repr(CheckResult("c", True)) == "CheckResult(name='c', passed=True, detail='')"
    # a missing, surplus, twice-given or unknown field is refused, as by a signature
    for call in [lambda: EntropyResult(0.5, 2.0), lambda: EntropyResult(0.5, 2.0, 3, 4),
                 lambda: EntropyResult(0.5, 2.0, 3, log_value=0.5),
                 lambda: EntropyResult(0.5, 2.0, steps=3), lambda: Budget(nodes=3)]:
        with pytest.raises(TypeError, match="takes the fields"):
            call()


def test_caches_and_piece_data_take_no_part_in_comparisons():
    two = full_shift(2)
    part, other = CyclicPartition(1, (0,), two), CyclicPartition(1, (0,), two)
    part.symbol_classes[two] = {"0": 0}
    assert part == other and hash(part) == hash(other)
    elements = (identity_code(two),)
    lifted = AutomorphismSet(two, 0, elements, (None,), ((0,),))
    assert lifted == AutomorphismSet(two, 0, elements)
    assert lifted.product(0, 0) == identity_code(two)
    # the cached properties of AutomorphismSet still fill on first read
    assert lifted.key_index == {elements[0].canonical_key(): 0}
    assert lifted.inverses == (identity_code(two),)


def test_wreath_records_validate_their_arguments():
    with pytest.raises(StabdynError, match="wreath arity must be at least 0"):
        WreathContext(cyclic_group(2), -1)
    ctx = WreathContext(cyclic_group(2), 2)
    for g_vec, sigma in [((0,), (1, 0)), ((0, 1), (0, 1, 2))]:
        with pytest.raises(AmbientMismatchError, match="component length differs"):
            WreathElement(ctx, g_vec, sigma)
    assert WreathElement(ctx, (0, 1), (1, 0)).to_document() == {"g": [0, 1], "sigma": [1, 0]}
