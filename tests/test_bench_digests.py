"""The benchmark's ``codes`` instances (``split`` and ``quotients``), replayed
in-process: every stdout document must hash to its reference digest in
``bench/digests.json``, so a change to stdout fails here, not only in the
benchmark.  Both bench files are only read."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from stabdyn.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
CODES_INSTANCES = [inst for part in WORKLOADS.COMPOSITES["codes"]
                   for inst in WORKLOADS.instances(part, 0)]


def test_codes_workload_has_fourteen_instances():
    assert len(CODES_INSTANCES) == 14
    assert all(inst.id in DIGESTS for inst in CODES_INSTANCES)


@pytest.mark.parametrize("inst", CODES_INSTANCES, ids=lambda inst: inst.id)
def test_codes_instance_matches_reference_digest(inst):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(inst.argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[inst.id]
