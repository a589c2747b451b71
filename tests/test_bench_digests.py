"""The benchmark's CLI instances, replayed in-process: the ``codes`` workload
(``split`` and ``quotients``), the ``rigidity`` part and the ``spectral``
part's ``analyze`` and ``entropy-ratio`` calls.  Every stdout document must hash to its reference
digest in ``bench/digests.json``, so a change to stdout fails here, not only
in the benchmark.  Both bench files are only read."""

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
RIGIDITY_INSTANCES = sorted(WORKLOADS.instances("rigidity", 0), key=lambda inst: inst.id)
# the spectral part's dual-route instances take a matrix, not an argv
SPECTRAL_INSTANCES = sorted((inst for inst in WORKLOADS.instances("spectral", 0)
                             if inst.argv), key=lambda inst: inst.id)


def _replay(inst):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(inst.argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[inst.id]


def test_codes_workload_has_fourteen_instances():
    assert len(CODES_INSTANCES) == 14
    assert all(inst.id in DIGESTS for inst in CODES_INSTANCES)


@pytest.mark.parametrize("inst", CODES_INSTANCES, ids=lambda inst: inst.id)
def test_codes_instance_matches_reference_digest(inst):
    _replay(inst)


def test_rigidity_part_has_eight_instances():
    assert len(RIGIDITY_INSTANCES) == 8
    assert all(inst.id in DIGESTS for inst in RIGIDITY_INSTANCES)


@pytest.mark.parametrize("inst", RIGIDITY_INSTANCES, ids=lambda inst: inst.id)
def test_rigidity_instance_matches_reference_digest(inst):
    _replay(inst)


def test_spectral_part_has_five_cli_instances():
    assert [inst.id for inst in SPECTRAL_INSTANCES] == [
        "spectral:analyze:g0", "spectral:analyze:g1", "spectral:analyze:g2",
        "spectral:analyze:g3", "spectral:entropy-ratio:g0:g1"]
    assert all(inst.id in DIGESTS for inst in SPECTRAL_INSTANCES)


@pytest.mark.parametrize("inst", SPECTRAL_INSTANCES, ids=lambda inst: inst.id)
def test_spectral_instance_matches_reference_digest(inst):
    _replay(inst)
