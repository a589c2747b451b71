"""The spectral layer's bits on other interpreters.  README claims that the
Perron value, the entropy and the iteration count have the same bits on
every CPython, because no row sum uses ``sum()`` (compensated from 3.12 on).
The benchmark's spectral pass (``bench/pass_run.py --part spectral``) checks
every ``analyze`` and ``entropy-ratio`` document against its reference
digest and every dual route; this test runs that pass under each other
CPython >= 3.10 that starts, found as ``python3.1x`` on the PATH or under
``~/.pyenv/versions``, and skips when there is none."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# runs on any interpreter, Python 2 included, and prints "CPython 3.12.1"
PROBE = ("import platform; "
         "print(platform.python_implementation() + ' ' + platform.python_version())")


def other_interpreters() -> dict:
    """Version -> executable, for each CPython >= 3.10 whose start-up probe
    succeeds (a pyenv shim of a version it does not hold fails it), other
    than the running version."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(map(str, Path.home().glob(".pyenv/versions/*/bin/python3")))
    found = {}
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", PROBE], capture_output=True, text=True,
                                   timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        implementation, _, version = probe.stdout.strip().partition(" ")
        if probe.returncode or implementation != "CPython":
            continue
        if tuple(map(int, version.split(".")[:2])) >= (3, 10) \
                and version != platform.python_version():
            found.setdefault(version, exe)
    return found


def test_spectral_pass_has_the_reference_bits_on_other_interpreters():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 starts")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for version, exe in sorted(interpreters.items()):
        proc = subprocess.run([exe, str(ROOT / "bench" / "pass_run.py"), "--part", "spectral",
                               "--seed", "0"], capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, (version, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["attempted"] > 0 and result["failures"] == {}, (version, result["failures"])
