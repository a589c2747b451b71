"""The traced benchmark wraps the program's layers from outside
(``bench/tracing.py`` rebinds module attributes and raises when a wrapped
function is bound nowhere).  One small traced ``verify-wreath`` call in a
fresh interpreter shows that every wrapped name still exists and that the
call still succeeds under tracing.  The bench files are only read."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import stabdyn.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = stabdyn.cli.main(["verify-wreath", "0 2 / 1 0", "--n", "1", "--m", "2",
                             "--radius", "0"])
tracer.finish()
print(json.dumps({"exit": code, "metrics": tracer.metrics()}))
"""


def test_traced_verify_wreath_runs():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)],
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    metrics = result["metrics"]
    assert result["exit"] == 0
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.failed"] == 0
    assert metrics["codes.enumerate_automorphisms.elements"] > 0
    assert metrics["codes.compose.calls"] > 0
    assert metrics["codes.partition_action.calls"] > 0
