"""Process-level CLI integration: entry point, exit codes, cross-process
determinism, document serialization surfaces."""

from __future__ import annotations

import json
import subprocess
import sys

from stabdyn import cli
from stabdyn.spectral import cyclic_partition

from conftest import doubled_cycle


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "stabdyn.cli", *argv],
                          capture_output=True, text=True, timeout=300)


def test_cli_module_entry_analyze():
    proc = run_cli(["analyze", "0 2 / 1 0", "--json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["period"] == 2
    assert doc["smale"]["component_adjacency"] == [[2]]
    manifest = json.loads(proc.stderr)
    assert manifest["subcommand"] == "analyze"


def test_cli_analyze_reducible_graph():
    proc = run_cli(["analyze", "1 0 / 0 1", "--json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["irreducible"] is False
    assert "period" not in doc


def test_cli_cross_process_determinism():
    for argv in (["autos", "2", "--radius", "1", "--json"],
                 ["verify-wreath", "0 2 / 1 0", "--n", "1", "--m", "2",
                  "--radius", "1", "--json"]):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()


def test_cli_usage_error_exit_code():
    proc = run_cli(["analyze"])
    assert proc.returncode == 1
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 1


def test_cli_partition_error_exit_code():
    proc = run_cli(["partition", "1 1 / 1 0", "-m", "2"])
    assert proc.returncode == 1
    assert "eigenvalue" in proc.stderr


def test_partition_document_embeds_hash():
    sft = doubled_cycle(4)
    doc = cyclic_partition(sft, 4).to_document()
    assert doc["matrix_hash"] == sft.matrix_hash()
    assert doc["size"] == 4


def test_cli_analyze_verify_flag():
    proc = run_cli(["analyze", "0 2 0 / 0 0 1 / 1 0 0", "--verify", "--json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verified"] is True and doc["period"] == 3


def test_cli_budget_env_var_end_to_end():
    import os
    env = dict(os.environ, STABDYN_BUDGET="50")
    proc = subprocess.run(
        [sys.executable, "-m", "stabdyn.cli", "autos", "2", "--radius", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 1
    assert "exceed" in proc.stderr


def test_cli_sweep_subprocess():
    proc = run_cli(["sweep", "--radius", "1", "--json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["all_pass"] is True
    assert len(doc["instances"]) >= 13


def test_one_process_reuses_the_parser_with_fresh_results(capsys):
    # one parser serves every main() call in a process; each call's stdout
    # and manifest flags are those of a fresh process
    rigidity = ["rigidity", "--group-g", "cyclic:2", "--n", "2",
                "--group-h", "cyclic:2", "--m", "2", "--json"]
    autos = ["autos", "2", "--power", "2", "--json"]
    assert cli.build_parser() is cli.build_parser()
    for argv in (rigidity, autos, rigidity):
        fresh = run_cli(argv)
        assert cli.main(argv) == fresh.returncode == 0
        captured = capsys.readouterr()
        assert captured.out == fresh.stdout
        assert json.loads(captured.err)["flags"] == json.loads(fresh.stderr)["flags"]
