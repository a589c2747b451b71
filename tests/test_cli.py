"""CLI: documents, determinism, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from stabdyn import cli
from stabdyn.budgets import ENV_VAR
from stabdyn.cli import _load_group, main, rigidity_sweep_pairs
from stabdyn.groups import cyclic_group, direct_product, klein_group

from conftest import intercalate_loop
from test_bench_digests import CODES_INSTANCES, RIGIDITY_INSTANCES, SPECTRAL_INSTANCES
from test_schemas import CASES as SCHEMA_CASES


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_full_two_shift(capsys):
    code, out, _ = run(capsys, ["analyze", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 1
    assert doc["rational_eigenvalues"] == [1]
    assert abs(doc["entropy"] - 0.6931471805599453) < 1e-12


def test_analyze_two_cycle(capsys):
    code, out, _ = run(capsys, ["analyze", "0 1 / 1 0", "--json"])
    doc = json.loads(out)
    assert doc["period"] == 2
    assert doc["rational_eigenvalues"] == [1, 2]
    assert doc["entropy"] == 0.0


def test_analyze_golden_mean(capsys):
    code, out, _ = run(capsys, ["analyze", "1 1 / 1 0", "--json"])
    doc = json.loads(out)
    assert doc["period"] == 1
    assert abs(doc["entropy"] - 0.4812118250596035) < 1e-9


def test_analyze_component_entropy(capsys):
    # period 1: the component is the shift itself, so the entropies are equal
    for matrix in ["2", "1 1 / 1 0", "1 2 0 / 0 0 1 / 1 0 1"]:
        doc = json.loads(run(capsys, ["analyze", matrix, "--json"])[1])
        assert doc["period"] == 1
        assert doc["smale"]["component_adjacency"] == [
            [int(a) for a in row.split()] for row in matrix.split("/")]
        assert doc["smale"]["component_entropy"] == doc["entropy"]
    # period 2: the component presents sigma^2, with twice the entropy
    doc = json.loads(run(capsys, ["analyze", "0 2 / 2 0", "--json"])[1])
    assert doc["period"] == 2
    assert doc["smale"]["component_entropy"] == pytest.approx(2 * doc["entropy"], abs=1e-9)


def test_analyze_bad_matrix_exits_one(capsys):
    code, out, err = run(capsys, ["analyze", "1 2 / 3"])
    assert code == 1
    assert "error" in err


def test_eigs_and_partition(capsys):
    code, out, _ = run(capsys, ["eigs", "0 1 / 1 0", "--json"])
    assert json.loads(out)["rational_eigenvalues"] == [1, 2]
    code, out, _ = run(capsys, ["partition", "0 1 / 1 0", "-m", "2", "--json"])
    doc = json.loads(out)
    assert doc["classes"] == [["0"], ["1"]]


CYCLE3 = "0 1 0 / 0 0 1 / 1 0 0"


def test_autos_counts(capsys):
    # --power n enumerates over the n-th power presentation: sigma^2 of the
    # full 2-shift is the full 4-shift (24 symbol bijections), and sigma^3 of
    # the 3-cycle is three disjoint loops (3! component permutations)
    for matrix, power, radius, expected in [
            ("2", 1, 0, 2), ("2", 2, 0, 24), ("1 1 / 1 0", 1, 0, 1),
            (CYCLE3, 1, 1, 3), (CYCLE3, 2, 1, 3), (CYCLE3, 3, 1, 6)]:
        code, out, _ = run(capsys, ["autos", matrix, "--power", str(power),
                                    "--radius", str(radius), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["count"], doc["power"]) == (expected, power)


@pytest.mark.parametrize("argv", [
    ["verify-wreath", "0 2 / 1 0", "--n", "1", "--m", "2", "--inv-radius", "2"],
    ["eigs", "2", "--seed", "0"],
    ["autos", "2", "--radius", "1", "--inv-radius", "2"],
    ["quotients", "0 2 / 1 0", "--m", "2", "--inv-radius", "2"],
])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, command", [
    (["quotients", "0 2 / 1 0", "--m", "2", "--inv-radius", "2"], "quotients"),
    (["partition", "0 1 / 1 0"], "partition"),  # -m is required
    (["--json"], None),
])
def test_usage_error_writes_manifest_to_stderr(capsys, argv, command):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    usage, line = capsys.readouterr().err.splitlines()[-2:]
    assert usage.startswith("stabdyn")
    manifest = json.loads(line)
    assert (manifest["exit_code"], manifest["subcommand"]) == (1, command)
    assert manifest["flags"] == {} and manifest["input_hashes"] == {}


@pytest.mark.parametrize("argv", [["--version"], ["autos", "--help"]])
def test_help_and_version_write_no_manifest(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_verify_wreath_keystone(capsys):
    code, out, _ = run(capsys, ["verify-wreath", "0 2 / 1 0",
                                "--n", "1", "--m", "2", "--radius", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] is True
    assert doc["automorphism_count"] == 72


def test_quotients_cli(capsys):
    code, out, _ = run(capsys, ["quotients", "0 2 / 1 0", "--m", "2",
                                "--radius", "1", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_rigidity_cli(capsys):
    code, out, _ = run(capsys, ["rigidity", "--group-g", "cyclic:9", "--n", "2",
                                "--group-h", "cyclic:3", "--m", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["isomorphic"] is False
    assert "no isomorphism" in doc["detail"]


def test_compare_eigs_cli(capsys):
    code, out, _ = run(capsys, ["compare-eigs", "0 1 / 1 0", "0 2 / 1 0", "--json"])
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_entropy_ratio_cli(capsys):
    code, out, _ = run(capsys, ["entropy-ratio", "2", "4", "--json"])
    doc = json.loads(out)
    assert doc["best_rational"] == [1, 2]
    assert doc["verdict"] == "rational-within-tolerance"


def test_example1_prints_word(capsys):
    code, out, _ = run(capsys, ["example1", "--level", "2"])
    assert code == 0
    assert out.strip() == "10101000"


def test_example1_check(capsys):
    code, out, _ = run(capsys, ["example1", "--level", "3", "--check-n", "2",
                                "--json"])
    assert code == 0
    assert json.loads(out)["residue_check"]["passes"] is True


def test_example2_word_and_check(capsys):
    code, out, _ = run(capsys, ["example2", "--level", "1"])
    assert out.strip() == "aaaa1aaaa"
    code, out, _ = run(capsys, ["example2", "--level", "3", "--check-n", "1",
                                "--json"])
    assert code == 0
    assert json.loads(out)["residue_check"]["passes"] is True
    code, out, _ = run(capsys, ["example2", "--level", "1", "--check-n", "1",
                                "--depth", "100000", "--json"])
    assert code == 0
    assert json.loads(out)["residue_check"]["depth"] == 100000


@pytest.mark.parametrize("scheme", ["example1", "example2"])
def test_example_depth_needs_check_n(capsys, scheme):
    code, out, err = run(capsys, [scheme, "--level", "2", "--depth", "50"])
    assert code == 1
    assert out == ""
    assert "--check-n" in err
    code, out, _ = run(capsys, [scheme, "--level", "2", "--check-n", "0"])
    assert code == 1
    assert out == ""


def test_wreath_calc(tmp_path, capsys):
    expr = {
        "base": {"cyclic": 2},
        "n": 2,
        "bindings": {"x": {"g": [1, 0], "sigma": [1, 0]},
                     "y": {"g": [0, 1], "sigma": [1, 0]}},
        "expr": ["mul", "x", "y"],
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    code, out, _ = run(capsys, ["wreath-calc", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"g": [0, 0], "sigma": [0, 1]}


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _one_line_error_with_manifest(capsys, argv, tmp_path):
    path = tmp_path / "manifest.json"
    code, out, err = run(capsys, argv + ["--manifest", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("stabdyn: error:") and err.count("\n") == 1
    assert _strict_json(path.read_text())["exit_code"] == 1
    return err


@pytest.mark.parametrize("extra", [{"generators": [7]}, {"names": ["e"]}])
def test_rigidity_rejects_group_table_indices(tmp_path, capsys, extra):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]], **extra}))
    _one_line_error_with_manifest(capsys, ["rigidity", "--group-g", str(path), "--n", "2",
                                           "--group-h", "cyclic:2", "--m", "3"], tmp_path)


@pytest.mark.parametrize("table", [
    [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 1, 3], [3, 3, 1, 0]],  # 1 * 1 = 3 * 1 = 3
    intercalate_loop(),
], ids=["not-latin", "latin-loop-130"])
def test_rigidity_rejects_tables_that_are_not_groups(tmp_path, table):
    # in a subprocess with a timeout: a table without Latin rows and columns
    # once sent the generator search into an endless power loop
    path, manifest = tmp_path / "g.json", tmp_path / "manifest.json"
    path.write_text(json.dumps({"table": table}))
    proc = subprocess.run([sys.executable, "-m", "stabdyn.cli", "rigidity", "--group-g",
                           str(path), "--n", "1", "--group-h", f"cyclic:{len(table)}",
                           "--m", "1", "--manifest", str(manifest)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("stabdyn: error: table is not") and \
        proc.stderr.count("\n") == 1
    assert json.loads(manifest.read_text())["exit_code"] == 1


@pytest.mark.parametrize("binding", [{"g": [1, 5], "sigma": [1, 0]},
                                     {"g": [1, 0], "sigma": [0, 0]}])
def test_wreath_calc_rejects_bad_elements(tmp_path, capsys, binding):
    expr = json.dumps({"n": 2, "bindings": {"x": binding}, "expr": ["inv", "x"]})
    _one_line_error_with_manifest(capsys, ["wreath-calc", expr], tmp_path)


RIGIDITY_G = ["rigidity", "--group-g", "DOC", "--n", "2", "--group-h", "cyclic:2", "--m", "3"]


@pytest.mark.parametrize("argv, doc, field", [
    (["wreath-calc", "DOC"], {"n": 2, "bindings": {"x": {"g": 1, "sigma": [1, 0]}},
                              "expr": "x"}, "'g'"),
    (["wreath-calc", "DOC"], {"n": 2, "bindings": {"x": {"g": [1, 0], "sigma": [1, 0]}},
                              "expr": ["inv"]}, "'inv'"),
    (RIGIDITY_G, {"table": [0]}, "table row"),
    ([a.replace("DOC", "cyclic:0") for a in RIGIDITY_G], None, "cyclic group order"),
    (["wreath-calc", "DOC"], {"n": 2}, "'expr'"),
    (["wreath-calc", "DOC"], {"expr": "x"}, "'n'"),
    (["wreath-calc", "DOC"], {"n": 2, "bindings": {"x": {"sigma": [1, 0]}}, "expr": "x"},
     "'g'"),
    (["wreath-calc", "DOC"], {"n": 2, "bindings": {"x": {"g": [1, 0]}}, "expr": "x"},
     "'sigma'"),
    (["wreath-calc", "DOC"], {"n": 2, "bindings": {"x": {"g": [1, 0], "sigma": [1, 0]}},
                              "expr": ["mul", "x", "y"]}, "'y'"),
    (RIGIDITY_G, {"names": ["e"]}, "no 'table'"),
    (["wreath-calc", "DOC"], {"n": 2, "base": {"names": ["e"]}, "expr": "x"}, "no 'table'"),
], ids=["binding-g-not-a-list", "inv-without-operand", "table-row-not-a-list", "cyclic-0",
        "no-expr", "no-n", "binding-without-g", "binding-without-sigma", "unbound-name",
        "group-without-table", "base-without-table"])
def test_misshapen_documents_are_usage_errors(tmp_path, capsys, argv, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    err = _one_line_error_with_manifest(capsys, [a.replace("DOC", str(path)) for a in argv],
                                        tmp_path)
    assert field in err


@pytest.mark.parametrize("argv, field", [
    (["example1", "--level", "2", "--check-n", "1", "--depth", "-5"], "depth"),
    (["example2", "--level", "2", "--check-n", "1", "--depth", "-5"], "depth"),
    (["entropy-ratio", "2", "4", "--tol", "nan"], "tolerance"),
    (["entropy-ratio", "2", "4", "--tol", "inf"], "tolerance"),
    (["rigidity", "--group-g", "cyclic:2", "--n", "-1", "--group-h", "cyclic:2", "--m", "3"],
     "arity"),
    (["rigidity", "--group-g", "cyclic:2", "--n", "3", "--group-h", "cyclic:2", "--m", "-2"],
     "arity"),
    (["wreath-calc", json.dumps({"n": -1, "expr": "x"})], "arity"),
], ids=["example1-negative-depth", "example2-negative-depth", "tol-nan", "tol-inf",
        "rigidity-negative-n", "rigidity-negative-m", "wreath-calc-negative-n"])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv, field):
    assert field in _one_line_error_with_manifest(capsys, argv, tmp_path)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_manifest_writes_a_non_finite_flag_as_a_string(tmp_path, capsys, tol):
    _one_line_error_with_manifest(capsys, ["entropy-ratio", "2", "4", f"--tol={tol}"], tmp_path)
    flags = _strict_json((tmp_path / "manifest.json").read_text())["flags"]
    assert flags["tol"] == tol and flags["max_den"] == 50


@pytest.mark.parametrize("max_den", ["0", "-3"])
def test_entropy_ratio_max_den_below_one_names_the_flag(tmp_path, capsys, max_den):
    err = _one_line_error_with_manifest(
        capsys, ["entropy-ratio", "2", "4", f"--max-den={max_den}"], tmp_path)
    assert err == "stabdyn: error: max denominator must be >= 1\n"


def test_determinism_byte_identical(capsys):
    argv = ["analyze", "1 1 / 1 0", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv = ["autos", "2", "--radius", "1", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_manifest_written(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    code, out, err = run(capsys, ["eigs", "2", "--json", "--manifest", str(path)])
    assert code == 0
    manifest = json.loads(path.read_text())
    assert manifest["subcommand"] == "eigs"
    assert manifest["exit_code"] == 0
    assert manifest["library_version"]
    assert "wall_time_s" in manifest


def test_manifest_written_on_error_exit(tmp_path, capsys):
    # the 2-cycle has period 2, so it has no cyclic partition of size 3
    path = tmp_path / "manifest.json"
    code, out, err = run(capsys, ["partition", "0 1 / 1 0", "-m", "3",
                                  "--manifest", str(path)])
    assert code == 1 and out == ""
    assert "stabdyn: error:" in err
    manifest = json.loads(path.read_text())
    assert manifest["exit_code"] == 1
    assert manifest["subcommand"] == "partition"


def test_manifest_on_stderr_by_default(capsys):
    code, out, err = run(capsys, ["eigs", "2", "--json"])
    manifest = json.loads(err)
    assert manifest["subcommand"] == "eigs"


def test_manifest_hashes_every_input(capsys):
    expr = json.dumps({"n": 2, "bindings": {"x": {"g": [1, 0], "sigma": [1, 0]}},
                       "expr": "x"})
    cases = [
        (["analyze", "1 1 / 1 0"], {"input": "1 1 / 1 0"}),
        (["entropy-ratio", "2", "4"], {"input_x": "2", "input_y": "4"}),
        (["rigidity", "--group-g", "cyclic:9", "--n", "2", "--group-h",
          "cyclic:3", "--m", "3"], {"group_g": "cyclic:9", "group_h": "cyclic:3"}),
        (["wreath-calc", expr], {"expr": expr}),
    ]
    for argv, sources in cases:
        code, _, err = run(capsys, argv + ["--json"])
        assert code == 0, argv
        assert json.loads(err)["input_hashes"] == {
            key: hashlib.sha256(text.encode()).hexdigest()[:16]
            for key, text in sources.items()}, argv


def test_manifest_hashes_the_inputs_of_a_failed_run(tmp_path, capsys, monkeypatch):
    # a group table file is hashed by its text, and each input is hashed when
    # it is read, so a run that then fails still names its inputs
    table = json.dumps({"table": [[0, 1], [1, 0]]})
    path = tmp_path / "g.json"
    path.write_text(table)
    expr = json.dumps({"n": 2, "bindings": {}, "expr": ["inv"]})
    monkeypatch.setenv(ENV_VAR, "100")
    cases = [
        (["rigidity", "--group-g", str(path), "--n", "4", "--group-h", "cyclic:4", "--m", "3"],
         {"group_g": table, "group_h": "cyclic:4"},
         {"cap": "group_order", "limit": 100, "used": 384, "search": None}),
        (["wreath-calc", expr], {"expr": expr}, None),
    ]
    for argv, sources, budget_exit in cases:
        _one_line_error_with_manifest(capsys, argv, tmp_path)
        manifest = _strict_json((tmp_path / "manifest.json").read_text())
        assert manifest["input_hashes"] == {
            key: hashlib.sha256(text.encode()).hexdigest()[:16]
            for key, text in sources.items()}, argv
        assert manifest.get("budget_exit") == budget_exit, argv


def test_quiet_suppresses_stdout(capsys):
    code, out, err = run(capsys, ["eigs", "2", "--quiet"])
    assert code == 0
    assert out == ""


def test_rigidity_sweep_pair_generation():
    pairs = rigidity_sweep_pairs()
    names = {frozenset([(a, n), (b, m)]) for a, _, n, b, _, m in pairs}
    assert frozenset([("Z9", 2), ("Z3", 3)]) in names
    assert frozenset([("Z3xZ3", 2), ("Z3", 3)]) in names
    assert frozenset([("Z4", 3), ("Z2", 4)]) in names
    assert frozenset([("V4", 3), ("Z2", 4)]) in names
    assert len(pairs) == 4


def test_product_shorthands_are_direct_products():
    products = {"z3xz3": direct_product(cyclic_group(3), cyclic_group(3)),
                "z4xz2": direct_product(cyclic_group(4), cyclic_group(2)),
                "z2xz2xz2": direct_product(klein_group(), cyclic_group(2))}
    for spec, expected in products.items():
        group, name = _load_group(argparse.Namespace(group=spec.upper(), _hashes={}), "group")
        assert name == spec.upper() and group.table == expected.table
    # the sweep pairs Z3 x Z3 (the only product of equal wreath order) with Z3
    swept = {name: g for pair in rigidity_sweep_pairs() for name, g in (pair[:2], pair[3:5])}
    assert swept["Z3xZ3"].table == products["z3xz3"].table


def test_verify_wreath_on_a_lettered_power_presentation_is_pinned(capsys):
    # the period-3 cycle with one doubled return arc at n = 2, m = 3: a
    # 12-symbol power presentation (letter names) whose lifted stage, at the
    # radius reduced to 0, has 82,944 members; no benchmark digest covers either
    code, out, _ = run(capsys, ["verify-wreath", "0 1 0 / 0 0 1 / 2 0 0",
                                "--n", "2", "--m", "3", "--radius", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0cccaca158dfc761a193c0ac3b6056243fed943e1ff2460b159eca35d85ce9d6")


def test_sweep_runs_clean(capsys):
    code, out, _ = run(capsys, ["sweep", "--radius", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    instances = {r["instance"] for r in doc["instances"]}
    assert any(i.startswith("rigidity:") for i in instances)
    assert any(i.startswith("split:") for i in instances)


SHARED_ITEMS = [[0, 1, 2], {"b": [1], "a": None}, 7, "s"]
EDGE_DOCUMENTS = [
    # the same objects repeated in a dict, in a list and at two depths
    {"table": {str(k): SHARED_ITEMS[k % 4] for k in range(40)},
     "rows": SHARED_ITEMS * 3 + [SHARED_ITEMS], "pair": [SHARED_ITEMS[0]] * 2},
    {"nan": float("nan"), "inf": [float("inf"), -float("inf"), -0.0, 1e300, 0.1]},
    {"text": ["h\u00e9\n\"", "", "\u2603"], "flags": [True, False, None], "big": 10 ** 30},
    {"mixed": [1, "a", None, [True, 2.5], (1, 2), {}], "empty": [[], {}, ()]},
    {"int_keys": {2: [1], 1: {"x": 0}}, "bool_list": [True], "nested": [[[1], [2, 3]]]},
    [], {}, 0, "s", None, 1.5,
]


def test_dumps_is_json_dumps_on_every_bench_and_schema_document(monkeypatch, capsys):
    docs = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda doc: docs.append(doc) or dumps(doc))
    argvs = [list(inst.argv) for inst in CODES_INSTANCES + RIGIDITY_INSTANCES
             + SPECTRAL_INSTANCES] + [argv for argv, _ in SCHEMA_CASES]
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    assert len(docs) == len(argvs)
    for doc in docs + EDGE_DOCUMENTS:
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_encodes_a_repeated_object_once_per_container(monkeypatch):
    encode, encoded = cli._encode, []
    monkeypatch.setattr(cli, "_encode", lambda value, newline:
                        encoded.append(value) or encode(value, newline))
    doc = EDGE_DOCUMENTS[0]
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # [0, 1, 2] sits 10 times in "table", 3 times in "rows", once in the
    # SHARED_ITEMS nested in "rows" and twice in "pair": one encoding per container
    assert sum(value is SHARED_ITEMS[0] for value in encoded) == 4


@pytest.mark.parametrize("budget,argv,expected", [
    ("200", ["autos", "2", "--radius", "1"], ("enum_nodes", 200, 201, "stage")),
    ("200", ["quotients", "0 2 / 1 0", "--m", "2", "--radius", "0"],
     ("enum_nodes", 200, 201, "component stage")),
    ("200", ["verify-wreath", "0 2 / 1 0", "--n", "1", "--m", "2", "--radius", "0"],
     ("enum_nodes", 200, 201, "component stage")),
    ("100", ["autos", "2", "--radius", "1"], ("word_count", 100, 128, None)),
    # both wreath orders meet the budget before unequal orders or spectra decide the pair
    ("100", ["rigidity", "--group-g", "cyclic:2", "--n", "4", "--group-h", "cyclic:4",
             "--m", "3"], ("group_order", 100, 384, None)),
    ("100", ["rigidity", "--group-g", "cyclic:2", "--n", "2", "--group-h", "cyclic:3",
             "--m", "3"], ("group_order", 100, 162, None)),
], ids=["stage", "quotients-component", "split-component", "word-count",
        "rigidity-spectra-differ", "rigidity-orders-differ"])
def test_budget_exit_manifest_names_the_cap(tmp_path, capsys, monkeypatch, budget, argv,
                                            expected):
    # the radius-1 full-2-shift search takes 362 nodes, its inverse check
    # reads the 128 words of length 7; at radius 0 the doubled loop's own
    # stage fits in 200 nodes and its component's (the full 2-shift) does not
    monkeypatch.setenv(ENV_VAR, budget)
    _one_line_error_with_manifest(capsys, argv, tmp_path)
    manifest = _strict_json((tmp_path / "manifest.json").read_text())
    cap, limit, used, search = expected
    assert manifest["budget_exit"] == {"cap": cap, "limit": limit, "used": used,
                                       "search": search}
