"""Command-line entry point.

Every subcommand emits one structured JSON document (schema_version 1) on
stdout; a run manifest (subcommand, flags, input hashes, exit code, version,
wall time, and on a budget exit the cap that stopped the run) goes to
--manifest or stderr, on error exits as well.  Identical
inputs and version produce byte-identical stdout; manifests differ only in
wall time.

Exit codes: 0 pass/inconclusive, 1 usage/parse/budget error,
2 theorem-violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .codes import enumerate_automorphisms
from .errors import BudgetExceededError, ParseError, StabdynError, VerificationError
from .groups import (FiniteGroup, cyclic_group, direct_product, dihedral_square,
                     klein_group, quaternion_group, symmetric_group,
                     trivial_group)
from .seqs import (check_example1_residues, check_example2_markers,
                   example1_word, example2_word)
from .sft import (EdgeShift, entropy, is_irreducible, parse_edge_shift, period,
                  period_by_cycles, perron_root_by_charpoly, power_shift)
from .spectral import (cyclic_partition, exhaustive_partition_search,
                       rational_eigs, smale)
from .verify import (check_wreath_rigidity, compare_rational_eigs,
                     entropy_ratio, verify_quotient_isos, verify_split_sequence)
from .wreath import (WreathContext, wr_comm, wr_conj, wr_inv, wr_mul)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

SCHEMA_BY_COMMAND = {
    "analyze": "analyze", "eigs": "eigs", "partition": "partition",
    "autos": "autos", "verify-wreath": "verify_wreath",
    "quotients": "quotients", "wreath-calc": "wreath_calc",
    "rigidity": "rigidity", "compare-eigs": "compare_eigs",
    "entropy-ratio": "entropy_ratio", "example1": "example",
    "example2": "example", "sweep": "sweep",
}


def schema_for(command: str) -> dict:
    """The shipped JSON schema for a subcommand's stdout document; the
    schema tests validate every subcommand's stdout against it."""
    from importlib import resources
    name = SCHEMA_BY_COMMAND[command]
    path = resources.files("stabdyn").joinpath(f"schemas/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.
    With ``indent`` set, json encodes in pure Python, one call per value;
    here a list of one scalar type is one ``map`` and one join."""
    return _encode(doc, "\n") + "\n"


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# json's encoding of each scalar type, by exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _encode(value, newline: str) -> str:
    """``value`` encoded as json.dumps does, its lines after the first
    indented by ``newline``."""
    kind = type(value)
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if not value or kind not in (dict, list, tuple) or (
            kind is dict and set(map(type, value)) != {str}):
        # empty containers, other keys and other types: json's own encoding
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)
    inner = newline + "  "
    kinds = set(map(type, value)) if kind is not dict else ()
    if len(kinds) == 1 and kinds <= _SCALARS.keys():
        return "[" + inner + ("," + inner).join(map(_SCALARS[kinds.pop()], value)) + newline + "]"
    keys = sorted(value) if kind is dict else ()
    items = list(map(value.__getitem__, keys)) if kind is dict else value
    if len(set(map(id, items))) == len(items):
        texts = [_encode(item, inner) for item in items]
    else:  # an object this container holds more than once is encoded once
        shared = {}
        texts = [shared[key] if key in shared else shared.setdefault(key, _encode(item, inner))
                 for key, item in zip(map(id, items), items)]
    if kind is dict:
        texts = map(": ".join, zip(map(encode_basestring_ascii, keys), texts))
    opening, closing = "{}" if kind is dict else "[]"
    return opening + inner + ("," + inner).join(texts) + newline + closing


def _read_source(arg: str) -> tuple:
    """(text, origin): file contents when arg names a file, else inline."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as handle:
            return handle.read(), arg
    return arg, "<inline>"


def _load_shift(args, key: str) -> EdgeShift:
    """The shift that argument ``key`` names (a file or inline matrix text);
    records the input's hash under ``key`` for the manifest."""
    text, _ = _read_source(getattr(args, key))
    args._hashes[key] = _hash(text)
    return parse_edge_shift(text)


GROUP_SHORTHANDS = {
    "trivial": trivial_group,
    "klein": klein_group,
    "v4": klein_group,
    "d4": dihedral_square,
    "q8": quaternion_group,
    "z3xz3": lambda: direct_product(cyclic_group(3), cyclic_group(3)),
    "z4xz2": lambda: direct_product(cyclic_group(4), cyclic_group(2)),
    "z2xz2xz2": lambda: direct_product(klein_group(), cyclic_group(2)),
}


def _load_group(args, key: str) -> tuple:
    """(group, origin) of the group argument ``key``: a shorthand
    ("cyclic:9", "sym:3", "klein", "z3xz3", ...) or a JSON table document,
    from a file or inline.  The hash of its text (the shorthand itself, or
    the document) is recorded under ``key`` for the manifest before the
    group is built."""
    spec = getattr(args, key)
    lowered = spec.lower()
    kind, colon, size = lowered.partition(":")
    if lowered in GROUP_SHORTHANDS or colon and kind in ("cyclic", "sym"):
        args._hashes[key] = _hash(spec)
        if lowered in GROUP_SHORTHANDS:
            return GROUP_SHORTHANDS[lowered](), spec
        return (cyclic_group if kind == "cyclic" else symmetric_group)(int(size)), spec
    text, origin = _read_source(spec)
    args._hashes[key] = _hash(text)
    return _table_group(json.loads(text)), origin


def _shaped(value, kind: type, what: str):
    """``value`` when it is a ``kind``, else ParseError, so that the checked
    constructors see documents in shape."""
    if isinstance(value, kind):
        return value
    names = {dict: "an object", list: "a list", int: "an integer"}
    raise ParseError(f"{what} must be {names[kind]}")


def _field(doc: dict, key: str, where: str):
    """``doc[key]``, else a ParseError that names the missing key."""
    if key not in doc:
        raise ParseError(f"{where} has no {key!r}")
    return doc[key]


def _table_group(doc) -> FiniteGroup:
    """The group of a document {"table": rows, "names": [...], "generators": [...]}."""
    doc = _shaped(doc, dict, "a group document")
    optional = {key: _shaped(doc[key], list, repr(key)) for key in ("names", "generators")
                if doc.get(key) is not None}
    rows = [_shaped(row, list, "a table row") for row in _shaped(
        _field(doc, "table", "the group document"), list, "'table'")]
    return FiniteGroup(rows, **optional)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _emit(args, doc, plain: str = None) -> None:
    if getattr(args, "quiet", False):
        return
    if plain is not None and not getattr(args, "json", False):
        sys.stdout.write(plain + "\n")
        return
    sys.stdout.write(_dumps(doc))


def _manifest(args, started: float, exit_code: int, budget_exit: dict = None) -> None:
    manifest = {
        "schema_version": 1,
        "subcommand": args.command,
        # a non-finite float flag is written "nan" or "inf": JSON has no NaN
        "flags": {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in sorted(vars(args).items())
                  if k not in {"command", "func"} and not k.startswith("_")
                  and not callable(v)},
        "input_hashes": args._hashes,
        "exit_code": exit_code,
        "library_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
        "result_path": "-",
    }
    if budget_exit is not None:
        manifest["budget_exit"] = budget_exit
    text = json.dumps(manifest, sort_keys=True, default=str, allow_nan=False) + "\n"
    path = getattr(args, "manifest", None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stderr.write(text)


# -- subcommand implementations ----------------------------------------------------


def cmd_analyze(args) -> int:
    sft = _load_shift(args, "input")
    doc = {
        "schema_version": 1,
        "matrix_hash": sft.matrix_hash(),
        "states": list(sft.states),
        "normalization_log": list(sft.normalization_log),
        "irreducible": is_irreducible(sft),
    }
    if doc["irreducible"]:
        p = period(sft)
        ent = entropy(sft)
        dec = smale(sft)
        # a period-1 shift is its own Smale component: reuse its entropy
        comp_ent = ent if dec.component_shift.adjacency == sft.adjacency \
            else entropy(dec.component_shift)
        doc.update({
            "period": p,
            "rational_eigenvalues": sorted(rational_eigs(sft)),
            "entropy": ent.log_value,
            "perron_eigenvalue": ent.perron_value,
            "power_iterations": ent.iterations,
            "mixing": p == 1,
            "smale": {
                "period": dec.period,
                "component_states": list(dec.component_shift.states),
                "component_adjacency": [list(r) for r in dec.component_shift.adjacency],
                "component_entropy": comp_ent.log_value,
            },
        })
        if getattr(args, "verify", False):
            doc["verified"] = _dual_path_checks(sft, p, ent)
    _emit(args, doc)
    return EXIT_OK


def _dual_path_checks(sft, p, ent) -> bool:
    """Runtime cross-checks: independent oracles must agree with the fast
    paths (raises VerificationError on a mismatch)."""
    if period_by_cycles(sft) != p:
        raise VerificationError("cycle-enumeration period disagrees with BFS period")
    if sft.n_states <= 6:
        lam = perron_root_by_charpoly([list(r) for r in sft.adjacency])
        if abs(lam - ent.perron_value) > 1e-8:
            raise VerificationError("characteristic-polynomial Perron root disagrees")
        for m in range(1, 7):
            if (exhaustive_partition_search(sft, m) is not None) != (p % m == 0):
                raise VerificationError(f"partition search disagrees at m={m}")
    return True


def cmd_eigs(args) -> int:
    sft = _load_shift(args, "input")
    doc = {
        "schema_version": 1,
        "matrix_hash": sft.matrix_hash(),
        "period": period(sft),
        "rational_eigenvalues": sorted(rational_eigs(sft)),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_partition(args) -> int:
    sft = _load_shift(args, "input")
    part = cyclic_partition(sft, args.m)
    _emit(args, part.to_document())
    return EXIT_OK


def cmd_autos(args) -> int:
    sft = _load_shift(args, "input")
    autos = enumerate_automorphisms(power_shift(sft, args.power), args.radius)
    _emit(args, autos.to_document())
    return EXIT_OK


def cmd_verify_wreath(args) -> int:
    sft = _load_shift(args, "input")
    report = verify_split_sequence(sft, args.n, args.m, args.radius)
    _emit(args, report.to_document())
    return EXIT_OK if report.passes else EXIT_VIOLATION


def cmd_quotients(args) -> int:
    sft = _load_shift(args, "input")
    report = verify_quotient_isos(sft, args.m, args.radius)
    _emit(args, report.to_document())
    return EXIT_OK if report.passes else EXIT_VIOLATION


def cmd_wreath_calc(args) -> int:
    text, _ = _read_source(args.expr)
    args._hashes["expr"] = _hash(text)
    doc = _shaped(json.loads(text), dict, "an expression document")
    base_spec = _shaped(doc.get("base", {"cyclic": 2}), dict, "'base'")
    if "cyclic" in base_spec:
        base = cyclic_group(_shaped(base_spec["cyclic"], int, "'cyclic'"))
    else:
        base = _table_group(base_spec)
    ctx = WreathContext(base, _shaped(_field(doc, "n", "the expression document"), int, "'n'"))
    bindings = {}
    for name, val in _shaped(doc.get("bindings", {}), dict, "'bindings'").items():
        val = _shaped(val, dict, f"binding {name!r}")
        bindings[name] = ctx.element(
            _shaped(_field(val, "g", f"binding {name!r}"), list, "'g'"),
            _shaped(_field(val, "sigma", f"binding {name!r}"), list, "'sigma'"))
    fixed_arity = {"inv": (wr_inv, 1), "conj": (wr_conj, 2), "comm": (wr_comm, 2)}

    def evaluate(node):
        if isinstance(node, str):
            if node not in bindings:
                raise ParseError(f"name {node!r} is not bound")
            return bindings[node]
        op, *rest = _shaped(node, list, "an operation") or [None]  # [] names no operation
        operands = [evaluate(x) for x in rest]
        if op == "mul" and operands:
            return functools.reduce(wr_mul, operands)
        if op in fixed_arity and len(operands) == fixed_arity[op][1]:
            return fixed_arity[op][0](*operands)
        raise ParseError(f"operation {op!r} with {len(operands)} operands; the operations are "
                         "mul (one or more), inv (one), conj and comm (two)")

    result = evaluate(_field(doc, "expr", "the expression document"))
    _emit(args, {"schema_version": 1, "result": result.to_document(),
                 "name": result.name()})
    return EXIT_OK


def cmd_rigidity(args) -> int:
    group_g, name_g = _load_group(args, "group_g")
    group_h, name_h = _load_group(args, "group_h")
    report = check_wreath_rigidity(group_g, args.n, group_h, args.m,
                                   name_g, name_h)
    _emit(args, report.to_document())
    return EXIT_OK if report.passes else EXIT_VIOLATION


def cmd_compare_eigs(args) -> int:
    x = _load_shift(args, "input_x")
    y = _load_shift(args, "input_y")
    doc = compare_rational_eigs(x, y)
    _emit(args, doc)
    return EXIT_OK


def cmd_entropy_ratio(args) -> int:
    x = _load_shift(args, "input_x")
    y = _load_shift(args, "input_y")
    report = entropy_ratio(x, y, args.max_den, args.tol)
    _emit(args, report.to_document())
    return EXIT_OK


# scheme -> (word generator, residue checker, extra document fields)
EXAMPLES = {
    "example1": (example1_word, check_example1_residues, {}),
    "example2": (example2_word, check_example2_markers,
                 {"note": "recursion pinned by the length law len(A_n) = 3^(n+1)"}),
}


def cmd_example(args) -> int:
    word_of, check_markers, extra = EXAMPLES[args.command]
    if args.depth is not None and args.check_n is None:
        raise StabdynError("--depth sets the scan length of --check-n; give --check-n")
    word = word_of(args.level)
    doc = {"schema_version": 1, "scheme": args.command, "level": args.level,
           "length": len(word), "word": word, **extra}
    if args.check_n is None:
        _emit(args, doc, plain=word)
        return EXIT_OK
    report = check_markers(args.check_n, args.depth)
    doc["residue_check"] = report.to_document()
    _emit(args, doc)
    return EXIT_OK if report.passes else EXIT_VIOLATION


SWEEP_SHIFTS = {
    "full2": "2",
    "golden": "1 1 / 1 0",
    "cycle2": "0 1 / 1 0",
    "cycle3": "0 1 0 / 0 0 1 / 1 0 0",
    "doubled_loop_p2": "0 2 / 1 0",
    "doubled_cycle_p3": "0 2 0 / 0 0 1 / 1 0 0",
}

SWEEP_SPLIT_INSTANCES = [
    ("full2", 1, 1), ("golden", 2, 1), ("golden", 3, 1),
    ("cycle2", 1, 2), ("cycle2", 3, 2), ("doubled_loop_p2", 1, 2),
    ("cycle3", 1, 3), ("cycle3", 2, 3), ("doubled_cycle_p3", 1, 3),
]


def rigidity_catalog() -> list:
    """The (name, group) bases of ``rigidity_sweep_pairs``: every group of
    order 2 to 9 up to isomorphism."""
    return [
        ("Z2", cyclic_group(2)), ("Z3", cyclic_group(3)), ("Z4", cyclic_group(4)),
        ("V4", klein_group()), ("Z5", cyclic_group(5)), ("Z6", cyclic_group(6)),
        ("S3", symmetric_group(3)), ("Z7", cyclic_group(7)), ("Z8", cyclic_group(8)),
        ("Z4xZ2", GROUP_SHORTHANDS["z4xz2"]()), ("Z2xZ2xZ2", GROUP_SHORTHANDS["z2xz2xz2"]()),
        ("D4", dihedral_square()), ("Q8", quaternion_group()),
        ("Z9", cyclic_group(9)), ("Z3xZ3", GROUP_SHORTHANDS["z3xz3"]()),
    ]


def rigidity_sweep_pairs():
    """All base pairs of order <= 9 with equal wreath order and different
    arities n != m in {2, 3, 4}."""
    entries = []
    for name, group in rigidity_catalog():
        for n in (2, 3, 4):
            entries.append((WreathContext(group, n).order, name, group, n))
    pairs = []
    for i, (oa, na, ga, n) in enumerate(entries):
        for ob, nb, gb, m in entries[i:]:
            if oa == ob and n != m:
                pairs.append((na, ga, n, nb, gb, m))
    return pairs


def cmd_sweep(args) -> int:
    results = []
    worst = EXIT_OK
    for key, n, m in sorted(SWEEP_SPLIT_INSTANCES):
        sft = parse_edge_shift(SWEEP_SHIFTS[key])
        report = verify_split_sequence(sft, n, m, args.radius)
        results.append({"instance": f"split:{key}:n{n}:m{m}",
                        "passes": report.passes,
                        "automorphisms": report.automorphism_count})
        if not report.passes:
            worst = EXIT_VIOLATION
    for name_g, g, n, name_h, h, m in rigidity_sweep_pairs():
        report = check_wreath_rigidity(g, n, h, m, name_g, name_h)
        results.append({"instance": f"rigidity:{name_g}wr{n}:{name_h}wr{m}",
                        "passes": report.passes,
                        "isomorphic": report.isomorphic})
        if not report.passes:
            worst = EXIT_VIOLATION
    results.sort(key=lambda r: r["instance"])
    doc = {"schema_version": 1, "instances": results,
           "all_pass": worst == EXIT_OK}
    _emit(args, doc)
    return worst


# -- parser -------------------------------------------------------------------------


@functools.cache  # one parser per process: nothing rebinds the cmd_* handlers
def build_parser() -> _Parser:
    parser = _Parser(prog="stabdyn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="always emit the JSON document")
        p.add_argument("--quiet", action="store_true",
                       help="suppress stdout (exit code only)")
        p.add_argument("--manifest", help="write the run manifest to this path")

    p = sub.add_parser("analyze", help="period, eigenvalues, entropy, Smale piece")
    p.add_argument("input")
    p.add_argument("--verify", action="store_true",
                   help="run the dual-path oracles (cycle enumeration, "
                        "characteristic polynomial, partition search)")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eigs", help="rational eigenvalue set")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("partition", help="canonical cyclic partition")
    p.add_argument("input")
    p.add_argument("-m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("autos", help="radius-bounded stage of Aut(sigma^power)")
    p.add_argument("input")
    p.add_argument("--power", type=int, default=1,
                   help="enumerate over the power-shift presentation of sigma^power")
    p.add_argument("--radius", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_autos)

    p = sub.add_parser("verify-wreath", help="split exact sequence report")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--radius", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_verify_wreath)

    p = sub.add_parser("quotients", help="shift-quotient isomorphism report")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--radius", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_quotients)

    p = sub.add_parser("wreath-calc", help="evaluate a wreath expression document")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=cmd_wreath_calc)

    p = sub.add_parser("rigidity", help="wreath rigidity check for one pair")
    p.add_argument("--group-g", dest="group_g", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group-h", dest="group_h", required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("compare-eigs", help="eigenvalue set comparison")
    p.add_argument("input_x")
    p.add_argument("input_y")
    common(p)
    p.set_defaults(func=cmd_compare_eigs)

    p = sub.add_parser("entropy-ratio", help="rationality of the entropy ratio")
    p.add_argument("input_x")
    p.add_argument("input_y")
    p.add_argument("--max-den", dest="max_den", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_entropy_ratio)

    for name in EXAMPLES:
        p = sub.add_parser(name, help=f"{name} generator and residue checks")
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--check-n", dest="check_n", type=int, default=None, metavar="N",
                       help="check the residues of the occurrences of marker b_N")
        p.add_argument("--depth", type=int, default=None,
                       help="length of the word prefix --check-n scans "
                            "(default: A_{N+3} for example1, A_{N+2} for example2)")
        common(p)
        p.set_defaults(func=cmd_example)

    p = sub.add_parser("sweep", help="run the verification instance matrix")
    p.add_argument("--radius", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0 with no manifest
        if exc.code == EXIT_USAGE:  # --manifest is not parsed, so to stderr
            words = [a for a in (sys.argv[1:] if argv is None else argv) if a[:1] != "-"]
            command = words[0] if words and words[0] in SCHEMA_BY_COMMAND else None
            _manifest(argparse.Namespace(command=command, _hashes={}), started, EXIT_USAGE)
        raise
    args._hashes = {}
    budget_exit = None
    try:
        code = args.func(args)
    except (StabdynError, OSError, KeyError, ValueError) as exc:  # JSONDecodeError too
        sys.stderr.write(f"stabdyn: error: {exc}\n")
        code = EXIT_USAGE
        if isinstance(exc, BudgetExceededError) and exc.cap is not None:
            budget_exit = {"cap": exc.cap, "limit": exc.limit, "used": exc.used,
                           "search": exc.search}
    _manifest(args, started, code, budget_exit)
    return code


if __name__ == "__main__":
    sys.exit(main())
