"""The benchmark workloads, as lists of instances built from a seed.

There are four parts (``split``, ``quotients``, ``rigidity``, ``spectral``),
joined two by two into the workloads the benchmark contract runs.  Every
part has a fixed instance set, so each seed does the same amount of
work.  The seed orders the instances, and on ``spectral`` it also relabels
the states of the graphs that go through the dual-route checks.  Instances
whose stdout document is pinned by a reference digest never change with the
seed; instances with seed-dependent inputs are checked by dual routes.

This module imports nothing from ``stabdyn``: the inputs are fixed here, not
derived from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PARTS = ("split", "quotients", "rigidity", "spectral")

# The benchmark's workloads, each joining two parts that stress different
# layers.  Two workloads with long runs average co-tenant CPU noise far better
# than four with short runs in the same time budget; each part still runs as
# its own fresh-process pass, so its cache behaviour is that of its CLI calls.
COMPOSITES = {"codes": ("split", "quotients"), "algebra": ("rigidity", "spectral")}


@dataclass(frozen=True)
class Instance:
    """One unit of work.  ``argv`` instances run ``stabdyn.cli.main(argv)``
    and their stdout must match the reference digest of ``id``; ``matrix``
    instances run the spectral dual-route checks on that adjacency matrix."""
    id: str
    argv: tuple = ()
    matrix: tuple = ()
    charpoly: bool = False


# The shifts and (shift, n, m) triples of ``stabdyn sweep`` at the seed commit.
SWEEP_SHIFTS = {
    "full2": "2",
    "golden": "1 1 / 1 0",
    "cycle2": "0 1 / 1 0",
    "cycle3": "0 1 0 / 0 0 1 / 1 0 0",
    "doubled_loop_p2": "0 2 / 1 0",
    "doubled_cycle_p3": "0 2 0 / 0 0 1 / 1 0 0",
}
SPLIT_INSTANCES = (
    ("full2", 1, 1), ("golden", 2, 1), ("golden", 3, 1),
    ("cycle2", 1, 2), ("cycle2", 3, 2), ("doubled_loop_p2", 1, 2),
    ("cycle3", 1, 3), ("cycle3", 2, 3), ("doubled_cycle_p3", 1, 3),
)

# (name, matrix, period); m = period for every quotient report.
QUOTIENT_INPUTS = (
    ("doubled_loop_p2", "0 2 / 1 0", 2),
    ("doubled_cycle_p3", "0 2 0 / 0 0 1 / 1 0 0", 3),
    ("full2", "2", 1),
    ("split_loop_p2", "0 1 1 / 1 0 0 / 1 0 0", 2),
    ("doubled_cycle_p4", "0 2 0 0 / 0 0 1 0 / 0 0 0 1 / 1 0 0 0", 4),  # inconclusive
)

# The n != m pairs of ``rigidity_sweep_pairs()`` at the seed commit (rejected
# by invariants after both tables are built), then equal-arity self-pairs
# where the isomorphism search succeeds.
RIGIDITY_PAIRS = (
    ("cyclic:2", 4, "cyclic:4", 3),
    ("cyclic:2", 4, "klein", 3),
    ("cyclic:3", 3, "cyclic:9", 2),
    ("cyclic:3", 3, "z3xz3", 2),
    ("cyclic:2", 4, "cyclic:2", 4),
    ("klein", 3, "klein", 3),
    ("d4", 2, "d4", 2),
    ("q8", 2, "q8", 2),
)

# Sparse irreducible graphs for ``spectral``: an n-cycle plus chords, drawn
# once from this generator seed.  The run seed does not redraw them, because
# the Perron iteration count (and so the work) varies eightfold between draws.
GRAPH_FAMILY_SEED = 0
LARGE_GRAPHS = 4          # analyze; the first two also form the entropy-ratio pair
LARGE_STATES = (40, 64)
CHARPOLY_STATES = (24, 28)  # entropy vs. exact charpoly dual route


def cycle_with_chords(rng: random.Random, n: int, chords: int) -> tuple:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    added = 0
    while added < chords:
        i, j = rng.randrange(n), rng.randrange(n)
        if rows[i][j] == 0:
            rows[i][j] = 1
            added += 1
    return tuple(tuple(r) for r in rows)


def spectral_graphs() -> tuple:
    """(large graphs, charpoly graphs), the same for every run seed."""
    rng = random.Random(GRAPH_FAMILY_SEED)
    large = tuple(cycle_with_chords(rng, rng.randint(*LARGE_STATES), rng.randint(1, 2))
                  for _ in range(LARGE_GRAPHS))
    small = tuple(cycle_with_chords(rng, n, 2) for n in CHARPOLY_STATES)
    return large, small


def matrix_text(matrix: tuple) -> str:
    return " / ".join(" ".join(str(x) for x in row) for row in matrix)


def relabel(matrix: tuple, rng: random.Random) -> tuple:
    """The same graph with its states permuted: A'[p(i)][p(j)] = A[i][j]."""
    n = len(matrix)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = matrix[i][j]
    return tuple(tuple(r) for r in rows)


def _split() -> list:
    return [Instance(f"split:{key}:n{n}:m{m}",
                     ("verify-wreath", SWEEP_SHIFTS[key], "--n", str(n), "--m", str(m),
                      "--radius", "1"))
            for key, n, m in SPLIT_INSTANCES]


def _quotients() -> list:
    return [Instance(f"quotients:{name}",
                     ("quotients", text, "--m", str(p), "--radius", "1"))
            for name, text, p in QUOTIENT_INPUTS]


def _rigidity() -> list:
    return [Instance(f"rigidity:{g}wr{n}:{h}wr{m}",
                     ("rigidity", "--group-g", g, "--n", str(n),
                      "--group-h", h, "--m", str(m)))
            for g, n, h, m in RIGIDITY_PAIRS]


def _spectral(rng: random.Random) -> list:
    large, small = spectral_graphs()
    out = [Instance(f"spectral:analyze:g{i}", ("analyze", matrix_text(g)))
           for i, g in enumerate(large)]
    out.append(Instance("spectral:entropy-ratio:g0:g1",
                        ("entropy-ratio", matrix_text(large[0]), matrix_text(large[1]))))
    out += [Instance(f"spectral:dual:g{i}", matrix=relabel(g, rng))
            for i, g in enumerate(large)]
    out += [Instance(f"spectral:dual:c{i}", matrix=relabel(g, rng), charpoly=True)
            for i, g in enumerate(small)]
    return out


def instances(part: str, seed: int) -> list:
    """The instance list of one pass of ``part``, in the seed's order."""
    rng = random.Random(f"{part}:{seed}")
    if part == "split":
        out = _split()
    elif part == "quotients":
        out = _quotients()
    elif part == "rigidity":
        out = _rigidity()
    elif part == "spectral":
        out = _spectral(rng)
    else:
        raise ValueError(f"unknown part {part!r}; choose from {PARTS}")
    rng.shuffle(out)
    return out
