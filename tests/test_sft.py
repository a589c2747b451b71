"""Edge-shift core: parsing, language, period, entropy, power shifts."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from collections import Counter

import pytest

from stabdyn import sft as sft_mod
from stabdyn.cli import main
from stabdyn.errors import (BudgetExceededError, EmptyShiftError, ParseError,
                            ReducibleShiftError, VerificationError)
from stabdyn.sft import (EdgeShift, bfs_levels, charpoly_coefficients, derived_shift,
                         edge_shift_from_document, entropy, full_shift, is_irreducible,
                         is_mixing, make_edge_shift, mat_mul, parse_edge_shift, period,
                         period_by_cycles, perron_root_by_charpoly, power_shift,
                         strongly_connected_components, words_of_length)

from stabdyn.spectral import class_restriction, cyclic_partition, divisors, smale

from conftest import (catalog, cycle_graph, doubled_cycle_period3, doubled_loop_period2,
                      golden_mean, period3_six_states, word_count)
from test_bench_digests import BENCH, WORKLOADS


def _pass_run():
    """``bench/pass_run.py`` as a module; the bench directory it puts on
    ``sys.path`` to import its neighbours is taken off again."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_pass_run", BENCH / "pass_run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


PASS_RUN = _pass_run()
GOLDEN = (1 + math.sqrt(5)) / 2


# -- parsing ---------------------------------------------------------------

def test_parse_full_two_shift():
    sft = parse_edge_shift("2")
    assert sft.n_states == 1
    assert len(sft.alphabet) == 2
    assert sft.adjacency == ((2,),)


def test_parse_golden_mean_and_word_count_oracle():
    sft = parse_edge_shift("1 1 / 1 0")
    assert sft.n_states == 2
    # the vertex labeling's 2-words are the edges: p_X(2) = 3
    assert len(sft.language(1)) == 3


def test_parse_degenerate_graph_is_empty():
    with pytest.raises(EmptyShiftError):
        parse_edge_shift("0 1 / 0 0")


def test_parse_rejects_bad_matrices():
    entries = "adjacency entries must be nonnegative integers, got "
    with pytest.raises(ParseError):
        parse_edge_shift("1 2 / 3")
    with pytest.raises(ParseError, match=f"^{entries}-1$"):  # the first in row-major order
        parse_edge_shift("1 -1 / -2 1")
    with pytest.raises(ParseError):
        parse_edge_shift("x y / 1 1")
    with pytest.raises(ParseError, match=f"^{entries}True$"):  # JSON true is no edge count
        parse_edge_shift('{"states": ["a", "b"], "adjacency": [[1, true], [-1, 1]]}')
    with pytest.raises(ParseError, match=f"^{entries}2.5$"):
        edge_shift_from_document({"states": ["a", "b"], "adjacency": [[1, 0], [2.5, -1]]})
    with pytest.raises(ParseError):  # two states named "a"
        parse_edge_shift('{"states": ["a", "a"], "adjacency": [[0, 1], [1, 0]]}')
    for doc in ('{"states": ["a"], "adjacency": 5}', '{"states": ["a"], "adjacency": [5]}',
                '{"states": 3, "adjacency": [[1]]}'):
        with pytest.raises(ParseError):
            parse_edge_shift(doc)


def test_parse_structured_document():
    sft = parse_edge_shift('{"states": ["a", "b"], "adjacency": [[1, 1], [1, 0]]}')
    assert sft.states == ("a", "b")


def test_edge_tables_follow_the_edge_order(graph_catalog):
    # edges run in (tail, head, parallel-index) order; each state's out-edges
    # keep that order
    sft = make_edge_shift(["0", "1", "2"], [[0, 2, 1], [1, 0, 3], [2, 1, 1]])
    assert sft.alphabet == tuple("0123456789a")
    assert sft.out_edges == (("0", "1", "2"), ("3", "4", "5", "6"), ("7", "8", "9", "a"))
    shifts = [sft] + [s for _, s, _ in graph_catalog] + \
        [power_shift(s, 3) for _, s, _ in graph_catalog]
    for sft in shifts:
        # the reference (symbol, tail, head) list, one entry per parallel edge
        pairs = [(i, j) for i, row in enumerate(sft.adjacency)
                 for j, a in enumerate(row) for _ in range(a)]
        assert len(pairs) == len(sft.alphabet)
        edges = [(sym, i, j) for sym, (i, j) in zip(sft.alphabet, pairs)]
        assert tuple(sym for sym, _, _ in edges) == sft.alphabet
        assert [(tail, head) for _, tail, head in edges] == sorted(pairs)
        for i in range(sft.n_states):
            assert sft.out_edges[i] == tuple(sym for sym, tail, _ in edges if tail == i)
        assert all(sft.tail(sym) == tail and sft.head(sym) == head
                   for sym, tail, head in edges)


def _path_budget_fails(run_budget):
    run_budget(path_count=4)
    with pytest.raises(BudgetExceededError):
        power_shift(full_shift(2), 3)  # 8 paths > 4


@pytest.mark.parametrize("run", [
    lambda _: main(["analyze", "1000000"]),
    lambda _: main(["entropy-ratio", "0 1000 / 1000 0", "2"]),
    _path_budget_fails,
], ids=["analyze", "entropy-ratio", "path-budget"])
def test_adjacency_work_names_no_edge(monkeypatch, capsys, run_budget, run):
    # entropy, period, Smale pieces and budget checks read the adjacency
    # only, so they build no edge table, however many edges the matrix has
    real, counts = sft_mod._edge_symbols, []
    monkeypatch.setattr(sft_mod, "_edge_symbols", lambda n: counts.append(n) or real(n))
    run(run_budget)
    assert counts == []


def test_edge_shift_requires_essential_states():
    EdgeShift(["0", "1"], [[1, 1], [0, 1]])  # a transient edge is fine
    for adjacency in ([[1, 1], [0, 0]], [[0, 1], [0, 1]]):  # no out-, no in-edge
        with pytest.raises(ParseError, match="not essential"):
            EdgeShift(["0", "1"], adjacency)


def test_normalization_log_records_removals():
    sft = make_edge_shift(["0", "1", "2"], [[1, 1, 0], [1, 0, 0], [0, 1, 0]])
    # state 2 has no incoming edge: removed
    assert sft.n_states == 2
    assert any("2" in entry for entry in sft.normalization_log)


# -- irreducibility, period, mixing -----------------------------------------

def test_irreducibility_examples(graph_catalog):
    assert is_irreducible(full_shift(2))
    assert is_irreducible(cycle_graph(2))
    two_loops = EdgeShift(["0", "1"], [[1, 0], [0, 1]])
    assert not is_irreducible(two_loops)
    for _, sft, _ in graph_catalog:
        assert is_irreducible(sft)


def test_period_examples():
    assert period(full_shift(2)) == 1
    assert period(cycle_graph(2)) == 2
    assert period(doubled_cycle_period3()) == 3


def test_period_matches_cycle_enumeration_oracle(graph_catalog):
    for name, sft, expected in graph_catalog:
        assert period(sft) == expected, name
        assert period_by_cycles(sft) == expected, name


def test_period_rejects_reducible():
    two_loops = EdgeShift(["0", "1"], [[1, 0], [0, 1]])
    with pytest.raises(ReducibleShiftError):
        period(two_loops)


def test_is_mixing_examples():
    assert is_mixing(full_shift(2))
    assert not is_mixing(cycle_graph(2))
    assert is_mixing(golden_mean())  # cycles of lengths 1 and 2


# -- language ----------------------------------------------------------------

def test_words_full_two_shift():
    assert full_shift(2).language(2) == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))


def test_words_golden_mean_vertex_labeling():
    # p_X(3) = 5 = F(5) in the vertex labeling (Fibonacci complexity); a
    # vertex n-word is an edge (n-1)-word
    assert len(golden_mean().language(2)) == 5
    for n in range(2, 8):
        fib = [1, 1]
        while len(fib) < n + 3:
            fib.append(fib[-1] + fib[-2])
        assert len(golden_mean().language(n - 1)) == fib[n + 1]


def test_words_three_cycle():
    assert len(words_of_length(cycle_graph(3), 4)) == 3


def test_word_count_matches_matrix_power(graph_catalog):
    for name, sft, _ in graph_catalog:
        for length in range(1, 11):
            expected = word_count(sft, length)
            if expected > 5000:
                continue
            assert len(words_of_length(sft, length)) == expected, (name, length)


def test_language_is_composable(graph_catalog):
    for name, sft, _ in graph_catalog:
        for length in range(1, 5):
            shorter = set(sft.language(length))
            for w in sft.language(length + 1):
                assert w[:-1] in shorter and w[1:] in shorter, name


def _sorted_paths(sft, length: int) -> tuple:
    """Oracle: every path of ``length`` edges, by frontier expansion from
    every state, sorted (the empty word once)."""
    frontier = [((), state) for state in range(sft.n_states)]
    for _ in range(length):
        frontier = [(word + (sym,), sft.head(sym))
                    for word, at in frontier for sym in sft.out_edges[at]]
    return tuple(sorted({word for word, _ in frontier}))


def _assert_language_layer(sft, name: str) -> None:
    """``language``, ``word_ids`` and ``subwindow_ids`` of a fresh shift
    against sorted paths and ``index[w[k:k+sub]]`` columns, for every
    1 <= sub <= width <= 6 while a level has at most about 5,000 words.
    The widest tables are asked for first, so every lower level and table is
    built on the way."""
    top = max(w for w in range(1, 7) if word_count(sft, w - 1) <= 5000)
    words = {w: _sorted_paths(sft, w) for w in range(1, top + 1)}
    index = {w: {u: i for i, u in enumerate(words[w])} for w in words}
    for width in range(top, 0, -1):
        for sub in range(1, width + 1):
            assert sft.subwindow_ids(width, sub) == tuple(
                tuple(index[sub][u[k:k + sub]] for u in words[width])
                for k in range(width - sub + 1)), (name, width, sub)
    for width in words:
        assert sft.language(width) == words[width], (name, width)
        assert words_of_length(sft, width) == words[width], (name, width)
        assert list(sft.word_ids(width).items()) == list(index[width].items()), (name, width)


def test_language_layer_matches_sorted_paths_and_sliced_windows():
    shifts = [(name, sft) for name, sft, _ in catalog()]
    # 53 edges: one-character symbols, upper case sorting before lower case
    wide = make_edge_shift(["a", "b"], [[20, 25], [5, 3]])
    assert wide.alphabet[-1] == "Q" and sorted(wide.alphabet) != list(wide.alphabet)
    # 65 edges: e0 ... e64, where "e10" < "e2"
    named = make_edge_shift(["a", "b"], [[30, 20], [12, 3]])
    assert named.alphabet[64] == "e64" and sorted(named.alphabet) != list(named.alphabet)
    shifts += [("53 edges", wide), ("65 edges", named)]
    # power shifts, class restrictions and components with parallel edges
    for name, base, m in [("golden_mean", golden_mean(), 1),
                          ("doubled_cycle_p3", doubled_cycle_period3(), 3),
                          ("chord6_p3", period3_six_states(), 3)]:
        shifts.append((f"{name}^3", power_shift(base, 3)))
        if m > 1:
            part = cyclic_partition(base, m)
            shifts.append((f"{name} class 0", class_restriction(base, part, 3)))
    loops = power_shift(doubled_loop_period2(), 2)
    assert loops.adjacency == ((2, 0), (0, 2))  # two components of two parallel loops
    shifts += [(f"loops component {c}", derived_shift(loops, [c], 1)) for c in (0, 1)]
    for name, sft in shifts:
        _assert_language_layer(sft, name)


def test_word_count_cap_is_checked_on_the_requested_level_first(run_budget):
    shift = full_shift(2)
    run_budget(word_count=100)
    with pytest.raises(BudgetExceededError) as info:
        words_of_length(shift, 7)
    error = info.value
    assert (error.cap, error.limit, error.used) == ("word_count", 100, 128)
    assert list(shift.tables.languages) == [0]  # no level built before the check


# -- entropy ------------------------------------------------------------------

def test_entropy_full_shifts_exact():
    for k in range(1, 17):
        result = entropy(full_shift(k))
        assert abs(result.log_value - math.log(k)) < 1e-12
        assert abs(result.perron_value - k) < 1e-12


def test_entropy_golden_mean_against_charpoly_oracle():
    sft = golden_mean()
    result = entropy(sft)
    assert abs(result.perron_value - GOLDEN) < 1e-12
    assert abs(result.log_value - math.log(GOLDEN)) < 1e-9
    oracle = perron_root_by_charpoly([list(r) for r in sft.adjacency])
    assert abs(result.perron_value - oracle) < 1e-9


def test_entropy_three_cycle_is_zero():
    assert entropy(cycle_graph(3)).log_value == 0.0


def test_entropy_charpoly_crosscheck(graph_catalog):
    for name, sft, _ in graph_catalog:
        if sft.n_states > 6:
            continue
        lam = entropy(sft).perron_value
        oracle = perron_root_by_charpoly([list(r) for r in sft.adjacency])
        assert abs(lam - oracle) < 1e-8, name


def cycle_with_chords(n: int, chords: int, seed: int):
    """An n-cycle plus ``chords`` extra arcs drawn from ``seed``."""
    rng = random.Random(seed)
    adj = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    while chords:
        i, j = rng.randrange(n), rng.randrange(n)
        if not adj[i][j]:
            adj[i][j] = 1
            chords -= 1
    return make_edge_shift([str(i) for i in range(n)], adj)


def test_charpoly_is_integer_and_satisfies_cayley_hamilton(graph_catalog):
    shifts = [sft for _, sft, _ in graph_catalog]
    shifts += [cycle_with_chords(24, 2, seed=1), cycle_with_chords(28, 2, seed=2)]
    for sft in shifts:
        a = [list(r) for r in sft.adjacency]
        n = len(a)
        coeffs = charpoly_coefficients(a)
        assert len(coeffs) == n + 1 and coeffs[n] == 1
        assert all(type(c) is int for c in coeffs)
        assert coeffs[n - 1] == -sum(a[i][i] for i in range(n))
        p_of_a = [[0] * n for _ in range(n)]  # Horner: P <- P A + c_k I
        for c in reversed(coeffs):
            p_of_a = mat_mul(p_of_a, a)
            for i in range(n):
                p_of_a[i][i] += c
        assert p_of_a == [[0] * n for _ in range(n)], sft
    for k in range(1, 6):
        assert charpoly_coefficients([[k]]) == [-k, 1]
    assert charpoly_coefficients([[1, 1], [1, 0]]) == [-1, -1, 1]
    for n in range(2, 8):
        a = [list(r) for r in cycle_graph(n).adjacency]
        assert charpoly_coefficients(a) == [-1] + [0] * (n - 1) + [1]


def test_charpoly_rejects_a_non_integer_matrix():
    with pytest.raises(VerificationError):
        charpoly_coefficients([[0.5]])


def _dense_charpoly(matrix):
    """Reference: integer Faddeev-LeVerrier with a dense product per step,
    M_k = A M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(A M_k) / k."""
    n = len(matrix)
    coeffs = [1]
    am = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += coeffs[-1]
        am = mat_mul(matrix, am)
        c, rest = divmod(-sum(am[i][i] for i in range(n)), k)
        assert rest == 0
        coeffs.append(c)
    return coeffs[::-1]


def test_charpoly_is_the_dense_faddeev_leverrier(graph_catalog):
    matrices = [[list(r) for r in sft.adjacency] for _, sft, _ in graph_catalog]
    matrices += [[list(r) for r in cycle_with_chords(n, 2, seed=s).adjacency]
                 for n, s in ((24, 1), (28, 2))]
    rng = random.Random(9)
    for n in (1, 1, 2, 3, 4, 5, 6, 7, 8):
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        matrices.append(a)
        if n > 1:
            zeroed = [list(r) for r in a]
            zeroed[rng.randrange(n)] = [0] * n
            matrices.append(zeroed)
    matrices += [[[0]], [[-3]], [[0, 0], [0, 0]], [[0, 1], [0, 0]]]
    assert any(x < 0 for a in matrices for r in a for x in r)
    for a in matrices:
        assert charpoly_coefficients(a) == _dense_charpoly(a), a


def _dense_perron(matrix, tol, cap):
    """Reference: the dense power iteration on A + I over every column.  Each
    row sum is an explicit left fold ((0.0 + t0) + t1) + ..., which is what
    sum() computes on Python 3.11 but not from 3.12 on (compensated)."""
    n = len(matrix)
    shifted = [[float(matrix[i][j]) + (1.0 if i == j else 0.0) for j in range(n)]
               for i in range(n)]
    v = [1.0] * n
    for it in range(1, cap + 1):
        w = []
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc = acc + shifted[i][j] * v[j]
            w.append(acc)
        ratios = [w[i] / v[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * lo:
            return (lo + hi) / 2.0 - 1.0, it
        norm = max(w)
        v = [x / norm for x in w]
    raise AssertionError("reference iteration did not converge")


def dense_graph(n: int, seed: int):
    """An n-cycle (kept irreducible) overlaid with random entries 0-3,
    self-loops included."""
    rng = random.Random(seed)
    adj = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        adj[i][(i + 1) % n] = max(1, adj[i][(i + 1) % n])
    return make_edge_shift([str(i) for i in range(n)], adj)


def test_entropy_is_the_dense_iteration_bit_for_bit(graph_catalog):
    shifts = [sft for _, sft, _ in graph_catalog]
    shifts += [smale(sft).component_shift for sft in shifts]
    shifts += [cycle_with_chords(n, chords, seed=n)
               for n, chords in ((29, 1), (30, 2), (31, 3), (12, 18), (16, 30))]
    shifts += [dense_graph(n, seed=n) for n in range(2, 9)]
    shifts.append(make_edge_shift(["0"], [[7]]))
    entries = {a for sft in shifts for row in sft.adjacency for a in row}
    assert {2, 3} <= entries
    assert any(sum(map(bool, row)) >= 3 for sft in shifts for row in sft.adjacency)
    assert any(sft.adjacency[i][i] for sft in shifts for i in range(sft.n_states)
               if sft.n_states > 1)
    for sft in shifts:
        best, its = 0.0, 0
        for comp in strongly_connected_components(sft):
            sub = [[sft.adjacency[i][j] for j in comp] for i in comp]
            if len(comp) > 1 or sub[0][0]:
                lam, it = _dense_perron(sub, 1e-12, 200_000)
                best, its = max(best, lam), its + it
        result = entropy(sft)
        assert (result.perron_value, result.iterations) == (best, its), sft


def _terms(matrix):
    """The rows of A + I as (column, coefficient) terms over the nonzero
    entries and the diagonal, in column order."""
    return [[(j, a + (i == j)) for j, a in enumerate(row) if a or i == j]
            for i, row in enumerate(matrix)]


def hub_graph(n: int, loops: int = 0, parallel: int = 1) -> list:
    """An n-cycle whose last state also has an arc to every state, plus
    ``loops`` more self-loops there and ``parallel`` arcs to state n // 2: its
    row of A + I is n wide, every other row 2."""
    adj = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    adj[-1] = [1] * n
    adj[-1][-1] += loops
    adj[-1][n // 2] = parallel
    return adj


def test_entropy_is_the_dense_iteration_past_the_narrowest_row():
    matrices = [hub_graph(12), hub_graph(40, loops=2, parallel=3), hub_graph(7, parallel=2)]
    matrices += [[[int((j - i) % n in (1, 2)) for j in range(n)] for i in range(n)]
                 for n in (5, 30)]
    matrices += [[[2] * 6 for _ in range(6)]]
    matrices += [list(map(list, g)) for g in WORKLOADS.spectral_graphs()[1]]  # charpoly route
    widths, tails = [], []
    for terms in map(_terms, matrices):
        widths.append(sorted(map(len, terms)))
        depth = widths[-1][0]
        tails.append([(i, j, c) for i, row in enumerate(terms) for j, c in row[depth:]])
    assert any(w[0] == 2 and w[-1] == len(w) for w in widths)  # a hub row
    assert any(c >= 2 and i != j for tail in tails for i, j, c in tail)  # parallel arcs
    assert any(i == j for tail in tails for i, j, _ in tail)  # a self-loop past depth
    assert any(not tail for tail in tails)  # equally wide rows
    for adj in matrices:
        result = entropy(make_edge_shift([str(i) for i in range(len(adj))], adj))
        assert (result.perron_value, result.iterations) == _dense_perron(adj, 1e-12, 200_000)


@pytest.mark.parametrize("seed", [0, 1])
def test_bench_dual_route_graphs_agree(seed):
    # the spectral part's relabelled graphs, its only inputs with states
    # permuted, through the two checks the bench runs on them
    duals = [inst for inst in WORKLOADS.instances("spectral", seed) if inst.matrix]
    assert sorted(inst.id for inst in duals if inst.charpoly) == [
        "spectral:dual:c0", "spectral:dual:c1"]
    assert len(duals) == 6
    for inst in duals:
        assert PASS_RUN.dual_routes(inst) == "", inst.id


def test_perron_step_adds_only_the_dense_columns(monkeypatch):
    # widest row n, narrowest 2: a step adds one dense column to the first
    # (n adds) and finishes the hub row in place; columns padded to the
    # widest row would make n (n - 1)
    n, adds = 40, []

    def counting(x, y):
        adds.append(None)
        return x + y

    monkeypatch.setattr(sft_mod, "add", counting)
    result = entropy(make_edge_shift([str(i) for i in range(n)], hub_graph(n)))
    assert len(adds) == n * (2 - 1) * result.iterations > 0


@pytest.mark.parametrize("seed", [1, 2])  # period 2, then period 1
def test_one_analyze_builds_each_successor_table_once(monkeypatch, capsys, seed):
    real, built = sft_mod._successors, Counter()

    def counting(rows):
        rows = tuple(map(tuple, rows))
        built[rows] += 1
        return real(rows)

    sft = cycle_with_chords(64, 2, seed=seed)
    text = " / ".join(" ".join(map(str, row)) for row in sft.adjacency)
    monkeypatch.setattr(sft_mod, "_successors", counting)
    assert main(["analyze", text]) == 0
    doc = json.loads(capsys.readouterr().out)
    # successors and predecessors of the input, and of the Smale component
    # unless it is the input itself (period 1)
    assert set(built.values()) == {1}
    assert len(built) == (2 if doc["period"] == 1 else 4), doc["period"]


def test_graph_facts_survive_caller_mutation():
    sft = cycle_with_chords(64, 2, seed=1)
    comps, levels = strongly_connected_components(sft), bfs_levels(sft)
    expected_levels = list(levels)
    comps[0].clear()
    comps.append([99])
    levels.reverse()
    levels[0] = 5
    assert strongly_connected_components(sft) == [list(range(64))]
    assert bfs_levels(sft) == expected_levels and expected_levels[0] == 0
    assert is_irreducible(sft) and period(sft) == period_by_cycles(sft) == 2


def test_entropy_bits_do_not_depend_on_the_interpreter():
    # Dense graphs whose Perron value changes in its last bits if the row
    # sums are compensated (Python >= 3.12 sum() of floats); the literals are
    # the plain left-to-right adds, which entropy() makes on every interpreter.
    expected = {(26, 32, 1): (2.3752066321347924, 77),
                (24, 25, 7): (2.300701355411873, 71),
                (9, 16, 15): (2.936394550881121, 43)}
    for (n, chords, seed), pinned in expected.items():
        result = entropy(cycle_with_chords(n, chords, seed=seed))
        assert (result.perron_value, result.iterations) == pinned, (n, chords, seed)


# -- power shifts --------------------------------------------------------------

def test_power_shift_full_two_cubed():
    p = power_shift(full_shift(2), 3)
    assert p.n_states == 1
    assert len(p.alphabet) == 8
    assert sorted(p.parent_paths.values()) == sorted(
        [(a, b, c) for a in "01" for b in "01" for c in "01"])


def test_power_shift_two_cycle_squared():
    p = power_shift(cycle_graph(2), 2)
    assert p.adjacency == ((1, 0), (0, 1))
    assert not is_irreducible(p)
    assert len(strongly_connected_components(p)) == 2
    # the two equal one-loop pieces of one presentation share their edge tables
    first, second = (derived_shift(p, comp, 1) for comp in strongly_connected_components(p))
    assert first.alphabet is second.alphabet


def test_equal_pieces_of_one_input_share_one_tables_object():
    sft = doubled_cycle_period3()
    power = power_shift(sft, 3)
    pieces = [derived_shift(power, comp, 1) for comp in strongly_connected_components(power)]
    component = smale(sft).component_shift
    # three full 2-shift pieces and the Smale component: one adjacency, one object
    assert {piece.adjacency for piece in pieces} == {component.adjacency} == {((2,),)}
    assert all(piece.tables is component.tables for piece in pieces)
    assert power.tables is not component.tables and sft.tables is not power.tables
    assert power_shift(sft, 1).tables is sft.tables


def test_separately_parsed_inputs_share_no_tables_object():
    first, second = doubled_cycle_period3(), doubled_cycle_period3()
    assert first == second and first.tables is not second.tables
    assert first.alphabet == second.alphabet and first.alphabet is not second.alphabet
    assert smale(first).component_shift.tables is not smale(second).component_shift.tables


def test_essential_state_scan_runs_once_per_tables_object(monkeypatch, capsys):
    real, scanned, shifts = sft_mod._Tables.__init__, [], []
    monkeypatch.setattr(sft_mod._Tables, "__init__",
                        lambda self, states, adj: scanned.append(adj) or real(self, states, adj))
    init = EdgeShift.__init__
    monkeypatch.setattr(EdgeShift, "__init__",
                        lambda self, *a, **k: shifts.append(self) or init(self, *a, **k))
    assert main(["verify-wreath", "0 2 0 / 0 0 1 / 1 0 0",
                 "--n", "1", "--m", "3", "--radius", "1"]) == 0
    capsys.readouterr()
    # one input: the doubled 3-cycle, its power (three full 2-shift pieces) and
    # the pieces and component, which share the full 2-shift's tables
    assert len(scanned) == len(set(scanned)) == len({s.adjacency for s in shifts}) == 3
    assert len({id(shift.tables) for shift in shifts}) == 3 < len(shifts)


def test_power_shift_golden_mean_squared():
    p = power_shift(golden_mean(), 2)
    assert p.adjacency == ((2, 1), (1, 1))


def test_power_shift_paths_are_admissible_parent_words():
    sft = doubled_cycle_period3()
    p = power_shift(sft, 3)
    for sym, path in p.parent_paths.items():
        assert len(path) == 3
        assert sft.is_admissible(path)
        assert sft.tail(path[0]) == p.tail(sym)
        assert sft.head(path[-1]) == p.head(sym)


def _check_provenance(sft, derived, chosen, step):
    """The derived presentation on parent states ``chosen`` at ``step``:
    adjacency counts the parent's length-step paths (the restricted A^step),
    its paths are exactly those paths, and words round-trip."""
    assert derived.provenance.parent is sft
    assert derived.provenance.states == tuple(chosen)
    assert derived.provenance.step == step
    counts = Counter((sft.tail(w[0]), sft.head(w[-1])) for w in sft.language(step))
    assert derived.adjacency == tuple(tuple(counts[(i, j)] for j in chosen)
                                      for i in chosen)
    for sym, path in derived.parent_paths.items():
        assert len(path) == step and sft.is_admissible(path)
        assert chosen[derived.tail(sym)] == sft.tail(path[0])
        assert chosen[derived.head(sym)] == sft.head(path[-1])
    assert len(set(derived.parent_paths.values())) == len(derived.alphabet)
    by_pair: dict = {}
    for sym in derived.alphabet:  # parallel edges take their paths in word order
        by_pair.setdefault((derived.tail(sym), derived.head(sym)), []).append(
            derived.parent_paths[sym])
    assert all(paths == sorted(paths) for paths in by_pair.values())
    for w in derived.language(2):
        assert derived.from_parent(derived.to_parent(w)) == w
    with pytest.raises(AttributeError):
        derived.parent_paths = {}
    with pytest.raises(TypeError):
        derived.parent_paths[derived.alphabet[0]] = ()


def test_derived_presentations_provenance(graph_catalog):
    for name, sft, p in graph_catalog:
        for step in range(1, 5):
            _check_provenance(sft, power_shift(sft, step), range(sft.n_states), step)
            for m in divisors(p):
                part = cyclic_partition(sft, m)
                chosen = sorted(part.classes[0])
                _check_provenance(sft, class_restriction(sft, part, m * step),
                                  chosen, m * step)


def test_entropy_of_power_scales(graph_catalog):
    for name, sft, _ in graph_catalog:
        h = entropy(sft).log_value
        for n in range(1, 7):
            p = power_shift(sft, n)
            assert abs(entropy(p).log_value - n * h) < 1e-9, (name, n)


def test_period_of_power_components(graph_catalog):
    # period of each strongly connected component of the n-th power shift
    # equals period / gcd(n, period)
    for name, sft, p in graph_catalog:
        for n in range(1, 13):
            expected = p // math.gcd(n, p)
            ps = power_shift(sft, n)
            for comp in strongly_connected_components(ps):
                sub = [[ps.adjacency[i][j] for j in comp] for i in comp]
                restricted = make_edge_shift([str(i) for i in comp], sub)
                assert period(restricted) == expected, (name, n)


def test_entropy_iteration_cap_is_enforced(monkeypatch):
    from stabdyn.errors import IterationCapError
    monkeypatch.setattr(sft_mod, "ENTROPY_ITERATION_CAP", 2)
    with pytest.raises(IterationCapError):
        entropy(golden_mean())
