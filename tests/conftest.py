"""Shared graph catalog: every irreducible test graph has <= 6 states and
period <= 6, per the sweep contracts."""

from __future__ import annotations

import pytest

from stabdyn import budgets
from stabdyn.groups import FiniteGroup, cyclic_group
from stabdyn.sft import full_shift, make_edge_shift, mat_pow


def word_count(sft, length: int) -> int:
    """Oracle for the language layer's counts: the sum of the entries of
    A^length, the number of admissible words of that length."""
    return sum(map(sum, mat_pow(sft.adjacency, length)))


def cycle_graph(n: int):
    adj = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    return make_edge_shift([str(i) for i in range(n)], adj)


def golden_mean():
    return make_edge_shift(["0", "1"], [[1, 1], [1, 0]])


def doubled_loop_period2():
    # two parallel edges 0 -> 1, one edge back: period 2, component = full 2-shift
    return make_edge_shift(["0", "1"], [[0, 2], [1, 0]])


def doubled_cycle_period2():
    # 2-cycle with both arcs doubled; symmetric under the state swap
    return make_edge_shift(["0", "1"], [[0, 2], [2, 0]])


def doubled_cycle_period3():
    # 3-cycle with one doubled arc: period 3, component = full 2-shift
    return make_edge_shift(["0", "1", "2"], [[0, 2, 0], [0, 0, 1], [1, 0, 0]])


def period2_six_states():
    # 6-cycle plus the reverse arc 1 -> 0: cycle lengths 6 and 2, period 2
    adj = [[0] * 6 for _ in range(6)]
    for i in range(6):
        adj[i][(i + 1) % 6] = 1
    adj[1][0] = 1
    return make_edge_shift([str(i) for i in range(6)], adj)


def period3_six_states():
    # 6-cycle plus the chord 2 -> 0: cycle lengths 6 and 3, period 3
    adj = [[0] * 6 for _ in range(6)]
    for i in range(6):
        adj[i][(i + 1) % 6] = 1
    adj[2][0] = 1
    return make_edge_shift([str(i) for i in range(6)], adj)


def aperiodic_three():
    # 3 states, cycles of lengths 2 and 3 => mixing
    adj = [[0, 1, 0], [1, 0, 1], [1, 0, 0]]
    return make_edge_shift(["0", "1", "2"], adj)


def doubled_cycle(n: int):
    # n-cycle with one doubled arc: period n, mixing full-2 component
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        adj[i][(i + 1) % n] = 1
    adj[0][1] = 2
    return make_edge_shift([str(i) for i in range(n)], adj)


def split_matrix():
    """(shift, n, m, radius) instances for the split-sequence verification:
    periods 1-3, n <= 3 coprime to the period, radius <= 1."""
    return [
        (full_shift(2), 1, 1, 1),
        (golden_mean(), 2, 1, 1),
        (golden_mean(), 3, 1, 1),
        (cycle_graph(2), 1, 2, 1),
        (cycle_graph(2), 3, 2, 1),
        (doubled_loop_period2(), 1, 2, 1),
        (cycle_graph(3), 1, 3, 1),
        (cycle_graph(3), 2, 3, 1),
        (doubled_cycle_period3(), 1, 3, 1),
    ]


def catalog():
    """(name, shift, expected period) for every irreducible test graph."""
    return [
        ("full2", full_shift(2), 1),
        ("full3", full_shift(3), 1),
        ("golden_mean", golden_mean(), 1),
        ("aperiodic3", aperiodic_three(), 1),
        ("cycle2", cycle_graph(2), 2),
        ("cycle3", cycle_graph(3), 3),
        ("cycle4", cycle_graph(4), 4),
        ("cycle5", cycle_graph(5), 5),
        ("cycle6", cycle_graph(6), 6),
        ("doubled_loop_p2", doubled_loop_period2(), 2),
        ("doubled_cycle_p2", doubled_cycle_period2(), 2),
        ("doubled_cycle_p3", doubled_cycle_period3(), 3),
        ("doubled_cycle_p4", doubled_cycle(4), 4),
        ("doubled_cycle_p6", doubled_cycle(6), 6),
        ("bipartite6_p2", period2_six_states(), 2),
        ("chord6_p3", period3_six_states(), 3),
    ]


# catalog graphs whose radius-1 automorphism stage takes seconds to enumerate
# (full3 more than a minute); quick tests take their radius-0 stage instead
SLOW_STAGES = ("full3", "doubled_cycle_p2")


@pytest.fixture(scope="session")
def graph_catalog():
    return catalog()


@pytest.fixture
def run_budget(monkeypatch):
    """Sets the run's budget for one test: ``run_budget(word_count=4)`` makes
    the default caps, with that one changed, the budget that every search
    reads, and unsets STABDYN_BUDGET.  A later call replaces the earlier."""
    monkeypatch.delenv(budgets.ENV_VAR, raising=False)
    return lambda **caps: monkeypatch.setattr(budgets, "DEFAULT", budgets.Budget(**caps))


def intercalate_loop() -> list:
    """Z/130 with the 2x2 subsquare on rows 1, 66 and columns 2, 67 swapped:
    a Latin square with an identity and two-sided inverses that is not
    associative on 2,032 of its 130^3 triples."""
    table = [[(i + j) % 130 for j in range(130)] for i in range(130)]
    table[1][2], table[1][67], table[66][2], table[66][67] = 68, 3, 3, 68
    return table


def z4_relabelled() -> FiniteGroup:
    """Z4 with the elements 1 and 2 swapped: the same element orders, another table."""
    swap = [0, 2, 1, 3]
    z4 = cyclic_group(4)
    return FiniteGroup([[swap[z4.mul(swap[a], swap[b])] for b in range(4)] for a in range(4)])
