"""Hypothesis property tests for the algebraic cores."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from stabdyn.codes import compose, find_inverse, shift_code
from stabdyn.groups import cyclic_group, symmetric_group
from stabdyn.sft import ENTROPY_TOL, entropy, full_shift, make_edge_shift, words_of_length
from stabdyn.wreath import (WreathContext, wr_comm, wr_comm_definitional,
                            wr_conj, wr_conj_definitional, wr_inv, wr_mul)

from conftest import word_count
from test_sft import _dense_perron

CONTEXTS = {
    "z6wr3": WreathContext(cyclic_group(6), 3),
    "s3wr4": WreathContext(symmetric_group(3), 4),
}


def elements(ctx_key: str):
    ctx = CONTEXTS[ctx_key]
    vec = st.tuples(*[st.integers(0, ctx.base.order - 1)] * ctx.n)
    perm = st.permutations(range(ctx.n)).map(tuple)
    return st.builds(ctx.element, vec, perm)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CONTEXTS)).flatmap(
    lambda key: st.tuples(elements(key), elements(key), elements(key))))
def test_wreath_associativity_and_formulas(triple):
    a, b, c = triple
    assert wr_mul(wr_mul(a, b), c) == wr_mul(a, wr_mul(b, c))
    assert wr_mul(a, wr_inv(a)) == a.context.identity()
    assert wr_conj(a, b) == wr_conj_definitional(a, b)
    assert wr_comm(b, c) == wr_comm_definitional(b, c)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7))
def test_word_counts_match_matrix_powers(k, length):
    sft = full_shift(k)
    assert len(words_of_length(sft, length)) == word_count(sft, length) == k ** length


@settings(max_examples=40, deadline=None)
@given(st.integers(-2, 2), st.integers(-2, 2))
def test_shift_codes_compose_additively(i, j):
    sft = make_edge_shift(["0", "1"], [[1, 1], [1, 0]])
    left = compose(shift_code(sft, i), shift_code(sft, j))
    assert left == shift_code(sft, i + j)
    inv = find_inverse(shift_code(sft, i), abs(i))
    assert inv == shift_code(sft, -i)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 5))
def test_language_extension_property(k, length):
    sft = full_shift(k)
    words = words_of_length(sft, length)
    shorter = set(words_of_length(sft, length - 1)) if length > 1 else {()}
    for w in words:
        assert w[:-1] in shorter and w[1:] in shorter


@st.composite
def irreducible_graphs(draw):
    """1-40 states on a cycle through every state (weights 1-3), plus up to
    2n chords or self-loops with weights 0-3."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    adj = [[0] * n for _ in range(n)]
    for k in range(n):
        adj[order[k]][order[(k + 1) % n]] = draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3))
    for i, j, a in draw(st.lists(cell, max_size=2 * n)):
        adj[i][j] = max(adj[i][j], a)
    return adj


@settings(max_examples=20, deadline=None)
@given(irreducible_graphs())
def test_entropy_is_the_dense_iteration_on_random_graphs(adj):
    # the two-index pretest of the Perron kernel skips full Collatz-Wielandt
    # scans; value and iteration count must still be the dense iteration's
    result = entropy(make_edge_shift([str(i) for i in range(len(adj))], adj))
    assert (result.perron_value, result.iterations) == _dense_perron(adj, ENTROPY_TOL, 200_000)
