"""Eigenvalues, cyclic partitions, Smale decomposition, transitivity of
powers and of their restrictions to partition pieces."""

from __future__ import annotations

import math

import pytest

from stabdyn.errors import NoSuchEigenvalueError
from stabdyn.sft import entropy, full_shift, is_irreducible, is_mixing, power_shift
from stabdyn.spectral import (class_restriction, cyclic_partition, divisors,
                              exhaustive_partition_search, is_power_transitive,
                              rational_eigs, smale)

from conftest import cycle_graph, doubled_loop_period2, golden_mean


# -- rational eigenvalues -----------------------------------------------------

def test_rational_eigs_examples():
    assert rational_eigs(full_shift(2)) == {1}
    assert rational_eigs(cycle_graph(6)) == {1, 2, 3, 6}
    assert rational_eigs(cycle_graph(2)) == {1, 2}


def test_eigs_match_exhaustive_partition_search(graph_catalog):
    # Both directions: m in Eig  <=>  a size-m cyclic state partition exists.
    for name, sft, p in graph_catalog:
        eigs = rational_eigs(sft)
        assert eigs == set(divisors(p)), name
        for m in range(1, 7):
            found = exhaustive_partition_search(sft, m)
            assert (found is not None) == (m in eigs), (name, m)


def test_eigs_lattice_laws(graph_catalog):
    for name, sft, _ in graph_catalog:
        eigs = rational_eigs(sft)
        for p in eigs:
            for q in eigs:
                assert math.lcm(p, q) in eigs, name
            for r in divisors(p):
                assert r in eigs, name


# -- cyclic partitions ---------------------------------------------------------

def test_cyclic_partition_two_cycle():
    part = cyclic_partition(cycle_graph(2), 2)
    assert part.classes == (frozenset({0}), frozenset({1}))


def test_cyclic_partition_size_one_is_everything(graph_catalog):
    for name, sft, _ in graph_catalog:
        part = cyclic_partition(sft, 1)
        assert part.classes == (frozenset(range(sft.n_states)),)


def test_cyclic_partition_rejects_non_eigenvalue():
    with pytest.raises(NoSuchEigenvalueError):
        cyclic_partition(golden_mean(), 2)


def test_cyclic_partition_is_the_exhaustive_search_partition(graph_catalog):
    # with the base state in class 0 a cyclic partition is unique, so the
    # BFS-level classes are the ones the oracle finds, every edge advancing
    for name, sft, p in graph_catalog:
        for m in divisors(p):
            assert cyclic_partition(sft, m).classes == \
                exhaustive_partition_search(sft, m), (name, m)


def coarsen(part, q: int) -> tuple:
    """The classes of a size-m partition merged into q | m classes: class k
    is the union of classes k, k+q, k+2q, ..."""
    return tuple(frozenset().union(*part.classes[k::q]) for k in range(q))


def test_coarsen_partition_matches_direct():
    sft = cycle_graph(6)
    fine = cyclic_partition(sft, 6)
    assert coarsen(fine, 3) == cyclic_partition(sft, 3).classes
    assert coarsen(fine, 6) == fine.classes
    with pytest.raises(NoSuchEigenvalueError):
        cyclic_partition(sft, 4)


def test_coarsen_partition_all_divisor_pairs(graph_catalog):
    # the canonical size-q partition is the coarsening of each size-m one, q | m
    for name, sft, p in graph_catalog:
        for m in divisors(p):
            fine = cyclic_partition(sft, m)
            for q in divisors(m):
                assert coarsen(fine, q) == cyclic_partition(sft, q).classes, (name, m, q)


# -- Smale decomposition ---------------------------------------------------------

def test_smale_full_two_shift():
    dec = smale(full_shift(2))
    assert dec.period == 1
    assert dec.component_shift.adjacency == ((2,),)


def test_smale_two_cycle():
    dec = smale(cycle_graph(2))
    assert dec.period == 2
    assert dec.component_shift.n_states == 1
    assert dec.component_shift.adjacency == ((1,),)
    assert entropy(dec.component_shift).log_value == 0.0


def test_smale_doubled_loop():
    dec = smale(doubled_loop_period2())
    assert dec.period == 2
    assert dec.component_shift.adjacency == ((2,),)


def test_smale_component_is_mixing_and_entropy_scales(graph_catalog):
    for name, sft, p in graph_catalog:
        dec = smale(sft)
        assert dec.period == p, name
        assert is_mixing(dec.component_shift), name
        assert abs(entropy(dec.component_shift).log_value
                   - p * entropy(sft).log_value) < 1e-9, name


def test_smale_path_dictionary_consistent(graph_catalog):
    for name, sft, p in graph_catalog:
        dec = smale(sft)
        comp = dec.component_shift
        for sym, path in comp.parent_paths.items():
            assert len(path) == p
            assert sft.is_admissible(path)
            assert comp.states[comp.tail(sym)] == sft.states[sft.tail(path[0])]
            assert comp.states[comp.head(sym)] == sft.states[sft.head(path[-1])]


# -- transitivity of powers --------------------------------------------------------

def test_power_transitivity_examples():
    assert not is_power_transitive(cycle_graph(2), 2)
    assert is_power_transitive(cycle_graph(2), 3)
    for n in range(1, 7):
        assert is_power_transitive(full_shift(2), n)


def test_power_transitivity_matches_connectivity(graph_catalog):
    for name, sft, p in graph_catalog:
        for n in range(1, 13):
            formula = is_power_transitive(sft, n)
            assert formula == (math.gcd(n, p) == 1), (name, n)
            assert formula == is_irreducible(power_shift(sft, n)), (name, n)


# -- restricted transitivity -----------------------------------------------------------

def restricted_transitive(sft, m: int, n: int) -> bool:
    """Whether sigma^{n m} acts transitively on the class-0 piece X_m: strong
    connectivity of its class restriction."""
    return is_irreducible(class_restriction(sft, cyclic_partition(sft, m), n * m))


def test_restricted_transitivity_examples():
    assert restricted_transitive(cycle_graph(2), 2, 1)
    assert not restricted_transitive(cycle_graph(4), 2, 2)
    for name_p in [2, 3, 5]:
        sft = cycle_graph(name_p)
        for n in range(1, 5):
            assert restricted_transitive(sft, name_p, n)


def test_restricted_transitivity_graph_crosscheck(graph_catalog):
    # sigma^{n m} is transitive on X_m exactly when gcd(n, period / m) = 1
    for name, sft, p in graph_catalog:
        for m in divisors(p):
            for n in range(1, 7):
                assert restricted_transitive(sft, m, n) == (math.gcd(n, p // m) == 1), \
                    (name, m, n)


def test_restriction_induction_law(graph_catalog):
    # p in Eig(sigma^q on X_q)  <=>  p*q in Eig(sigma)
    for name, sft, per in graph_catalog:
        eigs = rational_eigs(sft)
        for q in divisors(per):
            part = cyclic_partition(sft, q)
            restriction = class_restriction(sft, part, q)
            induced = rational_eigs(restriction)
            assert induced == {p for p in range(1, per + 1) if p * q in eigs}, (name, q)


def test_m_sets_nested_under_restriction(graph_catalog):
    # transitive powers of the base system stay transitive on class restrictions
    for name, sft, per in graph_catalog:
        for q in divisors(per):
            part = cyclic_partition(sft, q)
            restriction = class_restriction(sft, part, q)
            for n in range(1, 13):
                if is_power_transitive(sft, n):
                    assert is_power_transitive(restriction, n), (name, q, n)
