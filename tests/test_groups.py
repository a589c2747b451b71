"""Finite group tables, subgroup machinery, exact isomorphism search."""

from __future__ import annotations

import pytest

from stabdyn.budgets import Budget
from stabdyn.errors import BudgetExceededError
from stabdyn.groups import (FiniteGroup, all_perms, alternating_subset,
                            compose_perm, cyclic_group, dihedral_square,
                            direct_product, from_permutations, is_isomorphic,
                            klein_group, klein_subset_sym4, perm_name,
                            quaternion_group, symmetric_group,
                            transposition, trivial_group)
from stabdyn.wreath import wreath_group


def test_cyclic_group_axioms_exhaustive():
    for n in [1, 2, 3, 4, 6, 8]:
        g = cyclic_group(n)
        assert g.order == n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert g.mul(a, g.inv(a)) == g.identity


def test_symmetric_group_orders():
    assert symmetric_group(1).order == 1
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


def _symmetric_group_direct(n: int) -> FiniteGroup:
    """Sym(n) tabulated directly over ``all_perms(n)``, with the Coxeter
    transpositions (or the identity) as generators."""
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose_perm(p, q)] for q in perms] for p in perms]
    gens = [index[transposition(n, i, i + 1)] for i in range(n - 1)] or [0]
    return FiniteGroup(table, names=[perm_name(p) for p in perms], generators=gens,
                       check_axioms=False)


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_matches_direct_construction(n):
    got, want = symmetric_group(n), _symmetric_group_direct(n)
    assert got.table == want.table
    assert got.names == want.names
    assert got.generators == want.generators


def test_symmetric_group_budget_applies_to_cached_groups():
    assert symmetric_group(4).order == 24  # a repeated call checks the budget too
    with pytest.raises(BudgetExceededError):
        symmetric_group(4, Budget(group_order=10))


def test_element_orders_sym3():
    s3 = symmetric_group(3)
    orders = sorted(s3.element_order(x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_center_and_derived():
    s3 = symmetric_group(3)
    assert s3.center() == {s3.identity}
    assert len(s3.derived_subgroup()) == 3  # A3
    q8 = quaternion_group()
    assert len(q8.center()) == 2
    assert len(q8.derived_subgroup()) == 2


def test_center_and_classes_are_the_definitional_ones():
    groups = [trivial_group(), cyclic_group(6), klein_group(), symmetric_group(3),
              symmetric_group(4), dihedral_square(), quaternion_group(),
              direct_product(cyclic_group(2), symmetric_group(3)),
              wreath_group(cyclic_group(2), 3), wreath_group(symmetric_group(3), 2)]
    for g in groups:
        elems = range(g.order)
        assert g.center() == {x for x in elems
                              if all(g.mul(x, y) == g.mul(y, x) for y in elems)}
        classes = {frozenset(g.conj(x, h) for h in elems) for x in elems}
        assert g.conjugacy_classes() == sorted(classes, key=lambda c: (len(c), sorted(c)))


def test_subgroups_of_sym4_census():
    s4 = symmetric_group(4)
    subs = s4.subgroups()
    assert len(subs) == 30
    sizes = sorted(len(s) for s in subs)
    assert sizes.count(8) == 3 and sizes.count(12) == 1


def test_normal_subgroups_sym3():
    s3 = symmetric_group(3)
    normals = s3.normal_subgroups()
    assert sorted(len(n) for n in normals) == [1, 3, 6]
    assert alternating_subset(s3, 3) in normals


def test_normal_subgroups_sym4_include_klein():
    s4 = symmetric_group(4)
    normals = s4.normal_subgroups()
    assert sorted(len(n) for n in normals) == [1, 4, 12, 24]
    assert klein_subset_sym4(s4) in normals


def test_quotient_table():
    s3 = symmetric_group(3)
    a3 = alternating_subset(s3, 3)
    q = s3.quotient_table(a3)
    assert q.order == 2


def test_centralizer_of_identity_is_whole_group():
    s4 = symmetric_group(4)
    assert s4.centralizer([s4.identity]) == frozenset(range(24))


def test_is_isomorphic_identity_map():
    g = symmetric_group(3)
    phi = is_isomorphic(g, g)
    assert phi is not None
    for a in range(g.order):
        for b in range(g.order):
            assert phi[g.mul(a, b)] == g.mul(phi[a], phi[b])


def test_is_isomorphic_rejects_z4_vs_klein():
    assert is_isomorphic(cyclic_group(4), klein_group()) is None


def test_is_isomorphic_accepts_relabelled_tables():
    d4 = dihedral_square()
    # relabel via an inner automorphism: permute the element indexing
    perm = [d4.conj(x, 3) for x in range(8)]
    # build the conjugated table (an isomorphic copy)
    pos = {x: i for i, x in enumerate(perm)}
    table = [[pos[d4.mul(perm[i], perm[j])] for j in range(8)] for i in range(8)]
    other = FiniteGroup(table)
    assert is_isomorphic(d4, other) is not None


def test_is_isomorphic_distinguishes_d4_q8():
    assert is_isomorphic(dihedral_square(), quaternion_group()) is None


def test_direct_product_order_and_commuting_factors():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert is_isomorphic(g, cyclic_group(6)) is not None


def test_from_permutations_generates():
    rot = (1, 2, 0)
    g = from_permutations([rot])
    assert g.order == 3
    assert is_isomorphic(g, cyclic_group(3)) is not None


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1 and t.identity == 0
