"""Finite group tables, subgroup machinery, exact isomorphism search."""

from __future__ import annotations

import itertools

import pytest

from stabdyn import groups
from stabdyn.errors import BudgetExceededError, ParseError
from stabdyn.groups import (FiniteGroup, _invariants, all_perms, alternating_subset,
                            compose_perm, cyclic_group, dihedral_square,
                            direct_product, from_permutations, is_isomorphic,
                            klein_group, klein_subset_sym4, perm_name,
                            quaternion_group, symmetric_group,
                            transposition, trivial_group)
from stabdyn.wreath import wreath_group

from conftest import intercalate_loop, z4_relabelled


def test_cyclic_group_axioms_exhaustive():
    for n in [1, 2, 3, 4, 6, 8]:
        g = cyclic_group(n)
        assert g.order == n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert g.mul(a, g.inv(a)) == g.identity


def test_group_table_indices_are_checked():
    z2 = [[0, 1], [1, 0]]
    for kwargs in [{"table": [[0, 1], [1]]},  # not square
                   {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 7]]},  # entry outside range(3)
                   # rows and columns equal {0, 1} as sets, but an entry is no int
                   {"table": [[0, True], [True, 0]]},
                   {"table": [[0, 1.0], [1.0, 0]]},
                   {"table": z2, "names": ["e"]},
                   {"table": z2, "generators": [7]},
                   {"table": z2, "generators": [-1]}]:
        with pytest.raises(ParseError):
            FiniteGroup(**kwargs)


def test_associativity_is_exact_above_order_64():
    # a Latin loop whose 2,032 non-associative triples a sample of 2,000
    # random triples misses; Light's test over the generators finds one
    with pytest.raises(ParseError, match="not associative"):
        FiniteGroup(intercalate_loop())
    assert FiniteGroup(intercalate_loop(), check_axioms=False).order == 130
    assert cyclic_group(130).order == 130


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


def test_symmetric_group_budget_applies_to_cached_groups(run_budget):
    assert symmetric_group(4).order == 24  # a repeated call checks the budget too
    run_budget(group_order=10)
    with pytest.raises(BudgetExceededError):
        symmetric_group(4)


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


@pytest.mark.parametrize("make", [
    trivial_group, lambda: cyclic_group(6), klein_group, dihedral_square, quaternion_group,
    lambda: symmetric_group(3), lambda: symmetric_group(4),
    lambda: wreath_group(symmetric_group(3), 2), lambda: wreath_group(klein_group(), 3),
    lambda: wreath_group(quaternion_group(), 2),
], ids=["1", "Z6", "V4", "D4", "Q8", "S3", "S4", "S3wr2", "V4wr3", "Q8wr2"])
def test_center_is_the_set_of_rows_equal_to_their_columns(make):
    g = make()
    assert g.center() == {x for x, (row, col) in enumerate(zip(g.table, zip(*g.table)))
                          if row == col}


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
    assert alternating_subset(3) in normals


def test_normal_subgroups_sym4_include_klein():
    s4 = symmetric_group(4)
    normals = s4.normal_subgroups()
    assert sorted(len(n) for n in normals) == [1, 4, 12, 24]
    assert klein_subset_sym4() in normals


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


@pytest.mark.parametrize("make", [
    lambda: cyclic_group(6), klein_group, dihedral_square, quaternion_group,
    lambda: symmetric_group(4), lambda: wreath_group(symmetric_group(3), 2),
    lambda: wreath_group(cyclic_group(2), 3),
], ids=["Z6", "V4", "D4", "Q8", "S4", "S3wr2", "Z2wr3"])
def test_is_isomorphic_to_itself_matches_a_separate_copy(make, monkeypatch):
    # g against itself computes the invariants once; the search and its first
    # hit are those of g against a copy built from the same table
    g = make()
    copy = FiniteGroup(g.table, check_axioms=False)
    calls = []
    monkeypatch.setattr(groups, "_invariants", lambda x: calls.append(x) or _invariants(x))
    same, separate = is_isomorphic(g, g), is_isomorphic(g, copy)
    assert same is not None and list(same.items()) == list(separate.items())
    assert calls == [g, g, copy]


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


def _is_isomorphic_reference(g: FiniteGroup, h: FiniteGroup):
    """The earlier search: every element as a BFS-tree word in the
    generators, candidates filtered by ``h.closure(images) == h``, then the
    full n^2 table check; the first hit in product order."""
    if g.order != h.order:
        return None
    signature_g, elements_g = _invariants(g)
    signature_h, elements_h = _invariants(h)
    if signature_g != signature_h:
        return None
    gens = list(g.generators)
    parent = {g.identity: None}
    order_seen = [g.identity]
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = g.mul(x, gen)
                if y not in parent:
                    parent[y] = (x, gi)
                    order_seen.append(y)
                    nxt.append(y)
        frontier = nxt
    candidates = [[y for y in range(h.order) if elements_h[y] == elements_g[gen]]
                  for gen in gens]
    for images in itertools.product(*candidates):
        if len(h.closure(images)) != h.order:
            continue
        phi = {g.identity: h.identity}
        for x in order_seen[1:]:
            px, gi = parent[x]
            phi[x] = h.mul(phi[px], images[gi])
        if len(set(phi.values())) != g.order:
            continue
        if all(phi[g.mul(a, b)] == h.mul(phi[a], phi[b])
               for a in range(g.order) for b in range(g.order)):
            return phi
    return None


def test_is_isomorphic_matches_the_reference_search():
    groups = ([trivial_group()] + [cyclic_group(n) for n in range(1, 9)]
              + [klein_group(), dihedral_square(), quaternion_group(), symmetric_group(3),
                 wreath_group(cyclic_group(2), 2)])
    found = 0
    for g, h in itertools.product(groups, repeat=2):
        expected = _is_isomorphic_reference(g, h)
        phi = is_isomorphic(g, h)
        if expected is None:
            assert phi is None, (g, h)
        else:
            assert list(phi.items()) == list(expected.items()), (g, h)
            found += 1
    # the self-pairs, trivial ~ C1 both ways and D4 ~ C2 wr 2 both ways
    assert found == len(groups) + 2 + 2


def _is_isomorphic_product_order(g: FiniteGroup, h: FiniteGroup):
    """The unpruned search: every complete candidate tuple in
    ``itertools.product`` order, each extended over the whole of g."""
    if g.order != h.order:
        return None
    signature_g, elements_g = _invariants(g)
    signature_h, elements_h = _invariants(h)
    if signature_g != signature_h:
        return None
    gens = g.generators
    candidates = [[y for y in range(h.order) if elements_h[y] == elements_g[gen]]
                  for gen in gens]

    def extend(images):
        phi = [None] * g.order
        used = [False] * h.order
        phi[g.identity], used[h.identity] = h.identity, True
        queue = [g.identity]
        for x in queue:
            for gen, image in zip(gens, images):
                y, z = g.mul(x, gen), h.mul(phi[x], image)
                if phi[y] is None and not used[z]:
                    phi[y], used[z] = z, True
                    queue.append(y)
                elif phi[y] != z:
                    return None
        return {x: phi[x] for x in queue}

    for images in itertools.product(*candidates):
        phi = extend(images)
        if phi is not None:
            return phi
    return None


def _assert_same_search(g: FiniteGroup, h: FiniteGroup):
    expected, phi = _is_isomorphic_product_order(g, h), is_isomorphic(g, h)
    if expected is None:
        assert phi is None
    else:
        assert phi is not None and list(phi.items()) == list(expected.items())


@pytest.mark.parametrize("base, n", [(cyclic_group(2), 4), (klein_group(), 3),
                                     (dihedral_square(), 2), (quaternion_group(), 2)],
                         ids=["Z2wr4", "V4wr3", "D4wr2", "Q8wr2"])
def test_pruned_search_matches_product_order_on_wreath_self_pairs(base, n):
    g = wreath_group(base, n)
    _assert_same_search(g, g)


def test_pruned_search_matches_product_order_on_a_relabelled_base():
    _assert_same_search(wreath_group(cyclic_group(4), 2), wreath_group(z4_relabelled(), 2))


def test_pruned_search_matches_product_order_on_small_groups():
    groups = ([trivial_group()] + [cyclic_group(n) for n in range(1, 9)]
              + [klein_group(), dihedral_square(), quaternion_group(), symmetric_group(3),
                 wreath_group(cyclic_group(2), 2)])
    for g, h in itertools.product(groups, repeat=2):
        _assert_same_search(g, h)


def test_is_isomorphic_skips_a_non_injective_homomorphism():
    k = klein_group()
    n = k.order
    involutions = [x for x in range(n) if k.element_order(x) == 2]
    assert len(k.generators) == 2 and set(k.generators) <= set(involutions)
    # every generator image is an involution, so the least tuple in product
    # order sends both generators to the least involution t
    t = involutions[0]
    phi = {k.identity: k.identity}
    frontier = [k.identity]
    for x in frontier:
        for gen in k.generators:
            y = k.mul(x, gen)
            if y not in phi:
                phi[y] = k.mul(phi[x], t)
                frontier.append(y)
    assert all(phi[k.mul(a, b)] == k.mul(phi[a], phi[b]) for a in range(n) for b in range(n))
    assert len(set(phi.values())) < n
    iso = is_isomorphic(k, k)
    assert iso is not None and sorted(iso.values()) == list(range(n))
    assert all(iso[k.mul(a, b)] == k.mul(iso[a], iso[b]) for a in range(n) for b in range(n))


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
