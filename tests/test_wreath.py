"""Wreath product arithmetic: closed formulas vs definitional expansion,
the imprimitive-action oracle, cycle products, base conjugacy, centralizers,
and the normal/subgroup lemma properties."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from stabdyn import wreath
from stabdyn.cli import rigidity_catalog
from stabdyn.errors import StabdynError, VerificationError
from stabdyn.groups import (alternating_subset, compose_perm, cyclic_group,
                            dihedral_square, identity_perm, invert_perm,
                            is_isomorphic, is_transitive_perm_set, klein_group,
                            klein_subset_sym4, perm_orbits, quaternion_group,
                            symmetric_group, transposition, trivial_group)
from stabdyn.wreath import (WreathContext, cycle_product,
                            imprimitive_permutation, normal_subgroups_sym,
                            order_spectrum,
                            wr_comm, wr_comm_definitional,
                            wr_conj, wr_conj_definitional, wr_inv, wr_mul,
                            wreath_group)


def ctx(base_order: int, n: int) -> WreathContext:
    return WreathContext(cyclic_group(base_order), n)


def anchors(sigma: tuple) -> list:
    """The lowest index of each sigma-orbit."""
    return [orbit[0] for orbit in perm_orbits(sigma)]


def base_conjugates(c: WreathContext, g: tuple, sigma: tuple) -> set:
    """Every h with (h, sigma) = (k,1)(g, sigma)(k,1)^{-1} for some base
    vector k, by brute force over k."""
    x, ident = c.element(g, sigma), identity_perm(c.n)
    return {wr_conj(x, c.element(k, ident)).g_vec
            for k in itertools.product(range(c.base.order), repeat=c.n)}


# -- formula vs definitional expansion ------------------------------------------

def test_formulas_exhaustive_z2_wr_sym2():
    c = ctx(2, 2)
    elems = c.elements()
    ident = c.identity()
    for a in elems:
        assert wr_mul(a, wr_inv(a)) == ident
        assert wr_mul(wr_inv(a), a) == ident
        for b in elems:
            assert wr_conj(a, b) == wr_conj_definitional(a, b)
            assert wr_comm(a, b) == wr_comm_definitional(a, b)


def test_formulas_random_z4_wr_sym3():
    c = ctx(4, 3)
    elems = c.elements()
    rng = random.Random(7)
    for _ in range(1000):
        a = rng.choice(elems)
        b = rng.choice(elems)
        assert wr_conj(a, b) == wr_conj_definitional(a, b)
        assert wr_comm(a, b) == wr_comm_definitional(a, b)


def test_associativity_random_samples():
    c = ctx(3, 3)
    elems = c.elements()
    rng = random.Random(11)
    for _ in range(2000):
        a, b, d = (rng.choice(elems) for _ in range(3))
        assert wr_mul(wr_mul(a, b), d) == wr_mul(a, wr_mul(b, d))


def test_associativity_exhaustive_small_ambients():
    # every ambient of order <= 200 in the sweep gets all triples checked
    for base_order, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]:
        c = ctx(base_order, n)
        assert c.order <= 200
        elems = c.elements()
        for a in elems:
            for b in elems:
                ab = wr_mul(a, b)
                for d in elems:
                    assert wr_mul(ab, d) == wr_mul(a, wr_mul(b, d))


def test_identity_and_self_commutator():
    c = ctx(3, 2)
    ident = c.identity()
    for a in c.elements():
        assert wr_mul(ident, a) == a
        assert wr_mul(a, ident) == a
        assert wr_comm(a, a) == ident


# -- the spec'd concrete values, checked against the permutation oracle ------------

def test_mul_example_z2_wr_sym2():
    c = ctx(2, 2)
    swap = (1, 0)
    x = c.element((1, 0), swap)
    y = c.element((0, 1), swap)
    assert wr_mul(x, y) == c.element((0, 0), identity_perm(2))


def test_inv_example_z2_wr_sym2():
    c = ctx(2, 2)
    swap = (1, 0)
    x = c.element((1, 0), swap)
    assert wr_inv(x) == c.element((0, 1), swap)


def test_mul_example_z3_wr_sym3():
    c = ctx(3, 3)
    three_cycle = (1, 2, 0)  # 0 -> 1 -> 2 -> 0
    x = c.element((1, 0, 0), three_cycle)
    y = c.element((0, 1, 0), identity_perm(3))
    out = wr_mul(x, y)
    assert out.sigma == three_cycle
    assert out.g_vec == (1, 1, 0)


def test_wr_mul_matches_imprimitive_oracle():
    for base_order, n in [(2, 2), (2, 3), (3, 2), (4, 3)]:
        c = ctx(base_order, n)
        elems = c.elements()
        rng = random.Random(base_order * 10 + n)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]
        for a, b in pairs:
            left = imprimitive_permutation(wr_mul(a, b))
            right = compose_perm(imprimitive_permutation(a), imprimitive_permutation(b))
            assert left == right
        # faithfulness: distinct elements act differently (spot check)
        seen = {}
        for e in elems:
            key = imprimitive_permutation(e)
            assert key not in seen
            seen[key] = e


def test_inverse_of_base_only_element():
    c = ctx(4, 3)
    g = c.element((1, 2, 3), identity_perm(3))
    assert wr_inv(g) == c.element((3, 2, 1), identity_perm(3))


# -- cycle products -----------------------------------------------------------------

def test_cycle_product_identity_sigma():
    c = ctx(4, 3)
    for j in range(3):
        assert cycle_product(c, (1, 2, 3), identity_perm(3), j) == (1, 2, 3)[j]


def test_cycle_product_three_cycle_order():
    # sigma: 0 -> 1 -> 2 -> 0; at j = 2 the product is g0 * g1 * g2
    base = symmetric_group(3)
    c = WreathContext(base, 3)
    sigma = (1, 2, 0)
    g = (1, 2, 4)  # arbitrary non-commuting triple
    expected = base.mul(base.mul(1, 2), 4)
    assert cycle_product(c, g, sigma, 2) == expected


def test_cycle_product_trivial_vector():
    c = ctx(5, 4)
    sigma = (1, 0, 3, 2)
    for j in range(4):
        assert cycle_product(c, (0, 0, 0, 0), sigma, j) == 0


def test_cycle_product_conjugation_covariance():
    # conjugating by (k,1) conjugates each anchor cycle product by k[anchor]
    c = ctx(6, 3)
    rng = random.Random(3)
    elems = c.elements()
    for _ in range(200):
        a = rng.choice(elems)
        kvec = tuple(rng.randrange(6) for _ in range(3))
        k = c.element(kvec, identity_perm(3))
        conj = wr_conj(a, k)
        assert conj.sigma == a.sigma
        for anchor in anchors(a.sigma):
            before = cycle_product(c, a.g_vec, a.sigma, anchor)
            after = cycle_product(c, conj.g_vec, conj.sigma, anchor)
            base = c.base
            assert after == base.mul(base.mul(kvec[anchor], before), base.inv(kvec[anchor]))


# -- base conjugacy (Lemma-style behaviour) -----------------------------------------

def test_conjugate_in_base_equal_vectors():
    # on one 3-cycle orbit, the base vectors fixing (g, sigma) are the constants
    c = ctx(3, 3)
    x = c.element((1, 2, 0), (1, 2, 0))
    fixers = {k for k in itertools.product(range(3), repeat=3)
              if wr_conj(x, c.element(k, identity_perm(3))) == x}
    assert fixers == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}


def test_conjugate_in_base_z2_swap_example():
    c = ctx(2, 2)
    swap = (1, 0)
    conj = wr_conj(c.element((1, 0), swap), c.element((1, 0), identity_perm(2)))
    assert conj == c.element((0, 1), swap)
    assert base_conjugates(c, (1, 0), swap) == {(1, 0), (0, 1)}


def test_conjugate_in_base_z3_obstruction():
    # the anchor cycle products 1 and 2 differ, so no base vector conjugates
    c = ctx(3, 2)
    swap = (1, 0)
    assert cycle_product(c, (1, 0), swap, 0) != cycle_product(c, (2, 0), swap, 0)
    assert (2, 0) not in base_conjugates(c, (1, 0), swap)


def test_conjugate_in_base_exhaustive_small():
    # |G| <= 4, n <= 3, abelian base: (g, sigma) and (h, sigma) are conjugate
    # by a base vector exactly when their cycle products agree at the anchors
    for base_order, n in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        c = ctx(base_order, n)
        vectors = list(itertools.product(range(base_order), repeat=n))
        for sigma in itertools.permutations(range(n)):
            for g in vectors:
                reachable = base_conjugates(c, g, sigma)
                for h in vectors:
                    agree = all(
                        cycle_product(c, g, sigma, a) == cycle_product(c, h, sigma, a)
                        for a in anchors(sigma))
                    assert (h in reachable) == agree


def test_conjugate_in_base_nonabelian_three_cycles():
    # S3 base, sigma a 3-cycle: the two orientations of the cycle product
    # differ here, and the anchor products need only be conjugate in G.  The
    # cycle products over sigma^{-1}, g[s^2(0)] g[s(0)] g[0], decide it (e.g.
    # g = ((1 2),(),()) is conjugate to h = ((),(),(0 1)) under sigma = (1 2 0)).
    base, n = symmetric_group(3), 3
    c = WreathContext(base, n)
    assert base.names[1] == "(1 2)" and base.names[2] == "(0 1)"
    assert (0, 0, 2) in base_conjugates(c, (1, 0, 0), (1, 2, 0))
    vectors = list(itertools.product(range(base.order), repeat=n))
    for sigma in [(1, 2, 0), (2, 0, 1)]:
        forward = invert_perm(sigma)
        for g in vectors:
            reachable = base_conjugates(c, g, sigma)
            c_g = cycle_product(c, g, forward, 0)
            klass = {base.conj(c_g, x) for x in range(base.order)}
            for h in vectors:
                assert (h in reachable) == (cycle_product(c, h, forward, 0) in klass)


# -- materialized wreath groups ------------------------------------------------------

def test_wreath_group_z2_sym2_is_dihedral():
    w = wreath_group(cyclic_group(2), 2)
    assert w.order == 8
    assert is_isomorphic(w, dihedral_square()) is not None


def test_wreath_group_trivial_base_is_symmetric():
    for n in [2, 3]:
        w = wreath_group(trivial_group(), n)
        assert is_isomorphic(w, symmetric_group(n)) is not None


def test_wreath_group_z3_sym2_order():
    assert wreath_group(cyclic_group(3), 2).order == 18


@pytest.mark.parametrize("base, n", [
    (cyclic_group(2), 4), (klein_group(), 3),
    # nonabelian bases, where the coordinate order of g_{t^{-1}} h matters
    (symmetric_group(3), 2), (dihedral_square(), 2), (quaternion_group(), 2),
    (trivial_group(), 3), (cyclic_group(3), 1),
    (cyclic_group(4), 3), (cyclic_group(9), 2),
], ids=["Z2wr4", "V4wr3", "S3wr2", "D4wr2", "Q8wr2", "1wr3", "Z3wr1", "Z4wr3", "Z9wr2"])
def test_wreath_group_table_is_wr_mul(base, n):
    c = WreathContext(base, n)
    elems = c.elements()
    index = {e: i for i, e in enumerate(elems)}
    w = wreath_group(base, n)
    assert w.table == tuple(tuple(index[wr_mul(a, b)] for b in elems) for a in elems)
    assert w.names == tuple(e.name() for e in elems)
    ident = identity_perm(n)
    gens = [c.element([g] + [base.identity] * (n - 1), ident) for g in base.generators]
    gens += [c.element(c.identity().g_vec, transposition(n, i, i + 1)) for i in range(n - 1)]
    assert w.generators == tuple(index[g] for g in gens)


# every rigidity-sweep base at the arities whose tables have <= 1,296 elements
SPECTRUM_CASES = [pytest.param(group, n, id=f"{name}wr{n}")
                  for name, group in rigidity_catalog() for n in (2, 3, 4)
                  if WreathContext(group, n).order <= 1296]
SPECTRUM_CASES += [pytest.param(trivial_group(), n, id=f"1wr{n}") for n in range(5)]


@pytest.mark.parametrize("base, n", SPECTRUM_CASES)
def test_order_spectrum_counts_the_table_orders(base, n):
    w = wreath_group(base, n)
    assert order_spectrum(base, n) == sorted(Counter(map(w.element_order, range(w.order))).items())


# -- centralizers (computing-centralizers lemma instances) -----------------------------

def _diag_times_perms_indices(base_order: int, n: int):
    """Indices (in wreath_group element order) of (diag(x), s) elements."""
    perms = sorted(itertools.permutations(range(n)))
    nperms = len(perms)

    def index(vec, sigma):
        flat = 0
        for v in vec:
            flat = flat * base_order + v
        return flat * nperms + perms.index(sigma)

    return index


def test_centralizer_of_whole_wreath_is_diagonal():
    for base_order, n in [(2, 3), (3, 3), (2, 4)]:
        w = wreath_group(cyclic_group(base_order), n)
        idx = _diag_times_perms_indices(base_order, n)
        center = w.centralizer(range(w.order))
        expected = {idx((x,) * n, identity_perm(n)) for x in range(base_order)}
        assert center == expected


def test_centralizer_of_diag_times_sym_is_diagonal():
    for base_order, n in [(2, 3), (3, 3), (2, 4)]:
        w = wreath_group(cyclic_group(base_order), n)
        idx = _diag_times_perms_indices(base_order, n)
        perms = sorted(itertools.permutations(range(n)))
        subset = [idx((x,) * n, s) for x in range(base_order) for s in perms]
        expected = {idx((x,) * n, identity_perm(n)) for x in range(base_order)}
        assert w.centralizer(subset) == expected


def test_centralizer_of_identity_is_whole_wreath():
    w = wreath_group(cyclic_group(2), 3)
    assert w.centralizer([w.identity]) == frozenset(range(w.order))


# -- normal subgroups of Sym(m) ------------------------------------------------------

def test_normal_subgroups_sym_3_4_5():
    for m, sizes in [(3, [1, 3, 6]), (4, [1, 4, 12, 24]), (5, [1, 60, 120])]:
        found = normal_subgroups_sym(m)
        assert sorted(len(s) for s in found) == sizes
    s4 = symmetric_group(4)
    v = klein_subset_sym4()
    assert v in normal_subgroups_sym(4)
    # V consists of the identity and the three double transpositions
    names = sorted(s4.names[i] for i in v)
    assert names == ["()", "(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)"]


def test_normal_subgroups_sym_mismatch_is_a_verification_error(monkeypatch):
    # a wrong expected Klein subgroup makes the exhaustive list disagree
    monkeypatch.setattr(wreath, "klein_subset_sym4", lambda: frozenset({0}))
    with pytest.raises(VerificationError, match="classification"):
        normal_subgroups_sym(4)
    assert issubclass(VerificationError, StabdynError)


# -- subgroup-lattice lemma properties -------------------------------------------------

def test_equal_size_normal_chains_coincide():
    # for m <= 6 and L, L' normal in K normal in Sym(m) with K != V:
    # |L| = |L'| implies L = L'
    for m in range(2, 7):
        sym = symmetric_group(m)
        v = klein_subset_sym4() if m == 4 else None
        for k_set in sym.normal_subgroups():
            if v is not None and k_set == v:
                continue
            k_group = sym.subgroup_table(k_set)
            normals = k_group.normal_subgroups()
            by_size: dict = {}
            for l_set in normals:
                by_size.setdefault(len(l_set), []).append(l_set)
            for size, subs in by_size.items():
                assert len(subs) == 1, (m, len(k_set), size)


def test_klein_group_violates_equal_size_uniqueness():
    # negative control: V has three distinct normal subgroups of order 2
    s4 = symmetric_group(4)
    v = s4.subgroup_table(klein_subset_sym4())
    order2 = [s for s in v.normal_subgroups() if len(s) == 2]
    assert len(order2) == 3


def test_product_decomposition_forces_a4_or_transitive_or_stabilizer():
    # L <= Sym(4), K normal in Sym(4), L*K = Sym(4) implies K contains A4 or
    # L acts transitively -- except in one family: K = V with L a point
    # stabilizer (~ Sym(3)).  A point stabilizer meets every V-coset, so its
    # product with V is all of Sym(4), yet it is intransitive; two distinct
    # 3-cycles sharing their support do not generate a transitive group.
    s4 = symmetric_group(4)
    perms = sorted(itertools.permutations(range(4)))
    a4 = alternating_subset(4)
    v = klein_subset_sym4()
    exceptions = []
    for k_set in s4.normal_subgroups():
        for l_set in s4.subgroups():
            product = {s4.mul(a, b) for a in l_set for b in k_set}
            if len(product) != 24:
                continue
            l_perms = [perms[i] for i in l_set]
            if a4 <= k_set or is_transitive_perm_set(l_perms, 4):
                continue
            exceptions.append((frozenset(l_set), k_set))
    # every violation of the naive dichotomy is the stabilizer/Klein pair
    assert len(exceptions) == 4
    for l_set, k_set in exceptions:
        assert k_set == v and len(l_set) == 6
        l_perms = [perms[i] for i in l_set]
        fixed = [x for x in range(4) if all(p[x] == x for p in l_perms)]
        assert len(fixed) == 1  # a point stabilizer


def test_fix_by_null_property():
    # subgroups H of Z2 wr Sym(2) and Z2 wr Sym(3) closed under base
    # conjugation of some (h,tau) in H contain every (g,1) whose anchor cycle
    # products are all trivial
    for n in [2, 3]:
        base = cyclic_group(2)
        c = WreathContext(base, n)
        w = wreath_group(base, n)
        elems = c.elements()
        pos = {(e.g_vec, e.sigma): i for i, e in enumerate(elems)}
        base_vectors = list(itertools.product(range(2), repeat=n))
        for h_set in w.subgroups():
            for h_idx in h_set:
                h_el = elems[h_idx]
                closed = all(
                    pos[(lambda r: (r.g_vec, r.sigma))(
                        wr_conj(h_el, c.element(k, identity_perm(n))))] in h_set
                    for k in base_vectors)
                if not closed:
                    continue
                for g in base_vectors:
                    if all(cycle_product(c, g, h_el.sigma, a) == 0
                           for a in anchors(h_el.sigma)):
                        assert pos[(g, identity_perm(n))] in h_set


def test_transitive_image_forces_base_isomorphism():
    # isomorphisms phi: W -> W with transitive pi(phi(1 x Sym(n))) transfer the
    # diagonal centralizer; instantiated with inner automorphisms
    for base_order, n in [(2, 3), (3, 3), (2, 4)]:
        base = cyclic_group(base_order)
        c = WreathContext(base, n)
        w = wreath_group(base, n)
        elems = c.elements()
        pos = {(e.g_vec, e.sigma): i for i, e in enumerate(elems)}
        idvec = (base.identity,) * n
        sym_part = [pos[(idvec, s)] for s in itertools.permutations(range(n))]
        rng = random.Random(n)
        for _ in range(5):
            t = rng.randrange(w.order)
            image = [w.conj(x, t) for x in sym_part]
            image_perms = [elems[i].sigma for i in image]
            if not is_transitive_perm_set(image_perms, n):
                continue
            cent = w.centralizer(image)
            cent_group = w.subgroup_table(cent)
            assert is_isomorphic(cent_group, base) is not None
