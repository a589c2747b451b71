"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from stabdyn.codes import compose, enumerate_automorphisms, identity_code
from stabdyn.groups import (cyclic_group, identity_perm, klein_subset_sym4,
                            symmetric_group)
from stabdyn.seqs import (check_example1_residues, check_example2_markers,
                          example1_marker, example2_word)
from stabdyn.sft import entropy, full_shift, is_irreducible, power_shift
from stabdyn.spectral import (divisors, exhaustive_partition_search,
                              is_power_transitive, rational_eigs)
from stabdyn.verify import (check_wreath_rigidity, entropy_ratio,
                            verify_split_sequence)
from stabdyn.wreath import (WreathContext, wr_comm, wr_comm_definitional,
                            wr_conj, wr_conj_definitional, wr_inv, wr_mul,
                            wreath_group, normal_subgroups_sym)
from stabdyn.cli import rigidity_sweep_pairs

from conftest import (catalog, doubled_loop_period2, golden_mean,
                      split_matrix)

GOLDEN = (1 + math.sqrt(5)) / 2


class _Timer:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number, self.name, self.limit = number, name, limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
              f"({elapsed:.1f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.number} exceeded its runtime budget"
        return False


def _random_element(ctx: WreathContext, rng: random.Random):
    vec = tuple(rng.randrange(ctx.base.order) for _ in range(ctx.n))
    sigma = list(range(ctx.n))
    rng.shuffle(sigma)
    return ctx.element(vec, tuple(sigma))


def test_acceptance_01_wreath_algebra_exactness():
    with _Timer(1, "wreath-algebra-exactness", 60):
        exhaustive = [
            WreathContext(cyclic_group(2), 2),
            WreathContext(cyclic_group(2), 3),
            WreathContext(cyclic_group(3), 2),
            WreathContext(cyclic_group(4), 3),
        ]
        for ctx in exhaustive:
            ident = ctx.identity()
            elems = ctx.elements()
            for a in elems:
                assert wr_mul(a, wr_inv(a)) == ident
                assert wr_mul(wr_inv(a), a) == ident
            for a in elems:
                for b in elems:
                    assert wr_conj(a, b) == wr_conj_definitional(a, b)
                    assert wr_comm(a, b) == wr_comm_definitional(a, b)
        sampled = exhaustive + [
            WreathContext(cyclic_group(2), 5),    # order 3840
            WreathContext(cyclic_group(3), 4),    # order 1944
            WreathContext(cyclic_group(4), 4),    # order 6144
            WreathContext(cyclic_group(5), 3),    # order 750
            WreathContext(cyclic_group(6), 3),    # order 1296
            WreathContext(symmetric_group(3), 3), # order 1296, nonabelian base
        ]
        rng = random.Random(2024)
        for ctx in sampled:
            assert ctx.order <= 20000
            for _ in range(10_000):
                a = _random_element(ctx, rng)
                b = _random_element(ctx, rng)
                assert wr_conj(a, b) == wr_conj_definitional(a, b)
                assert wr_comm(a, b) == wr_comm_definitional(a, b)
                assert wr_mul(a, wr_inv(a)) == ctx.identity()


def _diag_index(base_order: int, n: int):
    perms = sorted(itertools.permutations(range(n)))

    def index(vec, sigma):
        flat = 0
        for v in vec:
            flat = flat * base_order + v
        return flat * len(perms) + perms.index(sigma)

    return index, perms


def test_acceptance_02_centralizer_theorem():
    with _Timer(2, "centralizer-theorem", 30):
        for base_order, n in [(2, 3), (3, 3), (2, 4)]:
            w = wreath_group(cyclic_group(base_order), n)
            index, perms = _diag_index(base_order, n)
            diag = [index((x,) * n, identity_perm(n)) for x in range(base_order)]
            # centralizer of the whole group (abelian base: C(G) = G)
            assert w.centralizer(range(w.order)) == frozenset(diag)
            # centralizer of Delta_{C(G)} x Sym(n)
            subset = [index((x,) * n, s) for x in range(base_order) for s in perms]
            assert w.centralizer(subset) == frozenset(diag)


def test_acceptance_03_normal_subgroup_structure():
    with _Timer(3, "normal-subgroups-of-sym", 60):
        for m in range(2, 7):
            found = normal_subgroups_sym(m)  # raises if off-classification
            expected_count = 4 if m == 4 else (3 if m >= 3 else 2)
            assert len(found) == expected_count, m
        v = klein_subset_sym4()
        assert v in normal_subgroups_sym(4)


def test_acceptance_04_rigidity_sweep():
    with _Timer(4, "wreath-rigidity-sweep", 600):
        pairs = rigidity_sweep_pairs()
        assert len(pairs) >= 4
        seen_162 = False
        for name_g, g, n, name_h, h, m in pairs:
            report = check_wreath_rigidity(g, n, h, m, name_g, name_h)
            assert report.verdict == "consistent", (name_g, n, name_h, m)
            assert report.isomorphic is False
            if report.order_g == 162:
                seen_162 = True
        assert seen_162  # the Z9 wr Sym(2) / Z3 wr Sym(3) pair is exercised


def test_acceptance_05_eigenvalue_partition_equivalence():
    with _Timer(5, "eigenvalues-vs-partitions", 120):
        for name, sft, p in catalog():
            assert sft.n_states <= 6 and p <= 6
            eigs = rational_eigs(sft)
            assert eigs == set(divisors(p)), name
            for m in range(1, 7):
                found = exhaustive_partition_search(sft, m)
                assert (found is not None) == (m in eigs), (name, m)


def test_acceptance_06_split_exact_sequence():
    with _Timer(6, "split-exact-sequence", 300):
        for sft, n, m, r in split_matrix():
            report = verify_split_sequence(sft, n, m, r)
            failed = [c.name for c in report.checks if not c.passed]
            assert report.passes, (sft.states, n, m, failed)
            assert report.automorphism_count == \
                report.kernel_size * report.image_size


def test_acceptance_07_entropy_values():
    with _Timer(7, "entropy-values", 10):
        for k in range(1, 17):
            assert abs(entropy(full_shift(k)).log_value - math.log(k)) < 1e-12
        assert abs(entropy(golden_mean()).log_value - math.log(GOLDEN)) < 1e-9
        report = entropy_ratio(full_shift(2), full_shift(4))
        assert (report.best_numerator, report.best_denominator) == (1, 2)
        assert report.residual < 1e-12


def test_acceptance_08_power_laws():
    with _Timer(8, "power-laws", 120):
        for name, sft, p in catalog():
            h = entropy(sft).log_value
            for n in range(1, 13):
                ps = power_shift(sft, n)
                assert abs(entropy(ps).log_value - n * h) < 1e-9, (name, n)
                formula = is_power_transitive(sft, n)
                assert formula == (math.gcd(n, p) == 1), (name, n)
                assert formula == is_irreducible(ps), (name, n)


def test_acceptance_09_example_sequences():
    with _Timer(9, "marker-example-sequences", 60):
        for n in range(1, 11):
            report = check_example1_residues(n)
            assert report.passes and len(report.occurrences) > 1, n
        for n in range(1, 19):
            assert example1_marker(n + 1) == example1_marker(n) + "0" * 2 ** n
        for n in range(0, 13):
            assert len(example2_word(n)) == 3 ** (n + 1), n
        for n in range(1, 5):
            report = check_example2_markers(n)
            assert report.passes and len(report.occurrences) > 1, n


def test_acceptance_10_automorphism_ground_truth():
    with _Timer(10, "automorphism-ground-truth", 30):
        full2 = enumerate_automorphisms(full_shift(2), 0)
        assert len(full2) == 2
        gm = enumerate_automorphisms(golden_mean(), 0)
        assert len(gm) == 1
        for autos in [full2, gm,
                      enumerate_automorphisms(doubled_loop_period2(), 1)]:
            assert identity_code(autos.shift) in autos.elements
            for code, inv in zip(autos.elements, autos.inverses):
                assert compose(code, inv).is_identity()
                assert compose(inv, code).is_identity()
            for f in autos.elements:
                for g in autos.elements:
                    h = compose(f, g)
                    if h.canonical_radius <= autos.radius:
                        assert h.canonical() in autos.elements
