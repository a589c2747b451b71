"""Exact arithmetic in G wr Sym(n) for finite G.

Conventions, pinned by the formula property tests:
  * permutation products compose right to left: (s t)(x) = s(t(x));
  * the coordinate action is g_s[i] = g[s^{-1}(i)];
  * a composite action subscript applies left factor first:
    g_{s t} here means (g_s)_t.

With these, the multiplication (g,s)(h,t) = (g_{t^{-1}} h, s t) is associative
and the closed forms for inverse, conjugation and commutator agree with their
definitional expansions on every element pair.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

from .budgets import check
from .errors import AmbientMismatchError, StabdynError, VerificationError
from .groups import (FiniteGroup, all_perms, alternating_subset, compose_perm,
                     identity_perm, invert_perm, klein_subset_sym4, perm_name,
                     perm_orbits, symmetric_group)
from .records import Record


class WreathContext(Record):
    """Ambient data for wreath elements: the base group and the arity."""
    __slots__ = FIELDS = ("base", "n")

    def __init__(self, base: FiniteGroup, n: int):
        if n < 0:
            raise StabdynError(f"wreath arity must be at least 0, got {n}")
        super().__init__(base, n)

    @property
    def order(self) -> int:
        return self.base.order ** self.n * math.factorial(self.n)

    def identity(self) -> "WreathElement":
        return WreathElement(self, (self.base.identity,) * self.n, identity_perm(self.n))

    def element(self, g_vec: Sequence[int], sigma: Sequence[int]) -> "WreathElement":
        """The element (g_vec, sigma), checked: every coordinate must lie in
        range(|G|) and sigma must permute range(n).  The products build
        their results unchecked."""
        g_vec, sigma = tuple(g_vec), tuple(sigma)
        if not all(type(x) is int and 0 <= x < self.base.order for x in g_vec):
            raise AmbientMismatchError(
                f"coordinates {list(g_vec)} not all in range({self.base.order})")
        if not (all(type(i) is int for i in sigma) and sorted(sigma) == list(range(self.n))):
            raise AmbientMismatchError(
                f"sigma {list(sigma)} is not a permutation of range({self.n})")
        return WreathElement(self, g_vec, sigma)

    def elements(self) -> list:
        """All elements in canonical (vector-major, permutation-minor) order."""
        vecs = itertools.product(range(self.base.order), repeat=self.n)
        perms = all_perms(self.n)
        return [WreathElement(self, v, s) for v in vecs for s in perms]


class WreathElement(Record):
    """(g-vector, permutation) in G^n x Sym(n)."""
    __slots__ = FIELDS = ("context", "g_vec", "sigma")

    def __init__(self, context: WreathContext, g_vec: tuple, sigma: tuple):
        if len(g_vec) != context.n or len(sigma) != context.n:
            raise AmbientMismatchError("component length differs from ambient arity")
        super().__init__(context, g_vec, sigma)

    def to_document(self) -> dict:
        return {"g": list(self.g_vec), "sigma": list(self.sigma)}

    def name(self) -> str:
        base = self.context.base
        parts = ",".join(base.names[x] for x in self.g_vec)
        return f"(({parts}),{perm_name(self.sigma)})"


def _same_ambient(a: WreathElement, b: WreathElement) -> WreathContext:
    if a.context != b.context:
        raise AmbientMismatchError("wreath elements from different ambients")
    return a.context


def wr_mul(a: WreathElement, b: WreathElement) -> WreathElement:
    """(g,s)(h,t) = (g_{t^{-1}} h, s t): base[i] = g[t(i)] * h[i]."""
    ctx = _same_ambient(a, b)
    table, g, t = ctx.base.table, a.g_vec, b.sigma
    base = tuple([table[g[i]][y] for i, y in zip(t, b.g_vec)])
    return WreathElement(ctx, base, compose_perm(a.sigma, t))


def wr_inv(a: WreathElement) -> WreathElement:
    """(g,s)^{-1} = (g^{-1}_s, s^{-1}), with the coordinate action
    g_s[i] = g[s^{-1}(i)] written as a scatter: coordinate s(i) is
    g[i]^{-1}, and the permutation sends s(i) to i."""
    ctx = a.context
    inverses = ctx.base.inverses
    base, perm = [None] * ctx.n, [None] * ctx.n
    for i, (j, x) in enumerate(zip(a.sigma, a.g_vec)):
        base[j] = inverses[x]
        perm[j] = i
    return WreathElement(ctx, tuple(base), tuple(perm))


def wr_conj(x: WreathElement, by: WreathElement) -> WreathElement:
    """(h,t)^{(g,s)} = (g_{t^{-1} s} h_s g^{-1}_s, s t s^{-1}): coordinate
    s(j) is g[t(j)] h[j] g[j]^{-1}, and the permutation sends s(j) to s(t(j))."""
    ctx = _same_ambient(x, by)
    mul, inv = ctx.base.mul, ctx.base.inv
    h, t = x.g_vec, x.sigma
    g, s = by.g_vec, by.sigma
    base, perm = [None] * ctx.n, [None] * ctx.n
    for j in range(ctx.n):
        base[s[j]] = mul(mul(g[t[j]], h[j]), inv(g[j]))
        perm[s[j]] = s[t[j]]
    return WreathElement(ctx, tuple(base), tuple(perm))


def wr_comm(x: WreathElement, y: WreathElement) -> WreathElement:
    """[(g,s),(h,t)] = (g_{t^{-1} s t} h_{s t} g^{-1}_{s t} h^{-1}_t,
    s t s^{-1} t^{-1}): coordinate t(s(k)) is
    g[t(k)] h[k] g[k]^{-1} h[s(k)]^{-1}, and the permutation sends t(s(k))
    to s(t(k))."""
    ctx = _same_ambient(x, y)
    mul, inv = ctx.base.mul, ctx.base.inv
    g, s = x.g_vec, x.sigma
    h, t = y.g_vec, y.sigma
    base, perm = [None] * ctx.n, [None] * ctx.n
    for k in range(ctx.n):
        at = t[s[k]]
        base[at] = mul(mul(mul(g[t[k]], h[k]), inv(g[k])), inv(h[s[k]]))
        perm[at] = s[t[k]]
    return WreathElement(ctx, tuple(base), tuple(perm))


def wr_conj_definitional(x: WreathElement, by: WreathElement) -> WreathElement:
    """Test oracle: by x by^{-1} by products; acceptance 01 pins ``wr_conj``
    to it."""
    return wr_mul(wr_mul(by, x), wr_inv(by))


def wr_comm_definitional(x: WreathElement, y: WreathElement) -> WreathElement:
    """Test oracle: x y x^{-1} y^{-1} by products; acceptance 01 pins
    ``wr_comm`` to it."""
    return wr_mul(wr_mul(wr_mul(x, y), wr_inv(x)), wr_inv(y))


# -- imprimitive permutation representation (independent oracle) ---------------


def imprimitive_permutation(a: WreathElement) -> tuple:
    """The left action on pairs (block, base element),
    (i, x) -> (sigma(i), g[i] * x), as a permutation of n * |G| points
    (block-major).  A faithful permutation representation; composing these
    permutations must match wr_mul (the test oracle of
    ``test_wr_mul_matches_imprimitive_oracle``)."""
    ctx = a.context
    q = ctx.base.order
    images = [0] * (ctx.n * q)
    for i in range(ctx.n):
        for x in range(q):
            images[i * q + x] = a.sigma[i] * q + ctx.base.mul(a.g_vec[i], x)
    return tuple(images)


# -- cycle products ------------------------------------------------------------


def cycle_product(context: WreathContext, g_vec: Sequence[int], sigma: tuple, j: int) -> int:
    """c_sigma(g, j): ordered product of g-coordinates backwards along the
    sigma-orbit of j: g[s^{-|p|+1}(j)] ... g[s^{-1}(j)] g[j].  The cycle
    product, base conjugacy and fix-by-null lemma tests read it."""
    inv = invert_perm(sigma)
    chain = [j]
    at = inv[j]
    while at != j:
        chain.append(at)
        at = inv[at]
    acc = context.base.identity
    for idx in reversed(chain):
        acc = context.base.mul(acc, g_vec[idx])
    return acc


def order_spectrum(base: FiniteGroup, n: int) -> list:
    """The sorted (element order, count) pairs of G wr Sym(n), without its
    table.  The order of (g, s) is the lcm, over the cycles C of s, of
    |C| * ord(c_C) with c_C the cycle product (James & Kerber 1981,
    4.1-4.2).  As the |C| coordinates on C range over G^|C|, c_C takes each
    value of G exactly |G|^(|C|-1) times, and the cycles are independent, so
    the counts of one cycle type are an lcm-convolution of G's order counts,
    one factor per cycle.  The cost is one pass over Sym(n) for the cycle
    types and, per cycle type, one step per cycle over pairs of distinct
    orders; no table of |G|^n n! elements is built."""
    base_orders = Counter(base.element_order(x) for x in range(base.order))
    cycle_types = Counter(tuple(sorted(map(len, perm_orbits(s)))) for s in all_perms(n))
    spectrum = Counter()
    for lengths, perms in cycle_types.items():
        counts = {1: perms}
        for length in lengths:
            weight = base.order ** (length - 1)
            step = Counter()
            for order, count in counts.items():
                for base_order, base_count in base_orders.items():
                    step[math.lcm(order, length * base_order)] += count * base_count * weight
            counts = step
        spectrum.update(counts)
    return sorted(spectrum.items())


# -- materialized wreath groups ---------------------------------------------------


def wreath_group(base: FiniteGroup, n: int) -> FiniteGroup:
    """G wr Sym(n) as an explicit multiplication table.

    Element (g, s) has the flat index ``v * n! + p``, where v is the index of
    the vector g in ``itertools.product(range(|G|), repeat=n)`` order (g read
    in mixed radix |G|, first coordinate most significant) and p the index
    of s in ``all_perms(n)``: the order of ``WreathContext.elements()``.  The
    table is read off three small integer tables, the product table of
    ``symmetric_group(n)``, the permuted-vector table
    ``permuted[t][g] = (g[t[0]], ..., g[t[n-1]])`` and the coordinatewise
    product table of G^n, computed in that radix from G's table, as
    (g,s)(h,t) = (vmul[permuted[t][g]][h], s t).  So the stride
    ``row[t::n!]`` of row (g, s), the columns (h, t) for one t, depends only
    on (u, q) = (permuted[t][g], s t), and each row is written as n! strided
    slice copies of the precomputed columns ``cols[u][q]``, the flat indices
    of (vmul[u][h], q) over h.
    ``wr_mul`` stays the definition; the tests pin this table to it.

    Generators: the base group's generators in coordinate 0, plus the Coxeter
    transpositions.
    """
    ctx = WreathContext(base, n)
    check(ctx.order, "group_order", "wreath group order")
    vecs = list(itertools.product(range(base.order), repeat=n))
    vindex = {v: k for k, v in enumerate(vecs)}
    sym = symmetric_group(n)
    nf = sym.order
    permuted = [[vindex[tuple(g[i] for i in t)] for g in vecs] for t in all_perms(n)]
    vmul = [[0]]  # products in G^w for w = 0 .. n; a prepended coordinate is worth |G|^w
    for step in (base.order ** w for w in range(n)):
        vmul = [[c * step + x for c in a_row for x in row] for a_row in base.table for row in vmul]
    # cells store these shared int objects, not one fresh int per cell
    ids = list(range(ctx.order))
    by_perm = [ids[q::nf] for q in range(nf)]  # by_perm[q][v] = v * n! + q
    cols = [[tuple(map(col.__getitem__, u_row)) for col in by_perm] for u_row in vmul]
    buf = ids[:]
    table = []
    for gi in range(len(vecs)):
        row_cols = [cols[t_row[gi]] for t_row in permuted]
        for ps in sym.table:
            for t, (u_cols, q) in enumerate(zip(row_cols, ps)):
                buf[t::nf] = u_cols[q]
            table.append(tuple(buf))
    vec_names = [",".join(base.names[x] for x in v) for v in vecs]
    names = [f"(({vn}),{pn})" for vn in vec_names for pn in sym.names]
    identity = vindex[(base.identity,) * n] * nf
    gens = [vindex[tuple(g if i == 0 else base.identity for i in range(n))] * nf
            for g in base.generators]
    gens += [identity + p for p in sym.generators if p != sym.identity]
    return FiniteGroup(table, names=names, generators=gens or [identity], check_axioms=False)


# -- normal subgroups of Sym(m) ------------------------------------------------------


def normal_subgroups_sym(m: int) -> list:
    """Exhaustively computed list of normal subgroups of Sym(m), sorted by
    size.  Raises if the result disagrees with the known classification
    ({1}, A_m, Sym(m), plus the Klein subgroup V exactly at m = 4).
    Acceptance 03 checks the normal subgroup structure with it."""
    check(m, "sym_normal_m", "normal subgroup sweep degree")
    sym = symmetric_group(m)
    found = sym.normal_subgroups()
    expected = {frozenset({sym.identity}), alternating_subset(m),
                frozenset(range(sym.order))}
    if m == 4:
        expected.add(klein_subset_sym4())
    if set(found) != expected:
        raise VerificationError(
            f"normal subgroups of Sym({m}) do not match the classification")
    return found
