"""Finite groups as explicit multiplication tables, plus permutation helpers,
subgroup machinery and exact isomorphism testing.

Tables are kept below a hard order budget; beyond it operations refuse rather
than degrade to probabilistic methods.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .budgets import check
from .errors import ParseError

# -- permutations (tuples of images) -----------------------------------------


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def compose_perm(s: tuple, t: tuple) -> tuple:
    """(s t)(x) = s(t(x))."""
    return tuple(map(s.__getitem__, t))


def invert_perm(s: tuple) -> tuple:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def all_perms(n: int) -> list:
    return sorted(itertools.permutations(range(n)))


def perm_orbits(s: tuple) -> list:
    """Orbits (cycles) of a permutation, each listed from its lowest element."""
    seen = set()
    orbits = []
    for i in range(len(s)):
        if i in seen:
            continue
        orbit = [i]
        j = s[i]
        while j != i:
            orbit.append(j)
            j = s[j]
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def is_transitive_perm_set(perms: Iterable[tuple], n: int) -> bool:
    """True when the group generated by the given permutations has one orbit
    (the product-decomposition lemma test reads it)."""
    perms = list(perms)
    if not perms:
        return n <= 1
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in perms:
            y = s[x]
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return len(reach) == n


def transposition(n: int, i: int, j: int) -> tuple:
    img = list(range(n))
    img[i], img[j] = img[j], img[i]
    return tuple(img)


def perm_sign(s: tuple) -> int:
    sign = 1
    for orbit in perm_orbits(s):
        if len(orbit) % 2 == 0:
            sign = -sign
    return sign


# -- finite groups -------------------------------------------------------------


class FiniteGroup:
    """A group given by its multiplication table over element indices."""

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None,
                 generators: Optional[Sequence[int]] = None, check_axioms: bool = True):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        if check_axioms:
            self._check_indices(names, generators)
        self.names = tuple(names) if names else tuple(str(i) for i in range(self.order))
        all_elems = tuple(range(self.order))
        identity = None
        for e in range(self.order):
            if self.table[e] == all_elems and all(self.table[x][e] == x for x in all_elems):
                identity = e
                break
        if identity is None:
            raise ParseError("table has no identity element")
        self.identity = identity
        inv = []
        for x in range(self.order):
            try:
                y = self.table[x].index(identity)
            except ValueError as exc:
                raise ParseError(f"element {x} has no inverse") from exc
            if self.table[y][x] != identity:
                raise ParseError(f"element {x} has no two-sided inverse")
            inv.append(y)
        self.inverses = tuple(inv)
        if generators is None:
            generators = self._find_generators()
        self.generators = tuple(generators)
        if check_axioms:
            self._check_associativity()
        if self.closure(self.generators) != set(range(self.order)):
            raise ParseError("declared generators do not generate the group")

    # construction helpers

    def _check_indices(self, names, generators) -> None:
        """Raise ParseError unless the table is a Latin square on range(order)
        (every entry an int, each row and column, as a set, range(order)),
        and the names and generators fit that order."""
        n = self.order
        if any(len(row) != n for row in self.table):
            raise ParseError("table is not square")
        if not set(map(type, itertools.chain.from_iterable(self.table))) <= {int}:  # not bool
            raise ParseError(f"table entries must be integers in range({n})")
        target = set(range(n))
        if not all(map(target.__eq__, map(set, itertools.chain(self.table, zip(*self.table))))):
            if not set(itertools.chain.from_iterable(self.table)) <= target:
                raise ParseError(f"table entries must be integers in range({n})")
            raise ParseError("table is not a Latin square: a row or column repeats an entry")
        if names is not None and len(names) != n:
            raise ParseError(f"{len(names)} names for a group of order {n}")
        if generators is not None and not all(type(g) is int and 0 <= g < n
                                              for g in generators):
            raise ParseError(f"generators must be integers in range({n})")

    def _check_associativity(self) -> None:
        """Light's test: (x g) y = x (g y) for every x, y and generator g.  The
        g that pass are closed under products, and the constructor then checks
        that the generators generate, so this decides associativity exactly."""
        t = self.table
        for g in self.generators:
            # row x -> the row of x (g y) over all y, as a tuple (not a scalar at order 1)
            gather = itemgetter(*t[g]) if self.order > 1 else itemgetter(slice(0, 1))
            for x, row in enumerate(t):
                left, right = t[row[g]], gather(row)
                if left != right:
                    y = next(y for y, (a, b) in enumerate(zip(left, right)) if a != b)
                    raise ParseError(f"table is not associative at ({x},{g},{y})")

    def _find_generators(self) -> list:
        gens: list = []
        have = {self.identity}
        # prefer high-order elements: they close fast
        by_order = sorted(range(self.order), key=lambda x: -self.element_order(x))
        for x in by_order:
            if x in have:
                continue
            gens.append(x)
            have = self.closure(gens)
            if len(have) == self.order:
                break
        return gens

    # basic operations

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, a: int, by: int) -> int:
        return self.mul(self.mul(by, a), self.inv(by))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def closure(self, seed: Iterable[int]) -> set:
        """Subgroup generated by ``seed`` (BFS over right products; a finite
        sub-semigroup of a group is a subgroup)."""
        gens = sorted(set(seed))
        elems = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                z = self.table[x][g]
                if z not in elems:
                    elems.add(z)
                    frontier.append(z)
        return elems

    # structure

    def center(self) -> frozenset:
        """The elements that commute with every generator."""
        t = self.table
        return frozenset(x for x, row in enumerate(t)
                         if all(row[g] == t[g][x] for g in self.generators))

    def centralizer(self, subset: Iterable[int]) -> frozenset:
        """The elements that commute with every member of ``subset``, by
        brute force: the oracle of acceptance 02 (the centralizer theorem)."""
        subset = list(subset)
        return frozenset(
            g for g in range(self.order)
            if all(self.mul(g, k) == self.mul(k, g) for k in subset))

    def conjugacy_classes(self) -> list:
        """The orbits of x -> g x g^-1 over the generators g, sorted by
        (size, members).  They are the conjugacy classes: in a finite group
        every element is a product of generators, so an orbit closed under
        conjugation by each generator is closed under every conjugation."""
        t, inv = self.table, self.inverses
        conjugations = [[t[y][inv[g]] for y in t[g]] for g in self.generators]
        seen = [False] * self.order
        classes = []
        for x in range(self.order):
            if seen[x]:
                continue
            seen[x] = True
            orbit = [x]
            for y in orbit:  # grows while it is scanned: a BFS over the orbit
                for conj in conjugations:
                    z = conj[y]
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
            classes.append(frozenset(orbit))
        return sorted(classes, key=lambda c: (len(c), sorted(c)))

    def derived_subgroup(self) -> frozenset:
        """Normal closure of the commutators of generator pairs."""
        gens = self.generators or (self.identity,)
        comms = {self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))
                 for a in gens for b in gens}
        elems = self.closure(comms)
        frontier = list(elems)
        while frontier:
            x = frontier.pop()
            for g in gens:
                z = self.conj(x, g)
                if z not in elems:
                    new = self.closure(list(elems) + [z])
                    frontier.extend(new - elems)
                    elems = new
        return frozenset(elems)

    def subgroups(self) -> list:
        """All subgroups, as frozensets of element indices (order <= ~50).
        The subgroup census, product-decomposition and fix-by-null lemma
        tests read it."""
        singles = {frozenset(self.closure([x])) for x in range(self.order)}
        found = set(singles)
        frontier = list(singles)
        while frontier:
            sub = frontier.pop()
            for x in range(self.order):
                if x in sub:
                    continue
                bigger = frozenset(self.closure(list(sub) + [x]))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def normal_subgroups(self) -> list:
        """Exhaustive: unions of conjugacy classes that are subgroups."""
        classes = self.conjugacy_classes()
        id_class = next(c for c in classes if self.identity in c)
        others = [c for c in classes if c is not id_class]
        result = []
        for mask in range(1 << len(others)):
            members = set(id_class)
            for bit, cls in enumerate(others):
                if mask >> bit & 1:
                    members |= cls
            if self.order % len(members) != 0:
                continue
            ok = all(self.mul(a, b) in members for a in members for b in members)
            if ok:
                result.append(frozenset(members))
        return sorted(set(result), key=lambda s: (len(s), sorted(s)))

    def subgroup_table(self, subset: Iterable[int]) -> "FiniteGroup":
        """The subgroup on ``subset`` as a group of its own, for the
        equal-size normal-chain lemma tests."""
        elems = sorted(set(subset))
        index = {x: i for i, x in enumerate(elems)}
        table = [[index[self.mul(a, b)] for b in elems] for a in elems]
        return FiniteGroup(table, names=[self.names[x] for x in elems], check_axioms=False)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


# -- constructors ---------------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], names=["e"])


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ParseError(f"cyclic group order must be at least 1, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, names=[str(i) for i in range(n)], generators=[1 % n])


def symmetric_group(n: int) -> FiniteGroup:
    """Sym(n) on the permutations in ``all_perms(n)`` order, generated by the
    Coxeter transpositions (the identity for n <= 1)."""
    if n < 0:
        raise ParseError(f"symmetric group degree must be at least 0, got {n}")
    check(math.factorial(n), "group_order", "symmetric group order")
    return from_permutations([transposition(n, i, i + 1) for i in range(n - 1)]
                             or [identity_perm(n)])


def perm_name(p: tuple) -> str:
    cycles = [o for o in perm_orbits(p) if len(o) > 1]
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in o) + ")" for o in cycles)


def from_permutations(gens: Sequence[tuple]) -> FiniteGroup:
    """The permutation group generated by the given tuples."""
    n = len(gens[0])
    elems = {identity_perm(n)}
    frontier = [identity_perm(n)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = compose_perm(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[compose_perm(p, q)] for q in ordered] for p in ordered]
    return FiniteGroup(table, names=[perm_name(p) for p in ordered],
                       generators=[index[g] for g in gens], check_axioms=False)


def dihedral_square() -> FiniteGroup:
    """Symmetries of the square as permutations of its corners."""
    rot = (1, 2, 3, 0)
    flip = (3, 2, 1, 0)
    return from_permutations([rot, flip])


def quaternion_group() -> FiniteGroup:
    """Q8 as unit quaternions 1, -1, i, -i, j, -j, k, -k."""
    # encode q = (sign, axis) with axis in {1, i, j, k}
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul_axis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def decode(name):
        return (-1 if name.startswith("-") else 1, name.lstrip("-"))

    def encode(sign, axis):
        return ("-" if sign < 0 else "") + axis

    index = {n: i for i, n in enumerate(names)}
    table = []
    for a in names:
        row = []
        for b in names:
            sa, xa = decode(a)
            sb, xb = decode(b)
            s, x = mul_axis[(xa, xb)]
            row.append(index[encode(sa * sb * s, x)])
        table.append(row)
    return FiniteGroup(table, names=names)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {p: i for i, p in enumerate(pairs)}
    table = [[index[(g.mul(a, c), h.mul(b, d))] for (c, d) in pairs] for (a, b) in pairs]
    names = [f"({g.names[a]},{h.names[b]})" for (a, b) in pairs]
    return FiniteGroup(table, names=names, check_axioms=False)


def klein_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


# -- alternating subgroup and the Klein normal subgroup of Sym(4) ------------------


def alternating_subset(n: int) -> frozenset:
    """Indices of even permutations inside symmetric_group(n)."""
    perms = all_perms(n)
    return frozenset(i for i, p in enumerate(perms) if perm_sign(p) == 1)


def klein_subset_sym4() -> frozenset:
    """Indices of the Klein four-group inside symmetric_group(4)."""
    perms = all_perms(4)
    target = {identity_perm(4), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    return frozenset(i for i, p in enumerate(perms) if p in target)


# -- exact isomorphism search --------------------------------------------------------


def _invariants(g: FiniteGroup) -> tuple:
    """(invariant signature of g, the (order, class size) of each element),
    from one pass over the conjugacy classes."""
    classes = g.conjugacy_classes()
    orders = [g.element_order(x) for x in range(g.order)]
    class_size = {x: len(c) for c in classes for x in c}
    signature = (g.order, sorted(orders),
                 sorted((len(c), min(orders[x] for x in c)) for c in classes),
                 len(g.center()), len(g.derived_subgroup()))
    return signature, [(orders[x], class_size[x]) for x in range(g.order)]


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Optional[dict]:
    """Exact isomorphism search.  Returns an explicit index bijection or None.

    Each generator of g is sent to an element of h with the same (element
    order, class size); the first candidate tuple in ``itertools.product``
    order that extends to an injective homomorphism is reported, so the
    result is deterministic.  Images are extended by one pass over the
    subgroup their generators generate, in BFS order (right products by
    them), setting or checking phi(x g_i) = phi(x) images[i], and fail at
    the first conflicting product or repeated image.  A map that respects
    every such relation is a homomorphism (induction on word length), and
    an injective one between groups of equal order is a bijection.  The
    search is depth first: the images of g_0 ... g_{k-1} are extended on
    <g_0 ... g_{k-1}> before g_k gets one.  An isomorphism restricts there
    to exactly that map, so no completion of a failing prefix is tried.
    """
    check(g.order, "group_order", "isomorphism search order")
    if g.order != h.order:
        return None
    signature_g, elements_g = _invariants(g)
    signature_h, elements_h = (signature_g, elements_g) if h is g else _invariants(h)
    if signature_g != signature_h:
        return None

    gens = g.generators
    candidates = [[y for y in range(h.order) if elements_h[y] == elements_g[gen]]
                  for gen in gens]
    g_table, h_table = g.table, h.table

    def extend(images) -> Optional[dict]:
        phi = [None] * g.order
        used = [False] * h.order
        phi[g.identity], used[h.identity] = h.identity, True
        queue = [g.identity]
        for x in queue:  # grows while it is read: FIFO order
            row, h_row = g_table[x], h_table[phi[x]]
            for gen, image in zip(gens, images):
                y, z = row[gen], h_row[image]
                if phi[y] is None and not used[z]:
                    phi[y], used[z] = z, True
                    queue.append(y)
                elif phi[y] != z:
                    return None
        return {x: phi[x] for x in queue}

    def search(prefix: tuple) -> Optional[dict]:
        phi = extend(prefix)  # zip(gens, prefix) stops at the prefix
        if phi is None or len(prefix) == len(gens):
            return phi
        for image in candidates[len(prefix)]:
            phi = search(prefix + (image,))
            if phi is not None:
                return phi
        return None

    return search(())
