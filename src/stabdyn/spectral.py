"""Rational eigenvalues, cyclic partitions, Smale decompositions and the
transitivity of shift powers, for irreducible edge shifts.

For an irreducible SFT the rational eigenvalue set equals the set of divisors
of the period, and cyclic almost-partitions coincide with genuine cyclic
partitions.  ``is_power_transitive`` decides transitivity of sigma^n by the
formula gcd(n, period) = 1; the tests cross-check it against strong
connectivity of the n-th power shift.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import (InvalidArgumentError, NoSuchEigenvalueError,
                     ReducibleShiftError, VerificationError)
from .records import Record
from .sft import (EdgeShift, bfs_levels, derived_shift, is_irreducible, is_mixing,
                  period)


def divisors(n: int) -> tuple:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def rational_eigs(sft: EdgeShift) -> frozenset:
    """Eig(sigma): q >= 1 such that e^{2 pi i / q} is an eigenvalue.

    For an irreducible edge shift this is exactly the divisor set of the
    period.
    """
    return frozenset(divisors(period(sft)))


class CyclicPartition(Record):
    """Ordered state classes realizing the partition (T^k X_m : 0 <= k < m).

    ``class_of[v]`` is the class of state v: its BFS level mod m from the base
    state (the lowest identifier), so the base state always lies in class 0.
    X_m is the union of cylinders over edges leaving class-0 states.
    """
    FIELDS = ("size", "class_of", "shift")  # class_of: state index -> class index
    __slots__ = FIELDS + ("symbol_classes",)

    def __init__(self, size: int, class_of: tuple, shift: EdgeShift):
        super().__init__(size, class_of, shift)
        self.set_uncompared(symbol_classes={})  # code shift -> (symbol -> class)

    @property
    def classes(self) -> tuple:
        """Each class as a frozenset of state indices, in class order."""
        return tuple(frozenset(v for v, c in enumerate(self.class_of) if c == k)
                     for k in range(self.size))

    def to_document(self) -> dict:
        states = self.shift.states
        return {
            "schema_version": 1,
            "size": self.size,
            "classes": [sorted(states[i] for i in cls) for cls in self.classes],
            "base_class_index": 0,
            "matrix_hash": self.shift.matrix_hash(),
        }


def cyclic_partition(sft: EdgeShift, m: int) -> CyclicPartition:
    """The canonical size-m cyclic partition (BFS levels mod m)."""
    p = period(sft)
    if m < 1 or p % m != 0:
        raise NoSuchEigenvalueError(f"{m} is not a rational eigenvalue (period {p})")
    return CyclicPartition(m, tuple(level % m for level in bfs_levels(sft)), sft)


def exhaustive_partition_search(sft: EdgeShift, m: int) -> Optional[tuple]:
    """Test oracle: search all class assignments (base state fixed in class 0)
    for a size-m cyclic state partition.  Returns the classes or None."""
    if not is_irreducible(sft):
        raise ReducibleShiftError("partition search requires irreducibility")
    n = sft.n_states
    if m == 1:
        return (frozenset(range(n)),)
    edges = [(i, j) for i, row in enumerate(sft.adjacency) for j, a in enumerate(row) if a]
    for assign_rest in itertools.product(range(m), repeat=n - 1):
        assign = (0,) + assign_rest
        if len(set(assign)) != m:
            continue
        if all((assign[u] + 1) % m == assign[v] for u, v in edges):
            return tuple(frozenset(v for v in range(n) if assign[v] == k)
                         for k in range(m))
    return None


# -- Smale decomposition ----------------------------------------------------


class SmaleDecomposition(Record):
    """Splitting into period-many cyclically permuted clopen pieces, each
    mixing for the corresponding shift power.  The component presents the
    class-0 piece under sigma^period; its ``parent_paths`` map each component
    symbol to the parent path it stands for."""
    __slots__ = FIELDS = ("period", "component_shift")


def class_restriction(sft: EdgeShift, part: CyclicPartition, power: int) -> EdgeShift:
    """Edge shift presenting (X_0, sigma^power restricted), where X_0 is the
    class-0 piece of ``part``.  Requires part.size | power so length-``power``
    paths from class 0 return to class 0."""
    if power % part.size != 0:
        raise NoSuchEigenvalueError("power must be a multiple of the partition size")
    return derived_shift(sft, sorted(part.classes[0]), power)


def smale(sft: EdgeShift) -> SmaleDecomposition:
    """m = period; the component presents (X_m, sigma^m restricted) and is
    mixing."""
    m = period(sft)
    part = cyclic_partition(sft, m)
    component = class_restriction(sft, part, m)
    if not is_mixing(component):
        raise VerificationError("Smale component is not mixing")
    return SmaleDecomposition(m, component)


# -- transitivity of powers ---------------------------------------------------


def is_power_transitive(sft: EdgeShift, n: int) -> bool:
    """True iff sigma^n acts transitively, i.e. gcd(n, period) = 1."""
    if n < 1:
        raise InvalidArgumentError("power must be >= 1")
    return math.gcd(n, period(sft)) == 1
