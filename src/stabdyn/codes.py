"""Sliding block codes on edge shifts: evaluation, composition, canonical
forms, invertibility, exhaustive enumeration of radius-bounded automorphisms
of a presentation, and the induced action on cyclic partitions.

A code is a total rule on the admissible (2r+1)-words of its domain, applied
at every position.  The rule is stored as a tuple of output symbols indexed
by window id: ``rule[k]`` is the output on the k-th word of
``domain.language(2r+1)``.  ``images`` applies a code to a whole language by
gather, and ``factor_key`` gives its canonical form.  Elements of
Aut(sigma^n), including those that do not commute with sigma itself, are
codes over the n-th power-shift presentation, so a stage of Aut(sigma^n) is
enumerated over ``power_shift(sft, n)`` and new elements are built by
``compose``.  Codes between the pieces of a disjoint union (``Piece``) lift to
codes on the whole (``lift``) and back (``restrict``).  The ``WordMap`` helper
evaluates point maps on finite words and tabulates them as codes.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import eq
from typing import Iterable, Optional, Sequence

from .budgets import default_budget
from .errors import (BudgetExceededError, ImageSplitsClassesError,
                     InvalidArgumentError, ShiftMismatchError, WordError)
from .records import Record
from .sft import (EdgeShift, Word, derived_shift, gather, is_irreducible,
                  strongly_connected_components, word_to_str)
from .spectral import CyclicPartition

class SlidingBlockCode:
    """A radius-r local rule from one edge shift to another: ``rule[k]`` is
    the output symbol on the k-th word of ``domain.language(2r+1)``."""

    def __init__(self, domain: EdgeShift, codomain: EdgeShift, radius: int,
                 rule: Sequence, validate: bool = True):
        self.domain = domain
        self.codomain = codomain
        self.radius = radius
        self.rule = tuple(rule)
        self._canonical_key = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        width = 2 * self.radius + 1
        if len(self.rule) != len(self.domain.language(width)):
            raise WordError("rule is not total on the admissible (2r+1)-words")
        tails, heads = self.codomain.tables.tails, self.codomain.tables.heads
        for out in self.rule:
            if out not in tails:
                raise WordError(f"output symbol {out!r} not in the codomain alphabet")
        left, right = self.domain.subwindow_ids(width + 1, width)
        if not all(map(eq, map(heads.__getitem__, gather(self.rule, left)),
                       map(tails.__getitem__, gather(self.rule, right)))):
            raise WordError("rule image of an admissible word is inadmissible")

    # -- evaluation ------------------------------------------------------

    def apply(self, word: Word) -> Word:
        """The image of an admissible domain word: one output symbol per
        window, so 2r symbols shorter than ``word``."""
        width = 2 * self.radius + 1
        if len(word) < width:
            raise WordError(f"word of length {len(word)} shorter than window {width}")
        word = tuple(word)
        if not self.domain.is_admissible(word):
            raise WordError(f"word {word!r} is not admissible")
        ids = self.domain.word_ids(width)
        return tuple(self.rule[ids[word[i:i + width]]]
                     for i in range(len(word) - width + 1))

    # -- canonical form ----------------------------------------------------

    def canonical_key(self):
        """(minimal radius, canonical rule outputs), by ``factor_key``;
        equality of canonical keys is equality as maps on the shift space."""
        if self._canonical_key is None:
            self._canonical_key = factor_key(self.domain, self.radius, self.rule)
        return self._canonical_key

    def canonical(self) -> "SlidingBlockCode":
        r2, outputs = self.canonical_key()
        if r2 == self.radius:
            return self
        code = SlidingBlockCode(self.domain, self.codomain, r2, outputs, validate=False)
        code._canonical_key = self._canonical_key  # the same map: the same key
        return code

    @property
    def canonical_radius(self) -> int:
        return self.canonical_key()[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SlidingBlockCode)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.canonical_key() == other.canonical_key())

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.canonical_key()))

    def is_identity(self) -> bool:
        if self.domain != self.codomain:
            return False
        r2, outputs = self.canonical_key()
        return r2 == 0 and all(w[0] == out for w, out
                               in zip(self.domain.language(1), outputs))

    def to_document(self) -> dict:
        r2, outputs = self.canonical_key()
        return {
            "schema_version": 1,
            "radius": r2,
            "rule": [[word_to_str(w), out] for w, out
                     in zip(self.domain.language(2 * r2 + 1), outputs)],
            "shift_hash": self.domain.matrix_hash(),
        }

    def __repr__(self) -> str:
        return f"SlidingBlockCode(radius={self.radius}, |rule|={len(self.rule)})"


# -- basic constructors ------------------------------------------------------


def identity_code(sft: EdgeShift) -> SlidingBlockCode:
    return SlidingBlockCode(sft, sft, 0, [w[0] for w in sft.language(1)], validate=False)


def shift_code(sft: EdgeShift, k: int) -> SlidingBlockCode:
    """sigma^k as a code of radius |k| (the identity for k = 0)."""
    r = abs(k)
    if r == 0:
        return identity_code(sft)
    rule = [w[r + k] for w in sft.language(2 * r + 1)]
    return SlidingBlockCode(sft, sft, r, rule, validate=False)


def images(code: SlidingBlockCode, length: int) -> list:
    """``[code.apply(w) for w in code.domain.language(length)]``, as a gather:
    each output offset takes the rule through its column of
    ``subwindow_ids``, and the columns are zipped into image words."""
    width = 2 * code.radius + 1
    if length < width:
        raise WordError(f"length {length} shorter than window {width}")
    return list(zip(*[gather(code.rule, column)
                      for column in code.domain.subwindow_ids(length, width)]))


def _image_ids(code: SlidingBlockCode, length: int, ids: dict):
    """``map(ids.__getitem__, images(code, length))`` as a lazy stream: a
    consumer that stops early computes no further image word."""
    rule = code.rule.__getitem__
    columns = code.domain.subwindow_ids(length, 2 * code.radius + 1)
    return map(ids.__getitem__, zip(*[map(rule, column) for column in columns]))


def regroup(ids: Iterable, values: Sequence, size: int) -> Optional[list]:
    """The list t with t[i] = v for every pair (i, v) of zip(ids, values),
    or None when one index in range(size) gets two different values or none.

    One pass over the pairs, and ``ids`` may be any iterable (consumed
    once): the pass stops at the first index that gets a second, different
    value, so a lazy ``ids`` is computed no further than that conflict."""
    table: dict = {}
    if (not all(map(eq, map(table.setdefault, ids, values), values))
            or len(table) != size):
        return None
    return [table[i] for i in range(size)]


def factor_key(sft: EdgeShift, radius: int, outputs: Sequence) -> tuple:
    """The canonical key of the radius-``radius`` rule over ``sft`` whose
    output on the k-th word of ``sft.language(2*radius+1)`` is outputs[k]:
    (r2, outputs2) for the least r2 such that the rule factors through the
    centred (2*r2+1)-subword, with the factored rule's outputs in the order
    of ``sft.language(2*r2+1)``."""
    width = 2 * radius + 1
    for r2 in range(radius):
        rule = regroup(sft.subwindow_ids(width, 2 * r2 + 1)[radius - r2], outputs,
                       len(sft.language(2 * r2 + 1)))
        if rule is not None:
            return r2, tuple(rule)
    return radius, tuple(outputs)  # a rule factors through its own radius


def compose(f: SlidingBlockCode, g: SlidingBlockCode) -> SlidingBlockCode:
    """f after g, with radius r = r_f + r_g: the rule sends each (2r+1)-word w
    to f's output on g's image of w.  One gather of f's rule through a
    column that holds, for each word of ``g.domain.language(2r+1)``, the id
    of g's image in ``f.domain.language(2r_f+1)`` (``_image_ids``).  The
    column depends only on g and r_f, so it is kept, as a list of ints, in
    the tables of g's domain under (g.codomain.tables, g.radius, g.rule,
    r_f) and computed once per key.  Use ``canonical()`` to shrink the
    radius."""
    if g.codomain != f.domain:
        raise ShiftMismatchError("codomain of g differs from domain of f")
    r = f.radius + g.radius
    memo, key = g.domain.tables.image_ids, (g.codomain.tables, g.radius, g.rule, f.radius)
    column = memo.get(key)
    if column is None:
        ids = f.domain.word_ids(2 * f.radius + 1)
        column = memo[key] = list(_image_ids(g, 2 * r + 1, ids))
    return SlidingBlockCode(g.domain, f.codomain, r, gather(f.rule, column), validate=False)


def commutes_with_power(code: SlidingBlockCode, n: int) -> bool:
    """Word-level check that code . sigma^n = sigma^n . code.

    Both sides are block maps of window 2r+n+1, so agreement on all admissible
    words of that length decides equality.  Any total positional rule passes,
    so on a sliding block code this is a consistency check.
    """
    if n < 1:
        raise InvalidArgumentError("power must be >= 1")
    for w in code.domain.language(2 * code.radius + n + 1):
        if code.apply(w[n:]) != code.apply(w)[n:]:
            return False
    return True


# -- invertibility -------------------------------------------------------------


def find_inverse(code: SlidingBlockCode, inv_radius: int) -> Optional[SlidingBlockCode]:
    """The unique candidate inverse of radius <= inv_radius, or None.

    Built by center recovery: for every admissible (2(R+r)+1)-word u of the
    domain, the image word f(u) (length 2R+1) must determine the center of u.
    One conflict already proves that no radius-R inverse exists, so the
    image words are computed lazily, in language order, and the search stops
    at the first image word that meets a second centre (``regroup``).  Image
    words that never occur mean f is not surjective.  The candidate g then
    satisfies g.f = id by construction, since it sends the image of every
    such u to u's centre.  f.g = id is verified word by word (``_inverts``).
    """
    r, R = code.radius, inv_radius
    length = 2 * (R + r) + 1
    ids = code.codomain.word_ids(2 * R + 1)
    centres = regroup(_image_ids(code, length, ids),
                      code.domain.subwindow_ids(length, 1)[R + r], len(ids))
    if centres is None:
        return None
    try:
        candidate = SlidingBlockCode(code.codomain, code.domain, R, gather(
            [u[0] for u in code.domain.language(1)], centres))
    except WordError:
        return None
    return candidate if _inverts(code, candidate) else None


def _inverts(code: SlidingBlockCode, candidate: SlidingBlockCode) -> bool:
    """``compose(code, candidate).is_identity()`` without the composite: code's
    output on candidate's image of each word of ``candidate.domain`` of the
    composite's width is compared with the word's centre symbol, lazily,
    up to the first mismatch, so no column is kept and no key computed."""
    half = code.radius + candidate.radius
    width = 2 * half + 1
    symbols = [w[0] for w in candidate.domain.language(1)]
    outputs = map(code.rule.__getitem__,
                  _image_ids(candidate, width, code.domain.word_ids(2 * code.radius + 1)))
    centres = candidate.domain.subwindow_ids(width, 1)[half]
    return all(map(eq, outputs, map(symbols.__getitem__, centres)))


# -- enumeration ----------------------------------------------------------------


def enumerate_conjugacies(domain: EdgeShift, codomain: EdgeShift, radius: int) -> list:
    """All radius-``radius`` codes domain -> codomain that carry the language
    into the language and have a two-sided inverse of radius <= 2 * radius,
    sorted canonically.

    Exhaustive: a DFS over rule tables checks each window pair of an
    admissible (2r+2)-word once, when its later window gets a symbol, and
    every complete table goes to ``find_inverse`` at radius 2r, which decides
    exactly whether the code has an inverse of that radius.  No output symbol
    fills more than ``_balance_cap`` slots, the count it has in every
    conjugacy, so the cap prunes no conjugacy.  Rules and node
    count are memoized in the tables that ``domain`` shares with the equal
    presentations of its input, by (codomain adjacency, radius); a repeat
    raises BudgetExceededError exactly when the deterministic search would.
    """
    limit = default_budget().enum_nodes
    memo, key = domain.tables.stages, (codomain.adjacency, radius)
    if key in memo:
        rules, nodes = memo[key]
        if nodes > limit:
            raise _over_nodes(limit)
        return [SlidingBlockCode(domain, codomain, radius, r, validate=False) for r in rules]
    width = 2 * radius + 1
    size = len(domain.language(width))
    # pairs[k]: the (left, right) window pairs whose later window is k
    pairs: list = [[] for _ in range(size)]
    for li, ri in zip(*domain.subwindow_ids(width + 1, width)):
        pairs[max(li, ri)].append((li, ri))

    alphabet, heads, tails = codomain.alphabet, codomain.tables.heads, codomain.tables.tails
    out = [None] * size
    cap, count = _balance_cap(domain, codomain, radius), dict.fromkeys(alphabet, 0)
    found: list = []
    nodes = 0

    def assign(pos: int):
        nonlocal nodes
        if pos == size:
            candidate = SlidingBlockCode(domain, codomain, radius, out, validate=False)
            if find_inverse(candidate, 2 * radius) is not None:
                found.append(candidate)
            return
        for symbol in alphabet:
            nodes += 1
            if nodes > limit:
                raise _over_nodes(limit)
            if count[symbol] == cap:
                continue
            out[pos] = symbol
            if not all(heads[out[li]] == tails[out[ri]] for li, ri in pairs[pos]):
                continue
            count[symbol] += 1
            assign(pos + 1)
            count[symbol] -= 1

    assign(0)
    found.sort(key=SlidingBlockCode.canonical_key)
    memo[key] = (tuple(code.rule for code in found), nodes)
    return found


def _over_nodes(limit: int) -> BudgetExceededError:
    """The error of a rule search stopped at its first node past the cap."""
    return BudgetExceededError(f"rule enumeration exceeded {limit} nodes",
                               "enum_nodes", limit, limit + 1, "stage")


def _balance_cap(domain: EdgeShift, codomain: EdgeShift, radius: int) -> Optional[int]:
    """The number of rule slots that each output symbol of a conjugacy
    fills, or None when it is not forced.  At radius 0 it is 1: a symbol
    bijection.  When both graphs are irreducible with every row and column
    sum equal to one k, a conjugacy carries the measure of maximal entropy
    to the measure of maximal entropy (Coven & Paul 1974), which gives each
    of the |E_X| k^(2r) slots mass 1/(|E_X| k^(2r)) and each of the |E_Y|
    symbols mass 1/|E_Y|: so |E_X| k^(2r) / |E_Y| slots per symbol."""
    if radius == 0:
        return 1
    sums = {sum(line) for sft in (domain, codomain)
            for line in (*sft.adjacency, *zip(*sft.adjacency))}
    slots, symbols = len(domain.language(2 * radius + 1)), len(codomain.alphabet)
    regular = len(sums) == 1 and is_irreducible(domain) and is_irreducible(codomain)
    return slots // symbols if regular and slots % symbols == 0 else None


class Piece:
    """A piece of a presentation that is a disjoint union: its own presentation
    ``shift`` and ``symbols``, each of its edge symbols -> the union's symbol
    for the same edge (``inverse`` maps back), for ``lift`` and ``restrict``.
    ``key``, the union symbols in the order of the piece's alphabet, is the
    piece's value: it fixes which union windows the piece's windows are."""

    def __init__(self, shift: EdgeShift, symbols: dict):
        self.shift, self.symbols = shift, symbols
        self.inverse = {u: s for s, u in symbols.items()}
        self.key = tuple(map(symbols.__getitem__, shift.alphabet))
        self._window_ids: dict = {}

    @staticmethod
    def derived(union: EdgeShift, states: Sequence[int]) -> "Piece":
        """The piece on ``states``, which no edge of ``union`` leaves,
        presented by ``derived_shift`` at step 1."""
        shift = derived_shift(union, states, 1)
        return Piece(shift, {sym: path for sym, (path,) in shift.parent_paths.items()})

    def window_ids(self, union: EdgeShift, width: int) -> list:
        """The window id in ``union.language(width)`` of each word of
        ``shift.language(width)``; computed once per width."""
        if width not in self._window_ids:
            ids, symbols = union.word_ids(width), self.symbols.__getitem__
            self._window_ids[width] = [ids[tuple(map(symbols, w))]
                                       for w in self.shift.language(width)]
        return self._window_ids[width]


def _scatter(union: EdgeShift, pieces: Sequence[Piece], width: int) -> list:
    """The position of each window of ``union.language(width)`` among the
    pieces' width-windows concatenated in piece order.  A plain list of ints
    kept in the union's tables by (width, the pieces' keys) and computed
    once per key."""
    key = (width, *[piece.key for piece in pieces])
    position = union.tables.scatters.get(key)
    if position is None:
        position = union.tables.scatters[key] = [0] * len(union.language(width))
        for pos, k in enumerate(itertools.chain.from_iterable(
                piece.window_ids(union, width) for piece in pieces)):
            position[k] = pos
    return position


def _outputs(src: Piece, dst: Piece, code: SlidingBlockCode, radius: int) -> list:
    """``code``'s part of a lift: its rule widened to ``radius`` through its
    centred sub-windows, in the union symbols of ``dst``."""
    r = code.radius
    widened = code.rule if r == radius else gather(
        code.rule, src.shift.subwindow_ids(2 * radius + 1, 2 * r + 1)[radius - r])
    return list(map(dst.symbols.__getitem__, widened))


def lift(union: EdgeShift, pieces: Sequence[Piece], perm: Sequence[int],
         codes: Sequence[SlidingBlockCode]) -> SlidingBlockCode:
    """The code over ``union`` that acts on pieces[i] as codes[i], a code from
    pieces[i] to pieces[perm[i]].  Its radius is the largest of the codes';
    each code is widened to it (``_outputs``).  The rule is the pieces'
    outputs, concatenated in piece order, gathered once through
    ``_scatter``."""
    radius = max(code.radius for code in codes)
    outputs = itertools.chain.from_iterable(
        _outputs(src, pieces[j], code, radius) for src, j, code in zip(pieces, perm, codes))
    rule = gather(list(outputs), _scatter(union, pieces, 2 * radius + 1))
    return SlidingBlockCode(union, union, radius, rule, validate=False)


def restrict(code: SlidingBlockCode, src: Piece, dst: Piece) -> SlidingBlockCode:
    """``code``, a code over a union that maps the piece ``src`` into the
    piece ``dst``, read on ``src`` as a code from ``src`` to ``dst``."""
    ids = src.window_ids(code.domain, 2 * code.radius + 1)
    rule = map(dst.inverse.__getitem__, gather(code.rule, ids))
    return SlidingBlockCode(src.shift, dst.shift, code.radius, rule, validate=False)


def _disjoint_components(sft: EdgeShift) -> Optional[list]:
    """When the graph is a disjoint union of strongly connected pieces,
    return them, in ascending order of their least state; otherwise None."""
    comps = strongly_connected_components(sft)
    if len(comps) <= 1 or any(not set(sft.tables.succ[i]) <= set(comp)
                              for comp in comps for i in comp):
        return None  # one piece, or a transient edge: search directly
    return [Piece.derived(sft, comp) for comp in comps]


class AutomorphismSet(Record):
    """A radius-bounded stage of Aut(sigma^n), where n is the step of the
    shift's provenance (1 for a shift that is not derived): the radius-<= r
    codes that have a two-sided inverse of radius <= 2r.

    Every member is a genuine automorphism, but the set is only a slice of
    the group, not the whole group; it need not be closed under composition:
    ``product(i, j)`` may leave the stage, and then ``key_index.get`` of its
    canonical key is None.  A lifted stage keeps its ``pieces``, and the
    piece permutation of each element in ``perms``: elements[k] maps
    pieces[i] onto pieces[perms[k][i]].  Both are None on a searched stage,
    and neither takes part in comparisons.
    """
    FIELDS = ("shift", "radius", "elements")
    _products: dict  # (i, j) -> the canonical elements[i] . elements[j], for ``product``

    def __init__(self, shift: EdgeShift, radius: int, elements: tuple,
                 pieces: Optional[tuple] = None, perms: Optional[tuple] = None):
        super().__init__(shift, radius, elements)
        self.set_uncompared(pieces=pieces, perms=perms, _products={})

    @property
    def inv_radius(self) -> int:
        """The radius bound on the members' inverses."""
        return 2 * self.radius

    @functools.cached_property
    def inverses(self) -> tuple:
        """The inverse of each element, of radius <= 2r."""
        return tuple(find_inverse(code, 2 * self.radius) for code in self.elements)

    @functools.cached_property
    def key_index(self) -> dict:
        """The index of each element, by its canonical key."""
        return {code.canonical_key(): k for k, code in enumerate(self.elements)}

    def product(self, i: int, j: int) -> SlidingBlockCode:
        """elements[i] . elements[j], canonical; each pair is composed once."""
        if (i, j) not in self._products:
            self._products[i, j] = compose(self.elements[i], self.elements[j]).canonical()
        return self._products[i, j]

    @property
    def power(self) -> int:
        """n for a stage of Aut(sigma^n): a power shift presents sigma^n."""
        return 1 if self.shift.provenance is None else self.shift.provenance.step

    def __len__(self) -> int:
        return len(self.elements)

    def to_document(self) -> dict:
        return {
            "schema_version": 1,
            "shift_hash": self.shift.matrix_hash(),
            "power": self.power,
            "radius": self.radius,
            "inv_radius": self.inv_radius,
            "count": len(self.elements),
            "truncation": "radius-bounded stage of Aut(shift^power), not the full group",
            "elements": [c.to_document() for c in self.elements],
        }


def enumerate_automorphisms(sft: EdgeShift, radius: int) -> AutomorphismSet:
    """The stage of radius ``radius``: all radius-<= r rules that preserve
    the language and have an inverse of radius <= 2r.

    The result is sorted canonically; enumeration order never affects the
    output.  For a stage of Aut(sigma^n), pass ``power_shift(sft, n)``.  On a
    disjoint union of components each member permutes the components, so the
    stage is lifted from the (memoized) conjugacy sets between components,
    each member's canonical key and piece permutation read off its piece
    codes; BudgetExceededError is raised before any member is built when
    there are more than the ``enum_nodes`` cap of them.
    """
    if radius < 0:
        raise InvalidArgumentError(f"radius must be >= 0, got {radius}")
    pieces = _disjoint_components(sft)
    if pieces is None:
        return AutomorphismSet(sft, radius, tuple(enumerate_conjugacies(sft, sft, radius)))
    # each piece code, once per target piece: its canonical radius and form,
    # and its part of a lift (``_outputs``)
    k = len(pieces)
    rows = {(i, j): [(code.canonical_radius, code.canonical(),
                      _outputs(pieces[i], pieces[j], code, radius))
                     for code in enumerate_conjugacies(pieces[i].shift, pieces[j].shift, radius)]
            for i in range(k) for j in range(k)}
    count = sum(math.prod(len(rows[i, j]) for i, j in enumerate(perm))
                for perm in itertools.permutations(range(k)))
    limit = default_budget().enum_nodes
    if count > limit:
        raise BudgetExceededError(f"lifted stage of {count} codes exceeds {limit} nodes",
                                  "enum_nodes", limit, count, "stage")
    scatter = _scatter(sft, pieces, 2 * radius + 1)
    elements, perms = [], []
    for perm in itertools.permutations(range(k)):
        for combo in itertools.product(*[rows[i, j] for i, j in enumerate(perm)]):
            radii, canons, outputs = zip(*combo)
            code = SlidingBlockCode(sft, sft, radius, gather(
                list(itertools.chain.from_iterable(outputs)), scatter), validate=False)
            # a union window and its centred sub-windows lie in one piece: the
            # canonical form is the lift of the codes' canonical forms
            low = code if max(radii) == radius else lift(sft, pieces, perm, canons)
            code._canonical_key = (low.radius, low.rule)
            elements.append(code)
            perms.append(perm)
    order = sorted(range(len(elements)), key=lambda e: elements[e]._canonical_key)
    return AutomorphismSet(sft, radius, tuple(map(elements.__getitem__, order)),
                           tuple(pieces), tuple(map(perms.__getitem__, order)))


# -- action on cyclic partitions ---------------------------------------------------


def _symbol_classes(shift: EdgeShift, part: CyclicPartition) -> dict:
    """Each edge symbol of ``shift`` -> the class of its tail state, built once
    per (shift, partition).  ``shift`` is the partition's shift, or derived
    from it by a step that is 1 or a multiple of the partition size."""
    if shift == part.shift:
        state_map, step = range(shift.n_states), 1
    elif shift.provenance is None or shift.provenance.parent != part.shift:
        raise ShiftMismatchError("partition belongs to a different shift")
    else:
        state_map, step = shift.provenance.states, shift.provenance.step
    if step != 1 and step % part.size != 0:
        raise ShiftMismatchError(
            f"power step {step} is not a multiple of the partition size {part.size}")
    if shift not in part.symbol_classes:
        part.symbol_classes[shift] = {symbol: part.class_of[state_map[tail]]
                                      for symbol, tail in shift.tables.tails.items()}
    return part.symbol_classes[shift]


def partition_action(code: SlidingBlockCode, part: CyclicPartition) -> tuple:
    """The permutation pi with code(class-k points) inside class pi(k),
    verified on every rule window; raises ImageSplitsClassesError when a class
    is torn apart (a precondition violation)."""
    if code.domain != code.codomain:
        raise ShiftMismatchError("partition action needs an endomorphism")
    clazz, m = _symbol_classes(code.domain, part), part.size
    mapping: dict = {}
    r = code.radius
    for w, out in zip(code.domain.language(2 * r + 1), code.rule):
        c_in = clazz[w[r]]
        c_out = clazz[out]
        if mapping.setdefault(c_in, c_out) != c_out:
            raise ImageSplitsClassesError(
                f"class {c_in} maps into classes {mapping[c_in]} and {c_out}")
    if set(mapping) != set(range(m)) or set(mapping.values()) != set(range(m)):
        raise ImageSplitsClassesError("induced class map is not a permutation")
    return tuple(mapping[k] for k in range(m))


# -- word maps: point maps evaluated on finite words ----------------------------


class WordMap(Record):
    """A point map evaluated on finite words.

    ``fn`` maps an admissible domain word covering positions [0, L) to the
    image point's word on positions [left_loss, L - right_loss); converting to
    a block code tabulates the rule on centered windows.
    """
    __slots__ = FIELDS = ("domain", "codomain", "left_loss", "right_loss", "fn")

    def apply(self, word: Word) -> Word:
        out = self.fn(tuple(word))
        expected = len(word) - self.left_loss - self.right_loss
        if len(out) != expected:
            raise WordError(f"word map produced {len(out)} symbols, expected {expected}")
        return out

    def to_code(self) -> SlidingBlockCode:
        r = max(self.left_loss, self.right_loss)
        rule = [self.apply(w)[r - self.left_loss] for w in self.domain.language(2 * r + 1)]
        return SlidingBlockCode(self.domain, self.codomain, r, rule)
