"""Edge shifts: subshifts of finite type presented by nonnegative integer
adjacency matrices on a finite directed multigraph.

Edges are the alphabet.  A derived presentation (a power shift, a class
restriction, a component) records its provenance: parent shift, parent states
and step.  All values are immutable after construction and every operation is
a pure function, so the module is safe for concurrent use.  Intake reads
every matrix cell in C-level passes only (parse, check, essential part, copy),
then only the nonzero cells.  What one adjacency determines lives in one
tables object, ``EdgeShift.tables``, made once per (input presentation,
adjacency) and shared by every presentation derived from that input with that
adjacency (a step-1 derivation on all states also shares the adjacency rows):
successor lists, then, on first read, the edge tables (alphabet, out-edges,
tails, heads) and the SCCs and BFS levels, and per key the languages, word
indices, sub-window tables, automorphism stages, the image-id columns of
``codes.compose`` and the scatter tables of ``codes.lift``.  So a shift costs
its matrix, not its edge count, until something reads its edges.  Each
language level is the level below it extended, already in lexicographic
order, and its words carry integer prefix and suffix links, through which the
sub-window tables are gathered (``_Tables.extend``, ``EdgeShift.subwindow_ids``).
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import accumulate, chain, compress, repeat
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .budgets import check
from .errors import (EmptyShiftError, InvalidArgumentError, IterationCapError, ParseError,
                     ReducibleShiftError, ShiftMismatchError, VerificationError)
from .records import Record

# Symbols for small alphabets stay single characters so words print compactly.
_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
ENTROPY_TOL, CHARPOLY_TOL = 1e-12, 1e-13  # power iteration gap, root bracket
ENTROPY_ITERATION_CAP = 200_000  # power iteration steps before IterationCapError

Word = tuple  # tuple of edge symbols (strings)


def _edge_symbols(count: int) -> list:
    if count <= len(_CHARS):
        return list(_CHARS[:count])
    return [f"e{i}" for i in range(count)]


class Provenance(Record):
    """Where a derived presentation comes from: its state k is the parent
    state ``states[k]``, and each of its edges is a length-``step`` path of
    ``parent`` between those states."""
    __slots__ = FIELDS = ("parent", "states", "step")


class _Tables:
    """What one adjacency determines (see the module docstring).  ``succ`` is
    built, and every state checked essential, at construction; the
    properties are built on first read.  Callers must not modify them.

    Language level L is ``languages[L]``; ``links[L]`` holds three int lists
    over its words in order: each word's head state, its prefix id (the
    index of w[:-1] in level L-1) and its suffix id (the index of w[1:] in
    level L-1).  ``counts[L]`` is the head-state count vector of level L."""

    __slots__ = ("succ", "adjacency", "languages", "links", "counts", "word_ids",
                 "subwindows", "stages", "image_ids", "scatters", "_edges", "_graph",
                 "_moves")

    def __init__(self, states: tuple, adjacency: tuple):
        self.succ, self.adjacency = _successors(adjacency), adjacency
        entered = set(chain.from_iterable(self.succ))
        for i, nbrs in enumerate(self.succ):
            if not nbrs or i not in entered:
                raise ParseError(f"state {states[i]!r} is not essential; normalize first")
        self.languages, self.links, self.counts = {0: ((),)}, {}, [[1] * len(states)]
        self.word_ids, self.subwindows = {}, {}
        self.stages, self.image_ids, self.scatters = {}, {}, {}
        self._edges = self._graph = self._moves = None

    def word_count(self, length: int) -> int:
        """The number of words of ``length`` >= 1, sum(A^length), as the sum
        of the head-state count vector c_L = c_{L-1} A (c_0 all ones)."""
        columns = list(zip(*self.adjacency))
        while len(self.counts) <= length:
            last = self.counts[-1]
            self.counts.append([sum(map(mul, last, col)) for col in columns])
        return sum(self.counts[length])

    def _build_moves(self) -> tuple:
        """Per state, its out-edges in symbol-string order: (the 1-tuples of
        their symbols, their heads, their ids in level 1, their ranks
        0..d-1, their count d)."""
        first = {s: i for i, (s,) in enumerate(self.languages[1])}
        out = [sorted(edges) for edges in self.out_edges]
        self._moves = ([tuple((s,) for s in edges) for edges in out],
                       [tuple(map(self.heads.__getitem__, edges)) for edges in out],
                       [tuple(map(first.__getitem__, edges)) for edges in out],
                       [tuple(range(len(edges))) for edges in out],
                       list(map(len, out)))
        return self._moves

    def extend(self, length: int) -> tuple:
        """Build language level ``length`` >= 1 and its links from level
        ``length - 1``, which must be built: each word of level L-1, in
        order, extended by the out-edges of its head in symbol-string order.
        By induction the level is in lexicographic order.  The suffix of
        w.e is w[1:].e, child number rank(e) of w[1:] (same head as w)."""
        if length == 1:
            alphabet = sorted(self.alphabet)
            words = tuple((s,) for s in alphabet)
            zeros = [0] * len(words)
            self.links[1] = (list(map(self.heads.__getitem__, alphabet)), zeros, zeros)
        else:
            order, ends, first, ranks, deg = self._moves or self._build_moves()
            prev, (heads, _, suffix) = self.languages[length - 1], self.links[length - 1]
            words = tuple([w + e for w, h in zip(prev, heads) for e in order[h]])
            if length == 2:  # w[1:] is the empty word: w[1:].e is level-1 word e
                suffixes = [j for h in heads for j in first[h]]
            else:  # children of level L-2 word j start at starts[j] in level L-1
                starts = list(accumulate(map(deg.__getitem__, self.links[length - 2][0]),
                                         initial=0))
                suffixes = [starts[j] + r for j, h in zip(suffix, heads) for r in ranks[h]]
            self.links[length] = ([e for h in heads for e in ends[h]],
                                  [i for i, h in enumerate(heads) for _ in ranks[h]],
                                  suffixes)
        self.languages[length] = words
        return words

    def _build_edges(self) -> tuple:
        """(alphabet, out_edges, tails, heads).  Edges run in (tail, head,
        parallel-index) order, read off the nonzero cells only: state i's
        out-edges are symbols starts[i]..starts[i+1]."""
        sums = list(map(sum, self.adjacency))
        starts = list(accumulate(sums, initial=0))
        symbols = _edge_symbols(starts[-1])
        self._edges = (tuple(symbols),
                       tuple(tuple(symbols[a:b]) for a, b in zip(starts, starts[1:])),
                       dict(zip(symbols, chain.from_iterable(
                           map(repeat, range(len(sums)), sums)))),
                       dict(zip(symbols, chain.from_iterable(
                           repeat(j, row[j]) for row, nbrs in zip(self.adjacency, self.succ)
                           for j in nbrs))))
        return self._edges

    def _build_graph(self) -> tuple:
        """(sccs, levels): SCCs sorted, in ascending order of minimum; levels
        are BFS distances from state 0 (-1 when unreachable)."""
        succ, n = self.succ, len(self.succ)
        pred = _successors(tuple(zip(*self.adjacency)))
        remaining, comps = set(range(n)), []
        while remaining:
            s = min(remaining)
            comp = _reachable(succ, s) & _reachable(pred, s)
            comps.append(tuple(sorted(comp)))
            remaining -= comp
        levels, queue = [0] + [-1] * (n - 1), [0]
        for u in queue:  # grows while it is scanned: a BFS
            for v in succ[u]:
                if levels[v] < 0:
                    levels[v] = levels[u] + 1
                    queue.append(v)
        self._graph = (tuple(comps), tuple(levels))
        return self._graph

    alphabet = property(lambda self: (self._edges or self._build_edges())[0])
    out_edges = property(lambda self: (self._edges or self._build_edges())[1])
    tails = property(lambda self: (self._edges or self._build_edges())[2])
    heads = property(lambda self: (self._edges or self._build_edges())[3])
    sccs = property(lambda self: (self._graph or self._build_graph())[0])
    levels = property(lambda self: (self._graph or self._build_graph())[1])


class EdgeShift:
    """An essential directed multigraph presenting an SFT.

    ``states`` are identifier strings; ``adjacency[i][j]`` counts parallel
    edges from state i to state j.  The adjacency must be a square matrix of
    nonnegative integers: ``make_edge_shift`` checks outside input, and
    derived presentations compute theirs.  The edge alphabet is derived from
    the adjacency in (tail, head, parallel-index) order, on first read.

    ``provenance`` is set when this shift presents a power, a class
    restriction or a component of another shift (see ``derived_shift``);
    each edge symbol then maps back to a path (a word) of the parent shift.
    """

    def __init__(self, states: Sequence[str], adjacency: Sequence[Sequence[int]],
                 normalization_log: Sequence[str] = (),
                 provenance: Optional[Provenance] = None):
        states = tuple(map(str, states))
        if not states:
            raise EmptyShiftError("empty graph")
        self.states = states
        self.adjacency = tuple(map(tuple, adjacency))
        self.normalization_log = tuple(normalization_log)
        self.provenance = provenance
        self._path_tables = None
        # adjacency -> tables: one dict per input, shared by what derives from it
        self._shared = {} if provenance is None else provenance.parent._shared
        self.tables = self._shared.get(self.adjacency)
        if self.tables is None:
            self.tables = self._shared[self.adjacency] = _Tables(states, self.adjacency)

    alphabet = property(lambda self: self.tables.alphabet)
    out_edges = property(lambda self: self.tables.out_edges)

    # -- provenance and language ------------------------------------------

    def _path_maps(self) -> tuple:
        """(edge symbol -> parent path, parent path -> edge symbol), built on
        first use.  Parallel edges take their paths in sorted word order."""
        if self._path_tables is None:
            prov = self.provenance
            if prov is None:
                raise ShiftMismatchError("shift has no parent presentation")
            pos = {s: k for k, s in enumerate(prov.states)}
            found = sorted((pos[tail], pos[head], word) for tail, word, head
                           in _paths_from(prov.parent, prov.states, prov.step))
            to_path = {sym: word for sym, (_, _, word) in zip(self.alphabet, found)}
            to_edge = {word: sym for sym, word in to_path.items()}
            self._path_tables = (to_path, to_edge)
        return self._path_tables

    @property
    def parent_paths(self) -> Optional[Mapping]:
        """Read-only map from each edge symbol to the parent path it encodes,
        or None when this shift has no parent."""
        return None if self.provenance is None else MappingProxyType(self._path_maps()[0])

    def to_parent(self, word: Word) -> Word:
        """The parent path that a word of this presentation encodes."""
        return tuple(chain.from_iterable(map(self._path_maps()[0].__getitem__, word)))

    def from_parent(self, path: Word) -> Word:
        """The word of this presentation that encodes a parent path (a tuple)
        whose length is a multiple of the step."""
        edge_of = self._path_maps()[1]
        step = self.provenance.step
        return tuple(edge_of[path[i:i + step]] for i in range(0, len(path), step))

    def language(self, length: int) -> tuple:
        """The admissible words of ``length`` in lexicographic order, built
        once per length by ``words_of_length``."""
        words = self.tables.languages.get(length)
        return words if words is not None else words_of_length(self, length)

    def word_ids(self, length: int) -> dict:
        """Each word of ``language(length)`` -> its index there, computed
        once per length.  Callers must not modify it."""
        memo = self.tables.word_ids
        if length not in memo:
            words = self.language(length)
            memo[length] = dict(zip(words, range(len(words))))
        return memo[length]

    def subwindow_ids(self, width: int, sub: int) -> tuple:
        """One column per offset k in [0, width - sub]: column k lists, for
        every word w of ``language(width)`` in order, the index of w[k:k+sub]
        in ``language(sub)``.  Computed once per (width, sub), with no word
        read: (sub, sub) is the identity column, and each column of (w, sub)
        but the last is the same column of (w - 1, sub) gathered through the
        prefix links of level w; the last is the last column of (w - 1, sub)
        gathered through the suffix links.  The steps start from the widest
        table of this ``sub`` already kept, and only (width, sub) is kept."""
        memo = self.tables.subwindows
        table = memo.get((width, sub))
        if table is None:
            if not 0 < sub <= width:
                raise ParseError(f"sub-window {sub} does not fit in width {width}")
            self.language(width)
            start = max((w for w, s in memo if s == sub and w < width), default=sub)
            table = memo.get((start, sub)) or (tuple(range(len(self.language(sub)))),)
            for w in range(start + 1, width + 1):
                _, prefix, suffix = self.tables.links[w]
                table = (*[gather(column, prefix) for column in table],
                         gather(table[-1], suffix))
            memo[width, sub] = table
        return table

    # -- basic accessors -------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    def tail(self, symbol: str) -> int:
        return self.tables.tails[symbol]

    def head(self, symbol: str) -> int:
        return self.tables.heads[symbol]

    def follows(self, a: str, b: str) -> bool:
        """True when edge b may follow edge a (head of a = tail of b)."""
        return self.tables.heads[a] == self.tables.tails[b]

    def is_admissible(self, word: Word) -> bool:
        tails = self.tables.tails
        return all(w in tails for w in word) and all(map(self.follows, word, word[1:]))

    def matrix_hash(self) -> str:
        doc = {"states": list(self.states), "adjacency": [list(r) for r in self.adjacency]}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"EdgeShift(states={self.states!r}, adjacency={self.adjacency!r})"

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, EdgeShift) and self.states == other.states
                                 and self.adjacency == other.adjacency)

    def __hash__(self) -> int:
        return hash((self.states, self.adjacency))


# -- construction and parsing -------------------------------------------


def _essential_part(states: Sequence[str], adjacency: Sequence[Sequence[int]]):
    """Iteratively drop states without outgoing or incoming edges."""
    states, adj, removed = list(states), adjacency, []
    while states:
        essential = [bool(sum(row) and sum(column)) for row, column in zip(adj, zip(*adj))]
        if all(essential):
            break
        removed += [s for s, kept in zip(states, essential) if not kept]
        keep = [i for i, kept in enumerate(essential) if kept]
        states = [states[i] for i in keep]
        adj = [[adj[i][j] for j in keep] for i in keep]
    return states, adj, removed


def make_edge_shift(states: Sequence[str], adjacency: Sequence[Sequence[int]]) -> EdgeShift:
    """Check the matrix (square, of nonnegative integers) and the state
    identifiers, normalize to the essential subgraph and build the shift."""
    n = len(states)
    if len(adjacency) != n or any(len(row) != n for row in adjacency):
        raise ParseError("adjacency matrix is not square of size |states|")
    cells = list(chain.from_iterable(adjacency))
    if set(map(type, cells)) - {int} or min(cells, default=0) < 0:
        bad = next(a for a in cells if type(a) is not int or a < 0)
        raise ParseError(f"adjacency entries must be nonnegative integers, got {bad!r}")
    if len(set(map(str, states))) != n:
        raise ParseError("state identifiers are not distinct")
    kept, adj, removed = _essential_part(states, adjacency)
    if not kept:
        raise EmptyShiftError("graph is empty after removing non-essential states")
    log = tuple(f"removed non-essential state {s}" for s in removed)
    return EdgeShift(kept, adj, normalization_log=log)


def parse_edge_shift(text: str) -> EdgeShift:
    """Parse matrix text: rows split on "/" or newlines, entries on spaces."""
    text = text.strip()
    if not text:
        raise ParseError("empty input")
    if text.lstrip().startswith("{"):
        return edge_shift_from_document(json.loads(text))
    rows = [r for chunk in text.split("/") for r in chunk.splitlines()]
    rows = [r.strip() for r in rows if r.strip()]
    matrix = []
    for r in rows:
        try:
            matrix.append(list(map(int, r.split())))
        except ValueError as exc:
            raise ParseError(f"non-integer entry in row {r!r}") from exc
    widths = {len(r) for r in matrix}
    if len(widths) != 1 or widths != {len(matrix)}:
        raise ParseError("matrix is not square")
    states = [str(i) for i in range(len(matrix))]
    return make_edge_shift(states, matrix)


def edge_shift_from_document(doc: dict) -> EdgeShift:
    try:
        states = doc["states"]
        adjacency = doc["adjacency"]
    except (KeyError, TypeError) as exc:
        raise ParseError("document must contain 'states' and 'adjacency'") from exc
    if not (isinstance(states, list) and isinstance(adjacency, list)
            and all(isinstance(row, list) for row in adjacency)):
        raise ParseError("'states' must be a list and 'adjacency' a list of rows")
    return make_edge_shift([str(s) for s in states], adjacency)


def full_shift(k: int) -> EdgeShift:
    """The full shift on k symbols: one state, k self-loops."""
    return make_edge_shift(["0"], [[k]])


# -- integer matrix helpers (exact) ---------------------------------------


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_pow(a, n: int):
    """a^n by binary powering, with no product by the identity and no square
    beyond the highest bit of n (a^1 costs no multiplication)."""
    size = len(a)
    result = None
    base = [list(r) for r in a]
    while n:
        if n & 1:
            result = base if result is None else mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    if result is None:
        return [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    return result


# -- connectivity, period, mixing -----------------------------------------


def _successors(adjacency) -> tuple:
    """Each state's distinct successors in ascending order (its predecessors
    when given the transposed adjacency).  They are read off the nonzero
    entries by ``compress``, so parallel edges cost nothing (a power shift
    can have hundreds of thousands of them)."""
    return tuple(map(tuple, map(compress, repeat(range(len(adjacency))), adjacency)))


def _reachable(nbrs, start: int) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def strongly_connected_components(sft: EdgeShift) -> list:
    """SCCs as sorted lists of state indices, in ascending order of minimum."""
    return [list(comp) for comp in sft.tables.sccs]


def is_irreducible(sft: EdgeShift) -> bool:
    """True iff the underlying digraph is strongly connected."""
    return len(sft.tables.sccs) == 1


def bfs_levels(sft: EdgeShift) -> list:
    """Each state's BFS distance from state 0 (-1 when unreachable)."""
    return list(sft.tables.levels)


def period(sft: EdgeShift) -> int:
    """gcd of all cycle lengths; computed from BFS level differences."""
    if not is_irreducible(sft):
        raise ReducibleShiftError("period requires an irreducible edge shift")
    levels = sft.tables.levels
    return math.gcd(*(levels[u] + 1 - levels[v]
                      for u, nbrs in enumerate(sft.tables.succ) for v in nbrs)) or 1


def period_by_cycles(sft: EdgeShift) -> int:
    """Test oracle: gcd of the lengths of all simple cycles (exhaustive DFS)."""
    if not is_irreducible(sft):
        raise ReducibleShiftError("period requires an irreducible edge shift")
    succ = sft.tables.succ
    g = 0
    for root in range(sft.n_states):
        # simple paths from root using states >= root only (canonical cycles)
        stack = [(root, [root])]
        while stack:
            u, path = stack.pop()
            for v in succ[u]:
                if v < root:
                    continue
                if v == root:
                    g = math.gcd(g, len(path))
                elif v not in path:
                    stack.append((v, path + [v]))
    return g if g else 1


def is_mixing(sft: EdgeShift) -> bool:
    return is_irreducible(sft) and period(sft) == 1


# -- entropy ---------------------------------------------------------------


class EntropyResult(Record):
    __slots__ = FIELDS = ("log_value", "perron_value", "iterations")


def _perron_irreducible(matrix):
    """Perron value of an irreducible nonnegative matrix by float power
    iteration on A + I, to Collatz-Wielandt bounds within relative ENTROPY_TOL.
    Each row sum is the sequential IEEE adds ((t0 + t1) + t2) ... over the
    row's nonzero entries and the diagonal in column order, the same bits on
    every interpreter.  Column k < depth, the narrowest row's length, gathers
    every row's k-th term, and only columns holding a coefficient other than
    1.0 multiply; the terms of wider rows past depth (`tail`, in row then
    column order) are added in place, w[i] += c v[j].  That continues each
    row's fold in column order, and c * x == x for c == 1.0, so the bits are
    those of a dense row sum.  Cost per step: nnz(A + I) multiply-adds.

    A step scans all n ratios w_i/v_i only when ra and rb, the ratios at the
    argmin and argmax of the last scan, pass the test.  This is exact: the scan
    makes the same divisions, so lo <= min(ra, rb) and hi >= max(ra, rb); IEEE
    rounding is monotone, so fl(hi - lo) >= |ra - rb| and fl(TOL lo) <=
    fl(TOL min(ra, rb)); so a step the pretest rejects fails the full test."""
    n = len(matrix)
    rows = [[(j, float(row[j]) + (1.0 if i == j else 0.0))
             for j in sorted({i, *compress(range(n), row)})]
            for i, row in enumerate(matrix)]
    depth = min(map(len, rows))
    cols = []
    for k in range(depth):
        idx, coef = zip(*(row[k] for row in rows))
        get = itemgetter(*idx) if n > 1 else itemgetter(slice(0, 1))  # a list, not a scalar
        cols.append((get, None if set(coef) == {1.0} else coef))
    tail = [(i, j, c) for i, row in enumerate(rows) for j, c in row[depth:]]
    v = [1.0] * n
    a = b = 0
    for it in range(1, ENTROPY_ITERATION_CAP + 1):
        w = None
        for get, coef in cols:
            t = get(v) if coef is None else map(mul, coef, get(v))
            w = t if w is None else map(add, w, t)
        w = list(w)
        for i, j, c in tail:
            w[i] += c * v[j]
        ra, rb = w[a] / v[a], w[b] / v[b]
        if abs(ra - rb) <= ENTROPY_TOL * min(ra, rb):
            ratios = [x / y for x, y in zip(w, v)]
            lo, hi = min(ratios), max(ratios)
            if hi - lo <= ENTROPY_TOL * lo:
                return (lo + hi) / 2.0 - 1.0, it
            a, b = ratios.index(lo), ratios.index(hi)
        top = max(w)
        v = [x / top for x in w]
    raise IterationCapError(f"power iteration did not converge in {ENTROPY_ITERATION_CAP} steps")


def entropy(sft: EdgeShift) -> EntropyResult:
    """log of the Perron eigenvalue of the adjacency matrix (to ENTROPY_TOL).

    For reducible shifts the value is the maximum over strongly connected
    components (the spectral radius of the full matrix).
    """
    comps, adj = sft.tables.sccs, sft.adjacency
    best = 0.0
    its = 0
    for comp in comps:
        sub = adj if len(comp) == len(adj) else [[adj[i][j] for j in comp] for i in comp]
        if len(comp) == 1 and sub[0][0] == 0:
            continue
        lam, it = _perron_irreducible(sub)
        its += it
        best = max(best, lam)
    if best <= 0.0:
        raise ReducibleShiftError("no cycles; entropy undefined")
    return EntropyResult(math.log(best), best, its)


def charpoly_coefficients(matrix) -> list:
    """Exact characteristic polynomial coefficients of an integer matrix by
    Faddeev-LeVerrier in integers, returned as [c_0, ..., c_n] with
    p(x) = sum c_k x^k, c_n = 1.  Step k forms M_k = A M_{k-1} + c_{n-k+1} I
    and c_{n-k} = -tr(A M_k) / k, a division that is exact for an integer
    matrix.  A M_k is a sparse left multiply: row i is the sum of a_ij M_k[j]
    over the nonzero a_ij, so a step costs n nnz(A) products, not n^3."""
    n = len(matrix)
    terms = [[(j, a) for j, a in enumerate(row) if a] for row in matrix]
    coeffs = [1]  # leading coefficient of x^n
    am = [[0] * n for _ in range(n)]  # A M_{k-1}, with M_0 = 0
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += coeffs[-1]
        prod = []
        for row in terms:
            acc = repeat(0, n)
            for j, a in row:
                acc = map(add, acc, am[j] if a == 1 else map(mul, repeat(a), am[j]))
            prod.append(list(acc))
        am = prod
        c, rest = divmod(-sum(am[i][i] for i in range(n)), k)
        if rest:
            raise VerificationError(f"charpoly step {k} did not divide exactly; "
                                    "the matrix is not an integer matrix")
        coeffs.append(c)
    return coeffs[::-1]


def perron_root_by_charpoly(matrix) -> float:
    """Independent oracle: largest real root of the exact characteristic
    polynomial, located by downward scan plus bisection to CHARPOLY_TOL."""
    coeffs = charpoly_coefficients(matrix)

    def p(x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + float(c)
        return acc

    hi = max(sum(row) for row in matrix) + 1.0
    x = hi
    step = 1.0 / 64.0
    while x > -step and p(x) > 0:
        x -= step
    lo, hi = x, x + step
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if p(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < CHARPOLY_TOL:
            break
    return (lo + hi) / 2.0


# -- derived presentations -------------------------------------------------


def _paths_from(sft: EdgeShift, starts, length: int) -> list:
    """Every path of ``length`` edges leaving a state in ``starts``, as
    (tail state, word, head state), by frontier expansion."""
    moves = [list(zip(out, map(sft.tables.heads.__getitem__, out))) for out in sft.out_edges]
    frontier = [(start, (), start) for start in starts]
    for _ in range(length):
        frontier = [(tail, word + (sym,), head)
                    for tail, word, at in frontier for sym, head in moves[at]]
    return frontier


def derived_shift(parent: EdgeShift, states: Sequence[int], step: int) -> EdgeShift:
    """Present (paths through ``states``, sigma^step): the states are the
    given parent states, in order, and the edges are the parent's length-step
    paths between them, so the adjacency is A^step restricted to ``states``.
    Every such path must stay inside ``states``."""
    states = tuple(states)
    an = parent.adjacency if step == 1 else mat_pow(parent.adjacency, step)
    chosen = set(states)
    if len(chosen) < parent.n_states and \
            any(an[i][j] for i in states for j in range(parent.n_states) if j not in chosen):
        raise VerificationError(f"length-{step} path escaped the chosen states")
    if states != tuple(range(parent.n_states)):
        an = [[an[i][j] for j in states] for i in states]
    return EdgeShift([parent.states[i] for i in states], an,
                     provenance=Provenance(parent, states, step))


def power_shift(sft: EdgeShift, n: int) -> EdgeShift:
    """Present (X, sigma^n): same states, edges are the length-n paths, each
    mapping back to the parent path it encodes (``parent_paths``)."""
    if n < 1:
        raise InvalidArgumentError("power must be >= 1")
    power = derived_shift(sft, range(sft.n_states), n)
    check(sum(map(sum, power.adjacency)), "path_count", "power shift path count")
    return power


# -- language enumeration ---------------------------------------------------


def words_of_length(sft: EdgeShift, length: int) -> tuple:
    """All admissible words of the given length, in lexicographic order.
    The level's exact count is checked against the budget first; a level
    not yet built is then built from the level below it, which this
    function builds first when it is missing (counts never decrease on an
    essential graph, so no lower level trips the cap first)."""
    if length < 0:
        raise InvalidArgumentError("length must be >= 0")
    if length == 0:
        return ((),)
    tables = sft.tables
    check(tables.word_count(length), "word_count", "word count")
    if length in tables.languages:
        return tables.languages[length]
    if length - 1 not in tables.languages:
        words_of_length(sft, length - 1)
    return tables.extend(length)


def gather(values: Sequence, ids: Sequence) -> tuple:
    """``tuple(values[i] for i in ids)``."""
    return itemgetter(*ids)(values) if len(ids) > 1 else tuple(values[i] for i in ids)


def word_to_str(word: Word) -> str:
    """Render a word; single-character alphabets join directly."""
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return ".".join(word)
