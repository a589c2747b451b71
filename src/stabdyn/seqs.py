"""Recursive marker-word generators and their combinatorial checkers.

Two finite-depth constructions over small alphabets:

* scheme 1 ("10..0" markers): b_n = "1" + "0"*(2^n - 1), A_0 empty,
  A_n = A_{n-1} A_{n-1} b_n.  Occurrences of b_n in the limit word share one
  residue class mod 2^n.

* scheme 2 (Sturmian-filled markers over {0, 1, a}): b_n = "a" + F[1..3^n-2]
  + "a" for a fixed Sturmian word F, A_0 = "aaa", A_{n+1} = A_n b_{n+1} A_n.
  The recursion index is chosen so that len(A_n) = 3^(n+1) holds exactly;
  occurrences of b_n share one residue class mod 3^n.
"""

from __future__ import annotations

import math
from typing import Optional

from .budgets import check
from .errors import InvalidArgumentError
from .records import Record

MARKER_SYMBOL = "a"


# -- scheme 1 -----------------------------------------------------------------


def example1_marker(n: int) -> str:
    """b_n = 1 followed by 2^n - 1 zeros."""
    if n < 1:
        raise InvalidArgumentError("marker level must be >= 1")
    return "1" + "0" * (2 ** n - 1)


def example1_word(level: int) -> str:
    """A_level with A_0 = "" and A_n = A_{n-1} A_{n-1} b_n; len = level*2^level."""
    if level < 0:
        raise InvalidArgumentError("level must be >= 0")
    check(2 ** (level + 2), "word_count", "scheme-1 word length")
    word = ""
    for n in range(1, level + 1):
        word = word + word + example1_marker(n)
    return word


# -- Sturmian mechanical word ----------------------------------------------------


def _mechanical_floor(i: int) -> int:
    """floor(i * (sqrt(5)-1)/2), exactly, via integer square roots."""
    return (math.isqrt(5 * i * i) - i) // 2


def sturmian_symbol(i: int) -> int:
    """s(i) = floor((i+1) a) - floor(i a) with a the golden-ratio slope."""
    return _mechanical_floor(i + 1) - _mechanical_floor(i)


def sturmian_prefix(length: int) -> str:
    """The mechanical word s(1) s(2) ... s(length); starts "10110"."""
    if length < 0:
        raise InvalidArgumentError("length must be >= 0")
    check(length, "word_count", "Sturmian prefix length")
    return "".join(str(sturmian_symbol(i)) for i in range(1, length + 1))


# -- scheme 2 ----------------------------------------------------------------------


def example2_marker(n: int) -> str:
    """b_n = a F[1..3^n-2] a, length exactly 3^n."""
    if n < 1:
        raise InvalidArgumentError("marker level must be >= 1")
    return MARKER_SYMBOL + sturmian_prefix(3 ** n - 2) + MARKER_SYMBOL


def example2_word(level: int) -> str:
    """A_level with A_0 = "aaa" and A_{n+1} = A_n b_{n+1} A_n.

    The recursion index is pinned by the length law len(A_n) = 3^(n+1),
    which is asserted on every level.
    """
    if level < 0:
        raise InvalidArgumentError("level must be >= 0")
    check(3 ** (level + 2), "word_count", "scheme-2 word length")
    word = MARKER_SYMBOL * 3
    for n in range(level):
        word = word + example2_marker(n + 1) + word
        assert len(word) == 3 ** (n + 2)
    return word


def example2_structure(level: int):
    """(a0_blocks, markers): start offsets of the A_0 blocks, and
    (offset, marker_level) pairs, straight from the recursion."""
    blocks = [0]
    markers = []
    length = 3
    for n in range(level):
        marker_len = 3 ** (n + 1)
        offset = length + marker_len
        markers = markers + [(length, n + 1)] + [(p + offset, lvl) for p, lvl in markers]
        blocks = blocks + [p + offset for p in blocks]
        length = 2 * length + marker_len
    return sorted(blocks), sorted(markers)


# -- occurrence scanning -----------------------------------------------------------


class ResidueReport(Record):
    __slots__ = FIELDS = ("scheme", "marker_level", "modulus", "depth", "occurrences",
                          "residues", "passes", "residue", "notes")
    DEFAULTS = {"notes": ()}

    def to_document(self) -> dict:
        return {
            "schema_version": 1,
            "scheme": self.scheme,
            "marker_level": self.marker_level,
            "modulus": self.modulus,
            "depth": self.depth,
            "occurrence_count": len(self.occurrences),
            "occurrences_head": list(self.occurrences[:32]),
            "residues": list(self.residues),
            "residue": self.residue,
            "passes": self.passes,
            "notes": list(self.notes),
        }


def find_occurrences(text: str, pattern: str) -> tuple:
    """All (possibly overlapping) occurrence indices of pattern in text."""
    hits = []
    at = text.find(pattern)
    while at >= 0:
        hits.append(at)
        at = text.find(pattern, at + 1)
    return tuple(hits)


def marker_residues(text: str, marker: str, modulus: int, scheme: str = "custom",
                    marker_level: int = 0, notes: tuple = ()) -> ResidueReport:
    """Scan for marker occurrences; pass iff all indices share one residue."""
    occurrences = find_occurrences(text, marker)
    residues = tuple(sorted({i % modulus for i in occurrences}))
    passes = len(residues) <= 1
    residue = residues[0] if len(residues) == 1 else None
    return ResidueReport(scheme, marker_level, modulus, len(text), occurrences,
                         residues, passes, residue, notes)


def _prefix(word_of, n: int, level: int, depth: Optional[int]) -> tuple:
    """(level, word): the scheme's A_level for a marker-level-n check, grown
    level by level until it reaches ``depth`` and then cut to it (uncut when
    depth is None)."""
    if n < 1:
        raise InvalidArgumentError("marker level must be >= 1")
    if depth is not None and depth < 0:
        raise InvalidArgumentError("depth must be >= 0")
    word = word_of(level)
    while depth is not None and len(word) < depth:
        level += 1
        word = word_of(level)
    return level, word[:depth]


def check_example1_residues(n: int, depth: Optional[int] = None) -> ResidueReport:
    """Occurrences of b_n in the scheme-1 limit word, scanned to ``depth``
    (default: len(A_{n+3}))."""
    _, word = _prefix(example1_word, n, n + 3, depth)
    return marker_residues(word, example1_marker(n), 2 ** n,
                           scheme="example1", marker_level=n)


_SCHEME2_NOTE = ("recursion index pinned by the length law len(A_n) = 3^(n+1): "
                 "A_{n+1} = A_n b_{n+1} A_n",)


def check_example2_markers(n: int, depth: Optional[int] = None) -> ResidueReport:
    """Occurrences of b_n in the scheme-2 word, scanned to ``depth``
    (default: len(A_{n+2})), share a residue mod 3^n, and every marker-symbol
    position lies on the A_0 grid or inside a marker."""
    level, word = _prefix(example2_word, n, n + 2, depth)
    report = marker_residues(word, example2_marker(n), 3 ** n,
                             scheme="example2", marker_level=n,
                             notes=_SCHEME2_NOTE)
    blocks, markers = example2_structure(level)
    allowed = set()
    for p in blocks:
        allowed.update(range(p, p + 3))
    for p, lvl in markers:
        allowed.update(range(p, p + 3 ** lvl))
    stray = [i for i, ch in enumerate(word) if ch == MARKER_SYMBOL and i not in allowed]
    if stray:
        return ResidueReport(*report.values[:6], False, None,  # the failed report
                             report.notes + (f"marker symbol off-grid at {stray[:5]}",))
    return report
