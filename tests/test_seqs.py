"""Marker-word generators: lengths, marker recursions, residue scanning,
Sturmian properties."""

from __future__ import annotations

import pytest

from stabdyn.codes import commutes_with_power, identity_code
from stabdyn.errors import InvalidArgumentError, StabdynError
from stabdyn.seqs import (check_example1_residues, check_example2_markers,
                          example1_marker, example1_word, example2_marker,
                          example2_structure, example2_word, find_occurrences,
                          marker_residues, sturmian_prefix)
from stabdyn.sft import full_shift, power_shift, words_of_length
from stabdyn.spectral import is_power_transitive


# -- scheme 1 ----------------------------------------------------------------

def test_example1_first_levels():
    assert example1_word(0) == ""
    assert example1_word(1) == "10"
    assert example1_word(2) == "10101000"


def test_example1_lengths_divisible():
    for level in range(1, 21):
        assert len(example1_word(level)) == level * 2 ** level
        assert len(example1_word(level)) % 2 ** level == 0


def test_example1_marker_recursion():
    for n in range(1, 19):
        assert example1_marker(n + 1) == example1_marker(n) + "0" * 2 ** n


def test_example1_residue_scan_small():
    report = check_example1_residues(1, depth=8)
    assert report.passes
    assert report.residue == 0
    assert report.occurrences == (0, 2, 4)


def test_example1_residues_pass():
    for n in range(1, 8):
        report = check_example1_residues(n)
        assert report.passes, n
        assert len(report.occurrences) > 1


def test_example1_adversarial_control_fails():
    # mixed residues: occurrences at 0 and 3
    report = marker_residues("10010", "10", 2)
    assert not report.passes
    assert report.residues == (0, 1)


def test_find_occurrences_counts_overlaps():
    assert find_occurrences("aaa", "aa") == (0, 1)


# -- Sturmian word -----------------------------------------------------------

def test_sturmian_prefix_start():
    assert sturmian_prefix(5) == "10110"


def test_sturmian_balance():
    word = sturmian_prefix(1000)
    for k in range(1, 13):
        counts = {sum(ch == "1" for ch in word[i:i + k])
                  for i in range(len(word) - k + 1)}
        assert max(counts) - min(counts) <= 1, k


def test_sturmian_factor_complexity():
    word = sturmian_prefix(1000)
    for k in range(1, 11):
        factors = {word[i:i + k] for i in range(len(word) - k + 1)}
        assert len(factors) == k + 1, k


# -- scheme 2 ------------------------------------------------------------------

def test_example2_level0():
    assert example2_word(0) == "aaa"


def test_example2_lengths():
    for level in range(0, 13):
        assert len(example2_word(level)) == 3 ** (level + 1)


def test_example2_level1_structure():
    b1 = example2_marker(1)
    assert b1 == "a" + sturmian_prefix(1) + "a" == "a1a"
    assert example2_word(1) == "aaa" + b1 + "aaa"


def test_example2_marker_lengths():
    for n in range(1, 8):
        assert len(example2_marker(n)) == 3 ** n


def test_example2_residues_pass():
    for n in range(1, 5):
        report = check_example2_markers(n)
        assert report.passes, n
        assert len(report.occurrences) > 1
        assert report.notes


def test_example2_structure_covers_marker_symbols():
    level = 4
    word = example2_word(level)
    blocks, markers = example2_structure(level)
    allowed = set()
    for p in blocks:
        allowed.update(range(p, p + 3))
    for p, lvl in markers:
        allowed.update(range(p, p + 3 ** lvl))
    for i, ch in enumerate(word):
        if ch == "a":
            assert i in allowed
    # and the structural offsets really carry their words
    for p, lvl in markers:
        assert word[p:p + 3 ** lvl] == example2_marker(lvl)
    for p in blocks:
        assert word[p:p + 3] == "aaa"


def test_example2_scans_to_the_requested_depth():
    # depths past len(A_{n+2}) grow the level instead of being capped
    for n, depth in ((1, 100000), (2, 50), (1, 81), (1, 82)):
        report = check_example2_markers(n, depth)
        assert report.depth == depth
        assert report.passes


@pytest.mark.parametrize("check", [check_example1_residues, check_example2_markers])
def test_negative_depth_is_rejected(check):
    # word[:depth] would cut a negative depth from the end of the word
    with pytest.raises(ValueError, match="depth must be >= 0"):
        check(1, -5)


def test_example2_adversarial_control_fails():
    # shuffling a marker into a shifted slot mixes the residues
    word = example2_word(3)
    b1 = example2_marker(1)
    adversarial = word + "0" + b1
    report = marker_residues(adversarial, b1, 3)
    assert not report.passes


def test_markers_reject_bad_levels():
    with pytest.raises(ValueError):
        example1_marker(0)
    with pytest.raises(ValueError):
        check_example2_markers(0)


@pytest.mark.parametrize("call, message", [
    (lambda: example1_marker(0), "marker level must be >= 1"),
    (lambda: example1_word(-1), "level must be >= 0"),
    (lambda: sturmian_prefix(-1), "length must be >= 0"),
    (lambda: example2_marker(0), "marker level must be >= 1"),
    (lambda: example2_word(-1), "level must be >= 0"),
    (lambda: check_example1_residues(0), "marker level must be >= 1"),
    (lambda: check_example2_markers(1, -1), "depth must be >= 0"),
    (lambda: commutes_with_power(identity_code(full_shift(2)), 0), "power must be >= 1"),
    (lambda: is_power_transitive(full_shift(2), 0), "power must be >= 1"),
    (lambda: power_shift(full_shift(2), 0), "power must be >= 1"),
    (lambda: words_of_length(full_shift(2), -1), "length must be >= 0"),
], ids=["example1-marker", "example1-word", "sturmian-prefix", "example2-marker",
        "example2-word", "marker-level", "depth", "commutes-with-power", "power-transitive",
        "power-shift", "words-of-length"])
def test_bad_arguments_raise_a_package_error_that_is_a_value_error(call, message):
    with pytest.raises(InvalidArgumentError, match=message) as info:
        call()
    assert isinstance(info.value, StabdynError) and isinstance(info.value, ValueError)
