"""Sliding block codes: evaluation, composition, canonical forms, inverses,
automorphism enumeration, partition actions."""

from __future__ import annotations

import itertools
import random

import pytest

from stabdyn import codes
from stabdyn.cli import main
from stabdyn.errors import (BudgetExceededError, ImageSplitsClassesError,
                            ShiftMismatchError, WordError)
from stabdyn.codes import (SlidingBlockCode, WordMap,
                           commutes_with_power, compose,
                           enumerate_automorphisms, enumerate_conjugacies,
                           find_inverse, gather,
                           identity_code, images, partition_action,
                           restrict, shift_code)
from stabdyn.sft import (derived_shift, full_shift, make_edge_shift,
                         parse_edge_shift, power_shift,
                         strongly_connected_components)
from stabdyn.spectral import cyclic_partition
from stabdyn.verify import SplitInstance

from conftest import (SLOW_STAGES, aperiodic_three, cycle_graph,
                      doubled_cycle_period2, doubled_cycle_period3,
                      doubled_loop_period2, golden_mean)


def flip_code(sft):
    return SlidingBlockCode(sft, sft, 0, ["1", "0"])


def word(s: str):
    return tuple(s)


# -- evaluation -----------------------------------------------------------------

def test_apply_identity():
    code = identity_code(full_shift(2))
    assert code.apply(word("010")) == word("010")


def test_apply_flip():
    code = flip_code(full_shift(2))
    assert code.apply(word("0110")) == word("1001")


def test_apply_shift_by_one():
    # the true shift drops the left flank: windows (011),(110) -> (1,0)
    code = shift_code(full_shift(2), 1)
    assert code.apply(word("0110")) == word("10")
    # while the radius-1 rule selecting the window center is the identity
    # (its apply trims to the middle)
    padded_id = SlidingBlockCode(full_shift(2), full_shift(2), 1,
                                 [w[1] for w in full_shift(2).language(3)])
    assert padded_id.apply(word("0110")) == word("11")
    assert padded_id.canonical() == identity_code(full_shift(2))


def test_apply_rejects_short_or_bad_words():
    code = shift_code(full_shift(2), 1)
    with pytest.raises(WordError):
        code.apply(word("01"))
    gm = golden_mean()
    with pytest.raises(WordError):
        identity_code(gm).apply(("1", "1"))  # edge 1 (0->1) cannot repeat
    with pytest.raises(WordError):
        identity_code(gm).apply(("0", "x"))  # x is no edge of gm


# -- composition and canonical forms ------------------------------------------------

def test_compose_identity_neutral():
    f = flip_code(full_shift(2))
    ident = identity_code(full_shift(2))
    assert compose(ident, f) == f
    assert compose(f, ident) == f


def test_compose_flip_flip_is_identity():
    f = flip_code(full_shift(2))
    assert compose(f, f).canonical() == identity_code(full_shift(2))


def test_compose_shift_shift_is_shift_two():
    s = shift_code(full_shift(2), 1)
    ss = compose(s, s)
    assert ss.radius == 2
    assert ss.canonical_radius == 2
    assert ss == shift_code(full_shift(2), 2)


def test_compose_shift_with_inverse_cancels():
    s = shift_code(full_shift(2), 1)
    si = shift_code(full_shift(2), -1)
    assert compose(s, si).is_identity()
    assert compose(si, s).is_identity()


def _sample_codes(name, sft):
    """The radius-1 stage of ``sft`` (radius 0 for the slow stages) plus
    products of its last members, whose rules are wider than their
    canonical form."""
    stage = list(enumerate_automorphisms(sft, 0 if name in SLOW_STAGES else 1).elements)
    return stage + [compose(a, b) for a in stage[-2:] for b in stage[-2:]]


def test_images_is_apply_on_every_word(graph_catalog):
    for name, sft, _ in graph_catalog:
        for code in _sample_codes(name, sft):
            width = 2 * code.radius + 1
            for length in range(width, width + 4):
                assert images(code, length) == \
                    [code.apply(w) for w in sft.language(length)], name
    with pytest.raises(WordError):
        images(shift_code(full_shift(2), 1), 2)


def test_compose_is_the_per_word_definition(graph_catalog):
    for name, sft, _ in graph_catalog:
        codes = _sample_codes(name, sft)
        for f in codes[:4]:
            for g in codes[-4:]:
                h = compose(f, g)
                assert h.radius == f.radius + g.radius
                ids = sft.word_ids(2 * f.radius + 1)
                assert h.rule == tuple(f.rule[ids[g.apply(w)]]
                                       for w in sft.language(2 * h.radius + 1)), name


def test_compose_rejects_mismatched_shifts():
    with pytest.raises(ShiftMismatchError):
        compose(identity_code(full_shift(2)), identity_code(full_shift(3)))


def test_canonical_equality_is_chl_closure():
    # codes acting equally on every (2 max(r) + 1)-word have equal canonical form
    sft = full_shift(2)
    f = flip_code(sft)
    padded = SlidingBlockCode(sft, sft, 2, [{"0": "1", "1": "0"}[w[2]]
                                            for w in sft.language(5)])
    assert padded.canonical_radius == 0
    assert padded == f


# -- commutation ------------------------------------------------------------------

def test_codes_commute_with_all_powers():
    for code in [flip_code(full_shift(2)), shift_code(full_shift(2), 1),
                 identity_code(golden_mean())]:
        for n in range(1, 5):
            assert commutes_with_power(code, n)


def test_word_map_to_code_roundtrip():
    sft = golden_mean()
    s = shift_code(sft, 1)
    assert WordMap(sft, sft, 1, 1, s.apply).to_code() == s


# -- inverses ---------------------------------------------------------------------

def test_code_rejects_a_rule_of_the_wrong_length():
    sft = full_shift(2)
    with pytest.raises(WordError):
        SlidingBlockCode(sft, sft, 1, ["0"] * 7)
    with pytest.raises(WordError):
        SlidingBlockCode(sft, sft, 0, ["0", "1", "0"])


def test_code_rejects_an_output_outside_the_codomain():
    sft = full_shift(2)
    with pytest.raises(WordError):
        SlidingBlockCode(sft, sft, 0, ["0", "2"])
    # a word-keyed dict of the right length gives its keys, which are words
    with pytest.raises(WordError):
        SlidingBlockCode(sft, sft, 0, {("0",): "1", ("1",): "0"})


def test_code_rejects_an_inadmissible_image():
    # golden mean: edge 0 is the loop at state 0, edge 1 goes 0 -> 1 and
    # edge 2 returns 1 -> 0; sending 0 -> 1 and fixing 1, 2 maps the
    # admissible 00 to the inadmissible 11
    gm = golden_mean()
    assert gm.language(1) == (("0",), ("1",), ("2",))
    with pytest.raises(WordError):
        SlidingBlockCode(gm, gm, 0, ["1", "1", "2"])
    SlidingBlockCode(gm, gm, 0, ["0", "1", "2"])  # the identity passes


def test_symbol_map_code_needs_a_total_mapping():
    # a radius-0 code is a symbol map: total on the alphabet, into it
    sft = full_shift(3)
    with pytest.raises(WordError):
        SlidingBlockCode(sft, sft, 0, ["1", "0"])
    with pytest.raises(WordError):
        SlidingBlockCode(sft, sft, 0, ["1", "2", "3"])
    assert SlidingBlockCode(sft, sft, 0, ["1", "2", "0"]).rule == ("1", "2", "0")


def test_find_inverse_involution():
    f = flip_code(full_shift(2))
    assert find_inverse(f, 0) == f


def test_find_inverse_shift():
    s = shift_code(full_shift(2), 1)
    inv = find_inverse(s, 2)
    assert inv == shift_code(full_shift(2), -1)


def test_find_inverse_rejects_constant():
    sft = full_shift(2)
    const = SlidingBlockCode(sft, sft, 0, ["0", "0"])
    assert find_inverse(const, 2) is None


def test_find_inverse_rejects_xor():
    # x_i -> x_i + x_{i+1} mod 2 is onto but two-to-one; no diamonds exist,
    # so only center recovery can reject it
    sft = full_shift(2)
    rule = [str((int(w[1]) + int(w[2])) % 2) for w in sft.language(3)]
    xor = SlidingBlockCode(sft, sft, 1, rule)
    for R in range(0, 4):
        assert find_inverse(xor, R) is None


def _regroup_reference(ids, values, size):
    """The set/dict definition of ``regroup``: build every pair, then
    compare sizes."""
    pairs = set(zip(ids, values))
    table = dict(pairs)
    if len(table) != len(pairs) or len(table) != size:
        return None
    return [table[i] for i in range(size)]


def test_regroup_is_the_set_definition_on_lists_and_one_shot_iterators():
    cases = [([], [], 0), ([], [], 1), ([0], ["a"], 1),
             ([2, 0, 1], ["c", "a", "b"], 3),
             ([1, 0, 1, 0], ["b", "a", "b", "a"], 2),  # repeats that agree
             ([0, 1, 0], ["a", "b", "c"], 2),  # a conflicting index
             ([0, 2], ["a", "c"], 3),  # a missing index
             ([0, 1, 1, 0], ["a", "b", "b", "b"], 2)]  # a conflict after repeats
    rng = random.Random(0)
    for _ in range(200):
        size, n = rng.randint(0, 5), rng.randint(0, 12)
        ids = [rng.randrange(size) for _ in range(n)] if size else []
        cases.append((ids, [rng.choice("ab") for _ in ids], size))
    for ids, values, size in cases:
        expected = _regroup_reference(ids, values, size)
        assert codes.regroup(ids, values, size) == expected, (ids, values, size)
        assert codes.regroup(iter(ids), tuple(values), size) == expected, (ids, values)


def test_regroup_stops_at_the_first_conflict():
    ids = iter([0, 1, 0, 2, 3])
    assert codes.regroup(ids, ["a", "b", "c", "d", "e"], 4) is None
    assert list(ids) == [2, 3]  # nothing after the conflicting index is read


def _find_inverse_full_list(code, inv_radius):
    """``find_inverse`` with every image id computed before the set/dict
    ``regroup``: the route without the first-conflict exit."""
    r, R = code.radius, inv_radius
    length = 2 * (R + r) + 1
    ids = code.codomain.word_ids(2 * R + 1)
    centres = _regroup_reference([ids[v] for v in images(code, length)],
                                 code.domain.subwindow_ids(length, 1)[R + r], len(ids))
    if centres is None:
        return None
    symbols = [u[0] for u in code.domain.language(1)]
    try:
        candidate = SlidingBlockCode(code.codomain, code.domain, R,
                                     [symbols[c] for c in centres])
    except WordError:
        return None
    return candidate if compose(code, candidate).is_identity() else None


def test_find_inverse_is_the_full_list_route_on_every_radius1_table():
    sft = full_shift(2)
    found = 0
    for table in itertools.product(sft.alphabet, repeat=len(sft.language(3))):
        code = SlidingBlockCode(sft, sft, 1, table)
        inverse, expected = find_inverse(code, 2), _find_inverse_full_list(code, 2)
        assert (inverse is None) == (expected is None), table
        if inverse is not None:
            assert (inverse.radius, inverse.rule) == (expected.radius, expected.rule)
            found += 1
    assert found == 6


def test_find_inverse_reads_few_image_words_per_rejected_table(monkeypatch, run_budget):
    # a radius-2 table of the full 2-shift has 8,192 13-words to check at
    # inverse radius 4; a table without an inverse shows a conflict early,
    # and an accepted one (the search reaches sigma^-2) reads them all
    consumed, read = [], {False: [], True: []}
    regroup, inverse = codes.regroup, codes.find_inverse

    def counting(ids, values, size):
        consumed.append(0)

        def counted():
            for i in ids:
                consumed[-1] += 1
                yield i
        return regroup(counted(), values, size)

    def recording(code, r):
        start = len(consumed)
        result = inverse(code, r)
        read[result is not None].append(consumed[start])  # the image-word pass
        return result

    monkeypatch.setattr(codes, "regroup", counting)
    monkeypatch.setattr(codes, "find_inverse", recording)
    run_budget(enum_nodes=2000)
    with pytest.raises(BudgetExceededError):
        enumerate_automorphisms(full_shift(2), 2)
    assert read[False] and max(read[False]) <= 512
    assert read[True] and set(read[True]) == {8192}


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_full_two_radius0():
    autos = enumerate_automorphisms(full_shift(2), 0)
    assert len(autos) == 2
    assert identity_code(full_shift(2)) in autos.elements
    assert flip_code(full_shift(2)) in autos.elements


def test_balance_cap_prunes_the_full_two_radius1_search(monkeypatch):
    # each of the two symbols fills exactly 4 of the 8 slots: C(8, 4) leaves
    calls = []
    monkeypatch.setattr(codes, "find_inverse",
                        lambda code, r: calls.append(code) or find_inverse(code, r))
    sft = full_shift(2)
    assert len(enumerate_conjugacies(sft, sft, 1)) == 6
    (_, nodes), = sft.tables.stages.values()
    assert (len(calls), nodes) == (70, 362)


def test_balance_cap_is_the_brute_force_between_presentations():
    # the 2-block presentation of the full 2-shift (4 symbols) onto the full
    # 2-shift (2 symbols) at radius 1: 16 slots, so each symbol fills 8;
    # every table is admissible, as the codomain is a full shift
    block, full2 = make_edge_shift(["0", "1"], [[1, 1], [1, 1]]), full_shift(2)
    accepted = []
    for table in itertools.product(full2.alphabet, repeat=len(block.language(3))):
        code = SlidingBlockCode(block, full2, 1, table, validate=False)
        if find_inverse(code, 2) is not None:
            accepted.append(code)
    accepted.sort(key=SlidingBlockCode.canonical_key)
    found = enumerate_conjugacies(block, full2, 1)
    assert [c.rule for c in found] == [c.rule for c in accepted]
    assert len(found) == 8


def test_enumerate_full_two_power_two_radius0():
    # sigma^2 of the full 2-shift is the full 4-shift: every bijection of its
    # four symbols is a radius-0 automorphism
    autos = enumerate_automorphisms(power_shift(full_shift(2), 2), 0)
    assert len(autos) == 24
    assert autos.power == 2


def test_enumerate_golden_mean_radius0():
    autos = enumerate_automorphisms(golden_mean(), 0)
    assert len(autos) == 1
    assert autos.elements[0].is_identity()


def test_enumerate_full_three_radius0():
    # all six symbol bijections are automorphisms of the full 3-shift
    autos = enumerate_automorphisms(full_shift(3), 0)
    assert len(autos) == 6


def test_enumerate_full_two_radius1_is_reversible_eca_census():
    # the reversible elementary CA: shifts and complement compositions
    autos = enumerate_automorphisms(full_shift(2), 1)
    assert len(autos) == 6
    expected = set()
    f2 = full_shift(2)
    for k in (-1, 0, 1):
        expected.add(shift_code(f2, k))
        expected.add(compose(flip_code(f2), shift_code(f2, k)).canonical())
    assert set(autos.elements) == expected


def test_enumerate_golden_mean_radius1_shifts_only():
    autos = enumerate_automorphisms(golden_mean(), 1)
    gm = golden_mean()
    assert set(autos.elements) == {shift_code(gm, -1), identity_code(gm),
                                   shift_code(gm, 1)}


def test_enumerate_doubled_cycle_radius0_side_swaps():
    autos = enumerate_automorphisms(doubled_cycle_period2(), 0)
    assert len(autos) == 8


def test_transient_edge_stage_is_searched_directly():
    # two loops joined by a transient edge: not a disjoint union of pieces,
    # so the stage comes from one search over the whole graph
    sft = parse_edge_shift("1 1 / 0 1")
    assert [len(enumerate_automorphisms(sft, r)) for r in (0, 1)] == [1, 3]
    assert shift_code(sft, 1) in enumerate_automorphisms(sft, 1).elements


def test_lifted_stage_respects_the_node_budget(run_budget):
    # four 2-symbol pieces: each piece search needs 362 nodes, but the lifted
    # stage has 4! * 6^4 = 31,104 members, and none is built
    y = power_shift(parse_edge_shift("0 2 0 0 / 0 0 1 0 / 0 0 0 1 / 1 0 0 0"), 4)
    run_budget(enum_nodes=600)
    with pytest.raises(BudgetExceededError):
        enumerate_automorphisms(y, 1)


def test_enumerate_power_presentation_components():
    # sigma^2 automorphisms of the period-2 doubled-loop graph, enumerated on
    # the power presentation: two full-2 components, radius 1 each
    y = power_shift(doubled_loop_period2(), 2)
    autos = enumerate_automorphisms(y, 1)
    assert len(autos) == 72  # 2 component permutations x 6 x 6


def test_enumerated_sets_satisfy_group_laws():
    cases = [
        (full_shift(2), 1, 1), (full_shift(2), 6, 1),
        (full_shift(3), 1, 0),
        (golden_mean(), 1, 1),
        (doubled_loop_period2(), 1, 1),
        (cycle_graph(2), 1, 2), (cycle_graph(3), 2, 2),
        (doubled_cycle_period3(), 1, 1),
        (power_shift(doubled_loop_period2(), 2), 1, 0),  # lifted from components
        (parse_edge_shift("1 1 / 0 1"), 1, 1),  # transient edge: direct search
    ]
    for sft, n, r in cases:
        autos = enumerate_automorphisms(sft, r)
        ident = identity_code(sft)
        assert ident in autos.elements
        for code, inv in zip(autos.elements, autos.inverses):
            assert compose(code, inv).is_identity()
            assert compose(inv, code).is_identity()
            assert commutes_with_power(code, n)
        # closure under compose-then-canonicalize: composites are certified
        # automorphisms, and they appear in the set whenever their canonical
        # radius fits the truncation
        for f, fi in zip(autos.elements, autos.inverses):
            for g, gi in zip(autos.elements, autos.inverses):
                h = compose(f, g)
                hi = compose(gi, fi)
                assert compose(h, hi).is_identity()
                if h.canonical_radius <= r:
                    assert h.canonical() in autos.elements, (sft.states, n, r)


def _passes_old_quick_filters(code) -> bool:
    """The two necessary conditions that enumeration once tested before
    ``find_inverse``: the image 3-words are exactly the codomain's 3-words,
    and no two distinct (2r+5)-words with equal flanks (first and last 2r
    symbols) have equal images (a diamond)."""
    width = 2 * code.radius + 1
    if set(images(code, width + 2)) != set(code.codomain.language(3)):
        return False
    flank = 2 * code.radius
    flanks = [(u[:flank], u[len(u) - flank:])
              for u in code.domain.language(width + 4)]
    return len(set(zip(flanks, images(code, width + 4)))) == len(flanks)


def _brute_force_cases() -> list:
    """(domain, codomain, radius) searches small enough to check against
    every rule table, on fresh presentations."""
    y = power_shift(doubled_loop_period2(), 2)
    comp_a, comp_b = [derived_shift(y, comp, 1)
                      for comp in strongly_connected_components(y)]
    return [(full_shift(2), full_shift(2), 1), (golden_mean(), golden_mean(), 1),
            (doubled_loop_period2(), doubled_loop_period2(), 1),
            (full_shift(3), full_shift(3), 0), (cycle_graph(3), cycle_graph(3), 1),
            (doubled_cycle_period2(), doubled_cycle_period2(), 0),
            (aperiodic_three(), aperiodic_three(), 1), (comp_a, comp_b, 1)]


def test_enumeration_is_the_brute_force_over_every_rule_table():
    filtered_out = 0
    for domain, codomain, r in _brute_force_cases():
        size = len(domain.language(2 * r + 1))
        accepted = []
        for table in itertools.product(codomain.alphabet, repeat=size):
            try:
                code = SlidingBlockCode(domain, codomain, r, table)
            except WordError:
                continue
            inverse = find_inverse(code, 2 * r)
            if not _passes_old_quick_filters(code):
                filtered_out += 1
                assert inverse is None, (domain.states, r, table)
            if inverse is not None:
                accepted.append(code)
        accepted.sort(key=SlidingBlockCode.canonical_key)
        found = enumerate_conjugacies(domain, codomain, r)
        assert [c.rule for c in found] == [c.rule for c in accepted], (domain.states, r)
        assert accepted
    assert filtered_out  # the reference filters reject some tables


def test_inverse_check_is_the_composite_identity_test(monkeypatch):
    # every candidate find_inverse checks on every leaf, and each leaf's code
    # against the first candidate of its search, which mostly is no inverse
    checked = []
    inverts = codes._inverts
    monkeypatch.setattr(codes, "_inverts",
                        lambda code, candidate: checked.append((code, candidate))
                        or inverts(code, candidate))
    verdicts = set()
    for domain, codomain, r in _brute_force_cases():
        checked.clear()
        for table in itertools.product(codomain.alphabet, repeat=len(domain.language(2 * r + 1))):
            try:
                find_inverse(SlidingBlockCode(domain, codomain, r, table), 2 * r)
            except WordError:
                continue
        assert checked
        first = checked[0][1]
        for code, candidate in checked + [(code, first) for code, _ in checked]:
            verdict = inverts(code, candidate)
            assert verdict == compose(code, candidate).is_identity(), (domain.states, code.rule)
            verdicts.add(verdict)
    assert verdicts == {False, True}


def _composed_by_images(f, g) -> tuple:
    """f after g's rule, from the image words of ``images`` (the oracle)."""
    ids = f.domain.word_ids(2 * f.radius + 1)
    return gather(f.rule, [ids[v] for v in images(g, 2 * (f.radius + g.radius) + 1)])


def test_compose_is_one_gather_through_the_memoized_image_ids():
    for domain, codomain, r in _brute_force_cases():
        gs = enumerate_conjugacies(domain, codomain, r)
        fs = [identity_code(codomain), shift_code(codomain, 1),
              *(find_inverse(g, 2 * r) for g in gs[:2])]
        for f in fs:
            for g in gs:
                expected = _composed_by_images(f, g)
                for _ in range(2):  # a repeated call reads the kept column
                    h = compose(f, g)
                    assert (h.domain, h.codomain, h.radius) == (domain, f.codomain,
                                                                f.radius + g.radius)
                    assert h.rule == expected, (domain.states, r, g.rule)
        kept = {(rule, r_f) for _, _, rule, r_f in domain.tables.image_ids}
        assert {(g.rule, f.radius) for f in fs for g in gs} <= kept


def test_compose_between_pieces_of_equal_adjacency_keeps_their_shifts():
    # Y_0 and Y_1 of the doubled loop's split instance share one tables
    # object (equal adjacency) under different state names, so a column
    # computed for one piece is read back for the other
    inst = SplitInstance.build(doubled_loop_period2(), 1, 2)
    y0, y1 = inst.pieces
    assert y0.shift.tables is y1.shift.tables and y0.shift.states != y1.shift.states
    between = [restrict(inst.phase(d), src, dst) for d in range(-2, 3)
               for i, src in enumerate(inst.pieces) for j, dst in enumerate(inst.pieces)
               if (j - i - d) % 2 == 0]
    composed = 0
    for f in between:
        for g in between:
            if g.codomain is f.domain:
                h = compose(f, g)
                assert h.domain is g.domain and h.codomain is f.codomain
                assert h.rule == _composed_by_images(f, g)
                composed += 1
    assert len(y0.shift.tables.image_ids) < composed  # the pieces share columns


def test_radius0_bijection_skip_is_exact_between_presentations():
    # the 2-block presentation of the full 2-shift has 4 symbols, the full
    # 2-shift 2; enumeration skips every radius-0 table that repeats a symbol,
    # which is exact because a radius-0 code with a radius-0 inverse is a
    # symbol bijection
    block = make_edge_shift(["0", "1"], [[1, 1], [1, 1]])
    full2 = full_shift(2)
    for domain, codomain, r, count in [(block, full2, 0, 0), (full2, block, 0, 0),
                                       (full2, block, 1, 4)]:
        accepted = []
        for table in itertools.product(codomain.alphabet,
                                       repeat=len(domain.language(2 * r + 1))):
            try:
                code = SlidingBlockCode(domain, codomain, r, table)
            except WordError:
                continue
            if find_inverse(code, 2 * r) is not None:
                accepted.append(code)
        accepted.sort(key=SlidingBlockCode.canonical_key)
        found = enumerate_conjugacies(domain, codomain, r)
        assert [c.rule for c in found] == [c.rule for c in accepted]
        assert len(found) == count, (domain.states, r)


def test_enumerated_codes_preserve_admissibility():
    for sft, r in [(full_shift(2), 1), (golden_mean(), 1),
                   (doubled_cycle_period3(), 1)]:
        autos = enumerate_automorphisms(sft, r)
        for code in autos.elements:
            for length in range(2 * r + 1, 2 * r + 6):
                for w in sft.language(length):
                    assert sft.is_admissible(code.apply(w))


def test_enumeration_is_deterministic():
    a = enumerate_automorphisms(full_shift(2), 1)
    b = enumerate_automorphisms(full_shift(2), 1)
    assert [c.canonical_key() for c in a.elements] == \
        [c.canonical_key() for c in b.elements]


def test_stage_memo_hit_is_the_fresh_search(graph_catalog):
    for name, sft, _ in graph_catalog:
        r = 0 if name in SLOW_STAGES else 1
        first = enumerate_conjugacies(sft, sft, r)
        hit = enumerate_conjugacies(sft, sft, r)
        fresh = enumerate_conjugacies(make_edge_shift(sft.states, sft.adjacency), sft, r)
        assert [c.rule for c in hit] == [c.rule for c in first] \
            == [c.rule for c in fresh], name
        assert all(c.domain is sft and c.codomain is sft for c in hit)
    # the key holds the codomain too: one domain, two codomains
    full2, block = full_shift(2), make_edge_shift(["0", "1"], [[1, 1], [1, 1]])
    assert [len(enumerate_conjugacies(full2, y, 1)) for y in (full2, block)] == [6, 4]


def test_stage_memo_hit_keeps_the_node_budget(run_budget):
    sft = full_shift(2)
    stage = enumerate_conjugacies(sft, sft, 1)
    (_, nodes), = sft.tables.stages.values()
    run_budget(enum_nodes=nodes - 1)
    with pytest.raises(BudgetExceededError):  # the search itself stops at N - 1
        enumerate_conjugacies(full_shift(2), full_shift(2), 1)
    with pytest.raises(BudgetExceededError):
        enumerate_conjugacies(sft, sft, 1)
    run_budget(enum_nodes=nodes)
    hit = enumerate_conjugacies(sft, sft, 1)
    assert [c.rule for c in hit] == [c.rule for c in stage]


def test_stage_memo_is_not_shared_between_inputs(monkeypatch):
    calls = []
    monkeypatch.setattr(codes, "find_inverse",
                        lambda code, r: calls.append(code) or find_inverse(code, r))
    for _ in range(2):
        sft = full_shift(2)
        assert len(enumerate_conjugacies(sft, sft, 1)) == 6
        assert len(calls) == 70  # every separately built input runs the DFS
        calls.clear()


def test_stage_memo_runs_each_split_search_once(monkeypatch, capsys):
    # the power presentation of the doubled 3-cycle falls into three full
    # 2-shift pieces, and the component is the full 2-shift too: one 70-leaf
    # DFS serves the 9 conjugacy sets between pieces and the component stage,
    # where separate searches would make 706 find_inverse calls
    calls = []
    monkeypatch.setattr(codes, "find_inverse",
                        lambda code, r: calls.append(code) or find_inverse(code, r))
    assert main(["verify-wreath", "0 2 0 / 0 0 1 / 1 0 0",
                 "--n", "1", "--m", "3", "--radius", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 70 + 6  # the leaves, and the component inverses


def test_automorphism_set_document():
    autos = enumerate_automorphisms(full_shift(2), 0)
    doc = autos.to_document()
    assert doc["count"] == 2 and doc["schema_version"] == 1


# -- partition action -----------------------------------------------------------------

def test_partition_action_identity():
    sft = cycle_graph(3)
    part = cyclic_partition(sft, 3)
    assert partition_action(identity_code(sft), part) == (0, 1, 2)


def test_partition_action_shift_is_rotation():
    sft = cycle_graph(3)
    part = cyclic_partition(sft, 3)
    assert partition_action(shift_code(sft, 1), part) == (1, 2, 0)


def test_partition_action_class_swap():
    sft = doubled_cycle_period2()
    part = cyclic_partition(sft, 2)
    swap = None
    for code in enumerate_automorphisms(sft, 0).elements:
        if partition_action(code, part) == (1, 0):
            swap = code
            break
    assert swap is not None


def test_partition_action_homomorphism():
    sft = doubled_cycle_period2()
    part = cyclic_partition(sft, 2)
    autos = enumerate_automorphisms(sft, 0)
    for f in autos.elements:
        pf = partition_action(f, part)
        for g in autos.elements:
            pg = partition_action(g, part)
            composite = partition_action(compose(f, g).canonical(), part)
            assert composite == tuple(pf[pg[k]] for k in range(2))


def test_partition_action_splitting_is_an_error():
    sft = cycle_graph(4)
    part = cyclic_partition(sft, 2)
    # a deliberately broken rule: one class-0 window keeps its class, the
    # other moves; partition_action must refuse (outputs on the words 0..3)
    rule = ["0", "1", "1", "3"]
    broken = SlidingBlockCode(sft, sft, 0, rule, validate=False)
    with pytest.raises(ImageSplitsClassesError):
        partition_action(broken, part)


def test_partition_action_rejects_a_class_map_that_is_not_a_permutation():
    # the constant code sends both classes of the squared 2-cycle into class 0
    base = parse_edge_shift("0 1 / 1 0")
    sft = power_shift(base, 2)
    constant = SlidingBlockCode(sft, sft, 0, ["0"] * len(sft.language(1)))
    with pytest.raises(ImageSplitsClassesError, match="not a permutation"):
        partition_action(constant, cyclic_partition(base, 2))


def test_rotation_index_examples():
    # sigma^k rotates the classes by k mod m
    sft = cycle_graph(3)
    part = cyclic_partition(sft, 3)
    assert partition_action(identity_code(sft), part) == (0, 1, 2)
    assert partition_action(shift_code(sft, 1), part) == (1, 2, 0)
    assert partition_action(shift_code(sft, 5), part) == (2, 0, 1)  # 5 mod 3


def test_rotation_index_rejects_non_rotation():
    # rotations and transpositions coincide at size 2, so build a size-4 case
    sft4 = cycle_graph(4)
    part4 = cyclic_partition(sft4, 4)
    # handcraft a class map that is a non-rotation permutation: swap classes
    # 1 and 3, fix 0 and 2 (outputs on the words 0..3)
    rule = ["0", "3", "2", "1"]
    broken = SlidingBlockCode(sft4, sft4, 0, rule, validate=False)
    pi = partition_action(broken, part4)
    assert pi == (0, 3, 2, 1)
    assert all(pi != tuple((k + j) % 4 for k in range(4)) for j in range(4))


def test_partition_action_on_power_presentation():
    # component-swapping sigma^2-automorphisms act as the transposition on the
    # size-2 partition of the base shift
    base = doubled_loop_period2()
    part = cyclic_partition(base, 2)
    y = power_shift(base, 2)
    autos = enumerate_automorphisms(y, 1)
    actions = {partition_action(code, part) for code in autos.elements}
    assert actions == {(0, 1), (1, 0)}
