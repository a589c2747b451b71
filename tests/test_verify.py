"""Split exact sequence, quotient isomorphisms, rigidity, eigenvalue
comparison, entropy ratios."""

from __future__ import annotations

import itertools
import math

import pytest

from stabdyn import codes, verify

from stabdyn.cli import rigidity_sweep_pairs
from stabdyn.codes import (AutomorphismSet, SlidingBlockCode, compose,
                           enumerate_automorphisms, enumerate_conjugacies, factor_key,
                           identity_code, lift, partition_action, restrict,
                           shift_code)
from stabdyn.errors import StabdynError, VerificationError, ZeroEntropyError
from stabdyn.groups import (cyclic_group, dihedral_square, is_isomorphic,
                            klein_group, quaternion_group)
from stabdyn.sft import EntropyResult, entropy, full_shift, parse_edge_shift, power_shift
from stabdyn.verify import (MAX_KERNEL, MAX_PAIRS, MAX_TUPLES, SplitInstance,
                            _effective_radius, _quotient_group,
                            _sampled_pairs, _stage_escape,
                            check_wreath_rigidity, compare_rational_eigs,
                            entropy_ratio, shifted_key, verify_quotient_isos,
                            verify_split_sequence)
from stabdyn.wreath import wreath_group

from conftest import (SLOW_STAGES, catalog, cycle_graph,
                      doubled_cycle_period3, doubled_loop_period2,
                      golden_mean, split_matrix, z4_relabelled)

SPLIT_MATRIX = split_matrix()


def test_sampled_pairs_stride_over_every_row():
    for size in (0, 1, 5, 14, 15, 48, 72, 216):
        # the strided sample that pi_homomorphism used to compute inline
        stepped = max(1, size * size // MAX_PAIRS)
        assert _sampled_pairs(size) == [
            divmod(k, size) for k in range(0, size * size, stepped)[:MAX_PAIRS]]
    # 48 psi tuples: the left factors spread over the tuples, not the first 5
    pairs = _sampled_pairs(48)
    assert len(pairs) == MAX_PAIRS
    assert len({i for i, _ in pairs}) >= 40


def test_split_sequence_keystone_doubled_loop():
    report = verify_split_sequence(doubled_loop_period2(), 1, 2, 1)
    assert report.passes, [c for c in report.checks if not c.passed]
    assert report.automorphism_count == 72
    assert report.kernel_size == 36
    assert report.image_size == 2
    assert report.automorphism_count == report.kernel_size * report.image_size


def test_split_sequence_doubled_three_cycle():
    report = verify_split_sequence(doubled_cycle_period3(), 1, 3, 1)
    assert report.passes, [c for c in report.checks if not c.passed]
    assert report.image_size == 6  # pi is onto Sym(3)
    assert report.automorphism_count == report.kernel_size * report.image_size


def test_split_sequence_notes_a_rotations_only_image():
    # classes {0, 1}, {2, 3}, {4}; the cube's pieces, A^3 on each class, are
    # [[2, 2], [1, 1]], [[1, 2], [1, 2]] and [[3]]: no two are isomorphic
    # graphs, so pi maps the radius-0 stage onto the identity alone
    sft = parse_edge_shift("0 0 1 1 0 / 0 0 0 1 0 / 0 0 0 0 1 / 0 0 0 0 1 / 1 1 0 0 0")
    report = verify_split_sequence(sft, 1, 3, 0)
    assert report.passes, [c for c in report.checks if not c.passed]
    assert (report.automorphism_count, report.image_size) == (96, 1)
    assert [note.split(";")[0] for note in report.notes] == [
        "pi image of the enumerated stage contains rotations only"]


def test_split_sequence_degenerate_m1():
    report = verify_split_sequence(full_shift(2), 1, 1, 1)
    assert report.passes
    assert report.image_size == 1
    assert report.kernel_size == report.automorphism_count


def test_split_sequence_full_matrix():
    for sft, n, m, r in SPLIT_MATRIX:
        report = verify_split_sequence(sft, n, m, r)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passes, (sft.states, n, m, failed)
        assert report.automorphism_count == report.kernel_size * report.image_size


def test_split_sequence_rejects_bad_inputs():
    from stabdyn.errors import NoSuchEigenvalueError, StabdynError
    with pytest.raises(NoSuchEigenvalueError):
        verify_split_sequence(golden_mean(), 1, 2, 0)
    with pytest.raises(StabdynError):
        verify_split_sequence(cycle_graph(2), 2, 2, 0)  # sigma^2 not transitive


def test_rho_is_a_phase_map_not_a_shift_commuting_code():
    # rho(transposition) is T on Y_0 and T^-1 on Y_1: it commutes with the
    # shift of the power presentation Y (sigma^m) but not with the phase T
    # (a period-2 graph with non-alternating words; on the plain 2-cycle
    # every point is 2-periodic and T coincides with T^-1)
    inst = SplitInstance.build(doubled_loop_period2(), 1, 2)
    swap, ident, t = inst.rho((1, 0)), inst.rho((0, 1)), inst.phase(1)
    assert compose(swap, t) != compose(t, swap)
    assert compose(ident, t) == compose(t, ident)
    sigma = shift_code(inst.power, 1)
    assert compose(swap, sigma) == compose(sigma, swap)


def _split_instances():
    return [SplitInstance.build(sft, n, m) for sft, n, m, _ in SPLIT_MATRIX]


def test_phases_compose_additively():
    for inst in _split_instances():
        phases = range(1 - inst.m, inst.m)
        for a in phases:
            for b in phases:
                if abs(a + b) < inst.m:
                    assert compose(inst.phase(a), inst.phase(b)) == inst.phase(a + b), \
                        (inst.base.states, inst.n, inst.m, a, b)


def test_phase_translates_parent_paths():
    # on a 4-word, blocks 1 and 2 of the image are the parent path moved by d
    for inst in _split_instances():
        power, N = inst.power, inst.stride
        for d in range(1 - inst.m, inst.m):
            code = inst.phase(d)
            r = code.radius
            for w in power.language(4):
                image = power.to_parent(code.apply(w))
                assert image[(1 - r) * N:(3 - r) * N] == \
                    power.to_parent(w)[N + d:3 * N + d], (inst.base.states, d, w)


def test_restrict_of_lift_returns_every_piece_code():
    lifted = 0
    for y in [power_shift(doubled_loop_period2(), 2), power_shift(cycle_graph(3), 3)] + [
            inst.power for inst in _split_instances()]:
        pieces = codes._disjoint_components(y)
        if pieces is None:  # one piece: the stage is searched directly
            continue
        lifted += 1
        k, keys = len(pieces), set()
        for perm in itertools.permutations(range(k)):
            for combo in itertools.product(*[enumerate_conjugacies(
                    pieces[i].shift, pieces[perm[i]].shift, 1) for i in range(k)]):
                code = lift(y, pieces, perm, combo)
                assert [restrict(code, pieces[i], pieces[perm[i]]).canonical_key()
                        for i in range(k)] == [c.canonical_key() for c in combo]
                keys.add(code.canonical_key())
        assert keys == set(enumerate_automorphisms(y, 1).key_index), y.states
    assert lifted == 8  # the mixing and one-state powers are one piece
    # codes of different radii are widened to the largest
    y = power_shift(doubled_loop_period2(), 2)
    pieces = codes._disjoint_components(y)
    combo = [identity_code(pieces[0].shift), shift_code(pieces[1].shift, 1)]
    code = lift(y, pieces, (0, 1), combo)
    assert code.radius == 1 and not code.is_identity()
    assert [restrict(code, p, p).canonical_key() for p in pieces] == [
        c.canonical_key() for c in combo]


def _lift_by_windows(y, pieces, perm, combo) -> tuple:
    """Oracle for ``lift``: each window of y lies in one piece i, and its
    output is codes[i]'s output at the window's centre, read in the piece
    and written back as a symbol of piece perm[i]."""
    radius = max(code.radius for code in combo)
    rule = []
    for w in y.language(2 * radius + 1):
        i, = {i for i, piece in enumerate(pieces) if w[0] in piece.inverse}
        code = combo[i]
        out = code.apply(tuple(map(pieces[i].inverse.__getitem__, w)))[radius - code.radius]
        rule.append(pieces[perm[i]].symbols[out])
    return tuple(rule)


def test_lift_equals_its_per_window_definition():
    checked = 0
    for y in [power_shift(doubled_loop_period2(), 2), power_shift(cycle_graph(3), 3)] + [
            inst.power for inst in _split_instances()]:
        pieces = codes._disjoint_components(y)
        if pieces is None:
            continue
        k = len(pieces)
        for perm in itertools.permutations(range(k)):
            for combo in itertools.product(*[enumerate_conjugacies(
                    pieces[i].shift, pieces[perm[i]].shift, 1) for i in range(k)]):
                assert lift(y, pieces, perm, combo).rule == _lift_by_windows(
                    y, pieces, perm, combo), y.states
                checked += 1
    y = power_shift(doubled_loop_period2(), 2)
    pieces = codes._disjoint_components(y)
    combo = [identity_code(pieces[0].shift), shift_code(pieces[1].shift, 1)]  # radii 0 and 1
    assert lift(y, pieces, (0, 1), combo).rule == _lift_by_windows(y, pieces, (0, 1), combo)
    assert checked > 8


def test_lifted_member_key_is_its_factor_key():
    lifted, radii = 0, set()
    for y in [power_shift(doubled_loop_period2(), 2), power_shift(cycle_graph(3), 3)] + [
            inst.power for inst in _split_instances()]:
        if codes._disjoint_components(y) is None:  # one piece: searched directly
            continue
        lifted += 1
        stage = enumerate_automorphisms(y, 1)
        for code in stage.elements:
            assert code._canonical_key is not None  # set when the member is built
            assert code.canonical_key() == factor_key(y, code.radius, code.rule), y.states
            radii.add(code.canonical_radius)
    assert lifted == 8 and radii == {0, 1}
    # the cycle powers: every member has canonical radius 0, below the stage's
    stage = enumerate_automorphisms(power_shift(cycle_graph(3), 3), 1)
    assert stage.radius == 1 and {code.canonical_radius for code in stage.elements} == {0}
    # piece codes of canonical radii 0 and 1 make a member of canonical radius 1
    y = power_shift(doubled_loop_period2(), 2)
    stage = enumerate_automorphisms(y, 1)
    mixed = lift(y, stage.pieces, (0, 1), [identity_code(stage.pieces[0].shift),
                                           shift_code(stage.pieces[1].shift, 1)])
    member = stage.elements[stage.key_index[factor_key(y, 1, mixed.rule)]]
    assert member.canonical_key() == factor_key(y, 1, member.rule)
    assert member.canonical_radius == 1 and stage.perms[stage.elements.index(member)] == (0, 1)


# the doubled 3-cycle with states 1 and 2 swapped: its pieces, in state order,
# lie in classes 0, 2 and 1
RELABELLED_CYCLE = (parse_edge_shift("0 0 2 / 1 0 0 / 0 1 0"), 1, 3, 1)


def test_recorded_pi_is_the_partition_action():
    lifted = 0
    for inst in _split_instances() + [SplitInstance.build(*RELABELLED_CYCLE[:3])]:
        stage = enumerate_automorphisms(inst.power, _effective_radius(inst.power, 1))
        if stage.perms is None:
            continue
        lifted += 1
        assert verify._pi_from_pieces(stage, inst) == [
            partition_action(code, inst.part) for code in stage.elements], inst.base.states
    assert lifted == 7
    # pieces that are not one per class (on the loop's last stage, the
    # relabelled cycle's): pi is left to partition_action
    pieces = stage.pieces
    for other in [pieces[:1] * 3, (codes.Piece.derived(inst.power, [0, 1]), pieces[2])]:
        restaged = AutomorphismSet(stage.shift, stage.radius, stage.elements, other, stage.perms)
        assert verify._pi_from_pieces(restaged, inst) is None


@pytest.mark.parametrize("sft, n, m, radius", SPLIT_MATRIX + [RELABELLED_CYCLE],
                         ids=[f"{sft.adjacency}-n{n}-m{m}"
                              for sft, n, m, _ in SPLIT_MATRIX + [RELABELLED_CYCLE]])
def test_recorded_pi_gives_the_partition_action_report(monkeypatch, sft, n, m, radius):
    # SPLIT_MATRIX holds the inputs of the bench's nine split instances
    report = verify_split_sequence(sft, n, m, radius).to_document()
    stage_of, calls = verify.enumerate_automorphisms, []

    def unrecorded_stage(*args, **kwargs):
        stage = stage_of(*args, **kwargs)
        return AutomorphismSet(stage.shift, stage.radius, stage.elements, stage.pieces)

    monkeypatch.setattr(verify, "enumerate_automorphisms", unrecorded_stage)
    monkeypatch.setattr(verify, "partition_action",
                        lambda code, part: calls.append(code) or partition_action(code, part))
    assert verify_split_sequence(sft, n, m, radius).to_document() == report
    assert len(calls) >= report["automorphism_count"]


def test_doubled_three_cycle_report_reads_pi_and_keys_off_its_pieces(monkeypatch):
    # per-member pi and keys made 1,453 and 2,393 calls on this fresh input
    calls = dict.fromkeys(["partition_action", "factor_key"], 0)
    for module, name in [(verify, "partition_action"), (codes, "factor_key"),
                         (verify, "factor_key")]:
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    assert verify_split_sequence(doubled_cycle_period3(), 1, 3, 1).passes
    assert calls["partition_action"] <= 200 and calls["factor_key"] <= 1300, calls


# -- the split-sequence codes against the construction over the whole of Y --


def _on_pieces(inst, parts):
    """The code over Y that acts on piece c as parts[c], a code over Y."""
    power = inst.power
    radius = max(code.radius for code in parts)
    rule = []
    for w in power.language(2 * radius + 1):
        code = parts[inst.part.class_of[power.tail(w[0])]]
        rule.append(code.apply(w[radius - code.radius:radius + code.radius + 1])[0])
    return SlidingBlockCode(power, power, radius, rule)


def _whole_power_codes(inst):
    """(rho, psi, restriction) built over the whole of Y from the phases T^d:
    rho(s) is T^{s(c)-c} on piece c, psi(g) is T^c g_c T^-c on piece c, where
    g_c acts on Y_0 through the base paths of Z's symbols, and the
    restriction to class i is T^-i f T^i on Y_0, read through them."""
    power, z = inst.power, inst.component.shift
    to_y = {sym: power.from_parent(z.to_parent((sym,)))[0] for sym in z.alphabet}
    to_z = {y: sym for sym, y in to_y.items()}

    def on_y0(g):  # g on Y_0, the identity on the other pieces
        r = g.radius
        return SlidingBlockCode(power, power, r, [
            to_y[g.apply(tuple(map(to_z.__getitem__, w)))[0]] if w[0] in to_z else w[r]
            for w in power.language(2 * r + 1)])

    def rho(sigma):
        return _on_pieces(inst, [inst.phase(s - c) for c, s in enumerate(sigma)])

    def psi(gs):
        return _on_pieces(inst, [compose(inst.phase(c), compose(on_y0(g), inst.phase(-c)))
                                 for c, g in enumerate(gs)])

    def restriction(f, i):
        f_i = compose(inst.phase(-i), compose(f, inst.phase(i)))
        return SlidingBlockCode(z, z, f_i.radius, [
            to_z[f_i.apply(tuple(map(to_y.__getitem__, w)))[0]]
            for w in z.language(2 * f_i.radius + 1)])

    return rho, psi, restriction


def test_split_codes_are_the_phase_conjugates_over_the_whole_power():
    for inst in _split_instances():
        rho, psi, restriction = _whole_power_codes(inst)
        m, z = inst.m, inst.component.shift
        for sigma in itertools.permutations(range(m)):
            assert inst.rho(sigma).canonical_key() == rho(sigma).canonical_key(), sigma
        comp = enumerate_automorphisms(z, _effective_radius(z, 1))
        for tup in itertools.islice(itertools.product(comp.elements, repeat=m), MAX_TUPLES):
            code = inst.psi(tup)
            assert code.canonical_key() == psi(tup).canonical_key()
            assert [inst.restrict_to_component(code, i).canonical_key() for i in range(m)] \
                == [restriction(code, i).canonical_key() for i in range(m)] \
                == [g.canonical_key() for g in tup]
        stage = enumerate_automorphisms(inst.power, _effective_radius(inst.power, 1))
        kernel = [f for f in stage.elements
                  if partition_action(f, inst.part) == tuple(range(m))][:MAX_KERNEL]
        assert kernel
        for f in kernel:
            assert [inst.restrict_to_component(f, i).canonical_key() for i in range(m)] \
                == [restriction(f, i).canonical_key() for i in range(m)]


# -- quotient isomorphisms ---------------------------------------------------------

def test_truncated_stage_makes_order_exactness_not_applicable():
    # the radius-1 stage of Aut(T) for this period-2 graph is not closed: the
    # order count 68 != 36 * 2 is a truncation, not a theorem violation
    report = verify_split_sequence(parse_edge_shift("0 1 1 / 1 0 0 / 1 0 0"),
                                   1, 2, 1)
    check = {c.name: c for c in report.checks}["order_exactness"]
    assert check.passed and report.passes
    assert check.detail.startswith("not applicable on a truncated stage: element ")
    assert "|A|=68, |ker|=36, |im|=2" in check.detail


def test_stage_escape_finds_products_outside_the_stage():
    assert _stage_escape(enumerate_automorphisms(full_shift(2), 0)) is None
    assert _stage_escape(enumerate_automorphisms(cycle_graph(3), 1)) is None
    i, j, radius = _stage_escape(enumerate_automorphisms(full_shift(2), 1))
    assert radius == 2  # two radius-1 shifts compose to radius 2


def _product_cases():
    """(stage, pairs): every pair of a stage that products leave and of a
    closed one, and the sampled pairs of one power-presentation stage."""
    stages = [enumerate_automorphisms(full_shift(2), 1),
              enumerate_automorphisms(cycle_graph(3), 1)]
    cases = [(autos, [(i, j) for i in range(len(autos)) for j in range(len(autos))])
             for autos in stages]
    power = enumerate_automorphisms(power_shift(doubled_loop_period2(), 2), 1)
    return cases + [(power, _sampled_pairs(len(power)))]


def test_stage_product_is_the_canonical_composite():
    cases = _product_cases()
    for autos, pairs in cases:
        for k, code in enumerate(autos.elements):
            assert autos.key_index[code.canonical_key()] == k
        for i, j in pairs:
            expected = compose(autos.elements[i], autos.elements[j]).canonical_key()
            assert autos.product(i, j).canonical_key() == expected, (i, j)
    # a product that leaves the stage has no index
    (full2, _), (cycle3, _) = cases[:2]
    assert any(full2.key_index.get(full2.product(i, j).canonical_key()) is None
               for i in range(len(full2)) for j in range(len(full2)))
    assert all(cycle3.product(i, j).canonical_key() in cycle3.key_index
               for i in range(len(cycle3)) for j in range(len(cycle3)))


def test_stage_product_composes_each_pair_once(monkeypatch):
    autos = enumerate_automorphisms(full_shift(2), 1)
    calls = []
    real = codes.compose
    monkeypatch.setattr(codes, "compose", lambda f, g: calls.append(1) or real(f, g))
    first = autos.product(1, 2)
    assert autos.product(1, 2) is first
    assert len(calls) == 1


def _shifted_key_cases():
    """(name, stage): every catalog shift at radius 1 (radius 0 for the slow
    stages), plus two power shifts: sigma^3 = id on the 3-cycle, and a
    disconnected power."""
    cases = [(name, sft, 0 if name in SLOW_STAGES else 1)
             for name, sft, _ in catalog()]
    cases += [("cycle3^3", power_shift(cycle_graph(3), 3), 1),
              ("doubled_loop_p2^2", power_shift(doubled_loop_period2(), 2), 1)]
    return [(name, enumerate_automorphisms(sft, radius)) for name, sft, radius in cases]


def test_shifted_key_is_the_composed_canonical_key():
    for name, autos in _shifted_key_cases():
        sft = autos.shift
        rho = max(code.canonical_radius for code in autos.elements)
        scan = 2 * autos.radius + autos.inv_radius + 1
        # every element, except every sixth of the 72 of doubled_loop_p2^2
        stage = list(autos.elements)[::max(1, len(autos) // 12)]
        products = [compose(a, b) for a in stage[-2:] for b in stage[-2:]]
        for code in stage + products:
            for j in range(-scan, scan + 1):
                key = compose(shift_code(sft, j), code).canonical_key()
                expected = key if key[0] <= rho else None
                assert shifted_key(code, j, rho) == expected, (name, j)


def test_quotient_of_an_empty_stage_is_none():
    empty = AutomorphismSet(full_shift(2), 1, ())
    assert _quotient_group(empty, 1) is None


def test_quotients_full_two_shift_m1():
    report = verify_quotient_isos(full_shift(2), 1, 0)
    assert report.status == "pass"
    assert report.lhs_mod_shift_order == 2  # identity class and flip class
    assert report.item_i_isomorphic and report.item_ii_isomorphic


def test_quotients_doubled_loop_m2():
    report = verify_quotient_isos(doubled_loop_period2(), 2, 1)
    assert report.status == "pass", report.detail
    assert report.lhs_mod_power_order == 4
    assert report.rhs_order == 2
    assert report.item_i_isomorphic and report.item_ii_isomorphic


def test_quotients_three_cycle_m3():
    report = verify_quotient_isos(cycle_graph(3), 3, 1)
    assert report.status == "pass", report.detail
    assert report.rhs_order == 1  # single-point component: trivial quotient
    assert report.lhs_mod_shift_order == 1
    assert report.lhs_mod_power_order == 3


def test_quotients_require_full_period():
    from stabdyn.errors import NoSuchEigenvalueError
    with pytest.raises(NoSuchEigenvalueError):
        verify_quotient_isos(cycle_graph(2), 1, 0)


# -- rigidity ------------------------------------------------------------------------

def test_rigidity_order162_pair():
    report = check_wreath_rigidity(cyclic_group(9), 2, cyclic_group(3), 3,
                                   "Z9", "Z3")
    assert report.passes
    assert report.isomorphic is False
    assert report.order_g == report.order_h == 162


def test_rigidity_same_wreath_isomorphic():
    report = check_wreath_rigidity(cyclic_group(2), 2, cyclic_group(2), 2)
    assert report.passes
    assert report.isomorphic is True


def test_rigidity_klein_versus_z2_order384():
    report = check_wreath_rigidity(klein_group(), 3, cyclic_group(2), 4,
                                   "V4", "Z2")
    assert report.passes
    assert report.isomorphic is False


@pytest.mark.parametrize("base_g, n, base_h, m, tables, isomorphic", [
    (klein_group(), 3, klein_group(), 3, 1, True),
    (cyclic_group(2), 2, cyclic_group(2), 3, 0, None),  # the orders differ
    (cyclic_group(2), 4, cyclic_group(4), 3, 0, False),  # the order spectra differ
    (cyclic_group(4), 2, z4_relabelled(), 2, 2, True),  # the spectra agree
], ids=["V4wr3-self", "Z2wr2-Z2wr3", "Z2wr4-Z4wr3", "Z4wr2-relabelled"])
def test_rigidity_builds_each_distinct_wreath_table_once(monkeypatch, base_g, n,
                                                         base_h, m, tables, isomorphic):
    built = []
    monkeypatch.setattr(verify, "wreath_group",
                        lambda base, k: built.append(k) or wreath_group(base, k))
    report = check_wreath_rigidity(base_g, n, base_h, m)
    assert len(built) == tables and report.isomorphic is isomorphic


@pytest.mark.parametrize("name_g, base_g, n, name_h, base_h, m", [
    pytest.param(*pair, id=f"{pair[0]}wr{pair[2]}-{pair[3]}wr{pair[5]}")
    for pair in rigidity_sweep_pairs() + [
        ("Z4", cyclic_group(4), 2, "V4", klein_group(), 2),
        ("D4", dihedral_square(), 2, "Q8", quaternion_group(), 2)]])
def test_rigidity_spectra_give_the_table_path_report(monkeypatch, name_g, base_g, n,
                                                     name_h, base_h, m):
    report = check_wreath_rigidity(base_g, n, base_h, m, name_g, name_h)
    # a constant spectrum never rejects, so every pair goes through the tables
    monkeypatch.setattr(verify, "order_spectrum", lambda base, k: [])
    assert check_wreath_rigidity(base_g, n, base_h, m, name_g, name_h) == report


@pytest.mark.parametrize("make, n", [
    (klein_group, 3), (lambda: cyclic_group(2), 4), (dihedral_square, 2),
    (quaternion_group, 2), (lambda: cyclic_group(3), 1),
], ids=["V4wr3", "Z2wr4", "D4wr2", "Q8wr2", "Z3wr1"])
def test_rigidity_self_pair_matches_two_separate_tables(make, n):
    report = check_wreath_rigidity(make(), n, make(), n, "B", "B")
    wg, wh = wreath_group(make(), n), wreath_group(make(), n)
    assert wg is not wh and is_isomorphic(wg, wh) is not None
    assert report == verify.RigidityReport("B", n, "B", n, wg.order, wh.order, True,
                                           "consistent", "isomorphic")


def test_rigidity_different_orders_consistent():
    report = check_wreath_rigidity(cyclic_group(2), 2, cyclic_group(3), 2)
    assert report.passes and report.isomorphic is None


# -- eigenvalue comparison --------------------------------------------------------------

def test_compare_eigs_equal_periods():
    report = compare_rational_eigs(cycle_graph(2), doubled_loop_period2())
    assert report["equal"]
    assert report["eigs_x"] == [1, 2]


def test_compare_eigs_unequal():
    report = compare_rational_eigs(cycle_graph(2), cycle_graph(4))
    assert not report["equal"]
    assert report["eigs_y"] == [1, 2, 4]


def test_compare_eigs_self():
    report = compare_rational_eigs(golden_mean(), golden_mean())
    assert report["equal"]


# -- entropy ratio -------------------------------------------------------------------------

def test_entropy_ratio_two_vs_four():
    report = entropy_ratio(full_shift(2), full_shift(4))
    assert report.verdict == "rational-within-tolerance"
    assert (report.best_numerator, report.best_denominator) == (1, 2)
    assert report.residual < 1e-12
    assert report.exact_integer_relation is True


def test_entropy_ratio_confirms_integer_perron_values_on_the_charpoly(monkeypatch):
    # the golden mean's lambda read as 2 + 1e-10 passes the float test against
    # the full 4-shift (2^2 = 4^1), but its charpoly x^2 - x - 1 is 1 at 2
    lam = 2 + 1e-10

    def near_two(shift):
        result = entropy(shift)
        if shift != golden_mean():
            return result
        return EntropyResult(math.log(lam), lam, result.iterations)

    monkeypatch.setattr(verify, "entropy", near_two)
    report = entropy_ratio(golden_mean(), full_shift(4))
    assert report.verdict == "rational-within-tolerance"
    assert (report.best_numerator, report.best_denominator) == (1, 2)
    assert report.exact_integer_relation is None


def test_entropy_ratio_exact_check_overturns_a_float_match():
    # log 2 / log 3 is within 0.01 of 29/46, but 2^46 != 3^29
    report = entropy_ratio(full_shift(2), full_shift(3), tol=0.01)
    assert (report.best_numerator, report.best_denominator) == (29, 46)
    assert report.exact_integer_relation is False
    assert report.verdict == "inconclusive"


def test_entropy_ratio_two_vs_eight():
    report = entropy_ratio(full_shift(2), full_shift(8))
    assert (report.best_numerator, report.best_denominator) == (1, 3)
    assert report.verdict == "rational-within-tolerance"


def test_entropy_ratio_self_is_one():
    for sft in [full_shift(2), golden_mean(), doubled_loop_period2()]:
        report = entropy_ratio(sft, sft)
        assert (report.best_numerator, report.best_denominator) == (1, 1)
        assert report.residual < 1e-12


def test_entropy_ratio_golden_vs_full_two_inconclusive():
    report = entropy_ratio(golden_mean(), full_shift(2), max_denominator=50)
    assert report.verdict == "inconclusive"
    assert report.residual > 1e-9


def test_entropy_ratio_rejects_zero_entropy():
    with pytest.raises(ZeroEntropyError):
        entropy_ratio(cycle_graph(3), full_shift(2))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1e-13])
def test_entropy_ratio_rejects_a_tolerance_outside_finite_resolution(tol):
    # nan would make every verdict inconclusive, inf every ratio rational
    with pytest.raises(StabdynError, match="tolerance must be finite"):
        entropy_ratio(full_shift(2), full_shift(4), tol=tol)


def test_entropy_ratio_respects_periods():
    # period-2 graph whose component is the full 2-shift: entropy log2 / 2
    report = entropy_ratio(doubled_loop_period2(), full_shift(2))
    assert (report.best_numerator, report.best_denominator) == (1, 2)
    assert report.verdict == "rational-within-tolerance"


def _entropy_skewing_components(monkeypatch) -> list:
    """Patch verify.entropy so that derived presentations (Smale components)
    report 0.1 too much; return the list of shifts it was called on."""
    calls = []

    def skewed(shift):
        calls.append(shift)
        result = entropy(shift)
        if shift.provenance is None:
            return result
        return EntropyResult(result.log_value + 0.1, result.perron_value, result.iterations)

    monkeypatch.setattr(verify, "entropy", skewed)
    return calls


def test_entropy_ratio_cross_check_fires_for_period_two(monkeypatch):
    # period 2 with positive entropy: the component (the full 4-shift) is a
    # different matrix, so its entropy is computed and must be 2 * h
    calls = _entropy_skewing_components(monkeypatch)
    with pytest.raises(VerificationError, match="Smale component entropy mismatch"):
        entropy_ratio(parse_edge_shift("0 2 / 2 0"), full_shift(2))
    assert any(shift.provenance is not None for shift in calls)


def test_entropy_ratio_reuses_entropy_of_mixing_inputs(monkeypatch):
    # a period-1 shift is its own Smale component: one entropy per input
    calls = _entropy_skewing_components(monkeypatch)
    report = entropy_ratio(golden_mean(), full_shift(2))
    assert len(calls) == 2
    assert report.verdict == "inconclusive"
