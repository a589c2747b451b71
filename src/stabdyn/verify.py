"""Structural verification reports: the split exact sequence behind the
wreath decomposition of power-shift automorphism groups, quotient
isomorphisms, wreath rigidity sweeps, eigenvalue comparison, and entropy
ratios.

Automorphisms of sigma^{nm} are enumerated over the power-shift presentation,
where they are ordinary sliding block codes.  The section rho, the base
embedding psi and the component restrictions are codes over that
presentation too: ``codes.lift`` of piece codes, which ``codes.restrict``
reads off the phase codes T^d (``SplitInstance``).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .budgets import check, default_budget
from .codes import (AutomorphismSet, Piece, SlidingBlockCode, compose,
                    enumerate_automorphisms, factor_key, lift,
                    partition_action, regroup, restrict)
from .errors import (BudgetExceededError, NoSuchEigenvalueError, StabdynError,
                     VerificationError, ZeroEntropyError)
from .groups import (FiniteGroup, all_perms, compose_perm, cyclic_group,
                     direct_product, identity_perm, invert_perm, is_isomorphic)
from .records import Record
from .sft import EdgeShift, charpoly_coefficients, entropy, gather, period, power_shift
from .spectral import (class_restriction, cyclic_partition, is_power_transitive,
                       rational_eigs, smale)
from .wreath import WreathContext, order_spectrum, wreath_group


# -- presentation geometry -----------------------------------------------------


class SplitInstance(Record):
    """Shared geometry for one (shift, n, m) split-sequence verification.

    The power presentation Y of (X, T^N), N = n*m, is the disjoint union of
    the pieces Y_c, the edges that leave class-c states; T^d moves Y_c onto
    Y_{c+d}.  The component presentation Z is Y_0 under its own edge names,
    a piece of Y matched by base path.  T^d is ``phase(d)``, the only code
    read off base paths; every other code is a ``lift`` of piece codes read
    off phases by ``restrict``, such as t_c = T^c from Z onto Y_c.  The fields
    ``stride``, ``power``, ``component`` and ``pieces`` are N, Y, Z and the Y_c."""
    FIELDS = ("base", "n", "m", "stride", "part", "power", "component", "pieces")
    _phases: dict                # d -> T^d, for ``phase``
    _psi_pieces: dict            # (key, c) -> psi's code on Y_c, for ``psi``
    _restrictions: dict          # (key, i) -> g_i, for ``restrict_to_component``

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        self.set_uncompared(_phases={}, _psi_pieces={}, _restrictions={})

    @staticmethod
    def build(base: EdgeShift, n: int, m: int) -> "SplitInstance":
        part = cyclic_partition(base, m)
        if not is_power_transitive(base, n):
            raise StabdynError(f"sigma^{n} is not transitive (period {period(base)})")
        stride = n * m
        power = power_shift(base, stride)
        z = class_restriction(base, part, stride)
        to_power = {sym: power.from_parent(z.to_parent((sym,)))[0] for sym in z.alphabet}
        pieces = tuple(Piece.derived(power, sorted(states)) for states in part.classes)
        return SplitInstance(base, n, m, stride, part, power, Piece(z, to_power), pieces)

    def phase(self, d: int) -> SlidingBlockCode:
        """T^d (|d| <= N) as a code over Y, canonical: a 3-word's output is
        the length-N stretch of its parent path that starts at offset N + d."""
        if abs(d) > self.stride:
            raise StabdynError(f"phase {d} exceeds one block of {self.stride}")
        if d not in self._phases:
            power, N = self.power, self.stride
            rule = [power.from_parent(power.to_parent(w)[N + d:2 * N + d])[0]
                    for w in power.language(3)]
            self._phases[d] = SlidingBlockCode(power, power, 1, rule).canonical()
        return self._phases[d]

    @functools.cached_property
    def _transports(self) -> tuple:
        """(t_c, t_c^-1) for each class c: T^c from Z onto Y_c and T^-c back."""
        z = self.component
        return tuple((restrict(self.phase(c), z, piece), restrict(self.phase(-c), piece, z))
                     for c, piece in enumerate(self.pieces))

    def rho(self, sigma: tuple) -> SlidingBlockCode:
        """rho(sigma): T^i x -> T^{sigma(i)} x for x in the class-0 piece, so
        T^{sigma(c) - c} from Y_c onto Y_sigma(c)."""
        if len(sigma) != self.m:
            raise StabdynError("permutation size differs from the partition size")
        return lift(self.power, self.pieces, sigma, [
            restrict(self.phase(s - c), self.pieces[c], self.pieces[s])
            for c, s in enumerate(sigma)])

    def psi(self, components: Sequence[SlidingBlockCode]) -> SlidingBlockCode:
        """psi(g_0..g_{m-1}): T^i x -> T^i g_i(x) for x in the class-0 piece,
        so t_c g_c t_c^-1 on Y_c, canonical and kept by (g_c's key, c)."""
        if len(components) != self.m:
            raise StabdynError("need one component automorphism per class")
        codes = []
        for c, g in enumerate(components):
            key = (g.canonical_key(), c)
            if key not in self._psi_pieces:
                t, t_inv = self._transports[c]
                self._psi_pieces[key] = compose(t, compose(g, t_inv)).canonical()
            codes.append(self._psi_pieces[key])
        return lift(self.power, self.pieces, range(self.m), codes)

    def restrict_to_component(self, code: SlidingBlockCode, i: int) -> SlidingBlockCode:
        """g_i = t_i^-1 code t_i, with code read on Y_i, as a canonical code
        over Z, kept by (code's key, i).  Requires pi(code) to fix class i."""
        key = (code.canonical_key(), i)
        if key not in self._restrictions:
            piece, (t, t_inv) = self.pieces[i], self._transports[i]
            self._restrictions[key] = compose(
                t_inv, compose(restrict(code, piece, piece), t)).canonical()
        return self._restrictions[key]


# -- reports ----------------------------------------------------------------------


class CheckResult(Record):
    __slots__ = FIELDS = ("name", "passed", "detail")
    DEFAULTS = {"detail": ""}

    def to_document(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class WreathDecompositionReport(Record):
    __slots__ = FIELDS = ("matrix_hash", "n", "m", "radius", "effective_radius",
                          "automorphism_count", "kernel_size", "image_size", "checks",
                          "pi_table", "rho_table", "psi_table", "notes")
    DEFAULTS = {"notes": ()}

    @property
    def passes(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_document(self) -> dict:
        pis = {pi: list(pi) for pi in set(self.pi_table.values())}  # one list per distinct pi
        return {  # the fields, but the tables and lists written as documents
            "schema_version": 1, **dict(zip(self.FIELDS, self.values)),
            "inv_radius": 2 * self.radius, "passes": self.passes,
            "checks": [c.to_document() for c in self.checks],
            "pi_table": {str(k): pis[v] for k, v in sorted(self.pi_table.items())},
            "rho_table": {str(k): v for k, v in sorted(self.rho_table.items())},
            "psi_table": {str(k): v for k, v in sorted(self.psi_table.items())},
            "notes": list(self.notes)}


# stages are enumerated with rule tables of at most KEY_CAP windows, and the
# sampled checks of verify_split_sequence take at most these many items
KEY_CAP = 32
MAX_TUPLES, MAX_PAIRS, MAX_KERNEL = 48, 200, 24


def _effective_radius(shift: EdgeShift, requested: int) -> int:
    r = requested
    while r > 0 and len(shift.language(2 * r + 1)) > KEY_CAP:
        r -= 1
    return r


def _component_stage(shift: EdgeShift, radius: int) -> AutomorphismSet:
    """The stage of a component presentation at the effective radius of
    max(radius, 1); a node-cap exit in its search names the component stage."""
    try:
        return enumerate_automorphisms(shift, _effective_radius(shift, max(radius, 1)))
    except BudgetExceededError as exc:
        if exc.search is not None:
            exc.search = "component stage"
        raise


def _sampled_pairs(size: int) -> list:
    """At most MAX_PAIRS index pairs (i, j) of range(size)^2: every k-th pair
    in row-major order, with the stride k spreading them over all rows."""
    stride = max(1, size * size // MAX_PAIRS)
    return [divmod(k, size) for k in range(0, size * size, stride)[:MAX_PAIRS]]


def _stage_escape(autos: AutomorphismSet) -> Optional[tuple]:
    """(i, j, canonical radius) for the first product of stage elements
    i . j, in index order, that is not in the stage; None when the stage is
    closed under composition, and so a group."""
    for i, j in itertools.product(range(len(autos)), repeat=2):
        code = autos.product(i, j)
        if code.canonical_key() not in autos.key_index:
            return i, j, code.canonical_radius
    return None


def _pi_from_pieces(autos: AutomorphismSet, inst: SplitInstance) -> Optional[list]:
    """pi of each member of a lifted stage over ``inst.power``, one tuple per
    piece permutation, when each piece lies in one partition class and each
    class holds one piece (else None): a member that maps piece i onto piece
    perm[i] maps the class of piece i into the class of piece perm[i]."""
    if autos.perms is None:  # a searched stage
        return None
    states, class_of = inst.power.provenance.states, inst.part.class_of
    owners = [tuple({class_of[states[t]] for t in piece.shift.provenance.states})
              for piece in autos.pieces]
    if sorted(owners) != [(c,) for c in range(inst.m)]:
        return None
    piece_in = sorted(range(inst.m), key=owners.__getitem__)  # the piece of each class
    shared = {perm: tuple(owners[perm[i]][0] for i in piece_in) for perm in set(autos.perms)}
    return list(map(shared.__getitem__, autos.perms))


def _check(name: str, failures) -> CheckResult:
    """The check ``name``: passed when the iterator ``failures`` yields no
    message, else failed with the first one (nothing after it runs)."""
    fail = next(failures, None)
    return CheckResult(name, fail is None, fail or "")


def verify_split_sequence(sft: EdgeShift, n: int, m: int,
                          radius: int) -> WreathDecompositionReport:
    """Verify the split exact sequence
    1 -> Aut(s^{nm} on X_m)^m -> Aut(s^{nm}) -> Sym(m) -> 1 on the enumerated
    radius-bounded stage: pi.rho = id, ker pi = im psi, the conjugation
    relation rho(s)^{-1} psi(g) rho(s) = psi(g o s), and homomorphism laws.
    The stage holds the radius-<= r codes with a two-sided inverse of radius
    <= 2r, for r the effective radius; the report's inverse radius is twice
    the requested radius."""
    inst = SplitInstance.build(sft, n, m)
    notes = []
    r_eff = _effective_radius(inst.power, radius)
    if r_eff != radius:
        notes.append(f"enumeration radius reduced from {radius} to {r_eff} "
                     f"(power-presentation language size)")
    autos = enumerate_automorphisms(inst.power, r_eff)

    # pi on the enumerated stage, by index, up to the first element pi is not
    # defined on; read off the pieces for every element of a lifted stage
    pi_of: list = _pi_from_pieces(autos, inst) or []

    def pi_failures():
        for idx in range(len(pi_of), len(autos.elements)):
            try:
                pi_of.append(partition_action(autos.elements[idx], inst.part))
            except StabdynError as exc:
                yield f"element {idx}: {exc}"
                return

    checks = [_check("pi_defined_on_stage", pi_failures())]
    identity = identity_perm(m)
    kernel = [idx for idx, p in enumerate(pi_of) if p == identity]
    image = sorted(set(pi_of))

    def pi_of_product(i, j):
        """pi(f.g), read by index when the product is in the stage: equal
        canonical keys are equal maps."""
        k = autos.key_index.get(autos.product(i, j).canonical_key())
        if k is not None and k < len(pi_of):
            return pi_of[k]
        return partition_action(autos.product(i, j), inst.part)

    # pi is a homomorphism (budgeted pairs)
    checks.append(_check("pi_homomorphism", (
        f"pi(f.g) != pi(f).pi(g) at pair ({i},{j})"
        for i, j in _sampled_pairs(len(autos.elements))
        if pi_of_product(i, j) != compose_perm(pi_of[i], pi_of[j]))))

    # rho: section of pi
    rho_of = {sigma: inst.rho(sigma) for sigma in all_perms(m)}
    checks.append(_check("pi_rho_identity", (
        f"pi(rho({sigma})) != {sigma}" for sigma, code in rho_of.items()
        if partition_action(code, inst.part) != sigma)))

    def rho_failures():
        for sigma in all_perms(m):
            if not compose(rho_of[sigma], rho_of[invert_perm(sigma)]).is_identity():
                yield f"rho({sigma}) has no inverse rho({invert_perm(sigma)})"
            for tau in all_perms(m):
                if compose(rho_of[sigma], rho_of[tau]) != rho_of[compose_perm(sigma, tau)]:
                    yield f"rho not multiplicative at ({sigma},{tau})"

    checks.append(_check("rho_homomorphism", rho_failures()))

    # component stage and psi tuples
    comp_autos = _component_stage(inst.component.shift, radius)
    tuples = list(itertools.islice(
        itertools.product(range(len(comp_autos.elements)), repeat=m), MAX_TUPLES))

    psi_of: dict = {}

    def psi_by_indices(tup):
        if tup not in psi_of:
            psi_of[tup] = inst.psi([comp_autos.elements[i] for i in tup])
        return psi_of[tup]

    # psi lands in the kernel and is injective (restrict recovers the tuple)
    def psi_failures():
        for tup in tuples:
            code = psi_by_indices(tup)
            if partition_action(code, inst.part) != identity:
                yield f"pi(psi{tup}) != id"
            inv_code = inst.psi([comp_autos.inverses[i] for i in tup])
            if not compose(code, inv_code).is_identity():
                yield f"psi{tup} not inverted by the componentwise inverses"
            recovered = tuple(comp_autos.key_index.get(
                inst.restrict_to_component(code, i).canonical_key()) for i in range(m))
            if recovered != tup:
                yield f"restriction does not recover the tuple {tup}"

    checks.append(_check("psi_injective_into_kernel", psi_failures()))

    # psi is a homomorphism (componentwise composition; budgeted pairs)
    def psi_hom_failures():
        for i, j in _sampled_pairs(len(tuples)):
            ta, tb = tuples[i], tuples[j]
            composed = [comp_autos.product(a, b) for a, b in zip(ta, tb)]
            if compose(psi_by_indices(ta), psi_by_indices(tb)) != inst.psi(composed):
                yield f"psi(t.t') != psi(t).psi(t') at {(ta, tb)}"

    checks.append(_check("psi_homomorphism", psi_hom_failures()))

    # every kernel element of the enumerated stage is a psi image
    kernel_checked = kernel[:MAX_KERNEL]
    result = _check("kernel_equals_image", (
        f"kernel element {idx} is not psi of its restrictions" for idx in kernel_checked
        if inst.psi([inst.restrict_to_component(autos.elements[idx], i) for i in range(m)])
        != autos.elements[idx]))
    if result.passed and len(kernel) > len(kernel_checked):
        result = CheckResult(result.name, True, f"checked {len(kernel_checked)} of "
                                                f"{len(kernel)} kernel elements")
    checks.append(result)

    # the conjugation relation rho(s)^{-1} psi(g) rho(s) = psi(g o s)
    def conjugation_failures():
        for sigma in all_perms(m):
            rho_s, rho_s_inv = rho_of[sigma], rho_of[invert_perm(sigma)]
            for tup in tuples[:max(1, MAX_TUPLES // math.factorial(m))]:
                conjugated = compose(rho_s_inv, compose(psi_by_indices(tup), rho_s))
                if conjugated != psi_by_indices(tuple(tup[sigma[i]] for i in range(m))):
                    yield f"conjugation relation fails at sigma={sigma}, tuple={tup}"

    checks.append(_check("conjugation_relation", conjugation_failures()))

    # exactness at the order level, meaningful only when the stage is a group
    ok = len(autos.elements) == len(kernel) * len(image)
    detail = f"|A|={len(autos.elements)}, |ker|={len(kernel)}, |im|={len(image)}"
    escape = None if ok else _stage_escape(autos)
    if escape is not None:
        i, j, r_out = escape
        ok = True
        detail = (f"not applicable on a truncated stage: element {i} . element {j} "
                  f"has canonical radius {r_out} and leaves the stage; {detail}")
    checks.append(CheckResult("order_exactness", ok, detail))

    rotations = {tuple((k + j) % m for k in range(m)) for j in range(m)}
    if set(image) <= rotations and m > 2:
        notes.append("pi image of the enumerated stage contains rotations "
                     "only; the non-rotation branch of the class action was "
                     "not exercised at this radius")

    pi_table = dict(enumerate(pi_of + [()] * (len(autos.elements) - len(pi_of))))
    rho_table = {sigma: code.to_document() for sigma, code in rho_of.items()}
    psi_table = {tup: code.to_document() for tup, code in psi_of.items()}
    return WreathDecompositionReport(
        sft.matrix_hash(), n, m, radius, r_eff, len(autos.elements), len(kernel),
        len(image), checks, pi_table, rho_table, psi_table, notes)


# -- quotient isomorphisms -----------------------------------------------------------


class QuotientReport(Record):
    # status: "pass", "fail", or "inconclusive"
    __slots__ = FIELDS = ("matrix_hash", "m", "radius", "status", "lhs_mod_shift_order",
                          "lhs_mod_power_order", "rhs_order", "item_i_isomorphic",
                          "item_ii_isomorphic", "detail")
    DEFAULTS = {"detail": ""}

    @property
    def passes(self) -> bool:
        return self.status != "fail"

    def to_document(self) -> dict:
        return {"schema_version": 1, **dict(zip(self.FIELDS, self.values))}


def shifted_key(code: SlidingBlockCode, j: int, rho: int):
    """The canonical key of sigma^j . code (``compose(shift_code(sft, j),
    code).canonical_key()``) when its canonical radius is <= rho, else None.

    sigma^j . code reads the translated window [j - r, j + r] of the
    canonical radius-r rule.  It factors through the centred rho-window iff
    it does so on every admissible word spanning both windows: every such word
    of an essential graph extends to a point, so the test is exact.  The
    minimal radius r2 <= rho is then found on the rho-words (``factor_key``).
    """
    code = code.canonical()
    sft, r = code.domain, code.radius
    lo, hi = min(-rho, j - r), max(rho, j + r)
    length, width, centre = hi - lo + 1, 2 * r + 1, 2 * rho + 1
    on_centre = regroup(sft.subwindow_ids(length, centre)[-rho - lo],
                        gather(code.rule, sft.subwindow_ids(length, width)[j - r - lo]),
                        len(sft.language(centre)))
    return None if on_centre is None else factor_key(sft, rho, on_centre)


def _quotient_group(autos: AutomorphismSet, step: int):
    """The quotient of the enumerated stage by the shift subgroup {s^{j*step}}
    as a finite group table, or None when the cosets conflict or composition
    leaves the stage."""
    rho = max((code.canonical_radius for code in autos.elements), default=0)
    scan = 4 * autos.radius + step  # 2r, plus the inverse radius 2r, plus a step

    def translates(code):
        """Stage indices of sigma^j . code, j = a multiple of step in [-scan, scan]."""
        for j in range(-(scan // step) * step, scan + 1, step):
            key = shifted_key(code, j, rho)
            if key in autos.key_index:
                yield autos.key_index[key]

    # coset of each element, each coset represented by its first element's index
    assignment = [None] * len(autos)
    reps = []
    for i, code in enumerate(autos.elements):
        if assignment[i] is not None:
            continue
        for k in set(translates(code)) | {i}:
            if assignment[k] is not None:
                return None
            assignment[k] = len(reps)
        reps.append(i)
    table = []
    for a in reps:
        row = []
        for b in reps:
            k = next(translates(autos.product(a, b)), None)
            if k is None:
                return None
            row.append(assignment[k])
        table.append(row)
    try:
        return FiniteGroup(table, check_axioms=True)
    except StabdynError:
        return None


def verify_quotient_isos(sft: EdgeShift, m: int, radius: int) -> QuotientReport:
    """Check, on radius-bounded stages, that
    (ii) Aut(T)/<T> ~ Aut(T^m on X_m)/<T^m on X_m> and
    (i)  Aut(T)/<T^m> ~ (that group) x Z/mZ,
    where m is the period and X_m the mixing Smale piece."""
    p = period(sft)
    if m != p:
        raise NoSuchEigenvalueError(f"quotient comparison needs m = period = {p}")
    dec = smale(sft)
    lhs = enumerate_automorphisms(sft, radius)
    rhs = _component_stage(dec.component_shift, radius)

    lhs_mod_shift = _quotient_group(lhs, 1)
    lhs_mod_power = _quotient_group(lhs, m)
    rhs_mod_shift = _quotient_group(rhs, 1)
    if lhs_mod_shift is None or lhs_mod_power is None or rhs_mod_shift is None:
        return QuotientReport(sft.matrix_hash(), m, radius, "inconclusive",
                              None, None, None, None, None,
                              "quotient not closed at this radius")
    item_ii = is_isomorphic(lhs_mod_shift, rhs_mod_shift) is not None
    product = direct_product(rhs_mod_shift, cyclic_group(m))
    item_i = is_isomorphic(lhs_mod_power, product) is not None
    status = "pass" if (item_i and item_ii) else "fail"
    return QuotientReport(sft.matrix_hash(), m, radius, status,
                          lhs_mod_shift.order, lhs_mod_power.order,
                          rhs_mod_shift.order, item_i, item_ii)


# -- wreath rigidity ------------------------------------------------------------------


class RigidityReport(Record):
    # verdict: "consistent" or "THEOREM-VIOLATION"
    __slots__ = FIELDS = ("base_g", "n", "base_h", "m", "order_g", "order_h", "isomorphic",
                          "verdict", "detail")
    DEFAULTS = {"detail": ""}

    @property
    def passes(self) -> bool:
        return self.verdict == "consistent"

    def to_document(self) -> dict:
        return {
            "schema_version": 1,
            "wreath_g": {"base": self.base_g, "n": self.n, "order": self.order_g},
            "wreath_h": {"base": self.base_h, "m": self.m, "order": self.order_h},
            "isomorphic": self.isomorphic,
            "verdict": self.verdict,
            "detail": self.detail,
        }


def check_wreath_rigidity(base_g: FiniteGroup, n: int, base_h: FiniteGroup, m: int,
                          name_g: str = "G", name_h: str = "H") -> RigidityReport:
    """Decide whether G wr Sym(n) and H wr Sym(m) are isomorphic.  Both
    orders are checked against the budget first, G's then H's.  Unequal
    orders, or unequal element-order spectra (``order_spectrum``, read off
    cycle types with no table), rule an isomorphism out; the spectra are
    part of ``is_isomorphic``'s invariant signature, so the report is the
    one its None gives.  Otherwise both groups are materialized and searched.
    A found isomorphism with n != m, or n = m >= 4 with non-isomorphic bases,
    contradicts wreath rigidity and is flagged THEOREM-VIOLATION."""
    budget = default_budget()
    order_g, order_h = WreathContext(base_g, n).order, WreathContext(base_h, m).order
    check(order_g, budget, "group_order", "wreath group order")
    check(order_h, budget, "group_order", "wreath group order")
    report = functools.partial(RigidityReport, name_g, n, name_h, m, order_g, order_h)
    if order_g != order_h:
        return report(None, "consistent", "orders differ; no isomorphism possible")
    # the search reads only h's table, so an equal base table needs no second copy
    shared = m == n and base_h.table == base_g.table
    if not shared and order_spectrum(base_g, n) != order_spectrum(base_h, m):
        return report(False, "consistent", "no isomorphism found")
    wg = wreath_group(base_g, n)
    wh = wg if shared else wreath_group(base_h, m)
    iso = is_isomorphic(wg, wh) is not None
    if iso and n != m and n >= 2 and m >= 2:
        return report(True, "THEOREM-VIOLATION",
                      "isomorphic wreath products with different arities")
    if iso and n == m and n >= 4 and is_isomorphic(base_g, base_h) is None:
        return report(True, "THEOREM-VIOLATION", "isomorphic wreaths, arity >= 4, bases differ")
    return report(iso, "consistent", "isomorphic" if iso else "no isomorphism found")


# -- eigenvalue comparison ---------------------------------------------------------------


def compare_rational_eigs(x: EdgeShift, y: EdgeShift) -> dict:
    """The SFT shadow of eigenvalue recovery: report both rational eigenvalue
    sets, their equality, and the top wreath sizes (the periods) that wreath
    rigidity forces to agree under an isomorphism of stabilized groups."""
    ex, ey = sorted(rational_eigs(x)), sorted(rational_eigs(y))
    return {
        "schema_version": 1,
        "eigs_x": ex,
        "eigs_y": ey,
        "equal": ex == ey,
        "period_x": max(ex),
        "period_y": max(ey),
        "note": "equal periods force equal divisor sets; rigidity of "
                "base wr Sym(period) pins the period",
    }


# -- entropy ratio --------------------------------------------------------------------------


class EntropyRatioReport(Record):
    # verdict: "rational-within-tolerance" or "inconclusive"
    __slots__ = FIELDS = ("entropy_x", "entropy_y", "ratio", "best_numerator",
                          "best_denominator", "residual", "verdict", "exact_integer_relation")

    def to_document(self) -> dict:
        return {
            "schema_version": 1,
            "entropy_x": self.entropy_x,
            "entropy_y": self.entropy_y,
            "ratio": self.ratio,
            "best_rational": [self.best_numerator, self.best_denominator],
            "residual": self.residual,
            "verdict": self.verdict,
            "exact_integer_relation": self.exact_integer_relation,
        }


def entropy_ratio(x: EdgeShift, y: EdgeShift, max_denominator: int = 50,
                  tol: float = 1e-9) -> EntropyRatioReport:
    """Best rational approximation of h(x)/h(y) with bounded denominator,
    computed in floats from the entropies' power iterations.

    Entropies are cross-checked through the Smale pieces (component entropy
    must equal period * entropy).  The verdict is never a claim of
    irrationality: it is "rational-within-tolerance" or "inconclusive".  When
    both Perron values are integers k, each a root of its exact characteristic
    polynomial, the relation k_x^q = k_y^p is additionally decided exactly;
    otherwise ``exact_integer_relation`` is None.
    """
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise StabdynError("tolerance must be finite and >= 1e-12")
    if max_denominator < 1:
        raise StabdynError("max denominator must be >= 1")
    ent_x, ent_y = entropy(x), entropy(y)
    hx, hy = ent_x.log_value, ent_y.log_value
    if hx <= 0.0 or hy <= 0.0:
        raise ZeroEntropyError("entropy ratio needs positive entropies")
    for shift, h in ((x, hx), (y, hy)):
        dec = smale(shift)
        comp = dec.component_shift
        # equal matrices have equal entropies; a period > 1 component differs
        comp_h = h if comp.adjacency == shift.adjacency else entropy(comp).log_value
        if abs(comp_h - dec.period * h) > 1e-9:
            raise VerificationError("Smale component entropy mismatch")
    ratio = hx / hy
    # the closest fraction with denominator <= max_denominator
    frac = Fraction(ratio).limit_denominator(max_denominator)
    err = abs(ratio - float(frac))
    verdict = "rational-within-tolerance" if err <= tol else "inconclusive"
    exact = None
    # an integer k = round(lambda) is a root of the exact charpoly (integer Horner)
    kx, ky = round(ent_x.perron_value), round(ent_y.perron_value)
    if verdict == "rational-within-tolerance" and frac.numerator > 0 \
            and abs(ent_x.perron_value - kx) < 1e-9 and abs(ent_y.perron_value - ky) < 1e-9 \
            and all(functools.reduce(lambda acc, c: acc * k + c,
                                     reversed(charpoly_coefficients(shift.adjacency))) == 0
                    for shift, k in ((x, kx), (y, ky))):
        exact = kx ** frac.denominator == ky ** frac.numerator
        if not exact:
            verdict = "inconclusive"
    return EntropyRatioReport(hx, hy, ratio, frac.numerator, frac.denominator,
                              err, verdict, exact)
