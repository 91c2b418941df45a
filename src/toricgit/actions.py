"""Subtorus actions on toric varieties and their semistable loci.

The acting torus H is given by an injective lattice map phi: Z^d -> N
(columns are one-parameter subgroups).  A linearization of a divisor
group is a character shift per basis divisor; the canonical
linearization is the zero shift.  The orbit of a face gamma is
semistable iff some face tau >= gamma admits an invariant section, a
single monomial, whose nonvanishing locus is exactly the affine chart of
tau.  A locus converts one section cone and reads each chart's witness
off its faces by incidence, walking the faces largest first and
skipping those under a chart that already passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cones import (
    Cone,
    faces as cone_faces,
    intersect,
    relative_interior_point,
)
from .fans import (
    DivisorGroup,
    Fan,
    FaceKey,
    SubfanLocus,
    ToricDivisor,
    chart_witness,
    is_cartier_on,
    largest_first,
    section_cone,
)
from .intlinalg import (
    IntMatrix,
    LatticeMap,
    Vec,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank_of_rows,
    vdot,
    vneg,
)


class ActionError(Exception):
    pass


class NotAffine(Exception):
    """Raised by operations that require a single-cone (affine) fan."""


@dataclass(frozen=True)
class SubtorusAction:
    """H = (K*)^d embedded in the big torus via phi: Z^d -> N.

    phi is injective iff its d columns are linearly independent, so the
    check is one rank; a kernel is computed only to word the error."""

    phi: LatticeMap

    def __post_init__(self):
        if rank_of_rows(self.phi_star_rows()) != self.d:
            raise ActionError(f"phi is not injective; kernel basis "
                              f"{kernel_basis(self.phi.matrix).basis.entries}")

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], ambient_rank: int) -> "SubtorusAction":
        rows = [tuple(col[j] for col in columns) for j in range(ambient_rank)]
        mat = IntMatrix.from_rows(rows, len(columns))
        return SubtorusAction(LatticeMap(mat, len(columns), ambient_rank))

    @property
    def d(self) -> int:
        return self.phi.source_rank

    @property
    def ambient_rank(self) -> int:
        return self.phi.target_rank

    def phi_star(self, u: Sequence[int]) -> Vec:
        """Dual weight map M -> Z^d."""
        return tuple(sum(self.phi.matrix.entries[j][i] * u[j]
                         for j in range(self.ambient_rank))
                     for i in range(self.d))

    def phi_star_rows(self) -> list[Vec]:
        """The columns of phi: one weight row per factor of H."""
        return [tuple(self.phi.matrix.entries[j][i] for j in range(self.ambient_rank))
                for i in range(self.d)]


@dataclass(frozen=True)
class Linearization:
    """Character shift per basis divisor; all-zero = the canonical
    linearization coming from the action on the function field."""

    shifts: tuple[Vec, ...]

    @staticmethod
    def canonical(num_divisors: int, d: int) -> "Linearization":
        return Linearization(tuple(tuple(0 for _ in range(d))
                                   for _ in range(num_divisors)))


@dataclass(frozen=True)
class SemistabilityCertificate:
    """Replayable witness for one certified chart.

    degree is (n,) for a single divisor (n > 0) and the coefficient
    vector of D_0 in the group basis otherwise.  monomial is the u in M of
    the invariant section vanishing exactly on the chart's rays.  cartier
    holds local equations m on the chart: for a single divisor, the one
    equation of nD, which is the monomial itself; for the group case, one
    per basis divisor.  For the group case, invertibles lists (degree
    coefficients c, witness w) pairs spanning a finite-index subgroup of
    invertibly-realized degrees.
    """

    chart: FaceKey
    degree: Vec
    monomial: Vec
    cartier: tuple[Vec, ...]
    invertibles: tuple[tuple[Vec, Vec], ...] = ()
    group_case: bool = False


@dataclass(frozen=True)
class SemistableLocus:
    locus: SubfanLocus
    certificates: tuple[tuple[FaceKey, SemistabilityCertificate], ...]


def _single_shift(lin: Linearization, d: int) -> Vec:
    return lin.shifts[0] if lin.shifts else (0,) * d


def _locus_with_certs(fan: Fan, passing: dict) -> SemistableLocus:
    """The locus of the maximal faces in passing, certified by its values."""
    certs = sorted(passing.items(), key=lambda kc: (len(kc[0]), sorted(kc[0])))
    return SemistableLocus(SubfanLocus.closure(fan, passing), tuple(certs))


def _chart_rows(fan: Fan, basis, shifts, action: SubtorusAction):
    """Degree rows (one per ray) and weight rows of the section cone of
    the divisors in basis, linearized by shifts (one per divisor)."""
    return ([tuple(d.coefficients[j] for d in basis) for j in range(len(fan.rays))],
            [(m_row, tuple(s[t] for s in shifts))
             for t, m_row in enumerate(action.phi_star_rows())])


def _divisor_certificate(fan: Fan, key: FaceKey, section):
    """Certificate of the chart of key from one divisor's section cone.

    The chart witness (u, n) has <u, v_rho> + n*a_rho = 0 on the rays of
    the chart, so u is itself a local equation of nD there and no separate
    Cartier test is needed: the certificate records u both as the
    section's monomial and as that equation."""
    wit = chart_witness(fan, section, key)
    if wit is None:
        return None
    return SemistabilityCertificate(chart=key, degree=wit["degree"],
                                    monomial=wit["monomial"],
                                    cartier=(wit["monomial"],))


def semistable_divisor(D: ToricDivisor, lin: Linearization,
                       action: SubtorusAction, fan: Fan) -> SemistableLocus:
    """Semistable locus of the single linearized divisor D: charts tau
    realized by an invariant section of some positive multiple nD."""
    rows = _chart_rows(fan, (D,), (_single_shift(lin, action.d),), action)
    section = section_cone(fan, *rows, shared_strict=((1,),))
    return _locus_with_certs(fan, largest_first(
        fan, lambda key: _divisor_certificate(fan, key, section)))


def _invertible_degrees(fan: Fan, group: DivisorGroup, lin: Linearization,
                        action: SubtorusAction, key: FaceKey):
    """Kernel of the invertibility system over (w in M, c in Z^k):
    <w, v_rho> + sum_i c_i a_i(rho) = 0 on the chart's rays and
    phi_star(w) + sum_i c_i shift_i = 0.  Returns (rank of the projection
    to c, list of (c, w) generators with independent c-parts)."""
    n = fan.ambient_rank
    k = group.rank
    rows = []
    for i in sorted(key):
        rows.append(tuple(fan.rays[i]) +
                    tuple(d.coefficients[i] for d in group.basis))
    for t, m_row in enumerate(action.phi_star_rows()):
        rows.append(tuple(m_row) + tuple(s[t] for s in lin.shifts))
    if rows:
        ker = kernel_basis(IntMatrix.from_rows(rows, n + k))
        gens = [row for row in ker.basis.entries]
    else:
        gens = [tuple(1 if j == i else 0 for j in range(n + k))
                for i in range(n + k)]
    c_parts = [g[n:] for g in gens]
    chosen: list[tuple[Vec, Vec]] = []
    basis_rows: list[Vec] = []
    for g, c in zip(gens, c_parts):
        if is_zero_vec(c):
            continue
        if rank_of_rows(basis_rows + [c]) > len(basis_rows):
            basis_rows.append(c)
            chosen.append((c, g[:n]))
    return len(basis_rows), chosen


def semistable_group(group: DivisorGroup, lin: Linearization,
                     action: SubtorusAction, fan: Fan) -> SemistableLocus:
    """Semistable locus of a linearized divisor group: degrees range over
    the whole group (no positivity), every basis divisor must be Cartier
    on the chart, and the invertibly-realized degrees must have finite
    index in the group."""
    k = group.rank
    section = section_cone(fan, *_chart_rows(fan, group.basis, lin.shifts, action))

    def certify(key):
        # the witness is incidence only, so it goes before the SNF tests
        wit = chart_witness(fan, section, key)
        if wit is None:
            return None
        cartiers = []
        for d in group.basis:
            cartiers.append(is_cartier_on(fan, d, key))
            if cartiers[-1] is None:
                return None
        inv_rank, invertibles = _invertible_degrees(fan, group, lin, action, key)
        if inv_rank != k:
            return None
        return SemistabilityCertificate(
            key, wit["degree"], wit["monomial"], tuple(cartiers),
            invertibles=tuple(invertibles), group_case=True)
    return _locus_with_certs(fan, largest_first(fan, certify))


def _require_affine(fan: Fan) -> FaceKey:
    if len(fan.maximal_cones) != 1:
        raise NotAffine("operation requires a fan with a single maximal cone")
    return frozenset(fan.maximal_cones[0])


def mumford_trivial_semistable(chi: Sequence[int], action: SubtorusAction,
                               fan: Fan) -> SemistableLocus:
    """Semistable locus of the trivial bundle on an affine toric variety
    linearized by the character chi: charts realized by a regular
    invariant function of weight n*chi, n >= 1."""
    _require_affine(fan)
    chi = tuple(chi)
    if len(chi) != action.d:
        raise ActionError(f"character has length {len(chi)}, expected {action.d}")
    return semistable_divisor(ToricDivisor.zero(fan),
                              Linearization((vneg(chi),)), action, fan)


def _weight_generators(action: SubtorusAction, fan: Fan):
    """The lineality of every K_gamma and a map from gamma to the set of
    generators of K_gamma.  The slab sigma_dual ∩ gamma^perp is the face
    of sigma_dual on the facet normals of sigma that vanish on gamma,
    plus sigma^perp: read by incidence, no conversion.  K_gamma is
    phi_star of it, so its generators are the primitive nonzero phi_star
    images of those normals, and its lineality the images of sigma's
    span equalities, the same for every gamma.  Each normal's zero set
    on sigma's rays and its image are computed once, so a face keeps the
    images whose zero set holds its key."""
    top = _require_affine(fan)
    sigma = fan.face_cone(top)
    phi_star = LatticeMap(action.phi.matrix.transpose(), fan.ambient_rank, action.d)
    images = [(frozenset(i for i in top if vdot(u, fan.rays[i]) == 0), primitive(g))
              for u in sigma.facet_normals
              for g in [phi_star.apply(u)] if not is_zero_vec(g)]

    def generators(gamma: FaceKey) -> frozenset:
        return frozenset(g for zeros, g in images if gamma <= zeros)
    return [phi_star.apply(e) for e in sigma.span_equalities], generators


def achievable_weight_cone(gamma: FaceKey, action: SubtorusAction,
                           fan: Fan) -> Cone:
    """K_gamma = phi_star(sigma_dual intersect gamma^perp): weights of
    regular monomials nonvanishing on the orbit of gamma, so the trivial
    bundle at chi is semistable on that orbit iff chi lies in K_gamma.
    One conversion, of the generators `_weight_generators` reads off."""
    lineality, generators = _weight_generators(action, fan)
    return Cone.from_generators(action.d, sorted(generators(gamma)), lineality)


def git_chambers(action: SubtorusAction, fan: Fan):
    """Chamber decomposition of character space: on each returned cone
    the trivial-bundle semistable locus is constant; sampled at a
    relative interior character.  Covers phi_star(sigma_dual).

    The locus at chi is decided by membership, {gamma : chi in K_gamma},
    which is face-closed because K_gamma shrinks as gamma grows.  Only
    its maximal faces are certified, from one section cone per chamber:
    if chi lies in K_gamma, some tau >= gamma passes the chart test, and
    tau is itself a member, so a maximal member face gamma is that tau
    and passes.

    A weight cone is determined by its generator set, and faces share
    these sets (the 8 faces of the Cox data of P^2 have 2 of them), so
    each distinct set is converted once and each sample is tested once
    per distinct cone.  The conversions that remain are those weight cones,
    the two halves of each cell a hyperplane crosses, and one section
    cone per chamber."""
    lineality, generators = _weight_generators(action, fan)
    face_gens = {key: generators(key) for key in fan.face_keys()}
    kcones = {g: Cone.from_generators(action.d, sorted(g), lineality)
              for g in dict.fromkeys(face_gens.values())}

    hyperplanes = set()
    for c in kcones.values():
        for h in c.facet_normals + c.span_equalities:
            p = primitive(h)
            if not is_zero_vec(p):
                hyperplanes.add(vneg(p) if next(x for x in p if x) < 0 else p)

    cells = [kcones[face_gens[frozenset()]]]
    for h in sorted(hyperplanes):
        nxt = []
        for cell in cells:
            # h crosses the cell iff it takes both signs on it; then both
            # halves have the cell's dimension.  Otherwise one half is the
            # cell and the other a proper face of it (or the cell again).
            vals = [vdot(h, g) for g in cell.generators]
            if (any(vdot(h, l) for l in cell.lineality_basis)
                    or (any(v > 0 for v in vals) and any(v < 0 for v in vals))):
                for side in (h, vneg(h)):
                    nxt.append(Cone.from_inequalities(
                        action.d, list(cell.facet_normals) + [side],
                        list(cell.span_equalities)))
            else:
                nxt.append(cell)
        cells = nxt

    chambers = list(dict.fromkeys(f for cell in cells for f in cone_faces(cell)))
    chambers.sort(key=lambda c: (-c.dim, c.generators, c.lineality_basis))

    out = []
    for ch in chambers:
        chi = relative_interior_point(ch)
        members = {g for g, c in kcones.items() if c.contains_point(chi)}
        locus = SubfanLocus(frozenset(
            key for key, g in face_gens.items() if g in members))
        rows = _chart_rows(fan, (ToricDivisor.zero(fan),), (vneg(chi),), action)
        section = section_cone(fan, *rows, shared_strict=((1,),))
        certs = tuple((key, _divisor_certificate(fan, key, section))
                      for key in locus.maximal_keys())
        if any(cert is None for _, cert in certs):
            raise RuntimeError(f"weight-cone locus at {chi}: a maximal face fails")
        out.append((ch, chi, SemistableLocus(locus, certs)))
    return out


@dataclass(frozen=True)
class ObstructionReport:
    required: SubfanLocus
    weight_cones: tuple[tuple[FaceKey, Cone], ...]
    common: Cone
    locus_at_zero: SemistableLocus
    verdict: str  # "obstructed" | "not-obstructed" | "inconclusive"


def obstruction_report(required: SubfanLocus, action: SubtorusAction,
                       fan: Fan) -> ObstructionReport:
    """Can `required` be the trivial-bundle semistable locus for some
    character?  Any such character lies in every K_gamma for the maximal
    faces of `required`; if those cones meet only in 0 and the zero
    character fails, no character works."""
    _require_affine(fan)
    maxes = required.maximal_keys()
    kcones = [(key, achievable_weight_cone(key, action, fan)) for key in maxes]
    common = None
    for _, c in kcones:
        common = c if common is None else intersect(common, c)
    if common is None:
        common = Cone.full_space(action.d)
    locus0 = mumford_trivial_semistable(tuple(0 for _ in range(action.d)),
                                        action, fan)
    zero_matches = locus0.locus == required
    if zero_matches:
        verdict = "not-obstructed"
    elif common.is_zero():
        verdict = "obstructed"
    else:
        verdict = "inconclusive"
    return ObstructionReport(required, tuple(kcones), common, locus0,
                             verdict)
