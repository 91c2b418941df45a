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

For the trivial bundle on an affine chart sigma, a face gamma has weight
cone K_gamma = phi_star(sigma_dual ∩ gamma^perp), the locus at chi is
L(chi) = {gamma : chi in K_gamma}, and lambda_R = ∩ K_gamma over the
maximal faces of a locus R.  If R = L(chi), lambda_R is the GIT cone of
chi, L is constant on its relative interior, and the GIT cones form a
fan (Berchtold-Hausen 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .cones import (
    Cone,
    faces as cone_faces,
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
    vscale,
    vsub,
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
    gens = kernel_basis(IntMatrix.from_rows(rows, n + k)).basis.entries
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
    """The lineality of every K_gamma and, for each face gamma, the set of
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
    images = [(frozenset(i for i in top if vdot(u, fan.rays[i]) == 0), primitive(g))
              for u in sigma.facet_normals
              for g in [action.phi_star(u)] if not is_zero_vec(g)]
    return [action.phi_star(e) for e in sigma.span_equalities], {
        key: frozenset(g for zeros, g in images if key <= zeros) for key in fan.face_keys()}


def achievable_weight_cone(gamma: FaceKey, action: SubtorusAction,
                           fan: Fan) -> Cone:
    """K_gamma = phi_star(sigma_dual intersect gamma^perp): weights of
    regular monomials nonvanishing on the orbit of gamma, so the trivial
    bundle at chi is semistable on that orbit iff chi lies in K_gamma.
    One conversion, of the generators `_weight_generators` reads off."""
    lineality, face_gens = _weight_generators(action, fan)
    return Cone.from_generators(action.d, sorted(face_gens[gamma]), lineality)


def _weight_cones(action: SubtorusAction, fan: Fan):
    """Each face's K_gamma generator set, and one cone per distinct set."""
    lineality, face_gens = _weight_generators(action, fan)
    return face_gens, {g: Cone.from_generators(action.d, sorted(g), lineality)
                       for g in dict.fromkeys(face_gens.values())}


def _git_cone(d: int, kcones) -> Cone:
    """The intersection of the weight cones kcones by one conversion of
    their facets and span equalities: lambda(chi) over L(chi)'s members,
    lambda_R over R's maximal faces."""
    return Cone.from_inequalities(d, [u for c in kcones for u in c.facet_normals],
                                  [e for c in kcones for e in c.span_equalities])


def _locus_at(chi: Vec, action: SubtorusAction, fan: Fan, face_gens,
              kcones) -> SemistableLocus:
    """L(chi) by weight-cone membership, face-closed as K_gamma shrinks
    when gamma grows.  Its maximal faces are certified from one section
    cone: if chi is in K_gamma, some tau >= gamma passes the chart test and
    is a member, so a maximal member is that tau and passes."""
    members = {g for g, c in kcones.items() if c.contains_point(chi)}
    locus = SubfanLocus(frozenset(key for key, g in face_gens.items() if g in members))
    rows = _chart_rows(fan, (ToricDivisor.zero(fan),), (vneg(chi),), action)
    section = section_cone(fan, *rows, shared_strict=((1,),))
    certs = tuple((key, _divisor_certificate(fan, key, section))
                  for key in locus.maximal_keys())
    if any(cert is None for _, cert in certs):
        raise RuntimeError(f"weight-cone locus at {chi}: a maximal face fails")
    return SemistableLocus(locus, certs)


def git_chambers(action: SubtorusAction, fan: Fan):
    """The GIT fan of the trivial bundle: (lambda(chi), its relative
    interior sample chi, certified L(chi)) per cone.  L is constant on each
    relative interior, and no two cones share a locus.

    A point q of span(Omega), Omega = K_empty the support, is interior when
    each weight cone holding it (a member; Omega is one) holds it off its
    facets.  The members then have dim Omega (points near q miss a lower
    one, and L is constant on the relative interior of lambda(q)), so they
    cut out the chamber around q.  The walk starts at q = sum_i k^i x_i
    over Omega's generators and lineality basis x_i, and crosses each wall
    inside Omega once, to q = k*p - g interior with members among p's, p
    the sum of the chamber's generators on the wall and g one off it.
    Both loops double k from 1 and end: at the start, a failing test is a
    form nonzero on span(Omega) vanishing at q(k), a nonzero polynomial in
    k; in a step, q/k tends to p from beyond the wall, so for large k q
    lies inside the chamber across it, whose members are among p's.  Omega
    is convex, so its walls join all chambers; member sets key them, and
    each is one conversion, or a member if all members are one cone.  They
    share span(Omega), so its facets are the member normals with maximal
    zero sets on its generators, read by incidence; the rest are faces."""
    face_gens, kcones = _weight_cones(action, fan)
    omega = kcones[face_gens[frozenset()]]

    def members(q):
        return frozenset(g for g, c in kcones.items() if c.contains_point(q))

    def interior(q, around=frozenset(kcones)):
        m = members(q)
        return m if m <= around and all(
            vdot(u, q) for g in m for u in kcones[g].facet_normals) else frozenset()

    x = omega.generators + omega.lineality_basis
    k = 1
    while not (m := interior(tuple(sum(k ** i * v[j] for i, v in enumerate(x))
                                   for j in range(action.d)))):
        k *= 2
    todo = [m]
    chambers, crossed = {}, set()
    while todo:
        m = todo.pop()
        if m in chambers:
            continue
        cut = list(dict.fromkeys(c for g, c in kcones.items() if g in m))
        ch = chambers[m] = cut[0] if len(cut) == 1 else _git_cone(action.d, cut)
        zeros = {u: frozenset(i for i, g in enumerate(ch.generators) if vdot(u, g) == 0)
                 for c in cut for u in c.facet_normals}
        walls = {u: z for u, z in zeros.items() if not any(z < z2 for z2 in zeros.values())}
        ch._set_facets(sorted(walls), omega.span_equalities)
        for u, z in walls.items():
            p = relative_interior_point(ch, (u,))
            if p in crossed or any(vdot(f, p) == 0 for f in omega.facet_normals):
                continue
            crossed.add(p)
            g = next(g for i, g in enumerate(ch.generators) if i not in z)
            below, k = members(p), 1
            while not (m := interior(vsub(vscale(k, p), g), below)):
                k *= 2
            todo.append(m)

    cones = sorted({f for ch in chambers.values() for f in cone_faces(ch)},
                   key=lambda c: (-c.dim, c.generators, c.lineality_basis))
    return [(c, chi, _locus_at(chi, action, fan, face_gens, kcones))
            for c in cones for chi in [relative_interior_point(c)]]


@dataclass(frozen=True)
class ObstructionReport:
    required: SubfanLocus
    weight_cones: tuple[tuple[FaceKey, Cone], ...]
    common: Cone
    character: Vec
    locus: SemistableLocus
    verdict: str  # "obstructed" | "not-obstructed"


def obstruction_report(required: SubfanLocus, action: SubtorusAction,
                       fan: Fan) -> ObstructionReport:
    """Is `required` = R the trivial-bundle locus of a character?  If
    R = L(chi0), lambda_R (`common`) is the GIT cone of chi0 and L is
    constant on its relative interior, so R is realizable iff L(chi) = R at
    chi = relative_interior_point(lambda_R); else L(chi) holds R and a
    certified face outside it.  The empty R is realizable iff K_empty is
    not the whole space: at -u for its facet normal u, or at its equality.
    Only the weight cones of R's maximal faces are converted (K_empty
    alone when R is empty), from one `_weight_generators`, and L(chi) is
    one chart solve."""
    maxes = required.maximal_keys()
    lineality, face_gens = _weight_generators(action, fan)
    weight = tuple((key, Cone.from_generators(action.d, sorted(face_gens[key]), lineality))
                   for key in maxes)
    common = _git_cone(action.d, [c for _, c in weight])
    chi = relative_interior_point(common)
    if not maxes:
        omega = Cone.from_generators(action.d, sorted(face_gens[frozenset()]), lineality)
        chi = next(chain(map(vneg, omega.facet_normals), omega.span_equalities), chi)
    locus = mumford_trivial_semistable(chi, action, fan)
    return ObstructionReport(required, weight, common, chi, locus,
                             "not-obstructed" if locus.locus == required else "obstructed")
