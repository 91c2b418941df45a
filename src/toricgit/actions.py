"""Subtorus actions on toric varieties and their semistable loci.

The acting torus H is given by an injective lattice map phi: Z^d -> N,
stored as its d columns: the one-parameter subgroups, which are also
the weight rows of the dual map phi_star.  A linearization of a divisor
group is a character shift per basis divisor; the canonical
linearization is the zero shift.  The orbit of a face gamma is
semistable iff some face tau >= gamma admits an invariant section, a
single monomial, whose nonvanishing locus is exactly the affine chart of
tau.  A locus converts one section cone (`fans.section_cone` of its
divisors, columns and shifts) and reads each chart's witness off its
generators' zero sets, walking the faces largest first and skipping
those under a chart that already passed.

For the trivial bundle on an affine chart sigma, a face gamma has weight
cone K_gamma = phi_star(sigma_dual ∩ gamma^perp), the locus at chi is
L(chi) = {gamma : chi in K_gamma}, and lambda_R = ∩ K_gamma over the
maximal faces of a locus R.  If R = L(chi), lambda_R is the GIT cone of
chi, L is constant on its relative interior, and the GIT cones form a
fan (Berchtold-Hausen 2006).  As in Keicher's GIT-fan algorithm
("Computing the GIT-fan", 2012), git_chambers converts and walks only
the full-dimensional K_gamma: a point inside each of those that holds
it lies in no lower-dimensional one, or its GIT cone would be a proper
face of the chamber holding it inside.  Its section cones at the
characters chi differ only in the weight rows, so it converts none:
each is sigma_dual x R>=0, read off sigma's facets, cut by chi's rows.
L(chi) is read off that section cone, not tested against any K_gamma:
gamma is a member iff some generator (u, s) with s > 0 vanishes on its
rays.
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
    size_order,
    zero_sets,
)
from .intlinalg import (
    IntMatrix,
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
    """H = (K*)^d embedded in the big torus via phi: Z^d -> N, stored as
    phi's d columns in N.

    phi is injective iff its columns are linearly independent, so the
    check is one rank; a kernel is computed only to word the error."""

    columns: tuple[Vec, ...]
    ambient_rank: int

    def __post_init__(self):
        for col in self.columns:
            if len(col) != self.ambient_rank:
                raise ActionError(f"action column {col} has length {len(col)}, "
                                  f"expected {self.ambient_rank}")
        if rank_of_rows(self.columns) != self.d:
            phi = IntMatrix.from_rows(zip(*self.columns), self.d)
            raise ActionError(f"phi is not injective; kernel basis "
                              f"{kernel_basis(phi).basis.entries}")

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], ambient_rank: int) -> "SubtorusAction":
        return SubtorusAction(tuple(tuple(int(x) for x in col) for col in columns),
                              ambient_rank)

    @property
    def d(self) -> int:
        return len(self.columns)

    def phi_star(self, u: Sequence[int]) -> Vec:
        """Dual weight map M -> Z^d: the pairing of u with each column."""
        return tuple(vdot(col, u) for col in self.columns)


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
    section = section_cone(fan, (D,), action.columns, (_single_shift(lin, action.d),),
                           positive=True)
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
    for t, col in enumerate(action.columns):
        rows.append(col + tuple(s[t] for s in lin.shifts))
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
    section = section_cone(fan, group.basis, action.columns, lin.shifts)

    def certify(key):
        # the witness is incidence only, so it goes before the lattice tests
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
        raise ActionError(f"character has length {len(chi)}, expected {action.d}, "
                          "the number of action columns")
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


def _git_cone(d: int, kcones) -> Cone:
    """The intersection of the weight cones kcones, the first cut by the
    others' facets and span equalities in one conversion (the whole space
    when there are none): lambda(chi) over L(chi)'s members, lambda_R over
    R's maximal faces."""
    if not kcones:
        return Cone.from_inequalities(d, ())
    first, *rest = kcones
    return first.cut([u for c in rest for u in c.facet_normals],
                     [e for c in rest for e in c.span_equalities])


def _section_start(fan: Fan) -> tuple[Cone, tuple[Vec, ...]]:
    """sigma_dual x R>=0, the trivial bundle's section cone before any
    weight row, and the forms `fans.section_cone` gives for D = 0: (v_j, 0)
    in ray order, then (0, 1).  It is generated by (u, 0) for sigma's facet
    normals u and by (0, 1), its lineality is spanned by (e, 0) for sigma's
    span equalities e, and, sigma being pointed, the forms are its facets:
    read off sigma's facets, no conversion.  When sigma = 0, sigma_dual is
    all of M."""
    n = fan.ambient_rank
    sigma = fan.face_cone(_require_affine(fan))
    forms = tuple(v + (0,) for v in fan.rays) + ((0,) * n + (1,),)
    start = Cone(n + 1, tuple(sorted([u + (0,) for u in sigma.facet_normals] + [forms[-1]])),
                 tuple(e + (0,) for e in sigma.span_equalities))
    start._set_facets(forms, ())
    return start, forms


def _locus_at(chi: Vec, action: SubtorusAction, fan: Fan,
              start: tuple[Cone, tuple[Vec, ...]]) -> SemistableLocus:
    """L(chi) and its certificates, read off one section cone S: the start
    cone cut by chi's d weight rows, col . u - chi_t s = 0, which is the
    cone `fans.section_cone` converts from the whole space, with the same
    forms, and its generators' zero sets over them (`fans.zero_sets`).
    gamma is in L(chi) iff chi is in K_gamma, iff the face of S on which
    gamma's forms vanish holds a point with s > 0, iff some generator
    (u, s) with s > 0 vanishes on gamma's rays (lineality vectors have
    s = 0).  Such a u is in sigma_dual, so the rays it vanishes on key
    the face u^perp ∩ sigma: L(chi) is the closure of those keys and its
    maximal faces are the maximal keys, with no weight cone tested.  Each
    maximal face passes its chart test, the AND of the zero sets holding
    it being its own key, and is certified from the same table."""
    cone, forms = start
    section = cone.cut(equalities=[col + (-c,) for col, c in zip(action.columns, chi)]), forms
    # the last form is s >= 0, so a generator with s > 0 misses its bit
    positive = 1 << len(fan.rays)
    tops = {z for _, z in zero_sets(section) if not z & positive}
    maxes = size_order(frozenset(j for j in range(len(fan.rays)) if z >> j & 1)
                       for z in tops if not any(z & z2 == z != z2 for z2 in tops))
    locus = SubfanLocus.closure(fan, maxes)
    certs = tuple((key, _divisor_certificate(fan, key, section)) for key in maxes)
    if any(cert is None for _, cert in certs):
        raise RuntimeError(f"weight-cone locus at {chi}: a maximal face fails")
    return SemistableLocus(locus, certs)


def git_chambers(action: SubtorusAction, fan: Fan):
    """The GIT fan of the trivial bundle: (lambda(chi), its relative
    interior sample chi, certified L(chi)) per cone.  L is constant on each
    relative interior, and no two cones share a locus.

    Only the full-dimensional weight cones are converted, as in Keicher's
    GIT-fan algorithm (2012): the distinct generator sets of rank d with
    the lineality images.  Omega = K_empty, the support, is one, sigma
    being pointed.  A point q is interior when each of them holding it (a
    member) holds it off its facets.  No lower-dimensional K_gamma then
    holds q: points near q off the lower ones have q's members, so these
    cut out a chamber with q inside, and lambda(q), lying in the lower
    K_gamma, would be a proper face of it holding q, which the fan forbids.
    So the members are the weight cones of L(q) and cut out the chamber
    around q.  The walk starts at q = sum_i k^i x_i
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
    zero sets on its generators, read by incidence; the rest are faces.
    Each cone's locus is read off sigma_dual x R>=0, built once per walk
    from sigma's facets and cut by its sample's weight rows (`_locus_at`):
    the members and maximal faces come from the cut's zero-set table and
    are certified from it, with no weight-cone membership test and no
    conversion from the whole space."""
    lineality, face_gens = _weight_generators(action, fan)
    kcones = {g: Cone.from_generators(action.d, sorted(g), lineality)
              for g in dict.fromkeys(face_gens.values())
              if rank_of_rows([*g, *lineality]) == action.d}
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
    start = _section_start(fan)
    return [(c, chi, _locus_at(chi, action, fan, start))
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
