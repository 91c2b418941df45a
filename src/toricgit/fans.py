"""Fans, invariant Weil divisors, and torus-invariant open loci.

A fan is stored as primitive ray generators plus maximal cones given by
ray indices.  Every listed ray of a maximal cone is extreme in it and no
other fan ray lies in it, so each face is keyed by the frozenset of the
indices of its generators, which are also exactly the fan rays it
contains.  For a valid pointed fan this keying is faithful and subset
order on keys is exactly the face order, which the locus bookkeeping
relies on.  Every face key is read off a maximal cone's facet zero sets
on its rays.  A maximal cone on linearly independent rays is simplicial:
it is pointed, its rays are extreme and its facets are the cones on all
rays but one (Cox-Little-Schenck, Section 1.2), so one rank settles what
validation asks of it, and it is converted only when a check reads its
facets.  Two checks do: the test of a fan ray outside the cone, and the
pair check, by a separating form before any intersection is converted.
Any other maximal cone is converted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Cone, meets_in, relative_interior_point
from .intlinalg import (
    IntMatrix,
    Vec,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank_of_rows,
    solve_integer,
    vdot,
)

FaceKey = frozenset


class FanError(Exception):
    """Structured fan rejection; kind is one of NonPrimitiveRay,
    DuplicateRay, IntersectionNotFace, NotPointed, BadIndex.

    IntersectionNotFace covers a maximal cone whose listed rays are not
    all extreme in it, a fan ray lying in a maximal cone that does not
    list it, and two maximal cones that do not meet in a common face."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


@dataclass(frozen=True)
class Fan:
    ambient_rank: int
    rays: tuple[Vec, ...]
    maximal_cones: tuple[tuple[int, ...], ...]
    _faces: dict[FaceKey, Cone]  # in (size, sorted indices) order

    def face_keys(self) -> tuple[FaceKey, ...]:
        return tuple(self._faces)

    def face_cone(self, key: FaceKey) -> Cone:
        try:
            return self._faces[key]
        except KeyError:
            raise KeyError(f"not a face of the fan: {sorted(key)}") from None

    def has_face(self, key: FaceKey) -> bool:
        return key in self._faces

    @property
    def maximal_keys(self) -> tuple[FaceKey, ...]:
        return tuple(frozenset(c) for c in self.maximal_cones)

    def all_keys_under(self, key: FaceKey) -> tuple[FaceKey, ...]:
        return tuple(k for k in self._faces if k <= key)


def validate_fan(ambient_rank: int, rays: Sequence[Sequence[int]],
                 maximal_cones: Sequence[Sequence[int]]) -> Fan:
    """The fan on these rays and maximal cones (lists of ray indices), or
    a FanError, checked in this order:

    - for each ray in turn: BadIndex for the wrong length, NonPrimitiveRay
      for a zero or non-primitive ray, DuplicateRay for a repeated one;
    - BadIndex: a cone index out of range;
    - NotPointed: a maximal cone that contains a line (every maximal cone
      is tested before anything below);
    - IntersectionNotFace: a listed ray that is not extreme in its cone,
      a fan ray inside a maximal cone that does not list it, or two
      maximal cones whose common rays do not span a face of both or that
      meet in more than that face (`cones.meets_in`).

    A maximal cone whose rays are linearly independent (one
    `rank_of_rows`) is built from them with no conversion: it is pointed
    and its rays are extreme.  Its facets are converted on first read, by
    a fan ray outside its key or by the pair check; a fan of one such
    cone listing every ray converts nothing.  Any other maximal cone is
    one `Cone.from_generators`.  Face keys are a cone's key cut by the ray
    zero sets of its facets, and each distinct key becomes one cone on
    those rays, with no conversion; a maximal cone is its own face."""
    ray_tuples: list[Vec] = []
    for r in rays:
        t = tuple(int(x) for x in r)
        if len(t) != ambient_rank:
            raise FanError("BadIndex", f"ray {t} has wrong length")
        if is_zero_vec(t) or primitive(t) != t:
            raise FanError("NonPrimitiveRay", f"ray {t} is not primitive")
        if t in ray_tuples:
            raise FanError("DuplicateRay", f"ray {t} listed twice")
        ray_tuples.append(t)

    max_keys: list[frozenset[int]] = []
    for idx_list in maximal_cones:
        idx = tuple(sorted(set(int(i) for i in idx_list)))
        for i in idx:
            if not 0 <= i < len(ray_tuples):
                raise FanError("BadIndex", f"ray index {i} out of range")
        max_keys.append(frozenset(idx))
    if not max_keys:
        max_keys.append(frozenset())  # the fan of the big torus alone

    # each maximal cone with the zero sets of its facets on its rays
    cones, facet_zeros = {}, {}
    for key in max_keys:
        gens = [ray_tuples[i] for i in sorted(key)]
        if rank_of_rows(gens) == len(gens):
            # simplicial: pointed, every ray extreme, and each facet is
            # the cone on all rays but one, so nothing here is converted
            cones[key] = Cone(ambient_rank, tuple(sorted(gens)), ())
            facet_zeros[key] = [key - {i} for i in key]
            continue
        c = Cone.from_generators(ambient_rank, gens)
        if c.lineality_rank != 0:
            raise FanError("NotPointed",
                           f"cone on rays {sorted(key)} contains a line")
        cones[key] = c
        facet_zeros[key] = [frozenset(i for i in key if vdot(u, ray_tuples[i]) == 0)
                            for u in c.facet_normals]

    # the fan rays in each maximal cone are exactly its rays, all extreme;
    # then a face is keyed by its generators, which determine it
    for key, c in cones.items():
        if len(c.generators) != len(key):
            raise FanError("IntersectionNotFace",
                           f"cone on rays {sorted(key)} has a ray that is not extreme")
        inside = [i for i, rv in enumerate(ray_tuples)
                  if i not in key and c.contains_point(rv)]
        if inside:
            raise FanError("IntersectionNotFace",
                           f"cone on rays {sorted(key)} contains rays {inside}")
    # a face of a maximal cone is cut out by a set of its facets, and its
    # key is the cone's key cut by those facets' zero sets on the rays
    face_map: dict[FaceKey, Cone] = dict(cones)
    own_keys = {}
    for key in cones:
        own = {key}
        for on in facet_zeros[key]:
            own |= {k & on for k in own}
        own_keys[key] = own
        for k in own - face_map.keys():
            face_map[k] = Cone(ambient_rank, tuple(sorted(ray_tuples[i] for i in k)), ())

    # two cones must meet in the face on their shared rays, of both
    for i, k1 in enumerate(max_keys):
        for k2 in max_keys[i + 1:]:
            common = k1 & k2
            if (common not in own_keys[k1] or common not in own_keys[k2]
                    or not meets_in(cones[k1], cones[k2], face_map[common])):
                raise FanError(
                    "IntersectionNotFace",
                    f"cones {sorted(k1)} and {sorted(k2)} do not meet in a common face")

    ordered = dict(sorted(face_map.items(),
                          key=lambda kv: (len(kv[0]), sorted(kv[0]))))
    return Fan(ambient_rank, tuple(ray_tuples),
               tuple(tuple(sorted(k)) for k in max_keys), ordered)


@dataclass(frozen=True)
class ToricDivisor:
    """Invariant Weil divisor sum a_rho * D_rho, one coefficient per ray
    in fan order."""

    coefficients: tuple[int, ...]

    @staticmethod
    def zero(fan: Fan) -> "ToricDivisor":
        return ToricDivisor(tuple(0 for _ in fan.rays))


@dataclass(frozen=True)
class DivisorGroup:
    basis: tuple[ToricDivisor, ...]

    def __post_init__(self):
        rows = [d.coefficients for d in self.basis]
        if rows and rank_of_rows(rows) != len(rows):
            raise ValueError("divisor group basis is not Z-linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class SubfanLocus:
    """Face-closed set of fan faces, i.e. an invariant open subset."""

    faces: frozenset

    def __contains__(self, key: FaceKey) -> bool:
        return key in self.faces

    def sorted_keys(self) -> list:
        return sorted(self.faces, key=lambda k: (len(k), sorted(k)))

    def maximal_keys(self) -> list:
        # a face under another is under a maximal one, which is larger
        # and so kept before it
        kept: list = []
        for k in sorted(self.faces, key=len, reverse=True):
            if not any(k < m for m in kept):
                kept.append(k)
        return sorted(kept, key=lambda k: (len(k), sorted(k)))

    @staticmethod
    def closure(fan: Fan, keys) -> "SubfanLocus":
        out = set()
        for k in keys:
            out.update(fan.all_keys_under(k))
        return SubfanLocus(frozenset(out))


def is_cartier_on(fan: Fan, D: ToricDivisor, key: FaceKey) -> Optional[Vec]:
    """m in M with <m, v_rho> = -a_rho for every ray of the face, if any."""
    idx = sorted(key)
    if not idx:
        return tuple(0 for _ in range(fan.ambient_rank))
    A = IntMatrix.from_rows([fan.rays[i] for i in idx], fan.ambient_rank)
    b = tuple(-D.coefficients[i] for i in idx)
    return solve_integer(A, b)


def cartier_locus(group: DivisorGroup, fan: Fan) -> SubfanLocus:
    keys = [k for k in fan.face_keys()
            if all(is_cartier_on(fan, d, k) is not None for d in group.basis)]
    # solvable on a cone implies solvable on its faces, so already closed
    return SubfanLocus(frozenset(keys))


@dataclass(frozen=True)
class ClassGroupInfo:
    cl_rank: int
    cl_torsion: tuple[int, ...]
    pic_rank: int
    torus_factor_rank: int


def class_group(fan: Fan) -> ClassGroupInfo:
    """Divisor class group Z^rays / (principal divisors) and the rank of
    its Picard subgroup (classes Cartier on every maximal cone)."""
    from .intlinalg import Sublattice, cokernel_projection

    r = len(fan.rays)
    n = fan.ambient_rank
    ray_rows = [tuple(fan.rays[i][j] for i in range(r)) for j in range(n)]
    ray_rank = rank_of_rows(ray_rows)
    if r == 0:
        return ClassGroupInfo(0, (), 0, n)
    principal = Sublattice.from_rows(r, ray_rows)
    _, torsion = cokernel_projection(principal)
    cl_rank = r - principal.rank

    # Cartier divisors: (a, m_sigma per maximal cone) with
    # <m_sigma, v_rho> + a_rho = 0 on each cone's rays
    maxes = fan.maximal_keys
    nvars = r + n * len(maxes)
    rows = []
    for s, key in enumerate(maxes):
        for i in sorted(key):
            row = [0] * nvars
            row[i] = 1
            for j in range(n):
                row[r + n * s + j] = fan.rays[i][j]
            rows.append(tuple(row))
    ker = kernel_basis(IntMatrix.from_rows(rows, nvars))
    a_parts = [row[:r] for row in ker.basis.entries]
    cdiv_rank = rank_of_rows(a_parts)
    return ClassGroupInfo(cl_rank, torsion, cdiv_rank - ray_rank, n - ray_rank)


def section_cone(fan: Fan, degree_rows: Sequence[Vec],
                 weight_rows: Sequence[tuple[Vec, Vec]] = (),
                 shared_strict: Sequence[Vec] = ()) -> tuple[Cone, tuple[Vec, ...]]:
    """The cone P of invariant sections u in M of degree s in Z^k and the
    forms cutting it out.  The form of ray j, f_j(u, s) = <u, v_j> +
    deg_j(s) with deg_j = degree_rows[j], is the section's order of
    vanishing along the ray; the forms are the f_j in ray order, then the
    shared forms (in s), all >= 0 on P, with the weight rows
    m_row . u + s_row . s = 0."""
    n = fan.ambient_rank
    # a fan without rays has no degree rows; the shared forms still fix k
    k = len((degree_rows or shared_strict or [()])[0])
    forms = tuple(tuple(v) + tuple(deg) for v, deg in zip(fan.rays, degree_rows))
    forms += tuple((0,) * n + tuple(f) for f in shared_strict)
    eqs = [tuple(m_row) + tuple(s_row) for m_row, s_row in weight_rows]
    return Cone.from_inequalities(n + k, forms, eqs), forms


def chart_witness(fan: Fan, section: tuple[Cone, tuple[Vec, ...]],
                  tau: FaceKey) -> Optional[dict]:
    """{"monomial": u, "degree": s} of a section in the section cone that
    vanishes exactly on the rays of the face tau (f_j = 0 for j in tau,
    every other form > 0), so its nonvanishing locus is tau's chart; or
    None.  Each f_j is >= 0 on P, so the f_j with j in tau cut out a face
    of P, and its relative_interior_point p, read by incidence, is the
    witness iff any point of that face is: p is the strict-feasibility
    witness of tau's own system, as feasible_strict gives it."""
    cone, forms = section
    p = relative_interior_point(cone, [forms[j] for j in tau])
    if any(vdot(f, p) <= 0 for j, f in enumerate(forms) if j not in tau):
        return None
    return {"monomial": p[:fan.ambient_rank], "degree": p[fan.ambient_rank:]}


def largest_first(fan: Fan, test) -> dict:
    """{key: test(key)} where test passes (is not None), over the faces
    largest first.  A face under a passing face is in the closure and
    never maximal, so it is skipped: the keys are the maximal faces."""
    passing = {}
    for key in reversed(fan.face_keys()):
        if not any(key <= k for k in passing):
            got = test(key)
            if got is not None:
                passing[key] = got
    return passing


def ample_locus(group: DivisorGroup, fan: Fan) -> SubfanLocus:
    """Faces on which the group is Cartier and some divisor in it has a
    section whose nonvanishing locus is exactly the face's affine chart
    (the chart witness with no weight constraint)."""
    section = section_cone(fan, [tuple(d.coefficients[j] for d in group.basis)
                                 for j in range(len(fan.rays))])

    def chart(key):
        wit = chart_witness(fan, section, key)
        if wit and all(is_cartier_on(fan, d, key) is not None for d in group.basis):
            return wit
        return None
    return SubfanLocus.closure(fan, largest_first(fan, chart))
