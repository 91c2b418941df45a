"""Fans, invariant Weil divisors, and torus-invariant open loci.

A fan is stored as primitive ray generators plus maximal cones given by
ray indices.  Every listed ray of a maximal cone is extreme in it and no
other fan ray lies in it, so each face is keyed by the frozenset of the
indices of its generators, which are also exactly the fan rays it
contains.  For a valid pointed fan this keying is faithful and subset
order on keys is exactly the face order, which the locus bookkeeping
relies on.  A fan is its face keys: each maximal cone keeps its own,
and the cone of a face that is not maximal is built when it is read.

Every section system, whose solutions are the invariant sections of
some linearized divisors, is one `section_cone` of the divisor basis,
the action's columns and one character shift per divisor, and every
chart is decided off its generators' zero sets (`chart_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add, mul
from typing import Optional, Sequence

from .cones import Cone, cut_closure, meets_in, sign_table
from .intlinalg import (
    IntMatrix,
    Vec,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank_of_rows,
    smith_normal_form,
    solve_integer,
)

FaceKey = frozenset


class FanError(Exception):
    """Structured fan rejection; kind is one of NonPrimitiveRay,
    DuplicateRay, IntersectionNotFace, NotPointed, BadIndex, UnusedRay.

    IntersectionNotFace covers a maximal cone whose listed rays are not
    all extreme in it, a fan ray lying in a maximal cone that does not
    list it, and two maximal cones that do not meet in a common face.
    UnusedRay is a fan ray that no maximal cone lists: it is no cone of
    the fan, yet its form would still constrain every chart."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def size_order(keys) -> list:
    """Face keys in (size, sorted indices) order: sorted by their indices,
    then stably by size."""
    return sorted(sorted(keys, key=sorted), key=len)


@dataclass(frozen=True)
class Fan:
    """A validated fan: its face keys, in (size, sorted indices) order,
    each with its kept cone or None, and each maximal cone's own face
    keys in the same order.  `validate_fan` keeps the maximal cones, so a
    maximal cone is always the same object and facets converted once stay
    converted.  Any other face's cone is the cone on its rays, all
    extreme in it, which `face_cone` builds when it is read."""

    ambient_rank: int
    rays: tuple[Vec, ...]
    maximal_cones: tuple[tuple[int, ...], ...]
    _faces: dict[FaceKey, Optional[Cone]]
    _own_keys: dict[FaceKey, dict[FaceKey, None]]

    def face_keys(self) -> tuple[FaceKey, ...]:
        return tuple(self._faces)

    def face_cone(self, key: FaceKey) -> Cone:
        try:
            cone = self._faces[key]
        except KeyError:
            raise KeyError(f"not a face of the fan: {sorted(key)}") from None
        return cone or Cone(self.ambient_rank, tuple(sorted(self.rays[i] for i in key)), ())

    def has_face(self, key: FaceKey) -> bool:
        return key in self._faces

    @property
    def maximal_keys(self) -> tuple[FaceKey, ...]:
        return tuple(self._own_keys)

    def all_keys_under(self, key: FaceKey) -> tuple[FaceKey, ...]:
        """The face keys under key, in order: a maximal cone's own keys, or
        the own keys of the first maximal cone holding key that lie under
        it (a face under key is a face of that cone, as two cones of a fan
        meet in a face of each), or, when no maximal cone holds key, every
        face key under it."""
        for top, own in self._own_keys.items():
            if key <= top:
                return tuple(own) if key == top else tuple(k for k in own if k <= key)
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
      meet in more than that face (`cones.meets_in`);
    - UnusedRay: a fan ray that no maximal cone lists.

    A listed cone that repeats another or lies in another is then dropped:
    the fan keeps each inclusion-maximal key once, in the order listed.

    Each maximal cone and its sign table over the fan rays come from one
    `cones.sign_table`, read only by a check that needs it: a fan ray
    outside a cone's key lies in it iff its bit is in the AND of the >= 0
    masks, and `cones.meets_in` decides a pair on the masks; the cone of
    the pair's common face is built only if the pair is intersected.  A
    simplicial cone's face keys are the subsets of its key, in (size,
    sorted indices) order, and any other cone's are its key cut by the
    = 0 masks of its facets.  No face cone is built: the Fan keeps the
    maximal cones, and `Fan.face_cone` builds any other when it is
    read."""
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

    cones, tables = {}, {}
    for key in max_keys:
        cones[key], tables[key] = c, _ = sign_table(ambient_rank, ray_tuples, sorted(key))
        if c.lineality_basis:
            raise FanError("NotPointed", f"cone on rays {sorted(key)} contains a line")

    # the fan rays in each maximal cone are exactly its rays, all extreme;
    # then a face is keyed by its generators, which determine it
    ray_masks = {key: sum(1 << i for i in key) for key in cones}
    every = (1 << len(ray_tuples)) - 1
    for key, c in cones.items():
        if len(c.generators) != len(key):
            raise FanError("IntersectionNotFace",
                           f"cone on rays {sorted(key)} has a ray that is not extreme")
        inside = every ^ ray_masks[key]  # the rays outside the key, then those in c
        for ge, _, _ in tables[key]() if inside else ():
            inside &= ge
        if inside:
            raise FanError("IntersectionNotFace", f"cone on rays {sorted(key)} contains "
                           f"rays {[i for i in range(len(ray_tuples)) if inside >> i & 1]}")
    # every subset of a simplicial cone's rays keys a face; a face of any
    # other maximal cone is cut out by a set of its facets, and its key is
    # the cone's key cut by those facets' = 0 masks
    own_keys = {key: dict.fromkeys(frozenset(s) for n in range(len(key) + 1)
                                   for s in combinations(sorted(key), n)) if c.dim == len(key)
                else dict.fromkeys(size_order(cut_closure(key, [
                    frozenset(i for i in key if eq >> i & 1) for _, _, eq in tables[key]()])))
                for key, c in cones.items()}

    # two cones must meet in the face on their shared rays, of both; that
    # face's cone is built only if the pair is intersected.  Each key is
    # paired once, however often it is listed, and a key that is two
    # cones' common face lies in one of them, so it is no maximal cone
    keys, inner = list(cones), set()
    for n, k1 in enumerate(keys):
        for k2 in keys[n + 1:]:
            common = k1 & k2
            if (common not in own_keys[k1] or common not in own_keys[k2]
                    or not meets_in(cones[k1], cones[k2], lambda: Cone(
                        ambient_rank, tuple(sorted(ray_tuples[i] for i in common)), ()),
                        ((tables[k1](), ray_masks[k1]), (tables[k2](), ray_masks[k2]),
                         ray_masks[k1] & ray_masks[k2]))):
                raise FanError(
                    "IntersectionNotFace",
                    f"cones {sorted(k1)} and {sorted(k2)} do not meet in a common face")
            inner.add(common)
    unused = sorted(set(range(len(ray_tuples))).difference(*max_keys))
    if unused:
        raise FanError("UnusedRay", f"rays {unused} lie in no maximal cone")

    for key in inner & cones.keys():  # a listed cone under another
        del cones[key], own_keys[key]
    faces = own_keys[keys[0]] if len(keys) == 1 else size_order(set().union(*own_keys.values()))
    return Fan(ambient_rank, tuple(ray_tuples), tuple(tuple(sorted(k)) for k in cones),
               {**dict.fromkeys(faces), **cones}, own_keys)


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
        return size_order(self.faces)

    def maximal_keys(self) -> list:
        # a face under another is under a maximal one, which is larger
        # and so kept before it
        kept: list = []
        for k in sorted(self.faces, key=len, reverse=True):
            if not any(k < m for m in kept):
                kept.append(k)
        return size_order(kept)

    @staticmethod
    def closure(fan: Fan, keys) -> "SubfanLocus":
        """The faces under any of keys, in one pass over the fan's faces."""
        tops = list(keys)
        return SubfanLocus(frozenset(k for k in fan.face_keys() for m in tops if k <= m))


def is_cartier_on(fan: Fan, D: ToricDivisor, key: FaceKey) -> Optional[Vec]:
    """m in M with <m, v_rho> = -a_rho for every ray of the face, if any."""
    idx = sorted(key)
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
    its Picard subgroup (classes Cartier on every maximal cone).  The
    principal divisors are the row span of the ray matrix, so the torsion
    is its invariant factors greater than 1."""
    r = len(fan.rays)
    n = fan.ambient_rank
    ray_rows = [tuple(fan.rays[i][j] for i in range(r)) for j in range(n)]
    ray_rank = rank_of_rows(ray_rows)
    torsion = tuple(d for d in smith_normal_form(IntMatrix.from_rows(ray_rows, r)) if d > 1)
    cl_rank = r - ray_rank

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


def zero_sets(section: tuple[Cone, tuple[Vec, ...]]) -> tuple[tuple[Vec, int], ...]:
    """Each generator of a section cone with its zero set over the
    section's forms, as a bitmask (bit j where forms[j] vanishes on it):
    the table that `chart_witness` reads every chart off.  It is built on
    first use and kept on the cone with its forms, as the cone's facets
    are, so a section cone builds it once however many charts it tests,
    and a section whose charts are never tested never builds it."""
    cone, forms = section
    kept = cone.__dict__.get("_zero_sets")
    if kept is None or kept[0] != forms:
        kept = forms, tuple((g, sum(1 << j for j, f in enumerate(forms)
                                    if not sum(map(mul, f, g))))
                            for g in cone.generators)
        object.__setattr__(cone, "_zero_sets", kept)
    return kept[1]


def section_cone(fan: Fan, basis: Sequence[ToricDivisor], columns: Sequence[Vec] = (),
                 shifts: Sequence[Vec] = (), positive: bool = False
                 ) -> tuple[Cone, tuple[Vec, ...]]:
    """The cone P of invariant sections u in M of degree s in Z^k, over
    the k divisors of basis, and the forms cutting it out.  The form of
    ray j, f_j(u, s) = <u, v_j> + sum_i s_i a_i(j), is the section's
    order of vanishing along the ray; the forms are the f_j in ray order,
    then, if positive (a single divisor), s >= 0, all >= 0 on P.  Each
    column of the action gives a weight row, col . u + sum_i s_i
    shift_i[t] = 0, with one shift per basis divisor."""
    n = fan.ambient_rank
    forms = tuple(v + tuple(d.coefficients[j] for d in basis) for j, v in enumerate(fan.rays))
    if positive:
        forms += ((0,) * n + (1,),)
    eqs = [tuple(col) + tuple(s[t] for s in shifts) for t, col in enumerate(columns)]
    return Cone.from_inequalities(n + len(basis), forms, eqs), forms


def chart_witness(fan: Fan, section: tuple[Cone, tuple[Vec, ...]],
                  tau: FaceKey) -> Optional[dict]:
    """{"monomial": u, "degree": s} of a section in the section cone that
    vanishes exactly on the rays of the face tau (f_j = 0 for j in tau,
    every other form > 0), so its nonvanishing locus is tau's chart; or
    None.  Each f_j is >= 0 on P, so the f_j with j in tau cut out a face
    of P, generated by the generators G whose zero sets (`zero_sets`)
    hold tau and by P's lineality, on which every form vanishes.  A form
    is positive somewhere on that face iff it is positive on some member
    of G, so tau passes iff the AND of G's zero sets is exactly tau
    (every form when G is empty), and the witness is the sum of G: the
    face's relative_interior_point, the strict-feasibility witness of
    tau's own system, as feasible_strict gives it."""
    cone, forms = section
    t = sum(1 << j for j in tau)
    common, p = (1 << len(forms)) - 1, (0,) * cone.ambient_rank
    for g, z in zero_sets(section):
        if z & t == t:
            common &= z
            p = tuple(map(add, p, g))
    if common != t:
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
    section = section_cone(fan, group.basis)

    def chart(key):
        wit = chart_witness(fan, section, key)
        if wit and all(is_cartier_on(fan, d, key) is not None for d in group.basis):
            return wit
        return None
    return SubfanLocus.closure(fan, largest_first(fan, chart))
