"""Seeded random instance generators and plain reference helpers shared
by the unit and acceptance suites.  Everything random takes an explicit
random.Random so runs are reproducible."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction
from typing import Optional, Sequence

from toricgit import cones as cones_module
from toricgit.actions import (
    ActionError,
    Linearization,
    SemistableLocus,
    SubtorusAction,
    _divisor_certificate,
    _weight_generators,
)
from toricgit.builtin import intro_problem_data, quadric_problem_data
from toricgit.certcheck import CheckResult, _dot, _rank
from toricgit.cli import run as cli_run
from toricgit.cones import (
    Cone,
    FeasibilitySystem,
    _reduce_mod_rows,
    double_description,
    faces,
    feasible_strict,
    form_masks,
    image,
    intersect,
)
from toricgit.fans import (
    Fan,
    FaceKey,
    FanError,
    SubfanLocus,
    ToricDivisor,
    section_cone,
    validate_fan,
)
from toricgit.hilbert_mumford import HilbertBasisTooLarge, _box_ranges
from toricgit.intlinalg import (
    IntMatrix,
    LatticeMap,
    Sublattice,
    Vec,
    hermite_normal_form,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank_of_rows,
    saturate,
    solve_integer,
    vdot,
    vneg,
    vscale,
    vsub,
)
from toricgit.quotients import (
    GluedQuotient,
    QuotientChart,
    is_saturated,
    quotient_projection,
)


# complete simplicial fans: rays and maximal cones
COX_FANS = {
    "P2": ([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]]),
    "P3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "P1xP1": ([(1, 0), (0, 1), (-1, 0), (0, -1)],
              [[0, 1], [1, 2], [2, 3], [0, 3]]),
    "F1": ([(1, 0), (0, 1), (-1, 1), (0, -1)],
           [[0, 1], [1, 2], [2, 3], [0, 3]]),
}


def cox_data(rays):
    """The orthant C^r and the Cox action on it of the fan with these
    rays: H = ker(Z^r -> N, e_i -> v_i)."""
    r, n = len(rays), len(rays[0])
    ker = kernel_basis(IntMatrix.from_rows(
        [tuple(v[j] for v in rays) for j in range(n)], r))
    orthant = validate_fan(r, [tuple(int(i == j) for j in range(r))
                               for i in range(r)], [list(range(r))])
    return orthant, SubtorusAction.from_columns(ker.basis.entries, r)


def random_primitive_vector(rng: random.Random, dim: int, box: int = 2):
    while True:
        v = tuple(rng.randint(-box, box) for _ in range(dim))
        if not is_zero_vec(v):
            return primitive(v)


def random_affine_fan(rng: random.Random, rank: int, max_rays: int = 4) -> Fan:
    """Single pointed cone whose listed rays are exactly its extreme rays."""
    for _ in range(200):
        count = rng.randint(1, min(rank + 1, max_rays))
        rays = []
        for _ in range(count * 3):
            v = random_primitive_vector(rng, rank)
            if v not in rays:
                rays.append(v)
            if len(rays) == count:
                break
        if len(rays) < count:
            continue
        c = Cone.from_generators(rank, rays)
        if c.lineality_rank == 0 and set(c.generators) == set(rays):
            return validate_fan(rank, rays, [list(range(len(rays)))])
    raise RuntimeError("could not sample an affine fan")


def random_complete_fan2(rng: random.Random) -> Fan:
    """Complete fan in rank 2: rays sorted by angle, consecutive 2-cones."""
    for _ in range(200):
        count = rng.randint(3, 5)
        rays = []
        for _ in range(count * 5):
            v = random_primitive_vector(rng, 2)
            if v not in rays:
                rays.append(v)
            if len(rays) == count:
                break
        if len(rays) < count:
            continue
        rays.sort(key=lambda v: math.atan2(v[1], v[0]))
        gaps_ok = True
        for i in range(len(rays)):
            a = math.atan2(rays[i][1], rays[i][0])
            b = math.atan2(rays[(i + 1) % len(rays)][1],
                           rays[(i + 1) % len(rays)][0])
            gap = (b - a) % (2 * math.pi)
            if gap >= math.pi or gap == 0.0:
                gaps_ok = False
                break
        if not gaps_ok:
            continue
        cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
        return validate_fan(2, rays, cones)
    raise RuntimeError("could not sample a complete fan")


def random_fan(rng: random.Random, max_rank: int = 3) -> Fan:
    rank = rng.randint(1, max_rank)
    if rank == 2 and rng.random() < 0.4:
        return random_complete_fan2(rng)
    return random_affine_fan(rng, rank)


def random_action(rng: random.Random, fan: Fan, max_d: int = 2) -> SubtorusAction:
    rank = fan.ambient_rank
    d = rng.randint(0, min(max_d, rank))
    for _ in range(100):
        cols = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(d)]
        if rank_of_rows(cols) == d:
            return SubtorusAction.from_columns(cols, rank)
    return SubtorusAction.from_columns([], rank)


def random_divisor(rng: random.Random, fan: Fan, box: int = 3) -> ToricDivisor:
    return ToricDivisor(tuple(rng.randint(-box, box) for _ in fan.rays))


def random_shift(rng: random.Random, d: int, box: int = 2):
    return tuple(rng.randint(-box, box) for _ in range(d))


def random_linearization(rng: random.Random, d: int, k: int = 1) -> Linearization:
    return Linearization(tuple(random_shift(rng, d) for _ in range(k)))


def random_unimodular(rng: random.Random, rank: int):
    """Random unimodular matrix as a row list, by shear products."""
    rows = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for t in range(rank):
            rows[i][t] += c * rows[j][t]
    if rng.random() < 0.5:
        rng.shuffle(rows)
        # keep determinant +-1 under permutation; sign does not matter
    return [tuple(r) for r in rows]


def fraction_rank(rows) -> int:
    """Reference rank over Q: Gaussian elimination with Fraction entries."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# --- references for properties the engine does not expose ---------------

def fraction_det(rows) -> Fraction:
    """Reference determinant of a square matrix: Gaussian elimination with
    Fraction entries; the empty matrix has determinant 1."""
    n = len(rows)
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if mat[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            mat[j], mat[piv] = mat[piv], mat[j]
            det = -det
        det *= mat[j][j]
        for i in range(j + 1, n):
            f = mat[i][j] / mat[j][j]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[j])]
    return det


def invariant_factors_by_minors(rows) -> tuple[int, ...]:
    """Reference nonzero invariant factors d_1 | d_2 | ... of an integer
    matrix, from its determinantal divisors: D_k is the gcd of the k x k
    minors, and d_k = D_k / D_(k-1)."""
    rows = [tuple(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    factors, prev = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        g = 0
        for I in itertools.combinations(range(len(rows)), k):
            for J in itertools.combinations(range(ncols), k):
                minor = fraction_det([[rows[i][j] for j in J] for i in I])
                g = math.gcd(g, int(minor))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def lattice_saturated(S: Sublattice) -> bool:
    """Z^n / S is torsion free: all invariant factors of the basis are 1."""
    return all(d == 1 for d in invariant_factors_by_minors(S.basis.entries))


def lattice_contains(S: Sublattice, v) -> bool:
    return solve_integer(S.basis.transpose(), v) is not None


def action_sublattice(action: SubtorusAction) -> Sublattice:
    """Saturation of phi(Z^d) in N."""
    return saturate(Sublattice.from_rows(action.ambient_rank, action.columns))


def contains_cone(outer: Cone, inner: Cone) -> bool:
    return (all(outer.contains_point(g) for g in inner.generators)
            and all(outer.contains_point(l) and outer.contains_point(vneg(l))
                    for l in inner.lineality_basis))


def interior_contains(c: Cone, x) -> bool:
    """Relative-interior membership."""
    return (all(vdot(u, x) > 0 for u in c.facet_normals)
            and all(vdot(e, x) == 0 for e in c.span_equalities))


def supporting_normal(c: Cone, face: Cone):
    """A u in the dual of c with face = c ∩ u^perp: the sum of the facet
    normals of c that vanish on the face."""
    active = [u for u in c.facet_normals
              if all(vdot(u, g) == 0 for g in face.generators + face.lineality_basis)]
    return tuple(sum(x) for x in zip(*active)) if active else (0,) * c.ambient_rank


def cone_by_two_conversions(ambient: int, generators, lineality=()):
    """Reference for `Cone.from_generators`: its five fields (generators,
    lineality_basis, facet_normals, span_equalities, dim) from a V-to-H
    conversion of the generators and an H-to-V conversion back."""
    gens = [primitive(tuple(g)) for g in generators if not is_zero_vec(g)]
    lins = [tuple(l) for l in lineality if not is_zero_vec(l)]
    normals, dual_lin = double_description(ambient, gens, lins)
    rays, lin = double_description(ambient, normals, dual_lin)
    return (tuple(rays), tuple(lin), tuple(normals),
            tuple(hermite_normal_form(dual_lin)), rank_of_rows(rays + lin))


def pair_masks(c1: Cone, c2: Cone, f: Cone):
    """The masks `cones.meets_in` reads for a pair, over the generators
    of c1, c2 and f."""
    points = list(dict.fromkeys(c1.generators + c2.generators + f.generators))
    bit = {p: 1 << i for i, p in enumerate(points)}
    g1, g2, face = (sum(bit[g] for g in c.generators) for c in (c1, c2, f))
    return (form_masks(c1, points), g1), (form_masks(c2, points), g2), face


def meets_in_by_sum(c1: Cone, c2: Cone, f: Cone) -> bool:
    """Reference for `cones.meets_in`: the separating form summed and
    evaluated at every generator of both cones.  m is the sum of the facet
    normals and signed span equalities of c1 that are <= 0 on c2's
    generators, less those of c2 that are <= 0 on c1's; when the three
    cones share their lineality and m vanishes on exactly f's generators
    among either cone's, the pair meets in f.  Any other pair is intersected
    (through the module attribute, so a test can count the fallbacks)."""
    if c1.lineality_basis == c2.lineality_basis == f.lineality_basis:
        m = dict.fromkeys(c1.generators + c2.generators, 0)
        for c, other, sign in ((c1, c2, 1), (c2, c1, -1)):
            forms = c.facet_normals + c.span_equalities + tuple(map(vneg, c.span_equalities))
            for u in forms:
                if all(vdot(u, g) <= 0 for g in other.generators):
                    for g in m:
                        m[g] += sign * vdot(u, g)
        face = set(f.generators)
        if any({g for g in c.generators if m[g] == 0} == face for c in (c1, c2)):
            return True
    return cones_module.intersect(c1, c2) == f


def validate_fan_by_conversion(ambient_rank: int, rays, maximal_cones) -> Fan:
    """Reference for `validate_fan`: the same checks in the same order,
    with every maximal cone converted by `Cone.from_generators`, every
    fan ray tested against it, and its face keys cut by its facet zero
    sets, simplicial or not.  The Fan it returns keeps the cone of every
    face, built here, where `validate_fan` keeps the maximal cones only
    and builds the others when `Fan.face_cone` reads them, so reading
    each face's cone from both compares those builds."""
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

    cones = {}
    for key in max_keys:
        c = Cone.from_generators(ambient_rank, [ray_tuples[i] for i in key])
        if c.lineality_rank != 0:
            raise FanError("NotPointed",
                           f"cone on rays {sorted(key)} contains a line")
        cones[key] = c

    # the fan rays in each maximal cone are exactly its rays, all extreme;
    # then a face is keyed by its generators, which determine it
    for key, c in cones.items():
        if len(c.generators) != len(key):
            raise FanError("IntersectionNotFace",
                           f"cone on rays {sorted(key)} has a ray that is not extreme")
        inside = frozenset(i for i, rv in enumerate(ray_tuples) if c.contains_point(rv))
        if inside != key:
            raise FanError("IntersectionNotFace",
                           f"cone on rays {sorted(key)} contains rays {sorted(inside - key)}")
    # a face of a maximal cone is cut out by a set of its facets, and its
    # key is the cone's key cut by those facets' zero sets on the rays
    face_map: dict[FaceKey, Cone] = dict(cones)
    own_keys = {}
    for key, c in cones.items():
        own = {key}
        for u in c.facet_normals:
            on = frozenset(i for i in key if vdot(u, ray_tuples[i]) == 0)
            own |= {k & on for k in own}
        own_keys[key] = own
        for k in own - face_map.keys():
            face_map[k] = Cone(ambient_rank, tuple(sorted(ray_tuples[i] for i in k)), ())

    # two cones must meet in the face on their shared rays, of both
    for i, k1 in enumerate(max_keys):
        for k2 in max_keys[i + 1:]:
            common = k1 & k2
            if (common not in own_keys[k1] or common not in own_keys[k2]
                    or not meets_in_by_sum(cones[k1], cones[k2], face_map[common])):
                raise FanError(
                    "IntersectionNotFace",
                    f"cones {sorted(k1)} and {sorted(k2)} do not meet in a common face")
    unused = sorted(set(range(len(ray_tuples))).difference(*max_keys))
    if unused:
        raise FanError("UnusedRay", f"rays {unused} lie in no maximal cone")

    ordered: dict[FaceKey, Optional[Cone]] = dict(
        sorted(face_map.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))))
    return Fan(ambient_rank, tuple(ray_tuples),
               tuple(tuple(sorted(k)) for k in max_keys), ordered)


def whole_locus(fan: Fan) -> SubfanLocus:
    return SubfanLocus(frozenset(fan.face_keys()))


def zero_pattern(fan: Fan, D: ToricDivisor, u, n: int):
    """Order of vanishing of the section u of nD along each ray."""
    return tuple(vdot(u, v) + n * a for v, a in zip(fan.rays, D.coefficients))


def open_complement(fan: Fan, b) -> SubfanLocus:
    """Faces all of whose rays have coefficient zero: the invariant open
    set where a section with zero pattern b does not vanish."""
    zero_rays = frozenset(i for i, x in enumerate(b) if x == 0)
    return SubfanLocus(frozenset(k for k in fan.face_keys() if k <= zero_rays))


def locus_of_faces(fan: Fan, keys) -> SemistableLocus:
    """The face-closed set under keys as a SemistableLocus with no
    certificates: its maximal faces are the certificate keys, which is
    all build_quotient reads."""
    locus = SubfanLocus.closure(fan, keys)
    return SemistableLocus(locus, tuple((k, None) for k in locus.maximal_keys()))


def orbit_image_by_facets(gamma: Cone, chart: QuotientChart) -> Cone:
    """Smallest face of the chart image holding pi(gamma): the image
    generators on every image facet that vanishes on all of pi(gamma),
    plus the image lineality."""
    img = chart.image
    points = [chart.projection.apply(g) for g in gamma.generators]
    assert all(img.contains_point(p) for p in points)
    tight = [u for u in img.facet_normals if all(vdot(u, p) == 0 for p in points)]
    return Cone(img.ambient_rank,
                tuple(g for g in img.generators if all(vdot(u, g) == 0 for u in tight)),
                img.lineality_basis)


def build_quotient_by_faces(ss: SemistableLocus, action: SubtorusAction,
                            fan: Fan) -> GluedQuotient:
    """Reference for build_quotient, face by face: one orbit image per
    face and chart, is_saturated per pair of charts, and every chart
    image, glue cone and pairwise intersection converted."""
    pi, torsion = quotient_projection(action)
    max_keys = sorted((k for k, _ in ss.certificates),
                      key=lambda k: (len(k), sorted(k)))
    charts = [QuotientChart(k, image(fan.face_cone(k), pi), pi) for k in max_keys]
    images = [{k: orbit_image_by_facets(fan.face_cone(k), ch)
               for k in fan.all_keys_under(ch.source_key)} for ch in charts]
    gluings, unsaturated = [], []
    separated = True
    for i, j in itertools.combinations(range(len(charts)), 2):
        common = charts[i].source_key & charts[j].source_key
        glue = image(fan.face_cone(common), pi)
        gluings.append((i, j, glue))
        inside = [k for k in images[i] if k <= common]
        if not (is_saturated(inside, images[i]) and is_saturated(inside, images[j])):
            unsaturated.append((i, j))
        separated = separated and (
            glue == images[i][common] == images[j][common]
            and intersect(charts[i].image, charts[j].image) == glue)
    separated &= len({ch.image.lineality_basis for ch in charts}) < 2
    good = not unsaturated
    geometric = good and all(len(set(m.values())) == len(m) for m in images)
    orbit_map = tuple((k, i, F) for i, m in enumerate(images) for k, F in m.items())
    return GluedQuotient(tuple(charts), tuple(gluings), good, geometric, separated,
                         torsion, orbit_map, tuple(unsaturated), pi.target_rank)


def double_description_by_projection(
    ambient: int,
    inequalities: Sequence[Sequence[int]],
    equalities: Sequence[Sequence[int]] = (),
) -> tuple[list[Vec], list[Vec]]:
    """Reference for `double_description`: the same conversion, projecting
    every lineality vector and ray at each drop of the lineality and
    scanning every pair of rays of opposite sign for adjacency."""
    constraints: list[Vec] = []
    for b in equalities:
        t = primitive(tuple(b))
        if not is_zero_vec(t):
            constraints.append(t)
            constraints.append(vneg(t))
    for a in inequalities:
        t = primitive(tuple(a))
        if not is_zero_vec(t):
            constraints.append(t)
    constraints = list(dict.fromkeys(constraints))

    lin: list[Vec] = [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
    # each ray with its zero set over the constraints handled so far (bitmask)
    rays: dict[Vec, int] = {}

    for k, a in enumerate(constraints):
        bit = 1 << k
        l0 = next((l for l in lin if vdot(a, l) != 0), None)
        if l0 is not None:
            # lineality drops by one (at most `ambient` times).  With
            # a.l0 > 0 the new cone is (C ∩ a^perp) ⊕ cone(l0), and
            # projecting along l0 maps C ∩ a^perp isomorphically onto
            # C / R.l0, which has the faces of C.  So every projected ray
            # is extreme, and so is l0: the earlier constraints vanish on
            # it and cut out the face lineality + cone(l0).  Projection
            # keeps each ray's zero set and adds k; l0 is tight on all
            # but k.
            if vdot(a, l0) < 0:
                l0 = vneg(l0)
            p = vdot(a, l0)
            lin = [primitive(vsub(vscale(p, l), vscale(vdot(a, l), l0)))
                   for l in lin if l is not l0]
            lin = [l for l in lin if not is_zero_vec(l)]
            projected = ((primitive(vsub(vscale(p, r), vscale(vdot(a, r), l0))), z)
                         for r, z in rays.items())
            rays = {r: z | bit for r, z in projected if not is_zero_vec(r)}
            rays[l0] = bit - 1
            continue
        vals = {r: vdot(a, r) for r in rays}
        # Rays kept from the larger cone stay extreme in the smaller one.
        # The rays are exactly the extreme rays modulo the lineality, one
        # each, with exact zero sets, so two of them are adjacent iff no
        # third ray is tight on every constraint both are tight on
        # (Fukuda-Prodon 1996), and a new ray is extreme iff it comes
        # from an adjacent pair.
        new = {r: z if vals[r] else z | bit for r, z in rays.items() if vals[r] >= 0}
        neg = [r for r in rays if vals[r] < 0]
        for rp in (r for r in rays if vals[r] > 0):
            for rn in neg:
                common = rays[rp] & rays[rn]
                if any(r3 is not rp and r3 is not rn and common & z3 == common
                       for r3, z3 in rays.items()):
                    continue
                # a positive combination of rp and rn: tight exactly where both are
                w = primitive(vsub(vscale(vals[rp], rn), vscale(vals[rn], rp)))
                if not is_zero_vec(w) and w not in new:
                    new[w] = common | bit
        rays = new

    # the lineality space is the kernel of the constraints; one
    # kernel_basis gives its saturated lattice in HNF
    lin_rows = (kernel_basis(IntMatrix.from_rows(constraints, ambient)).basis.entries
                if lin else ())
    reduced = (_reduce_mod_rows(r, lin_rows) for r in rays)
    return sorted({r for r in reduced if not is_zero_vec(r)}), list(lin_rows)


def weight_cone_by_conversion(gamma, action: SubtorusAction, fan: Fan) -> Cone:
    """Reference for `achievable_weight_cone`: convert the slab
    sigma_dual ∩ gamma^perp from its inequalities, then take its image
    under phi_star."""
    (top,) = fan.maximal_keys
    slab = Cone.from_inequalities(fan.ambient_rank,
                                  [fan.rays[i] for i in sorted(top)],
                                  [fan.rays[i] for i in sorted(gamma)])
    f = LatticeMap(IntMatrix.from_rows(action.columns, fan.ambient_rank),
                   fan.ambient_rank, action.d)
    return image(slab, f)


def chambers_by_full_refinement(action: SubtorusAction, fan: Fan) -> list:
    """Reference for the cones of `git_chambers`: cut the support K_0 by
    every facet hyperplane of every weight cone K_gamma, converting both
    halves of every cell for every hyperplane and keeping the halves of
    full dimension, then take all faces of the cells."""
    kcones = [weight_cone_by_conversion(k, action, fan) for k in fan.face_keys()]
    hyperplanes = set()
    for c in kcones:
        for h in c.facet_normals + c.span_equalities:
            h = primitive(h)
            hyperplanes.add(vneg(h) if next(x for x in h if x) < 0 else h)
    cells = [weight_cone_by_conversion(frozenset(), action, fan)]
    for h in sorted(hyperplanes):
        halves = [Cone.from_inequalities(action.d, cell.facet_normals + (side,),
                                         cell.span_equalities)
                  for cell in cells for side in (h, vneg(h))]
        cells = [p for p in dict.fromkeys(halves) if p.dim == cells[0].dim]
    return sorted({f for cell in cells for f in faces(cell)},
                  key=lambda c: (-c.dim, c.generators, c.lineality_basis))


def distinct_weight_cones(action: SubtorusAction, fan: Fan):
    """Each face's K_gamma generator set, and one cone per distinct set,
    lower-dimensional ones included (`actions.git_chambers` converts only
    the full-dimensional ones)."""
    lineality, face_gens = _weight_generators(action, fan)
    return face_gens, {g: Cone.from_generators(action.d, sorted(g), lineality)
                       for g in dict.fromkeys(face_gens.values())}


def locus_at_by_section_cone(chi, action: SubtorusAction, fan: Fan,
                             start=None) -> SemistableLocus:
    """Reference for `actions._locus_at`: the locus by membership of chi
    in every weight cone K_gamma (`distinct_weight_cones`), each maximal
    face certified from `fans.section_cone`, which converts the section
    cone at chi from the whole space instead of cutting the start cone
    (ignored here)."""
    face_gens, kcones = distinct_weight_cones(action, fan)
    members = {g for g, c in kcones.items() if c.contains_point(chi)}
    locus = SubfanLocus(frozenset(key for key, g in face_gens.items() if g in members))
    section = section_cone(fan, (ToricDivisor.zero(fan),), action.columns, (vneg(chi),),
                           positive=True)
    return SemistableLocus(locus, tuple((key, _divisor_certificate(fan, key, section))
                                        for key in locus.maximal_keys()))


def chart_witness_by_system(fan: Fan, tau, degree_rows, weight_rows=(),
                            shared_strict=()):
    """Reference for `chart_witness`: strict feasibility of the chart
    system of the face tau alone, one conversion per face.  The section
    needs <u, v_j> + deg_j(s) = 0 at the rays of tau and > 0 at every
    other ray, plus the equalities weight_rows (m_row . u + s_row . s = 0)
    and the strict forms shared_strict in s."""
    n = fan.ambient_rank
    # a fan without rays has no degree rows; the shared forms still fix k
    k = len((degree_rows or shared_strict or [()])[0])
    eqs, strict = [], []
    for j, v in enumerate(fan.rays):
        (eqs if j in tau else strict).append(tuple(v) + tuple(degree_rows[j]))
    eqs.extend(tuple(m_row) + tuple(s_row) for m_row, s_row in weight_rows)
    strict.extend((0,) * n + tuple(f) for f in shared_strict)
    wit = feasible_strict(FeasibilitySystem(n + k, tuple(eqs), (), tuple(strict)))
    if wit is None:
        return None
    return {"monomial": wit[:n], "degree": wit[n:]}


def destabilize_by_candidate(support, target, act):
    """Reference for `hilbert_mumford.destabilize`: one strict feasibility
    system, and one conversion, per candidate limit support t (the weights
    of t vanish, every other supported weight is positive)."""
    supp = sorted(support)
    for size in range(len(supp) + 1):
        for sub in itertools.combinations(supp, size):
            t = frozenset(sub)
            if not target(t):
                continue
            eqs = tuple(act.weights[i] for i in sorted(t))
            strict = tuple(act.weights[i] for i in supp if i not in t)
            lam = feasible_strict(FeasibilitySystem(act.d, eqs, (), strict))
            if lam is not None:
                return lam
    return None


def hilbert_basis_by_pairs(c: Cone, max_points: int = 200000) -> list:
    """Reference for `hilbert_basis`: the same box of candidates, each
    reduced against every other candidate (O(N^2) membership tests)."""
    if c.lineality_rank != 0:
        raise ValueError("Hilbert basis requires a pointed cone")
    gens = list(c.generators)
    if not gens:
        return []
    ambient = c.ambient_rank
    lo, hi = _box_ranges(gens, ambient)
    count = 1
    for a, b in zip(lo, hi):
        count *= (b - a + 1)
        if count > max_points:
            raise HilbertBasisTooLarge(
                f"candidate box has more than {max_points} points")
    candidates = []
    for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if any(x != 0 for x in p) and c.contains_point(p):
            candidates.append(p)
    basis = []
    for p in candidates:
        reducible = False
        for q in candidates:
            if q == p:
                continue
            diff = tuple(a - b for a, b in zip(p, q))
            if c.contains_point(diff):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    basis.sort()
    return basis


def ambient_semistable_by_face(support, act) -> bool:
    """Reference for `hilbert_mumford.ambient_semistable`: one strict
    feasibility system per support.

    True iff some invariant monomial in the supported coordinates has
    positive degree: a nonnegative combination of supported weights with
    vanishing character part and positive degree part (the last slot)."""
    supp = sorted(support)
    if not supp:
        return False
    dim = len(supp)
    d = act.d - 1
    eqs = [tuple(act.weights[i][t] for i in supp) for t in range(d)]
    strict = [tuple(act.weights[i][d] for i in supp)]
    weak = [tuple(1 if j == pos else 0 for j in range(dim))
            for pos in range(dim)]
    sys = FeasibilitySystem(dim, tuple(eqs), tuple(weak), tuple(strict))
    return feasible_strict(sys) is not None


def check_certificate_with_complement_affine(
        rays, face_keys, divisor_rows, shifts, phi_columns, cert) -> CheckResult:
    """Reference for `certcheck.check_certificate`: the same replay with
    the clause complement-affine, which complement-is-chart implies."""
    failures = []
    k = len(divisor_rows)
    r = len(rays)
    chart = cert.chart

    if not any(chart == key for key in face_keys):
        failures.append("chart-is-face")

    degree = tuple(cert.degree)
    if cert.group_case:
        if len(degree) != k:
            failures.append("degree-length")
    else:
        if len(degree) != 1 or degree[0] <= 0:
            failures.append("degree-positive")

    a = [sum(degree[i] * divisor_rows[i][j] for i in range(len(degree)))
         for j in range(r)]
    shift = tuple(sum(degree[i] * shifts[i][t] for i in range(len(degree)))
                  for t in range(len(phi_columns)))

    # the single monomial's section must vanish exactly on the chart's
    # rays and be invariant
    u = tuple(cert.monomial)
    b = [_dot(u, rays[j]) + a[j] for j in range(r)]
    if any(b[j] != 0 if j in chart else b[j] <= 0 for j in range(r)):
        failures.append("complement-is-chart")
    weight = [_dot(col, u) + s for col, s in zip(phi_columns, shift)]
    if any(x != 0 for x in weight):
        failures.append("invariant-weight")
    # affineness of the complement: every fan face inside the zero set
    # must be a face of the chart, i.e. keyed by a subset
    zero_set = frozenset(j for j, x in enumerate(b) if x == 0)
    if any(not key <= chart for key in face_keys if key <= zero_set):
        failures.append("complement-affine")

    expected_cartier = k if cert.group_case else 1
    if len(cert.cartier) != expected_cartier:
        failures.append("cartier-witness-count")
    if cert.group_case:
        # each basis divisor must be principal on the chart
        check_rows = list(divisor_rows)
    else:
        # the certified multiple n*D must be principal on the chart
        check_rows = [a]
    for m, row in zip(cert.cartier, check_rows):
        if any(_dot(m, rays[i]) != -row[i] for i in sorted(chart)):
            failures.append("cartier-witness")

    if cert.group_case:
        cs = []
        for c, w in cert.invertibles:
            cs.append(tuple(c))
            bad = False
            for i in sorted(chart):
                val = _dot(w, rays[i]) + sum(
                    c[t] * divisor_rows[t][i] for t in range(k))
                if val != 0:
                    bad = True
            wv = [_dot(col, w) + sum(c[t] * shifts[t][j] for t in range(k))
                  for j, col in enumerate(phi_columns)]
            if any(x != 0 for x in wv):
                bad = True
            if bad:
                failures.append("invertible-witness")
        if _rank(cs) != k:
            failures.append("finite-index")

    return CheckResult(not failures, tuple(failures))


# junk for the malformed-file fuzz: values of every JSON type but the
# expected one, a huge integer, and empty and nested containers
FUZZ_JUNK = (None, True, 1.5, "x", 10 ** 40, [], [[]], {})


def mutated_problem_run(rng: random.Random) -> tuple[dict, list, list]:
    """A built-in problem file (the quadric or the plane of the intro, each
    with weights for the hm commands) with one or two fields, or one entry
    of one field, replaced by FUZZ_JUNK, the arguments of one of the 12
    subcommands, "FILE" standing for the file's path, and the fields
    mutated.  A character doubles as the one-parameter subgroup of `hm
    limit`."""
    if rng.random() < 0.5:
        data, div, grp, chi = quadric_problem_data(), "Dss", "ZDss", "1,0"
        data["weights"] = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    else:
        data, div, grp, chi = intro_problem_data(), "D", "ZD", "1"
        data["weights"] = [[1], [-1]]
    mode = rng.randrange(3)
    fields = rng.sample(sorted(data), 2 if mode == 1 else 1)
    for field in fields:
        value = data[field]
        if mode == 2 and isinstance(value, (list, dict)) and value:
            key = rng.randrange(len(value)) if isinstance(value, list) else rng.choice(
                sorted(value))
            value[key] = rng.choice(FUZZ_JUNK)
        else:
            data[field] = rng.choice(FUZZ_JUNK)
    argv = rng.choice([
        ["cartier-locus", "FILE", "--group", grp],
        ["ample-locus", "FILE", "--group", grp],
        ["semistable", "FILE", "--divisor", div, "--check"],
        ["trivial-bundle", "FILE", "--character", chi, "--check"],
        ["chambers", "FILE"],
        ["quotient", "FILE", "--divisor", div],
        ["class-group", "FILE"],
        ["hm", "limit", "FILE", "--lam", chi, "--support", "0"],
        ["hm", "destabilize", "FILE", "--support", "0", "--target", "origin"],
        ["obstruction", "FILE", "--divisor", div],
        ["verify-examples"],
        ["oracle", "FILE", "--divisor", div, "--n-max", "2", "--box", "3"],
    ])
    return data, argv + (["--json"] if rng.random() < 0.5 else []), sorted(fields)


def fuzz_cli(seed, count: int, directory: str) -> tuple[dict, list, list]:
    """Run count mutated problem files (`mutated_problem_run`, drawn from
    random.Random(seed)) through cli.run, each written to directory.
    Returns the exit codes counted, the runs that raised, as (argv, file
    contents, exception), and the input errors (exit 2), as (fields
    mutated, the report's error text)."""
    rng = random.Random(f"fuzz/{seed}")
    codes, raised, errors = {}, [], []
    path = os.path.join(directory, "mutated.json")
    for _ in range(count):
        data, argv, fields = mutated_problem_run(rng)
        text = json.dumps(data)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [path if a == "FILE" else a for a in argv]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli_run(argv)
        except Exception as e:  # every failure must be a documented exit code
            raised.append((argv, text, repr(e)))
            continue
        codes[code] = codes.get(code, 0) + 1
        if code == 2:
            out = out.getvalue()
            errors.append((fields, json.loads(out)["result"]["error"] if "--json" in argv
                           else json.loads(out.split("\nerror: ", 1)[1].splitlines()[0])))
    return codes, raised, errors
