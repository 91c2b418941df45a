"""Good/geometric quotients of semistable loci as glued fan charts.

Each maximal certified cone sigma of a semistable locus gives a chart
pi(sigma) in the quotient lattice N/L, where pi is the cokernel
projection of the acting sublattice.  Charts are glued along images of
intersections; the good / separated / geometric flags are computed from
the orbit-image combinatorics of the charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .actions import SemistableLocus, SubtorusAction
from .cones import Cone, faces as cone_faces, image as cone_image, intersect
from .fans import Fan, FaceKey
from .intlinalg import (
    LatticeMap,
    Sublattice,
    cokernel_projection,
    rank_of_rows,
    vneg,
)


@dataclass(frozen=True)
class QuotientChart:
    source_key: FaceKey
    source: Cone
    image: Cone
    projection: LatticeMap
    faces: tuple[Cone, ...]  # faces of image, by dimension


@dataclass(frozen=True)
class GluedQuotient:
    charts: tuple[QuotientChart, ...]
    gluings: tuple[tuple[int, int, Cone], ...]
    good: bool
    geometric: bool
    separated: bool
    torsion: tuple[int, ...]
    orbit_map: tuple[tuple[FaceKey, int, Cone], ...]
    unsaturated_pairs: tuple[tuple[int, int], ...]
    quotient_rank: int

    def gluing(self, i: int, j: int) -> Optional[Cone]:
        a, b = min(i, j), max(i, j)
        for x, y, c in self.gluings:
            if (x, y) == (a, b):
                return c
        return None


def quotient_projection(action: SubtorusAction) -> tuple[LatticeMap, tuple[int, ...]]:
    """pi: N -> N/L onto the free part, plus the torsion of N/im(phi)
    (finite isotropy inside the big torus)."""
    S = Sublattice.from_rows(action.ambient_rank, action.phi_star_rows())
    return cokernel_projection(S)


def orbit_image(gamma: Cone, chart: QuotientChart) -> Cone:
    """Smallest face of the chart's image containing pi(gamma)."""
    pi = chart.projection
    points = [pi.apply(g) for g in gamma.generators]
    for l in gamma.lineality_basis:
        points += [pi.apply(l), pi.apply(vneg(l))]
    for f in chart.faces:
        if all(f.contains_point(p) for p in points):
            return f
    raise ValueError("projected face escapes the chart image")


def is_saturated(sublocus_keys, chart: QuotientChart, fan: Fan) -> bool:
    """True iff the union of orbits over sublocus_keys is a full preimage
    of its image in the chart: no face outside the set shares an orbit
    image with a face inside it."""
    keys = set(sublocus_keys)
    inside_images = {orbit_image(fan.face_cone(k), chart) for k in keys}
    for k in fan.all_keys_under(chart.source_key):
        if k in keys:
            continue
        if orbit_image(fan.face_cone(k), chart) in inside_images:
            return False
    return True


def build_quotient(ss: SemistableLocus, action: SubtorusAction,
                   fan: Fan) -> GluedQuotient:
    pi, torsion = quotient_projection(action)
    q = pi.target_rank
    max_keys = [k for k, _ in ss.certificates]
    max_keys.sort(key=lambda k: (len(k), sorted(k)))

    charts = []
    for key in max_keys:
        src = fan.face_cone(key)
        img = cone_image(src, pi)
        charts.append(QuotientChart(key, src, img, pi, cone_faces(img)))

    orbit_map = []
    for i, ch in enumerate(charts):
        for k in fan.all_keys_under(ch.source_key):
            orbit_map.append((k, i, orbit_image(fan.face_cone(k), ch)))

    gluings = []
    good = True
    separated = True
    unsaturated = []
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            common = charts[i].source_key & charts[j].source_key
            inter_keys = [k for k in fan.all_keys_under(charts[i].source_key)
                          if k <= common]
            inter_cone = fan.face_cone(max(inter_keys, key=len)) if inter_keys \
                else Cone.zero(fan.ambient_rank)
            glue = cone_image(inter_cone, pi)
            gluings.append((i, j, glue))
            if not (is_saturated(inter_keys, charts[i], fan)
                    and is_saturated(inter_keys, charts[j], fan)):
                good = False
                unsaturated.append((i, j))
            if intersect(charts[i].image, charts[j].image) != glue:
                separated = False

    if separated and len(charts) > 1:
        # each image intersection is its glue cone; pointed images form a
        # fan iff every glue cone is a face of both of its charts
        separated = all(ch.image.lineality_rank == 0 for ch in charts) and all(
            glue in charts[i].faces and glue in charts[j].faces
            for i, j, glue in gluings)

    geometric = good and all(
        _chart_geometric(ch, action, fan, q) for ch in charts)

    return GluedQuotient(tuple(charts), tuple(gluings), good, geometric,
                         separated, torsion, tuple(orbit_map),
                         tuple(unsaturated), q)


def _chart_geometric(chart: QuotientChart, action: SubtorusAction,
                     fan: Fan, q: int) -> bool:
    """Fibers of the chart map are single orbits: face -> image-face is a
    bijection and each orbit maps with full relative dimension."""
    n = fan.ambient_rank
    L = action.sublattice
    source_keys = fan.all_keys_under(chart.source_key)
    seen = []
    for k in source_keys:
        gamma = fan.face_cone(k)
        F = orbit_image(gamma, chart)
        if F in seen:
            return False
        seen.append(F)
        # rank of L modulo span(gamma) must match the orbit dim drop
        lr = rank_of_rows(list(gamma.generators) + list(L.basis.entries)) - gamma.dim
        if lr != (n - gamma.dim) - (q - F.dim):
            return False
    return len(seen) == len(chart.faces)
