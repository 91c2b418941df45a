"""Good/geometric quotients of semistable loci as glued fan charts.

Each maximal certified cone sigma of a semistable locus gives a chart
pi(sigma) in the quotient lattice N/L, where pi is the cokernel
projection of the acting sublattice.  Charts are glued along images of
intersections.  Whether two images meet in their glue cone is settled by
a form built from their facets (`cones.meets_in`); only a pair that no
such form separates is intersected.  Everything else is read off one
orbit map per chart: each fan face gamma under sigma goes to its orbit
image, the smallest face of the chart image holding pi(gamma), found by
ray-facet incidence on the image with no conversion.  The good /
separated / geometric flags compare orbit images, and no face lattice is
built.

The conversions that remain are one chart image per maximal cone and,
for a pair of charts, the glue cone pi(gamma) of the face gamma they
share, converted only when the orbit image of gamma is not pointed or
is not generated by the projected generators of gamma; otherwise that
orbit image is the glue cone (`_glue_cone`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import SemistableLocus, SubtorusAction
from .cones import Cone, image as cone_image, meets_in
from .fans import Fan, FaceKey
from .intlinalg import (
    LatticeMap,
    Sublattice,
    cokernel_projection,
    primitive,
    vdot,
)


@dataclass(frozen=True)
class QuotientChart:
    source_key: FaceKey
    image: Cone
    projection: LatticeMap


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


def quotient_projection(action: SubtorusAction) -> tuple[LatticeMap, tuple[int, ...]]:
    """pi: N -> N/L onto the free part, plus the torsion of N/im(phi)
    (finite isotropy inside the big torus)."""
    S = Sublattice.from_rows(action.ambient_rank, action.phi_star_rows())
    return cokernel_projection(S)


def orbit_image(gamma: Cone, chart: QuotientChart) -> Cone:
    """Smallest face of the chart's image containing pi(gamma).

    It is cut out by the image facets that vanish on pi(gamma), and
    generated by the image generators on all of them plus the image's
    lineality: the same cone `cones.faces` builds for that face.  gamma is
    a face of a validated fan, which is pointed, so its generators are
    all of it."""
    img = chart.image
    pi = chart.projection
    points = [pi.apply(g) for g in gamma.generators]
    if not all(img.contains_point(p) for p in points):
        raise ValueError("projected face escapes the chart image")
    tight = [u for u in img.facet_normals
             if all(vdot(u, p) == 0 for p in points)]
    return Cone(img.ambient_rank,
                tuple(g for g in img.generators
                      if all(vdot(u, g) == 0 for u in tight)),
                img.lineality_basis)


def is_saturated(sublocus_keys, images: dict[FaceKey, Cone]) -> bool:
    """True iff the union of orbits over sublocus_keys is a full preimage
    of its image in one chart, given that chart's orbit map (face key to
    orbit image): no face outside the set shares an orbit image with a
    face inside it."""
    keys = set(sublocus_keys)
    inside_images = {images[k] for k in keys}
    return not any(F in inside_images
                   for k, F in images.items() if k not in keys)


def _glue_cone(gamma: Cone, orbit: Cone, pi: LatticeMap) -> Cone:
    """pi(gamma), given its orbit image in some chart.

    pi(gamma) lies in the orbit image F.  When F is pointed and each of
    its generators is the primitive image of a generator of gamma, F lies
    in pi(gamma) as well, so it is pi(gamma), with no conversion.  (A
    pointed F that equals pi(gamma) always passes: an extreme ray of F
    in pi(gamma) is a positive multiple of one of the pi(g).)  Otherwise
    pi(gamma) is converted."""
    if not orbit.lineality_basis and set(orbit.generators) <= {
            primitive(pi.apply(g)) for g in gamma.generators}:
        return orbit
    return cone_image(gamma, pi)


def build_quotient(ss: SemistableLocus, action: SubtorusAction,
                   fan: Fan) -> GluedQuotient:
    pi, torsion = quotient_projection(action)
    q = pi.target_rank
    max_keys = [k for k, _ in ss.certificates]
    max_keys.sort(key=lambda k: (len(k), sorted(k)))

    charts = [QuotientChart(key, cone_image(fan.face_cone(key), pi), pi)
              for key in max_keys]

    images = [{k: orbit_image(fan.face_cone(k), ch)
               for k in fan.all_keys_under(ch.source_key)} for ch in charts]
    orbit_map = [(k, i, F) for i, m in enumerate(images) for k, F in m.items()]

    gluings = []
    glues: dict[FaceKey, Cone] = {}  # one image per shared face
    good = True
    separated = True
    unsaturated = []
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            # two fan faces meet in the face on their common rays
            common = charts[i].source_key & charts[j].source_key
            if common not in glues:
                glues[common] = _glue_cone(fan.face_cone(common), images[i][common], pi)
            glue = glues[common]
            gluings.append((i, j, glue))
            inter_keys = [k for k in images[i] if k <= common]
            if not (is_saturated(inter_keys, images[i])
                    and is_saturated(inter_keys, images[j])):
                good = False
                unsaturated.append((i, j))
            # the images meet in the glue cone, and it is a face of both:
            # a cone is a face of an image iff it is its own orbit image
            separated = separated and (
                glue == images[i][common] == images[j][common]
                and meets_in(charts[i].image, charts[j].image, glue))

    # images meeting so form a fan modulo one shared lineality space V
    # (a wall character's charts share a line); images that do not share
    # it are not separated.  In a good quotient each glue pi(gamma) holds
    # V: the face of a chart over V has the empty face's orbit image, so
    # saturation puts it under gamma.  The glue tests above are then the
    # same modulo V.
    separated &= len({ch.image.lineality_basis for ch in charts}) < 2

    # Geometric: fibers are single orbits iff each chart's orbit map is a
    # bijection onto the faces of its image and each pi(gamma) spans its
    # orbit image.  The map is always onto: a face F = image ∩ u^perp is
    # the image of the face sigma ∩ (pi* u)^perp of sigma.  If it is also
    # injective, the face gamma over F is that face, so pi(gamma) = F and
    # the dimensions agree.  So injective suffices.
    geometric = good and all(len(set(m.values())) == len(m) for m in images)

    return GluedQuotient(tuple(charts), tuple(gluings), good, geometric,
                         separated, torsion, tuple(orbit_map),
                         tuple(unsaturated), q)
