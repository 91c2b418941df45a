"""Good, geometric and separated quotients of invariant open sets, as
glued fan charts.

Each maximal face sigma of a locus gives a chart pi(sigma) in the
quotient lattice N/L, where pi is the cokernel projection of the acting
sublattice.  Each fan ray under some chart is projected once, and each
chart image is the cone on the projected rays of its face: built from
them when they are linearly independent, its facets converted on first
read, and converted from them otherwise.
Everything else is read off one ray-facet incidence table per chart: the
set of image facets vanishing on each projected ray, as a bitmask, and
the same for each image generator.  A face gamma under sigma is tight on
the AND of its rays' masks, and its orbit image, the smallest face of
the chart image holding pi(gamma), is the image generators on all of
those facets plus the image lineality.  Faces with one tight set share
one orbit image, so the table also gives each chart's fibres (orbit
image to the faces over it), and the good and geometric flags are read
off the fibres.

Charts are glued along the images of their shared faces.  The glue cone
pi(gamma) is the orbit image of gamma when that is pointed and generated
by the projected rays of gamma, and is converted otherwise.  Whether two
images meet in their glue cone is settled by a form built from their
facets (`cones.meets_in`), read off each image's facet masks (>= 0,
<= 0 and = 0) over every image generator, built once, and the generator
masks of the two images and the glue; only a pair that no such form
separates is intersected.  No face lattice is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import SemistableLocus, SubtorusAction
from .cones import Cone, form_masks, image as cone_image, meets_in
from .fans import Fan, FaceKey
from .intlinalg import (
    LatticeMap,
    Sublattice,
    Vec,
    cokernel_projection,
    primitive,
    rank_of_rows,
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
    S = Sublattice.from_rows(action.ambient_rank, action.columns)
    return cokernel_projection(S)


def orbit_image(gamma: Cone, chart: QuotientChart) -> Cone:
    """Smallest face of the chart's image containing pi(gamma), read off
    the incidence of pi(gamma)'s generators with the image facets
    (`_incidence`).  gamma is a face of a validated fan, which is pointed,
    so its generators are all of it."""
    proj = dict(enumerate(map(chart.projection.apply, gamma.generators)))
    key = frozenset(proj)
    return _incidence(chart.image, proj, [key]).orbit[key]


def is_saturated(sublocus_keys, images: dict[FaceKey, Cone]) -> bool:
    """True iff the union of orbits over sublocus_keys is a full preimage
    of its image in one chart, given that chart's orbit map (face key to
    orbit image): no face outside the set shares an orbit image with a
    face inside it."""
    keys = set(sublocus_keys)
    inside_images = {images[k] for k in keys}
    return not any(F in inside_images
                   for k, F in images.items() if k not in keys)


@dataclass(frozen=True)
class _Incidence:
    """A chart's orbit map read off its ray-facet incidence.

    tight[k] is the bitmask of the image facets that vanish on pi(gamma)
    for the face gamma keyed k, and orbit[k] its orbit image.  Faces with
    one tight set form one fibre and share one orbit image, and reach[t]
    is the union of the keys in the fibre of t."""

    orbit: dict[FaceKey, Cone]
    tight: dict[FaceKey, int]
    reach: dict[int, frozenset]

    def saturated(self, common: FaceKey) -> bool:
        """No face under common shares its fibre with a face that is not."""
        return all(self.reach[t] <= common
                   for k, t in self.tight.items() if k <= common)


def _incidence(img: Cone, proj: dict[int, Vec], keys) -> _Incidence:
    """The orbit map of the chart image img over the face keys, given the
    projection of each ray of the chart (proj, keyed like the keys).

    The orbit image of a face is cut out by the image facets that vanish
    on all of its projected rays, the AND of the rays' bitmasks, and
    generated by the image generators on all of those facets plus the
    image's lineality: the same cone `cones.faces` builds for that face.
    A face of sigma projects into pi(sigma), so a projected ray outside
    the image is a failed engine invariant (RuntimeError)."""
    normals, eqs = img.facet_normals, img.span_equalities

    def zeros(xs):  # bitmask of the facets with value 0
        return sum(1 << b for b, x in enumerate(xs) if x == 0)

    ray_zeros = {}
    for j, p in proj.items():
        xs = [vdot(u, p) for u in normals]
        if any(x < 0 for x in xs) or any(vdot(e, p) for e in eqs):
            raise RuntimeError("projected face escapes the chart image")
        ray_zeros[j] = zeros(xs)
    gens = [(g, zeros([vdot(u, g) for u in normals])) for g in img.generators]
    orbit, tight, by_tight, reach = {}, {}, {}, {}
    for k in keys:
        t = (1 << len(normals)) - 1
        for j in k:
            t &= ray_zeros[j]
        if t not in by_tight:
            by_tight[t] = Cone(img.ambient_rank,
                               tuple(g for g, z in gens if z & t == t),
                               img.lineality_basis)
        orbit[k], tight[k] = by_tight[t], t
        reach[t] = reach.get(t, k) | k
    return _Incidence(orbit, tight, reach)


def _glue_cone(key: FaceKey, orbit: Cone, proj: dict[int, Vec], fan: Fan,
               pi: LatticeMap) -> Cone:
    """pi(gamma) for the fan face gamma on key, given its orbit image in
    some chart and the projected fan rays.

    pi(gamma) lies in the orbit image F.  When F is pointed and each of
    its generators is the primitive image of a ray of gamma, F lies in
    pi(gamma) as well, so it is pi(gamma), with no conversion.  (A
    pointed F that equals pi(gamma) always passes: an extreme ray of F
    in pi(gamma) is a positive multiple of one of the pi(v).)  Otherwise
    pi(gamma) is converted."""
    if not orbit.lineality_basis and set(orbit.generators) <= {
            primitive(proj[j]) for j in key}:
        return orbit
    return cone_image(fan.face_cone(key), pi)


def _chart_image(q: int, rays: list[Vec]) -> Cone:
    """The cone on a chart's projected rays.  On linearly independent
    rays (one `rank_of_rows`) it is simplicial and pointed, and its
    canonical generators are the rays made primitive, so it is built
    from them with no conversion, as `fans.validate_fan` builds a
    simplicial cone, and its facets are converted on first read.  Any
    other image is one `Cone.from_generators`."""
    if rank_of_rows(rays) == len(rays):
        return Cone(q, tuple(sorted(map(primitive, rays))), ())
    return Cone.from_generators(q, rays)


def build_quotient(ss: SemistableLocus, action: SubtorusAction,
                   fan: Fan) -> GluedQuotient:
    """The charts of the locus's maximal faces (the keys of
    ss.certificates), glued along the images of their shared faces, with
    every fan face under a chart sent to its orbit image there.

    Each ray under a chart is projected once.  Each chart's orbit map
    and fibres are read off its ray-facet incidence table, and the flags
    off the fibres:

    - good: the intersection of every two charts, the orbits over the
      faces under their common face, is saturated in both, a full
      preimage of its image: no face under the common face shares its
      orbit image with a face that is not (Cox-Little-Schenck, Toric
      Varieties, Sections 3.1 and 14.1).  unsaturated_pairs lists the
      pairs that are not.
    - geometric: good, and every fibre is one face, so each fibre of the
      quotient is a single orbit.
    - separated: the images share one lineality space and every two of
      them meet in their glue cone, which is a face of both."""
    pi, torsion = quotient_projection(action)
    q = pi.target_rank
    max_keys = [k for k, _ in ss.certificates]

    proj = {j: pi.apply(fan.rays[j]) for j in frozenset().union(*max_keys)}
    charts = [QuotientChart(key, _chart_image(q, [proj[j] for j in sorted(key)]), pi)
              for key in max_keys]
    tables = [_incidence(ch.image, {j: proj[j] for j in ch.source_key},
                         fan.all_keys_under(ch.source_key)) for ch in charts]
    images = [t.orbit for t in tables]
    orbit_map = [(k, i, F) for i, m in enumerate(images) for k, F in m.items()]
    # each image's facet forms as masks over every image generator, and
    # its own generators' mask, for the pair checks
    points = list(dict.fromkeys(g for ch in charts for g in ch.image.generators))
    bit = {p: 1 << i for i, p in enumerate(points)}
    sides = [(form_masks(ch.image, points), sum(bit[g] for g in ch.image.generators))
             for ch in charts]

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
                glues[common] = _glue_cone(common, images[i][common], proj, fan, pi)
            glue = glues[common]
            gluings.append((i, j, glue))
            if not (tables[i].saturated(common) and tables[j].saturated(common)):
                good = False
                unsaturated.append((i, j))
            # the images meet in the glue cone, and it is a face of both:
            # a cone is a face of an image iff it is its own orbit image
            separated = separated and (
                glue == images[i][common] == images[j][common]
                and meets_in(charts[i].image, charts[j].image, glue,
                             (sides[i], sides[j], sum(bit[g] for g in glue.generators))))

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
    # the dimensions agree.  So injective suffices: one face per fibre.
    geometric = good and all(len(t.reach) == len(t.tight) for t in tables)

    return GluedQuotient(tuple(charts), tuple(gluings), good, geometric,
                         separated, torsion, tuple(orbit_map),
                         tuple(unsaturated), q)
