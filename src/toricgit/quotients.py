"""Good, geometric and separated quotients of invariant open sets, as
glued fan charts.

Each maximal face sigma of a locus gives a chart pi(sigma) in the
quotient lattice N/L, where pi is the cokernel projection of the acting
sublattice: the cone on the projected rays of sigma.  Each chart image
has one sign table over the primitive projected rays and the image
generators (`cones.sign_table`), and both its orbit map and its pair
checks read that table; no face lattice is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .actions import SemistableLocus, SubtorusAction
from .cones import Cone, form_masks, image as cone_image, meets_in, sign_table
from .fans import Fan, FaceKey
from .intlinalg import (
    LatticeMap,
    Sublattice,
    Vec,
    cokernel_projection,
    primitive,
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
    the image's `form_masks` over pi(gamma)'s primitive generators and
    its own (`_incidence`).  gamma is a face of a validated fan, which is
    pointed, so its generators are all of it."""
    proj = {j: primitive(chart.projection.apply(g)) for j, g in enumerate(gamma.generators)}
    points = list(dict.fromkeys([*proj.values(), *chart.image.generators]))
    key = frozenset(proj)
    return _incidence(chart.image, form_masks(chart.image, points),
                      {p: i for i, p in enumerate(points)}, proj, [key]).orbit[key]


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
    """A chart's orbit map read off its image's sign table.

    tight[k] is the bitmask of the table's forms that vanish on pi(gamma)
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


def _incidence(img: Cone, rows, index: dict[Vec, int], proj: dict[int, Vec],
               keys) -> _Incidence:
    """The orbit map of the chart image img over the face keys, read off
    img's sign table (rows, `form_masks`' layout, over points indexed by
    index), given the primitive projection of each ray of the chart (proj,
    keyed like the keys); the projected rays and img's generators are
    points of the table.

    The orbit image of a face is cut out by the forms that vanish on all
    of its projected rays, the AND of the rays' zero sets, and generated
    by the image generators on all of those forms plus the image's
    lineality: the same cone `cones.faces` builds for that face.  A span
    form vanishes on the whole image, so it is in every AND and changes
    no orbit image.  A face of sigma projects into pi(sigma), so a
    projected ray outside img, off some >= 0 mask or off a form that
    vanishes on every generator of img, is a failed engine invariant
    (RuntimeError)."""
    zeros = {}  # each point's forms with value 0, as a bitmask
    for p in {*proj.values(), *img.generators}:
        i, z = index[p], 0
        for b, (_, _, eq) in enumerate(rows):
            z |= (eq >> i & 1) << b
        zeros[p] = z
    inside = reduce(and_, (ge for ge, _, _ in rows), -1)
    gens = [(g, zeros[g]) for g in img.generators]
    on_img = reduce(and_, (z for _, z in gens), (1 << len(rows)) - 1)
    if any(not inside >> index[p] & 1 or zeros[p] & on_img != on_img for p in proj.values()):
        raise RuntimeError("projected face escapes the chart image")
    ray_zeros = {j: zeros[p] for j, p in proj.items()}
    orbit, tight, by_tight, reach = {}, {}, {}, {}
    for k in keys:
        t = (1 << len(rows)) - 1
        for j in k:
            t &= ray_zeros[j]
        if t not in by_tight:
            by_tight[t] = Cone(img.ambient_rank, tuple(g for g, z in gens if z & t == t),
                               img.lineality_basis)
        orbit[k], tight[k] = by_tight[t], t
        reach[t] = reach[t] | k if t in reach else k
    return _Incidence(orbit, tight, reach)


def _glue_cone(key: FaceKey, orbit: Cone, prim: dict[int, Vec], fan: Fan,
               pi: LatticeMap) -> Cone:
    """pi(gamma) for the fan face gamma on key, given its orbit image in
    some chart and the primitive projected fan rays.

    pi(gamma) lies in the orbit image F.  When F is pointed and each of
    its generators is the primitive image of a ray of gamma, F lies in
    pi(gamma) as well, so it is pi(gamma), with no conversion.  (A
    pointed F that equals pi(gamma) always passes: an extreme ray of F
    in pi(gamma) is a positive multiple of one of the pi(v).)  Otherwise
    pi(gamma) is converted."""
    if not orbit.lineality_basis and set(orbit.generators) <= {prim[j] for j in key}:
        return orbit
    return cone_image(fan.face_cone(key), pi)


def build_quotient(ss: SemistableLocus, action: SubtorusAction,
                   fan: Fan) -> GluedQuotient:
    """The charts of the locus's maximal faces (the keys of
    ss.certificates), glued along the images of their shared faces, with
    every fan face under a chart sent to its orbit image there.

    Each ray under a chart is projected once, and each chart image and
    its sign table come from one `cones.sign_table` over the primitive
    projected rays (built from them with no conversion when they are
    independent).  A converted image's table also covers every image
    generator; a simplicial image's generators are projected rays.  Its
    orbit map and fibres over the chart's own face keys
    (`Fan.all_keys_under`) are read off the table (`_incidence`), and so
    are the pair checks (`cones.meets_in`).  The flags are read off the
    fibres:

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

    prim = {j: primitive(pi.apply(fan.rays[j])) for j in frozenset().union(*max_keys)}
    points = list(dict.fromkeys(prim[j] for key in max_keys for j in sorted(key)))
    index = {p: i for i, p in enumerate(points)}
    made = [(key, *sign_table(q, points, [index[prim[j]] for j in sorted(key)]))
            for key in max_keys]
    charts = [QuotientChart(key, image, pi) for key, image, _ in made]
    # a converted image's generators may lie past the projected rays; a
    # simplicial image's table may not cover them, but meets_in reads it
    # only against an image of its own lineality, none, whose generators
    # are projected rays
    for g in dict.fromkeys(g for ch in charts for g in ch.image.generators if g not in index):
        index[g] = len(points)
        points.append(g)
    sides = [(table(), sum(1 << index[g] for g in ch.image.generators))
             for ch, (_, _, table) in zip(charts, made)]
    tables = [_incidence(ch.image, rows, index, {j: prim[j] for j in ch.source_key},
                         fan.all_keys_under(ch.source_key)) for ch, (rows, _) in zip(charts, sides)]
    images = [t.orbit for t in tables]
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
                glues[common] = _glue_cone(common, images[i][common], prim, fan, pi)
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
                             (sides[i], sides[j], sum(1 << index[g] for g in glue.generators))))

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
