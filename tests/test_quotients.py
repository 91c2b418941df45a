"""Quotient charts, gluings, and the good/separated/geometric flags."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgit.actions import (
    Linearization,
    SubtorusAction,
    git_chambers,
    mumford_trivial_semistable,
    semistable_divisor,
    semistable_group,
)
from toricgit import cones, quotients
from toricgit.cones import Cone, faces as cone_faces, intersect, meets_in
from toricgit.fans import DivisorGroup, FanError, ToricDivisor, validate_fan
from toricgit.intlinalg import (
    IntMatrix,
    LatticeMap,
    Sublattice,
    cokernel_projection,
    rank_of_rows,
    vneg,
)
from toricgit.quotients import (
    build_quotient,
    is_saturated,
    orbit_image,
    quotient_projection,
)

from genutil import (
    COX_FANS,
    action_sublattice,
    build_quotient_by_faces,
    contains_cone,
    cox_data,
    locus_of_faces,
    pair_masks,
    random_action,
    random_complete_fan2,
    random_divisor,
    random_fan,
    random_linearization,
)


def _lin0(d):
    return Linearization.canonical(1, d)


def test_quotient_projection_quadric(quadric_action):
    pi, torsion = quotient_projection(quadric_action)
    assert torsion == ()
    assert pi.target_rank == 1
    row = pi.matrix.entries[0]
    assert row in ((1, 2, -4), (-1, -2, 4))


def test_quotient_projection_torsion():
    act = SubtorusAction.from_columns([(2, 0)], 2)
    pi, torsion = quotient_projection(act)
    assert torsion == (2,)  # Z/2 isotropy along the subtorus
    assert pi.target_rank == 1


def test_quotient_projection_trivial_action():
    act = SubtorusAction.from_columns([], 2)
    pi, torsion = quotient_projection(act)
    assert pi.target_rank == 2 and torsion == ()


def test_orbit_image_quadric(quadric_fan, quadric_action, quadric_divisor):
    ss = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                            quadric_fan)
    q = build_quotient(ss, quadric_action, quadric_fan)
    chart = q.charts[0]
    apex = orbit_image(quadric_fan.face_cone(frozenset()), chart)
    assert apex.is_zero()
    own = orbit_image(quadric_fan.face_cone(chart.source_key), chart)
    assert own == chart.image


def test_quotient_quadric_is_p1(quadric_fan, quadric_action, quadric_divisor):
    ss = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                            quadric_fan)
    q = build_quotient(ss, quadric_action, quadric_fan)
    assert q.quotient_rank == 1
    assert len(q.charts) == 2
    images = {c.image.generators for c in q.charts}
    assert images == {((1,),), ((-1,),)}
    assert q.good and q.geometric and q.separated
    assert q.torsion == ()
    assert q.gluings == ((0, 1, Cone(1, (), ())),)


def test_quotient_intro_divisor_is_line(plane_fan, hyperbolic_action, div_z):
    ss = semistable_divisor(div_z, _lin0(1), hyperbolic_action, plane_fan)
    q = build_quotient(ss, hyperbolic_action, plane_fan)
    assert len(q.charts) == 1
    assert q.charts[0].image.generators in (((1,),), ((-1,),))
    assert q.good and q.geometric and q.separated


def test_quotient_intro_group_is_doubled_line(plane_fan, hyperbolic_action,
                                              div_z):
    ssg = semistable_group(DivisorGroup((div_z,)), _lin0(1),
                           hyperbolic_action, plane_fan)
    q = build_quotient(ssg, hyperbolic_action, plane_fan)
    assert len(q.charts) == 2
    # both charts map onto the same ray: the classic non-separated gluing
    assert q.charts[0].image == q.charts[1].image
    assert q.gluings == ((0, 1, Cone(1, (), ())),)
    assert q.good
    assert q.geometric
    assert not q.separated


def test_is_saturated_examples(plane_fan, hyperbolic_action):
    from toricgit.actions import mumford_trivial_semistable
    ss = mumford_trivial_semistable((0,), hyperbolic_action, plane_fan)
    q = build_quotient(ss, hyperbolic_action, plane_fan)
    (chart,) = q.charts  # the whole quadrant; both axes project to one ray
    assert chart.source_key == frozenset({0, 1})
    assert not is_saturated([frozenset(), frozenset({0})],
                            {k: F for k, _, F in q.orbit_map})
    # the whole chart trivially is
    assert is_saturated(list(plane_fan.all_keys_under(chart.source_key)),
                        {k: F for k, _, F in q.orbit_map})


def test_single_chart_always_separated(quadric_fan, quadric_action):
    # the whole affine variety by the trivial locus of chi = 0
    from toricgit.actions import mumford_trivial_semistable
    ss = mumford_trivial_semistable((0, 0), quadric_action, quadric_fan)
    q = build_quotient(ss, quadric_action, quadric_fan)
    assert len(q.charts) == 1
    assert q.separated


@pytest.mark.parametrize("name", sorted(COX_FANS))
def test_cox_quotient_reproduces_fan(name):
    # Cox (1995): C^r modulo H = ker(Z^r -> N, e_i -> v_i), at an ample
    # class, is the toric variety of the fan
    rays, cones = COX_FANS[name]
    orthant, act = cox_data(rays)
    # the anticanonical class, sum of all D_rho, is ample on all four
    chi = tuple(sum(col) for col in act.columns)
    ss = mumford_trivial_semistable(chi, act, orthant)
    assert ss.locus.faces == {frozenset(sub) for c in cones
                              for k in range(len(c) + 1)
                              for sub in itertools.combinations(c, k)}
    q = build_quotient(ss, act, orthant)
    assert sorted(sorted(c.source_key) for c in q.charts) == sorted(cones)
    assert q.good and q.geometric and q.separated


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_quotient_structural_invariants(seed):
    rng = random.Random(seed)
    fan = random_fan(rng)
    act = random_action(rng, fan)
    while True:
        D = random_divisor(rng, fan)
        if any(c != 0 for c in D.coefficients):
            break
    ss = semistable_divisor(D, _lin0(act.d), act, fan)
    if not ss.certificates:
        return
    q = build_quotient(ss, act, fan)
    assert q.quotient_rank == fan.ambient_rank - action_sublattice(act).rank
    # every chart image lives in the quotient lattice and contains the
    # projections of the chart's faces
    for key, i, img in q.orbit_map:
        chart = q.charts[i]
        assert contains_cone(chart.image, img)
    # gluings are contained in both images
    for i, j, glue in q.gluings:
        assert contains_cone(q.charts[i].image, glue)
        assert contains_cone(q.charts[j].image, glue)
    if q.geometric:
        assert q.good  # geometric is defined only on top of good


def _images_form_fan_by_validation(q):
    """Reference for the separated flag: every pair of images meets in its
    glue cone, the images share one lineality space V, and modulo V they
    pass validate_fan as a fan."""
    if any(intersect(q.charts[i].image, q.charts[j].image) != glue
           for i, j, glue in q.gluings):
        return False
    if len(q.charts) == 1:
        return True
    lineality = {ch.image.lineality_basis for ch in q.charts}
    if len(lineality) > 1:
        return False
    modulo, _ = cokernel_projection(Sublattice.from_rows(q.quotient_rank,
                                                         list(lineality.pop())))
    images = [cones.image(ch.image, modulo) for ch in q.charts]
    rays = sorted({g for im in images for g in im.generators})
    cones_ = [[rays.index(g) for g in im.generators] for im in images]
    try:
        validate_fan(modulo.target_rank, rays, cones_)
    except FanError:
        return False
    return True


def test_separated_flag_matches_validate_fan():
    multi = not_separated = 0
    for seed in range(200):
        rng = random.Random(seed)
        fan = random_complete_fan2(rng)
        act = random_action(rng, fan)
        divisors = [random_divisor(rng, fan) for _ in range(1 + seed % 2)]
        try:
            group = DivisorGroup(tuple(divisors))
        except ValueError:  # dependent divisors
            continue
        lin = random_linearization(rng, act.d, group.rank)
        ss = semistable_group(group, lin, act, fan) if seed % 3 \
            else semistable_divisor(divisors[0], _lin0(act.d), act, fan)
        if not ss.certificates:
            continue
        q = build_quotient(ss, act, fan)
        assert q.separated == _images_form_fan_by_validation(q)
        multi += len(q.charts) > 1
        not_separated += not q.separated
    assert multi >= 20 and not_separated >= 3


def _random_quotient(seed):
    """A seeded random quotient with its action and fan, or None when the
    locus is empty or the drawn divisors are dependent."""
    rng = random.Random(seed)
    fan = random_complete_fan2(rng) if seed % 2 else random_fan(rng)
    act = random_action(rng, fan)
    divisors = [random_divisor(rng, fan) for _ in range(1 + seed % 2)]
    try:
        group = DivisorGroup(tuple(divisors))
    except ValueError:  # dependent divisors
        return None
    lin = random_linearization(rng, act.d, group.rank)
    ss = semistable_group(group, lin, act, fan) if seed % 3 \
        else semistable_divisor(divisors[0], _lin0(act.d), act, fan)
    if not ss.certificates:
        return None
    return build_quotient(ss, act, fan), act, fan


def _smallest_face_holding(gamma, chart):
    """Reference orbit image: the first face of the image, in dimension
    order, that holds pi(gamma); None if pi(gamma) leaves the image."""
    pi = chart.projection
    points = [pi.apply(g) for g in gamma.generators]
    for l in gamma.lineality_basis:
        points += [pi.apply(l), pi.apply(vneg(l))]
    return next((f for f in cone_faces(chart.image)
                 if all(f.contains_point(p) for p in points)), None)


def test_orbit_image_is_smallest_face_holding_the_projection():
    escaped = pairs = 0
    for seed in range(120):
        drawn = _random_quotient(seed)
        if drawn is None:
            continue
        q, _, fan = drawn
        for chart in q.charts:
            for k in fan.face_keys():
                gamma = fan.face_cone(k)
                want = _smallest_face_holding(gamma, chart)
                if want is None:
                    escaped += 1
                    with pytest.raises(RuntimeError):
                        orbit_image(gamma, chart)
                else:
                    pairs += 1
                    assert orbit_image(gamma, chart) == want
    assert pairs >= 400 and escaped >= 200


def test_meets_in_matches_intersect_on_chart_images(monkeypatch):
    """On every pair of chart images of random quotients, and on every
    face the two share, meets_in answers as the intersection does."""
    fallbacks = []
    real = cones.intersect
    monkeypatch.setattr(cones, "intersect",
                        lambda c1, c2: fallbacks.append(1) or real(c1, c2))
    met = missed = 0
    for seed in range(400):
        drawn = _random_quotient(seed)
        if drawn is None:
            continue
        images = [ch.image for ch in drawn[0].charts]
        for i, c1 in enumerate(images):
            for c2 in images[i + 1:]:
                for f in set(cone_faces(c1)) & set(cone_faces(c2)):
                    got = meets_in(c1, c2, f, pair_masks(c1, c2, f))
                    assert got == (intersect(c1, c2) == f)
                    met += got
                    missed += not got
    assert met >= 300 and missed >= 100 and 0 < len(fallbacks) < met + missed


def _geometric_by_face_bijection(q, act, fan):
    """Reference for the geometric flag: good, and in every chart the
    orbit map is a bijection onto the faces of the image under which each
    orbit keeps its dimension modulo the saturated acting lattice."""
    n, L = fan.ambient_rank, action_sublattice(act)
    if not q.good:
        return False
    for chart in q.charts:
        seen = []
        for k in fan.all_keys_under(chart.source_key):
            gamma = fan.face_cone(k)
            F = _smallest_face_holding(gamma, chart)
            if F in seen:
                return False
            seen.append(F)
            lr = rank_of_rows(list(gamma.generators) + list(L.basis.entries)) \
                - gamma.dim
            if lr != (n - gamma.dim) - (q.quotient_rank - F.dim):
                return False
        if len(seen) != len(cone_faces(chart.image)):
            return False
    return True


def test_geometric_flag_matches_face_bijection():
    geometric = not_geometric = 0
    for seed in range(400):
        drawn = _random_quotient(seed)
        if drawn is None:
            continue
        q, act, fan = drawn
        assert q.geometric == _geometric_by_face_bijection(q, act, fan)
        geometric += q.geometric
        not_geometric += not q.geometric
    assert geometric >= 100 and not_geometric >= 8


def _cox_quotient(name, chi=None):
    """The Cox quotient of a complete fan at chi, by default at its
    anticanonical class."""
    orthant, act = cox_data(COX_FANS[name][0])
    chi = chi or tuple(sum(col) for col in act.columns)
    return (build_quotient(mumford_trivial_semistable(chi, act, orthant), act,
                           orthant), act, orthant)


def _half_plane_quotient():
    """Two charts whose images are opposite half-planes, glued along their
    common line: random fans of rank 3 are affine and never give this."""
    fan = validate_fan(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 0), (0, -1, 0)],
                       [[0, 1, 2], [0, 1, 3]])
    act = SubtorusAction.from_columns([(0, 0, 1)], 3)
    ss = semistable_divisor(ToricDivisor((0, 0, 0, 1)), _lin0(1), act, fan)
    return build_quotient(ss, act, fan), act, fan


# characters on a wall of the GIT fan of Cox data: two charts whose
# images share a line
_WALLS = [("P1xP1", (0, 1)), ("P1xP1", (1, 0)), ("F1", (1, 0))]


def test_quotients_glued_along_a_line_are_separated():
    # each is P^1: two opposite half-planes that share the line V, glued
    # along V, which modulo V are the rays +1 and -1
    for q, _, _ in [_cox_quotient(*wall) for wall in _WALLS] + [_half_plane_quotient()]:
        assert len(q.charts) == 2 and q.good
        (V,) = {ch.image.lineality_basis for ch in q.charts}
        assert len(V) == 1
        assert [glue for _, _, glue in q.gluings] == [Cone(q.quotient_rank, (), V)]
        assert q.separated and _images_form_fan_by_validation(q)


def _hirzebruch(a):
    return [(1, 0), (0, 1), (-1, a), (0, -1)]


_HEXAGON = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]


@pytest.mark.parametrize("rays, lined", [
    (COX_FANS["P2"][0], 0), (COX_FANS["P1xP1"][0], 2), (_hirzebruch(1), 1),
    (_hirzebruch(2), 1), (_hirzebruch(3), 1), (_HEXAGON, 27)],
    ids=["P2", "P1xP1", "F1", "F2", "F3", "hexagon"])
def test_git_chamber_quotients_are_good_and_separated(rays, lined):
    """The quotient at each GIT cone's sample is good and separated, and
    `lined` of them have several charts whose images share a lineality
    space V.  The glue cones of each hold V, so comparing glue cones
    modulo V would change no flag: in a good quotient, the face of a
    chart over V has the empty face's orbit image, so saturation puts it
    under every glue source."""
    orthant, act = cox_data(rays)
    seen = 0
    for _, _, ss in git_chambers(act, orthant):
        q = build_quotient(ss, act, orthant)
        assert q.good and q.separated and _images_form_fan_by_validation(q)
        (V,) = {ch.image.lineality_basis for ch in q.charts}
        assert all(glue.lineality_basis == V for _, _, glue in q.gluings)
        seen += len(q.charts) > 1 and V != ()
    assert seen == lined


def test_glue_cones_match_conversion(monkeypatch):
    """Every glue cone is the converted image of the shared face, whether
    it was read off an orbit image or converted."""
    converted = []
    real = quotients.cone_image
    monkeypatch.setattr(quotients, "cone_image",
                        lambda c, f: converted.append(c) or real(c, f))

    def build(make, *args):
        # the quotient, its fan and the cones its build converted
        converted.clear()
        drawn = make(*args)
        return drawn and (drawn[0], drawn[2], set(converted))

    built = [build(_cox_quotient, name) for name in ("P2", "P1xP1", "F1")]
    # glued along a line, which is no orbit image's pointed face
    lines = [build(_cox_quotient, *wall) for wall in _WALLS]
    lines.append(build(_half_plane_quotient))
    assert all(fan.face_cone(q.charts[0].source_key & q.charts[1].source_key) in sources
               for q, fan, sources in lines)
    built += lines
    seed = 0
    while len(built) < 1007:
        built += [b for b in [build(_random_quotient, seed)] if b]
        seed += 1
    by_incidence = by_conversion = 0
    for q, fan, sources in built:
        for i, j, glue in q.gluings:
            gamma = fan.face_cone(q.charts[i].source_key & q.charts[j].source_key)
            want = cones.image(gamma, q.charts[i].projection)
            assert glue == want and glue.dim == want.dim
            by_conversion += gamma in sources
            by_incidence += gamma not in sources
    assert by_incidence > 0 and by_conversion > 0


def test_glue_cone_inside_its_orbit_image():
    # pi(e3) = (1, 1) lies inside the image of the orthant, so its orbit
    # image is the whole image, which is not pi(gamma): it is converted
    pi = LatticeMap(IntMatrix.from_rows([(1, 0, 1), (0, 1, 1)], 3), 3, 2)
    orthant = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    proj = {j: pi.apply(v) for j, v in enumerate(orthant.rays)}
    image = cones.image(orthant.face_cone(frozenset({0, 1, 2})), pi)
    got = quotients._glue_cone(frozenset({2}), image, proj, orthant, pi)
    assert got == Cone.from_generators(2, [(1, 1)])


def _random_locus_quotient(rng):
    """A random fan and action with either the closure of 1-4 random
    faces (no certificates) or an engine locus of a random divisor."""
    fan = random_complete_fan2(rng) if rng.random() < 0.6 else random_fan(rng)
    act = random_action(rng, fan)
    if rng.random() < 0.75:
        keys = fan.face_keys()
        ss = locus_of_faces(fan, [rng.choice(keys) for _ in range(rng.randint(1, 4))])
    else:
        ss = semistable_divisor(random_divisor(rng, fan), _lin0(act.d), act, fan)
    return ss, act, fan


def test_chart_images_have_the_conversions_facets():
    """Each chart image has the facet normals, span equalities and dim of
    `Cone.from_generators` on its projected rays, read before or after
    its dim; Cone equality reads generators and lineality only.  The
    images include simplicial ones, built with no conversion, and others,
    among them the wall characters' images with lineality."""
    rng = random.Random(11)
    drawn = [(q, fan) for q, _, fan in [_cox_quotient(*wall) for wall in _WALLS]
             + [_half_plane_quotient()]]
    while len(drawn) < 400:
        ss, act, fan = _random_locus_quotient(rng)
        drawn.append((build_quotient(ss, act, fan), fan))
    shapes = {"simplicial": 0, "other": 0, "lineality": 0}
    for n, (q, fan) in enumerate(drawn):
        for ch in q.charts:
            rays = [ch.projection.apply(fan.rays[j]) for j in sorted(ch.source_key)]
            want = Cone.from_generators(q.quotient_rank, rays)
            got = ch.image
            first = got.dim if n % 2 else None
            assert (got.generators, got.lineality_basis, got.facet_normals,
                    got.span_equalities, got.dim) == (
                want.generators, want.lineality_basis, want.facet_normals,
                want.span_equalities, want.dim)
            assert first in (None, want.dim)
            shapes["simplicial" if rank_of_rows(rays) == len(rays) else "other"] += 1
            shapes["lineality"] += bool(got.lineality_basis)
    assert min(shapes.values()) >= 5, shapes


def test_build_quotient_matches_per_face_reference():
    """The incidence tables give the per-face reference's quotient on
    random face-closed sets, many of which have no good quotient, and on
    engine loci."""
    rng = random.Random(5)
    not_good = not_geometric = not_separated = 0
    for _ in range(1500):
        ss, act, fan = _random_locus_quotient(rng)
        q = build_quotient(ss, act, fan)
        assert q == build_quotient_by_faces(ss, act, fan)
        assert q.good == (not q.unsaturated_pairs)
        not_good += not q.good
        not_geometric += not q.geometric
        not_separated += not q.separated
    assert not_good >= 100 and not_geometric >= 100 and not_separated >= 50
