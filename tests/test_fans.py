"""Fan validation, invariant divisors, Cartier/ample loci, class groups."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgit import actions, cones, intlinalg
from toricgit.actions import ActionError, SubtorusAction
from toricgit.cones import Cone, faces, form_masks, intersect, meets_in
from toricgit.fans import (
    ClassGroupInfo,
    DivisorGroup,
    FanError,
    SubfanLocus,
    ToricDivisor,
    ample_locus,
    cartier_locus,
    chart_witness,
    class_group,
    is_cartier_on,
    largest_first,
    section_cone,
    validate_fan,
)
from toricgit.intlinalg import rank_of_rows, vdot

from genutil import (
    COX_FANS,
    chart_witness_by_system,
    meets_in_by_sum,
    open_complement,
    pair_masks,
    random_divisor,
    random_fan,
    random_primitive_vector,
    random_unimodular,
    validate_fan_by_conversion,
    whole_locus,
    zero_pattern,
)


def _nonzero_divisor(rng, fan):
    while True:
        D = random_divisor(rng, fan)
        if any(c != 0 for c in D.coefficients):
            return D


# --- validation -------------------------------------------------------

def test_validate_rejects_nonprimitive_ray():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(2, 0)], [[0]])
    assert e.value.kind == "NonPrimitiveRay"


def test_validate_rejects_zero_ray():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(0, 0)], [[0]])
    assert e.value.kind == "NonPrimitiveRay"


def test_validate_rejects_duplicate_ray():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (1, 0)], [[0], [1]])
    assert e.value.kind == "DuplicateRay"


def test_validate_rejects_bad_index():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0)], [[0, 3]])
    assert e.value.kind == "BadIndex"


def test_validate_rejects_unpointed_cone():
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (-1, 0)], [[0, 1]])
    assert e.value.kind == "NotPointed"


def test_validate_rejects_overlapping_cones():
    # two 2-cones overlapping in a 2-dimensional region
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [0, 2]])
    assert e.value.kind == "IntersectionNotFace"


def test_validate_rejects_unlisted_ray_inside_cone():
    # ray 1 = (1, 1) lies in the cone on rays 0 and 2, which does not list it
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0)], [(0, 2), (2, 3)])
    assert e.value.kind == "IntersectionNotFace"
    # the same in a fan of one simplicial cone, whose facets no other
    # check reads
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1]])
    assert str(e.value) == "IntersectionNotFace: cone on rays [0, 1] contains rays [2]"


def test_validate_rejects_listed_ray_that_is_not_extreme():
    # ray 1 = (1, 1) is listed but is not an extreme ray of the cone
    with pytest.raises(FanError) as e:
        validate_fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)])
    assert e.value.kind == "IntersectionNotFace"


def test_validate_rejects_cone_inside_another_as_a_non_face():
    # a square cone plus its diagonal: the two meet in the diagonal, which
    # is a whole cone of the fan but not a face of the square
    with pytest.raises(FanError) as e:
        validate_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                     [(0, 1, 2, 3), (0, 2)])
    assert e.value.kind == "IntersectionNotFace"


@pytest.mark.parametrize("listed", [[[0, 1], [0]], [[0, 1], [0, 1]], [[0, 1], []],
                                    [[1], [], [0, 1], [0], [0, 1]]])
def test_a_listed_cone_under_another_is_dropped(listed):
    # a repeated key, a face of another listed cone and the empty cone pass
    # every check; the fan keeps each inclusion-maximal key once, so it is
    # the fan of the one cone
    rays = [(1, 0), (0, 1)]
    fan = validate_fan(2, rays, listed)
    assert fan == validate_fan(2, rays, [[0, 1]])
    assert fan.maximal_cones == ((0, 1),)
    assert (_validation_outcome(validate_fan, 2, rays, listed)
            == _validation_outcome(validate_fan_by_conversion, 2, rays, listed))


def test_maximal_cones_keep_their_listed_order_when_a_face_is_dropped():
    # P^2 with one of its rays and one of its cones listed again, and the
    # square cone with one of its edges: the listed faces go, the order stays
    rays = [(1, 0), (0, 1), (-1, -1)]
    fan = validate_fan(2, rays, [[1, 2], [1], [0, 1], [2, 0], [0, 1]])
    assert fan.maximal_cones == ((1, 2), (0, 1), (0, 2))
    assert fan == validate_fan(2, rays, [[1, 2], [0, 1], [2, 0]])
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    fan = validate_fan(3, square, [[0, 1], [0, 1, 2, 3]])
    assert fan == validate_fan(3, square, [[0, 1, 2, 3]])
    assert fan.all_keys_under(frozenset(range(4))) == fan.face_keys()


# --- simplicial cones are validated by a rank, not a conversion ---------

def _complete_fans(n):
    """Rays and maximal cones of P^n, (P^1)^n and the face fan of the cube
    [-1, 1]^n (not simplicial for n >= 3)."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    proj = (unit + [(-1,) * n],
            [list(c) for c in itertools.combinations(range(n + 1), n)])
    signs = [v for e in unit for v in (e, tuple(-x for x in e))]
    p1n = (signs, [[2 * i + b for i, b in enumerate(bits)]
                   for bits in itertools.product((0, 1), repeat=n)])
    corners = list(itertools.product((1, -1), repeat=n))
    cube = (corners, [[j for j, v in enumerate(corners) if v[i] == s]
                      for i in range(n) for s in (1, -1)])
    return [proj, p1n] + ([cube] if n >= 2 else [])


def _random_fan_input(rng):
    """(rank, rays, maximal cones) of rank 1-4: a complete fan moved by a
    unimodular map, some of its cones and maybe one more ray; one cone or
    a few on random rays, simplicial or not; or a malformed input."""
    n = rng.randint(1, 4)
    kind = rng.randrange(4)
    if kind == 0:
        rays, maxes = rng.choice(_complete_fans(n))
        U = random_unimodular(rng, n)
        rays = [tuple(vdot(row, v) for row in U) for v in rays]
        maxes = rng.sample(maxes, rng.randint(1, len(maxes)))
        if rng.random() < 0.3:
            rays.append(random_primitive_vector(rng, n))
    elif kind in (1, 2):
        rays = [random_primitive_vector(rng, n) for _ in range(rng.randint(1, n + 2))]
        cones_ = 1 if kind == 1 else rng.randint(2, 3)
        maxes = [rng.sample(range(len(rays)), rng.randint(1, min(len(rays), n + 1)))
                 for _ in range(cones_)]
    else:
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
        if rng.random() < 0.3:
            rays.append(tuple(range(n + 1)))
        maxes = [[rng.randint(0, len(rays)) for _ in range(rng.randint(0, n))]]
    return n, rays, maxes


def _random_complete_fan_input(rng):
    """(3, rays, maximal cones) of a complete rank-3 fan (P^3, (P^1)^3 or
    the cube's face fan) moved by a unimodular map, then with one ray
    moved or one cone added: every cone is kept, so most of these reach
    the pair test with many cones."""
    rays, maxes = rng.choice(_complete_fans(3))
    U = random_unimodular(rng, 3)
    rays = [tuple(vdot(row, v) for row in U) for v in rays]
    if rng.random() < 0.5:
        rays[rng.randrange(len(rays))] = random_primitive_vector(rng, 3)
    else:
        maxes = maxes + [rng.sample(range(len(rays)), rng.randint(1, 4))]
    return 3, rays, maxes


def _validation_outcome(validate, *args):
    """Every field of the validated fan and of each face cone (dim read
    before the facets), or the rejection's kind and message."""
    try:
        fan = validate(*args)
    except FanError as e:
        return e.kind, str(e)
    faces_ = [(k, c.dim, c.generators, c.lineality_basis, c.facet_normals,
               c.span_equalities, c.dim)
              for k, c in ((k, fan.face_cone(k)) for k in fan.face_keys())]
    return (fan.rays, fan.maximal_cones, fan.face_keys(), faces_,
            [fan.all_keys_under(k) for k in fan.maximal_keys])


def test_validate_matches_conversion_on_random_fans():
    kinds = {}
    complete = {"accepted": 0, "pair": 0}
    inputs = [(False, _random_fan_input(random.Random(seed))) for seed in range(700)]
    inputs += [(True, _random_complete_fan_input(random.Random(seed))) for seed in range(300)]
    for is_complete, args in inputs:
        got = _validation_outcome(validate_fan, *args)
        assert got == _validation_outcome(validate_fan_by_conversion, *args), args
        if isinstance(got[0], str):
            kind = got[0]
            complete["pair"] += is_complete and "do not meet in a common face" in got[1]
        else:
            simplicial = all(rank_of_rows([args[1][i] for i in set(m)]) == len(set(m))
                             for m in args[2])
            kind = ("one" if len(got[1]) == 1 else "multi", simplicial)
            complete["accepted"] += is_complete
        kinds[kind] = kinds.get(kind, 0) + 1
    # accepted fans of each shape, and every rejection kind
    assert all(kinds.get((shape, simplicial), 0) >= 5
               for shape in ("one", "multi") for simplicial in (True, False)), kinds
    assert all(kinds.get(kind, 0) >= 5 for kind in (
        "NonPrimitiveRay", "DuplicateRay", "IntersectionNotFace", "NotPointed",
        "BadIndex")), kinds
    # complete fans with many cones, accepted and rejected by the pair test
    assert complete["accepted"] >= 50 and complete["pair"] >= 15, complete


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_validate_accepts_cube_and_orthant_fans(n):
    # P^n, (P^1)^n and the cube's face fan, then the orthant; the faces of
    # the n-cube less itself, with the empty face, number 3^n
    fans = _complete_fans(n) + [(_complete_fans(n)[0][0][:n], [list(range(n))])]
    counts = [2 ** (n + 1) - 1, 3 ** n, 3 ** n][:len(fans) - 1] + [2 ** n]
    for (rays, maxes), count in zip(fans, counts):
        fan = validate_fan(n, rays, maxes)
        assert set(fan.maximal_keys) == {frozenset(m) for m in maxes}
        assert len(fan.face_keys()) == count


def _count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of each call of module.name."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_simplicial_fans_and_actions_need_no_conversion(monkeypatch):
    conversions = _count_calls(monkeypatch, cones, "double_description")
    # the "not injective" message is the one place that computes a kernel
    kernels = [_count_calls(monkeypatch, m, "kernel_basis") for m in (intlinalg, cones, actions)]
    orthant = validate_fan(4, [tuple(int(i == j) for j in range(4)) for i in range(4)],
                           [[0, 1, 2, 3]])
    validate_fan(3, [(1, 0, 1), (0, 1, 1), (-1, -1, 1)], [[0, 1, 2]])
    assert len(orthant.face_keys()) == 16 and conversions == []
    SubtorusAction.from_columns([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    assert not any(kernels)
    with pytest.raises(ActionError) as e:
        SubtorusAction.from_columns([(1, 0), (2, 0)], 2)
    assert str(e.value) == "phi is not injective; kernel basis ((2, -1),)"
    assert conversions == [] and sum(map(len, kernels)) >= 1


def _count_fallbacks(monkeypatch) -> list:
    """Record each intersect that meets_in falls back to."""
    return _count_calls(monkeypatch, cones, "intersect")


def test_validate_accepts_cones_that_no_facet_separates(monkeypatch):
    # two triangular cones above and below the plane z = 0, which
    # separates them; no facet of either does, so the pair is intersected
    fallbacks = _count_fallbacks(monkeypatch)
    fan = validate_fan(3, [(2, 0, 1), (-1, 2, 1), (-1, -2, 1),
                           (2, 0, -1), (-1, 2, -1), (-1, -2, -1)],
                       [[0, 1, 2], [3, 4, 5]])
    assert len(fallbacks) == 1
    assert len(fan.face_keys()) == 15 and fan.has_face(frozenset())


def test_validate_rejects_overlapping_cones_that_no_facet_separates(monkeypatch):
    # a hexagram: two triangular cones over the plane z = 1 that overlap
    # in a hexagon, with no ray of either inside the other
    fallbacks = _count_fallbacks(monkeypatch)
    with pytest.raises(FanError) as e:
        validate_fan(3, [(2, 0, 1), (-1, 2, 1), (-1, -2, 1),
                         (-2, 0, 1), (1, -2, 1), (1, 2, 1)],
                     [[0, 1, 2], [3, 4, 5]])
    assert e.value.kind == "IntersectionNotFace"
    assert len(fallbacks) == 1


_PAIR_FANS = [
    COX_FANS["P3"],
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
     [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]),
    ([(2, 0, 1), (-1, 2, 1), (-1, -2, 1), (2, 0, -1), (-1, 2, -1), (-1, -2, -1)],
     [[0, 1, 2], [3, 4, 5], [0, 1, 3, 4], [1, 2, 4, 5], [0, 2, 3, 5]]),
]


def test_meets_in_matches_intersect_on_fan_pairs(monkeypatch):
    """On pairs of maximal cones of fans moved by a unimodular map, with
    a random ray moved or a random cone added, and on every face the two
    share, the mask rule of meets_in answers as the summed-form reference
    and the intersection do, by default and with masks over every
    generator of the fan, and falls back on exactly the reference's
    pairs."""
    fallbacks = _count_fallbacks(monkeypatch)
    pairs = mask_fallbacks = 0
    for seed in range(120):
        rng = random.Random(seed)
        rays, maxes = _PAIR_FANS[seed % len(_PAIR_FANS)]
        U = random_unimodular(rng, 3)
        rays = [tuple(vdot(row, v) for row in U) for v in rays]
        maxes = [list(m) for m in maxes]
        if seed % 3 == 1:
            rays[rng.randrange(len(rays))] = tuple(rng.randint(-2, 2) for _ in range(3))
        elif seed % 3 == 2:
            maxes.append(rng.sample(range(len(rays)), rng.randint(1, 4)))
        cs = [Cone.from_generators(3, [rays[i] for i in m]) for m in maxes]
        points = list(dict.fromkeys(g for c in cs for g in c.generators))
        bit = {p: 1 << i for i, p in enumerate(points)}

        def gens(c):
            return sum(bit[g] for g in c.generators)
        sides = [(form_masks(c, points), gens(c)) for c in cs]
        for i, c1 in enumerate(cs):
            for j in range(i + 1, len(cs)):
                c2 = cs[j]
                for f in set(faces(c1)) & set(faces(c2)):
                    pairs += 1
                    n0 = len(fallbacks)
                    got = meets_in(c1, c2, f, pair_masks(c1, c2, f))
                    n1 = len(fallbacks)
                    assert meets_in(c1, c2, f, (sides[i], sides[j], gens(f))) == got
                    n2 = len(fallbacks)
                    assert meets_in_by_sum(c1, c2, f) == got == (intersect(c1, c2) == f)
                    assert n1 - n0 == n2 - n1 == len(fallbacks) - n2
                    mask_fallbacks += n1 - n0
    # both the certificate and the fallback decide some pairs
    assert 0 < mask_fallbacks < pairs


@pytest.mark.parametrize("gens1, gens2", [
    ([(-1, -1, 0), (1, 0, 1)], [(0, -1, 0)]),
    ([(2, 2, -1)], [(0, 2, 1), (2, 1, -2)]),
])
def test_meets_in_settles_pairs_the_form_cuts_from_one_side(monkeypatch, gens1, gens2):
    # the separating form cuts the apex out of one of the two cones but a
    # larger face out of the other: c1 ∩ c2 lies in both faces, so the
    # apex side settles the pair, in either order, with no intersection
    fallbacks = _count_fallbacks(monkeypatch)
    c1, c2 = Cone.from_generators(3, gens1), Cone.from_generators(3, gens2)
    apex = Cone(3, (), ())
    for a, b in ((c1, c2), (c2, c1)):
        assert meets_in(a, b, apex, pair_masks(a, b, apex)) and meets_in_by_sum(a, b, apex)
    assert len(fallbacks) == 0
    assert intersect(c1, c2) == apex


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_face_keys_are_the_fan_rays_in_each_face(seed):
    fan = random_fan(random.Random(seed))
    for k in fan.face_keys():
        cone = fan.face_cone(k)
        assert k == frozenset(i for i, v in enumerate(fan.rays) if cone.contains_point(v))
        assert len(cone.generators) == len(k)
    assert all(fan.has_face(k) for k in fan.maximal_keys)


def test_validate_quadric(quadric_fan):
    assert len(quadric_fan.rays) == 4
    # apex, 4 rays, 4 two-dim walls, the cone: 10 faces
    assert len(quadric_fan.face_keys()) == 10
    assert quadric_fan.has_face(frozenset())
    assert quadric_fan.has_face(frozenset({0, 3}))
    assert not quadric_fan.has_face(frozenset({0, 2}))  # not a face: diagonal


def test_face_cone_of_a_non_face(quadric_fan):
    with pytest.raises(KeyError, match=r"not a face of the fan: \[0, 2\]"):
        quadric_fan.face_cone(frozenset({0, 2}))


def _size_order(keys):
    return sorted(keys, key=lambda k: (len(k), sorted(k)))


def test_one_simplicial_cone_builds_one_cone(monkeypatch):
    # a fan of one simplicial cone keeps its face keys, the 64 subsets of
    # its rays in (size, sorted) order, and builds the cone and nothing else
    rng = random.Random(6)
    rays = []
    while len(rays) < 6:
        v = random_primitive_vector(rng, 6)
        if rank_of_rows(rays + [v]) == len(rays) + 1:
            rays.append(v)
    built, real = [], Cone.__init__
    monkeypatch.setattr(Cone, "__init__", lambda self, *a: built.append(a) or real(self, *a))
    conversions = _count_calls(monkeypatch, cones, "double_description")
    fan = validate_fan(6, rays, [range(6)])
    keys = fan.face_keys()
    assert len(built) == 1 and conversions == []
    assert len(keys) == 64 and list(keys) == _size_order(keys)
    assert set(keys) == {frozenset(s) for n in range(7)
                         for s in itertools.combinations(range(6), n)}
    # a face's cone is the cone on its rays, built when it is read
    face = fan.face_cone(frozenset({1, 4}))
    assert (face.generators, face.lineality_basis) == (tuple(sorted([rays[1], rays[4]])), ())
    assert fan.face_cone(keys[-1]) is fan.face_cone(keys[-1]) and len(built) == 2


@pytest.mark.parametrize("r", range(7))
def test_an_orthant_builds_no_sign_table(monkeypatch, r):
    # C^r lists every ray in one cone, so neither the outside-ray check nor
    # a pair check reads its table: one rank, no elimination, no conversion
    eliminations = _count_calls(monkeypatch, cones, "simplicial_masks")
    forms = _count_calls(monkeypatch, cones, "form_masks")
    conversions = _count_calls(monkeypatch, cones, "double_description")
    ranks = _count_calls(monkeypatch, cones, "rank_of_rows")
    fan = validate_fan(r, [tuple(int(i == j) for j in range(r)) for i in range(r)], [range(r)])
    assert len(fan.face_keys()) == 2 ** r
    assert (eliminations, forms, conversions, len(ranks)) == ([], [], [], 1)
    # two cones, each with a fan ray outside it: one elimination each
    fan = validate_fan(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    assert len(fan.maximal_cones) == len(eliminations) == 2
    assert (forms, conversions, len(ranks)) == ([], [], 1)


def test_face_lookups_match_a_per_key_reference():
    """On accepted fans, one cone or several, a set of rays is a face iff
    it holds the generators of a face of some converted maximal cone, and
    has_face and all_keys_under answer so for every set of rays."""
    rng = random.Random(9)
    checked = 0
    while checked < 60:
        n, rays, maxes = (_random_fan_input(rng) if rng.random() < 0.5
                          else _random_complete_fan_input(rng))
        try:
            fan = validate_fan(n, rays, maxes)
        except FanError:
            continue
        index = {v: i for i, v in enumerate(fan.rays)}
        ref = {frozenset(index[g] for g in f.generators)
               for m in fan.maximal_cones
               for f in faces(Cone.from_generators(n, [fan.rays[i] for i in m]))}
        assert list(fan.face_keys()) == _size_order(ref)
        for size in range(len(rays) + 1):
            for s in map(frozenset, itertools.combinations(range(len(rays)), size)):
                assert fan.has_face(s) == (s in ref)
                assert list(fan.all_keys_under(s)) == _size_order(k for k in ref if k <= s)
        checked += 1


def test_empty_fan_is_torus():
    f = validate_fan(2, [], [])
    assert f.face_keys() == (frozenset(),)


# --- Cartier ----------------------------------------------------------

def test_quadric_divisor_not_cartier_at_top(quadric_fan):
    D = ToricDivisor((-1, 0, 4, 7))
    assert is_cartier_on(quadric_fan, D, frozenset({0, 1, 2, 3})) is None
    m = is_cartier_on(quadric_fan, D, frozenset({0, 1}))
    assert m is not None
    assert vdot(m, quadric_fan.rays[0]) == 1
    assert vdot(m, quadric_fan.rays[1]) == 0


@pytest.mark.parametrize("rank", range(4))
def test_every_divisor_is_cartier_on_the_empty_face(rank):
    # no ray, no equation: the local equation is the zero character, the
    # solution of a system with no rows, on a fan with rays or without
    assert intlinalg.solve_integer(intlinalg.IntMatrix.from_rows([], rank), ()) == (0,) * rank
    rays = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    fan = validate_fan(rank, rays, [list(range(rank))])
    D = ToricDivisor(tuple(range(2, rank + 2)))
    assert is_cartier_on(fan, D, frozenset()) == (0,) * rank


def test_cartier_locus_quadric(quadric_fan):
    loc = cartier_locus(DivisorGroup((ToricDivisor((-1, 0, 4, 7)),)),
                        quadric_fan)
    # everything except the full cone: the divisor class is nontrivial
    assert frozenset({0, 1, 2, 3}) not in loc
    assert len(loc.faces) == 9


def test_cartier_locus_principal_divisor_is_everything(quadric_fan):
    # divisor of the character m=(1,1,0): coefficients <m, v_rho>
    coeffs = tuple(vdot((1, 1, 0), v) for v in quadric_fan.rays)
    loc = cartier_locus(DivisorGroup((ToricDivisor(coeffs),)), quadric_fan)
    assert loc == whole_locus(quadric_fan)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_cartier_locus_closed_and_equivariant(seed):
    rng = random.Random(seed)
    fan = random_fan(rng)
    D = _nonzero_divisor(rng, fan)
    loc = cartier_locus(DivisorGroup((D,)), fan)
    # face-closed
    for k in loc.faces:
        for sub in fan.all_keys_under(k):
            assert sub in loc
    # invariant under a lattice automorphism
    U = random_unimodular(rng, fan.ambient_rank)
    new_rays = [tuple(vdot(row, v) for row in U) for v in fan.rays]
    fan2 = validate_fan(fan.ambient_rank, new_rays,
                        [list(c) for c in fan.maximal_cones])
    loc2 = cartier_locus(DivisorGroup((D,)), fan2)
    assert loc.faces == loc2.faces


# --- class group ------------------------------------------------------

def test_class_group_quadric(quadric_fan):
    info = class_group(quadric_fan)
    assert info.cl_rank == 1
    assert info.cl_torsion == ()
    assert info.pic_rank == 0
    assert info.torus_factor_rank == 0


def test_class_group_p2():
    p2 = validate_fan(2, [(1, 0), (0, 1), (-1, -1)],
                      [[0, 1], [1, 2], [0, 2]])
    info = class_group(p2)
    assert info.cl_rank == 1 and info.cl_torsion == ()
    assert info.pic_rank == 1


def test_class_group_affine_plane(plane_fan):
    info = class_group(plane_fan)
    assert info.cl_rank == 0 and info.pic_rank == 0


def test_class_group_torsion():
    # quotient singularity A_1: rays (1,0) and (1,2)
    f = validate_fan(2, [(1, 0), (1, 2)], [[0, 1]])
    info = class_group(f)
    assert info.cl_rank == 0
    assert info.cl_torsion == (2,)
    assert info.pic_rank == 0


def test_class_group_torus_factor():
    f = validate_fan(2, [(1, 0)], [[0]])
    info = class_group(f)
    assert info.torus_factor_rank == 1
    assert info.cl_rank == 0


@pytest.mark.parametrize("rank", range(4))
def test_class_group_of_a_rayless_fan(rank):
    # the torus itself: no divisors, the whole lattice a torus factor
    info = class_group(validate_fan(rank, [], [[]]))
    assert info == ClassGroupInfo(0, (), 0, rank)


# --- sections / patterns ----------------------------------------------

def test_section_system_quadric(quadric_fan, quadric_divisor):
    # (u, n) = ((1, 2, -4), 1) is the degree-1 section used throughout: a
    # monomial is a section of nD iff it vanishes to order >= 0 on each ray
    assert min(zero_pattern(quadric_fan, quadric_divisor, (1, 2, -4), 1)) >= 0
    assert min(zero_pattern(quadric_fan, quadric_divisor, (0, 0, 1), 1)) < 0


def test_zero_pattern_and_complement(quadric_fan, quadric_divisor):
    b = zero_pattern(quadric_fan, quadric_divisor, (1, 2, -4), 1)
    assert b == (0, 2, 2, 4)
    loc = open_complement(quadric_fan, b)
    assert loc.maximal_keys() == [frozenset({0})]
    assert frozenset() in loc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_open_complement_is_face_closed(seed):
    rng = random.Random(seed)
    fan = random_fan(rng)
    D = random_divisor(rng, fan)
    u = tuple(rng.randint(-3, 3) for _ in range(fan.ambient_rank))
    n = rng.randint(1, 3)
    b = zero_pattern(fan, D, u, n)
    loc = open_complement(fan, b)
    for k in loc.faces:
        for sub in fan.all_keys_under(k):
            assert sub in loc


# --- chart witnesses and ample locus -----------------------------------

def test_chart_witness_quadric_ray0(quadric_fan, quadric_divisor):
    section = section_cone(quadric_fan, (quadric_divisor,), positive=True)
    w = chart_witness(quadric_fan, section, frozenset({0}))
    assert w is not None
    (n,) = w["degree"]
    u = w["monomial"]
    assert n > 0
    pat = zero_pattern(quadric_fan, quadric_divisor, u, n)
    assert pat[0] == 0 and all(x > 0 for i, x in enumerate(pat) if i != 0)


def test_chart_witness_infeasible_with_weight_rows(quadric_fan,
                                                   quadric_divisor):
    # asking the section to be invariant under the rank-2 subtorus kills
    # the rho2 and rho4 charts
    section = section_cone(quadric_fan, (quadric_divisor,), [(2, 1, 1), (0, 2, 1)],
                           [(0, 0)], positive=True)
    for rho in (1, 3):
        assert chart_witness(quadric_fan, section, frozenset({rho})) is None
    assert chart_witness(quadric_fan, section, frozenset({0})) is not None


def _random_section_data(rng, fan):
    """The arguments of `section_cone` for a random chart system (a basis
    of k = 1 or 2 divisors, up to two action columns, one shift per
    divisor, and s >= 0 for some single divisors), and the degree rows,
    weight rows and shared forms of the same system for
    `chart_witness_by_system`."""
    n, k = fan.ambient_rank, rng.randint(1, 2)
    basis = tuple(ToricDivisor(tuple(rng.randint(-3, 3) for _ in fan.rays))
                  for _ in range(k))
    columns = [tuple(rng.randint(-2, 2) for _ in range(n))
               for _ in range(rng.randint(0, 2))]
    shifts = [tuple(rng.randint(-2, 2) for _ in columns) for _ in basis]
    positive = k == 1 and rng.random() < 0.5
    rows = ([tuple(d.coefficients[j] for d in basis) for j in range(len(fan.rays))],
            [(col, tuple(s[t] for s in shifts)) for t, col in enumerate(columns)],
            [(1,)] if positive else [])
    return (basis, columns, shifts, positive), rows


@pytest.mark.parametrize("seed", range(300))
def test_chart_witness_matches_face_system(seed):
    # the witness read off the section cone's faces is the one the face's
    # own system gives by conversion, None included
    rng = random.Random(9100 + seed)
    fan = random_fan(rng)
    args, rows = _random_section_data(rng, fan)
    section = section_cone(fan, *args)
    for key in fan.face_keys():
        assert chart_witness(fan, section, key) == chart_witness_by_system(
            fan, key, *rows), sorted(key)


@pytest.mark.parametrize("seed", range(100))
def test_largest_first_keeps_the_maximal_passing_faces(seed):
    # the walk skips faces under a passing face, yet returns exactly the
    # maximal faces of the closure of every passing face, each with its
    # own test result
    rng = random.Random(9500 + seed)
    fan = random_fan(rng)
    section = section_cone(fan, *_random_section_data(rng, fan)[0])
    every = {key: chart_witness(fan, section, key) for key in fan.face_keys()}
    passing = [key for key, wit in every.items() if wit is not None]
    walked = largest_first(fan, lambda key: every[key])
    assert set(walked) == set(SubfanLocus.closure(fan, passing).maximal_keys())
    assert all(walked[key] == every[key] for key in walked)


def test_ample_locus_quadric(quadric_fan, quadric_divisor):
    loc = ample_locus(DivisorGroup((quadric_divisor,)), quadric_fan)
    # all proper faces admit a positive-degree chart section; the full cone
    # fails Cartier
    assert frozenset({0, 1, 2, 3}) not in loc
    assert frozenset({0, 3}) in loc
    assert frozenset() in loc


def test_ample_locus_empty_group_is_affine_charts(plane_fan):
    # rank-0 group: a chart witness is just a monomial chart function
    loc = ample_locus(DivisorGroup(()), plane_fan)
    assert loc == whole_locus(plane_fan)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_ample_subset_of_cartier(seed):
    rng = random.Random(seed)
    fan = random_fan(rng)
    group = DivisorGroup((_nonzero_divisor(rng, fan),))
    amp = ample_locus(group, fan)
    cart = cartier_locus(group, fan)
    assert amp.faces <= cart.faces
    for k in amp.faces:
        for sub in fan.all_keys_under(k):
            assert sub in amp


def test_divisor_group_rejects_dependent_basis():
    with pytest.raises(ValueError):
        DivisorGroup((ToricDivisor((1, 2)), ToricDivisor((2, 4))))
