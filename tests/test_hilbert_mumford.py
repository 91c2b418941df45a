"""Limits of supports, destabilizing subgroups, Hilbert bases, and
the ambient cross-validation of toric semistability."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricgit.actions import Linearization, SubtorusAction, semistable_divisor
from toricgit import hilbert_mumford as hm
from toricgit.cones import Cone
from toricgit.fans import FanError, ToricDivisor, validate_fan
from toricgit.hilbert_mumford import (
    AmbientModel,
    HilbertBasisTooLarge,
    LinearAction,
    ambient_model,
    ambient_semistable,
    cross_validate,
    destabilize,
    hilbert_basis,
    limit,
)
from toricgit.intlinalg import vdot
from toricgit.oracle import SearchBounds, destabilize_boxed, enumerate_witnesses

from genutil import (
    ambient_semistable_by_face,
    destabilize_by_candidate,
    fraction_rank,
    hilbert_basis_by_pairs,
    random_action,
    random_affine_fan,
    random_divisor,
    random_linearization,
)


def _lin0(d):
    return Linearization.canonical(1, d)


# --- limits -------------------------------------------------------------

def test_limit_basic():
    act = LinearAction(((1,), (-1,)))
    p = frozenset({0, 1})
    assert limit((1,), p, act) is None  # negative pairing on coord 1
    assert limit((0,), p, act) == p     # fixed
    q = frozenset({0})
    assert limit((1,), q, act) == frozenset()
    assert limit((-1,), q, act) is None


def test_limit_mixed_weights():
    act = LinearAction(((1, 0), (0, 1), (1, -1)))
    p = frozenset({0, 2})
    got = limit((1, 1), p, act)
    assert got == frozenset({2})  # weight (1,-1) pairs to 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_limit_scale_invariance(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    n = rng.randint(1, 5)
    act = LinearAction(tuple(tuple(rng.randint(-3, 3) for _ in range(d))
                             for _ in range(n)))
    p = frozenset(i for i in range(n) if rng.random() < 0.6)
    lam = tuple(rng.randint(-3, 3) for _ in range(d))
    l1 = limit(lam, p, act)
    l2 = limit(tuple(3 * x for x in lam), p, act)
    assert l1 == l2
    if l1 is not None:
        assert l1 <= p
        # limits are idempotent
        assert limit(lam, l1, act) == l1


# --- destabilize ----------------------------------------------------------

def test_destabilize_finds_witness():
    act = LinearAction(((1,), (-1,)))
    p = frozenset({0})
    lam = destabilize(p, lambda q: not q, act)
    assert lam is not None
    assert limit(lam, p, act) == frozenset()


def test_destabilize_infeasible():
    act = LinearAction(((1,), (-1,)))
    p = frozenset({0, 1})
    # cannot kill both coordinates: weights are opposite
    assert destabilize(p, lambda q: not q, act) is None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_destabilize_matches_box_search(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 2)
    n = rng.randint(1, 4)
    act = LinearAction(tuple(tuple(rng.randint(-2, 2) for _ in range(d))
                             for _ in range(n)))
    p = frozenset(i for i in range(n) if rng.random() < 0.7)
    targets = set()
    for i in range(n + 1):
        t = frozenset(j for j in p if rng.random() < 0.5)
        targets.add(t)
    lam = destabilize(p, lambda q: q in targets, act)
    boxed = destabilize_boxed(p, act.weights, targets, 4)
    if lam is not None:
        lim = limit(lam, p, act)
        assert lim is not None and lim in targets
    else:
        assert boxed is None


def test_destabilize_converts_once_and_matches_per_candidate_systems(monkeypatch):
    # one conversion, of the cone of the supported weights, made at the
    # first candidate the target accepts and none when it accepts none;
    # each candidate's answer is the face's relative-interior point, which
    # is what the per-candidate strict system returns
    from toricgit import cones
    calls = []
    real = cones.double_description
    rng = random.Random(4242)
    found = unconverted = 0
    for _ in range(400):
        d, n = rng.randint(1, 3), rng.randint(1, 6)
        act = LinearAction(tuple(tuple(rng.randint(-2, 2) for _ in range(d))
                                 for _ in range(n)))
        p = frozenset(i for i in range(n) if rng.random() < 0.7)
        targets = {frozenset(i for i in p if rng.random() < 0.4)
                   for _ in range(rng.randint(0, 4))}
        with monkeypatch.context() as m:
            m.setattr(cones, "double_description",
                      lambda *a, **k: calls.append(a) or real(*a, **k))
            lam = destabilize(p, lambda q: q in targets, act)
        # every target is a support under p's, so one is a candidate
        assert len(calls) == (1 if targets else 0)
        calls.clear()
        assert lam == destabilize_by_candidate(p, lambda q: q in targets, act)
        found += lam is not None
        unconverted += not targets
    assert 100 < found < 300 and unconverted > 40


# --- Hilbert bases ---------------------------------------------------------

def test_hilbert_basis_quadrant():
    c = Cone.from_generators(2, [(1, 0), (0, 1)])
    assert hilbert_basis(c) == [(0, 1), (1, 0)]


def test_hilbert_basis_singular_cone():
    # cone over (1,0),(1,2): index-2 quotient singularity needs (1,1)
    c = Cone.from_generators(2, [(1, 0), (1, 2)])
    assert hilbert_basis(c) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_generates():
    c = Cone.from_generators(2, [(2, -1), (-1, 2)])
    hb = hilbert_basis(c)
    # the extreme generators alone do not generate; the interior axis
    # points are irreducible too
    assert (1, 0) in hb and (0, 1) in hb
    # every small lattice point of the cone is an N-combination of hb:
    # verified by greedy reduction
    for x in range(-4, 5):
        for y in range(-4, 5):
            p = (x, y)
            if not c.contains_point(p):
                continue
            cur = p
            progress = True
            while any(v != 0 for v in cur) and progress:
                progress = False
                for h in hb:
                    nxt = tuple(a - b for a, b in zip(cur, h))
                    if c.contains_point(nxt):
                        cur = nxt
                        progress = True
                        break
            assert all(v == 0 for v in cur), (p, hb)


def test_hilbert_basis_rejects_non_pointed():
    with pytest.raises(ValueError):
        hilbert_basis(Cone.from_generators(2, [(1, 0), (-1, 0)]))


def test_hilbert_basis_guard():
    c = Cone.from_generators(2, [(1, 0), (1, 1000)])
    with pytest.raises(HilbertBasisTooLarge):
        hilbert_basis(c, max_points=100)


def test_hilbert_basis_budget_boundary():
    # the box of (1, 0) and (1, 4) is [0, 2] x [0, 4]: 15 points
    c = Cone.from_generators(2, [(1, 0), (1, 4)])
    assert hilbert_basis(c, max_points=15) == [(1, k) for k in range(5)]
    with pytest.raises(HilbertBasisTooLarge,
                       match="candidate box has more than 14 points"):
        hilbert_basis(c, max_points=14)


def _cone_inputs(rank):
    row = st.tuples(*[st.integers(-2, 2)] * rank)
    return st.tuples(st.just(rank), st.sampled_from(("generators", "inequalities")),
                     st.lists(row, min_size=1, max_size=rank + 1),
                     st.lists(row, max_size=rank - 1))


def _outcome(f, c):
    try:
        return f(c, 300)
    except (ValueError, HilbertBasisTooLarge) as exc:
        return type(exc), str(exc)


@st.composite
def _simplicial_cones(draw):
    """Generators of a simplicial cone: k lower-triangular rows with |det|
    up to about 50, optionally embedded in rank k + 1 by an extra coordinate
    c * x_1 (so not full-dimensional), under a signed permutation of the
    coordinates."""
    k = draw(st.integers(2, 3))
    diag = [1] + [draw(st.integers(1, 50 if k == 2 else 7)) for _ in range(k - 1)]
    gens = [[draw(st.integers(-2, 2)) if j < i else diag[i] if j == i else 0
             for j in range(k)] for i in range(k)]
    scale = draw(st.integers(-2, 2))
    if scale:
        gens = [g + [scale * g[0]] for g in gens]
    order = draw(st.permutations(range(len(gens[0]))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(order),
                          max_size=len(order)))
    return (len(order), "generators",
            [tuple(s * g[j] for s, j in zip(signs, order)) for g in gens], [])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(2, 4).flatmap(_cone_inputs), _simplicial_cones()))
# (1, 0), (1, 1) and (1, 2) all have degree 2 (facet normals (0, 1), (2, -1))
@example((2, "generators", [(1, 0), (1, 2)], []))
# single rays, and a pointed cone that is not full-dimensional
@example((3, "generators", [(1, -2, 0)], []))
@example((2, "inequalities", [(1, 1)], [(1, -1)]))
@example((3, "generators", [(1, 0, 1), (1, 2, 1)], []))
@example((4, "inequalities", [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0)],
          [(0, 0, 0, 1)]))
# simplicial, not full-dimensional, on a span whose lattice basis has an
# HNF pivot entry above 1: (0, 1, 1, 1) and (1, 0, 2, -1) span it
@example((4, "generators", [(1, 2, 4, 1), (1, -1, 1, -2)], []))
@example((3, "generators", [(1, 1, 0), (1, -1, 2), (2, 0, 2)], []))
# non-simplicial: the square cone of the quadric, a pentagonal cone, and
# a rank-4 cone over a square pyramid
@example((3, "generators", [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)], []))
@example((3, "generators", [(1, 0, 1), (0, 1, 1), (-1, 1, 2), (-1, -1, 2),
                            (1, -1, 1)], []))
@example((4, "generators", [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
                            (1, 1, -1, 1), (0, 0, 0, 1)], []))
# |det| 49 and 50 in rank 2, 30 in rank 3
@example((2, "generators", [(3, -1), (1, 16)], []))
@example((2, "generators", [(1, 0), (1, 50)], []))
@example((3, "generators", [(1, 0, 0), (0, 1, 0), (1, 1, 30)], []))
def test_hilbert_basis_matches_pairwise_reduction(inputs):
    """The parallelepipeds of a pulling triangulation, reduced by degree,
    give exactly the box candidates that no other candidate reduces, and
    the same errors, on random cones of ranks 2-4 given either way:
    simplicial or not, full-dimensional or not."""
    rank, kind, rows, equalities = inputs
    if kind == "generators":
        c = Cone.from_generators(rank, rows)
    else:
        c = Cone.from_inequalities(rank, rows, equalities)
    assert _outcome(hilbert_basis, c) == _outcome(hilbert_basis_by_pairs, c)


def test_hilbert_basis_does_not_walk_the_box(monkeypatch):
    """A unimodular cone has one point in its parallelepiped, the origin,
    so its basis is its generators, found without a membership test of
    the 5,408 box points."""
    c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (50, 50, 1)])
    tests = []
    original = Cone.contains_point
    monkeypatch.setattr(Cone, "contains_point",
                        lambda self, x: tests.append(x) or original(self, x))
    assert hilbert_basis(c, max_points=5408) == sorted(c.generators)
    assert tests == []
    with pytest.raises(HilbertBasisTooLarge,
                       match="candidate box has more than 5407 points"):
        hilbert_basis(c, max_points=5407)


# --- ambient model / cross-validation --------------------------------------

def test_ambient_model_intro(plane_fan, hyperbolic_action, div_z):
    model = ambient_model(plane_fan, hyperbolic_action, div_z, _lin0(1))
    assert len(model.basis) == 3
    # degree-0 coordinates are the chart functions z*w-type invariants of
    # the section ring; every weight carries its degree in the last slot
    for h, w in zip(model.basis, model.action.weights):
        assert w[-1] == h[-1]
    whole = model.patterns[frozenset()]
    assert whole == frozenset(range(len(model.basis)))


def test_ambient_semistable_examples(plane_fan, hyperbolic_action, div_z):
    model = ambient_model(plane_fan, hyperbolic_action, div_z, _lin0(1))
    assert ambient_semistable(model.patterns[frozenset()], model.action)
    assert not ambient_semistable(frozenset(), model.action)


def _linear_actions():
    """Random actions with d >= 1 weight slots, the last one the degree;
    zero weights and actions with no positive degree are drawn often."""
    weight = st.integers(1, 3).flatmap(lambda d: st.lists(
        st.one_of(st.just((0,) * d), st.tuples(*[st.integers(-2, 2)] * d)),
        max_size=6))
    return weight.map(lambda ws: LinearAction(tuple(ws)))


@settings(max_examples=200, deadline=None)
@given(_linear_actions(), st.data())
# no positive-degree invariant: every degree is 0 or negative
@example(LinearAction(((1, 0), (-1, 0), (0, -1))), None)
# a zero weight is an invariant of degree 0; (0, 1) one of degree 1
@example(LinearAction(((0, 0), (0, 1), (1, 1), (-1, 1))), None)
def test_ambient_semistable_matches_per_face_systems(act, data):
    """The positive-degree rays of the one invariant cone decide every
    support, the empty one included, as the per-support feasibility
    systems do."""
    supports = [frozenset(i for i in range(act.n) if mask >> i & 1)
                for mask in range(1 << act.n)]
    if data is not None:
        supports = data.draw(st.lists(st.sampled_from(supports), max_size=8))
    for p in supports:
        assert ambient_semistable(p, act) == ambient_semistable_by_face(p, act)


def test_ambient_semistable_converts_once_per_model(
        monkeypatch, quadric_fan, quadric_action, quadric_divisor):
    """cross_validate decides every face of the quadric's cone from one
    conversion of the invariant cone."""
    calls = []
    original = hm.double_description
    monkeypatch.setattr(hm, "double_description",
                        lambda *a: calls.append(a) or original(*a))
    cv = cross_validate(quadric_fan, quadric_action, quadric_divisor,
                        _lin0(2))
    assert len(cv.per_face) == len(quadric_fan.face_keys()) == 10
    assert len(calls) == 1
    assert calls[0][0] == len(cv.model.basis) == 9


def test_ambient_model_takes_section_facets_from_its_forms(monkeypatch):
    """A pointed section cone takes its facets from its forms, with no
    second conversion, and they are the facets a conversion gives.  A fan
    ray outside the cone could leave the section cone pointed but not
    full-dimensional, and validate_fan rejects such a fan."""
    pointed, converted = [], []
    real_basis, real_convert = hm.hilbert_basis, Cone._convert
    monkeypatch.setattr(hm, "hilbert_basis",
                        lambda c, *a: (c.lineality_basis or pointed.append(c))
                        or real_basis(c, *a))
    monkeypatch.setattr(Cone, "_convert",
                        lambda c: converted.append(c) or real_convert(c))
    for seed in range(300):
        rng = random.Random(seed)
        fan = random_affine_fan(rng, rng.randint(1, 3))
        act = random_action(rng, fan)
        try:
            ambient_model(fan, act, random_divisor(rng, fan),
                          random_linearization(rng, act.d), max_points=2000)
        except (ValueError, HilbertBasisTooLarge):
            pass
    assert len(pointed) >= 100
    assert not set(map(id, pointed)) & set(map(id, converted))
    # u >= 0 from the cone's ray and -u >= 0 from the ray outside it would
    # make the section cone the ray s >= 0 on the line u = 0
    with pytest.raises(FanError) as e:
        validate_fan(1, [(1,), (-1,)], [[0]])
    assert e.value.kind == "UnusedRay"
    for c in pointed:
        fresh = Cone(c.ambient_rank, c.generators, c.lineality_basis)
        assert (c.facet_normals, c.span_equalities) == fresh._convert()


def test_model_patterns_key_exactly_the_faces_in_face_order():
    # one support per face of the fan, in the fan's (size, sorted key)
    # order; the whole chart's is every coordinate, and supports shrink
    # as faces grow
    rng = random.Random(7300)
    built = 0
    for _ in range(60):
        fan = random_affine_fan(rng, rng.randint(1, 3))
        act = random_action(rng, fan)
        try:
            model = ambient_model(fan, act, random_divisor(rng, fan),
                                  random_linearization(rng, act.d), max_points=20000)
        except (ValueError, HilbertBasisTooLarge):  # not pointed, or over budget
            continue
        built += 1
        assert list(model.patterns) == list(fan.face_keys())
        assert model.patterns[frozenset()] == frozenset(range(len(model.basis)))
        for key, support in model.patterns.items():
            assert all(model.patterns[k] >= support for k in fan.all_keys_under(key))
    assert built >= 30


def test_cross_validate_intro(plane_fan, hyperbolic_action, div_z):
    cv = cross_validate(plane_fan, hyperbolic_action, div_z, _lin0(1))
    assert cv.agrees
    d = {k: (t, a) for k, t, a in cv.per_face}
    assert d[frozenset()] == (True, True)
    assert d[frozenset({1})] == (True, True)
    assert d[frozenset({0})] == (False, False)
    assert d[frozenset({0, 1})] == (False, False)


def test_cross_validate_quadric(quadric_fan, quadric_action, quadric_divisor):
    cv = cross_validate(quadric_fan, quadric_action, quadric_divisor,
                        _lin0(2))
    assert cv.agrees
    assert len(cv.model.basis) == 9
    semis = {k for k, t, _ in cv.per_face if t}
    assert semis == {frozenset(), frozenset({0}), frozenset({2})}


def _q_cartier(fan, D) -> bool:
    """Some m in M_Q has <m, v_rho> = -a_rho at every ray."""
    rays = list(fan.rays)
    return fraction_rank(rays) == fraction_rank(
        [tuple(v) + (a,) for v, a in zip(rays, D.coefficients)])


def test_cross_validation_needs_q_cartier_divisor():
    """cross_validate compares ambient Hilbert-Mumford semistability with
    the toric locus, which only counts sections s whose set X_s is affine.
    With D Q-Cartier on the affine chart every X_s is a principal open
    set, so the two must agree.  Otherwise an invariant section whose zero
    rays are not a face makes points ambient-semistable that the toric
    locus rightly rejects; the engine's locus then still matches the
    oracle's.  The instances are those of acceptance criterion 8c, at a
    Hilbert-basis budget of 2000."""
    cartier = 0
    for seed in range(12345, 12345 + 120):
        rng = random.Random(seed)
        rank = rng.choice((2, 3))
        fan = random_affine_fan(rng, rank)
        act = random_action(rng, fan)
        D = random_divisor(rng, fan, box=2)
        lin = random_linearization(rng, act.d)
        if fan.face_cone(fan.maximal_keys[0]).dim != rank or act.d == 0:
            continue
        try:
            cv = cross_validate(fan, act, D, lin, max_points=2000)
        except HilbertBasisTooLarge:
            continue
        if _q_cartier(fan, D):
            cartier += 1
            assert cv.agrees, seed
        elif not cv.agrees:
            # seed 12355: the section u = (1, 0, -1), n = 1 vanishes on
            # rays 1, 2, 3, which are not a face
            toric = semistable_divisor(D, lin, act, fan).locus.faces
            oracle = enumerate_witnesses(
                list(fan.rays), list(fan.face_keys()), [D.coefficients],
                list(lin.shifts), act.columns, SearchBounds())
            assert toric == oracle, seed
    assert cartier > 0
