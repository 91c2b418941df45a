"""Convex cone engine: double description, duality, faces, strict
feasibility."""

import collections
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricgit.cones import (
    Cone,
    FeasibilitySystem,
    double_description,
    dual,
    faces,
    feasible_strict,
    image,
    intersect,
    product_feasible_strict,
    relative_interior_point,
)
from toricgit.intlinalg import (
    IntMatrix,
    LatticeMap,
    Sublattice,
    hermite_normal_form,
    vdot,
    vneg,
    vscale,
)
from toricgit.oracle import feasible_strict_boxed
from toricgit import cones

from genutil import (
    cone_by_two_conversions,
    contains_cone,
    double_description_by_projection,
    fraction_rank,
    interior_contains,
    lattice_saturated,
    random_primitive_vector,
    random_unimodular,
    supporting_normal,
)

small_vecs = st.lists(st.integers(-4, 4), min_size=2, max_size=3)


def _cone_strategy(dim):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        min_size=1, max_size=5,
    ).map(lambda gens: Cone.from_generators(dim, [tuple(g) for g in gens]))


def test_dd_quadrant():
    rays, lin = double_description(2, [(1, 0), (0, 1)], [])
    assert list(lin) == []
    assert set(rays) == {(1, 0), (0, 1)}


def test_dd_halfplane_has_lineality():
    rays, lin = double_description(2, [(1, 0)], [])
    assert len(lin) == 1
    assert lin[0] in ((0, 1), (0, -1))
    assert len(rays) == 1 and rays[0][0] > 0


def test_dd_no_constraints_is_full_space():
    rays, lin = double_description(2, [], [])
    assert list(rays) == []
    assert len(lin) == 2


def test_quadric_cone_descriptions():
    sigma = Cone.from_generators(
        3, [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert sigma.dim == 3
    assert sigma.lineality_rank == 0
    assert set(sigma.facet_normals) == {(0, 0, 1), (0, 1, 0), (1, 0, 0),
                                        (1, 1, -1)}
    sd = dual(sigma)
    assert set(sd.generators) == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)}
    assert dual(sd) == sigma


def test_dual_of_zero_and_full():
    assert dual(Cone(3, (), ())) == Cone.from_inequalities(3, ())
    assert dual(Cone.from_inequalities(3, ())) == Cone(3, (), ())


@settings(max_examples=120, deadline=None)
@given(_cone_strategy(3))
def test_dual_involution(c):
    assert dual(dual(c)) == c


@settings(max_examples=120, deadline=None)
@given(_cone_strategy(3))
def test_dual_pairing_nonnegative(c):
    d = dual(c)
    for g in c.generators + c.lineality_basis:
        for h in d.generators:
            assert vdot(g, h) >= 0
        for l in d.lineality_basis:
            assert vdot(g, l) == 0


def test_membership():
    c = Cone.from_generators(2, [(1, 0), (1, 2)])
    assert c.contains_point((2, 2))
    assert c.contains_point((1, 0))
    assert not c.contains_point((0, 1))
    assert interior_contains(c, (2, 2))
    assert not interior_contains(c, (1, 0))
    assert not interior_contains(c, (0, 0))


def test_faces_of_quadrant():
    c = Cone.from_generators(2, [(1, 0), (0, 1)])
    fs = faces(c)
    dims = sorted(f.dim for f in fs)
    assert dims == [0, 1, 1, 2]
    for f in fs:
        assert contains_cone(c, f)


def test_faces_of_quadric_cone():
    sigma = Cone.from_generators(
        3, [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)])
    fs = faces(sigma)
    # 1 apex + 4 rays + 4 facets + cone itself
    assert len(fs) == 10
    assert sorted(f.dim for f in fs) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


@settings(max_examples=60, deadline=None)
@given(_cone_strategy(3))
def test_faces_match_facet_cuts(c):
    # reference: close {c} under cutting with facet hyperplanes, building
    # every cut from its inequalities
    seen = {c}
    queue = [c]
    while queue:
        f = queue.pop()
        for u in c.facet_normals:
            cut = Cone.from_inequalities(3, list(f.facet_normals),
                                         list(f.span_equalities) + [u])
            if cut not in seen:
                seen.add(cut)
                queue.append(cut)
    got = faces(c)
    assert set(got) == seen and len(got) == len(seen)
    assert [f.dim for f in got] == sorted(f.dim for f in got)
    for f in got:
        ref = Cone.from_generators(3, f.generators, f.lineality_basis)
        assert (f.facet_normals, f.span_equalities) == \
            (ref.facet_normals, ref.span_equalities)


@settings(max_examples=60, deadline=None)
@given(_cone_strategy(2))
def test_supporting_normal_characterizes_faces(c):
    for f in faces(c):
        u = supporting_normal(c, f)
        assert all(vdot(u, g) >= 0 for g in c.generators)
        assert all(vdot(u, g) == 0 for g in f.generators)
        assert all(vdot(u, l) == 0 for l in f.lineality_basis)
        # u vanishes exactly on f among the generators of c (the lineality
        # part is always in the zero set)
        lin = [l for l in c.lineality_basis]
        cut = Cone.from_generators(
            c.ambient_rank,
            [g for g in c.generators if vdot(u, g) == 0]
            + lin + [tuple(-x for x in l) for l in lin],
        )
        assert cut == f or f.dim == c.lineality_rank


@settings(max_examples=120, deadline=None)
@given(_cone_strategy(3))
def test_relative_interior_point_is_interior(c):
    p = relative_interior_point(c)
    assert c.contains_point(p)
    for n in c.facet_normals:
        assert vdot(n, p) > 0
    for e in c.span_equalities:
        assert vdot(e, p) == 0


@settings(max_examples=200, deadline=None)
@given(_cone_strategy(3), st.lists(st.booleans(), min_size=5, max_size=5),
       st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5), max_size=2))
def test_relative_interior_point_of_a_face_is_its_strict_witness(c, picks, mixes):
    # the facet normals picked as tight cut out a face of c; its own system
    # (those and the span equalities = 0, the other normals and nonnegative
    # mixes of all normals > 0) is solved by the generators' sum on the face
    # iff it is solvable, and feasible_strict returns that same sum
    tight = [u for u, pick in zip(c.facet_normals, picks) if pick]
    strict = [u for u, pick in zip(c.facet_normals, picks) if not pick]
    strict += [tuple(map(sum, zip((0,) * 3, *(vscale(a, u) for a, u in zip(mix, c.facet_normals)))))
               for mix in mixes]
    p = relative_interior_point(c, tight)
    face = FeasibilitySystem(3, tuple(tight) + c.span_equalities, (), tuple(strict))
    assert (p if all(vdot(s, p) > 0 for s in strict) else None) == feasible_strict(face)


def test_intersect_examples():
    q = Cone.from_generators(2, [(1, 0), (0, 1)])
    h = Cone.from_generators(2, [(1, 1), (-1, 1)])
    got = intersect(q, h)
    assert got == Cone.from_generators(2, [(0, 1), (1, 1)])
    assert intersect(q, Cone(2, (), ())) == Cone(2, (), ())
    assert intersect(q, Cone.from_inequalities(2, ())) == q


@settings(max_examples=80, deadline=None)
@given(_cone_strategy(2), _cone_strategy(2))
def test_intersect_is_glb(c1, c2):
    m = intersect(c1, c2)
    assert contains_cone(c1, m) and contains_cone(c2, m)
    for g in m.generators:
        assert c1.contains_point(g) and c2.contains_point(g)


def _cut_start(rng: random.Random, n: int, kind: int) -> Cone:
    """A start cone of one of five kinds: pointed, with lineality, not
    full-dimensional, the zero cone, the whole space."""
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(n))
    gens = [vec() for _ in range(rng.randint(1, 5))]
    if kind == 0:
        return Cone.from_generators(n, gens)
    if kind == 1:
        return Cone.from_generators(n, gens, [vec()])
    if kind == 2:
        U = random_unimodular(rng, n)
        flat = [g[:-1] + (0,) for g in gens]
        return Cone.from_generators(n, [tuple(vdot(row, g) for row in U) for g in flat])
    return Cone(n, (), ()) if kind == 3 else Cone.from_inequalities(n, ())


def test_cut_is_the_conversion_of_all_constraints():
    """A start cone cut by new rows is the cone that one conversion of its
    facet description and the rows together gives, whatever the start:
    pointed, with lineality, not full-dimensional, zero or everything, its
    facets converted before the cut or by it; and whatever the rows: none,
    zero rows, a start facet again (scaled), or rows that empty the cone."""
    kinds = collections.Counter()
    for seed in range(800):
        rng = random.Random(f"cut/{seed}")
        n, kind = rng.randint(1, 4), seed % 5
        start = _cut_start(rng, n, kind)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        if seed % 3 == 0:
            ineqs.append((0,) * n)
            eqs.append((0,) * n)
        if seed % 4 == 1 and start.facet_normals:
            ineqs.append(vscale(rng.choice((1, 2)), rng.choice(start.facet_normals)))
        if seed % 7 == 2:
            eqs += [tuple(int(i == j) for j in range(n)) for i in range(n)]
        elif seed % 7 == 3:
            ineqs += [vneg(u) for u in start.facet_normals]
        if seed % 2:
            # a copy whose facets the cut itself converts
            start = Cone(n, start.generators, start.lineality_basis)
        got = start.cut(ineqs, eqs)
        want = Cone.from_inequalities(n, list(start.facet_normals) + ineqs,
                                      list(start.span_equalities) + eqs)
        assert (got.generators, got.lineality_basis) == (want.generators, want.lineality_basis)
        assert (got.facet_normals, got.span_equalities, got.dim) == \
            (want.facet_normals, want.span_equalities, want.dim)
        kinds[kind, got.is_zero()] += 1
    # every kind of start is cut, and each but the zero cone also to the apex and past it
    assert all(kinds[k, False] for k in (0, 1, 2, 4)) and all(kinds[k, True] for k in range(5))


def test_equality_is_the_pair_of_opposite_inequalities():
    """An equality, taken in one pass, cuts the cone that its two
    inequalities a >= 0 and -a >= 0 cut on the kernel's inequality path,
    from the whole space or from a start cone of each kind: with
    lineality, not full-dimensional, the zero cone.  The equalities
    include a start facet (which must still be enforced), its negation,
    one given twice, a zero row, one that empties the cone down to its
    lineality and one that cuts the lineality.  The reference's facets
    come from inequalities alone too."""
    edits = collections.Counter()
    for seed in range(600):
        rng = random.Random(f"equality/{seed}")
        n, kind = rng.randint(1, 4), seed % 5
        start = _cut_start(rng, n, kind)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        picks = {
            "facet": list(start.facet_normals[:1]),
            "negated facet": [vneg(u) for u in start.facet_normals[-1:]],
            "twice": eqs[:1],
            "zero row": [(0,) * n],
            "empties": [tuple(map(sum, zip(*start.facet_normals)))] if start.facet_normals else [],
            "cuts lineality": list(start.lineality_basis[:1]),
        }
        for name, rows in picks.items():
            if rows and rng.random() < 0.4:
                eqs += rows
                edits[name] += 1
        pairs = ineqs + eqs + [vneg(e) for e in eqs]
        assert double_description(n, ineqs, eqs) == double_description(n, pairs)
        if kind == 4:
            got, want = Cone.from_inequalities(n, ineqs, eqs), Cone.from_inequalities(n, pairs)
        else:
            got, want = start.cut(ineqs, eqs), start.cut(pairs)
        assert (got.generators, got.lineality_basis) == (want.generators, want.lineality_basis)
        lin = list(want.lineality_basis)
        normals, dual_lin = double_description(
            n, list(want.generators) + lin + [vneg(l) for l in lin])
        span = tuple(hermite_normal_form(dual_lin)) if dual_lin else ()
        assert (got.facet_normals, got.span_equalities, got.dim) == \
            (tuple(normals), span, n - len(span))
        edits["apex", got.generators == ()] += 1
    assert all(edits[name] > 50 for name in picks), edits
    assert edits["apex", True] > 100 and edits["apex", False] > 100, edits


def test_cut_of_a_converted_cone_is_one_conversion(monkeypatch):
    # the cut continues from the start, so a start whose facets are known
    # costs one double_description call, which starts there
    c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)])
    ray = Cone.from_generators(3, [(1, 1, 1)])
    calls = []
    real = cones.double_description
    monkeypatch.setattr(cones, "double_description",
                        lambda *a, **kw: calls.append(kw.get("start")) or real(*a, **kw))
    # the half x >= y: the rays on it, and the midpoints of the edges it crosses
    assert c.cut([(1, -1, 0)]).generators == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 2))
    assert intersect(c, ray) == ray
    assert calls == [c, c]


def test_image_projection():
    c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)])
    proj = LatticeMap(IntMatrix.from_rows([(1, 0, 0), (0, 1, 0)], 3), 3, 2)
    assert image(c, proj) == Cone.from_generators(2, [(1, 0), (0, 1)])


def test_image_collapse_gives_lineality():
    c = Cone.from_generators(2, [(1, 1), (1, -1)])
    f = LatticeMap(IntMatrix.from_rows([(0, 1)], 2), 2, 1)
    got = image(c, f)
    assert got == Cone.from_inequalities(1, ())


@settings(max_examples=80, deadline=None)
@given(_cone_strategy(3))
def test_image_contains_mapped_generators(c):
    f = LatticeMap(IntMatrix.from_rows([(1, 1, 0), (0, 1, -1)], 3), 3, 2)
    img = image(c, f)
    for g in c.generators:
        assert img.contains_point(f.apply(g))
    for l in c.lineality_basis:
        y = f.apply(l)
        assert img.contains_point(y)
        assert img.contains_point(tuple(-x for x in y))


def test_feasible_strict_examples():
    sys = FeasibilitySystem(2, strict=((1, 0), (0, 1)))
    w = feasible_strict(sys)
    assert w is not None and w[0] > 0 and w[1] > 0
    # x > 0 and -x > 0: infeasible
    assert feasible_strict(FeasibilitySystem(1, strict=((1,), (-1,)))) is None
    # x >= 0, -x >= 0, x strict: infeasible (strict form vanishes on cone)
    assert feasible_strict(
        FeasibilitySystem(1, weak=((1,), (-1,)), strict=((1,),))) is None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
             min_size=0, max_size=2),
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
             min_size=0, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
             min_size=0, max_size=3),
)
def test_feasible_strict_matches_box_search(eqs, weak, strict):
    eqs = tuple(tuple(e) for e in eqs)
    weak = tuple(tuple(w) for w in weak)
    strict = tuple(tuple(s) for s in strict)
    sys = FeasibilitySystem(3, eqs, weak, strict)
    w = feasible_strict(sys)
    boxed = feasible_strict_boxed(3, eqs, weak, strict, 5)
    if w is not None:
        assert sys.satisfied_by(w)
        # any witness scales; the box search must also succeed eventually,
        # but the box may be too small, so only check the engine's claim
    else:
        assert boxed is None


def test_product_feasible_strict_matches_flat_system():
    # two blocks of one variable each, one shared variable
    b0 = FeasibilitySystem(2, weak=((1, 0),), strict=((1, 1),))
    b1 = FeasibilitySystem(2, equalities=((1, -1),), weak=((1, 0),))
    w = product_feasible_strict(1, [b0, b1], [1, 1], shared_strict=((1,),))
    assert w is not None
    x0, x1, m = w
    assert x0 >= 0 and x0 + m > 0 and x1 == m and x1 >= 0 and m > 0


def test_product_feasible_strict_infeasible():
    # block forces shared var negative, shared strict forces it positive
    b0 = FeasibilitySystem(2, weak=((0, -1),))
    assert product_feasible_strict(1, [b0], [1], shared_strict=((1,),)) is None


def test_product_feasible_strict_no_blocks():
    assert product_feasible_strict(1, [], [], shared_strict=((1,),)) == (1,)
    assert product_feasible_strict(1, [], [], shared_strict=((1,), (-1,))) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_product_feasible_strict_agrees_with_direct(seed):
    """Random block systems: the block solver and the flat one-shot solver
    must agree on feasibility, and witnesses must verify."""
    rng = random.Random(seed)
    shared = rng.randint(1, 2)
    nb = rng.randint(1, 3)
    dims = [rng.randint(1, 2) for _ in range(nb)]

    def forms(n, d):
        return tuple(tuple(rng.randint(-2, 2) for _ in range(d))
                     for _ in range(n))

    blocks = [FeasibilitySystem(bd + shared,
                                forms(rng.randint(0, 1), bd + shared),
                                forms(rng.randint(0, 2), bd + shared),
                                forms(rng.randint(0, 2), bd + shared))
              for bd in dims]
    sstrict = forms(rng.randint(0, 2), shared)
    sweak = forms(rng.randint(0, 1), shared)
    got = product_feasible_strict(shared, blocks, dims, sstrict, sweak)

    # flatten to one system over (block vars..., shared vars)
    total = sum(dims) + shared

    def lift(form, off, bd):
        out = [0] * total
        for i in range(bd):
            out[off + i] = form[i]
        for i in range(shared):
            out[sum(dims) + i] = form[bd + i]
        return tuple(out)

    eqs, weak, strict = [], [], []
    off = 0
    for sysb, bd in zip(blocks, dims):
        eqs += [lift(f, off, bd) for f in sysb.equalities]
        weak += [lift(f, off, bd) for f in sysb.weak]
        strict += [lift(f, off, bd) for f in sysb.strict]
        off += bd
    weak += [lift(f, sum(dims), 0) for f in sweak]
    strict += [lift(f, sum(dims), 0) for f in sstrict]
    flat = FeasibilitySystem(total, tuple(eqs), tuple(weak), tuple(strict))
    direct = feasible_strict(flat)

    assert (got is None) == (direct is None)
    if got is not None:
        assert flat.satisfied_by(got)


def test_cone_equality_is_geometric():
    a = Cone.from_generators(2, [(1, 0), (2, 0), (1, 1)])
    b = Cone.from_generators(2, [(1, 1), (3, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Cone.from_generators(2, [(1, 0), (0, 1)])


def test_cone_with_lineality_equality():
    a = Cone.from_generators(2, [(0, 1), (0, -1), (1, 5)])
    b = Cone.from_generators(2, [(0, 2), (0, -3), (1, -7)])
    assert a == b
    assert a.lineality_rank == 1
    assert len(a.generators) == 1 and a.generators[0][0] == 1


# -- the facet description: kept from construction or computed on read ---

def _cones_from_every_path(rng):
    """One cone from each constructor and each cone operation, in a random
    ambient rank: some keep their facets, the rest convert on first read."""
    n = rng.randint(1, 4)

    def vecs(k, box=3):
        return [tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(k)]

    a = Cone.from_generators(n, vecs(rng.randint(0, 5)), vecs(rng.choice([0, 0, 1, 2])))
    b = Cone.from_inequalities(n, vecs(rng.randint(0, 5)), vecs(rng.choice([0, 0, 1])))
    m = rng.randint(1, 4)
    f = LatticeMap(IntMatrix.from_rows(vecs(m, 2), n), n, m)
    return [a, b, *faces(a), *faces(b), intersect(a, b), image(b, f), dual(a), dual(b)]


def _one_conversion(c):
    """Reference facet description: one conversion of c's generators."""
    normals, dual_lin = double_description(
        c.ambient_rank, list(c.generators), list(c.lineality_basis))
    return tuple(normals), tuple(hermite_normal_form(dual_lin))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_facets_match_one_conversion(seed):
    for c in _cones_from_every_path(random.Random(seed)):
        normals, eqs = _one_conversion(c)
        assert (c.facet_normals, c.span_equalities) == (normals, eqs)
        assert c.dim == c.ambient_rank - len(eqs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_cone_is_its_generators(seed):
    for c in _cones_from_every_path(random.Random(seed)):
        again = Cone(c.ambient_rank, c.generators, c.lineality_basis)
        assert again == c and hash(again) == hash(c)
        assert (again.facet_normals, again.span_equalities) == \
            (c.facet_normals, c.span_equalities)
        d = dual(c)
        ref = Cone.from_inequalities(c.ambient_rank, c.generators, c.lineality_basis)
        assert d == ref
        assert (d.facet_normals, d.span_equalities) == \
            (ref.facet_normals, ref.span_equalities)


def test_facets_are_plain_attributes_once_known():
    c = Cone.from_generators(2, [(1, 0), (1, 2)])
    assert vars(c)["facet_normals"] == ((0, 1), (2, -1))  # kept from construction
    d = Cone.from_inequalities(2, [(0, 1), (2, -1)])
    assert "facet_normals" not in vars(d)
    assert d.contains_point((1, 1)) and not d.contains_point((0, 1))
    assert vars(d)["facet_normals"] == c.facet_normals
    assert vars(d)["span_equalities"] == ()


# -- from_generators: one conversion, generators by incidence ------------

def _generator_lists(rng):
    """Random generators and lineality in a random ambient rank, with
    duplicates and positive multiples, zero vectors, generators in the
    lineality space, or generators that all lie in it."""
    n = rng.randint(1, 4)
    box = rng.choice([1, 2, 3])

    def vec():
        return tuple(rng.randint(-box, box) for _ in range(n))

    gens = [vec() for _ in range(rng.randint(0, 6))]
    lins = [vec() for _ in range(rng.choice([0, 0, 1, 2]))]
    mode = rng.randrange(5)
    if mode == 1 and gens:
        g = rng.choice(gens)
        gens += [g, tuple(2 * x for x in g)]
    elif mode == 2 and gens:
        gens.append(vneg(rng.choice(gens)))
    elif mode == 3:
        base = [vec() for _ in range(rng.randint(1, 3))]
        gens = base + [vneg(b) for b in base]
    elif mode == 4:
        gens.append((0,) * n)
    rng.shuffle(gens)
    return n, gens, lins


def _five_fields(c):
    return c.generators, c.lineality_basis, c.facet_normals, c.span_equalities, c.dim


@pytest.mark.parametrize("n, gens, lins", [
    (2, [(1, 0), (-1, 0), (1, 1)], []),             # a generator in the lineality
    (3, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]),        # input lineality
    (2, [(1, 1), (2, 2), (1, 1), (0, 1)], []),       # duplicates and multiples
    (2, [(0, 0)], []),                               # the zero cone
    (3, [(1, 2, 0), (-1, -2, 0), (0, 0, 1), (0, 0, -1)], []),  # all in the lineality
    (2, [(1, 0), (0, 1), (-1, -1)], []),             # the whole space: no facets
    (3, [(1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 0, 2)]),  # a generator not extreme
    (3, [(1, 0, 5), (1, 0, -3), (0, 1, 0)], [(0, 0, 1)]),  # equal modulo the lineality
])
def test_from_generators_examples_match_two_conversions(n, gens, lins):
    assert _five_fields(Cone.from_generators(n, gens, lins)) == \
        cone_by_two_conversions(n, gens, lins)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_from_generators_matches_two_conversions(seed):
    n, gens, lins = _generator_lists(random.Random(seed))
    assert _five_fields(Cone.from_generators(n, gens, lins)) == \
        cone_by_two_conversions(n, gens, lins)


# -- double description against a brute-force enumeration ---------------

def _ref_det(rows):
    """Integer determinant by Laplace expansion (tiny matrices only)."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _ref_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def _brute_force_rays(dim, constraints):
    """Extreme rays of the pointed cone {x : c.x >= 0}: the primitive
    generator of the line cut out by each rank-(dim - 1) subset of the
    constraints, kept when it (or its negative) satisfies all of them."""
    rays = set()
    for sub in itertools.combinations(constraints, dim - 1):
        if fraction_rank(list(sub)) != dim - 1:
            continue
        # generalized cross product: spans the kernel of the subset
        v = tuple((-1) ** j * _ref_det([r[:j] + r[j + 1:] for r in sub])
                  for j in range(dim))
        g = math.gcd(*v)
        v = tuple(x // g for x in v)
        for s in (v, tuple(-x for x in v)):
            if all(vdot(c, s) >= 0 for c in constraints):
                rays.add(s)
    return rays


@st.composite
def _pointed_systems(draw):
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple),
        min_size=dim, max_size=7))
    assume(fraction_rank(rows) == dim)  # trivial lineality: the cone is pointed
    return dim, rows


@settings(max_examples=150, deadline=None)
@given(_pointed_systems())
# a cut through two non-adjacent rays of opposite sign, which random
# small systems rarely draw: the cone over a square cut through two
# opposite corners, and the cone over a cube cut off at one corner
@example((3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (1, 0, 0)]))
@example((4, [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1),
              (0, 0, 1, 1), (0, 0, -1, 1), (1, 1, 1, 0)]))
def test_dd_matches_brute_force_enumeration(system):
    dim, rows = system
    rays, lin = double_description(dim, rows)
    assert lin == []
    assert set(rays) == _brute_force_rays(dim, rows)
    assert len(set(rays)) == len(rays)
    for r in rays:
        active = [c for c in rows if vdot(c, r) == 0]
        assert fraction_rank(active) == dim - 1  # extreme


@settings(max_examples=150, deadline=None)
@given(_pointed_systems(), st.data())
def test_dd_cone_round_trip_and_feasible_sum(system, data):
    dim, rows = system
    # move some constraints to equalities and some to strict forms
    roles = data.draw(st.lists(st.sampled_from("wse"), min_size=len(rows),
                               max_size=len(rows)))
    eqs = tuple(r for r, k in zip(rows, roles) if k == "e")
    weak = tuple(r for r, k in zip(rows, roles) if k == "w")
    strict = tuple(r for r, k in zip(rows, roles) if k == "s")
    c = Cone.from_inequalities(dim, weak + strict, eqs)
    assert Cone.from_generators(dim, c.generators, c.lineality_basis) == c
    sys_ = FeasibilitySystem(dim, eqs, weak, strict)
    total = tuple(sum(x) for x in zip(*c.generators)) if c.generators \
        else (0,) * dim
    w = feasible_strict(sys_)
    if sys_.satisfied_by(total):
        assert w == total
    else:
        assert w is None


@st.composite
def _systems_with_lineality(draw):
    """Inequalities and equalities whose constraint rows are rank
    deficient: each row is an integer combination of fewer than dim base
    rows, or some rows are equalities (possibly several of them)."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    base = draw(st.lists(vec, min_size=1, max_size=dim))
    combo = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    deficient = draw(st.booleans())

    def row(c):
        if not deficient:
            return draw(vec)
        return tuple(sum(x * b[t] for x, b in zip(c, base)) for t in range(dim))

    ineqs = [row(c) for c in draw(st.lists(combo, max_size=5))]
    eqs = [row(c) for c in draw(st.lists(combo, min_size=0 if deficient else 1,
                                         max_size=2))]
    return dim, ineqs, eqs


@settings(max_examples=200, deadline=None)
@given(_systems_with_lineality())
# the cone over a square times a line, cut between two opposite corners:
# two pairs of rays with opposite signs are not adjacent
@example((4, [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 1, 0),
              (1, 1, 0, 0)], []))
def test_dd_lineality_is_saturated_kernel(system):
    dim, ineqs, eqs = system
    rays, lin = double_description(dim, ineqs, eqs)
    constraints = [tuple(r) for r in ineqs + eqs]
    assert len(lin) == dim - fraction_rank(constraints)
    assert all(vdot(c, l) == 0 for c in constraints for l in lin)
    assert lattice_saturated(Sublattice.from_rows(dim, lin))
    assert tuple(lin) == hermite_normal_form(lin)  # canonical basis
    # every ray is extreme modulo the lineality, and no two rays span the
    # same ray modulo it
    for r in rays:
        active = [c for c in constraints if vdot(c, r) == 0]
        assert fraction_rank(active) == dim - len(lin) - 1
    for r1, r2 in itertools.combinations(rays, 2):
        assert fraction_rank(list(lin) + [r1, r2]) == len(lin) + 2
    assert Cone.from_generators(dim, rays, lin) == \
        Cone.from_inequalities(dim, ineqs, eqs)


# -- the kernel against the projecting reference -------------------------

@st.composite
def _messy_systems(draw):
    """Systems in ambient dimension 0-5 with equalities, and with some
    rows repeated, negated or replaced by zero."""
    n = draw(st.integers(0, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    ineqs = draw(st.lists(vec, max_size=7))
    eqs = draw(st.lists(vec, max_size=2))
    for rows in (ineqs, eqs):
        for _ in range(draw(st.integers(0, 2))):
            edit = draw(st.sampled_from(("repeat", "negate", "zero")))
            if edit == "zero":
                rows.append((0,) * n)
            elif rows:
                r = draw(st.sampled_from(rows))
                rows.append(r if edit == "repeat" else vneg(r))
    return n, ineqs, eqs


@settings(max_examples=300, deadline=None)
@given(_messy_systems())
# cones that are not full-dimensional modulo their lineality, where an
# adjacent pair is tight on more rows than its face's codimension: the
# cone over a square cut through opposite corners, flattened by an
# equality, then by two opposite rows with a free line beside it, and
# the cone over a cube cut off at a corner, flattened by an equality
@example((4, [(1, 1, 1, 0), (1, -1, 1, 0), (-1, 1, 1, 0), (-1, -1, 1, 0),
              (1, 0, 0, 0)], [(0, 0, 0, 1)]))
@example((5, [(1, 1, 1, 0, 0), (1, -1, 1, 0, 0), (-1, 1, 1, 0, 0),
              (-1, -1, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 1, 0),
              (0, 0, 0, -1, 0)], []))
@example((5, [(1, 0, 0, 1, 0), (-1, 0, 0, 1, 0), (0, 1, 0, 1, 0),
              (0, -1, 0, 1, 0), (0, 0, 1, 1, 0), (0, 0, -1, 1, 0),
              (1, 1, 1, 0, 0)], [(0, 0, 0, 0, 1)]))
def test_dd_matches_projecting_reference(system):
    n, ineqs, eqs = system
    assert double_description(n, ineqs, eqs) == \
        double_description_by_projection(n, ineqs, eqs)


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    real = cones.kernel_basis
    monkeypatch.setattr(cones, "kernel_basis",
                        lambda m: calls.append(1) or real(m))
    return calls


def test_pointed_conversion_computes_no_kernel(monkeypatch):
    # the lineality tracked during a conversion spans the lineality of the
    # cone so far, so its lattice is read off at rank 0 (none), rank 1 (one
    # primitive vector) and full rank (the untouched identity); only a rank
    # from 2 to ambient - 1 saturates with kernel_basis
    calls = _count_kernel_calls(monkeypatch)
    rng = random.Random(15)
    by_rank = collections.Counter()
    for _ in range(600):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, 7))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(n))
               for _ in range(rng.choice((0, 0, 1)))]
        rays, lin = double_description(n, rows, eqs)
        assert bool(calls) == (2 <= len(lin) < n)
        by_rank["full" if len(lin) == n else min(len(lin), 2)] += 1
        calls.clear()
    assert by_rank[0] > 100 and min(by_rank.values()) > 10, by_rank


@pytest.mark.parametrize("ambient, ineqs, eqs, lineality, kernels", [
    # rank 1, and the vector left after the drops leads with -1
    (2, [(1, 1)], [], [(1, -1)], 0),
    (3, [(-1, -1, -1), (-1, -1, 0)], [], [(1, -1, 0)], 0),
    # no constraints: the whole space, no conversion work at all
    (3, [], [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 0),
    (2, [(0, 0)], [(0, 0)], [(1, 0), (0, 1)], 0),
    # rank 2 of 3: the one case that still saturates
    (3, [(1, 1, 1)], [], [(1, 0, -1), (0, 1, -1)], 1),
])
def test_lineality_read_off_the_elimination(monkeypatch, ambient, ineqs, eqs,
                                            lineality, kernels):
    calls = _count_kernel_calls(monkeypatch)
    got = double_description(ambient, ineqs, eqs)
    assert got[1] == lineality and len(calls) == kernels
    assert got == double_description_by_projection(ambient, ineqs, eqs)
