"""Acceptance gate: every shipped claim, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`.  Each criterion prints
`ACCEPTANCE <n> <name>: PASS/FAIL (<elapsed>s)`; capture is disabled for
this module so the lines always reach the terminal.
"""

import random
import time

import pytest

from toricgit.actions import (
    Linearization,
    SubtorusAction,
    git_chambers,
    mumford_trivial_semistable,
    obstruction_report,
    semistable_divisor,
    semistable_group,
)
from toricgit.certcheck import check_locus
from toricgit.cones import Cone, FeasibilitySystem, dual, feasible_strict
from toricgit.fans import DivisorGroup, ToricDivisor, class_group, validate_fan
from toricgit.hilbert_mumford import (
    HilbertBasisTooLarge,
    LinearAction,
    cross_validate,
    destabilize,
    limit,
)
from toricgit.intlinalg import IntMatrix, smith_normal_form, vdot
from toricgit.oracle import (
    SearchBounds,
    destabilize_boxed,
    enumerate_witnesses,
    feasible_strict_boxed,
)
from toricgit.quotients import build_quotient, quotient_projection

from genutil import (
    invariant_factors_by_minors,
    random_action,
    random_affine_fan,
    random_divisor,
    random_fan,
    random_linearization,
    random_unimodular,
)

QUADRIC = dict(rank=3, rays=[(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)],
               cones=[[0, 1, 2, 3]], phi=[(2, 1, 1), (0, 2, 1)],
               D=(-1, 0, 4, 7))
INTRO = dict(rank=2, rays=[(1, 0), (0, 1)], cones=[[0, 1]], phi=[(1, -1)],
             D=(1, 0))


def _fixture(data):
    fan = validate_fan(data["rank"], data["rays"], data["cones"])
    act = SubtorusAction.from_columns(data["phi"], data["rank"])
    return fan, act, ToricDivisor(data["D"])


def _keys(*lists):
    return frozenset(frozenset(l) for l in lists)


def _lin0(d):
    return Linearization.canonical(1, d)


_CAPFD = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # stash the capture fixture so _emit can suspend it per line
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _emit(line):
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _report(num, name, passed, elapsed):
    line = (f"ACCEPTANCE {num} {name}: "
            f"{'PASS' if passed else 'FAIL'} ({elapsed:.2f}s)")
    _emit(line)
    assert passed, line


def _random_instance(rng, max_rank=3, coeff_box=3, max_d=2):
    fan = random_fan(rng, max_rank=max_rank)
    act = random_action(rng, fan, max_d=max_d)
    while True:
        D = random_divisor(rng, fan, box=coeff_box)
        if any(c != 0 for c in D.coefficients):
            break
    return fan, act, D


def test_criterion_1_quadric_reproduction():
    t0 = time.perf_counter()
    fan, act, D = _fixture(QUADRIC)
    ok = True

    ss = semistable_divisor(D, _lin0(2), act, fan)
    ok &= ss.locus.faces == _keys([], [0], [2])

    q = build_quotient(ss, act, fan)
    images = {c.image.generators for c in q.charts}
    ok &= images == {((1,),), ((-1,),)}
    ok &= q.quotient_rank == 1
    ok &= q.good and q.geometric and q.separated

    pi, torsion = quotient_projection(act)
    row = pi.matrix.entries[0]
    ok &= row in ((1, 2, -4), (-1, -2, 4)) and torsion == ()
    for col in act.columns:
        ok &= pi.apply(col) == (0,)

    elapsed = time.perf_counter() - t0
    _report(1, "quadric reproduction", ok and elapsed < 1.0, elapsed)


def test_criterion_2_quadric_obstruction():
    t0 = time.perf_counter()
    fan, act, D = _fixture(QUADRIC)
    ok = True

    ss = semistable_divisor(D, _lin0(2), act, fan)
    rep = obstruction_report(ss.locus, act, fan)
    cones = dict(rep.weight_cones)
    ok &= cones[frozenset({0})] == Cone.from_generators(2, [(1, 1), (1, 2)])
    ok &= cones[frozenset({2})] == Cone.from_generators(2, [(2, 0), (2, 1)])
    ok &= rep.common.is_zero()
    ok &= rep.verdict == "obstructed"

    chams = git_chambers(act, fan)
    ok &= len(chams) > 0
    ok &= all(loc.locus.faces != ss.locus.faces for _, _, loc in chams)

    cg = class_group(fan)
    ok &= cg.cl_rank == 1 and cg.cl_torsion == () and cg.pic_rank == 0

    elapsed = time.perf_counter() - t0
    _report(2, "quadric obstruction", ok and elapsed < 1.0, elapsed)


def test_criterion_3_intro_example():
    t0 = time.perf_counter()
    fan, act, D = _fixture(INTRO)
    ok = True

    ss = semistable_divisor(D, _lin0(1), act, fan)
    ok &= ss.locus.faces == _keys([], [1])
    q = build_quotient(ss, act, fan)
    ok &= len(q.charts) == 1
    ok &= q.charts[0].image.generators in (((1,),), ((-1,),))
    ok &= q.good and q.geometric and q.separated

    ssg = semistable_group(DivisorGroup((D,)), _lin0(1), act, fan)
    ok &= ssg.locus.faces == _keys([], [0], [1])
    qg = build_quotient(ssg, act, fan)
    ok &= len(qg.charts) == 2
    ok &= qg.charts[0].image == qg.charts[1].image
    ok &= qg.good and not qg.separated

    ok &= ss.locus.faces < ssg.locus.faces  # strict inclusion

    elapsed = time.perf_counter() - t0
    _report(3, "intro example", ok and elapsed < 1.0, elapsed)


def test_criterion_4_certificate_replay():
    t0 = time.perf_counter()
    ok = True

    # fixture suite
    for data in (QUADRIC, INTRO):
        fan, act, D = _fixture(data)
        ss = semistable_divisor(D, _lin0(act.d), act, fan)
        ok &= check_locus(fan, [D.coefficients],
                          [tuple(0 for _ in range(act.d))],
                          act.columns, ss).ok
        ssg = semistable_group(DivisorGroup((D,)), _lin0(act.d), act, fan)
        ok &= check_locus(fan, [D.coefficients],
                          [tuple(0 for _ in range(act.d))],
                          act.columns, ssg).ok

    # 200 randomized instances: rank <= 3, <= 6 rays, coeffs in [-3,3], d <= 2
    for seed in range(200):
        rng = random.Random(1000 + seed)
        fan, act, D = _random_instance(rng)
        shifts = [tuple(rng.randint(-2, 2) for _ in range(act.d))]
        lin = Linearization((shifts[0],))
        if seed % 2 == 0:
            ss = semistable_divisor(D, lin, act, fan)
        else:
            ss = semistable_group(DivisorGroup((D,)), lin, act, fan)
        res = check_locus(fan, [D.coefficients], shifts, act.columns, ss)
        if not res.ok:
            ok = False
            _emit(f"  replay failed at seed {seed}: {res.failures}")

    elapsed = time.perf_counter() - t0
    _report(4, "certificate replay (200 random)", ok and elapsed < 60.0,
            elapsed)


def test_criterion_5_oracle_agreement():
    t0 = time.perf_counter()
    ok = True

    fan, act, D = _fixture(QUADRIC)
    ss = semistable_divisor(D, _lin0(2), act, fan)
    got = enumerate_witnesses(list(fan.rays), list(fan.face_keys()),
                              [D.coefficients], [(0, 0)], act.columns,
                              SearchBounds(n_max=4, box=16, degree_box=3))
    ok &= got == ss.locus.faces

    fan, act, D = _fixture(INTRO)
    ss = semistable_divisor(D, _lin0(1), act, fan)
    got = enumerate_witnesses(list(fan.rays), list(fan.face_keys()),
                              [D.coefficients], [(0,)], act.columns,
                              SearchBounds(n_max=2, box=4, degree_box=2))
    ok &= got == ss.locus.faces

    # randomized containment: bounded search never certifies a face the
    # engine rejects
    violations = 0
    for seed in range(60):
        rng = random.Random(2000 + seed)
        fan, act, D = _random_instance(rng, max_rank=2, coeff_box=2, max_d=1)
        ss = semistable_divisor(D, _lin0(act.d), act, fan)
        got = enumerate_witnesses(list(fan.rays), list(fan.face_keys()),
                                  [D.coefficients],
                                  [tuple(0 for _ in range(act.d))],
                                  act.columns, SearchBounds(2, 6, 2))
        if not got <= ss.locus.faces:
            violations += 1
    ok &= violations == 0

    elapsed = time.perf_counter() - t0
    _report(5, "oracle agreement", ok, elapsed)


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    suites_ok = True

    # (a) SNF: the invariant factors are the determinantal divisors' ratios
    ok = True
    for seed in range(500):
        rng = random.Random(3000 + seed)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [tuple(rng.randint(-6, 6) for _ in range(cols))
             for _ in range(rows)], cols)
        f = smith_normal_form(A)
        ok &= f == invariant_factors_by_minors(A.entries)
        ok &= all(b % a == 0 for a, b in zip(f, f[1:]))
    suites_ok &= ok
    _emit(f"  suite 6a SNF invariant factors: {'PASS' if ok else 'FAIL'}")

    # (b) dual(dual(c)) == c
    ok = True
    for seed in range(500):
        rng = random.Random(4000 + seed)
        dim = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 5))]
        c = Cone.from_generators(dim, gens)
        ok &= dual(dual(c)) == c
    suites_ok &= ok
    _emit(f"  suite 6b dual involution: {'PASS' if ok else 'FAIL'}")

    # (c) strict feasibility vs boxed exhaustive search
    ok = True
    for seed in range(500):
        rng = random.Random(5000 + seed)
        dim = rng.randint(1, 3)

        def forms(count):
            return tuple(tuple(rng.randint(-3, 3) for _ in range(dim))
                         for _ in range(count))

        eqs, weak, strict = (forms(rng.randint(0, 2)),
                             forms(rng.randint(0, 3)),
                             forms(rng.randint(0, 3)))
        sysf = FeasibilitySystem(dim, eqs, weak, strict)
        w = feasible_strict(sysf)
        if w is not None:
            ok &= sysf.satisfied_by(w)
        else:
            ok &= feasible_strict_boxed(dim, eqs, weak, strict, 6) is None
    suites_ok &= ok
    _emit(f"  suite 6c strict feasibility vs box: {'PASS' if ok else 'FAIL'}")

    # (d) scale invariance X^ss(kD) = X^ss(D)
    ok = True
    for seed in range(500):
        rng = random.Random(6000 + seed)
        fan, act, D = _random_instance(rng, max_rank=2, coeff_box=2, max_d=1)
        k = rng.choice([2, 3])
        ss1 = semistable_divisor(D, _lin0(act.d), act, fan)
        Dk = ToricDivisor(tuple(k * a for a in D.coefficients))
        ssk = semistable_divisor(Dk, _lin0(act.d), act, fan)
        ok &= ss1.locus == ssk.locus
    suites_ok &= ok
    _emit(f"  suite 6d scale invariance: {'PASS' if ok else 'FAIL'}")

    # (e) unimodular equivariance of loci
    ok = True
    for seed in range(500):
        rng = random.Random(7000 + seed)
        fan, act, D = _random_instance(rng, max_rank=2, coeff_box=2, max_d=1)
        ss = semistable_divisor(D, _lin0(act.d), act, fan)
        U = random_unimodular(rng, fan.ambient_rank)
        new_rays = [tuple(vdot(row, v) for row in U) for v in fan.rays]
        fan2 = validate_fan(fan.ambient_rank, new_rays,
                            [list(c) for c in fan.maximal_cones])
        if act.d:
            cols = [tuple(vdot(row, col) for row in U)
                    for col in act.columns]
            act2 = SubtorusAction.from_columns(cols, fan.ambient_rank)
        else:
            act2 = act
        ss2 = semistable_divisor(D, _lin0(act.d), act2, fan2)
        ok &= ss.locus.faces == ss2.locus.faces
    suites_ok &= ok
    _emit(f"  suite 6e unimodular equivariance: {'PASS' if ok else 'FAIL'}")

    # (f) good flag true on all engine-produced loci
    ok = True
    for seed in range(500):
        rng = random.Random(8000 + seed)
        fan, act, D = _random_instance(rng, max_rank=2, coeff_box=2, max_d=1)
        ss = semistable_divisor(D, _lin0(act.d), act, fan)
        if not ss.certificates:
            continue
        q = build_quotient(ss, act, fan)
        if not q.good:
            ok = False
            _emit(f"  good-flag violation at seed {seed}")
    suites_ok &= ok
    _emit(f"  suite 6f good flag on engine loci: {'PASS' if ok else 'FAIL'}")

    # (g) hm limit/destabilize replay and boxed-search agreement
    ok = True
    for seed in range(500):
        rng = random.Random(9000 + seed)
        d = rng.randint(1, 2)
        n = rng.randint(1, 4)
        act = LinearAction(tuple(tuple(rng.randint(-2, 2) for _ in range(d))
                                 for _ in range(n)))
        p = frozenset(i for i in range(n) if rng.random() < 0.7)
        targets = {frozenset(j for j in p if rng.random() < 0.5)
                   for _ in range(n + 1)}
        lam = destabilize(p, lambda q: q in targets, act)
        boxed = destabilize_boxed(p, act.weights, targets, 4)
        if lam is not None:
            lim = limit(lam, p, act)
            ok &= lim is not None and lim in targets
        else:
            ok &= boxed is None
    suites_ok &= ok
    _emit(f"  suite 6g hm replay vs box: {'PASS' if ok else 'FAIL'}")

    elapsed = time.perf_counter() - t0
    _report(6, "property suites (7 x 500)", suites_ok and elapsed < 120.0,
            elapsed)


def test_criterion_7_cross_validation():
    t0 = time.perf_counter()
    ok = True
    for data in (QUADRIC, INTRO):
        fan, act, D = _fixture(data)
        cv = cross_validate(fan, act, D, _lin0(act.d))
        ok &= cv.agrees
    elapsed = time.perf_counter() - t0
    _report(7, "ambient cross-validation", ok, elapsed)


def test_criterion_8_king_and_hilbert_mumford():
    t0 = time.perf_counter()
    ok = True

    # (a) King's criterion for the scalar action on C^n: the invariants of
    # weight m*chi are the degree-m forms, so chi = 1 removes exactly the
    # origin, chi = -1 has no invariants and chi = 0 keeps everything
    for n in range(2, 5):
        fan = validate_fan(n, [tuple(int(i == j) for j in range(n))
                               for i in range(n)], [list(range(n))])
        act = SubtorusAction.from_columns([(1,) * n], n)
        every = frozenset(fan.face_keys())
        top = frozenset(range(n))
        ok &= mumford_trivial_semistable((1,), act, fan).locus.faces \
            == every - {top}
        ok &= mumford_trivial_semistable((-1,), act, fan).locus.faces \
            == frozenset()
        ok &= mumford_trivial_semistable((0,), act, fan).locus.faces == every
    _emit(f"  8a King's criterion, scalar action on C^2..C^4: "
          f"{'PASS' if ok else 'FAIL'}")

    # (b) C^2 with the (1,1) action at chi = 1 is C^2 minus the origin
    fan, act, _ = _fixture(dict(rank=2, rays=[(1, 0), (0, 1)], cones=[[0, 1]],
                                phi=[(1, 1)], D=(0, 0)))
    ss = mumford_trivial_semistable((1,), act, fan)
    part = ss.locus.faces == _keys([], [0], [1])
    cv = cross_validate(fan, act, ToricDivisor((0, 0)),
                        Linearization(((-1,),)))
    part &= cv.agrees
    ok &= part
    _emit(f"  8b punctured plane at chi = 1: {'PASS' if part else 'FAIL'}")

    # (c) random Hilbert-Mumford cross-validation on full-dimensional
    # affine charts
    checked = disagreed = 0
    for i in range(120):
        rng = random.Random(12345 + i)
        rank = rng.choice((2, 3))
        fan = random_affine_fan(rng, rank)
        act = random_action(rng, fan)
        D = random_divisor(rng, fan, box=2)
        lin = random_linearization(rng, act.d)
        if fan.face_cone(fan.maximal_keys[0]).dim != rank or act.d == 0:
            continue
        try:
            cv = cross_validate(fan, act, D, lin, max_points=400)
        except HilbertBasisTooLarge:
            continue
        checked += 1
        if not cv.agrees:
            disagreed += 1
            _emit(f"  Hilbert-Mumford disagreement at seed {12345 + i}")
    ok &= checked > 0 and disagreed == 0
    _emit(f"  8c random Hilbert-Mumford cross-validation: {checked} checked, "
          f"{disagreed} disagreements")

    elapsed = time.perf_counter() - t0
    _report(8, "King's criterion and Hilbert-Mumford", ok, elapsed)
