"""Subtorus actions: semistable loci, chambers, achievable weight cones,
obstructions.  Certificates are replayed through the independent checker."""

import dataclasses
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgit.actions import (
    ActionError,
    Linearization,
    NotAffine,
    SemistabilityCertificate,
    SubtorusAction,
    achievable_weight_cone,
    git_chambers,
    mumford_trivial_semistable,
    obstruction_report,
    semistable_divisor,
    semistable_group,
)
from toricgit.certcheck import check_certificate, check_locus
from toricgit.cones import Cone, relative_interior_point
from toricgit.fans import (
    DivisorGroup,
    SubfanLocus,
    ToricDivisor,
    is_cartier_on,
    validate_fan,
)
from toricgit.intlinalg import rank_of_rows, vdot, vneg, vsub

from genutil import (
    COX_FANS,
    action_sublattice,
    chambers_by_full_refinement,
    check_certificate_with_complement_affine,
    contains_cone,
    cox_data,
    random_action,
    random_affine_fan,
    random_divisor,
    random_fan,
    random_linearization,
    random_primitive_vector,
    random_unimodular,
    weight_cone_by_conversion,
    whole_locus,
)


def _keys(*lists):
    return frozenset(frozenset(l) for l in lists)


def _lin0(d):
    return Linearization.canonical(1, d)


# --- construction -----------------------------------------------------

def test_action_rejects_noninjective():
    with pytest.raises(ActionError):
        SubtorusAction.from_columns([(1, 0), (2, 0)], 2)


def test_action_basics(quadric_action):
    assert quadric_action.d == 2
    assert quadric_action.ambient_rank == 3
    assert quadric_action.phi_star((1, 0, 0)) == (2, 0)
    assert quadric_action.phi_star((1, 2, -4)) == (0, 0)
    assert action_sublattice(quadric_action).rank == 2


# --- semistable loci: worked fixtures ----------------------------------

def test_semistable_divisor_quadric(quadric_fan, quadric_action,
                                    quadric_divisor):
    ss = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                            quadric_fan)
    assert ss.locus.faces == _keys([], [0], [2])
    certs = dict(ss.certificates)
    for key in (frozenset({0}), frozenset({2})):
        cert = certs.get(key)
        assert cert is not None
        assert cert.degree[0] > 0


def test_semistable_divisor_quadric_replays(quadric_fan, quadric_action,
                                            quadric_divisor):
    ss = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                            quadric_fan)
    res = check_locus(quadric_fan, [quadric_divisor.coefficients],
                      [(0, 0)], [(2, 1, 1), (0, 2, 1)], ss)
    assert res.ok, res.failures


def test_semistable_divisor_intro(plane_fan, hyperbolic_action, div_z):
    ss = semistable_divisor(div_z, _lin0(1), hyperbolic_action, plane_fan)
    assert ss.locus.faces == _keys([], [1])


def test_semistable_group_intro(plane_fan, hyperbolic_action, div_z):
    grp = DivisorGroup((div_z,))
    ssg = semistable_group(grp, _lin0(1), hyperbolic_action, plane_fan)
    assert ssg.locus.faces == _keys([], [0], [1])
    cert = dict(ssg.certificates).get(frozenset({0}))
    assert cert is not None and cert.group_case
    assert len(cert.invertibles) == 1
    res = check_locus(plane_fan, [div_z.coefficients], [(0,)], [(1, -1)], ssg)
    assert res.ok, res.failures


def test_group_locus_contains_divisor_locus(plane_fan, hyperbolic_action,
                                            div_z):
    ss = semistable_divisor(div_z, _lin0(1), hyperbolic_action, plane_fan)
    ssg = semistable_group(DivisorGroup((div_z,)), _lin0(1),
                           hyperbolic_action, plane_fan)
    assert ss.locus.faces < ssg.locus.faces  # strictly finer here


def test_semistable_group_quadric(quadric_fan, quadric_action,
                                  quadric_divisor):
    ssg = semistable_group(DivisorGroup((quadric_divisor,)), _lin0(2),
                           quadric_action, quadric_fan)
    assert ssg.locus.faces == _keys([], [0], [2])
    res = check_locus(quadric_fan, [quadric_divisor.coefficients],
                      [(0, 0)], [(2, 1, 1), (0, 2, 1)], ssg)
    assert res.ok, res.failures


def test_punctured_plane_certificates(plane_fan):
    # C^2 under the scalar action at chi = 1: every invariant vanishes at
    # the origin, so the chart {0, 1} is not certified
    act = SubtorusAction.from_columns([(1, 1)], 2)
    ss = mumford_trivial_semistable((1,), act, plane_fan)
    assert ss.locus.faces == _keys([], [0], [1])
    res = check_locus(plane_fan, [(0, 0)], [(-1,)], [(1, 1)], ss)
    assert res.ok, res.failures
    # z2 is invariant but vanishes on ray 0 only: it does not witness {0, 1}
    forged = SemistabilityCertificate(chart=frozenset({0, 1}), degree=(1,),
                                      monomial=(0, 1), cartier=((0, 0),))
    res = check_certificate(list(plane_fan.rays), list(plane_fan.face_keys()),
                            [(0, 0)], [(-1,)], [(1, 1)], forged)
    assert res.failures == ("complement-is-chart",)


def _mutants(rng, fan, cert):
    """The certificate and copies with its monomial, degree or chart
    changed at random."""
    yield cert
    for _ in range(3):
        step = tuple(rng.randint(-1, 1) for _ in cert.monomial)
        yield dataclasses.replace(
            cert, monomial=tuple(a + b for a, b in zip(cert.monomial, step)))
        yield dataclasses.replace(
            cert, degree=tuple(x + rng.randint(-1, 1) for x in cert.degree))
        yield dataclasses.replace(cert, chart=frozenset(
            i for i in range(len(fan.rays)) if rng.random() < 0.5))
    yield dataclasses.replace(cert, chart=rng.choice(list(fan.face_keys())))


def test_certcheck_without_complement_affine():
    """complement-affine was implied by complement-is-chart (the zero set
    is then exactly the chart): on random and randomly mutated
    certificates, no certificate failed it alone, and dropping it leaves
    every verdict as it was."""
    verdicts = set()
    for seed in range(150):
        rng = random.Random(7000 + seed)
        fan = random_fan(rng)
        act = random_action(rng, fan)
        D = random_divisor(rng, fan)
        lin = random_linearization(rng, act.d)
        if seed % 2 == 0:
            ss = semistable_divisor(D, lin, act, fan)
        elif any(D.coefficients):
            ss = semistable_group(DivisorGroup((D,)), lin, act, fan)
        else:
            continue
        args = (list(fan.rays), list(fan.face_keys()), [D.coefficients],
                list(lin.shifts), act.phi_star_rows())
        for _, cert in ss.certificates:
            for mutant in _mutants(rng, fan, cert):
                old = check_certificate_with_complement_affine(*args, mutant)
                assert "complement-affine" not in old.failures \
                    or "complement-is-chart" in old.failures
                new = check_certificate(*args, mutant)
                assert new.ok == old.ok, (seed, mutant)
                verdicts.add(old.ok)
    assert verdicts == {True, False}


def test_torus_without_rays_is_semistable():
    # K* acting on itself with weight 1: z is invariant of weight chi = 1
    fan = validate_fan(1, [], [])
    act = SubtorusAction.from_columns([(1,)], 1)
    ss = mumford_trivial_semistable((1,), act, fan)
    assert ss.locus.faces == _keys([])
    assert check_locus(fan, [()], [(-1,)], [(1,)], ss).ok


def test_semistable_scale_invariance(quadric_fan, quadric_action,
                                     quadric_divisor):
    ss1 = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                             quadric_fan)
    for k in (2, 3):
        Dk = ToricDivisor(tuple(k * a for a in quadric_divisor.coefficients))
        ssk = semistable_divisor(Dk, _lin0(2), quadric_action, quadric_fan)
        assert ssk.locus == ss1.locus


# --- trivial bundle / Mumford charts ------------------------------------

def test_mumford_intro_characters(plane_fan, hyperbolic_action):
    pos = mumford_trivial_semistable((1,), hyperbolic_action, plane_fan)
    assert pos.locus.faces == _keys([], [1])
    neg = mumford_trivial_semistable((-1,), hyperbolic_action, plane_fan)
    assert neg.locus.faces == _keys([], [0])
    zero = mumford_trivial_semistable((0,), hyperbolic_action, plane_fan)
    assert zero.locus == whole_locus(plane_fan)


def test_mumford_character_scale_invariance(plane_fan, hyperbolic_action):
    a = mumford_trivial_semistable((1,), hyperbolic_action, plane_fan)
    b = mumford_trivial_semistable((5,), hyperbolic_action, plane_fan)
    assert a.locus == b.locus


def test_mumford_requires_affine(p1_fan):
    act = SubtorusAction.from_columns([(1,)], 1)
    with pytest.raises(NotAffine):
        mumford_trivial_semistable((1,), act, p1_fan)


def test_mumford_rejects_wrong_character_length(plane_fan, hyperbolic_action):
    with pytest.raises(ActionError):
        mumford_trivial_semistable((1, 0), hyperbolic_action, plane_fan)


# --- achievable weight cones and chambers -------------------------------

def test_achievable_weight_cones_quadric(quadric_fan, quadric_action):
    k_empty = achievable_weight_cone(frozenset(), quadric_action, quadric_fan)
    assert k_empty == Cone.from_generators(2, [(1, 0), (1, 2)])
    k0 = achievable_weight_cone(frozenset({0}), quadric_action, quadric_fan)
    assert k0 == Cone.from_generators(2, [(1, 1), (1, 2)])
    k2 = achievable_weight_cone(frozenset({2}), quadric_action, quadric_fan)
    assert k2 == Cone.from_generators(2, [(2, 0), (2, 1)])
    top = achievable_weight_cone(frozenset({0, 1, 2, 3}), quadric_action,
                                 quadric_fan)
    assert top.is_zero()


def test_weight_cone_monotone(quadric_fan, quadric_action):
    # bigger face => fewer monomials nonvanishing on its orbit
    cones = {k: achievable_weight_cone(k, quadric_action, quadric_fan)
             for k in quadric_fan.face_keys()}
    for k1, c1 in cones.items():
        for k2, c2 in cones.items():
            if k1 <= k2:
                assert contains_cone(c1, c2)


def test_git_chambers_intro(plane_fan, hyperbolic_action):
    chams = git_chambers(hyperbolic_action, plane_fan)
    assert len(chams) == 3
    by_locus = {tuple(sorted(tuple(sorted(k)) for k in loc.locus.faces)): cone
                for cone, _, loc in chams}
    assert ((), (1,)) in by_locus  # chi > 0 keeps the second chart
    assert ((), (0,)) in by_locus
    assert ((), (0,), (0, 1), (1,)) in by_locus  # chi = 0 keeps everything


def test_git_chambers_quadric(quadric_fan, quadric_action):
    chams = git_chambers(quadric_action, quadric_fan)
    assert len(chams) == 8
    support = achievable_weight_cone(frozenset(), quadric_action, quadric_fan)
    for cone, chi, loc in chams:
        assert contains_cone(support, cone)
        assert cone.contains_point(chi)
        # sampled character reproduces the stored locus
        again = mumford_trivial_semistable(chi, quadric_action, quadric_fan)
        assert again.locus == loc.locus


def test_chamber_loci_constant_on_relint(quadric_fan, quadric_action):
    # second sample deep in each chamber agrees with the stored locus
    for cone, chi, loc in git_chambers(quadric_action, quadric_fan):
        chi2 = tuple(3 * x for x in chi)
        again = mumford_trivial_semistable(chi2, quadric_action, quadric_fan)
        assert again.locus == loc.locus


def test_chambers_match_full_refinement():
    # 200 seeded affine cones of rank 2 or 3 under subtori of dimension 1-2:
    # the GIT fan has the distinct loci of the arrangement's cells, and each
    # cell lies in the GIT cone that has its locus
    split = 0
    for seed in range(200):
        rng = random.Random(7000 + seed)
        fan = random_affine_fan(rng, rng.randint(2, 3))
        act = random_action(rng, fan)
        if act.d == 0:
            act = SubtorusAction.from_columns([random_primitive_vector(
                rng, fan.ambient_rank)], fan.ambient_rank)
        got = git_chambers(act, fan)
        by_locus = {loc.locus: cone for cone, _, loc in got}
        cells = {cell: mumford_trivial_semistable(
            relative_interior_point(cell), act, fan).locus
            for cell in chambers_by_full_refinement(act, fan)}
        assert set(by_locus) == set(cells.values())
        for cell, locus in cells.items():
            assert contains_cone(by_locus[locus], cell)
        for cone, chi, _ in got:
            assert chi == relative_interior_point(cone)
        split += sum(c.dim == act.d for c, _, _ in got) > 1
    assert split > 50  # instances whose character space is really cut


def _affine_instances(count: int):
    """Seeded affine cones of rank 2-4 (some not full-dimensional) under
    subtori of dimension 1-2."""
    for seed in range(count):
        rng = random.Random(f"affine-instance/{seed}")
        fan = random_affine_fan(rng, rng.randint(2, 4), max_rays=5)
        act = random_action(rng, fan)
        if act.d == 0:
            act = SubtorusAction.from_columns([random_primitive_vector(
                rng, fan.ambient_rank)], fan.ambient_rank)
        yield fan, act


def _check_chambers_by_solving(act, fan):
    """Every chamber's locus, certificates included, is the one the chart
    system gives at its sample, and replays through the checker."""
    zero = tuple(0 for _ in fan.rays)
    chams = git_chambers(act, fan)
    for _, chi, loc in chams:
        assert loc == mumford_trivial_semistable(chi, act, fan)
        res = check_locus(fan, [zero], [tuple(-x for x in chi)],
                          act.phi_star_rows(), loc)
        assert res.ok, res.failures
    return chams


def test_chamber_loci_match_chart_solves():
    # membership in the weight cones decides each locus; only its maximal
    # faces are solved, and they must give the chart-by-chart answer
    nonfull = rank4 = chambers = 0
    for fan, act in _affine_instances(250):
        chambers += len(_check_chambers_by_solving(act, fan))
        nonfull += rank_of_rows(list(fan.rays)) < fan.ambient_rank
        rank4 += fan.ambient_rank == 4
    assert nonfull > 30 and rank4 > 30 and chambers > 500


@pytest.mark.parametrize("name", ["P2", "P1xP1", "F1"])
def test_cox_chamber_loci_match_chart_solves(name):
    orthant, act = cox_data(COX_FANS[name][0])
    assert len(_check_chambers_by_solving(act, orthant)) > 1


def test_weight_cones_match_conversion():
    # the slab read off sigma's facets by incidence is the converted one
    for fan, act in _affine_instances(200):
        for key in fan.face_keys():
            assert achievable_weight_cone(key, act, fan) == \
                weight_cone_by_conversion(key, act, fan)


@pytest.mark.parametrize("name, distinct", [("P2", 2), ("P1xP1", 4), ("F1", 8)])
def test_chambers_convert_each_weight_cone_once(monkeypatch, name, distinct):
    # the 8 or 16 faces of the orthant share these few generator sets
    orthant, act = cox_data(COX_FANS[name][0])
    converted = []
    real = Cone.from_generators
    monkeypatch.setattr(Cone, "from_generators", staticmethod(
        lambda *args: converted.append(args) or real(*args)))
    git_chambers(act, orthant)
    assert len(converted) == distinct
    assert len(orthant.face_keys()) == 2 ** len(orthant.rays) > distinct


def test_chamber_loci_are_weight_cone_members():
    for fan, act in _affine_instances(200):
        for _, chi, loc in git_chambers(act, fan):
            assert loc.locus.faces == {
                key for key in fan.face_keys()
                if achievable_weight_cone(key, act, fan).contains_point(chi)}


# --- obstruction reports -------------------------------------------------

def test_obstruction_quadric(quadric_fan, quadric_action, quadric_divisor):
    ss = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                            quadric_fan)
    rep = obstruction_report(ss.locus, quadric_action, quadric_fan)
    assert rep.verdict == "obstructed"
    assert rep.common.is_zero()
    assert dict(rep.weight_cones)[frozenset({0})] == \
        Cone.from_generators(2, [(1, 1), (1, 2)])


def test_obstruction_not_obstructed(plane_fan, hyperbolic_action):
    loc0 = mumford_trivial_semistable((0,), hyperbolic_action, plane_fan)
    rep = obstruction_report(loc0.locus, hyperbolic_action, plane_fan)
    assert rep.verdict == "not-obstructed"


def test_obstruction_realized_at_nonzero_character(plane_fan,
                                                   hyperbolic_action):
    loc = mumford_trivial_semistable((1,), hyperbolic_action, plane_fan)
    rep = obstruction_report(loc.locus, hyperbolic_action, plane_fan)
    # the zero character gives every face, yet chi = 1 realizes the locus
    assert rep.verdict == "not-obstructed"
    assert rep.character != (0,) and rep.locus == loc
    assert mumford_trivial_semistable(rep.character, hyperbolic_action,
                                      plane_fan).locus == loc.locus


def test_obstruction_of_the_empty_locus(plane_fan, hyperbolic_action,
                                        quadric_fan, quadric_action):
    empty = SubfanLocus(frozenset())
    # under the hyperbolic action Omega is the whole line: every
    # character keeps the torus orbit
    rep = obstruction_report(empty, hyperbolic_action, plane_fan)
    assert rep.verdict == "obstructed" and rep.locus.locus.faces
    # the quadric's Omega is a proper cone; a character off it keeps nothing
    rep = obstruction_report(empty, quadric_action, quadric_fan)
    assert rep.verdict == "not-obstructed" and rep.locus.locus == empty
    assert not achievable_weight_cone(frozenset(), quadric_action,
                                      quadric_fan).contains_point(rep.character)
    assert mumford_trivial_semistable(rep.character, quadric_action,
                                      quadric_fan).locus == empty
    assert check_locus(quadric_fan, [(0,) * 4], [vneg(rep.character)],
                       quadric_action.phi_star_rows(), rep.locus).ok


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _git_fan_instances(count: int):
    """`_affine_instances` and the Cox data of P^2, P^1xP^1 and F_1-F_3."""
    yield from _affine_instances(count)
    for name in ("P2", "P1xP1"):
        orthant, act = cox_data(COX_FANS[name][0])
        yield orthant, act
    for a in (1, 2, 3):
        orthant, act = cox_data([(1, 0), (0, 1), (-1, a), (0, -1)])
        yield orthant, act


def test_git_fan_cones_have_one_locus_each():
    # L at other relative interior points (the sample plus a generator, or
    # plus or minus a lineality vector) is the cone's locus, and no two
    # cones share one
    cones = 0
    for fan, act in _git_fan_instances(1000):
        chams = git_chambers(act, fan)
        assert len({loc.locus for _, _, loc in chams}) == len(chams)
        for cone, chi, loc in chams:
            others = [_vadd(chi, g) for g in cone.generators]
            others += [f(chi, l) for l in cone.lineality_basis for f in (_vadd, vsub)]
            for q in others:
                assert mumford_trivial_semistable(q, act, fan).locus == loc.locus
        cones += len(chams)
    assert cones > 2000


def _candidates(loci):
    """The loci, their pairwise unions and intersections, and each locus
    without one maximal face."""
    out = set(loci)
    for a in loci:
        for b in loci:
            out |= {SubfanLocus(a.faces | b.faces), SubfanLocus(a.faces & b.faces)}
        out |= {SubfanLocus(a.faces - {m}) for m in a.maximal_keys()}
    return out


def test_obstruction_matches_git_fan_loci():
    # realizable iff a GIT-fan locus, or empty with Omega a proper cone;
    # both verdicts carry a certified locus at chi that replays
    verdicts = Counter()
    for fan, act in _git_fan_instances(120):
        zero = (0,) * len(fan.rays)
        chams = git_chambers(act, fan)
        loci = {loc.locus for _, _, loc in chams}
        omega = achievable_weight_cone(frozenset(), act, fan)
        for req in _candidates(loci):
            rep = obstruction_report(req, act, fan)
            realizable = req in loci if req.faces else bool(
                omega.facet_normals or omega.span_equalities)
            assert rep.verdict == ("not-obstructed" if realizable else "obstructed")
            assert check_locus(fan, [zero], [vneg(rep.character)],
                               act.phi_star_rows(), rep.locus).ok
            if realizable:
                assert rep.locus.locus == req
            elif req.faces:
                assert rep.common.contains_point(rep.character)
                assert rep.character == relative_interior_point(rep.common)
                assert rep.locus.locus.faces > req.faces
                assert any(key not in req for key, _ in rep.locus.certificates)
            verdicts[rep.verdict] += 1
    assert sum(verdicts.values()) >= 500 and min(verdicts.values()) > 100


def test_obstruction_converts_only_the_maximal_faces_weight_cones(monkeypatch):
    # the weight cones converted are K_gamma of R's maximal faces, in order
    # (Omega alone for the empty R); the rest is lambda_R and one section
    # cone for the chart solve at chi
    from toricgit import cones
    built, dd = [], []
    real_gens = Cone.__dict__["from_generators"].__func__
    real_dd = cones.double_description
    monkeypatch.setattr(Cone, "from_generators", staticmethod(
        lambda *a, **k: built.append(real_gens(*a, **k)) or built[-1]))
    monkeypatch.setattr(cones, "double_description",
                        lambda *a, **k: dd.append(a) or real_dd(*a, **k))
    reports = 0
    for fan, act in _git_fan_instances(40):
        loci = {loc.locus for _, _, loc in git_chambers(act, fan)}
        for req in sorted(_candidates(loci), key=lambda r: r.sorted_keys()):
            fan.face_cone(fan.maximal_keys[0]).facet_normals  # converted once per fan
            expected = [weight_cone_by_conversion(k, act, fan)
                        for k in req.maximal_keys() or [frozenset()]]
            built.clear()
            dd.clear()
            rep = obstruction_report(req, act, fan)
            assert built == expected
            assert [c for _, c in rep.weight_cones] == built[:len(req.maximal_keys())]
            assert len(dd) == len(built) + 2
            reports += 1
    assert reports > 100


def test_heptagon_git_fan_known_answer():
    # Cox data of the toric surface with rays (+-1, 0), (0, +-1), (1, 1),
    # (-1, -1) and (-1, 1): the hyperplane arrangement had 2,774 cells
    orthant, act = cox_data([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, 1),
                             (-1, -1), (0, -1)])
    t0 = time.perf_counter()
    chams = git_chambers(act, orthant)
    elapsed = time.perf_counter() - t0
    assert len(chams) == 432
    assert sum(c.dim == act.d for c, _, _ in chams) == 50
    assert elapsed < 1.0, elapsed


# --- randomized properties ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_locus_q_cartier_and_replays(seed):
    rng = random.Random(seed)
    fan = random_fan(rng)
    act = random_action(rng, fan)
    while True:
        D = random_divisor(rng, fan)
        if any(c != 0 for c in D.coefficients):
            break
    lin = random_linearization(rng, act.d)
    ss = semistable_divisor(D, lin, act, fan)
    # every certified chart carries a positive multiple of D that is
    # principal on it, and every locus face lies under a certified chart
    for key, cert in ss.certificates:
        n = cert.degree[0]
        assert n > 0
        nD = ToricDivisor(tuple(n * a for a in D.coefficients))
        assert is_cartier_on(fan, nD, key) is not None
    for key in ss.locus.faces:
        assert any(key <= chart for chart, _ in ss.certificates)
    phi_cols = [tuple(act.phi.matrix.entries[j][i] for j in range(fan.ambient_rank))
                for i in range(act.d)]
    res = check_locus(fan, [D.coefficients], list(lin.shifts) or [()],
                      phi_cols, ss)
    assert res.ok, res.failures


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_locus_equivariant_under_lattice_automorphism(seed):
    rng = random.Random(seed)
    fan = random_fan(rng)
    act = random_action(rng, fan)
    while True:
        D = random_divisor(rng, fan)
        if any(c != 0 for c in D.coefficients):
            break
    lin = random_linearization(rng, act.d)
    ss = semistable_divisor(D, lin, act, fan)

    from toricgit.fans import validate_fan
    U = random_unimodular(rng, fan.ambient_rank)
    new_rays = [tuple(vdot(row, v) for row in U) for v in fan.rays]
    fan2 = validate_fan(fan.ambient_rank, new_rays,
                        [list(c) for c in fan.maximal_cones])
    cols = [tuple(vdot(row,
                       tuple(act.phi.matrix.entries[j][i]
                             for j in range(fan.ambient_rank)))
                  for row in U)
            for i in range(act.d)]
    if act.d:
        act2 = SubtorusAction.from_columns(cols, fan.ambient_rank)
    else:
        act2 = act
    ss2 = semistable_divisor(D, lin, act2, fan2)
    assert ss.locus.faces == ss2.locus.faces
