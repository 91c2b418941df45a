"""Agreement between the exact engine and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgit.actions import (
    Linearization,
    git_chambers,
    mumford_trivial_semistable,
    semistable_divisor,
    semistable_group,
)
from toricgit.fans import DivisorGroup
from toricgit.oracle import (
    SearchBounds,
    enumerate_witnesses,
    sample_chambers,
    trivial_bundle_locus,
)

from genutil import interior_contains, random_action, random_divisor, random_fan

# bounds that provably saturate the fixtures (checked once, below)
QUADRIC_BOUNDS = SearchBounds(n_max=4, box=16, degree_box=3)
INTRO_BOUNDS = SearchBounds(n_max=2, box=4, degree_box=2)


def _lin0(d):
    return Linearization.canonical(1, d)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(n_max=0)


def test_oracle_matches_engine_quadric(quadric_fan, quadric_action,
                                       quadric_divisor):
    ss = semistable_divisor(quadric_divisor, _lin0(2), quadric_action,
                            quadric_fan)
    got = enumerate_witnesses(list(quadric_fan.rays),
                              list(quadric_fan.face_keys()),
                              [quadric_divisor.coefficients], [(0, 0)],
                              quadric_action.columns, QUADRIC_BOUNDS)
    assert got == ss.locus.faces


def test_oracle_matches_engine_intro(plane_fan, hyperbolic_action, div_z):
    ss = semistable_divisor(div_z, _lin0(1), hyperbolic_action, plane_fan)
    got = enumerate_witnesses(list(plane_fan.rays),
                              list(plane_fan.face_keys()),
                              [div_z.coefficients], [(0,)],
                              hyperbolic_action.columns, INTRO_BOUNDS)
    assert got == ss.locus.faces


def test_oracle_matches_engine_intro_group(plane_fan, hyperbolic_action,
                                           div_z):
    ssg = semistable_group(DivisorGroup((div_z,)), _lin0(1),
                           hyperbolic_action, plane_fan)
    got = enumerate_witnesses(list(plane_fan.rays),
                              list(plane_fan.face_keys()),
                              [div_z.coefficients], [(0,)],
                              hyperbolic_action.columns, INTRO_BOUNDS,
                              group_case=True)
    assert got == ssg.locus.faces


def test_oracle_matches_engine_quadric_group(quadric_fan, quadric_action,
                                             quadric_divisor):
    ssg = semistable_group(DivisorGroup((quadric_divisor,)), _lin0(2),
                           quadric_action, quadric_fan)
    got = enumerate_witnesses(list(quadric_fan.rays),
                              list(quadric_fan.face_keys()),
                              [quadric_divisor.coefficients], [(0, 0)],
                              quadric_action.columns, QUADRIC_BOUNDS,
                              group_case=True)
    assert got == ssg.locus.faces


def test_trivial_bundle_locus_matches_mumford(plane_fan, hyperbolic_action):
    for chi in [(-1,), (0,), (1,), (2,)]:
        got = trivial_bundle_locus(list(plane_fan.rays),
                                   list(plane_fan.face_keys()), chi,
                                   hyperbolic_action.columns,
                                   INTRO_BOUNDS)
        want = mumford_trivial_semistable(chi, hyperbolic_action,
                                          plane_fan).locus.faces
        assert got == want, chi


def test_sample_chambers_consistent_with_chamber_decomposition(
        plane_fan, hyperbolic_action):
    """Every sampled character's oracle locus equals the engine's, and any
    two samples in the relative interior of one chamber agree."""
    chams = git_chambers(hyperbolic_action, plane_fan)
    samples = sample_chambers(list(plane_fan.rays),
                              list(plane_fan.face_keys()),
                              hyperbolic_action.columns, 2, INTRO_BOUNDS)
    by_chamber = {}
    for chi, oracle_locus in samples:
        engine = mumford_trivial_semistable(chi, hyperbolic_action,
                                            plane_fan).locus.faces
        assert oracle_locus == engine, chi
        for idx, (cone, _, _) in enumerate(chams):
            if interior_contains(cone, chi) or (cone.is_zero()
                                               and all(x == 0 for x in chi)):
                by_chamber.setdefault(idx, set()).add(oracle_locus)
    for idx, loci in by_chamber.items():
        assert len(loci) == 1, (idx, loci)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_within_engine_on_random_instances(seed):
    """Bounded search can only under-approximate: every oracle-certified
    face must be engine-semistable, and engine-certified faces whose
    witness fits in the box must be oracle-certified."""
    rng = random.Random(seed)
    fan = random_fan(rng, max_rank=2)
    act = random_action(rng, fan, max_d=1)
    while True:
        D = random_divisor(rng, fan, box=2)
        if any(c != 0 for c in D.coefficients):
            break
    ss = semistable_divisor(D, _lin0(act.d), act, fan)
    bounds = SearchBounds(n_max=2, box=6, degree_box=2)
    got = enumerate_witnesses(list(fan.rays), list(fan.face_keys()),
                              [D.coefficients],
                              [tuple(0 for _ in range(act.d))],
                              act.columns, bounds)
    assert got <= ss.locus.faces
