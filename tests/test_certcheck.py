"""Each failure clause of the certificate checker, reached by one input
that breaks that clause and no other."""

from dataclasses import replace

import pytest

from toricgit.actions import (
    Linearization,
    SemistabilityCertificate,
    SemistableLocus,
    mumford_trivial_semistable,
    semistable_group,
)
from toricgit.certcheck import check_certificate, check_locus
from toricgit.fans import DivisorGroup, SubfanLocus


# The plane with the hyperbolic action and the group of D = (1, 0) and
# the zero divisor.  On the chart {1} the monomial 1 is a section of D
# (it vanishes on ray 1 only), and both basis divisors are principal and
# invertibly realized there by the zero local equation.
PLANE = dict(rays=[(1, 0), (0, 1)], divisor_rows=[(1, 0), (0, 0)],
             shifts=[(0,), (0,)], phi_columns=[(1, -1)])
GROUP_CERT = SemistabilityCertificate(
    chart=frozenset({1}), degree=(1, 0), monomial=(0, 0),
    cartier=((0, 0), (0, 0)),
    invertibles=(((1, 0), (0, 0)), ((0, 1), (0, 0))), group_case=True)


def _check(plane_fan, cert):
    return check_certificate(PLANE["rays"], list(plane_fan.face_keys()),
                             PLANE["divisor_rows"], PLANE["shifts"],
                             PLANE["phi_columns"], cert)


def test_group_certificate_replays(plane_fan):
    assert _check(plane_fan, GROUP_CERT).ok


@pytest.mark.parametrize("change, clause", [
    # one coordinate for a group of two divisors; the missing one is 0,
    # so the section it describes is the same
    (dict(degree=(1,)), "degree-length"),
    (dict(cartier=((0, 0),)), "cartier-witness-count"),
    # both invertible degrees lie on one line
    (dict(invertibles=(((1, 0), (0, 0)), ((2, 0), (0, 0)))), "finite-index"),
])
def test_certificate_clause_fails_alone(plane_fan, change, clause):
    res = _check(plane_fan, replace(GROUP_CERT, **change))
    assert not res.ok
    assert res.failures == (clause,)


@pytest.fixture
def plane_group_locus(plane_fan, hyperbolic_action, div_z):
    """The semistable locus of the group of D = (1, 0): faces {}, {0}, {1},
    each maximal face certified."""
    ss = semistable_group(DivisorGroup((div_z,)), Linearization.canonical(1, 1),
                          hyperbolic_action, plane_fan)
    args = (plane_fan, [div_z.coefficients], [(0,)], [(1, -1)])
    assert check_locus(*args, ss).ok
    return args, ss


def test_locus_face_closed_fails_alone(plane_group_locus):
    args, ss = plane_group_locus
    holed = SemistableLocus(SubfanLocus(ss.locus.faces - {frozenset()}),
                            ss.certificates)
    res = check_locus(*args, holed)
    assert not res.ok
    assert set(res.failures) == {"locus-face-closed"}


def test_maximal_face_certified_fails_alone(plane_group_locus):
    args, ss = plane_group_locus
    dropped = SemistableLocus(ss.locus, tuple(
        (k, c) for k, c in ss.certificates if k != frozenset({1})))
    res = check_locus(*args, dropped)
    assert not res.ok
    assert res.failures == ("maximal-face-certified",)


def test_locus_face_exists_fails_alone(quadric_fan, quadric_action):
    """{0, 2} is a diagonal of the quadric's square cone, not a face.  Put
    under the certified maximal face of the trivial character's locus, it
    breaks neither face-closedness nor certification."""
    ss = mumford_trivial_semistable((0, 0), quadric_action, quadric_fan)
    args = (quadric_fan, [(0, 0, 0, 0)], [(0, 0)], [(2, 1, 1), (0, 2, 1)])
    assert check_locus(*args, ss).ok
    diagonal = frozenset({0, 2})
    assert diagonal not in quadric_fan.face_keys()
    bogus = SemistableLocus(SubfanLocus(ss.locus.faces | {diagonal}),
                            ss.certificates)
    res = check_locus(*args, bogus)
    assert not res.ok
    assert res.failures == ("locus-face-exists",)
