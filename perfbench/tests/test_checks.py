"""The benchmark's known-answer checks accept textbook answers and reject
others, so a correct engine is never counted as failing.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import random
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace as NS

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import instances as inst  # noqa: E402
import workloads as wl  # noqa: E402

COX_FANS = ["P1", "P2", "P3", "P1xP1", "F1", "F2", "F3"]


def _draw(name):
    return wl.CoxData.draw(random.Random(name), name)


def _quotient(cox, g):
    """A glued quotient as the textbook gives it: one chart per maximal
    cone, all flags set, projection g * (ray matrix)."""
    n = len(cox.rays[0])
    proj = [[sum(g[s][t] * ray[t] for t in range(n)) for ray in cox.rays]
            for s in range(n)]
    charts = [NS(source_key=frozenset(c), projection=NS(matrix=NS(entries=proj)))
              for c in cox.cones]
    return NS(charts=charts, good=True, geometric=True, separated=True)


def _shear(n, c):
    return [[1 if s == t else (c if t == s + 1 else 0) for t in range(n)]
            for s in range(n)]


@pytest.mark.parametrize("name", COX_FANS)
def test_cox_data_is_the_gale_dual_with_an_ample_class(name):
    cox = _draw(name)
    n, r = len(cox.rays[0]), len(cox.rays)
    assert len(cox.columns) == r - n
    for col in cox.columns:
        assert all(sum(a * ray[t] for a, ray in zip(col, cox.rays)) == 0
                   for t in range(n))
    a = inst.ample_divisor(cox.rays, cox.cones)
    assert inst.is_ample(cox.rays, cox.cones, a)
    assert not inst.is_ample(cox.rays, cox.cones, (0,) * r)


def test_ample_divisor_of_p1xp1_is_positive_on_both_factors():
    rays, cones = inst.NAMED_FANS["P1xP1"]     # rays e1, -e1, e2, -e2
    a = inst.ample_divisor(rays, cones)
    assert a[0] + a[1] > 0 and a[2] + a[3] > 0


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P1xP1", "F1"])
def test_cox_quotient_check(name):
    cox = _draw(name)
    n = len(cox.rays[0])
    ss = NS(locus=NS(faces=frozenset(cox.expected_locus())))
    assert wl._cox_quotient_failures(cox, ss, _quotient(cox, _shear(n, 1))) == []
    doubled = [[2 * x for x in row] for row in _shear(n, 0)]
    assert wl._cox_quotient_failures(cox, ss, _quotient(cox, doubled))
    # the chart rule of ROADMAP item 1 at the seed: the whole orthant,
    # one chart
    everything = frozenset(frozenset(c) for k in range(len(cox.rays) + 1)
                           for c in combinations(range(len(cox.rays)), k))
    one_chart = _quotient(cox, _shear(n, 0))
    one_chart.charts = one_chart.charts[:1]
    assert wl._cox_quotient_failures(cox, NS(locus=NS(faces=everything)),
                                     one_chart)


@pytest.mark.parametrize("name", ["P2", "P1xP1", "F1", "F2", "F3"])
def test_cox_chamber_check(name):
    cox = _draw(name)
    chi = cox.ample_chi
    right = NS(locus=NS(faces=frozenset(cox.expected_locus())))
    wrong = NS(locus=NS(faces=frozenset()))
    inside = NS(facet_normals=(chi,), span_equalities=())
    outside = NS(facet_normals=(tuple(-x for x in chi),), span_equalities=())
    assert wl._cox_chamber_failures(cox, [(outside, chi, wrong),
                                          (inside, chi, right)]) == []
    assert wl._cox_chamber_failures(cox, [(inside, chi, wrong)])
    assert wl._cox_chamber_failures(cox, [(outside, chi, right)])
