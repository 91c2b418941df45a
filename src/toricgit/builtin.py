"""Built-in worked examples and their end-to-end verification.

Two instances ship with the engine: a singular affine quadric cone in
rank 3 with a two-torus acting through weights (2,1,1) and (0,2,1), and
the plane with the hyperbolic one-torus action t.(z,w) = (tz, t^-1 w).
verify_examples replays every published outcome for them and reports
each comparison individually.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (
    git_chambers,
    obstruction_report,
    semistable_divisor,
    semistable_group,
)
from .fans import SubfanLocus, class_group
from .hilbert_mumford import cross_validate
from .intlinalg import primitive
from .problemfile import Problem, parse_problem
from .quotients import build_quotient, quotient_projection


def quadric_problem_data() -> dict:
    return {
        "lattice_rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 1]],
        "cones": [[0, 1, 2, 3]],
        "action": [[2, 1, 1], [0, 2, 1]],
        "divisors": {"Dss": [-1, 0, 4, 7], "D1": [1, 0, 0, 0]},
        "group": {"ZDss": ["Dss"], "L1": ["D1"]},
    }


def intro_problem_data() -> dict:
    return {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1]],
        "cones": [[0, 1]],
        "action": [[1, -1]],
        "divisors": {"D": [1, 0]},
        "group": {"ZD": ["D"]},
    }


def quadric_problem() -> Problem:
    return parse_problem(quadric_problem_data())


def intro_problem() -> Problem:
    return parse_problem(intro_problem_data())


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    expected: str
    actual: str


def _keyset(*index_lists):
    return frozenset(frozenset(ix) for ix in index_lists)


def _fmt_locus(locus: SubfanLocus) -> str:
    return str([sorted(k) for k in locus.sorted_keys()])


def verify_examples() -> list[Check]:
    checks: list[Check] = []

    def record(name, passed, expected, actual):
        checks.append(Check(name, bool(passed), str(expected), str(actual)))

    # ---- hyperbolic action on the plane ----
    p = intro_problem()
    fan, act = p.fan, p.action
    D = p.divisor("D")
    lin = p.linearization_for("D")
    ss = semistable_divisor(D, lin, act, fan)
    want = _keyset([], [1])
    record("intro-ss-divisor", ss.locus.faces == want,
           "{[], [1]}", _fmt_locus(ss.locus))

    q = build_quotient(ss, act, fan)
    record("intro-quotient-affine-line",
           len(q.charts) == 1 and q.charts[0].image.generators in (((1,),), ((-1,),))
           and q.good and q.geometric and q.separated,
           "single ray chart, good/geometric/separated",
           f"{len(q.charts)} charts, good={q.good} geometric={q.geometric} "
           f"separated={q.separated}")

    grp, glin = p.group("ZD")
    ssg = semistable_group(grp, glin, act, fan)
    wantg = _keyset([], [0], [1])
    record("intro-ss-group", ssg.locus.faces == wantg,
           "{[], [0], [1]}", _fmt_locus(ssg.locus))
    record("intro-strict-inclusion", ss.locus.faces < ssg.locus.faces,
           "X^ss(D) strictly inside X^ss(ZD)",
           f"{_fmt_locus(ss.locus)} vs {_fmt_locus(ssg.locus)}")

    qg = build_quotient(ssg, act, fan)
    images = sorted(c.image.generators for c in qg.charts)
    record("intro-quotient-doubled-line",
           len(qg.charts) == 2 and images[0] == images[1]
           and qg.good and not qg.separated,
           "two charts on one ray, good, not separated",
           f"{len(qg.charts)} charts {images}, good={qg.good} "
           f"separated={qg.separated}")

    cv = cross_validate(fan, act, D, lin)
    record("intro-cross-validate", cv.agrees, "ambient/toric agreement",
           str([(sorted(k), t, a) for k, t, a in cv.per_face if t != a]))

    # ---- quadric cone ----
    p2 = quadric_problem()
    fan2, act2 = p2.fan, p2.action
    Dss = p2.divisor("Dss")
    lin2 = p2.linearization_for("Dss")
    ss2 = semistable_divisor(Dss, lin2, act2, fan2)
    want2 = _keyset([], [0], [2])
    record("quadric-ss-locus", ss2.locus.faces == want2,
           "{[], [0], [2]}", _fmt_locus(ss2.locus))

    q2 = build_quotient(ss2, act2, fan2)
    images2 = {c.image.generators for c in q2.charts}
    record("quadric-quotient-p1",
           images2 == {((1,),), ((-1,),)} and q2.good and q2.geometric
           and q2.separated,
           "complete rank-1 fan, good/geometric/separated",
           f"images {sorted(images2)}, good={q2.good} geometric={q2.geometric} "
           f"separated={q2.separated}")

    pi, torsion = quotient_projection(act2)
    row = primitive(pi.matrix.entries[0])
    comp = [pi.apply(col) for col in act2.columns]
    record("quadric-projection",
           row in ((1, 2, -4), (-1, -2, 4)) and all(c == (0,) for c in comp)
           and torsion == (),
           "pi ~ (1,2,-4), pi.phi = 0, no torsion",
           f"pi = {pi.matrix.entries}, pi.phi = {comp}, torsion = {torsion}")

    rep = obstruction_report(ss2.locus, act2, fan2)
    k1 = dict(rep.weight_cones)[frozenset([0])]
    k3 = dict(rep.weight_cones)[frozenset([2])]
    from .cones import Cone
    record("quadric-obstruction",
           rep.verdict == "obstructed" and rep.common.is_zero()
           and k1 == Cone.from_generators(2, [(1, 1), (1, 2)])
           and k3 == Cone.from_generators(2, [(2, 0), (2, 1)]),
           "K cones ((1,1),(1,2)) and ((2,0),(2,1)) meeting in 0, obstructed",
           f"K1={k1.generators} K3={k3.generators} common={rep.common.generators} "
           f"verdict={rep.verdict}")

    chams = git_chambers(act2, fan2)
    record("quadric-no-chamber-matches",
           all(loc.locus.faces != want2 for _, _, loc in chams) and len(chams) > 0,
           "no chamber locus equals the semistable locus",
           f"{len(chams)} chambers")

    cg = class_group(fan2)
    record("quadric-class-group",
           cg.cl_rank == 1 and cg.cl_torsion == () and cg.pic_rank == 0,
           "Cl = Z, Pic = 0",
           f"Cl rank {cg.cl_rank} torsion {cg.cl_torsion} Pic rank {cg.pic_rank}")

    cv2 = cross_validate(fan2, act2, Dss, lin2)
    record("quadric-cross-validate", cv2.agrees, "ambient/toric agreement",
           str([(sorted(k), t, a) for k, t, a in cv2.per_face if t != a]))

    return checks
