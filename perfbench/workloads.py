"""The four benchmark workloads: seeded operation streams and their checks.

A workload is a stream of rounds.  Round k of seed s is generated from its
own random.Random("<workload>/<s>/<k>"), so a round does not depend on how
many rounds ran before it, and every round has the same fixed mix of
instance families (only the drawn values change with the seed).  Each
operation has a timed call, which is the engine work a user waits for,
and an untimed check that judges the answer by engine-independent
invariants and textbook known answers, never by stored outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import instances as inst

# failure kinds, one per check.* counter
ERRORS = "errors"
REPLAY = "replay_failed"
KNOWN = "known_answer_failed"
HM = "hm_disagreed"
BUDGET = "budget_exceeded"
KINDS = (ERRORS, REPLAY, KNOWN, HM, BUDGET)


@dataclass(frozen=True)
class Failure:
    """One failed check of an operation.  fatal marks an engine that
    contradicts itself (a certificate it issued does not replay, an input
    error on a valid generated input, an undocumented exception); those
    set the run's `correct` to false.  Wrong answers the engine is known
    to give (ROADMAP item 1, 3g) and exceeded budgets are not fatal: they
    count as failed operations."""

    kind: str
    fatal: bool


@dataclass
class Op:
    family: str
    inputs: str                           # canonical text of the inputs
    call: Callable[[], object]            # timed
    check: Callable[[object], list]       # untimed, returns [Failure]
    on_error: Callable[[BaseException], Failure]


def _fatal_error(exc: BaseException) -> Failure:
    return Failure(ERRORS, True)


def _neg(v):
    return tuple(-x for x in v)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _faces_closure(cones) -> set:
    """Every face key of a simplicial fan given by its maximal cones."""
    out = set()
    for c in cones:
        c = list(c)
        for mask in range(1 << len(c)):
            out.add(frozenset(c[i] for i in range(len(c)) if mask >> i & 1))
    return out


def _replay(engine, fan, divisor_rows, shifts, cols, ss) -> list:
    res = engine.certcheck.check_locus(fan, divisor_rows, shifts, cols, ss)
    return [] if res.ok else [Failure(REPLAY, True)]


# -- Cox data ----------------------------------------------------------

def _signed_permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) * int(j == p) for j in range(n)] for p in perm]


@dataclass(frozen=True)
class CoxData:
    """Cox construction of a complete simplicial fan: the orthant C^r with
    H = ker(Z^r -> N) acting, and an ample class as a character of H.

    Each draw relabels the rays and permutes and flips the basis of H at
    random, so repeated Cox operations do not present identical inputs.
    (A shear in the basis change would also make the inputs larger and the
    operation slower by a varying amount.)"""

    name: str
    rays: tuple
    cones: tuple
    columns: tuple      # basis of H as columns in Z^r
    ample_chi: tuple

    @staticmethod
    def draw(rng: random.Random, name: str) -> "CoxData":
        rays0, cones0 = inst.NAMED_FANS[name]
        perm = list(range(len(rays0)))
        rng.shuffle(perm)                   # new index i holds old ray perm[i]
        where = {old: new for new, old in enumerate(perm)}
        rays = tuple(rays0[old] for old in perm)
        cones = tuple(tuple(sorted(where[i] for i in c)) for c in cones0)
        kernel = inst.integer_kernel(rays)
        u = _signed_permutation(rng, len(kernel))
        cols = tuple(tuple(sum(u[t][s] * kernel[s][i] for s in range(len(kernel)))
                           for i in range(len(rays))) for t in range(len(kernel)))
        a = inst.ample_divisor(rays, cones)
        chi = tuple(_dot(col, a) for col in cols)
        return CoxData(name, rays, cones, cols, chi)

    def problem(self, engine):
        r = len(self.rays)
        fan = engine.fans.validate_fan(r, *inst.orthant(r))
        act = engine.actions.SubtorusAction.from_columns(list(self.columns), r)
        return fan, act

    def expected_locus(self) -> set:
        return _faces_closure(self.cones)

    def inputs(self) -> str:
        return json.dumps([self.name, self.rays, self.columns])


def _cox_quotient_failures(cox: CoxData, ss, q) -> list:
    """Known answer (Cox 1995): at an ample character the quotient of the
    orthant reproduces the fan: the semistable locus is the face set of
    the fan, one chart per maximal cone, the quotient is good, geometric
    and separated, and the quotient projection is g * (ray matrix) with
    g in GL(n, Z)."""
    expected = cox.expected_locus()
    ok = (set(ss.locus.faces) == expected and q is not None
          and sorted(sorted(c.source_key) for c in q.charts)
          == sorted(list(c) for c in cox.cones)
          and q.good and q.geometric and q.separated
          and _is_gl_image(q.charts[0].projection.matrix.entries, cox.rays))
    return [] if ok else [Failure(KNOWN, False)]


def _is_gl_image(proj_rows, rays) -> bool:
    n = len(rays[0])
    if len(proj_rows) != n:
        return False
    idx = inst.unimodular_cone(rays)
    inv = inst.inverse(rays, idx)
    # g = P_B * V_B^-1, with V_B the matrix whose columns are the rays in idx
    g = [[sum(proj_rows[s][idx[k]] * inv[k][t] for k in range(n))
          for t in range(n)] for s in range(n)]
    if any(x.denominator != 1 for row in g for x in row):
        return False
    if abs(inst.det(g)) != 1:
        return False
    return all(_dot(g[s], rays[i]) == proj_rows[s][i]
               for s in range(n) for i in range(len(rays)))


def _cox_chamber_failures(cox: CoxData, chambers) -> list:
    """Known answer (Cox 1995; GKZ): the chambers cover character space
    with disjoint relative interiors, and the locus of the one whose
    relative interior holds the ample class is the fan's face set."""
    chi = cox.ample_chi
    hits = [loc for cone, _, loc in chambers
            if all(_dot(u, chi) > 0 for u in cone.facet_normals)
            and all(_dot(e, chi) == 0 for e in cone.span_equalities)]
    ok = len(hits) == 1 and set(hits[0].locus.faces) == cox.expected_locus()
    return [] if ok else [Failure(KNOWN, False)]


# -- workloads ---------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, engine, workdir: str, spec: dict):
        self.engine = engine
        self.workdir = workdir
        self.spec = spec

    def round(self, seed: int, k: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{k}")
        return self._round(rng, k)

    def _round(self, rng: random.Random, k: int) -> list:
        raise NotImplementedError


class LocusStream(Workload):
    """CLI `semistable --check --json` on fresh problem files, plus King's
    criterion through `trivial-bundle --check`."""

    name = "locus-stream"

    # (rank, ray count) of the affine cones in each round: every count
    # genutil.random_affine_fan keeps in ranks 2-4, except single rays in
    # ranks 3 and 4 and five rays in rank 4.  A fixed count per slot keeps
    # rounds alike in cost.  Five-ray rank-4 cones cost 0.2-0.45 s each,
    # the widest spread of any family: two per round set the tail and made
    # it vary by a quarter between seeds.
    AFFINE = ((2, 1), (2, 2), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))

    def _round(self, rng, k):
        ops = []
        slots = [("affine", n, c) for n, c in self.AFFINE] + \
            [("complete2", 2, None), ("P3", 3, None), ("(P1)^3", 3, None)]
        for fam, n, count in slots:
            for mode in ("divisor", "group"):
                ops.append(self._semistable(rng, fam, n, mode, k, len(ops), count))
        n = 2 + k % 3
        for chi in (1, -1, 0):
            ops.append(self._king(n, chi, k, len(ops)))
        return ops

    def _write(self, data: dict, k: int, i: int) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{k}-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def _cli(self, argv):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.engine.cli.run(argv)
            return code, buf.getvalue()
        return call

    def _semistable(self, rng, fam, n, mode, k, i, count):
        if fam == "affine":
            rays = inst.affine_cone(rng, n, count)
            cones = [list(range(len(rays)))]
        elif fam == "complete2":
            rays, cones = inst.complete_fan2(rng, 3, 6)
        else:
            rays, cones = inst.NAMED_FANS[fam]
        d = rng.randint(0, min(2, n))
        cols = inst.subtorus(rng, n, d)
        D = [rng.randint(-3, 3) for _ in rays]
        while mode == "group" and not any(D):
            D = [rng.randint(-3, 3) for _ in rays]
        shift = [rng.randint(-2, 2) for _ in range(d)]
        data = {"lattice_rank": n, "rays": [list(r) for r in rays],
                "cones": cones, "action": [list(c) for c in cols],
                "divisors": {"D": D}, "shifts": {"D": shift}, "group": ["D"]}
        path = self._write(data, k, i)
        flag = ["--divisor", "D"] if mode == "divisor" else ["--group", "G"]
        argv = ["semistable", path, *flag, "--check", "--json"]
        label = f"affine{n}-{count}rays" if fam == "affine" else fam
        return Op(f"{label}-{mode}", json.dumps([data, flag]), self._cli(argv),
                  lambda out: self._check(out, None), _fatal_error)

    def _king(self, n, chi, k, i):
        rays, cones = inst.orthant(n)
        data = {"lattice_rank": n, "rays": [list(r) for r in rays],
                "cones": cones, "action": [[1] * n]}
        path = self._write(data, k, i)
        argv = ["trivial-bundle", path, "--character", str(chi), "--check",
                "--json"]
        every = _faces_closure(cones)
        expected = {1: every - {frozenset(range(n))}, -1: set(), 0: every}[chi]
        return Op(f"king-{chi}", json.dumps([n, chi]), self._cli(argv),
                  lambda out: self._check(out, expected), _fatal_error)

    @staticmethod
    def _check(out, expected) -> list:
        code, text = out
        if code == 2:
            return [Failure(ERRORS, True)]
        result = json.loads(text)["result"]
        failures = []
        if not result["check"]["ok"]:
            failures.append(Failure(REPLAY, True))
        if expected is not None and \
                {frozenset(f) for f in result["faces"]} != expected:
            failures.append(Failure(KNOWN, False))
        return failures


class QuotientCharts(Workload):
    """semistable_divisor / semistable_group followed by build_quotient (the
    `quotient` command path, in process) on multi-chart complete fans, plus
    the Cox data of small smooth projective fans at an ample character."""

    name = "quotient-charts"
    COX = ("P1", "P2", "P3", "P1xP1", "F1")

    def _round(self, rng, k):
        ops = []
        fams = ["P2", f"F{rng.randint(0, 3)}", "complete2", "complete2", "P3",
                "(P1)^3"]
        for j, fam in enumerate(fams):
            ops.append(self._random(rng, fam, "divisor" if (j + k) % 2 else "group"))
        for name in self.COX:
            ops.append(self._cox(CoxData.draw(rng, name)))
        return ops

    def _random(self, rng, fam, mode):
        e = self.engine
        if fam == "complete2":
            rays, cones = inst.complete_fan2(rng, 3, 6)
        else:
            rays, cones = inst.NAMED_FANS[fam]
        n = len(rays[0])
        d = rng.randint(1, min(2, n))
        cols = inst.subtorus(rng, n, d)
        D = tuple(rng.randint(-3, 3) for _ in rays)
        while mode == "group" and not any(D):
            D = tuple(rng.randint(-3, 3) for _ in rays)
        shift = tuple(rng.randint(-2, 2) for _ in range(d))

        def call():
            fan = e.fans.validate_fan(n, rays, cones)
            act = e.actions.SubtorusAction.from_columns(cols, n)
            lin = e.actions.Linearization((shift,))
            if mode == "divisor":
                ss = e.actions.semistable_divisor(e.fans.ToricDivisor(D), lin, act, fan)
            else:
                grp = e.fans.DivisorGroup((e.fans.ToricDivisor(D),))
                ss = e.actions.semistable_group(grp, lin, act, fan)
            q = e.quotients.build_quotient(ss, act, fan) if ss.locus.faces else None
            return fan, ss, q

        def check(out):
            fan, ss, _ = out
            return _replay(e, fan, [D], [shift], cols, ss)

        return Op(f"{fam}-{mode}", json.dumps([rays, cols, D, shift, mode]),
                  call, check, _fatal_error)

    def _cox(self, cox: CoxData):
        e = self.engine

        def call():
            fan, act = cox.problem(e)
            ss = e.actions.mumford_trivial_semistable(cox.ample_chi, act, fan)
            q = e.quotients.build_quotient(ss, act, fan) if ss.locus.faces else None
            return fan, ss, q

        def check(out):
            fan, ss, q = out
            zero = tuple(0 for _ in cox.rays)
            return (_replay(e, fan, [zero], [_neg(cox.ample_chi)],
                            cox.columns, ss)
                    + _cox_quotient_failures(cox, ss, q))

        return Op(f"cox-{cox.name}", cox.inputs(), call, check, _fatal_error)


class ChamberSweep(Workload):
    """git_chambers(act, fan), then certificate replay of every sampled
    locus; on Cox data the chamber holding an ample class must give the
    fan's face set."""

    name = "chamber-sweep"
    COX = ("P2", "P1xP1", "F1", "F2", "F3")

    # ray counts of the random cones in each round: the light majority of
    # genutil.random_affine_fan draws in rank 3.  Three and four rays cost
    # anywhere from 0.2 to 0.6 s, a wide band that put the median of a run
    # between clusters; with counts 1 and 2 the median is the P^1xP^1
    # operation and the tail lies among F_1..F_3.
    COUNTS = (1, 2)

    def _round(self, rng, k):
        ops = [self._cox(CoxData.draw(rng, name)) for name in self.COX]
        return ops + [self._random(rng, count) for count in self.COUNTS]

    def _sweep(self, problem, cols, r):
        e = self.engine

        def call():
            fan, act = problem()
            return fan, e.actions.git_chambers(act, fan)

        def replay(out):
            fan, chambers = out
            zero = tuple(0 for _ in range(r))
            failures = []
            for _, chi, loc in chambers:
                failures += _replay(e, fan, [zero], [_neg(chi)], cols, loc)
            return failures
        return call, replay

    def _random(self, rng, count):
        e = self.engine
        rays = inst.affine_cone(rng, 3, count)
        cols = inst.subtorus(rng, 3, 2)

        def problem():
            fan = e.fans.validate_fan(3, rays, [list(range(len(rays)))])
            return fan, e.actions.SubtorusAction.from_columns(cols, 3)

        call, replay = self._sweep(problem, cols, len(rays))
        return Op(f"affine3-{count}rays-d2", json.dumps([rays, cols]), call, replay,
                  _fatal_error)

    def _cox(self, cox: CoxData):
        call, replay = self._sweep(lambda: cox.problem(self.engine),
                                   cox.columns, len(cox.rays))
        return Op(f"cox-{cox.name}", cox.inputs(), call,
                  lambda out: replay(out) + _cox_chamber_failures(cox, out[1]),
                  _fatal_error)


class HMCrossval(Workload):
    """hilbert_mumford.cross_validate on random affine cones of rank 2-3 with
    no full-dimensional filter, under a fixed Hilbert-basis budget B.

    The cones, actions, divisors and shifts are a fixed catalogue, drawn
    once like the other workloads' instances but from a seed of its own;
    every round presents the whole catalogue again, each instance under a
    fresh isomorphism drawn from the benchmark's seed: the rays are
    reordered and the subtorus basis is permuted and its signs flipped,
    and the divisor and shift follow.  An isomorphism changes neither the
    cone's full-dimensionality, nor its Hilbert-basis box, nor the
    mathematics that decides agreement, so every round has the same
    verdicts as the first.  With independent draws per round, a run's
    share of failed operations would depend on how many rounds fit in it,
    and on which draws they met: this engine fails most of them (see
    spec.json)."""

    name = "hm-crossval"
    # (rank, ray count) for every count genutil.random_affine_fan can keep,
    # each with d = 1 and d = 2, except that 4 rays (which genutil keeps
    # least often) get one instance per catalogue pass with d alternating.
    SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3))

    def __init__(self, engine, workdir, spec):
        super().__init__(engine, workdir, spec)
        rng = random.Random(f"{self.name}/catalogue")
        self.catalogue = [
            self._draw(rng, n, count, d)
            for j in range(spec["workloads"][self.name]["catalogue_passes"])
            for n, count, d in [(n, c, d) for n, c in self.SHAPES for d in (1, 2)]
            + [(3, 4, 1 + j % 2)]]

    @staticmethod
    def _draw(rng, n, count, d):
        rays = inst.affine_cone(rng, n, count)
        cols = inst.subtorus(rng, n, d)
        D = tuple(rng.randint(-2, 2) for _ in rays)
        shift = tuple(rng.randint(-2, 2) for _ in range(d))
        return rays, cols, D, shift

    def _round(self, rng, k):
        return [self._op(*_isomorphic(rng, *entry)) for entry in self.catalogue]

    def _op(self, rays, cols, D, shift):
        e = self.engine
        budget = self.spec["hm_budget"]
        n, count, d = len(rays[0]), len(rays), len(cols)

        def call():
            fan = e.fans.validate_fan(n, rays, [list(range(count))])
            act = e.actions.SubtorusAction.from_columns(cols, n)
            return e.hilbert_mumford.cross_validate(
                fan, act, e.fans.ToricDivisor(D),
                e.actions.Linearization((shift,)), max_points=budget)

        def check(cv):
            return [] if cv.agrees else [Failure(HM, False)]

        def on_error(exc):
            if isinstance(exc, e.hilbert_mumford.HilbertBasisTooLarge):
                return Failure(BUDGET, False)
            # documented limitation (ROADMAP 3g, 4d): the section cone of a
            # cone that is not full-dimensional is not pointed
            if isinstance(exc, ValueError) and \
                    "requires a pointed cone" in str(exc):
                return Failure(ERRORS, False)
            return Failure(ERRORS, True)

        return Op(f"affine{n}-{count}rays-d{d}",
                  json.dumps([rays, cols, D, shift]), call, check, on_error)


def _isomorphic(rng, rays, cols, D, shift):
    """An isomorphic copy of an affine GIT problem: the rays reordered (the
    divisor with them), and a signed permutation u of the subtorus basis
    applied to the columns and to the shift (the shift is linear in the
    columns: the weight of m in M is (<m, c_t> + deg * shift_t)_t).

    A signed permutation of the lattice basis would be isomorphic too, but
    it moves the cost of one instance by up to 2.5x (the order in which
    Hilbert-basis candidates are enumerated and reduced changes with it),
    and the heaviest instance's cost then sets latency_tail_ms."""
    perm = list(range(len(rays)))
    rng.shuffle(perm)
    u = _signed_permutation(rng, len(cols))
    return ([rays[i] for i in perm],
            [tuple(sum(u[t][s] * cols[s][i] for s in range(len(cols)))
                   for i in range(len(rays[0]))) for t in range(len(cols))],
            tuple(D[i] for i in perm),
            tuple(_dot(row, shift) for row in u))


WORKLOADS = {w.name: w for w in (LocusStream, QuotientCharts, ChamberSweep,
                                 HMCrossval)}
