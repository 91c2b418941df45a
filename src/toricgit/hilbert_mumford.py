"""Hilbert-Mumford machinery for linear torus actions.

Points of an ambient affine space are abstracted to support patterns
(which coordinates are nonzero); for a torus action both semistability
and limits along one-parameter subgroups depend only on the support.
cross_validate embeds an affine toric chart via the Hilbert basis of the
extended section cone and checks that ambient instability matches
exclusion from the toric semistable locus.  hilbert_basis enumerates the
candidates in the zonotope box of the cone's generators and reduces them
degree by degree, each against the irreducibles of lower degree only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .actions import Linearization, SubtorusAction, semistable_divisor
from .cones import Cone, FeasibilitySystem, feasible_strict
from .fans import Fan, FaceKey, ToricDivisor
from .intlinalg import Vec, vdot


class HilbertBasisTooLarge(Exception):
    pass


@dataclass(frozen=True)
class LinearAction:
    """Diagonal torus action on K^n with weight w_i on coordinate i."""

    weights: tuple[Vec, ...]

    def __post_init__(self):
        dims = {len(w) for w in self.weights}
        if len(dims) > 1:
            raise ValueError("weight vectors have mixed dimensions")

    @property
    def d(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PointPattern:
    """Support of a point: the set of nonzero coordinate indices (0-based)."""

    support: frozenset

    @staticmethod
    def of(indices) -> "PointPattern":
        return PointPattern(frozenset(int(i) for i in indices))


def limit(lam: Sequence[int], p: PointPattern, act: LinearAction) -> Optional[PointPattern]:
    """lim_{t->0} lambda(t).z for any z with the given support: exists iff
    every supported weight pairs >= 0 with lambda; the limit keeps the
    coordinates pairing to zero."""
    pairings = {i: vdot(lam, act.weights[i]) for i in p.support}
    if any(v < 0 for v in pairings.values()):
        return None
    return PointPattern(frozenset(i for i, v in pairings.items() if v == 0))


def destabilize(p: PointPattern, target: Callable[[PointPattern], bool],
                act: LinearAction) -> Optional[Vec]:
    """One-parameter subgroup lambda whose limit of p exists and lands in
    the target, or None.  Candidate limit supports are enumerated and
    each gives a strict/weak cone feasibility over lambda."""
    supp = sorted(p.support)
    for size in range(len(supp) + 1):
        for sub in itertools.combinations(supp, size):
            t = frozenset(sub)
            if not target(PointPattern(t)):
                continue
            eqs = tuple(act.weights[i] for i in sorted(t))
            strict = tuple(act.weights[i] for i in supp if i not in t)
            lam = feasible_strict(FeasibilitySystem(act.d, eqs, (), strict))
            if lam is not None:
                return lam
    return None


def _box_ranges(generators: Sequence[Vec], ambient: int):
    lo = [sum(min(0, g[j]) for g in generators) for j in range(ambient)]
    hi = [sum(max(0, g[j]) for g in generators) for j in range(ambient)]
    return lo, hi


def hilbert_basis(c: Cone, max_points: int = 200000) -> list[Vec]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed rational cone.

    Every irreducible element is a Caratheodory combination sum t_i g_i
    with all t_i < 1 (otherwise subtracting a generator stays in the
    cone), hence lies in the fundamental zonotope box of the generators;
    candidates are enumerated there and reduced degree by degree.

    The degree of a point p of the cone is the sum of its facet values
    <u, p>.  On a pointed cone it is positive off the origin: a point on
    every facet lies in the lineality space, which is 0.  For p, q in the
    cone, p - q lies in the cone iff every facet value of p is at least
    that of q, and then q has the lower degree unless p = q.  So one pass
    over the candidates by increasing degree keeps p unless it dominates
    a point already kept.  That is the set of irreducibles: if p = q' + r
    with q', r nonzero, some irreducible summand q of q' lies in the box,
    was kept before p, and p - q = (q' - q) + r is in the cone."""
    if c.lineality_rank != 0:
        raise ValueError("Hilbert basis requires a pointed cone")
    gens = list(c.generators)
    if not gens:
        return []
    ambient = c.ambient_rank
    lo, hi = _box_ranges(gens, ambient)
    count = 1
    for a, b in zip(lo, hi):
        count *= (b - a + 1)
        if count > max_points:
            raise HilbertBasisTooLarge(
                f"candidate box has more than {max_points} points")
    candidates = []
    for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if any(x != 0 for x in p) and c.contains_point(p):
            values = tuple(vdot(u, p) for u in c.facet_normals)
            candidates.append((sum(values), p, values))
    candidates.sort()
    kept = []
    for _, p, values in candidates:
        if not any(all(a >= b for a, b in zip(values, w)) for _, w in kept):
            kept.append((p, values))
    return sorted(p for p, _ in kept)


@dataclass(frozen=True)
class AmbientModel:
    """Coordinates = Hilbert basis of the extended section cone
    {(u, n) : n >= 0, <u, v_rho> + n a_rho >= 0} in M x Z; the toric chart
    embeds equivariantly with weight (phi_star(u) + n shift, n) on the
    coordinate (u, n)."""

    basis: tuple[Vec, ...]          # elements (u, n) of M x Z
    action: LinearAction            # weights in Z^(d+1)
    patterns: tuple[tuple[FaceKey, PointPattern], ...]

    def pattern_for(self, key: FaceKey) -> PointPattern:
        for k, p in self.patterns:
            if k == key:
                return p
        raise KeyError(sorted(key))


def ambient_model(fan: Fan, action: SubtorusAction, D: ToricDivisor,
                  lin: Linearization, max_points: int = 200000) -> AmbientModel:
    from .actions import _require_affine, _single_shift

    _require_affine(fan)
    n = fan.ambient_rank
    shift = _single_shift(lin, action.d)
    ineqs = [tuple(v) + (a,) for v, a in zip(fan.rays, D.coefficients)]
    ineqs.append(tuple(0 for _ in range(n)) + (1,))
    cd = Cone.from_inequalities(n + 1, ineqs)
    hb = hilbert_basis(cd, max_points)
    weights = []
    for h in hb:
        u, deg = h[:n], h[n]
        w = list(action.phi_star(u))
        for t in range(action.d):
            w[t] += deg * shift[t]
        weights.append(tuple(w) + (deg,))
    act = LinearAction(tuple(weights))

    patterns = []
    for key in fan.face_keys():
        supp = []
        for i, h in enumerate(hb):
            u, deg = h[:n], h[n]
            if all(vdot(u, fan.rays[r]) + deg * D.coefficients[r] == 0
                   for r in sorted(key)):
                supp.append(i)
        patterns.append((key, PointPattern(frozenset(supp))))
    return AmbientModel(tuple(hb), act, tuple(patterns))


def ambient_semistable(p: PointPattern, act: LinearAction) -> bool:
    """True iff some invariant monomial in the supported coordinates has
    positive degree: a nonnegative combination of supported weights with
    vanishing character part and positive degree part (the last slot)."""
    supp = sorted(p.support)
    if not supp:
        return False
    dim = len(supp)
    d = act.d - 1
    eqs = [tuple(act.weights[i][t] for i in supp) for t in range(d)]
    strict = [tuple(act.weights[i][d] for i in supp)]
    weak = [tuple(1 if j == pos else 0 for j in range(dim))
            for pos in range(dim)]
    sys = FeasibilitySystem(dim, tuple(eqs), tuple(weak), tuple(strict))
    return feasible_strict(sys) is not None


@dataclass(frozen=True)
class CrossValidation:
    model: AmbientModel
    per_face: tuple[tuple[FaceKey, bool, bool], ...]  # (face, toric, ambient)
    agrees: bool


def cross_validate(fan: Fan, action: SubtorusAction, D: ToricDivisor,
                   lin: Linearization, max_points: int = 200000) -> CrossValidation:
    """Check face by face that ambient (Hilbert-Mumford) semistability in
    the coordinate model agrees with membership in the toric semistable
    locus.

    The comparison presumes that D is Q-Cartier on the chart.  Then every
    invariant section s of some nD has an affine non-vanishing set X_s (a
    principal open set), so a point is ambient-semistable exactly when the
    toric locus contains it.  Otherwise a section whose zero rays are not
    a face has a non-affine X_s: the toric locus rejects it, as the
    definition of semistability asks, but the ambient model counts it and
    the two may disagree."""
    model = ambient_model(fan, action, D, lin, max_points)
    toric = semistable_divisor(D, lin, action, fan)
    rows = []
    ok = True
    for key in fan.face_keys():
        t = key in toric.locus
        a = ambient_semistable(model.pattern_for(key), model.action)
        rows.append((key, t, a))
        ok = ok and (t == a)
    return CrossValidation(model, tuple(rows), ok)
