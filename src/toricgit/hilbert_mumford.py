"""Hilbert-Mumford machinery for linear torus actions.

Points of an ambient affine space are abstracted to support patterns
(which coordinates are nonzero); for a torus action both semistability
and limits along one-parameter subgroups depend only on the support.
cross_validate embeds an affine toric chart via the Hilbert basis of the
extended section cone and checks that ambient instability matches
exclusion from the toric semistable locus.

hilbert_basis is output-sensitive (Bruns-Koch 2001): every irreducible
element of the cone is a generator or lies in the fundamental
parallelepiped of a simplicial piece of a pulling triangulation, so those
points are the only candidates, each piece's enumerated as a finite group
in facet-value coordinates.  They are reduced degree by degree, each
against the irreducibles of lower degree only.  The zonotope box of the
generators holds every parallelepiped; its point count remains only as
the max_points admission rule, so the budget admits the same inputs as
when the box was walked.  ambient_semistable reads every support pattern
off the extreme rays of one invariant cone per action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .actions import Linearization, SubtorusAction, semistable_divisor
from .cones import Cone, double_description, relative_interior_point
from .fans import Fan, FaceKey, ToricDivisor, section_cone
from .intlinalg import IntMatrix, Vec, det, kernel_basis, primitive, vdot, vneg


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

    @cached_property
    def invariant_supports(self) -> tuple[frozenset, ...]:
        """Supports of the extreme rays of positive degree (the last weight
        slot) of the invariant cone {x >= 0 : the character part of
        sum x_i w_i is 0}, from one conversion."""
        deg = self.d - 1
        rays, _ = double_description(
            self.n, IntMatrix.identity(self.n).entries,
            [tuple(w[t] for w in self.weights) for t in range(deg)])
        return tuple(frozenset(i for i, x in enumerate(r) if x) for r in rays
                     if sum(x * w[deg] for x, w in zip(r, self.weights)) > 0)


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
    the target, or None.  The limit exists iff lambda lies in the cone
    {<w_i, lambda> >= 0 : i in p's support} and keeps the coordinates whose
    forms vanish at lambda, so a candidate support t is realized iff the
    relative_interior_point of t's face is positive on the other forms:
    at most one conversion per call, made at the first candidate the
    target accepts, and each candidate read off it by incidence."""
    supp = sorted(p.support)
    cone = None
    for size in range(len(supp) + 1):
        for sub in itertools.combinations(supp, size):
            if not target(PointPattern(frozenset(sub))):
                continue
            if cone is None:
                cone = Cone.from_inequalities(act.d, [act.weights[i] for i in supp])
            lam = relative_interior_point(cone, [act.weights[i] for i in sub])
            if all(vdot(act.weights[i], lam) > 0 for i in supp if i not in sub):
                return lam
    return None


def _box_ranges(generators: Sequence[Vec], ambient: int):
    lo = [sum(min(0, g[j]) for g in generators) for j in range(ambient)]
    hi = [sum(max(0, g[j]) for g in generators) for j in range(ambient)]
    return lo, hi


def _pulling_pieces(c: Cone) -> list[tuple[Vec, ...]]:
    """Generators of the simplicial cones of a pulling triangulation of
    the pointed cone c, read off its generator-facet incidence.

    A face is keyed by the set of generators on it.  The facets of a face
    S are the largest proper sets S & F over the facets F of c, and S is
    the union of the cones from its first generator v over its facets
    that miss v.  A face of dimension d with d generators is simplicial."""
    gens = c.generators
    on_facet = [frozenset(i for i, g in enumerate(gens) if vdot(u, g) == 0)
                for u in c.facet_normals]

    def pull(face: frozenset, d: int) -> list[frozenset]:
        if len(face) == d:
            return [face]
        v = min(face)
        cuts = {face & f for f in on_facet} - {face}
        return [piece | {v} for t in cuts
                if v not in t and not any(t < s for s in cuts)
                for piece in pull(t, d - 1)]

    return [tuple(gens[i] for i in sorted(piece))
            for piece in pull(frozenset(range(len(gens))), c.dim)]


def _parallelepiped(gens: Sequence[Vec], basis: Sequence[Vec],
                    cols: Sequence[int]) -> list[Vec]:
    """Nonzero lattice points sum t_i g_i, 0 <= t_i < 1, of the simplicial
    cone on gens, where basis is a lattice basis of the cone's span and
    the coordinates cols map that span isomorphically.

    On those coordinates the form u_i(x) = det(g_1, .., x, .., g_k), with
    x in slot i, vanishes on every generator but g_i, so a point x of the
    span has t_i = u_i(x) / h_i with h_i = u_i(g_i).  The facet values
    x -> (u_i(x) mod h_i) map the lattice onto its quotient by the
    generators, with one residue vector per parallelepiped point.  That
    group is generated by the images of the basis and walked from 0,
    carrying each point reduced into the parallelepiped: |det| points in
    full dimension, with no inversion and no fractions."""
    rows = [[g[j] for j in cols] for g in gens]
    k = len(rows)
    units = [[int(j == m) for j in range(k)] for m in range(k)]
    forms = []
    for i, row in enumerate(rows):
        u = primitive([det(rows[:i] + [e] + rows[i + 1:]) for e in units])
        forms.append(u if vdot(u, row) > 0 else vneg(u))
    heights = [vdot(u, row) for u, row in zip(forms, rows)]
    steps = [(b, [vdot(u, [b[j] for j in cols]) for u in forms]) for b in basis]
    zero = (0,) * k
    points = {zero: (0,) * len(gens[0])}
    queue = [zero]
    for r in queue:
        p = points[r]
        for b, beta in steps:
            s = [x + y for x, y in zip(r, beta)]
            key = tuple(x % h for x, h in zip(s, heights))
            if key not in points:
                carry = [x // h for x, h in zip(s, heights)]
                points[key] = tuple(
                    x + y - sum(t * g[j] for t, g in zip(carry, gens))
                    for j, (x, y) in enumerate(zip(p, b)))
                queue.append(key)
    del points[zero]
    return list(points.values())


def hilbert_basis(c: Cone, max_points: int = 200000) -> list[Vec]:
    """Minimal generating set of the semigroup of lattice points of a
    pointed rational cone.

    Candidates come from a pulling triangulation of c (on its own
    generators; simplicial cones are their own piece).  Each lattice point
    x of c lies in some piece, x = sum t_i g_i with t_i >= 0, and so is
    sum floor(t_i) g_i plus a point of the piece's fundamental
    parallelepiped (all t_i < 1).  If x is irreducible, one of the two
    parts is 0: x is a generator or lies in a parallelepiped.  So the
    generators and the parallelepiped points of the pieces hold every
    irreducible element; they are enumerated by _parallelepiped, with no
    conversion.

    The degree of a point p of the cone is the sum of its facet values
    <u, p>.  On a pointed cone it is positive off the origin: a point on
    every facet lies in the lineality space, which is 0.  For p, q in the
    cone, p - q lies in the cone iff every facet value of p is at least
    that of q, and then q has the lower degree unless p = q.  So one pass
    over the candidates by increasing degree keeps p unless it dominates
    a point already kept.  That is the set of irreducibles: if p = q' + r
    with q', r nonzero, some irreducible summand q of q' is a candidate,
    was kept before p, and p - q = (q' - q) + r is in the cone.

    max_points bounds the points of the zonotope box of the generators,
    sum [min(0, g_j), max(0, g_j)] over the coordinates j, which holds
    every parallelepiped.  That count only admits the input: a box over
    the bound raises HilbertBasisTooLarge before any enumeration, and
    the box itself is never walked."""
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
    if c.span_equalities:
        basis = kernel_basis(IntMatrix.from_rows(
            c.span_equalities, ambient)).basis.entries
    else:
        basis = IntMatrix.identity(ambient).entries
    # the HNF pivots of the basis: coordinates that map the span isomorphically
    cols = [next(j for j, x in enumerate(b) if x) for b in basis]
    candidates = set(gens)
    for piece in _pulling_pieces(c):
        candidates.update(_parallelepiped(piece, basis, cols))
    scored = []
    for p in candidates:
        values = tuple(vdot(u, p) for u in c.facet_normals)
        scored.append((sum(values), p, values))
    scored.sort()
    kept = []
    for _, p, values in scored:
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

    @cached_property
    def _by_key(self) -> dict:
        return dict(self.patterns)

    def pattern_for(self, key: FaceKey) -> PointPattern:
        try:
            return self._by_key[frozenset(key)]
        except KeyError:
            raise KeyError(sorted(key)) from None


def ambient_model(fan: Fan, action: SubtorusAction, D: ToricDivisor,
                  lin: Linearization, max_points: int = 200000) -> AmbientModel:
    from .actions import _require_affine, _single_shift

    _require_affine(fan)
    n = fan.ambient_rank
    shift = _single_shift(lin, action.d)
    cd, forms = section_cone(fan, [(a,) for a in D.coefficients], shared_strict=((1,),))
    hb = hilbert_basis(cd, max_points)
    weights = []
    for h in hb:
        u, deg = h[:n], h[n]
        w = list(action.phi_star(u))
        for t in range(action.d):
            w[t] += deg * shift[t]
        weights.append(tuple(w) + (deg,))
    act = LinearAction(tuple(weights))
    # a face's coordinates are the basis elements its ray forms vanish on
    patterns = [(key, PointPattern(frozenset(
        i for i, h in enumerate(hb) if all(vdot(forms[r], h) == 0 for r in key))))
        for key in fan.face_keys()]
    return AmbientModel(tuple(hb), act, tuple(patterns))


def ambient_semistable(p: PointPattern, act: LinearAction) -> bool:
    """True iff some invariant monomial in the supported coordinates has
    positive degree: a nonnegative combination of supported weights with
    vanishing character part and positive degree part (the last slot).

    Such combinations are the face {x_i = 0 off the support} of the
    invariant cone of act, which is pointed, so they exist iff an extreme
    ray of positive degree has its support in the pattern.  The rays are
    converted once per action (LinearAction.invariant_supports)."""
    return bool(p.support) and any(
        s <= p.support for s in act.invariant_supports)


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
