"""Rational polyhedral cones with exact dual descriptions.

The workhorse is a double description conversion over the integers:
given homogeneous inequalities and equalities we compute a minimal set
of extreme rays plus a lineality basis.  Each ray carries the set of
constraints it is tight on, so adjacency, and with it extremality, is
decided from those sets rather than by re-evaluating every constraint.
A vector the new constraint vanishes on is kept as it is, since its
projection is a positive multiple of it and every stored vector is
primitive; and a pair tight on fewer constraints than the codimension
of a face two above the lineality is never scanned, since such a face
is cut out by the constraints tight on it.  The saturated lineality
lattice is read off the elimination at rank 0, 1 and full rank; only a
rank in between takes a Smith normal form (kernel_basis).
A cone is its canonical generators and lineality basis; its facet
description is one more conversion, run on first read (or kept from the
conversion that built the cone).  A cone built from generators makes
exactly that one conversion: its canonical generators are read off the
generator-facet zero sets.  Faces are cut from the generators by
ray-facet incidence, with no conversion.  Every strict-feasibility
question (is some point of a face positive on given forms?) is answered
by one primitive, relative_interior_point: the sum of the generators on
the face, read by incidence, so a cone converted once answers it for
every face.  Whether two cones meet in a common face is settled by a
separating form built from their facets, and only a pair that no facet
separates is intersected.  Cones are hashable by their generators and
are used as dictionary keys by the fan and quotient layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul, neg
from typing import Optional, Sequence

from .intlinalg import (
    IntMatrix,
    LatticeMap,
    Vec,
    hermite_normal_form,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank_of_rows,
    vdot,
    vneg,
)


def _reduce_mod_rows(v: Sequence[int], hnf_rows: Sequence[Vec]) -> Vec:
    """Canonical representative of v modulo the Q-span of the given HNF
    rows: zero out the pivot coordinates, then clear denominators.
    Positive multiples of v map to positive multiples of the result."""
    if not hnf_rows:
        return tuple(v)
    w = list(v)
    for row in hnf_rows:
        j = next(i for i, x in enumerate(row) if x != 0)
        if w[j] != 0:
            # the HNF pivot row[j] is positive, so this keeps orientation
            p, c = row[j], w[j]
            w = [p * a - c * b for a, b in zip(w, row)]
    return primitive(w)


def _primitive_combination(p: int, v: Vec, c: int, u: Vec) -> Vec:
    """primitive(p.v - c.u), with no helper call per entry."""
    w = [p * x - c * y for x, y in zip(v, u)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _lineality_lattice(ambient: int, spanning: Sequence[Vec],
                       constraints: Sequence[Vec]) -> tuple[Vec, ...]:
    """HNF basis of the saturated lattice of the kernel of `constraints`,
    given primitive vectors spanning that kernel.  It is read off them
    when that is free: the whole space when there is no constraint, else
    no vector at rank 0 and at rank 1 the spanning line's primitive
    vector with a positive leading entry (its HNF).  Distinct such
    vectors mean rank 2 or more, which takes one kernel_basis."""
    if not constraints:
        return IntMatrix.identity(ambient).entries
    lines = {v if next(x for x in v if x) > 0 else tuple(map(neg, v)) for v in spanning}
    if len(lines) <= 1:
        return tuple(lines)
    return kernel_basis(IntMatrix.from_rows(constraints, ambient)).basis.entries


def double_description(
    ambient: int,
    inequalities: Sequence[Sequence[int]],
    equalities: Sequence[Sequence[int]] = (),
) -> tuple[list[Vec], list[Vec]]:
    """Extreme rays and lineality basis of
    {x : a.x >= 0 for all inequalities, b.x = 0 for all equalities}.

    Rays are primitive and minimal modulo the lineality space.  The
    lineality basis is the HNF of the saturated lattice of that space.

    Two invariants keep the work down without changing the result.  A
    lineality vector or ray that the constraint being added vanishes on
    is kept, not projected: every stored vector is primitive, and
    primitive(p.v) = v for primitive v and p > 0.  A pair of rays whose
    common zero set has fewer than ambient - len(lin) - 2 constraints is
    not tested for adjacency: an adjacent pair spans a face of dimension
    len(lin) + 2, which is the cone cut by the constraints tight on it,
    so its span is their kernel and at least that many of them vanish on
    both rays.

    The lineality vectors left at the end are primitive and span the
    lineality space, the kernel of the constraints, so its lattice is
    read off them at rank 0, 1 or full (`_lineality_lattice`)."""
    constraints: list[Vec] = []
    for rows, both_signs in ((equalities, True), (inequalities, False)):
        for a in rows:
            g = gcd(*a)
            if g:
                t = tuple(a) if g == 1 else tuple(x // g for x in a)
                constraints.append(t)
                if both_signs:
                    constraints.append(tuple(map(neg, t)))
    constraints = list(dict.fromkeys(constraints))

    lin: list[Vec] = [(0,) * i + (1,) + (0,) * (ambient - 1 - i) for i in range(ambient)]
    # each ray with its zero set over the constraints handled so far (bitmask)
    rays: dict[Vec, int] = {}

    for k, a in enumerate(constraints):
        bit = 1 << k
        dots = [sum(map(mul, a, l)) for l in lin]
        if any(dots):
            i0 = next(i for i, p in enumerate(dots) if p)
            # lineality drops by one (at most `ambient` times).  With
            # a.l0 > 0 the new cone is (C ∩ a^perp) ⊕ cone(l0), and
            # projecting along l0 maps C ∩ a^perp isomorphically onto
            # C / R.l0, which has the faces of C.  So every projected ray
            # is extreme, and so is l0: the earlier constraints vanish on
            # it and cut out the face lineality + cone(l0).  Projection
            # keeps each ray's zero set and adds k; l0 is tight on all
            # but k.  A vector a vanishes on is its own projection.
            l0, p = lin.pop(i0), dots.pop(i0)
            if p < 0:
                l0, p = tuple(map(neg, l0)), -p
            lin = [_primitive_combination(p, l, c, l0) if c else l for l, c in zip(lin, dots)]
            new = {}
            for r, z in rays.items():
                c = sum(map(mul, a, r))
                if c:
                    r = _primitive_combination(p, r, c, l0)
                if any(r):
                    new[r] = z | bit
            new[l0] = bit - 1
            rays = new
            continue
        vals = [sum(map(mul, a, r)) for r in rays]
        # Rays kept from the larger cone stay extreme in the smaller one.
        # The rays are exactly the extreme rays modulo the lineality, one
        # each, with exact zero sets, so two of them are adjacent iff no
        # third ray is tight on every constraint both are tight on
        # (Fukuda-Prodon 1996), and a new ray is extreme iff it comes
        # from an adjacent pair.
        items = list(zip(rays, rays.values(), vals))
        new = {r: z if v else z | bit for r, z, v in items if v >= 0}
        negative = [t for t in items if t[2] < 0]
        if negative:
            zs = list(rays.values())
            # fewest constraints an adjacent pair is tight on (see docstring)
            tight = ambient - len(lin) - 2
            for rp, zp, vp in items:
                if vp <= 0:
                    continue
                for rn, zn, vn in negative:
                    common = zp & zn
                    # rp and rn are two of the rays tight on all of common
                    if common.bit_count() < tight or sum(
                            1 for z in zs if z & common == common) > 2:
                        continue
                    # a positive combination of rp and rn: tight exactly where both are
                    w = _primitive_combination(vp, rn, vn, rp)
                    if any(w) and w not in new:
                        new[w] = common | bit
        rays = new

    if not lin:
        return sorted(rays), []
    lin_rows = _lineality_lattice(ambient, lin, constraints)
    reduced = (_reduce_mod_rows(r, lin_rows) for r in rays)
    return sorted({r for r in reduced if any(r)}), list(lin_rows)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone, identified by its canonical generators.

    generators/lineality_basis span the cone.  facet_normals together with
    span_equalities cut it out:
    cone = {x : u.x >= 0 for facet normals u, e.x = 0 for span equalities e}.
    Both come from one conversion, kept from the constructor's or run on
    first read, and are then plain instance attributes, as is dim, the
    ambient rank less the number of span equalities.  from_generators
    runs only that conversion and reads the generators off its facets.
    """

    ambient_rank: int
    generators: tuple[Vec, ...]
    lineality_basis: tuple[Vec, ...]

    @cached_property
    def facet_normals(self) -> tuple[Vec, ...]:
        return self._convert()[0]

    @cached_property
    def span_equalities(self) -> tuple[Vec, ...]:
        return self._convert()[1]

    def _convert(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        return self._set_facets(*double_description(
            self.ambient_rank, self.generators, self.lineality_basis))

    def _set_facets(self, normals: Sequence[Vec], dual_lin: Sequence[Vec]):
        """Store both halves of the facet description of one conversion."""
        # the dual's lineality is the orthogonal complement of our span
        facets = tuple(normals), tuple(hermite_normal_form(dual_lin))
        object.__setattr__(self, "facet_normals", facets[0])
        object.__setattr__(self, "span_equalities", facets[1])
        object.__setattr__(self, "dim", self.ambient_rank - len(facets[1]))
        return facets

    @property
    def lineality_rank(self) -> int:
        return len(self.lineality_basis)

    @cached_property
    def dim(self) -> int:
        return rank_of_rows(self.generators + self.lineality_basis)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_generators(ambient: int, generators: Sequence[Sequence[int]],
                        lineality: Sequence[Sequence[int]] = ()) -> "Cone":
        gens = [primitive(tuple(g)) for g in generators if not is_zero_vec(g)]
        lins = [primitive(tuple(l)) for l in lineality if not is_zero_vec(l)]
        # V-to-H, the one conversion: the dual cone of span(lins)+cone(gens)
        # is cut out by the generators; its rays/lineality are our facet
        # description.
        normals, dual_lin = double_description(ambient, gens, lins)
        zero_sets = [frozenset(i for i, u in enumerate(normals) if vdot(u, g) == 0)
                     for g in gens]
        # The lineality space is the kernel of the facet description, and
        # it is spanned by lins and the generators on every facet.
        every = frozenset(range(len(normals)))
        on_every = [g for g, z in zip(gens, zero_sets) if z == every]
        lin_rows = _lineality_lattice(ambient, lins + on_every, normals + dual_lin)
        # The smallest face holding g is cut out by the facets in its zero
        # set and generated by the generators whose zero sets contain it,
        # so g is extreme modulo the lineality iff each of those outside
        # the lineality is a positive multiple of g modulo it.
        reduced = [_reduce_mod_rows(g, lin_rows) for g in gens]
        rays = {r for r, z in zip(reduced, zero_sets)
                if z != every and all(r2 == r for r2, z2 in zip(reduced, zero_sets)
                                      if z <= z2 and z2 != every)}
        cone = Cone(ambient, tuple(sorted(rays)), lin_rows)
        cone._set_facets(normals, dual_lin)
        return cone

    @staticmethod
    def from_inequalities(ambient: int, inequalities: Sequence[Sequence[int]],
                          equalities: Sequence[Sequence[int]] = ()) -> "Cone":
        rays, lin = double_description(ambient, inequalities, equalities)
        return Cone(ambient, tuple(rays), tuple(lin))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators and not self.lineality_basis

    def contains_point(self, x: Sequence[int]) -> bool:
        return (all(vdot(u, x) >= 0 for u in self.facet_normals)
                and all(vdot(e, x) == 0 for e in self.span_equalities))


def dual(c: Cone) -> Cone:
    """{u : u.x >= 0 for all x in c}: generated by c's facet description."""
    return Cone(c.ambient_rank, c.facet_normals, c.span_equalities)


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return Cone.from_inequalities(
        c1.ambient_rank,
        list(c1.facet_normals) + list(c2.facet_normals),
        list(c1.span_equalities) + list(c2.span_equalities),
    )


def meets_in(c1: Cone, c2: Cone, f: Cone) -> bool:
    """intersect(c1, c2) == f, for a cone f that is a face of both.

    By the separation lemma (Cox-Little-Schenck, Lemma 1.2.13) a form m
    that is >= 0 on c1 and <= 0 on c2 cuts a face out of each, and
    c1 ∩ c2 = f once both faces are f.  m is the sum of the facet normals
    and signed span equalities of either cone that are <= 0 on the other's
    generators (negated when they come from c2).  When c1, c2 and f share
    their lineality, every such form vanishes on it, and each face is read
    off the generators m kills.  A pair that no such m separates is
    intersected."""
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    m = (0,) * c1.ambient_rank
    for a, b, sign in ((c1, c2, 1), (c2, c1, -1)):
        for u in a.facet_normals + a.span_equalities + tuple(map(vneg, a.span_equalities)):
            if all(vdot(u, g) <= 0 for g in b.generators):
                m = tuple(x + sign * y for x, y in zip(m, u))
    face = set(f.generators)
    if all(c.lineality_basis == f.lineality_basis
           and {g for g in c.generators if vdot(m, g) == 0} == face for c in (c1, c2)):
        return True
    return intersect(c1, c2) == f


def image(c: Cone, f: LatticeMap) -> Cone:
    if f.source_rank != c.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return Cone.from_generators(
        f.target_rank,
        [f.apply(g) for g in c.generators],
        [f.apply(l) for l in c.lineality_basis],
    )


def faces(c: Cone) -> tuple[Cone, ...]:
    """All faces of c (including c itself and its minimal face), sorted
    by dimension.

    A face is keyed by the set of facets of c containing it and is
    generated by the generators of c lying on all of them (plus the
    lineality).  Keys are walked from c by cutting with one more facet,
    using the generator-facet incidence only; each face is then the cone
    on those generators, with no conversion."""
    zero_sets = [frozenset(i for i, u in enumerate(c.facet_normals)
                           if vdot(u, g) == 0) for g in c.generators]
    every = frozenset(range(len(c.facet_normals)))

    def gens_on(key):
        return [j for j, z in enumerate(zero_sets) if key <= z]

    top = every.intersection(*zero_sets)
    seen = {top}
    queue = [top]
    while queue:
        key = queue.pop()
        below = gens_on(key)
        for i in every - key:
            child = every.intersection(
                *(zero_sets[j] for j in below if i in zero_sets[j]))
            if child not in seen:
                seen.add(child)
                queue.append(child)
    out = [c if key == top else Cone(
        c.ambient_rank, tuple(c.generators[j] for j in gens_on(key)),
        c.lineality_basis) for key in seen]
    out.sort(key=lambda f: (f.dim, f.generators, f.lineality_basis))
    return tuple(out)


def relative_interior_point(c: Cone, tight: Sequence[Vec] = ()) -> Vec:
    """The sum of the generators of c on which every form in tight
    vanishes (0 if there are none).  For forms >= 0 on c it lies in the
    relative interior of the face F they cut out: F's extreme rays modulo
    the lineality are c's generators in F, so a form >= 0 on c is positive
    somewhere on F iff it is positive here.  F shares c's lineality, and a
    conversion reduces rays modulo its HNF, so this is also the sum of F's
    own generators."""
    p = (0,) * c.ambient_rank
    for g in c.generators:
        if all(vdot(u, g) == 0 for u in tight):
            p = tuple(a + b for a, b in zip(p, g))
    return p


@dataclass(frozen=True)
class FeasibilitySystem:
    """Homogeneous system of integer linear forms over a common variable
    space: equalities (= 0), weak inequalities (>= 0), strict (> 0)."""

    dim: int
    equalities: tuple[Vec, ...] = ()
    weak: tuple[Vec, ...] = ()
    strict: tuple[Vec, ...] = ()

    def __post_init__(self):
        for group in (self.equalities, self.weak, self.strict):
            for f in group:
                if len(f) != self.dim:
                    raise ValueError("form length does not match system dimension")

    def satisfied_by(self, x: Sequence[int]) -> bool:
        return (all(vdot(e, x) == 0 for e in self.equalities)
                and all(vdot(w, x) >= 0 for w in self.weak)
                and all(vdot(s, x) > 0 for s in self.strict))


def feasible_strict(sys: FeasibilitySystem) -> Optional[Vec]:
    """Integer witness satisfying all equalities, weak forms, and strictly
    all strict forms, or None.

    Weaken the strict forms, convert once, and replay the system at the
    cone's relative_interior_point: a strict form, >= 0 on the cone, is
    positive somewhere on it iff it is positive there."""
    p = relative_interior_point(Cone.from_inequalities(
        sys.dim, list(sys.weak) + list(sys.strict), list(sys.equalities)))
    return p if sys.satisfied_by(p) else None


def product_feasible_strict(
    shared_dim: int,
    blocks: Sequence[FeasibilitySystem],
    block_dims: Sequence[int],
    shared_strict: Sequence[Vec] = (),
    shared_weak: Sequence[Vec] = (),
) -> Optional[Vec]:
    """Strict feasibility for a block-structured system.

    Each block i has its own variables (block_dims[i] of them) followed by
    the shared variables; its forms live in dimension block_dims[i] +
    shared_dim.  shared_strict/shared_weak are forms over the shared
    variables only.  Returns a full integer witness
    (block_0 vars, block_1 vars, ..., shared vars) or None.

    Lifts every form into all the variables and solves once."""
    own = sum(block_dims)

    def lift(form: Vec, off: int, bd: int) -> Vec:
        return ((0,) * off + tuple(form[:bd]) + (0,) * (own - off - bd)
                + tuple(form[bd:]))

    eqs, weak, strict = [], [], []
    off = 0
    for sysb, bd in zip(blocks, block_dims):
        eqs += [lift(f, off, bd) for f in sysb.equalities]
        weak += [lift(f, off, bd) for f in sysb.weak]
        strict += [lift(f, off, bd) for f in sysb.strict]
        off += bd
    weak += [lift(f, own, 0) for f in shared_weak]
    strict += [lift(f, own, 0) for f in shared_strict]
    return feasible_strict(FeasibilitySystem(
        own + shared_dim, tuple(eqs), tuple(weak), tuple(strict)))
