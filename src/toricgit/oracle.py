"""Brute-force reference implementations for testing.

Everything here works on plain integer data (ray tuples, face keys as
index sets, coefficient rows) by bounded exhaustive enumeration, checking
the raw semistability clauses directly.  This module intentionally
imports nothing from the cone/feasibility engine so that agreement
between the two is meaningful evidence; its dot product and rank are
those of certcheck, the other engine-free module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .certcheck import _dot, _rank


@dataclass(frozen=True)
class SearchBounds:
    n_max: int = 3
    box: int = 8
    degree_box: int = 3

    def __post_init__(self):
        if self.n_max <= 0 or self.box <= 0 or self.degree_box <= 0:
            raise ValueError("bounds must be positive")


def _box_vectors(dim: int, box: int):
    return itertools.product(range(-box, box + 1), repeat=dim)


def _cartier_witness(rays, a_coeffs, key, box: int) -> Optional[tuple]:
    """m with <m, v_i> = -a_i on the key's rays, searched in a box."""
    n = len(rays[0]) if rays else 0
    idx = sorted(key)
    if not idx:
        return tuple(0 for _ in range(n))
    for m in _box_vectors(n, box):
        if all(_dot(m, rays[i]) == -a_coeffs[i] for i in idx):
            return m
    return None


def _phi_star(phi_columns, u):
    # phi_columns: d vectors in Z^n; phi_star(u)_i = <column_i, u>
    return tuple(_dot(col, u) for col in phi_columns)


def _chart_monomial_ok(key, candidates) -> bool:
    """Does one candidate monomial witness the chart?  Each candidate is
    a precomputed zero-pattern vector b (already known to be nonnegative
    with zero weight); the chart needs one b that is zero on the rays of
    the key and positive off them."""
    return any(all((x == 0) == (j in key) for j, x in enumerate(b))
               for b in candidates)


def enumerate_witnesses(rays: Sequence[tuple], face_keys: Sequence[frozenset],
                        divisor_rows: Sequence[tuple],
                        shifts: Sequence[tuple],
                        phi_columns: Sequence[tuple],
                        bounds: SearchBounds,
                        group_case: bool = False) -> frozenset:
    """Inner approximation of the semistable locus by bounded search.

    divisor_rows: k rows of per-ray coefficients (k = 1 for a single
    divisor); shifts: k character vectors; phi_columns: d one-parameter
    subgroups spanning the acting torus.  Returns the face-closed set of
    certified keys.
    """
    n = len(rays[0]) if rays else 0
    k = len(divisor_rows)
    d = len(phi_columns)
    r = len(rays)

    if group_case:
        degrees = [m for m in itertools.product(
            range(-bounds.degree_box, bounds.degree_box + 1), repeat=k)]
    else:
        degrees = [(deg,) for deg in range(1, bounds.n_max + 1)]

    # precompute, per degree, the zero patterns of all invariant sections
    patterns_by_degree = {}
    for m in degrees:
        a = [sum(m[i] * divisor_rows[i][j] for i in range(k)) for j in range(r)]
        shift = tuple(sum(m[i] * shifts[i][t] for i in range(k))
                      for t in range(d))
        pats = []
        for u in _box_vectors(n, bounds.box):
            if _phi_star(phi_columns, u) != tuple(-s for s in shift):
                continue
            b = tuple(_dot(u, rays[j]) + a[j] for j in range(r))
            if all(x >= 0 for x in b):
                pats.append(b)
        patterns_by_degree[m] = (a, pats)

    passing = []
    for key in face_keys:
        found = False
        for m in degrees:
            a, pats = patterns_by_degree[m]
            if not _chart_monomial_ok(key, pats):
                continue
            if group_case:
                if any(_cartier_witness(rays, row, key, bounds.box) is None
                       for row in divisor_rows):
                    continue
                if not _finite_index(rays, divisor_rows, shifts, phi_columns,
                                     key, bounds):
                    continue
            else:
                # the same multiple n*D realizing the section must be
                # principal on the chart
                if _cartier_witness(rays, a, key, bounds.box) is None:
                    continue
            found = True
            break
        if found:
            passing.append(key)
    closed = set()
    for key in passing:
        for other in face_keys:
            if other <= key:
                closed.add(other)
    return frozenset(closed)


def _finite_index(rays, divisor_rows, shifts, phi_columns, key,
                  bounds: SearchBounds) -> bool:
    """Do the degrees admitting an invertible invariant section on the
    chart span a finite-index subgroup?  Searched in the degree box."""
    k = len(divisor_rows)
    n = len(rays[0]) if rays else 0
    d = len(phi_columns)
    good_degrees = []
    for c in itertools.product(range(-bounds.degree_box, bounds.degree_box + 1),
                               repeat=k):
        a = [sum(c[i] * divisor_rows[i][j] for i in range(k))
             for j in range(len(rays))]
        shift = tuple(sum(c[i] * shifts[i][t] for i in range(k))
                      for t in range(d))
        for w in _box_vectors(n, bounds.box):
            if any(_dot(w, rays[j]) + a[j] != 0 for j in sorted(key)):
                continue
            if _phi_star(phi_columns, w) != tuple(-s for s in shift):
                continue
            good_degrees.append(c)
            break
    if not good_degrees:
        return k == 0
    return _rank(good_degrees) == k


def trivial_bundle_locus(rays, face_keys, chi, phi_columns,
                         bounds: SearchBounds) -> frozenset:
    """Brute-force semistable locus of the trivial bundle at character
    chi on a single affine chart."""
    zero_divisor = [tuple(0 for _ in rays)]
    return enumerate_witnesses(rays, face_keys, zero_divisor,
                               [tuple(-x for x in chi)], phi_columns, bounds)


def sample_chambers(rays, face_keys, phi_columns, resolution: int,
                    bounds: SearchBounds):
    """Loci of the trivial bundle at every integer character in the box
    of the given resolution."""
    d = len(phi_columns)
    out = []
    for chi in itertools.product(range(-resolution, resolution + 1), repeat=d):
        out.append((chi, trivial_bundle_locus(rays, face_keys, chi,
                                              phi_columns, bounds)))
    return out


def feasible_strict_boxed(dim: int, equalities, weak, strict,
                          box: int) -> Optional[tuple]:
    """Exhaustive strict-feasibility search over an integer box."""
    for x in _box_vectors(dim, box):
        if (all(_dot(e, x) == 0 for e in equalities)
                and all(_dot(w, x) >= 0 for w in weak)
                and all(_dot(s, x) > 0 for s in strict)):
            return x
    return None


def destabilize_boxed(support, weights, target_supports, box: int) -> Optional[tuple]:
    """Exhaustive search for a destabilizing one-parameter subgroup: a
    lambda in the box whose limit of the support exists and whose limit
    support is one of the targets."""
    d = len(weights[0]) if weights else 0
    supp = sorted(support)
    for lam in _box_vectors(d, box):
        vals = [_dot(lam, weights[i]) for i in supp]
        if any(v < 0 for v in vals):
            continue
        lim = frozenset(i for i, v in zip(supp, vals) if v == 0)
        if lim in target_supports:
            return lam
    return None
