"""Seeded instance generators for the benchmark.

Every generator takes an explicit random.Random and returns plain data
(integer tuples and lists): the engine under test never runs here, so
set-up cost and instance validity do not depend on it.  Validity of
each instance (primitive rays, pointed cones whose listed rays are
extreme, complete fans whose consecutive rays turn by less than pi,
injective actions) holds by construction or by the exact checks below.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def primitive_vector(rng: random.Random, dim: int, box: int = 2) -> tuple:
    while True:
        v = tuple(rng.randint(-box, box) for _ in range(dim))
        g = math.gcd(*v)
        if g:
            return tuple(x // g for x in v)


def affine_cone(rng: random.Random, ambient: int, count: int) -> list:
    """Rays of one pointed cone in Z^ambient with `count` rays, all extreme,
    drawn as primitive vectors from the box [-2, 2] and kept when valid
    (the distribution of tests/genutil.random_affine_fan for that count).

    Up to `ambient` rays are valid when linearly independent (a simplicial
    cone).  ambient + 1 rays of full rank have a one-dimensional linear
    relation sum l_i v_i = 0; the cone is pointed with every ray extreme
    iff l has at least two positive and two negative entries (a ray is
    redundant iff some relation writes it as a nonnegative combination of
    the others).
    """
    while True:
        rays = []
        while len(rays) < count:
            v = primitive_vector(rng, ambient)
            if v not in rays:
                rays.append(v)
        if count <= ambient:
            if rank(rays) == count:
                return rays
            continue
        rel = [(-1) ** i * det([[r[t] for j, r in enumerate(rays) if j != i]
                                 for t in range(ambient)])
               for i in range(count)]
        if sum(x > 0 for x in rel) >= 2 and sum(x < 0 for x in rel) >= 2:
            return rays


def complete_fan2(rng: random.Random, lo: int, hi: int) -> tuple:
    """Complete fan in rank 2 with lo..hi rays: rays sorted by angle,
    cones between consecutive rays, every turn strictly below pi."""
    while True:
        count = rng.randint(lo, hi)
        rays = []
        while len(rays) < count:
            v = primitive_vector(rng, 2)
            if v not in rays:
                rays.append(v)
        rays.sort(key=lambda v: math.atan2(v[1], v[0]))
        nxt = rays[1:] + rays[:1]
        if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in zip(rays, nxt)):
            return rays, [[i, (i + 1) % count] for i in range(count)]


def _e(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def projective_space(n: int) -> tuple:
    rays = [_e(n, i) for i in range(n)] + [tuple(-1 for _ in range(n))]
    return rays, [sorted(set(range(n + 1)) - {i}) for i in range(n + 1)]


def p1_power(k: int) -> tuple:
    """(P^1)^k: rays e_i (index 2i) and -e_i (index 2i+1), one cone per
    sign pattern."""
    rays = []
    for i in range(k):
        rays += [_e(k, i), tuple(-x for x in _e(k, i))]
    cones = [[2 * i + s for i, s in enumerate(signs)]
             for signs in product((0, 1), repeat=k)]
    return rays, cones


def hirzebruch(a: int) -> tuple:
    return ([(1, 0), (0, 1), (-1, a), (0, -1)],
            [[0, 1], [1, 2], [2, 3], [3, 0]])


def orthant(r: int) -> tuple:
    return [_e(r, i) for i in range(r)], [list(range(r))]


NAMED_FANS = {
    "P1": projective_space(1),
    "P2": projective_space(2),
    "P3": projective_space(3),
    "P1xP1": p1_power(2),
    "(P1)^3": p1_power(3),
    **{f"F{a}": hirzebruch(a) for a in range(4)},
}


def subtorus(rng: random.Random, ambient: int, d: int) -> list:
    """d linearly independent columns in [-2, 2]^ambient (an injective
    phi: Z^d -> N)."""
    while True:
        cols = [tuple(rng.randint(-2, 2) for _ in range(ambient))
                for _ in range(d)]
        if rank(cols) == d:
            return cols


def integer_kernel(rays) -> list:
    """Basis of {a in Z^r : sum_i a_i v_i = 0} for the rays of a fan with a
    unimodular cone B: one vector e_j - sum_k c_k e_{B_k} per ray j outside
    B, where v_j = sum_k c_k v_{B_k} with integer c.  These are the Gale
    dual, the Cox action's columns; they span the kernel, saturated,
    because the coordinates outside B determine a kernel vector."""
    n = len(rays[0])
    r = len(rays)
    basis_idx = unimodular_cone(rays)
    inv = inverse(rays, basis_idx)
    out = []
    for j in range(r):
        if j in basis_idx:
            continue
        # v_j = sum_k c_k v_{basis_idx[k]}; kernel vector e_j - sum c_k e_k
        c = [sum(inv[k][t] * rays[j][t] for t in range(n)) for k in range(n)]
        vec = [0] * r
        vec[j] = 1
        for k, i in enumerate(basis_idx):
            vec[i] -= int(c[k])
        out.append(tuple(vec))
    return out


def unimodular_cone(rays) -> list:
    """Ray indices of the first cone of n rays with determinant +-1."""
    n = len(rays[0])
    for idx in combinations(range(len(rays)), n):
        if abs(det([rays[i] for i in idx])) == 1:
            return list(idx)
    raise ValueError("fan has no unimodular cone")


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def inverse(rays, idx) -> list:
    """Inverse, over the rationals, of the matrix whose columns are the
    rays listed in idx."""
    n = len(idx)
    a = [[Fraction(rays[idx[k]][t]) for k in range(n)] + [Fraction(int(t == s)) for s in range(n)]
         for t in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def ample_divisor(rays, cones) -> tuple:
    """First coefficient vector a in {0..3}^r, in lexicographic order,
    whose divisor sum a_i D_i is ample on the complete simplicial fan."""
    for a in product(range(4), repeat=len(rays)):
        if is_ample(rays, cones, a):
            return a
    raise ValueError("no ample divisor with coefficients in 0..3")


def is_ample(rays, cones, a) -> bool:
    """Whether sum a_i D_i is ample on the complete simplicial fan: the
    local equation m_sigma of each maximal cone (<m_sigma, v_i> = -a_i on
    its rays) satisfies <m_sigma, v_j> > -a_j at every ray j outside it."""
    for cone in cones:
        inv = inverse(rays, cone)
        n = len(cone)
        # m_sigma = -(A^-1)^T a_sigma, with A the matrix of the cone's rays
        m = [-sum(a[cone[k]] * inv[k][t] for k in range(n)) for t in range(n)]
        for j in range(len(rays)):
            if j in cone:
                continue
            if sum(m[t] * rays[j][t] for t in range(n)) <= -a[j]:
                return False
    return True
