"""Seeded random instance generators shared by the unit and acceptance
suites.  Everything takes an explicit random.Random so runs are
reproducible."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from toricgit.actions import ActionError, Linearization, SubtorusAction
from toricgit.cones import Cone
from toricgit.fans import Fan, ToricDivisor, validate_fan
from toricgit.intlinalg import is_zero_vec, primitive, rank_of_rows


def random_primitive_vector(rng: random.Random, dim: int, box: int = 2):
    while True:
        v = tuple(rng.randint(-box, box) for _ in range(dim))
        if not is_zero_vec(v):
            return primitive(v)


def random_affine_fan(rng: random.Random, rank: int, max_rays: int = 4) -> Fan:
    """Single pointed cone whose listed rays are exactly its extreme rays."""
    for _ in range(200):
        count = rng.randint(1, min(rank + 1, max_rays))
        rays = []
        for _ in range(count * 3):
            v = random_primitive_vector(rng, rank)
            if v not in rays:
                rays.append(v)
            if len(rays) == count:
                break
        if len(rays) < count:
            continue
        c = Cone.from_generators(rank, rays)
        if c.lineality_rank == 0 and set(c.generators) == set(rays):
            return validate_fan(rank, rays, [list(range(len(rays)))])
    raise RuntimeError("could not sample an affine fan")


def random_complete_fan2(rng: random.Random) -> Fan:
    """Complete fan in rank 2: rays sorted by angle, consecutive 2-cones."""
    for _ in range(200):
        count = rng.randint(3, 5)
        rays = []
        for _ in range(count * 5):
            v = random_primitive_vector(rng, 2)
            if v not in rays:
                rays.append(v)
            if len(rays) == count:
                break
        if len(rays) < count:
            continue
        rays.sort(key=lambda v: math.atan2(v[1], v[0]))
        gaps_ok = True
        for i in range(len(rays)):
            a = math.atan2(rays[i][1], rays[i][0])
            b = math.atan2(rays[(i + 1) % len(rays)][1],
                           rays[(i + 1) % len(rays)][0])
            gap = (b - a) % (2 * math.pi)
            if gap >= math.pi or gap == 0.0:
                gaps_ok = False
                break
        if not gaps_ok:
            continue
        cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
        return validate_fan(2, rays, cones)
    raise RuntimeError("could not sample a complete fan")


def random_fan(rng: random.Random, max_rank: int = 3) -> Fan:
    rank = rng.randint(1, max_rank)
    if rank == 2 and rng.random() < 0.4:
        return random_complete_fan2(rng)
    return random_affine_fan(rng, rank)


def random_action(rng: random.Random, fan: Fan, max_d: int = 2) -> SubtorusAction:
    rank = fan.ambient_rank
    d = rng.randint(0, min(max_d, rank))
    for _ in range(100):
        cols = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(d)]
        if rank_of_rows(cols) == d:
            return SubtorusAction.from_columns(cols, rank)
    return SubtorusAction.from_columns([], rank)


def random_divisor(rng: random.Random, fan: Fan, box: int = 3) -> ToricDivisor:
    return ToricDivisor(tuple(rng.randint(-box, box) for _ in fan.rays))


def random_shift(rng: random.Random, d: int, box: int = 2):
    return tuple(rng.randint(-box, box) for _ in range(d))


def random_linearization(rng: random.Random, d: int, k: int = 1) -> Linearization:
    return Linearization(tuple(random_shift(rng, d) for _ in range(k)))


def random_unimodular(rng: random.Random, rank: int):
    """Random unimodular matrix as a row list, by shear products."""
    rows = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for t in range(rank):
            rows[i][t] += c * rows[j][t]
    if rng.random() < 0.5:
        rng.shuffle(rows)
        # keep determinant +-1 under permutation; sign does not matter
    return [tuple(r) for r in rows]


def fraction_rank(rows) -> int:
    """Reference rank over Q: Gaussian elimination with Fraction entries."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank
