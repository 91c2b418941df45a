"""Exact integer linear algebra over free abelian groups of finite rank.

Everything here is arbitrary-precision: matrices hold Python ints, ranks
and determinants come from one fraction-free (Bareiss) elimination on
ints, kernels and integer solutions from one Hermite normal form of
[A^T | I] each (Cohen, A Course in Computational Algebraic Number Theory,
1993, section 2.4), and invariant factors from Hermite forms of the rows
and the columns in turn.  No unimodular transform is ever accumulated,
no floating point is used anywhere, and every output is deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


def vdot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def vsub(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(map(operator.sub, a, b))


def vscale(c: int, a: Sequence[int]) -> Vec:
    return tuple(c * x for x in a)


def vneg(a: Sequence[int]) -> Vec:
    return tuple(-x for x in a)


def gcdv(a: Sequence[int]) -> int:
    return math.gcd(*a)


def primitive(a: Sequence[int]) -> Vec:
    """Divide out the gcd of the entries, preserving orientation."""
    g = gcdv(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def is_zero_vec(a: Sequence[int]) -> bool:
    return not any(a)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rs = tuple(tuple(int(x) for x in r) for r in rows)
        if rs:
            n = len(rs[0])
            if any(len(r) != n for r in rs):
                raise ValueError("ragged matrix")
        else:
            n = 0 if cols is None else cols
        return IntMatrix(len(rs), n, rs)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def mulvec(self, v: Sequence[int]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(vdot(r, v) for r in self.entries)


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination: the rank, the sign of the row
    swaps and the last pivot.  Entries are minors of the input, so each
    division by the previous pivot is exact; rows below a pivot are zero
    left of its column, so only the columns right of it are updated."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == len(mat):
            break
        if mat[rank][col] == 0:
            piv = next((i for i in range(rank + 1, len(mat)) if mat[i][col] != 0), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            sign = -sign
        top = mat[rank]
        p = top[col]
        for row in mat[rank + 1:]:
            a = row[col]
            for j in range(col + 1, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
        rank += 1
    return rank, sign, prev


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q, by Bareiss elimination."""
    return _bareiss(rows)[0]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot is
    the determinant of the row-swapped matrix."""
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == len(rows) else 0


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Row-style HNF: echelon rows, positive pivots, entries above a pivot
    reduced into [0, pivot).  Zero rows are dropped.  Canonical basis for
    the row span over Z."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    done = 0
    for col in range(ncols):
        if done == len(mat):
            break  # every row has its pivot
        # gcd the column below `done` into one row
        while True:
            nz = [i for i in range(done, len(mat)) if mat[i][col]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][col]))
            top = mat[i0]
            for i in nz:
                if i != i0:
                    q = mat[i][col] // top[col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], top)]
        if not nz:
            continue
        i0 = nz[0]
        mat[done], mat[i0] = mat[i0], mat[done]
        if mat[done][col] < 0:
            mat[done] = [-a for a in mat[done]]
        # reduce entries above the pivot
        p = mat[done][col]
        for i in range(done):
            q = mat[i][col] // p
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[done])]
        done += 1
    return tuple(map(tuple, mat[:done]))


def smith_normal_form(A: IntMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of A, with no transforms
    kept: Hermite forms of the rows and of the columns in turn until the
    matrix is diagonal, then each diagonal pair (a, b) becomes
    (gcd, lcm).  From the second form on the matrix is square and
    nonsingular, and a square HNF keeps every entry above a pivot in
    [0, pivot), so the entries stay bounded by the determinant."""
    rows = hermite_normal_form(A.entries)
    while any(x for i, r in enumerate(rows) for j, x in enumerate(r) if i != j):
        rows = hermite_normal_form(tuple(zip(*rows)))
    d = [r[i] for i, r in enumerate(rows)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


@dataclass(frozen=True)
class Sublattice:
    """A pure-data sublattice of Z^n given by its HNF basis (rows)."""

    ambient_rank: int
    basis: IntMatrix

    @staticmethod
    def from_rows(ambient_rank: int, rows: Iterable[Sequence[int]]) -> "Sublattice":
        """The span of the rows; its HNF rows are independent by
        construction."""
        canon = hermite_normal_form(tuple(tuple(r) for r in rows))
        return Sublattice(ambient_rank, IntMatrix.from_rows(canon, ambient_rank))

    @property
    def rank(self) -> int:
        return self.basis.rows


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism Z^source -> Z^target given by a matrix acting on column
    vectors (matrix is target_rank x source_rank)."""

    matrix: IntMatrix
    source_rank: int
    target_rank: int

    def __post_init__(self):
        if self.matrix.rows != self.target_rank or self.matrix.cols != self.source_rank:
            raise ValueError("matrix dimensions do not match declared ranks")

    def apply(self, v: Sequence[int]) -> Vec:
        return self.matrix.mulvec(v)


def _transformed_hnf(A: IntMatrix) -> tuple[Vec, ...]:
    """HNF of the rows (column_i of A, e_i).  Each row is (A u, u), the u
    run over a basis of Z^cols, and the rows are echelon in their A u
    part, so the rows whose A u part is zero come last.  With no rows in
    A these are the e_i, already an HNF, so no Hermite form is taken."""
    if not A.rows:
        return IntMatrix.identity(A.cols).entries
    return hermite_normal_form(tuple(
        col + e for col, e in zip(A.transpose().entries, IntMatrix.identity(A.cols).entries)))


def kernel_basis(A: IntMatrix) -> Sublattice:
    """Saturated sublattice {x in Z^cols : A x = 0}: the u parts of the
    transformed HNF's rows whose A u part is zero.  Those rows are the
    last ones of an HNF, so they are already the kernel's HNF basis."""
    m = A.rows
    rows = tuple(r[m:] for r in _transformed_hnf(A) if not any(r[:m]))
    return Sublattice(A.cols, IntMatrix(len(rows), A.cols, rows))


def saturate(S: Sublattice) -> Sublattice:
    """Smallest saturated sublattice containing S: the kernel of its
    orthogonal complement {y : B y = 0}."""
    if S.rank == 0:
        return S
    return kernel_basis(kernel_basis(S.basis).basis)


def solve_integer(A: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """Some integer x with A x = b, or None: b is reduced against the
    echelon A u parts of the transformed HNF, and x collects the u parts
    with the same coefficients.  A pivot that does not divide, or a
    remainder left at the end, means no solution.  The candidate is
    checked by substitution; absence is a value, not an error."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    m = A.rows
    rest = list(b)
    x = [0] * A.cols
    for row in _transformed_hnf(A):
        j = next((j for j in range(m) if row[j]), None)
        if j is None:
            break
        q, r = divmod(rest[j], row[j])
        if r:
            return None
        if q:
            rest = [a - q * c for a, c in zip(rest, row)]
            x = [a + q * c for a, c in zip(x, row[m:])]
    if any(rest) or A.mulvec(x) != tuple(b):
        return None
    return tuple(x)


def cokernel_projection(S: Sublattice) -> tuple[LatticeMap, tuple[int, ...]]:
    """Projection of Z^n onto the free part of Z^n / S, plus the torsion
    invariant factors of the quotient, from one transformed HNF of
    S.basis.  The rows of the projection are the saturated S^perp, the u
    parts of the rows whose A u part is zero (as in kernel_basis), so it
    is onto and its kernel is sat(S).  The other rows' A u parts are the
    column HNF of S.basis, a basis of its column lattice, so they have its
    invariant factors."""
    n, m = S.ambient_rank, S.rank
    rows = _transformed_hnf(S.basis)
    perp = IntMatrix.from_rows([r[m:] for r in rows if not any(r[:m])], n)
    columns = IntMatrix.from_rows([r[:m] for r in rows if any(r[:m])], m)
    return LatticeMap(perp, n, perp.rows), tuple(d for d in smith_normal_form(columns) if d > 1)
