"""Exact integer linear algebra over free abelian groups of finite rank.

Everything here is arbitrary-precision: matrices hold Python ints, ranks
come from fraction-free (Bareiss) elimination on ints, kernels from one
Smith normal form each, and no floating point is used anywhere.  Smith
normal form uses a fixed pivoting rule (smallest absolute nonzero entry,
row-major tie break) so all outputs are deterministic.
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
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def mulvec(self, v: Sequence[int]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(vdot(r, v) for r in self.entries)


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on ints: after
    each pivot the remaining entries are minors of the input, so the
    division by the previous pivot is exact."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[col]
        for i in range(rank + 1, len(mat)):
            a = mat[i][col]
            mat[i] = [(p * x - a * y) // prev for x, y in zip(mat[i], top)]
        prev = p
        rank += 1
    return rank


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Row-style HNF: echelon rows, positive pivots, entries above a pivot
    reduced into [0, pivot).  Zero rows are dropped.  Canonical basis for
    the row span over Z."""
    mat = [list(r) for r in rows if not is_zero_vec(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    done = 0
    for col in range(ncols):
        # gcd the column below `done` into one row
        while True:
            nz = [i for i in range(done, len(mat)) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(mat[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        nz = [i for i in range(done, len(mat)) if mat[i][col] != 0]
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
    return tuple(tuple(r) for r in mat[:done] if not is_zero_vec(r))


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.D.rows, self.D.cols)
        facs = tuple(self.D.entries[i][i] for i in range(k))
        return tuple(d for d in facs if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _round_div(a: int, b: int) -> int:
    """Quotient q minimizing |a - q*b| (nearest integer, ties toward zero)."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    m, n = A.rows, A.cols
    D = [list(r) for r in A.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(i, j, q):
        # row_i -= q*row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def addmul_col(i, j, q):
        # col_i -= q*col_j
        for r in D:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    t = 0
    while t < min(m, n):
        # pivot: smallest absolute nonzero entry, row-major tie break
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            moved = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = _round_div(D[i][t], D[t][t])
                    addmul_row(i, t, q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        moved = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = _round_div(D[t][j], D[t][t])
                    addmul_col(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        moved = True
            if moved:
                continue
            # column and row at t are clear; enforce divisibility
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, -1)  # add offending row to pivot row
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return SmithDecomposition(IntMatrix(m, m, tuple(map(tuple, U))),
                              IntMatrix(m, n, tuple(map(tuple, D))),
                              IntMatrix(n, n, tuple(map(tuple, V))))


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


def kernel_basis(A: IntMatrix) -> Sublattice:
    """Saturated sublattice {x in Z^cols : A x = 0}: the last columns of V
    in one Smith decomposition U*A*V = D, put in HNF."""
    snf = smith_normal_form(A)
    rows = [snf.V.col(j) for j in range(snf.rank, A.cols)]
    return Sublattice.from_rows(A.cols, rows)


def saturate(S: Sublattice) -> Sublattice:
    """Smallest saturated sublattice containing S: the kernel of its
    orthogonal complement {y : B y = 0}."""
    if S.rank == 0:
        return S
    return kernel_basis(kernel_basis(S.basis).basis)


def solve_integer(A: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """Some integer x with A x = b, or None.  Witness verifies by
    substitution; absence is a value, not an error."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    snf = smith_normal_form(A)
    c = snf.U.mulvec(b)
    y = []
    for i in range(A.cols):
        d = snf.D.entries[i][i] if i < min(A.rows, A.cols) else 0
        ci = c[i] if i < A.rows else 0
        if d == 0:
            y.append(0)
        else:
            if ci % d != 0:
                return None
            y.append(ci // d)
    for i in range(A.cols, A.rows):
        if c[i] != 0:
            return None
    for i in range(min(A.rows, A.cols)):
        d = snf.D.entries[i][i]
        if d == 0 and c[i] != 0:
            return None
    x = snf.V.mulvec(y)
    if A.mulvec(x) != tuple(b):
        return None
    return x


def cokernel_projection(S: Sublattice) -> tuple[LatticeMap, tuple[int, ...]]:
    """Projection of Z^n onto the free part of Z^n / S, plus the torsion
    invariant factors of the quotient."""
    n = S.ambient_rank
    if S.rank == 0:
        return LatticeMap(IntMatrix.identity(n), n, n), ()
    A = S.basis.transpose()  # n x k, columns = basis vectors
    snf = smith_normal_form(A)
    r = snf.rank
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    proj_rows = [snf.U.row(i) for i in range(r, n)]
    pi = LatticeMap(IntMatrix.from_rows(proj_rows, n), n, n - r)
    return pi, torsion
