"""Exact integer linear algebra: normal forms, kernels, saturation,
integer solvability."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgit import intlinalg
from toricgit.intlinalg import (
    IntMatrix,
    Sublattice,
    cokernel_projection,
    det,
    hermite_normal_form,
    kernel_basis,
    rank_of_rows,
    saturate,
    smith_normal_form,
    solve_integer,
)

from genutil import (
    fraction_det,
    fraction_rank,
    invariant_factors_by_minors,
    lattice_contains,
    lattice_saturated,
)

small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


def test_snf_phi_matrix():
    A = IntMatrix.from_rows([(2, 0), (1, 2), (1, 1)], 2)
    assert smith_normal_form(A) == invariant_factors_by_minors(A.entries) == (1, 1)


def test_snf_zero_matrix():
    A = IntMatrix.from_rows([(0, 0, 0), (0, 0, 0)], 3)
    assert smith_normal_form(A) == invariant_factors_by_minors(A.entries) == ()


def test_snf_1x1():
    A = IntMatrix.from_rows([(2,)], 1)
    assert smith_normal_form(A) == invariant_factors_by_minors(A.entries) == (2,)


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_snf_matches_determinantal_divisors(rows):
    cols = len(rows[0])
    A = IntMatrix.from_rows([tuple(r) for r in rows], cols)
    factors = smith_normal_form(A)
    assert factors == invariant_factors_by_minors(A.entries)
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


# facet normals of the cone on (-3, 4, -4, 4, -2), (3, -3, -4, 4, -4),
# (-2, -1, -4, 4, -4), (4, -1, 2, -3, 3), (1, 1, -2, -1, -1),
# (-3, -1, -2, 0, -3) and (-6, 6, 8, -8, 8): a Smith form that carries
# unreduced transforms builds entries of about 448,000 bits on it
FACET_NORMALS = ((-112, -220, -373, -20, 434), (-76, -80, -215, 28, 246),
                 (-34, -46, -63, -13, 59), (-8, -20, -47, -10, 46),
                 (8, 20, -15, -52, -46), (24, 60, -45, -32, -14))


def _coefficient_blow_up_inputs():
    yield FACET_NORMALS
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(4, 9), rng.randint(4, 8)
        yield tuple(tuple(rng.randint(-60, 60) for _ in range(n)) for _ in range(m))


def test_kernels_and_solutions_keep_small_entries():
    # no wall-clock bound: the entry sizes are the regression
    for rows in _coefficient_blow_up_inputs():
        A = IntMatrix.from_rows(rows)
        K = kernel_basis(A)
        assert K.rank == A.cols - rank_of_rows(rows)
        assert all(A.mulvec(v) == (0,) * A.rows for v in K.basis.entries)
        assert all(d == 1 for d in invariant_factors_by_minors(K.basis.entries))
        assert all(abs(x).bit_length() < 64 for v in K.basis.entries for x in v)
        b = A.mulvec(tuple(range(1, A.cols + 1)))
        x = solve_integer(A, b)
        assert x is not None and A.mulvec(x) == b
        assert all(abs(a).bit_length() < 64 for a in x)


def test_kernel_of_weight_map():
    K = kernel_basis(IntMatrix.from_rows([(2, 1, 1), (0, 2, 1)], 3))
    assert K.rank == 1
    assert K.basis.entries in (((1, 2, -4),), ((-1, -2, 4),))
    assert lattice_saturated(K)


def test_kernel_identity_and_rank1():
    assert kernel_basis(IntMatrix.identity(3)).rank == 0
    K = kernel_basis(IntMatrix.from_rows([(1, 1)], 2))
    assert K.basis.entries in (((1, -1),), ((-1, 1),))


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_kernel_rank_formula(rows):
    cols = len(rows[0])
    A = IntMatrix.from_rows([tuple(r) for r in rows], cols)
    K = kernel_basis(A)
    assert K.rank + rank_of_rows([r for r in A.entries]) == cols
    for b in K.basis.entries:
        assert A.mulvec(b) == tuple(0 for _ in range(A.rows))


def test_saturate_image_of_phi():
    S = Sublattice.from_rows(3, [(2, 1, 1), (0, 2, 1)])
    assert saturate(S).basis.entries == S.basis.entries


def test_saturate_doubled_line():
    S = Sublattice.from_rows(2, [(2, 0)])
    assert saturate(S).basis.entries == ((1, 0),)


def test_saturate_zero():
    S = Sublattice.from_rows(2, [])
    assert saturate(S).rank == 0


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_saturate_idempotent_extensive(rows):
    cols = len(rows[0])
    indep = []
    for r in rows:
        if rank_of_rows(indep + [tuple(r)]) > len(indep):
            indep.append(tuple(r))
    if not indep:
        return
    S = Sublattice.from_rows(cols, indep)
    T = saturate(S)
    assert saturate(T).basis.entries == T.basis.entries
    assert T.rank == S.rank
    for b in S.basis.entries:
        assert lattice_contains(T, b)


def test_solve_cartier_infeasible():
    # local equation for the first prime divisor on the full quadric cone
    A = IntMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    assert solve_integer(A, (-1, 0, 0, 0)) is None


def test_solve_trivial_cases():
    A = IntMatrix.from_rows([(1, 0, 0)], 3)
    assert solve_integer(A, (0,)) == (0, 0, 0)
    m = solve_integer(A, (-1,))
    assert m is not None and m[0] == -1


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.integers(0, 100))
def test_solve_integer_completeness_boxed(rows, pick):
    """Exhaustive cross-check: whenever a solution exists in a box, the
    solver must find one (any one) that verifies."""
    cols = len(rows[0])
    A = IntMatrix.from_rows([tuple(r) for r in rows], cols)
    pts = list(itertools.product(range(-2, 3), repeat=cols))
    x0 = pts[pick % len(pts)]
    b = A.mulvec(x0)  # solvable by construction
    x = solve_integer(A, b)
    assert x is not None
    assert A.mulvec(x) == b


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_solve_integer_soundness(rows, bvals):
    cols = len(rows[0])
    A = IntMatrix.from_rows([tuple(r) for r in rows], cols)
    b = tuple((bvals * 4)[: A.rows])
    x = solve_integer(A, b)
    if x is not None:
        assert A.mulvec(x) == b


def _images_in_box(A: IntMatrix, box: int) -> set:
    return {A.mulvec(x) for x in itertools.product(range(-box, box + 1), repeat=A.cols)}


def test_solve_integer_rejects_inconsistent_systems_like_brute_force():
    # At most two columns with entries in [-3, 3] and |b_i| <= 6: a solvable
    # system has a solution with entries of size at most 36 (Cramer at full
    # rank; a rank-1 line reaches a point with one coordinate below 3 and
    # the other at most 12), so the box [-40, 40]^2 decides solvability.
    # b is A x0 moved off by one coordinate; the final substitution in
    # solve_integer is the only consistency check
    rng = random.Random(20260)
    kinds = Counter()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 2)
        rows = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n  # a zero row: a zero pivot
        A = IntMatrix.from_rows(rows, n)
        b = list(A.mulvec([rng.randint(-1, 1) for _ in range(n)]))
        b[rng.randrange(m)] += rng.choice((-1, 1, 2))
        b = tuple(max(-6, min(6, x)) for x in b)
        x = solve_integer(A, b)
        if b in _images_in_box(A, 40):
            assert x is not None and A.mulvec(x) == b
            continue
        assert x is None
        kinds["inconsistent"] += 1
        kinds["zero pivot"] += rank_of_rows(rows) < min(m, n)
        kinds["more rows"] += m > n
    assert kinds["inconsistent"] > 150 and kinds["zero pivot"] > 40 and kinds["more rows"] > 80, kinds


def test_kernel_of_no_rows_is_the_identity_basis():
    for n in range(5):
        assert kernel_basis(IntMatrix.from_rows([], n)).basis.entries == \
            IntMatrix.identity(n).entries


def test_no_rows_take_no_hermite_form(monkeypatch):
    # the kernel of no equations is everything and their solution is 0,
    # both read off with no Hermite form
    monkeypatch.setattr(intlinalg, "hermite_normal_form", None)
    for n in range(5):
        empty = IntMatrix.from_rows([], n)
        assert kernel_basis(empty) == Sublattice(n, IntMatrix.identity(n))
        assert solve_integer(empty, ()) == (0,) * n


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_cokernel_torsion_is_the_invariant_factors_of_the_basis(rows):
    S = Sublattice.from_rows(len(rows[0]), [tuple(r) for r in rows])
    pi, torsion = cokernel_projection(S)
    assert torsion == tuple(d for d in invariant_factors_by_minors(S.basis.entries) if d > 1)
    assert pi.matrix == kernel_basis(S.basis).basis


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_matches_fraction_elimination(rows):
    assert det(rows) == fraction_det(rows)


def test_cokernel_of_action_image():
    S = Sublattice.from_rows(3, [(2, 1, 1), (0, 2, 1)])
    pi, torsion = cokernel_projection(saturate(S))
    assert torsion == ()
    assert pi.target_rank == 1
    row = pi.matrix.entries[0]
    assert row in ((1, 2, -4), (-1, -2, 4))
    for s in S.basis.entries:
        assert pi.apply(s) == (0,)


def test_cokernel_full_and_zero():
    full = Sublattice.from_rows(2, [(1, 0), (0, 1)])
    pi, t = cokernel_projection(full)
    assert pi.target_rank == 0 and t == ()
    zero = Sublattice.from_rows(2, [])
    pi2, t2 = cokernel_projection(zero)
    assert pi2.target_rank == 2 and t2 == ()
    assert pi2.apply((3, 5)) in ((3, 5), (5, 3), (-3, -5), (3, -5), (-3, 5), (-5, 3), (5, -3), (-5, -3))


def test_cokernel_torsion_reported():
    S = Sublattice.from_rows(2, [(1, 1), (1, -1)])
    pi, torsion = cokernel_projection(S)
    assert pi.target_rank == 0
    assert torsion == (2,)


def test_hermite_normal_form_canonical():
    h1 = hermite_normal_form([(2, 4), (1, 1)])
    h2 = hermite_normal_form([(1, 1), (2, 4)])
    assert h1 == h2
    for row in h1:
        piv = next(x for x in row if x != 0)
        assert piv > 0


# -- fraction-free rank, one-SNF saturation ------------------------------

def _matrix(rows, cols, entries=st.integers(-9, 9)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# B*C with B m x k and C k x n has rank at most k: many dependent rows
low_rank_products = st.tuples(st.integers(1, 6), st.integers(1, 6),
                              st.integers(0, 4)).flatmap(
    lambda mnk: st.tuples(_matrix(mnk[0], mnk[2]), _matrix(mnk[2], mnk[1]),
                          st.just(mnk[1])))

sparse_matrices = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda mn: _matrix(mn[0], mn[1], st.one_of(
        st.just(0), st.just(0), st.just(0), st.integers(-60, 60))))


@settings(max_examples=200, deadline=None)
@given(low_rank_products)
def test_rank_of_low_rank_products(factors):
    B, C, n = factors
    rows = [tuple(sum(b * C[t][j] for t, b in enumerate(row)) for j in range(n))
            for row in B]
    assert rank_of_rows(rows) == fraction_rank(rows)
    assert rank_of_rows(rows) <= len(C)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices)
def test_rank_of_sparse_matrices(rows):
    assert rank_of_rows(rows) == fraction_rank(rows)
    assert rank_of_rows(list(zip(*rows))) == fraction_rank(rows)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_saturate_properties(rows):
    cols = len(rows[0])
    S = Sublattice.from_rows(cols, rows)
    T = saturate(S)
    assert all(lattice_contains(T, b) for b in S.basis.entries)
    assert T.rank == S.rank == fraction_rank(rows)
    assert all(d == 1 for d in smith_normal_form(T.basis))
    assert saturate(T).basis.entries == T.basis.entries
    assert lattice_saturated(T)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_saturated_flag_agrees_with_snf(rows):
    # saturate fixes exactly the lattices whose invariant factors are all 1
    S = Sublattice.from_rows(len(rows[0]), rows)
    by_snf = all(d == 1 for d in smith_normal_form(S.basis))
    assert by_snf == (saturate(S).basis.entries == S.basis.entries)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.lists(st.lists(st.integers(-3, 3), min_size=4,
                                         max_size=4), max_size=3))
def test_from_rows_of_dependent_rows_is_hnf_of_span(rows, coeffs):
    # append integer combinations of the rows: the span does not change
    extra = [tuple(sum(c * r[j] for c, r in zip(cs, rows))
                   for j in range(len(rows[0]))) for cs in coeffs]
    S = Sublattice.from_rows(len(rows[0]), [tuple(r) for r in rows] + extra)
    assert S.basis.entries == hermite_normal_form(rows)
    assert S.rank == fraction_rank(rows)


def test_from_rows_drops_dependent_rows():
    S = Sublattice.from_rows(3, [(1, 2, 3), (2, 4, 6), (0, 0, 0)])
    assert S.basis.entries == ((1, 2, 3),)
    assert lattice_saturated(S)
    assert not lattice_saturated(Sublattice.from_rows(2, [(2, 4)]))
