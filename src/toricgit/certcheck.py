"""Independent replay of semistability certificates.

Validates every clause of the chart-witness definition from the
certificate data alone, using nothing but integer arithmetic and a local
rank computation — in particular it never calls the cone/feasibility
engine whose output it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failures: tuple[str, ...]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rank(rows) -> int:
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][j] != 0:
                f = mat[i][j] / mat[rank][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def check_certificate(rays: Sequence[tuple], face_keys: Sequence[frozenset],
                      divisor_rows: Sequence[tuple], shifts: Sequence[tuple],
                      phi_columns: Sequence[tuple], cert) -> CheckResult:
    """Replay one SemistabilityCertificate against raw problem data."""
    failures = []
    k = len(divisor_rows)
    r = len(rays)
    chart = cert.chart

    if chart not in face_keys:
        failures.append("chart-is-face")

    degree = tuple(cert.degree)
    if cert.group_case:
        if len(degree) != k:
            failures.append("degree-length")
    else:
        if len(degree) != 1 or degree[0] <= 0:
            failures.append("degree-positive")

    a = [sum(degree[i] * divisor_rows[i][j] for i in range(len(degree)))
         for j in range(r)]
    shift = tuple(sum(degree[i] * shifts[i][t] for i in range(len(degree)))
                  for t in range(len(phi_columns)))

    # the single monomial's section must vanish exactly on the chart's
    # rays and be invariant.  Its complement is then affine with no
    # separate check: the zero set is exactly the chart, so every fan face
    # inside the zero set is keyed by a subset of the chart
    u = tuple(cert.monomial)
    b = [_dot(u, rays[j]) + a[j] for j in range(r)]
    if any(b[j] != 0 if j in chart else b[j] <= 0 for j in range(r)):
        failures.append("complement-is-chart")
    weight = [_dot(col, u) + s for col, s in zip(phi_columns, shift)]
    if any(x != 0 for x in weight):
        failures.append("invariant-weight")

    expected_cartier = k if cert.group_case else 1
    if len(cert.cartier) != expected_cartier:
        failures.append("cartier-witness-count")
    if cert.group_case:
        # each basis divisor must be principal on the chart
        check_rows = list(divisor_rows)
    else:
        # the certified multiple n*D must be principal on the chart
        check_rows = [a]
    for m, row in zip(cert.cartier, check_rows):
        if any(_dot(m, rays[i]) != -row[i] for i in sorted(chart)):
            failures.append("cartier-witness")

    if cert.group_case:
        cs = []
        for c, w in cert.invertibles:
            cs.append(tuple(c))
            bad = False
            for i in sorted(chart):
                val = _dot(w, rays[i]) + sum(
                    c[t] * divisor_rows[t][i] for t in range(k))
                if val != 0:
                    bad = True
            wv = [_dot(col, w) + sum(c[t] * shifts[t][j] for t in range(k))
                  for j, col in enumerate(phi_columns)]
            if any(x != 0 for x in wv):
                bad = True
            if bad:
                failures.append("invertible-witness")
        if _rank(cs) != k:
            failures.append("finite-index")

    return CheckResult(not failures, tuple(failures))


def check_locus(fan, divisor_rows, shifts, phi_columns, ss) -> CheckResult:
    """Replay every certificate of a SemistableLocus; also checks that
    the locus is face-closed and that every maximal face is certified."""
    failures = []
    keys = list(fan.face_keys())
    for key in ss.locus.faces:
        if key not in keys:
            failures.append("locus-face-exists")
        if not all(k2 in ss.locus.faces for k2 in keys if k2 <= key):
            failures.append("locus-face-closed")
    certified = {k for k, _ in ss.certificates}
    for key in ss.locus.maximal_keys():
        if key not in certified:
            failures.append("maximal-face-certified")
    for _, cert in ss.certificates:
        res = check_certificate(list(fan.rays), keys, divisor_rows, shifts,
                                phi_columns, cert)
        failures.extend(res.failures)
    return CheckResult(not failures, tuple(failures))
