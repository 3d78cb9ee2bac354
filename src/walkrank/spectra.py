"""Floating-point spectra: a self-contained symmetric eigensolver (Householder
tridiagonalisation and implicit-shift QL), main-eigenvalue counting with a
residual summed over each vertex's neighbours, closed-form eigenpairs of the
transposed divisor matrix, and the spectral determinant formula for walk
matrices."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, adjacency_matrix
from .intmatrix import IntMatrix

_SYMMETRY_RTOL = 1e-12
_EPS = 2.0**-52
_MAX_QL_ITERATIONS = 30  # QL steps per eigenvalue, EISPACK's cap; about two are typical


class ConvergenceError(ArithmeticError):
    """An iterative float route stopped at its iteration cap."""


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues grouped by closeness, with a main/non-main flag per group."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    main_flags: tuple[bool, ...]
    main_count: int
    max_residual: float


@dataclass(frozen=True)
class ClosedFormEigenpair:
    k: int
    eigenvalue: float
    vector: tuple[float, ...]


def _as_float_rows(m: IntMatrix | Sequence[Sequence[float]]) -> list[list[float]]:
    if isinstance(m, IntMatrix):
        rows = [[float(x) for x in m.row(i)] for i in range(m.rows)]
    else:
        rows = [[float(x) for x in r] for r in m]
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    return rows


def _householder_tridiagonal(
    a: list[list[float]],
) -> tuple[list[float], list[float], list[list[float]]]:
    """Householder reduction of a symmetric matrix (EISPACK's tred2), in place.

    Returns the diagonal d, the off-diagonal e (e[i] couples i and i+1; e[-1]
    is 0) and Q^T, whose rows are the basis the tridiagonal form is written in.
    Row i is reduced by a reflector on indices 0..i-1; a zero row needs none.
    """
    k = len(a)
    d = [0.0] * k
    e = [0.0] * k
    reflectors = []
    for i in range(k - 1, 0, -1):
        row = a[i][:i]
        d[i] = a[i][i]
        if not any(row):
            continue
        scale = sum(map(abs, row))
        u = [x / scale for x in row]
        h = sum(x * x for x in u)
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        # A <- H A H with H = I - u u^T / h, on the leading i x i block
        p = [sum(map(operator.mul, a[r], u)) / h for r in range(i)]
        half = sum(map(operator.mul, u, p)) / (2.0 * h)
        q = [x - half * y for x, y in zip(p, u)]
        for r in range(i):
            ur, qr = u[r], q[r]
            a[r][:i] = [x - ur * qj - qr * uj for x, qj, uj in zip(a[r], q, u)]
        reflectors.append((i, u, h))
    d[0] = a[0][0]
    # Q^T = H_2 H_3 ... H_{k-1}, built by right products on the rows it touches
    qt = [[1.0 if i == j else 0.0 for j in range(k)] for i in range(k)]
    for i, u, h in reversed(reflectors):
        for r in range(i):
            row = qt[r]
            c = sum(map(operator.mul, row, u)) / h
            row[:i] = [x - c * y for x, y in zip(row, u)]
    return d, e, qt


def _implicit_ql(d: list[float], e: list[float], qt: list[list[float]]) -> None:
    """Implicit-shift QL on a tridiagonal matrix (EISPACK's tql2), rotating qt's rows.

    On return d holds the eigenvalues and row i of qt the eigenvector of d[i].
    """
    k = len(d)
    shift = 0.0
    tst1 = 0.0
    for l in range(k):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        m = l
        while abs(e[m]) > _EPS * tst1:
            m += 1
        iterations = 0
        while abs(e[l]) > _EPS * tst1:
            if iterations == _MAX_QL_ITERATIONS:
                raise ConvergenceError(
                    f"QL iteration for eigenvalue {l} did not converge "
                    f"within {_MAX_QL_ITERATIONS} iterations"
                )
            iterations += 1
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.copysign(math.hypot(p, 1.0), p)
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, k):
                d[i] -= h
            shift += h
            p = d[m]
            c = c2 = c3 = 1.0
            el1 = e[l + 1]
            s = s2 = 0.0
            for i in range(m - 1, l - 1, -1):
                c3, c2, s2 = c2, c, s
                g = c * e[i]
                h = c * p
                r = math.hypot(p, e[i])
                e[i + 1] = s * r
                s = e[i] / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                lo, hi = qt[i], qt[i + 1]
                qt[i + 1] = [s * x + c * y for x, y in zip(lo, hi)]
                qt[i] = [c * x - s * y for x, y in zip(lo, hi)]
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
        d[l] += shift
        e[l] = 0.0


def symmetric_eigen(
    m: IntMatrix | Sequence[Sequence[float]],
) -> tuple[list[float], list[list[float]]]:
    """Full eigendecomposition of a symmetric matrix.

    Householder tridiagonalisation followed by implicit-shift QL with the
    eigenvectors accumulated (Wilkinson & Reinsch, Handbook for Automatic
    Computation II, 1971; Parlett, The Symmetric Eigenvalue Problem). Returns
    eigenvalues in ascending order and the matching orthonormal eigenvectors.
    Raises ConvergenceError when one eigenvalue needs more than
    _MAX_QL_ITERATIONS QL steps.
    """
    a = _as_float_rows(m)
    k = len(a)
    if k == 0:
        raise ValueError("matrix must be non-empty")
    scale = max(1.0, max(abs(x) for row in a for x in row))
    for i in range(k):
        for j in range(i + 1, k):
            if abs(a[i][j] - a[j][i]) > _SYMMETRY_RTOL * scale:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    d, e, qt = _householder_tridiagonal(a)
    _implicit_ql(d, e, qt)
    order = sorted(range(k), key=d.__getitem__)
    return [d[i] for i in order], [qt[i] for i in order]


def count_main_eigenvalues(
    g: Graph, group_tol: float = 1e-8, proj_tol: float = 1e-8
) -> SpectrumReport:
    """Count adjacency eigenvalues whose eigenspace is not orthogonal to the
    all-ones vector.

    Eigenvalues within group_tol of their neighbor share a group; a group is
    main when the all-ones projection onto its eigenspace has norm above
    proj_tol * sqrt(order).
    """
    if group_tol <= 0 or proj_tol <= 0:
        raise ValueError("tolerances must be positive")
    k = g.order
    values, vectors = symmetric_eigen(adjacency_matrix(g))
    # (A v)_i is the sum of v over the neighbours of i, so the worst residual
    # costs O(order * edges) rather than a dense product per eigenpair
    nbrs = [sorted(u - 1 for u in adj) for adj in g.neighbor_sets().values()]
    max_residual = max(
        abs(sum(vec[j] for j in adj) - lam * x)
        for lam, vec in zip(values, vectors)
        for adj, x in zip(nbrs, vec)
    )
    groups: list[tuple[float, int]] = []
    flags: list[bool] = []
    start = 0
    while start < k:
        stop = start + 1
        while stop < k and values[stop] - values[stop - 1] <= group_tol:
            stop += 1
        members = range(start, stop)
        rep = sum(values[i] for i in members) / len(members)
        proj_sq = sum(sum(vectors[i]) ** 2 for i in members)
        groups.append((rep, len(members)))
        flags.append(math.sqrt(proj_sq) > proj_tol * math.sqrt(k))
        start = stop
    return SpectrumReport(
        eigenvalues=tuple(values),
        groups=tuple(groups),
        main_flags=tuple(flags),
        main_count=sum(flags),
        max_residual=max_residual,
    )


def divisor_eigenpairs(n: int) -> list[ClosedFormEigenpair]:
    """All n-1 closed-form eigenpairs of the transposed divisor matrix.

    Index k below n-2 pairs 2 cos(k pi / (n-2)) with a sampled-cosine vector;
    the final index pairs -2 with the alternating sign vector.
    """
    if n < 4:
        raise ValueError(f"order must be >= 4, got {n}")
    denom = n - 2
    pairs = []
    for k in range(denom):
        lam = 2.0 * math.cos(k * math.pi / denom)
        vec = [math.cos(m * k * math.pi / denom) for m in range(denom)]
        vec.append(math.cos(k * math.pi))
        pairs.append(ClosedFormEigenpair(k, lam, tuple(vec)))
    alternating = tuple(1.0 if i % 2 == 0 else -1.0 for i in range(n - 1))
    pairs.append(ClosedFormEigenpair(denom, -2.0, alternating))
    return pairs


def eigenpair_residual(m: IntMatrix, pair: ClosedFormEigenpair) -> float:
    """Max-norm of (m^T v - lambda v) for one claimed eigenpair of m^T."""
    if m.rows != m.cols or m.rows != len(pair.vector):
        raise ValueError("matrix and eigenvector sizes disagree")
    k = m.rows
    v = pair.vector
    worst = 0.0
    for j in range(k):
        s = sum(map(operator.mul, m.column(j), v))
        worst = max(worst, abs(s - pair.eigenvalue * v[j]))
    return worst


def main_value_pattern(n: int, k: int) -> int:
    """Exact dot product of the all-ones vector with the k-th closed-form eigenvector.

    n-1 at k = 0, then 1 for even k and 0 for odd k.
    """
    if n < 4:
        raise ValueError(f"order must be >= 4, got {n}")
    if not 0 <= k <= n - 2:
        raise IndexError(f"k must be in 0..{n - 2}, got {k}")
    if k == 0:
        return n - 1
    return 1 if k % 2 == 0 else 0


def cosine_sum(a: float, b: float, x: float, n: int) -> float:
    """Closed form of sum_{k=1..n} cos((a k + b) x).

    Undefined when sin(a x / 2) vanishes; inputs within 1e-12 of that pole are
    rejected.
    """
    half = math.sin(0.5 * a * x)
    if abs(half) <= 1e-12:
        raise ValueError("sin(a x / 2) is too close to zero")
    return (math.sin(((n + 0.5) * a + b) * x) - math.sin((0.5 * a + b) * x)) / (2.0 * half)


def _float_det(rows: list[list[float]]) -> float:
    a = [row[:] for row in rows]
    k = len(a)
    det = 1.0
    for c in range(k):
        piv = max(range(c, k), key=lambda i: abs(a[i][c]))
        if a[piv][c] == 0.0:
            return 0.0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1.0 / a[c][c]
        for i in range(c + 1, k):
            f = a[i][c] * inv
            if f:
                for j in range(c, k):
                    a[i][j] -= f * a[c][j]
    return det


def det_walk_spectral(
    m: IntMatrix | Sequence[Sequence[float]],
    pairs: Sequence[ClosedFormEigenpair | tuple[float, Sequence[float]]],
) -> float:
    """Determinant of the walk matrix of m, evaluated from eigenpairs of m^T.

    Product of all eigenvalue differences times the product of the all-ones
    projections, divided by the determinant of the eigenvector matrix. The
    eigenvectors must be numerically independent.
    """
    rows = _as_float_rows(m)
    k = len(rows)
    if len(pairs) != k:
        raise ValueError(f"need {k} eigenpairs, got {len(pairs)}")
    lams: list[float] = []
    vecs: list[Sequence[float]] = []
    for pair in pairs:
        if isinstance(pair, ClosedFormEigenpair):
            lams.append(pair.eigenvalue)
            vecs.append(pair.vector)
        else:
            lam, vec = pair
            lams.append(float(lam))
            vecs.append(vec)
    if any(len(v) != k for v in vecs):
        raise ValueError("eigenvector length does not match the matrix order")
    basis = [[float(vecs[j][i]) for j in range(k)] for i in range(k)]
    det_basis = _float_det(basis)
    if abs(det_basis) <= 1e-10:
        raise ValueError("eigenvector matrix is numerically singular")
    diffs = 1.0
    for j in range(k):
        for i in range(j):
            diffs *= lams[j] - lams[i]
    dots = 1.0
    for v in vecs:
        dots *= sum(v)
    return diffs * dots / det_basis
