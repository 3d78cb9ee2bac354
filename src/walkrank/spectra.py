"""Floating-point spectra: a self-contained Jacobi eigensolver, main-eigenvalue
counting, closed-form eigenpairs of the transposed divisor matrix, and the
spectral determinant formula for walk matrices."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, adjacency_matrix
from .intmatrix import IntMatrix

_SYMMETRY_RTOL = 1e-12
_JACOBI_RTOL = 1e-12
_MAX_SWEEPS = 100


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


def symmetric_eigen(
    m: IntMatrix | Sequence[Sequence[float]],
) -> tuple[list[float], list[list[float]]]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors. Sweeps stop once the off-diagonal Frobenius mass drops below
    1e-12 of the input's Frobenius norm.
    """
    a = _as_float_rows(m)
    k = len(a)
    scale = max(1.0, max(abs(x) for row in a for x in row))
    for i in range(k):
        for j in range(i + 1, k):
            if abs(a[i][j] - a[j][i]) > _SYMMETRY_RTOL * scale:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    v = [[1.0 if i == j else 0.0 for j in range(k)] for i in range(k)]
    norm = math.sqrt(sum(x * x for row in a for x in row))
    threshold = _JACOBI_RTOL * norm
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(k) for j in range(k) if i != j))
        if off <= threshold:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(k):
                    if r in (p, q):
                        continue
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
                for r in range(k):
                    vrp, vrq = v[r][p], v[r][q]
                    v[r][p] = c * vrp - s * vrq
                    v[r][q] = s * vrp + c * vrq
    order = sorted(range(k), key=lambda i: a[i][i])
    values = [a[i][i] for i in order]
    vectors = [[v[r][i] for r in range(k)] for i in order]
    return values, vectors


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
    rows = _as_float_rows(adjacency_matrix(g))
    k = g.order
    values, vectors = symmetric_eigen(rows)
    max_residual = 0.0
    for lam, vec in zip(values, vectors):
        for i in range(k):
            resid = abs(sum(rows[i][j] * vec[j] for j in range(k)) - lam * vec[i])
            if resid > max_residual:
                max_residual = resid
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
