"""Floating-point spectra: a self-contained symmetric eigensolver (band
reduction to tridiagonal form, then implicit-shift QL as in EISPACK's imtql2,
both rotating only the all-ones vector Q^T 1 and forming no eigenvectors),
main-eigenvalue counting with an inertia check of its eigenvalue groups (one
LDL^T count on a weighted forest: the graph itself when it is a forest, the
tridiagonal form as a path otherwise), and the residuals of the divisor
matrix's closed-form eigenpairs.

Every matrix enters as a square IntMatrix (intmatrix.square_order), and
anything else raises TypeError or ValueError; the integers are checked exactly
before any of them becomes a float."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NoReturn, Sequence

from .graphs import Graph, adjacency_matrix, check_family_order
from .intmatrix import IntMatrix, check_int, row_support, square_order

_EPS = 2.0**-52
_MAX_QL_ITERATIONS = 30  # QL steps per eigenvalue, EISPACK's cap; about two are typical
_GROUP_TOL = 1e-8  # eigenvalues this close share a group
_PROJ_TOL = 1e-8  # a group is main above this all-ones projection, per sqrt(order)


class ConvergenceError(ArithmeticError):
    """An iterative float route stopped at its iteration cap."""


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues grouped by closeness, with a main/non-main flag per group,
    and whether an inertia count by the named route confirms the groups."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    main_flags: tuple[bool, ...]
    main_count: int
    inertia_route: str
    inertia_ok: bool


@dataclass(frozen=True)
class ClosedFormEigenpair:
    k: int
    eigenvalue: float
    vector: tuple[float, ...]


def _too_large(m: IntMatrix) -> NoReturn:
    """Raise ValueError naming the (row, col) of m's largest entry in absolute
    value: called when converting m to floats overflowed."""
    big = max(abs(x) for row in m for x in row)
    i, j = next((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if abs(x) == big)
    raise ValueError(f"matrix entry at ({i}, {j}) is too large for a float") from None


def _rotate(a: list[list[float]], z: list[float], p: int, col: int, b: int) -> None:
    """Zero a[p+1][col] against a[p][col] with a Givens rotation G of rows p, p+1.

    A becomes G A G^T and z becomes G z. With bandwidth b and at most one bulge,
    rows p and p+1 are zero outside columns p-b..p+b+1, so only that window of
    the two rows and the matching columns is rotated.
    """
    q = p + 1
    rp, rq = a[p], a[q]
    x, y = rp[col], rq[col]
    h = math.hypot(x, y)
    c, s = x / h, y / h
    app, apq, aqq = rp[p], rp[q], rq[q]
    lo, hi = max(0, p - b), min(len(a), q + b + 1)
    up, uq = rp[lo:hi], rq[lo:hi]
    rp[lo:hi] = new_p = [c * u + s * v for u, v in zip(up, uq)]
    rq[lo:hi] = new_q = [c * v - s * u for u, v in zip(up, uq)]
    for t, u, v in zip(range(lo, hi), new_p, new_q):
        row = a[t]
        row[p] = u
        row[q] = v
    rp[col] = a[col][p] = h
    rq[col] = a[col][q] = 0.0
    cs, cc, ss = c * s, c * c, s * s
    rp[p] = cc * app + 2.0 * cs * apq + ss * aqq
    rq[q] = ss * app - 2.0 * cs * apq + cc * aqq
    rp[q] = rq[p] = cs * (aqq - app) + (cc - ss) * apq
    zp, zq = z[p], z[q]
    z[p] = c * zp + s * zq
    z[q] = c * zq - s * zp


def _tridiagonal(a: list[list[float]]) -> tuple[list[float], list[float], list[float]]:
    """Band reduction of a symmetric matrix to tridiagonal form, in place.

    Givens rotations clear each column below the subdiagonal from the edge of
    the band inwards, and chase the bulge each one makes down the band and off
    the end (Schwarz, Numer. Math. 12, 1968). The bandwidth b is read from the
    matrix, so a banded matrix costs O(k^2 b) and a full one O(k^3). With
    T = Q^T A Q, returns the diagonal d of T, its off-diagonal e (e[i] couples
    i and i+1; e[-1] is 0) and z = Q^T 1; Q itself is never formed.
    """
    k = len(a)
    b = max(i - next(j for j, x in enumerate(row) if x or j == i) for i, row in enumerate(a))
    z = [1.0] * k
    for j in range(k - 2):
        for i in range(min(j + b, k - 1), j + 1, -1):
            # clearing a[i][j] with rows i-1, i fills a[i+b][i-1]; clearing
            # that with rows i+b-1, i+b fills a[i+2b][i+b-1], and so on
            p, col = i - 1, j
            while p + 1 < k and a[p + 1][col]:
                _rotate(a, z, p, col, b)
                p, col = p + b, p
    d = [a[i][i] for i in range(k)]
    e = [a[i + 1][i] for i in range(k - 1)] + [0.0]
    return d, e, z


def _implicit_ql(d: list[float], e: list[float], z: list[float]) -> None:
    """Implicit-shift QL on a tridiagonal matrix (EISPACK's imtql2), rotating z.

    Wilkinson's shift enters each step's first rotation, so the diagonal is
    never shifted. On return d holds the eigenvalues, and z has gone through
    every QL rotation: if z was Q^T 1 for T = Q^T A Q, z[i] is now the dot
    product of the all-ones vector with a unit eigenvector of A for d[i].
    """
    tst1 = 0.0
    for l in range(len(d)):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        iterations = 0
        while abs(e[l]) > _EPS * tst1:
            if iterations == _MAX_QL_ITERATIONS:
                raise ConvergenceError(
                    f"QL iteration for eigenvalue {l} did not converge "
                    f"within {_MAX_QL_ITERATIONS} iterations"
                )
            iterations += 1
            m = l + 1
            while abs(e[m]) > _EPS * tst1:
                m += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                if r == 0.0:
                    # f = g = 0 (underflow): T splits at e[i + 1] = 0, so start over
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def symmetric_eigen(
    m: IntMatrix,
) -> tuple[list[float], list[float], tuple[list[float], list[float]]]:
    """Eigenvalues of a symmetric matrix and the all-ones vector's projections.

    Band reduction to tridiagonal form, then implicit-shift QL (Dubrulle,
    Martin & Wilkinson, Handbook for Automatic Computation II/4, 1971); both
    rotate only z = Q^T 1, the way Golub & Welsch (Math. Comp. 23, 1969) carry
    one row of Q, and no eigenvector is formed. Returns the eigenvalues in
    ascending order and z in the same order: z[i] is the dot product of the
    all-ones vector with the i-th vector of an orthonormal eigenbasis. Inside
    a repeated eigenvalue that basis is arbitrary, so only the norm of z over
    the whole group is determined. Third comes the tridiagonal form (d, e)
    taken before QL. Raises ConvergenceError when one eigenvalue needs more
    than _MAX_QL_ITERATIONS QL steps. m must be a square IntMatrix (TypeError,
    ValueError otherwise) and symmetric (ValueError otherwise), checked on its
    integers before any becomes a float: two entries that round to the same
    float still differ. An entry too large for a float raises ValueError.
    """
    k = square_order(m)
    rows = list(m)
    if rows != list(zip(*rows)):
        i, j = next((i, j) for i in range(k) for j in range(i + 1, k) if rows[i][j] != rows[j][i])
        raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    try:
        a = [[float(x) for x in row] for row in rows]
    except OverflowError:
        _too_large(m)
    d, e, z = _tridiagonal(a)
    form = (d[:], e[:])
    _implicit_ql(d, e, z)
    order = sorted(range(k), key=d.__getitem__)
    return [d[i] for i in order], [z[i] for i in order], form


def _forest(g: Graph) -> tuple[list[int], list[int]] | None:
    """The parent of each vertex (0-based, -1 at a root) and an order that
    lists every vertex after its parent, or None when g has a cycle."""
    nbrs = [[u - 1 for u in adj] for adj in g.neighbor_sets().values()]
    parent = [-1] * g.order
    seen = [False] * g.order
    order: list[int] = []
    roots = 0
    for root in range(g.order):
        if seen[root]:
            continue
        roots += 1
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
    if g.edge_count != g.order - roots:
        return None
    return parent, order


def _count_below(
    parent: Sequence[int], order: Sequence[int], diag: Sequence[float], w2: Sequence[float],
    x: float,
) -> int:
    """Number of eigenvalues below x of a symmetric matrix M on a weighted forest.

    M has diagonal diag, and its only other nonzero entries are the ones
    between each v and parent[v] (parent -1 at a root), squared in w2[v];
    order lists every vertex after its parent. Eliminating M - xI leaves
    first makes no fill-in and gives M - xI = L D L^T, so by Sylvester's law
    of inertia the negative pivots count the eigenvalues below x (Jacobs &
    Trevisan, LAA 434, 2011, on a tree; on a path it is the Sturm count,
    Parlett, The Symmetric Eigenvalue Problem). A pivot smaller than LAPACK's
    pivmin counts as zero and is replaced by +pivmin, so no division
    overflows and an eigenvalue at x itself is not counted. O(order) per call.
    """
    pivmin = sys.float_info.min * max(1.0, max(w2))
    pulled = [0.0] * len(parent)  # sum of w2(c)/pivot(c) over the children c
    count = 0
    for v in reversed(order):
        q = diag[v] - x - pulled[v]
        if abs(q) < pivmin:
            q = pivmin
        count += q < 0
        p = parent[v]
        if p >= 0:
            pulled[p] += w2[v] / q
    return count


def count_main_eigenvalues(g: Graph) -> SpectrumReport:
    """Count adjacency eigenvalues whose eigenspace is not orthogonal to the
    all-ones vector.

    Eigenvalues within _GROUP_TOL (1e-8) of their neighbor share a group; a
    group is main when the all-ones projection onto its eigenspace has norm
    above _PROJ_TOL (1e-8) times sqrt(order). Both tolerances are fixed. The
    groups are then checked by inertia: each group is bracketed from its
    smallest member minus _GROUP_TOL/4 to its largest plus _GROUP_TOL/4, and A
    must have exactly as many eigenvalues in the bracket as the group has
    members. Groups lie more than _GROUP_TOL apart, so the brackets are
    disjoint; as the multiplicities sum to the order, every eigenvalue of A
    then lies in its group's bracket. A wrong eigenvalue, a repeated one that
    the solver splits into two groups and two distinct ones merged into one
    group each fail the check. The count is one LDL^T elimination on a
    weighted forest (_count_below): on the graph itself when it is a forest
    (route "tree", independent of the band reduction and of QL), and on the
    tridiagonal form of A that symmetric_eigen took before QL, as a weighted
    path, otherwise (route "sturm").
    """
    k = g.order
    adj = adjacency_matrix(g)
    values, z, (tri_diag, tri_off) = symmetric_eigen(adj)
    delta = _GROUP_TOL / 4
    groups: list[tuple[float, int]] = []
    flags: list[bool] = []
    brackets: list[tuple[float, float, int]] = []  # (lo, hi, eigenvalues in between)
    start = 0
    while start < k:
        stop = start + 1
        while stop < k and values[stop] - values[stop - 1] <= _GROUP_TOL:
            stop += 1
        members = range(start, stop)
        rep = sum(values[i] for i in members) / len(members)
        proj_sq = sum(z[i] * z[i] for i in members)
        groups.append((rep, len(members)))
        flags.append(math.sqrt(proj_sq) > _PROJ_TOL * math.sqrt(k))
        brackets.append((values[start] - delta, values[stop - 1] + delta, len(members)))
        start = stop
    forest = _forest(g)
    if forest is not None:
        route, (parent, order), diag, w2 = "tree", forest, [0.0] * k, [1.0] * k
    else:
        # the tridiagonal form taken before QL, as a path rooted at k-1
        route, parent, order = "sturm", [*range(1, k), -1], range(k - 1, -1, -1)
        diag, w2 = tri_diag, [v * v for v in tri_off]
    below = lambda x: _count_below(parent, order, diag, w2, x)
    return SpectrumReport(
        eigenvalues=tuple(values),
        groups=tuple(groups),
        main_flags=tuple(flags),
        main_count=sum(flags),
        inertia_route=route,
        inertia_ok=all(below(hi) - below(lo) == count for lo, hi, count in brackets),
    )


def divisor_eigenpairs(n: int) -> list[ClosedFormEigenpair]:
    """All n-1 closed-form eigenpairs of the transposed divisor matrix.

    Index k below n-2 pairs 2 cos(k pi / (n-2)) with a sampled-cosine vector;
    the final index pairs -2 with the alternating sign vector. n as in
    check_family_order.
    """
    check_family_order(n)
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


def _float_pair(pair: ClosedFormEigenpair) -> tuple[float, list[float]]:
    """The eigenvalue and vector of pair as floats. TypeError naming the pair
    and the entry unless all are ints or floats, bools refused, and
    ValueError naming the pair unless all are finite and fit in a float."""
    name, eigenvalue, vector = f"eigenpair k={pair.k}", pair.eigenvalue, pair.vector
    # math.isfinite(True) holds, so True would read as 1.0
    if type(eigenvalue) not in (int, float):
        raise TypeError(f"{name}: eigenvalue must be an int or a float, got {eigenvalue!r}")
    if not {int, float}.issuperset(map(type, vector)):
        i = next(i for i, x in enumerate(vector) if type(x) not in (int, float))
        raise TypeError(f"{name}: vector entry {i} must be an int or a float, got {vector[i]!r}")
    try:
        lam, v = float(eigenvalue), list(map(float, vector))
    except OverflowError:
        raise ValueError(f"{name}: an int entry is too large for a float") from None
    if not math.isfinite(lam):
        raise ValueError(f"{name}: eigenvalue is not finite: {eigenvalue}")
    if not all(map(math.isfinite, v)):
        i = next(i for i, x in enumerate(v) if not math.isfinite(x))
        raise ValueError(f"{name}: vector entry {i} is not finite: {vector[i]}")
    return lam, v


def eigenpair_residual(m: IntMatrix, pair: ClosedFormEigenpair) -> float:
    """Max-norm of (m^T v - lambda v) for one claimed eigenpair of m^T.

    m as in square_order. A NaN or infinite eigenvalue or vector entry, or an
    int one too large for a float, raises ValueError naming the pair, and one
    that is not an int or a float (a bool included) TypeError. The pair is
    converted to floats first, so the residual is a float even for an
    all-int pair. An entry of m too large for a float raises ValueError
    naming m's largest entry.
    """
    if square_order(m) != len(pair.vector):
        raise ValueError("matrix and eigenvector sizes disagree")
    # max(0.0, nan) is 0.0, so a NaN would read as a perfect residual
    lam, v = _float_pair(pair)
    # the nonzero terms of each column of m^T v, in row order: a zero term
    # never changes a float sum, so sum() of them equals sum() of the whole
    # column. sum() and not +=: from Python 3.12 sum() compensates rounding
    terms: list[list[float]] = [[] for _ in v]
    try:
        for vi, support in zip(v, row_support(m)):
            for j, a in support:
                terms[j].append(a * vi)
    except OverflowError:
        _too_large(m)
    return max(0.0, *(abs(sum(t) - lam * x) for t, x in zip(terms, v)))


def main_value_pattern(n: int, k: int) -> int:
    """Exact dot product of the all-ones vector with the k-th closed-form eigenvector.

    n-1 at k = 0, then 1 for even k and 0 for odd k. n as in
    check_family_order, k as in check_int.
    """
    check_family_order(n)
    check_int(k, "k")
    if not 0 <= k <= n - 2:
        raise IndexError(f"k must be in 0..{n - 2}, got {k}")
    if k == 0:
        return n - 1
    return 1 if k % 2 == 0 else 0
