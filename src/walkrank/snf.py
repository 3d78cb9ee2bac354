"""Smith normal form over the integers; depends only on `intmatrix`."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .intmatrix import IntMatrix


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def __post_init__(self) -> None:
        d = self.invariant_factors
        for x in d:
            if x < 1:
                raise ValueError(f"invariant factors must be positive, got {x}")
        for a, b in zip(d, d[1:]):
            if b % a:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")


def _nearest_div(v: int, p: int) -> int:
    """Quotient q minimizing |v - q p|."""
    q, r = divmod(v, p)
    if 2 * abs(r) > abs(p):
        q += 1
    return q


def _min_abs_nonzero(a: list[list[int]], t: int, nrows: int, ncols: int) -> tuple[int, int] | None:
    best = None
    best_abs = 0
    for i in range(t, nrows):
        row = a[i]
        for j in range(t, ncols):
            v = row[j]
            if v:
                av = -v if v < 0 else v
                if best is None or av < best_abs:
                    best, best_abs = (i, j), av
                    if av == 1:
                        return best
    return best


def _divisibility_fixup(diag: list[int]) -> list[int]:
    """Turn positive diagonal entries into a divisibility chain in one pass,
    setting (d_i, d_j) to (gcd, lcm) for each pair i < j where d_i ∤ d_j.

    After step i, d_i divides every later entry; the gcd and lcm of two
    multiples of d_i are again multiples of d_i, so later steps keep that.
    """
    d = list(diag)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    return d


def distinct_nonzero_rows(rows: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The first copy of each nonzero row, in order of first occurrence."""
    return [r for r in dict.fromkeys(rows) if any(r)]


def walk_core(w: IntMatrix) -> IntMatrix:
    """W's distinct nonzero rows, in order of first occurrence, each cut at
    their count d: for a walk matrix, a d x d matrix with W's invariant factors.

    smith_normal_form drops repeated and zero rows on its own; the cut keeps
    the factors too. For any Krylov matrix K = [v, Av, A^2 v, ...] of an
    integer A, the walk matrix W = [1, A1, A^2 1, ...] among them, the
    minimal polynomial of v under A is monic over Z (Gauss's lemma), so the
    columns from rank K <= d on are integer combinations of earlier ones, on
    any subset of K's rows. So W's d also serves its trim and W' (the trim
    plus zero rows and columns); those are no walk matrices, and are never
    cut at a count of their own. The same holds for W_E = W·U, whose column
    j is E_j(A)·1 for a monic E_j of degree j (intmatrix.chebyshev_walk_matrix):
    a polynomial reduced modulo the monic minimal polynomial is an integer
    combination of E_0, ..., E_{d-1}. Scans cut W_E. A matrix with no
    nonzero row raises ValueError.
    """
    rows = distinct_nonzero_rows(w)
    return IntMatrix.from_rows([r[: len(rows)] for r in rows])


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Invariant factors of any rectangular integer matrix.

    Works on the distinct nonzero rows of m only: subtracting a row from its
    copy is a unimodular operation that leaves a zero row, and zero rows add
    no invariant factor, so the factors are those of m. Nothing else of m is
    read: two matrices whose distinct nonzero rows form the same list in
    order of first occurrence get the same factors, by the same steps.
    Every column is eliminated; a walk matrix is cut first by walk_core.
    Diagonalizes with elementary (unimodular) row and column operations,
    then repairs the divisibility chain on the diagonal. Each corner t
    starts from the least nonzero entry of the remaining block; reducing
    column t, then row t, by nearest quotients hands its least nonzero
    remainder on as the next pivot. A remainder is at most half the pivot,
    so the pivots shrink and the corner ends; taking the least, not the
    first, keeps dense input's entries small.
    """
    ncols = m.cols
    a = list(map(list, distinct_nonzero_rows(m)))
    nrows = len(a)
    diag: list[int] = []
    t, pos = 0, _min_abs_nonzero(a, 0, nrows, ncols)
    while pos is not None:
        i0, j0 = pos
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        trow, p = a[t], a[t][t]
        pos, best = None, 0
        for i in range(t + 1, nrows):
            row = a[i]
            if row[t]:
                q = _nearest_div(row[t], p)
                if q:
                    for j in range(t, ncols):
                        if trow[j]:
                            row[j] -= q * trow[j]
                if row[t] and (not best or abs(row[t]) < best):
                    pos, best = (i, t), abs(row[t])
        if pos is None:
            # column t is now (p, 0, ..., 0); a column op changes row t only
            for j in range(t + 1, ncols):
                trow[j] -= _nearest_div(trow[j], p) * p
                if trow[j] and (not best or abs(trow[j]) < best):
                    pos, best = (t, j), abs(trow[j])
        if pos is None:
            diag.append(abs(p))
            t += 1
            pos = _min_abs_nonzero(a, t, nrows, ncols)
    return SnfResult(tuple(_divisibility_fixup(diag)))


def rank_via_snf(m: IntMatrix) -> int:
    """Rank as the number of invariant factors of m, all of its columns eliminated."""
    return smith_normal_form(m).rank
