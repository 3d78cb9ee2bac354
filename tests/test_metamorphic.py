"""Metamorphic tests of the exact kernels.

Bareiss, the Smith normal form and the modular rank eliminate only the
distinct nonzero rows of their input. Repeating a row, adding a zero row or
permuting the rows changes neither the row space nor the invariant factors,
so every kernel must return the same answer before and after. The expected
ranks and determinants come from Fraction elimination over every row, which
shares no code with the kernels. `_bareiss` is left-looking; a right-looking
copy of the same elimination must give it the same triple on every input.
"""

import random
from fractions import Fraction
from math import prod
from operator import mul

import pytest

from walkrank.graphs import adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import (
    IntMatrix,
    _bareiss,
    det_exact,
    rank_fraction_free,
    rank_modular,
    walk_matrix,
)
from walkrank.quotient import hat_walk_matrix
from walkrank.snf import rank_via_snf, smith_normal_form

PRIMES = (3, 1073741789)


def _random_matrix(rng):
    """Up to 12x12 with entries in -5..5; about half have rank below both sides."""
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    if rng.random() < 0.5:
        r = rng.randint(1, min(rows, cols))
        x = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rows)]
        y = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(r)]
        data = [sum(a * b for a, b in zip(xr, yc)) for xr in x for yc in zip(*y)]
    else:
        data = [rng.randint(-5, 5) for _ in range(rows * cols)]
    return IntMatrix(rows, cols, data)


def _corpus(seed, count=60):
    rng = random.Random(seed)
    return [(_random_matrix(rng), random.Random(seed * 1000 + i)) for i in range(count)]


def _fraction_elimination(rows):
    """(rank, determinant of the leading square block) by Gaussian elimination
    over the rationals on every row, in order; the determinant is only
    meaningful for a square matrix."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank, det = 0, Fraction(1)
    for c in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][c]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank, det


def _reference_bareiss(m):
    """The Bareiss run over every row of m, with no rows removed: the
    elimination `_bareiss` must repeat exactly on a nonsingular matrix."""
    a = m.to_rows()
    prev, sign, r = 1, 1, 0
    for c in range(m.cols):
        if r == m.rows:
            break
        nonzero = [i for i in range(r, m.rows) if a[i][c]]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda i: abs(a[i][c]))
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        for i in range(r + 1, m.rows):
            a[i] = [(p * x - a[i][c] * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
    return r, sign, prev


def _right_looking_bareiss(m):
    """Bareiss over the distinct nonzero rows of m in the right-looking order:
    each pivot step rewrites every later column of every row below it and
    zeroes its pivot column there."""
    a = [list(r) for r in dict.fromkeys(map(tuple, m.to_rows())) if any(r)]
    nrows = len(a)
    prev, sign, r = 1, 1, 0
    for c in range(m.cols):
        if r == nrows:
            break
        nonzero = [i for i in range(r, nrows) if a[i][c]]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda i: abs(a[i][c]))
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            for j in range(c + 1, m.cols):
                a[i][j] = (p * a[i][j] - f * a[r][j]) // prev
            a[i][c] = 0
        prev = p
        r += 1
    return r, sign, prev


def _shaped_matrix(rng, shape):
    """Up to 12x16 with entries in -5..5, of the given shape."""
    if shape == "wide":
        rows = rng.randint(1, 11)
        cols = rng.randint(rows + 1, 16)
    elif shape == "tall":
        cols = rng.randint(1, 11)
        rows = rng.randint(cols + 1, 12)
    else:
        rows, cols = rng.randint(1, 12), rng.randint(1, 16)
    if shape == "low-rank":
        r = rng.randint(1, max(1, min(rows, cols) - 1))
        x = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rows)]
        y = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(r)]
        return IntMatrix.from_rows([[sum(map(mul, xr, yc)) for yc in zip(*y)] for xr in x])
    a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    if shape == "zero-columns":
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in a:
                row[j] = 0
    elif shape == "repeated-rows":
        for _ in range(rng.randint(1, rows)):
            a[rng.randrange(rows)] = list(a[rng.randrange(rows)])
    return IntMatrix.from_rows(a)


def _invariants(m):
    return (
        rank_fraction_free(m),
        rank_via_snf(m),
        tuple(rank_modular(m, p) for p in PRIMES),
        smith_normal_form(m).invariant_factors,
    )


def _repeat_rows(m, rng):
    rows = m.to_rows()
    extra = [list(rows[rng.randrange(m.rows)]) for _ in range(rng.randint(1, m.rows + 2))]
    for r in extra:
        rows.insert(rng.randint(0, len(rows)), r)
    return IntMatrix.from_rows(rows)


def _add_zero_rows(m, rng):
    rows = m.to_rows()
    for _ in range(rng.randint(1, 4)):
        rows.insert(rng.randint(0, len(rows)), [0] * m.cols)
    return IntMatrix.from_rows(rows)


def _permute_rows(m, rng):
    rows = m.to_rows()
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_agree_with_fraction_elimination(seed):
    for m, _ in _corpus(seed):
        rank, det = _fraction_elimination(m.to_rows())
        ranks_fraction_free, rank_snf, ranks_mod, factors = _invariants(m)
        assert ranks_fraction_free == rank_snf == len(factors) == rank
        # 3 may divide a pivoting minor; the large prime divides none here
        assert ranks_mod[0] <= ranks_mod[1] == rank
        if m.rows == m.cols == rank:
            assert prod(factors) == abs(det)


@pytest.mark.parametrize("change", [_repeat_rows, _add_zero_rows, _permute_rows])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_changes_leave_every_kernel_unchanged(seed, change):
    for m, rng in _corpus(seed):
        changed = change(m, rng)
        assert _invariants(changed) == _invariants(m)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_determinant_vanishes_with_a_repeated_or_zero_row(seed):
    rng = random.Random(seed)
    for _ in range(40):
        k = rng.randint(2, 12)
        rows = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        i, j = rng.sample(range(k), 2)
        rows[j] = list(rows[i]) if rng.random() < 0.5 else [0] * k
        assert det_exact(IntMatrix.from_rows(rows)) == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nonsingular_runs_are_unchanged(seed):
    rng = random.Random(seed)
    seen = 0
    while seen < 40:
        k = rng.randint(1, 12)
        m = IntMatrix(k, k, [rng.randint(-5, 5) for _ in range(k * k)])
        rank, det = _fraction_elimination(m.to_rows())
        if rank < k:
            continue
        seen += 1
        assert _bareiss(m) == _reference_bareiss(m)
        assert det_exact(m) == det


@pytest.mark.parametrize("n", range(4, 41))
def test_walk_matrix_with_its_repeated_rows_removed_by_hand(n):
    w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
    distinct = []
    for row in w.to_rows():
        if row not in distinct:
            distinct.append(row)
    assert len(distinct) < w.rows
    reduced = IntMatrix.from_rows(distinct)
    invariants = _invariants(w)
    assert invariants == _invariants(reduced)
    assert invariants[:2] == (n // 2, n // 2) and invariants[2][1] == n // 2


def _assert_same_as_right_looking(m):
    triple = _right_looking_bareiss(m)
    assert _bareiss(m) == triple
    assert rank_fraction_free(m) == triple[0]
    if m.rows == m.cols:
        rank, sign, last_pivot = triple
        assert det_exact(m) == (sign * last_pivot if rank == m.rows else 0)


@pytest.mark.parametrize("shape", ["wide", "tall", "low-rank", "zero-columns", "repeated-rows"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_left_looking_matches_right_looking_on_random_matrices(seed, shape):
    rng = random.Random(seed)
    for _ in range(80):
        _assert_same_as_right_looking(_shaped_matrix(rng, shape))


@pytest.mark.parametrize("n", range(4, 61))
def test_left_looking_matches_right_looking_on_walk_matrices(n):
    w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
    _assert_same_as_right_looking(w)
    _assert_same_as_right_looking(hat_walk_matrix(w))
