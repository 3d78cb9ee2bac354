"""The Smith normal form against sympy's, on matrices with repeated and zero
rows and on walk matrices. Skipped when sympy, a test-only oracle, is missing."""

import random

import pytest

from walkrank.graphs import adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import IntMatrix, walk_matrix
from walkrank.quotient import build_w_prime, hat_walk_matrix
from walkrank.snf import smith_normal_form

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


def _sympy_factors(m):
    """Nonzero invariant factors from sympy's smith_normal_form."""
    s = normalforms.smith_normal_form(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
    return tuple(d for d in (abs(int(s[i, i])) for i in range(min(s.shape))) if d)


def _with_repeated_and_zero_rows(rng):
    rows, cols = rng.randint(1, 10), rng.randint(1, 10)
    a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(1, 4)):
        extra = list(rng.choice(a)) if rng.random() < 0.6 else [0] * cols
        a.insert(rng.randint(0, len(a)), extra)
    return IntMatrix.from_rows(a)


@pytest.mark.parametrize("seed", range(5))
def test_matches_sympy_with_repeated_and_zero_rows(seed):
    rng = random.Random(seed)
    for _ in range(20):
        m = _with_repeated_and_zero_rows(rng)
        assert smith_normal_form(m).invariant_factors == _sympy_factors(m)


@pytest.mark.parametrize("n", range(4, 25))
def test_matches_sympy_on_walk_matrices(n):
    w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
    for m in (w, build_w_prime(hat_walk_matrix(w))):
        assert smith_normal_form(m).invariant_factors == _sympy_factors(m)
