import random
import time
from itertools import combinations
from math import gcd, prod

import pytest

from builders import det_cofactor, random_matrix, three_term_basis, w8
from d8_data import W8_FACTORS, W8_PRIME_ROWS, W8_RANK
from walkrank.graphs import adjacency_matrix, make_dynkin, make_extended_dynkin, make_path
from walkrank.intmatrix import (
    IntMatrix,
    chebyshev_walk_matrix,
    det_exact,
    rank_fraction_free,
    walk_matrix,
)
from walkrank.quotient import build_w_prime, hat_walk_matrix
from walkrank.snf import SnfResult, rank_via_snf, smith_normal_form, walk_core


def _diagonal(entries, rows, cols):
    data = [0] * (rows * cols)
    for i, d in enumerate(entries):
        data[i * cols + i] = d
    return IntMatrix(rows, cols, data)


def _factors(m):
    return smith_normal_form(m).invariant_factors


def _cut(m, width):
    """The first `width` columns of m, or all of them when it has fewer."""
    return IntMatrix.from_rows([r[:width] for r in m.to_rows()])


def _factors_via_minor_gcds(m):
    """Independent invariant factors: d_k = gcd of all k x k minors, then
    successive quotients. Only viable for small matrices."""
    rows = m.to_rows()
    divisors = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rsel in combinations(range(m.rows), k):
            for csel in combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_cofactor(sub))
        if g == 0:
            break
        divisors.append(g)
    factors = []
    prev = 1
    for d in divisors:
        factors.append(d // prev)
        prev = d
    return tuple(factors)


class TestSmithNormalForm:
    def test_order8_walk_matrix(self):
        result = smith_normal_form(w8())
        assert result.invariant_factors == W8_FACTORS
        assert result.rank == W8_RANK

    def test_order8_padded_variant(self):
        result = smith_normal_form(build_w_prime(hat_walk_matrix(w8())))
        assert result.invariant_factors == W8_FACTORS

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_identity(self, k):
        assert smith_normal_form(IntMatrix.identity(k)).invariant_factors == (1,) * k

    def test_coprime_diagonal(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert smith_normal_form(m).invariant_factors == (1, 6)

    def test_gcd_lcm_pair(self):
        # (4, 6) must become (gcd, lcm) = (2, 12)
        m = IntMatrix.from_rows([[4, 0], [0, 6]])
        assert smith_normal_form(m).invariant_factors == (2, 12)

    def test_zero_matrix(self):
        result = smith_normal_form(IntMatrix(3, 4, [0] * 12))
        assert result.invariant_factors == ()
        assert result.rank == 0

    def test_rectangular(self):
        m = IntMatrix.from_rows([[2, 4, 4]])
        assert smith_normal_form(m).invariant_factors == (2,)

    def test_against_minor_gcd_oracle_on_pinned_cases(self):
        cases = [
            IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]),
            IntMatrix.from_rows([[1, 2], [3, 4]]),
            IntMatrix.from_rows([[6, 0], [0, 10], [0, 0]]),
        ]
        for m in cases:
            assert smith_normal_form(m).invariant_factors == _factors_via_minor_gcds(m)

    def test_against_minor_gcd_oracle_on_random_corpus(self):
        rng = random.Random(424242)
        for _ in range(80):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=6)
            assert smith_normal_form(m).invariant_factors == _factors_via_minor_gcds(m)

    def test_divisibility_chain_on_random_corpus(self):
        rng = random.Random(5150)
        for _ in range(120):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            d = smith_normal_form(m).invariant_factors
            assert all(b % a == 0 for a, b in zip(d, d[1:]))

    def test_factor_product_matches_determinant(self):
        rng = random.Random(31337)
        seen_full_rank = 0
        while seen_full_rank < 30:
            k = rng.randint(1, 5)
            m = random_matrix(rng, k, k, bound=5)
            det = det_exact(m)
            if det == 0:
                continue
            seen_full_rank += 1
            prod = 1
            for d in smith_normal_form(m).invariant_factors:
                prod *= d
            assert prod == abs(det)

    def test_dense_input_keeps_its_entries_small(self):
        # a dense 38x38 block with entries in -9..9, whose last factor has
        # under 200 bits: a pivot rule that lets the entries grow (past a
        # million bits here) takes seconds
        rng = random.Random(1)
        m = IntMatrix(38, 38, [rng.randint(-9, 9) for _ in range(38 * 38)])
        start = time.perf_counter()
        result = smith_normal_form(m)
        elapsed = time.perf_counter() - start
        prod = 1
        for d in result.invariant_factors:
            prod *= d
        assert prod == abs(det_exact(m))
        assert result.rank == rank_fraction_free(m)
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_idempotent_on_own_diagonal(self):
        rng = random.Random(8)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            result = smith_normal_form(m)
            again = smith_normal_form(_diagonal(result.invariant_factors, m.rows, m.cols))
            assert again.invariant_factors == result.invariant_factors


class TestSnfResult:
    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            SnfResult((2, 3))

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            SnfResult((0,))


class TestRankViaSnf:
    def test_order8(self):
        assert rank_via_snf(w8()) == W8_RANK

    def test_zero(self):
        assert rank_via_snf(IntMatrix(4, 4, [0] * 16)) == 0

    @pytest.mark.parametrize("n", range(4, 20))
    def test_walk_matrix_rank_formula(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        assert rank_via_snf(w) == n // 2


class TestWidth:
    """SNF of walk_core: W cut at its count of distinct nonzero rows."""

    @pytest.mark.parametrize(
        "family, orders",
        [
            (make_path, range(5, 61)),
            (make_dynkin, range(5, 61)),
            (make_extended_dynkin, [*range(4, 61), 200]),
        ],
        ids=["path", "dynkin", "ext-dynkin"],
    )
    def test_cut_factors_equal_the_uncut_ones(self, family, orders):
        for n in orders:
            w = walk_matrix(adjacency_matrix(family(n)))
            core = walk_core(w)
            assert smith_normal_form(core) == smith_normal_form(w), f"{family.__name__}({n})"
            w_prime = build_w_prime(hat_walk_matrix(w))
            cut = smith_normal_form(_cut(w_prime, core.cols))
            assert cut == smith_normal_form(w_prime), f"{family.__name__}({n})"

    @pytest.mark.parametrize(
        "family, first",
        [(make_path, 5), (make_dynkin, 5), (make_extended_dynkin, 4)],
        ids=["path", "dynkin", "ext-dynkin"],
    )
    def test_w_prime_has_the_factors_of_its_trim(self, family, first):
        # W' is the trim plus zero rows and two zero last columns; the widths
        # n and n+1 reach those columns, W's own width stops before them
        for n in range(first, 61):
            w = walk_matrix(adjacency_matrix(family(n)))
            hat = hat_walk_matrix(w)
            for width in (walk_core(w).cols, n, n + 1):
                got = _factors(_cut(build_w_prime(hat), width))
                assert got == _factors(_cut(hat, width)), (n, width)

    @pytest.mark.parametrize("n", [*range(4, 41), 200])
    def test_ext_dynkin_width_is_the_rank(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        core = walk_core(w)
        assert (core.rows, core.cols) == (n // 2, n // 2)

    def test_counts_distinct_nonzero_rows(self):
        m = IntMatrix.from_rows([[1, 2, 5], [0, 0, 0], [1, 2, 5], [2, 1, 7], [0, 0, 0]])
        assert walk_core(m) == IntMatrix.from_rows([[1, 2], [2, 1]])
        with pytest.raises(ValueError, match="need at least one row"):
            walk_core(IntMatrix(3, 2, [0] * 6))

    def test_eliminates_only_the_first_columns(self):
        # every column is eliminated; the core's cut loses the factor of a
        # column that, unlike a walk matrix's, is no combination of the first
        m = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3], [0, 0, 0]])
        assert _factors(m) == (1, 1, 6)
        assert walk_core(m) == IntMatrix.from_rows(m.to_rows()[:3])
        skew = IntMatrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 3]])
        assert _factors(skew) == (1, 1, 6)
        assert _factors(walk_core(skew)) == (1, 2)


class TestWalkCore:
    """walk_core(W), the d x d matrix M of W's distinct nonzero rows cut at d."""

    @pytest.mark.parametrize(
        "family", [make_path, make_dynkin, make_extended_dynkin], ids=["path", "dynkin", "ext-dynkin"]
    )
    def test_core_has_distinct_nonzero_rows_and_the_factors_of_w(self, family):
        for n in range(4, 61):
            w = walk_matrix(adjacency_matrix(family(n)))
            core = walk_core(w)
            rows = [core.row(i) for i in range(core.rows)]
            assert len(set(rows)) == len(rows) and all(map(any, rows)), n
            assert smith_normal_form(core) == smith_normal_form(w), n

    @pytest.mark.parametrize(
        "family", [make_path, make_dynkin, make_extended_dynkin], ids=["path", "dynkin", "ext-dynkin"]
    )
    def test_chebyshev_core_has_the_factors_of_the_uncut_w(self, family):
        # W_E = W U with U unimodular: same rank, distinct rows and factors,
        # and the cut at d still keeps them
        for n in range(4, 61):
            a = adjacency_matrix(family(n))
            w = walk_matrix(a)
            core = walk_core(chebyshev_walk_matrix(a))
            assert core.rows == walk_core(w).rows, n
            assert smith_normal_form(core) == smith_normal_form(w), n

    def test_a_non_monic_seed_changes_the_factors(self):
        # E_0 = 2 gives the Dickson basis, with determinant 2: W times it is
        # no longer unimodularly equivalent to W, and the cut core shows it
        for n in (5, 8, 12, 21):
            a = adjacency_matrix(make_extended_dynkin(n))
            w = walk_matrix(a)
            dickson = w @ three_term_basis(a.rows, seed=2)
            assert _factors(dickson) != _factors(w), n
            assert _factors(walk_core(dickson)) != _factors(w), n

    def test_ext_dynkin_core_determinant_is_the_product_of_the_factors(self):
        # Bareiss never sees the core; this pins, in a test only, that
        # |det M| is the product of W's invariant factors
        for n in range(4, 121):
            w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
            core = walk_core(w)
            assert (core.rows, core.cols) == (n // 2, n // 2), n
            assert abs(det_exact(core)) == prod(_factors(w)), n


class TestIntegralEquivalence:
    """Equal shapes with equal invariant factors: the comparison the reports make."""

    def test_order8_pair(self):
        w = w8()
        assert _factors(w) == _factors(build_w_prime(hat_walk_matrix(w)))

    def test_permuted_identity(self):
        perm = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert _factors(IntMatrix.identity(3)) == _factors(perm)

    def test_scaling_changes_class(self):
        assert _factors(IntMatrix.identity(2)) != _factors(IntMatrix.from_rows([[2, 0], [0, 2]]))


class TestBuildWPrime:
    def test_order8_pinned(self):
        assert build_w_prime(hat_walk_matrix(w8())).to_rows() == W8_PRIME_ROWS

    def test_order8_second_row(self):
        assert build_w_prime(hat_walk_matrix(w8())).row(1) == (1, 1, 3, 4, 11, 16, 43, 0, 0)

    @pytest.mark.parametrize("n", range(4, 16))
    def test_zero_border(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        wp = build_w_prime(hat_walk_matrix(w))
        size = n + 1
        assert wp.row(0) == (0,) * size
        assert wp.row(size - 1) == (0,) * size
        assert all(r[size - 2 :] == [0, 0] for r in wp.to_rows())
