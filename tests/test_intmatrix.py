import random
import re
from enum import IntEnum

import pytest

from builders import det_cofactor, diagonal, random_matrix, three_term_basis, w8
from d8_data import W8_RANK, W8_ROWS
from walkrank.graphs import adjacency_matrix, make_dynkin, make_extended_dynkin, make_path
from walkrank.intmatrix import (
    IntMatrix,
    chebyshev_walk_matrix,
    check_int,
    det_exact,
    format_matrix_text,
    parse_ints,
    parse_matrix_text,
    rank_fraction_free,
    rank_modular,
    row_support,
    support_product,
    walk_matrix,
)
from walkrank.quotient import canonical_partition, divisor_matrix
from walkrank.snf import rank_via_snf, smith_normal_form


class _Sub(int):
    pass


class _Colour(IntEnum):
    RED = 1


class TestCheckInt:
    # each value is built inside the test, so only the numpy case skips
    # where numpy is missing
    @pytest.mark.parametrize(
        "make",
        [
            lambda: True,
            lambda: _Sub(5),
            lambda: _Colour.RED,
            lambda: pytest.importorskip("numpy").int64(5),
            lambda: 5.0,
            lambda: "5",
            lambda: None,
        ],
        ids=["bool", "int-subclass", "IntEnum", "numpy-int64", "float", "str", "None"],
    )
    def test_refuses_what_is_not_exactly_an_int(self, make):
        value = make()
        with pytest.raises(TypeError, match=re.escape(f"size must be an int, got {value!r}")):
            check_int(value, "size", 1)

    def test_least(self):
        with pytest.raises(ValueError, match=re.escape("size must be >= 4, got 3")):
            check_int(3, "size", 4)
        check_int(4, "size", 4)
        check_int(-7, "size")


# every way a matrix is made, each read back through the row contract
_ROW_SOURCES = {
    "flat": lambda: IntMatrix(2, 3, [1, -2, 3, 4, 0, 6]),
    "from_rows": lambda: IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]]),
    "from_rows_generator": lambda: IntMatrix.from_rows(r for r in [[1, 2], [3, 4], [5, 6]]),
    "identity": lambda: IntMatrix.identity(4),
    "matmul": lambda: (
        IntMatrix.from_rows([[1, 2], [0, 3], [0, 0]]) @ IntMatrix.from_rows([[4, 0, 1], [2, 5, 0]])
    ),
    "walk_matrix": lambda: walk_matrix(adjacency_matrix(make_extended_dynkin(8))),
    "chebyshev_walk_matrix": lambda: chebyshev_walk_matrix(adjacency_matrix(make_dynkin(7))),
    "parse_matrix_text": lambda: parse_matrix_text("2 3\n1 2 3\n-4 5 6\n"),
}


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            IntMatrix(0, 1, [])

    def test_shape_must_be_ints(self):
        # True would pass as 1 and rank as a 1x2 matrix; 2.0 would fail
        # only in the first kernel that calls range(m.rows)
        with pytest.raises(TypeError):
            IntMatrix(True, 2, [1, 2])
        with pytest.raises(TypeError):
            IntMatrix(2.0, 1, [1, 2])
        with pytest.raises(TypeError):
            IntMatrix(1, 2.0, [1, 2])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [1.9, 2])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([["3", 4]])
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [True, 2])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[3], [False]])
        # nothing is coerced: an entry that is not exactly an int is refused,
        # and the message names its (row, col)
        for bad in (_Sub(1), _Colour.RED, True, 1.0, "1", None):
            with pytest.raises(TypeError, match=r"\(1, 0\)"):
                IntMatrix(2, 2, [0, 1, bad, 3])
            with pytest.raises(TypeError, match=r"\(0, 2\)"):
                IntMatrix.from_rows([[0, 1, bad], [3, 4, 5]])

    def test_numpy_integers_are_refused(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(TypeError, match=r"\(0, 1\)"):
            IntMatrix(1, 2, [1, np.int64(2)])
        with pytest.raises(TypeError, match=r"\(1, 0\)"):
            IntMatrix.from_rows([[1], [np.int64(2)]])

    def test_from_rows_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_indexing_and_slices(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert list(m)[0] == (1, 2, 3)

    # an empty iterator of rows raised a bare IndexError
    @pytest.mark.parametrize(
        "rows",
        [lambda: [], lambda: (), lambda: iter([]), lambda: (r for r in [])],
        ids=["list", "tuple", "iterator", "generator"],
    )
    def test_from_rows_needs_a_row(self, rows):
        with pytest.raises(ValueError, match="need at least one row"):
            IntMatrix.from_rows(rows())

    # 2.0 failed in list multiplication without naming the value
    @pytest.mark.parametrize("k", [2.0, True, "2"], ids=repr)
    def test_identity_order_must_be_an_int(self, k):
        with pytest.raises(TypeError, match=re.escape(f"identity order must be an int, got {k!r}")):
            IntMatrix.identity(k)

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (a @ IntMatrix.identity(2)) == a
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (3, 7, 2), (9, 9, 9)]
    )
    def test_matmul_matches_dense_reference(self, shape):
        rows, inner, cols = shape
        rng = random.Random(sum(shape))
        entries = (0, 0, 0, 1, -1, 7, -(10**30), 3**40)
        for _ in range(20):
            a = [[rng.choice(entries) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.choice(entries) for _ in range(cols)] for _ in range(inner)]
            a[rng.randrange(rows)] = [0] * inner
            for r in b:
                r[rng.randrange(cols)] = 0
            want = [
                [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
            got = IntMatrix.from_rows(a) @ IntMatrix.from_rows(b)
            assert got.to_rows() == want

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) @ IntMatrix.identity(3)

    @pytest.mark.parametrize("make", _ROW_SOURCES.values(), ids=_ROW_SOURCES.keys())
    def test_iteration_yields_the_rows_and_to_rows_is_a_copy(self, make):
        m = make()
        rows = list(m)
        assert rows == list(map(tuple, m.to_rows())) and len(rows) == m.rows
        assert all(type(r) is tuple and len(r) == m.cols for r in rows)
        copy = m.to_rows()
        for r in copy:
            r[0] += 1
            r.append(0)
        copy.append([0] * (m.cols + 1))
        assert list(m) == rows and m == make()


def _seeded_pair(seed, kind, rows, inner, cols):
    """Row lists of a rows x inner and an inner x cols matrix: sparse entries
    are mostly 0 with the rest in -2..2, dense ones uniform in -9..9. One row
    of the left factor and one column of the right are all zero."""
    rng = random.Random(seed)
    values = (0, 0, 0, 0, 0, -2, -1, 1, 2) if kind == "sparse" else range(-9, 10)
    a = [[rng.choice(values) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.choice(values) for _ in range(cols)] for _ in range(inner)]
    a[rng.randrange(rows)] = [0] * inner
    zero_col = rng.randrange(cols)
    for r in b:
        r[zero_col] = 0
    return a, b


class TestSparseKernels:
    """__matmul__ and row_support against plain dense loops."""

    SHAPES = [(1, 1, 1), (1, 6, 1), (6, 1, 6), (2, 5, 7), (7, 5, 2), (4, 9, 3), (12, 12, 12)]

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matmul_equals_a_triple_loop(self, kind, shape):
        rows, inner, cols = shape
        for seed in range(10):
            a, b = _seeded_pair(seed, kind, rows, inner, cols)
            want = [[0] * cols for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    for k in range(inner):
                        want[i][j] += a[i][k] * b[k][j]
            assert (IntMatrix.from_rows(a) @ IntMatrix.from_rows(b)).to_rows() == want

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_row_support_equals_a_dense_scan(self, kind, shape):
        rows, inner, cols = shape
        for seed in range(10):
            for m in map(IntMatrix.from_rows, _seeded_pair(seed, kind, rows, inner, cols)):
                want = [[(j, x) for j, x in enumerate(r) if x] for r in m.to_rows()]
                assert row_support(m) == want

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_support_product_equals_a_triple_loop(self, kind, shape):
        # in row_support's form: increasing columns and no zero entry, so
        # a sum that cancels to 0 is left out
        rows, inner, cols = shape
        for seed in range(10):
            a, b = _seeded_pair(seed, kind, rows, inner, cols)
            want = [[] for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    x = sum(a[i][k] * b[k][j] for k in range(inner))
                    if x:
                        want[i].append((j, x))
            pair = map(row_support, map(IntMatrix.from_rows, (a, b)))
            assert support_product(*pair) == want

    def test_support_product_drops_a_sum_that_cancels(self):
        left = [[(0, 1), (1, 1)]]
        right = [[(0, 2), (2, 5)], [(0, -2), (1, 3)]]
        assert support_product(left, right) == [[(1, 3), (2, 5)]]

    def test_row_support_of_a_zero_row_is_empty(self):
        assert row_support(IntMatrix.from_rows([[0, 0, 0], [0, -3, 0]])) == [[], [(1, -3)]]


class TestWalkMatrix:
    def test_order8_pinned_rows(self):
        w = w8()
        assert list(w)[0] == (1, 1, 3, 4, 11, 16, 43, 64, 171)
        assert list(w)[4] == (1, 2, 4, 10, 16, 42, 64, 170, 256)
        assert w.to_rows() == W8_ROWS

    def test_zero_matrix(self):
        w = walk_matrix(IntMatrix(3, 3, [0] * 9))
        assert w.to_rows() == [[1, 0, 0], [1, 0, 0], [1, 0, 0]]

    def test_path3_by_hand(self):
        # A e = (1, 2, 1), A^2 e = (2, 2, 2) for the path on three vertices
        w = walk_matrix(adjacency_matrix(make_path(3)))
        assert w.to_rows() == [[1, 1, 2], [1, 2, 2], [1, 1, 2]]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            walk_matrix(IntMatrix(2, 3, [0] * 6))

    @pytest.mark.parametrize("n", range(4, 40))
    def test_leaf_twin_rows(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        assert list(w)[0] == list(w)[1]
        assert list(w)[n - 1] == list(w)[n]

    @pytest.mark.parametrize("n", range(4, 24))
    def test_column_growth_bounded_by_max_degree(self, n):
        g = make_extended_dynkin(n)
        w = walk_matrix(adjacency_matrix(g))
        max_deg = max(len(nbrs) for nbrs in g.neighbor_sets().values())
        cols = list(zip(*w.to_rows()))
        for j in range(w.cols - 1):
            assert max(cols[j + 1]) <= max_deg * max(cols[j])


FAMILIES = pytest.mark.parametrize(
    "family", [make_path, make_dynkin, make_extended_dynkin], ids=["path", "dynkin", "ext-dynkin"]
)


class TestChebyshevWalkMatrix:
    """W_E = W·U, column j being E_j(A)·1 with E_j(x) = U_j(x/2)."""

    @FAMILIES
    def test_equals_w_times_the_basis_change(self, family):
        for n in (4, 5, 6, 7, 11, 16, 23, 31, 44, 60):
            a = adjacency_matrix(family(n))
            u = three_term_basis(a.rows)
            assert chebyshev_walk_matrix(a) == walk_matrix(a) @ u, n

    def test_basis_change_is_upper_unitriangular(self):
        u = three_term_basis(9).to_rows()
        assert all(u[i][i] == 1 for i in range(9))
        assert all(u[i][j] == 0 for i in range(9) for j in range(i))
        # E_2 = x^2 - 1, E_3 = x^3 - 2x, E_4 = x^4 - 3x^2 + 1
        assert [u[i][4] for i in range(5)] == [1, 0, -3, 0, 1]

    def test_order8_pinned_rows(self):
        # by hand from W's rows: entry j of a row is sum_i W[., i] U[i, j],
        # e.g. 171 - 7*43 + 15*11 - 10*3 + 1 = 6 for E_8 on row 0
        w = chebyshev_walk_matrix(adjacency_matrix(make_extended_dynkin(8)))
        assert list(w)[0] == (1, 1, 2, 2, 3, 3, 5, 4, 6)
        assert list(w)[4] == (1, 2, 3, 6, 5, 8, 7, 10, 9)

    def test_entries_stay_small_on_extended_dynkin_trees(self):
        # A's eigenvalues lie in [-2, 2] and |U_j(cos t)| <= j + 1, so each
        # entry is at most (j + 1) sqrt(n + 1); W's last column has n bits
        for n in (20, 60, 150):
            w = chebyshev_walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
            for j in range(w.cols):
                col = [abs(r[j]) for r in w]
                assert max(col) ** 2 <= (j + 1) ** 2 * (n + 1), (n, j)

    def test_zero_matrix(self):
        # E_j(0) is 1, 0, -1, 0, 1, ...
        w = chebyshev_walk_matrix(IntMatrix(2, 2, [0] * 4))
        assert w.to_rows() == [[1, 0], [1, 0]]
        w = chebyshev_walk_matrix(IntMatrix(5, 5, [0] * 25))
        assert list(w)[0] == (1, 0, -1, 0, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            chebyshev_walk_matrix(IntMatrix(2, 3, [0] * 6))


class TestRank:
    def test_order8_rank(self):
        assert rank_fraction_free(w8()) == W8_RANK

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_identity_rank(self, k):
        assert rank_fraction_free(IntMatrix.identity(k)) == k

    def test_all_ones_rank(self):
        assert rank_fraction_free(IntMatrix(5, 5, [1] * 25)) == 1

    def test_rectangular(self):
        m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        assert rank_fraction_free(m) == 1

    def test_agrees_with_snf_on_random_corpus(self):
        rng = random.Random(20240817)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rank_fraction_free(m) == rank_via_snf(m)

    @pytest.mark.parametrize("n", range(4, 25))
    def test_agrees_with_snf_on_walk_matrices(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        assert rank_fraction_free(w) == rank_via_snf(w) == n // 2


class TestRankModular:
    def test_identity(self):
        assert rank_modular(IntMatrix.identity(4), 101) == 4

    def test_everything_vanishes(self):
        assert rank_modular(IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), 2) == 0

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            rank_modular(IntMatrix.identity(2), 91)

    # 7.0 gave rank 0 on a zero matrix and a TypeError from inside pow on
    # any other; True is 1, which is no prime but is no int either
    @pytest.mark.parametrize("p", [7.0, True, _Sub(7), "7"], ids=["float", "bool", "int-subclass", "str"])
    @pytest.mark.parametrize("m", [IntMatrix(2, 2, [0, 0, 0, 0]), IntMatrix.identity(2)], ids=["zero", "identity"])
    def test_rejects_a_modulus_that_is_not_an_int(self, m, p):
        with pytest.raises(TypeError, match="modulus must be an int"):
            rank_modular(m, p)

    def test_largest_prime_below_the_deterministic_bound(self):
        # 3317044064679887385961981 is the least strong pseudoprime to the
        # thirteen Miller-Rabin bases; this is the largest prime below it
        assert rank_modular(w8(), 3317044064679887385961813) == W8_RANK

    def test_rejects_the_least_strong_pseudoprime_to_twelve_bases(self):
        # 399165290221 * 798330580441 passes Miller-Rabin to every prime base
        # up to 37, so base 41 is what rejects it
        with pytest.raises(ValueError, match="must be prime"):
            rank_modular(IntMatrix.identity(2), 318665857834031151167461)

    def test_rejects_modulus_at_the_deterministic_bound(self):
        with pytest.raises(ValueError, match="not deterministic"):
            rank_modular(IntMatrix.identity(2), 3317044064679887385961981)

    @pytest.mark.parametrize("p", [2, 3, 101, 1073741827])
    def test_order8_lower_bound(self, p):
        assert rank_modular(w8(), p) <= W8_RANK

    def test_lower_bound_with_equality_somewhere(self):
        rng = random.Random(99)
        primes = [1073741827, 1073741831, 1073741833]
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            exact = rank_fraction_free(m)
            mod_ranks = [rank_modular(m, p) for p in primes]
            assert all(r <= exact for r in mod_ranks)
            assert max(mod_ranks) == exact

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts_the_invariant_factors_that_p_does_not_divide(self, p):
        # over GF(p), m has rank #{d : p does not divide d} for its invariant
        # factors d; the SNF shares no elimination code with rank_modular.
        # U·D·V with multiples of 2, 3, 5 and 7 in D drops the rank mod p
        rng = random.Random(p)
        for _ in range(60):
            rows, inner, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            d = [rng.choice((0, 1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 35, 49)) for _ in range(inner)]
            u, v = random_matrix(rng, rows, inner, 3), random_matrix(rng, inner, cols, 3)
            product = u @ diagonal(d) @ v
            for m in (random_matrix(rng, rows, cols, 4), product):
                factors = smith_normal_form(m).invariant_factors
                assert rank_modular(m, p) == sum(1 for x in factors if x % p)

    @pytest.mark.parametrize("n", range(4, 25))
    def test_lower_bound_on_walk_matrices(self, n):
        from walkrank.intmatrix import _is_prime

        rng = random.Random(n)
        primes = []
        while len(primes) < 3:
            candidate = rng.randrange(2**29, 2**30) | 1
            if _is_prime(candidate):
                primes.append(candidate)
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        exact = rank_fraction_free(w)
        mod_ranks = [rank_modular(w, p) for p in primes]
        assert all(r <= exact for r in mod_ranks)
        assert max(mod_ranks) == exact


class TestDeterminant:
    def test_identity(self):
        assert det_exact(IntMatrix.identity(6)) == 1

    def test_swap(self):
        assert det_exact(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1

    def test_quotient_walk_matrix_vs_cofactor_oracle(self):
        g = make_extended_dynkin(5)
        b = divisor_matrix(g, canonical_partition(5))
        wb = walk_matrix(b)
        assert det_exact(wb) == det_cofactor(wb.to_rows())

    def test_random_vs_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(1, 5)
            m = random_matrix(rng, k, k)
            assert det_exact(m) == det_cofactor(m.to_rows())

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact(IntMatrix(2, 3, [0] * 6))

    def test_nonzero_iff_full_rank(self):
        rng = random.Random(123)
        for _ in range(60):
            k = rng.randint(1, 5)
            m = random_matrix(rng, k, k, bound=4)
            assert (det_exact(m) != 0) == (rank_fraction_free(m) == k)


class TestMatrixText:
    def test_round_trip(self):
        m = w8()
        assert parse_matrix_text(format_matrix_text(m)) == m

    def test_negative_entries(self):
        m = IntMatrix.from_rows([[-1, 2], [3, -4]])
        assert parse_matrix_text(format_matrix_text(m)) == m

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_matrix_text("2\n1 2\n")

    def test_rejects_short_row(self):
        with pytest.raises(ValueError):
            parse_matrix_text("2 2\n1 2\n3\n")

    # int() reads all of these; format_matrix_text writes none of them
    @pytest.mark.parametrize(
        "text",
        ["1 1\n1_0\n", "1 1\n+7\n", "1 1\n\uff11\n", "1 1\n\u0663\n", "1_0 1\n" + "1\n" * 10, "+1 1\n1\n"],
        ids=["underscore", "plus", "fullwidth", "arabic-indic", "underscore-header", "plus-header"],
    )
    def test_rejects_integers_the_formatter_never_writes(self, text):
        with pytest.raises(ValueError, match="ASCII"):
            parse_matrix_text(text)

    def test_comments_may_hold_any_text(self):
        assert parse_matrix_text("# \uff11 + 1_0\n1 1\n-3\n") == IntMatrix(1, 1, [-3])

    # str.splitlines() ends a line at each of these, which cut such a comment in two
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_a_comment_ends_only_at_a_line_end(self, sep):
        assert parse_matrix_text(f"# page{sep}break\n1 1\n5\n") == IntMatrix(1, 1, [5])

    def test_crlf_and_cr_line_ends(self):
        m = IntMatrix.from_rows([[1, -2], [3, 4]])
        assert parse_matrix_text("# c\r\n2 2\r\n1 -2\r\n3 4\r\n") == m
        assert parse_matrix_text("2 2\r1 -2\r3 4\r") == m

    @pytest.mark.parametrize(
        "text",
        ["2 2\n1 2\n3 4\n5 6\n", "2 2\n1 2\n", "2 2\n1 2 9\n3 4\n"],
        ids=["line-too-many", "line-too-few", "int-too-many"],
    )
    def test_rejects_a_body_that_does_not_fit_the_header(self, text):
        with pytest.raises(ValueError):
            parse_matrix_text(text)

    # str.splitlines() made two rows of this one, too many for the header; it
    # must still raise now that only \n and \r end a line
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_rejects_a_line_break_character_inside_a_row(self, sep):
        with pytest.raises(ValueError):
            parse_matrix_text(f"1 2\n1{sep}2\n")

    # str.strip() trimmed these from a line's ends, so "1 1\n5\u2028\n" read
    # as [[5]] and a line of only "\x1c" was skipped as blank
    @pytest.mark.parametrize("char", ["\u2028", "\x85", "\u3000", "\x0c", "\x1c"])
    @pytest.mark.parametrize(
        "template",
        ["{c}1 1\n5\n", "1 1{c}\n5\n", "1 1\n{c}5\n", "1 1\n5{c}\n", "1 1\n{c}\n5\n"],
        ids=["header-start", "header-end", "row-start", "row-end", "alone"],
    )
    def test_rejects_a_character_that_only_str_strip_trims(self, template, char):
        with pytest.raises(ValueError):
            parse_matrix_text(template.format(c=char))

    # the line count was checked first, so this read as "calls for 1 lines
    # after it, got 2", which did not name the bad line
    def test_names_a_bad_line_that_also_makes_the_count_wrong(self):
        with pytest.raises(ValueError) as exc:
            parse_matrix_text("1 1\n\x1c\n5\n")
        assert repr("\x1c") in str(exc.value)


class TestParseInts:
    def test_reads_signed_ascii_digits(self):
        assert parse_ints(" -12 0 007\t-0 ") == [-12, 0, 7, 0]
        assert parse_ints("") == []

    @pytest.mark.parametrize("text", ["1_000", "+7", "3 +7", "\uff11", "1 \u0663", "1\u00a02"])
    def test_rejects_what_int_alone_would_read(self, text):
        with pytest.raises(ValueError, match="ASCII"):
            parse_ints(text)

    @pytest.mark.parametrize("text", ["1\x0c2", "1\x0b2", "1\x1f2", "1\n2", "1\r2", "1\x002"])
    def test_rejects_separators_other_than_spaces_and_tabs(self, text):
        with pytest.raises(ValueError, match="spaces or tabs"):
            parse_ints(text)

    @pytest.mark.parametrize("text", ["1.5", "0x10", "--1", "1e3", "a"])
    def test_rejects_what_int_rejects(self, text):
        with pytest.raises(ValueError):
            parse_ints(text)
