import math
import random
import re
from dataclasses import replace

import pytest

from builders import complete_graph
from inertia_counts import path_count_below, tree_count_below
from spectral_identities import cosine_sum, det_walk_spectral
import walkrank.spectra as spectra
from walkrank.graphs import Graph, adjacency_matrix, make_extended_dynkin, make_path
from walkrank.intmatrix import IntMatrix, det_exact, walk_matrix
from walkrank.quotient import canonical_partition, divisor_matrix
from walkrank.spectra import (
    ClosedFormEigenpair,
    count_main_eigenvalues,
    divisor_eigenpairs,
    eigenpair_residual,
    main_value_pattern,
    symmetric_eigen,
)


def _eigenvector(m, lam):
    """Unit eigenvector for a simple eigenvalue lam of m, by three steps of inverse
    iteration at a shift just off lam, each a Gaussian elimination with partial pivoting."""
    k = len(m)
    mu = lam + 1e-12 * max(1.0, abs(lam))
    v = [1.0 + i / k for i in range(k)]
    for _ in range(3):
        a = [[m[i][j] - (mu if i == j else 0.0) for j in range(k)] + [v[i]] for i in range(k)]
        for c in range(k):
            piv = max(range(c, k), key=lambda i: abs(a[i][c]))
            a[c], a[piv] = a[piv], a[c]
            for i in range(c + 1, k):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        x = [0.0] * k
        for i in reversed(range(k)):
            x[i] = (a[i][k] - sum(a[i][j] * x[j] for j in range(i + 1, k))) / a[i][i]
        norm = math.sqrt(sum(t * t for t in x))
        v = [t / norm for t in x]
    return v


def _dense_residual(m, pair):
    """The entrywise loop the residual used to run, column by column: the reference."""
    k = m.rows
    v = pair.vector
    want = 0.0
    for j in range(k):
        s = sum(m.row(i)[j] * v[i] for i in range(k))
        want = max(want, abs(s - pair.eigenvalue * v[j]))
    return want


# rows holding NaN or an infinity, and rows holding strings or bools that
# float() would read: a matrix enters the float routes only as an IntMatrix,
# so each is refused whole, by its type, before any entry is read
_NON_FINITE = [
    pytest.param([[0.0, math.nan], [math.nan, 0.0]], id="nan-off-diagonal"),
    pytest.param([[math.inf, 1.0], [1.0, 0.0]], id="inf"),
    pytest.param([[0.0, 1.0], [1.0, -math.inf]], id="minus-inf"),
    pytest.param([[math.nan]], id="nan-1x1"),
]

_NON_NUMBERS = [
    pytest.param([["2", "1"], ["1", "2"]], id="string"),
    pytest.param([[True, False], [False, True]], id="bool"),
    pytest.param([[2.0, 1.0], [1.0, "2"]], id="string-last"),
]

_NOT_AN_INTMATRIX = "matrix must be an IntMatrix, got list"

_DIAG_1_2 = IntMatrix.from_rows([[1, 0], [0, 2]])

# math.isfinite reads True as 1.0, and raises on '1' without naming the pair
_NON_REALS = [
    pytest.param(True, id="bool"),
    pytest.param("1", id="string"),
    pytest.param(None, id="none"),
]

_NON_FINITE_VALUES = [
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    pytest.param(-math.inf, id="minus-inf"),
]


class TestSymmetricEigen:
    def test_swap_matrix(self):
        values, _, _ = symmetric_eigen(IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert values == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_diagonal(self):
        values, _, _ = symmetric_eigen(IntMatrix.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]]))
        assert values == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 9, 16, 25])
    def test_extended_family_spectral_radius_is_two(self, n):
        # (1, 1, 2, ..., 2, 1, 1) is an exact eigenvector for eigenvalue 2
        g = make_extended_dynkin(n)
        adj = [[0] * g.order for _ in range(g.order)]
        for u, v in g.edges:
            adj[u - 1][v - 1] = adj[v - 1][u - 1] = 1
        perron = [1, 1] + [2] * (n - 3) + [1, 1]
        for i in range(g.order):
            assert sum(adj[i][j] * perron[j] for j in range(g.order)) == 2 * perron[i]
        values, _, _ = symmetric_eigen(IntMatrix.from_rows(adj))
        assert values[-1] == pytest.approx(2.0, abs=1e-9)

    def test_residuals_small(self):
        # 1^T A^m 1 = sum_i lambda_i^m z_i^2 for every power m
        rng = random.Random(11)
        k = 8
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        values, z, _ = symmetric_eigen(IntMatrix.from_rows(m))
        v = [1] * k
        for power in range(k):
            got = sum(lam**power * x * x for lam, x in zip(values, z))
            assert abs(got - sum(v)) < 1e-9 * max(1.0, sum(map(abs, v)))
            v = [sum(m[i][j] * v[j] for j in range(k)) for i in range(k)]

    def test_vectors_orthonormal(self):
        # unit eigenvectors (1, -r, 1)/2, (1, 0, -1)/r and (1, r, 1)/2 with r = sqrt(2)
        values, z, _ = symmetric_eigen(IntMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
        r = math.sqrt(2.0)
        assert values == pytest.approx([2.0 - r, 2.0, 2.0 + r], abs=1e-12)
        assert [abs(x) for x in z] == pytest.approx([1.0 - r / 2, 0.0, 1.0 + r / 2], abs=1e-12)
        assert sum(x * x for x in z) == pytest.approx(3.0, abs=1e-12)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(spectra, "_MAX_QL_ITERATIONS", 0)
        with pytest.raises(ArithmeticError, match="eigenvalue 0 .* within 0 iterations"):
            symmetric_eigen(IntMatrix.from_rows([[2, 1], [1, 2]]))
        # a diagonal matrix is already converged and needs no QL step
        values, z, _ = symmetric_eigen(IntMatrix.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 3]]))
        assert values == [1.0, 3.0, 3.0]
        assert z == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("cap", range(6))
    def test_capped_solver_raises_or_converges(self, monkeypatch, cap):
        # stopping the iteration early must raise, never return unconverged values
        m = IntMatrix.from_rows([[4, 2, 0, 1], [2, 4, 2, 0], [0, 2, 4, 2], [1, 0, 2, 4]])
        want, _, _ = symmetric_eigen(m)
        monkeypatch.setattr(spectra, "_MAX_QL_ITERATIONS", cap)
        try:
            values, _, _ = symmetric_eigen(m)
        except spectra.ConvergenceError:
            return
        assert values == pytest.approx(want, abs=1e-13)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=re.escape("not symmetric at (0, 1)")):
            symmetric_eigen(IntMatrix.from_rows([[0, 2], [1, 0]]))

    def test_rejects_asymmetry_that_floats_would_hide(self):
        # 2**60 and 2**60 + 1 round to the same float
        big = 2**60
        assert float(big) == float(big + 1)
        m = IntMatrix.from_rows([[0, big], [big + 1, 0]])
        with pytest.raises(ValueError, match=re.escape("not symmetric at (0, 1)")):
            symmetric_eigen(m)

    # float() raised a bare OverflowError that named no entry
    @pytest.mark.parametrize(
        "rows, where", [([[2**1100, 1], [1, 0]], (0, 0)), ([[0, -(2**1024)], [-(2**1024), 0]], (0, 1))]
    )
    def test_rejects_an_entry_too_large_for_a_float(self, rows, where):
        with pytest.raises(ValueError, match=re.escape(f"matrix entry at {where} is too large for a float")):
            symmetric_eigen(IntMatrix.from_rows(rows))

    def test_rejects_a_matrix_that_is_not_square(self):
        with pytest.raises(ValueError, match="matrix must be square, got 2x3"):
            symmetric_eigen(IntMatrix.from_rows([[0, 1, 0], [1, 0, 0]]))

    def test_rejects_ragged(self):
        with pytest.raises(TypeError, match=_NOT_AN_INTMATRIX):
            symmetric_eigen([[0.0, 1.0], [1.0]])

    def test_rejects_empty(self):
        with pytest.raises(TypeError, match=_NOT_AN_INTMATRIX):
            symmetric_eigen([])

    @pytest.mark.parametrize("m", _NON_FINITE)
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(TypeError, match=_NOT_AN_INTMATRIX):
            symmetric_eigen(m)

    @pytest.mark.parametrize("m", _NON_NUMBERS)
    def test_rejects_entries_that_are_not_numbers(self, m):
        with pytest.raises(TypeError, match=_NOT_AN_INTMATRIX):
            symmetric_eigen(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_returns_the_tridiagonal_form_taken_before_ql(self, seed):
        rng = random.Random(seed)
        k = rng.randint(3, 12)
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1):
                m[i][j] = m[j][i] = rng.choice((0, rng.randint(-5, 5)))
        d, e, _ = spectra._tridiagonal([[float(x) for x in row] for row in m])
        assert symmetric_eigen(IntMatrix.from_rows(m))[2] == (d, e)

    def test_ql_restarts_when_a_rotation_underflows(self):
        # scaled down to subnormals, one rotation of the first QL step meets
        # f = g = 0.0, and dividing by their hypot would raise ZeroDivisionError
        rows = [[0, -1, 0], [-1, 3, -1], [0, -1, 1]]
        want, want_z, _ = symmetric_eigen(IntMatrix.from_rows(rows))
        t = 2.0**-1035
        d, e, z = [0.0, 3 * t, t], [-t, -t, 0.0], [1.0] * 3
        spectra._implicit_ql(d, e, z)
        got = sorted(zip(d, z))
        assert [x / t for x, _ in got] == pytest.approx(want, rel=1e-9)
        assert [abs(y) for _, y in got] == pytest.approx(list(map(abs, want_z)), rel=1e-9)


class TestCountMainEigenvalues:
    def test_complete_graph_has_one_main_group(self):
        report = count_main_eigenvalues(complete_graph(3))
        assert report.main_count == 1
        assert len(report.eigenvalues) == 3

    def test_order8(self):
        report = count_main_eigenvalues(make_extended_dynkin(8))
        assert report.main_count == 4

    @pytest.mark.parametrize("n", range(4, 20))
    def test_matches_rank_formula(self, n):
        assert count_main_eigenvalues(make_extended_dynkin(n)).main_count == n // 2

    def test_report_shape(self):
        g = make_extended_dynkin(6)
        report = count_main_eigenvalues(g)
        assert len(report.eigenvalues) == g.order
        assert sum(mult for _, mult in report.groups) == g.order
        assert len(report.main_flags) == len(report.groups)
        assert report.main_count == sum(report.main_flags)
        assert report.inertia_route == "tree"
        assert report.inertia_ok

    @pytest.mark.parametrize(
        "g", [make_extended_dynkin(n) for n in range(4, 31)] + [complete_graph(5)]
    )
    def test_residual_is_the_dense_formula(self, g):
        # column m of the exact walk matrix sums to 1^T A^m 1 = sum_i lambda_i^m z_i^2
        adj = adjacency_matrix(g)
        values, z, _ = symmetric_eigen(adj)
        w = walk_matrix(adj)
        for power in range(min(g.order, 8)):
            walks = sum(r[power] for r in w.to_rows())
            got = sum(lam**power * x * x for lam, x in zip(values, z))
            assert abs(got - walks) <= 1e-12 * g.order * max(1, walks)
        assert count_main_eigenvalues(g).eigenvalues == tuple(values)


def _relabelled(g, rng):
    perm = list(range(1, g.order + 1))
    rng.shuffle(perm)
    return Graph(g.order, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def _bandwidth(g):
    return max(abs(u - v) for u, v in g.edges)


def _star(leaves):
    return Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


class TestInertia:
    @pytest.mark.parametrize(
        "g,x,below",
        [
            # zero pivots: a leaf's pivot is -x, so 0 at x = 0, and becomes +pivmin
            (_star(3), 0.0, 1),  # -sqrt(3), 0, 0, sqrt(3)
            (make_path(3), 0.0, 1),  # -sqrt(2), 0, sqrt(2)
            (make_path(4), 0.0, 2),  # +-1.618, +-0.618
            (make_path(2), 1.0, 1),  # -1, 1
            (make_path(2), -1.0, 0),
            (make_path(1), 0.0, 0),
            (make_path(1), 0.5, 1),
            # vertex 3's pivot is 0 and becomes +pivmin; vertex 2's is then about
            # -1/pivmin, which pushes almost nothing into the root 1
            (Graph(6, [(1, 2), (1, 4), (1, 5), (2, 3), (3, 6)]), -1.0, 2),
            (make_extended_dynkin(8), 2.5, 9),
            (make_extended_dynkin(8), -2.5, 0),
            # the spectrum of D~_8 is 2 cos(j pi / 6) for j = 0..6 plus 0 twice
            (make_extended_dynkin(8), 0.0, 3),
            (make_extended_dynkin(8), 1.0, 6),
        ],
    )
    def test_tree_counts_at_exact_eigenvalues_and_between(self, g, x, below):
        assert tree_count_below(g, x) == below

    def test_forest_detection(self):
        assert spectra._forest(complete_graph(3)) is None
        two_paths = Graph(5, [(1, 2), (3, 4), (4, 5)])  # P2 and P3: -1, 1, +-sqrt(2), 0
        assert tree_count_below(two_paths, 0.5) == 3
        assert count_main_eigenvalues(two_paths).inertia_route == "tree"

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sturm_route_on_complete_graphs(self, k):
        # K_k has -1 with multiplicity k - 1 and k - 1 once
        report = count_main_eigenvalues(complete_graph(k))
        assert report.inertia_route == ("tree" if k <= 2 else "sturm")
        assert report.inertia_ok
        d, e, _ = spectra._tridiagonal([[0.0 if i == j else 1.0 for j in range(k)] for i in range(k)])
        assert path_count_below(d, e, -1.5) == 0
        assert path_count_below(d, e, (k - 2) / 2) == k - 1
        assert path_count_below(d, e, k) == k

    @pytest.mark.parametrize("x,below", [(0.0, 1), (0.5, 1), (1.0, 1), (-1.0, 0), (1.5, 2)])
    def test_sturm_count_at_zero_pivots(self, x, below):
        # T = [[0, 1], [1, 0]] has eigenvalues -1 and 1; at x = 0 the first
        # pivot of T - xI is zero and at x = +-1 the last one is
        assert path_count_below([0.0, 0.0], [1.0, 0.0], x) == below

    @pytest.mark.parametrize("k", range(1, 13))
    def test_a_path_counts_the_same_as_a_graph_and_as_a_tridiagonal(self, k):
        # P_k has eigenvalues 2 cos(j pi / (k + 1)), j = 1..k, each simple;
        # the tree route reads it as a graph, the Sturm route as T = (0, 1)
        values = sorted(2.0 * math.cos(j * math.pi / (k + 1)) for j in range(1, k + 1))
        d, e = [0.0] * k, [1.0] * (k - 1) + [0.0]
        for x in values:
            assert tree_count_below(make_path(k), x) == path_count_below(d, e, x)
        for below, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
            x = (lo + hi) / 2
            assert tree_count_below(make_path(k), x) == path_count_below(d, e, x) == below

    @pytest.mark.parametrize(
        "g,route",
        [
            (make_extended_dynkin(8), "tree"),
            (complete_graph(5), "sturm"),
            (Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), "sturm"),
        ],
        ids=["D8", "K5", "C5"],
    )
    def test_one_band_reduction_per_count(self, monkeypatch, g, route):
        calls = []
        reduce = spectra._tridiagonal

        def spy(a):
            calls.append(len(a))
            return reduce(a)

        monkeypatch.setattr(spectra, "_tridiagonal", spy)
        report = count_main_eigenvalues(g)
        assert report.inertia_route == route and report.inertia_ok
        assert calls == [g.order]

    @pytest.mark.parametrize("g", [make_extended_dynkin(8), complete_graph(5)], ids=["tree", "sturm"])
    def test_a_moved_eigenvalue_fails_the_check(self, misplaced_eigenvalue, g):
        assert not count_main_eigenvalues(g).inertia_ok

    @pytest.mark.parametrize("g", [make_extended_dynkin(8), complete_graph(5)], ids=["tree", "sturm"])
    def test_an_eigenvalue_moved_inside_its_gap_fails_the_check(self, in_gap_eigenvalue, g):
        # every gap midpoint still has the right count below it; only the
        # bracket of the moved group sees that A has no eigenvalue there
        report = count_main_eigenvalues(g)
        assert len(report.groups) == len(set(round(v, 6) for v in report.eigenvalues))
        assert not report.inertia_ok

    @pytest.mark.parametrize(
        "g,top", [(make_extended_dynkin(8), 2), (complete_graph(5), 5)], ids=["tree", "sturm"]
    )
    def test_two_merged_eigenvalues_fail_the_check(self, merged_eigenvalues, g, top):
        # D~8's 2 joins sqrt(3), K5's 4 joins the four -1s: with no gap
        # between them there is no midpoint to count at
        report = count_main_eigenvalues(g)
        assert report.groups[-1][1] == top
        assert not report.inertia_ok

    @pytest.mark.parametrize("g", [make_extended_dynkin(8), complete_graph(5)], ids=["tree", "sturm"])
    def test_a_split_eigenvalue_fails_the_check(self, split_eigenvalue, g):
        report = count_main_eigenvalues(g)
        assert len(report.groups) == len(set(round(v, 6) for v in report.eigenvalues)) + 1
        assert not report.inertia_ok


class TestMetamorphic:
    @pytest.mark.parametrize("n", [4, 5, 8, 13, 20, 31, 40])
    def test_relabelled_extended_dynkin(self, n):
        g = make_extended_dynkin(n)
        h = _relabelled(g, random.Random(n))
        assert _bandwidth(g) == 2 and _bandwidth(h) >= g.order // 2
        want, got = count_main_eigenvalues(g), count_main_eigenvalues(h)
        assert got.eigenvalues == pytest.approx(want.eigenvalues, abs=1e-12)
        assert got.main_count == want.main_count == n // 2
        assert got.inertia_route == "tree" and got.inertia_ok

    @pytest.mark.parametrize("n", [4, 9, 16, 30, 60])
    def test_projections_keep_the_norm_of_the_ones_vector(self, n):
        # z = Q^T 1 with Q orthogonal, so the sum of z_i^2 is |1|^2 = order
        rng = random.Random(100 + n)
        g = make_extended_dynkin(n)
        for h in (g, _relabelled(g, rng), complete_graph(n)):
            _, z, _ = symmetric_eigen(adjacency_matrix(h))
            assert abs(sum(x * x for x in z) - h.order) <= 1e-12 * h.order


class TestDivisorEigenpairs:
    def test_first_pair_is_all_ones(self):
        pairs = divisor_eigenpairs(8)
        assert pairs[0].eigenvalue == pytest.approx(2.0)
        assert pairs[0].vector == (1.0,) * 7

    def test_last_pair_alternates(self):
        pairs = divisor_eigenpairs(8)
        last = pairs[-1]
        assert last.k == 6
        assert last.eigenvalue == -2.0
        assert last.vector == (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0)

    def test_quarter_turn_case(self):
        # n = 6, k = 2 samples the cosine at multiples of pi/2
        pair = divisor_eigenpairs(6)[2]
        assert pair.eigenvalue == pytest.approx(0.0, abs=1e-15)
        assert pair.vector == pytest.approx((1.0, 0.0, -1.0, 0.0, 1.0), abs=1e-15)

    def test_count(self):
        assert len(divisor_eigenpairs(11)) == 10

    @pytest.mark.parametrize("n", range(4, 33))
    def test_residuals(self, n):
        b = divisor_matrix(make_extended_dynkin(n), canonical_partition(n))
        for pair in divisor_eigenpairs(n):
            assert eigenpair_residual(b, pair) < 1e-10

    @pytest.mark.parametrize("n", range(4, 41))
    def test_residual_is_the_dense_formula(self, n):
        b = divisor_matrix(make_extended_dynkin(n), canonical_partition(n))
        for pair in divisor_eigenpairs(n):
            assert eigenpair_residual(b, pair) == _dense_residual(b, pair)

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_is_the_dense_formula_on_any_matrix(self, seed):
        # skipping a zero entry skips a 0 * v[i] term, which never changes a
        # float sum; the dense sum may turn float where the sparse one stays
        # int, so values are compared and types are not
        rng = random.Random(seed)
        entries = [0.0, -0.0, 0, 1, -2, 3, 1e-300, -3e-300, 0.5, -1.25, 999.75, -1e3]
        for _ in range(500):
            k = rng.randint(1, 12)
            density = rng.random()
            m = IntMatrix(
                k, k, [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(k * k)]
            )
            v = tuple(
                rng.choice(entries) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
                for _ in range(k)
            )
            lam = rng.choice([rng.uniform(-20, 20), rng.randint(-9, 9), -0.0, 0.0])
            pair = ClosedFormEigenpair(0, lam, v)
            assert eigenpair_residual(m, pair) == _dense_residual(m, pair)

    @pytest.mark.parametrize("n", range(4, 65))
    def test_eigenvalues_pairwise_separated(self, n):
        values = sorted(p.eigenvalue for p in divisor_eigenpairs(n))
        bound = 2.0 * (1.0 - math.cos(math.pi / (n - 2)))
        for a, b in zip(values, values[1:]):
            assert b - a >= bound - 1e-12

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            divisor_eigenpairs(3)

    # 6.0 failed in range() without naming the order, and True as "order >= 4"
    @pytest.mark.parametrize("n", [True, 6.0, "6", None], ids=repr)
    def test_rejects_an_order_that_is_not_an_int(self, n):
        with pytest.raises(TypeError, match=f"order must be an int, got {n!r}"):
            divisor_eigenpairs(n)


class TestMainValuePattern:
    @pytest.mark.parametrize("n", range(4, 30))
    def test_head_value(self, n):
        assert main_value_pattern(n, 0) == n - 1

    def test_parity(self):
        assert main_value_pattern(10, 3) == 0
        assert main_value_pattern(10, 4) == 1
        assert main_value_pattern(10, 8) == 1  # even n: last index is even
        assert main_value_pattern(9, 7) == 0  # odd n: last index is odd

    @pytest.mark.parametrize("n", range(4, 40))
    def test_matches_numeric_dot_product(self, n):
        for pair in divisor_eigenpairs(n):
            assert abs(sum(pair.vector) - main_value_pattern(n, pair.k)) < 1e-9

    @pytest.mark.parametrize("n", range(4, 40))
    def test_nonzero_count_is_half_order(self, n):
        hits = sum(1 for k in range(n - 1) if main_value_pattern(n, k) != 0)
        assert hits == 1 + (n - 2) // 2 == n // 2

    def test_rejects_out_of_range_index(self):
        with pytest.raises(IndexError):
            main_value_pattern(8, 7)
        with pytest.raises(IndexError):
            main_value_pattern(8, -1)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            main_value_pattern(3, 0)

    @pytest.mark.parametrize("n,k", [(8, 2.0), (8, True), (8.0, 2), (True, 0), ("8", 2)])
    def test_rejects_arguments_that_are_not_ints(self, n, k):
        # the order is checked first, and each message names its own argument
        what, bad = ("k", k) if type(n) is int else ("order", n)
        with pytest.raises(TypeError, match=re.escape(f"{what} must be an int, got {bad!r}")):
            main_value_pattern(n, k)


class TestCosineSum:
    def test_quarter_turn(self):
        assert cosine_sum(1.0, 0.0, math.pi / 2, 4) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 200:
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            x = rng.uniform(-3, 3)
            n = rng.randint(1, 40)
            if abs(math.sin(0.5 * a * x)) <= 1e-6:
                continue
            direct = sum(math.cos((a * k + b) * x) for k in range(1, n + 1))
            assert cosine_sum(a, b, x, n) == pytest.approx(direct, abs=1e-10)
            checked += 1

    def test_rejects_singular_denominator(self):
        with pytest.raises(ValueError):
            cosine_sum(1.0, 0.0, 2 * math.pi, 5)


def _pairs(*pairs):
    """ClosedFormEigenpairs numbered 0, 1, ... from (eigenvalue, vector) pairs."""
    return [ClosedFormEigenpair(k, lam, tuple(vec)) for k, (lam, vec) in enumerate(pairs)]


class TestDetWalkSpectral:
    def test_diagonal_two_by_two(self):
        pairs = _pairs((1.0, (1.0, 0.0)), (2.0, (0.0, 1.0)))
        # exact walk matrix [[1, 1], [1, 2]] has determinant 1
        assert det_walk_spectral(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_when_a_vector_misses_the_ones(self):
        # eigenpairs of [[0, 1], [1, 0]]
        pairs = _pairs((1.0, (1.0, 1.0)), (-1.0, (1.0, -1.0)))
        assert det_walk_spectral(pairs) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_for_repeated_eigenvalue_with_orthogonal_vector(self):
        pairs = _pairs((1.0, (1.0, -1.0)), (1.0, (1.0, 1.0)))
        # eigenpairs of the 2x2 identity
        assert det_walk_spectral(pairs) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_quotient_case_agrees_with_exact_determinant(self, n):
        b = divisor_matrix(make_extended_dynkin(n), canonical_partition(n))
        exact = det_exact(walk_matrix(b))
        approx = det_walk_spectral(divisor_eigenpairs(n))
        assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_random_symmetric_matrices_agree_with_exact_route(self):
        rng = random.Random(1618)
        checked = 0
        while checked < 25:
            k = rng.randint(2, 5)
            entries = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    entries[i][j] = entries[j][i] = rng.randint(-4, 4)
            m = IntMatrix.from_rows(entries)
            values, _, _ = symmetric_eigen(m)
            gaps = [b - a for a, b in zip(values, values[1:])]
            if gaps and min(gaps) < 1e-6:
                continue
            exact = det_exact(walk_matrix(m))
            pairs = _pairs(*((lam, _eigenvector(entries, lam)) for lam in values))
            approx = det_walk_spectral(pairs)
            assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))
            checked += 1

    def test_rejects_dependent_vectors(self):
        pairs = _pairs((1.0, (1.0, 1.0)), (2.0, (2.0, 2.0)))
        with pytest.raises(ValueError):
            det_walk_spectral(pairs)


# each float route, called on a 2x2 matrix with an eigenpair of _DIAG_1_2
_ROUTES = {
    "symmetric_eigen": symmetric_eigen,
    "eigenpair_residual": lambda m: eigenpair_residual(m, ClosedFormEigenpair(0, 1.0, (1.0, 0.0))),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("form", [list, tuple])
def test_every_float_route_takes_only_an_intmatrix(route, form):
    call = _ROUTES[route]
    call(_DIAG_1_2)
    rows = form(form(r) for r in _DIAG_1_2.to_rows())
    with pytest.raises(TypeError, match=f"matrix must be an IntMatrix, got {form.__name__}"):
        call(rows)


def test_eigenpair_residual_rejects_size_mismatch():
    b = divisor_matrix(make_extended_dynkin(6), canonical_partition(6))
    bad = ClosedFormEigenpair(0, 2.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        eigenpair_residual(b, bad)


@pytest.mark.parametrize("bad", _NON_FINITE_VALUES)
def test_eigenpair_residual_rejects_non_finite_eigenvalue(bad):
    # max(0.0, nan) is 0.0: a NaN used to pass as a perfect residual
    b = divisor_matrix(make_extended_dynkin(6), canonical_partition(6))
    pair = replace(divisor_eigenpairs(6)[1], eigenvalue=bad)
    with pytest.raises(ValueError, match=r"eigenpair k=1: eigenvalue is not finite"):
        eigenpair_residual(b, pair)


@pytest.mark.parametrize("bad", _NON_FINITE_VALUES)
def test_eigenpair_residual_rejects_non_finite_vector_entry(bad):
    b = divisor_matrix(make_extended_dynkin(6), canonical_partition(6))
    pair = divisor_eigenpairs(6)[1]
    pair = replace(pair, vector=(bad,) + pair.vector[1:])
    with pytest.raises(ValueError, match=r"eigenpair k=1: vector entry 0 is not finite"):
        eigenpair_residual(b, pair)


def test_eigenpair_residual_rejects_a_bool_pair():
    # this pair used to give a residual of 0.0
    m = IntMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(TypeError, match=r"eigenpair k=0: eigenvalue must be an int or a float, got True"):
        eigenpair_residual(m, ClosedFormEigenpair(0, True, (True, False)))
    with pytest.raises(TypeError, match=r"eigenpair k=0: vector entry 0 must be an int or a float, got True"):
        eigenpair_residual(m, ClosedFormEigenpair(0, 1, (True, False)))


@pytest.mark.parametrize("bad", _NON_REALS)
def test_eigenpair_residual_rejects_entries_that_are_not_numbers(bad):
    b = divisor_matrix(make_extended_dynkin(6), canonical_partition(6))
    pair = divisor_eigenpairs(6)[1]
    with pytest.raises(TypeError, match=r"eigenpair k=1: eigenvalue must be an int or a float"):
        eigenpair_residual(b, replace(pair, eigenvalue=bad))
    with pytest.raises(TypeError, match=r"eigenpair k=1: vector entry 2 must be an int or a float"):
        eigenpair_residual(b, replace(pair, vector=pair.vector[:2] + (bad,) + pair.vector[3:]))


def test_eigenpair_residual_takes_int_entries():
    m = IntMatrix.from_rows([[1, 0], [0, 2]])
    assert eigenpair_residual(m, ClosedFormEigenpair(0, 2, (0, 1))) == 0.0


def test_eigenpair_residual_of_an_int_pair_is_a_float():
    # the int pair used to give the int 2
    residual = eigenpair_residual(IntMatrix.identity(2), ClosedFormEigenpair(1, 3, (1, 0)))
    assert type(residual) is float and residual == 2.0


# math.isfinite() of these ints raised a bare OverflowError
@pytest.mark.parametrize("big", [2**1024, -(2**1100)], ids=["2**1024", "-2**1100"])
def test_eigenpair_residual_rejects_a_pair_entry_too_large_for_a_float(big):
    m = IntMatrix.from_rows([[1, 0], [0, 2]])
    for pair in [(big, (1.0, 0.0)), (1.0, (1.0, big))]:
        with pytest.raises(ValueError, match=r"eigenpair k=1: an int entry is too large for a float"):
            eigenpair_residual(m, ClosedFormEigenpair(1, *pair))


# the product of the entry with a vector entry raised a bare OverflowError,
# even where that vector entry is 0.0; with an all-int pair the residual was
# a 332-digit int
@pytest.mark.parametrize("pair", [(1.0, (1.0, 0.0)), (0.0, (0.0, 1.0)), (1, (1, 0))])
def test_eigenpair_residual_rejects_an_entry_too_large_for_a_float(pair):
    m = IntMatrix.from_rows([[2**1100, 0], [0, 1]])
    with pytest.raises(ValueError, match=re.escape("matrix entry at (0, 0) is too large for a float")):
        eigenpair_residual(m, ClosedFormEigenpair(0, *pair))
