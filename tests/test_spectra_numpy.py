"""The float eigensolver and main-eigenvalue count against numpy's LAPACK routines."""

import random

import pytest

from builders import complete_graph
from inertia_counts import path_count_below, tree_count_below
from walkrank.graphs import Graph, adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import IntMatrix, rank_fraction_free, walk_matrix
from walkrank.spectra import (
    _forest,
    _tridiagonal,
    count_main_eigenvalues,
    symmetric_eigen,
)

np = pytest.importorskip("numpy")


def _random_symmetric(rng, k):
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = rng.randint(-5, 5)
    return IntMatrix.from_rows(m)


def _adjacency_rows(g):
    m = [[0.0] * g.order for _ in range(g.order)]
    for u, v in g.edges:
        m[u - 1][v - 1] = m[v - 1][u - 1] = 1.0
    return m


def _random_tree(rng, order):
    return Graph(order, [(rng.randint(1, v - 1), v) for v in range(2, order + 1)])


def _complete(k):
    return IntMatrix.from_rows([[0 if i == j else 1 for j in range(k)] for i in range(k)])


DIAG = (2, -1, 2, 0, -1, 2)
REPEATED = (
    [("zero", IntMatrix(5, 5, [0] * 25))]
    + [(f"K{k}", _complete(k)) for k in (1, 2, 3, 7, 16)]
    + [("diag", IntMatrix.from_rows([[d if i == j else 0 for j in range(6)] for i, d in enumerate(DIAG)]))]
    + [(f"ext-dynkin:{n}", adjacency_matrix(make_extended_dynkin(n))) for n in range(4, 61)]
)


def _group_norms(values, z, tol):
    """Norm of z over each run of eigenvalues whose neighbours lie within tol."""
    norms, start = [], 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > tol:
            norms.append(np.sqrt(np.sum(np.square(z[start:stop]))))
            start = stop
    return norms


def _check_against_eigvalsh(m):
    a = np.array(m.to_rows(), dtype=float)
    values, z, _ = symmetric_eigen(m)
    tol = 1e-10 * max(1.0, np.linalg.norm(a, 2))
    assert np.max(np.abs(np.array(values) - np.linalg.eigvalsh(a))) <= tol
    # single z_i depend on the basis chosen inside a repeated eigenvalue; the
    # norm over a group is the length of 1's projection onto its eigenspace
    want_values, vectors = np.linalg.eigh(a)
    group_tol = 1e-8 * max(1.0, np.linalg.norm(a, 2))
    got = _group_norms(want_values, np.array(z), group_tol)
    want = _group_norms(want_values, vectors.sum(axis=0), group_tol)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-10


@pytest.mark.parametrize("k", range(1, 31))
def test_random_symmetric_matches_eigvalsh(k):
    rng = random.Random(1000 + k)
    for _ in range(3):
        _check_against_eigvalsh(_random_symmetric(rng, k))


@pytest.mark.parametrize("name,m", REPEATED, ids=[name for name, _ in REPEATED])
def test_repeated_eigenvalues_match_eigvalsh(name, m):
    _check_against_eigvalsh(m)


def _numpy_main_count(g, group_tol=1e-8, proj_tol=1e-8):
    """Main eigenvalues from numpy's eigh, grouped as count_main_eigenvalues documents."""
    values, vectors = np.linalg.eigh(np.array(_adjacency_rows(g)))
    proj = vectors.sum(axis=0) ** 2
    count, start, k = 0, 0, g.order
    while start < k:
        stop = start + 1
        while stop < k and values[stop] - values[stop - 1] <= group_tol:
            stop += 1
        count += np.sqrt(proj[start:stop].sum()) > proj_tol * np.sqrt(k)
        start = stop
    return int(count)


@pytest.mark.parametrize("n", range(4, 61))
def test_main_count_matches_numpy_on_extended_dynkin(n):
    g = make_extended_dynkin(n)
    assert count_main_eigenvalues(g).main_count == _numpy_main_count(g) == n // 2


def test_main_count_matches_numpy_on_random_trees():
    rng = random.Random(5)
    for _ in range(50):
        g = _random_tree(rng, rng.randint(2, 30))
        count = count_main_eigenvalues(g).main_count
        assert count == _numpy_main_count(g)
        # Hagos: the number of main eigenvalues is the rank of the walk matrix
        assert count == rank_fraction_free(walk_matrix(adjacency_matrix(g)))


def _shifts(rng, values, count=8):
    """Seeded shifts over the spectrum and past both ends, none within 1e-6 of an eigenvalue."""
    lo, hi = values[0] - 1.0, values[-1] + 1.0
    out = []
    while len(out) < count:
        x = rng.uniform(lo, hi)
        if np.min(np.abs(values - x)) > 1e-6:
            out.append(x)
    return out


def test_tree_inertia_matches_eigvalsh_on_random_trees():
    rng = random.Random(7)
    for _ in range(50):
        g = _random_tree(rng, rng.randint(1, 40))
        values = np.linalg.eigvalsh(np.array(_adjacency_rows(g)))
        assert _forest(g) is not None
        for x in _shifts(rng, values):
            assert tree_count_below(g, x) == np.sum(values < x)
        report = count_main_eigenvalues(g)
        assert report.inertia_route == "tree" and report.inertia_ok


def _cycle(k):
    return Graph(k, [(i, i % k + 1) for i in range(1, k + 1)])


STURM_GRAPHS = [(f"K{k}", complete_graph(k)) for k in range(3, 17)] + [
    (f"C{k}", _cycle(k)) for k in range(3, 25)
]


@pytest.mark.parametrize("name,g", STURM_GRAPHS, ids=[name for name, _ in STURM_GRAPHS])
def test_sturm_inertia_matches_eigvalsh(name, g):
    rng = random.Random(g.order)
    rows = _adjacency_rows(g)
    values = np.linalg.eigvalsh(np.array(rows))
    d, e, _ = _tridiagonal(rows)
    for x in _shifts(rng, values):
        assert path_count_below(d, e, x) == np.sum(values < x)
    report = count_main_eigenvalues(g)
    assert report.inertia_route == "sturm" and report.inertia_ok
