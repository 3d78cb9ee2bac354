"""The inertia kernel walkrank.spectra._count_below on the two inputs that
count_main_eigenvalues gives it: a forest as itself (route "tree") and a
tridiagonal matrix as a path rooted at its last index (route "sturm")."""

from walkrank.spectra import _count_below, _forest


def tree_count_below(g, x):
    """Adjacency eigenvalues of the forest g below x, counted on g itself."""
    parent, order = _forest(g)
    return _count_below(parent, order, [0.0] * g.order, [1.0] * g.order, x)


def path_count_below(d, e, x):
    """Eigenvalues below x of the tridiagonal matrix with diagonal d and
    off-diagonal e, where e[i] couples i and i+1 and e[-1] is 0, as
    spectra._tridiagonal returns them."""
    k = len(d)
    return _count_below([*range(1, k), -1], range(k - 1, -1, -1), d, [v * v for v in e], x)
