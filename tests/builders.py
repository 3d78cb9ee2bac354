"""Test inputs built the same way in more than one test module."""

from walkrank.graphs import Graph, adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import IntMatrix, walk_matrix


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])


def diagonal(entries):
    """The square IntMatrix with entries on its diagonal and 0 elsewhere."""
    k = len(entries)
    return IntMatrix.from_rows([[0] * i + [x] + [0] * (k - 1 - i) for i, x in enumerate(entries)])


def det_cofactor(rows):
    """Independent determinant by first-row cofactor expansion."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * head * det_cofactor(minor)
    return total


def w8():
    """The walk matrix of the extended Dynkin tree at n = 8."""
    return walk_matrix(adjacency_matrix(make_extended_dynkin(8)))


def complete_graph(k):
    return Graph(k, [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)])


def three_term_basis(k, seed=1):
    """The k x k matrix whose column j holds the coefficients of E_j, lowest
    degree first, where E_0 = seed, E_1 = x and E_{j+1} = x E_j - E_{j-1}.
    With seed 1, E_j is the Chebyshev polynomial U_j(x/2) and the matrix is
    upper unitriangular; with seed 2, E_j is the Dickson polynomial D_j and
    the matrix has determinant 2."""
    polys = [[seed], [0, 1]]
    while len(polys) < k:
        a, b = polys[-1], polys[-2]
        polys.append([0] + a)
        for i, x in enumerate(b):
            polys[-1][i] -= x
    cols = [p + [0] * (k - len(p)) for p in polys[:k]]
    return IntMatrix.from_rows([list(r) for r in zip(*cols)])
