"""Test inputs built the same way in more than one test module."""

from walkrank.graphs import Graph, adjacency_matrix, make_extended_dynkin
from walkrank.intmatrix import IntMatrix, walk_matrix


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])


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
