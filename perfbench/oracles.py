"""References independent of walkrank, used only after the timed part.

The graph, walk matrix and divisor matrix are rebuilt here from the
definition of the extended Dynkin tree; numpy and sympy supply the rank,
Smith normal form and spectra. numpy and sympy are imported lazily so that
neither shows in the timed part or in its peak memory.
"""

from __future__ import annotations

import math


def ext_dynkin_neighbors(n: int) -> list[list[int]]:
    """0-indexed neighbor lists of the tree on n+1 vertices.

    Vertices 1 and 2 hang off vertex 3, vertices n and n+1 off vertex n-1,
    and 3..n-1 form a path (1-indexed, as in the paper).
    """
    edges = [(1, 3), (2, 3), (n - 1, n), (n - 1, n + 1)]
    edges += [(v, v + 1) for v in range(3, n - 1)]
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    return nbrs


def walk_matrix_rows(n: int) -> list[list[int]]:
    """Rows of W, whose column j is A^j applied to the all-ones vector."""
    nbrs = ext_dynkin_neighbors(n)
    size = n + 1
    cols = [[1] * size]
    for _ in range(size - 1):
        prev = cols[-1]
        cols.append([sum(prev[j] for j in nbrs[i]) for i in range(size)])
    return [[col[i] for col in cols] for i in range(size)]


def divisor_rows(n: int) -> list[list[int]]:
    """Quotient matrix for the cells {1,2}, {3}, ..., {n-1}, {n,n+1}."""
    k = n - 1
    b = [[0] * k for _ in range(k)]
    for i in range(1, k - 2):  # spine cells 1..k-2 form a path
        b[i][i + 1] = b[i + 1][i] = 1
    b[0][1] = b[k - 1][k - 2] = 1  # a leaf sees its spine vertex
    b[1][0] += 2  # vertex 3 sees both leaves 1 and 2
    b[k - 2][k - 1] += 2  # vertex n-1 sees both leaves n and n+1
    return b


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination in int64; p must be below 2**31."""
    import numpy as np

    if not 2 <= p < 2**31:
        raise ValueError(f"modulus {p} does not fit int64 products")
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        a[r + 1 :] = (a[r + 1 :] - np.outer(a[r + 1 :, c], a[r]) % p) % p
        r += 1
        if r == nrows:
            break
    return r


def smith_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors from sympy's smith_normal_form."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    s = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = (abs(int(s[i, i])) for i in range(min(s.shape)))
    return tuple(d for d in diag if d)


def main_eigenvalue_count(n: int, tol: float = 1e-6) -> int:
    """Distinct adjacency eigenvalues whose eigenspace is not orthogonal to 1."""
    import numpy as np

    size = n + 1
    adj = np.zeros((size, size))
    for i, nb in enumerate(ext_dynkin_neighbors(n)):
        adj[i, nb] = 1.0
    values, vectors = np.linalg.eigh(adj)
    proj = vectors.T @ np.ones(size)
    count = 0
    start = 0
    while start < size:
        stop = start + 1
        while stop < size and values[stop] - values[stop - 1] <= tol:
            stop += 1
        if math.sqrt(float(np.sum(proj[start:stop] ** 2))) > tol * math.sqrt(size):
            count += 1
        start = stop
    return count


def divisor_spectrum_matches(n: int, b_rows: list[list[int]], tol: float = 1e-8) -> bool:
    """numpy's eigenvalues of B equal {2cos(k pi/(n-2)) : 0 <= k < n-2} and -2."""
    import numpy as np

    got = np.linalg.eigvals(np.array(b_rows, dtype=float))
    want = [2.0 * math.cos(k * math.pi / (n - 2)) for k in range(n - 2)] + [-2.0]
    return bool(
        np.max(np.abs(got.imag)) < tol
        and np.max(np.abs(np.sort(got.real) - np.sort(want))) < tol
    )
