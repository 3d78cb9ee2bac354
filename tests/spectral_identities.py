"""Two closed forms that the acceptance criteria check in floats: the
cosine-sum identity and the spectral determinant formula for walk matrices.
No code in walkrank calls either, so they live with the tests."""

import math


def cosine_sum(a, b, x, n):
    """Closed form of sum_{k=1..n} cos((a k + b) x).

    Undefined when sin(a x / 2) vanishes; inputs within 1e-12 of that pole are
    rejected.
    """
    half = math.sin(0.5 * a * x)
    if abs(half) <= 1e-12:
        raise ValueError("sin(a x / 2) is too close to zero")
    return (math.sin(((n + 0.5) * a + b) * x) - math.sin((0.5 * a + b) * x)) / (2.0 * half)


def _float_det(rows):
    a = [row[:] for row in rows]
    k = len(a)
    det = 1.0
    for c in range(k):
        piv = max(range(c, k), key=lambda i: abs(a[i][c]))
        if a[piv][c] == 0.0:
            return 0.0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1.0 / a[c][c]
        for i in range(c + 1, k):
            f = a[i][c] * inv
            if f:
                for j in range(c, k):
                    a[i][j] -= f * a[c][j]
    return det


def det_walk_spectral(pairs):
    """Determinant of the walk matrix of a matrix M, from all its eigenpairs
    (walkrank.spectra.ClosedFormEigenpair) of M^T.

    Product of all eigenvalue differences times the product of the all-ones
    projections, divided by the determinant of the eigenvector matrix. The
    pairs are trusted to be eigenpairs of M^T, one per row of M; only
    eigenvectors that are numerically dependent raise ValueError.
    """
    k = len(pairs)
    lams = [pair.eigenvalue for pair in pairs]
    vecs = [pair.vector for pair in pairs]
    basis = [[float(vecs[j][i]) for j in range(k)] for i in range(k)]
    det_basis = _float_det(basis)
    if abs(det_basis) <= 1e-10:
        raise ValueError("eigenvector matrix is numerically singular")
    diffs = 1.0
    for j in range(k):
        for i in range(j):
            diffs *= lams[j] - lams[i]
    dots = 1.0
    for v in vecs:
        dots *= sum(v)
    return diffs * dots / det_basis
