"""Seeded corpus of integer matrices whose Smith normal form is known by construction.

Each matrix is U*D*V. D is a rows x cols diagonal whose entries
d_1 | d_2 | ... | d_r are fixed per shape. U and V are products of elementary
transvections (add +1 or -1 times one row, or column, to another), so
det U = det V = 1 and the invariant factors of U*D*V are exactly d_1..d_r.

The seed draws only the transvections. The shapes and chains are the same for
every seed, so the work per round barely depends on which seed is drawn.
Sizes stay at 20x24 and below, and entries at a few times d_r: past that,
the time of walkrank's Smith normal form swings with the seed by orders of
magnitude (see the SNF entry-growth finding in CHANGES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

PRIME = 1_073_741_789  # the largest prime below 2**30


def _chain(rank: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    return (1,) * (rank - len(tail)) + tail


# (rows, cols, invariant factors): one block of the corpus.
SHAPES: tuple[tuple[int, int, tuple[int, ...]], ...] = (
    (16, 16, _chain(16, (2, 6, 12))),
    (16, 16, _chain(13, (3, 9))),
    (12, 16, _chain(12, (2, 4))),
    (16, 12, _chain(10, (5,))),
    (12, 12, _chain(12, (PRIME, 2 * PRIME))),
    (20, 24, _chain(20, (2, 4))),
    (8, 8, _chain(8, ())),
    (8, 12, _chain(6, (6,))),
)
BLOCKS = 32
ENTRY_CAP = 3  # no entry ever exceeds ENTRY_CAP * d_r in absolute value
OPS_PER_LINE = 6  # transvections per row plus column of the shape


@dataclass(frozen=True)
class CorpusMatrix:
    """One matrix of the corpus with the values its construction fixes."""

    rows: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def det(self) -> int | None:
        """det(U D V) = det D for square full-rank matrices, else None."""
        m, n = self.shape
        return prod(self.factors) if m == n == self.rank else None

    @property
    def modular_rank(self) -> int:
        """Rank over GF(PRIME): the factors PRIME does not divide."""
        return sum(1 for d in self.factors if d % PRIME)


def unimodular_mix(
    rng: random.Random, rows: int, cols: int, factors: tuple[int, ...]
) -> list[list[int]]:
    """U*D*V for D = diag(factors) padded to rows x cols.

    Applies OPS_PER_LINE * (rows + cols) random transvections, skipping any
    that would push an entry past ENTRY_CAP * max(factors).
    """
    if not 0 < len(factors) <= min(rows, cols) or min(rows, cols) < 2:
        raise ValueError(f"{len(factors)} factors do not fit a {rows}x{cols} shape")
    a = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(factors):
        a[i][i] = d
    limit = ENTRY_CAP * max(factors)
    target = OPS_PER_LINE * (rows + cols)
    applied = tries = 0
    while applied < target and tries < 50 * target:
        tries += 1
        sign = rng.choice((-1, 1))
        if rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            new = [x + sign * y for x, y in zip(a[i], a[j])]
            if max(map(abs, new)) <= limit:
                a[i] = new
                applied += 1
        else:
            i, j = rng.sample(range(cols), 2)
            new = [row[i] + sign * row[j] for row in a]
            if max(map(abs, new)) <= limit:
                for row, x in zip(a, new):
                    row[i] = x
                applied += 1
    return a


def make_corpus(seed: int, blocks: int = BLOCKS) -> list[CorpusMatrix]:
    """`blocks` copies of SHAPES, each matrix with its own seeded transvections."""
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        for rows, cols, factors in SHAPES:
            a = unimodular_mix(rng, rows, cols, factors)
            out.append(CorpusMatrix(tuple(map(tuple, a)), factors))
    return out
