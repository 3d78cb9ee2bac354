"""Equitable partitions, their characteristic and divisor matrices, the
trimmed walk matrix they predict, and its zero-padded embedding W'."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, check_family_order
from .intmatrix import IntMatrix, square_order


class NotEquitableError(ValueError):
    """A divisor matrix was requested for a partition that is not equitable."""

    def __init__(self, cell_a: int, cell_b: int):
        self.cell_a = cell_a
        self.cell_b = cell_b
        super().__init__(
            f"partition is not equitable: vertices of cell {cell_a} have differing "
            f"neighbor counts in cell {cell_b}"
        )


@dataclass(frozen=True)
class EquitablePartition:
    """Ordered, disjoint, nonempty cells of vertex labels.

    Cell order matters: it fixes the row/column layout of the divisor matrix.
    Equitability itself is verified by the operations that need it, not
    assumed at construction.
    """

    cells: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        cells = tuple(frozenset(c) for c in self.cells)
        for idx, cell in enumerate(cells, start=1):
            # int() would read 1.9 as 1 and '2' as 2; bools are refused by type
            for v in cell:
                if type(v) is not int:
                    raise TypeError(f"cell {idx} holds {v!r}, not an int vertex label")
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("partition needs at least one cell")
        seen: set[int] = set()
        for idx, cell in enumerate(cells, start=1):
            if not cell:
                raise ValueError(f"cell {idx} is empty")
            if seen & cell:
                raise ValueError(f"cell {idx} overlaps an earlier cell")
            seen |= cell

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset().union(*self.cells)


def canonical_partition(n: int) -> EquitablePartition:
    """Cells {1,2}, {3}, ..., {n-1}, {n, n+1}: leaf pairs merged, spine singletons.
    n as in check_family_order."""
    check_family_order(n)
    cells = [frozenset({1, 2})]
    cells.extend(frozenset({v}) for v in range(3, n))
    cells.append(frozenset({n, n + 1}))
    return EquitablePartition(tuple(cells))


def _check_cover(p: EquitablePartition, order: int) -> None:
    if p.vertex_set != frozenset(range(1, order + 1)):
        raise ValueError(f"partition does not cover 1..{order} exactly")


def _equitability_witness(
    p: EquitablePartition, counts: dict[int, dict[int, int]]
) -> tuple[int, int] | None:
    """First cell pair (1-indexed, row-major) with inconsistent neighbor counts, or None.

    counts[v] maps a cell (0-indexed) to the number of v's neighbors in it,
    leaving out cells that hold none. Cells i and j are consistent when every
    vertex of cell i has the same count in cell j, zero included; each is
    compared with one vertex of the cell. The witness is the first
    inconsistent cell i, with the least j over all of its vertices. The work
    is linear in the number of edges.
    """
    for i, cell in enumerate(p.cells):
        first, *rest = (counts[v] for v in cell)
        bad = [j for c in rest for j in c.keys() | first.keys() if c.get(j) != first.get(j)]
        if bad:
            return (i + 1, min(bad) + 1)
    return None


def characteristic_matrix(p: EquitablePartition, order: int) -> IntMatrix:
    """0/1 vertex-by-cell incidence matrix; each row carries exactly one 1."""
    _check_cover(p, order)
    rows = [[0] * p.cell_count for _ in range(order)]
    for c, cell in enumerate(p.cells):
        for v in cell:
            rows[v - 1][c] = 1
    return IntMatrix.from_rows(rows)


def divisor_matrix(g: Graph, p: EquitablePartition) -> IntMatrix:
    """Cell-by-cell neighbor counts.

    Entry (i, j) is the number of neighbors any vertex of cell i has in cell j;
    equitability is re-verified here because a wrong quotient would silently
    corrupt everything downstream.
    """
    _check_cover(p, g.order)
    cell_of = {v: c for c, cell in enumerate(p.cells) for v in cell}
    counts: dict[int, dict[int, int]] = {v: {} for v in cell_of}
    for u, v in g.edges:
        cu, cv = cell_of[u], cell_of[v]
        at_u, at_v = counts[u], counts[v]
        at_u[cv] = at_u.get(cv, 0) + 1
        at_v[cu] = at_v.get(cu, 0) + 1
    witness = _equitability_witness(p, counts)
    if witness is not None:
        raise NotEquitableError(*witness)
    rows = [[0] * p.cell_count for _ in p.cells]
    for row, cell in zip(rows, p.cells):
        for j, c in counts[next(iter(cell))].items():
            row[j] = c
    return IntMatrix.from_rows(rows)


def hat_walk_matrix(w: IntMatrix) -> IntMatrix:
    """Submatrix keeping rows 2..n and columns 1..n-1 of an (n+1)-square walk matrix."""
    size = square_order(w)
    if size < 5:
        raise ValueError(f"need at least a 5x5 walk matrix, got {size}x{size}")
    return IntMatrix.from_rows([r[: size - 2] for r in list(w)[1:-1]])


def build_w_prime(hat: IntMatrix) -> IntMatrix:
    """Zero-padded embedding W' of a trimmed walk matrix.

    Takes hat_walk_matrix(w), (n-1) x (n-1) for an (n+1)-square w, and pads
    it back to the size of w: the first row, the last row and the last two
    columns are zero.
    """
    zero = (0,) * (hat.rows + 2)
    return IntMatrix.from_rows([zero, *((*row, 0, 0) for row in hat), zero])
