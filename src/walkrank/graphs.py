"""Tree families with the fixed vertex labelings the quotient construction relies on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .intmatrix import IntMatrix, check_int, read_int_table

Edge = tuple[int, int]


def _normalize_edges(order: int, edges: Iterable[Edge]) -> frozenset[Edge]:
    out: set[Edge] = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise TypeError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= order and 1 <= v <= order):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{order}")
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices labeled 1..order.

    Edges are kept as (u, v) pairs with u < v; duplicates collapse and
    self-loops are rejected at construction time.
    """

    order: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        # a bool order would pass as 1, and a float one breaks neighbor_sets()
        check_int(self.order, "graph order", 1)
        object.__setattr__(self, "edges", _normalize_edges(self.order, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbor_sets(self) -> dict[int, set[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.order + 1)}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs


def check_family_order(n: int) -> None:
    """The order of a family member: n as in check_int, at least 4."""
    check_int(n, "order", 4)


def make_path(n: int) -> Graph:
    """Path 1-2-...-n; n as in check_int, at least 1."""
    check_int(n, "path order", 1)
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def make_dynkin(n: int) -> Graph:
    """Tree on n vertices: the path 2-3-...-n plus the pendant edge {1, 3}.

    Vertices 1 and 2 are the two leaves attached to vertex 3; vertex 3 is the
    unique vertex of degree 3.
    """
    check_family_order(n)
    edges = {(1, 3)} | {(i, i + 1) for i in range(2, n)}
    return Graph(n, frozenset(edges))


def make_extended_dynkin(n: int) -> Graph:
    """Tree on n+1 vertices with leaf pairs {1, 2} at vertex 3 and {n, n+1} at vertex n-1.

    The spine is 3-4-...-(n-1); for n = 4 the spine is the single vertex 3 and
    the result is the star on five vertices.
    """
    check_family_order(n)
    edges = {(1, 3), (2, 3), (n - 1, n), (n - 1, n + 1)}
    edges |= {(i, i + 1) for i in range(3, n - 1)}
    return Graph(n + 1, frozenset(edges))


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Symmetric 0/1 matrix; entry (i, j) is 1 exactly when {i, j} is an edge."""
    rows = [[0] * g.order for _ in range(g.order)]
    for u, v in g.edges:
        rows[u - 1][v - 1] = 1
        rows[v - 1][u - 1] = 1
    return IntMatrix.from_rows(rows)


def format_edge_list(g: Graph) -> str:
    """Edge-list text: header `order m`, then one `u v` line per edge."""
    lines = [f"{g.order} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Inverse of format_edge_list; lines starting with `#` are comments (see
    read_int_table). An edge listed twice raises ValueError, since the graph
    would then have fewer edges than the header's m."""
    order, m, ends = read_int_table(text, "edge list", lambda order, m: (m, 2))
    g = Graph(order, zip(ends[::2], ends[1::2]))
    if g.edge_count != m:
        raise ValueError(
            f"edge list header counts {m} edges, but its lines name {g.edge_count} distinct edges"
        )
    return g
