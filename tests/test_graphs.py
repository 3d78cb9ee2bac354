import re

import pytest

from walkrank.graphs import (
    Graph,
    adjacency_matrix,
    format_edge_list,
    make_dynkin,
    make_extended_dynkin,
    make_path,
    parse_edge_list,
)
from walkrank.intmatrix import walk_matrix


def _degrees(g):
    """Vertex degrees in label order 1..order."""
    return tuple(len(nbrs) for _, nbrs in sorted(g.neighbor_sets().items()))


def test_make_path_smallest():
    g = make_path(1)
    assert g.order == 1
    assert g.edge_count == 0


def test_make_path_edges():
    assert make_path(3).edges == frozenset({(1, 2), (2, 3)})


def test_make_path_degree_sequence():
    g = make_path(5)
    assert g.order == 5
    assert g.edge_count == 4
    assert _degrees(g) == (1, 2, 2, 2, 1)


def test_make_dynkin_smallest_is_star():
    assert make_dynkin(4).edges == frozenset({(1, 3), (2, 3), (3, 4)})


def test_make_dynkin_degree_sequence():
    g = make_dynkin(5)
    assert g.order == 5
    assert g.edge_count == 4
    assert _degrees(g) == (1, 1, 3, 2, 1)


def test_make_dynkin_branching():
    degs = _degrees(make_dynkin(6))
    assert degs.count(3) == 1
    assert degs.count(1) == 3


def test_make_extended_dynkin_smallest_is_star():
    assert make_extended_dynkin(4).edges == frozenset({(1, 3), (2, 3), (3, 4), (3, 5)})


def test_make_extended_dynkin_degree_sequence():
    assert _degrees(make_extended_dynkin(6)) == (1, 1, 3, 2, 3, 1, 1)


def test_make_extended_dynkin_vertex_three_walk_counts():
    g = make_extended_dynkin(8)
    assert g.order == 9
    assert _degrees(g)[2] == 3
    w = walk_matrix(adjacency_matrix(g))
    assert list(w)[2][:2] == (1, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_make_path_rejects_bad_order(n):
    with pytest.raises(ValueError):
        make_path(n)


@pytest.mark.parametrize("maker", [make_dynkin, make_extended_dynkin])
def test_family_rejects_small_order(maker):
    with pytest.raises(ValueError):
        maker(3)


@pytest.mark.parametrize("maker", [make_dynkin, make_extended_dynkin])
@pytest.mark.parametrize("n", [True, 6.0, "6", None], ids=repr)
def test_family_rejects_an_order_that_is_not_an_int(maker, n):
    with pytest.raises(TypeError, match=f"order must be an int, got {n!r}"):
        maker(n)


def test_from_edge_list_path():
    assert Graph(3, [(1, 2), (2, 3)]) == make_path(3)


def test_from_edge_list_collapses_duplicates():
    g = Graph(2, [(1, 2), (2, 1)])
    assert g.edge_count == 1


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])


@pytest.mark.parametrize(
    "order,edges",
    [(3, [(True, 2), (2, 3)]), (3, [(1, 2.0)]), (2.0, [(1, 2)]), (True, [])],
    ids=["bool-endpoint", "float-endpoint", "float-order", "bool-order"],
)
def test_graph_rejects_orders_and_endpoints_that_are_not_ints(order, edges):
    # True would be read as vertex 1, and a float order breaks neighbor_sets()
    with pytest.raises(TypeError):
        Graph(order, edges)


def test_make_path_rejects_a_bool_order():
    with pytest.raises(TypeError):
        make_path(True)


# 2.0 failed in range() and "2" in the comparison, neither naming the value
@pytest.mark.parametrize("n", [2.0, True, "2"], ids=repr)
def test_make_path_rejects_an_order_that_is_not_an_int(n):
    with pytest.raises(TypeError, match=re.escape(f"path order must be an int, got {n!r}")):
        make_path(n)


def test_adjacency_matrix_path2():
    assert adjacency_matrix(make_path(2)).to_rows() == [[0, 1], [1, 0]]


def test_adjacency_matrix_star_row():
    a = adjacency_matrix(make_extended_dynkin(4))
    assert list(a)[2] == (1, 1, 0, 1, 1)


@pytest.mark.parametrize("n", range(4, 16))
def test_adjacency_symmetric_zero_diagonal(n):
    a = adjacency_matrix(make_extended_dynkin(n))
    rows = a.to_rows()
    assert rows == [list(col) for col in zip(*rows)]
    assert all(rows[i][i] == 0 for i in range(a.rows))


@pytest.mark.parametrize("n", range(4, 24))
def test_extended_family_is_a_tree(n):
    g = make_extended_dynkin(n)
    assert g.order == n + 1
    assert g.edge_count == n


@pytest.mark.parametrize("n", range(4, 16))
def test_row_sums_match_length_one_walk_counts(n):
    g = make_extended_dynkin(n)
    a = adjacency_matrix(g)
    w = walk_matrix(a)
    row_sums = tuple(map(sum, a))
    assert row_sums == tuple(r[1] for r in w.to_rows())


@pytest.mark.parametrize("n", range(5, 20))
def test_dropping_last_leaf_recovers_plain_family(n):
    assert make_extended_dynkin(n).edges - {(n - 1, n + 1)} == make_dynkin(n).edges


def test_edge_list_round_trip():
    g = make_extended_dynkin(7)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parse_with_comments():
    text = "# a path on three vertices\n3 2\n1 2\n# middle comment\n2 3\n"
    assert parse_edge_list(text) == make_path(3)


def test_edge_list_parse_rejects_wrong_count():
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n1 2\n")


@pytest.mark.parametrize(
    "text",
    ["3 1\n1 2\n2 3\n", "3 2\n1 2 3\n2 3\n", "3 2\n1\n2 3\n"],
    ids=["line-too-many", "int-too-many", "int-too-few"],
)
def test_edge_list_parse_rejects_a_body_that_does_not_fit_the_header(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


# Graph collapses a repeated edge, which would leave fewer edges than the header counts
@pytest.mark.parametrize("text", ["2 2\n1 2\n2 1\n", "3 2\n1 2\n1 2\n"], ids=["reversed", "same"])
def test_edge_list_parse_rejects_a_repeated_edge(text):
    with pytest.raises(ValueError, match="header counts 2 edges"):
        parse_edge_list(text)


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_edge_list_comment_ends_only_at_a_line_end(sep):
    assert parse_edge_list(f"# page{sep}break\r\n3 2\r\n1 2\n# {sep}\r2 3\n") == make_path(3)


# str.strip() trimmed these from a line's ends, so "2 1\n1 2\u3000\n" read
# as a graph and a line of only "\x1c" was skipped as blank
@pytest.mark.parametrize("char", ["\u2028", "\x85", "\u3000", "\x0c", "\x1c"])
@pytest.mark.parametrize(
    "template",
    ["{c}2 1\n1 2\n", "2 1{c}\n1 2\n", "2 1\n{c}1 2\n", "2 1\n1 2{c}\n", "2 1\n{c}\n1 2\n"],
    ids=["header-start", "header-end", "edge-start", "edge-end", "alone"],
)
def test_edge_list_parse_rejects_a_character_that_only_str_strip_trims(template, char):
    with pytest.raises(ValueError):
        parse_edge_list(template.format(c=char))


# the line count was checked first, so this read as "calls for 1 lines after
# it, got 2", which did not name the bad line
def test_edge_list_parse_names_a_bad_line_that_also_makes_the_count_wrong():
    with pytest.raises(ValueError) as exc:
        parse_edge_list("2 1\n\x1c\n1 2\n")
    assert repr("\x1c") in str(exc.value)


@pytest.mark.parametrize(
    "text",
    ["3 2\n1 2\n2 +3\n", "3 2\n1 2\n2 \uff13\n", "3 1_0\n1 2\n", "+3 1\n1 2\n"],
    ids=["plus", "fullwidth", "underscore-header", "plus-header"],
)
def test_edge_list_parse_rejects_integers_the_formatter_never_writes(text):
    with pytest.raises(ValueError, match="ASCII"):
        parse_edge_list(text)
