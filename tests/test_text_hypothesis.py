"""Round trips of the text formats and of the scan JSON, drawn by Hypothesis:
matrices, graphs and reports written and read back unchanged, also with
blank lines, comments and every accepted line end mixed into the text.
Skipped when hypothesis, a test-only oracle, is missing."""

import pytest

from walkrank.graphs import Graph, format_edge_list, parse_edge_list
from walkrank.intmatrix import IntMatrix, format_matrix_text, parse_matrix_text
from walkrank.reports import VerifyReport, parse_scan_json, reports_to_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=50, deadline=None, database=None, derandomize=True)

BOUND = 2**200
MATRICES = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(
        st.integers(-BOUND, BOUND), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda data: IntMatrix(shape[0], shape[1], data))
)


def _graph(order, flags):
    pairs = [(u, v) for u in range(1, order + 1) for v in range(u + 1, order + 1)]
    return Graph(order, frozenset(p for p, keep in zip(pairs, flags) if keep))


GRAPHS = st.integers(1, 15).flatmap(
    lambda order: st.lists(
        st.booleans(), min_size=order * (order - 1) // 2, max_size=order * (order - 1) // 2
    ).map(lambda flags: _graph(order, flags))
)
# a comment may hold any character but the two that end lines
COMMENTS = st.text(st.characters(blacklist_characters="\n\r")).map(lambda text: "#" + text)
EXTRA_LINES = st.lists(st.one_of(st.text(" \t"), COMMENTS), max_size=3)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _interleaved(draw, text):
    """text with blank and comment lines drawn before each of its lines, and
    each line ended by a drawn line end."""
    out = []
    for line in text.split("\n")[:-1]:
        out.extend(extra + draw(LINE_ENDS) for extra in draw(EXTRA_LINES))
        out.append(line + draw(LINE_ENDS))
    out.extend(draw(EXTRA_LINES))
    return "".join(out)


@SETTINGS
@hypothesis.given(MATRICES)
def test_matrix_text_round_trip(m):
    assert parse_matrix_text(format_matrix_text(m)) == m


@SETTINGS
@hypothesis.given(GRAPHS)
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@SETTINGS
@hypothesis.given(MATRICES, st.data())
def test_matrix_text_round_trip_with_comments_and_blank_lines(m, data):
    assert parse_matrix_text(data.draw(_interleaved(format_matrix_text(m)))) == m


@SETTINGS
@hypothesis.given(GRAPHS, st.data())
def test_edge_list_round_trip_with_comments_and_blank_lines(g, data):
    assert parse_edge_list(data.draw(_interleaved(format_edge_list(g)))) == g


def _maybe(strategy):
    return st.none() | strategy


FACTORS = st.lists(st.integers(0, BOUND), max_size=6).map(tuple)
REPORTS = st.builds(
    VerifyReport,
    n=st.integers(),
    rank_exact=_maybe(st.integers()),
    rank_expected=_maybe(st.integers()),
    hat_equals_wb=_maybe(st.booleans()),
    snf_w=_maybe(FACTORS),
    snf_wprime=_maybe(FACTORS),
    integrally_equiv=_maybe(st.booleans()),
    main_count=_maybe(st.integers()),
    conjecture_holds=_maybe(st.booleans()),
    timings=st.dictionaries(
        st.text(), st.integers(0, 10**6) | st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
    ),
)


@SETTINGS
@hypothesis.given(st.lists(REPORTS, max_size=4))
def test_scan_json_round_trip(rows):
    assert parse_scan_json(reports_to_json(rows)) == rows
