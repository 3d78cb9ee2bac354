"""Invariant factors under random unimodular row and column operations and
row and column duplication, drawn by Hypothesis. Skipped when hypothesis, a
test-only oracle, is missing."""

import pytest

from walkrank.intmatrix import IntMatrix
from walkrank.snf import smith_normal_form, walk_core

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)
# (kind, line, other line, multiplier); lines are taken modulo the current
# number of rows, or of columns for a column operation
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["add", "swap", "negate", "duplicate"]),
        st.booleans(),
        st.integers(0, 11),
        st.integers(0, 11),
        st.integers(-2, 2),
    ),
    max_size=12,
)


def _apply(rows, operations):
    """Add k times one line to another, swap two lines, negate a line (all
    unimodular), or append a copy of a line; a column operation runs on the
    transpose."""
    a = [list(r) for r in rows]
    for kind, on_columns, i, j, k in operations:
        if on_columns:
            a = [list(c) for c in zip(*a)]
        i, j = i % len(a), j % len(a)
        if kind == "add" and i != j:
            a[j] = [y + k * x for x, y in zip(a[i], a[j])]
        elif kind == "swap":
            a[i], a[j] = a[j], a[i]
        elif kind == "negate":
            a[i] = [-x for x in a[i]]
        elif kind == "duplicate":
            a.append(list(a[i]))
        if on_columns:
            a = [list(r) for r in zip(*a)]
    return a


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(MATRICES, OPERATIONS)
def test_unimodular_operations_and_duplication_keep_the_factors(rows, operations):
    a = _apply(rows, operations)
    before = smith_normal_form(IntMatrix.from_rows(rows))
    after = smith_normal_form(IntMatrix.from_rows(a))
    assert after.invariant_factors == before.invariant_factors


SQUARE = st.integers(1, 6).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k),
        st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any),
    )
)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(SQUARE)
def test_krylov_matrix_cut_at_its_distinct_rows_keeps_the_factors(case):
    """K = [v, Av, A^2 v, ...] for any integer A and nonzero integer v: the
    minimal polynomial of v under A is monic over the integers, so every
    column from rank K on is an integer combination of the earlier ones."""
    a, v = case
    columns = [v]
    for _ in range(len(v) - 1):
        columns.append([sum(x * y for x, y in zip(row, columns[-1])) for row in a])
    k = IntMatrix.from_rows([list(r) for r in zip(*columns)])
    core = walk_core(k)
    full = smith_normal_form(k)
    assert core.cols >= full.rank
    assert smith_normal_form(core) == full
