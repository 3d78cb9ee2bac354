import random

import pytest

from walkrank.graphs import Graph, adjacency_matrix, make_extended_dynkin, make_path
from walkrank.intmatrix import IntMatrix, rank_fraction_free, walk_matrix
from walkrank.quotient import (
    EquitablePartition,
    NotEquitableError,
    canonical_partition,
    characteristic_matrix,
    divisor_matrix,
    hat_walk_matrix,
)


def _cells(*groups):
    return EquitablePartition(tuple(frozenset(g) for g in groups))


def _brute_force_witness(g, part):
    """First cell pair (row-major, 1-indexed) whose vertices disagree, by definition."""
    nbrs = g.neighbor_sets()
    for i, cell in enumerate(part.cells):
        for j, other in enumerate(part.cells):
            if len({len(nbrs[v] & other) for v in cell}) > 1:
                return (i + 1, j + 1)
    return None


def _random_cases(seed, count):
    """Seeded random graphs on 1..8 vertices, each with a random partition."""
    rng = random.Random(seed)
    for _ in range(count):
        order = rng.randint(1, 8)
        pairs = [(u, v) for u in range(1, order + 1) for v in range(u + 1, order + 1)]
        density = rng.random()
        g = Graph(order, frozenset(e for e in pairs if rng.random() < density))
        labels = [rng.randrange(rng.randint(1, order)) for _ in range(order)]
        groups = {}
        for v, label in enumerate(labels, start=1):
            groups.setdefault(label, set()).add(v)
        cells = list(groups.values())
        rng.shuffle(cells)
        yield g, _cells(*cells)


class TestPartitionType:
    def test_rejects_empty_cell(self):
        with pytest.raises(ValueError):
            _cells({1, 2}, set())

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            _cells({1, 2}, {2, 3})

    def test_rejects_no_cells(self):
        with pytest.raises(ValueError):
            EquitablePartition(())

    def test_vertex_set(self):
        assert _cells({1, 2}, {3}).vertex_set == frozenset({1, 2, 3})

    @pytest.mark.parametrize("member", [1.9, "2", True], ids=["float", "string", "bool"])
    def test_rejects_members_that_are_not_ints(self, member):
        # int() would read 1.9 as 1 and '2' as 2, and True is an int subclass
        with pytest.raises(TypeError, match=f"cell 2 holds {member!r}, not an int"):
            _cells({3, 4}, {member, 5})


class TestCanonicalPartition:
    def test_smallest(self):
        p = canonical_partition(4)
        assert p.cells == (frozenset({1, 2}), frozenset({3}), frozenset({4, 5}))

    def test_order8(self):
        p = canonical_partition(8)
        assert p.cell_count == 7
        assert p.cells[0] == frozenset({1, 2})
        assert p.cells[-1] == frozenset({8, 9})

    @pytest.mark.parametrize("n", range(4, 40))
    def test_cell_count(self, n):
        assert canonical_partition(n).cell_count == n - 1

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            canonical_partition(3)

    # 6.0 failed in range() without naming the order, and True as "order >= 4"
    @pytest.mark.parametrize("n", [True, 6.0, "6", None], ids=repr)
    def test_rejects_an_order_that_is_not_an_int(self, n):
        with pytest.raises(TypeError, match=f"order must be an int, got {n!r}"):
            canonical_partition(n)


class TestIsEquitable:
    """Equitability as divisor_matrix checks it: it returns B exactly when the
    partition is equitable and raises NotEquitableError otherwise."""

    @pytest.mark.parametrize("n", range(4, 24))
    def test_canonical_partition_is_equitable(self, n):
        b = divisor_matrix(make_extended_dynkin(n), canonical_partition(n))
        assert (b.rows, b.cols) == (n - 1, n - 1)

    def test_singleton_partition_always_equitable(self):
        g = make_extended_dynkin(6)
        p = _cells(*({v} for v in range(1, g.order + 1)))
        assert divisor_matrix(g, p) == adjacency_matrix(g)

    def test_path3_cases(self):
        # endpoints {1,3} each see one neighbor in {2}: equitable;
        # merging an endpoint with the middle vertex breaks the count
        g = make_path(3)
        assert divisor_matrix(g, _cells({1, 3}, {2})).to_rows() == [[0, 1], [2, 0]]
        with pytest.raises(NotEquitableError):
            divisor_matrix(g, _cells({1, 2}, {3}))

    def test_rejects_cover_mismatch(self):
        # the divisor and characteristic matrices share one cover check
        part = _cells({1, 2})
        with pytest.raises(ValueError, match=r"does not cover 1\.\.3 exactly"):
            divisor_matrix(make_path(3), part)
        with pytest.raises(ValueError, match=r"does not cover 1\.\.3 exactly"):
            characteristic_matrix(part, 3)


class TestCharacteristicMatrix:
    def test_smallest_case(self):
        p = canonical_partition(4)
        m = characteristic_matrix(p, 5)
        assert m.to_rows() == [
            [1, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [0, 0, 1],
        ]

    @pytest.mark.parametrize("n", range(4, 16))
    def test_each_row_has_one_entry(self, n):
        m = characteristic_matrix(canonical_partition(n), n + 1)
        assert all(sum(r) == 1 for r in m)

    @pytest.mark.parametrize("n", range(4, 16))
    def test_maps_ones_to_ones(self, n):
        m = characteristic_matrix(canonical_partition(n), n + 1)
        ones = IntMatrix(m.cols, 1, [1] * m.cols)
        assert (m @ ones).to_rows() == [[1]] * (n + 1)

    def test_rejects_cover_mismatch(self):
        with pytest.raises(ValueError):
            characteristic_matrix(canonical_partition(4), 6)


class TestDivisorMatrix:
    def test_smallest_case(self):
        g = make_extended_dynkin(4)
        b = divisor_matrix(g, canonical_partition(4))
        assert b.to_rows() == [[0, 1, 0], [2, 0, 2], [0, 1, 0]]

    def test_order8_band_structure(self):
        b = divisor_matrix(make_extended_dynkin(8), canonical_partition(8))
        assert list(b)[0] == (0, 1, 0, 0, 0, 0, 0)
        assert list(b)[1] == (2, 0, 1, 0, 0, 0, 0)
        assert list(b)[6] == (0, 0, 0, 0, 0, 1, 0)
        assert list(b)[5] == (0, 0, 0, 0, 1, 0, 2)

    @pytest.mark.parametrize("n", range(4, 33))
    def test_intertwining_identity(self, n):
        g = make_extended_dynkin(n)
        a = adjacency_matrix(g)
        part = canonical_partition(n)
        p = characteristic_matrix(part, n + 1)
        b = divisor_matrix(g, part)
        assert a @ p == p @ b

    @pytest.mark.parametrize("n", range(4, 25))
    def test_iterated_walk_vectors_factor_through_quotient(self, n):
        # the first n-1 walk-count columns all factor through the quotient
        g = make_extended_dynkin(n)
        part = canonical_partition(n)
        p = characteristic_matrix(part, n + 1)
        b = divisor_matrix(g, part)
        w = walk_matrix(adjacency_matrix(g))
        slab = IntMatrix.from_rows([r[: n - 1] for r in w])
        assert slab == p @ walk_matrix(b)

    def test_not_equitable_reports_witness(self):
        g = make_path(3)
        with pytest.raises(NotEquitableError) as err:
            divisor_matrix(g, _cells({1, 2}, {3}))
        assert (err.value.cell_a, err.value.cell_b) == (1, 2)

    def test_rejects_cover_mismatch(self):
        with pytest.raises(ValueError):
            divisor_matrix(make_path(4), _cells({1, 2}, {3}))

    def test_witness_and_entries_match_the_definition(self):
        equitable = 0
        for g, part in _random_cases(seed=4, count=400):
            want = _brute_force_witness(g, part)
            if want is None:
                equitable += 1
                nbrs = g.neighbor_sets()
                b = divisor_matrix(g, part)
                for i, cell in enumerate(part.cells):
                    v = min(cell)
                    assert list(b)[i] == tuple(len(nbrs[v] & other) for other in part.cells)
            else:
                with pytest.raises(NotEquitableError) as err:
                    divisor_matrix(g, part)
                assert (err.value.cell_a, err.value.cell_b) == want
        assert 20 < equitable < 380


class TestHatWalkMatrix:
    def test_order8_first_row(self):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(8)))
        assert list(hat_walk_matrix(w))[0] == (1, 1, 3, 4, 11, 16, 43)

    @pytest.mark.parametrize("n", range(4, 33))
    def test_equals_quotient_walk_matrix(self, n):
        g = make_extended_dynkin(n)
        w = walk_matrix(adjacency_matrix(g))
        b = divisor_matrix(g, canonical_partition(n))
        assert hat_walk_matrix(w) == walk_matrix(b)

    @pytest.mark.parametrize("n", range(4, 16))
    def test_dimensions(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        hat = hat_walk_matrix(w)
        assert (hat.rows, hat.cols) == (n - 1, n - 1)

    @pytest.mark.parametrize("n", range(4, 20))
    def test_rank_matches_formula(self, n):
        w = walk_matrix(adjacency_matrix(make_extended_dynkin(n)))
        assert rank_fraction_free(hat_walk_matrix(w)) == n // 2

    def test_rejects_small_input(self):
        with pytest.raises(ValueError):
            hat_walk_matrix(IntMatrix.identity(4))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hat_walk_matrix(IntMatrix(6, 5, [0] * 30))
