"""Interval and grid partitions and the classes a value set induces."""

import pytest
from hypothesis import given, strategies as st

from fuzzyrel import (
    DomainError,
    cell_of,
    class_of,
    classes_over,
    partition_line,
    partition_plane,
)
from fuzzyrel.partition import _EPS, _MAX_CELLS

HAIR = ("Bk", "DB", "A", "R", "LB", "Bd", "Bc")
HAIR_POS = {label: i for i, label in enumerate(HAIR)}

FANTASY = {
    "Shire": (12, 7),
    "Bree": (14, 23),
    "Rivendell": (23, 28),
    "Isengard": (45, 48),
    "Moria": (45, 70),
    "Gondor": (63, 26),
    "Rohan": (68, 22),
    "Lothlorien": (82, 43),
    "Mordor": (91, 82),
}


def sets(grouping):
    return [set(c) for c in grouping.classes]


class TestPartitionLine:
    def test_standard_uneven_tail(self):
        p = partition_line(100, 0.6)
        assert p.cell_count == 3
        assert p.width == pytest.approx(40.0)
        # cells [0, 40), [40, 80) and the short tail [80, 100]
        xs = (0, 39.99, 40, 79.99, 80, 100)
        assert [class_of(x, p) for x in xs] == [1, 1, 2, 2, 3, 3]

    def test_standard_exact_division(self):
        p = partition_line(100, 0.8)
        assert p.cell_count == 5
        assert p.width == pytest.approx(20.0)
        # 5 * width is 99.99999999999999; the last cell still closes at 100
        assert 5 * p.width < 100.0
        for x in (4 * p.width, 5 * p.width, 100.0):
            assert class_of(x, p) == 5
        assert class_of(4 * p.width - 1e-6, p) == 4

    def test_alpha_zero_collapses(self):
        for mode in ("standard", "equalized"):
            p = partition_line(7.5, 0.0, mode)
            assert p.cell_count == 1
            assert p.width == 7.5
            assert class_of(0.0, p) == class_of(7.5, p) == 1

    def test_alpha_one_is_singleton(self):
        p = partition_line(10, 1.0)
        assert p.singleton
        with pytest.raises(DomainError):
            class_of(3.0, p)

    def test_equalized_cell_counts(self):
        # ceil(1 / (1 - alpha)) cells: two on (0, 0.5], three on (0.5, 2/3], ...
        assert partition_line(100, 0.3, "equalized").cell_count == 2
        assert partition_line(100, 0.5, "equalized").cell_count == 2
        assert partition_line(100, 0.55, "equalized").cell_count == 3
        assert partition_line(100, 2 / 3, "equalized").cell_count == 3
        assert partition_line(100, 0.7, "equalized").cell_count == 4

    def test_equalized_widths_are_equal(self):
        p = partition_line(100, 0.55, "equalized")
        assert p.width == pytest.approx(100 / 3)
        assert p.cell_count * p.width == pytest.approx(100.0)
        # each cell starts at a multiple of the width
        for k in range(p.cell_count):
            assert class_of(k * p.width, p) == k + 1
            assert class_of((k + 1) * p.width - 1e-6, p) == k + 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            partition_line(0, 0.5)
        with pytest.raises(DomainError):
            partition_line(10, 1.5)
        with pytest.raises(DomainError):
            partition_line(10, 0.5, "banana")

    def test_rejects_more_cells_than_the_bound(self):
        # 1 / (1 - alpha) is 2**53 here: one pair per cell would never end
        for partition in (partition_line, partition_plane):
            with pytest.raises(DomainError, match="cells"):
                partition(100.0, 0.9999999999999999)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 100.0),
           st.sampled_from(["standard", "equalized"]))
    def test_disjoint_cover(self, alpha, x, mode):
        # the cells cover [0, 100], every in-range value lands in the one
        # whose bounds, multiples of the width, hold it up to the boundary
        # slack, and a partition finer than the cell bound is refused
        if alpha < 1.0 and 1.0 / (1.0 - alpha) > _MAX_CELLS:
            with pytest.raises(DomainError):
                partition_line(100.0, alpha, mode)
            return
        p = partition_line(100.0, alpha, mode)
        if p.singleton:
            return
        assert (p.cell_count - 1) * p.width < 100.0 <= p.cell_count * p.width * (1 + 2 * _EPS)
        j = class_of(x, p)
        assert 1 <= j <= p.cell_count
        assert (j - 1 - 2 * _EPS) * p.width <= x
        assert j == p.cell_count or x < j * p.width


class TestClassOf:
    def test_interior_value(self):
        assert class_of(30, partition_line(100, 0.85)) == 3

    def test_left_endpoint(self):
        assert class_of(0, partition_line(100, 0.85)) == 1

    def test_right_endpoint_closed(self):
        assert class_of(100, partition_line(100, 0.8)) == 5

    def test_boundary_goes_right(self):
        assert class_of(40, partition_line(100, 0.6)) == 2

    def test_rejects_outside(self):
        with pytest.raises(DomainError):
            class_of(101, partition_line(100, 0.8))


class TestPartitionPlane:
    def test_25_cells(self):
        g = partition_plane(100, 0.8)
        assert g.cell_count == 25
        assert g.axis.width == pytest.approx(20.0)

    def test_9_cells(self):
        assert partition_plane(100, 0.6).cell_count == 9

    def test_small_square(self):
        g = partition_plane(2, 0.4)
        assert g.cell_count == 4
        assert g.axis.width == pytest.approx(1.2)
        assert cell_of((1.19, 0.0), g) == (1, 1)
        assert cell_of((1.2, 2.0), g) == (2, 2)

    def test_cell_of_refuses_a_value_that_is_not_a_point(self):
        with pytest.raises(DomainError, match=r"expected an \(x, y\) point, got 'A'"):
            cell_of("A", partition_plane(10, 0.5))

    def test_cell_of_cities(self):
        g = partition_plane(100, 0.8)
        assert cell_of(FANTASY["Gondor"], g) == (4, 2)
        assert cell_of(FANTASY["Mordor"], g) == (5, 5)
        assert cell_of((0, 0), g) == (1, 1)


class TestClassesOver:
    def test_statuses_alpha_092(self):
        statuses = {10, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 75, 80, 90}
        g = classes_over(statuses, partition_line(100, 0.92))
        assert sets(g) == [
            {10}, {20}, {25, 30}, {35}, {40, 45}, {50, 55},
            {60}, {65}, {75}, {80}, {90},
        ]
        assert g.class_index(25) == 3

    def test_single_value(self):
        g = classes_over({42}, partition_line(100, 0.5))
        assert sets(g) == [{42}]

    def test_singleton_partition_separates_everything(self):
        g = classes_over({1, 2, 3}, partition_line(100, 1.0))
        assert sets(g) == [{1}, {2}, {3}]

    def test_grid_classes_in_column_row_order(self):
        # width 50: names run against the (column, row) order of their cells
        points = {"z": (10, 10), "y": (10, 60), "x": (60, 10), "w": (60, 60)}
        g = classes_over(points, partition_plane(100, 0.5), points.__getitem__)
        assert sets(g) == [{"z"}, {"y"}, {"x"}, {"w"}]
        assert g.class_index("y") == 2

    def test_city_grid(self):
        g = classes_over(FANTASY, partition_plane(100, 0.6), FANTASY.__getitem__)
        assert set(map(frozenset, g.classes)) == {
            frozenset({"Shire", "Bree", "Rivendell"}),
            frozenset({"Isengard", "Moria"}),
            frozenset({"Gondor", "Rohan"}),
            frozenset({"Lothlorien"}),
            frozenset({"Mordor"}),
        }


class TestHairIntervalClasses:
    """Rank embedding 0..6 over [0, 6]; widths follow m = (1 - alpha) * 6."""

    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (0.8, [{"Bk", "DB"}, {"A"}, {"R"}, {"LB"}, {"Bd", "Bc"}]),
            (2 / 3, [{"Bk", "DB"}, {"A", "R"}, {"LB", "Bd", "Bc"}]),
            (0.6, [{"Bk", "DB", "A"}, {"R", "LB"}, {"Bd", "Bc"}]),
            (0.5, [{"Bk", "DB", "A"}, {"R", "LB", "Bd", "Bc"}]),
            (0.3, [{"Bk", "DB", "A", "R", "LB"}, {"Bd", "Bc"}]),
        ],
    )
    def test_standard_mode(self, alpha, expected):
        g = classes_over(HAIR, partition_line(6, alpha), HAIR_POS.__getitem__)
        assert sets(g) == expected

    def test_classes_need_not_nest_when_alpha_grows(self):
        # {A, R} at the larger threshold straddles two classes of the
        # smaller one, so refinement fails in that direction.
        low = classes_over(HAIR, partition_line(6, 0.6), HAIR_POS.__getitem__)
        high = classes_over(HAIR, partition_line(6, 2 / 3), HAIR_POS.__getitem__)
        straddler = frozenset({"A", "R"})
        assert straddler in high.classes
        assert not any(straddler <= c for c in low.classes)
