"""Unit tests for n-dimensional boxes."""

import numpy as np
import pytest

from repro.intervals import Box, EmptyIntersectionError, Interval, hull_of_boxes


def assert_box_error(lo, hi, message):
    with pytest.raises(ValueError) as raised:
        Box(lo, hi)
    assert str(raised.value) == message


@pytest.fixture
def unit_box():
    return Box([0.0, 0.0], [1.0, 1.0])


class TestConstruction:
    def test_from_intervals_roundtrip(self):
        box = Box.from_intervals([Interval(0, 1), Interval(-1, 2)])
        assert box[0] == Interval(0, 1)
        assert box[1] == Interval(-1, 2)

    def test_from_point(self):
        box = Box.from_point([1.0, 2.0, 3.0])
        assert box.volume() == 0.0
        assert box.contains_point([1.0, 2.0, 3.0])

    def test_invalid_endpoints_raise(self):
        # The message names the first dimension with lo > hi.
        assert_box_error(
            [0.0, 3.0, 5.0], [1.0, 2.0, 4.0], "invalid box: dimension 1 has lo=3.0 > hi=2.0"
        )

    def test_nan_rejected(self):
        message = "box endpoints must not be NaN"
        assert_box_error([np.nan], [1.0], message)
        assert_box_error([0.0, 0.0], [1.0, np.nan], message)
        # NaN is reported before lo > hi, even when lo > hi comes first.
        assert_box_error([2.0, 0.0], [1.0, np.nan], message)

    def test_shape_mismatch_raises(self):
        message = "box endpoints must be 1-D arrays of equal length"
        assert_box_error([0.0, 0.0], [1.0], message)
        assert_box_error([[0.0]], [[1.0]], message)
        assert_box_error(0.0, 1.0, message)

    def test_hull_of_points(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        box = Box.hull_of_points(pts)
        assert box == Box([0.0, -1.0], [2.0, 1.0])

    def test_endpoints_are_copied(self):
        lo = np.array([0.0])
        box = Box(lo, [1.0])
        lo[0] = 99.0
        assert box.lo[0] == 0.0


class TestInspection:
    def test_dim_len_iter(self, unit_box):
        assert unit_box.dim == len(unit_box) == 2
        assert [iv for iv in unit_box] == [Interval(0, 1), Interval(0, 1)]

    def test_center_widths(self, unit_box):
        assert np.allclose(unit_box.center, [0.5, 0.5])
        assert np.allclose(unit_box.widths, [1.0, 1.0])

    def test_widest_dim(self):
        box = Box([0.0, 0.0], [1.0, 3.0])
        assert box.widest_dim() == 1
        assert box.max_width == 3.0

    def test_volume(self):
        assert Box([0, 0], [2, 3]).volume() == 6.0

    def test_log_volume_orders_boxes(self):
        small = Box([0, 0], [1, 1])
        big = Box([0, 0], [2, 2])
        assert small.log_volume() < big.log_volume()


class TestPredicates:
    def test_contains_point(self, unit_box):
        assert [0.5, 0.5] in unit_box
        assert [1.5, 0.5] not in unit_box

    def test_contains_box(self, unit_box):
        assert Box([0.2, 0.2], [0.8, 0.8]) in unit_box
        assert Box([0.2, 0.2], [1.2, 0.8]) not in unit_box

    def test_overlaps(self, unit_box):
        assert unit_box.overlaps(Box([0.5, 0.5], [2.0, 2.0]))
        assert not unit_box.overlaps(Box([2.0, 2.0], [3.0, 3.0]))


class TestOperations:
    def test_hull(self):
        a = Box([0, 0], [1, 1])
        b = Box([2, -1], [3, 0.5])
        assert a.hull(b) == Box([0, -1], [3, 1])

    def test_intersect(self):
        a = Box([0, 0], [2, 2])
        b = Box([1, 1], [3, 3])
        assert a.intersect(b) == Box([1, 1], [2, 2])

    def test_intersect_disjoint_raises(self):
        with pytest.raises(EmptyIntersectionError):
            Box([0, 0], [1, 1]).intersect(Box([2, 2], [3, 3]))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            Box([0], [1]).hull(Box([0, 0], [1, 1]))

    def test_inflate(self, unit_box):
        bigger = unit_box.inflate(0.5)
        assert bigger.contains_box(unit_box)
        assert bigger.lo[0] <= -0.5

    def test_inflate_vector(self, unit_box):
        bigger = unit_box.inflate([0.5, 0.0])
        assert bigger.lo[0] <= -0.5
        assert bigger.lo[1] <= 0.0

    def test_bisect(self, unit_box):
        left, right = unit_box.bisect(0)
        assert left.hull(right) == unit_box
        assert left.hi[0] == right.lo[0] == 0.5

    def test_bisect_all_counts(self):
        box = Box([0, 0, 0], [1, 1, 1])
        pieces = box.bisect_all([0, 1, 2])
        assert len(pieces) == 8
        assert hull_of_boxes(pieces) == box

    def test_corners(self, unit_box):
        corners = unit_box.corners()
        assert corners.shape == (4, 2)
        for corner in corners:
            assert unit_box.contains_point(corner)

    def test_corners_dimension_limit(self):
        big = Box([0.0] * 21, [1.0] * 21)
        with pytest.raises(ValueError):
            big.corners()

    def test_sample_inside(self, unit_box):
        rng = np.random.default_rng(0)
        pts = unit_box.sample(rng, 100)
        assert pts.shape == (100, 2)
        for p in pts:
            assert unit_box.contains_point(p)

    def test_center_distance_sq(self):
        a = Box([0, 0], [2, 2])  # center (1, 1)
        b = Box([3, 4], [5, 6])  # center (4, 5)
        assert a.center_distance_sq(b) == pytest.approx(9 + 16)

    def test_scaled(self):
        box = Box([0, 0], [1, 2])
        scaled = box.scaled([2.0, 0.5], [1.0, -1.0])
        assert scaled.contains_point([1.0, -1.0])
        assert scaled.contains_point([3.0, 0.0])

    def test_hull_of_boxes_empty_raises(self):
        with pytest.raises(ValueError):
            hull_of_boxes([])


class TestPlumbing:
    def test_equality_and_hash(self):
        assert Box([0, 0], [1, 1]) == Box([0, 0], [1, 1])
        assert hash(Box([0, 0], [1, 1])) == hash(Box([0, 0], [1, 1]))

    def test_repr(self, unit_box):
        assert "Box(" in repr(unit_box)
