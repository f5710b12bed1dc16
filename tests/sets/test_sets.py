"""Tests for set specifications (soundness of the box queries)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import Box
from repro.sets import (
    BallSet,
    BoxSet,
    ComplementSet,
    EmptySet,
    FullSet,
    HalfSpaceSet,
    IntersectionSet,
    OutsideBallSet,
    SublevelSet,
    UnionSet,
)


class TestBallSet:
    def test_contains_box_inside(self):
        ball = BallSet((0, 1), (0.0, 0.0), 5.0)
        assert ball.contains_box(Box([-1.0, -1.0], [1.0, 1.0]))

    def test_disjoint_box_outside(self):
        ball = BallSet((0, 1), (0.0, 0.0), 5.0)
        assert ball.disjoint_box(Box([10.0, 10.0], [11.0, 11.0]))

    def test_straddling_box_neither(self):
        ball = BallSet((0, 1), (0.0, 0.0), 5.0)
        box = Box([4.0, 0.0], [6.0, 1.0])
        assert not ball.contains_box(box)
        assert not ball.disjoint_box(box)

    def test_contains_point(self):
        ball = BallSet((0, 1), (1.0, 1.0), 2.0)
        assert ball.contains_point(np.array([1.5, 1.5]))
        assert not ball.contains_point(np.array([4.0, 1.0]))

    def test_dims_select_state_coordinates(self):
        # Ball over dims (2, 3) of a 4-D state.
        ball = BallSet((2, 3), (0.0, 0.0), 1.0)
        assert ball.contains_box(Box([9, 9, -0.1, -0.1], [9, 9, 0.1, 0.1]))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            BallSet((0, 1), (0.0, 0.0), 0.0)


class TestOutsideBallSet:
    def test_contains_far_box(self):
        outside = OutsideBallSet((0, 1), (0.0, 0.0), 5.0)
        assert outside.contains_box(Box([10.0, 0.0], [11.0, 1.0]))

    def test_disjoint_inner_box(self):
        outside = OutsideBallSet((0, 1), (0.0, 0.0), 5.0)
        assert outside.disjoint_box(Box([-1.0, -1.0], [1.0, 1.0]))

    def test_contains_point_boundary(self):
        outside = OutsideBallSet((0, 1), (0.0, 0.0), 5.0)
        assert not outside.contains_point(np.array([5.0, 0.0]))
        assert outside.contains_point(np.array([5.01, 0.0]))


class TestHalfSpace:
    def test_queries(self):
        hs = HalfSpaceSet([1.0, -1.0], 0.0)  # x - y <= 0
        assert hs.contains_box(Box([0.0, 1.0], [0.5, 2.0]))
        assert hs.disjoint_box(Box([3.0, 0.0], [4.0, 1.0]))
        inbetween = Box([0.0, 0.0], [1.0, 1.0])
        assert not hs.contains_box(inbetween)
        assert not hs.disjoint_box(inbetween)
        assert hs.contains_point(np.array([1.0, 2.0]))


class TestBoxSet:
    def test_queries(self):
        spec = BoxSet(Box([0.0, 0.0], [1.0, 1.0]))
        assert spec.contains_box(Box([0.2, 0.2], [0.8, 0.8]))
        assert spec.disjoint_box(Box([2.0, 2.0], [3.0, 3.0]))
        assert spec.contains_point(np.array([0.5, 0.5]))


class TestCombinators:
    def test_complement_swaps_queries(self):
        ball = BallSet((0, 1), (0.0, 0.0), 5.0)
        comp = ComplementSet(ball)
        inner = Box([-1.0, -1.0], [1.0, 1.0])
        outer = Box([10.0, 10.0], [11.0, 11.0])
        assert comp.disjoint_box(inner)
        assert comp.contains_box(outer)
        assert comp.contains_point(np.array([9.0, 0.0]))

    def test_union(self):
        left = BoxSet(Box([0.0], [1.0]))
        right = BoxSet(Box([2.0], [3.0]))
        union = UnionSet([left, right])
        assert union.contains_box(Box([2.1], [2.9]))
        assert union.disjoint_box(Box([1.4], [1.6]))
        assert union.contains_point(np.array([0.5]))
        assert not union.contains_point(np.array([1.5]))

    def test_union_empty_raises(self):
        with pytest.raises(ValueError):
            UnionSet([])

    def test_intersection(self):
        a = BoxSet(Box([0.0], [2.0]))
        b = BoxSet(Box([1.0], [3.0]))
        inter = IntersectionSet([a, b])
        assert inter.contains_box(Box([1.2], [1.8]))
        assert inter.disjoint_box(Box([2.5], [2.8]))
        assert inter.contains_point(np.array([1.5]))

    def test_intersection_empty_raises(self):
        with pytest.raises(ValueError):
            IntersectionSet([])

    def test_empty_and_full(self):
        box = Box([0.0], [1.0])
        assert EmptySet().disjoint_box(box)
        assert not EmptySet().contains_box(box)
        assert FullSet().contains_box(box)
        assert not FullSet().disjoint_box(box)


class TestSublevelSet:
    def test_queries(self):
        spec = SublevelSet(
            g_interval=lambda box: box[0].sq() - 4.0,
            g_point=lambda p: p[0] ** 2 - 4.0,
            name="|x| <= 2",
        )
        assert spec.contains_box(Box([-1.0], [1.0]))
        assert spec.disjoint_box(Box([3.0], [4.0]))
        assert spec.contains_point(np.array([1.5]))
        assert not spec.contains_point(np.array([2.5]))


class TestSoundnessProperties:
    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_ball_box_queries_consistent_with_points(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        ball = BallSet(
            (0, 1),
            (float(rng.normal()), float(rng.normal())),
            float(rng.random() * 4 + 0.5),
        )
        lo = rng.normal(size=2) * 3
        box = Box(lo, lo + rng.random(2) * 3)
        points = box.sample(rng, 25)
        inside = [ball.contains_point(p) for p in points]
        if ball.contains_box(box):
            assert all(inside)
        if ball.disjoint_box(box):
            assert not any(inside)
