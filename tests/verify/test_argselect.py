"""Tests for the sound argmin/argmax abstraction (Post# core)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArgmaxPost, ArgminPost
from repro.intervals import Box
from repro.verify import (
    certain_argmin,
    possible_argmax,
    possible_argmax_batch,
    possible_argmin,
    possible_argmin_batch,
)


class TestPossibleArgmin:
    def test_disjoint_scores_unique(self):
        box = Box([0.0, 2.0, 4.0], [1.0, 3.0, 5.0])
        assert possible_argmin(box) == [0]
        assert certain_argmin(box) == 0

    def test_overlapping_scores_multiple(self):
        box = Box([0.0, 0.5, 4.0], [1.0, 1.5, 5.0])
        assert possible_argmin(box) == [0, 1]
        assert certain_argmin(box) is None

    def test_all_equal_all_possible(self):
        box = Box([1.0, 1.0], [1.0, 1.0])
        assert possible_argmin(box) == [0, 1]

    def test_touching_boundary_included(self):
        # lo_1 == hi_0: index 1 could still tie; must be kept (sound).
        box = Box([0.0, 1.0], [1.0, 2.0])
        assert possible_argmin(box) == [0, 1]

    def test_argmax_dual(self):
        box = Box([0.0, 2.0, 4.0], [1.0, 3.0, 5.0])
        assert possible_argmax(box) == [2]


class TestSoundness:
    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_concrete_argmin_always_possible(self, dim, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        lo = rng.normal(size=dim)
        hi = lo + rng.random(dim) * 2.0
        box = Box(lo, hi)
        possible = set(possible_argmin(box))
        for _ in range(30):
            y = lo + rng.random(dim) * (hi - lo)
            assert int(np.argmin(y)) in possible

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_concrete_argmax_always_possible(self, dim, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        lo = rng.normal(size=dim)
        hi = lo + rng.random(dim) * 2.0
        box = Box(lo, hi)
        possible = set(possible_argmax(box))
        for _ in range(30):
            y = lo + rng.random(dim) * (hi - lo)
            assert int(np.argmax(y)) in possible


INF = float("inf")
#: (lo, hi) score rows: ties, signed zeros and infinite endpoints.
EDGE_SCORES = [
    ([1.0, 1.0, 2.0], [1.5, 1.5, 3.0]),
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ([-0.0, 0.0, 1.0], [0.0, -0.0, 2.0]),
    ([0.0, -0.0, -0.0], [0.0, 0.0, -0.0]),
    ([-INF, 0.0, 1.0], [INF, 0.5, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, INF, INF]),
    ([-INF, -INF, 3.0], [-INF, -INF, 4.0]),
    ([INF, INF, INF], [INF, INF, INF]),
    ([0.5, 2.0, -1.0], [0.75, 3.0, 0.5]),
]


class TestBatchedPost:
    """``possible_argmin_batch`` / ``possible_argmax_batch``: one array
    comparison per wave, row for row the scalar answer."""

    @staticmethod
    def _stack():
        lo = np.array([row[0] for row in EDGE_SCORES])
        hi = np.array([row[1] for row in EDGE_SCORES])
        boxes = [Box(l, h) for l, h in EDGE_SCORES]
        return lo, hi, boxes

    def test_argmin_rows_match_scalar(self):
        lo, hi, boxes = self._stack()
        assert possible_argmin_batch(lo, hi) == [possible_argmin(b) for b in boxes]
        assert ArgminPost().abstract_batch(lo, hi) == [ArgminPost().abstract(b) for b in boxes]

    def test_argmax_rows_match_scalar(self):
        lo, hi, boxes = self._stack()
        assert possible_argmax_batch(lo, hi) == [possible_argmax(b) for b in boxes]
        assert ArgmaxPost().abstract_batch(lo, hi) == [ArgmaxPost().abstract(b) for b in boxes]

    @pytest.mark.parametrize("batch", [possible_argmin_batch, possible_argmax_batch])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_nan_score_raises(self, batch, side):
        lo, hi, _boxes = self._stack()
        (lo if side == "lo" else hi)[3, 1] = np.nan
        with pytest.raises(ValueError):
            Box(lo[3], hi[3])
        with pytest.raises(ValueError):
            batch(lo, hi)

    @pytest.mark.parametrize("batch", [possible_argmin_batch, possible_argmax_batch])
    def test_crossed_bounds_raise(self, batch):
        lo, hi, _boxes = self._stack()
        lo[0, 2] = hi[0, 2] + 1.0
        with pytest.raises(ValueError):
            batch(lo, hi)

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_random_rows_match_scalar(self, dim, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        # Rounded to a coarse grid so rows often tie.
        lo = np.round(rng.normal(size=(7, dim)), 1)
        hi = lo + np.round(rng.random((7, dim)), 1)
        boxes = [Box(l, h) for l, h in zip(lo, hi)]
        assert possible_argmin_batch(lo, hi) == [possible_argmin(b) for b in boxes]
        assert possible_argmax_batch(lo, hi) == [possible_argmax(b) for b in boxes]
