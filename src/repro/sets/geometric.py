"""Concrete geometric set specifications.

The ACAS Xu scenario uses cylindrical sets over the relative position
(collision disc ``ρ < 500 ft``, sensor-range complement ``ρ > r``);
half-spaces and boxes cover the common shapes of other case studies.
All box queries are interval-arithmetic evaluations, hence sound.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..intervals import Box, Interval, ihypot
from ..intervals.batched import IntervalBatch, badd, bhypot, bsub


class BallSet:
    """Euclidean ball ``||x[dims] - center|| < radius`` over 2 dimensions.

    ``dims`` selects the coordinates of the plant state that span the
    plane (for ACAS: the relative position ``(x, y)`` at dims (0, 1)).
    """

    def __init__(
        self,
        dims: tuple[int, int],
        center: tuple[float, float],
        radius: float,
    ) -> None:
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.dims = dims
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)

    def _distance_interval(self, box: Box) -> Interval:
        dx = box[self.dims[0]] - self.center[0]
        dy = box[self.dims[1]] - self.center[1]
        return ihypot(dx, dy)

    def _distance_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``_distance_interval`` over ``(..., n)`` box endpoints
        (bitwise identical to the scalar query per row)."""
        d0, d1 = self.dims
        dx_lo, dx_hi = bsub(lo[..., d0], hi[..., d0], self.center[0], self.center[0])
        dy_lo, dy_hi = bsub(lo[..., d1], hi[..., d1], self.center[1], self.center[1])
        return bhypot(dx_lo, dx_hi, dy_lo, dy_hi)

    def contains_box(self, box: Box) -> bool:
        return self._distance_interval(box).hi < self.radius

    def disjoint_box(self, box: Box) -> bool:
        return self._distance_interval(box).lo >= self.radius

    def contains_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._distance_batch(lo, hi)[1] < self.radius

    def disjoint_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._distance_batch(lo, hi)[0] >= self.radius

    def contains_point(self, point: np.ndarray) -> bool:
        dx = float(point[self.dims[0]]) - self.center[0]
        dy = float(point[self.dims[1]]) - self.center[1]
        # sound: ok [S002] concrete-point query (simulation/falsification);
        # the verified set checks go through _distance_interval
        return math.hypot(dx, dy) < self.radius

    def __repr__(self) -> str:
        return f"BallSet(dims={self.dims}, center={self.center}, radius={self.radius})"


class OutsideBallSet:
    """Complement of a closed ball: ``||x[dims] - center|| > radius``.

    The ACAS target set ``T`` ("intruder outside sensor range") has this
    shape.
    """

    def __init__(
        self,
        dims: tuple[int, int],
        center: tuple[float, float],
        radius: float,
    ) -> None:
        self._ball = BallSet(dims, center, radius)

    @property
    def radius(self) -> float:
        return self._ball.radius

    def contains_box(self, box: Box) -> bool:
        return self._ball._distance_interval(box).lo > self._ball.radius

    def disjoint_box(self, box: Box) -> bool:
        return self._ball._distance_interval(box).hi <= self._ball.radius

    def contains_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._ball._distance_batch(lo, hi)[0] > self._ball.radius

    def disjoint_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._ball._distance_batch(lo, hi)[1] <= self._ball.radius

    def contains_point(self, point: np.ndarray) -> bool:
        ball = self._ball
        dx = float(point[ball.dims[0]]) - ball.center[0]
        dy = float(point[ball.dims[1]]) - ball.center[1]
        # sound: ok [S002] concrete-point query (simulation/falsification);
        # the verified set checks go through _distance_interval
        return math.hypot(dx, dy) > ball.radius

    def __repr__(self) -> str:
        return f"Outside{self._ball!r}"


class HalfSpaceSet:
    """Half-space ``normal . x <= offset``."""

    def __init__(self, normal: Sequence[float], offset: float) -> None:
        self.normal = np.asarray(normal, dtype=float)
        self.offset = float(offset)

    def _dot_interval(self, box: Box) -> Interval:
        acc = Interval.point(0.0)
        for i, coef in enumerate(self.normal):
            if coef != 0.0:
                acc = acc + box[i] * float(coef)
        return acc

    def _dot_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        shape = lo.shape[:-1]
        acc_lo = np.zeros(shape)
        acc_hi = np.zeros(shape)
        for i, coef in enumerate(self.normal):
            if coef != 0.0:
                # sound: ok [S001] IntervalBatch.__mul__ applies directed
                # rounding internally; the `*` here is the interval
                # operator, not raw float arithmetic
                term = IntervalBatch(lo[..., i], hi[..., i]) * float(coef)
                acc_lo, acc_hi = badd(acc_lo, acc_hi, term.lo, term.hi)
        return acc_lo, acc_hi

    def contains_box(self, box: Box) -> bool:
        return self._dot_interval(box).hi <= self.offset

    def disjoint_box(self, box: Box) -> bool:
        return self._dot_interval(box).lo > self.offset

    def contains_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._dot_batch(lo, hi)[1] <= self.offset

    def disjoint_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._dot_batch(lo, hi)[0] > self.offset

    def contains_point(self, point: np.ndarray) -> bool:
        return float(self.normal @ np.asarray(point, dtype=float)) <= self.offset

    def __repr__(self) -> str:
        return f"HalfSpaceSet({self.normal.tolist()} . x <= {self.offset})"


class BoxSet:
    """An axis-aligned box as a set specification."""

    def __init__(self, box: Box) -> None:
        self.box = box

    def contains_box(self, other: Box) -> bool:
        return self.box.contains_box(other)

    def disjoint_box(self, other: Box) -> bool:
        return not self.box.overlaps(other)

    def contains_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return np.all((self.box.lo <= lo) & (hi <= self.box.hi), axis=-1)

    def disjoint_box_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return ~np.all((self.box.lo <= hi) & (lo <= self.box.hi), axis=-1)

    def contains_point(self, point: np.ndarray) -> bool:
        return self.box.contains_point(point)

    def __repr__(self) -> str:
        return f"BoxSet({self.box!r})"


class SublevelSet:
    """Set ``{x : g(x) <= 0}`` for an interval-evaluable function ``g``.

    ``g_interval`` maps a Box to an Interval enclosing the range of
    ``g``; ``g_point`` is the concrete evaluation. This is the generic
    escape hatch for non-polyhedral, non-cylindrical sets.
    """

    def __init__(
        self,
        g_interval: Callable[[Box], Interval],
        g_point: Callable[[np.ndarray], float],
        name: str = "sublevel",
    ) -> None:
        self.g_interval = g_interval
        self.g_point = g_point
        self.name = name

    def contains_box(self, box: Box) -> bool:
        return self.g_interval(box).hi <= 0.0

    def disjoint_box(self, box: Box) -> bool:
        return self.g_interval(box).lo > 0.0

    def contains_point(self, point: np.ndarray) -> bool:
        return self.g_point(np.asarray(point, dtype=float)) <= 0.0

    def __repr__(self) -> str:
        return f"SublevelSet({self.name})"
