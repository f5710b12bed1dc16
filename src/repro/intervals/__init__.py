"""Interval-arithmetic substrate: sound scalar intervals, boxes,
vectorized interval linear algebra and affine arithmetic."""

from .affine import AffineForm, atan2_affine, fresh_symbol
from .batched import BoxBatch, IntervalBatch
from .box import Box, hull_of_boxes
from .functions import (
    iatan,
    iatan2,
    icos,
    iexp,
    ihypot,
    ilog,
    ipow,
    isin,
    isqrt,
    itan,
)
from .interval import (
    HALF_PI,
    ONE,
    PI,
    TWO_PI,
    ZERO,
    EmptyIntersectionError,
    Interval,
)
from .linalg import affine_bounds, interval_matvec

__all__ = [
    "AffineForm",
    "Box",
    "BoxBatch",
    "EmptyIntersectionError",
    "IntervalBatch",
    "HALF_PI",
    "Interval",
    "ONE",
    "PI",
    "TWO_PI",
    "ZERO",
    "affine_bounds",
    "atan2_affine",
    "fresh_symbol",
    "hull_of_boxes",
    "iatan",
    "iatan2",
    "icos",
    "iexp",
    "ihypot",
    "ilog",
    "interval_matvec",
    "ipow",
    "isin",
    "isqrt",
    "itan",
]
