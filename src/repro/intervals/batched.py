"""Batched structure-of-arrays interval kernels.

This module is the *sanctioned wrapper layer* for vectorized interval
arithmetic: every kernel takes and returns paired ``(lo, hi)`` float
arrays of identical shape and applies the same directed (outward)
rounding as the scalar :class:`~repro.intervals.interval.Interval`
operations — one ``np.nextafter`` nudge per basic operation, a
``LIBM_ULPS``-ulp inflation for library functions. The kernels are
written to be *bitwise identical* to the scalar path element by
element, so a batched computation is not merely an enclosure of the
scalar one: it is the same computation, amortizing Python/numpy
dispatch over many intervals at once.

``badd``, ``bsub`` and ``bmul`` silence overflow and invalid-value
warnings (``1e308 + 1e308``, ``0 * inf``) with their own
``np.errstate``; their ``*_bare`` forms leave that to the caller, so a
loop over many kernel calls enters ``np.errstate(over="ignore",
invalid="ignore")`` once. The warning state never changes a result.

Raw ufunc arithmetic on ``lo``/``hi`` arrays anywhere else in the sound
path is a soundness-lint violation (rule S006): vectorized bound math
must go through these kernels (or the scalar ``Interval`` ops), exactly
like scalar bound math must go through ``rounding.down``/``up``.

Two thin containers ride on top of the raw kernels:

* :class:`IntervalBatch` — an operator-complete batch of intervals
  (shape-``(B,)`` or any shape), duck-type compatible with
  :class:`Interval` so generic interval expressions evaluate over
  whole batches unchanged;
* :class:`BoxBatch` — ``(B, n)`` endpoint matrices for ``B`` boxes,
  the unit of work for batched flow, propagation and join kernels.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from .box import Box
from .interval import Interval
from .rounding import LIBM_ULPS, array_down, array_up, lib_down, lib_up

__all__ = [
    "BoxBatch",
    "IntervalBatch",
    "babs",
    "badd",
    "badd_bare",
    "bdiv",
    "bhull",
    "bintersect",
    "batan2",
    "bcos",
    "bhypot",
    "bsincos",
    "bmul",
    "bmul_bare",
    "bneg",
    "bpow",
    "bsin",
    "bsqrt",
    "bsub",
    "bsub_bare",
    "hull_reduce",
]

ArrayLike = Union[np.ndarray, float, int]


_TWO_PI = 2.0 * math.pi
# Same one-ulp-down constant the scalar isin/icos use.
_TWO_PI_LO = math.nextafter(_TWO_PI, -math.inf)
#: Phase slop of the scalar sin/cos extremum test (see functions.py).
_PHASE_SLOP = 1e-9


def _lib_down(x: np.ndarray) -> np.ndarray:
    """Vectorized ``rounding.lib_down`` (LIBM_ULPS nudges toward -inf)."""
    for _ in range(LIBM_ULPS):
        x = array_down(x)
    return x


def _lib_up(x: np.ndarray) -> np.ndarray:
    """Vectorized ``rounding.lib_up`` (LIBM_ULPS nudges toward +inf)."""
    for _ in range(LIBM_ULPS):
        x = array_up(x)
    return x


# ----------------------------------------------------------------------
# Raw kernels: (lo, hi) arrays in, (lo, hi) arrays out
# ----------------------------------------------------------------------
def badd_bare(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`badd` without its ``np.errstate``: call it inside
    ``np.errstate(over="ignore", invalid="ignore")``."""
    # Nearest-mode sums wrapped in the one-ulp outward nudge below,
    # exactly like the scalar __add__.
    return array_down(alo + blo), array_up(ahi + bhi)


def badd(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``a + b`` with outward rounding (= ``Interval.__add__``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return badd_bare(alo, ahi, blo, bhi)


def bsub_bare(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bsub` without its ``np.errstate`` (see :func:`badd_bare`)."""
    # Nearest-mode differences wrapped in the outward nudge below.
    return array_down(alo - bhi), array_up(ahi - blo)


def bsub(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``a - b`` with outward rounding (= ``Interval.__sub__``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bsub_bare(alo, ahi, blo, bhi)


def bneg(alo: np.ndarray, ahi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched negation (exact)."""
    return -ahi, -alo


def _clean(p: np.ndarray) -> np.ndarray:
    """Map NaN products (``0 * inf``) to 0, the interval-product value."""
    return np.where(np.isnan(p), 0.0, p)


def _outward_min_max(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The min and max of four endpoint results, nudged one ulp out, a
    NaN (``0 * inf``, ``inf / inf``) counting as 0 like the scalar ops.

    ``np.minimum``/``np.maximum`` propagate NaN, so an element has a NaN
    result exactly when its min shows one: the results are cleaned and
    reduced again only then, and the outcome is bitwise the
    always-cleaned reduction."""
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    if np.isnan(lo).any():
        p1, p2, p3, p4 = _clean(p1), _clean(p2), _clean(p3), _clean(p4)
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return array_down(lo), array_up(hi)


def bmul_bare(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bmul` without its ``np.errstate`` (see :func:`badd_bare`)."""
    # sound: ok [S001] four nearest-mode endpoint products, each within
    # half an ulp; the one-ulp outward nudge of their min/max in
    # _outward_min_max covers them, as in the scalar __mul__
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return _outward_min_max(p1, p2, p3, p4)


def bmul(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``a * b`` with outward rounding (= ``Interval.__mul__``).

    Evaluates the four endpoint products exactly like the scalar path,
    maps ``0 * inf`` NaNs to zero, and nudges the min/max one ulp out.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return bmul_bare(alo, ahi, blo, bhi)


def bdiv(
    alo: np.ndarray, ahi: np.ndarray, blo: ArrayLike, bhi: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``a / b`` (= ``Interval.__truediv__``).

    Raises :class:`ZeroDivisionError` if any divisor row contains zero,
    matching the scalar semantics.
    """
    blo_arr = np.asarray(blo, dtype=float)
    bhi_arr = np.asarray(bhi, dtype=float)
    if np.any((blo_arr <= 0.0) & (0.0 <= bhi_arr)):
        raise ZeroDivisionError("division by an interval batch containing zero")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # sound: ok [S001] four nearest-mode quotients (zero divisors
        # excluded above); the one-ulp outward nudge of their min/max in
        # _outward_min_max covers them, as in the scalar __truediv__
        q1, q2, q3, q4 = alo / blo_arr, alo / bhi_arr, ahi / blo_arr, ahi / bhi_arr
        return _outward_min_max(q1, q2, q3, q4)


def _bmig(alo: np.ndarray, ahi: np.ndarray) -> np.ndarray:
    """Batched mignitude (min ``|x|`` over each interval)."""
    return np.where(alo > 0.0, alo, np.where(ahi < 0.0, -ahi, 0.0))


def _bmag(alo: np.ndarray, ahi: np.ndarray) -> np.ndarray:
    """Batched magnitude (max ``|x|`` over each interval)."""
    return np.maximum(np.abs(alo), np.abs(ahi))


def babs(alo: np.ndarray, ahi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched absolute value (exact, = ``Interval.abs``)."""
    return _bmig(alo, ahi), _bmag(alo, ahi)


def bpow(
    alo: np.ndarray, ahi: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched integer power (= ``Interval.__pow__``)."""
    if not isinstance(n, int):
        raise TypeError("interval power requires an integer exponent")
    if n < 0:
        lo, hi = bpow(alo, ahi, -n)
        ones = np.ones_like(lo)
        return bdiv(ones, ones, lo, hi)
    if n == 0:
        return np.ones_like(alo), np.ones_like(ahi)
    if n == 1:
        return alo.copy(), ahi.copy()
    if n == 2:
        mig = _bmig(alo, ahi)
        mag = _bmag(alo, ahi)
        # Square of the mignitude/magnitude, outward nudged below;
        # exact zero mignitude keeps the exact zero bound.
        # The scalar n == 2 branch also squares via multiplication, so
        # this stays bitwise equal to it.
        with np.errstate(over="ignore"):
            lo = np.where(mig == 0.0, 0.0, array_down(mig * mig))
            return lo, array_up(mag * mag)
    # Higher powers are off the hot path, and numpy's integer-power
    # kernel (repeated multiplication) differs from libm pow by an ulp:
    # delegate to the scalar op per element to stay bitwise identical.
    flat = [
        Interval(float(a), float(b)) ** n
        for a, b in zip(np.ravel(alo), np.ravel(ahi))
    ]
    shape = np.shape(alo)
    return (
        np.array([iv.lo for iv in flat]).reshape(shape),
        np.array([iv.hi for iv in flat]).reshape(shape),
    )


def bhull(
    alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched join (exact min/max of endpoints)."""
    return np.minimum(alo, blo), np.maximum(ahi, bhi)


def bintersect(
    alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched meet. Raises ``ValueError`` if any row is disjoint."""
    lo = np.maximum(alo, blo)
    hi = np.minimum(ahi, bhi)
    if np.any(lo > hi):
        raise ValueError("empty intersection in interval batch")
    return lo, hi


def hull_reduce(
    lo: np.ndarray, hi: np.ndarray, axis: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Hull of a whole batch along ``axis`` (exact min/max reduction)."""
    return np.min(lo, axis=axis), np.max(hi, axis=axis)


def bsqrt(
    alo: np.ndarray, ahi: np.ndarray, clamp_tolerance: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Batched square root (= ``functions.isqrt``).

    ``clamp_tolerance`` permits slightly negative lower endpoints
    (clamped to zero), as in the scalar function.
    """
    if np.any(alo < -clamp_tolerance) or np.any(ahi < 0.0):
        raise ValueError("sqrt undefined for interval batch")
    lo = np.where(alo < 0.0, 0.0, alo)
    # sound: ok [S002] faithfully-rounded sqrt inflated by LIBM_ULPS via
    # the _lib_down/_lib_up wrappers, matching the scalar isqrt
    return (
        np.maximum(0.0, _lib_down(np.sqrt(lo))),
        _lib_up(np.sqrt(ahi)),
    )


def bhypot(
    xlo: np.ndarray,
    xhi: np.ndarray,
    ylo: np.ndarray,
    yhi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``sqrt(x**2 + y**2)`` (= ``functions.ihypot``)."""
    sxlo, sxhi = bpow(xlo, xhi, 2)
    sylo, syhi = bpow(ylo, yhi, 2)
    slo, shi = badd(sxlo, sxhi, sylo, syhi)
    return bsqrt(slo, shi, clamp_tolerance=math.inf)


#: The full circle the scalar ``iatan2`` returns on the branch cut.
_CUT_LO = lib_down(-math.pi)
_CUT_HI = lib_up(math.pi)


def batan2(
    ylo: np.ndarray,
    yhi: np.ndarray,
    xlo: np.ndarray,
    xhi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched two-argument arctangent (= ``functions.iatan2``) of
    1-D endpoint arrays.

    The branch-cut test, the corner min/max and the ``LIBM_ULPS``
    inflation are vectorized, but the four corner values stay on
    ``math.atan2``: ``np.arctan2`` can differ from it in the last ulp,
    and the scalar function is the reference. (The min/max may pick
    ``-0.0`` where the scalar picks ``0.0``; the outward nudges map both
    to the same float.)"""
    touches_cut = (xlo <= 0.0) & (ylo <= 0.0) & (0.0 <= yhi)
    ys = (ylo.tolist(), yhi.tolist())
    xs = (xlo.tolist(), xhi.tolist())
    # The corner values are widened by LIBM_ULPS via _lib_down/_lib_up
    # below, covering libm's rounding error.
    corners = np.array([list(map(math.atan2, y, x)) for y in ys for x in xs])
    return (
        np.where(touches_cut, _CUT_LO, _lib_down(np.min(corners, axis=0))),
        np.where(touches_cut, _CUT_HI, _lib_up(np.max(corners, axis=0))),
    )


#: Candidate extremum offsets ``k, k + 1, k + 2`` of the phase test.
_PHASE_OFFSETS = np.array([0.0, 1.0, 2.0])


def _phase_hits(lo: np.ndarray, hi: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Vectorized ``functions._contains_phase``: may ``phase + 2k*pi``
    lie in ``[lo, hi]``? Conservative (errs toward True). ``phase``
    broadcasts against the endpoints, one phase per stacked function."""
    # sound: ok [S001] one-sided predicate with the same slop as the scalar
    # version; a spurious True only widens the enclosure
    k = np.floor((lo - phase) / _TWO_PI - _PHASE_SLOP)
    # sound: ok [S001] candidate extremum locations of the slop-protected
    # test below, exactly as in the scalar version
    x = phase + (k + _PHASE_OFFSETS.reshape((3,) + (1,) * k.ndim)) * _TWO_PI
    # sound: ok [S001] slop-protected comparison, errs toward True
    return np.logical_or.reduce((lo - _PHASE_SLOP <= x) & (x <= hi + _PHASE_SLOP))


#: Extremum phases ``(max, min)`` on the leading axis: sine peaks at
#: pi/2 and bottoms at -pi/2, cosine peaks at 0 and bottoms at pi.
_SIN_PHASES = np.array([math.pi / 2.0, -math.pi / 2.0])
_COS_PHASES = np.array([0.0, math.pi])
#: Both functions at once, (sin, cos) on the second axis.
_SINCOS_PHASES = np.stack([_SIN_PHASES, _COS_PHASES], axis=1)


def _trig_endpoints(alo: np.ndarray, ahi: np.ndarray) -> np.ndarray:
    """Both endpoints on a new leading axis, infinities mapped to 0
    (their function values are unused: the wide fallback covers them)."""
    ends = np.array((alo, ahi))
    return np.where(np.isfinite(ends), ends, 0.0)


def _trig_envelope(
    alo: np.ndarray, ahi: np.ndarray, values: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shared sin/cos postlude: extremum handling + wide-interval fallback.

    ``values[0]``/``values[1]`` are the raw function values at the lower
    and upper endpoints, optionally stacked over several functions;
    ``phases[0]``/``phases[1]`` are the maximum/minimum phases of each
    stacked function, broadcast over the argument's axes.
    """
    # sound: ok [S001] integer shape arithmetic (one broadcast axis per
    # axis of the argument), not bound values
    hits = _phase_hits(alo, ahi, phases.reshape(phases.shape + (1,) * np.ndim(alo)))
    down = _lib_down(values)
    up = _lib_up(values)
    lo = np.where(hits[1], -1.0, np.minimum(down[0], down[1]))
    hi = np.where(hits[0], 1.0, np.maximum(up[0], up[1]))
    # The one-ulp-down width test errs toward the full [-1, 1]
    # fallback, exactly like the scalar isin/icos.
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~(np.isfinite(alo) & np.isfinite(ahi)) | (
            array_up(ahi - alo) >= _TWO_PI_LO
        )
    lo = np.where(wide, -1.0, np.maximum(lo, -1.0))
    hi = np.where(wide, 1.0, np.minimum(hi, 1.0))
    return lo, hi


def bsin(alo: np.ndarray, ahi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched interval sine (= ``functions.isin`` element by element)."""
    # sound: ok [S002] endpoint sines inflated by LIBM_ULPS inside
    # _trig_envelope, matching the scalar isin
    values = np.sin(_trig_endpoints(alo, ahi))
    return _trig_envelope(alo, ahi, values, _SIN_PHASES)


def bcos(alo: np.ndarray, ahi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched interval cosine (= ``functions.icos`` element by element)."""
    # sound: ok [S002] endpoint cosines inflated by LIBM_ULPS inside
    # _trig_envelope, matching the scalar icos
    values = np.cos(_trig_endpoints(alo, ahi))
    return _trig_envelope(alo, ahi, values, _COS_PHASES)


def bsincos(
    alo: np.ndarray, ahi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous batched sine and cosine (= ``functions.isin`` and
    ``icos`` element by element): the sine and cosine endpoint values
    are stacked and share one :func:`_trig_envelope` pass."""
    ends = _trig_endpoints(alo, ahi)
    # sound: ok [S002] endpoint sin/cos inflated by LIBM_ULPS inside
    # _trig_envelope, matching the scalar isin/icos
    values = np.array((np.sin(ends), np.cos(ends))).swapaxes(0, 1)
    lo, hi = _trig_envelope(alo, ahi, values, _SINCOS_PHASES)
    return lo[0], hi[0], lo[1], hi[1]


# ----------------------------------------------------------------------
# IntervalBatch: operator-complete batch of intervals
# ----------------------------------------------------------------------
BatchLike = Union["IntervalBatch", Interval, int, float, np.ndarray]


class IntervalBatch:
    """A batch of closed intervals stored as paired endpoint arrays.

    Duck-type compatible with :class:`Interval` for the arithmetic
    operators and ``sin``, ``cos``, ``sqrt``, ``sq``, so code written
    against scalar intervals evaluates over whole batches unchanged.
    Every operation delegates to the raw kernels above and is therefore
    bitwise identical to the scalar path, row by row.
    """

    __slots__ = ("lo", "hi")

    def __init__(
        self, lo: np.ndarray, hi: np.ndarray, validate: bool = False
    ) -> None:
        self.lo = lo
        self.hi = hi
        if validate:
            # sound: ok [S003] shape metadata comparison, not bound values
            if np.shape(lo) != np.shape(hi):
                raise ValueError("endpoint arrays must share a shape")
            if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
                raise ValueError("interval endpoints must not be NaN")
            if np.any(lo > hi):
                raise ValueError("invalid interval batch: lo > hi")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_intervals(intervals: Sequence[Interval]) -> "IntervalBatch":
        return IntervalBatch(
            np.array([iv.lo for iv in intervals], dtype=float),
            np.array([iv.hi for iv in intervals], dtype=float),
        )

    @staticmethod
    def point(values: ArrayLike, shape: tuple[int, ...] | None = None) -> "IntervalBatch":
        arr = np.asarray(values, dtype=float)
        if shape is not None:
            arr = np.broadcast_to(arr, shape).copy()
        return IntervalBatch(arr, arr.copy())

    @staticmethod
    def coerce(x: BatchLike, shape: tuple[int, ...]) -> "IntervalBatch":
        if isinstance(x, IntervalBatch):
            return x
        if isinstance(x, Interval):
            return IntervalBatch(
                np.full(shape, x.lo), np.full(shape, x.hi)
            )
        return IntervalBatch.point(x, shape)

    # -- inspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(np.shape(self.lo))

    def __len__(self) -> int:
        return int(np.shape(self.lo)[0])

    def __getitem__(self, index: int) -> Interval:
        return Interval(float(self.lo[index]), float(self.hi[index]))

    def intervals(self) -> list[Interval]:
        flat_lo = np.ravel(self.lo)
        flat_hi = np.ravel(self.hi)
        return [Interval(float(a), float(b)) for a, b in zip(flat_lo, flat_hi)]

    # -- arithmetic -----------------------------------------------------
    def __neg__(self) -> "IntervalBatch":
        lo, hi = bneg(self.lo, self.hi)
        return IntervalBatch(lo, hi)

    def __pos__(self) -> "IntervalBatch":
        return self

    def _coerced(self, other: BatchLike) -> "IntervalBatch":
        return IntervalBatch.coerce(other, self.shape)

    def __add__(self, other: BatchLike) -> "IntervalBatch":
        o = self._coerced(other)
        lo, hi = badd(self.lo, self.hi, o.lo, o.hi)
        return IntervalBatch(lo, hi)

    __radd__ = __add__

    def __sub__(self, other: BatchLike) -> "IntervalBatch":
        o = self._coerced(other)
        lo, hi = bsub(self.lo, self.hi, o.lo, o.hi)
        return IntervalBatch(lo, hi)

    def __rsub__(self, other: BatchLike) -> "IntervalBatch":
        return self._coerced(other) - self

    def __mul__(self, other: BatchLike) -> "IntervalBatch":
        o = self._coerced(other)
        lo, hi = bmul(self.lo, self.hi, o.lo, o.hi)
        return IntervalBatch(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other: BatchLike) -> "IntervalBatch":
        o = self._coerced(other)
        lo, hi = bdiv(self.lo, self.hi, o.lo, o.hi)
        return IntervalBatch(lo, hi)

    def __rtruediv__(self, other: BatchLike) -> "IntervalBatch":
        return self._coerced(other) / self

    def __pow__(self, n: int) -> "IntervalBatch":
        lo, hi = bpow(self.lo, self.hi, n)
        return IntervalBatch(lo, hi)

    def sq(self) -> "IntervalBatch":
        return self**2

    def abs(self) -> "IntervalBatch":
        lo, hi = babs(self.lo, self.hi)
        return IntervalBatch(lo, hi)

    # -- elementary functions ------------------------------------------
    def sin(self) -> "IntervalBatch":
        lo, hi = bsin(self.lo, self.hi)
        return IntervalBatch(lo, hi)

    def cos(self) -> "IntervalBatch":
        lo, hi = bcos(self.lo, self.hi)
        return IntervalBatch(lo, hi)

    def sin_cos(self) -> tuple["IntervalBatch", "IntervalBatch"]:
        slo, shi, clo, chi = bsincos(self.lo, self.hi)
        return IntervalBatch(slo, shi), IntervalBatch(clo, chi)

    def sqrt(self) -> "IntervalBatch":
        lo, hi = bsqrt(self.lo, self.hi)
        return IntervalBatch(lo, hi)

    # -- lattice --------------------------------------------------------
    def hull(self, other: "IntervalBatch") -> "IntervalBatch":
        lo, hi = bhull(self.lo, self.hi, other.lo, other.hi)
        return IntervalBatch(lo, hi)

    def __repr__(self) -> str:
        return f"IntervalBatch(shape={self.shape})"


# ----------------------------------------------------------------------
# BoxBatch: (B, n) endpoint matrices
# ----------------------------------------------------------------------
class BoxBatch:
    """``B`` boxes of dimension ``n`` as two ``(B, n)`` endpoint arrays.

    The structure-of-arrays counterpart of a ``list[Box]``; batched
    kernels (flow, propagation, join) consume and produce these.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, validate: bool = False) -> None:
        self.lo = lo
        self.hi = hi
        if validate:
            if lo.shape != hi.shape or lo.ndim != 2:
                raise ValueError("box batch endpoints must be matching 2-D arrays")
            if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
                raise ValueError("box batch endpoints must not be NaN")
            if np.any(lo > hi):
                raise ValueError("invalid box batch: lo > hi")

    @staticmethod
    def from_boxes(boxes: Iterable[Box]) -> "BoxBatch":
        box_list = list(boxes)
        if not box_list:
            raise ValueError("a box batch needs at least one box")
        return BoxBatch(
            np.stack([b.lo for b in box_list]),
            np.stack([b.hi for b in box_list]),
        )

    @property
    def count(self) -> int:
        return int(self.lo.shape[0])

    @property
    def dim(self) -> int:
        return int(self.lo.shape[1])

    def __len__(self) -> int:
        return self.count

    def row(self, i: int) -> Box:
        return Box(self.lo[i], self.hi[i])

    def boxes(self) -> list[Box]:
        return [self.row(i) for i in range(self.count)]

    def hull_all(self) -> Box:
        """Single box enclosing every row (exact min/max reduction)."""
        lo, hi = hull_reduce(self.lo, self.hi, axis=0)
        return Box(lo, hi)

    def __repr__(self) -> str:
        return f"BoxBatch({self.count} boxes, dim={self.dim})"
