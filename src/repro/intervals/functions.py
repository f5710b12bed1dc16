"""Sound interval extensions of elementary functions.

Each function returns an interval guaranteed to contain the exact range
of the real function over the input interval. Library results are
inflated by a few ulps (see :mod:`repro.intervals.rounding`) because
``libm`` implementations are only faithfully rounded.
"""

from __future__ import annotations

import math

from .interval import Interval
from .rounding import down, lib_down, lib_up

_TWO_PI_LO = down(2.0 * math.pi)

# Slop (in radians) used when deciding whether an extremum of sin/cos
# falls inside the input interval. Erring toward "inside" only widens
# the result, so any positive slop preserves soundness.
_PHASE_SLOP = 1e-9


def _contains_phase(lo: float, hi: float, phase: float) -> bool:
    """True if some ``phase + 2*k*pi`` may lie in ``[lo, hi]``.

    Conservative: may return True for near misses (which is sound).
    """
    two_pi = 2.0 * math.pi
    # sound: ok [S001] one-sided predicate: _PHASE_SLOP absorbs all rounding
    # error, and a spurious True only widens the result
    k = math.floor((lo - phase) / two_pi - _PHASE_SLOP)
    # Candidate extremum locations straddling the interval start.
    for kk in (k, k + 1, k + 2):
        x = phase + kk * two_pi
        # sound: ok [S001] slop-protected comparison, errs toward True
        if lo - _PHASE_SLOP <= x <= hi + _PHASE_SLOP:
            return True
        # sound: ok [S001] early exit; missing it only costs iterations
        if x > hi + _PHASE_SLOP:
            break
    return False


def isin(x: Interval) -> Interval:
    """Interval sine."""
    if not x.is_finite() or x.width >= _TWO_PI_LO:
        return Interval(-1.0, 1.0)
    lo = min(lib_down(math.sin(x.lo)), lib_down(math.sin(x.hi)))
    hi = max(lib_up(math.sin(x.lo)), lib_up(math.sin(x.hi)))
    if _contains_phase(x.lo, x.hi, math.pi / 2.0):
        hi = 1.0
    if _contains_phase(x.lo, x.hi, -math.pi / 2.0):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def icos(x: Interval) -> Interval:
    """Interval cosine."""
    if not x.is_finite() or x.width >= _TWO_PI_LO:
        return Interval(-1.0, 1.0)
    lo = min(lib_down(math.cos(x.lo)), lib_down(math.cos(x.hi)))
    hi = max(lib_up(math.cos(x.lo)), lib_up(math.cos(x.hi)))
    if _contains_phase(x.lo, x.hi, 0.0):
        hi = 1.0
    if _contains_phase(x.lo, x.hi, math.pi):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def itan(x: Interval) -> Interval:
    """Interval tangent. Requires the interval to avoid poles."""
    if _contains_phase(x.lo, x.hi, math.pi / 2.0) or _contains_phase(
        x.lo, x.hi, -math.pi / 2.0
    ):
        raise ValueError(f"tan undefined on {x}: interval contains a pole")
    return Interval(lib_down(math.tan(x.lo)), lib_up(math.tan(x.hi)))


def isqrt(x: Interval, clamp_tolerance: float = 0.0) -> Interval:
    """Interval square root.

    ``clamp_tolerance`` permits a slightly negative lower endpoint
    (clamped to zero) for quantities that are non-negative by
    construction but whose enclosure dipped below zero through outward
    rounding.
    """
    lo = x.lo
    if lo < 0.0:
        if lo < -clamp_tolerance:
            raise ValueError(f"sqrt undefined on {x}")
        lo = 0.0
    if x.hi < 0.0:
        raise ValueError(f"sqrt undefined on {x}")
    return Interval(max(0.0, lib_down(math.sqrt(lo))), lib_up(math.sqrt(x.hi)))


def iexp(x: Interval) -> Interval:
    """Interval exponential."""
    return Interval(max(0.0, lib_down(math.exp(x.lo))), lib_up(math.exp(x.hi)))


def ilog(x: Interval) -> Interval:
    """Interval natural logarithm (requires ``x > 0``)."""
    if x.lo <= 0.0:
        raise ValueError(f"log undefined on {x}")
    return Interval(lib_down(math.log(x.lo)), lib_up(math.log(x.hi)))


def iatan(x: Interval) -> Interval:
    """Interval arctangent (monotone)."""
    return Interval(lib_down(math.atan(x.lo)), lib_up(math.atan(x.hi)))


def iatan2(y: Interval, x: Interval) -> Interval:
    """Interval two-argument arctangent.

    The angle of a point moving along a straight segment that does not
    pass through the origin is monotone (the winding-number integrand
    ``x*dy - y*dx`` is constant along a line), so over a rectangle that
    avoids both the origin and the branch cut (the non-positive x-axis)
    the extrema of ``atan2`` are attained at corners. If the rectangle
    touches the cut or the origin we fall back to the full circle.
    """
    touches_cut = x.lo <= 0.0 and y.lo <= 0.0 <= y.hi
    if touches_cut:
        return Interval(lib_down(-math.pi), lib_up(math.pi))
    # sound: ok [S002] the corner values are widened by LIBM_ULPS via
    # lib_down/lib_up on the return line, covering libm's rounding error
    corners = [
        math.atan2(y.lo, x.lo),
        math.atan2(y.lo, x.hi),
        math.atan2(y.hi, x.lo),
        math.atan2(y.hi, x.hi),
    ]
    return Interval(lib_down(min(corners)), lib_up(max(corners)))


def ihypot(x: Interval, y: Interval) -> Interval:
    """Interval ``sqrt(x**2 + y**2)`` (Euclidean norm of a 2-vector)."""
    return isqrt(x.sq() + y.sq(), clamp_tolerance=math.inf)


def ipow(x: Interval, n: int) -> Interval:
    """Interval integer power (delegates to :meth:`Interval.__pow__`)."""
    return x**n
