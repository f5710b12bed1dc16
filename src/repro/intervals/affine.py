"""Affine arithmetic (zonotopic enclosures).

An :class:`AffineForm` represents ``c + sum_i a_i * eps_i (+/- err)``
with independent noise symbols ``eps_i in [-1, 1]``. Unlike plain
intervals, affine forms track first-order correlations between
quantities, which makes them a tighter abstract domain for the
controller pre-processing (the paper cites affine arithmetic [15] as an
alternative to interval arithmetic for ``Pre#``/``Post#``).

Soundness: every operation computes its new coefficients with scalar
interval arithmetic; midpoint drift and higher-order residues are folded
into the non-negative scalar error radius ``err`` (equivalent to one
anonymous fresh noise symbol). Nonlinear unary functions use the
mean-value linearization ``f(x) in f(c) + f'(range) * (x - c)``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from .functions import icos, isin, isqrt
from .interval import Interval
from .rounding import up

_fresh_symbol = itertools.count(1)


def fresh_symbol() -> int:
    """Allocate a globally fresh noise-symbol index."""
    return next(_fresh_symbol)


class AffineForm:
    """Affine form ``center + sum(terms[i] * eps_i) +/- err``."""

    __slots__ = ("center", "terms", "err")

    def __init__(
        self, center: float, terms: Mapping[int, float] | None = None, err: float = 0.0
    ) -> None:
        if err < 0.0:
            raise ValueError("error radius must be non-negative")
        self.center = float(center)
        self.terms = dict(terms) if terms else {}
        self.err = float(err)

    # ------------------------------------------------------------------
    # Constructors / conversions
    # ------------------------------------------------------------------
    @staticmethod
    def from_interval(iv: Interval, symbol: int | None = None) -> "AffineForm":
        """Affine form spanning ``iv`` with one (fresh) noise symbol."""
        if symbol is None:
            symbol = fresh_symbol()
        center = iv.mid
        # Radius computed soundly around the chosen center.
        rad = max((iv - center).mag, 0.0)
        if rad == 0.0:
            return AffineForm(center)
        return AffineForm(center, {symbol: rad})

    @staticmethod
    def constant(x: float) -> "AffineForm":
        return AffineForm(float(x))

    def to_interval(self) -> Interval:
        """Sound interval concretization."""
        total = Interval.point(self.center)
        spread = Interval.point(self.err)
        for coef in self.terms.values():
            spread = spread + abs(coef)
        # sound: ok [S001] operands are Intervals; Interval.__add__ rounds outward
        return total + Interval(-spread.hi, spread.hi)

    @property
    def radius_bound(self) -> float:
        """Upper bound on the total deviation radius."""
        iv = self.to_interval()
        return (iv - self.center).mag

    # ------------------------------------------------------------------
    # Internal helper: fold interval slack into (float, err-increment)
    # ------------------------------------------------------------------
    @staticmethod
    def _squash(iv: Interval) -> tuple[float, float]:
        mid = iv.mid
        return mid, max((iv - mid).mag, 0.0)

    # ------------------------------------------------------------------
    # Linear operations
    # ------------------------------------------------------------------
    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.center, {k: -v for k, v in self.terms.items()}, self.err)

    def __add__(self, other: "AffineForm | float | int") -> "AffineForm":
        if not isinstance(other, AffineForm):
            center, slack = self._squash(Interval.point(self.center) + float(other))
            # Error radii accumulate with upward rounding: a nearest-mode
            # sum could round *below* the true total and shrink the bound.
            return AffineForm(center, self.terms, up(self.err + slack))
        new_terms: dict[int, float] = {}
        err = 0.0
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            coef_iv = Interval.point(self.terms.get(k, 0.0)) + other.terms.get(k, 0.0)
            coef, slack = self._squash(coef_iv)
            if coef != 0.0:
                new_terms[k] = coef
            err = up(err + slack)
        center, slack = self._squash(Interval.point(self.center) + other.center)
        err_iv = Interval.point(self.err) + other.err + err + slack
        return AffineForm(center, new_terms, err_iv.hi)

    __radd__ = __add__

    def __sub__(self, other: "AffineForm | float | int") -> "AffineForm":
        if isinstance(other, AffineForm):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other: float | int) -> "AffineForm":
        return (-self) + float(other)

    def __mul__(self, other: "AffineForm | float | int") -> "AffineForm":
        if not isinstance(other, AffineForm):
            factor = float(other)
            new_terms: dict[int, float] = {}
            err = 0.0
            for k, v in self.terms.items():
                coef, slack = self._squash(Interval.point(v) * factor)
                if coef != 0.0:
                    new_terms[k] = coef
                err = up(err + slack)
            center, slack = self._squash(Interval.point(self.center) * factor)
            err_iv = Interval.point(self.err) * abs(factor) + err + slack
            return AffineForm(center, new_terms, err_iv.hi)
        # Affine x affine: keep first-order terms, bound the quadratic
        # residue by the product of deviation radii.
        sx = self * other.center
        sy_terms = AffineForm(0.0, other.terms, other.err) * self.center
        linear = sx + sy_terms
        quad = Interval.point(self.radius_bound) * other.radius_bound
        return AffineForm(linear.center, linear.terms, up(linear.err + quad.hi))

    __rmul__ = __mul__

    def sq(self) -> "AffineForm":
        """Square (via the generic product; kept for API symmetry)."""
        return self * self

    # ------------------------------------------------------------------
    # Nonlinear unary operations (mean-value linearization)
    # ------------------------------------------------------------------
    def _mean_value(
        self,
        point_eval: Callable[[Interval], Interval],
        deriv_range: Callable[[Interval], Interval],
    ) -> "AffineForm":
        """Sound ``f(self)`` via ``f(c) + f'(R)*(x - c)`` over range R."""
        rng = self.to_interval()
        center_iv = point_eval(Interval.point(self.center))
        slope_iv = deriv_range(rng)
        alpha = slope_iv.mid
        residual_slope = (slope_iv - alpha).mag
        dev = self.radius_bound

        new_terms: dict[int, float] = {}
        err = 0.0
        for k, v in self.terms.items():
            coef, slack = self._squash(Interval.point(v) * alpha)
            if coef != 0.0:
                new_terms[k] = coef
            err = up(err + slack)
        center, slack = self._squash(center_iv)
        err_total = (
            Interval.point(err) + slack
            + Interval.point(self.err) * abs(alpha)
            + Interval.point(residual_slope) * dev
        )
        return AffineForm(center, new_terms, err_total.hi)

    def sin(self) -> "AffineForm":
        return self._mean_value(isin, icos)

    def cos(self) -> "AffineForm":
        return self._mean_value(icos, lambda r: -isin(r))

    def sqrt(self) -> "AffineForm":
        rng = self.to_interval()
        if rng.lo <= 0.0:
            # Derivative unbounded near zero: fall back to the interval.
            return AffineForm.from_interval(isqrt(rng, clamp_tolerance=1e-9))
        return self._mean_value(
            isqrt, lambda r: 0.5 / isqrt(r)
        )

    def __repr__(self) -> str:
        terms = " + ".join(f"{v:.4g}*e{k}" for k, v in sorted(self.terms.items()))
        return f"AffineForm({self.center:.6g}{' + ' + terms if terms else ''} ± {self.err:.3g})"


def atan2_affine(y: AffineForm, x: AffineForm) -> AffineForm:
    """Sound affine enclosure of ``atan2(y, x)``.

    Uses the mean-value form around the centers with interval partial
    derivatives ``(-y/r^2, x/r^2)`` over the joint range; falls back to
    the interval result when the range touches the branch cut.
    """
    from .functions import iatan2

    rx, ry = x.to_interval(), y.to_interval()
    full = iatan2(ry, rx)
    if rx.lo <= 0.0 and ry.lo <= 0.0 <= ry.hi:
        return AffineForm.from_interval(full)
    r_sq = rx.sq() + ry.sq()
    if r_sq.lo <= 0.0:
        return AffineForm.from_interval(full)
    dx = -ry / r_sq  # d atan2 / dx
    dy = rx / r_sq  # d atan2 / dy
    center_iv = iatan2(
        Interval.point(y.center), Interval.point(x.center)
    )
    ax, ay = dx.mid, dy.mid
    lin = x * ax + y * ay
    # f(c) + grad * (p - c): subtract the linearization at the center.
    offset_iv = center_iv - (
        Interval.point(x.center) * ax + Interval.point(y.center) * ay
    )
    residual = up(
        up((dx - ax).mag * x.radius_bound) + up((dy - ay).mag * y.radius_bound)
    )
    shifted = lin + offset_iv.mid
    out = AffineForm(
        shifted.center,
        shifted.terms,
        up(up(shifted.err + (offset_iv - offset_iv.mid).mag) + residual) + 1e-300,
    )
    # Intersecting with the plain interval result never hurts.
    if out.to_interval().width > full.width:
        return AffineForm.from_interval(full)
    return out
