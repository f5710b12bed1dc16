"""Sound vectorized interval linear algebra.

Dense affine maps over interval vectors are the hot path of the
neural-network abstract transformers, so this module provides numpy
implementations in midpoint-radius form with a rigorous floating-point
error bound (Higham's :math:`\\gamma_n` accumulation bound) instead of
per-element scalar interval code.
"""

from __future__ import annotations

import numpy as np

_UNIT = np.finfo(float).eps / 2.0  # unit roundoff u = 2^-53
_TINY = np.finfo(float).tiny


def _gamma(n: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u), with slack factor 2."""
    nu = n * _UNIT
    if nu >= 0.5:
        raise ValueError("dimension too large for the rounding-error model")
    return 2.0 * nu / (1.0 - nu)


def interval_matvec(
    weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    bias: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sound bounds for ``W @ x + b`` with ``x`` in ``[lo, hi]``.

    Uses the midpoint-radius evaluation ``W c +/- |W| r`` plus an
    accumulated rounding-error bound proportional to ``|W| |x|``.

    Returns ``(out_lo, out_hi)``.
    """
    weights = np.asarray(weights, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # sound: ok [S001] midpoint-radius evaluation: every nearest-mode op
    # here is accounted for by the gamma_n error term added below
    center = 0.5 * (lo + hi)
    # sound: ok [S001] covered by the gamma_n error model below
    radius = 0.5 * (hi - lo)
    abs_w = np.abs(weights)

    out_center = weights @ center
    out_radius = abs_w @ radius

    # Rounding-error bound for the two matvecs and the final add.
    n_terms = weights.shape[1] + 2
    # sound: ok [S001] |W||x| majorizer feeding the gamma_n bound; gamma has
    # a 2x slack factor precisely to absorb its own rounding
    magnitude = abs_w @ np.maximum(np.abs(lo), np.abs(hi))
    # sound: ok [S001] error majorizer: the 2x slack factor of gamma_n
    # absorbs the rounding of this product and sum
    err = _gamma(n_terms) * magnitude + _TINY

    out_lo = out_center - out_radius - err
    out_hi = out_center + out_radius + err
    if bias is not None:
        bias = np.asarray(bias, dtype=float)
        out_lo = np.nextafter(out_lo + bias, -np.inf)
        out_hi = np.nextafter(out_hi + bias, np.inf)
    return np.nextafter(out_lo, -np.inf), np.nextafter(out_hi, np.inf)


def dot_error_bound(a_abs: np.ndarray, b_abs: np.ndarray) -> np.ndarray:
    """Rounding-error bound for dot products ``a @ b`` (elementwise abs given).

    Exposed for the symbolic-propagation layer, which evaluates linear
    expressions with float coefficients and needs a sound slack term.
    """
    n_terms = a_abs.shape[-1] + 1
    if a_abs.ndim == 2 and b_abs.ndim == 1:
        prod = a_abs @ b_abs
    else:
        # Stacked operands: slice-by-slice GEMV, bitwise identical to
        # the per-row 2-D products.
        prod = np.matmul(a_abs, b_abs[..., None])[..., 0]
    # sound: ok [S001] error majorizer: the 2x slack factor of gamma_n
    # absorbs the rounding of this product and sum
    return _gamma(n_terms) * prod + _TINY


def affine_bounds(
    coeffs: np.ndarray, const: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sound range of rows of linear forms ``coeffs @ x + const`` over a box.

    ``coeffs`` has shape ``(k, n)``, ``const`` shape ``(k,)``; the box is
    ``[lo, hi]`` in ``R^n``. Returns per-row lower and upper bounds.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    pos = np.maximum(coeffs, 0.0)
    neg = np.minimum(coeffs, 0.0)
    # sound: ok [S001] nearest-mode evaluation deliberately; the
    # dot_error_bound slack below (Higham gamma_n) encloses its error
    raw_lo = pos @ lo + neg @ hi + const
    # sound: ok [S001] covered by the dot_error_bound slack below
    raw_hi = pos @ hi + neg @ lo + const
    err = dot_error_bound(np.abs(coeffs), np.maximum(np.abs(lo), np.abs(hi)))
    err = err + np.abs(const) * np.finfo(float).eps
    return np.nextafter(raw_lo - err, -np.inf), np.nextafter(raw_hi + err, np.inf)
