"""Interval Taylor-series expansion of an ODE flow.

Second half of the 2-step Löhner scheme: with an a-priori enclosure
``B`` of the flow over ``[t0, t0+h]`` in hand, the solution satisfies

    s(t0 + dt) ∈  Σ_{i<=k} s_i [s0] dt^i  +  s_{k+1}(B) dt^{k+1}

where ``s_i`` are the Taylor coefficients of the solution (computed by
jet arithmetic from the right-hand side) and the Lagrange remainder uses
the ``(k+1)``-th coefficient evaluated over the enclosure ``B``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..intervals import Box, Interval
from .ivp import ODESystem
from .jet import Jet


def ode_taylor_coefficients(
    system: ODESystem,
    t0: float,
    state: Sequence[Interval],
    u: np.ndarray,
    order: int,
) -> list[list[Interval]]:
    """Taylor coefficients ``s_0 .. s_order`` of the solution.

    Returns ``coeffs[i][k]`` = k-th Taylor coefficient of state
    component ``i``, as intervals enclosing the coefficient for every
    initial point in ``state``.

    Uses the standard recurrence ``s_{k+1} = f(t, s)_k / (k + 1)``,
    evaluating the right-hand side on jets of increasing truncation
    order.
    """
    dim = system.dim
    coeffs = [[Interval.coerce(state[i])] for i in range(dim)]
    for k in range(order):
        jets = [Jet(coeffs[i]) for i in range(dim)]
        t_jet = Jet.variable(t0, k)
        derivative = system.rhs(t_jet, jets, u)
        for i in range(dim):
            d = derivative[i]
            if isinstance(d, Jet):
                f_k = d.coeff(k)
            elif k == 0:
                f_k = Interval.coerce(d)
            else:
                f_k = Interval(0.0, 0.0)
            coeffs[i].append(f_k / float(k + 1))
    return coeffs


def taylor_step_bounds(
    system: ODESystem,
    t0: float,
    h: float,
    s0: Box,
    enclosure: Box,
    u: np.ndarray,
    order: int,
) -> tuple[Box, Box]:
    """Tight endpoint and over-the-step enclosures for one step.

    Returns ``(range_box, end_box)``: the flow enclosure over
    ``[t0, t0+h]`` and the (tighter) enclosure at ``t0 + h``.
    """
    # Polynomial part: coefficients from the initial box.
    poly = ode_taylor_coefficients(system, t0, s0.intervals(), u, order)
    # Lagrange remainder: (order+1)-th coefficient over the enclosure.
    remainder = ode_taylor_coefficients(
        system, t0, enclosure.intervals(), u, order + 1
    )

    h_point = Interval.point(h)
    h_range = Interval(0.0, h)

    end_components: list[Interval] = []
    range_components: list[Interval] = []
    for i in range(system.dim):
        series = poly[i]
        rem = remainder[i][order + 1]
        end_components.append(
            _horner(series, h_point) + rem * h_point ** (order + 1)
        )
        range_components.append(
            _horner(series, h_range) + rem * h_range ** (order + 1)
        )

    end_box = Box.from_intervals(end_components)
    range_box = Box.from_intervals(range_components)
    # Both the Taylor range and the Picard enclosure are sound; keep the
    # intersection (never empty because both contain the true flow).
    range_box = _safe_intersect(range_box, enclosure)
    end_box = _safe_intersect(end_box, range_box)
    return range_box, end_box


def _horner(coeffs: list[Interval], t: Interval) -> Interval:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def _safe_intersect(a: Box, b: Box) -> Box:
    """Intersection that falls back to ``a`` on (impossible) emptiness.

    Outward rounding can make two sound enclosures *appear* disjoint in
    a dimension by a few ulps; in that case either operand alone is a
    sound answer, so we keep ``a``.
    """
    try:
        return a.intersect(b)
    except Exception:
        return a
