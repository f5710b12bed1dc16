"""ACAS Xu plant dynamics (Section 4.2, Example 2 / Eq. 1).

State ``s = (x, y, psi, v_own, v_int)``:

* ``(x, y)`` — intruder position relative to ownship, in the ownship
  body frame (y-axis along the ownship heading, angles counterclockwise);
* ``psi`` — intruder heading relative to the ownship heading;
* ``v_own, v_int`` — speeds, constant in the paper's degraded mode.

The command ``u`` is the ownship turn rate (rad/s, counterclockwise).
The intruder flies straight at constant speed; the ownship turns at the
commanded rate, so in the rotating body frame:

    x'    = -v_int * sin(psi) + u * y
    y'    =  v_int * cos(psi) - v_own - u * x
    psi'  = -u
    v_own' = v_int' = 0

(derivation: relative position b satisfies b' = -u J b + R(-h)(v_i-v_o)
with J the rotation generator; the intruder's inertial heading is
constant so the relative heading changes at -u).

Because ``u`` is piecewise constant, the flow has a closed form: the
intruder's inertial motion is a straight line and the frame rotation is
a pure rotation, giving :class:`AcasXuAnalyticFlow` — an exact validated
integrator that is both tighter and much faster than the generic Taylor
integrator (cross-checked against it in the tests).
"""

from __future__ import annotations

import math

import numpy as np

from ..intervals import Box, BoxBatch, Interval, IntervalBatch, icos, isin
from ..ode import AnalyticFlow, ODESystem
from ..ode.ops import gcos, gsin

STATE_DIM = 5
X, Y, PSI, V_OWN, V_INT = range(STATE_DIM)


def acasxu_rhs(t, s, u):
    """Eq. 1 right-hand side (generic ops: floats/intervals/jets)."""
    x, y, psi, v_own, v_int = s
    turn = float(u[0])
    sin_psi = gsin(psi)
    cos_psi = gcos(psi)
    return [
        -v_int * sin_psi + turn * y,
        v_int * cos_psi - v_own - turn * x,
        0.0 * psi - turn,
        0.0 * v_own,
        0.0 * v_int,
    ]


#: The plant ODE, for use with the generic validated Taylor integrator.
ACASXU_ODE = ODESystem(rhs=acasxu_rhs, dim=STATE_DIM, name="acasxu-kinematics")


class AcasXuAnalyticFlow(AnalyticFlow):
    """Exact validated flow of the relative kinematics.

    With constant turn rate ``u`` over the step, psi(t) = psi0 - u*t and

        z(t) = R(-u t) z0 + v_int * t * (-sin(psi_t), cos(psi_t))
               - v_own * ((1 - cos(u t))/u, sin(u t)/u)

    (the middle term collapses because the frame rotation and the
    intruder's heading rotation cancel: the intruder flies straight in
    inertial space). Evaluating this expression with interval arguments
    — including an interval ``t`` — gives a sound enclosure over a time
    range in one shot.
    """

    dim = STATE_DIM

    def flow_box(self, s0: Box, u: np.ndarray, tau) -> Box:
        t = Interval.coerce(tau)
        turn = float(u[0])
        x0, y0, psi0, v_own, v_int = (s0[i] for i in range(STATE_DIM))

        ut = t * turn
        cos_ut = icos(ut)
        sin_ut = isin(ut)
        psi_t = psi0 - ut

        # R(-u t) z0.
        x_rot = cos_ut * x0 + sin_ut * y0
        y_rot = -(sin_ut * x0) + cos_ut * y0

        # Intruder straight-line displacement, expressed at time t.
        sin_psi_t = isin(psi_t)
        cos_psi_t = icos(psi_t)
        x_int = -(v_int * t * sin_psi_t)
        y_int = v_int * t * cos_psi_t

        # Ownship displacement (rotated into the frame at time t).
        if turn == 0.0:
            x_own = Interval.point(0.0)
            y_own = v_own * t
        else:
            x_own = v_own * ((1.0 - cos_ut) / turn)
            y_own = v_own * (sin_ut / turn)

        return Box.from_intervals(
            [
                x_rot + x_int - x_own,
                y_rot + y_int - y_own,
                psi_t,
                v_own,
                v_int,
            ]
        )

    def flow_box_batch(self, s0: BoxBatch, u_rows: np.ndarray, tau) -> BoxBatch:
        """Vectorized :meth:`flow_box` over a whole box batch.

        Row ``i`` flows under turn rate ``u_rows[i, 0]`` for time ``tau``
        (shared) or ``tau[i]`` (an :class:`IntervalBatch`, one time per
        row); the kernels in :mod:`repro.intervals.batched` replicate
        the scalar op sequence exactly, so every row is bitwise
        identical to the scalar path. Rows with zero turn rate take the
        scalar limit branch via a masked divisor and a rowwise select.
        """
        count = s0.count
        turns = np.asarray(u_rows, dtype=float)[:, 0]
        tb = IntervalBatch.coerce(tau, (count,))
        turn_b = IntervalBatch.point(turns)
        x0, y0, psi0, v_own, v_int = (s0.column(i) for i in range(STATE_DIM))

        ut = tb * turn_b
        cos_ut = ut.cos()
        sin_ut = ut.sin()
        psi_t = psi0 - ut

        # R(-u t) z0.
        x_rot = cos_ut * x0 + sin_ut * y0
        y_rot = -(sin_ut * x0) + cos_ut * y0

        # Intruder straight-line displacement, expressed at time t.
        sin_psi_t = psi_t.sin()
        cos_psi_t = psi_t.cos()
        x_int = -(v_int * tb * sin_psi_t)
        y_int = v_int * tb * cos_psi_t

        # Ownship displacement: the turn == 0 rows use the straight-line
        # limit, everything else divides by the (masked) turn rate.
        zero = turns == 0.0
        if bool(np.all(zero)):
            x_own = IntervalBatch.point(np.zeros(count))
            y_own = v_own * tb
        else:
            safe = np.where(zero, 1.0, turns)
            safe_b = IntervalBatch.point(safe)
            x_own = v_own * ((1.0 - cos_ut) / safe_b)
            y_own = v_own * (sin_ut / safe_b)
            if bool(np.any(zero)):
                y_straight = v_own * tb
                x_own = IntervalBatch(
                    np.where(zero, 0.0, x_own.lo), np.where(zero, 0.0, x_own.hi)
                )
                y_own = IntervalBatch(
                    np.where(zero, y_straight.lo, y_own.lo),
                    np.where(zero, y_straight.hi, y_own.hi),
                )

        return BoxBatch.from_columns(
            [
                x_rot + x_int - x_own,
                y_rot + y_int - y_own,
                psi_t,
                v_own,
                v_int,
            ]
        )

    def flow_point(self, state: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        """Exact concrete flow (float evaluation of the closed form)."""
        x0, y0, psi0, v_own, v_int = (float(v) for v in state)
        turn = float(u[0])
        ut = turn * t
        cos_ut, sin_ut = math.cos(ut), math.sin(ut)
        psi_t = psi0 - ut
        x_rot = cos_ut * x0 + sin_ut * y0
        y_rot = -sin_ut * x0 + cos_ut * y0
        x_int = -v_int * t * math.sin(psi_t)
        y_int = v_int * t * math.cos(psi_t)
        if turn == 0.0:
            x_own, y_own = 0.0, v_own * t
        else:
            x_own = v_own * (1.0 - cos_ut) / turn
            y_own = v_own * sin_ut / turn
        return np.array(
            [x_rot + x_int - x_own, y_rot + y_int - y_own, psi_t, v_own, v_int]
        )


def polar_from_cartesian(state: np.ndarray) -> tuple[float, float]:
    """(rho, theta) of the intruder: range and bearing (Fig. 1).

    With the body frame's y-axis along the heading, a bearing ``theta``
    (counterclockwise) corresponds to position
    ``(x, y) = rho * (-sin(theta), cos(theta))``.
    """
    x, y = float(state[X]), float(state[Y])
    return math.hypot(x, y), math.atan2(-x, y)


def cartesian_from_polar(rho: float, theta: float) -> tuple[float, float]:
    """Inverse of :func:`polar_from_cartesian`."""
    return -rho * math.sin(theta), rho * math.cos(theta)
