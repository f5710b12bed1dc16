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
import time
from typing import NamedTuple

import numpy as np

from ..intervals import Box, BoxBatch, Interval, IntervalBatch, icos, isin
from ..intervals.batched import (
    badd_bare,
    bdiv,
    bmul,
    bmul_bare,
    bsincos,
    bsub,
    bsub_bare,
)
from ..obs import get_recorder
from ..ode import AnalyticFlow, FlowPipeBatch, ODESystem
from ..ode.ops import gcos, gsin

STATE_DIM = 5
X, Y, PSI, V_OWN, V_INT = range(STATE_DIM)

#: Bound on substeps x 2 x rows in one heading block of
#: :meth:`AcasXuAnalyticFlow.integrate_batch` (at least one substep per
#: block): only one block's sin/cos temporaries are alive at a time.
HEADING_BLOCK = 1024


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

    The batched forms split the expression in three. The *turn terms*
    (``u t``, its sine and cosine, ``v_int t`` and the ownship term)
    depend only on the command, ``t`` and the speeds. The *heading
    half* (``psi_t``, its sine and cosine and the intruder displacement)
    reads ``psi0`` but never ``(x0, y0)``. The *position half* applies
    the rotation to ``(x0, y0)`` and adds both displacements.
    :meth:`integrate_batch` evaluates the turn terms once per control
    period and the heading half once per block of substeps.
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
        row): the heading half, then the position half, of those times.
        The kernels in :mod:`repro.intervals.batched` replicate the
        scalar op sequence exactly, so every row is bitwise identical
        to the scalar path.
        """
        tb = IntervalBatch.coerce(tau, (s0.count,))
        terms = _turn_terms(s0, u_rows, tb.lo[None], tb.hi[None])
        psi_lo, psi_hi = bsub(s0.lo[:, PSI], s0.hi[:, PSI], *terms.ut)
        with np.errstate(over="ignore", invalid="ignore"):
            disp = _displacement(terms, psi_lo, psi_hi)
            xy_lo, xy_hi = _position(terms, s0.lo[:, X:PSI].T, s0.hi[:, X:PSI].T, *disp)
        return BoxBatch(
            np.concatenate([xy_lo[:, 0].T, psi_lo.T, s0.lo[:, V_OWN:]], axis=1),
            np.concatenate([xy_hi[:, 0].T, psi_hi.T, s0.hi[:, V_OWN:]], axis=1),
        )

    def integrate_batch(
        self,
        t0: float,
        t1: float,
        s0: BoxBatch,
        u_rows: np.ndarray,
        substeps: int = 1,
    ) -> FlowPipeBatch:
        """Batched :meth:`integrate`: one flow tube per row of ``s0``.

        The speeds pass through every substep unchanged, so the turn
        terms are loop-invariant: they are evaluated once, for the range
        (``tau = [0, h]``) and the end (``tau = [h, h]``) on a leading
        axis of length 2. ``psi`` does not depend on ``(x, y)``, so the
        psi chain of all substeps runs first (one ``bsub`` each, written
        into the tube). Then, block by block of substeps (at most
        ``HEADING_BLOCK`` substeps x 2 x rows), the heading half runs
        once for the block and the position half once per substep, its
        end row seeding the next substep, under one ``np.errstate``.
        Every row is bitwise identical to :meth:`integrate` on that row
        alone.
        """
        u_rows = np.asarray(u_rows, dtype=float)
        if t1 <= t0:
            raise ValueError("integration horizon must be positive")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        if u_rows.shape[0] != s0.count:
            raise ValueError("one command row per box required")
        rec = get_recorder()
        h = (t1 - t0) / substeps
        terms = _turn_terms(s0, u_rows, np.array([[0.0], [h]]), np.array([[h], [h]]))
        # Substep i of row b: range box at [i, 0, b], end box at [i, 1, b].
        tube_lo = np.empty((substeps, 2, s0.count, STATE_DIM))
        tube_hi = np.empty_like(tube_lo)
        # sound: ok [S004] result-buffer assembly: the arrays were freshly
        # allocated above and are owned by this call; the speeds are the
        # flow's exact pass-through columns, copied in unchanged
        tube_lo[..., V_OWN:] = s0.lo[:, V_OWN:]
        # sound: ok [S004] result-buffer assembly, see above
        tube_hi[..., V_OWN:] = s0.hi[:, V_OWN:]
        psi_lo, psi_hi = tube_lo[..., PSI], tube_hi[..., PSI]
        block = max(1, HEADING_BLOCK // (2 * s0.count))
        with np.errstate(over="ignore", invalid="ignore"):
            start_lo, start_hi = s0.lo[:, PSI], s0.hi[:, PSI]
            for i in range(substeps):
                # sound: ok [S004] result-buffer assembly: the validated
                # psi_t endpoints are copied in unchanged
                psi_lo[i], psi_hi[i] = bsub_bare(start_lo, start_hi, *terms.ut)
                start_lo, start_hi = psi_lo[i, 1], psi_hi[i, 1]
            z_lo, z_hi = s0.lo[:, X:PSI].T, s0.hi[:, X:PSI].T
            for first in range(0, substeps, block):
                last = min(first + block, substeps)
                disp_lo, disp_hi = _displacement(
                    terms, psi_lo[first:last], psi_hi[first:last]
                )
                for i in range(first, last):
                    tick = time.perf_counter()
                    xy_lo, xy_hi = _position(
                        terms, z_lo, z_hi, disp_lo[:, i - first], disp_hi[:, i - first]
                    )
                    if rec.enabled:
                        rec.observe("ode.substep_seconds", time.perf_counter() - tick)
                        rec.inc("ode.substeps", s0.count)
                    # sound: ok [S004] result-buffer assembly: the validated
                    # endpoints of the position half are copied in unchanged
                    tube_lo[i, :, :, X:PSI] = xy_lo.transpose(1, 2, 0)
                    # sound: ok [S004] result-buffer assembly, see above
                    tube_hi[i, :, :, X:PSI] = xy_hi.transpose(1, 2, 0)
                    z_lo, z_hi = xy_lo[:, 1], xy_hi[:, 1]
        t_starts = t0 + np.arange(substeps) * h
        return FlowPipeBatch(
            t_starts=t_starts,
            t_ends=t_starts + h,
            range_lo=tube_lo[:, 0],
            range_hi=tube_hi[:, 0],
            end_lo=tube_lo[:, 1],
            end_hi=tube_hi[:, 1],
        )

    def flow_point(self, state: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        """Exact concrete flow (float evaluation of the closed form).

        A concrete path (simulation, falsification sampling): it never
        feeds a verified bound, so its raw float arithmetic is outside
        the rounding discipline (rule 6 of ``docs/SOUNDNESS.md``).
        """
        x0, y0, psi0, v_own, v_int = (float(v) for v in state)
        turn = float(u[0])
        # sound: ok [S001] concrete path, see the docstring
        ut = turn * t
        # sound: ok [S001,S002] concrete path, see the docstring
        cos_ut, sin_ut, psi_t = math.cos(ut), math.sin(ut), psi0 - ut
        # sound: ok [S001] concrete path, see the docstring
        x_rot, y_rot = cos_ut * x0 + sin_ut * y0, -sin_ut * x0 + cos_ut * y0
        # sound: ok [S001,S002] concrete path, see the docstring
        x_int, y_int = -v_int * t * math.sin(psi_t), v_int * t * math.cos(psi_t)
        if turn == 0.0:
            # sound: ok [S001] concrete path, see the docstring
            x_own, y_own = 0.0, v_own * t
        else:
            # sound: ok [S001] concrete path, see the docstring
            x_own, y_own = v_own * (1.0 - cos_ut) / turn, v_own * sin_ut / turn
        # sound: ok [S001] concrete path, see the docstring
        return np.array(
            [x_rot + x_int - x_own, y_rot + y_int - y_own, psi_t, v_own, v_int]
        )


class _TurnTerms(NamedTuple):
    """The state-independent half of the closed form, at ``K`` times.

    Every field is an ``(lo, hi)`` pair whose last two axes are time
    (length ``K``) and row: ``ut = u*tau``; ``rot`` holds
    ``((cos, sin), (-sin, cos))(u*tau)``, the rotation ``R(-u*tau)``
    paired with ``(x0, y0)``; ``vt = v_int*tau``; ``own`` stacks the
    ownship displacement ``(x_own, y_own)``.

    The rotation and the intruder term take the negated sine as a
    factor rather than negating a product: negation is exact and
    outward rounding is symmetric (``down(-a) == -up(a)``), so
    ``(-s)*x`` has the endpoints of ``-(s*x)`` bit for bit, which is
    what the scalar :meth:`AcasXuAnalyticFlow.flow_box` computes.
    """

    ut: tuple[np.ndarray, np.ndarray]
    rot: tuple[np.ndarray, np.ndarray]
    vt: tuple[np.ndarray, np.ndarray]
    own: tuple[np.ndarray, np.ndarray]


def _turn_terms(
    s0: BoxBatch, u_rows: np.ndarray, tau_lo: np.ndarray, tau_hi: np.ndarray
) -> _TurnTerms:
    """The turn terms of every row of ``s0`` for the times ``tau``
    (time axis first, broadcast against the rows). They read the state
    only through the speeds, which the flow passes through unchanged."""
    turns = np.asarray(u_rows, dtype=float)[:, 0]
    v_own_lo, v_own_hi = s0.lo[:, V_OWN], s0.hi[:, V_OWN]
    ut = bmul(tau_lo, tau_hi, turns, turns)
    sin_lo, sin_hi, cos_lo, cos_hi = bsincos(*ut)
    vt = bmul(s0.lo[:, V_INT], s0.hi[:, V_INT], tau_lo, tau_hi)

    # Ownship displacement: (1 - cos, sin) * v_own / turn, with the
    # divisor masked to 1 on the turn == 0 rows, which then take the
    # straight-line limit (0, v_own * tau).
    zero = turns == 0.0
    safe = np.where(zero, 1.0, turns)
    one_minus_cos = bsub(1.0, 1.0, cos_lo, cos_hi)
    quot = bdiv(
        np.array((one_minus_cos[0], sin_lo)),
        np.array((one_minus_cos[1], sin_hi)),
        safe,
        safe,
    )
    own_lo, own_hi = bmul(v_own_lo, v_own_hi, *quot)
    line_lo, line_hi = bmul(v_own_lo, v_own_hi, tau_lo, tau_hi)
    return _TurnTerms(
        ut=ut,
        rot=(
            np.array(((cos_lo, sin_lo), (-sin_hi, cos_lo))),
            np.array(((cos_hi, sin_hi), (-sin_lo, cos_hi))),
        ),
        vt=vt,
        own=(
            np.where(zero, np.array((np.zeros_like(line_lo), line_lo)), own_lo),
            np.where(zero, np.array((np.zeros_like(line_hi), line_hi)), own_hi),
        ),
    )


def _displacement(
    terms: _TurnTerms, psi_lo: np.ndarray, psi_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The heading half: the intruder's straight-line displacement
    ``v_int*t * (-sin(psi_t), cos(psi_t))`` from the ``psi_t`` endpoints
    (shape ``(..., K, B)``). Returns its endpoints with ``(x, y)`` on a
    new leading axis. Call it inside ``np.errstate(over="ignore",
    invalid="ignore")``."""
    sin_lo, sin_hi, cos_lo, cos_hi = bsincos(psi_lo, psi_hi)
    return bmul_bare(*terms.vt, np.array((-sin_hi, cos_lo)), np.array((-sin_lo, cos_hi)))


def _position(
    terms: _TurnTerms,
    z_lo: np.ndarray,
    z_hi: np.ndarray,
    disp_lo: np.ndarray,
    disp_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The position half: ``R(-u t) z0`` plus the intruder displacement
    ``disp`` minus the ownship term.

    ``z`` stacks ``(x0, y0)`` on a leading axis, one entry per row;
    ``disp`` is shaped like the result. Returns the endpoints of
    ``(x, y)`` at the turn terms' times, shape ``(2, K, B)``. Call it
    inside ``np.errstate(over="ignore", invalid="ignore")``.
    """
    # R(-u t) z0: (cos*x0, sin*y0) and (-sin*x0, cos*y0) in one product.
    prod_lo, prod_hi = bmul_bare(*terms.rot, z_lo[:, None], z_hi[:, None])
    rot = badd_bare(prod_lo[:, 0], prod_hi[:, 0], prod_lo[:, 1], prod_hi[:, 1])
    xy = badd_bare(*rot, disp_lo, disp_hi)
    return bsub_bare(*xy, *terms.own)


def polar_from_cartesian(state: np.ndarray) -> tuple[float, float]:
    """(rho, theta) of the intruder: range and bearing (Fig. 1).

    With the body frame's y-axis along the heading, a bearing ``theta``
    (counterclockwise) corresponds to position
    ``(x, y) = rho * (-sin(theta), cos(theta))``.
    """
    x, y = float(state[X]), float(state[Y])
    # sound: ok [S002] concrete helper (table lookups, MDP training
    # points) that feeds no verified bound; the abstract Pre# bounds
    # range and bearing with the interval kernels
    return math.hypot(x, y), math.atan2(-x, y)


def cartesian_from_polar(rho: float, theta: float) -> tuple[float, float]:
    """Inverse of :func:`polar_from_cartesian`."""
    # sound: ok [S002] concrete helper (MDP training points), like
    # polar_from_cartesian
    return -rho * math.sin(theta), rho * math.cos(theta)
