"""Validated ODE integration (the DynIBEX-substitute driver).

:class:`TaylorIntegrator` implements the *validated simulation*
primitive of Section 6.2: given an initial box ``[s(t1)]`` it returns a
sound enclosure ``[s_[t1,t2]]`` of the flow over ``[t1, t2]`` and a
tighter enclosure ``[s(t2)]`` of the endpoint. The ``M``-substep driver
:meth:`TaylorIntegrator.integrate` is exactly Algorithm 1 (SIMULATE) of
the paper, minus the symbolic-state bookkeeping that lives in
:mod:`repro.core.reach`.
"""

from __future__ import annotations

import time

import numpy as np

from ..intervals import Box, BoxBatch
from ..obs import get_recorder
from .ivp import (
    EnclosureError,
    FlowPipe,
    FlowPipeBatch,
    IntegratorSettings,
    ODESystem,
    ValidatedStep,
)
from .picard import a_priori_enclosure
from .taylor import taylor_step_bounds, taylor_step_bounds_batch


def _integrate_batch_driver(
    stepper, t0: float, t1: float, s0: BoxBatch, u_rows: np.ndarray, substeps: int
) -> FlowPipeBatch:
    """``M``-substep driver over a whole box batch.

    ``stepper.step_batch(start, h, batch, u_rows)`` must return the
    ``(range_batch, end_batch)`` pair for one substep; the endpoint
    batch of each substep seeds the next, exactly like the scalar
    per-row loop (same floats, same order)."""
    if t1 <= t0:
        raise ValueError("integration horizon must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if u_rows.shape[0] != s0.count:
        raise ValueError("one command row per box required")
    rec = get_recorder()
    h = (t1 - t0) / substeps
    t_starts = np.empty(substeps)
    t_ends = np.empty(substeps)
    range_lo = np.empty((substeps, s0.count, s0.dim))
    range_hi = np.empty_like(range_lo)
    end_lo = np.empty_like(range_lo)
    end_hi = np.empty_like(range_lo)
    current = s0
    for i in range(substeps):
        start = t0 + i * h
        if rec.enabled:
            tick = time.perf_counter()
            range_b, end_b = stepper.step_batch(start, h, current, u_rows)
            rec.observe("ode.substep_seconds", time.perf_counter() - tick)
            rec.inc("ode.substeps", current.count)
        else:
            range_b, end_b = stepper.step_batch(start, h, current, u_rows)
        t_starts[i] = start
        t_ends[i] = start + h
        # sound: ok [S004] SoA result-buffer assembly: the arrays were
        # freshly allocated above and are owned by this driver; the
        # validated endpoints from step_batch are copied in unchanged
        range_lo[i] = range_b.lo
        # sound: ok [S004] SoA result-buffer assembly, see above
        range_hi[i] = range_b.hi
        # sound: ok [S004] SoA result-buffer assembly, see above
        end_lo[i] = end_b.lo
        # sound: ok [S004] SoA result-buffer assembly, see above
        end_hi[i] = end_b.hi
        current = end_b
    return FlowPipeBatch(
        t_starts=t_starts,
        t_ends=t_ends,
        range_lo=range_lo,
        range_hi=range_hi,
        end_lo=end_lo,
        end_hi=end_hi,
    )


class TaylorIntegrator:
    """Interval Taylor-series integrator with Picard a-priori enclosures."""

    def __init__(self, system: ODESystem, settings: IntegratorSettings | None = None):
        self.system = system
        self.settings = settings or IntegratorSettings()

    # ------------------------------------------------------------------
    # Single validated step (with internal bisection on hard steps)
    # ------------------------------------------------------------------
    def step(self, t0: float, h: float, s0: Box, u: np.ndarray) -> ValidatedStep:
        """One validated step over ``[t0, t0 + h]``."""
        if s0.dim != self.system.dim:
            raise ValueError(
                f"state dimension {s0.dim} != system dimension {self.system.dim}"
            )
        return self._step_recursive(t0, h, s0, u, depth=0)

    def _step_recursive(
        self, t0: float, h: float, s0: Box, u: np.ndarray, depth: int
    ) -> ValidatedStep:
        try:
            enclosure = a_priori_enclosure(
                self.system, t0, h, s0, u, self.settings
            )
        except EnclosureError:
            if depth >= self.settings.max_bisections:
                raise
            get_recorder().inc("ode.step_bisections")
            first = self._step_recursive(t0, h / 2.0, s0, u, depth + 1)
            second = self._step_recursive(
                t0 + h / 2.0, h / 2.0, first.end_box, u, depth + 1
            )
            return ValidatedStep(
                t_start=t0,
                t_end=t0 + h,
                range_box=first.range_box.hull(second.range_box),
                end_box=second.end_box,
            )
        range_box, end_box = taylor_step_bounds(
            self.system, t0, h, s0, enclosure, u, self.settings.order
        )
        return ValidatedStep(t_start=t0, t_end=t0 + h, range_box=range_box, end_box=end_box)

    # ------------------------------------------------------------------
    # Batched step: one jet sweep per command group
    # ------------------------------------------------------------------
    def step_batch(
        self, t0: float, h: float, s0: BoxBatch, u_rows: np.ndarray
    ) -> tuple[BoxBatch, BoxBatch]:
        """One validated step for every row of ``s0`` at once.

        The Picard a-priori enclosure keeps its per-row search loop
        (its control flow is box-specific), but the expensive Taylor
        jet sweep runs once per distinct command over the whole group
        of rows. Rows whose enclosure search fails take the scalar
        bisection path. Results are bitwise identical to :meth:`step`
        row by row.
        """
        # sound: ok [S003] integer dimension metadata, not a bound value
        if s0.dim != self.system.dim:
            raise ValueError(
                f"state dimension {s0.dim} != system dimension {self.system.dim}"
            )
        u_rows = np.asarray(u_rows, dtype=float)
        rec = get_recorder()
        out_range_lo = np.empty((s0.count, s0.dim))
        out_range_hi = np.empty_like(out_range_lo)
        out_end_lo = np.empty_like(out_range_lo)
        out_end_hi = np.empty_like(out_range_lo)

        groups: dict[bytes, list[int]] = {}
        for r in range(s0.count):
            # sound: ok [S008] row indices grouped by command, not bounds
            groups.setdefault(u_rows[r].tobytes(), []).append(r)

        for rows in groups.values():
            u = u_rows[rows[0]]
            plain_rows: list[int] = []
            enclosures: list[Box] = []
            for r in rows:
                box = s0.row(r)
                try:
                    enc = a_priori_enclosure(
                        self.system, t0, h, box, u, self.settings
                    )
                except EnclosureError:
                    # Same bisection cascade as the scalar _step_recursive
                    # (without re-running the failed enclosure search).
                    if 0 >= self.settings.max_bisections:
                        raise
                    rec.inc("ode.step_bisections")
                    first = self._step_recursive(t0, h / 2.0, box, u, depth=1)
                    second = self._step_recursive(
                        t0 + h / 2.0, h / 2.0, first.end_box, u, depth=1
                    )
                    # sound: ok [S004] SoA result-buffer assembly into the
                    # freshly allocated output arrays owned by this call;
                    # the validated half-step endpoints are copied unchanged
                    out_range_lo[r] = np.minimum(
                        first.range_box.lo, second.range_box.lo
                    )
                    # sound: ok [S004] SoA result-buffer assembly, see above
                    out_range_hi[r] = np.maximum(
                        first.range_box.hi, second.range_box.hi
                    )
                    # sound: ok [S004] SoA result-buffer assembly, see above
                    out_end_lo[r] = second.end_box.lo
                    # sound: ok [S004] SoA result-buffer assembly, see above
                    out_end_hi[r] = second.end_box.hi
                    continue
                # sound: ok [S008] a row index, not a bound value
                plain_rows.append(r)
                enclosures.append(enc)
            if not plain_rows:
                continue
            sub = BoxBatch(s0.lo[plain_rows], s0.hi[plain_rows])
            enc_batch = BoxBatch(
                np.stack([e.lo for e in enclosures]),
                np.stack([e.hi for e in enclosures]),
            )
            range_b, end_b = taylor_step_bounds_batch(
                self.system, t0, h, sub, enc_batch, u, self.settings.order
            )
            # sound: ok [S004] SoA result-buffer assembly into the freshly
            # allocated output arrays owned by this call; the validated
            # batch-step endpoints are scattered back unchanged
            out_range_lo[plain_rows] = range_b.lo
            # sound: ok [S004] SoA result-buffer assembly, see above
            out_range_hi[plain_rows] = range_b.hi
            # sound: ok [S004] SoA result-buffer assembly, see above
            out_end_lo[plain_rows] = end_b.lo
            # sound: ok [S004] SoA result-buffer assembly, see above
            out_end_hi[plain_rows] = end_b.hi

        return (
            BoxBatch(out_range_lo, out_range_hi),
            BoxBatch(out_end_lo, out_end_hi),
        )

    # ------------------------------------------------------------------
    # Multi-substep integration over a control period (Algorithm 1)
    # ------------------------------------------------------------------
    def integrate(
        self, t0: float, t1: float, s0: Box, u: np.ndarray, substeps: int = 1
    ) -> FlowPipe:
        """Integrate over ``[t0, t1]`` with ``substeps`` equal substeps.

        Higher ``substeps`` (the paper's ``M``) trades time for a
        tighter flow tube (Section 6.4, Fig. 7).
        """
        if t1 <= t0:
            raise ValueError("integration horizon must be positive")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        rec = get_recorder()
        h = (t1 - t0) / substeps
        pipe = FlowPipe()
        current = s0
        for i in range(substeps):
            start = t0 + i * h
            if rec.enabled:
                tick = time.perf_counter()
                step = self.step(start, h, current, u)
                rec.observe("ode.substep_seconds", time.perf_counter() - tick)
                rec.inc("ode.substeps")
            else:
                step = self.step(start, h, current, u)
            pipe.steps.append(step)
            current = step.end_box
        return pipe

    def integrate_batch(
        self,
        t0: float,
        t1: float,
        s0: BoxBatch,
        u_rows: np.ndarray,
        substeps: int = 1,
    ) -> FlowPipeBatch:
        """Batched :meth:`integrate`: one flow tube per row of ``s0``."""
        return _integrate_batch_driver(
            self, t0, t1, s0, np.asarray(u_rows, dtype=float), substeps
        )


class AnalyticFlow:
    """Base class for plants with a closed-form validated flow.

    Subclasses implement :meth:`flow_box`, the interval evaluation of
    the exact flow map over a time interval; the integrator interface
    then matches :class:`TaylorIntegrator`, letting the reachability
    core swap integrators freely (used by the ACAS Xu plant, where the
    piecewise-constant-turn kinematics integrates in closed form). A
    subclass may add a vectorized ``integrate_batch``; without one,
    :meth:`repro.core.system.Plant.flow_batch` integrates row by row.
    """

    dim: int

    def flow_box(self, s0: Box, u: np.ndarray, tau) -> Box:
        """Enclosure of ``Phi(s0, tau)`` with ``tau`` an Interval/float."""
        raise NotImplementedError

    def step(self, t0: float, h: float, s0: Box, u: np.ndarray) -> ValidatedStep:
        from ..intervals import Interval

        range_box = self.flow_box(s0, u, Interval(0.0, h))
        end_box = self.flow_box(s0, u, Interval.point(h))
        return ValidatedStep(t_start=t0, t_end=t0 + h, range_box=range_box, end_box=end_box)

    def integrate(
        self, t0: float, t1: float, s0: Box, u: np.ndarray, substeps: int = 1
    ) -> FlowPipe:
        if t1 <= t0:
            raise ValueError("integration horizon must be positive")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        rec = get_recorder()
        h = (t1 - t0) / substeps
        pipe = FlowPipe()
        current = s0
        for i in range(substeps):
            start = t0 + i * h
            if rec.enabled:
                tick = time.perf_counter()
                step = self.step(start, h, current, u)
                rec.observe("ode.substep_seconds", time.perf_counter() - tick)
                rec.inc("ode.substeps")
            else:
                step = self.step(start, h, current, u)
            pipe.steps.append(step)
            current = step.end_box
        return pipe
