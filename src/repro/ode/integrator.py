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

from ..intervals import Box
from ..obs import get_recorder
from .ivp import (
    EnclosureError,
    FlowPipe,
    IntegratorSettings,
    ODESystem,
    ValidatedStep,
)
from .picard import a_priori_enclosure
from .taylor import taylor_step_bounds


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
