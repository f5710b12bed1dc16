"""Initial-value-problem description shared by all integrators.

A plant's dynamics ``s'(t) = f(t, s(t), u(t))`` (Definition 1 in the
paper) is described by an :class:`ODESystem`: a right-hand side written
against the generic operations of :mod:`repro.ode.ops` so it can be
evaluated with floats, intervals or Taylor jets alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..intervals import Box, Interval

#: RHS signature: (t, state, command) -> state derivative, where t and the
#: state entries are floats, Intervals or Jets, and the command is a
#: concrete numpy vector (the command is piecewise constant, Section 4.1).
RHSFunction = Callable[[object, Sequence[object], np.ndarray], Sequence[object]]


@dataclass(frozen=True)
class ODESystem:
    """A parametric ODE ``s' = f(t, s, u)`` with state dimension ``dim``.

    ``name`` is used in reports; ``lipschitz_hint`` (optional) is an
    estimate of the Lipschitz constant of ``f`` in ``s`` used to seed
    the Picard inflation schedule.
    """

    rhs: RHSFunction
    dim: int
    name: str = "ode"
    lipschitz_hint: float = 1.0

    def eval_point(self, t: float, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Concrete evaluation (floats in, floats out)."""
        out = self.rhs(t, [float(x) for x in state], u)
        return np.array([float(v) for v in out], dtype=float)

    def eval_interval(
        self, t: Interval, box: Box, u: np.ndarray
    ) -> list[Interval]:
        """Interval range evaluation of ``f`` over ``t`` x ``box``."""
        out = self.rhs(t, box.intervals(), u)
        result = [Interval.coerce(v) for v in out]
        if len(result) != self.dim:
            raise ValueError(
                f"rhs returned {len(result)} components, expected {self.dim}"
            )
        return result


@dataclass(frozen=True)
class IntegratorSettings:
    """Tuning knobs for the validated Taylor integrator."""

    order: int = 6
    #: Relative inflation applied to the Picard candidate each attempt.
    inflation_factor: float = 0.1
    #: Absolute inflation floor (handles degenerate zero-width boxes).
    inflation_floor: float = 1e-9
    #: Maximum Picard enclosure attempts before the step is bisected.
    max_picard_attempts: int = 12
    #: Number of contraction sweeps once an enclosure is verified.
    tightening_sweeps: int = 2
    #: Maximum internal step bisection depth before giving up.
    max_bisections: int = 8

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("Taylor order must be >= 1")
        if self.inflation_factor <= 0.0:
            raise ValueError("inflation factor must be positive")


class EnclosureError(RuntimeError):
    """Raised when no a-priori enclosure could be verified for a step."""


@dataclass
class ValidatedStep:
    """Result of one validated integration step over ``[t_start, t_end]``.

    ``range_box`` encloses the flow over the whole step (the paper's
    ``[s_[t1,t2]]``); ``end_box`` encloses it at ``t_end`` (the paper's
    tighter ``[s_t=t2]``).
    """

    t_start: float
    t_end: float
    range_box: Box
    end_box: Box


@dataclass
class FlowPipe:
    """A validated flow tube: consecutive steps plus the final enclosure."""

    steps: list[ValidatedStep] = field(default_factory=list)

    @property
    def end_box(self) -> Box:
        if not self.steps:
            raise ValueError("empty flow pipe")
        return self.steps[-1].end_box

    @property
    def t_end(self) -> float:
        if not self.steps:
            raise ValueError("empty flow pipe")
        return self.steps[-1].t_end

    def range_boxes(self) -> list[Box]:
        return [s.range_box for s in self.steps]

    def enclosure(self) -> Box:
        """Single box enclosing the whole tube."""
        from ..intervals import hull_of_boxes

        return hull_of_boxes(self.range_boxes())

    def contains_trajectory(self, times: np.ndarray, states: np.ndarray) -> bool:
        """Check a sampled trajectory against the tube (testing helper)."""
        for t, state in zip(times, states):
            covered = False
            for step in self.steps:
                if step.t_start <= t <= step.t_end and step.range_box.contains_point(state):
                    covered = True
                    break
            if not covered:
                return False
        return True


@dataclass
class FlowPipeBatch:
    """Validated flow tubes for a whole batch of initial boxes at once.

    The structure-of-arrays counterpart of ``list[FlowPipe]``: substep
    ``k`` of row ``b`` occupies ``range_lo[k, b]`` / ``range_hi[k, b]``
    (tube over the substep) and ``end_lo[k, b]`` / ``end_hi[k, b]``
    (endpoint enclosure). Each row is bitwise identical to the
    :class:`FlowPipe` the scalar integrator would have produced for that
    row alone.
    """

    t_starts: np.ndarray  #: (M,) substep start times
    t_ends: np.ndarray  #: (M,) substep end times
    range_lo: np.ndarray  #: (M, B, n)
    range_hi: np.ndarray  #: (M, B, n)
    end_lo: np.ndarray  #: (M, B, n)
    end_hi: np.ndarray  #: (M, B, n)

    @property
    def substep_count(self) -> int:
        return int(self.range_lo.shape[0])

    @property
    def count(self) -> int:
        """Number of rows (initial boxes)."""
        return int(self.range_lo.shape[1])

    @property
    def dim(self) -> int:
        return int(self.range_lo.shape[2])

    def end_box(self, row: int) -> Box:
        """Endpoint enclosure of ``row`` at the final time."""
        return Box(self.end_lo[-1, row], self.end_hi[-1, row])

    def pipe(self, row: int) -> FlowPipe:
        """Materialize ``row`` as a plain :class:`FlowPipe`."""
        steps = [
            ValidatedStep(
                t_start=float(self.t_starts[k]),
                t_end=float(self.t_ends[k]),
                range_box=Box(self.range_lo[k, row], self.range_hi[k, row]),
                end_box=Box(self.end_lo[k, row], self.end_hi[k, row]),
            )
            for k in range(self.substep_count)
        ]
        return FlowPipe(steps=steps)

    def pipes(self) -> list[FlowPipe]:
        return [self.pipe(b) for b in range(self.count)]
