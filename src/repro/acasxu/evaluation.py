"""Operational (Monte-Carlo) evaluation of the ACAS controller.

Collision-avoidance systems are traditionally scored on encounter sets
by the *risk ratio* — the probability of a near mid-air collision with
the system on, divided by the probability with it off — together with
nuisance metrics (alert rate, maneuver duration). These statistics
complement the formal analysis: the verification map says *where*
safety is proved, the risk ratio says *how much* the controller buys
on a random encounter distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ClosedLoopSystem
from .dynamics import AcasXuAnalyticFlow
from .scenario import (
    COC_INDEX,
    sample_collision_course_state,
    sample_initial_state,
)


@dataclass
class EncounterStats:
    """Aggregate statistics over a Monte-Carlo encounter set."""

    encounters: int
    nmacs_with_system: int
    nmacs_without_system: int
    alerts: int
    mean_min_separation_ft: float
    mean_alert_steps: float

    @property
    def risk_ratio(self) -> float:
        """P(NMAC | system on) / P(NMAC | system off); lower is better.

        Infinity when the unequipped baseline never collides (then the
        ratio carries no information on this encounter set).
        """
        if self.nmacs_without_system == 0:
            return math.inf
        return self.nmacs_with_system / self.nmacs_without_system

    @property
    def alert_rate(self) -> float:
        return self.alerts / max(self.encounters, 1)


def evaluate_controller(
    system: ClosedLoopSystem,
    encounters: int = 200,
    seed: int = 0,
    nmac_radius_ft: float = 500.0,
    samples_per_period: int = 4,
    threat_fraction: float = 0.5,
    threat_jitter_rad: float = 0.08,
) -> EncounterStats:
    """Monte-Carlo evaluation on random sensor-ring encounters.

    Each encounter is flown twice from the same initial state: once
    with the controller (closed loop) and once unequipped (ownship
    flies straight), and the minimum separation of both runs is
    recorded. ``threat_fraction`` of the encounters are drawn from the
    collision-course-biased sampler (standard ACAS evaluation practice —
    uniform inward encounters rarely thread the NMAC cylinder, so an
    unbiased set estimates the risk ratio poorly).
    """
    if not 0.0 <= threat_fraction <= 1.0:
        raise ValueError("threat_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    flow = AcasXuAnalyticFlow()
    horizon = system.horizon_steps

    nmac_on = 0
    nmac_off = 0
    alerts = 0
    min_seps: list[float] = []
    alert_steps_total = 0

    for index in range(encounters):
        if rng.random() < threat_fraction:
            s0 = sample_collision_course_state(rng, jitter_rad=threat_jitter_rad)
        else:
            s0 = sample_initial_state(rng)

        # Unequipped run: ownship holds COC (straight flight).
        min_off = _fly(flow, s0, [COC_INDEX] * horizon, samples_per_period, system)
        nmac_off += min_off < nmac_radius_ft

        # Equipped run.
        state = s0.copy()
        command = COC_INDEX
        min_on = math.hypot(state[0], state[1])
        alerted = False
        alert_steps = 0
        for j in range(horizon):
            if system.target.contains_point(state):
                break
            next_command = system.controller.execute(state, command)
            u = system.commands.value(command)
            if command != COC_INDEX:
                alerted = True
                alert_steps += 1
            for k in range(1, samples_per_period + 1):
                point = flow.flow_point(state, u, system.period * k / samples_per_period)
                min_on = min(min_on, math.hypot(point[0], point[1]))
            state = point
            command = next_command
        nmac_on += min_on < nmac_radius_ft
        alerts += alerted
        alert_steps_total += alert_steps
        min_seps.append(min_on)

    return EncounterStats(
        encounters=encounters,
        nmacs_with_system=nmac_on,
        nmacs_without_system=nmac_off,
        alerts=alerts,
        mean_min_separation_ft=float(np.mean(min_seps)) if min_seps else 0.0,
        mean_alert_steps=alert_steps_total / max(encounters, 1),
    )


def _fly(
    flow: AcasXuAnalyticFlow,
    s0: np.ndarray,
    commands: list[int],
    samples_per_period: int,
    system: ClosedLoopSystem,
) -> float:
    """Minimum separation flying a fixed command sequence."""
    state = s0.copy()
    min_sep = math.hypot(state[0], state[1])
    for command in commands:
        if system.target.contains_point(state):
            break
        u = system.commands.value(command)
        for k in range(1, samples_per_period + 1):
            point = flow.flow_point(state, u, system.period * k / samples_per_period)
            min_sep = min(min_sep, math.hypot(point[0], point[1]))
        state = point
    return min_sep
