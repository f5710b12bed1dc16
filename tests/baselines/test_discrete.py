"""Tests for the discrete-instant baseline and its blind spots."""

import numpy as np

from repro.baselines import (
    DiscreteVerdict,
    discrete_instant_analysis,
)
from repro.core import ClosedLoopSystem, CommandSet, Controller, Plant
from repro.intervals import Box
from repro.nn import Network
from repro.ode import ODESystem, TaylorIntegrator
from repro.sets import BoxSet, EmptySet
from tests.core.fixtures import make_system, runaway_network


class TestBasicVerdicts:
    def test_safe_cell(self):
        system = make_system()
        result = discrete_instant_analysis(system, Box([2.0], [2.2]), 1)
        assert result.verdict is DiscreteVerdict.NO_COLLISION_FOUND
        assert result.points_explored >= 3  # center + 2 corners

    def test_unsafe_cell_detected_at_instants(self):
        system = make_system(network=runaway_network(), horizon_steps=8)
        result = discrete_instant_analysis(system, Box([2.0], [2.2]), 0)
        assert result.verdict is DiscreteVerdict.COLLISION_FOUND
        assert result.collision_time is not None


def oscillating_system():
    """A plant that dips into E *between* sampling instants.

    s'(t) = pi * u * cos(pi * t) integrates to
    s(t) = s0 + u * sin(pi * t): the flow visits s0 + u at mid-period
    and returns exactly to s0 at every sampling instant t = jT. With
    u = -3.5 and E = {s <= -3}, the excursion into E is invisible to
    any analysis that only looks at t = jT.
    """
    import math

    from repro.ode import gcos

    commands = CommandSet(np.array([[-3.5]]), names=["dip"])
    network = Network([np.array([[1.0]])], [np.zeros(1)])
    controller = Controller(networks=[network], commands=commands)
    ode = ODESystem(
        rhs=lambda t, s, u: [gcos(t * math.pi) * (math.pi * float(u[0]))],
        dim=1,
        name="dipper",
    )
    plant = Plant(ode, TaylorIntegrator(ode))
    return ClosedLoopSystem(
        plant=plant,
        controller=controller,
        period=1.0,
        erroneous=BoxSet(Box([-np.inf], [-3.0])),
        target=EmptySet(),
        horizon_steps=4,
        name="dipper-loop",
    )


class TestBetweenSampleBlindSpot:
    """The Section 2 criticism of [7], demonstrated."""

    def test_baseline_misses_between_sample_excursion(self):
        system = oscillating_system()
        cell = Box([-0.05], [0.05])
        faithful = discrete_instant_analysis(system, cell, 0)
        assert faithful.verdict is DiscreteVerdict.NO_COLLISION_FOUND

    def test_between_sample_checking_catches_it(self):
        system = oscillating_system()
        cell = Box([-0.05], [0.05])
        upgraded = discrete_instant_analysis(
            system, cell, 0, check_between_samples=True
        )
        assert upgraded.verdict is DiscreteVerdict.COLLISION_FOUND

    def test_sound_procedure_catches_it(self):
        """Our reachability flags what the baseline misses."""
        from repro.core import ReachSettings, Verdict, reach_from_box

        system = oscillating_system()
        result = reach_from_box(
            system,
            Box([-0.05], [0.05]),
            0,
            ReachSettings(substeps=4, max_symbolic_states=4),
        )
        assert result.verdict is Verdict.POSSIBLY_UNSAFE


class TestPointwiseBlindSpot:
    def test_sampling_can_miss_thin_unsafe_slice(self):
        """Corners/center/random points can all be safe while an
        interior slice is not; the sound procedure covers the slice."""
        # Plant: s' = 0 (frozen). E = a thin band strictly inside the
        # cell, avoiding center, corners and (seeded) random samples.
        commands = CommandSet(np.array([[0.0]]), names=["hold"])
        network = Network([np.array([[1.0]])], [np.zeros(1)])
        controller = Controller(networks=[network], commands=commands)
        ode = ODESystem(rhs=lambda t, s, u: [0.0 * s[0]], dim=1, name="frozen")
        plant = Plant(ode, TaylorIntegrator(ode))
        system = ClosedLoopSystem(
            plant=plant,
            controller=controller,
            period=1.0,
            erroneous=BoxSet(Box([0.23100001], [0.23100002])),
            target=EmptySet(),
            horizon_steps=2,
            name="thin-slice",
        )
        cell = Box([0.0], [1.0])
        baseline = discrete_instant_analysis(system, cell, 0, extra_samples=8, seed=1)
        assert baseline.verdict is DiscreteVerdict.NO_COLLISION_FOUND

        from repro.core import ReachSettings, Verdict, reach_from_box

        sound = reach_from_box(
            system, cell, 0, ReachSettings(substeps=1, max_symbolic_states=1)
        )
        assert sound.verdict is Verdict.POSSIBLY_UNSAFE
