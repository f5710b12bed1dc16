"""Property-based validation of Theorem 1 (procedure soundness).

Generates random 1-D closed loops (random affine score networks over a
random command set), runs Algorithm 3 with set recording, and checks
that exactly-simulated concrete trajectories lie inside every recorded
symbolic set at the sampling instants, and inside the flow tube in
between. Also checks verdict consistency: a PROVED_SAFE verdict must
never coexist with a concrete trajectory entering E.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ArgminPost,
    ClosedLoopSystem,
    CommandSet,
    Controller,
    Plant,
    ReachSettings,
    Verdict,
    reach_from_box,
)
from repro.intervals import Box
from repro.nn import Network
from repro.ode import ODESystem, TaylorIntegrator
from repro.sets import BoxSet, EmptySet, UnionSet


def make_random_loop(rng: np.random.Generator):
    """A random scalar closed loop with affine dynamics and controller."""
    num_commands = int(rng.integers(2, 4))
    command_values = rng.uniform(-2.0, 2.0, size=(num_commands, 1))
    commands = CommandSet(command_values)
    # Random affine score network: scores = W s + b.
    network = Network(
        [rng.normal(size=(num_commands, 1))], [rng.normal(size=num_commands)]
    )
    controller = Controller(
        networks=[network], commands=commands, post=ArgminPost()
    )
    # Stable-ish linear plant: s' = a s + u with a in [-1, 0.3].
    a = float(rng.uniform(-1.0, 0.3))
    ode = ODESystem(
        rhs=lambda t, s, u, a=a: [a * s[0] + float(u[0])], dim=1, name="rand"
    )
    plant = Plant(ode, TaylorIntegrator(ode))
    bound = float(rng.uniform(4.0, 12.0))
    erroneous = UnionSet(
        [
            BoxSet(Box([bound], [np.inf])),
            BoxSet(Box([-np.inf], [-bound])),
        ]
    )
    return ClosedLoopSystem(
        plant=plant,
        controller=controller,
        period=0.5,
        erroneous=erroneous,
        target=EmptySet(),
        horizon_steps=int(rng.integers(3, 7)),
        name="random-loop",
    )


def simulate_exact(system, s0, command, samples=4):
    """Concrete closed-loop run returning per-instant states/commands
    and the fine-grained path."""
    state = np.array([float(s0)])
    states = [state.copy()]
    commands = [command]
    fine = []
    for j in range(system.horizon_steps):
        next_command = system.controller.execute(state, command)
        u = system.commands.value(command)
        for k in range(1, samples + 1):
            dt = system.period * k / samples
            point = system.plant.simulate_point(
                j * system.period, j * system.period + dt, state, u
            )
            fine.append((j * system.period + dt, point.copy(), command))
        state = fine[-1][1].copy()
        command = next_command
        states.append(state.copy())
        commands.append(command)
    return states, commands, fine


class TestTheorem1:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.randoms(use_true_random=False))
    def test_reach_sets_contain_concrete_runs(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        system = make_random_loop(rng)
        center = float(rng.uniform(-2.0, 2.0))
        box = Box([center - 0.2], [center + 0.2])
        command = int(rng.integers(len(system.commands)))

        result = reach_from_box(
            system,
            box,
            command,
            ReachSettings(
                substeps=4,
                max_symbolic_states=2 * len(system.commands),
                record_sets=True,
                early_exit_on_unsafe=False,
            ),
        )

        for s0 in box.sample(rng, 5):
            states, commands, fine = simulate_exact(system, s0[0], command)
            # Sampling instants: member of the recorded symbolic set.
            for j in range(min(len(result.step_sets), len(states))):
                assert result.step_sets[j].contains(states[j], commands[j]), (
                    f"concrete state escaped R_{j}"
                )
            # Between instants: member of the flow tube.
            for t, point, cmd in fine:
                if t > result.steps_completed * system.period:
                    break
                covered = any(
                    seg.t_start <= t <= seg.t_end
                    and seg.command == cmd
                    and seg.box.contains_point(point)
                    for seg in result.tube
                )
                assert covered, f"concrete state escaped the tube at t={t}"

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.randoms(use_true_random=False))
    def test_no_false_safety_claims(self, rnd):
        """If any concrete run reaches E, the verdict cannot claim the
        horizon is clean."""
        rng = np.random.default_rng(rnd.randrange(2**32))
        system = make_random_loop(rng)
        box = Box([-0.5], [0.5])
        command = 0
        result = reach_from_box(
            system,
            box,
            command,
            ReachSettings(substeps=4, max_symbolic_states=2 * len(system.commands)),
        )
        concrete_unsafe = False
        for s0 in box.sample(rng, 8):
            _states, _commands, fine = simulate_exact(system, s0[0], command)
            if any(system.erroneous.contains_point(p) for _t, p, _c in fine):
                concrete_unsafe = True
                break
        if concrete_unsafe:
            assert result.verdict is Verdict.POSSIBLY_UNSAFE
