"""End-to-end soundness of the ACAS Xu verification pipeline.

The strongest empirical claims the repository makes: on real partition
cells, (a) recorded reach sets contain exactly-simulated closed-loop
trajectories, and (b) a PROVED_SAFE verdict is never contradicted by a
concrete collision from that cell.
"""

import numpy as np
import pytest

from repro.acasxu import initial_cells
from repro.baselines import simulate
from repro.core import ReachSettings, Verdict, reach_from_box


@pytest.fixture(scope="module")
def sample_cells():
    cells = initial_cells(24, 6)
    rng = np.random.default_rng(5)
    picks = rng.choice(len(cells), size=6, replace=False)
    return [cells[i] for i in picks]


class TestReachSetsContainSimulations(object):
    def test_sampling_instant_membership(self, tiny_acas, sample_cells):
        settings = ReachSettings(
            substeps=10,
            max_symbolic_states=5,
            record_sets=True,
            early_exit_on_unsafe=False,
        )
        rng = np.random.default_rng(0)
        for box, command, _tags in sample_cells[:3]:
            result = reach_from_box(tiny_acas, box, command, settings)
            flow = tiny_acas.plant.integrator
            for s0 in box.sample(rng, 3):
                state = s0.copy()
                cmd = command
                for j, step_set in enumerate(result.step_sets):
                    assert step_set.contains(state, cmd), (
                        f"trajectory escaped R_{j} for cell at "
                        f"({box.center[0]:.0f}, {box.center[1]:.0f})"
                    )
                    if j == len(result.step_sets) - 1:
                        break
                    if tiny_acas.target.contains_point(state):
                        break
                    next_cmd = tiny_acas.controller.execute(state, cmd)
                    u = tiny_acas.commands.value(cmd)
                    state = flow.flow_point(state, u, tiny_acas.period)
                    cmd = next_cmd

    def test_proved_safe_never_contradicted(self, tiny_acas, sample_cells):
        settings = ReachSettings(substeps=10, max_symbolic_states=5)
        rng = np.random.default_rng(1)
        checked = 0
        for box, command, _tags in sample_cells:
            result = reach_from_box(tiny_acas, box, command, settings)
            if result.verdict is not Verdict.PROVED_SAFE:
                continue
            checked += 1
            for s0 in box.sample(rng, 5):
                trajectory = simulate(
                    tiny_acas, s0, command, samples_per_period=6
                )
                assert not trajectory.reached_error, (
                    "concrete collision from a cell proved safe — "
                    "soundness violation"
                )
        # The sample must actually exercise the claim at least once.
        assert checked >= 1

    def test_unsafe_time_lower_bounds_concrete_collisions(self, tiny_acas):
        """When the verdict is POSSIBLY_UNSAFE with a concrete witness,
        the reported first-possible-entry time must not exceed the
        witness's entry time."""
        cells = initial_cells(24, 6)
        settings = ReachSettings(substeps=10, max_symbolic_states=5)
        rng = np.random.default_rng(2)
        exercised = False
        for box, command, _tags in cells:
            result = reach_from_box(tiny_acas, box, command, settings)
            if result.verdict is not Verdict.POSSIBLY_UNSAFE:
                continue
            for s0 in box.sample(rng, 4):
                trajectory = simulate(tiny_acas, s0, command, samples_per_period=10)
                if trajectory.reached_error:
                    assert result.unsafe_time <= trajectory.error_time + 1e-9
                    exercised = True
            if exercised:
                break
        # A concrete witness may legitimately not exist (loose cells);
        # the loop above just must not crash in that case.


class TestVerdictStability:
    def test_reach_is_deterministic(self, tiny_acas, sample_cells):
        box, command, _tags = sample_cells[0]
        settings = ReachSettings(substeps=10, max_symbolic_states=5)
        a = reach_from_box(tiny_acas, box, command, settings)
        b = reach_from_box(tiny_acas, box, command, settings)
        assert a.verdict == b.verdict
        assert a.steps_completed == b.steps_completed
        assert a.joins_performed == b.joins_performed

    def test_smaller_cells_never_hurt(self, tiny_acas, sample_cells):
        """Bisecting a proved cell keeps both halves provable (the
        Lipschitz monotonicity argument of Section 7.1)."""
        settings = ReachSettings(substeps=10, max_symbolic_states=5)
        for box, command, _tags in sample_cells:
            result = reach_from_box(tiny_acas, box, command, settings)
            if result.verdict is not Verdict.PROVED_SAFE:
                continue
            for half in box.bisect(2):  # split along psi
                sub = reach_from_box(tiny_acas, half, command, settings)
                assert sub.verdict is Verdict.PROVED_SAFE
            break
