"""Tests for falsification-guided refinement (Section 8 coupling)."""

import numpy as np

from repro.baselines import make_cell_witness_search
from repro.core import (
    RefinementPolicy,
    RunnerSettings,
    ReachSettings,
    verify_cell,
)
from repro.intervals import Box

from .fixtures import make_system, runaway_network


class TestWitnessSearchHook:
    def test_unsafe_cell_gets_witness_and_skips_refinement(self):
        system = make_system(network=runaway_network(), horizon_steps=8)
        settings = RunnerSettings(
            reach=ReachSettings(),
            refinement=RefinementPolicy(dims=(0,), max_depth=2),
            witness_search=make_cell_witness_search(
                population=8, elites=3, generations=2
            ),
        )
        result = verify_cell(system, Box([2.0], [2.2]), 0, settings)
        assert not result.proved
        assert "witness" in result.tags
        assert not result.children  # refinement skipped: genuinely unsafe

        # The witness must actually be unsafe when simulated.
        from repro.baselines import simulate

        witness = np.array(result.tags["witness"])
        trajectory = simulate(system, witness, 0)
        assert trajectory.reached_error

    def test_safe_cell_ignores_witness_search(self):
        calls = {"count": 0}

        def never_called(system, box, command):
            calls["count"] += 1
            return None

        system = make_system()
        settings = RunnerSettings(
            reach=ReachSettings(), witness_search=never_called
        )
        result = verify_cell(system, Box([2.0], [2.2]), 1, settings)
        assert result.proved
        assert calls["count"] == 0

    def test_no_witness_found_still_refines(self):
        """When the search fails, refinement proceeds as usual (the
        cell may only be an over-approximation artefact)."""
        system = make_system(
            horizon_steps=4, target="none", error_bound=2.5
        )
        settings = RunnerSettings(
            reach=ReachSettings(),
            refinement=RefinementPolicy(dims=(0,), max_depth=1),
            witness_search=lambda *_args: None,
        )
        result = verify_cell(system, Box([2.0], [3.0]), 0, settings)
        if not result.proved:
            assert result.children
            assert "witness" not in result.tags
