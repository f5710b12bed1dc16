"""Tests for the scenario sets, partition and system assembly."""

import math

import numpy as np
import pytest

from repro.acasxu import (
    COC_INDEX,
    PAPER_NUM_ARCS,
    PAPER_NUM_HEADINGS,
    SENSOR_RANGE_FT,
    ScenarioConfig,
    erroneous_set,
    initial_cells,
    sample_initial_state,
    target_set,
)


class TestSets:
    def test_erroneous_is_collision_cylinder(self):
        E = erroneous_set()
        inside = np.array([100.0, 100.0, 0.0, 700.0, 600.0])
        outside = np.array([1000.0, 1000.0, 0.0, 700.0, 600.0])
        assert E.contains_point(inside)
        assert not E.contains_point(outside)

    def test_target_is_outside_sensor_range(self):
        T = target_set()
        far = np.array([9000.0, 0.0, 0.0, 700.0, 600.0])
        near = np.array([1000.0, 0.0, 0.0, 700.0, 600.0])
        assert T.contains_point(far)
        assert not T.contains_point(near)

    def test_e_and_t_disjoint(self):
        """T ∩ E = ∅ (required by the model, Section 4.1)."""
        E, T = erroneous_set(), target_set()
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(-10000, 10000, size=5)
            assert not (E.contains_point(p) and T.contains_point(p))


class TestPartition:
    def test_cell_count(self):
        cells = initial_cells(8, 4)
        assert len(cells) == 32

    def test_cells_start_with_coc(self):
        for _box, command, _tags in initial_cells(4, 2):
            assert command == COC_INDEX

    def test_tags(self):
        cells = initial_cells(3, 2)
        arcs = {tags["arc"] for _b, _c, tags in cells}
        headings = {tags["heading"] for _b, _c, tags in cells}
        assert arcs == {0, 1, 2}
        assert headings == {0, 1}

    def test_cells_enclose_their_circle_arc(self):
        cells = initial_cells(16, 4)
        arc_width = 2.0 * math.pi / 16
        for i, (box, _c, tags) in enumerate(cells):
            phi = tags["arc_angle"]
            for offset in (-0.49, 0.0, 0.49):
                angle = phi + offset * arc_width
                point = np.array(
                    [
                        -SENSOR_RANGE_FT * math.sin(angle),
                        SENSOR_RANGE_FT * math.cos(angle),
                    ]
                )
                assert box.lo[0] <= point[0] <= box.hi[0]
                assert box.lo[1] <= point[1] <= box.hi[1]

    def test_fine_cells_hug_the_circle(self):
        # At the paper's arc width (0.01 rad) the box corners are within
        # a few feet of the sensor circle.
        for box, _c, _t in initial_cells(629, 1)[:10]:
            for x in (box.lo[0], box.hi[0]):
                for y in (box.lo[1], box.hi[1]):
                    assert math.hypot(x, y) == pytest.approx(
                        SENSOR_RANGE_FT, rel=0.01
                    )

    def test_velocities_fixed(self):
        box, _c, _t = initial_cells(4, 2)[0]
        assert box.lo[3] == box.hi[3] == 700.0
        assert box.lo[4] == box.hi[4] == 600.0

    def test_cells_cover_sampled_initial_states(self):
        """Every concrete state of I falls in some cell (covering)."""
        cells = initial_cells(24, 8)
        rng = np.random.default_rng(5)
        misses = 0
        for _ in range(100):
            s = sample_initial_state(rng)
            # The box covers x, y up to chord-vs-arc slack; check psi and
            # position membership with a small tolerance via inflation.
            hit = any(
                box.inflate(np.array([60.0, 60.0, 1e-9, 0.0, 0.0])).contains_point(s)
                for box, _c, _t in cells
            )
            misses += not hit
        assert misses == 0

    def test_paper_scale_counts(self):
        # Don't build the full list in one go for speed reasons; just
        # validate the documented constants multiply out to the paper's
        # partition size.
        assert PAPER_NUM_ARCS * PAPER_NUM_HEADINGS == 198764

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_cells(0, 4)


class TestSampleInitialState:
    def test_on_circle_heading_inward(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = sample_initial_state(rng)
            assert math.hypot(s[0], s[1]) == pytest.approx(SENSOR_RANGE_FT)
            # The intruder's own motion points inward; the ownship's
            # motion can make the relative radial rate positive only in
            # the extreme tangential cases.
            intruder_radial = (
                s[0] * (-600.0 * math.sin(s[2])) + s[1] * (600.0 * math.cos(s[2]))
            ) / SENSOR_RANGE_FT
            assert intruder_radial <= 1e-6


class TestSystemAssembly:
    def test_tiny_system_shape(self, tiny_system):
        assert tiny_system.name == "acasxu"
        assert len(tiny_system.commands) == 5
        assert tiny_system.horizon_steps == 20
        assert tiny_system.period == 1.0
        assert len(tiny_system.controller.networks) == 5

    def test_invalid_integrator_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(integrator="magic")

    def test_metadata_carries_tables(self, tiny_system):
        assert "tables" in tiny_system.metadata

    def test_concrete_closed_loop_step(self, tiny_system):
        """One full concrete control step through the real components."""
        rng = np.random.default_rng(2)
        s = sample_initial_state(rng)
        command = COC_INDEX
        next_command = tiny_system.controller.execute(s, command)
        assert 0 <= next_command < 5
        end = tiny_system.plant.integrator.flow_point(
            s, tiny_system.commands.value(command), 1.0
        )
        assert end.shape == (5,)
