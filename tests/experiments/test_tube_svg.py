"""Tests for the flow-tube SVG renderer."""

import pytest

from repro.acasxu import ADVISORIES, initial_cells
from repro.core import ReachSettings, reach_from_box
from repro.experiments import render_tube_svg, write_tube_svg


@pytest.fixture(scope="module")
def recorded_run(tiny_acas):
    box, command, _tags = initial_cells(24, 6)[40]
    return reach_from_box(
        tiny_acas,
        box,
        command,
        ReachSettings(substeps=4, max_symbolic_states=5, record_sets=True),
    )


class TestTubeSvg:
    def test_valid_document(self, recorded_run):
        svg = render_tube_svg(recorded_run)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")

    def test_one_rect_per_segment_plus_legend(self, recorded_run):
        svg = render_tube_svg(recorded_run)
        commands = {seg.command for seg in recorded_run.tube}
        assert svg.count("<rect") == 1 + len(recorded_run.tube) + len(commands)

    def test_hazard_and_sensor_circles(self, recorded_run):
        svg = render_tube_svg(
            recorded_run, hazard_radius=500.0, sensor_radius=8000.0
        )
        assert svg.count("<circle") == 2

    def test_command_names_in_tooltips(self, recorded_run):
        svg = render_tube_svg(recorded_run, command_names=list(ADVISORIES))
        assert any(name in svg for name in ADVISORIES)

    def test_empty_run(self):
        class Empty:
            tube = []

        assert render_tube_svg(Empty()).startswith("<svg")

    def test_write_to_file(self, recorded_run, tmp_path):
        path = tmp_path / "tube.svg"
        write_tube_svg(recorded_run, path, hazard_radius=500.0)
        assert path.read_text().startswith("<svg")

    def test_run_without_recording_is_empty(self, tiny_acas):
        box, command, _tags = initial_cells(24, 6)[40]
        result = reach_from_box(
            tiny_acas, box, command, ReachSettings(substeps=4)
        )
        assert render_tube_svg(result).startswith("<svg")
