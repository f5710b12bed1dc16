"""Tests for the SVG safety-map renderer."""

from repro.core import CellResult, Verdict, VerificationReport
from repro.experiments import render_fig9a_svg, write_fig9a_svg
from repro.intervals import Box


def make_report(num_arcs=6, num_headings=2, proved_arcs=(0, 1, 2)):
    cells = []
    for a in range(num_arcs):
        for h in range(num_headings):
            cells.append(
                CellResult(
                    cell_id=f"{a}-{h}",
                    box=Box([0.0] * 5, [1.0] * 5),
                    command=0,
                    verdict=(
                        Verdict.PROVED_SAFE
                        if a in proved_arcs
                        else Verdict.POSSIBLY_UNSAFE
                    ),
                    tags={"arc": a, "heading": h},
                )
            )
    return VerificationReport(cells=cells)


class TestSvgRenderer:
    def test_valid_document(self):
        svg = render_fig9a_svg(make_report())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "xmlns" in svg

    def test_one_sector_per_cell(self):
        report = make_report(num_arcs=5, num_headings=3)
        svg = render_fig9a_svg(report)
        assert svg.count("<path") == 15

    def test_colors_reflect_verdicts(self):
        svg = render_fig9a_svg(make_report(proved_arcs=(0,)))
        # Proved cells green-ish, unproved red-ish.
        assert "rgb(30,160,60)" in svg
        assert "rgb(200,40,60)" in svg

    def test_tooltips_carry_cell_info(self):
        svg = render_fig9a_svg(make_report())
        assert "arc 0, heading 0" in svg
        assert "100% proved" in svg
        assert "0% proved" in svg

    def test_empty_report(self):
        svg = render_fig9a_svg(VerificationReport())
        assert svg.startswith("<svg")

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "map.svg"
        write_fig9a_svg(make_report(), path)
        content = path.read_text()
        assert content.startswith("<svg")

    def test_custom_size(self):
        svg = render_fig9a_svg(make_report(), size=200)
        assert "width='200'" in svg
