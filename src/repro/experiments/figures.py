"""Data generators for every figure of the paper's evaluation.

* Fig. 7 — enclosure tightness vs the number of integration substeps M;
* Fig. 9a — the safe/not-proved map over initial states;
* Fig. 9b — per-arc coverage and verification time;
* the Section 7.2 headline numbers (coverage ``c``, n_d counts, total
  time) plus the scaling extrapolation to the paper's partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..acasxu import initial_cell, initial_cells
from ..core import VerificationReport, verify_partition
from ..intervals import Interval
from .configs import ExperimentConfig


# ----------------------------------------------------------------------
# Fig. 7 — substep ablation
# ----------------------------------------------------------------------
@dataclass
class SubstepRow:
    """One Fig. 7 data point."""

    substeps: int
    #: Area of the (x, y) projection of the single-box tube enclosure
    #: (square feet) — what Fig. 7 visualizes shrinking with M.
    tube_xy_area: float
    end_max_width: float
    elapsed_seconds: float


def fig7_substep_ablation(
    system,
    substep_values: tuple[int, ...] = (1, 2, 4, 10),
    arc_center: float = 0.35,
    heading_center: float = 0.2,
    command: int = 4,
    arc_width: float = 0.05,
) -> list[SubstepRow]:
    """Integrate one control period from a representative initial box
    with increasing M; larger M must give a tighter tube (Fig. 7)."""
    box = initial_cell(
        Interval(arc_center, arc_center + arc_width),
        Interval(heading_center, heading_center + arc_width),
    )
    u = system.commands.value(command)
    rows: list[SubstepRow] = []
    for m in substep_values:
        start = time.perf_counter()
        pipe = system.plant.flow(0.0, system.period, box, u, m)
        elapsed = time.perf_counter() - start
        hull = pipe.enclosure()
        rows.append(
            SubstepRow(
                substeps=m,
                tube_xy_area=float(hull.widths[0] * hull.widths[1]),
                end_max_width=pipe.end_box.max_width,
                elapsed_seconds=elapsed,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — the partition run and its groupings
# ----------------------------------------------------------------------
def run_experiment(
    config: ExperimentConfig,
    progress=None,
    journal=None,
) -> VerificationReport:
    """Run the full partition verification for a named experiment,
    resuming from (and appending to) ``journal`` when one is given."""
    from ..acasxu import build_system

    cells = initial_cells(config.num_arcs, config.num_headings)
    report = verify_partition(
        lambda: build_system(config.scenario),
        cells,
        config.runner,
        progress=progress,
        journal=journal,
    )
    report.system_name = f"acasxu/{config.name}"
    report.settings_summary["num_arcs"] = config.num_arcs
    report.settings_summary["num_headings"] = config.num_headings
    return report


@dataclass
class ArcProfileRow:
    """One Fig. 9b bar: an arc of initial positions."""

    arc: int
    arc_angle: float
    coverage_percent: float
    elapsed_seconds: float
    cells: int


def fig9b_arc_profile(report: VerificationReport) -> list[ArcProfileRow]:
    """Group the report by arc index (Fig. 9b's 500 ft bars)."""
    groups: dict[int, list] = {}
    for cell in report.cells:
        groups.setdefault(cell.tags.get("arc", 0), []).append(cell)
    rows = []
    for arc in sorted(groups):
        cells = groups[arc]
        coverage = 100.0 * sum(c.coverage_fraction() for c in cells) / len(cells)
        rows.append(
            ArcProfileRow(
                arc=arc,
                arc_angle=float(cells[0].tags.get("arc_angle", 0.0)),
                coverage_percent=coverage,
                elapsed_seconds=sum(c.total_elapsed() for c in cells),
                cells=len(cells),
            )
        )
    return rows


def fig9a_grid(report: VerificationReport) -> dict[tuple[int, int], float]:
    """Per-(arc, heading) proved fraction (Fig. 9a's green/red map)."""
    grid: dict[tuple[int, int], float] = {}
    for cell in report.cells:
        key = (cell.tags.get("arc", 0), cell.tags.get("heading", 0))
        grid[key] = cell.coverage_fraction()
    return grid


@dataclass
class SymmetryCheck:
    """Fig. 9b's observation: results are ~symmetric w.r.t. x0 = 0."""

    mean_abs_coverage_gap: float
    max_abs_coverage_gap: float
    pairs: int


def symmetry_check(rows: list[ArcProfileRow]) -> SymmetryCheck:
    """Compare each arc with its mirror (arc angle negated)."""
    by_angle = {round(r.arc_angle, 6): r for r in rows}
    gaps = []
    for angle, row in by_angle.items():
        mirror = by_angle.get(round(-angle, 6))
        if mirror is not None and mirror is not row:
            gaps.append(abs(row.coverage_percent - mirror.coverage_percent))
    if not gaps:
        return SymmetryCheck(0.0, 0.0, 0)
    return SymmetryCheck(
        mean_abs_coverage_gap=float(np.mean(gaps)),
        max_abs_coverage_gap=float(np.max(gaps)),
        pairs=len(gaps),
    )


# ----------------------------------------------------------------------
# Headline numbers (Section 7.2)
# ----------------------------------------------------------------------
@dataclass
class Headline:
    """The Section 7.2 summary: coverage, n_d, time, extrapolation."""

    coverage_percent: float
    proved_by_depth: dict[int, int]
    total_cells: int
    total_elapsed_seconds: float
    seconds_per_cell: float
    #: Naive single-thread extrapolation to the paper's 198,764 cells.
    paper_scale_estimate_days: float


def headline(report: VerificationReport) -> Headline:
    total = report.total_elapsed()
    per_cell = total / max(report.total_cells, 1)
    return Headline(
        coverage_percent=report.coverage_percent(),
        proved_by_depth=report.proved_count_by_depth(),
        total_cells=report.total_cells,
        total_elapsed_seconds=total,
        seconds_per_cell=per_cell,
        paper_scale_estimate_days=per_cell * 198_764 / 86_400.0,
    )
