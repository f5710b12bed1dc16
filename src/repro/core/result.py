"""Verification results, the coverage metric, and report serialization.

The coverage formula is the paper's (Section 7.2):

    c = 100 / K0 * sum_d n_d / B**d

where ``K0`` is the number of top-level cells, ``n_d`` the number of
cells proved safe after ``d`` refinements and ``B`` the refinement
branching factor (``2**3`` for the paper's x0/y0/psi0 bisection). The
recursive ``coverage_fraction`` below evaluates the same quantity cell
by cell, and also handles mixed branching factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..intervals import Box
from .reach import Verdict


@dataclass
class CellResult:
    """Verification outcome for one initial cell (possibly refined)."""

    cell_id: str
    box: Box
    command: int
    verdict: Verdict
    depth: int = 0
    elapsed_seconds: float = 0.0
    steps_completed: int = 0
    joins_performed: int = 0
    integrations: int = 0
    #: How many times this cell was dispatched (0 = untracked/legacy;
    #: >1 means the supervised runner retried it after worker crashes).
    attempts: int = 0
    children: list["CellResult"] = field(default_factory=list)
    #: Free-form labels (e.g. the arc index of the ACAS partition).
    tags: dict = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED_SAFE

    @property
    def quarantined(self) -> bool:
        """The verification never completed: the supervised runner
        substituted an ``ABORTED`` (crash/exception) or ``TIMED_OUT``
        (budget) verdict. ``tags["failure"]`` carries the reason."""
        return self.verdict in (Verdict.ABORTED, Verdict.TIMED_OUT)

    def verdict_class(self) -> str:
        """``proved | witnessed | aborted | timed-out | unproved`` —
        the classification of this cell's whole refinement tree:
        *proved* when the full volume is covered, *witnessed* when any
        leaf recorded a concrete counterexample, *aborted*/*timed-out*
        when the supervised runner quarantined a leaf, else
        *unproved*. The campaign drivers publish it on the cell's
        ``cell.finished`` event, which the telemetry fold
        (:class:`repro.obs.CampaignSnapshot`, and so the progress line)
        counts; the run ledger counts it through
        :meth:`VerificationReport.verdict_counts`."""
        if self.coverage_fraction() >= 1.0:
            return "proved"
        leaves = self.leaves()
        if any("witness" in leaf.tags for leaf in leaves):
            return "witnessed"
        if any(leaf.verdict is Verdict.ABORTED for leaf in leaves):
            return "aborted"
        if any(leaf.verdict is Verdict.TIMED_OUT for leaf in leaves):
            return "timed-out"
        return "unproved"

    def coverage_fraction(self) -> float:
        """Fraction of this cell's volume proved safe, per the paper's
        weighting (each refinement level divides the weight by the
        branching factor)."""
        if self.proved:
            return 1.0
        if not self.children:
            return 0.0
        return sum(c.coverage_fraction() for c in self.children) / len(self.children)

    def total_elapsed(self) -> float:
        """This cell's time including every refinement descendant."""
        return self.elapsed_seconds + sum(c.total_elapsed() for c in self.children)

    def count_by_depth(self, counts: dict[int, int] | None = None) -> dict[int, int]:
        """``n_d``: proved cells per refinement depth (paper formula)."""
        counts = counts if counts is not None else {}
        if self.proved:
            counts[self.depth] = counts.get(self.depth, 0) + 1
        for child in self.children:
            child.count_by_depth(counts)
        return counts

    def leaves(self) -> list["CellResult"]:
        """Unrefined descendants (the final verdict map, Fig. 9a)."""
        if not self.children:
            return [self]
        out: list[CellResult] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def to_dict(self) -> dict:
        return {
            "cell_id": self.cell_id,
            "lo": self.box.lo.tolist(),
            "hi": self.box.hi.tolist(),
            "command": self.command,
            "verdict": self.verdict.value,
            "depth": self.depth,
            "elapsed_seconds": self.elapsed_seconds,
            "steps_completed": self.steps_completed,
            "joins_performed": self.joins_performed,
            "integrations": self.integrations,
            "attempts": self.attempts,
            "tags": self.tags,
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(payload: dict) -> "CellResult":
        return CellResult(
            cell_id=payload["cell_id"],
            box=Box(payload["lo"], payload["hi"]),
            command=payload["command"],
            verdict=Verdict(payload["verdict"]),
            depth=payload["depth"],
            elapsed_seconds=payload["elapsed_seconds"],
            steps_completed=payload["steps_completed"],
            joins_performed=payload.get("joins_performed", 0),
            integrations=payload.get("integrations", 0),
            attempts=payload.get("attempts", 0),
            tags=payload.get("tags", {}),
            children=[CellResult.from_dict(c) for c in payload.get("children", [])],
        )


@dataclass
class VerificationReport:
    """Aggregated outcome over a whole initial-set partition."""

    cells: list[CellResult] = field(default_factory=list)
    system_name: str = ""
    settings_summary: dict = field(default_factory=dict)
    #: Merged metrics snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`)
    #: covering the whole run, workers included. Empty when no recorder
    #: was installed.
    metrics: dict = field(default_factory=dict)
    #: End-to-end wall time of the producing run (set by
    #: :func:`repro.core.runner.verify_partition`); unlike
    #: :meth:`total_elapsed` it does not multiply-count parallel
    #: workers, so it is what the run ledger records.
    wall_seconds: float = 0.0

    @property
    def total_cells(self) -> int:
        return len(self.cells)

    def coverage_percent(self) -> float:
        """The paper's coverage metric ``c`` (Section 7.2)."""
        if not self.cells:
            return 0.0
        return 100.0 * sum(c.coverage_fraction() for c in self.cells) / len(self.cells)

    def verdict_counts(self) -> dict[str, int]:
        """Verdict counts over top-level cells, classified by
        :meth:`CellResult.verdict_class`, the class each cell's
        ``cell.finished`` event carries to the telemetry fold. Feeds the
        run ledger, the run summary and the ``campaign.finished``
        event."""
        counts = {
            "proved": 0,
            "unproved": 0,
            "witnessed": 0,
            "aborted": 0,
            "timed-out": 0,
            "total": len(self.cells),
        }
        for cell in self.cells:
            counts[cell.verdict_class()] += 1
        return counts

    def quarantined_cells(self) -> list[CellResult]:
        """Cells whose verification never completed (``ABORTED`` /
        ``TIMED_OUT`` anywhere in their tree) — the rerun worklist
        after a faulty campaign."""
        return [
            cell
            for cell in self.cells
            if any(leaf.quarantined for leaf in cell.leaves())
        ]

    def proved_count_by_depth(self) -> dict[int, int]:
        """``n_d`` aggregated over all cells."""
        counts: dict[int, int] = {}
        for cell in self.cells:
            cell.count_by_depth(counts)
        return counts

    def total_elapsed(self) -> float:
        return sum(c.total_elapsed() for c in self.cells)

    def unproved_leaves(self) -> list[CellResult]:
        """Leaf regions still unproved (candidates for falsification)."""
        return [leaf for cell in self.cells for leaf in cell.leaves() if not leaf.proved]

    def lookup(self, point, command: int) -> CellResult | None:
        """The finest leaf whose box contains ``point`` with matching
        command (used by the runtime monitor)."""
        for cell in self.cells:
            if cell.command == command and cell.box.contains_point(point):
                node = cell
                while node.children:
                    child = next(
                        (c for c in node.children if c.box.contains_point(point)),
                        None,
                    )
                    if child is None:
                        break
                    node = child
                return node
        return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path) -> None:
        payload = {
            "system_name": self.system_name,
            "settings": self.settings_summary,
            "wall_seconds": self.wall_seconds,
            "cells": [c.to_dict() for c in self.cells],
        }
        if self.metrics:
            payload["metrics"] = self.metrics
        with open(path, "w") as out:
            json.dump(payload, out)

    @staticmethod
    def from_json(path: str | Path) -> "VerificationReport":
        with open(path) as handle:
            payload = json.load(handle)
        return VerificationReport(
            cells=[CellResult.from_dict(c) for c in payload["cells"]],
            system_name=payload.get("system_name", ""),
            settings_summary=payload.get("settings", {}),
            metrics=payload.get("metrics", {}),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )

    def to_csv(self, path: str | Path) -> None:
        """Flat per-leaf CSV (one row per final verdict region)."""
        with open(path, "w") as out:
            out.write("cell_id,depth,command,verdict,elapsed_seconds,")
            out.write("lo,hi\n")
            for cell in self.cells:
                for leaf in cell.leaves():
                    lo = ";".join(f"{v:.9g}" for v in leaf.box.lo)
                    hi = ";".join(f"{v:.9g}" for v in leaf.box.hi)
                    out.write(
                        f"{leaf.cell_id},{leaf.depth},{leaf.command},"
                        f"{leaf.verdict.value},{leaf.elapsed_seconds:.6f},"
                        f"{lo},{hi}\n"
                    )

    def summary(self) -> str:
        counts = self.proved_count_by_depth()
        lines = [
            f"system: {self.system_name}",
            f"cells: {self.total_cells}",
            f"coverage: {self.coverage_percent():.2f}%",
            f"proved by depth: {dict(sorted(counts.items()))}",
            f"total time: {self.total_elapsed():.2f}s",
        ]
        return "\n".join(lines)
