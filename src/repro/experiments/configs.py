"""Named experiment configurations.

The paper's evaluation ran 198,764 initial cells for ~12 days on a
24-core Xeon. These presets scale the same experiment down to
laptop/CI budgets while keeping every structural element (partition
shape, refinement policy, M, Gamma); ``PAPER_SCALE`` preserves the
original numbers for anyone with the compute budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..acasxu import (
    PAPER_NUM_ARCS,
    PAPER_NUM_HEADINGS,
    PAPER_SCENARIO,
    TINY_SCENARIO,
    ScenarioConfig,
)
from ..core import ReachSettings, RefinementPolicy, RunnerSettings


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete, named ACAS Xu verification experiment."""

    name: str
    scenario: ScenarioConfig
    num_arcs: int
    num_headings: int
    runner: RunnerSettings
    description: str = ""

    @property
    def total_cells(self) -> int:
        return self.num_arcs * self.num_headings


def _runner(depth: int, workers: int, substeps: int = 10, gamma: int = 5) -> RunnerSettings:
    return RunnerSettings(
        reach=ReachSettings(substeps=substeps, max_symbolic_states=gamma),
        refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=depth),
        workers=workers,
    )


#: CI-sized smoke run (seconds).
SMOKE = ExperimentConfig(
    name="smoke",
    scenario=TINY_SCENARIO,
    num_arcs=8,
    num_headings=3,
    runner=_runner(depth=1, workers=1),
    description="24 cells, tiny networks; exercises every code path",
)

#: Benchmark default (tens of seconds).
SMALL = ExperimentConfig(
    name="small",
    scenario=TINY_SCENARIO,
    num_arcs=12,
    num_headings=4,
    runner=_runner(depth=1, workers=1),
    description="48 cells, tiny networks, depth-1 refinement",
)

#: The Fig. 9 reproduction used in EXPERIMENTS.md (minutes, 8 workers).
MEDIUM = ExperimentConfig(
    name="medium",
    scenario=TINY_SCENARIO,
    num_arcs=36,
    num_headings=6,
    runner=_runner(depth=2, workers=8),
    description="216 cells, tiny networks, the paper's depth-2 refinement",
)

#: Paper-architecture networks on a moderate partition (tens of minutes).
LARGE = ExperimentConfig(
    name="large",
    scenario=PAPER_SCENARIO,
    num_arcs=72,
    num_headings=12,
    runner=_runner(depth=2, workers=8),
    description="864 cells, 6x50 networks",
)

#: The paper's exact experiment (Section 7.1) — compute-budget permitting.
PAPER_SCALE = ExperimentConfig(
    name="paper-scale",
    scenario=PAPER_SCENARIO,
    num_arcs=PAPER_NUM_ARCS,
    num_headings=PAPER_NUM_HEADINGS,
    runner=_runner(depth=2, workers=48),
    description="198,764 cells, 6x50 networks, M=10, Gamma=5, depth-2 refinement",
)

CONFIGS: dict[str, ExperimentConfig] = {
    c.name: c for c in (SMOKE, SMALL, MEDIUM, LARGE, PAPER_SCALE)
}
