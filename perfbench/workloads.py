"""Workload definitions: seed -> cells, and the settings each mode uses.

Imported by run.py (stdlib only at import time) and by the per-campaign
child interpreter. The program only ever sees the cells
built here; the seed stays on the benchmark's side.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: The paper's partition (Section 7.1): 629 arcs x 316 heading slices.
PAPER_ARCS = 629
PAPER_HEADINGS = 316
#: The reference pool: POOL_BANDS arc bands x POOL_PER_BAND cells each,
#: drawn once with POOL_SEED. Seeds draw their samples from this pool,
#: whose per-cell verdicts and work counters are recorded in
#: reference.json, so every seed's output can be checked.
POOL_BANDS = 64
POOL_PER_BAND = 8
POOL_SEED = 20210621
#: Cells per `paper-ring` campaign and the prefix the fleet workload
#: runs (the per-cell path is ~10x slower per cell).
RING_CELLS = 16
PREFIX_CELLS = 4
#: Which stratum of each group of RING_CELLS // PREFIX_CELLS the prefix
#: draws from, and how closely a draw must match its expected work and
#: reach runs.
PREFIX_OFFSET = 1
WORK_TOLERANCE = 0.02
RUNS_TOLERANCE = 0.05
STEPS_TOLERANCE = 0.02
#: The ROADMAP's smoke partition and how many grid rotations (seed mod
#: TINY_ROTATIONS) have a recorded reference.
TINY_ARCS = 8
TINY_HEADINGS = 3
TINY_ROTATIONS = 8

WORKLOADS = ("paper-ring", "tiny-smoke", "paper-ring-fleet")


def paper_pool() -> list[tuple[int, int]]:
    """The arc-stratified reference pool as (arc, heading) indices."""
    rng = random.Random(POOL_SEED)
    pool: list[tuple[int, int]] = []
    for band in range(POOL_BANDS):
        first = band * PAPER_ARCS // POOL_BANDS
        last = (band + 1) * PAPER_ARCS // POOL_BANDS
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < POOL_PER_BAND:
            chosen.add((rng.randrange(first, last), rng.randrange(PAPER_HEADINGS)))
        pool.extend(sorted(chosen))
    return pool


def _work(cell: dict) -> int:
    return cell["counters"]["reach.integrations"]


def _steps(cell: dict) -> int:
    return cell["counters"]["reach.steps"]


def _runs(cell: dict) -> int:
    """Reach runs in the cell's refinement tree (its signature's nodes)."""
    return cell["signature"].count("/") // 3


def ring_sample(seed: int, reference_cells: dict[str, dict]) -> list[tuple[int, int]]:
    """`paper-ring`'s cells for ``seed``: a stratified draw from the pool.

    The pool is sorted by each cell's reference work (integrations) and
    cut into RING_CELLS strata of equal size; the seed picks one cell
    per stratum. The first PREFIX_CELLS cells (the fleet workload runs
    that prefix) come from every (RING_CELLS // PREFIX_CELLS)-th stratum
    starting at PREFIX_OFFSET, so the prefix spans the work range
    without the heaviest cells. The rest is redrawn until its total work
    and reach runs are within WORK_TOLERANCE and RUNS_TOLERANCE of their
    expectation. Cell costs are heavy-tailed (the median cell is settled
    in one control step, the top tenth takes 100x longer, with up to 73
    reach runs), so without the match the seed alone would move wall
    time and throughput by more than the host's own drift. The prefix
    is redrawn until its work and its control steps are within
    WORK_TOLERANCE and STEPS_TOLERANCE of the sum of its strata's
    medians: the per-cell path makes a few small batched calls per
    step, so its time follows steps as much as work (two heaviest cells
    of equal work and 143 vs 156 steps ran 10 % apart), and a few
    380-649-step cells pull the strata's means past any 4-cell draw.
    """
    def row(cell):
        return reference_cells[f"{cell[0]},{cell[1]}"]

    pool = sorted(paper_pool(), key=lambda c: (_work(row(c)), c))
    strata = [[row(c) | {"cell": c} for c in pool[s * len(pool) // RING_CELLS:
                                              (s + 1) * len(pool) // RING_CELLS]]
              for s in range(RING_CELLS)]
    step = RING_CELLS // PREFIX_CELLS
    head = [s * step + PREFIX_OFFSET for s in range(PREFIX_CELLS)]
    rest = [s for s in range(RING_CELLS) if s not in head]
    rng = random.Random(seed)
    picks = _matched_draw(rng, [strata[s] for s in head], (_work, _steps), statistics.median)
    picks += _matched_draw(rng, [strata[s] for s in rest], (_work, _runs), statistics.mean)
    return [p["cell"] for p in picks]


def _matched_draw(rng: random.Random, strata: list, measures: tuple, centre) -> list:
    """One cell per stratum, redrawn until each measure's total is within
    its tolerance of the sum of the strata's ``centre`` (mean or median)."""
    tolerance = {_work: WORK_TOLERANCE, _runs: RUNS_TOLERANCE, _steps: STEPS_TOLERANCE}
    expected = {m: sum(centre([m(c) for c in stratum]) for stratum in strata)
                for m in measures}
    for _ in range(100_000):
        picks = [rng.choice(stratum) for stratum in strata]
        if all(abs(sum(m(c) for c in picks) / expected[m] - 1.0) <= tolerance[m]
               for m in measures):
            return picks
    raise RuntimeError("no draw matches the expected work of its strata")


def tiny_rotation(seed: int) -> float:
    """Grid offset of `tiny-smoke`, in fractions of one arc: up to 7/64,
    small enough that every rotation keeps the smoke run's 216 reach
    runs and its coverage within 6.8-7.3 %."""
    return (seed % TINY_ROTATIONS) / 64


def paper_cell(arc: int, heading: int) -> tuple:
    """Cell ``(arc, heading)`` of the paper's partition, built exactly as
    ``repro.acasxu.initial_cells(629, 316)`` builds it."""
    import numpy as np
    from repro.acasxu import initial_cell
    from repro.acasxu.scenario import COC_INDEX
    from repro.intervals import Interval

    arc_edges = np.linspace(-math.pi, math.pi, PAPER_ARCS + 1)
    heading_edges = np.linspace(-math.pi / 2.0, math.pi / 2.0, PAPER_HEADINGS + 1)
    arc_iv = Interval(arc_edges[arc], arc_edges[arc + 1])
    box = initial_cell(arc_iv, Interval(heading_edges[heading], heading_edges[heading + 1]))
    return box, COC_INDEX, {"arc": arc, "heading": heading, "arc_angle": float(arc_iv.mid)}


def build_cells(workload: str, seed: int, picks: list) -> list[tuple]:
    """``(box, command, tags)`` cells for one workload: the seed's grid
    rotation for `tiny-smoke`, else the ``(arc, heading)`` picks that
    :func:`ring_sample` drew for the seed."""
    if workload == "tiny-smoke":
        from repro.acasxu import initial_cells

        offset = tiny_rotation(seed) * 2.0 * math.pi / TINY_ARCS
        return initial_cells(
            TINY_ARCS, TINY_HEADINGS, arc_range=(-math.pi + offset, math.pi + offset)
        )
    return [paper_cell(arc, heading) for arc, heading in picks]


def runner_settings(workload: str):
    """The RunnerSettings `repro verify` builds for the workload's mode
    (paper policy: M=10, Gamma=5, depth 2; depth 1 for the smoke run)."""
    from repro.core import ReachSettings, RefinementPolicy, RunnerSettings

    lockstep = workload in ("paper-ring", "tiny-smoke")
    return RunnerSettings(
        reach=ReachSettings(substeps=10, max_symbolic_states=5, batch_states=not lockstep),
        refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=1 if workload == "tiny-smoke" else 2),
        workers=1 if lockstep else 2,
        batch_cells=lockstep,
    )


def scenario(workload: str):
    from repro.acasxu import PAPER_SCENARIO, TINY_SCENARIO

    return TINY_SCENARIO if workload == "tiny-smoke" else PAPER_SCENARIO


def cell_signature(result) -> str:
    """One cell's refinement tree as text: verdict, steps, joins and
    integrations of every node, depth first. These are identical across
    the lockstep, per-cell and fleet paths."""
    parts = [
        f"{result.verdict.value}/{result.steps_completed}/"
        f"{result.joins_performed}/{result.integrations}"
    ]
    if result.children:
        parts.append("[" + ",".join(cell_signature(c) for c in result.children) + "]")
    return "".join(parts)


def digest(signatures: list[str]) -> str:
    return hashlib.sha256("\n".join(signatures).encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
