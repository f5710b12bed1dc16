"""Parallel verification over an initial-set partition (Section 7.1).

The paper observes that the ``K0`` initial cells are independent
verification problems, so the partition is embarrassingly parallel.
:func:`verify_partition` distributes cells over a *supervised* worker
pool (:mod:`repro.core.supervisor` — fork-based, so the closed-loop
system object does not need to be picklable) and applies split
refinement to cells that fail. The execution layer is fault-tolerant:
worker crashes are retried and then quarantined as ``ABORTED``, cells
exceeding their wall-clock budget become ``TIMED_OUT``, a campaign
deadline or SIGINT/SIGTERM drains in-flight cells and returns a
partial report.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..intervals import Box
from ..obs import get_recorder
from ..obs.live import HeartbeatReporter, get_bus
from .partition import RefinementPolicy
from .reach import ReachSettings, Verdict, reach_from_box, reach_many
from .symbolic import SymbolicSet, SymbolicState
from .result import CellResult, VerificationReport
from .supervisor import (
    BudgetExceeded,
    budget_guard,
    merge_worker_traces,
    run_cell_guarded,
    run_supervised,
    trap_shutdown_signals,
)
from .system import ClosedLoopSystem

logger = logging.getLogger("repro.core.runner")

#: Optional counterexample search invoked on failed cells before
#: refinement: (system, box, command) -> concrete unsafe initial state,
#: or None. Section 8 suggests coupling the procedure with an efficient
#: falsification strategy; a found witness proves the cell genuinely
#: unsafe, so refining it further would be wasted work.
WitnessSearch = Callable[[ClosedLoopSystem, Box, int], Optional[np.ndarray]]


@dataclass(frozen=True)
class RunnerSettings:
    """Per-cell reachability settings, the refinement policy, and the
    fault-tolerance budgets enforced by the supervised runner."""

    reach: ReachSettings = field(default_factory=ReachSettings)
    refinement: RefinementPolicy | None = None
    workers: int = 1
    witness_search: WitnessSearch | None = None
    #: Wall-clock budget per top-level cell in seconds, refinement
    #: included (None = unbounded). Enforced in-process via SIGALRM and,
    #: for workers hung in native code, by a supervisor kill; either way
    #: the cell degrades to ``Verdict.TIMED_OUT``.
    cell_timeout: float | None = None
    #: Campaign wall-clock budget in seconds (None = unbounded). Once
    #: exceeded, no further cells are dispatched; in-flight cells drain
    #: and the report is partial.
    deadline: float | None = None
    #: How many times a cell whose worker died is retried (on a fresh
    #: worker, with exponential backoff) before being quarantined as
    #: ``Verdict.ABORTED``.
    max_retries: int = 1
    #: Base of the exponential retry backoff, in seconds.
    retry_backoff: float = 0.25
    #: Wall-clock budget for the ``witness_search`` hook per cell
    #: (None = unbounded); a timed-out search counts as "no witness
    #: found" and refinement proceeds.
    witness_timeout: float | None = None
    #: Verify the partition in lockstep *waves*: all cells (and, per
    #: refinement round, all child cells) advance through the control
    #: steps together in one :func:`~repro.core.reach.reach_many` call,
    #: so every step issues one batched integrator call over the whole
    #: wave's symbolic states. Otherwise each cell runs on its own, one
    #: :func:`~repro.core.reach.reach` per refinement node; verdicts and
    #: result trees are the same either way. Serial mode only
    #: (``workers == 1``) and incompatible with the per-cell/campaign
    #: wall-clock budgets, which are enforced per dispatched cell.
    batch_cells: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.witness_timeout is not None and self.witness_timeout <= 0:
            raise ValueError("witness_timeout must be positive (or None)")
        if self.batch_cells:
            if self.workers != 1:
                raise ValueError("batch_cells requires workers == 1")
            if self.cell_timeout is not None or self.deadline is not None:
                raise ValueError(
                    "batch_cells is incompatible with cell_timeout/deadline "
                    "(budgets are enforced per dispatched cell)"
                )


def _search_witness(
    system: ClosedLoopSystem,
    result: CellResult,
    settings: RunnerSettings,
    depth: int,
) -> bool:
    """Run the falsification hook on a failed cell (Section 8 coupling).

    Returns True when a concrete counterexample was found — the cell is
    genuinely unsafe, so split refinement cannot rescue it and the
    caller should skip it. A timed-out search counts as "no witness"."""
    rec = get_recorder()
    cell_id = result.cell_id
    witness = None
    try:
        with budget_guard(settings.witness_timeout, scope="witness"):
            with rec.span("witness_search", cell_id=cell_id):
                witness = settings.witness_search(system, result.box, result.command)
    except BudgetExceeded as exc:
        if exc.scope != "witness":
            raise
        # A stuck falsifier must not stall the cell: treat it as
        # "no witness found" and fall through to refinement.
        result.tags["witness_timeout"] = exc.seconds
        rec.inc("runner.witness_timeouts")
        rec.event("runner.witness_timeout", cell_id=cell_id, budget_seconds=exc.seconds)
        logger.warning(
            "witness search on %s exceeded its %.3gs budget; refining instead",
            cell_id, exc.seconds,
        )
    if witness is None:
        return False
    result.tags["witness"] = [float(v) for v in np.asarray(witness)]
    rec.inc("runner.witnesses")
    rec.event("runner.witness", cell_id=cell_id, depth=depth)
    return True


def verify_cell(
    system: ClosedLoopSystem,
    box: Box,
    command: int,
    settings: RunnerSettings,
    cell_id: str = "cell",
    depth: int = 0,
) -> CellResult:
    """Verify one initial cell, split-refining on failure (Section 7.1).

    The refinement recursion matches the paper: a cell that cannot be
    proved safe is bisected (per the policy) and every child is retried,
    down to ``max_depth``.
    """
    rec = get_recorder()
    started = time.perf_counter()
    with rec.span("cell", cell_id=cell_id, depth=depth, command=command):
        outcome = reach_from_box(system, box, command, settings.reach)
    elapsed = time.perf_counter() - started
    result = CellResult(
        cell_id=cell_id,
        box=box,
        command=command,
        verdict=outcome.verdict,
        depth=depth,
        elapsed_seconds=elapsed,
        steps_completed=outcome.steps_completed,
        joins_performed=outcome.joins_performed,
        integrations=outcome.integrations,
    )
    rec.inc(f"runner.verdict.{outcome.verdict.value}")
    if result.verdict is not Verdict.PROVED_SAFE and settings.witness_search:
        if _search_witness(system, result, settings, depth):
            return result
    policy = settings.refinement
    if (
        result.verdict is not Verdict.PROVED_SAFE
        and policy is not None
        and depth < policy.max_depth
    ):
        rec.inc("runner.refinements")
        with rec.span("refine", cell_id=cell_id, depth=depth + 1):
            for i, child_box in enumerate(policy.children(box)):
                result.children.append(
                    verify_cell(
                        system,
                        child_box,
                        command,
                        settings,
                        cell_id=f"{cell_id}.{i}",
                        depth=depth + 1,
                    )
                )
    return result


# ----------------------------------------------------------------------
# Lockstep (batched) driver
# ----------------------------------------------------------------------
def _verify_cells_lockstep(
    system: ClosedLoopSystem,
    tasks: Sequence[tuple[str, Box, int, dict]],
    settings: RunnerSettings,
) -> list[CellResult]:
    """Verify every cell in lockstep waves (``batch_cells`` mode).

    Wave 0 holds the top-level cells; each refinement round collects
    every failed cell's children into the next wave. Within a wave,
    :func:`~repro.core.reach.reach_many` advances all cells through the
    control steps together, so each step issues one batched integrator
    call over the whole wave. Verdicts, refinement decisions and the
    result tree are identical to the sequential :func:`verify_cell`
    recursion; only the grouping of work (and hence the per-cell
    ``elapsed_seconds`` attribution) differs.
    """
    rec = get_recorder()
    policy = settings.refinement
    top_results: list[CellResult] = []
    wave: list[dict] = []
    for slot, (cell_id, box, command, _tags) in enumerate(tasks):
        wave.append(
            {
                "cell_id": cell_id,
                "box": box,
                "command": command,
                "depth": 0,
                "parent": None,
                "slot": slot,
            }
        )
        top_results.append(None)  # type: ignore[arg-type]
    while wave:
        initials = [
            SymbolicSet([SymbolicState(t["box"], t["command"])]) for t in wave
        ]
        outcomes = reach_many(system, initials, settings.reach)
        next_wave: list[dict] = []
        for task, outcome in zip(wave, outcomes):
            depth = task["depth"]
            result = CellResult(
                cell_id=task["cell_id"],
                box=task["box"],
                command=task["command"],
                verdict=outcome.verdict,
                depth=depth,
                elapsed_seconds=outcome.elapsed_seconds,
                steps_completed=outcome.steps_completed,
                joins_performed=outcome.joins_performed,
                integrations=outcome.integrations,
            )
            rec.inc(f"runner.verdict.{outcome.verdict.value}")
            # Keep the "cell" phase populated for dashboards and the
            # ledger: the per-cell driver gets it from its "cell" span,
            # here it is the wave-proportional elapsed attribution.
            rec.observe("cell.seconds", outcome.elapsed_seconds)
            witnessed = False
            if result.verdict is not Verdict.PROVED_SAFE and settings.witness_search:
                witnessed = _search_witness(system, result, settings, depth)
            if (
                not witnessed
                and result.verdict is not Verdict.PROVED_SAFE
                and policy is not None
                and depth < policy.max_depth
            ):
                rec.inc("runner.refinements")
                for i, child_box in enumerate(policy.children(task["box"])):
                    next_wave.append(
                        {
                            "cell_id": f"{task['cell_id']}.{i}",
                            "box": child_box,
                            "command": task["command"],
                            "depth": depth + 1,
                            "parent": result,
                            "slot": None,
                        }
                    )
            if task["parent"] is None:
                top_results[task["slot"]] = result
            else:
                task["parent"].children.append(result)
        wave = next_wave
    return top_results


# ----------------------------------------------------------------------
# Parallel driver
# ----------------------------------------------------------------------
def _notify_progress(progress, done: int, total: int, result: CellResult) -> None:
    """Feed either callback style: rich (``update(done, total, result)``,
    e.g. :class:`repro.obs.CampaignProgress`) or the legacy bare
    ``(done, total)`` callable.

    A raising callback is *logged and counted*, never propagated: a
    broken progress bar must not abort a multi-day campaign.
    """
    if progress is None:
        return
    try:
        update = getattr(progress, "update", None)
        if update is not None:
            update(done, total, result)
        else:
            progress(done, total)
    except Exception as exc:
        rec = get_recorder()
        rec.inc("runner.progress_errors")
        rec.event("runner.progress_error", error=type(exc).__name__, done=done)
        logger.warning(
            "progress callback raised %s: %s (campaign continues)",
            type(exc).__name__, exc,
        )


def _settings_summary(settings: RunnerSettings, interrupted: str | None) -> dict:
    summary = {
        "substeps": settings.reach.substeps,
        "max_symbolic_states": settings.reach.max_symbolic_states,
        "refinement_depth": settings.refinement.max_depth if settings.refinement else 0,
        "workers": settings.workers,
        "cell_timeout": settings.cell_timeout,
        "deadline": settings.deadline,
        "max_retries": settings.max_retries,
        "batch_cells": settings.batch_cells,
    }
    if interrupted:
        summary["interrupted"] = interrupted
    return summary


def verify_partition(
    system_factory: Callable[[], ClosedLoopSystem],
    cells: Sequence[tuple[Box, int]] | Sequence[tuple[Box, int, dict]],
    settings: RunnerSettings | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> VerificationReport:
    """Verify every initial cell of a partition.

    ``cells`` is a sequence of ``(box, command)`` or
    ``(box, command, tags)`` tuples. ``system_factory`` builds the
    closed-loop system — called once in serial mode, once per worker in
    parallel mode (fork start method, so closures are fine). A worker
    whose factory call raises surfaces as a ``RuntimeError`` naming the
    worker and the underlying error.

    ``progress`` is either a bare ``(done, total)`` callable or a rich
    observer with an ``update(done, total, result)`` method (see
    :class:`repro.obs.CampaignProgress` for rate/ETA/verdict counts).

    With ``settings.workers > 1`` the cells run on the supervised pool
    (:func:`repro.core.supervisor.run_supervised`): crashes retry then
    quarantine as ``ABORTED``, budget overruns become ``TIMED_OUT``,
    and a deadline or SIGINT/SIGTERM yields a partial report
    (``settings_summary["interrupted"]`` names the reason).

    When a live :class:`repro.obs.Recorder` is installed, workers
    stream spans to per-worker JSONL files (merged into the parent's
    trace at the end) and ship per-cell metric deltas back; the merged
    snapshot lands in ``report.metrics``.
    """
    settings = settings or RunnerSettings()
    run_started = time.perf_counter()
    tasks = []
    for i, cell in enumerate(cells):
        box, command = cell[0], cell[1]
        tags = dict(cell[2]) if len(cell) > 2 else {}
        tasks.append((f"cell-{i}", box, command, tags))

    rec = get_recorder()
    bus = get_bus()
    bus.publish(
        "campaign.started",
        total=len(tasks),
        workers=settings.workers,
        pid=os.getpid(),
    )
    interrupted: str | None = None
    results: list[CellResult]
    if settings.batch_cells:
        # Lockstep wave mode: every control step issues one batched
        # integrator call over all live cells. No per-cell dispatch,
        # budgets or interrupt draining — the wave runs to completion
        # (RunnerSettings rejects batch_cells + budgets up front).
        system = system_factory()
        if bus.enabled:
            bus.publish("worker.ready", worker=0, pid=os.getpid())
        results = _verify_cells_lockstep(system, tasks, settings)
        for i, ((cell_id, _box, _command, tags), result) in enumerate(
            zip(tasks, results)
        ):
            result.tags.update(tags)
            bus.publish(
                "cell.finished",
                worker=0,
                cell_id=cell_id,
                seq=i,
                verdict=result.verdict.value,
                verdict_class=result.verdict_class(),
                elapsed=result.elapsed_seconds,
            )
            _notify_progress(progress, i + 1, len(tasks), result)
    elif settings.workers == 1:
        system = system_factory()
        results = []
        # The serial driver is its own "worker 0": a heartbeat thread
        # beats from this process so stall detection (`repro watch`)
        # works for single-worker campaigns too.
        reporter = None
        if bus.enabled:
            bus.publish("worker.ready", worker=0, pid=os.getpid())
            reporter = HeartbeatReporter(
                lambda payload: bus.publish("worker.heartbeat", worker=0, **payload),
                bus.heartbeat_interval or 1.0,
            ).start()
        try:
            with trap_shutdown_signals() as stop:
                deadline_at = (
                    time.monotonic() + settings.deadline if settings.deadline else None
                )
                for i, (cell_id, box, command, tags) in enumerate(tasks):
                    if stop.requested:
                        interrupted = stop.reason
                    elif deadline_at is not None and time.monotonic() >= deadline_at:
                        interrupted = "deadline"
                    if interrupted:
                        rec.event(
                            "campaign.interrupted",
                            reason=interrupted,
                            dropped_cells=len(tasks) - i,
                        )
                        bus.publish(
                            "campaign.interrupted",
                            reason=interrupted,
                            dropped_cells=len(tasks) - i,
                        )
                        logger.warning(
                            "campaign interrupted (%s): %d cells not run",
                            interrupted, len(tasks) - i,
                        )
                        break
                    bus.publish(
                        "cell.dispatched", worker=0, cell_id=cell_id, seq=i, attempt=0
                    )
                    if reporter is not None:
                        reporter.begin_cell(cell_id)
                    result = run_cell_guarded(system, box, command, settings, cell_id)
                    result.tags.update(tags)
                    if reporter is not None:
                        reporter.end_cell()
                    bus.publish(
                        "cell.finished",
                        worker=0,
                        cell_id=cell_id,
                        seq=i,
                        verdict=result.verdict.value,
                        verdict_class=result.verdict_class(),
                        elapsed=result.elapsed_seconds,
                    )
                    results.append(result)
                    _notify_progress(progress, i + 1, len(tasks), result)
        finally:
            if reporter is not None:
                reporter.stop()
    else:
        done = 0

        def on_result(seq: int, result: CellResult) -> None:
            nonlocal done
            done += 1
            _notify_progress(progress, done, len(tasks), result)

        outcome = run_supervised(system_factory, tasks, settings, on_result=on_result)
        interrupted = outcome.interrupted
        results = [outcome.results[i] for i in sorted(outcome.results)]
        merge_worker_traces(rec)

    report = VerificationReport(cells=results)
    report.wall_seconds = time.perf_counter() - run_started
    report.settings_summary = _settings_summary(settings, interrupted)
    if rec.enabled:
        report.metrics = rec.metrics.snapshot()
    bus.publish(
        "campaign.finished",
        interrupted=interrupted,
        verdicts=report.verdict_counts(),
        coverage=report.coverage_percent(),
        wall_seconds=report.wall_seconds,
    )
    return report
