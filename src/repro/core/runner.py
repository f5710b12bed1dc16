"""Parallel verification over an initial-set partition (Section 7.1).

The paper observes that the ``K0`` initial cells are independent
verification problems, so the partition is embarrassingly parallel.
:func:`verify_partition` distributes cells over a *supervised* worker
pool (:mod:`repro.core.supervisor` — fork-based, so the closed-loop
system object does not need to be picklable) and applies split
refinement to cells that fail, each refinement round as one lockstep
wave of reach runs. A serial campaign runs its cells in chunks, each
chunk one lockstep wave-driver call. The execution layer is
fault-tolerant: worker crashes are retried and then quarantined as
``ABORTED``, cells exceeding their wall-clock budget become
``TIMED_OUT``, a campaign deadline or SIGINT/SIGTERM stops at the next
wave boundary (serial) or drains in-flight cells (pool) and returns a
partial report. With a journal the campaign resumes where it stopped.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..intervals import Box
from ..obs import CampaignProgress, Recorder, get_recorder, use_recorder
from .checkpoint import _cell_key, _JournalWriter, replay_journal
from .partition import RefinementPolicy
from .reach import ReachSettings, Verdict, reach_many
from .symbolic import SymbolicSet, SymbolicState
from .result import CellResult, VerificationReport
from .supervisor import run_serial, run_supervised
from .system import ClosedLoopSystem

logger = logging.getLogger("repro.core.runner")


@dataclass(frozen=True)
class RunnerSettings:
    """Per-cell reachability settings, the refinement policy, and the
    fault-tolerance budgets enforced by the campaign executors."""

    reach: ReachSettings = field(default_factory=ReachSettings)
    refinement: RefinementPolicy | None = None
    workers: int = 1
    #: Wall-clock budget per top-level cell in seconds, refinement
    #: included (None = unbounded). Enforced in-process via SIGALRM and,
    #: for workers hung in native code, by a supervisor kill; either way
    #: the cell degrades to ``Verdict.TIMED_OUT``. The budget needs the
    #: cell to run alone, so a serial campaign with one runs its cells
    #: one at a time.
    cell_timeout: float | None = None
    #: Campaign wall-clock budget in seconds (None = unbounded). Once
    #: exceeded, a serial campaign stops at the next wave boundary,
    #: keeping the trees finished so far, and the pool stops dispatching
    #: and drains its in-flight cells; the report is partial.
    deadline: float | None = None
    #: How many times a cell whose worker died is retried (on a fresh
    #: worker, with exponential backoff) before being quarantined as
    #: ``Verdict.ABORTED``.
    max_retries: int = 1
    #: Base of the exponential retry backoff, in seconds.
    retry_backoff: float = 0.25
    #: Accepted and ignored: every serial campaign runs chunked lockstep
    #: waves. Kept only because the campaign benchmark still passes it.
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


def verify_cell(
    system: ClosedLoopSystem,
    box: Box,
    command: int,
    settings: RunnerSettings,
    cell_id: str = "cell",
) -> CellResult:
    """Verify one initial cell, split-refining on failure (Section 7.1).

    The refinement matches the paper: a cell that cannot be proved safe
    is bisected (per the policy) and every child is retried, down to
    ``max_depth``. This is the one-cell call of the lockstep driver, so
    each refinement round of the cell (all children of one depth) runs
    as one :func:`~repro.core.reach.reach_many` wave.
    """
    return _verify_cells_lockstep(system, [(cell_id, box, command, {})], settings)[0]


# ----------------------------------------------------------------------
# Lockstep (batched) driver
# ----------------------------------------------------------------------
def _record_tree_spans(rec, node: CellResult) -> None:
    """Write one finished tree's spans: a ``cell`` span per node (its
    ``elapsed_seconds``) and a ``refine`` span per refined node (its
    descendants' summed ``elapsed_seconds``)."""
    rec.record_span(
        "cell",
        node.elapsed_seconds,
        cell_id=node.cell_id,
        depth=node.depth,
        command=node.command,
    )
    for child in node.children:
        _record_tree_spans(rec, child)
    if node.children:
        below = sum(child.total_elapsed() for child in node.children)
        rec.record_span("refine", below, cell_id=node.cell_id, depth=node.depth + 1)


def _verify_cells_lockstep(
    system: ClosedLoopSystem,
    tasks: Sequence[tuple[str, Box, int, dict]],
    settings: RunnerSettings,
    on_tree: Callable[[int, CellResult], None] | None = None,
    stop: Callable[[], bool] | None = None,
) -> list[CellResult]:
    """Verify every cell in lockstep waves.

    Wave 0 holds the top-level cells; each refinement round collects
    every failed cell's children into the next wave. Within a wave,
    :func:`~repro.core.reach.reach_many` advances all cells through the
    control steps together, so each step issues one batched integrator
    call over the whole wave. A cell's children keep their index order,
    so its result tree does not depend on what else shares its waves;
    only the per-cell ``elapsed_seconds`` attribution does.

    As soon as the last node of a top-level tree finishes, the tree's
    ``cell`` and ``refine`` spans are recorded and ``on_tree(index,
    result)`` is called, so campaign progress arrives tree by tree.
    Returns the top-level results in task order.

    ``stop()`` is asked before each wave; once it is true the driver
    returns at once, and only the trees already handed to ``on_tree``
    are complete.
    """
    rec = get_recorder()
    policy = settings.refinement
    roots: list[CellResult | None] = [None] * len(tasks)
    # Unfinished nodes per top-level tree: a tree is done at zero.
    pending = [1] * len(tasks)
    # (cell_id, box, command, depth, parent result, top-level index)
    wave = [
        (cell_id, box, command, 0, None, slot)
        for slot, (cell_id, box, command, _tags) in enumerate(tasks)
    ]
    while wave and not (stop is not None and stop()):
        initials = [
            SymbolicSet([SymbolicState(box, command)]) for _, box, command, *_ in wave
        ]
        outcomes = reach_many(system, initials, settings.reach)
        next_wave = []
        for (cell_id, box, command, depth, parent, slot), outcome in zip(wave, outcomes):
            result = CellResult(
                cell_id=cell_id,
                box=box,
                command=command,
                verdict=outcome.verdict,
                depth=depth,
                elapsed_seconds=outcome.elapsed_seconds,
                steps_completed=outcome.steps_completed,
                joins_performed=outcome.joins_performed,
                integrations=outcome.integrations,
            )
            rec.inc(f"runner.verdict.{outcome.verdict.value}")
            if parent is None:
                roots[slot] = result
            else:
                parent.children.append(result)
            if (
                result.verdict is not Verdict.PROVED_SAFE
                and policy is not None
                and depth < policy.max_depth
            ):
                rec.inc("runner.refinements")
                for i, child_box in enumerate(policy.children(box)):
                    next_wave.append(
                        (f"{cell_id}.{i}", child_box, command, depth + 1, result, slot)
                    )
                    pending[slot] += 1
            pending[slot] -= 1
            if pending[slot] == 0:
                _record_tree_spans(rec, roots[slot])
                if on_tree is not None:
                    on_tree(slot, roots[slot])
        wave = next_wave
    return roots  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
@contextmanager
def _progress_subscribed(progress: CampaignProgress | None) -> Iterator[None]:
    """Subscribe ``progress`` to the campaign's recorder for the block.
    With no enabled recorder, the campaign runs on a private one without
    trace or heartbeats instead. A raising ``progress`` is dropped by
    the recorder, so it cannot abort the campaign."""
    if progress is None:
        yield
        return
    rec = get_recorder()
    with nullcontext(rec) if rec.enabled else use_recorder(Recorder()) as rec:
        progress.attach(rec)
        try:
            yield
        finally:
            rec.unsubscribe(progress.on_event)


def _campaign_tasks(cells: Sequence[tuple]) -> list[tuple[str, Box, int, dict]]:
    """One executor task ``(cell_id, box, command, tags)`` per cell."""
    return [
        (f"cell-{i}", cell[0], cell[1], dict(cell[2]) if len(cell) > 2 else {})
        for i, cell in enumerate(cells)
    ]


def _settings_summary(settings: RunnerSettings, interrupted: str | None) -> dict:
    summary = {
        "substeps": settings.reach.substeps,
        "max_symbolic_states": settings.reach.max_symbolic_states,
        "refinement_depth": settings.refinement.max_depth if settings.refinement else 0,
        "workers": settings.workers,
        "cell_timeout": settings.cell_timeout,
        "deadline": settings.deadline,
        "max_retries": settings.max_retries,
    }
    if interrupted:
        summary["interrupted"] = interrupted
    return summary


def _publish_finished(
    index: int,
    result: CellResult,
    worker: int | None,
    cached: bool = False,
    node: str | None = None,
) -> None:
    """Emit the ``cell.finished`` event of top-level cell ``index``
    (its ``seq``). ``worker`` is None for a quarantine, a remote node or
    a journal replay; a replayed cell is ``cached`` and took no time."""
    get_recorder().event(
        "cell.finished",
        worker=worker,
        node=node,
        cell_id=f"cell-{index}",
        seq=index,
        verdict=result.verdict.value,
        verdict_class=result.verdict_class(),
        elapsed=0.0 if cached else result.elapsed_seconds,
        attempts=result.attempts,
        cached=cached,
    )


def _campaign_report(
    results: dict[int, CellResult],
    settings: RunnerSettings,
    interrupted: str | None,
    run_started: float,
) -> VerificationReport:
    """A campaign's report tail: the finished cells in partition order,
    the settings summary and metrics, then ``campaign.finished``."""
    report = VerificationReport(cells=[results[i] for i in sorted(results)])
    report.wall_seconds = time.perf_counter() - run_started
    report.settings_summary = _settings_summary(settings, interrupted)
    rec = get_recorder()
    if rec.enabled:
        report.metrics = rec.metrics.snapshot()
    rec.event(
        "campaign.finished",
        interrupted=interrupted,
        verdicts=report.verdict_counts(),
        coverage=report.coverage_percent(),
        wall_seconds=report.wall_seconds,
    )
    return report


def verify_partition(
    system_factory: Callable[[], ClosedLoopSystem],
    cells: Sequence[tuple[Box, int]] | Sequence[tuple[Box, int, dict]],
    settings: RunnerSettings | None = None,
    progress: CampaignProgress | None = None,
    journal: str | Path | None = None,
    fsync: bool = False,
) -> VerificationReport:
    """Verify every initial cell of a partition.

    ``cells`` is a sequence of ``(box, command)`` or
    ``(box, command, tags)`` tuples. ``system_factory`` builds the
    closed-loop system — called once in serial mode, once per worker in
    parallel mode (fork start method, so closures are fine), and not at
    all if no cell is left to verify. A worker whose factory call raises
    surfaces as a ``RuntimeError`` naming the worker and the underlying
    error.

    ``progress`` (a :class:`repro.obs.CampaignProgress`) is subscribed
    to the campaign's recorder for the length of the campaign, so it
    sees each top-level cell's ``cell.finished`` as its tree finishes,
    journal-replayed cells included.

    ``settings.workers`` picks the executor: this process
    (:func:`repro.core.supervisor.run_serial`, chunks of lockstep
    waves) or the supervised pool
    (:func:`repro.core.supervisor.run_supervised`, where worker crashes
    retry then quarantine as ``ABORTED``). A cell that raises becomes
    ``ABORTED``, budget overruns become ``TIMED_OUT``, and a deadline
    or SIGINT/SIGTERM yields a partial report
    (``settings_summary["interrupted"]`` names the reason).

    With ``journal`` (a path) the campaign is resumable
    (:mod:`repro.core.checkpoint`): cells already journaled are reused
    verbatim, and every other cell is appended as soon as its tree
    finishes. Quarantined cells are not journaled, so a restart retries
    them. ``fsync=True`` syncs each append to stable storage, so a power
    loss costs at most the cells in flight.

    When a live :class:`repro.obs.Recorder` is installed, workers
    stream spans to per-worker JSONL files (merged into the parent's
    trace at the end) and ship per-cell metric deltas back; the merged
    snapshot lands in ``report.metrics``.
    """
    settings = settings or RunnerSettings()
    run_started = time.perf_counter()
    tasks = _campaign_tasks(cells)
    with _progress_subscribed(progress):
        get_recorder().event(
            "campaign.started",
            total=len(tasks),
            workers=settings.workers,
            pid=os.getpid(),
        )
        results: dict[int, CellResult] = {}
        keys: list[str] = []
        writer: _JournalWriter | None = None

        def finish(
            index: int, result: CellResult, worker: int | None, cached: bool = False
        ) -> None:
            results[index] = result
            if writer is not None and not cached:
                writer.append(keys[index], result)
            _publish_finished(index, result, worker, cached)

        if journal is not None:
            journal = Path(journal)
            journal.parent.mkdir(parents=True, exist_ok=True)
            keys = [_cell_key(box, command) for _, box, command, _ in tasks]
            for index, result in replay_journal(journal, keys).items():
                result.tags.update(tasks[index][3])
                finish(index, result, None, cached=True)
        remaining = [i for i in range(len(tasks)) if i not in results]

        def on_result(seq: int, result: CellResult, worker: int | None) -> None:
            finish(remaining[seq], result, worker)

        executor = run_serial if settings.workers == 1 else run_supervised
        with open(journal, "a") if journal is not None else nullcontext() as handle:
            if handle is not None:
                writer = _JournalWriter(handle, fsync)
            outcome = executor(
                system_factory,
                [tasks[i] for i in remaining],
                settings,
                on_result=on_result,
                indices=remaining,
            )

        report = _campaign_report(results, settings, outcome.interrupted, run_started)
    if journal is not None:
        report.settings_summary["journal"] = str(journal)
    return report
