"""Checkpointed partition verification for long campaigns.

The paper's full experiment ran for ~12 days; any run at that scale
needs to survive interruption. :func:`verify_partition_checkpointed`
wraps the partition drivers with an append-only JSON-lines journal:
each finished cell is written immediately, and a restart skips every
cell already journaled (validated against the cell geometry, so a
changed partition invalidates stale entries).

The execution layer is the same as
:func:`~repro.core.runner.verify_partition`'s: the uncached cells run
on :func:`~repro.core.supervisor.run_serial` (lockstep waves with
``batch_cells``, else the guarded per-cell loop) or, with
``workers > 1``, on the supervised pool
(:func:`~repro.core.supervisor.run_supervised`), so worker crashes,
per-cell budgets, the campaign deadline and SIGINT/SIGTERM draining
all compose with resumability. Each top-level cell is journaled when
its whole refinement tree has finished. Quarantined cells (``ABORTED`` /
``TIMED_OUT``) are deliberately *not* journaled: a restarted campaign
retries them instead of trusting a verdict that only says "something
went wrong last time".
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Callable, Sequence

from ..intervals import Box
from ..obs import get_recorder
from ..obs.live import get_bus
from ..testing.faults import get_fault_injector
from .result import CellResult, VerificationReport
from .runner import RunnerSettings, _notify_progress, _settings_summary
from .supervisor import run_serial, run_supervised

logger = logging.getLogger("repro.core.checkpoint")


def _cell_key(box: Box, command: int) -> str:
    payload = {
        "lo": [round(float(v), 12) for v in box.lo],
        "hi": [round(float(v), 12) for v in box.hi],
        "command": command,
    }
    return json.dumps(payload, sort_keys=True)


def load_journal(path: str | Path) -> dict[str, CellResult]:
    """Read finished cells from a journal (missing file = empty).

    Malformed lines — a torn final write from an interrupted run, a
    partially-synced page after a crash — are *skipped with a warning*
    rather than aborting the resume: one bad line must not cost a
    campaign its journal. Skips are logged and emitted as
    ``journal.malformed_line`` events on the current recorder.
    """
    path = Path(path)
    rec = get_recorder()
    finished: dict[str, CellResult] = {}
    if not path.exists():
        return finished
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if isinstance(entry, dict) and "lease" in entry and "key" not in entry:
                    # Coordinator lease-state record (see core.coordinator):
                    # not a cell, and deliberately ignored here so journals
                    # from distributed runs resume fine under old readers.
                    continue
                key = entry["key"]
                result = CellResult.from_dict(entry["result"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                logger.warning(
                    "%s:%d: skipping malformed journal line (%s)", path, lineno, exc
                )
                rec.event(
                    "journal.malformed_line",
                    path=str(path),
                    line=lineno,
                    error=type(exc).__name__,
                )
                continue
            finished[key] = result
    return finished


class _JournalWriter:
    """Appends finished cells to the journal as they arrive.

    Quarantined results are skipped (see module docs). The torn-write
    fault (``torn-journal`` in :mod:`repro.testing.faults`) truncates an
    append mid-line with no trailing newline, mimicking a power loss;
    the next append then starts on a fresh line, as a restarted
    process's first append would.
    """

    def __init__(self, handle, fsync: bool):
        self.handle = handle
        self.fsync = fsync
        self._torn_pending = False

    def append(
        self, key: str, result: CellResult, extra: dict | None = None
    ) -> None:
        rec = get_recorder()
        if result.quarantined:
            # Not a verdict worth remembering: the next run retries it.
            rec.inc("checkpoint.cells_quarantined")
            rec.event(
                "checkpoint.cell_quarantined",
                cell_id=result.cell_id,
                verdict=result.verdict.value,
            )
            return
        entry = {"key": key, "result": result.to_dict()}
        if extra:
            # Provenance fields (shard/epoch from distributed runs). Old
            # readers only look at "key"/"result" and skip the rest.
            entry.update(extra)
        line = json.dumps(entry)
        injector = get_fault_injector()
        torn = False
        if injector is not None:
            line, torn = injector.tear_journal_line(line)
        if self._torn_pending:
            self.handle.write("\n")
            self._torn_pending = False
        self.handle.write(line if torn else line + "\n")
        self._torn_pending = torn
        self.handle.flush()
        if self.fsync:
            os.fsync(self.handle.fileno())
        rec.inc("checkpoint.cells_verified")

    def append_record(self, record: dict) -> None:
        """Append a non-cell bookkeeping record (e.g. a coordinator
        lease grant). Never torn by fault injection — lease records are
        coordinator-side state, not the cell write path under test."""
        if self._torn_pending:
            self.handle.write("\n")
            self._torn_pending = False
        self.handle.write(json.dumps(record) + "\n")
        self.handle.flush()
        if self.fsync:
            os.fsync(self.handle.fileno())


def load_lease_records(path: str | Path) -> list[dict]:
    """Read coordinator lease-state records from a journal, in append
    order (missing file = empty). Malformed lines are skipped, same
    policy as :func:`load_journal`; cell entries are ignored."""
    path = Path(path)
    records: list[dict] = []
    if not path.exists():
        return records
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "lease" in entry and "key" not in entry:
                lease = entry["lease"]
                if isinstance(lease, dict):
                    records.append(lease)
    return records


def _normalize_result_dict(payload: dict) -> dict:
    """Zero the wall-clock fields of a serialized CellResult so two
    runs of the same mathematics compare equal. Verdicts, depths, step
    counts, joins and integrations are deterministic; elapsed seconds
    and crash-retry attempt counts are not."""
    payload = dict(payload)
    payload["elapsed_seconds"] = 0.0
    payload["attempts"] = 0
    if payload.get("children"):
        payload["children"] = [
            _normalize_result_dict(child) for child in payload["children"]
        ]
    return payload


def canonical_journal_bytes(path: str | Path) -> bytes:
    """A journal's *mathematical content* as canonical bytes.

    Entries are sorted by cell key and re-serialized with sorted keys
    after zeroing volatile fields (elapsed wall-clock, retry attempts),
    so two journals covering the same partition with the same verdicts
    produce identical bytes — regardless of completion order, worker
    count, or whether the campaign ran single-host or distributed.
    This is the equivalence the distributed acceptance drill asserts.
    """
    finished = load_journal(path)
    lines = [
        json.dumps(
            {"key": key, "result": _normalize_result_dict(finished[key].to_dict())},
            sort_keys=True,
        )
        for key in sorted(finished)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def verify_partition_checkpointed(
    system_factory: Callable[[], object],
    cells: Sequence[tuple],
    journal_path: str | Path,
    settings: RunnerSettings | None = None,
    progress: Callable[[int, int], None] | None = None,
    fsync: bool = False,
) -> VerificationReport:
    """Like :func:`~repro.core.runner.verify_partition`, resumable.

    Cells found in the journal are reused verbatim; the rest are
    verified — serially (in lockstep with ``settings.batch_cells``) or
    on the supervised pool, per ``settings.workers`` — and journaled as
    soon as they finish.
    Quarantined cells are excluded from the journal so a restart
    retries them. After an interruption (deadline or SIGINT/SIGTERM)
    the report covers only the finished cells and
    ``settings_summary["interrupted"]`` names the reason; otherwise the
    report covers every requested cell, in partition order.

    With ``fsync=True`` every appended entry is fsync'd to stable
    storage before the next cell starts — slower, but a power loss can
    then cost at most the in-flight cell.
    """
    settings = settings or RunnerSettings()
    rec = get_recorder()
    run_started = time.perf_counter()
    journal_path = Path(journal_path)
    journal_path.parent.mkdir(parents=True, exist_ok=True)
    finished = load_journal(journal_path)
    if finished:
        rec.event(
            "journal.resume", path=str(journal_path), finished_cells=len(finished)
        )

    keys: list[str] = []
    parsed: list[tuple[Box, int, dict]] = []
    for cell in cells:
        box, command = cell[0], cell[1]
        tags = dict(cell[2]) if len(cell) > 2 else {}
        parsed.append((box, command, tags))
        keys.append(_cell_key(box, command))

    total = len(parsed)
    done = 0
    skipped = 0
    results: dict[int, CellResult] = {}
    bus = get_bus()
    bus.publish(
        "campaign.started", total=total, workers=settings.workers, pid=os.getpid()
    )

    def notify(result: CellResult) -> None:
        nonlocal done
        done += 1
        _notify_progress(progress, done, total, result)

    remaining: list[int] = []
    for i, (box, command, tags) in enumerate(parsed):
        cached = finished.get(keys[i])
        if cached is not None:
            cached.tags.update(tags)
            results[i] = cached
            skipped += 1
            rec.inc("checkpoint.cells_skipped")
            # Journal-cached cells never touch a worker; worker=None and
            # cached=True let snapshot consumers count them separately.
            bus.publish(
                "cell.finished",
                worker=None,
                cell_id=f"cell-{i}",
                seq=i,
                verdict=cached.verdict.value,
                verdict_class=cached.verdict_class(),
                elapsed=0.0,
                cached=True,
            )
            notify(cached)
        else:
            remaining.append(i)

    with open(journal_path, "a") as handle:
        journal = _JournalWriter(handle, fsync)
        sub_tasks = [(f"cell-{i}", *parsed[i]) for i in remaining]

        def on_result(seq: int, result: CellResult) -> None:
            i = remaining[seq]
            journal.append(keys[i], result)
            results[i] = result
            notify(result)

        executor = run_serial if settings.workers == 1 else run_supervised
        outcome = executor(system_factory, sub_tasks, settings, on_result=on_result)

    if skipped:
        logger.info(
            "resumed from %s: %d/%d cells skipped", journal_path, skipped, total
        )

    report = VerificationReport(cells=[results[i] for i in sorted(results)])
    report.wall_seconds = time.perf_counter() - run_started
    report.settings_summary = _settings_summary(settings, outcome.interrupted)
    report.settings_summary["journal"] = str(journal_path)
    if rec.enabled:
        report.metrics = rec.metrics.snapshot()
    bus.publish(
        "campaign.finished",
        interrupted=outcome.interrupted,
        verdicts=report.verdict_counts(),
        coverage=report.coverage_percent(),
        wall_seconds=report.wall_seconds,
    )
    return report
