"""The campaign journal: resumable state for long campaigns.

The paper's full experiment ran for ~12 days; any run at that scale
needs to survive interruption. Both campaign drivers —
:func:`~repro.core.runner.verify_partition` with ``journal=`` and the
distributed :class:`~repro.core.coordinator.Coordinator` — keep an
append-only JSON-lines journal in this format: each top-level cell is
written as soon as its whole refinement tree has finished, and a
restart replays every cell already journaled (:func:`replay_journal`,
matched by cell geometry, so a changed partition invalidates stale
entries). Quarantined cells (``ABORTED`` / ``TIMED_OUT``) are
deliberately *not* journaled: a restarted campaign retries them instead
of trusting a verdict that only says "something went wrong last time".
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Sequence

from ..intervals import Box
from ..obs import get_recorder
from ..testing.faults import get_fault_injector
from .result import CellResult

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


def replay_journal(path: str | Path, keys: Sequence[str]) -> dict[int, CellResult]:
    """The journaled results of a partition, by partition index.

    ``keys`` holds each cell's :func:`_cell_key`; journal entries for
    other cells (a changed partition) are ignored. Each reused cell
    counts as ``checkpoint.cells_skipped``, and a non-empty replay
    emits ``journal.resume``.
    """
    finished = load_journal(path)
    replayed = {i: finished[key] for i, key in enumerate(keys) if key in finished}
    if replayed:
        rec = get_recorder()
        rec.inc("checkpoint.cells_skipped", len(replayed))
        rec.event("journal.resume", path=str(path), finished_cells=len(replayed))
        logger.info(
            "resumed from %s: %d/%d cells skipped", path, len(replayed), len(keys)
        )
    return replayed


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
