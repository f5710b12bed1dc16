"""The recorder: spans + events + metrics behind one ambient handle.

Instrumented code never imports a concrete backend; it asks for the
*current* recorder and emits through it:

    from repro.obs import get_recorder

    rec = get_recorder()
    with rec.span("integrate", step=j, command=u):
        ...
    rec.inc("reach.integrations", len(pipe.steps))

By default the current recorder is the :data:`NULL_RECORDER` — every
call is a no-op costing a couple of attribute lookups, so instrumented
hot paths stay within noise of un-instrumented code. Code that would
pay real cost just to *construct* an event (formatting, extra
timestamps) should guard on ``rec.enabled``.

A real :class:`Recorder` owns a :class:`~repro.obs.metrics.MetricsRegistry`
and, optionally, a JSONL trace sink (one event object per line). Spans
write both: a ``{"kind": "span", "name": ..., "dur": ...}`` trace event
and a ``<name>.seconds`` histogram observation.

The recorder is also the campaign's one event stream. Each
``rec.event(name, **fields)`` becomes one dict, ``{"ts", "kind":
"event", "name", **fields}``, that is written to the trace (when
tracing) and handed to every subscriber: the live telemetry fold
(:class:`~repro.obs.live.CampaignSnapshot`), the progress line and the
status writer (:mod:`repro.obs.live`). ``heartbeat_interval`` tells the
campaign executors whether, and how often, workers beat.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import IO, Callable, Iterator

from .metrics import MetricsRegistry

logger = logging.getLogger("repro.obs")


class _NullSpan:
    """Reusable no-op context manager (singleton, no per-use allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: every operation is a no-op.

    Kept API-compatible with :class:`Recorder` so call sites never
    branch (except via the ``enabled`` flag for costly event payloads).
    """

    enabled = False
    #: Worker heartbeat period; ``None`` tells the campaign executors
    #: not to start heartbeat threads at all.
    heartbeat_interval: float | None = None

    def span(self, name: str, **fields) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, duration: float, **fields) -> None:
        return None

    def event(self, name: str, **fields) -> None:
        return None

    def inc(self, name: str, value: float = 1.0) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


NULL_RECORDER = NullRecorder()


class _Span:
    """Times a block; reports to the owning recorder on exit."""

    __slots__ = ("recorder", "name", "fields", "started")

    def __init__(self, recorder: "Recorder", name: str, fields: dict):
        self.recorder = recorder
        self.name = name
        self.fields = fields
        self.started = 0.0

    def __enter__(self) -> "_Span":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self.started
        self.recorder._finish_span(self.name, duration, self.fields, exc_type)


class Recorder(NullRecorder):
    """A live recorder: metrics registry, optional JSONL trace sink and
    the event subscribers.

    Events are stamped and written under one lock, so the trace and
    every subscriber see them in timestamp order whichever thread
    emits them (the supervisor loop, a serial heartbeat thread). A
    raising subscriber is dropped for the rest of the run and counted
    in ``dropped_subscribers``: telemetry must never be able to take a
    campaign down.
    """

    enabled = True

    def __init__(
        self,
        trace_path: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        heartbeat_interval: float | None = None,
    ):
        self.metrics = metrics or MetricsRegistry()
        self.heartbeat_interval = heartbeat_interval
        self.trace_path = Path(trace_path) if trace_path else None
        self._lock = threading.RLock()
        self._subscribers: list[Callable[[dict], None]] = []
        self.dropped_subscribers = 0
        self._sink: IO[str] | None = None
        if self.trace_path is not None:
            self.trace_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.trace_path, "a")

    # -- spans and events ----------------------------------------------
    def span(self, name: str, **fields) -> _Span:
        return _Span(self, name, fields)

    def record_span(self, name: str, duration: float, **fields) -> None:
        """A span whose duration was measured elsewhere (e.g. a cell's
        share of the lockstep waves it ran in)."""
        self._finish_span(name, duration, fields, None)

    def _finish_span(
        self, name: str, duration: float, fields: dict, exc_type
    ) -> None:
        self.metrics.observe(f"{name}.seconds", duration)
        if self._sink is None:
            return
        with self._lock:
            event = {"ts": time.time(), "kind": "span", "name": name, "dur": duration}
            if exc_type is not None:
                event["error"] = exc_type.__name__
            if fields:
                event.update(fields)
            self._write(event)

    def event(self, name: str, **fields) -> None:
        """A point-in-time event: written to the trace, handed to every
        subscriber, and logged at DEBUG."""
        logger.debug("event %s %s", name, fields)
        if self._sink is None and not self._subscribers:
            return
        with self._lock:
            # Stamped under the lock, so the trace and the subscribers
            # see events in timestamp order.
            event = {"ts": time.time(), "kind": "event", "name": name}
            event.update(fields)
            self._write(event)
            for fn in list(self._subscribers):
                try:
                    fn(event)
                except Exception as exc:
                    self.dropped_subscribers += 1
                    self._subscribers.remove(fn)
                    logger.warning(
                        "event subscriber %r raised %s: %s; dropped",
                        fn, type(exc).__name__, exc,
                    )

    def _write(self, event: dict) -> None:
        if self._sink is not None:
            self._sink.write(json.dumps(event, default=str) + "\n")

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        """Hand every event from now on to ``fn``."""
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        with self._lock:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    # -- metrics passthrough -------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        self.metrics.inc(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._sink.close()
                self._sink = None


# ----------------------------------------------------------------------
# The ambient (per-process) current recorder
# ----------------------------------------------------------------------
_CURRENT: NullRecorder = NULL_RECORDER


def get_recorder() -> NullRecorder:
    """The process-wide current recorder (the no-op one by default)."""
    return _CURRENT


def set_recorder(recorder: NullRecorder | None) -> NullRecorder:
    """Install ``recorder`` (``None`` restores the no-op); returns the
    previous one so callers can restore it."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextlib.contextmanager
def use_recorder(recorder: NullRecorder) -> Iterator[NullRecorder]:
    """Scoped :func:`set_recorder` (restores the previous recorder)."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def worker_trace_path(parent_trace: Path, pid: int | None = None) -> Path:
    """Per-worker trace file next to the parent's trace file."""
    pid = pid if pid is not None else os.getpid()
    return parent_trace.parent / f"{parent_trace.stem}.worker-{pid}.jsonl"
