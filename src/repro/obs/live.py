"""repro.obs.live — live campaign telemetry.

Everything observability gave the campaign so far (PR 1/3/5) is
post-hoc: traces and the ledger are read after the run. A multi-day
campaign (the paper's full evaluation ran ~12 days) needs the
opposite: a continuously updated, externally consumable view of a run
that is still in flight. This module provides it as views of the
campaign's one event stream, the recorder's ``rec.event(...)`` calls
(:class:`~repro.obs.recorder.Recorder`: ``worker.heartbeat``,
``cell.dispatched``, ``cell.finished``, ``cell.retried``,
``worker.crash``, ``campaign.started`` ...). Each view subscribes to
the recorder and receives the trace's event dicts, ``{"ts", "kind":
"event", "name", **fields}``:

* **CampaignSnapshot** — folds the events into one aggregate:
  campaign progress, rate/ETA, verdict counts, quarantine/retry/respawn
  counters, and a per-worker table (PID, RSS, cells completed, current
  cell + time-in-cell, heartbeat age, stall flag). Thread-safe, because
  the metrics endpoint reads it from a server thread while the
  supervisor loop updates it. The stderr progress line
  (:class:`~repro.obs.progress.CampaignProgress`) is a subclass that
  prints.
* **LiveStatusWriter** — persists the snapshot under
  ``.repro/live/<run-id>/``: an append-only ``events.jsonl`` (the
  campaign process's events, line for line as the trace has them) plus
  a ``status.json`` rewritten via atomic rename at a configurable
  interval, so any external process (``repro watch``, ``repro stats``,
  a dashboard) can follow the campaign crash-safely — a reader never
  sees a torn file, and a killed campaign leaves a status file whose
  staleness is itself the signal. Stale directories from crashed runs
  are pruned on the next campaign start.
* **MetricsServer** — an opt-in stdlib HTTP endpoint
  (``--metrics-port``) serving the same snapshot as JSON
  (``/status.json``) and Prometheus text format (``/metrics``): the
  seed of the ``repro serve`` streaming layer.

:class:`LiveTelemetry` wires the three to a recorder for a ``with``
block and sets the recorder's heartbeat period.

Heartbeats come from *inside* each worker (a daemon thread writing to
the worker's pipe), not from parent-side bookkeeping — so a worker
that is alive-but-wedged is distinguishable from one that is merely
slow: its process exists, its cell is in flight, and its heartbeats
have stopped. :func:`stalled` flags exactly that case.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Callable

from .recorder import NullRecorder, Recorder, get_recorder, set_recorder

logger = logging.getLogger("repro.obs.live")

#: Default live-status store, relative to the working directory.
DEFAULT_LIVE_DIR = ".repro/live"

#: A run whose status file has not been touched for this long is a
#: leftover from a crashed/killed campaign; prune it on the next start.
DEFAULT_PRUNE_AFTER = 24 * 3600.0


def live_root(root: str | Path | None = None) -> Path:
    """Resolve the live-status directory: explicit argument,
    ``$REPRO_LIVE``, or ``.repro/live`` under the working directory."""
    if root is not None:
        return Path(root)
    env = os.environ.get("REPRO_LIVE")
    if env:
        return Path(env)
    return Path(DEFAULT_LIVE_DIR)


def rss_bytes() -> int:
    """This process's current resident set size in bytes (0 when the
    platform offers no cheap way to read it)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is the peak, in KiB on Linux, bytes on macOS — a
        # coarse fallback, but monotone and better than nothing.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak) * (1 if peak > 1 << 30 else 1024)
    except Exception:
        return 0


# ----------------------------------------------------------------------
# Settings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetrySettings:
    """How live telemetry behaves for one campaign."""

    #: Worker heartbeat period and ``status.json`` rewrite period, in
    #: seconds.
    interval: float = 1.0
    #: A worker whose newest heartbeat is older than
    #: ``stall_factor * interval`` while a cell is in flight is stalled.
    stall_factor: float = 3.0
    #: Live-status store (default: ``$REPRO_LIVE`` or ``.repro/live``).
    root: str | Path | None = None
    #: Serve the snapshot over HTTP (0 = ephemeral port, None = off).
    metrics_port: int | None = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.stall_factor <= 0:
            raise ValueError("stall_factor must be positive")

    @property
    def stall_after(self) -> float:
        return self.stall_factor * self.interval


# ----------------------------------------------------------------------
# The aggregate: per-worker states + campaign counters
# ----------------------------------------------------------------------
@dataclass
class WorkerState:
    """What the snapshot knows about one pool worker."""

    id: int
    pid: int | None = None
    #: starting | idle | busy | dead | killed | done
    state: str = "starting"
    cells_completed: int = 0
    crashes: int = 0
    cell_id: str | None = None
    cell_started_at: float | None = None
    #: From the newest heartbeat (worker-reported; the worker's own
    #: wall-clock time-in-cell rides in ``cell_elapsed``).
    last_heartbeat_at: float | None = None
    cell_elapsed: float = 0.0
    rss_bytes: int = 0

    def to_dict(self, now: float, stall_after: float | None) -> dict:
        return {
            "id": self.id,
            "pid": self.pid,
            "state": self.state,
            "cells_completed": self.cells_completed,
            "crashes": self.crashes,
            "cell_id": self.cell_id,
            "cell_elapsed": (
                round(now - self.cell_started_at, 3)
                if self.cell_started_at is not None
                else round(self.cell_elapsed, 3)
            ),
            "last_heartbeat_at": self.last_heartbeat_at,
            "heartbeat_age": (
                round(now - self.last_heartbeat_at, 3)
                if self.last_heartbeat_at is not None
                else None
            ),
            "rss_bytes": self.rss_bytes,
            "stalled": stalled(self, now, stall_after),
        }


def stalled(worker: WorkerState, now: float, stall_after: float | None) -> bool:
    """A live worker with a cell in flight whose heartbeats stopped.

    This is precisely the signature that distinguishes a wedged process
    (hung in native code, paused by the kernel, heartbeat thread dead)
    from a merely slow cell: a slow cell keeps heartbeating with a
    growing ``cell_elapsed``; a stalled worker goes silent. With no
    threshold (``stall_after`` None: a recorder without heartbeats) no
    worker is stalled.
    """
    if stall_after is None or worker.state != "busy":
        return False
    reference = worker.last_heartbeat_at
    if reference is None:
        # Never heartbeated: measure from dispatch (covers workers that
        # wedge before the first beat).
        reference = worker.cell_started_at
    if reference is None:
        return False
    return (now - reference) > stall_after


@dataclass
class NodeState:
    """What the snapshot knows about one node agent of a distributed
    campaign (fed by the coordinator's ``node.*`` / ``lease.*`` events)."""

    node_id: str
    pid: int | None = None
    workers: int | None = None
    #: connected | computing | disconnected
    state: str = "connected"
    connected_at: float | None = None
    shard: str | None = None
    epoch: int | None = None
    lease_granted_at: float | None = None
    cells_completed: int = 0
    last_heartbeat_at: float | None = None
    rss_bytes: int = 0
    #: Stale-epoch frames of this node's the coordinator discarded.
    fenced: int = 0
    leases_lost: int = 0
    disconnect_reason: str | None = None

    def rate(self, now: float) -> float:
        if self.connected_at is None or not self.cells_completed:
            return 0.0
        elapsed = now - self.connected_at
        return self.cells_completed / elapsed if elapsed > 0 else 0.0

    def to_dict(self, now: float) -> dict:
        return {
            "node": self.node_id,
            "pid": self.pid,
            "workers": self.workers,
            "state": self.state,
            "shard": self.shard,
            "epoch": self.epoch,
            "lease_age": (
                round(now - self.lease_granted_at, 3)
                if self.lease_granted_at is not None
                else None
            ),
            "cells_completed": self.cells_completed,
            "last_heartbeat_at": self.last_heartbeat_at,
            "heartbeat_age": (
                round(now - self.last_heartbeat_at, 3)
                if self.last_heartbeat_at is not None
                else None
            ),
            "rate": round(self.rate(now), 4),
            "rss_bytes": self.rss_bytes,
            "fenced": self.fenced,
            "leases_lost": self.leases_lost,
            "disconnect_reason": self.disconnect_reason,
        }


class CampaignSnapshot:
    """Folds the recorder's event stream into one thread-safe aggregate.

    This is the one place that counts finished cells. Subscribe it to a
    recorder (:meth:`attach`) and read it from anywhere: the status-file
    writer and the metrics endpoint's server thread read the live
    campaign's instance, and the progress line
    (:class:`~repro.obs.progress.CampaignProgress`) is a subclass that
    prints.
    """

    def __init__(self, run_id: str, settings: TelemetrySettings | None = None):
        self.settings = settings or TelemetrySettings()
        self._lock = threading.RLock()
        self.run_id = run_id
        self.pid = os.getpid()
        self.state = "starting"  # starting | running | finished | interrupted
        self.started_at = time.time()
        self.total = 0
        self.done = 0
        #: Finished cells this campaign computed, i.e. ``done`` without
        #: the journal-replayed ones: the rate's numerator.
        self.computed = 0
        #: Heartbeat silence after which a busy worker is stalled
        #: (None: the recorder carries no heartbeats, so none is).
        self.stall_after: float | None = self.settings.stall_after
        self.verdicts = {
            "proved": 0, "unproved": 0, "witnessed": 0,
            "aborted": 0, "timed-out": 0,
        }
        self.retries = 0
        self.respawns = 0
        self.interrupted: str | None = None
        self.workers: dict[int, WorkerState] = {}
        self.nodes: dict[str, NodeState] = {}
        self.shards: int = 0
        self.leases_expired = 0
        self.fenced_frames = 0
        self.metrics_port: int | None = None

    # -- folding -------------------------------------------------------
    def attach(self, recorder: Recorder) -> "CampaignSnapshot":
        """Fold ``recorder``'s events from now on, judging stalls
        against its heartbeat period."""
        interval = recorder.heartbeat_interval
        with self._lock:
            self.stall_after = None if interval is None else self.settings.stall_factor * interval
        recorder.subscribe(self.on_event)
        return self

    def _worker(self, wid: int) -> WorkerState:
        state = self.workers.get(wid)
        if state is None:
            # sound: ok [C004] _worker is only reached from on_event/to_dict,
            # both of which already hold self._lock around the call.
            state = self.workers[wid] = WorkerState(id=wid)
        return state

    def _node(self, node_id: str) -> NodeState:
        state = self.nodes.get(node_id)
        if state is None:
            # sound: ok [C004] _node is only reached from on_event, which
            # already holds self._lock around the call.
            state = self.nodes[node_id] = NodeState(node_id=node_id)
        return state

    def on_event(self, event: dict) -> None:
        name = event.get("name")
        ts = event.get("ts", time.time())
        with self._lock:
            if name == "campaign.started":
                self.state = "running"
                self.started_at = ts
                self.total = int(event.get("total", 0))
                self.shards = int(event.get("shards", 0) or 0)
            elif name == "campaign.finished":
                self.state = "interrupted" if event.get("interrupted") else "finished"
                self.interrupted = event.get("interrupted")
                if event.get("verdicts"):
                    # The authoritative end-of-run counts (they classify
                    # whole refinement trees, exactly like the ledger).
                    for key, value in event["verdicts"].items():
                        if key in self.verdicts:
                            self.verdicts[key] = int(value)
                for worker in self.workers.values():
                    if worker.state in ("busy", "idle", "starting"):
                        worker.state = "done"
                        worker.cell_id = None
                        worker.cell_started_at = None
            elif name == "campaign.interrupted":
                self.interrupted = event.get("reason")
            elif name == "worker.spawned":
                self._worker(int(event["worker"]))
            elif name == "worker.ready":
                worker = self._worker(int(event["worker"]))
                worker.state = "idle"
                worker.pid = event.get("pid")
            elif name == "worker.heartbeat":
                worker = self._worker(int(event["worker"]))
                worker.last_heartbeat_at = ts
                if event.get("pid") is not None:
                    worker.pid = event["pid"]
                worker.rss_bytes = int(event.get("rss_bytes", worker.rss_bytes) or 0)
                worker.cell_elapsed = float(event.get("cell_elapsed", 0.0) or 0.0)
                if event.get("cells_completed") is not None:
                    worker.cells_completed = int(event["cells_completed"])
            elif name == "cell.dispatched":
                worker = self._worker(int(event["worker"]))
                worker.state = "busy"
                worker.cell_id = event.get("cell_id")
                worker.cell_started_at = ts
            elif name == "cell.finished":
                self.done += 1
                if not event.get("cached"):
                    self.computed += 1
                cls = event.get("verdict_class")
                if cls in self.verdicts:
                    self.verdicts[cls] += 1
                if event.get("worker") is not None:
                    worker = self._worker(int(event["worker"]))
                    worker.state = "idle"
                    worker.cell_id = None
                    worker.cell_started_at = None
                    worker.cell_elapsed = 0.0
                    worker.cells_completed += 1
                elif event.get("node") is not None:
                    self._node(str(event["node"])).cells_completed += 1
            elif name == "cell.retried":
                self.retries += 1
            elif name == "worker.crash":
                worker = self._worker(int(event["worker"]))
                worker.state = "dead"
                worker.crashes += 1
                worker.cell_id = None
                worker.cell_started_at = None
            elif name == "worker.killed":
                worker = self._worker(int(event["worker"]))
                worker.state = "killed"
                worker.cell_id = None
                worker.cell_started_at = None
            elif name == "worker.respawn":
                self.respawns += 1
            elif name == "worker.exit":
                worker = self._worker(int(event["worker"]))
                if worker.state not in ("dead", "killed"):
                    worker.state = "done"
            elif name == "node.connected":
                node = self._node(str(event["node"]))
                node.state = "connected"
                node.connected_at = ts
                node.pid = event.get("pid")
                node.workers = event.get("workers")
                node.disconnect_reason = None
            elif name == "node.heartbeat":
                node = self._node(str(event["node"]))
                node.last_heartbeat_at = ts
                if event.get("pid") is not None:
                    node.pid = event["pid"]
                node.rss_bytes = int(event.get("rss_bytes", node.rss_bytes) or 0)
            elif name == "lease.granted":
                node = self._node(str(event["node"]))
                node.state = "computing"
                node.shard = event.get("shard")
                node.epoch = event.get("epoch")
                node.lease_granted_at = ts
            elif name == "lease.completed":
                if event.get("node") is not None:
                    node = self._node(str(event["node"]))
                    if node.shard == event.get("shard"):
                        node.state = "connected"
                        node.shard = None
                        node.epoch = None
                        node.lease_granted_at = None
            elif name == "lease.expired":
                self.leases_expired += 1
                if event.get("node") is not None:
                    node = self._node(str(event["node"]))
                    node.leases_lost += 1
                    if node.shard == event.get("shard"):
                        node.shard = None
                        node.epoch = None
                        node.lease_granted_at = None
            elif name == "node.fenced":
                self.fenced_frames += 1
                if event.get("node") is not None:
                    self._node(str(event["node"])).fenced += 1
            elif name == "node.disconnected":
                node = self._node(str(event["node"]))
                node.state = "disconnected"
                node.disconnect_reason = event.get("reason")
                node.shard = None
                node.epoch = None
                node.lease_granted_at = None

    # -- derived -------------------------------------------------------
    @property
    def quarantined(self) -> int:
        """Finished cells that degraded to a quarantine verdict, in the
        pool or in-process: aborted plus timed out."""
        return self.verdicts["aborted"] + self.verdicts["timed-out"]

    def rate(self, now: float | None = None) -> float:
        """Cells computed per second since the campaign started. A
        journal-replayed cell counts toward ``done`` but not the rate:
        it took no time."""
        now = time.time() if now is None else now
        elapsed = now - self.started_at
        return self.computed / elapsed if elapsed > 0 and self.computed else 0.0

    def eta_seconds(self, now: float | None = None) -> float | None:
        rate = self.rate(now)
        if rate <= 0 or self.total <= 0:
            return None
        return max(0.0, (self.total - self.done) / rate)

    def stalled_count(self, now: float | None = None) -> int:
        now = time.time() if now is None else now
        with self._lock:
            return sum(1 for w in self.workers.values() if stalled(w, now, self.stall_after))

    def to_dict(self, now: float | None = None) -> dict:
        now = time.time() if now is None else now
        with self._lock:
            eta = self.eta_seconds(now)
            workers = [
                w.to_dict(now, self.stall_after)
                for w in sorted(self.workers.values(), key=lambda w: w.id)
            ]
            nodes = [
                n.to_dict(now)
                for n in sorted(self.nodes.values(), key=lambda n: n.node_id)
            ]
            return {
                "run_id": self.run_id,
                "pid": self.pid,
                "state": self.state,
                "started_at": self.started_at,
                "updated_at": now,
                "total": self.total,
                "done": self.done,
                "percent": round(100.0 * self.done / self.total, 2) if self.total else 0.0,
                "rate": round(self.rate(now), 4),
                "eta_seconds": round(eta, 1) if eta is not None else None,
                "verdicts": dict(self.verdicts),
                "retries": self.retries,
                "respawns": self.respawns,
                "quarantined": self.quarantined,
                "interrupted": self.interrupted,
                "heartbeat_interval": self.settings.interval,
                "stall_after": self.stall_after,
                "metrics_port": self.metrics_port,
                "workers": workers,
                "stalled": sum(1 for w in workers if w["stalled"]),
                # Distributed campaigns only; empty/zero on single-host
                # runs, and old readers simply ignore the keys.
                "nodes": nodes,
                "shards": self.shards,
                "leases_expired": self.leases_expired,
                "fenced_frames": self.fenced_frames,
            }


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------
class HeartbeatReporter:
    """Emits liveness beats from *inside* the computing process.

    The main thread marks cell boundaries (:meth:`begin_cell` /
    :meth:`end_cell`); a daemon thread ships a payload — PID, RSS,
    cells completed, current cell and time-in-cell — through ``send``
    every ``interval`` seconds. Used by pool workers (``send`` writes a
    pipe message) and by the serial driver (``send`` emits a recorder
    event). A ``stall`` fault (:mod:`repro.testing.faults`)
    suppresses the beats while the computation continues, which is
    exactly how a wedged worker looks from outside.
    """

    def __init__(self, send: Callable[[dict], None], interval: float):
        self.send = send
        self.interval = interval
        self._lock = threading.Lock()
        self._cell_id: str | None = None
        self._cell_started: float | None = None
        self.cells_completed = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- main-thread side ----------------------------------------------
    def begin_cell(self, cell_id: str) -> None:
        with self._lock:
            self._cell_id = cell_id
            self._cell_started = time.monotonic()

    def end_cell(self) -> None:
        with self._lock:
            self._cell_id = None
            self._cell_started = None
            self.cells_completed += 1

    def payload(self) -> dict:
        with self._lock:
            elapsed = (
                time.monotonic() - self._cell_started
                if self._cell_started is not None
                else 0.0
            )
            return {
                "pid": os.getpid(),
                "rss_bytes": rss_bytes(),
                "cells_completed": self.cells_completed,
                "cell_id": self._cell_id,
                "cell_elapsed": round(elapsed, 3),
            }

    # -- the beat thread -----------------------------------------------
    def _loop(self) -> None:
        from ..testing.faults import get_fault_injector

        while not self._stop.wait(self.interval):
            injector = get_fault_injector()
            if injector is not None and injector.heartbeats_stalled():
                continue
            try:
                self.send(self.payload())
            except Exception:
                return  # pipe gone: the parent is shutting us down

    def start(self) -> "HeartbeatReporter":
        # sound: ok [C004] the thread handle is touched only by the owning
        # thread in start()/stop(); _loop never reads self._thread.
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            # sound: ok [C004] owner-thread cleanup after join; the worker
            # thread has exited by the time the handle is cleared.
            self._thread = None

    def __enter__(self) -> "HeartbeatReporter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The status files
# ----------------------------------------------------------------------
STATUS_FILE = "status.json"
EVENTS_FILE = "events.jsonl"


def write_status_atomic(path: Path, payload: dict) -> None:
    """Rewrite ``path`` so a concurrent reader sees either the old or
    the new complete document, never a torn one: write a sibling temp
    file, fsync it, and ``os.replace`` it into place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as out:
        json.dump(payload, out, indent=1)
        out.write("\n")
        out.flush()
        try:
            os.fsync(out.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass
    os.replace(tmp, path)


class LiveStatusWriter:
    """Recorder subscriber persisting the campaign under
    ``<root>/<run-id>/``: every event appended to ``events.jsonl`` and
    the snapshot rewritten to ``status.json`` (atomic rename) at most
    every ``interval`` seconds — plus a final write on close, so the
    directory always ends on the authoritative last state."""

    def __init__(
        self,
        snapshot: CampaignSnapshot,
        root: str | Path | None = None,
    ):
        self.snapshot = snapshot
        self.settings = snapshot.settings
        self.dir = live_root(root if root is not None else self.settings.root) / snapshot.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.status_path = self.dir / STATUS_FILE
        self.events_path = self.dir / EVENTS_FILE
        self._lock = threading.Lock()
        self._events_sink: IO[str] | None = open(self.events_path, "a")
        self._last_status = float("-inf")
        self.write_status(force=True)

    def attach(self, recorder: Recorder) -> "LiveStatusWriter":
        recorder.subscribe(self.on_event)
        return self

    def on_event(self, event: dict) -> None:
        with self._lock:
            if self._events_sink is not None:
                self._events_sink.write(json.dumps(event, default=str) + "\n")
                self._events_sink.flush()
        self.write_status()

    def write_status(self, force: bool = False) -> None:
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_status < self.settings.interval:
                return
            self._last_status = now
        try:
            write_status_atomic(self.status_path, self.snapshot.to_dict())
        except OSError as exc:  # a full disk must not kill the campaign
            logger.warning("could not write %s: %s", self.status_path, exc)

    def close(self) -> None:
        self.write_status(force=True)
        with self._lock:
            if self._events_sink is not None:
                self._events_sink.close()
                self._events_sink = None


def read_status(ref: str | Path, root: str | Path | None = None) -> dict:
    """Load a status snapshot by run id, run directory, or file path.

    Raises ``FileNotFoundError`` when nothing matches and ``ValueError``
    when the file exists but is not a status document (which the atomic
    writer should make impossible — seeing one means the file was
    produced by something else).
    """
    candidates = []
    as_path = Path(ref)
    if as_path.is_file():
        candidates.append(as_path)
    candidates.append(as_path / STATUS_FILE)
    candidates.append(live_root(root) / str(ref) / STATUS_FILE)
    for path in candidates:
        if path.is_file():
            with open(path) as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or "run_id" not in payload:
                raise ValueError(f"{path}: not a live status file")
            return payload
    raise FileNotFoundError(
        f"no live status for {ref!r} (looked under {live_root(root)})"
    )


def list_live_runs(root: str | Path | None = None) -> list[dict]:
    """Status snapshots of every run under the live root, newest
    ``updated_at`` first. Unreadable/partial directories are skipped."""
    base = live_root(root)
    if not base.is_dir():
        return []
    runs = []
    for entry in base.iterdir():
        status = entry / STATUS_FILE
        if not status.is_file():
            continue
        try:
            with open(status) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and "run_id" in payload:
            runs.append(payload)
    runs.sort(key=lambda p: p.get("updated_at", 0.0), reverse=True)
    return runs


def prune_stale_runs(
    root: str | Path | None = None,
    prune_after: float = DEFAULT_PRUNE_AFTER,
    now: float | None = None,
) -> list[Path]:
    """Remove leftover ``<root>/<run-id>/`` directories: runs that
    finished (their terminal snapshot has served its purpose once the
    ledger holds the run) and runs whose status has not been updated
    for ``prune_after`` seconds (crashed or killed mid-flight). Called
    at campaign start so the live root only ever lists live campaigns
    plus a bounded tail of recent wreckage. Returns the pruned paths.
    """
    base = live_root(root)
    if not base.is_dir():
        return []
    now = time.time() if now is None else now
    pruned: list[Path] = []
    for entry in list(base.iterdir()):
        if not entry.is_dir():
            continue
        status = entry / STATUS_FILE
        stale = False
        try:
            with open(status) as handle:
                payload = json.load(handle)
            state = payload.get("state")
            updated = float(payload.get("updated_at", 0.0))
            stale = state in ("finished", "interrupted") or (now - updated) > prune_after
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            # No/garbled status at all: use the directory mtime.
            try:
                stale = (now - entry.stat().st_mtime) > prune_after
            except OSError:
                continue
        if not stale:
            continue
        try:
            for child in entry.iterdir():
                child.unlink()
            entry.rmdir()
            pruned.append(entry)
        except OSError as exc:  # pragma: no cover - races with a reader
            logger.warning("could not prune %s: %s", entry, exc)
    return pruned


# ----------------------------------------------------------------------
# Rendering: the watch view and the Prometheus exposition
# ----------------------------------------------------------------------
def _human_bytes(n: int | float | None) -> str:
    if not n:
        return "-"
    n = float(n)
    for unit in ("B", "K", "M", "G", "T"):
        if n < 1024.0 or unit == "T":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return "-"  # pragma: no cover


def verdict_bar(verdicts: dict, total: int, width: int = 40) -> str:
    """A proportional one-line verdict bar::

        [##########xx!!....                      ]

    ``#`` proved, ``x`` witnessed, ``!`` quarantined (aborted +
    timed-out), ``.`` unproved, space = not yet finished.
    """
    if total <= 0:
        return "[" + " " * width + "]"
    glyphs = (
        ("#", verdicts.get("proved", 0)),
        ("x", verdicts.get("witnessed", 0)),
        ("!", verdicts.get("aborted", 0) + verdicts.get("timed-out", 0)),
        (".", verdicts.get("unproved", 0)),
    )
    bar = ""
    for glyph, count in glyphs:
        bar += glyph * int(round(width * count / total))
    bar = bar[:width]
    return "[" + bar + " " * (width - len(bar)) + "]"


def format_eta(seconds: float) -> str:
    """Compact human duration (``47s``, ``3m12s``, ``2h05m``, ``1d03h``)."""
    seconds = max(0.0, seconds)
    if seconds < 60.0:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    if hours < 24:
        return f"{hours}h{minutes:02d}m"
    days, hours = divmod(hours, 24)
    return f"{days}d{hours:02d}h"


def render_head(status: dict) -> str:
    """``cells 120/216 (55.6%) | 3.40 cell/s | ETA 28s`` for one status
    snapshot: the head of the progress line and of the ``repro watch``
    frame. Rate and ETA appear once a computed cell gives a rate, the
    ETA only while cells remain."""
    total = status.get("total", 0)
    done = status.get("done", 0)
    pct = 100.0 * done / total if total else 0.0
    head = f"cells {done}/{total} ({pct:.1f}%)"
    rate = status.get("rate") or 0.0
    if rate > 0:
        head += f" | {rate:.2f} cell/s"
        eta = status.get("eta_seconds")
        if eta is not None and done < total:
            head += f" | ETA {format_eta(float(eta))}"
    return head


def render_watch(status: dict, now: float | None = None) -> str:
    """The terminal view of one status snapshot (``repro watch`` frames
    and ``repro stats --live``). Ages are recomputed against ``now`` so
    a frozen campaign visibly goes stale even though its file does not
    change."""
    now = time.time() if now is None else now
    total = status.get("total", 0)
    verdicts = status.get("verdicts", {})
    stall_after = float(status.get("stall_after") or 3.0)

    lines = [
        f"run {status.get('run_id', '?')}  [{status.get('state', '?')}]"
        + (f"  interrupted: {status['interrupted']}" if status.get("interrupted") else ""),
        render_head(status),
    ]
    lines.append(
        verdict_bar(verdicts, total)
        + f"  proved {verdicts.get('proved', 0)}"
        + f"  unproved {verdicts.get('unproved', 0)}"
        + f"  witnessed {verdicts.get('witnessed', 0)}"
        + f"  aborted {verdicts.get('aborted', 0)}"
        + f"  timed-out {verdicts.get('timed-out', 0)}"
    )
    lines.append(
        f"quarantined {status.get('quarantined', 0)}  "
        f"retries {status.get('retries', 0)}  "
        f"respawns {status.get('respawns', 0)}"
        + (
            f"  metrics :{status['metrics_port']}"
            if status.get("metrics_port")
            else ""
        )
    )

    workers = status.get("workers", [])
    if workers:
        stalled_ids = []
        rows = []
        for worker in workers:
            beat = worker.get("last_heartbeat_at")
            age = now - beat if beat else None
            is_stalled = (
                worker.get("state") == "busy"
                and age is not None
                and age > stall_after
            ) or bool(worker.get("stalled"))
            if is_stalled:
                stalled_ids.append(worker.get("id"))
            rows.append(
                (
                    str(worker.get("id", "?")),
                    str(worker.get("pid") or "-"),
                    worker.get("state", "?"),
                    str(worker.get("cells_completed", 0)),
                    _human_bytes(worker.get("rss_bytes")),
                    f"{age:.1f}s" if age is not None else "-",
                    (worker.get("cell_id") or "-")
                    + (
                        f" ({worker.get('cell_elapsed', 0.0):.1f}s)"
                        if worker.get("cell_id")
                        else ""
                    )
                    + ("  STALLED" if is_stalled else ""),
                )
            )
        header = ("id", "pid", "state", "cells", "rss", "hb age", "current cell")
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
        ]
        title = f"workers ({len(workers)}"
        if stalled_ids:
            title += f", {len(stalled_ids)} stalled"
        title += "):"
        lines.append(title)
        lines.append("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for row in rows:
            lines.append("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))

    nodes = status.get("nodes") or []
    if nodes:
        rows = []
        lost = 0
        for node in nodes:
            if node.get("state") == "disconnected":
                lost += 1
            beat = node.get("last_heartbeat_at")
            age = now - beat if beat else None
            lease_age = node.get("lease_age")
            state = node.get("state", "?")
            if state == "disconnected" and node.get("disconnect_reason"):
                state += f" ({node['disconnect_reason']})"
            rows.append(
                (
                    str(node.get("node", "?")),
                    state,
                    (node.get("shard") or "-")
                    + (f"@{node['epoch']}" if node.get("epoch") else ""),
                    f"{lease_age:.1f}s" if lease_age is not None else "-",
                    f"{age:.1f}s" if age is not None else "-",
                    str(node.get("cells_completed", 0)),
                    f"{node.get('rate') or 0.0:.2f}",
                    _human_bytes(node.get("rss_bytes")),
                    str(node.get("fenced", 0) or "-"),
                )
            )
        header = ("node", "state", "shard", "lease age", "hb age",
                  "cells", "cell/s", "rss", "fenced")
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows))
            for i in range(len(header))
        ]
        title = f"nodes ({len(nodes)}"
        if lost:
            title += f", {lost} lost"
        if status.get("shards"):
            title += f"; {status['shards']} shards"
        if status.get("leases_expired"):
            title += f", {status['leases_expired']} leases expired"
        if status.get("fenced_frames"):
            title += f", {status['fenced_frames']} frames fenced"
        title += "):"
        lines.append(title)
        lines.append("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for row in rows:
            lines.append("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))

    updated = status.get("updated_at")
    if updated:
        lines.append(f"updated {max(0.0, now - float(updated)):.1f}s ago")
    return "\n".join(lines)


def render_prometheus(status: dict, now: float | None = None) -> str:
    """The snapshot in Prometheus text exposition format (0.0.4)."""
    now = time.time() if now is None else now
    out: list[str] = []

    def metric(name: str, kind: str, help_text: str, samples: list[tuple[str, float]]):
        out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            out.append(f"{name}{labels} {value:g}")

    state_up = 1.0 if status.get("state") == "running" else 0.0
    metric("repro_campaign_up", "gauge", "1 while the campaign is running.",
           [("", state_up)])
    metric("repro_campaign_cells_total", "gauge", "Top-level cells in the campaign.",
           [("", float(status.get("total", 0)))])
    metric("repro_campaign_cells_done", "gauge", "Top-level cells finished.",
           [("", float(status.get("done", 0)))])
    metric(
        "repro_campaign_verdict_cells", "gauge", "Finished cells by verdict class.",
        [
            (f'{{verdict="{verdict}"}}', float(count))
            for verdict, count in sorted((status.get("verdicts") or {}).items())
        ],
    )
    metric("repro_campaign_rate_cells_per_second", "gauge",
           "Cells computed per second since campaign start (replayed cells excluded).",
           [("", float(status.get("rate") or 0.0))])
    eta = status.get("eta_seconds")
    if eta is not None:
        metric("repro_campaign_eta_seconds", "gauge", "Estimated seconds remaining.",
               [("", float(eta))])
    metric("repro_campaign_retries_total", "counter", "Cell retries after crashes.",
           [("", float(status.get("retries", 0)))])
    metric("repro_campaign_respawns_total", "counter", "Worker respawns.",
           [("", float(status.get("respawns", 0)))])
    metric("repro_campaign_quarantined_total", "counter",
           "Cells quarantined (aborted or timed out).",
           [("", float(status.get("quarantined", 0)))])
    metric("repro_campaign_stalled_workers", "gauge",
           "Busy workers whose heartbeats have stopped.",
           [("", float(status.get("stalled", 0)))])

    workers = status.get("workers") or []
    if workers:
        def per_worker(key: str, default=0.0):
            return [
                (f'{{worker="{w.get("id")}"}}', float(w.get(key) or default))
                for w in workers
            ]

        metric("repro_worker_up", "gauge", "1 while the worker process is live.",
               [
                   (f'{{worker="{w.get("id")}"}}',
                    1.0 if w.get("state") in ("idle", "busy", "starting") else 0.0)
                   for w in workers
               ])
        metric("repro_worker_cells_completed", "counter",
               "Cells completed by this worker.", per_worker("cells_completed"))
        metric("repro_worker_rss_bytes", "gauge",
               "Worker resident set size.", per_worker("rss_bytes"))
        metric(
            "repro_worker_heartbeat_age_seconds", "gauge",
            "Seconds since the worker's newest heartbeat.",
            [
                (
                    f'{{worker="{w.get("id")}"}}',
                    max(0.0, now - float(w["last_heartbeat_at"])),
                )
                for w in workers
                if w.get("last_heartbeat_at")
            ],
        )
        metric(
            "repro_worker_stalled", "gauge",
            "1 when the worker is busy but silent past the stall threshold.",
            [
                (f'{{worker="{w.get("id")}"}}', 1.0 if w.get("stalled") else 0.0)
                for w in workers
            ],
        )

    nodes = status.get("nodes") or []
    if nodes:
        def per_node(key: str):
            return [
                (f'{{node="{n.get("node")}"}}', float(n.get(key) or 0.0))
                for n in nodes
            ]

        metric("repro_node_up", "gauge",
               "1 while the node agent is connected.",
               [
                   (f'{{node="{n.get("node")}"}}',
                    0.0 if n.get("state") == "disconnected" else 1.0)
                   for n in nodes
               ])
        metric("repro_node_cells_completed", "counter",
               "Cells this node streamed back (accepted by the lease).",
               per_node("cells_completed"))
        metric("repro_node_rate_cells_per_second", "gauge",
               "Per-node completion rate since it connected.",
               per_node("rate"))
        metric("repro_node_rss_bytes", "gauge",
               "Node agent resident set size.", per_node("rss_bytes"))
        metric(
            "repro_node_heartbeat_age_seconds", "gauge",
            "Seconds since the node's newest heartbeat.",
            [
                (
                    f'{{node="{n.get("node")}"}}',
                    max(0.0, now - float(n["last_heartbeat_at"])),
                )
                for n in nodes
                if n.get("last_heartbeat_at")
            ],
        )
        metric(
            "repro_node_lease_age_seconds", "gauge",
            "Age of the node's current shard lease.",
            [
                (f'{{node="{n.get("node")}"}}', float(n["lease_age"]))
                for n in nodes
                if n.get("lease_age") is not None
            ],
        )
        metric("repro_node_fenced_frames_total", "counter",
               "Stale-epoch frames from this node the coordinator discarded.",
               per_node("fenced"))
        metric("repro_campaign_leases_expired_total", "counter",
               "Shard leases expired (missed heartbeats or disconnects).",
               [("", float(status.get("leases_expired", 0)))])
        metric("repro_campaign_fenced_frames_total", "counter",
               "Frames fenced campaign-wide.",
               [("", float(status.get("fenced_frames", 0)))])
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# The metrics endpoint
# ----------------------------------------------------------------------
class MetricsServer:
    """Opt-in HTTP view of a live snapshot (stdlib only, daemon thread).

    Routes: ``/`` and ``/status.json`` serve the JSON snapshot;
    ``/metrics`` serves Prometheus text format; everything else is 404.
    Binds ``127.0.0.1`` — this is an operator tool, not a public API
    (that is ``repro serve``'s job, which will grow from this seed).
    """

    def __init__(
        self,
        snapshot: CampaignSnapshot,
        port: int = 0,
        host: str = "127.0.0.1",
        recorder=None,
    ):
        self.snapshot = snapshot
        self.recorder = recorder
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # quiet
                return None

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                if path in ("/", "/status", "/status.json"):
                    body = json.dumps(server.snapshot.to_dict(), indent=1).encode()
                    ctype = "application/json"
                elif path == "/metrics":
                    text = render_prometheus(server.snapshot.to_dict())
                    if server.recorder is not None and server.recorder.enabled:
                        # Internal process metrics ride along; a scrape
                        # racing the supervisor's updates just waits for
                        # the next one.
                        try:
                            text += server.recorder.metrics.to_prometheus()
                        except RuntimeError:  # pragma: no cover - dict resize race
                            pass
                    body = text.encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    self.send_error(404, "unknown path (try / or /metrics)")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        snapshot.metrics_port = self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)


# ----------------------------------------------------------------------
# One-call assembly
# ----------------------------------------------------------------------
class LiveTelemetry:
    """Snapshot + status writer (+ optional metrics endpoint),
    subscribed to a recorder for a ``with`` block::

        settings = TelemetrySettings(metrics_port=0)
        with LiveTelemetry("20260807T...-verify-ab12cd", settings) as live:
            report = verify_partition(factory, cells, runner_settings)
        # .repro/live/<run-id>/status.json now holds the final snapshot

    The views subscribe to ``recorder``, else to the enabled ambient
    recorder, else to a fresh :class:`~repro.obs.recorder.Recorder`
    installed as the ambient one for the block. The supervisor and
    runner emit through :func:`~repro.obs.recorder.get_recorder`, so no
    plumbing changes are needed anywhere a campaign is driven. For the
    block, the recorder's heartbeat period is ``settings.interval``;
    its metrics ride along on ``/metrics``.
    """

    def __init__(
        self,
        run_id: str,
        settings: TelemetrySettings | None = None,
        recorder: Recorder | None = None,
    ):
        self.settings = settings or TelemetrySettings()
        self.run_id = run_id
        ambient = get_recorder()
        if recorder is None and ambient.enabled:
            recorder = ambient
        self._installs = recorder is None
        self.recorder: Recorder = recorder if recorder is not None else Recorder()
        prune_stale_runs(self.settings.root)
        self.snapshot = CampaignSnapshot(run_id, self.settings)
        self.writer = LiveStatusWriter(self.snapshot)
        self.server: MetricsServer | None = None
        if self.settings.metrics_port is not None:
            self.server = MetricsServer(
                self.snapshot, port=self.settings.metrics_port, recorder=self.recorder
            )
            self.writer.write_status(force=True)
        self._restore: tuple[float | None, NullRecorder | None] | None = None

    @property
    def status_path(self) -> Path:
        return self.writer.status_path

    def __enter__(self) -> "LiveTelemetry":
        recorder = self.recorder
        previous = set_recorder(recorder) if self._installs else None
        self._restore = (recorder.heartbeat_interval, previous)
        recorder.heartbeat_interval = self.settings.interval
        self.snapshot.attach(recorder)
        self.writer.attach(recorder)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._restore is not None:
            interval, previous = self._restore
            self._restore = None
            self.recorder.unsubscribe(self.snapshot.on_event)
            self.recorder.unsubscribe(self.writer.on_event)
            self.recorder.heartbeat_interval = interval
            if previous is not None:
                set_recorder(previous)
        if self.server is not None:
            self.server.close()
            self.server = None
        self.writer.close()
