"""Node agent for distributed sharded campaigns.

One node agent runs on each machine (or, for the localhost topology,
in each forked process) of a distributed campaign. It is deliberately
thin: all verification machinery is the existing supervised fork pool
(:func:`~repro.core.supervisor.run_supervised`) — worker crash
retry/quarantine, per-cell budgets and deadline draining compose
unchanged underneath — and all scheduling intelligence lives in the
coordinator (:mod:`repro.core.coordinator`). The agent's whole job is:

1. connect and say ``hello`` (node id, worker count);
2. for each ``grant`` frame, verify the shard's cells on the local
   pool, streaming one ``result`` frame per finished cell;
3. keep a heartbeat thread talking so the coordinator can tell
   "slow" from "dead" (the payload reuses the
   :class:`~repro.obs.live.HeartbeatReporter` shape that single-host
   live telemetry already emits for workers);
4. say ``shard_done`` and wait for the next grant or ``shutdown``.

A signal (SIGINT/SIGTERM) drains the local pool mid-shard; the agent
then leaves without ``shard_done``: it closes its socket, the
coordinator expires the lease, and another node steals the cells the
drained pool did not finish.

Every frame the agent sends carries the ``(shard, epoch)`` it is
working under. The agent never decides whether its work is still
wanted — the coordinator's lease table does, by fencing frames from
stale epochs. That asymmetry is what makes the zombie scenario safe: a
netsplit agent keeps computing and later flushes everything it
buffered, and the flush is *correct behavior* — the coordinator
discards it deterministically.

Node-level fault injection (``node-crash`` / ``node-netsplit`` /
``node-slowjoin`` in :mod:`repro.testing.faults`) hooks in here, at
the same seams a real failure would hit: process death mid-shard,
frames silently not arriving, late enrollment.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..intervals import Box
from ..obs.live import HeartbeatReporter
from ..testing.faults import CRASH_EXIT_CODE, get_fault_injector
from .result import CellResult
from .wire import FrameError, parse_hostport, recv_frame, send_frame

logger = logging.getLogger("repro.core.node")

#: Seconds to keep retrying the initial TCP connect (the coordinator
#: may still be binding when nodes launch).
DIAL_TIMEOUT = 10.0


@dataclass(frozen=True)
class NodeSettings:
    """How one node agent connects and computes."""

    #: ``HOST:PORT`` of the coordinator.
    connect: str
    #: Stable node name; shown in `repro watch`, recorded in journal
    #: provenance. Defaults to ``node-<pid>``.
    node_id: str | None = None
    #: Size of the local supervised pool.
    workers: int = 1
    #: Heartbeat period in seconds. Must be well under the
    #: coordinator's lease timeout or healthy nodes get expired.
    heartbeat_interval: float = 0.5

    def resolved_node_id(self) -> str:
        return self.node_id or f"node-{os.getpid()}"


@dataclass
class NodeOutcome:
    """What one agent did before the coordinator said shutdown."""

    node_id: str = ""
    cells_computed: int = 0
    shards_completed: int = 0
    #: Fence frames the coordinator sent us (stale-epoch work of ours
    #: it discarded). Nonzero after surviving a netsplit.
    fenced: int = 0
    #: The coordinator's campaign config from the welcome frame.
    config: dict = field(default_factory=dict)
    #: Why the agent left mid-shard ("signal:SIGTERM", ...), or None
    #: when the coordinator said shutdown.
    interrupted: str | None = None


class _Sender:
    """Socket writer with a netsplit valve.

    All frames leave through :meth:`send` under one lock (the main
    loop and the heartbeat thread both write). ``mute_for`` opens a
    blackout window emulating a one-way partition: the TCP connection
    stays up, heartbeats are *dropped* (a split heartbeat never
    arrives) and data frames are *buffered* (the agent's computation
    does not stop). The first send after the window closes flushes the
    buffer — the zombie's late flood, which the coordinator must fence.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()
        self._mute_until = 0.0
        self._buffer: list[dict] = []

    def mute_for(self, seconds: float) -> None:
        with self._lock:
            self._mute_until = time.monotonic() + seconds

    def send(self, payload: dict) -> None:
        with self._lock:
            if time.monotonic() < self._mute_until:
                if payload.get("type") != "heartbeat":
                    self._buffer.append(payload)
                return
            while self._buffer:
                send_frame(self._sock, self._buffer.pop(0))
            send_frame(self._sock, payload)


def _connect(settings: NodeSettings) -> socket.socket:
    host, port = parse_hostport(settings.connect)
    deadline = time.monotonic() + DIAL_TIMEOUT
    delay = 0.05
    while True:
        try:
            return socket.create_connection((host, port), timeout=DIAL_TIMEOUT)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(delay)
            delay = min(0.5, delay * 2)


def _grant_tasks(cells: list[dict]) -> list[tuple]:
    """Grant payload -> supervised-pool tasks. Cell ids are the global
    ``cell-<index>`` names, so results (and their refinement subtrees)
    are indistinguishable from a single-host run's."""
    return [
        (
            f"cell-{cell['index']}",
            Box(cell["lo"], cell["hi"]),
            int(cell["command"]),
            dict(cell.get("tags") or {}),
        )
        for cell in cells
    ]


def run_node(
    settings: NodeSettings,
    system_factory: Callable[[], object] | None = None,
    factory_from_config: Callable[[dict], Callable[[], object]] | None = None,
    runner_settings=None,
) -> NodeOutcome:
    """Run one node agent until the coordinator says ``shutdown`` or a
    signal interrupts a grant (``NodeOutcome.interrupted``).

    The closed-loop system comes either from ``system_factory``
    (programmatic use — the localhost ``run_distributed`` helper forks
    agents that close over the caller's factory) or from
    ``factory_from_config``, called with the coordinator's welcome
    config (the CLI path, where a bare ``repro node`` must build the
    same scenario the coordinator is verifying). ``runner_settings``,
    when given, overrides the welcome-config-derived pool settings —
    the localhost helper passes the campaign's exact
    :class:`~repro.core.runner.RunnerSettings` through the fork, so
    settings parity with single-host is by construction, not by
    serialization fidelity.
    """
    if (system_factory is None) == (factory_from_config is None):
        raise ValueError("pass exactly one of system_factory / factory_from_config")
    from .runner import RunnerSettings  # local import: runner imports obs at load

    injector = get_fault_injector()
    if injector is not None:
        delay = injector.node_slowjoin_seconds()
        if delay > 0:
            logger.info("slowjoin fault: sleeping %.2fs before connecting", delay)
            time.sleep(delay)

    node_id = settings.resolved_node_id()
    outcome = NodeOutcome(node_id=node_id)
    sock = _connect(settings)
    # Blocking reads from here on: idle waits between grants are
    # unbounded (the coordinator says shutdown when the campaign ends;
    # a dead coordinator surfaces as EOF/ECONNRESET, not a timeout).
    sock.settimeout(None)
    sender = _Sender(sock)
    sender.send(
        {"type": "hello", "node": node_id, "workers": settings.workers,
         "pid": os.getpid()}
    )
    welcome = recv_frame(sock)
    if welcome.get("type") != "welcome":
        raise FrameError(f"expected welcome, got {welcome.get('type')!r}")
    outcome.config = dict(welcome.get("config") or {})
    if system_factory is None:
        assert factory_from_config is not None
        system_factory = factory_from_config(outcome.config)

    # The local pool reuses the campaign's reach/refinement settings but
    # its own worker count; campaign-wide budgets (deadline) stay with
    # the coordinator, which stops granting when they expire.
    if runner_settings is not None:
        pool_settings = RunnerSettings(
            reach=runner_settings.reach,
            refinement=runner_settings.refinement,
            workers=settings.workers,
            cell_timeout=runner_settings.cell_timeout,
            max_retries=runner_settings.max_retries,
            retry_backoff=runner_settings.retry_backoff,
        )
    else:
        pool_settings = RunnerSettings(
            reach=_reach_from_config(outcome.config),
            refinement=_refinement_from_config(outcome.config),
            workers=settings.workers,
            cell_timeout=outcome.config.get("cell_timeout"),
            max_retries=int(outcome.config.get("max_retries", 1)),
        )

    # One heartbeat thread for the agent's lifetime; the shard/epoch it
    # stamps onto each beat tracks the current grant.
    current: dict = {"shard": None, "epoch": 0}
    reporter = HeartbeatReporter(
        lambda payload: sender.send(
            {
                "type": "heartbeat",
                "node": node_id,
                "shard": current["shard"],
                "epoch": current["epoch"],
                "payload": payload,
            }
        ),
        settings.heartbeat_interval,
    ).start()

    try:
        while True:
            try:
                frame = recv_frame(sock)
            except (EOFError, OSError):
                logger.info("%s: coordinator connection closed", node_id)
                break
            kind = frame.get("type")
            if kind == "shutdown":
                break
            if kind == "fence":
                outcome.fenced += 1
                logger.info(
                    "%s: fenced on %s epoch %s (our work there was stale)",
                    node_id, frame.get("shard"), frame.get("epoch"),
                )
                continue
            if kind != "grant":
                logger.warning("%s: ignoring unknown frame %r", node_id, kind)
                continue

            shard_id = frame["shard"]
            epoch = int(frame["epoch"])
            cells = frame["cells"]
            keys = [cell["key"] for cell in cells]
            current["shard"], current["epoch"] = shard_id, epoch

            crash_after: int | None = None
            if injector is not None:
                split = injector.node_netsplit_seconds(shard_id, epoch)
                if split is not None:
                    logger.info(
                        "%s: netsplit fault on %s: muting frames for %.1fs",
                        node_id, shard_id, split,
                    )
                    sender.mute_for(split)
                if injector.node_crash_active(shard_id, epoch):
                    crash_after = max(1, len(cells) // 2)

            tasks = _grant_tasks(cells)
            streamed = 0

            def on_result(seq: int, result: CellResult, _worker: int | None) -> None:
                nonlocal streamed
                reporter.end_cell()
                sender.send(
                    {
                        "type": "result",
                        "node": node_id,
                        "shard": shard_id,
                        "epoch": epoch,
                        "index": int(cells[seq]["index"]),
                        "key": keys[seq],
                        "result": result.to_dict(),
                    }
                )
                streamed += 1
                outcome.cells_computed += 1
                if crash_after is not None and streamed >= crash_after:
                    # A real node death: no goodbye, no flush, no
                    # cleanup. The coordinator finds out from the EOF
                    # (or the missed heartbeats) and steals the rest
                    # of the shard.
                    os._exit(CRASH_EXIT_CODE)

            from .supervisor import run_supervised

            logger.info(
                "%s: granted %s epoch %d (%d cells)",
                node_id, shard_id, epoch, len(tasks),
            )
            supervised = run_supervised(
                system_factory,
                tasks,
                pool_settings,
                on_result=on_result,
                indices=[int(cell["index"]) for cell in cells],
            )
            if supervised.interrupted:
                # The shard is not done: leave without saying so, and
                # the coordinator steals what the pool did not finish.
                outcome.interrupted = supervised.interrupted
                logger.warning(
                    "%s: interrupted (%s) after %d of %d cells of %s; leaving",
                    node_id, supervised.interrupted, streamed, len(tasks), shard_id,
                )
                break
            sender.send(
                {"type": "shard_done", "node": node_id, "shard": shard_id,
                 "epoch": epoch, "cells": streamed}
            )
            outcome.shards_completed += 1
            current["shard"], current["epoch"] = None, 0
    finally:
        reporter.stop()
        sock.close()
    return outcome


def _reach_from_config(config: dict):
    from .reach import ReachSettings

    return ReachSettings(
        substeps=int(config.get("substeps", 10)),
        max_symbolic_states=int(config.get("gamma", 5)),
    )


def _refinement_from_config(config: dict):
    from .partition import RefinementPolicy

    depth = int(config.get("depth", 0))
    if depth <= 0:
        return None
    dims = tuple(config.get("refinement_dims") or (0, 1, 2))
    return RefinementPolicy(dims=dims, max_depth=depth)
