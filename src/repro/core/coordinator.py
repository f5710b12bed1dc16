"""Campaign coordinator for distributed sharded verification.

The paper's headline experiment — ~198k cells over ~12 days — runs at
a scale where node loss is routine. This module is the control plane
that makes such a campaign a fleet workload: one coordinator process
owns the partition, shards it deterministically
(:func:`~repro.core.lease.assign_shards` over the checkpoint layer's
geometry keys), and hands shards to node agents
(:mod:`repro.core.node`) over length-prefixed JSON frames
(:mod:`repro.core.wire`), tracking each grant as a *lease*
(:class:`~repro.core.lease.LeaseTable`).

Recovery, not scheduling, is the design center:

* **Node loss.** Missed heartbeats or a dropped connection expire the
  lease; after an exponential cooling-off window the shard is
  *work-stolen* by any idle node — at cell granularity: the steal
  grant excludes every cell the dead node already streamed back, so a
  crash costs at most the in-flight cells, never recomputation of
  journaled ones.
* **Zombie nodes.** Every grant carries a fresh, strictly increasing
  *epoch*. A node that went silent (netsplit) and later floods its
  buffered results back is answered frame-by-frame with a ``fence``:
  its epoch is dead, nothing it sends is accepted, and the discard is
  deterministic — no "maybe the old result lands first" races.
* **Coordinator loss.** Grants and accepted results flow through the
  same append-only journal as a single-host
  ``verify_partition(..., journal=...)`` run
  (:mod:`repro.core.checkpoint`; cell entries gain ``shard``/``epoch``
  provenance fields old readers skip, lease grants are their own
  records old readers also skip). A restarted coordinator replays the
  journal: finished cells stay finished, and every shard's epoch floor
  is restored so pre-crash zombies stay fenced.

The campaign shell is the single-host driver's
(:func:`~repro.core.runner.verify_partition`): the same journal replay,
the same ``cell.finished`` event for streamed and replayed cells alike
(which the progress line folds), and the same report tail.

Determinism is the acceptance bar: the same partition verified
distributed and single-host yields the same verdicts, the same
refinement trees, the same coverage — the merged journal is
byte-identical under :func:`~repro.core.checkpoint.canonical_journal_bytes`
(which normalizes only wall-clock fields). Cells are re-assembled in
partition order, and node ids never leak into the mathematics.
"""

from __future__ import annotations

import logging
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..obs import CampaignProgress, get_recorder
from .checkpoint import _cell_key, _JournalWriter, load_lease_records, replay_journal
from .lease import Lease, LeaseTable, assign_shards
from .result import CellResult, VerificationReport
from .runner import (
    RunnerSettings,
    _campaign_report,
    _campaign_tasks,
    _progress_subscribed,
    _publish_finished,
)
from .supervisor import _announce_interruption, _interruption, trap_shutdown_signals
from .wire import FrameDecoder, FrameError, parse_hostport, send_frame

logger = logging.getLogger("repro.core.coordinator")

#: recv size per readable socket per loop turn.
_RECV_CHUNK = 1 << 16

#: Event-loop poll period in seconds (lease sweeps, grant attempts).
POLL_INTERVAL = 0.1
#: Per-socket send/recv timeout in seconds; a peer wedged longer than
#: this on the TCP level is treated as disconnected.
SOCKET_TIMEOUT = 10.0
#: Cap in seconds on the exponential cooling-off window of an expired
#: shard.
MAX_BACKOFF = 30.0


@dataclass(frozen=True)
class DistributedSettings:
    """Topology and lease policy for one distributed campaign."""

    #: ``HOST:PORT`` to listen on (port 0 = ephemeral, reported by
    #: :meth:`Coordinator.start`).
    listen: str = "127.0.0.1:0"
    #: Shard count (None = ``max(8, 4 * expected_nodes)``, capped at
    #: the cell count). More shards than nodes keeps the work-stealing
    #: granularity useful: an idle node always has something to claim.
    num_shards: int | None = None
    #: Hold all grants until this many nodes have said hello
    #: (0 = grant as nodes arrive).
    expected_nodes: int = 0
    #: Seconds of node silence before its lease expires.
    lease_timeout: float = 10.0
    #: Base of the exponential cooling-off window an expired shard
    #: sits out before it may be regranted (capped at MAX_BACKOFF).
    reassign_backoff: float = 0.5
    #: fsync journal appends (same meaning as the checkpoint layer's).
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError("num_shards must be >= 1 (or None)")
        if self.expected_nodes < 0:
            raise ValueError("expected_nodes must be >= 0")


@dataclass
class CoordinatorStats:
    """Observable invariants of one coordinated campaign — what the
    acceptance drill asserts on."""

    grants: int = 0
    expired_leases: int = 0
    #: Frames (results / heartbeats / completions) refused because
    #: their epoch was stale. Nonzero whenever a zombie came back.
    fenced_frames: int = 0
    #: Results accepted for a key that was already journaled. Must stay
    #: 0: grants exclude finished cells and stale epochs are fenced, so
    #: a double-count would mean the lease discipline is broken.
    duplicate_results: int = 0
    #: Cells handed out again after a lease expiry (the stolen work).
    stolen_cells: int = 0
    #: Already-journaled cells *excluded* from steal grants — the
    #: recomputation that did not happen.
    steal_excluded: int = 0
    nodes_seen: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "grants": self.grants,
            "expired_leases": self.expired_leases,
            "fenced_frames": self.fenced_frames,
            "duplicate_results": self.duplicate_results,
            "stolen_cells": self.stolen_cells,
            "steal_excluded": self.steal_excluded,
            "nodes_seen": list(self.nodes_seen),
        }


class _Conn:
    """Per-connection read state."""

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        self.decoder = FrameDecoder()
        self.node_id: str | None = None
        #: True while the agent is (as far as we know) computing a
        #: grant — ours or a stale one. Lease expiry does NOT clear
        #: this: an expired node is usually still chewing on the shard,
        #: and granting it more work would just queue dead epochs in
        #: its socket. Cleared by its shard_done (accepted or fenced)
        #: or by a heartbeat reporting it idle.
        self.busy = False


class Coordinator:
    """One distributed campaign: shard, lease, merge.

    Single-threaded by construction — every socket, the lease table and
    the journal are touched only from :meth:`serve`'s ``selectors``
    loop, so there is no lock anywhere in the control plane.
    """

    def __init__(
        self,
        cells: Sequence[tuple],
        journal_path: str | Path,
        settings: RunnerSettings | None = None,
        dist: DistributedSettings | None = None,
        progress: CampaignProgress | None = None,
        welcome_config: dict | None = None,
    ):
        self.settings = settings or RunnerSettings()
        self.dist = dist or DistributedSettings()
        self.progress = progress
        self.journal_path = Path(journal_path)
        self.stats = CoordinatorStats()

        self.tasks = _campaign_tasks(cells)
        self.keys = [_cell_key(box, command) for _, box, command, _ in self.tasks]
        self.index_of = {key: i for i, key in enumerate(self.keys)}

        num_shards = self.dist.num_shards or max(
            8, 4 * max(1, self.dist.expected_nodes)
        )
        num_shards = min(num_shards, max(1, len(self.keys)))
        self.shards = assign_shards(self.keys, num_shards)
        self.table = LeaseTable(
            self.shards,
            lease_timeout=self.dist.lease_timeout,
            reassign_backoff=self.dist.reassign_backoff,
            max_backoff=MAX_BACKOFF,
        )
        #: What remote ``repro node`` agents rebuild their pool from.
        self.welcome_config = dict(welcome_config or {})
        self.welcome_config.setdefault("substeps", self.settings.reach.substeps)
        self.welcome_config.setdefault("gamma", self.settings.reach.max_symbolic_states)
        self.welcome_config.setdefault(
            "depth",
            self.settings.refinement.max_depth if self.settings.refinement else 0,
        )
        if self.settings.refinement is not None:
            self.welcome_config.setdefault(
                "refinement_dims", list(self.settings.refinement.dims)
            )
        self.welcome_config.setdefault("cell_timeout", self.settings.cell_timeout)
        self.welcome_config.setdefault("max_retries", self.settings.max_retries)

        #: index -> accepted result (journal-replayed and streamed
        #: alike). Also the steal exclusion set: it includes quarantined
        #: results, which are never journaled but are also never retried
        #: within one campaign — matching the single-host driver.
        self.results: dict[int, CellResult] = {}

        self._listener: socket.socket | None = None
        self._sel: selectors.BaseSelector | None = None
        self._conns: dict[socket.socket, _Conn] = {}
        #: node id -> live connection (latest hello wins).
        self._nodes: dict[str, _Conn] = {}
        self._shard_expiry_pending: bool = False
        self.interrupted: str | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        assert self._listener is not None, "call start() first"
        return self._listener.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind the listener (does not block). Returns (host, port) —
        with an ephemeral port spec, this is where nodes must dial."""
        host, port = parse_hostport(self.dist.listen)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ, "listener")
        logger.info("coordinator listening on %s:%d", *self.address)
        return self.address

    # -- results ---------------------------------------------------------
    def _finish(
        self, index: int, result: CellResult, node: str | None = None, cached: bool = False
    ) -> None:
        """Accept cell ``index``'s result, streamed by ``node`` or
        replayed from the journal (``cached``)."""
        self.results[index] = result
        _publish_finished(index, result, None, cached, node=node)

    def _replay_journal(self) -> None:
        for index, result in replay_journal(self.journal_path, self.keys).items():
            result.tags.update(self.tasks[index][3])
            self._finish(index, result, cached=True)
        # Epoch floors: every pre-crash grant is replayed so a new
        # grant's epoch is strictly above anything a zombie may hold.
        for record in load_lease_records(self.journal_path):
            shard_id = record.get("shard")
            epoch = record.get("epoch")
            if shard_id in self.table and isinstance(epoch, int):
                self.table.restore_epoch(shard_id, epoch)
        for shard in self.shards:
            if all(i in self.results for i in shard.indices):
                self.table.force_complete(shard.shard_id)

    # -- the loop ------------------------------------------------------
    def serve(self) -> VerificationReport:
        """Run the campaign to completion (or deadline/signal) and
        return the merged report. :meth:`start` must have been called;
        node agents may connect before or after serve() begins."""
        assert self._sel is not None, "call start() first"
        with _progress_subscribed(self.progress):
            report = self._campaign()
        report.settings_summary["journal"] = str(self.journal_path)
        report.settings_summary["distributed"] = {
            "shards": len(self.shards),
            "lease_timeout": self.dist.lease_timeout,
            **self.stats.to_dict(),
        }
        return report

    def _campaign(self) -> VerificationReport:
        """The campaign from ``campaign.started`` to ``campaign.finished``."""
        assert self._sel is not None
        rec = get_recorder()
        run_started = time.perf_counter()
        rec.event(
            "campaign.started",
            total=len(self.tasks),
            workers=0,
            pid=os.getpid(),
            distributed=True,
            shards=len(self.shards),
        )
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        self._replay_journal()
        deadline_at = (
            time.monotonic() + self.settings.deadline
            if self.settings.deadline
            else None
        )
        with open(self.journal_path, "a") as handle:
            journal = _JournalWriter(handle, self.dist.fsync)
            with trap_shutdown_signals() as stop:
                while self.table.outstanding() > 0:
                    self.interrupted = _interruption(stop, deadline_at)
                    if self.interrupted:
                        _announce_interruption(
                            self.interrupted, len(self.tasks) - len(self.results)
                        )
                        break
                    events = self._sel.select(timeout=POLL_INTERVAL)
                    for key, _mask in events:
                        if key.data == "listener":
                            self._accept()
                        else:
                            self._read(key.data, journal)
                    now = time.monotonic()
                    for lease in self.table.expire_due(now):
                        self._expired(
                            lease, "lease-timeout",
                            f"no heartbeat for {self.dist.lease_timeout:.1f}s",
                        )
                    self._grant_idle(journal, now)
            self._shutdown_nodes()
        return _campaign_report(self.results, self.settings, self.interrupted, run_started)

    # -- connection handling -------------------------------------------
    def _accept(self) -> None:
        assert self._listener is not None and self._sel is not None
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.settimeout(SOCKET_TIMEOUT)
        conn = _Conn(sock, addr)
        self._conns[sock] = conn
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _disconnect(self, conn: _Conn, reason: str) -> None:
        assert self._sel is not None
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn.node_id is not None and self._nodes.get(conn.node_id) is conn:
            del self._nodes[conn.node_id]
            get_recorder().event("node.disconnected", node=conn.node_id, reason=reason)
            now = time.monotonic()
            for lease in self.table.expire_node(conn.node_id, now):
                self._expired(lease, reason, reason)

    def _expired(self, lease: Lease, reason: str, detail: str) -> None:
        """Count, log and publish one expired lease; its shard's missing
        cells go to the next steal grant."""
        self.stats.expired_leases += 1
        logger.warning(
            "lease expired: %s epoch %d held by %s (%s)",
            lease.shard_id, lease.epoch, lease.node_id, detail,
        )
        get_recorder().event(
            "lease.expired",
            node=lease.node_id,
            shard=lease.shard_id,
            epoch=lease.epoch,
            reason=reason,
        )

    def _read(self, conn: _Conn, journal: _JournalWriter) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (OSError, socket.timeout):
            self._disconnect(conn, "recv-error")
            return
        if not data:
            self._disconnect(conn, "disconnect")
            return
        try:
            frames = conn.decoder.feed(data)
        except FrameError as exc:
            logger.warning("%s: protocol error: %s", conn.addr, exc)
            self._disconnect(conn, "protocol-error")
            return
        for frame in frames:
            self._dispatch(conn, frame, journal)

    def _send(self, conn: _Conn, payload: dict) -> None:
        try:
            send_frame(conn.sock, payload)
        except (OSError, FrameError):
            self._disconnect(conn, "send-error")

    # -- frame handlers ------------------------------------------------
    def _fence(self, conn: _Conn, frame: dict) -> None:
        self.stats.fenced_frames += 1
        get_recorder().event(
            "node.fenced",
            node=frame.get("node"),
            shard=frame.get("shard"),
            epoch=frame.get("epoch"),
            frame=frame.get("type"),
        )
        self._send(
            conn,
            {"type": "fence", "shard": frame.get("shard"), "epoch": frame.get("epoch")},
        )

    def _dispatch(self, conn: _Conn, frame: dict, journal: _JournalWriter) -> None:
        kind = frame.get("type")
        if kind == "hello":
            node_id = str(frame.get("node"))
            conn.node_id = node_id
            stale = self._nodes.get(node_id)
            if stale is not None and stale is not conn:
                # Same node id reconnecting (restarted agent): the old
                # socket is a zombie's. Latest hello wins; the old
                # connection's frames keep being fenced until it dies.
                logger.info("%s reconnected; superseding old connection", node_id)
            self._nodes[node_id] = conn
            conn.busy = False
            if node_id not in self.stats.nodes_seen:
                self.stats.nodes_seen.append(node_id)
            get_recorder().event(
                "node.connected",
                node=node_id,
                workers=frame.get("workers"),
                pid=frame.get("pid"),
            )
            self._send(conn, {"type": "welcome", "config": self.welcome_config})
            return
        if conn.node_id is None:
            logger.warning("%s: frame before hello; dropping", conn.addr)
            return
        node_id = str(frame.get("node") or conn.node_id)
        shard_id = frame.get("shard")
        epoch = int(frame.get("epoch") or 0)

        if kind == "heartbeat":
            payload = frame.get("payload") or {}
            # The beat is ground truth for busyness, fenced or not: a
            # node beating with a shard is computing (possibly a stale
            # epoch); one beating with none is ready for work again.
            conn.busy = shard_id is not None
            if shard_id is not None and not self.table.renew(
                shard_id, node_id, epoch, time.monotonic()
            ):
                self._fence(conn, frame)
                return
            get_recorder().event(
                "node.heartbeat",
                node=node_id,
                shard=shard_id,
                epoch=epoch,
                **{
                    k: payload.get(k)
                    for k in (
                        "pid", "rss_bytes", "cells_completed",
                        "cell_id", "cell_elapsed",
                    )
                },
            )
            return
        if kind == "result":
            if shard_id is None or not self.table.is_current(
                shard_id, node_id, epoch
            ):
                self._fence(conn, frame)
                return
            self.table.renew(shard_id, node_id, epoch, time.monotonic())
            key = frame.get("key")
            index = self.index_of.get(key)
            if index is None:
                logger.warning("%s: result for unknown cell key; dropping", node_id)
                return
            if index in self.results:
                # Should be unreachable while the lease discipline
                # holds; counted so the acceptance drill can prove it.
                self.stats.duplicate_results += 1
                logger.error("duplicate result for %s from %s", key, node_id)
                return
            result = CellResult.from_dict(frame["result"])
            journal.append(
                key, result,
                extra={"shard": shard_id, "epoch": epoch, "node": node_id},
            )
            self._finish(index, result, node=node_id)
            return
        if kind == "shard_done":
            conn.busy = False
            if shard_id is None or not self.table.is_current(shard_id, node_id, epoch):
                self._fence(conn, frame)
                return
            # A node that stopped early (a drained pool) may still say
            # done: the shard completes only when every cell of it has
            # an accepted result, and otherwise its missing cells are
            # stolen like a dead node's.
            indices = self.table.shard(shard_id).indices
            missing = sum(1 for i in indices if i not in self.results)
            if missing:
                lease = self.table.expire(shard_id, time.monotonic())
                assert lease is not None
                self._expired(
                    lease, "incomplete",
                    f"shard_done with {missing} of {len(indices)} cells missing",
                )
                return
            self.table.complete(shard_id, node_id, epoch)
            get_recorder().event(
                "lease.completed", node=node_id, shard=shard_id, epoch=epoch
            )
            logger.info("%s completed %s (epoch %d)", node_id, shard_id, epoch)
            return
        logger.warning("%s: unknown frame type %r", node_id, kind)

    # -- granting ------------------------------------------------------
    def _grant_idle(self, journal: _JournalWriter, now: float) -> None:
        # Enrollment barrier, not a liveness requirement: hold the first
        # grants until the expected fleet has said hello (so the initial
        # spread is balanced and deterministic), but once enrolled, keep
        # granting to whoever is left — a crashed node must not stall
        # the campaign.
        if (
            self.dist.expected_nodes
            and len(self.stats.nodes_seen) < self.dist.expected_nodes
        ):
            return
        claimable = self.table.claimable(now)
        if not claimable:
            return
        idle = [
            node_id
            for node_id in sorted(self._nodes)
            if not self._nodes[node_id].busy
            and self.table.node_lease(node_id) is None
        ]
        for shard_id in claimable:
            if not idle:
                return
            shard = self.table.shard(shard_id)
            pending = [i for i in shard.indices if i not in self.results]
            if not pending:
                # Everything streamed in before the previous holder's
                # lease died — nothing left to steal.
                self.table.force_complete(shard_id)
                get_recorder().event(
                    "lease.completed", node=None, shard=shard_id,
                    epoch=self.table.epoch(shard_id),
                )
                continue
            # Steal anti-affinity: a node that went silent holding this
            # shard may be dead without the socket ever EOFing (TCP
            # gives no signal for a vanished peer), so prefer any other
            # idle node; fall back to the last holder only when it is
            # the sole candidate (it may merely have been slow).
            failed = self.table.last_failed_node(shard_id)
            node_id = next((n for n in idle if n != failed), idle[0])
            idle.remove(node_id)
            conn = self._nodes[node_id]
            lease = self.table.grant(shard_id, node_id, now)
            self.stats.grants += 1
            stolen = lease.epoch > 1
            if stolen:
                self.stats.stolen_cells += len(pending)
                self.stats.steal_excluded += len(shard.indices) - len(pending)
            # Durable before visible: the lease record hits the journal
            # before the grant frame hits the wire, so a coordinator
            # restart can never readmit an epoch it forgot granting.
            journal.append_record(
                {
                    "lease": {
                        "shard": shard_id,
                        "epoch": lease.epoch,
                        "node": node_id,
                    }
                }
            )
            cells_payload = [
                {
                    "index": i,
                    "key": self.keys[i],
                    "lo": [float(v) for v in self.tasks[i][1].lo],
                    "hi": [float(v) for v in self.tasks[i][1].hi],
                    "command": self.tasks[i][2],
                    "tags": self.tasks[i][3],
                }
                for i in pending
            ]
            get_recorder().event(
                "lease.granted",
                node=node_id,
                shard=shard_id,
                epoch=lease.epoch,
                cells=len(pending),
                stolen=stolen,
            )
            logger.info(
                "granted %s epoch %d to %s (%d cells%s)",
                shard_id, lease.epoch, node_id, len(pending),
                f", {len(shard.indices) - len(pending)} already journaled"
                if stolen else "",
            )
            conn.busy = True
            self._send(
                conn,
                {
                    "type": "grant",
                    "shard": shard_id,
                    "epoch": lease.epoch,
                    "cells": cells_payload,
                },
            )

    # -- teardown ------------------------------------------------------
    def _shutdown_nodes(self) -> None:
        for conn in list(self._conns.values()):
            self._send(conn, {"type": "shutdown"})
        for conn in list(self._conns.values()):
            self._disconnect(conn, "shutdown")
        if self._listener is not None:
            try:
                if self._sel is not None:
                    self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None


# ----------------------------------------------------------------------
# The localhost topology: `verify --distributed`
# ----------------------------------------------------------------------
def run_distributed(
    system_factory: Callable[[], object],
    cells: Sequence[tuple],
    journal_path: str | Path,
    settings: RunnerSettings | None = None,
    dist: DistributedSettings | None = None,
    nodes: int = 3,
    workers_per_node: int = 1,
    progress: CampaignProgress | None = None,
    node_env: dict[str, str] | None = None,
) -> VerificationReport:
    """Run a distributed campaign entirely on this machine: fork
    ``nodes`` node agents against a loopback coordinator and serve to
    completion. The degenerate single-host case of the topology — and
    the deterministic harness the fault drill runs against.

    ``node_env`` entries are set in each forked agent (the drill uses
    it to scope ``REPRO_FAULTS`` to the nodes). The agents inherit the
    caller's ``system_factory`` and ``settings`` through the fork, so
    they verify with exactly the campaign's configuration.
    """
    import multiprocessing

    from ..obs import set_recorder
    from .node import NodeSettings, run_node

    settings = settings or RunnerSettings()
    dist = dist or DistributedSettings()
    coordinator = Coordinator(
        cells,
        journal_path,
        settings=settings,
        dist=dist,
        progress=progress,
    )
    host, port = coordinator.start()

    ctx = multiprocessing.get_context("fork")

    def agent_main(node_index: int) -> None:
        # The fork inherits the parent's recorder; the agent must not
        # write to it (the parent owns its trace file and subscribers).
        set_recorder(None)
        for key, value in (node_env or {}).items():
            os.environ[key] = value
        node_settings = NodeSettings(
            connect=f"{host}:{port}",
            node_id=f"node-{node_index}",
            workers=workers_per_node,
        )
        try:
            run_node(
                node_settings,
                system_factory=system_factory,
                runner_settings=settings,
            )
        except (OSError, EOFError, FrameError) as exc:
            logger.warning("node-%d: %s", node_index, exc)

    # Not daemonic: each agent forks its own supervised worker pool,
    # and daemonic processes may not have children.
    procs = [
        ctx.Process(target=agent_main, args=(i,), name=f"repro-node-{i}")
        for i in range(nodes)
    ]
    for proc in procs:
        proc.start()
    try:
        report = coordinator.serve()
    finally:
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
    report.settings_summary["distributed"]["nodes"] = nodes
    report.settings_summary["distributed"]["workers_per_node"] = workers_per_node
    return report
