"""End-to-end acceptance drill for distributed sharded campaigns.

One coordinator plus three localhost node agents (forked by
:func:`~repro.core.coordinator.run_distributed`) verify the same
partition a single-host checkpointed run does, first cleanly and then
through a node-loss drill: one shard's node crashes mid-shard and
another's suffers a netsplit (heartbeats dropped, results buffered and
flushed late as a zombie flood). The contract under test:

* the campaign completes with full coverage despite the failures;
* no cell is double-counted — every key is journaled exactly once and
  the coordinator accepts no duplicate results;
* journaled cells are *not* recomputed after a steal (the stolen grant
  excludes them);
* the zombie's late flood is provably discarded (fenced frames > 0);
* the merged journal's canonical bytes are identical to the
  single-host journal's — distribution changes scheduling, never math.

Cell cost is tuned via ``substeps`` so shards take long enough that
lease expiry, work-stealing and the zombie flush all land while the
campaign is still running; the timings below keep a comfortable margin
over the 1.5 s netsplit window.

Two protocol tests script one side of the socket: a node that says
``shard_done`` with half its cells must not complete the shard, and a
node whose pool a signal drained must leave without saying it.
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core import (
    CellResult,
    Coordinator,
    DistributedSettings,
    NodeSettings,
    ReachSettings,
    RunnerSettings,
    Verdict,
    assign_shards,
    canonical_journal_bytes,
    grid_partition,
    run_distributed,
    run_node,
    verify_partition,
)
from repro.core.checkpoint import _cell_key
from repro.core.wire import recv_frame, send_frame
from repro.intervals import Box

from .fixtures import make_system

NUM_CELLS = 192
NUM_SHARDS = 6
# ~35 ms per cell: slow enough that a shard outlives the lease timeout
# below, fast enough that the whole drill stays in CI budget.
REACH = ReachSettings(substeps=60)


def campaign_cells():
    boxes = grid_partition(Box([1.6], [2.4]), [NUM_CELLS])
    return [(box, 1, {"idx": i}) for i, box in enumerate(boxes)]


def cell_records(journal_path):
    """The journal's cell entries (lease records skipped), in file order."""
    records = []
    for line in Path(journal_path).read_text().splitlines():
        entry = json.loads(line)
        if "key" in entry:
            records.append(entry)
    return records


@pytest.fixture(scope="module")
def single_host(tmp_path_factory):
    """Reference single-host checkpointed run over the same partition."""
    journal = tmp_path_factory.mktemp("single") / "journal.jsonl"
    report = verify_partition(
        make_system,
        campaign_cells(),
        RunnerSettings(workers=2, reach=REACH),
        journal=journal,
    )
    assert report.total_cells == NUM_CELLS
    return report, canonical_journal_bytes(journal)


class TestCleanRun:
    def test_distributed_matches_single_host(self, tmp_path, single_host):
        single_report, single_bytes = single_host
        journal = tmp_path / "journal.jsonl"
        report = run_distributed(
            make_system,
            campaign_cells(),
            journal,
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=NUM_SHARDS, expected_nodes=3, lease_timeout=5.0
            ),
            nodes=3,
        )
        assert report.settings_summary.get("interrupted") is None
        assert report.total_cells == NUM_CELLS
        assert report.verdict_counts() == single_report.verdict_counts()
        assert canonical_journal_bytes(journal) == single_bytes

        stats = report.settings_summary["distributed"]
        assert stats["shards"] == NUM_SHARDS
        assert stats["grants"] == NUM_SHARDS
        assert stats["expired_leases"] == 0
        assert stats["fenced_frames"] == 0
        assert stats["duplicate_results"] == 0
        assert sorted(stats["nodes_seen"]) == ["node-0", "node-1", "node-2"]

    def test_cell_ids_match_single_host(self, tmp_path, single_host):
        """Grants carry global indices, so distributed results are
        indistinguishable from single-host ones cell-by-cell."""
        single_report, _ = single_host
        journal = tmp_path / "journal.jsonl"
        report = run_distributed(
            make_system,
            campaign_cells()[:12],
            journal,
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=3, expected_nodes=2, lease_timeout=5.0
            ),
            nodes=2,
        )
        for mine, theirs in zip(report.cells, single_report.cells[:12]):
            assert mine.cell_id == theirs.cell_id
            assert mine.verdict == theirs.verdict
            assert mine.tags == theirs.tags


class TestNodeLossDrill:
    def test_crash_and_netsplit_recovery(self, tmp_path, single_host):
        single_report, single_bytes = single_host
        cells = campaign_cells()
        keys = [_cell_key(box, command) for box, command, _tags in cells]
        shards = assign_shards(keys, NUM_SHARDS)
        # Initial grants are deterministic (sorted idle nodes x sorted
        # claimable shards), so these two shards land on *different*
        # nodes: one node dies mid-shard, another goes into a netsplit
        # and later floods the coordinator with stale frames.
        crash_shard = shards[0].shard_id
        split_shard = shards[1].shard_id
        journal = tmp_path / "journal.jsonl"

        start = time.perf_counter()
        report = run_distributed(
            make_system,
            cells,
            journal,
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=NUM_SHARDS,
                expected_nodes=3,
                lease_timeout=1.0,
                reassign_backoff=0.1,
            ),
            nodes=3,
            node_env={
                "REPRO_FAULTS": (
                    f"node-crash:{crash_shard},node-netsplit:{split_shard}:1.5"
                )
            },
        )
        elapsed = time.perf_counter() - start

        # Completes with full coverage despite losing a node outright.
        assert report.settings_summary.get("interrupted") is None
        assert report.total_cells == NUM_CELLS
        assert report.verdict_counts() == single_report.verdict_counts()

        stats = report.settings_summary["distributed"]
        # Both faulted shards had their leases expired and re-granted.
        assert stats["expired_leases"] >= 2
        assert stats["stolen_cells"] > 0
        # The crash node journaled half its shard before dying; the
        # steal grant excluded those cells rather than recomputing them.
        assert stats["steal_excluded"] > 0
        # The netsplit node's buffered flood arrived under a stale
        # epoch and every frame of it was fenced, not merged.
        assert stats["fenced_frames"] > 0, (
            f"no zombie frames fenced (wall {elapsed:.1f}s) — "
            "netsplit flush landed after campaign end?"
        )
        # No cell was ever accepted twice.
        assert stats["duplicate_results"] == 0

        # Journal-level no-double-counting: every key exactly once.
        records = cell_records(journal)
        journaled_keys = [record["key"] for record in records]
        assert len(journaled_keys) == NUM_CELLS
        assert len(set(journaled_keys)) == NUM_CELLS
        assert set(journaled_keys) == set(keys)

        # Provenance: journaled results name the node that computed
        # them, and the faulted shards' cells came from >1 epoch.
        assert all(record.get("node") for record in records)
        epochs = {
            record["epoch"]
            for record in records
            if record.get("shard") == crash_shard
        }
        assert len(epochs) > 1

        # The merged journal is mathematically identical to single-host.
        assert canonical_journal_bytes(journal) == single_bytes


def proved(cell):
    """A stand-in result for one granted cell (the protocol, not the
    mathematics, is under test here)."""
    return CellResult(
        cell_id=f"cell-{cell['index']}",
        box=Box(cell["lo"], cell["hi"]),
        command=cell["command"],
        verdict=Verdict.PROVED_SAFE,
        tags=dict(cell["tags"]),
    )


def half_node(address, node_id="half-0"):
    """A node that streams the first half (rounded up) of every grant
    and then says shard_done, as a node whose pool stopped early would."""
    sock = socket.create_connection(address, timeout=10.0)
    send_frame(sock, {"type": "hello", "node": node_id, "workers": 1, "pid": 0})
    assert recv_frame(sock)["type"] == "welcome"
    while True:
        frame = recv_frame(sock)
        if frame["type"] == "shutdown":
            break
        if frame["type"] != "grant":
            continue
        lease = {"node": node_id, "shard": frame["shard"], "epoch": frame["epoch"]}
        cells = frame["cells"]
        for cell in cells[: (len(cells) + 1) // 2]:
            send_frame(sock, {
                "type": "result", **lease, "index": cell["index"],
                "key": cell["key"], "result": proved(cell).to_dict(),
            })
        send_frame(sock, {"type": "shard_done", **lease})
    sock.close()


class TestIncompleteShards:
    def test_shard_done_with_missing_cells_does_not_complete(self, tmp_path):
        cells = campaign_cells()[:12]
        coordinator = Coordinator(
            cells,
            tmp_path / "journal.jsonl",
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=3, expected_nodes=1, reassign_backoff=0.0
            ),
        )
        node = threading.Thread(target=half_node, args=(coordinator.start(),))
        node.start()
        try:
            report = coordinator.serve()
        finally:
            node.join(timeout=10.0)
        assert report.settings_summary.get("interrupted") is None
        assert [cell.cell_id for cell in report.cells] == [
            f"cell-{i}" for i in range(len(cells))
        ]
        stats = report.settings_summary["distributed"]
        # Each shard came back short at least once, and its missing
        # cells were granted again rather than dropped.
        assert stats["expired_leases"] >= stats["shards"]
        assert stats["stolen_cells"] > 0
        assert stats["duplicate_results"] == 0
        assert len(cell_records(tmp_path / "journal.jsonl")) == len(cells)

    def test_interrupted_node_leaves_without_shard_done(self, monkeypatch):
        """A signal drains the node's pool mid-grant: the agent returns
        without claiming the shard, and the coordinator sees only the
        results that finished, then EOF."""
        from repro.core import supervisor

        def drained(system_factory, tasks, settings, on_result=None, indices=None):
            result = proved({"index": 0, "lo": [1.6], "hi": [1.7],
                             "command": 1, "tags": {}})
            on_result(0, result, 0)
            return supervisor.SupervisorOutcome(
                results={0: result}, interrupted="signal:SIGTERM"
            )

        monkeypatch.setattr(supervisor, "run_supervised", drained)
        listener = socket.create_server(("127.0.0.1", 0))
        seen = []

        def coordinator():
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            seen.append(recv_frame(conn)["type"])
            send_frame(conn, {"type": "welcome", "config": {}})
            send_frame(conn, {"type": "grant", "shard": "shard-0", "epoch": 1,
                              "cells": [
                                  {"index": i, "key": f"k{i}", "lo": [1.6], "hi": [1.7],
                                   "command": 1, "tags": {}}
                                  for i in range(2)
                              ]})
            while True:
                try:
                    frame = recv_frame(conn)
                except EOFError:
                    break
                if frame["type"] != "heartbeat":
                    seen.append(frame["type"])
                if frame["type"] == "shard_done":
                    send_frame(conn, {"type": "shutdown"})
            conn.close()

        thread = threading.Thread(target=coordinator)
        thread.start()
        try:
            outcome = run_node(
                NodeSettings(
                    connect="%s:%d" % listener.getsockname(),
                    node_id="node-x",
                    heartbeat_interval=60.0,
                ),
                system_factory=make_system,
            )
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert seen == ["hello", "result"]
        assert outcome.interrupted == "signal:SIGTERM"
        assert outcome.cells_computed == 1
        assert outcome.shards_completed == 0
