"""Live campaign telemetry: the snapshot fold of the recorder's events,
atomic status files, pruning, stall detection, the watch/Prometheus
renderers, and the opt-in metrics endpoint — including the acceptance
scenarios (no torn reads ever; final snapshot equals the ledger's
verdict counts; a stalled worker is flagged within two heartbeat
intervals; events.jsonl is the trace's events)."""

import json
import threading
import time
import urllib.request

import pytest

from repro.core import RunnerSettings, grid_partition, verify_partition
from repro.intervals import Box
from repro.obs import (
    NULL_RECORDER,
    CampaignSnapshot,
    HeartbeatReporter,
    LiveTelemetry,
    MetricsServer,
    Recorder,
    TelemetrySettings,
    get_recorder,
    list_live_runs,
    prune_stale_runs,
    read_status,
    read_trace,
    record_from_report,
    render_prometheus,
    render_watch,
    use_recorder,
    write_status_atomic,
)
from repro.obs.live import WorkerState, stalled, verdict_bar
from repro.testing import injected_faults

from ..core.fixtures import make_system


def cells(n=4):
    return [
        (box, 1, {"idx": i})
        for i, box in enumerate(grid_partition(Box([1.6], [2.4]), [n]))
    ]


class TestTelemetryBus:
    """The recorder is the campaign's telemetry bus: executors read the
    heartbeat period from the ambient recorder and emit events through it."""

    def test_null_bus_is_inert_and_ambient_by_default(self):
        bus = get_recorder()
        assert bus is NULL_RECORDER
        assert not bus.enabled
        # No heartbeat period: executors start no heartbeat thread.
        assert bus.heartbeat_interval is None
        assert Recorder().heartbeat_interval is None
        bus.event("anything", x=1)  # no-op, no error

    def test_use_bus_scopes_and_restores(self):
        bus = Recorder()
        seen = []
        bus.subscribe(seen.append)
        with use_recorder(bus):
            assert get_recorder() is bus
            get_recorder().event("cell.finished", worker=1)
        assert get_recorder() is NULL_RECORDER
        get_recorder().event("after")  # outside the block: not delivered
        assert [e["name"] for e in seen] == ["cell.finished"]


class TestTelemetrySettings:
    def test_defaults(self):
        s = TelemetrySettings()
        assert s.stall_after == pytest.approx(3.0 * s.interval)

    @pytest.mark.parametrize(
        "kwargs",
        [{"interval": 0.0}, {"stall_factor": 0.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TelemetrySettings(**kwargs)


# ----------------------------------------------------------------------
# Snapshot folding
# ----------------------------------------------------------------------
class TestCampaignSnapshot:
    def fold(self, snapshot, *events):
        for kind, fields in events:
            snapshot.on_event({"ts": time.time(), "kind": "event", "name": kind, **fields})

    def test_worker_lifecycle_and_counters(self):
        snap = CampaignSnapshot("run-1")
        self.fold(
            snap,
            ("campaign.started", {"total": 3, "workers": 2}),
            ("worker.spawned", {"worker": 0}),
            ("worker.ready", {"worker": 0, "pid": 101}),
            ("cell.dispatched", {"worker": 0, "cell_id": "cell-0", "seq": 0}),
            ("worker.heartbeat", {"worker": 0, "pid": 101, "rss_bytes": 4096,
                                  "cells_completed": 0, "cell_elapsed": 0.5}),
            ("cell.finished", {"worker": 0, "cell_id": "cell-0", "seq": 0,
                               "verdict_class": "proved"}),
            ("worker.crash", {"worker": 1, "exitcode": 43}),
            ("cell.retried", {"cell_id": "cell-1", "attempt": 1}),
            ("worker.respawn", {"worker": 1}),
            ("cell.quarantined", {"cell_id": "cell-1", "verdict": "aborted"}),
            ("cell.finished", {"worker": 1, "cell_id": "cell-1", "seq": 1,
                               "verdict_class": "aborted"}),
        )
        assert snap.state == "running"
        assert snap.total == 3 and snap.done == 2
        assert snap.verdicts["proved"] == 1 and snap.verdicts["aborted"] == 1
        assert snap.retries == 1 and snap.respawns == 1 and snap.quarantined == 1
        w0 = snap.workers[0]
        assert w0.pid == 101 and w0.state == "idle" and w0.cells_completed == 1
        assert w0.rss_bytes == 4096
        assert snap.workers[1].crashes == 1

    def test_worker_busy_until_its_chunk_is_done(self):
        """The serial executor dispatches a whole chunk to worker 0: it
        stays busy, showing its oldest unfinished cell, until the
        chunk's last tree finishes."""
        snap = CampaignSnapshot("run-1")
        self.fold(
            snap,
            ("campaign.started", {"total": 3}),
            *[("cell.dispatched", {"worker": 0, "cell_id": f"cell-{i}", "seq": i})
              for i in range(3)],
            ("cell.finished", {"worker": 0, "cell_id": "cell-0", "verdict_class": "proved"}),
        )
        w0 = snap.workers[0]
        assert (w0.state, w0.cell_id, w0.cells_completed) == ("busy", "cell-1", 1)
        started = w0.cell_started_at
        self.fold(
            snap,
            ("cell.finished", {"worker": 0, "cell_id": "cell-2", "verdict_class": "proved"}),
        )
        assert (w0.state, w0.cell_id, w0.cell_started_at) == ("busy", "cell-1", started)
        self.fold(
            snap,
            ("cell.finished", {"worker": 0, "cell_id": "cell-1", "verdict_class": "proved"}),
        )
        assert (w0.state, w0.cell_id, w0.cells_completed) == ("idle", None, 3)

    def test_finished_event_overwrites_with_authoritative_counts(self):
        snap = CampaignSnapshot("run-1")
        self.fold(
            snap,
            ("campaign.started", {"total": 2}),
            ("cell.dispatched", {"worker": 0, "cell_id": "cell-0", "seq": 0}),
            ("cell.finished", {"worker": 0, "cell_id": "cell-0", "seq": 0,
                               "verdict_class": "unproved"}),
            # End-of-run reclassification: refinement later proved it.
            ("campaign.finished", {"interrupted": None,
                                   "verdicts": {"proved": 2, "unproved": 0}}),
        )
        assert snap.state == "finished"
        assert snap.verdicts["proved"] == 2
        assert snap.verdicts["unproved"] == 0
        assert all(w.state == "done" for w in snap.workers.values())

    def test_interrupted_state(self):
        snap = CampaignSnapshot("run-1")
        self.fold(
            snap,
            ("campaign.started", {"total": 5}),
            ("campaign.interrupted", {"reason": "deadline", "dropped_cells": 3}),
            ("campaign.finished", {"interrupted": "deadline", "verdicts": {}}),
        )
        assert snap.state == "interrupted"
        assert snap.interrupted == "deadline"

    def test_rate_counts_only_computed_cells(self):
        """A resumed campaign replays journaled cells at once: they count
        toward done and percent, but the rate and ETA only see the cells
        this campaign computed."""
        snap = CampaignSnapshot("run-1")
        replayed = {"name": "cell.finished", "cached": True, "verdict_class": "proved"}
        for event in (
            {"ts": 100.0, "kind": "event", "name": "campaign.started", "total": 10},
            {"ts": 100.0, "kind": "event", **replayed},
            {"ts": 100.0, "kind": "event", **replayed},
            {"ts": 110.0, "kind": "event", **replayed, "cached": False},
        ):
            snap.on_event(event)
        assert snap.rate(now=110.0) == pytest.approx(0.1)
        assert snap.eta_seconds(now=110.0) == pytest.approx(70.0)
        assert snap.done == 3 and snap.computed == 1
        status = snap.to_dict(now=110.0)
        assert status["percent"] == 30.0
        assert status["rate"] == 0.1 and status["eta_seconds"] == 70.0

    def test_to_dict_shape(self):
        snap = CampaignSnapshot("run-1")
        self.fold(snap, ("campaign.started", {"total": 4}))
        payload = snap.to_dict()
        for key in ("run_id", "state", "total", "done", "percent", "rate",
                    "verdicts", "workers", "stalled", "updated_at"):
            assert key in payload
        assert payload["run_id"] == "run-1"
        assert json.loads(json.dumps(payload)) == payload  # JSON-clean


# ----------------------------------------------------------------------
# Stall detection
# ----------------------------------------------------------------------
class TestStallDetection:
    def test_busy_and_silent_past_threshold_is_stalled(self):
        now = 1000.0
        worker = WorkerState(id=0, state="busy", cell_started_at=now - 10.0,
                             last_heartbeat_at=now - 4.0)
        assert stalled(worker, now, stall_after=3.0)
        assert not stalled(worker, now, stall_after=5.0)

    def test_idle_worker_never_stalled(self):
        worker = WorkerState(id=0, state="idle", last_heartbeat_at=0.0)
        assert not stalled(worker, 1000.0, stall_after=3.0)

    def test_never_heartbeated_measures_from_dispatch(self):
        now = 1000.0
        worker = WorkerState(id=0, state="busy", cell_started_at=now - 4.0)
        assert stalled(worker, now, stall_after=3.0)

    def test_threshold_follows_the_attached_bus(self):
        """The snapshot judges silence against its recorder's heartbeat
        period; on a recorder without heartbeats no worker is stalled."""
        dispatch = {
            "ts": 0.0, "kind": "event", "name": "cell.dispatched", "worker": 0, "cell_id": "c",
        }
        slow_beats = CampaignSnapshot("run-1").attach(Recorder(heartbeat_interval=5.0))
        no_beats = CampaignSnapshot("run-2").attach(Recorder())
        for snap in (slow_beats, no_beats):
            snap.on_event(dispatch)
        assert slow_beats.stall_after == pytest.approx(15.0)
        assert slow_beats.stalled_count(now=14.0) == 0
        assert slow_beats.stalled_count(now=16.0) == 1
        assert no_beats.stall_after is None
        assert no_beats.stalled_count(now=1e6) == 0
        assert no_beats.to_dict(now=1e6)["stalled"] == 0

    def test_flagged_within_two_heartbeat_intervals(self):
        """Acceptance criterion: with the default stall factor a worker
        that goes silent is flagged strictly before two further
        heartbeat intervals elapse... for any factor <= 2 — and the
        snapshot counts it."""
        interval = 0.1
        settings = TelemetrySettings(interval=interval, stall_factor=2.0)
        snap = CampaignSnapshot("run-1", settings)
        beat = time.time()
        snap.on_event({"ts": beat, "kind": "event", "name": "cell.dispatched",
                       "worker": 0, "cell_id": "cell-0", "seq": 0})
        snap.on_event({"ts": beat, "kind": "event", "name": "worker.heartbeat", "worker": 0})
        assert snap.stalled_count(now=beat + interval) == 0
        assert snap.stalled_count(now=beat + 2 * interval + 0.01) == 1

    def test_stall_fault_flags_live_campaign(self, tmp_path):
        """End-to-end: a `stall` fault silences the heartbeat thread
        while the cell computes; the snapshot flags the worker."""
        interval = 0.05
        settings = TelemetrySettings(
            interval=interval, stall_factor=2.0, root=tmp_path
        )
        live = LiveTelemetry("stall-run", settings)
        observed = []
        stop = threading.Event()

        def poll():
            # A stalled worker publishes nothing, so sample from outside
            # the event stream — exactly what `repro watch` does.
            while not stop.is_set():
                observed.append(live.snapshot.stalled_count())
                time.sleep(0.01)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            # The stall outlasts the slow cell's compute time, so beats
            # stay suppressed while the 0.4 s slow cell runs.
            with injected_faults("stall:cell-1:30,slow:cell-1:0.4"):
                with live:
                    report = verify_partition(
                        make_system, cells(3), RunnerSettings(workers=1)
                    )
        finally:
            stop.set()
            poller.join()
        assert report.verdict_counts()["total"] == 3
        assert max(observed) >= 1, "stalled worker never flagged"
        final = json.loads(live.status_path.read_text())
        assert final["state"] == "finished"


# ----------------------------------------------------------------------
# Atomic status files
# ----------------------------------------------------------------------
class TestAtomicStatus:
    def test_concurrent_reader_never_sees_torn_file(self, tmp_path):
        """Hammer the status file from a writer thread while reading it
        continuously: every single read must parse as a complete
        document (the atomic-rename guarantee)."""
        path = tmp_path / "status.json"
        payloads = [
            {"run_id": "r", "n": i, "blob": "x" * (1000 + i)} for i in range(200)
        ]
        write_status_atomic(path, payloads[0])
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                try:
                    doc = json.loads(path.read_text())
                except (json.JSONDecodeError, OSError) as exc:
                    torn.append(exc)
                    return
                if len(doc.get("blob", "")) != 1000 + doc["n"]:
                    torn.append(doc)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        for payload in payloads:
            write_status_atomic(path, payload)
        stop.set()
        thread.join()
        assert torn == []
        assert json.loads(path.read_text())["n"] == 199

    def test_read_status_resolves_id_dir_and_file(self, tmp_path):
        run_dir = tmp_path / "my-run"
        run_dir.mkdir()
        write_status_atomic(run_dir / "status.json", {"run_id": "my-run"})
        assert read_status("my-run", root=tmp_path)["run_id"] == "my-run"
        assert read_status(run_dir)["run_id"] == "my-run"
        assert read_status(run_dir / "status.json")["run_id"] == "my-run"

    def test_read_status_missing_and_not_a_status(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_status("nope", root=tmp_path)
        bogus = tmp_path / "bogus.json"
        bogus.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            read_status(bogus)


# ----------------------------------------------------------------------
# Pruning and listing
# ----------------------------------------------------------------------
class TestPruneAndList:
    def write_run(self, root, run_id, state, updated_at):
        d = root / run_id
        d.mkdir(parents=True)
        write_status_atomic(
            d / "status.json",
            {"run_id": run_id, "state": state, "updated_at": updated_at},
        )
        return d

    def test_finished_and_stale_pruned_fresh_running_kept(self, tmp_path):
        now = time.time()
        self.write_run(tmp_path, "done-run", "finished", now)
        self.write_run(tmp_path, "old-run", "running", now - 48 * 3600)
        keep = self.write_run(tmp_path, "live-run", "running", now - 5.0)
        pruned = prune_stale_runs(tmp_path, prune_after=24 * 3600, now=now)
        assert sorted(p.name for p in pruned) == ["done-run", "old-run"]
        assert keep.exists()
        assert [r["run_id"] for r in list_live_runs(tmp_path)] == ["live-run"]

    def test_garbled_dir_pruned_by_mtime_only_when_old(self, tmp_path):
        d = tmp_path / "garbled"
        d.mkdir()
        (d / "status.json").write_text("{not json")
        # Fresh mtime: kept.
        assert prune_stale_runs(tmp_path, prune_after=24 * 3600) == []
        assert d.exists()

    def test_campaign_start_prunes(self, tmp_path):
        """LiveTelemetry construction is the 'next campaign start': any
        leftover finished run disappears."""
        now = time.time()
        self.write_run(tmp_path, "leftover", "finished", now)
        live = LiveTelemetry(
            "fresh", TelemetrySettings(root=tmp_path, metrics_port=None)
        )
        try:
            assert not (tmp_path / "leftover").exists()
            assert (tmp_path / "fresh").exists()
        finally:
            live.close()

    def test_list_newest_first(self, tmp_path):
        self.write_run(tmp_path, "a", "running", 100.0)
        self.write_run(tmp_path, "b", "running", 200.0)
        assert [r["run_id"] for r in list_live_runs(tmp_path)] == ["b", "a"]


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------
class TestHeartbeatReporter:
    def test_payload_tracks_cell_boundaries(self):
        reporter = HeartbeatReporter(lambda p: None, interval=10.0)
        payload = reporter.payload()
        assert payload["cell_id"] is None and payload["cells_completed"] == 0
        reporter.begin_cell("cell-7")
        payload = reporter.payload()
        assert payload["cell_id"] == "cell-7"
        assert payload["pid"] > 0
        reporter.end_cell()
        assert reporter.payload()["cells_completed"] == 1

    def test_payload_names_oldest_cell_of_a_chunk(self):
        reporter = HeartbeatReporter(lambda p: None, interval=10.0)
        for cell_id in ("cell-0", "cell-1", "cell-2"):
            reporter.begin_cell(cell_id)
        reporter.end_cell("cell-0")
        reporter.end_cell("cell-2")
        payload = reporter.payload()
        assert payload["cell_id"] == "cell-1" and payload["cells_completed"] == 2
        reporter.end_cell("cell-1")
        payload = reporter.payload()
        assert payload["cell_id"] is None and payload["cell_elapsed"] == 0.0

    def test_beats_arrive_and_stop(self):
        beats = []
        with HeartbeatReporter(beats.append, interval=0.02):
            time.sleep(0.15)
        count = len(beats)
        assert count >= 2
        time.sleep(0.08)
        assert len(beats) == count  # stopped means stopped

    def test_stall_fault_suppresses_beats(self):
        beats = []
        with injected_faults("stall:any:30") as injector:
            injector.on_guarded_cell("any", 0)  # arm the blackout
            assert injector.heartbeats_stalled()
            with HeartbeatReporter(beats.append, interval=0.02):
                time.sleep(0.12)
        assert beats == []


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
class TestRenderers:
    def status(self):
        return {
            "run_id": "20260807T000000-verify-abc123",
            "state": "running",
            "total": 10, "done": 5, "rate": 2.5, "eta_seconds": 2.0,
            "verdicts": {"proved": 3, "unproved": 1, "witnessed": 1,
                         "aborted": 0, "timed-out": 0},
            "quarantined": 0, "retries": 1, "respawns": 0,
            "stall_after": 3.0, "stalled": 1, "metrics_port": 9099,
            "updated_at": time.time() - 2.0,
            "workers": [
                {"id": 0, "pid": 11, "state": "busy", "cells_completed": 3,
                 "rss_bytes": 3 << 20, "cell_id": "cell-9", "cell_elapsed": 1.2,
                 "last_heartbeat_at": time.time() - 0.5, "stalled": False},
                {"id": 1, "pid": 12, "state": "busy", "cells_completed": 2,
                 "rss_bytes": 2 << 20, "cell_id": "cell-8", "cell_elapsed": 9.0,
                 "last_heartbeat_at": time.time() - 60.0, "stalled": True},
            ],
        }

    def test_verdict_bar_proportions(self):
        bar = verdict_bar({"proved": 5, "witnessed": 2, "aborted": 1,
                           "unproved": 2}, total=10, width=10)
        assert bar == "[#####xx!..]"
        assert verdict_bar({}, total=0) == "[" + " " * 40 + "]"

    def test_watch_frame_contents(self):
        frame = render_watch(self.status())
        assert "cells 5/10 (50.0%)" in frame
        assert "2.50 cell/s" in frame
        assert "STALLED" in frame and "1 stalled" in frame
        assert "cell-8" in frame and "cell-9" in frame
        assert "metrics :9099" in frame
        assert "updated" in frame

    def test_watch_recomputes_staleness_against_now(self):
        """A frozen status file read much later shows both workers
        stalled — the age math uses `now`, not the stored flags."""
        status = self.status()
        frame = render_watch(status, now=time.time() + 3600.0)
        assert frame.count("STALLED") == 2

    def test_prometheus_exposition(self):
        text = render_prometheus(self.status())
        assert "# TYPE repro_campaign_up gauge" in text
        assert "repro_campaign_up 1" in text
        assert 'repro_campaign_verdict_cells{verdict="proved"} 3' in text
        assert 'repro_worker_stalled{worker="1"} 1' in text
        assert "repro_campaign_cells_done 5" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# The metrics endpoint
# ----------------------------------------------------------------------
class TestMetricsServer:
    def get(self, url):
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.headers.get("Content-Type"), \
                response.read().decode()

    def test_serves_json_and_prometheus_and_404(self):
        snap = CampaignSnapshot("server-run")
        server = MetricsServer(snap, port=0)
        try:
            assert server.port > 0
            status, ctype, body = self.get(server.url + "/status.json")
            assert status == 200 and "json" in ctype
            assert json.loads(body)["run_id"] == "server-run"
            status, ctype, body = self.get(server.url + "/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            assert "repro_campaign_up" in body
            with pytest.raises(urllib.error.HTTPError):
                self.get(server.url + "/nope")
        finally:
            server.close()

    def test_endpoint_live_during_multiworker_campaign(self, tmp_path):
        """The CI acceptance scenario, in-process: scrape both formats
        *while* the supervised pool is mid-campaign (triggered from a
        recorder subscriber, so the campaign is provably still running)."""
        settings = TelemetrySettings(
            interval=0.1, root=tmp_path, metrics_port=0
        )
        live = LiveTelemetry("midrun", settings)
        scraped = {}

        def scrape_once(event):
            if event["name"] != "cell.finished" or scraped:
                return
            url = f"http://127.0.0.1:{live.server.port}"
            _, _, body = self.get(url + "/status.json")
            scraped["json"] = json.loads(body)
            _, _, prom = self.get(url + "/metrics")
            scraped["prom"] = prom

        live.recorder.subscribe(scrape_once)
        with live:
            report = verify_partition(
                make_system, cells(4), RunnerSettings(workers=2)
            )
        assert scraped, "no mid-run scrape happened"
        assert scraped["json"]["state"] == "running"
        assert scraped["json"]["run_id"] == "midrun"
        assert "repro_campaign_cells_total 4" in scraped["prom"]
        assert "repro_worker_up" in scraped["prom"]
        assert report.verdict_counts()["total"] == 4


# ----------------------------------------------------------------------
# End-to-end: final snapshot vs the ledger
# ----------------------------------------------------------------------
class TestLiveTelemetryEndToEnd:
    def run_campaign(self, tmp_path, workers, faults=None, **runner_kwargs):
        settings = TelemetrySettings(interval=0.1, root=tmp_path)
        live = LiveTelemetry("e2e-run", settings)
        runner = RunnerSettings(workers=workers, **runner_kwargs)
        with live:
            if faults:
                with injected_faults(faults):
                    report = verify_partition(make_system, cells(4), runner)
            else:
                report = verify_partition(make_system, cells(4), runner)
        return live, report

    @pytest.mark.parametrize("workers", [1, 2])
    def test_final_snapshot_matches_ledger_verdicts(self, tmp_path, workers):
        live, report = self.run_campaign(tmp_path, workers)
        record = record_from_report(report, kind="verify", run_id="e2e-run")
        final = json.loads(live.status_path.read_text())
        assert final["state"] == "finished"
        assert final["done"] == final["total"] == 4
        for key in ("proved", "unproved", "witnessed", "aborted", "timed-out"):
            assert final["verdicts"][key] == record.verdicts[key], key
        assert record.run_id == final["run_id"]

    def test_quarantine_counts_match_report(self, tmp_path):
        """A crash-quarantined cell shows the same count live as in the
        final VerificationReport (acceptance criterion)."""
        # Both workers crash on their first cell, so cells 2 and 3 are
        # still pending when the first crash is reaped and the pool must
        # respawn. Crashing on a later cell needed a respawn only if the
        # surviving worker had not finished the rest before the reap.
        live, report = self.run_campaign(
            tmp_path, workers=2, faults="crash:cell-0:*,crash:cell-1:1",
            max_retries=1, retry_backoff=0.01,
        )
        final = json.loads(live.status_path.read_text())
        assert len(report.quarantined_cells()) == 1
        assert final["quarantined"] == 1
        assert final["verdicts"]["aborted"] == 1
        assert final["retries"] >= 1
        assert final["respawns"] >= 1

    def test_events_jsonl_is_line_parseable_and_ordered(self, tmp_path):
        live, report = self.run_campaign(tmp_path, workers=1)
        lines = live.writer.events_path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        kinds = [e["name"] for e in events]
        assert kinds[0] == "campaign.started"
        assert kinds[-1] == "campaign.finished"
        assert kinds.count("cell.finished") == 4
        assert all(a["ts"] <= b["ts"] for a, b in zip(events, events[1:]))

    def test_cli_watch_once_and_stats_live(self, tmp_path, capsys):
        from repro.cli import main

        live, report = self.run_campaign(tmp_path, workers=1)
        assert main(["watch", "e2e-run", "--live-dir", str(tmp_path),
                     "--once"]) == 0
        frame = capsys.readouterr().out
        assert "run e2e-run" in frame and "cells 4/4" in frame
        assert main(["stats", "--live", "e2e-run",
                     "--live-dir", str(tmp_path)]) == 0
        assert "cells 4/4" in capsys.readouterr().out
        # `watch` with no run id picks the newest run under the root.
        assert main(["watch", "--live-dir", str(tmp_path), "--once"]) == 0
        assert "run e2e-run" in capsys.readouterr().out

    def test_cli_watch_and_stats_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", "--live-dir", str(tmp_path / "empty"),
                     "--once"]) == 1
        assert "no live runs" in capsys.readouterr().err
        assert main(["stats", "--live", "nope",
                     "--live-dir", str(tmp_path / "empty")]) == 1
        assert main(["stats"]) == 1
        assert "--live" in capsys.readouterr().err

    def test_worker_bus_not_inherited(self, tmp_path):
        """Fork workers drop the parent's recorder and its subscribers:
        only the parent writes events.jsonl, so event counts stay exact
        (one cell.finished per cell, not one per process)."""
        live, report = self.run_campaign(tmp_path, workers=2)
        events = [
            json.loads(line)
            for line in live.writer.events_path.read_text().splitlines()
        ]
        finished = [e for e in events if e["name"] == "cell.finished"]
        assert len(finished) == 4
        assert len([e for e in events if e["name"] == "campaign.started"]) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_process_timeout_counts_as_quarantined(self, tmp_path, workers):
        """A cell the budget guard times out inside its process is
        quarantined like a crash-exhausted one: status.json, the watch
        frame and /metrics all count it (no pool kill is involved)."""
        live, report = self.run_campaign(
            tmp_path, workers, faults="slow:cell-1:5", cell_timeout=0.5
        )
        assert [c.cell_id for c in report.quarantined_cells()] == ["cell-1"]
        final = json.loads(live.status_path.read_text())
        assert final["verdicts"]["timed-out"] == 1
        assert final["quarantined"] == 1
        assert "quarantined 1" in render_watch(final)
        assert "repro_campaign_quarantined_total 1\n" in render_prometheus(final)

    def test_events_jsonl_is_the_trace(self, tmp_path, capsys):
        """One stream: under a tracing recorder, every line of
        events.jsonl is a line of the trace, and `repro stats` reads
        events.jsonl with the trace's fault-recovery counts."""
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        # cell-0 crashes once too: with both first cells crashing, work
        # is still pending at the first reap, so the respawn is certain.
        with use_recorder(rec):
            live, _report = self.run_campaign(
                tmp_path, workers=2, faults="crash:cell-0:1,crash:cell-1:*",
                max_retries=1, retry_backoff=0.01,
            )
        rec.close()
        assert live.recorder is rec
        trace_lines = set(trace.read_text().splitlines())
        event_lines = live.writer.events_path.read_text().splitlines()
        assert event_lines and set(event_lines) <= trace_lines
        counts = {}
        for event in read_trace(trace):
            counts[event["name"]] = counts.get(event["name"], 0) + 1
        assert counts["worker.crash"] >= 2 and counts["worker.respawn"] >= 1
        assert main(["stats", str(live.writer.events_path)]) == 0
        out = capsys.readouterr().out
        assert f"worker crashes: {counts['worker.crash']}\n" in out
        assert f"worker respawns: {counts['worker.respawn']}\n" in out
        assert "cell.finished: 4\n" in out


class TestHeartbeats:
    def test_serial_chunk_dispatches_beats_and_stays_busy(self, tmp_path):
        """The serial executor runs its 4 cells as one chunk on worker
        0: a dispatch per cell, beats while the chunk runs, and worker 0
        busy until the chunk's last tree finishes."""
        live = LiveTelemetry("serial-run", TelemetrySettings(interval=0.05, root=tmp_path))
        events, states = [], []

        def watch(event):
            events.append(event)
            if event["name"] == "cell.finished":
                states.append(live.snapshot.to_dict()["workers"][0]["state"])

        with injected_faults("slow:cell-0:0.3"):
            with live:
                live.recorder.subscribe(watch)  # after the snapshot: sees it folded
                report = verify_partition(make_system, cells(4), RunnerSettings())
        assert report.total_cells == 4
        dispatched = [e for e in events if e["name"] == "cell.dispatched"]
        assert [(e["worker"], e["cell_id"]) for e in dispatched] == [
            (0, f"cell-{i}") for i in range(4)
        ]
        assert [e for e in events if e["name"] == "worker.heartbeat" and e["worker"] == 0]
        assert states == ["busy", "busy", "busy", "idle"]
        final = json.loads(live.status_path.read_text())
        assert final["workers"][0]["last_heartbeat_at"] is not None

    def test_beats_kept_out_of_trace_and_events_jsonl(self, tmp_path):
        """Heartbeats reach the snapshot, so status.json has each
        worker's newest beat, but neither the trace nor events.jsonl
        holds one."""
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace, heartbeat_interval=0.05)
        live = LiveTelemetry(
            "beats-run", TelemetrySettings(interval=0.05, root=tmp_path), recorder=rec
        )
        with injected_faults("slow:cell-0:0.3,slow:cell-1:0.3"):
            with use_recorder(rec), live:
                report = verify_partition(make_system, cells(4), RunnerSettings(workers=2))
        rec.close()
        assert report.total_cells == 4
        for path in (trace, live.writer.events_path):
            names = [e["name"] for e in read_trace(path)]
            assert "cell.finished" in names
            assert not [name for name in names if name.endswith(".heartbeat")], path
        final = json.loads(live.status_path.read_text())
        assert len(final["workers"]) == 2
        assert all(w["last_heartbeat_at"] is not None for w in final["workers"])


class TestLiveTelemetryRecorder:
    """Which recorder the live views subscribe to, and what the block
    changes on it."""

    def test_given_recorder_gets_the_heartbeat_period_for_the_block(self, tmp_path):
        rec = Recorder()
        live = LiveTelemetry("given", TelemetrySettings(interval=0.3, root=tmp_path),
                             recorder=rec)
        with live:
            assert live.recorder is rec
            assert get_recorder() is NULL_RECORDER  # not installed
            assert rec.heartbeat_interval == 0.3
            assert live.snapshot.stall_after == pytest.approx(0.9)
            rec.event("campaign.started", total=2)
        assert rec.heartbeat_interval is None
        rec.event("campaign.started", total=7)  # unsubscribed: not folded
        assert live.snapshot.total == 2
        assert len(live.writer.events_path.read_text().splitlines()) == 1

    def test_enabled_ambient_recorder_is_used(self, tmp_path):
        rec = Recorder()
        with use_recorder(rec):
            live = LiveTelemetry("ambient", TelemetrySettings(root=tmp_path))
            with live:
                assert live.recorder is rec and get_recorder() is rec
            assert get_recorder() is rec

    def test_fresh_recorder_installed_for_the_block(self, tmp_path):
        live = LiveTelemetry("fresh", TelemetrySettings(root=tmp_path))
        assert live.recorder is not NULL_RECORDER and live.recorder.enabled
        with live:
            assert get_recorder() is live.recorder
        assert get_recorder() is NULL_RECORDER


# ----------------------------------------------------------------------
# Distributed campaigns: node panel
# ----------------------------------------------------------------------
class TestNodeTelemetry:
    def fold(self, snapshot, *events):
        now = time.time()
        for kind, fields in events:
            snapshot.on_event({"ts": now, "kind": "event", "name": kind, **fields})

    def node_events(self):
        return [
            ("campaign.started", {"total": 10, "workers": 0,
                                  "distributed": True, "shards": 4}),
            ("node.connected", {"node": "node-0", "workers": 2, "pid": 500}),
            ("node.connected", {"node": "node-1", "workers": 2, "pid": 501}),
            ("lease.granted", {"node": "node-0", "shard": "shard-0",
                               "epoch": 1, "cells": 5, "stolen": False}),
            ("node.heartbeat", {"node": "node-0", "shard": "shard-0",
                                "epoch": 1, "rss_bytes": 2048}),
            ("cell.finished", {"worker": None, "node": "node-0",
                               "cell_id": "cell-3", "seq": 3,
                               "verdict_class": "proved"}),
            ("lease.expired", {"node": "node-1", "shard": "shard-1",
                               "epoch": 1, "reason": "lease-timeout"}),
            ("node.fenced", {"node": "node-1", "shard": "shard-1",
                             "epoch": 1, "frame": "result"}),
            ("node.disconnected", {"node": "node-1", "reason": "disconnect"}),
        ]

    def test_snapshot_folds_node_events(self):
        snap = CampaignSnapshot("dist-run")
        self.fold(snap, *self.node_events())
        status = snap.to_dict()
        assert status["shards"] == 4
        assert status["leases_expired"] == 1
        assert status["fenced_frames"] == 1
        nodes = {n["node"]: n for n in status["nodes"]}
        assert nodes["node-0"]["state"] == "computing"
        assert nodes["node-0"]["shard"] == "shard-0"
        assert nodes["node-0"]["epoch"] == 1
        assert nodes["node-0"]["cells_completed"] == 1
        assert nodes["node-0"]["rss_bytes"] == 2048
        assert nodes["node-0"]["lease_age"] is not None
        assert nodes["node-1"]["state"] == "disconnected"
        assert nodes["node-1"]["disconnect_reason"] == "disconnect"
        assert nodes["node-1"]["fenced"] == 1
        assert nodes["node-1"]["leases_lost"] == 1
        assert nodes["node-1"]["shard"] is None
        # Node-attributed cells count campaign progress exactly once.
        assert status["done"] == 1

    def test_lease_completion_clears_the_shard(self):
        snap = CampaignSnapshot("dist-run")
        self.fold(
            snap,
            ("node.connected", {"node": "node-0", "workers": 1, "pid": 1}),
            ("lease.granted", {"node": "node-0", "shard": "shard-2",
                               "epoch": 1, "cells": 3, "stolen": False}),
            ("lease.completed", {"node": "node-0", "shard": "shard-2",
                                 "epoch": 1}),
        )
        node = snap.to_dict()["nodes"][0]
        assert node["state"] == "connected"
        assert node["shard"] is None and node["lease_age"] is None

    def test_render_watch_shows_node_panel(self):
        snap = CampaignSnapshot("dist-run")
        self.fold(snap, *self.node_events())
        frame = render_watch(snap.to_dict())
        assert "nodes (2, 1 lost; 4 shards" in frame
        assert "lease age" in frame and "cell/s" in frame
        assert "shard-0@1" in frame
        assert "disconnected (disconnect)" in frame
        assert "1 leases expired" in frame and "1 frames fenced" in frame

    def test_render_watch_hides_panel_for_single_host(self):
        snap = CampaignSnapshot("plain-run")
        self.fold(snap, ("campaign.started", {"total": 4, "workers": 2}))
        assert "nodes (" not in render_watch(snap.to_dict())

    def test_render_prometheus_node_metrics(self):
        snap = CampaignSnapshot("dist-run")
        self.fold(snap, *self.node_events())
        text = render_prometheus(snap.to_dict())
        assert 'repro_node_up{node="node-0"} 1' in text
        assert 'repro_node_up{node="node-1"} 0' in text
        assert 'repro_node_cells_completed{node="node-0"} 1' in text
        assert 'repro_node_fenced_frames_total{node="node-1"} 1' in text
        assert "repro_campaign_leases_expired_total 1" in text
        assert "repro_campaign_fenced_frames_total 1" in text

    def test_ledger_record_carries_nodes(self):
        from repro.obs import RunRecord

        class FakeReport:
            settings_summary = {
                "distributed": {"nodes_seen": ["node-0", "node-1"]}
            }
            metrics = {}
            wall_seconds = 1.0

            def verdict_counts(self):
                return {"proved": 1, "total": 1}

            def coverage_percent(self):
                return 100.0

            def total_elapsed(self):
                return 1.0

        record = record_from_report(FakeReport(), kind="coordinate")
        assert record.nodes == ["node-0", "node-1"]
        assert "nodes 2" in record.summary_line()
        # Tolerant round-trip: old payloads without the field read back.
        assert RunRecord.from_dict({"run_id": "x"}).nodes == []
        assert RunRecord.from_dict(record.to_dict()).nodes == record.nodes
