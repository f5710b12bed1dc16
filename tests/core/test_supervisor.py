"""The supervised pool: budget guards, crash retry/quarantine, worker
kills, campaign deadlines, and the fault-tolerant serial path."""

import signal
import time

import pytest

from repro.core import (
    BudgetExceeded,
    RunnerSettings,
    Verdict,
    budget_guard,
    grid_partition,
    run_cell_guarded,
    run_supervised,
    verify_partition,
)
from repro.intervals import Box
from repro.obs import CampaignProgress, Recorder, use_recorder
from repro.testing import injected_faults
from repro.testing.faults import CRASH_EXIT_CODE

from .fixtures import make_system


def cells_for(boxes, command=1):
    return [(box, command) for box in boxes]


def four_cells():
    return cells_for(grid_partition(Box([1.6], [2.4]), [4]))


class TestBudgetGuard:
    def test_noop_without_budget(self):
        with budget_guard(None):
            pass
        with budget_guard(0):
            pass

    def test_fires_with_its_scope(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            with budget_guard(0.05, scope="cell"):
                time.sleep(5.0)
        assert excinfo.value.scope == "cell"
        assert excinfo.value.seconds == pytest.approx(0.05)

    def test_nested_inner_guard_fires_first(self):
        fired = []
        with budget_guard(30.0, scope="cell"):
            try:
                with budget_guard(0.05, scope="witness"):
                    time.sleep(5.0)
            except BudgetExceeded as exc:
                fired.append(exc.scope)
            # The outer guard survives the inner one firing.
            time.sleep(0.05)
        assert fired == ["witness"]

    def test_restores_previous_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with budget_guard(10.0, scope="x"):
            assert signal.getsignal(signal.SIGALRM) is not previous
        assert signal.getsignal(signal.SIGALRM) is previous


class TestRunCellGuarded:
    def test_timeout_quarantines_as_timed_out(self):
        settings = RunnerSettings(cell_timeout=0.2)
        with injected_faults("slow:cell-0:30"):
            result = run_cell_guarded(
                make_system(), Box([2.0], [2.2]), 1, settings, "cell-0"
            )
        assert result.verdict is Verdict.TIMED_OUT
        assert result.quarantined
        assert result.tags["failure"]["kind"] == "timeout"
        assert result.tags["failure"]["enforced"] == "budget-guard"
        assert result.attempts == 1

    def test_exception_quarantines_as_aborted(self):
        # A null system makes verify_cell raise immediately.
        result = run_cell_guarded(
            None, Box([2.0], [2.2]), 1, RunnerSettings(), "cell-0"
        )
        assert result.verdict is Verdict.ABORTED
        assert result.tags["failure"]["kind"] == "exception"
        assert "AttributeError" in result.tags["failure"]["error"]

    def test_healthy_cell_records_attempts(self):
        result = run_cell_guarded(
            make_system(), Box([2.0], [2.2]), 1, RunnerSettings(), "cell-0",
            attempt=2,
        )
        assert result.proved
        assert result.attempts == 3


class TestSerialFaultTolerance:
    def test_cell_timeout_isolated_to_one_cell(self):
        settings = RunnerSettings(cell_timeout=0.2)
        with injected_faults("slow:cell-1:30"):
            report = verify_partition(make_system, four_cells(), settings)
        assert report.total_cells == 4
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.TIMED_OUT
        assert all(
            by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE for i in (0, 2, 3)
        )
        counts = report.verdict_counts()
        assert counts["timed-out"] == 1
        assert counts["proved"] == 3

    def test_deadline_returns_partial_report(self):
        settings = RunnerSettings(deadline=0.2)
        with injected_faults("slow:cell-0:0.3"):
            # cell-0 runs past the deadline (no cell budget), so cells
            # 1..3 are never dispatched.
            report = verify_partition(make_system, four_cells(), settings)
        assert report.total_cells == 1
        assert report.settings_summary["interrupted"] == "deadline"

    def test_progress_exception_does_not_abort_campaign(self):
        class ExplodingProgress(CampaignProgress):
            def on_event(self, event):
                raise ValueError("broken progress bar")

        with use_recorder(Recorder()) as rec:
            report = verify_partition(
                make_system, four_cells(), progress=ExplodingProgress(stream=None)
            )
        # The recorder dropped the raising subscriber at its first event.
        assert rec.dropped_subscribers == 1
        assert report.total_cells == 4
        assert report.coverage_percent() == pytest.approx(100.0)


class TestWitnessTimeout:
    def test_stuck_witness_search_degrades_to_refinement(self):
        system = make_system(horizon_steps=4, target="none", error_bound=2.5)

        def stuck_search(system, box, command):
            time.sleep(30.0)
            return None  # pragma: no cover

        settings = RunnerSettings(
            witness_search=stuck_search, witness_timeout=0.2
        )
        started = time.perf_counter()
        result = run_cell_guarded(
            system, Box([2.0], [3.0]), 0, settings, "cell-0"
        )
        assert time.perf_counter() - started < 5.0
        assert not result.proved
        assert not result.quarantined  # timed-out search != timed-out cell
        assert result.tags["witness_timeout"] == pytest.approx(0.2)

    def test_witness_timeout_nests_inside_cell_budget(self):
        system = make_system(horizon_steps=4, target="none", error_bound=2.5)

        def stuck_search(system, box, command):
            time.sleep(30.0)
            return None  # pragma: no cover

        settings = RunnerSettings(
            witness_search=stuck_search, witness_timeout=0.2, cell_timeout=10.0
        )
        result = run_cell_guarded(
            system, Box([2.0], [3.0]), 0, settings, "cell-0"
        )
        # The witness guard fired, not the cell guard.
        assert result.verdict is not Verdict.TIMED_OUT
        assert "witness_timeout" in result.tags


class TestSupervisedPool:
    def test_matches_serial_results(self):
        tasks = [
            (f"cell-{i}", box, 1, {})
            for i, box in enumerate(grid_partition(Box([1.6], [2.4]), [4]))
        ]
        outcome = run_supervised(make_system, tasks, RunnerSettings(workers=2))
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert all(r.proved for r in outcome.results.values())
        assert outcome.interrupted is None

    def test_crash_retried_on_fresh_worker(self):
        settings = RunnerSettings(workers=2, max_retries=1, retry_backoff=0.01)
        with injected_faults("crash:cell-1"):  # first attempt only
            report = verify_partition(make_system, four_cells(), settings)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.PROVED_SAFE
        assert by_id["cell-1"].attempts == 2
        assert report.coverage_percent() == pytest.approx(100.0)

    def test_crash_exhausts_retries_then_aborts(self):
        settings = RunnerSettings(workers=2, max_retries=1, retry_backoff=0.01)
        with injected_faults("crash:cell-1:*"):  # every attempt
            report = verify_partition(make_system, four_cells(), settings)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.ABORTED
        assert by_id["cell-1"].tags["failure"]["kind"] == "crash"
        assert by_id["cell-1"].tags["failure"]["exitcode"] == CRASH_EXIT_CODE
        assert by_id["cell-1"].attempts == 2
        assert all(
            by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE for i in (0, 2, 3)
        )
        assert report.verdict_counts()["aborted"] == 1

    def test_hung_worker_killed_by_supervisor(self):
        settings = RunnerSettings(workers=2, cell_timeout=0.3)
        with injected_faults("hang:cell-0:60"):
            report = verify_partition(make_system, four_cells(), settings)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-0"].verdict is Verdict.TIMED_OUT
        assert by_id["cell-0"].tags["failure"]["enforced"] == "supervisor-kill"
        assert all(
            by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE for i in (1, 2, 3)
        )

    def test_factory_error_is_a_clear_runtime_error(self):
        def broken_factory():
            raise ValueError("no such network bank")

        tasks = [("cell-0", Box([2.0], [2.2]), 1, {})]
        with pytest.raises(RuntimeError, match="could not build the system"):
            run_supervised(broken_factory, tasks, RunnerSettings(workers=2))

    def test_deadline_drains_and_returns_partial(self):
        settings = RunnerSettings(workers=2, deadline=0.2)
        with injected_faults("slow:cell-0:0.4,slow:cell-1:0.4"):
            report = verify_partition(make_system, four_cells(), settings)
        assert report.settings_summary["interrupted"] == "deadline"
        # The in-flight cells drained; the undispatched ones did not run.
        assert 1 <= report.total_cells < 4

    def test_empty_task_list(self):
        outcome = run_supervised(make_system, [], RunnerSettings(workers=2))
        assert outcome.results == {}


class TestPoolTelemetry:
    """Event plumbing through the supervised pool: worker heartbeats
    travel the result pipe, and the supervisor emits lifecycle events
    through the ambient recorder."""

    def collect(self, faults=None, **settings_kwargs):
        """Run four cells on a 2-worker pool. ``cell.finished`` is a
        campaign event, so the pool runs under the campaign driver."""
        rec = Recorder(heartbeat_interval=0.05)
        events = []
        rec.subscribe(events.append)
        settings = RunnerSettings(workers=2, **settings_kwargs)
        with use_recorder(rec):
            if faults:
                with injected_faults(faults):
                    report = verify_partition(make_system, four_cells(), settings)
            else:
                report = verify_partition(make_system, four_cells(), settings)
        return report, events

    def test_lifecycle_and_heartbeat_events_published(self):
        import os

        report, events = self.collect(faults="slow:cell-0:0.2")
        kinds = [e["name"] for e in events]
        assert kinds.count("worker.spawned") == 2
        assert kinds.count("worker.ready") == 2
        assert kinds.count("cell.dispatched") == 4
        assert kinds.count("cell.finished") == 4
        beats = [e for e in events if e["name"] == "worker.heartbeat"]
        assert beats, "no heartbeats crossed the worker pipe"
        beat = beats[0]
        # Worker-originated: the PID is a child's, not the parent's.
        assert beat["pid"] != os.getpid() and beat["pid"] > 0
        assert {"rss_bytes", "cells_completed", "cell_elapsed"} <= set(beat)
        finished = [e for e in events if e["name"] == "cell.finished"]
        assert all(e["verdict_class"] == "proved" for e in finished)
        assert len(report.cells) == 4

    def test_crash_publishes_retry_then_quarantine(self):
        # cell-0 crashes once too: with both first cells crashing, work
        # is still pending at the first reap, so the respawn is certain.
        _report, events = self.collect(
            faults="crash:cell-0:1,crash:cell-1:*", max_retries=1, retry_backoff=0.01
        )
        kinds = [e["name"] for e in events]
        assert "worker.crash" in kinds
        assert "worker.respawn" in kinds
        assert "cell.retried" in kinds
        quarantined = [e for e in events if e["name"] == "cell.quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["cell_id"] == "cell-1"
        assert quarantined[0]["reason"] == "crash"

    def test_no_bus_no_heartbeat_threads(self, monkeypatch):
        """Without a heartbeat period on the recorder the pool passes
        heartbeat=None to the workers — telemetry must cost nothing
        when off. A forked worker inherits the patch below, so one that
        started a heartbeat thread would die and its cell be aborted."""
        from repro.obs import HeartbeatReporter

        def no_thread(self):
            raise AssertionError("a heartbeat thread was started")

        monkeypatch.setattr(HeartbeatReporter, "start", no_thread)
        tasks = [("cell-0", Box([2.0], [2.2]), 1, {})]
        outcome = run_supervised(make_system, tasks, RunnerSettings(workers=2))
        assert outcome.results[0].proved
