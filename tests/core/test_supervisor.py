"""The supervised pool: budget guards, crash retry/quarantine, worker
kills, campaign deadlines, and the fault-tolerant serial path."""

import contextlib
import io
import signal
import time

import pytest

from repro.core import (
    BudgetExceeded,
    RefinementPolicy,
    RunnerSettings,
    Verdict,
    budget_guard,
    grid_partition,
    load_journal,
    run_cell_guarded,
    run_supervised,
    verify_partition,
)
from repro.core import runner as runner_module
from repro.core.reach import reach_many
from repro.intervals import Box
from repro.obs import CampaignProgress, Recorder, use_recorder
from repro.testing import injected_faults
from repro.testing.faults import CRASH_EXIT_CODE

from .fixtures import make_system


def cells_for(boxes, command=1):
    return [(box, command) for box in boxes]


def four_cells():
    return cells_for(grid_partition(Box([1.6], [2.4]), [4]))


def near_error():
    return make_system(horizon_steps=3, error_bound=3.0)


def near_error_cells():
    """Cells 0-2 are proved in wave 0; cell-3 is refined in wave 1."""
    return cells_for(grid_partition(Box([1.6], [3.0]), [4]))


def slow_waves(monkeypatch, seconds=0.35):
    """Make every wave of the driver end ``seconds`` late; returns the
    list the wave sizes are recorded in."""
    waves = []

    def slow_reach_many(system, initial_sets, reach_settings):
        waves.append(len(initial_sets))
        outcomes = reach_many(system, initial_sets, reach_settings)
        time.sleep(seconds)
        return outcomes

    monkeypatch.setattr(runner_module, "reach_many", slow_reach_many)
    return waves


def tree(cell):
    """A result tree without its timings and attempts: cell id, box,
    verdict, work counters and children."""
    return (
        cell.cell_id, cell.box.lo.tolist(), cell.box.hi.tolist(), cell.verdict,
        cell.steps_completed, cell.joins_performed, cell.integrations,
        [tree(c) for c in cell.children],
    )


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

    def test_early_alarm_rearms_for_the_rest(self):
        """A SIGALRM from elsewhere does not cut the block short: the
        guard re-arms and fires at its own deadline."""
        started = time.monotonic()
        with pytest.raises(BudgetExceeded):
            with budget_guard(0.3, scope="cell"):
                signal.raise_signal(signal.SIGALRM)
                time.sleep(5.0)
        assert time.monotonic() - started >= 0.29

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

    def test_deadline_returns_partial_report(self, tmp_path, monkeypatch):
        """The deadline stops the campaign at the wave boundary, as
        SIGINT does: wave 0 runs past it, so its finished trees are kept
        and journaled, cell-3's refinement wave never starts, and a
        resume recomputes only cell-3."""
        cells = near_error_cells()
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1), deadline=0.3
        )
        waves = slow_waves(monkeypatch)
        progress = CampaignProgress(stream=io.StringIO(), min_interval=1000.0)
        journal = tmp_path / "journal.jsonl"
        report = verify_partition(near_error, cells, settings, progress, journal=journal)
        monkeypatch.undo()

        assert waves == [4]
        assert report.settings_summary["interrupted"] == "deadline"
        assert [c.cell_id for c in report.cells] == ["cell-0", "cell-1", "cell-2"]
        assert all(c.proved for c in report.cells)
        assert sorted(r.cell_id for r in load_journal(journal).values()) == [
            "cell-0", "cell-1", "cell-2",
        ]
        last = progress.stream.getvalue().splitlines()[-1]
        assert last.startswith("cells 3/4 (75.0%)")

        whole_settings = RunnerSettings(refinement=settings.refinement)
        with use_recorder(Recorder()):
            resumed = verify_partition(near_error, cells, whole_settings, journal=journal)
        whole = verify_partition(near_error, cells, whole_settings)
        assert resumed.metrics["counters"]["checkpoint.cells_skipped"] == 3
        assert resumed.metrics["counters"]["checkpoint.cells_verified"] == 1
        assert [tree(c) for c in resumed.cells] == [tree(c) for c in whole.cells]

    def test_deadline_stops_a_budgeted_cell_between_its_waves(self, monkeypatch):
        """With a cell budget the cells run one at a time, and the
        deadline still stops at the wave boundary: cell-0's refinement
        wave never starts, so its unfinished tree is dropped and no
        further cell runs."""
        cells = near_error_cells()[::-1]  # the refined cell first
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1),
            cell_timeout=600.0,
            deadline=0.3,
        )
        waves = slow_waves(monkeypatch)
        report = verify_partition(near_error, cells, settings)
        assert waves == [1]
        assert report.cells == []
        assert report.settings_summary["interrupted"] == "deadline"

    def test_raising_cell_aborts_alone(self, monkeypatch):
        """A cell whose reach_many raises takes down its chunk's driver
        call; the other cells rerun alone, so it ends ABORTED by itself
        and every tree equals the one-cell-at-a-time run's."""
        cells = cells_for(grid_partition(Box([1.6], [2.8]), [6]))
        bad = cells[2][0]
        waves = []

        def failing_reach_many(system, initial_sets, reach_settings):
            waves.append(len(initial_sets))
            if any(state.box == bad for initial in initial_sets for state in initial):
                raise FloatingPointError("overflow in a flow step")
            return reach_many(system, initial_sets, reach_settings)

        monkeypatch.setattr(runner_module, "reach_many", failing_reach_many)
        chunked = verify_partition(make_system, cells)
        # The chunk's wave 0 raised; then each cell ran alone.
        assert waves == [6] + [1] * 6
        alone = verify_partition(make_system, cells, RunnerSettings(cell_timeout=600.0))

        assert [c.cell_id for c in chunked.quarantined_cells()] == ["cell-2"]
        aborted = chunked.cells[2]
        assert aborted.verdict is Verdict.ABORTED
        assert aborted.tags["failure"]["kind"] == "exception"
        assert "FloatingPointError" in aborted.tags["failure"]["error"]
        assert [tree(c) for c in chunked.cells] == [tree(c) for c in alone.cells]
        assert sum(c.proved for c in chunked.cells) == 5

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


class TestEventSeq:
    """A cell's ``seq`` is its campaign index in every event, also when a
    resumed campaign hands the executor only the cells left to run."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_resumed_campaign_has_one_seq_per_cell(self, tmp_path, workers):
        journal = tmp_path / "journal.jsonl"
        cells = four_cells()
        verify_partition(make_system, cells[:2], RunnerSettings(), journal=journal)

        rec = Recorder()
        events = []
        rec.subscribe(events.append)
        settings = RunnerSettings(workers=workers, max_retries=1, retry_backoff=0.01)
        # The pool crashes cell-3 once, so it is dispatched twice and
        # retried in between.
        faults = injected_faults("crash:cell-3") if workers > 1 else contextlib.nullcontext()
        with use_recorder(rec), faults:
            report = verify_partition(make_system, cells, settings, journal=journal)

        assert report.total_cells == 4
        names = ("cell.dispatched", "cell.retried", "cell.finished")
        seqs: dict[str, set] = {}
        for event in events:
            if event["name"] in names:
                seqs.setdefault(event["cell_id"], set()).add(event["seq"])
        assert seqs == {f"cell-{i}": {i} for i in range(4)}
        kinds = [(e["name"], e["cell_id"]) for e in events if e["name"] in names]
        assert ("cell.dispatched", "cell-2") in kinds
        assert ("cell.dispatched", "cell-0") not in kinds
        assert (("cell.retried", "cell-3") in kinds) == (workers > 1)
