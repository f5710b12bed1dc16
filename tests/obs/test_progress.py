"""CampaignProgress: the progress line as a printing view of the fold,
fed only by telemetry events."""

import io
import time

import pytest

from repro.core import (
    CellResult,
    RefinementPolicy,
    RunnerSettings,
    Verdict,
    grid_partition,
    verify_partition,
)
from repro.core import runner as runner_module
from repro.core.reach import reach_many
from repro.core.runner import _publish_finished
from repro.intervals import Box
from repro.obs import CampaignProgress, Recorder, format_eta, use_recorder
from repro.testing import injected_faults

from ..core.fixtures import make_system


def event(name, ts, **fields):
    """A recorder event as subscribers receive it."""
    return {"ts": ts, "kind": "event", "name": name, **fields}


def started(total, ts=0.0):
    return event("campaign.started", ts, total=total)


def finished(ts, verdict_class="proved", cached=False, worker=None):
    return event(
        "cell.finished", ts, verdict_class=verdict_class, cached=cached, worker=worker
    )


def feed(progress, *events):
    for item in events:
        progress.on_event(item)
    return progress


def quiet():
    return CampaignProgress(stream=None)


def lines(stream):
    return stream.getvalue().strip().splitlines()


class TestFormatEta:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0.0, "0s"),
            (47.0, "47s"),
            (192.0, "3m12s"),
            (2 * 3600 + 5 * 60, "2h05m"),
            (27 * 3600, "1d03h"),
            (-5.0, "0s"),  # clamped, never negative
        ],
    )
    def test_boundaries(self, seconds, expected):
        assert format_eta(seconds) == expected


class TestRateAndEta:
    def test_rate_is_cells_per_second(self):
        progress = feed(quiet(), started(100), *[finished(10.0)] * 20)
        assert progress.rate(now=10.0) == pytest.approx(2.0)
        assert progress.eta_seconds(now=10.0) == pytest.approx(40.0)

    def test_rate_zero_before_first_completion(self):
        progress = feed(quiet(), started(100))
        assert progress.rate(now=5.0) == 0.0
        assert progress.eta_seconds(now=5.0) is None

    def test_eta_shrinks_as_done_grows(self):
        progress = feed(quiet(), started(100), *[finished(10.0)] * 10)
        first_eta = progress.eta_seconds(now=10.0)
        feed(progress, *[finished(20.0)] * 30)
        assert progress.eta_seconds(now=20.0) < first_eta

    def test_elapsed_tracks_clock(self):
        """The rate's clock starts at the campaign.started event."""
        progress = feed(quiet(), started(10, ts=100.0), finished(107.5))
        assert progress.rate(now=107.5) == pytest.approx(1 / 7.5)

    def test_replayed_cells_give_no_rate(self):
        """A resumed campaign's journal-replayed cells took no time: the
        line shows no rate until a cell is computed."""
        progress = feed(quiet(), started(24), finished(0.004, cached=True))
        line = progress.render(now=0.004)
        assert line.startswith("cells 1/24 (4.2%) | proved 1")
        assert "cell/s" not in line and "ETA" not in line


class TestRollingVerdicts:
    def test_counts_by_outcome(self):
        progress = feed(
            quiet(),
            started(4),
            finished(1.0, "proved"),
            finished(1.0, "proved"),
            finished(1.0, "unproved"),
            finished(1.0, "witnessed"),
        )
        assert progress.verdicts["proved"] == 2
        assert progress.verdicts["unproved"] == 1
        assert progress.verdicts["witnessed"] == 1

    def test_partial_coverage_counts_as_unproved(self):
        """A tree with one proved and one unproved leaf is unproved: the
        class is the result's own, carried by its cell.finished."""
        box = Box([0.0], [1.0])
        root = CellResult("cell-0", box, 0, Verdict.POSSIBLY_UNSAFE)
        root.children = [
            CellResult("cell-0.0", box, 0, Verdict.PROVED_SAFE, depth=1),
            CellResult("cell-0.1", box, 0, Verdict.POSSIBLY_UNSAFE, depth=1),
        ]
        rec = Recorder()
        progress = quiet().attach(rec)
        with use_recorder(rec):
            _publish_finished(0, root, worker=0)
        assert progress.verdicts["unproved"] == 1
        assert progress.verdicts["proved"] == 0

    def test_update_without_result_keeps_counts(self):
        """Events that carry no result (a start, a dispatch, a heartbeat)
        keep the counts."""
        progress = feed(
            quiet(),
            started(2),
            event("worker.ready", 0.1, worker=0, pid=1),
            event("cell.dispatched", 0.2, worker=0, cell_id="cell-0"),
            event("worker.heartbeat", 0.3, worker=0),
        )
        assert progress.done == 0
        assert set(progress.verdicts.values()) == {0}


class TestRendering:
    def test_render_contents(self):
        progress = feed(quiet(), started(10), *[finished(10.0)] * 5)
        line = progress.render(now=10.0)
        assert line == (
            "cells 5/10 (50.0%) | 0.50 cell/s | ETA 10s | proved 5 unproved 0 witnessed 0"
        )

    def test_quarantine_counts_only_when_nonzero(self):
        progress = feed(quiet(), started(3), finished(1.0), finished(1.0, "aborted"))
        line = progress.render(now=1.0)
        assert line.endswith("proved 1 unproved 0 witnessed 0 aborted 1")
        assert "timed-out" not in line

    def test_prints_throttled_but_final_always(self):
        stream = io.StringIO()
        progress = CampaignProgress(stream=stream, min_interval=1000.0)
        feed(
            progress,
            started(3),
            finished(1.0),  # first one prints (interval from -inf)
            finished(2.0),  # throttled
            finished(3.0),  # the last cell: its line waits for ...
            event("campaign.finished", 3.0, interrupted=None),  # ... this
        )
        printed = lines(stream)
        assert len(printed) == 2
        assert printed[-1].startswith("cells 3/3")

    def test_complete_campaign_prints_last_line_once(self):
        stream = io.StringIO()
        progress = CampaignProgress(stream=stream, min_interval=0.0)
        feed(progress, started(3), finished(1.0), finished(2.0), finished(3.0))
        feed(progress, event("campaign.finished", 3.0, interrupted=None))
        printed = lines(stream)
        assert [line.split(" (")[0] for line in printed] == [
            "cells 1/3", "cells 2/3", "cells 3/3",
        ]

    def test_interrupted_campaign_prints_its_last_line(self):
        stream = io.StringIO()
        progress = CampaignProgress(stream=stream, min_interval=1000.0)
        feed(
            progress,
            started(4),
            finished(1.0),
            finished(2.0),
            event("campaign.finished", 2.5, interrupted="deadline"),
        )
        assert lines(stream)[-1].startswith("cells 2/4 (50.0%)")

    def test_deadline_campaign_ends_on_its_last_cell(self, monkeypatch):
        """Wave 0 ends past the deadline: its three finished trees are
        kept and cell-3's refinement wave never starts. The last line
        counts the three although the throttle held back the others."""
        stream = io.StringIO()
        progress = CampaignProgress(stream=stream, min_interval=1000.0)
        cells = [(box, 1) for box in grid_partition(Box([1.6], [3.0]), [4])]
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1), deadline=0.3
        )

        def slow_reach_many(system, initial_sets, reach_settings):
            outcomes = reach_many(system, initial_sets, reach_settings)
            time.sleep(0.35)
            return outcomes

        monkeypatch.setattr(runner_module, "reach_many", slow_reach_many)
        report = verify_partition(
            lambda: make_system(horizon_steps=3, error_bound=3.0), cells, settings,
            progress=progress,
        )
        assert report.settings_summary["interrupted"] == "deadline"
        assert [c.cell_id for c in report.cells] == ["cell-0", "cell-1", "cell-2"]
        assert lines(stream)[-1].startswith("cells 3/4 (75.0%)")

    def test_no_eta_once_finished(self):
        progress = feed(quiet(), started(4), *[finished(2.0)] * 4)
        assert "ETA" not in progress.render(now=2.0)


class TestStalledMarker:
    @staticmethod
    def busy_pool(beat_at):
        """Two workers dispatched at 0 whose newest beats are at
        ``beat_at``, folded by a progress line on a recorder beating
        every second (stalled after 3 s of silence)."""
        progress = quiet().attach(Recorder(heartbeat_interval=1.0))
        feed(progress, started(10))
        for worker in (0, 1):
            feed(
                progress,
                event("cell.dispatched", 0.0, worker=worker, cell_id="c"),
                event("worker.heartbeat", beat_at, worker=worker),
            )
        return progress

    def test_stalled_count_shown_when_nonzero(self):
        assert self.busy_pool(beat_at=1.0).render(now=10.0).endswith(" | 2 stalled")

    def test_hidden_when_zero_or_absent(self):
        assert "stalled" not in self.busy_pool(beat_at=9.5).render(now=10.0)
        # A recorder without heartbeats flags no stall, however long a
        # cell runs.
        plain = quiet().attach(Recorder())
        feed(
            plain,
            started(10),
            event("cell.dispatched", 0.0, worker=0, cell_id="c"),
        )
        assert "stalled" not in plain.render(now=100.0)

    def test_no_live_bus_never_flags_a_slow_cell(self):
        """A 2-worker campaign without live telemetry: cell-0's line is
        printed while cell-1 has been running past the 3 s stall
        threshold, and no line says `stalled`."""
        stream = io.StringIO()
        progress = CampaignProgress(stream=stream, min_interval=0.0)
        cells = [(box, 1) for box in grid_partition(Box([1.6], [2.4]), [4])]
        with injected_faults("slow:cell-0:3.3,slow:cell-1:4.0"):
            report = verify_partition(
                make_system, cells, RunnerSettings(workers=2), progress=progress
            )
        assert report.total_cells == 4
        printed = lines(stream)
        assert printed[0].startswith("cells 1/4")
        assert printed[-1].startswith("cells 4/4")
        assert not [line for line in printed if "stalled" in line]


class TestCampaignProgress:
    def test_rate_eta_and_verdict_counts(self):
        """Results published as a campaign driver does: the classes come
        from the results, the rate from the events' timestamps."""

        def cell(verdict, tags=None):
            return CellResult(
                cell_id="c",
                box=Box([0.0], [1.0]),
                command=0,
                verdict=verdict,
                tags=tags or {},
            )

        rec = Recorder()
        progress = quiet().attach(rec)
        with use_recorder(rec):
            rec.event("campaign.started", total=4)
            _publish_finished(0, cell(Verdict.PROVED_SAFE), worker=0)
            _publish_finished(1, cell(Verdict.POSSIBLY_UNSAFE), worker=0)
            _publish_finished(
                2, cell(Verdict.POSSIBLY_UNSAFE, tags={"witness": [0.5]}), worker=0
            )
        assert progress.verdicts["proved"] == 1
        assert progress.verdicts["unproved"] == 1
        assert progress.verdicts["witnessed"] == 1
        now = progress.started_at + 10.0
        assert progress.rate(now) == pytest.approx(3 / 10.0)
        assert progress.eta_seconds(now) == pytest.approx((4 - 3) / (3 / 10.0))
        line = progress.render(now)
        assert "cells 3/4" in line
        assert "proved 1" in line
