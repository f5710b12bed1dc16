"""Tests for checkpointed (resumable) partition verification."""

import pytest

from repro.core import (
    DistributedSettings,
    RefinementPolicy,
    RunnerSettings,
    canonical_journal_bytes,
    grid_partition,
    load_journal,
    run_distributed,
    verify_partition,
)
from repro.core import runner as runner_module
from repro.core.reach import reach_many
from repro.intervals import Box
from repro.obs import CampaignProgress

from .fixtures import make_system


def cells():
    return [(box, 1, {"idx": i}) for i, box in enumerate(
        grid_partition(Box([1.6], [2.4]), [4])
    )]


class TestCheckpointing:
    def test_first_run_matches_plain_runner(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        factory = make_system
        checkpointed = verify_partition(factory, cells(), journal=journal)
        plain = verify_partition(factory, cells())
        assert checkpointed.total_cells == plain.total_cells
        assert checkpointed.coverage_percent() == pytest.approx(
            plain.coverage_percent()
        )
        assert journal.exists()
        assert len(load_journal(journal)) == 4

    def test_resume_skips_finished_cells(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        calls = {"count": 0}

        def factory():
            calls["count"] += 1
            return make_system()

        verify_partition(factory, cells(), journal=journal)
        assert calls["count"] == 1
        # Second run: everything cached, the system is never rebuilt.
        report = verify_partition(factory, cells(), journal=journal)
        assert calls["count"] == 1
        assert report.total_cells == 4
        assert report.coverage_percent() == pytest.approx(100.0)

    def test_partial_journal_resumes_remaining(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        all_cells = cells()
        verify_partition(lambda: make_system(), all_cells[:2], journal=journal)
        assert len(load_journal(journal)) == 2
        report = verify_partition(lambda: make_system(), all_cells, journal=journal)
        assert report.total_cells == 4
        assert len(load_journal(journal)) == 4

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells()[:2], journal=journal)
        with open(journal, "a") as handle:
            handle.write('{"key": "torn')  # simulated crash mid-write
        finished = load_journal(journal)
        assert len(finished) == 2
        # And the runner recovers, re-verifying only what is missing.
        report = verify_partition(lambda: make_system(), cells(), journal=journal)
        assert report.total_cells == 4

    def test_changed_partition_invalidates_entries(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells(), journal=journal)
        shifted = [(Box([3.0], [3.2]), 1)]
        report = verify_partition(lambda: make_system(), shifted, journal=journal)
        # The shifted cell was not in the journal: it got verified anew.
        assert report.total_cells == 1
        assert len(load_journal(journal)) == 5

    def test_progress_callback(self, tmp_path):
        """A resumed campaign reports each cell exactly once, replayed
        or computed, and only the computed ones feed the rate."""
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells()[:2], journal=journal)
        progress = CampaignProgress(stream=None)
        verify_partition(lambda: make_system(), cells(), progress=progress, journal=journal)
        assert progress.done == progress.total == 4
        assert progress.computed == 2
        assert progress.verdicts["proved"] == 4

    def test_tags_preserved_on_resume(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells(), journal=journal)
        report = verify_partition(lambda: make_system(), cells(), journal=journal)
        assert report.cells[2].tags["idx"] == 2


class TestResumedCampaignEvents:
    """A resumed campaign reports replayed and fresh cells alike."""

    def test_cell_finished_seq_is_the_partition_index(self, tmp_path):
        from repro.obs import Recorder, use_recorder

        journal = tmp_path / "journal.jsonl"
        verify_partition(make_system, cells()[:2], journal=journal)
        rec = Recorder()
        events = []
        rec.subscribe(events.append)
        with use_recorder(rec):
            verify_partition(make_system, cells(), journal=journal)
        finished = [e for e in events if e["name"] == "cell.finished"]
        assert sorted(e["seq"] for e in finished) == [0, 1, 2, 3]
        assert all(e["cell_id"] == f"cell-{e['seq']}" for e in finished)
        assert [e["cached"] for e in finished] == [True, True, False, False]

    def test_distributed_resume_feeds_replayed_cells_to_progress(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_distributed(make_system, cells()[:2], journal, nodes=1)
        progress = CampaignProgress(stream=None)
        report = run_distributed(make_system, cells(), journal, nodes=1, progress=progress)
        assert report.verdict_counts()["proved"] == 4
        assert progress.done == 4
        assert progress.computed == 2
        assert progress.verdicts["proved"] == 4


class TestExecutorsAgree:
    """Every executor journals the same cell trees."""

    @staticmethod
    def factory():
        # A near error bound: the upper cells fail and are refined.
        return make_system(horizon_steps=3, error_bound=3.0)

    @staticmethod
    def partition():
        return [(box, 1, {"idx": i}) for i, box in enumerate(
            grid_partition(Box([1.6], [3.0]), [4])
        )]

    def test_journals_identical_across_executors(self, tmp_path, monkeypatch):
        policy = RefinementPolicy(dims=(0,), max_depth=1)
        waves = []

        def recording_reach_many(system, initial_sets, settings):
            waves.append(len(initial_sets))
            return reach_many(system, initial_sets, settings)

        monkeypatch.setattr(runner_module, "reach_many", recording_reach_many)
        lockstep = verify_partition(
            self.factory, self.partition(),
            RunnerSettings(refinement=policy, batch_cells=True),
            journal=tmp_path / "lockstep.jsonl",
        )
        monkeypatch.undo()
        refined = [c for c in lockstep.cells if c.children]
        assert refined and len(refined) < 4
        # One reach_many call per wave: the 4 cells, then every child.
        assert waves == [4, 2 * len(refined)]

        verify_partition(
            self.factory, self.partition(),
            RunnerSettings(refinement=policy, cell_timeout=60.0),
            journal=tmp_path / "per-cell.jsonl",
        )
        verify_partition(
            self.factory, self.partition(),
            RunnerSettings(refinement=policy, workers=2),
            journal=tmp_path / "pool.jsonl",
        )
        run_distributed(
            self.factory, self.partition(), tmp_path / "distributed.jsonl",
            settings=RunnerSettings(refinement=policy),
            dist=DistributedSettings(num_shards=1, expected_nodes=1),
            nodes=1, workers_per_node=2,
        )
        journals = {
            name: canonical_journal_bytes(tmp_path / f"{name}.jsonl")
            for name in ("lockstep", "per-cell", "pool", "distributed")
        }
        assert len(load_journal(tmp_path / "lockstep.jsonl")) == 4
        assert len(set(journals.values())) == 1, sorted(journals)
