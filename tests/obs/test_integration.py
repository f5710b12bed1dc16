"""End-to-end observability: instrumented runner, worker merging,
no-op inertness, and report metrics."""

import pytest

from repro.core import (
    RefinementPolicy,
    RunnerSettings,
    grid_partition,
    reach_from_box,
    verify_partition,
)
from repro.intervals import Box
from repro.obs import Recorder, read_trace, use_recorder

from ..core.fixtures import make_system


def cells(n=4):
    return [
        (box, 1, {"idx": i})
        for i, box in enumerate(grid_partition(Box([1.6], [2.4]), [n]))
    ]


#: The serial executor's two shapes: with a cell budget one cell at a
#: time, else lockstep waves over the whole partition. Both write the
#: same span names.
SERIAL = pytest.mark.parametrize("cell_timeout", [600.0, None], ids=["per-cell", "lockstep"])


class TestInstrumentedRunner:
    @SERIAL
    def test_serial_run_collects_phases_and_report_metrics(self, tmp_path, cell_timeout):
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        settings = RunnerSettings(cell_timeout=cell_timeout)
        with use_recorder(rec):
            report = verify_partition(lambda: make_system(), cells(), settings)
        rec.close()

        counters = report.metrics["counters"]
        assert counters["reach.integrations"] > 0
        assert counters["reach.controller_evaluations"] > 0
        hists = report.metrics["histograms"]
        assert hists["cell.seconds"]["count"] == 4
        names = {e["name"] for e in read_trace(trace)}
        assert {"cell", "integrate", "controller", "join"} <= names

    def test_parallel_run_merges_both_workers(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        settings = RunnerSettings(workers=2)
        with use_recorder(rec):
            report = verify_partition(lambda: make_system(), cells(6), settings)
        rec.close()

        events = list(read_trace(trace))
        pids = {e["pid"] for e in events if e.get("name") == "worker.start"}
        assert len(pids) == 2
        # Worker files were folded into the parent trace and removed.
        assert not list(tmp_path.glob("trace.worker-*.jsonl"))
        cell_spans = [e for e in events if e.get("name") == "cell"]
        assert len(cell_spans) == 6
        # Worker metric deltas merged into the parent snapshot.
        assert report.metrics["histograms"]["cell.seconds"]["count"] == 6
        assert report.metrics["counters"]["reach.integrations"] > 0

    def test_pool_trace_merged_in_timestamp_order(self, tmp_path):
        """The parent's own lines join the merge: the trace never steps
        back in ``ts``, holds every worker's spans, and the events after
        the merge land after the merged lines."""
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        with use_recorder(rec):
            verify_partition(lambda: make_system(), cells(4), RunnerSettings(workers=2))
        rec.close()

        events = list(read_trace(trace))
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        workers = {e["pid"] for e in events if e.get("name") == "worker.start"}
        assert len(workers) == 2
        assert len([e for e in events if e.get("name") == "cell"]) == 4
        assert [e["name"] for e in events[-2:]] == ["trace.merged", "campaign.finished"]

    def test_progress_receives_results(self):
        from repro.obs import CampaignProgress

        progress = CampaignProgress(stream=None)
        verify_partition(lambda: make_system(), cells(), progress=progress)
        assert progress.done == progress.total == 4
        verdicts = progress.verdicts
        assert verdicts["proved"] + verdicts["unproved"] + verdicts["witnessed"] == 4

    @SERIAL
    def test_refinement_spans_present(self, tmp_path, cell_timeout):
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1),
            cell_timeout=cell_timeout,
        )
        bad = [(Box([4.0], [4.8]), 0, {})]  # drives toward the error bound
        with use_recorder(rec):
            verify_partition(lambda: make_system(horizon_steps=3), bad, settings)
        rec.close()
        names = [e["name"] for e in read_trace(trace)]
        assert "refine" in names


class TestNoOpIsInert:
    def test_reach_writes_nothing_without_recorder(self, tmp_path):
        system = make_system()
        result = reach_from_box(system, Box([1.6], [1.8]), 1)
        assert result.steps_completed >= 1
        assert list(tmp_path.iterdir()) == []

    def test_reach_results_identical_with_and_without_recorder(self):
        system = make_system()
        plain = reach_from_box(system, Box([1.6], [1.8]), 1)
        with use_recorder(Recorder()):
            observed = reach_from_box(system, Box([1.6], [1.8]), 1)
        assert plain.verdict == observed.verdict
        assert plain.steps_completed == observed.steps_completed
        assert plain.integrations == observed.integrations
        assert plain.joins_performed == observed.joins_performed


class TestCheckpointObservability:
    def test_malformed_journal_line_is_skipped_not_fatal(self, tmp_path):
        from repro.core import load_journal

        journal = tmp_path / "journal.jsonl"
        all_cells = cells()
        verify_partition(lambda: make_system(), all_cells, journal=journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == 4
        # Corrupt the SECOND line: entries after it must still load.
        lines[1] = lines[1][: len(lines[1]) // 2]
        journal.write_text("\n".join(lines) + "\n")

        finished = load_journal(journal)
        assert len(finished) == 3  # one torn line skipped, rest intact

        calls = {"count": 0}

        def factory():
            calls["count"] += 1
            return make_system()

        report = verify_partition(factory, all_cells, journal=journal)
        assert report.total_cells == 4
        assert calls["count"] == 1  # only the torn cell was re-verified
        assert len(load_journal(journal)) == 4

    def test_fsync_option(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        report = verify_partition(lambda: make_system(), cells(), journal=journal, fsync=True)
        assert report.total_cells == 4

    def test_resume_event_emitted(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells(), journal=journal)
        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        with use_recorder(rec):
            verify_partition(lambda: make_system(), cells(), journal=journal)
        rec.close()
        events = {e["name"] for e in read_trace(trace)}
        assert "journal.resume" in events


class TestCorruptCacheRegeneration:
    def test_corrupt_npz_is_regenerated_not_fatal(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.acasxu.mdp import TableConfig
        from repro.acasxu.networks import NetworkBankConfig, load_or_train_networks

        # Micro configuration: keeps the train-corrupt-retrain cycle fast.
        table_config = TableConfig(num_rho=4, num_theta=5, num_psi=5, sweeps=3)
        network_config = NetworkBankConfig(
            hidden_layers=1, width=4, epochs=2, random_samples=40
        )
        cache = tmp_path / "cache"
        # First build populates the cache.
        networks, tables = load_or_train_networks(
            table_config, network_config, cache_dir=cache
        )
        bank_dir = next(cache.iterdir())
        # Corrupt the tables and one network the way a torn write does.
        tables_path = bank_dir / "tables.npz"
        tables_path.write_bytes(tables_path.read_bytes()[: 100])
        net_path = bank_dir / "network_2.npz"
        net_path.write_bytes(b"PK\x03\x04 not actually a zip")

        trace = tmp_path / "trace.jsonl"
        rec = Recorder(trace_path=trace)
        with use_recorder(rec):
            networks2, _tables2 = load_or_train_networks(
                table_config, network_config, cache_dir=cache
            )
        rec.close()

        assert len(networks2) == len(networks)
        corrupt_events = [
            e for e in read_trace(trace) if e.get("name") == "cache.corrupt"
        ]
        assert len(corrupt_events) >= 2  # tables + the bad network
        # The cache is healed: a third load hits cleanly.
        networks3, _ = load_or_train_networks(
            table_config, network_config, cache_dir=cache
        )
        for a, b in zip(networks2, networks3):
            for wa, wb in zip(a.weights, b.weights):
                assert (wa == wb).all()
