"""The fault-injection harness and the recovery paths it exercises:
torn journals, corrupted metric payloads, and checkpoint resume across
worker crashes (the acceptance scenario of the supervised runner)."""

import json

import pytest

from repro.core import (
    RunnerSettings,
    Verdict,
    grid_partition,
    load_journal,
    verify_partition,
)
from repro.intervals import Box
from repro.obs import Recorder, use_recorder
from repro.testing import (
    FaultInjector,
    FaultSpec,
    FaultSpecError,
    get_fault_injector,
    injected_faults,
    install_faults,
    parse_faults,
)

from .fixtures import make_system


def cells():
    return [
        (box, 1, {"idx": i})
        for i, box in enumerate(grid_partition(Box([1.6], [2.4]), [4]))
    ]


def tree(cell) -> tuple:
    """A result tree without its wall-clock fields."""
    return (
        cell.box.lo.tobytes(),
        cell.box.hi.tobytes(),
        cell.verdict,
        cell.steps_completed,
        cell.joins_performed,
        cell.integrations,
        tuple(tree(child) for child in cell.children),
    )


class TestSpecParsing:
    def test_crash_variants(self):
        assert parse_faults("crash:cell-3") == [
            FaultSpec("crash", cell_id="cell-3", attempts=1)
        ]
        assert parse_faults("crash:cell-3:2")[0].attempts == 2
        assert parse_faults("crash:cell-3:*")[0].attempts == -1

    def test_hang_slow_defaults(self):
        hang, slow = parse_faults("hang:c0,slow:c1")
        assert hang.seconds == 3600.0
        assert slow.seconds == 1.0
        assert parse_faults("slow:c1:0.25")[0].seconds == 0.25

    def test_stall_variants(self):
        stall = parse_faults("stall:c2")[0]
        assert stall.kind == "stall" and stall.cell_id == "c2"
        assert stall.seconds == 3600.0
        assert parse_faults("stall:c2:0.5")[0].seconds == 0.5

    def test_parent_side_kinds(self):
        torn, corrupt = parse_faults("torn-journal:3,corrupt-metrics")
        assert torn.nth == 3
        assert corrupt.cell_id is None
        assert parse_faults("corrupt-metrics:c2")[0].cell_id == "c2"

    def test_whitespace_and_empty_tokens_tolerated(self):
        assert len(parse_faults(" crash:c0 , , slow:c1 ")) == 2

    def test_node_crash_variants(self):
        assert parse_faults("node-crash:shard-3") == [
            FaultSpec("node-crash", cell_id="shard-3", attempts=1)
        ]
        assert parse_faults("node-crash:shard-3:2")[0].attempts == 2
        assert parse_faults("node-crash:shard-3:*")[0].attempts == -1

    def test_node_netsplit_defaults(self):
        split = parse_faults("node-netsplit:shard-1")[0]
        assert split.cell_id == "shard-1"
        assert split.seconds == 3600.0
        assert parse_faults("node-netsplit:shard-1:2.5")[0].seconds == 2.5

    def test_node_slowjoin_takes_no_shard(self):
        assert parse_faults("node-slowjoin")[0].seconds == 1.0
        assert parse_faults("node-slowjoin:0.2")[0].seconds == 0.2

    def test_node_kinds_compose_with_worker_kinds(self):
        specs = parse_faults("crash:cell-0,node-crash:shard-2,node-netsplit:shard-4:3")
        assert [s.kind for s in specs] == ["crash", "node-crash", "node-netsplit"]

    @pytest.mark.parametrize(
        "spec",
        ["explode:c0", "crash", "crash:c0:x", "hang", "torn-journal:one",
         "torn-journal:1:2", "corrupt-metrics:a:b", "node-crash",
         "node-crash:s0:x", "node-netsplit", "node-netsplit:s0:a:b",
         "node-slowjoin:1:2", "node-slowjoin:soon"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_faults(spec)


class TestNodeHooks:
    def test_node_crash_fires_on_leading_epochs_only(self):
        injector = FaultInjector(parse_faults("node-crash:shard-2:2"))
        assert injector.node_crash_active("shard-2", 1)
        assert injector.node_crash_active("shard-2", 2)
        assert not injector.node_crash_active("shard-2", 3)
        assert not injector.node_crash_active("shard-9", 1)
        always = FaultInjector(parse_faults("node-crash:shard-2:*"))
        assert always.node_crash_active("shard-2", 99)

    def test_netsplit_hits_first_epoch_only(self):
        """The work stealer (epoch 2) must not inherit the split, or the
        recovery path under test would never converge."""
        injector = FaultInjector(parse_faults("node-netsplit:shard-1:2.5"))
        assert injector.node_netsplit_seconds("shard-1", 1) == 2.5
        assert injector.node_netsplit_seconds("shard-1", 2) is None
        assert injector.node_netsplit_seconds("shard-0", 1) is None

    def test_slowjoin_default_when_absent(self):
        assert FaultInjector([]).node_slowjoin_seconds() == 0.0
        injector = FaultInjector(parse_faults("node-slowjoin:0.3"))
        assert injector.node_slowjoin_seconds() == 0.3


class TestInstallation:
    def test_env_variable_parsed_and_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "torn-journal:1")
        first = get_fault_injector()
        assert first is not None
        # Same env value: the same (stateful) injector comes back.
        assert get_fault_injector() is first
        monkeypatch.setenv("REPRO_FAULTS", "torn-journal:2")
        assert get_fault_injector() is not first
        monkeypatch.delenv("REPRO_FAULTS")
        assert get_fault_injector() is None

    def test_installed_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:env-cell")
        with injected_faults("crash:test-cell") as injector:
            assert get_fault_injector() is injector
        assert get_fault_injector().specs[0].cell_id == "env-cell"

    def test_injected_faults_restores_previous(self):
        assert install_faults(None) is None
        with injected_faults("crash:c0"):
            with injected_faults("crash:c1") as inner:
                assert get_fault_injector() is inner
            assert get_fault_injector().specs[0].cell_id == "c0"
        assert get_fault_injector() is None


class TestTornJournal:
    def test_tear_targets_the_nth_append(self):
        injector = FaultInjector(parse_faults("torn-journal:2"))
        line1, torn1 = injector.tear_journal_line('{"a": 1}')
        line2, torn2 = injector.tear_journal_line('{"b": 2}')
        assert (torn1, torn2) == (False, True)
        assert line1 == '{"a": 1}'
        assert line2 == '{"b": 2}'[: len('{"b": 2}') // 2]

    def test_torn_write_costs_exactly_one_cell_on_resume(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with injected_faults("torn-journal:1"):
            report = verify_partition(make_system, cells(), journal=journal)
        assert report.total_cells == 4
        # The first append was torn: the loader skips it, keeps the rest.
        finished = load_journal(journal)
        assert len(finished) == 3
        # Resume re-verifies only the torn cell.
        with use_recorder(Recorder()) as rec:
            report = verify_partition(make_system, cells(), journal=journal)
            assert rec.metrics.counters["checkpoint.cells_skipped"] == 3
            assert rec.metrics.counters["checkpoint.cells_verified"] == 1
        assert report.total_cells == 4
        assert len(load_journal(journal)) == 4


class TestCorruptMetrics:
    def test_payload_replaced_on_match(self):
        injector = FaultInjector(parse_faults("corrupt-metrics:c0"))
        good = {"counters": {"x": 1.0}}
        assert injector.corrupt_metrics_payload("c1", 0, good) is good
        corrupted = injector.corrupt_metrics_payload("c0", 0, good)
        assert corrupted != good

    def test_parent_discards_corrupt_payload_and_continues(self):
        settings = RunnerSettings(workers=2)
        with injected_faults("corrupt-metrics:cell-0"):
            with use_recorder(Recorder()) as rec:
                report = verify_partition(make_system, cells(), settings)
                counters = rec.metrics.counters
                assert counters["runner.corrupt_metric_payloads"] == 1
        assert report.total_cells == 4
        assert report.coverage_percent() == pytest.approx(100.0)


class TestCheckpointResumeUnderFaults:
    def test_crash_mid_campaign_then_resume_covers_partition_exactly_once(
        self, tmp_path
    ):
        """Kill a worker mid-campaign, restart from the journal, and the
        union of journaled + rerun cells equals the partition with no
        duplicates, with the same trees as an unfaulted run."""
        journal = tmp_path / "journal.jsonl"
        settings = RunnerSettings(workers=2, max_retries=0, retry_backoff=0.01)
        with injected_faults("crash:cell-2:*"):
            first = verify_partition(make_system, cells(), settings, journal=journal)
        by_id = {c.cell_id: c for c in first.cells}
        assert by_id["cell-2"].verdict is Verdict.ABORTED
        # Quarantined cells are NOT journaled: the journal holds exactly
        # the three organic results.
        journaled = load_journal(journal)
        assert len(journaled) == 3

        # Restart without the fault: only the crashed cell reruns.
        with use_recorder(Recorder()) as rec:
            second = verify_partition(make_system, cells(), settings, journal=journal)
            assert rec.metrics.counters["checkpoint.cells_skipped"] == 3
        assert second.total_cells == 4
        assert second.coverage_percent() == pytest.approx(100.0)
        # No duplicates: every cell key appears exactly once.
        with open(journal) as handle:
            keys = [json.loads(line)["key"] for line in handle if line.strip()]
        assert len(keys) == len(set(keys)) == 4
        clean = verify_partition(make_system, cells(), settings)
        assert [tree(c) for c in second.cells] == [tree(c) for c in clean.cells]

    def test_acceptance_combo(self, tmp_path):
        """The issue's acceptance scenario: two workers, one crashing
        cell, one cell past its budget — the campaign completes with
        exactly those cells quarantined, the traces merged, and a
        journal a second run resumes from without re-verifying."""
        journal = tmp_path / "journal.jsonl"
        trace = tmp_path / "trace.jsonl"
        boxes = grid_partition(Box([1.4], [2.6]), [6])
        partition = [(box, 1, {"idx": i}) for i, box in enumerate(boxes)]
        settings = RunnerSettings(
            workers=2, cell_timeout=0.5, max_retries=1, retry_backoff=0.01
        )
        with injected_faults("crash:cell-1:*,slow:cell-2:30"):
            with use_recorder(Recorder(trace_path=trace)):
                report = verify_partition(
                    make_system, partition, settings, journal=journal,
                )

        assert report.total_cells == 6
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.ABORTED
        assert by_id["cell-2"].verdict is Verdict.TIMED_OUT
        for i in (0, 3, 4, 5):
            assert by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE
        counts = report.verdict_counts()
        assert counts["aborted"] == 1
        assert counts["timed-out"] == 1
        assert counts["proved"] == 4
        assert [c.cell_id for c in report.quarantined_cells()] == [
            "cell-1", "cell-2",
        ]

        # Worker traces were merged into the parent file and deleted.
        assert not list(tmp_path.glob("trace.worker-*.jsonl"))
        trace_names = {
            json.loads(line).get("name") for line in trace.read_text().splitlines()
        }
        assert "worker.start" in trace_names
        assert "worker.crash" in trace_names

        # The journal holds only the four organic results; a second run
        # reuses them and re-verifies exactly the two quarantined cells.
        assert len(load_journal(journal)) == 4
        with use_recorder(Recorder()) as rec:
            second = verify_partition(make_system, partition, settings, journal=journal)
            assert rec.metrics.counters["checkpoint.cells_skipped"] == 4
        assert second.total_cells == 6
        assert second.coverage_percent() == pytest.approx(100.0)
        assert len(load_journal(journal)) == 6
