"""Tests for the partition runner and split refinement.

``verify_cell`` is a one-cell call of the lockstep wave driver, so each
refinement round of a cell is one ``reach_many`` wave. Its oracle,
``_verify_cell_oracle`` below, is split refinement written as the
depth-first recursion: one ``reach_from_box`` per refinement node,
children one after another. Every ``CellResult`` field of the driver's
tree must equal the oracle's, recursively; only ``elapsed_seconds`` is
left out.
"""

import dataclasses
import os
import signal
import time
from collections import Counter

import pytest

from repro.core import (
    CellResult,
    ReachSettings,
    RefinementPolicy,
    RunnerSettings,
    Verdict,
    grid_partition,
    reach_from_box,
    verify_cell,
    verify_partition,
)
from repro.core import runner as runner_module
from repro.core.reach import reach_many
from repro.core.runner import _search_witness
from repro.intervals import Box
from repro.obs import CampaignProgress, Recorder, get_recorder, read_trace, use_recorder

from .fixtures import make_system


def cells_for(boxes, command=1):
    return [(box, command) for box in boxes]


def _verify_cell_oracle(system, box, command, settings, cell_id="cell", depth=0):
    """Split refinement as a depth-first recursion: one reach run per
    refinement node, in a ``cell`` span, and each refined node's
    children one after another in a ``refine`` span."""
    rec = get_recorder()
    started = time.perf_counter()
    with rec.span("cell", cell_id=cell_id, depth=depth, command=command):
        outcome = reach_from_box(system, box, command, settings.reach)
    result = CellResult(
        cell_id=cell_id,
        box=box,
        command=command,
        verdict=outcome.verdict,
        depth=depth,
        elapsed_seconds=time.perf_counter() - started,
        steps_completed=outcome.steps_completed,
        joins_performed=outcome.joins_performed,
        integrations=outcome.integrations,
    )
    rec.inc(f"runner.verdict.{outcome.verdict.value}")
    if result.verdict is not Verdict.PROVED_SAFE and settings.witness_search:
        if _search_witness(system, result, settings, depth):
            return result
    policy = settings.refinement
    if (
        result.verdict is not Verdict.PROVED_SAFE
        and policy is not None
        and depth < policy.max_depth
    ):
        rec.inc("runner.refinements")
        with rec.span("refine", cell_id=cell_id, depth=depth + 1):
            for i, child_box in enumerate(policy.children(box)):
                result.children.append(
                    _verify_cell_oracle(
                        system, child_box, command, settings, f"{cell_id}.{i}", depth + 1
                    )
                )
    return result


def _fields(result: CellResult) -> dict:
    """Every CellResult field but ``elapsed_seconds``, recursively;
    boxes as their endpoint bytes."""
    out = {}
    for f in dataclasses.fields(CellResult):
        if f.name == "elapsed_seconds":
            continue
        value = getattr(result, f.name)
        if f.name == "box":
            value = (value.lo.tobytes(), value.hi.tobytes())
        elif f.name == "children":
            value = [_fields(child) for child in value]
        out[f.name] = value
    return out


def assert_matches_oracle(system, box, command, settings) -> CellResult:
    result = verify_cell(system, box, command, settings)
    assert _fields(result) == _fields(
        _verify_cell_oracle(system, box, command, settings)
    )
    return result


def _depth(node) -> int:
    return max([node.depth] + [_depth(c) for c in node.children])


def _near_error():
    """Bang-bang regulation with a short horizon and a near error bound:
    ``MIXED`` is refined, and its children split between proved and
    unproved."""
    return make_system(horizon_steps=3, error_bound=3.0)


MIXED = Box([2.0], [3.0])


class TestVerifyCellOracle:
    @pytest.mark.parametrize("max_depth", [1, 2])
    @pytest.mark.parametrize(
        "system, box, command",
        [
            (_near_error, MIXED, 1),
            (lambda: make_system(horizon_steps=4, target="none", error_bound=2.5),
             Box([2.0], [3.0]), 0),
            (lambda: make_system(), Box([2.0], [2.2]), 1),
        ],
        ids=["mixed", "never-proved", "proved"],
    )
    def test_one_dimensional_fixtures(self, system, box, command, max_depth):
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=max_depth)
        )
        assert_matches_oracle(system(), box, command, settings)

    def test_children_split_between_proved_and_unproved(self):
        settings = RunnerSettings(refinement=RefinementPolicy(dims=(0,), max_depth=2))
        result = assert_matches_oracle(_near_error(), MIXED, 1, settings)
        assert [c.proved for c in result.children] == [True, False]
        assert [c.proved for c in result.children[1].children] == [True, False]

    def test_witness_hit_stops_refinement(self):
        calls = []

        def search(system, box, command):
            calls.append(float(box.lo[0]))
            return box.lo.copy() if box.lo[0] >= 2.5 else None

        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=2), witness_search=search
        )
        result = assert_matches_oracle(_near_error(), MIXED, 1, settings)
        hit = result.children[1]
        assert hit.tags["witness"] == [2.5] and not hit.children
        assert "witness" not in result.tags and result.children
        # Each driver searched the unproved root and its unproved child.
        assert sorted(calls) == [2.0, 2.0, 2.5, 2.5]

    def test_witness_miss_refines(self):
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=2),
            witness_search=lambda *_args: None,
        )
        result = assert_matches_oracle(_near_error(), MIXED, 1, settings)
        assert _depth(result) == 2
        assert not any("witness" in leaf.tags for leaf in result.leaves())

    def test_witness_timeout_refines(self):
        def stuck_on_root(system, box, command):
            if box.hi[0] - box.lo[0] > 0.75:
                time.sleep(5.0)
            return None

        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1),
            witness_search=stuck_on_root,
            witness_timeout=0.05,
        )
        result = assert_matches_oracle(_near_error(), MIXED, 1, settings)
        assert result.tags["witness_timeout"] == pytest.approx(0.05)
        assert len(result.children) == 2

    def test_coarse_acas_cells_with_joins(self, tiny_acas):
        from repro.acasxu import initial_cells

        settings = RunnerSettings(
            reach=ReachSettings(substeps=4),
            refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=1),
        )
        cells = initial_cells(8, 3)
        for box, command, _tags in (cells[9], cells[21]):
            result = assert_matches_oracle(tiny_acas, box, command, settings)
            assert len(result.children) == 8
            assert result.joins_performed > 0
            assert all(c.joins_performed > 0 for c in result.children if not c.proved)

    def test_refinement_round_is_one_wave(self, monkeypatch):
        waves = []

        def recording_reach_many(system, initial_sets, settings):
            waves.append(len(initial_sets))
            return reach_many(system, initial_sets, settings)

        monkeypatch.setattr(runner_module, "reach_many", recording_reach_many)
        settings = RunnerSettings(refinement=RefinementPolicy(dims=(0,), max_depth=2))
        verify_cell(_near_error(), MIXED, 1, settings)
        assert waves == [1, 2, 2]

    def test_per_cell_spans_match_oracle(self, tmp_path):
        """The per-cell path writes the recursion's ``cell`` and
        ``refine`` spans: same names, counts and fields."""

        def spans(trace):
            return Counter(
                (e["name"], e["cell_id"], e["depth"], e.get("command"))
                for e in read_trace(trace)
                if e.get("kind") == "span" and e["name"] in ("cell", "refine")
            )

        settings = RunnerSettings(refinement=RefinementPolicy(dims=(0,), max_depth=2))
        per_cell, oracle = tmp_path / "per-cell.jsonl", tmp_path / "oracle.jsonl"
        with use_recorder(Recorder(trace_path=per_cell)) as rec:
            report = verify_partition(_near_error, [(MIXED, 1)], settings)
        rec.close()
        with use_recorder(Recorder(trace_path=oracle)) as rec:
            _verify_cell_oracle(_near_error(), MIXED, 1, settings, cell_id="cell-0")
        rec.close()

        assert spans(per_cell) == spans(oracle)
        assert Counter(name for name, *_ in spans(oracle)) == {"cell": 5, "refine": 2}
        assert report.metrics["histograms"]["cell.seconds"]["count"] == 5


class TestVerifyCell:
    def test_safe_cell(self):
        system = make_system()
        settings = RunnerSettings()
        result = verify_cell(system, Box([2.0], [2.2]), 1, settings)
        assert result.proved
        assert result.elapsed_seconds > 0.0
        assert not result.children

    def test_refinement_recovers_coverage(self):
        """A too-wide cell fails, but its refined halves succeed."""
        # Wide cell: [1.0, 3.0] stays provable? Make one that fails by
        # including states that reach the error bound when joined: use a
        # short horizon with no termination and a tight error bound.
        tight = make_system(horizon_steps=4, target="none", error_bound=4.0)
        wide = Box([1.0], [3.4])
        no_refine = RunnerSettings(reach=ReachSettings())
        base = verify_cell(tight, wide, 0, no_refine)
        # command "up" (+1) drives s upward: 3.4 + 4 > 4 -> unsafe-ish;
        # actually the regulation network flips it down for s > 0.
        # Regardless of the verdict here, the refinement machinery is
        # exercised below with a policy.
        policy = RefinementPolicy(dims=(0,), max_depth=2)
        refined = verify_cell(
            tight, wide, 0, RunnerSettings(reach=ReachSettings(), refinement=policy)
        )
        if not base.proved:
            assert refined.children
            assert all(c.depth == 1 for c in refined.children)

    def test_refinement_depth_capped(self):
        system = make_system(
            network=None, horizon_steps=4, target="none", error_bound=2.5
        )
        # Cell that genuinely cannot be proved: includes states beyond
        # the error bound already.
        policy = RefinementPolicy(dims=(0,), max_depth=1)
        settings = RunnerSettings(reach=ReachSettings(), refinement=policy)
        result = verify_cell(system, Box([2.0], [3.0]), 0, settings)
        assert not result.proved

        def max_depth(node):
            if not node.children:
                return node.depth
            return max(max_depth(c) for c in node.children)

        assert max_depth(result) <= 1


class TestVerifyPartition:
    def test_serial_run(self):
        system_factory = lambda: make_system()
        boxes = grid_partition(Box([1.6], [2.4]), [4])
        report = verify_partition(system_factory, cells_for(boxes))
        assert report.total_cells == 4
        assert report.coverage_percent() == pytest.approx(100.0)

    def test_tags_preserved(self):
        system_factory = lambda: make_system()
        cells = [(Box([2.0], [2.2]), 1, {"arc": 3})]
        report = verify_partition(system_factory, cells)
        assert report.cells[0].tags == {"arc": 3}

    def test_progress_callback(self):
        system_factory = lambda: make_system()
        boxes = grid_partition(Box([1.6], [2.4]), [3])
        seen = []

        class Progress(CampaignProgress):
            def on_event(self, event):
                super().on_event(event)
                if event["name"] == "cell.finished":
                    seen.append((self.done, self.total))

        verify_partition(system_factory, cells_for(boxes), progress=Progress(stream=None))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_lockstep_progress_arrives_per_tree(self, monkeypatch):
        """cell-0 is proved in wave 0, so its update must not wait for
        the refinement wave of cell-1."""
        log = []

        def logging_reach_many(system, initial_sets, settings):
            log.append(("reach_many", len(initial_sets)))
            return reach_many(system, initial_sets, settings)

        class Progress(CampaignProgress):
            def on_event(self, event):
                super().on_event(event)
                if event["name"] == "cell.finished":
                    log.append(("progress", self.done, event["cell_id"]))

        monkeypatch.setattr(runner_module, "reach_many", logging_reach_many)
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1), batch_cells=True
        )
        report = verify_partition(
            _near_error, [(Box([2.0], [2.2]), 1), (MIXED, 1)], settings, Progress(stream=None)
        )
        assert [c.proved for c in report.cells] == [True, False]
        assert log == [
            ("reach_many", 2),
            ("progress", 1, "cell-0"),
            ("reach_many", 2),
            ("progress", 2, "cell-1"),
        ]

    def test_lockstep_sigint_drains_between_waves(self, monkeypatch):
        """SIGINT lets the current wave finish, keeps the trees it
        finished and drops the rest: cell-0 is proved in wave 0, and
        cell-1's refinement wave never starts."""
        waves = []

        def recording_reach_many(system, initial_sets, settings):
            waves.append(len(initial_sets))
            return reach_many(system, initial_sets, settings)

        class Interrupt(CampaignProgress):
            def on_event(self, event):
                super().on_event(event)
                if event["name"] == "cell.finished":
                    os.kill(os.getpid(), signal.SIGINT)

        monkeypatch.setattr(runner_module, "reach_many", recording_reach_many)
        settings = RunnerSettings(
            refinement=RefinementPolicy(dims=(0,), max_depth=1), batch_cells=True
        )
        report = verify_partition(
            _near_error, [(Box([2.0], [2.2]), 1), (MIXED, 1)], settings, Interrupt(stream=None)
        )
        assert [c.cell_id for c in report.cells] == ["cell-0"]
        assert report.settings_summary["interrupted"] == "signal:SIGINT"
        assert waves == [2]

    def test_parallel_matches_serial(self):
        system_factory = lambda: make_system()
        boxes = grid_partition(Box([1.6], [2.4]), [4])
        serial = verify_partition(
            system_factory, cells_for(boxes), RunnerSettings(workers=1)
        )
        parallel = verify_partition(
            system_factory, cells_for(boxes), RunnerSettings(workers=2)
        )
        assert serial.total_cells == parallel.total_cells
        assert serial.coverage_percent() == pytest.approx(
            parallel.coverage_percent()
        )
        for a, b in zip(serial.cells, parallel.cells):
            assert a.cell_id == b.cell_id
            assert a.verdict == b.verdict

    def test_settings_summary_populated(self):
        system_factory = lambda: make_system()
        report = verify_partition(
            system_factory,
            [(Box([2.0], [2.2]), 1)],
            RunnerSettings(reach=ReachSettings(substeps=4)),
        )
        assert report.settings_summary["substeps"] == 4

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            RunnerSettings(workers=0)


class TestSettingsValidation:
    """RunnerSettings.__post_init__ is the single validation authority:
    programmatic construction and the CLI (which catches the ValueError
    and maps it to exit 2) must reject the same combinations."""

    def test_batch_cells_rejects_parallel_pool(self):
        with pytest.raises(ValueError, match="workers == 1"):
            RunnerSettings(workers=2, batch_cells=True)

    def test_batch_cells_rejects_wallclock_budgets(self):
        with pytest.raises(ValueError, match="cell_timeout/deadline"):
            RunnerSettings(batch_cells=True, cell_timeout=1.0)
        with pytest.raises(ValueError, match="cell_timeout/deadline"):
            RunnerSettings(batch_cells=True, deadline=60.0)

    def test_batch_cells_compatible_combo_accepted(self):
        settings = RunnerSettings(workers=1, batch_cells=True)
        assert settings.batch_cells

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout": 0.0},
            {"cell_timeout": -1.0},
            {"deadline": -5.0},
            {"max_retries": -1},
            {"retry_backoff": -0.1},
            {"witness_timeout": 0.0},
        ],
    )
    def test_budget_fields_validated(self, kwargs):
        with pytest.raises(ValueError):
            RunnerSettings(**kwargs)
