"""Perf-regression comparison and the CI gate script."""

import importlib.util
import json
from pathlib import Path

from repro.obs import (
    RunRecord,
    compare_records,
    record_run,
    render_comparison,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_record(run_id="base", wall=10.0, integrate=5.0, join=0.01,
                coverage=80.0, kind="verify"):
    return RunRecord(
        run_id=run_id,
        kind=kind,
        started_at=1000.0,
        wall_seconds=wall,
        coverage_percent=coverage,
        phases={
            "integrate": {"count": 100, "total_s": integrate, "p95_s": 0.1},
            "join": {"count": 50, "total_s": join, "p95_s": 0.001},
        },
    )


class TestCompareRecords:
    def test_identical_records_pass(self):
        comparison = compare_records(make_record(), make_record(run_id="cand"))
        assert comparison.ok
        assert comparison.regressions == []
        assert "PASS" in render_comparison(comparison)

    def test_injected_slowdown_flags_phase_and_wall(self):
        baseline = make_record()
        candidate = make_record(run_id="cand", wall=30.0, integrate=15.0)
        comparison = compare_records(baseline, candidate, threshold=1.25)
        assert not comparison.ok
        assert "wall" in comparison.regressions
        assert "integrate" in comparison.regressions
        rendered = render_comparison(comparison)
        assert "REGRESSION" in rendered
        assert "FAIL" in rendered

    def test_small_phases_below_floor_never_flag(self):
        baseline = make_record(join=0.001)
        candidate = make_record(run_id="cand", join=0.02)  # 20x but tiny
        comparison = compare_records(
            baseline, candidate, threshold=1.25, min_seconds=0.05
        )
        assert comparison.ok

    def test_new_phase_marked_but_not_regressed(self):
        baseline = make_record()
        candidate = make_record(run_id="cand")
        candidate.phases["controller"] = {"count": 10, "total_s": 3.0}
        comparison = compare_records(baseline, candidate)
        delta = next(d for d in comparison.phases if d.name == "controller")
        assert delta.new
        assert not delta.regressed
        assert comparison.ok
        assert "new" in render_comparison(comparison)

    def test_coverage_drop_is_a_regression(self):
        baseline = make_record(coverage=80.0)
        candidate = make_record(run_id="cand", coverage=70.0)
        comparison = compare_records(baseline, candidate)
        assert comparison.coverage_regressed
        assert "coverage" in comparison.regressions
        assert not comparison.ok

    def test_coverage_tolerance_allows_small_drops(self):
        comparison = compare_records(
            make_record(coverage=80.0),
            make_record(run_id="cand", coverage=79.9),
            coverage_tolerance=0.5,
        )
        assert comparison.ok

    def test_dict_inputs_accepted(self):
        comparison = compare_records(
            make_record().to_dict(), make_record(run_id="cand").to_dict()
        )
        assert comparison.ok

    def test_ratio_handles_zero_baseline(self):
        baseline = make_record(wall=0.0)
        candidate = make_record(run_id="cand", wall=1.0)
        comparison = compare_records(baseline, candidate)
        assert comparison.wall.ratio == float("inf")
        # Zero-baseline wall is "new", not a verdict.
        assert not comparison.wall.regressed


def load_gate_module():
    spec = importlib.util.spec_from_file_location(
        "bench_regression_gate", REPO_ROOT / "benchmarks" / "regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGateScript:
    def test_gate_passes_on_identical_records(self, tmp_path):
        gate = load_gate_module()
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(make_record().to_dict()))
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps(make_record(run_id="cand").to_dict()))
        assert gate.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0

    def test_gate_exits_nonzero_on_synthetic_slowdown(self, tmp_path, capsys):
        gate = load_gate_module()
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(make_record().to_dict()))
        slow = make_record(run_id="cand", wall=50.0, integrate=25.0)
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps(slow.to_dict()))
        code = gate.main(
            ["--baseline", str(base), "--candidate", str(cand), "--threshold", "2.0"]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_gate_reads_candidate_from_ledger(self, tmp_path):
        gate = load_gate_module()
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(make_record().to_dict()))
        record_run(make_record(run_id="led", kind="verify"), root=tmp_path / "runs")
        assert gate.main(
            [
                "--baseline", str(base),
                "--candidate", "latest",
                "--ledger", str(tmp_path / "runs"),
            ]
        ) == 0

    def test_gate_one_line_error_on_missing_baseline(self, tmp_path, capsys):
        gate = load_gate_module()
        code = gate.main(
            [
                "--baseline", str(tmp_path / "missing.json"),
                "--ledger", str(tmp_path / "runs"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestCommittedBaseline:
    def test_committed_baseline_is_a_loadable_record(self):
        from repro.obs import load_run

        record = load_run(REPO_ROOT / "benchmarks" / "baseline.json")
        assert record.kind == "baseline"
        assert record.wall_seconds > 0
        assert record.coverage_percent is not None
        assert "cell" in record.phases
        assert record.config["arcs"] == 8

    def test_committed_baseline_compares_against_itself(self):
        from repro.obs import load_run

        record = load_run(REPO_ROOT / "benchmarks" / "baseline.json")
        assert compare_records(record, record).ok
