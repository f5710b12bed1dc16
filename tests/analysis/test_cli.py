"""Exit codes and output formats of ``repro check``."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import run_check
from repro.analysis.model import CheckError
from repro.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "raw_bound.py"


def run(paths, **kwargs):
    out = io.StringIO()
    code = run_check([str(p) for p in paths], out=out, **kwargs)
    return code, out.getvalue()


class TestExitCodes:
    def test_fixture_with_raw_bound_exits_1(self):
        code, output = run([FIXTURE], no_baseline=True)
        assert code == 1
        assert "S001" in output

    def test_clean_file_exits_0(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(a, b):\n    return a + b\n")
        code, output = run([clean], no_baseline=True)
        assert code == 0
        assert "0 findings" in output

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        code, _ = run([broken], no_baseline=True)
        assert code == 2
        assert "syntax error" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        code, _ = run(["/nonexistent/nope.py"], no_baseline=True)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_format_exits_2(self, capsys):
        code, _ = run([FIXTURE], fmt="yaml", no_baseline=True)
        assert code == 2


class TestFormats:
    def test_json_format(self):
        code, output = run([FIXTURE], fmt="json", no_baseline=True)
        assert code == 1
        payload = json.loads(output)
        assert payload["summary"]["new"] >= 2
        rules = {f["rule"] for f in payload["findings"]}
        assert "S001" in rules
        assert all("fingerprint" in f for f in payload["findings"])

    def test_github_format(self):
        code, output = run([FIXTURE], fmt="github", no_baseline=True)
        assert code == 1
        assert "::error file=" in output
        assert "line=" in output

    def test_text_format_includes_snippet(self):
        _, output = run([FIXTURE], no_baseline=True)
        assert "iv.lo - margin" in output


class TestBaselineFlow:
    def test_update_then_clean(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, _ = run([FIXTURE], update_baseline=True,
                      baseline_path=str(baseline))
        assert code == 0 and baseline.exists()
        code, output = run([FIXTURE], baseline_path=str(baseline))
        assert code == 0
        assert "baselined" in output

    def test_stale_entry_warns_but_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "findings": [{"fingerprint": "feedfacefeedface", "rule": "S001",
                          "path": "gone.py"}],
        }))
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code, output = run([clean], baseline_path=str(baseline))
        assert code == 0
        assert "stale" in output

    @pytest.mark.parametrize(
        "flag, filtered",
        [("--select", {"select": ["S001"]}),
         ("--changed-only", {"changed_only": True})],
        ids=["select", "changed-only"],
    )
    def test_update_baseline_needs_a_full_run(self, flag, filtered, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.cli._changed_files", lambda: {FIXTURE.as_posix()}
        )
        baseline = tmp_path / "baseline.json"
        run([FIXTURE], update_baseline=True, baseline_path=str(baseline))
        before = baseline.read_bytes()
        code, _ = run([FIXTURE], update_baseline=True,
                      baseline_path=str(baseline), **filtered)
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and len(err.strip().splitlines()) == 1
        assert baseline.read_bytes() == before

    def test_unselected_rules_are_never_stale(self, tmp_path):
        # An entry whose rule did not run cannot be judged; an entry
        # whose rule ran and whose code is gone is stale.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "findings": [{"fingerprint": "feedfacefeedface", "rule": "S001",
                          "path": "gone.py"}],
        }))
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        _, output = run([clean], fmt="json", baseline_path=str(baseline),
                        select=["C001,C002,C003,C004,C005"])
        assert json.loads(output)["summary"]["stale"] == 0
        _, output = run([clean], fmt="json", baseline_path=str(baseline))
        assert json.loads(output)["summary"]["stale"] == 1


class TestSelect:
    def test_select_limits_rules(self, tmp_path):
        code, output = run([FIXTURE], select=["s001"], no_baseline=True)
        assert code == 1
        # Findings are S001 only (plus no S000 hygiene under select).
        assert "S001" in output and "S005" not in output

    def test_select_accepts_comma_separated_codes(self):
        # "S005" alone matches nothing in the fixture; the comma list
        # must split into both codes, so S001 still fires.
        code, output = run([FIXTURE], select=["s005"], no_baseline=True)
        assert code == 0
        code, output = run(
            [FIXTURE], select=["s001,S005"], no_baseline=True
        )
        assert code == 1
        assert "S001" in output


class TestSarif:
    def sarif(self, **kwargs):
        code, output = run([FIXTURE], fmt="sarif", **kwargs)
        return code, json.loads(output)

    def test_payload_shape(self):
        code, payload = self.sarif(no_baseline=True)
        assert code == 1
        assert payload["version"] == "2.1.0"
        (sarif_run,) = payload["runs"]
        driver = sarif_run["tool"]["driver"]
        assert driver["name"] == "repro-check"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"S001", "S007", "S008", "C001", "C005"} <= rule_ids

    def test_results_carry_fingerprints_and_locations(self):
        _, payload = self.sarif(no_baseline=True)
        results = payload["runs"][0]["results"]
        assert results
        for result in results:
            assert result["partialFingerprints"]["reproCheck/v1"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_baselined_findings_are_suppressed_notes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        run([FIXTURE], update_baseline=True, baseline_path=str(baseline))
        code, payload = self.sarif(baseline_path=str(baseline))
        assert code == 0
        results = payload["runs"][0]["results"]
        assert results  # baselined findings still reported...
        for result in results:  # ...but downgraded and suppressed
            assert result["level"] == "note"
            assert result["suppressions"][0]["kind"] == "external"


class TestChangedOnly:
    def test_reports_only_diffed_files(self, tmp_path, monkeypatch):
        noisy = tmp_path / "noisy.py"
        noisy.write_text(FIXTURE.read_text())
        quiet_copy = tmp_path / "other.py"
        quiet_copy.write_text(FIXTURE.read_text())
        monkeypatch.setattr(
            "repro.analysis.cli._changed_files",
            lambda: {noisy.as_posix()},
        )
        code, output = run(
            [noisy, quiet_copy], no_baseline=True, changed_only=True
        )
        assert code == 1
        assert "noisy.py" in output
        assert "other.py" not in output

    def test_empty_diff_is_clean(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.cli._changed_files", lambda: set()
        )
        code, output = run([FIXTURE], no_baseline=True, changed_only=True)
        assert code == 0
        assert "0 findings" in output

    def test_outside_git_is_a_usage_error(self, monkeypatch, capsys):
        def boom():
            raise CheckError("--changed-only needs a git checkout")

        monkeypatch.setattr("repro.analysis.cli._changed_files", boom)
        code, _ = run([FIXTURE], no_baseline=True, changed_only=True)
        assert code == 2
        assert "git checkout" in capsys.readouterr().err


class TestEveryRunReadsTheSource:
    def test_rule_edit_changes_the_next_answer(self, tmp_path, monkeypatch):
        # Nothing but the source decides the answer: a stricter S003
        # shows on the very next run, and no run leaves a file behind.
        monkeypatch.chdir(tmp_path)
        source = tmp_path / "exact.py"
        source.write_text("def f(iv):\n    return iv.lo == 0.0\n")
        code, output = run([source], no_baseline=True)
        assert code == 0 and "S003" not in output
        monkeypatch.setattr(
            "repro.analysis.rules._is_exact_constant", lambda node: False
        )
        code, output = run([source], no_baseline=True)
        assert code == 1 and "S003" in output
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["exact.py"]


class TestMainIntegration:
    def test_repro_check_subcommand(self, capsys):
        code = main(["check", "--no-baseline", str(FIXTURE)])
        assert code == 1
        assert "S001" in capsys.readouterr().out

    def test_repo_tree_is_clean(self, capsys):
        # The acceptance criterion: the shipped tree passes its own check
        # against the committed baseline, and the baseline holds no
        # stale entry (one would silently baseline any later finding
        # with the same text in that file).
        code = main(["check", "--format", "json"])
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert code == 0
        assert summary["new"] == 0 and summary["stale"] == 0
