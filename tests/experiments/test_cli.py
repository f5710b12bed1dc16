"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        # `coordinate` shares verify's campaign flags, defaults included.
        for command in ("verify", "coordinate"):
            args = build_parser().parse_args([command])
            assert args.arcs == 24
            assert args.gamma == 5
            assert args.substeps == 10
            assert args.scenario == "tiny"
            assert args.lease_timeout == 10.0

    def test_every_command_has_help(self, capsys):
        for name in COMMANDS:
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args([name, "--help"])
            assert exited.value.code == 0, name
            assert f"usage: repro-nncs {name}" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestCommands:
    def test_train(self, capsys):
        assert main(["train", "--scenario", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "argmin agreement" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--scenario", "tiny"]) == 0
        assert "Fig. 7" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--bearing", "30", "--heading-offset", "10"]) == 0
        out = capsys.readouterr().out
        assert "minimum separation" in out

    def test_verify_show_roundtrip(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        assert (
            main(
                [
                    "verify",
                    "--arcs", "4",
                    "--headings", "2",
                    "--depth", "0",
                    "--out", report_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 9a" in out
        assert "coverage c" in out
        with open(report_path) as handle:
            payload = json.load(handle)
        assert len(payload["cells"]) == 8

        assert main(["show", report_path]) == 0
        assert "Fig. 9a" in capsys.readouterr().out

    def test_verify_journal_resumes_and_matches_distributed(self, tmp_path):
        """`verify --journal` without --distributed: a rerun replays
        every cell, and the lockstep journal equals a distributed one."""
        from repro.core import canonical_journal_bytes

        journal, distributed = tmp_path / "j.jsonl", tmp_path / "j2.jsonl"
        base = ["verify", "--arcs", "4", "--headings", "2", "--depth", "1",
                "--no-live", "--no-ledger"]

        def run(name, *extra):
            out = tmp_path / f"{name}.json"
            metrics = tmp_path / f"{name}-metrics.json"
            assert main([*base, *extra, "--out", str(out),
                         "--metrics-out", str(metrics)]) == 0
            return (json.loads(out.read_text())["cells"],
                    json.loads(metrics.read_text())["counters"])

        first, _ = run("first", "--journal", str(journal))
        second, counters = run("second", "--journal", str(journal))
        run("distributed", "--distributed", "1", "--workers", "2",
            "--journal", str(distributed))

        def tree(cell):
            return {k: v for k, v in cell.items() if k != "elapsed_seconds"} | {
                "children": [tree(c) for c in cell["children"]]
            }

        assert len(first) == 8
        assert [tree(c) for c in second] == [tree(c) for c in first]
        assert counters["checkpoint.cells_skipped"] == 8
        assert "checkpoint.cells_verified" not in counters
        assert canonical_journal_bytes(journal) == canonical_journal_bytes(distributed)

    def test_falsify_small(self, capsys):
        assert (
            main(["falsify", "--population", "8", "--generations", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "best robustness" in out

    def test_props(self, capsys):
        assert main(["props", "--scenario", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "P1-entry-alert" in out
        assert "verified" in out

    def test_evaluate(self, capsys):
        assert (
            main(["evaluate", "--scenario", "tiny", "--encounters", "30"]) == 0
        )
        out = capsys.readouterr().out
        assert "risk ratio" in out
        assert "alert rate" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--scenario", "tiny", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "5 networks written" in out
        assert (tmp_path / "ACASXU_repro_COC.nnet").exists()

    def test_show_svg(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        main(
            [
                "verify",
                "--arcs", "3",
                "--headings", "2",
                "--depth", "0",
                "--out", report_path,
            ]
        )
        capsys.readouterr()
        svg_path = tmp_path / "map.svg"
        assert main(["show", report_path, "--svg", str(svg_path)]) == 0
        assert "polar safety map" in capsys.readouterr().out
        assert svg_path.read_text().startswith("<svg")


class TestCoordinateNode:
    def test_nodes_build_the_coordinators_scenario(self, tmp_path, monkeypatch):
        """A bare `repro node` verifies the scenario `repro coordinate`
        names, and the coordinate ledger record says which one."""
        import multiprocessing
        import socket

        import repro.acasxu
        from repro.acasxu import PAPER_SCENARIO, TINY_SCENARIO
        from repro.obs import latest_run

        builds = tmp_path / "builds.txt"
        build_system = repro.acasxu.build_system

        def spy(scenario):
            # A file, because the node's pool workers are forked.
            with open(builds, "a") as log:
                log.write("paper\n" if scenario == PAPER_SCENARIO else "not-paper\n")
            return build_system(TINY_SCENARIO)

        monkeypatch.setattr(repro.acasxu, "build_system", spy)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            addr = "127.0.0.1:%d" % probe.getsockname()[1]
        node = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(main(["node", "--connect", addr]))
        )
        node.start()
        ledger, report = tmp_path / "runs", tmp_path / "report.json"
        try:
            assert main(["coordinate", "--scenario", "paper", "--arcs", "2",
                         "--headings", "1", "--depth", "0", "--listen", addr,
                         "--nodes", "1", "--no-live", "--ledger-dir", str(ledger),
                         "--journal", str(tmp_path / "campaign.jsonl"),
                         "--out", str(report),
                         # A guard: a node that never joins must not hang.
                         "--deadline", "120"]) == 0
        finally:
            node.join(timeout=30)
            if node.is_alive():
                node.terminate()
        assert node.exitcode == 0
        assert set(builds.read_text().split()) == {"paper"}
        assert len(json.loads(report.read_text())["cells"]) == 2
        record = latest_run(ledger)
        assert record.kind == "coordinate"
        assert record.config["scenario"] == "paper"
        assert record.config["arcs"] == 2
        assert record.extra["report"] == str(report)

    def test_node_refuses_a_welcome_without_scenario(self, capsys):
        import socket
        import threading

        from repro.core.wire import recv_frame, send_frame

        listener = socket.create_server(("127.0.0.1", 0))

        def coordinator():
            conn, _addr = listener.accept()
            with conn:
                recv_frame(conn)  # hello
                send_frame(conn, {"type": "welcome", "config": {"substeps": 10}})

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        try:
            assert main(["node", "--connect", f"{host}:{port}"]) == 1
        finally:
            thread.join(timeout=10)
            listener.close()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scenario" in err
        assert len(err.strip().splitlines()) == 1


class TestStatsRobustness:
    def test_missing_trace_one_line_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "missing.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_empty_trace_one_line_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        assert main(["stats", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "empty trace" in err
        assert len(err.strip().splitlines()) == 1

    def test_fully_malformed_trace_one_line_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("not json\nalso not json\n")
        assert main(["stats", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "all 2 lines malformed" in err

    def test_partially_written_trace_reports_drop_count(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w") as out:
            out.write(
                json.dumps(
                    {"ts": 1.0, "kind": "span", "name": "integrate", "dur": 0.1}
                )
                + "\n"
            )
            out.write('{"ts": 2.0, "kind": "spa')  # torn mid-write
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "malformed lines skipped: 1" in out

    def test_malformed_metrics_one_line_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"ts": 1.0, "kind": "span", "name": "x", "dur": 0.1}) + "\n"
        )
        metrics = tmp_path / "metrics.json"
        metrics.write_text("{broken")
        assert main(["stats", str(trace), "--metrics", str(metrics)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestLedgerCommands:
    def run_verify(self, tmp_path, capsys, extra=()):
        ledger = tmp_path / "runs"
        assert (
            main(
                [
                    "verify",
                    "--arcs", "3",
                    "--headings", "2",
                    "--depth", "0",
                    "--ledger-dir", str(ledger),
                    *extra,
                ]
            )
            == 0
        )
        capsys.readouterr()
        return ledger

    def test_verify_appends_ledger_record(self, tmp_path, capsys):
        from repro.obs import latest_run, list_runs

        ledger = self.run_verify(tmp_path, capsys)
        entries = list_runs(ledger)
        assert len(entries) == 1
        record = latest_run(ledger)
        assert record.kind == "verify"
        assert record.config["arcs"] == 3
        assert record.verdicts["total"] == 6
        assert record.wall_seconds > 0
        assert "cell" in record.phases

    def test_no_ledger_flag_skips_recording(self, tmp_path, capsys):
        from repro.obs import list_runs

        ledger = self.run_verify(tmp_path, capsys, extra=("--no-ledger",))
        assert list_runs(ledger) == []

    def test_report_renders_html_dashboard(self, tmp_path, capsys):
        ledger = self.run_verify(tmp_path, capsys)
        out = tmp_path / "dash.html"
        assert (
            main(["report", "--ledger-dir", str(ledger), "--out", str(out)]) == 0
        )
        assert "report written to" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "verify" in html

    def test_report_inlines_trace_and_safety_map(self, tmp_path, capsys):
        report_json = tmp_path / "report.json"
        trace = tmp_path / "trace.jsonl"
        ledger = self.run_verify(
            tmp_path,
            capsys,
            extra=(
                "--out", str(report_json),
                "--trace-out", str(trace),
            ),
        )
        out = tmp_path / "dash.html"
        assert (
            main(["report", "--ledger-dir", str(ledger), "--out", str(out)]) == 0
        )
        capsys.readouterr()
        html = out.read_text()
        assert "Flamegraph" in html
        assert "Fig. 9a safety map" in html

    def test_report_empty_ledger_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert (
            main(
                [
                    "report",
                    "--ledger-dir", str(tmp_path / "empty"),
                    "--out", str(out),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_compare_same_run_passes(self, tmp_path, capsys):
        ledger = self.run_verify(tmp_path, capsys)
        assert (
            main(["compare", "latest", "latest", "--ledger-dir", str(ledger)]) == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_compare_flags_injected_slowdown(self, tmp_path, capsys):
        from repro.obs import latest_run

        ledger = self.run_verify(tmp_path, capsys)
        record = latest_run(ledger)
        slow = record.to_dict()
        slow["run_id"] = "synthetic-slow"
        slow["wall_seconds"] = record.wall_seconds * 10 + 5.0
        for phase in slow["phases"].values():
            phase["total_s"] = phase["total_s"] * 10 + 5.0
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        code = main(
            [
                "compare",
                "latest",
                str(slow_path),
                "--ledger-dir", str(ledger),
            ]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_compare_baseline_flag_defaults_candidate_to_latest(
        self, tmp_path, capsys
    ):
        from repro.obs import latest_run

        ledger = self.run_verify(tmp_path, capsys)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(latest_run(ledger).to_dict()))
        assert (
            main(
                [
                    "compare",
                    "--baseline", str(baseline),
                    "--ledger-dir", str(ledger),
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_compare_without_anything_one_line_error(self, capsys):
        assert main(["compare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_compare_missing_record_one_line_error(self, tmp_path, capsys):
        assert (
            main(
                [
                    "compare",
                    "no-such-run",
                    "--ledger-dir", str(tmp_path / "runs"),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
