"""Smoke tests for the example scripts.

Light examples run end-to-end in a subprocess; heavyweight ones (full
partition runs) are compile-checked and their entry points imported,
with the full runs exercised by the benchmarks and the CLI tests
instead.
"""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES.glob("*.py"))


def run_example(name: str, *args: str, timeout: int = 360) -> str:
    env = dict(os.environ)
    env.setdefault("REPRO_CACHE", str(Path(__file__).resolve().parents[1] / ".cache"))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, (
        f"{name} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


class TestExamplesCompile:
    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_expected_examples_present(self):
        names = {p.name for p in ALL_EXAMPLES}
        assert {
            "quickstart.py",
            "acasxu_verification.py",
            "acasxu_falsification.py",
            "monitor_demo.py",
            "multi_uav.py",
            "nn_properties.py",
            "pendulum.py",
            "cruise_control.py",
        } <= names


class TestQuickstart:
    def test_runs_and_proves(self):
        out = run_example("quickstart.py", timeout=180)
        assert "PROVED SAFE" in out
        assert "verdict: proved-safe" in out


class TestAcasVerification:
    def test_small_run(self, tmp_path):
        out = run_example(
            "acasxu_verification.py",
            "--arcs", "4",
            "--headings", "2",
            "--depth", "0",
            "--workers", "1",
            "--out", str(tmp_path / "r.json"),
        )
        assert "Fig. 9a" in out
        assert "coverage c" in out
        assert (tmp_path / "r.json").exists()


class TestNNProperties:
    def test_runs(self):
        out = run_example("nn_properties.py")
        assert "local robustness" in out
        assert "tighter" in out


class TestMultiUav:
    def test_runs_two_agent_reachability(self):
        # A Taylor plant whose right-hand side applies gsin/gcos to the
        # state, under a controller with no batch form.
        out = run_example("multi_uav.py", timeout=180)
        assert "joint command set: 25 advisory pairs" in out
        assert "verdict: proved-safe (terminated at step 2, 36 validated integrations)" in out
        assert "verdict: possibly-unsafe (first possible E-entry at t = 7.0s)" in out
