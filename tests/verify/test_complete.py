"""Tests for the complete (LP-based) small-network verifier."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.intervals import Box
from repro.nn import Network
from repro.verify import (
    IntervalPropagator,
    SymbolicPropagator,
    exact_output_range,
    tightness_gap,
)


def relu_identity_2d():
    """Network computing (x0, x1) via relu(x) - relu(-x)."""
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    w2 = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    return Network([w1, w2], [np.zeros(4), np.zeros(2)])


class TestExactRange:
    def test_identity_network_exact(self):
        net = relu_identity_2d()
        box = Box([-1.0, -2.0], [3.0, 4.0])
        result = exact_output_range(net, box)
        assert result.complete
        assert result.lower[0] == pytest.approx(-1.0, abs=1e-7)
        assert result.upper[0] == pytest.approx(3.0, abs=1e-7)
        assert result.lower[1] == pytest.approx(-2.0, abs=1e-7)
        assert result.upper[1] == pytest.approx(4.0, abs=1e-7)

    def test_matches_dense_sampling(self):
        rng = np.random.default_rng(0)
        net = Network.random([2, 6, 6, 2], rng)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        result = exact_output_range(net, box)
        assert result.complete
        samples = net.forward_batch(box.sample(rng, 4000))
        emp_lo = samples.min(axis=0)
        emp_hi = samples.max(axis=0)
        # Exact range contains the empirical range...
        assert np.all(result.lower <= emp_lo + 1e-7)
        assert np.all(result.upper >= emp_hi - 1e-7)
        # ...and is close to it (dense sampling of a 2-D box).
        assert np.all(result.lower >= emp_lo - 0.2)
        assert np.all(result.upper <= emp_hi + 0.2)

    def test_inside_every_sound_domain(self):
        rng = np.random.default_rng(1)
        net = Network.random([3, 5, 5, 2], rng)
        box = Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
        exact = exact_output_range(net, box)
        assert exact.complete
        for domain in (IntervalPropagator(net), SymbolicPropagator(net)):
            sound = domain(box)
            assert np.all(sound.lo <= exact.lower + 1e-7)
            assert np.all(sound.hi >= exact.upper - 1e-7)

    def test_stable_box_needs_one_pattern(self):
        net = relu_identity_2d()
        # Strictly positive box: all four hidden neurons decided.
        result = exact_output_range(net, Box([0.5, 0.5], [1.0, 1.0]))
        assert result.patterns_explored == 1
        assert result.complete

    def test_pattern_budget_marks_incomplete(self):
        rng = np.random.default_rng(2)
        net = Network.random([2, 10, 10, 1], rng)
        box = Box([-2.0, -2.0], [2.0, 2.0])
        result = exact_output_range(net, box, max_patterns=2)
        assert not result.complete

    def test_output_box_accessor(self):
        net = relu_identity_2d()
        result = exact_output_range(net, Box([0.0, 0.0], [1.0, 1.0]))
        assert result.output_box().contains_point(np.array([0.5, 0.5]))


class TestTightnessGap:
    def test_all_domains_at_least_one(self):
        rng = np.random.default_rng(3)
        net = Network.random([2, 6, 2], rng)
        box = Box([-0.8, -0.8], [0.8, 0.8])
        gaps = tightness_gap(net, box)
        assert set(gaps) == {"ibp", "reluval", "deeppoly", "zonotope"}
        for name, ratio in gaps.items():
            assert ratio >= 1.0 - 1e-6, f"{name} tighter than exact?!"
        # IBP is never the tightest of the four on unstable boxes.
        assert gaps["reluval"] <= gaps["ibp"] + 1e-9

    def test_degenerate_box_rejected(self):
        net = relu_identity_2d()
        with pytest.raises(ValueError):
            tightness_gap(net, Box([0.5, 0.5], [0.5, 0.5]))


class TestLazyScipy:
    def test_campaign_imports_do_not_load_scipy(self):
        """Only the LP verifier needs SciPy; importing the campaign
        stack must not pay for it."""
        code = (
            "import sys\n"
            "import repro.cli, repro.acasxu, repro.core, repro.experiments, repro.obs\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(len(loaded), loaded[:5])\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.split()[0] == "0", out.stdout
