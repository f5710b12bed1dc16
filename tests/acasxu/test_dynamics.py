"""Tests for the ACAS Xu dynamics and its analytic validated flow."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.acasxu import (
    ACASXU_ODE,
    AcasXuAnalyticFlow,
    acasxu_rhs,
    cartesian_from_polar,
    polar_from_cartesian,
)
from repro.intervals import Box, BoxBatch, Interval, IntervalBatch
from repro.ode import AnalyticFlow, IntegratorSettings, TaylorIntegrator


def scipy_flow(state, u, t):
    sol = solve_ivp(
        lambda _t, s: acasxu_rhs(_t, s, u),
        (0.0, t),
        state,
        rtol=1e-11,
        atol=1e-12,
    )
    return sol.y[:, -1]


class TestRhs:
    def test_head_on_closure(self):
        # Intruder dead ahead flying at us: pure closure along y.
        s = [0.0, 8000.0, math.pi, 700.0, 600.0]
        ds = acasxu_rhs(0.0, s, np.array([0.0]))
        assert ds[0] == pytest.approx(0.0, abs=1e-9)
        assert ds[1] == pytest.approx(-1300.0)
        assert ds[2] == 0.0
        assert ds[3] == 0.0 and ds[4] == 0.0

    def test_turn_rotates_frame(self):
        # Positive (left) ownship turn makes a dead-ahead intruder drift
        # right in the body frame: x' = u*y > 0.
        s = [0.0, 1000.0, 0.0, 700.0, 600.0]
        ds = acasxu_rhs(0.0, s, np.array([0.05]))
        assert ds[0] == pytest.approx(0.05 * 1000.0)
        assert ds[2] == pytest.approx(-0.05)

    def test_same_heading_differential_speed(self):
        s = [0.0, 3000.0, 0.0, 700.0, 600.0]
        ds = acasxu_rhs(0.0, s, np.array([0.0]))
        # Intruder ahead, same heading: we close at 100 ft/s.
        assert ds[1] == pytest.approx(600.0 - 700.0)


class TestAnalyticFlowExactness:
    @pytest.mark.parametrize("turn_deg", [0.0, 1.5, -3.0])
    def test_flow_point_matches_scipy(self, turn_deg):
        rng = np.random.default_rng(5)
        flow = AcasXuAnalyticFlow()
        u = np.array([math.radians(turn_deg)])
        for _ in range(5):
            state = np.array(
                [
                    rng.uniform(-8000, 8000),
                    rng.uniform(-8000, 8000),
                    rng.uniform(-3, 3),
                    700.0,
                    600.0,
                ]
            )
            ours = flow.flow_point(state, u, 1.0)
            ref = scipy_flow(state, u, 1.0)
            assert np.allclose(ours, ref, atol=1e-5)

    def test_flow_box_contains_concrete_flows(self):
        flow = AcasXuAnalyticFlow()
        box = Box(
            [-100.0, 7900.0, 3.0, 700.0, 600.0],
            [100.0, 8100.0, 3.2, 700.0, 600.0],
        )
        u = np.array([math.radians(-3.0)])
        rng = np.random.default_rng(6)
        out = flow.flow_box(box, u, Interval.point(1.0))
        for s0 in box.sample(rng, 30):
            end = flow.flow_point(s0, u, 1.0)
            assert out.contains_point(end)

    def test_flow_box_over_time_interval(self):
        flow = AcasXuAnalyticFlow()
        box = Box(
            [-100.0, 7900.0, 3.0, 700.0, 600.0],
            [100.0, 8100.0, 3.2, 700.0, 600.0],
        )
        u = np.array([math.radians(1.5)])
        tube = flow.flow_box(box, u, Interval(0.0, 1.0))
        rng = np.random.default_rng(7)
        for s0 in box.sample(rng, 10):
            for t in np.linspace(0.0, 1.0, 6):
                assert tube.contains_point(flow.flow_point(s0, u, t))

    def test_integrate_interface(self):
        flow = AcasXuAnalyticFlow()
        box = Box.from_point([0.0, 8000.0, math.pi, 700.0, 600.0])
        pipe = flow.integrate(0.0, 1.0, box, np.array([0.0]), substeps=10)
        assert len(pipe.steps) == 10
        assert pipe.end_box[1].contains(8000.0 - 1300.0)


def _mixed_batch() -> tuple[BoxBatch, np.ndarray]:
    """Boxes under zero and nonzero turn rates, interleaved."""
    rng = np.random.default_rng(21)
    turns = [0.0, math.radians(1.5), 0.0, math.radians(-3.0), math.radians(3.0), 0.0]
    boxes = []
    for _ in turns:
        x, y, psi = rng.uniform(-3000, 3000), rng.uniform(-3000, 3000), rng.uniform(-3, 3)
        lo = np.array([x, y, psi, 700.0, 600.0])
        width = np.array([rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0, 0.05), 0.0, 0.0])
        boxes.append(Box(lo, lo + width))
    return BoxBatch.from_boxes(boxes), np.array([[t] for t in turns])


def _same_bits(a: BoxBatch, b: BoxBatch) -> bool:
    return a.lo.tobytes() == b.lo.tobytes() and a.hi.tobytes() == b.hi.tobytes()


class TestAnalyticStepBatch:
    """``step_batch`` evaluates the flow once per substep, on the range
    and end rows stacked with a per-row ``tau``."""

    H = 0.1

    def test_equals_two_flow_box_batch_calls(self):
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _mixed_batch()
        range_b, end_b = flow.step_batch(0.3, self.H, batch, u_rows)
        assert _same_bits(range_b, flow.flow_box_batch(batch, u_rows, Interval(0.0, self.H)))
        assert _same_bits(end_b, flow.flow_box_batch(batch, u_rows, Interval.point(self.H)))

    def test_equals_scalar_step_per_row(self):
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _mixed_batch()
        range_b, end_b = flow.step_batch(0.3, self.H, batch, u_rows)
        for r in range(batch.count):
            step = flow.step(0.3, self.H, batch.row(r), u_rows[r])
            assert step.range_box.lo.tobytes() == range_b.lo[r].tobytes()
            assert step.range_box.hi.tobytes() == range_b.hi[r].tobytes()
            assert step.end_box.lo.tobytes() == end_b.lo[r].tobytes()
            assert step.end_box.hi.tobytes() == end_b.hi[r].tobytes()

    def test_per_row_tau(self):
        """``flow_box_batch`` with one time interval per row matches the
        scalar flow of each row under its own ``tau``, in the vectorized
        kernel and in the base class's per-row default."""
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _mixed_batch()
        taus = IntervalBatch(
            np.array([0.0, 0.1, 0.05, 0.1, 0.0, 0.02]), np.array([0.1, 0.1, 0.2, 0.1, 0.0, 0.3])
        )
        fast = flow.flow_box_batch(batch, u_rows, taus)
        default = AnalyticFlow.flow_box_batch(flow, batch, u_rows, taus)
        for r in range(batch.count):
            want = flow.flow_box(batch.row(r), u_rows[r], taus[r])
            assert want.lo.tobytes() == fast.lo[r].tobytes() == default.lo[r].tobytes()
            assert want.hi.tobytes() == fast.hi[r].tobytes() == default.hi[r].tobytes()


class TestAnalyticVsTaylor:
    def test_enclosures_agree(self):
        """The two validated integrators must both contain the truth;
        the analytic one should be at least as tight."""
        analytic = AcasXuAnalyticFlow()
        taylor = TaylorIntegrator(ACASXU_ODE, IntegratorSettings(order=5))
        box = Box(
            [-50.0, 7950.0, 3.05, 700.0, 600.0],
            [50.0, 8050.0, 3.15, 700.0, 600.0],
        )
        u = np.array([math.radians(3.0)])
        pipe_a = analytic.integrate(0.0, 1.0, box, u, substeps=4)
        pipe_t = taylor.integrate(0.0, 1.0, box, u, substeps=4)
        ref = scipy_flow(box.center, u, 1.0)
        assert pipe_a.end_box.contains_point(ref)
        assert pipe_t.end_box.contains_point(ref)
        # Intersection of two sound enclosures is non-empty.
        assert pipe_a.end_box.overlaps(pipe_t.end_box)
        assert pipe_a.end_box.volume() <= pipe_t.end_box.volume() * 1.01


class TestPolarHelpers:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = rng.uniform(10.0, 10000.0)
            theta = rng.uniform(-math.pi, math.pi)
            x, y = cartesian_from_polar(rho, theta)
            rho2, theta2 = polar_from_cartesian(np.array([x, y]))
            assert rho2 == pytest.approx(rho, rel=1e-12)
            assert theta2 == pytest.approx(theta, abs=1e-12)

    def test_ahead_convention(self):
        # Intruder dead ahead => theta = 0.
        rho, theta = polar_from_cartesian(np.array([0.0, 5000.0]))
        assert theta == pytest.approx(0.0)
        # Intruder on the left (x < 0) => positive bearing.
        _, theta_left = polar_from_cartesian(np.array([-100.0, 5000.0]))
        assert theta_left > 0.0
