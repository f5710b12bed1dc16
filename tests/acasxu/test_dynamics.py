"""Tests for the ACAS Xu dynamics and its analytic validated flow."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.acasxu import (
    ACASXU_ODE,
    AcasXuAnalyticFlow,
    acasxu_rhs,
    cartesian_from_polar,
    initial_cell,
    polar_from_cartesian,
)
from repro.acasxu.dynamics import HEADING_BLOCK
from repro.intervals import Box, BoxBatch, Interval, IntervalBatch
from repro.obs import Recorder, use_recorder
from repro.ode import IntegratorSettings, TaylorIntegrator


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


TURNS = [math.radians(r) for r in (0.0, 1.5, -1.5, 3.0, -3.0)]


def _cells(kind: str) -> list[Box]:
    """Initial boxes of one shape class, six or more per kind."""
    rng = np.random.default_rng(21)
    if kind == "paper":
        # 0.01 rad arcs of the paper's partition, drifted like a later step.
        boxes = []
        for phi in rng.uniform(-math.pi, math.pi, 6):
            cell = initial_cell(Interval(phi, phi + 0.01), Interval(-0.1, -0.09))
            shift = np.array([*rng.uniform(-3000.0, 3000.0, 2), 0.0, 0.0, 0.0])
            boxes.append(Box(cell.lo + shift, cell.hi + shift))
        return boxes
    if kind == "tiny":
        # The 8-arc grid; the arcs next to position angle 0 start with
        # x = -1.6e-319 or end with x = +1.6e-319.
        return [
            initial_cell(Interval(k * math.pi / 4.0, (k + 1) * math.pi / 4.0), Interval(-0.5, 0.5))
            for k in range(-4, 4)
        ]
    if kind == "wide":
        # Heading widths at and past 2*pi take the [-1, 1] trig fallback.
        boxes = []
        for psi_width in (0.5, 3.0, 2.0 * math.pi, 7.0, 20.0, 1e-12):
            x, y, psi = rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0), rng.uniform(-4, 4)
            lo = np.array([x, y, psi, 700.0, 600.0])
            boxes.append(Box(lo, lo + np.array([9000.0, 4000.0, psi_width, 0.0, 0.0])))
        return boxes
    if kind == "signed-zero":
        return [
            Box([-0.0, 0.0, -0.0, 700.0, 600.0], [0.0, 0.0, 0.0, 700.0, 600.0]),
            Box([0.0, -0.0, 0.0, 700.0, 600.0], [0.0, -0.0, 0.0, 700.0, 600.0]),
            Box([-0.0, -100.0, -0.0, 700.0, 600.0], [50.0, -0.0, 1.0, 700.0, 600.0]),
            Box([-25.0, 0.0, -1.0, 700.0, 600.0], [-0.0, 8000.0, -0.0, 700.0, 600.0]),
            Box([0.0, 0.0, math.pi, 700.0, 600.0], [0.0, 0.0, math.pi, 700.0, 600.0]),
            Box([-0.0, 5e-324, -math.pi / 2.0, 600.0, 500.0], [5e-324, 1.0, 0.0, 800.0, 700.0]),
        ]
    if kind == "huge":
        # Endpoints near the float limit and infinite ones: the position
        # sums overflow to +inf (the first row under every turn, the
        # second under a 3 deg/s one), and 0 * inf products appear.
        return [
            Box([1.0, 1.79e308, 0.0, 700.0, 600.0], [2.0, 1.797e308, 0.1, 700.0, 1.7e308]),
            Box([1.79e308, 1.79e308, 0.0, 700.0, 600.0], [1.797e308, 1.797e308, 1.0, 700.0, 600.0]),
            Box([0.0, 8000.0, 0.5, 700.0, 600.0], [1.0, 8001.0, 0.6, 1e308, 1.7e308]),
            Box([-1.0, 1.0, -0.5, 700.0, 600.0], [1.0, 2.0, 0.5, 700.0, math.inf]),
            Box([-math.inf, 0.0, 0.0, 700.0, 600.0], [0.0, 0.0, 0.0, 700.0, 600.0]),
            Box([100.0, 200.0, 1e308, 700.0, 600.0], [200.0, 300.0, 1.7e308, 700.0, 600.0]),
        ]
    raise ValueError(kind)


KINDS = ("paper", "tiny", "wide", "signed-zero")


def _turn_rows(count: int, mode: str) -> np.ndarray:
    if mode == "all-zero":
        turns = [0.0] * count
    elif mode == "no-zero":
        turns = [TURNS[1 + i % 4] for i in range(count)]
    else:
        turns = [TURNS[(3 * i) % 5] for i in range(count)]
    return np.array([[t] for t in turns])


def _batch(kind: str, mode: str = "mixed") -> tuple[BoxBatch, np.ndarray]:
    boxes = _cells(kind)
    return BoxBatch.from_boxes(boxes), _turn_rows(len(boxes), mode)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_equals_scalar(flow, pipe, boxes, u_rows, t0, substeps):
    """Every row and substep of ``pipe`` byte-equal to the scalar
    ``integrate`` of that row alone (computed once per distinct row)."""
    scalar = {}
    for r, box in enumerate(boxes):
        key = (box.lo.tobytes(), box.hi.tobytes(), float(u_rows[r, 0]))
        if key not in scalar:
            scalar[key] = flow.integrate(t0, t0 + 1.0, box, u_rows[r], substeps=substeps)
        for k, step in enumerate(scalar[key].steps):
            assert _same_bits(pipe.range_lo[k, r], step.range_box.lo), (r, k)
            assert _same_bits(pipe.range_hi[k, r], step.range_box.hi), (r, k)
            assert _same_bits(pipe.end_lo[k, r], step.end_box.lo), (r, k)
            assert _same_bits(pipe.end_hi[k, r], step.end_box.hi), (r, k)


class TestAnalyticIntegrateBatch:
    """``integrate_batch`` evaluates the turn terms once per call, the
    heading half once per block of substeps and the position half once
    per substep; every output bit must equal the scalar ``integrate``
    run on each row alone."""

    @pytest.mark.parametrize("mode", ["mixed", "all-zero", "no-zero"])
    @pytest.mark.parametrize(
        "substeps,t0", [(1, 0.0), (4, 2.5), (10, 7.0)], ids=["M1", "M4-t0", "M10-t0"]
    )
    def test_equals_scalar_integrate(self, substeps, t0, mode):
        flow = AcasXuAnalyticFlow()
        for kind in KINDS:
            batch, u_rows = _batch(kind, mode)
            pipe = flow.integrate_batch(t0, t0 + 1.0, batch, u_rows, substeps=substeps)
            assert pipe.substep_count == substeps and pipe.count == batch.count
            for r in range(batch.count):
                want = flow.integrate(t0, t0 + 1.0, batch.row(r), u_rows[r], substeps=substeps)
                for k, step in enumerate(want.steps):
                    assert pipe.t_starts[k] == step.t_start
                    assert pipe.t_ends[k] == step.t_end
                    assert _same_bits(pipe.range_lo[k, r], step.range_box.lo), (kind, r, k)
                    assert _same_bits(pipe.range_hi[k, r], step.range_box.hi), (kind, r, k)
                    assert _same_bits(pipe.end_lo[k, r], step.end_box.lo), (kind, r, k)
                    assert _same_bits(pipe.end_hi[k, r], step.end_box.hi), (kind, r, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_substeps_equal_flow_box_batch(self, kind):
        """Substep ``k`` is ``flow_box_batch`` of the previous end boxes
        over ``[0, h]`` (range) and at ``h`` (end)."""
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _batch(kind)
        h = 0.1
        pipe = flow.integrate_batch(0.3, 1.3, batch, u_rows, substeps=10)
        current = batch
        for k in range(10):
            range_b = flow.flow_box_batch(current, u_rows, Interval(0.0, h))
            end_b = flow.flow_box_batch(current, u_rows, Interval.point(h))
            assert _same_bits(pipe.range_lo[k], range_b.lo)
            assert _same_bits(pipe.range_hi[k], range_b.hi)
            assert _same_bits(pipe.end_lo[k], end_b.lo)
            assert _same_bits(pipe.end_hi[k], end_b.hi)
            current = end_b

    def test_flow_box_batch_per_row_tau(self):
        """``flow_box_batch`` with one time interval per row matches the
        scalar flow of each row under its own ``tau``."""
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _batch("paper")
        taus = IntervalBatch(
            np.array([0.0, 0.1, 0.05, 0.1, 0.0, 0.02]), np.array([0.1, 0.1, 0.2, 0.1, 0.0, 0.3])
        )
        fast = flow.flow_box_batch(batch, u_rows, taus)
        for r in range(batch.count):
            want = flow.flow_box(batch.row(r), u_rows[r], taus[r])
            assert _same_bits(fast.lo[r], want.lo) and _same_bits(fast.hi[r], want.hi)

    def test_rejects_bad_arguments(self):
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _batch("paper")
        with pytest.raises(ValueError, match="horizon"):
            flow.integrate_batch(1.0, 1.0, batch, u_rows, substeps=10)
        with pytest.raises(ValueError, match="substeps"):
            flow.integrate_batch(0.0, 1.0, batch, u_rows, substeps=0)
        with pytest.raises(ValueError, match="command row"):
            flow.integrate_batch(0.0, 1.0, batch, u_rows[:-1], substeps=10)

    @pytest.mark.parametrize("rows", [100, 300, 734])
    @pytest.mark.parametrize("substeps", [7, 10])
    def test_waves_of_several_heading_blocks(self, rows, substeps):
        """Waves whose heading half runs in several blocks of substeps
        (with a shorter last block where the bound leaves one) equal the
        scalar ``integrate`` of each row, byte for byte."""
        block = max(1, HEADING_BLOCK // (2 * rows))
        assert block < substeps
        flow = AcasXuAnalyticFlow()
        tiles = [box for kind in KINDS for box in _cells(kind)]
        boxes = (tiles * (rows // len(tiles) + 1))[:rows]
        u_rows = _turn_rows(rows, "mixed")
        pipe = flow.integrate_batch(7.0, 8.0, BoxBatch.from_boxes(boxes), u_rows, substeps)
        _assert_equals_scalar(flow, pipe, boxes, u_rows, 7.0, substeps)

    @pytest.mark.parametrize("mode", ["mixed", "all-zero", "no-zero"])
    def test_overflow_raises_no_warning(self, mode):
        """Boxes whose sums and products overflow to +-inf (and make
        0 * inf products) flow without a RuntimeWarning reaching the
        caller, and still equal the scalar ``integrate``."""
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _batch("huge", mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pipe = flow.integrate_batch(0.0, 1.0, batch, u_rows, substeps=10)
            flow.flow_box_batch(batch, u_rows, Interval(0.0, 0.1))
        assert np.isinf(pipe.end_hi).any()
        _assert_equals_scalar(flow, pipe, _cells("huge"), u_rows, 0.0, 10)

    def test_substep_counters(self):
        """One ``ode.substeps`` increment of B and one timing sample per
        substep, like the per-row ``integrate``."""
        flow = AcasXuAnalyticFlow()
        batch, u_rows = _batch("tiny")
        rec = Recorder()
        with use_recorder(rec):
            flow.integrate_batch(0.0, 1.0, batch, u_rows, substeps=10)
        assert rec.metrics.counters["ode.substeps"] == 10 * batch.count
        assert rec.metrics.histograms["ode.substep_seconds"].count == 10

    def test_substep_counters_over_several_blocks(self):
        """The same counts on a wave whose heading half runs in two
        blocks of five substeps."""
        rows = 100
        assert max(1, HEADING_BLOCK // (2 * rows)) == 5
        flow = AcasXuAnalyticFlow()
        boxes = (_cells("tiny") * 13)[:rows]
        rec = Recorder()
        with use_recorder(rec):
            flow.integrate_batch(
                0.0, 1.0, BoxBatch.from_boxes(boxes), _turn_rows(rows, "mixed"), substeps=10
            )
        assert rec.metrics.counters["ode.substeps"] == 10 * rows
        assert rec.metrics.histograms["ode.substep_seconds"].count == 10


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
