"""Unit tests for the symbolic-propagation building blocks."""

import numpy as np
import pytest

from repro.verify import LinearBounds
from repro.verify.symbolic import (
    _affine_transform,
    _relu_deeppoly,
    _relu_reluval,
)


@pytest.fixture
def unit_lo_hi():
    return np.array([-1.0, -1.0]), np.array([1.0, 1.0])


class TestLinearBounds:
    def test_identity_concretizes_to_box(self, unit_lo_hi):
        lo, hi = unit_lo_hi
        bounds = LinearBounds.identity(2)
        conc_lo, conc_hi = bounds.concretize(lo, hi)
        assert np.all(conc_lo <= lo + 1e-12)
        assert np.all(conc_hi >= hi - 1e-12)
        assert np.all(conc_lo >= lo - 1e-9)

    def test_slack_widens_bounds(self, unit_lo_hi):
        lo, hi = unit_lo_hi
        bounds = LinearBounds.identity(2)
        bounds.slack = np.array([0.5, 0.0])
        conc_lo, conc_hi = bounds.concretize(lo, hi)
        assert conc_lo[0] <= -1.5
        assert conc_hi[0] >= 1.5
        assert conc_hi[1] < 1.1

    def test_value_magnitude(self, unit_lo_hi):
        lo, hi = unit_lo_hi
        bounds = LinearBounds.identity(2)
        mags = bounds.value_magnitude(lo, hi)
        assert np.all(mags >= 1.0)


class TestAffineTransform:
    def test_exact_on_linear_layer(self, unit_lo_hi):
        lo, hi = unit_lo_hi
        w = np.array([[2.0, -1.0]])
        b = np.array([0.5])
        bounds = _affine_transform(LinearBounds.identity(2), w, b, lo, hi)
        conc_lo, conc_hi = bounds.concretize(lo, hi)
        # Range of 2x - y + 0.5 over the unit box is [-2.5, 3.5].
        assert conc_lo[0] == pytest.approx(-2.5, abs=1e-6)
        assert conc_hi[0] == pytest.approx(3.5, abs=1e-6)

    def test_slack_propagates_through_weights(self, unit_lo_hi):
        lo, hi = unit_lo_hi
        start = LinearBounds.identity(2)
        start.slack = np.array([1.0, 0.0])
        bounds = _affine_transform(start, np.array([[3.0, 0.0]]), np.zeros(1), lo, hi)
        assert bounds.slack[0] >= 3.0


class TestReluRules:
    def _bounds_with_range(self, lo_val, hi_val, lo, hi):
        """One neuron whose linear form has the given concrete range."""
        center = 0.5 * (lo_val + hi_val)
        half = 0.5 * (hi_val - lo_val)
        # form = center + half * x0 over x0 in [-1, 1].
        return LinearBounds(
            lo_coeffs=np.array([[half, 0.0]]),
            lo_const=np.array([center]),
            up_coeffs=np.array([[half, 0.0]]),
            up_const=np.array([center]),
            slack=np.zeros(1),
        )

    @pytest.mark.parametrize("rule", [_relu_reluval, _relu_deeppoly])
    def test_inactive_neuron_zeroed(self, rule, unit_lo_hi):
        lo, hi = unit_lo_hi
        bounds = self._bounds_with_range(-5.0, -1.0, lo, hi)
        out = rule(bounds, lo, hi)
        conc_lo, conc_hi = out.concretize(lo, hi)
        assert conc_lo[0] == pytest.approx(0.0, abs=1e-12)
        assert conc_hi[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rule", [_relu_reluval, _relu_deeppoly])
    def test_active_neuron_unchanged(self, rule, unit_lo_hi):
        lo, hi = unit_lo_hi
        bounds = self._bounds_with_range(1.0, 5.0, lo, hi)
        out = rule(bounds, lo, hi)
        assert np.allclose(out.lo_coeffs, bounds.lo_coeffs)
        assert np.allclose(out.up_coeffs, bounds.up_coeffs)

    @pytest.mark.parametrize("rule", [_relu_reluval, _relu_deeppoly])
    def test_unstable_neuron_sound(self, rule, unit_lo_hi):
        lo, hi = unit_lo_hi
        bounds = self._bounds_with_range(-1.0, 3.0, lo, hi)
        out = rule(bounds, lo, hi)
        conc_lo, conc_hi = out.concretize(lo, hi)
        # relu of the form: range [0, 3]; any sound relaxation covers it.
        assert conc_lo[0] <= 0.0 + 1e-9
        assert conc_hi[0] >= 3.0 - 1e-6
        # Pointwise soundness: relu(form(x)) within [lo_form - s, up_form + s].
        for x0 in np.linspace(-1.0, 1.0, 9):
            value = max(0.0, 1.0 + 2.0 * x0)  # form = 1 + 2*x0
            form_lo = out.lo_coeffs[0] @ np.array([x0, 0.0]) + out.lo_const[0]
            form_hi = out.up_coeffs[0] @ np.array([x0, 0.0]) + out.up_const[0]
            assert form_lo - out.slack[0] <= value + 1e-9
            assert form_hi + out.slack[0] >= value - 1e-9

    def test_reluval_keeps_nonnegative_upper_form(self, unit_lo_hi):
        lo, hi = unit_lo_hi
        # Upper form min is 1 > 0 for range [1,3]... need unstable with
        # non-negative upper form: lower form differs from upper.
        bounds = LinearBounds(
            lo_coeffs=np.array([[2.0, 0.0]]),
            lo_const=np.array([0.0]),  # lower form range [-2, 2]
            up_coeffs=np.array([[1.0, 0.0]]),
            up_const=np.array([2.0]),  # upper form range [1, 3]
            slack=np.zeros(1),
        )
        out = _relu_reluval(bounds, lo, hi)
        # Upper form stays symbolic (its min is >= 0).
        assert np.allclose(out.up_coeffs, bounds.up_coeffs)
        # Lower form concretized to 0.
        assert np.allclose(out.lo_coeffs[0], 0.0)
