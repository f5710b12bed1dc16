"""Tests for the ACAS phi-style property catalog."""

import numpy as np

from repro.acasxu.properties import (
    check_catalog,
    raw_input_box,
    standard_properties,
)
from repro.verify import BisectionSettings, Outcome


class TestRawInputBox:
    def test_normalized_and_ordered(self):
        box = raw_input_box(rho=(1000.0, 2000.0), theta=(-0.5, 0.5), psi=(3.0, 3.1))
        assert box.dim == 5
        assert np.all(box.lo <= box.hi)
        # Normalized units: everything within a few units of zero.
        assert np.all(np.abs(box.lo) < 5.0)

    def test_velocity_dims_degenerate(self):
        box = raw_input_box(rho=(0.0, 100.0), theta=(0.0, 0.1), psi=(0.0, 0.1))
        assert box.widths[3] == 0.0
        assert box.widths[4] == 0.0


class TestCatalog:
    def test_catalog_shape(self):
        props = standard_properties()
        names = [p.name for p in props]
        assert names == [
            "P1-entry-alert",
            "P2-benign-coc",
            "P3-no-reversal-sr",
            "P4-no-reversal-sl",
        ]
        for p in props:
            assert 0 <= p.previous_advisory < 5
            assert p.rationale

    def test_check_catalog_runs(self, tiny_acas):
        result = check_catalog(
            tiny_acas.controller.networks,
            settings=BisectionSettings(max_depth=10),
        )
        assert set(result.results) == {p.name for p in standard_properties()}
        summary = result.summary()
        for name in result.results:
            assert name in summary

    def test_benign_coc_verified(self, tiny_acas):
        """P2 is the most robust property: a departing astern intruder
        yields COC on every trained bank we produce."""
        result = check_catalog(tiny_acas.controller.networks)
        assert result.results["P2-benign-coc"].outcome is Outcome.VERIFIED
        assert "P2-benign-coc" in result.verified_names()

    def test_falsified_properties_carry_real_witnesses(self, tiny_acas):
        """Whenever the checker falsifies, the witness must genuinely
        violate the property on the concrete network."""
        props = standard_properties()
        result = check_catalog(tiny_acas.controller.networks)
        for prop in props:
            outcome = result.results[prop.name]
            if outcome.outcome is Outcome.FALSIFIED:
                assert outcome.witness is not None
                network = tiny_acas.controller.networks[prop.previous_advisory]
                assert not prop.property.holds_at_point(
                    network.forward(outcome.witness)
                )
                assert prop.name in result.falsified_names()

    def test_custom_property_list(self, tiny_acas):
        single = [standard_properties()[1]]
        result = check_catalog(tiny_acas.controller.networks, properties=single)
        assert list(result.results) == ["P2-benign-coc"]
