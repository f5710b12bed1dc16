"""Network-level phi-style properties for the ACAS Xu bank.

Before system-level verification existed, the ACAS networks were
checked against isolated pre/post-condition properties (Reluplex's
phi-1..phi-10, ReluVal [25]); Section 2 of the paper surveys this line
of work. This module states the analogous properties for *our* trained
bank, in our geometry and normalization, so the ReluVal-substitute
engine can be exercised standalone and regressions in the trained
networks are caught early.

Because our score tables are synthetic, thresholds-on-raw-scores
(phi-1's shape) are meaningless; the catalog uses the *relational*
shapes (argmin membership), which are invariant to the score scaling
used during distillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..intervals import Box
from ..nn import Network
from ..verify import (
    BisectionSettings,
    OutputProperty,
    VerificationResult,
    label_minimal,
    label_not_minimal,
    verify_property,
)
from .controller import normalize_inputs


def raw_input_box(
    rho: tuple[float, float],
    theta: tuple[float, float],
    psi: tuple[float, float],
    v_own: float = 700.0,
    v_int: float = 600.0,
) -> Box:
    """Normalized network-input box from raw geometry ranges."""
    lo = normalize_inputs(np.array([rho[0], theta[0], psi[0], v_own, v_int]))
    hi = normalize_inputs(np.array([rho[1], theta[1], psi[1], v_own, v_int]))
    return Box(np.minimum(lo, hi), np.maximum(lo, hi))


@dataclass(frozen=True)
class AcasProperty:
    """A named property bound to one network of the bank."""

    name: str
    #: Index of the previous advisory selecting the network (lambda).
    previous_advisory: int
    property: OutputProperty
    #: Human-readable rationale, kept for reports.
    rationale: str = ""


def standard_properties() -> list[AcasProperty]:
    """The catalog: entry-alert, benign-COC and turn-direction shapes."""
    props: list[AcasProperty] = []

    # P1 (phi-3 shape): a head-on threat appearing at sensor range must
    # raise an alert — COC is never the advisory.
    props.append(
        AcasProperty(
            name="P1-entry-alert",
            previous_advisory=0,
            property=label_not_minimal(
                "head-on at entry => not COC",
                raw_input_box(
                    rho=(7300.0, 7900.0),
                    theta=(-0.04, 0.04),
                    psi=(math.pi - 0.06, math.pi - 0.01),
                ),
                index=0,
            ),
            rationale="entry range is where maneuvering buys separation; "
            "the tables alert there, the networks must too",
        )
    )

    # P2: an intruder far behind and departing is no threat — COC.
    props.append(
        AcasProperty(
            name="P2-benign-coc",
            previous_advisory=0,
            property=label_minimal(
                "departing astern => COC",
                raw_input_box(
                    rho=(5000.0, 6000.0),
                    theta=(math.pi - 0.15, math.pi - 0.05),
                    psi=(-0.05, 0.05),
                ),
                index=0,
            ),
            rationale="no collision course: alerting here would be the "
            "nuisance-alert failure mode",
        )
    )

    # P3/P4 (phi-4 shape): with a strong maneuver in progress against a
    # crossing threat, the bank must not flip to the opposite strong
    # turn (the dithering hazard).
    props.append(
        AcasProperty(
            name="P3-no-reversal-sr",
            previous_advisory=4,  # currently SR
            property=label_not_minimal(
                "crossing-from-left engagement, prev SR => not SL",
                raw_input_box(
                    rho=(2500.0, 3500.0),
                    theta=(0.45, 0.55),
                    psi=(-2.0, -1.9),
                ),
                index=3,
            ),
            rationale="advisory reversals cancel the maneuver; the switch "
            "cost shapes the tables against them",
        )
    )
    props.append(
        AcasProperty(
            name="P4-no-reversal-sl",
            previous_advisory=3,  # currently SL
            property=label_not_minimal(
                "crossing-from-right engagement, prev SL => not SR",
                raw_input_box(
                    rho=(2500.0, 3500.0),
                    theta=(-0.55, -0.45),
                    psi=(1.9, 2.0),
                ),
                index=4,
            ),
            rationale="mirror of P3",
        )
    )
    return props


@dataclass
class CatalogResult:
    """Outcome of checking the catalog against a network bank."""

    results: dict[str, VerificationResult]

    def verified_names(self) -> list[str]:
        return [n for n, r in self.results.items() if r.verified]

    def falsified_names(self) -> list[str]:
        from ..verify import Outcome

        return [
            n for n, r in self.results.items() if r.outcome is Outcome.FALSIFIED
        ]

    def summary(self) -> str:
        lines = []
        for name, result in self.results.items():
            lines.append(f"{name}: {result.outcome.value}")
        return "\n".join(lines)


def check_catalog(
    networks: list[Network],
    properties: list[AcasProperty] | None = None,
    settings: BisectionSettings | None = None,
) -> CatalogResult:
    """Verify every catalog property against its bank network."""
    properties = properties or standard_properties()
    settings = settings or BisectionSettings(max_depth=14)
    results: dict[str, VerificationResult] = {}
    for prop in properties:
        network = networks[prop.previous_advisory]
        results[prop.name] = verify_property(
            network, prop.property, settings=settings
        )
    return CatalogResult(results=results)
