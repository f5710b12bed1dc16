"""The ACAS Xu verification scenario (Examples 1-4, Section 7.1).

Defines the closed-loop system (plant + 5-network controller), the
erroneous set E (collision cylinder, rho < 500 ft), the target set T
(intruder outside the 8000 ft sensor range), the time horizon (tau =
20 s, T = 1 s, so q = 20 control steps), and the ribbon-shaped
partition of the initial states: intruder entering on the sensor circle
with an inward heading cone (Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import ClosedLoopSystem, Plant
from ..intervals import Box, Interval, icos, isin
from ..ode import IntegratorSettings, TaylorIntegrator
from ..sets import BallSet, OutsideBallSet
from .controller import build_controller
from .dynamics import ACASXU_ODE, AcasXuAnalyticFlow
from .mdp import TINY_TABLE_CONFIG, TableConfig
from .networks import (
    NetworkBankConfig,
    PAPER_NETWORKS,
    TINY_NETWORKS,
    load_or_train_networks,
)

#: Scenario constants (Example 1).
SENSOR_RANGE_FT = 8000.0
COLLISION_RADIUS_FT = 500.0
V_OWN_FT_S = 700.0
V_INT_FT_S = 600.0
CONTROL_PERIOD_S = 1.0
HORIZON_STEPS = 20  # tau = 20 s
COC_INDEX = 0  # initial advisory: Clear-of-Conflict

#: Paper-scale partition (Section 7.1): 629 arcs of 80 ft (0.01 rad at
#: r = 8000 ft) and 316 heading subsets of 0.01 rad covering the
#: inward-pointing cone of width pi.
PAPER_NUM_ARCS = 629
PAPER_NUM_HEADINGS = 316


@dataclass(frozen=True)
class ScenarioConfig:
    """What to build: table/network fidelity and integrator choice."""

    table_config: TableConfig = field(default_factory=TableConfig)
    network_config: NetworkBankConfig = field(default_factory=NetworkBankConfig)
    integrator: str = "analytic"  # "analytic" | "taylor" | "meanvalue"
    pre_mode: str = "interval"  # "interval" | "affine"
    relaxation: str = "reluval"  # NN propagation relaxation
    horizon_steps: int = HORIZON_STEPS

    def __post_init__(self) -> None:
        if self.integrator not in ("analytic", "taylor", "meanvalue"):
            raise ValueError(
                "integrator must be 'analytic', 'taylor' or 'meanvalue'"
            )


#: Fast configuration for tests: tiny tables/networks, same structure.
TINY_SCENARIO = ScenarioConfig(
    table_config=TINY_TABLE_CONFIG, network_config=TINY_NETWORKS
)
#: Paper-faithful configuration (6x50 networks).
PAPER_SCENARIO = ScenarioConfig(
    table_config=TableConfig(), network_config=PAPER_NETWORKS
)


def erroneous_set() -> BallSet:
    """E: near mid-air collision — intruder within 500 ft (Example 1)."""
    return BallSet((0, 1), (0.0, 0.0), COLLISION_RADIUS_FT)


def target_set() -> OutsideBallSet:
    """T: intruder outside the sensor circle R (Example 1)."""
    return OutsideBallSet((0, 1), (0.0, 0.0), SENSOR_RANGE_FT)


def build_system(config: ScenarioConfig | None = None) -> ClosedLoopSystem:
    """Build the full closed-loop ACAS Xu system.

    Trains (or loads from cache) the synthetic tables and networks.
    """
    config = config or ScenarioConfig()
    networks, tables = load_or_train_networks(
        config.table_config, config.network_config
    )
    controller = build_controller(
        networks, pre_mode=config.pre_mode, relaxation=config.relaxation
    )
    if config.integrator == "analytic":
        integrator = AcasXuAnalyticFlow()
    elif config.integrator == "meanvalue":
        from ..ode import MeanValueIntegrator

        integrator = MeanValueIntegrator(ACASXU_ODE, IntegratorSettings(order=5))
    else:
        integrator = TaylorIntegrator(ACASXU_ODE, IntegratorSettings(order=5))
    plant = Plant(ACASXU_ODE, integrator)
    return ClosedLoopSystem(
        plant=plant,
        controller=controller,
        period=CONTROL_PERIOD_S,
        erroneous=erroneous_set(),
        target=target_set(),
        horizon_steps=config.horizon_steps,
        name="acasxu",
        metadata={"tables": tables, "config": config},
    )


def build_tiny_system() -> ClosedLoopSystem:
    """Module-level factory (picklable) for the test-scale system."""
    return build_system(TINY_SCENARIO)


def build_paper_system() -> ClosedLoopSystem:
    """Module-level factory (picklable) for the paper-scale system."""
    return build_system(PAPER_SCENARIO)


# ----------------------------------------------------------------------
# Initial-state partition (Fig. 8)
# ----------------------------------------------------------------------
def _wrap_to_pi(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def initial_cell(
    arc_interval: Interval,
    heading_offset_interval: Interval,
    v_own: Interval | None = None,
    v_int: Interval | None = None,
) -> Box:
    """One initial 5-box from a position-angle arc and a heading cone
    slice.

    ``arc_interval`` is the range of the intruder's position angle
    ``phi`` on the sensor circle (measured like the bearing theta:
    counterclockwise from the ownship heading, so the position is
    ``(x, y) = r * (-sin(phi), cos(phi))``). The intruder's relative
    heading is ``psi = phi + pi + delta`` with ``delta`` in
    ``(-pi/2, pi/2)`` the offset from directly-inward;
    ``heading_offset_interval`` is the slice of that cone.
    """
    r = SENSOR_RANGE_FT
    x_iv = -(isin(arc_interval) * r)
    y_iv = icos(arc_interval) * r
    center = _wrap_to_pi(arc_interval.mid + math.pi + heading_offset_interval.mid)
    half = (arc_interval.width + heading_offset_interval.width) / 2.0
    psi_iv = Interval(center - half, center + half)
    return Box.from_intervals(
        [
            x_iv,
            y_iv,
            psi_iv,
            v_own if v_own is not None else Interval.point(V_OWN_FT_S),
            v_int if v_int is not None else Interval.point(V_INT_FT_S),
        ]
    )


def initial_cells(
    num_arcs: int,
    num_headings: int,
    arc_range: tuple[float, float] = (-math.pi, math.pi),
    heading_cone: tuple[float, float] = (-math.pi / 2.0, math.pi / 2.0),
    velocity_uncertainty: float = 0.0,
) -> list[tuple[Box, int, dict]]:
    """The partition of the possible initial states (Section 7.1).

    Returns ``(box, command, tags)`` cells ready for
    :func:`repro.core.verify_partition`; tags carry the arc and heading
    indices plus the arc's center angle (used for the Fig. 9 grouping).

    ``velocity_uncertainty`` widens the (paper-fixed) speeds into
    symmetric intervals of that half-width (ft/s) — an extension beyond
    the paper's "for simplicity" assumption that exercises all five
    state dimensions.
    """
    if num_arcs < 1 or num_headings < 1:
        raise ValueError("partition counts must be positive")
    if velocity_uncertainty < 0.0:
        raise ValueError("velocity uncertainty must be non-negative")
    v_own = Interval(
        V_OWN_FT_S - velocity_uncertainty, V_OWN_FT_S + velocity_uncertainty
    )
    v_int = Interval(
        V_INT_FT_S - velocity_uncertainty, V_INT_FT_S + velocity_uncertainty
    )
    arc_edges = np.linspace(arc_range[0], arc_range[1], num_arcs + 1)
    heading_edges = np.linspace(heading_cone[0], heading_cone[1], num_headings + 1)
    cells: list[tuple[Box, int, dict]] = []
    for a in range(num_arcs):
        arc_iv = Interval(arc_edges[a], arc_edges[a + 1])
        for h in range(num_headings):
            head_iv = Interval(heading_edges[h], heading_edges[h + 1])
            box = initial_cell(arc_iv, head_iv, v_own=v_own, v_int=v_int)
            tags = {
                "arc": a,
                "heading": h,
                "arc_angle": float(arc_iv.mid),
            }
            cells.append((box, COC_INDEX, tags))
    return cells


def paper_scale_cells() -> list[tuple[Box, int, dict]]:
    """The paper's full partition: 629 x 316 = 198,764 cells."""
    return initial_cells(PAPER_NUM_ARCS, PAPER_NUM_HEADINGS)


def encounter_state(phi: float, delta: float) -> np.ndarray:
    """The concrete initial state of an intruder entering the sensor
    circle at position angle ``phi`` with heading offset ``delta`` from
    directly-inward: the point form of :func:`initial_cell`."""
    return np.array(
        [
            -SENSOR_RANGE_FT * math.sin(phi),
            SENSOR_RANGE_FT * math.cos(phi),
            _wrap_to_pi(phi + math.pi + delta),
            V_OWN_FT_S,
            V_INT_FT_S,
        ]
    )


def sample_initial_state(
    rng: np.random.Generator,
    arc_range: tuple[float, float] = (-math.pi, math.pi),
    heading_cone: tuple[float, float] = (-math.pi / 2.0, math.pi / 2.0),
) -> np.ndarray:
    """A random concrete initial state from the ribbon set I."""
    phi = rng.uniform(*arc_range)
    delta = rng.uniform(*heading_cone)
    return encounter_state(phi, delta)


def sample_collision_course_state(
    rng: np.random.Generator,
    jitter_rad: float = 0.05,
    arc_range: tuple[float, float] = (-math.pi, math.pi),
) -> np.ndarray:
    """An initial state on (approximately) a straight-line collision
    course with an unequipped ownship.

    Standard ACAS evaluation practice: uniform encounters rarely thread
    the 500 ft cylinder, so threat-biased encounter sets are used to
    estimate the risk ratio. The intruder heading is chosen so the
    *relative* velocity points at the ownship, then jittered by up to
    ``jitter_rad``.

    Solves ``w(psi) x p = 0`` with ``w(psi) = v_int*dir(psi) - v_own*j``
    the relative velocity: ``sin(psi + phi0)*rho = (v_own/v_int)*p_x``
    with ``phi0 = atan2(p_x, p_y)``, picking the root with ``w·p < 0``
    (inbound).
    """
    # Rejection-sample the entry bearing: with v_own > v_int the
    # ownship outruns the intruder, so only a frontal band of bearings
    # admits a straight-line collision course — the collinear roots
    # must also point *inbound* (w·p < 0), not just be collinear.
    def inbound(psi: float, p_x: float, p_y: float) -> float:
        wx = -V_INT_FT_S * math.sin(psi)
        wy = V_INT_FT_S * math.cos(psi) - V_OWN_FT_S
        return wx * p_x + wy * p_y

    for _attempt in range(1000):
        phi = rng.uniform(*arc_range)
        p_x = -SENSOR_RANGE_FT * math.sin(phi)
        p_y = SENSOR_RANGE_FT * math.cos(phi)
        ratio = (V_OWN_FT_S * p_x) / (V_INT_FT_S * SENSOR_RANGE_FT)
        if abs(ratio) > 0.98:
            continue
        phi0 = math.atan2(p_x, p_y)
        base = math.asin(ratio)
        candidates = [base - phi0, math.pi - base - phi0]
        psi = min(candidates, key=lambda c: inbound(c, p_x, p_y))
        if inbound(psi, p_x, p_y) < 0.0:
            break
    else:  # pragma: no cover - arc_range excludes all feasible bearings
        raise ValueError("no collision-course bearing inside arc_range")
    psi = _wrap_to_pi(psi + rng.uniform(-jitter_rad, jitter_rad))
    return np.array([p_x, p_y, psi, V_OWN_FT_S, V_INT_FT_S])
