"""Multi-UAV extension (Section 8 future work).

The paper sketches how the model extends to several equipped aircraft:
"the plant could capture the dynamics of the multiple agents ... and be
combined with several controllers", all executing in the same interval.
This module implements the two-aircraft case: *both* the ownship and
the intruder run the 5-network collision-avoidance controller.

* **Plant** — the same relative state ``(x, y, psi, v_own, v_int)``,
  but the command is now the *pair* of turn rates, so the relative
  heading evolves as ``psi' = u_int - u_own`` and the intruder no
  longer flies straight (no closed-form flow: the generic validated
  Taylor integrator is used).
* **Controller** — a product controller: the ownship evaluates its bank
  on the state as-is; the intruder evaluates the same bank on the
  *mirrored* view (the ownship's position expressed in the intruder's
  body frame). The joint command set is ``U x U`` (25 commands), which
  the symbolic-state machinery handles unchanged — only ``Gamma >= 25``
  is required (Remark 3).
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ClosedLoopSystem, CommandSet, Plant
from ..intervals import Box, icos, isin
from ..nn import Network
from ..ode import IntegratorSettings, ODESystem, TaylorIntegrator
from ..ode.ops import gcos, gsin
from ..verify import SymbolicPropagator, possible_argmin
from .controller import AcasPre
from .mdp import ADVISORIES, NUM_ADVISORIES, TURN_RATES_DEG
from .scenario import (
    CONTROL_PERIOD_S,
    HORIZON_STEPS,
    ScenarioConfig,
    erroneous_set,
    target_set,
)


def multi_uav_rhs(t, s, u):
    """Relative kinematics with both aircraft maneuvering.

    ``u = (turn_own, turn_int)`` in rad/s.
    """
    x, y, psi, v_own, v_int = s
    turn_own = float(u[0])
    turn_int = float(u[1])
    sin_psi = gsin(psi)
    cos_psi = gcos(psi)
    return [
        -v_int * sin_psi + turn_own * y,
        v_int * cos_psi - v_own - turn_own * x,
        0.0 * psi + (turn_int - turn_own),
        0.0 * v_own,
        0.0 * v_int,
    ]


MULTI_UAV_ODE = ODESystem(rhs=multi_uav_rhs, dim=5, name="acasxu-two-agents")


def pair_index(own: int, intruder: int) -> int:
    """Joint command index for an (ownship, intruder) advisory pair."""
    return own * NUM_ADVISORIES + intruder

def split_pair(index: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    return index // NUM_ADVISORIES, index % NUM_ADVISORIES


def joint_command_set() -> CommandSet:
    """The product command set ``U x U`` (25 turn-rate pairs)."""
    values = []
    names = []
    for own_adv, own_rate in enumerate(TURN_RATES_DEG):
        for int_adv, int_rate in enumerate(TURN_RATES_DEG):
            values.append([math.radians(own_rate), math.radians(int_rate)])
            names.append(f"{ADVISORIES[own_adv]}/{ADVISORIES[int_adv]}")
    return CommandSet(np.array(values), names=names)


def mirror_state(state: np.ndarray) -> np.ndarray:
    """The intruder's view: ownship position in the intruder's frame.

    With relative position ``r`` and relative heading ``psi`` (intruder
    w.r.t. ownship), the ownship seen from the intruder sits at
    ``R(-psi) @ (-r)`` with relative heading ``-psi``; the speed roles
    swap.
    """
    x, y, psi, v_own, v_int = (float(v) for v in state)
    cos_p, sin_p = math.cos(psi), math.sin(psi)
    x2 = -(cos_p * x + sin_p * y)
    y2 = sin_p * x - cos_p * y
    return np.array([x2, y2, -psi, v_int, v_own])


def mirror_box(box: Box) -> Box:
    """Sound interval version of :func:`mirror_state`."""
    x, y, psi = box[0], box[1], box[2]
    cos_p, sin_p = icos(psi), isin(psi)
    x2 = -(cos_p * x + sin_p * y)
    y2 = sin_p * x - cos_p * y
    return Box.from_intervals([x2, y2, -psi, box[4], box[3]])


class MultiUavController:
    """Two synchronized controllers over the joint command set.

    Satisfies the controller interface the reachability core uses
    (``execute`` / ``execute_abstract``), demonstrating the paper's
    claim that the procedure extends to several controllers executing
    in the same interval.
    """

    def __init__(
        self,
        networks: list[Network],
        pre_mode: str = "interval",
        relaxation: str = "reluval",
    ):
        if len(networks) != NUM_ADVISORIES:
            raise ValueError(f"expected {NUM_ADVISORIES} networks")
        self.networks = networks
        self.commands = joint_command_set()
        self.pre = AcasPre(pre_mode)
        self.propagators = [SymbolicPropagator(n, relaxation) for n in networks]

    # Concrete ---------------------------------------------------------
    def _advise(self, view: np.ndarray, prev: int) -> int:
        x = self.pre.concrete(view)
        scores = self.networks[prev].forward(x)
        return int(np.argmin(scores))

    def execute(self, state: np.ndarray, previous_command: int) -> int:
        prev_own, prev_int = split_pair(previous_command)
        own = self._advise(np.asarray(state, dtype=float), prev_own)
        intruder = self._advise(mirror_state(state), prev_int)
        return pair_index(own, intruder)

    # Abstract ----------------------------------------------------------
    def _advise_abstract(self, view: Box, prev: int) -> list[int]:
        x_box = self.pre.abstract(view)
        scores = self.propagators[prev](x_box)
        return possible_argmin(scores)

    def execute_abstract(self, box: Box, previous_command: int) -> list[int]:
        prev_own, prev_int = split_pair(previous_command)
        own_set = self._advise_abstract(box, prev_own)
        int_set = self._advise_abstract(mirror_box(box), prev_int)
        return [pair_index(o, i) for o in own_set for i in int_set]


def build_multi_uav_system(
    config: ScenarioConfig | None = None,
    horizon_steps: int = HORIZON_STEPS,
) -> ClosedLoopSystem:
    """Assemble the two-equipped-aircraft closed loop."""
    from .networks import load_or_train_networks

    config = config or ScenarioConfig()
    networks, _tables = load_or_train_networks(
        config.table_config, config.network_config
    )
    controller = MultiUavController(
        networks, pre_mode=config.pre_mode, relaxation=config.relaxation
    )
    integrator = TaylorIntegrator(MULTI_UAV_ODE, IntegratorSettings(order=5))
    plant = Plant(MULTI_UAV_ODE, integrator)
    return ClosedLoopSystem(
        plant=plant,
        controller=controller,
        period=CONTROL_PERIOD_S,
        erroneous=erroneous_set(),
        target=target_set(),
        horizon_steps=horizon_steps,
        name="acasxu-multi-uav",
    )
