"""Synthetic ACAS Xu score tables via encounter-MDP value iteration.

The real ACAS Xu lookup tables are proprietary (>2 GB) and were produced
by dynamic programming on a partially observable encounter model
(Kochenderfer et al.). This module builds a *structurally identical*
substitute: a grid over the encounter geometry ``(rho, theta, psi)``,
one table per previous advisory, five cost columns per cell, solved by
value iteration on the same relative kinematics the plant uses.

The cost design mirrors the published description of the original:

* a large penalty for entering the collision cylinder (500 ft);
* a proximity shaping cost so the policy starts avoiding early;
* a turn cost making Clear-of-Conflict preferred when safe (strong
  turns cost more than weak ones);
* an advisory-switch cost, which is what couples consecutive steps and
  motivates one table per *previous* advisory — the controller
  structure the paper's lambda-selection models.

Tables are deterministic (pure DP, no randomness) and cached as .npz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import AcasXuAnalyticFlow, cartesian_from_polar

#: Advisory order matches the paper: COC, WL, WR, SL, SR.
ADVISORIES = ("COC", "WL", "WR", "SL", "SR")
#: Turn rates in deg/s, counterclockwise positive (left turns positive).
TURN_RATES_DEG = (0.0, 1.5, -1.5, 3.0, -3.0)
NUM_ADVISORIES = len(ADVISORIES)


@dataclass(frozen=True)
class TableConfig:
    """Grid resolution and cost model for the synthetic tables."""

    num_rho: int = 17
    num_theta: int = 25
    num_psi: int = 37
    rho_max: float = 12000.0
    psi_max: float = 4.5
    v_own: float = 700.0
    v_int: float = 600.0
    period: float = 1.0
    collision_radius: float = 500.0
    #: The DP penalizes passes below this buffered radius, so the
    #: resulting policy keeps a margin above the 500 ft collision
    #: cylinder (the real tables are shaped the same way: the alerting
    #: logic aims well beyond the bare near-mid-air-collision volume).
    penalty_radius: float = 1800.0
    collision_cost: float = 1000.0
    proximity_cost: float = 40.0
    proximity_scale: float = 1000.0
    turn_cost_weak: float = 2.0
    turn_cost_strong: float = 4.0
    #: Hysteresis: switching advisories is expensive, which commits the
    #: policy to one turn direction at (near-)symmetric encounters
    #: instead of dithering SL/SR and cancelling its own maneuver. It
    #: must exceed the value-interpolation noise at symmetric states.
    switch_cost: float = 15.0
    discount: float = 0.9
    sweeps: int = 60

    def key(self) -> str:
        """Deterministic cache key."""
        import hashlib
        import json

        payload = json.dumps(self.__dict__, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Small configuration for tests (fast to build, same structure).
TINY_TABLE_CONFIG = TableConfig(num_rho=11, num_theta=17, num_psi=17, sweeps=30)


@dataclass
class AcasTables:
    """The synthetic score tables: ``q_values[prev, ir, it, ip, action]``."""

    rho_grid: np.ndarray
    theta_grid: np.ndarray
    psi_grid: np.ndarray
    q_values: np.ndarray
    config: TableConfig = field(default_factory=TableConfig)

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return (len(self.rho_grid), len(self.theta_grid), len(self.psi_grid))

    def scores(self, prev: int, rho: float, theta: float, psi: float) -> np.ndarray:
        """Trilinear interpolation of the 5 advisory scores."""
        table = self.q_values[prev]
        idx, w = _interp_weights_single(
            self.rho_grid, self.theta_grid, self.psi_grid, rho, theta, psi
        )
        flat = table.reshape(-1, NUM_ADVISORIES)
        return (flat[idx] * w[:, None]).sum(axis=0)

    def grid_points(self) -> np.ndarray:
        """All grid points as a ``(N, 3)`` array of (rho, theta, psi)."""
        rr, tt, pp = np.meshgrid(
            self.rho_grid, self.theta_grid, self.psi_grid, indexing="ij"
        )
        return np.stack([rr.ravel(), tt.ravel(), pp.ravel()], axis=1)

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            rho_grid=self.rho_grid,
            theta_grid=self.theta_grid,
            psi_grid=self.psi_grid,
            q_values=self.q_values,
        )

    @staticmethod
    def load(path: str | Path, config: TableConfig | None = None) -> "AcasTables":
        # The file is opened here, so it is closed even when the
        # archive does not parse.
        with open(path, "rb") as handle, np.load(handle) as data:
            return AcasTables(
                rho_grid=data["rho_grid"],
                theta_grid=data["theta_grid"],
                psi_grid=data["psi_grid"],
                q_values=data["q_values"],
                config=config or TableConfig(),
            )


def _make_grids(config: TableConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Quadratic spacing in rho: finer resolution close to the ownship.
    unit = np.linspace(0.0, 1.0, config.num_rho)
    rho = config.rho_max * unit**1.5
    theta = np.linspace(-math.pi, math.pi, config.num_theta)
    psi = np.linspace(-config.psi_max, config.psi_max, config.num_psi)
    return rho, theta, psi


def _interp_weights_single(
    rho_grid: np.ndarray,
    theta_grid: np.ndarray,
    psi_grid: np.ndarray,
    rho: float,
    theta: float,
    psi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and weights of the 8 trilinear neighbours."""
    idx, w = _interp_weights_batch(
        rho_grid,
        theta_grid,
        psi_grid,
        np.array([rho]),
        np.array([theta]),
        np.array([psi]),
    )
    return idx[0], w[0]


def _axis_weights(grid: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis lower neighbour index and fractional position (clamped)."""
    clamped = np.clip(values, grid[0], grid[-1])
    hi = np.searchsorted(grid, clamped, side="right")
    hi = np.clip(hi, 1, len(grid) - 1)
    lo = hi - 1
    span = grid[hi] - grid[lo]
    frac = np.where(span > 0, (clamped - grid[lo]) / np.where(span > 0, span, 1.0), 0.0)
    return lo, frac


def _interp_weights_batch(
    rho_grid: np.ndarray,
    theta_grid: np.ndarray,
    psi_grid: np.ndarray,
    rho: np.ndarray,
    theta: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized trilinear neighbour indices/weights, shape (N, 8)."""
    ir, fr = _axis_weights(rho_grid, rho)
    it, ft = _axis_weights(theta_grid, theta)
    ip, fp = _axis_weights(psi_grid, psi)
    nt, npsi = len(theta_grid), len(psi_grid)

    idx_list = []
    w_list = []
    for dr in (0, 1):
        wr = np.where(dr == 0, 1.0 - fr, fr)
        for dt in (0, 1):
            wt = np.where(dt == 0, 1.0 - ft, ft)
            for dp in (0, 1):
                wp = np.where(dp == 0, 1.0 - fp, fp)
                idx_list.append(((ir + dr) * nt + (it + dt)) * npsi + (ip + dp))
                w_list.append(wr * wt * wp)
    return np.stack(idx_list, axis=1), np.stack(w_list, axis=1)


def generate_tables(config: TableConfig | None = None) -> AcasTables:
    """Run value iteration and return the synthetic tables."""
    config = config or TableConfig()
    rho_grid, theta_grid, psi_grid = _make_grids(config)
    points = np.stack(
        np.meshgrid(rho_grid, theta_grid, psi_grid, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    num_states = points.shape[0]
    flow = AcasXuAnalyticFlow()

    # Precompute, per action: next-state interpolation and the immediate
    # geometric cost of taking the action from each grid state.
    neighbour_idx = np.empty((NUM_ADVISORIES, num_states, 8), dtype=np.int64)
    neighbour_w = np.empty((NUM_ADVISORIES, num_states, 8))
    base_cost = np.empty((NUM_ADVISORIES, num_states))
    turn_costs = _turn_costs(config)

    xy = np.array([cartesian_from_polar(r, t) for r, t in points[:, :2]])
    for action, rate_deg in enumerate(TURN_RATES_DEG):
        u = np.array([math.radians(rate_deg)])
        next_states = np.empty((num_states, 3))
        rho_min = np.empty(num_states)
        for i in range(num_states):
            state = np.array(
                [xy[i, 0], xy[i, 1], points[i, 2], config.v_own, config.v_int]
            )
            end = flow.flow_point(state, u, config.period)
            mid = flow.flow_point(state, u, config.period / 2.0)
            rho_end = math.hypot(end[0], end[1])
            rho_mid = math.hypot(mid[0], mid[1])
            next_states[i, 0] = rho_end
            next_states[i, 1] = math.atan2(-end[0], end[1])
            next_states[i, 2] = end[2]
            rho_min[i] = min(points[i, 0], rho_mid, rho_end)
        idx, w = _interp_weights_batch(
            rho_grid,
            theta_grid,
            psi_grid,
            next_states[:, 0],
            next_states[:, 1],
            next_states[:, 2],
        )
        # Episode ends once the intruder leaves the sensor-range shell:
        # no future cost accrues from there.
        escaped = next_states[:, 0] >= rho_grid[-1]
        w[escaped] = 0.0
        neighbour_idx[action] = idx
        neighbour_w[action] = w
        # Graded penetration cost: deeper incursions below the buffered
        # radius cost more, so the policy keeps maneuvering even when
        # some incursion has become unavoidable (a binary penalty would
        # flatten the landscape there and make it give up).
        penetration = np.maximum(1.0 - rho_min / config.penalty_radius, 0.0)
        base_cost[action] = (
            config.collision_cost * penetration
            + config.proximity_cost
            * np.exp(-np.maximum(rho_min - config.penalty_radius, 0.0) / config.proximity_scale)
            + turn_costs[action]
        )

    switch = config.switch_cost * (
        1.0 - np.eye(NUM_ADVISORIES)
    )  # switch[prev, action]

    # Value iteration over Q[prev, state, action], with the closed
    # loop's one-period actuation delay modelled faithfully: at step j
    # the plant still flies the *previous* advisory (zero-order hold,
    # Section 4.1 — the chosen command u_{j+1} only applies from
    # (j+1)T). So the transition and the geometric cost of the current
    # step are driven by ``prev``; the decision ``a`` selects which
    # advisory (and hence which Q-table) governs the *next* state.
    #
    #   Q[prev](s, a) = c_geo(s; prev) + c_turn(prev) + c_switch(prev, a)
    #                   + discount * V[a](step(s; prev))
    #   V[a](s)       = min_a' Q[a](s, a')
    q = np.zeros((NUM_ADVISORIES, num_states, NUM_ADVISORIES))
    for _ in range(config.sweeps):
        values = q.min(axis=2)
        # interp[prev, a] = V[a] evaluated at the prev-driven next state.
        interp = np.empty((NUM_ADVISORIES, NUM_ADVISORIES, num_states))
        for prev in range(NUM_ADVISORIES):
            for action in range(NUM_ADVISORIES):
                interp[prev, action] = (
                    values[action][neighbour_idx[prev]] * neighbour_w[prev]
                ).sum(axis=1)
        for prev in range(NUM_ADVISORIES):
            for action in range(NUM_ADVISORIES):
                q[prev][:, action] = (
                    base_cost[prev]
                    + switch[prev, action]
                    + config.discount * interp[prev, action]
                )

    shape = (NUM_ADVISORIES, len(rho_grid), len(theta_grid), len(psi_grid), NUM_ADVISORIES)
    return AcasTables(
        rho_grid=rho_grid,
        theta_grid=theta_grid,
        psi_grid=psi_grid,
        q_values=q.reshape(shape),
        config=config,
    )


def _turn_costs(config: TableConfig) -> np.ndarray:
    costs = []
    for rate in TURN_RATES_DEG:
        if rate == 0.0:
            costs.append(0.0)
        elif abs(rate) < 2.0:
            costs.append(config.turn_cost_weak)
        else:
            costs.append(config.turn_cost_strong)
    return np.array(costs)
