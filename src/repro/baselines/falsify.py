"""Falsification: search for concrete unsafe trajectories.

The counterpart to reachability discussed in Sections 2 and 8:
falsification can prove a system *unsafe* (with a witness trajectory)
but never safe. We provide uniform random search and a cross-entropy
optimizer over a user-supplied initial-condition parameterization,
minimizing a robustness signal (negative = inside the unsafe set E).

Typical use: run the falsifier on the cells the reachability analysis
could not prove, to separate genuinely unsafe cells (counterexample
found) from over-approximation artefacts (Section 8 future work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import ClosedLoopSystem
from ..intervals import Box
from .simulate import Trajectory, simulate

#: Maps a parameter vector to a concrete (initial state, command index).
Decoder = Callable[[np.ndarray], tuple[np.ndarray, int]]
#: Robustness of one trajectory: negative iff the run is unsafe.
Robustness = Callable[[Trajectory], float]


@dataclass
class FalsificationResult:
    """Outcome of a falsification campaign."""

    falsified: bool
    witness_params: np.ndarray | None = None
    witness: Trajectory | None = None
    best_robustness: float = float("inf")
    best_params: np.ndarray | None = None
    trajectories_run: int = 0


def error_distance_robustness(system: ClosedLoopSystem) -> Robustness:
    """Default robustness: +1 if E untouched, -1 if entered.

    Binary — fine for random search; guided search should use a
    continuous metric (e.g. :func:`min_distance_robustness` shapes).
    """

    def robustness(trajectory: Trajectory) -> float:
        return -1.0 if trajectory.reached_error else 1.0

    return robustness


def min_distance_robustness(
    dims: tuple[int, int], radius: float
) -> Robustness:
    """Continuous robustness for cylindrical unsafe sets: the minimum
    distance of ``states[:, dims]`` from the origin, minus ``radius``
    (matches the ACAS Xu E-set; negative iff the cylinder is entered)."""

    def robustness(trajectory: Trajectory) -> float:
        xy = trajectory.states[:, list(dims)]
        distances = np.hypot(xy[:, 0], xy[:, 1])
        return float(distances.min() - radius)

    return robustness


def random_falsification(
    system: ClosedLoopSystem,
    parameter_box: Box,
    decode: Decoder,
    robustness: Robustness | None = None,
    trials: int = 200,
    seed: int = 0,
    samples_per_period: int = 10,
) -> FalsificationResult:
    """Uniform random search over the parameter box."""
    robustness = robustness or error_distance_robustness(system)
    rng = np.random.default_rng(seed)
    result = FalsificationResult(falsified=False)
    for params in parameter_box.sample(rng, trials):
        trajectory = _run(system, decode, params, samples_per_period)
        result.trajectories_run += 1
        value = robustness(trajectory)
        if value < result.best_robustness:
            result.best_robustness = value
            result.best_params = params
        if value < 0.0:
            result.falsified = True
            result.witness_params = params
            result.witness = trajectory
            break
    return result


def cross_entropy_falsification(
    system: ClosedLoopSystem,
    parameter_box: Box,
    decode: Decoder,
    robustness: Robustness | None = None,
    population: int = 40,
    elites: int = 8,
    generations: int = 10,
    seed: int = 0,
    samples_per_period: int = 10,
) -> FalsificationResult:
    """Cross-entropy method: fit a Gaussian to the lowest-robustness
    elite samples each generation, shrinking onto unsafe regions."""
    if elites < 2 or elites > population:
        raise ValueError("need 2 <= elites <= population")
    robustness = robustness or error_distance_robustness(system)
    rng = np.random.default_rng(seed)
    mean = parameter_box.center
    std = parameter_box.radii.astype(float)
    std = np.maximum(std, 1e-12)
    result = FalsificationResult(falsified=False)

    for _generation in range(generations):
        samples = rng.normal(mean, std, size=(population, parameter_box.dim))
        samples = np.clip(samples, parameter_box.lo, parameter_box.hi)
        scores = np.empty(population)
        for i, params in enumerate(samples):
            trajectory = _run(system, decode, params, samples_per_period)
            result.trajectories_run += 1
            scores[i] = robustness(trajectory)
            if scores[i] < result.best_robustness:
                result.best_robustness = scores[i]
                result.best_params = params
            if scores[i] < 0.0:
                result.falsified = True
                result.witness_params = params
                result.witness = trajectory
                return result
        order = np.argsort(scores)
        elite = samples[order[:elites]]
        mean = elite.mean(axis=0)
        std = np.maximum(elite.std(axis=0), 1e-9)
    return result


def _run(
    system: ClosedLoopSystem,
    decode: Decoder,
    params: np.ndarray,
    samples_per_period: int,
) -> Trajectory:
    state, command = decode(np.asarray(params, dtype=float))
    return simulate(
        system,
        state,
        command,
        samples_per_period=samples_per_period,
        stop_on_error=True,
    )
