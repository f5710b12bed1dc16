"""Comparators: concrete simulation, falsification, and the
discrete-instant baseline the paper contrasts against."""

from .discrete import (
    DiscreteAnalysisResult,
    DiscreteVerdict,
    discrete_instant_analysis,
)
from .falsify import (
    FalsificationResult,
    cross_entropy_falsification,
    error_distance_robustness,
    min_distance_robustness,
    random_falsification,
)
from .simulate import Trajectory, simulate

__all__ = [
    "DiscreteAnalysisResult",
    "DiscreteVerdict",
    "FalsificationResult",
    "Trajectory",
    "cross_entropy_falsification",
    "discrete_instant_analysis",
    "error_distance_robustness",
    "min_distance_robustness",
    "random_falsification",
    "simulate",
]
