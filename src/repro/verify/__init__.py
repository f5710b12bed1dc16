"""Abstract interpretation of ReLU networks (ReluVal substitute):
interval and symbolic bound propagation, argmin abstraction, and
property verification with input-splitting refinement."""

from .argselect import (
    certain_argmin,
    possible_argmax,
    possible_argmax_batch,
    possible_argmin,
    possible_argmin_batch,
)
from .complete import ExactRangeResult, exact_output_range, tightness_gap
from .bisect import (
    BisectionSettings,
    Outcome,
    VerificationResult,
    verify_property,
)
from .interval_prop import IntervalPropagator, interval_forward
from .properties import (
    OutputProperty,
    label_minimal,
    label_not_minimal,
    local_robustness,
    output_lower_bound,
    output_upper_bound,
)
from .symbolic import RELAXATIONS, LinearBounds, SymbolicPropagator
from .zonotope import Zonotope, ZonotopePropagator

__all__ = [
    "BisectionSettings",
    "ExactRangeResult",
    "IntervalPropagator",
    "LinearBounds",
    "Outcome",
    "OutputProperty",
    "RELAXATIONS",
    "SymbolicPropagator",
    "VerificationResult",
    "Zonotope",
    "ZonotopePropagator",
    "certain_argmin",
    "exact_output_range",
    "interval_forward",
    "label_minimal",
    "label_not_minimal",
    "local_robustness",
    "output_lower_bound",
    "output_upper_bound",
    "possible_argmax",
    "possible_argmax_batch",
    "possible_argmin",
    "possible_argmin_batch",
    "tightness_gap",
    "verify_property",
]
