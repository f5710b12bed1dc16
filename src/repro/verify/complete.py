"""Complete verification of small ReLU networks (Reluplex counterpart).

Section 2 contrasts two families of network verifiers: *complete*
SMT/LP-based methods (Reluplex [12], Planet [19]) that are exact but
expensive, and *sound-but-incomplete* abstract interpretation (what the
closed-loop procedure uses). This module implements the complete side
for small networks, so the repository can quantify the gap:

* the input region and each fixed ReLU activation pattern induce a
  convex polytope in input space on which the network is affine;
* a depth-first search fixes neuron phases layer by layer, pruning with
  LP feasibility checks (``scipy.optimize.linprog``) and with the fast
  symbolic-interval bounds;
* at each feasible complete pattern, exact output extrema are LPs.

Exactness caveat: LP arithmetic is floating-point, so "complete" here
carries the usual numerical-tolerance fine print — the same caveat
Reluplex's simplex core carries. Use it as ground truth for the
abstract domains on *small* networks (the search is worst-case
exponential in the number of unstable neurons).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..intervals import Box
from ..nn import Network
from .symbolic import SymbolicPropagator


@dataclass
class ExactRangeResult:
    """Exact output range plus search diagnostics."""

    lower: np.ndarray
    upper: np.ndarray
    patterns_explored: int
    lps_solved: int
    #: True when the search was cut off by the pattern budget; the
    #: bounds are then only valid for the explored patterns.
    complete: bool = True

    def output_box(self) -> Box:
        return Box(self.lower, self.upper)


class _Polytope:
    """Constraints ``A x <= b`` over the network input space."""

    def __init__(self, box: Box):
        n = box.dim
        eye = np.eye(n)
        self.a = np.vstack([eye, -eye])
        self.b = np.concatenate([box.hi, -box.lo])
        self.bounds = [(lo, hi) for lo, hi in zip(box.lo, box.hi)]

    def with_constraint(self, row: np.ndarray, offset: float) -> "_Polytope":
        clone = _Polytope.__new__(_Polytope)
        clone.a = np.vstack([self.a, row[None, :]])
        clone.b = np.append(self.b, offset)
        clone.bounds = self.bounds
        return clone

    def minimize(self, cost: np.ndarray) -> tuple[float, bool]:
        """Exact minimum of ``cost @ x`` (value, feasible)."""
        # Imported here: SciPy costs ~0.4 s and ~40 MB to load, and only
        # this ablation verifier needs it.
        from scipy.optimize import linprog

        result = linprog(
            cost, A_ub=self.a, b_ub=self.b, bounds=self.bounds, method="highs"
        )
        if not result.success:
            return float("inf"), False
        return float(result.fun), True

    def feasible(self) -> bool:
        _value, ok = self.minimize(np.zeros(self.a.shape[1]))
        return ok


def exact_output_range(
    network: Network,
    input_box: Box,
    max_patterns: int = 4096,
    tolerance: float = 1e-9,
) -> ExactRangeResult:
    """Exact (up to LP tolerance) output range of ``network`` over the box.

    DFS over activation patterns; each branch carries the affine map of
    the prefix (``x -> W x + b`` composed through the fixed phases) and
    the input polytope refined with the phase constraints.
    """
    n_in = network.input_size
    result = ExactRangeResult(
        lower=np.full(network.output_size, np.inf),
        upper=np.full(network.output_size, -np.inf),
        patterns_explored=0,
        lps_solved=0,
    )
    symbolic = SymbolicPropagator(network)

    def recurse(layer: int, affine_w: np.ndarray, affine_b: np.ndarray, poly: _Polytope):
        if result.patterns_explored >= max_patterns:
            result.complete = False
            return
        if layer == len(network.weights) - 1:
            # Output layer: exact extrema per output via LP.
            result.patterns_explored += 1
            w_out = network.weights[-1] @ affine_w
            b_out = network.weights[-1] @ affine_b + network.biases[-1]
            for i in range(network.output_size):
                low, ok = poly.minimize(w_out[i])
                result.lps_solved += 1
                if not ok:
                    return  # numerically infeasible leaf
                high_neg, _ok2 = poly.minimize(-w_out[i])
                result.lps_solved += 1
                result.lower[i] = min(result.lower[i], low + b_out[i])
                result.upper[i] = max(result.upper[i], -high_neg + b_out[i])
            return

        w = network.weights[layer] @ affine_w
        b = network.weights[layer] @ affine_b + network.biases[layer]

        # Decide neuron phases; collect the undecided ones.
        undecided: list[int] = []
        active = np.zeros(w.shape[0], dtype=bool)
        for neuron in range(w.shape[0]):
            low, ok = poly.minimize(w[neuron])
            result.lps_solved += 1
            if not ok:
                return
            low += b[neuron]
            high_neg, _ok = poly.minimize(-w[neuron])
            result.lps_solved += 1
            high = -high_neg + b[neuron]
            if low >= -tolerance:
                active[neuron] = True
            elif high <= tolerance:
                active[neuron] = False
            else:
                undecided.append(neuron)

        def descend(phase_bits: int):
            phases = active.copy()
            poly_here = poly
            for bit, neuron in enumerate(undecided):
                is_active = bool((phase_bits >> bit) & 1)
                phases[neuron] = is_active
                if is_active:
                    # w x + b >= 0  <=>  -w x <= b.
                    poly_here = poly_here.with_constraint(-w[neuron], b[neuron])
                else:
                    poly_here = poly_here.with_constraint(w[neuron], -b[neuron])
            if undecided:
                result.lps_solved += 1
                if not poly_here.feasible():
                    return
            next_w = w * phases[:, None]
            next_b = b * phases
            recurse(layer + 1, next_w, next_b, poly_here)

        for phase_bits in range(1 << len(undecided)):
            if result.patterns_explored >= max_patterns:
                result.complete = False
                return
            descend(phase_bits)

    recurse(0, np.eye(n_in), np.zeros(n_in), _Polytope(input_box))
    if np.any(np.isinf(result.lower)):
        # No feasible pattern found (should not happen for a non-empty
        # box); fall back to the sound symbolic bounds.
        fallback = symbolic(input_box)
        result.lower = fallback.lo.copy()
        result.upper = fallback.hi.copy()
        result.complete = False
    return result


def tightness_gap(
    network: Network, input_box: Box, max_patterns: int = 4096
) -> dict[str, float]:
    """Measure abstract-domain over-approximation against ground truth.

    Returns per-domain ``max_width / exact_max_width`` ratios — the
    quantity the Section 2 trade-off discussion is about.
    """
    from .interval_prop import IntervalPropagator
    from .zonotope import ZonotopePropagator

    exact = exact_output_range(network, input_box, max_patterns)
    exact_width = float(np.max(exact.upper - exact.lower))
    if exact_width <= 0.0 or not exact.complete:
        raise ValueError("exact range unavailable or degenerate for this box")
    domains = {
        "ibp": IntervalPropagator(network),
        "reluval": SymbolicPropagator(network, "reluval"),
        "deeppoly": SymbolicPropagator(network, "deeppoly"),
        "zonotope": ZonotopePropagator(network),
    }
    return {
        name: float(domain(input_box).max_width) / exact_width
        for name, domain in domains.items()
    }
