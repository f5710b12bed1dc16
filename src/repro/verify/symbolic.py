"""Symbolic interval propagation through ReLU networks (ReluVal-style).

This is the abstract transformer the paper uses for ``F#`` (Section
6.6, via ReluVal [25]). For every neuron we maintain a *lower* and an
*upper* linear form in the network inputs, plus a non-negative slack
that soundly absorbs floating-point rounding:

    lo_form(x) - slack  <=  neuron(x)  <=  up_form(x) + slack

Affine layers transform the forms exactly (up to tracked rounding);
ReLUs concretize only the *unstable* neurons, which is what makes
symbolic propagation dramatically tighter than plain IBP on correlated
inputs.

Two ReLU relaxations are provided:

* ``"reluval"`` — Wang et al.'s original rule (lower form -> 0, upper
  form kept or concretized);
* ``"deeppoly"`` — slope relaxation ``u*(x - l)/(u - l)`` for the upper
  bound and an area-minimizing binary slope for the lower bound
  (Singh et al. [24], cited by the paper as the alternative domain).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..intervals import Box
from ..intervals.linalg import dot_error_bound
from ..nn import Network
from ..obs import get_recorder

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

RELAXATIONS = ("reluval", "deeppoly")


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` rowwise, supporting stacked (batched) operands.

    For the plain 2-D/1-D case this is literally ``m @ v`` (the scalar
    code path, unchanged floats). With a leading batch axis on either
    operand it becomes ``matmul(m, v[..., None])[..., 0]``, which numpy
    evaluates as the same GEMV slice by slice — bitwise identical to
    the per-row products (verified by the batched/scalar equivalence
    tests)."""
    if m.ndim == 2 and v.ndim == 1:
        return m @ v
    return np.matmul(m, v[..., None])[..., 0]


@dataclass
class LinearBounds:
    """Per-neuron linear lower/upper forms over the network inputs.

    ``lo_coeffs`` has shape ``(k, n)`` and ``lo_const`` shape ``(k,)``
    for ``k`` neurons over ``n`` inputs; similarly for the upper forms.
    ``slack`` (shape ``(k,)``, non-negative) bounds all accumulated
    rounding error of evaluating the forms over the current input box.
    """

    lo_coeffs: np.ndarray
    lo_const: np.ndarray
    up_coeffs: np.ndarray
    up_const: np.ndarray
    slack: np.ndarray

    @staticmethod
    def identity(n: int) -> "LinearBounds":
        eye = np.eye(n)
        zeros = np.zeros(n)
        return LinearBounds(eye.copy(), zeros.copy(), eye.copy(), zeros.copy(), zeros.copy())

    @staticmethod
    def identity_batch(n: int, batch: int) -> "LinearBounds":
        """Identity forms for a stack of ``batch`` input boxes: every
        array gains a leading batch axis; the affine/ReLU transformers
        below are shape-polymorphic over it."""
        eye = np.tile(np.eye(n), (batch, 1, 1))
        zeros = np.zeros((batch, n))
        return LinearBounds(eye, zeros.copy(), eye.copy(), zeros.copy(), zeros.copy())

    def rows(self, rows: slice) -> "LinearBounds":
        """The forms of a slice of a stack's rows (views, no copies)."""
        return LinearBounds(
            self.lo_coeffs[rows],
            self.lo_const[rows],
            self.up_coeffs[rows],
            self.up_const[rows],
            self.slack[rows],
        )

    def set_rows(self, rows: slice, part: "LinearBounds") -> None:
        """Copy ``part`` into a slice of this stack's rows."""
        for name in ("lo_coeffs", "lo_const", "up_coeffs", "up_const", "slack"):
            getattr(self, name)[rows] = getattr(part, name)

    @staticmethod
    def empty(batch: int, k: int, n: int) -> "LinearBounds":
        """Uninitialized forms of ``k`` neurons over ``n`` inputs for a
        stack of ``batch`` boxes."""
        return LinearBounds(
            np.empty((batch, k, n)),
            np.empty((batch, k)),
            np.empty((batch, k, n)),
            np.empty((batch, k)),
            np.empty((batch, k)),
        )

    def concretize(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sound concrete bounds of the forms over the box ``[lo, hi]``."""
        out_lo, out_hi, _ = self._concretize(lo, hi, up_form_lower=False)
        return out_lo, out_hi

    def _concretize(
        self, lo: np.ndarray, hi: np.ndarray, up_form_lower: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """:meth:`concretize`, plus (if ``up_form_lower``) the sound lower
        bound of the *upper* form that ReluVal's ReLU rule tests, sharing
        the sign splits and the rounding majorizer of the upper form.

        The lower form's sign splits are dropped before the upper form's
        are built, so a stacked call holds two coefficient-sized
        temporaries here, not four."""
        xmag = np.maximum(np.abs(lo), np.abs(hi))
        err_lo = dot_error_bound(np.abs(self.lo_coeffs), xmag) + np.abs(self.lo_const) * _EPS
        lo_pos = np.maximum(self.lo_coeffs, 0.0)
        lo_neg = np.minimum(self.lo_coeffs, 0.0)
        # sound: ok [S001] nearest-mode affine evaluation; the err_lo /
        # err_up rounding majorizers and the gamma_n slack subtracted /
        # added here dominate the accumulated float error, and the
        # outward nextafter below absorbs the final rounding
        out_lo = _matvec(lo_pos, lo) + _matvec(lo_neg, hi) + self.lo_const - err_lo - self.slack
        del lo_pos, lo_neg
        err_up = dot_error_bound(np.abs(self.up_coeffs), xmag) + np.abs(self.up_const) * _EPS
        up_pos = np.maximum(self.up_coeffs, 0.0)
        up_neg = np.minimum(self.up_coeffs, 0.0)
        # sound: ok [S001] same majorizer argument as out_lo above
        out_hi = _matvec(up_pos, hi) + _matvec(up_neg, lo) + self.up_const + err_up + self.slack
        up_lo = None
        if up_form_lower:
            # sound: ok [S001] the upper form's lower bound, with the same
            # err_up majorizer, slack and outward nextafter as out_lo above
            up_lo = _matvec(up_pos, lo) + _matvec(up_neg, hi) + self.up_const - err_up - self.slack
            up_lo = np.nextafter(up_lo, -np.inf)
        return np.nextafter(out_lo, -np.inf), np.nextafter(out_hi, np.inf), up_lo

    def value_magnitude(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per-neuron magnitude bound of the forms over the box."""
        xmag = np.maximum(np.abs(lo), np.abs(hi))
        # sound: ok [S001] magnitude majorizer feeding the gamma_n slack
        mag_lo = _matvec(np.abs(self.lo_coeffs), xmag) + np.abs(self.lo_const)
        mag_up = _matvec(np.abs(self.up_coeffs), xmag) + np.abs(self.up_const)
        return np.maximum(mag_lo, mag_up) + self.slack


def _affine_transform(
    bounds: LinearBounds, w: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> LinearBounds:
    """Push linear bounds through an affine layer ``W x + b``."""
    return _affine_rows(bounds, w, b, bounds.value_magnitude(lo, hi), _slack_gamma(w))


def _slack_gamma(w: np.ndarray) -> float:
    """The gamma_n relative error bound (slack factor 2) of a layer's
    products: each pre-activation sums its fan-in plus two more terms."""
    n_terms = w.shape[1] + 2
    nu = n_terms * _EPS
    return 2.0 * nu / (1.0 - nu)


def _affine_rows(
    bounds: LinearBounds,
    w: np.ndarray,
    b: np.ndarray,
    vals_mag: np.ndarray,
    gamma: float,
) -> LinearBounds:
    """:func:`_affine_transform` given the two inputs that every network
    of a stack shares: the forms' ``value_magnitude`` and the layer's
    ``gamma``."""
    w_pos = np.maximum(w, 0.0)
    w_neg = np.minimum(w, 0.0)
    new_lo_coeffs = w_pos @ bounds.lo_coeffs + w_neg @ bounds.up_coeffs
    # sound: ok [S001] nearest-mode matvecs covered by the gamma_n slack below
    new_lo_const = _matvec(w_pos, bounds.lo_const) + _matvec(w_neg, bounds.up_const) + b
    new_up_coeffs = w_pos @ bounds.up_coeffs + w_neg @ bounds.lo_coeffs
    # sound: ok [S001] nearest-mode matvecs covered by the gamma_n slack below
    new_up_const = _matvec(w_pos, bounds.up_const) + _matvec(w_neg, bounds.lo_const) + b

    # Rounding slack: the pre-activation values have magnitude at most
    # |W| @ mag(old forms) + |b|; the matrix products incur a gamma_n
    # relative error on that magnitude.
    abs_w = np.abs(w)
    new_slack = _matvec(abs_w, bounds.slack) + gamma * (_matvec(abs_w, vals_mag) + np.abs(b)) + _TINY
    return LinearBounds(new_lo_coeffs, new_lo_const, new_up_coeffs, new_up_const, new_slack)


def _affine_stacked(
    bounds: LinearBounds,
    layers: list[tuple[np.ndarray, np.ndarray]],
    runs: list[slice],
    gamma: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> LinearBounds:
    """:func:`_affine_transform` over a stack whose rows select different
    networks of one architecture: ``layers[g]`` is the ``(w, b)`` of the
    network that the contiguous rows ``runs[g]`` select. The forms'
    magnitude is taken once over the whole stack; only the weight
    products are split by network, and each network's new forms are
    copied into their rows as soon as they are built."""
    vals_mag = bounds.value_magnitude(lo, hi)
    if len(layers) == 1:
        w, b = layers[0]
        return _affine_rows(bounds, w, b, vals_mag, gamma)
    out = LinearBounds.empty(
        bounds.slack.shape[0], layers[0][0].shape[0], bounds.lo_coeffs.shape[-1]
    )
    for (w, b), rows in zip(layers, runs):
        out.set_rows(rows, _affine_rows(bounds.rows(rows), w, b, vals_mag[rows], gamma))
    return out


def _relu_reluval(
    bounds: LinearBounds, lo: np.ndarray, hi: np.ndarray
) -> LinearBounds:
    """ReluVal's ReLU rule on the linear bounds."""
    conc_lo, conc_hi, up_form_lo = bounds._concretize(lo, hi, up_form_lower=True)

    inactive = conc_hi <= 0.0
    active = conc_lo >= 0.0
    unstable = ~inactive & ~active
    # Inactive: the neuron is exactly 0. Unstable: relu(x) >= 0 (lower
    # form -> 0); the upper form survives only if it is non-negative on
    # the whole box, otherwise it is concretized to the constant upper
    # bound.
    concretize_up = unstable & (up_form_lo < 0.0)
    drop_lo = inactive | unstable
    drop_up = inactive | concretize_up
    up_const = np.where(concretize_up, np.maximum(conc_hi, 0.0), bounds.up_const)
    return LinearBounds(
        np.where(drop_lo[..., None], 0.0, bounds.lo_coeffs),
        np.where(drop_lo, 0.0, bounds.lo_const),
        np.where(drop_up[..., None], 0.0, bounds.up_coeffs),
        np.where(inactive, 0.0, up_const),
        np.where(drop_up, 0.0, bounds.slack),
    )


def _relu_deeppoly(
    bounds: LinearBounds, lo: np.ndarray, hi: np.ndarray
) -> LinearBounds:
    """DeepPoly's slope relaxation on the linear bounds."""
    conc_lo, conc_hi = bounds.concretize(lo, hi)
    inactive = conc_hi <= 0.0
    active = conc_lo >= 0.0
    unstable = ~inactive & ~active

    new = LinearBounds(
        bounds.lo_coeffs.copy(),
        bounds.lo_const.copy(),
        bounds.up_coeffs.copy(),
        bounds.up_const.copy(),
        bounds.slack.copy(),
    )
    new.lo_coeffs[inactive] = 0.0
    new.lo_const[inactive] = 0.0
    new.up_coeffs[inactive] = 0.0
    new.up_const[inactive] = 0.0
    new.slack[inactive] = 0.0

    if np.any(unstable):
        lo_u = conc_lo[unstable]
        u = conc_hi[unstable]
        # Upper: relu(x) <= u*(x - l)/(u - l), applied to the upper form.
        mu = u / (u - lo_u)
        mu = np.nextafter(mu, np.inf)  # outward rounding of the slope
        offset = -mu * lo_u
        offset = np.nextafter(offset, np.inf)
        new.up_coeffs[unstable] = bounds.up_coeffs[unstable] * mu[:, None]
        new.up_const[unstable] = bounds.up_const[unstable] * mu + offset
        # Lower: relu(x) >= lambda*x with lambda in {0, 1}; pick the
        # area-minimizing slope as in DeepPoly.
        lam = (u > -lo_u).astype(float)
        new.lo_coeffs[unstable] = bounds.lo_coeffs[unstable] * lam[:, None]
        new.lo_const[unstable] = bounds.lo_const[unstable] * lam
        # Slack: scaled by the slopes, plus ulp-level noise from the
        # slope arithmetic itself.
        xmag = np.maximum(np.abs(lo), np.abs(hi))
        mag = np.abs(bounds.up_coeffs[unstable]) @ xmag + np.abs(bounds.up_const[unstable])
        new.slack[unstable] = (
            bounds.slack[unstable] * np.maximum(mu, 1.0)
            + 8.0 * _EPS * (mag * mu + np.abs(offset))
            + _TINY
        )
    return new


#: Rows per pass of :meth:`SymbolicPropagator.output_bounds_batch`. A
#: pass holds a few (rows x width x inputs) coefficient arrays at once;
#: 256 rows keep a pass within what one network's rows of a lockstep
#: wave took when each network had its own call.
STACK_ROWS = 256


def _layer_shapes(network: Network) -> list[tuple[int, ...]]:
    return [w.shape for w in network.weights]


class SymbolicPropagator:
    """Callable ``F#``: symbolic interval propagation over an input box."""

    def __init__(self, network: Network, relaxation: str = "reluval"):
        if relaxation not in RELAXATIONS:
            raise ValueError(f"unknown relaxation {relaxation!r}, pick from {RELAXATIONS}")
        self.network = network
        self.relaxation = relaxation
        self.name = f"symbolic-{relaxation}"

    def __call__(self, input_box: Box) -> Box:
        lo_out, hi_out = self.output_bounds(input_box)
        return Box(lo_out, hi_out)

    def can_stack(self, others: Sequence[object]) -> bool:
        """Whether one :meth:`output_bounds_batch` call of this propagator
        can carry the rows of every propagator in ``others``: all must be
        ReluVal symbolic propagators over networks of this network's
        layer shapes. DeepPoly has no stacked form (its slack update
        indexes per-box magnitudes under a flattened unstable mask)."""
        shapes = _layer_shapes(self.network)
        return all(
            isinstance(p, SymbolicPropagator)
            and p.relaxation == "reluval"
            and _layer_shapes(p.network) == shapes
            for p in [self, *others]
        )

    def _propagate(
        self,
        bounds: LinearBounds,
        lo: np.ndarray,
        hi: np.ndarray,
        networks: list[Network] | None = None,
        runs: list[slice] | None = None,
    ) -> LinearBounds:
        """Push ``bounds`` through every layer (ReLU after all but the
        last), timing each layer into ``verify.layer_seconds`` when the
        recorder is on. A stack whose rows select different networks
        passes them as ``networks[g]`` for the contiguous rows
        ``runs[g]`` (default: every row through this network)."""
        networks = networks or [self.network]
        runs = runs or [slice(None)]
        relu_rule = _relu_reluval if self.relaxation == "reluval" else _relu_deeppoly
        rec = get_recorder()
        last = len(self.network.weights) - 1
        for i in range(last + 1):
            tick = time.perf_counter() if rec.enabled else 0.0
            layers = [(net.weights[i], net.biases[i]) for net in networks]
            gamma = _slack_gamma(self.network.weights[i])
            bounds = _affine_stacked(bounds, layers, runs, gamma, lo, hi)
            if i < last:
                bounds = relu_rule(bounds, lo, hi)
            if rec.enabled:
                rec.observe("verify.layer_seconds", time.perf_counter() - tick)
        return bounds

    def output_bounds(self, input_box: Box) -> tuple[np.ndarray, np.ndarray]:
        """Concrete output bounds (lower, upper arrays)."""
        network = self.network
        if input_box.dim != network.input_size:
            raise ValueError(
                f"input box has dimension {input_box.dim}, network expects "
                f"{network.input_size}"
            )
        lo, hi = input_box.lo, input_box.hi
        get_recorder().inc("verify.propagations")
        bounds = self._propagate(LinearBounds.identity(network.input_size), lo, hi)
        out_lo, out_hi = bounds.concretize(lo, hi)
        # Safety net: bounds crossing by rounding noise would be a bug;
        # normalize the (never observed) pathological case soundly.
        out_hi = np.maximum(out_hi, out_lo)
        return out_lo, out_hi

    def output_bounds_batch(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        networks: Sequence[Network] | None = None,
        select: Sequence[int] | np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`output_bounds` over ``(B, n)`` box endpoints.

        Row ``b`` goes through ``networks[select[b]]`` (by default every
        row goes through this propagator's network); the networks must
        have this network's layer shapes (:meth:`can_stack`). The rows
        are sorted by network once, then every layer runs once over the
        whole stack: the concretizations, the ReLU rule and the rounding
        slack are shape-polymorphic over the leading batch axis, and
        only the weight products are split, one per network over its
        contiguous rows. numpy evaluates stacked matrix products slice
        by slice, so row ``b`` of the result is bitwise identical to
        ``output_bounds(Box(lo[b], hi[b]))`` through its network. This
        is the controller-propagation kernel of the lockstep
        reachability driver.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        network = self.network
        if lo.ndim != 2 or lo.shape[1] != network.input_size:
            raise ValueError(
                f"expected (B, {network.input_size}) endpoint arrays, "
                f"got {lo.shape}"
            )
        if networks is None:
            networks = [network]
            select = np.zeros(lo.shape[0], dtype=int)
        select = np.asarray(select, dtype=int)
        if select.shape != (lo.shape[0],):
            raise ValueError("select needs one network index per row")
        if lo.shape[0] == 0:
            return np.empty((0, network.output_size)), np.empty((0, network.output_size))
        if select.min() < 0 or select.max() >= len(networks):
            raise ValueError(f"select indices must lie in [0, {len(networks)})")
        if self.relaxation != "reluval":
            if any(n is not network for n in networks):
                raise ValueError("DeepPoly has no stacked form over several networks")
            outs = [
                self.output_bounds(Box(lo[b], hi[b])) for b in range(lo.shape[0])
            ]
            return np.stack([o[0] for o in outs]), np.stack([o[1] for o in outs])
        if any(_layer_shapes(n) != _layer_shapes(network) for n in networks):
            raise ValueError("stacked networks must share this network's layer shapes")
        get_recorder().inc("verify.propagations", lo.shape[0])
        order = np.argsort(select, kind="stable")
        select, lo, hi = select[order], lo[order], hi[order]
        passes = []
        for first in range(0, lo.shape[0], STACK_ROWS):
            rows = slice(first, first + STACK_ROWS)
            # Network g's rows of the sorted pass are edges[g]:edges[g + 1].
            edges = np.searchsorted(select[rows], range(len(networks) + 1)).tolist()
            spans = [
                (net, slice(start, stop))
                for net, start, stop in zip(networks, edges, edges[1:])
                if start < stop
            ]
            bounds = self._propagate(
                LinearBounds.identity_batch(network.input_size, len(select[rows])),
                lo[rows],
                hi[rows],
                [net for net, _run in spans],
                [run for _net, run in spans],
            )
            passes.append(bounds.concretize(lo[rows], hi[rows]))
            del bounds
        out_lo = np.concatenate([p[0] for p in passes])
        out_hi = np.maximum(np.concatenate([p[1] for p in passes]), out_lo)
        unsorted = np.argsort(order)
        return out_lo[unsorted], out_hi[unsorted]

    def input_gradient_mask(self, input_box: Box) -> np.ndarray:
        """Per-input influence scores (|coeff| magnitudes of the output
        forms), used by influence-guided splitting (Section 8 future
        work)."""
        bounds = self._propagate(
            LinearBounds.identity(self.network.input_size), input_box.lo, input_box.hi
        )
        influence = np.abs(bounds.lo_coeffs) + np.abs(bounds.up_coeffs)
        return influence.sum(axis=0)
