"""The neural ACAS Xu controller: Pre, Post, lambda and their abstract
transformers (Section 4.3, Example 3; Fig. 5).

Pre-processing turns the sampled plant state ``(x, y, psi, v_own,
v_int)`` into the network input: cylindrical coordinates ``(rho,
theta)`` replace ``(x, y)``, then the vector is normalized. ``Pre#`` is
the interval (or affine) version of the same computation — sound by
construction on the interval substrate.

Post-processing is the argmin over the 5 advisory scores; ``Post#`` is
the sound possible-argmin of Section 6.3 (via
:func:`repro.verify.possible_argmin`). The selection function ``lambda``
is the identity: previous advisory index -> network index.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ArgminPost, CommandSet, Controller
from ..intervals import (
    AffineForm,
    Box,
    Interval,
    atan2_affine,
    iatan2,
    ihypot,
)
from ..intervals.batched import batan2, bhypot, bmul, bneg, bsub
from ..nn import Network
from ..verify import SymbolicPropagator
from .dynamics import PSI, V_INT, V_OWN, X, Y
from .mdp import ADVISORIES, TURN_RATES_DEG

#: Normalization constants (mean, range) per network input
#: (rho, theta, psi, v_own, v_int) — fixed once, shared by training,
#: concrete execution and the abstract transformer.
INPUT_MEANS = np.array([6000.0, 0.0, 0.0, 700.0, 600.0])
INPUT_RANGES = np.array([12000.0, 2.0 * math.pi, 9.0, 200.0, 200.0])

PRE_MODES = ("interval", "affine")


def normalize_inputs(raw: np.ndarray) -> np.ndarray:
    """Normalize raw (rho, theta, psi, v_own, v_int) rows or vectors."""
    return (np.asarray(raw, dtype=float) - INPUT_MEANS) / INPUT_RANGES


_INV_RANGES = 1.0 / INPUT_RANGES


def _normalize(raw_lo: np.ndarray, raw_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Pre#``'s normalization ``(raw - mean) * (1 / range)`` over raw
    ``(..., 5)`` endpoint arrays, rounded outward.

    An input whose interval is exactly the point ``INPUT_MEANS[i]`` (the
    scenario's constant speeds) maps to the exact point 0, which is
    sound because ``(m - m) * (1/r) = 0``. The outward nudges would
    instead give ``[-2**-1074, 2**-1074]``, and those subnormal
    endpoints slow down every BLAS product of ``F#`` that reads them.
    """
    shifted_lo, shifted_hi = bsub(raw_lo, raw_hi, INPUT_MEANS, INPUT_MEANS)
    out_lo, out_hi = bmul(shifted_lo, shifted_hi, _INV_RANGES, _INV_RANGES)
    # sound: ok [S003] exact point test: only an input that is exactly the
    # mean takes the exact result 0; every other input keeps the outward
    # rounded endpoints
    at_mean = (raw_lo == INPUT_MEANS) & (raw_hi == INPUT_MEANS)
    return np.where(at_mean, 0.0, out_lo), np.where(at_mean, 0.0, out_hi)


class AcasPre:
    """``Pre`` / ``Pre#``: cartesian -> cylindrical -> normalized.

    ``mode`` selects the abstract domain for ``Pre#``: plain interval
    arithmetic (the paper's choice, Section 6.6) or affine arithmetic
    (the alternative the paper cites [15]; tighter near the atan2
    nonlinearity, benchmarked in ablation A2/A4).
    """

    def __init__(self, mode: str = "interval"):
        if mode not in PRE_MODES:
            raise ValueError(f"unknown Pre# mode {mode!r}, pick from {PRE_MODES}")
        self.mode = mode

    def concrete(self, state: np.ndarray) -> np.ndarray:
        x, y = float(state[X]), float(state[Y])
        rho = math.hypot(x, y)
        theta = math.atan2(-x, y)
        raw = np.array([rho, theta, float(state[PSI]), float(state[V_OWN]), float(state[V_INT])])
        return normalize_inputs(raw)

    def abstract(self, box: Box) -> Box:
        if self.mode == "interval":
            rho, theta = self._polar_interval(box)
        else:
            rho, theta = self._polar_affine(box)
        raw = [rho, theta, box[PSI], box[V_OWN], box[V_INT]]
        lo, hi = _normalize(
            np.array([iv.lo for iv in raw]), np.array([iv.hi for iv in raw])
        )
        return Box(lo, hi)

    def abstract_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``Pre#`` over ``(B, 5)`` box-endpoint arrays at once.

        Bitwise identical to :meth:`abstract` row by row: every stage
        runs on the batched interval kernels, whose elementwise ops
        replay the scalar sequence exactly (:func:`batan2` keeps the
        atan2 corners on ``math.atan2``, as the scalar :func:`iatan2`
        does).
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if self.mode != "interval":
            boxes = [self.abstract(Box(lo[r], hi[r])) for r in range(lo.shape[0])]
            return np.stack([b.lo for b in boxes]), np.stack([b.hi for b in boxes])
        xlo, xhi = lo[:, X], hi[:, X]
        ylo, yhi = lo[:, Y], hi[:, Y]
        rho_lo, rho_hi = bhypot(xlo, xhi, ylo, yhi)
        theta_lo, theta_hi = batan2(*bneg(xlo, xhi), ylo, yhi)
        raw_lo = np.stack(
            [rho_lo, theta_lo, lo[:, PSI], lo[:, V_OWN], lo[:, V_INT]], axis=1
        )
        raw_hi = np.stack(
            [rho_hi, theta_hi, hi[:, PSI], hi[:, V_OWN], hi[:, V_INT]], axis=1
        )
        return _normalize(raw_lo, raw_hi)

    @staticmethod
    def _polar_interval(box: Box) -> tuple[Interval, Interval]:
        x, y = box[X], box[Y]
        rho = ihypot(x, y)
        theta = iatan2(-x, y)
        return rho, theta

    @staticmethod
    def _polar_affine(box: Box) -> tuple[Interval, Interval]:
        x = AffineForm.from_interval(box[X])
        y = AffineForm.from_interval(box[Y])
        rho_form = (x.sq() + y.sq()).sqrt()
        theta_form = atan2_affine(-x, y)
        rho = rho_form.to_interval().intersect(ihypot(box[X], box[Y]))
        theta = theta_form.to_interval().intersect(iatan2(-box[X], box[Y]))
        return rho, theta


def command_set() -> CommandSet:
    """The 5 advisories as turn-rate commands in rad/s (Example 1)."""
    values = np.array([[math.radians(r)] for r in TURN_RATES_DEG])
    return CommandSet(values, names=list(ADVISORIES))


def build_controller(
    networks: list[Network],
    pre_mode: str = "interval",
    relaxation: str = "reluval",
) -> Controller:
    """Assemble the 5-network ACAS Xu controller (Fig. 5)."""
    if len(networks) != len(ADVISORIES):
        raise ValueError(f"expected {len(ADVISORIES)} networks, got {len(networks)}")
    return Controller(
        networks=networks,
        commands=command_set(),
        pre=AcasPre(pre_mode),
        post=ArgminPost(),
        selector=lambda previous: previous,
        propagator_factory=lambda net: SymbolicPropagator(net, relaxation),
    )
