"""The closed-loop system model (Section 4, Fig. 2).

``ClosedLoopSystem`` combines a continuous-time :class:`Plant` with a
discrete-time :class:`Controller` through a signal sampler and a
zero-order hold. The controller follows the paper's generic shape: a
pre-processing, a bank of ReLU networks with a selection function
``λ`` keyed on the previous command, and a post-processing mapping
network scores to one of finitely many commands.

Every component carries both its *concrete* semantics (used by the
plain simulator and the falsifier) and its *abstract* semantics
(``Pre#``, ``F#``, ``Post#`` — used by the reachability procedure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from ..intervals import Box, BoxBatch
from ..nn import Network
from ..sets import SetSpec
from ..verify import (
    SymbolicPropagator,
    possible_argmax,
    possible_argmax_batch,
    possible_argmin,
    possible_argmin_batch,
)


class CommandSet:
    """The finite command set ``U = {u^(1), ..., u^(P)}`` (Section 4.1)."""

    def __init__(self, values: np.ndarray | Sequence[Sequence[float]], names: Sequence[str] | None = None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("command set must be a non-empty (P, d) array")
        self.values = arr
        if names is None:
            names = [f"u{i}" for i in range(arr.shape[0])]
        if len(names) != arr.shape[0]:
            raise ValueError("one name per command required")
        self.names = list(names)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value(self, index: int) -> np.ndarray:
        return self.values[index]

    def name(self, index: int) -> str:
        return self.names[index]

    def index_of(self, value: Sequence[float]) -> int:
        target = np.asarray(value, dtype=float).reshape(-1)
        for i in range(len(self)):
            if np.allclose(self.values[i], target):
                return i
        raise KeyError(f"{target} is not a command in this set")

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={v.tolist()}" for n, v in zip(self.names, self.values)
        )
        return f"CommandSet({pairs})"


# ----------------------------------------------------------------------
# Pre- and post-processing stages
# ----------------------------------------------------------------------
class PreProcessing(Protocol):
    """The controller's input stage ``Pre`` and its transformer ``Pre#``."""

    def concrete(self, state: np.ndarray) -> np.ndarray:
        ...

    def abstract(self, box: Box) -> Box:
        ...


class PostProcessing(Protocol):
    """The controller's output stage ``Post`` and its transformer ``Post#``.

    Concrete: network scores -> command index. Abstract: score box ->
    sound superset of reachable command indices.
    """

    def concrete(self, scores: np.ndarray) -> int:
        ...

    def abstract(self, score_box: Box) -> list[int]:
        ...


class IdentityPre:
    """Pre-processing that feeds the sampled state straight to the network."""

    def concrete(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float)

    def abstract(self, box: Box) -> Box:
        return box

    def abstract_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return lo, hi


class FunctionPre:
    """Pre-processing from an explicit concrete/abstract function pair."""

    def __init__(
        self,
        concrete_fn: Callable[[np.ndarray], np.ndarray],
        abstract_fn: Callable[[Box], Box],
    ):
        self._concrete = concrete_fn
        self._abstract = abstract_fn

    def concrete(self, state: np.ndarray) -> np.ndarray:
        return self._concrete(state)

    def abstract(self, box: Box) -> Box:
        return self._abstract(box)


class ArgminPost:
    """Post-processing ``u_{j+1} = u^(k)``, ``k = argmin(scores)``.

    This is the paper's canonical post-processing (Section 4.3) and the
    one ACAS Xu uses. The abstract version returns every command index
    whose score could attain the minimum.
    """

    def concrete(self, scores: np.ndarray) -> int:
        return int(np.argmin(scores))

    def abstract(self, score_box: Box) -> list[int]:
        return possible_argmin(score_box)

    def abstract_batch(self, lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
        """:meth:`abstract` of every row of ``(B, P)`` score bounds."""
        return possible_argmin_batch(lo, hi)


class ArgmaxPost:
    """Dual of :class:`ArgminPost` for max-score conventions."""

    def concrete(self, scores: np.ndarray) -> int:
        return int(np.argmax(scores))

    def abstract(self, score_box: Box) -> list[int]:
        return possible_argmax(score_box)

    def abstract_batch(self, lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
        """:meth:`abstract` of every row of ``(B, P)`` score bounds."""
        return possible_argmax_batch(lo, hi)


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class Controller:
    """The neural-network based controller ``N`` (Section 4.3).

    ``selector`` is the paper's ``λ``: it maps the previous command
    index to the index of the network to execute. With a single network
    the selector is constant (the simple case handled by prior work);
    ACAS Xu uses the identity (one network per previous advisory).
    """

    def __init__(
        self,
        networks: Sequence[Network],
        commands: CommandSet,
        pre: PreProcessing | None = None,
        post: PostProcessing | None = None,
        selector: Callable[[int], int] | None = None,
        propagator_factory: Callable[[Network], object] = SymbolicPropagator,
    ):
        if not networks:
            raise ValueError("a controller needs at least one network")
        self.networks = list(networks)
        self.commands = commands
        self.pre = pre or IdentityPre()
        self.post = post or ArgminPost()
        self.selector = selector or (lambda command: 0)
        self.propagators = [propagator_factory(n) for n in self.networks]
        for index in range(len(commands)):
            chosen = self.selector(index)
            if not 0 <= chosen < len(self.networks):
                raise ValueError(
                    f"selector maps command {index} to invalid network {chosen}"
                )

    # Concrete semantics -------------------------------------------------
    def execute(self, state: np.ndarray, previous_command: int) -> int:
        """One control step: returns the next command index."""
        network = self.networks[self.selector(previous_command)]
        x = self.pre.concrete(state)
        y = network.forward(x)
        return self.post.concrete(y)

    # Abstract semantics (Section 6.3, step 2) ---------------------------
    def execute_abstract(self, box: Box, previous_command: int) -> list[int]:
        """Sound superset of next command indices from a state box."""
        index = self.selector(previous_command)
        x_box = self.pre.abstract(box)
        y_box = self.propagators[index](x_box)
        return self.post.abstract(y_box)

    def execute_abstract_batch(
        self, boxes: Sequence[Box], previous_commands: Sequence[int]
    ) -> list[list[int]]:
        """Batched :meth:`execute_abstract`: one pass over the whole wave.

        ``Pre#`` runs once over every row (the pre-processor's
        ``abstract_batch``, else row by row). ``F#`` is one stacked
        ``output_bounds_batch`` call whatever network each row selects
        when the propagators stack (one layer architecture, ReluVal:
        ``SymbolicPropagator.can_stack``); other propagators run once
        per selected network over its rows. ``Post#`` is one array
        comparison when the post-processor offers ``abstract_batch``.
        Row ``i`` of the result is identical to
        ``execute_abstract(boxes[i], previous_commands[i])``: every stage
        is bitwise exact per row."""
        if not boxes:
            return []
        lo = np.stack([b.lo for b in boxes])
        hi = np.stack([b.hi for b in boxes])
        pre_batch = getattr(self.pre, "abstract_batch", None)
        if pre_batch is not None:
            x_lo, x_hi = pre_batch(lo, hi)
        else:
            x_boxes = [self.pre.abstract(b) for b in boxes]
            x_lo = np.stack([b.lo for b in x_boxes])
            x_hi = np.stack([b.hi for b in x_boxes])
        select = np.array([self.selector(c) for c in previous_commands], dtype=int)
        leader = self.propagators[0]
        can_stack = getattr(leader, "can_stack", None)
        if can_stack is not None and can_stack(self.propagators):
            y_lo, y_hi = leader.output_bounds_batch(x_lo, x_hi, self.networks, select)
        else:
            y_lo, y_hi = self._scores_per_network(x_lo, x_hi, select)
        post_batch = getattr(self.post, "abstract_batch", None)
        if post_batch is not None:
            return post_batch(y_lo, y_hi)
        return [self.post.abstract(Box(l, h)) for l, h in zip(y_lo, y_hi)]

    def _scores_per_network(
        self, x_lo: np.ndarray, x_hi: np.ndarray, select: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``F#`` for propagators that do not stack: one call per
        selected network over its rows (``output_bounds_batch`` when the
        propagator has one, else row by row), put back in row order."""
        groups = [np.flatnonzero(select == index) for index in np.unique(select)]
        scores = []
        for rows in groups:
            propagator = self.propagators[select[rows[0]]]
            batched = getattr(propagator, "output_bounds_batch", None)
            if batched is not None:
                group_scores = batched(x_lo[rows], x_hi[rows])
            else:
                y_boxes = [propagator(Box(x_lo[r], x_hi[r])) for r in rows]
                group_scores = (
                    np.stack([b.lo for b in y_boxes]),
                    np.stack([b.hi for b in y_boxes]),
                )
            # sound: ok [S008] finished score bounds kept for reordering,
            # no arithmetic on them
            scores.append(group_scores)
        unsorted = np.argsort(np.concatenate(groups))
        return (
            np.concatenate([s[0] for s in scores])[unsorted],
            np.concatenate([s[1] for s in scores])[unsorted],
        )

    def abstract_scores(self, box: Box, previous_command: int) -> Box:
        """The intermediate ``[y_j]`` score box (diagnostics/tests)."""
        index = self.selector(previous_command)
        return self.propagators[index](self.pre.abstract(box))


# ----------------------------------------------------------------------
# Plant and closed loop
# ----------------------------------------------------------------------
class Plant:
    """The continuous-time plant ``P`` with a validated integrator.

    ``integrator`` must provide ``integrate(t0, t1, box, u, substeps)``
    returning a :class:`~repro.ode.ivp.FlowPipe` —
    :class:`~repro.ode.TaylorIntegrator` or an analytic flow.
    ``simulate_point`` provides the concrete semantics used by the
    baselines (high-accuracy scipy integration).
    """

    def __init__(self, system, integrator):
        self.system = system
        self.integrator = integrator

    @property
    def dim(self) -> int:
        return self.system.dim

    def flow(self, t0: float, t1: float, box: Box, u: np.ndarray, substeps: int):
        return self.integrator.integrate(t0, t1, box, u, substeps=substeps)

    def flow_batch(
        self,
        t0: float,
        t1: float,
        boxes: BoxBatch,
        u_rows: np.ndarray,
        substeps: int,
    ):
        """Batched :meth:`flow`: one tube per row of ``boxes``, with
        per-row commands. Integrators without an ``integrate_batch``
        (Taylor, mean-value) are integrated row by row."""
        batched = getattr(self.integrator, "integrate_batch", None)
        if batched is not None:
            return batched(t0, t1, boxes, u_rows, substeps=substeps)
        from ..ode.ivp import FlowPipeBatch

        pipes = [
            self.integrator.integrate(
                t0, t1, boxes.row(i), u_rows[i], substeps=substeps
            )
            for i in range(boxes.count)
        ]
        steps = [p.steps for p in pipes]
        return FlowPipeBatch(
            t_starts=np.array([s.t_start for s in steps[0]]),
            t_ends=np.array([s.t_end for s in steps[0]]),
            range_lo=np.stack(
                [[s.range_box.lo for s in row] for row in steps], axis=1
            ),
            range_hi=np.stack(
                [[s.range_box.hi for s in row] for row in steps], axis=1
            ),
            end_lo=np.stack([[s.end_box.lo for s in row] for row in steps], axis=1),
            end_hi=np.stack([[s.end_box.hi for s in row] for row in steps], axis=1),
        )

    def simulate_point(
        self, t0: float, t1: float, state: np.ndarray, u: np.ndarray, rtol: float = 1e-10
    ) -> np.ndarray:
        from scipy.integrate import solve_ivp

        sol = solve_ivp(
            lambda t, s: self.system.eval_point(t, s, u),
            (t0, t1),
            np.asarray(state, dtype=float),
            rtol=rtol,
            atol=1e-12,
        )
        return sol.y[:, -1]


@dataclass
class ClosedLoopSystem:
    """The closed loop ``C = (P, N)`` with its safety context.

    * ``period`` — the controller period ``T``;
    * ``erroneous`` — the set ``E`` (states causing a failure);
    * ``target`` — the set ``T`` (mission accomplished, loop terminates);
    * ``horizon_steps`` — ``q`` with ``τ = q * period``.
    """

    plant: Plant
    controller: Controller
    period: float
    erroneous: SetSpec
    target: SetSpec
    horizon_steps: int
    name: str = "closed-loop"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError("controller period must be positive")
        if self.horizon_steps < 1:
            raise ValueError("horizon must cover at least one control step")

    @property
    def commands(self) -> CommandSet:
        return self.controller.commands

    @property
    def horizon(self) -> float:
        """The time horizon τ = q T."""
        return self.horizon_steps * self.period
