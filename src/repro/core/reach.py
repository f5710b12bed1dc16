"""The reachability procedure (Section 6.3, Algorithms 1 and 3).

Starting from a symbolic set enclosing the initial states, the
procedure alternates, for each control step ``j``:

1. **Plant over-approximation** (Algorithm 1 / SIMULATE): validated
   simulation of the flow over ``[jT, (j+1)T]`` in ``M`` substeps,
   yielding the over-the-period tube ``[s_[j[]`` and the endpoint box
   ``[s_{j+1}]``;
2. **Controller over-approximation**: ``Pre#`` then ``F#`` of the
   network selected by ``λ(u_j)`` then ``Post#``, yielding the set of
   reachable next commands;

with the RESIZE join heuristic (Algorithm 2) bounding the number of
symbolic states by ``Γ``, and the termination mechanism that stops
propagating symbolic states wholly inside the target set ``T``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from ..intervals import Box, BoxBatch
from ..obs import get_recorder
from ..sets import resolve_for_command
from .symbolic import SymbolicSet, SymbolicState, resize
from .system import ClosedLoopSystem


class Verdict(enum.Enum):
    """Outcome of a reachability run (Algorithm 3's return value,
    refined into three cases)."""

    #: No reachable state meets E and the loop provably terminated:
    #: Algorithm 3 returns True.
    PROVED_SAFE = "proved-safe"
    #: No reachable state meets E within the horizon, but termination
    #: could not be established (hasTerminated is False).
    SAFE_WITHIN_HORIZON = "safe-within-horizon"
    #: Some over-approximate state meets E: the proof attempt fails
    #: (the system may still be safe — the approximation was too loose).
    POSSIBLY_UNSAFE = "possibly-unsafe"
    #: Quarantine verdicts assigned by the campaign runner, never by
    #: the reachability procedure itself: the cell's verification did
    #: not complete. Both count as unproved for coverage; the failure
    #: reason rides in ``CellResult.tags["failure"]``.
    #: The worker crashed (repeatedly) or the procedure raised.
    ABORTED = "aborted"
    #: The cell exceeded its wall-clock budget and was cut off.
    TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class ReachSettings:
    """Tuning of the procedure: the paper's ``M`` and ``Γ`` plus
    bookkeeping switches."""

    #: Number of validated-integration substeps per control period
    #: (Section 6.4 "improving precision", Fig. 7).
    substeps: int = 10
    #: Threshold Γ on the number of symbolic states per step
    #: (Section 6.4 "improving time complexity", Algorithm 2).
    max_symbolic_states: int = 5
    #: Stop at the first possible E-intersection (cheaper) or keep
    #: going to map every unsafe step (diagnostics).
    early_exit_on_unsafe: bool = True
    #: Record the per-step symbolic sets and flow tubes in the result.
    record_sets: bool = False
    #: Accepted and ignored: every run takes the one lockstep driver.
    #: Kept only because the campaign benchmark still passes it.
    batch_states: bool = False

    def __post_init__(self) -> None:
        if self.substeps < 1:
            raise ValueError("substeps (M) must be >= 1")
        if self.max_symbolic_states < 1:
            raise ValueError("max_symbolic_states (Γ) must be >= 1")


@dataclass
class TubeSegment:
    """One recorded piece of ``R_[j[``: a time window, box and command."""

    t_start: float
    t_end: float
    box: Box
    command: int


@dataclass
class ReachResult:
    """Everything Algorithm 3 produces, plus diagnostics."""

    verdict: Verdict
    has_terminated: bool
    termination_step: int | None
    steps_completed: int
    joins_performed: int = 0
    integrations: int = 0
    controller_evaluations: int = 0
    elapsed_seconds: float = 0.0
    #: First time window possibly meeting E (None when safe).
    unsafe_time: float | None = None
    unsafe_command: int | None = None
    #: Recorded per-step symbolic sets R_0 .. R_jend (record_sets only).
    step_sets: list[SymbolicSet] = field(default_factory=list)
    #: Recorded flow-tube segments (record_sets only).
    tube: list[TubeSegment] = field(default_factory=list)

    @property
    def proved_safe(self) -> bool:
        """Algorithm 3 line 31: safe until termination."""
        return self.verdict is Verdict.PROVED_SAFE

    @property
    def no_error_reached(self) -> bool:
        return self.verdict is not Verdict.POSSIBLY_UNSAFE


def reach(
    system: ClosedLoopSystem,
    initial: SymbolicSet,
    settings: ReachSettings | None = None,
) -> ReachResult:
    """Run Algorithm 3 from the initial symbolic set ``R_0 ⊇ I``: a
    one-row :func:`reach_many`."""
    return reach_many(system, [initial], settings)[0]


@dataclass
class _LiveCell:
    """Bookkeeping for one initial set inside :func:`reach_many`."""

    current: SymbolicSet
    result: ReachResult
    finished: bool = False
    unsafe_found: bool = False
    active: list[SymbolicState] = field(default_factory=list)
    row_start: int = 0
    survivors: int = 0
    elapsed: float = 0.0


def reach_many(
    system: ClosedLoopSystem,
    initial_sets: list[SymbolicSet],
    settings: ReachSettings | None = None,
) -> list[ReachResult]:
    """Run Algorithm 3 on many initial sets in lockstep.

    All runs advance through the control steps together: at step ``j``
    every live run's active symbolic states are concatenated into one
    :class:`~repro.intervals.batched.BoxBatch` and flowed through a
    single ``Plant.flow_batch`` call, and every surviving state goes
    through one ``execute_abstract_batch`` call. Joins, termination and
    the unsafe scan stay per run, so each :class:`ReachResult` is the
    one its initial set gets alone (:func:`reach` is the one-row call).

    ``elapsed_seconds`` is exact for a run alone in its call. In a
    wave of several runs, each run is charged its own bookkeeping plus
    a row-proportional share of the shared integrator and controller
    calls.
    """
    settings = settings or ReachSettings()
    num_commands = len(system.commands)
    if settings.max_symbolic_states < num_commands:
        raise ValueError(
            f"Γ = {settings.max_symbolic_states} must be at least the number "
            f"of commands P = {num_commands} (Remark 3)"
        )
    for initial in initial_sets:
        if len(initial) == 0:
            raise ValueError("an initial symbolic set is empty")

    rec = get_recorder()
    started = time.perf_counter()
    period = system.period
    target = system.target
    erroneous = system.erroneous

    cells: list[_LiveCell] = []
    for initial in initial_sets:
        result = ReachResult(
            verdict=Verdict.SAFE_WITHIN_HORIZON,
            has_terminated=False,
            termination_step=None,
            steps_completed=0,
        )
        current = initial.copy()
        if settings.record_sets:
            result.step_sets.append(current.copy())
        cells.append(_LiveCell(current=current, result=result))

    for j in range(system.horizon_steps):
        live = [c for c in cells if not c.finished]
        if not live:
            break

        # --- join + termination filter, per cell
        batch_rows = 0
        for cell in live:
            tick = time.perf_counter()
            current = cell.current
            result = cell.result
            with rec.span("join", step=j, states=len(current)):
                joins = resize(current, settings.max_symbolic_states)
            result.joins_performed += joins
            if joins:
                rec.inc("reach.joins", joins)
            # E and T may be command-dependent (subsets of R^l x U,
            # Section 4.1): resolve them against each state's concrete
            # command (exact, since symbolic states carry commands).
            with rec.span("terminate", step=j):
                active = [
                    s
                    for s in current
                    if not resolve_for_command(target, s.command).contains_box(s.box)
                ]
            if not active:
                result.has_terminated = True
                result.termination_step = j
                cell.finished = True
            else:
                cell.active = active
                cell.row_start = batch_rows
                batch_rows += len(active)
            cell.elapsed += time.perf_counter() - tick
        live = [c for c in live if not c.finished]
        if not live:
            continue

        # --- one batched integrator call over the whole wave
        all_states = [s for cell in live for s in cell.active]
        boxes = BoxBatch.from_boxes([s.box for s in all_states])
        u_rows = np.stack([system.commands.value(s.command) for s in all_states])
        tick = time.perf_counter()
        with rec.span("integrate", step=j, states=len(all_states)):
            pipes = system.plant.flow_batch(
                j * period, (j + 1) * period, boxes, u_rows, settings.substeps
            )
        integrate_elapsed = time.perf_counter() - tick
        for cell in live:
            cell.elapsed += integrate_elapsed * len(cell.active) / len(all_states)

        # --- batched unsafe scan: one disjoint query per distinct command
        substep_count = pipes.substep_count
        disjoint_all = np.empty((substep_count, len(all_states)), dtype=bool)
        rows_by_command: dict[int, list[int]] = {}
        for r, s in enumerate(all_states):
            rows_by_command.setdefault(s.command, []).append(r)
        for command, rows in rows_by_command.items():
            erroneous_now = resolve_for_command(erroneous, command)
            checker = getattr(erroneous_now, "disjoint_box_batch", None)
            if checker is not None:
                # sound: ok [S004] disjoint_all is a boolean disjointness
                # scratch table, not interval endpoint storage; the taint
                # arrives transitively through substep metadata.
                disjoint_all[:, rows] = checker(
                    pipes.range_lo[:, rows, :], pipes.range_hi[:, rows, :]
                )
            else:
                for r in rows:
                    range_lo, range_hi = pipes.range_arrays(r)
                    for k in range(substep_count):
                        # sound: ok [S004] same boolean scratch table as the
                        # batched branch above.
                        disjoint_all[k, r] = erroneous_now.disjoint_box(
                            Box(range_lo[k], range_hi[k])
                        )

        # --- per-cell unsafe bookkeeping, state by state in set order
        survivor_states: list[SymbolicState] = []
        survivor_rows: list[int] = []
        for cell in live:
            tick = time.perf_counter()
            result = cell.result
            cell.survivors = 0
            exited = False
            for offset, state in enumerate(cell.active):
                row = cell.row_start + offset
                result.integrations += substep_count
                rec.inc("reach.integrations", substep_count)
                for k in range(substep_count):
                    if settings.record_sets:
                        result.tube.append(
                            TubeSegment(
                                float(pipes.t_starts[k]),
                                float(pipes.t_ends[k]),
                                Box(pipes.range_lo[k, row], pipes.range_hi[k, row]),
                                state.command,
                            )
                        )
                    if not disjoint_all[k, row]:
                        cell.unsafe_found = True
                        rec.event(
                            "reach.unsafe",
                            step=j,
                            t=float(pipes.t_starts[k]),
                            command=state.command,
                        )
                        if result.unsafe_time is None:
                            result.unsafe_time = float(pipes.t_starts[k])
                            result.unsafe_command = state.command
                        if settings.early_exit_on_unsafe:
                            result.verdict = Verdict.POSSIBLY_UNSAFE
                            result.steps_completed = j
                            cell.finished = True
                            exited = True
                            break
                if exited:
                    break
                survivor_states.append(state)
                survivor_rows.append(row)
                cell.survivors += 1
            # On early exit the cell keeps its survivor rows: Algorithm 3
            # evaluates the controller for every state processed before
            # the unsafe one (and only then returns), so those rows stay
            # in the controller batch and count in
            # reach.controller_evaluations. Their successors are
            # discarded during assembly.
            cell.elapsed += time.perf_counter() - tick

        # --- one batched controller evaluation over every surviving state
        wave = live
        live = [c for c in live if not c.finished]
        command_lists: list[list[int]] = []
        if survivor_states:
            tick = time.perf_counter()
            with rec.span("controller", step=j, states=len(survivor_states)):
                batch_fn = getattr(system.controller, "execute_abstract_batch", None)
                if batch_fn is not None:
                    command_lists = batch_fn(
                        [s.box for s in survivor_states],
                        [s.command for s in survivor_states],
                    )
                else:
                    command_lists = [
                        system.controller.execute_abstract(s.box, s.command)
                        for s in survivor_states
                    ]
            rec.inc("reach.controller_evaluations", len(survivor_states))
            controller_elapsed = time.perf_counter() - tick
            for cell in wave:
                cell.elapsed += (
                    controller_elapsed * cell.survivors / len(survivor_states)
                )

        # --- per-cell successor assembly and termination check
        cursor = 0
        for cell in wave:
            tick = time.perf_counter()
            result = cell.result
            if cell.finished:
                # Early-exited cell: count the controller work done for
                # its pre-unsafe states, drop the successors.
                result.controller_evaluations += cell.survivors
                cursor += cell.survivors
                cell.elapsed += time.perf_counter() - tick
                continue
            next_set = SymbolicSet()
            for _ in range(cell.survivors):
                row = survivor_rows[cursor]
                next_commands = command_lists[cursor]
                cursor += 1
                result.controller_evaluations += 1
                end_box = pipes.end_box(row)
                for command in next_commands:
                    next_set.add(SymbolicState(end_box, command))
            cell.current = next_set
            result.steps_completed = j + 1
            rec.inc("reach.steps")
            if settings.record_sets:
                result.step_sets.append(next_set.copy())
            # Algorithm 3 line 23: all fresh states inside T => terminated.
            if all(
                resolve_for_command(target, s.command).contains_box(s.box)
                for s in next_set
            ):
                result.has_terminated = True
                result.termination_step = j + 1
                cell.finished = True
            cell.elapsed += time.perf_counter() - tick

    wall = time.perf_counter() - started
    for cell in cells:
        result = cell.result
        if cell.unsafe_found:
            result.verdict = Verdict.POSSIBLY_UNSAFE
        elif result.has_terminated:
            result.verdict = Verdict.PROVED_SAFE
        else:
            result.verdict = Verdict.SAFE_WITHIN_HORIZON
        result.elapsed_seconds = wall if len(cells) == 1 else cell.elapsed
    return [cell.result for cell in cells]


def reach_from_box(
    system: ClosedLoopSystem,
    initial_box: Box,
    initial_command: int,
    settings: ReachSettings | None = None,
) -> ReachResult:
    """Convenience wrapper: run :func:`reach` from one symbolic state."""
    initial = SymbolicSet([SymbolicState(initial_box, initial_command)])
    return reach(system, initial, settings)
