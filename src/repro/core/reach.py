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
from ..ode import FlowPipeBatch
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

        # --- joins per cell, then one wave-wide termination filter
        for cell in live:
            tick = time.perf_counter()
            with rec.span("join", step=j, states=len(cell.current)):
                joins = resize(cell.current, settings.max_symbolic_states)
            cell.result.joins_performed += joins
            if joins:
                rec.inc("reach.joins", joins)
            cell.elapsed += time.perf_counter() - tick
        tick = time.perf_counter()
        with rec.span("terminate", step=j):
            inside = iter(_inside_target(target, [s for c in live for s in c.current]))
        share = (time.perf_counter() - tick) / len(live)
        for cell in live:
            cell.elapsed += share
            active = [s for s in cell.current if not next(inside)]
            if not active:
                cell.result.has_terminated = True
                cell.result.termination_step = j
                cell.finished = True
            else:
                cell.active = active
        live = [c for c in live if not c.finished]
        if not live:
            continue

        # --- one batched integrator call over the whole wave
        all_states: list[SymbolicState] = []
        for cell in live:
            cell.row_start = len(all_states)
            all_states.extend(cell.active)
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

        # --- batched unsafe scan: one disjoint query per distinct E
        substep_count = pipes.substep_count
        disjoint_all = _disjoint_from(erroneous, all_states, pipes)

        # --- per-cell unsafe bookkeeping, state by state in set order;
        # a row the scan cleared at every substep needs no substep loop
        # unless its tube is recorded
        cleared = disjoint_all.all(axis=0).tolist()
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
                if settings.record_sets or not cleared[row]:
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
            # sound: ok [S001] an integer work counter, not a bound
            rec.inc("reach.integrations", substep_count * (cell.survivors + exited))
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

        # --- per-cell successor assembly, then one wave-wide
        # termination check of the fresh states (Algorithm 3 line 23)
        end_lo = pipes.end_lo[-1, survivor_rows]
        end_hi = pipes.end_hi[-1, survivor_rows]
        kept: list[int] = []
        cursor = 0
        for cell in wave:
            if not cell.finished:
                kept.extend(range(cursor, cursor + cell.survivors))
            cursor += cell.survivors
        # The end boxes that become states, checked once for the wave
        # the way Box.__init__ checks one box.
        if not np.all(end_lo[kept] <= end_hi[kept]):
            raise ValueError("a flow end box has a NaN or lo > hi endpoint")
        cursor = 0
        assembled: list[_LiveCell] = []
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
                end_box = Box._trusted(end_lo[cursor].copy(), end_hi[cursor].copy())
                for command in command_lists[cursor]:
                    next_set.add(SymbolicState(end_box, command))
                cursor += 1
                result.controller_evaluations += 1
            cell.current = next_set
            result.steps_completed = j + 1
            rec.inc("reach.steps")
            if settings.record_sets:
                result.step_sets.append(next_set.copy())
            assembled.append(cell)
            cell.elapsed += time.perf_counter() - tick
        if assembled:
            tick = time.perf_counter()
            inside = iter(
                _inside_target(target, [s for c in assembled for s in c.current])
            )
            share = (time.perf_counter() - tick) / len(assembled)
            for cell in assembled:
                cell.elapsed += share
                # Algorithm 3 line 23: all fresh states inside T => terminated.
                flags = [next(inside) for _ in cell.current]
                if all(flags):
                    cell.result.has_terminated = True
                    cell.result.termination_step = j + 1
                    cell.finished = True

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


#: Below this many states of one resolved target, T is tested one
#: ``contains_box`` at a time (~7 us each); from it on, one
#: ``contains_box_batch`` call (~60 us whatever its size) is cheaper.
#: Measured on a 2-vCPU VM.
_BATCHED_TARGET_ROWS = 8


def _inside_target(target: object, states: list[SymbolicState]) -> list[bool]:
    """Whether each state lies inside ``target`` resolved for its
    command (E and T may be command-dependent, Section 4.1): one query
    per distinct resolved set, a single one for a command-independent
    set."""
    if getattr(target, "for_command", None) is None:
        return _contained(target, states)
    inside: dict[int, bool] = {}
    for command, rows in _rows_by_command(states).items():
        spec = resolve_for_command(target, command)
        inside.update(zip(rows, _contained(spec, [states[r] for r in rows])))
    return [inside[r] for r in range(len(states))]


def _rows_by_command(states: list[SymbolicState]) -> dict[int, list[int]]:
    """The row indices of ``states`` by command, commands in order of
    first appearance."""
    rows: dict[int, list[int]] = {}
    for r, s in enumerate(states):
        rows.setdefault(s.command, []).append(r)
    return rows


def _contained(spec: object, states: list[SymbolicState]) -> list[bool]:
    """``spec.contains_box`` of every state's box: one
    ``contains_box_batch`` call from ``_BATCHED_TARGET_ROWS`` states on
    when the set has it, else state by state (the same answers)."""
    batched = getattr(spec, "contains_box_batch", None)
    if batched is not None and len(states) >= _BATCHED_TARGET_ROWS:
        return batched(
            np.stack([s.box.lo for s in states]), np.stack([s.box.hi for s in states])
        ).tolist()
    return [spec.contains_box(s.box) for s in states]


def _disjoint_from(
    erroneous: object, states: list[SymbolicState], pipes: FlowPipeBatch
) -> np.ndarray:
    """Whether each range box of ``pipes`` (substep by row) misses
    ``erroneous`` resolved for its row's command: one query per distinct
    resolved set, a single one over the whole wave for a
    command-independent set."""
    if getattr(erroneous, "for_command", None) is None:
        return _disjoint(erroneous, pipes.range_lo, pipes.range_hi)
    disjoint = np.empty((pipes.substep_count, len(states)), dtype=bool)
    for command, rows in _rows_by_command(states).items():
        # sound: ok [S004] a boolean disjointness table, not interval
        # endpoint storage; the taint arrives through the substep arrays
        disjoint[:, rows] = _disjoint(
            resolve_for_command(erroneous, command),
            pipes.range_lo[:, rows],
            pipes.range_hi[:, rows],
        )
    return disjoint


def _disjoint(spec: object, range_lo: np.ndarray, range_hi: np.ndarray) -> np.ndarray:
    """``spec.disjoint_box`` of every ``(substep, row)`` range box: one
    ``disjoint_box_batch`` call when the set has it, else box by box
    (the same answers)."""
    batched = getattr(spec, "disjoint_box_batch", None)
    if batched is not None:
        return batched(range_lo, range_hi)
    return np.array(
        [
            [spec.disjoint_box(Box(lo, hi)) for lo, hi in zip(los, his)]
            for los, his in zip(range_lo, range_hi)
        ],
        dtype=bool,
    )


def reach_from_box(
    system: ClosedLoopSystem,
    initial_box: Box,
    initial_command: int,
    settings: ReachSettings | None = None,
) -> ReachResult:
    """Convenience wrapper: run :func:`reach` from one symbolic state."""
    initial = SymbolicSet([SymbolicState(initial_box, initial_command)])
    return reach(system, initial, settings)
