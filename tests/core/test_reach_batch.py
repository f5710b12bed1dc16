"""Algorithm 3 against its per-state oracle.

Algorithm 3 has one implementation, :func:`reach_many`, which advances
many initial sets in lockstep waves: :func:`reach` is its one-row call,
and lockstep campaigns feed it whole refinement waves. ``_reach_oracle``
below is the procedure written state by state on the scalar
``Plant.flow`` and ``Controller.execute_abstract``. Every
:class:`ReachResult` field of every driver must equal the oracle's,
the recorded step sets and tube segments down to their endpoint bytes;
only ``elapsed_seconds`` is left out.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ClosedLoopSystem,
    CommandSet,
    Controller,
    Plant,
    ReachResult,
    ReachSettings,
    RefinementPolicy,
    RunnerSettings,
    StateView,
    SymbolicSet,
    SymbolicState,
    SynchronousProductController,
    TubeSegment,
    Verdict,
    reach,
    verify_partition,
)
from repro.core import runner as runner_module
from repro.core.reach import reach_many
from repro.core.symbolic import resize
from repro.intervals import Box
from repro.nn import Network
from repro.ode import IntegratorSettings, MeanValueIntegrator, ODESystem, TaylorIntegrator
from repro.ode.ops import gsin
from repro.sets import BoxSet, PerCommandSet, UnionSet, resolve_for_command

from .fixtures import make_system, regulation_network, runaway_network


def _reach_oracle(
    system: ClosedLoopSystem, initial: SymbolicSet, settings: ReachSettings
) -> ReachResult:
    """Algorithm 3 state by state: one ``Plant.flow`` and one
    ``Controller.execute_abstract`` per symbolic state, in set order."""
    if settings.max_symbolic_states < len(system.commands):
        raise ValueError("Γ below the number of commands (Remark 3)")
    result = ReachResult(
        verdict=Verdict.SAFE_WITHIN_HORIZON,
        has_terminated=False,
        termination_step=None,
        steps_completed=0,
    )
    current = initial.copy()
    unsafe_found = False
    if settings.record_sets:
        result.step_sets.append(current.copy())

    def inside_target(state: SymbolicState) -> bool:
        return resolve_for_command(system.target, state.command).contains_box(state.box)

    for j in range(system.horizon_steps):
        result.joins_performed += resize(current, settings.max_symbolic_states)
        active = [s for s in current if not inside_target(s)]
        if not active:
            result.has_terminated = True
            result.termination_step = j
            break
        next_set = SymbolicSet()
        for state in active:
            erroneous = resolve_for_command(system.erroneous, state.command)
            pipe = system.plant.flow(
                j * system.period,
                (j + 1) * system.period,
                state.box,
                system.commands.value(state.command),
                settings.substeps,
            )
            result.integrations += len(pipe.steps)
            for step in pipe.steps:
                if settings.record_sets:
                    result.tube.append(
                        TubeSegment(step.t_start, step.t_end, step.range_box, state.command)
                    )
                if not erroneous.disjoint_box(step.range_box):
                    unsafe_found = True
                    if result.unsafe_time is None:
                        result.unsafe_time = step.t_start
                        result.unsafe_command = state.command
                    if settings.early_exit_on_unsafe:
                        result.verdict = Verdict.POSSIBLY_UNSAFE
                        result.steps_completed = j
                        return result
            next_commands = system.controller.execute_abstract(state.box, state.command)
            result.controller_evaluations += 1
            for command in next_commands:
                next_set.add(SymbolicState(pipe.end_box, command))
        current = next_set
        result.steps_completed = j + 1
        if settings.record_sets:
            result.step_sets.append(current.copy())
        if all(inside_target(s) for s in current):
            result.has_terminated = True
            result.termination_step = j + 1
            break

    if unsafe_found:
        result.verdict = Verdict.POSSIBLY_UNSAFE
    elif result.has_terminated:
        result.verdict = Verdict.PROVED_SAFE
    return result


def _box_bytes(box: Box) -> tuple[bytes, bytes]:
    return box.lo.tobytes(), box.hi.tobytes()


def _canonical(result: ReachResult) -> dict:
    """Every field but ``elapsed_seconds``, with boxes as endpoint bytes
    and times as exact hex floats."""
    out = {}
    for f in dataclasses.fields(ReachResult):
        value = getattr(result, f.name)
        if f.name == "elapsed_seconds":
            continue
        if f.name == "step_sets":
            value = [[(s.command, *_box_bytes(s.box)) for s in step] for step in value]
        elif f.name == "tube":
            value = [
                (float(g.t_start).hex(), float(g.t_end).hex(), g.command, *_box_bytes(g.box))
                for g in value
            ]
        elif f.name == "unsafe_time" and value is not None:
            value = float(value).hex()
        out[f.name] = value
    return out


def assert_matches_oracle(system, initial, settings, result) -> None:
    expected = _canonical(_reach_oracle(system, initial, settings))
    got = _canonical(result)
    for name in expected:
        assert got[name] == expected[name], name


def initial_set(lo: float = 2.0, hi: float = 2.2, command: int = 0) -> SymbolicSet:
    return SymbolicSet([SymbolicState(Box([lo], [hi]), command)])


MULTI = SymbolicSet(
    [
        SymbolicState(Box([2.0], [2.1]), 0),
        SymbolicState(Box([-2.1], [-2.0]), 1),
        SymbolicState(Box([0.5], [0.6]), 0),
    ]
)

RECORD = ReachSettings(substeps=4, record_sets=True)
DIAGNOSE = ReachSettings(substeps=4, record_sets=True, early_exit_on_unsafe=False)


def per_command_system() -> ClosedLoopSystem:
    """E and T depend on the command (subsets of R x U, Section 4.1).
    Command 0's E is a UnionSet, which has no batched disjointness test."""
    inf = np.inf
    system = make_system(
        target=PerCommandSet(
            {0: BoxSet(Box([-1.5], [1.0])), 1: BoxSet(Box([-1.0], [1.5]))}
        )
    )
    erroneous = PerCommandSet(
        {0: UnionSet([BoxSet(Box([4.0], [inf]))]), 1: BoxSet(Box([-inf], [-4.0]))}
    )
    return dataclasses.replace(system, erroneous=erroneous)


def selector_system() -> ClosedLoopSystem:
    """Two networks, chosen by the previous command (the paper's λ)."""
    system = make_system()
    controller = Controller(
        networks=[regulation_network(), runaway_network()],
        commands=system.commands,
        selector=lambda command: command,
    )
    return dataclasses.replace(system, controller=controller)


def product_system() -> ClosedLoopSystem:
    """Two independent regulators as one SynchronousProductController,
    which has no batch form."""

    def regulator(dim: int):
        controller = Controller(
            networks=[Network([np.array([[1.0], [-1.0]])], [np.zeros(2)])],
            commands=CommandSet(np.array([[1.0], [-1.0]]), names=["up", "down"]),
        )
        view = StateView(
            concrete=lambda s: np.asarray([s[dim]], dtype=float),
            abstract=lambda box: Box([box.lo[dim]], [box.hi[dim]]),
        )
        return controller, view

    (c0, v0), (c1, v1) = regulator(0), regulator(1)
    ode = ODESystem(
        rhs=lambda t, s, u: [0.0 * s[0] + float(u[0]), 0.0 * s[1] + float(u[1])],
        dim=2,
        name="two-integrators",
    )
    inf = np.inf
    return ClosedLoopSystem(
        plant=Plant(ode, TaylorIntegrator(ode)),
        controller=SynchronousProductController([c0, c1], [v0, v1]),
        period=1.0,
        erroneous=UnionSet(
            [BoxSet(Box([4.0, -inf], [inf, inf])), BoxSet(Box([-inf, -inf], [inf, -4.0]))]
        ),
        target=BoxSet(Box([-1.5, -1.5], [1.5, 1.5])),
        horizon_steps=6,
    )


def pendulum_system(integrator: str) -> ClosedLoopSystem:
    """A ``gsin`` plant under a bang-bang torque law on ``3θ + 1.5ω``;
    near the switching line ``Post#`` returns several torques, so Γ = 3
    forces joins."""
    ode = ODESystem(
        rhs=lambda t, s, u: [s[1], gsin(s[0]) - 0.4 * s[1] + float(u[0])],
        dim=2,
        name="pendulum",
    )
    settings = IntegratorSettings(order=4)
    flow = (
        TaylorIntegrator(ode, settings)
        if integrator == "taylor"
        else MeanValueIntegrator(ode, settings)
    )
    gain = np.array([[3.0, 1.5], [0.0, 0.0], [-3.0, -1.5]])
    inf = np.inf
    return ClosedLoopSystem(
        plant=Plant(ode, flow),
        controller=Controller(
            networks=[Network([gain], [np.zeros(3)])],
            commands=CommandSet(np.array([[2.0], [0.0], [-2.0]])),
        ),
        period=0.25,
        erroneous=UnionSet(
            [BoxSet(Box([1.0, -inf], [inf, inf])), BoxSet(Box([-inf, -inf], [-1.0, inf]))]
        ),
        target=BoxSet(Box([-0.3, -0.9], [0.3, 0.9])),
        horizon_steps=8,
    )


class TestReachBatchStates:
    """``reach`` (a one-row ``reach_many``) against the oracle."""

    def test_regulated_loop_bitwise(self):
        system = make_system()
        result = reach(system, initial_set(), RECORD)
        assert result.verdict is Verdict.PROVED_SAFE
        assert_matches_oracle(system, initial_set(), RECORD, result)

    def test_unsafe_loop_bitwise(self):
        system = make_system(network=runaway_network(), error_bound=4.0)
        result = reach(system, initial_set(), RECORD)
        assert result.verdict is Verdict.POSSIBLY_UNSAFE
        assert_matches_oracle(system, initial_set(), RECORD, result)

    def test_unsafe_loop_diagnose_bitwise(self):
        # early_exit_on_unsafe=False: the run goes on past the first hit.
        system = make_system(network=runaway_network(), error_bound=4.0)
        result = reach(system, initial_set(), DIAGNOSE)
        assert result.verdict is Verdict.POSSIBLY_UNSAFE
        assert_matches_oracle(system, initial_set(), DIAGNOSE, result)

    def test_multi_state_initial_set(self):
        system = make_system()
        assert_matches_oracle(system, MULTI, RECORD, reach(system, MULTI, RECORD))

    @pytest.mark.parametrize("settings", [RECORD, DIAGNOSE], ids=["early-exit", "diagnose"])
    def test_per_command_sets(self, settings):
        system = per_command_system()
        initials = (
            initial_set(),
            initial_set(-2.2, -2.0, command=1),
            # Inside the other command's E only: safe for its own command.
            initial_set(-4.3, -4.2, command=0),
            initial_set(4.2, 4.3, command=1),
            MULTI,
        )
        for initial in initials:
            assert_matches_oracle(system, initial, settings, reach(system, initial, settings))

    def test_networks_selected_by_previous_command(self):
        system = selector_system()
        initials = [initial_set(0.5, 0.7), initial_set(-0.7, -0.5, command=1), MULTI]
        for initial, result in zip(initials, reach_many(system, initials, RECORD)):
            assert_matches_oracle(system, initial, RECORD, result)

    def test_product_controller_without_batch_form(self):
        system = product_system()
        settings = ReachSettings(substeps=2, max_symbolic_states=4, record_sets=True)
        initial = SymbolicSet([SymbolicState(Box([2.0, -2.2], [2.2, -2.0]), 2)])
        result = reach(system, initial, settings)
        assert result.verdict is Verdict.PROVED_SAFE
        assert_matches_oracle(system, initial, settings, result)

    @pytest.mark.parametrize("integrator", ["taylor", "meanvalue"])
    def test_gsin_plant(self, integrator):
        system = pendulum_system(integrator)
        initial = SymbolicSet([SymbolicState(Box([0.35, -0.8], [0.45, -0.6]), 1)])
        for early_exit in (True, False):
            settings = ReachSettings(
                substeps=3,
                max_symbolic_states=3,
                record_sets=True,
                early_exit_on_unsafe=early_exit,
            )
            result = reach(system, initial, settings)
            assert result.joins_performed > 0
            assert_matches_oracle(system, initial, settings, result)


class TestReachMany:
    def test_matches_per_set_scalar_runs(self):
        system = make_system()
        initials = [
            initial_set(2.0, 2.2),
            initial_set(-2.2, -2.0, command=1),
            initial_set(3.0, 3.1),
            MULTI,
        ]
        results = reach_many(system, initials, RECORD)
        assert len(results) == len(initials)
        for initial, result in zip(initials, results):
            assert_matches_oracle(system, initial, RECORD, result)

    def test_early_exit_counts_controller_evaluations(self):
        # One state goes unsafe after another state of the same set has
        # been processed: Algorithm 3 evaluated the controller for the
        # earlier state before returning, and the wave must count it.
        system = make_system(network=runaway_network(), error_bound=4.0)
        multi = SymbolicSet(
            [
                SymbolicState(Box([0.1], [0.2]), 0),
                SymbolicState(Box([2.0], [2.2]), 0),
            ]
        )
        settings = ReachSettings(substeps=4)
        [result] = reach_many(system, [multi], settings)
        assert result.verdict is Verdict.POSSIBLY_UNSAFE
        assert result.controller_evaluations > 0
        assert_matches_oracle(system, multi, settings, result)

    def test_mixed_wave_with_unsafe_rows(self):
        # Rows that exit early share their waves with rows that go on.
        system = make_system(network=runaway_network(), error_bound=4.0)
        initials = [initial_set(0.1, 0.2), initial_set(2.0, 2.2), initial_set(-0.3, -0.1, 1)]
        for settings in (RECORD, DIAGNOSE):
            for initial, result in zip(initials, reach_many(system, initials, settings)):
                assert_matches_oracle(system, initial, settings, result)

    def test_coarse_acas_cells_with_joins(self, tiny_acas):
        from repro.acasxu import initial_cells

        cells = initial_cells(8, 3)
        initials = [
            SymbolicSet([SymbolicState(box, command)])
            for box, command, _tags in (cells[3], cells[9], cells[21])
        ]
        settings = ReachSettings(substeps=10, max_symbolic_states=5, record_sets=True)
        results = reach_many(tiny_acas, initials, settings)
        assert all(r.joins_performed > 0 for r in results)
        for initial, result in zip(initials, results):
            assert_matches_oracle(tiny_acas, initial, settings, result)


class TestLockstepPartition:
    CELLS = [
        (Box([2.0], [2.2]), 0, {"kind": "regulated"}),
        (Box([-2.2], [-2.0]), 1, {"kind": "mirror"}),
        (Box([4.4], [4.6]), 0, {"kind": "near-error"}),
        (Box([0.2], [0.4]), 0, {"kind": "inside-target"}),
    ]

    @staticmethod
    def _settings(cell_timeout: float | None) -> RunnerSettings:
        """Serial settings: one chunk of every cell, or with a cell
        budget one cell at a time."""
        return RunnerSettings(
            reach=RECORD,
            refinement=RefinementPolicy(dims=(0,), max_depth=1),
            workers=1,
            cell_timeout=cell_timeout,
        )

    @staticmethod
    def _tree(cell) -> tuple:
        return (
            cell.cell_id,
            cell.verdict,
            *_box_bytes(cell.box),
            cell.steps_completed,
            cell.joins_performed,
            cell.integrations,
            cell.tags.get("kind"),
            tuple(TestLockstepPartition._tree(c) for c in cell.children),
        )

    def test_batch_cells_matches_scalar(self, monkeypatch):
        waves = []

        def recording_reach_many(system, initial_sets, settings):
            results = reach_many(system, initial_sets, settings)
            waves.append((system, initial_sets, settings, results))
            return results

        monkeypatch.setattr(runner_module, "reach_many", recording_reach_many)
        lockstep = verify_partition(make_system, self.CELLS, self._settings(None))
        monkeypatch.undo()
        per_cell = verify_partition(make_system, self.CELLS, self._settings(600.0))

        assert [len(w[1]) for w in waves] == [4, 2]  # near-error is bisected
        for system, initial_sets, settings, results in waves:
            for initial, result in zip(initial_sets, results):
                assert_matches_oracle(system, initial, settings, result)
        assert [self._tree(c) for c in lockstep.cells] == [
            self._tree(c) for c in per_cell.cells
        ]
        assert lockstep.coverage_percent() == per_cell.coverage_percent()
