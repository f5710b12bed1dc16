"""K1 — SoA interval kernels: batched vs scalar on the three hot paths.

The lockstep reachability driver spends its time in three kernels:
the validated flow over a control period (``Plant.flow_batch``, here
the ACAS Xu analytic flow's ``integrate_batch``), symbolic NN
propagation (``SymbolicPropagator.output_bounds_batch``, one stacked
call per wave behind ``Controller.execute_abstract_batch``), and the
reach-set join
(``resize`` + ``Box.hull``). Each bench here runs the batched kernel
and its scalar per-row equivalent over the same inputs, records both
timings, and asserts bitwise-identical outputs — the contract that
lets one ``reach_many`` serve lockstep waves and single cells alike.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py --benchmark-only
"""

import numpy as np
import pytest

from repro.core import ReachSettings
from repro.core.symbolic import SymbolicSet, SymbolicState, resize
from repro.intervals import Box, BoxBatch, hull_of_boxes


def _wave_boxes(tiny_system, rows: int) -> tuple[list[Box], np.ndarray]:
    """A representative wave: perturbed copies of real initial cells."""
    from repro.acasxu import initial_cells

    cells = initial_cells(8, 3)
    boxes: list[Box] = []
    commands: list[int] = []
    for r in range(rows):
        box, command, _tags = cells[r % len(cells)]
        # Deterministic wobble so rows are distinct boxes while staying
        # inside the scenario's plausible region.
        shift = 1e-3 * (r // len(cells))
        boxes.append(Box(box.lo + shift, box.hi + shift))
        commands.append(command)
    u_rows = np.stack(
        [tiny_system.commands.values[c] for c in commands]
    )
    return boxes, u_rows


def _has_subnormal(values: np.ndarray) -> np.ndarray:
    """Per row: does any endpoint lie strictly between 0 and the
    smallest normal float?"""
    magnitude = np.abs(values)
    return ((magnitude > 0.0) & (magnitude < np.finfo(float).tiny)).any(axis=1)


@pytest.mark.parametrize("rows", [1, 2, 4, 16, 64, 734])
def test_flow_batch(benchmark, tiny_system, rows):
    """One control period of validated integration over a whole wave
    (1-2 rows is the per-cell path's shape, 16-64 lockstep's, 734 the
    widest `tiny-smoke` wave, whose heading half runs one substep per
    block)."""
    settings = ReachSettings(substeps=10, max_symbolic_states=5)
    boxes, u_rows = _wave_boxes(tiny_system, rows)
    batch = BoxBatch(
        np.stack([b.lo for b in boxes]), np.stack([b.hi for b in boxes])
    )
    plant = tiny_system.plant
    t1 = tiny_system.period

    pipes = benchmark(
        plant.flow_batch, 0.0, t1, batch, u_rows, settings.substeps
    )

    # Bitwise contract: every row's range and end boxes match the scalar
    # integrator, substep by substep.
    for r in range(rows):
        pipe = plant.flow(0.0, t1, boxes[r], u_rows[r], settings.substeps)
        for i, step in enumerate(pipe.steps):
            assert step.range_box.lo.tobytes() == pipes.range_lo[i, r].tobytes()
            assert step.range_box.hi.tobytes() == pipes.range_hi[i, r].tobytes()
            assert step.end_box.lo.tobytes() == pipes.end_lo[i, r].tobytes()
            assert step.end_box.hi.tobytes() == pipes.end_hi[i, r].tobytes()
    benchmark.extra_info["rows"] = rows


@pytest.mark.parametrize("rows", [4, 16, 64])
def test_nn_propagation_batch(benchmark, tiny_system, rows):
    """Symbolic bound propagation over a stack of normalized inputs."""
    boxes, _u = _wave_boxes(tiny_system, rows)
    controller = tiny_system.controller
    propagator = controller.propagators[0]
    x_boxes = [controller.pre.abstract(b) for b in boxes]
    lo = np.stack([b.lo for b in x_boxes])
    hi = np.stack([b.hi for b in x_boxes])
    # Subnormal endpoints slow every BLAS product they reach: Pre# must
    # add none. (A cell next to position angle 0 starts with a subnormal
    # x endpoint, which reaches theta; that is the only source allowed.)
    produced = _has_subnormal(lo) | _has_subnormal(hi)
    inherited = _has_subnormal(np.stack([b.lo for b in boxes])) | _has_subnormal(
        np.stack([b.hi for b in boxes])
    )
    assert not np.any(produced & ~inherited)

    out_lo, out_hi = benchmark(propagator.output_bounds_batch, lo, hi)

    for r in (0, rows - 1):
        s_lo, s_hi = propagator.output_bounds(x_boxes[r])
        assert s_lo.tobytes() == out_lo[r].tobytes()
        assert s_hi.tobytes() == out_hi[r].tobytes()
    benchmark.extra_info["rows"] = rows


@pytest.mark.parametrize("states, commands", [(8, 3), (15, 3), (30, 3), (25, 5)])
def test_join_resize(benchmark, tiny_system, states, commands):
    """Algorithm 2 joins down to Gamma=5 from an oversized symbolic set.
    25 states over 5 commands is lockstep's dominant shape on coarse
    cells: every cluster collapses to its hull."""
    boxes, _u = _wave_boxes(tiny_system, states)
    base = [
        SymbolicState(box, i % commands) for i, box in enumerate(boxes)
    ]

    def run():
        working = SymbolicSet(list(base))
        joins = resize(working, 5)
        return working, joins

    result, joins = benchmark(run)
    assert len(result) == 5
    assert joins == states - 5
    if commands == 5:
        for joined in result:
            inputs = [s.box for s in base if s.command == joined.command]
            assert joined.box == hull_of_boxes(inputs)
    benchmark.extra_info["states"] = states
    benchmark.extra_info["commands"] = commands
    benchmark.extra_info["joins"] = joins


def _paper_controller():
    """The 6x50 paper-architecture controller from the committed bank
    (networks only: propagation needs no tables)."""
    import os
    from pathlib import Path

    from repro.acasxu import PAPER_SCENARIO, build_controller
    from repro.nn.serialize import load_npz

    key = f"{PAPER_SCENARIO.table_config.key()}-{PAPER_SCENARIO.network_config.key()}"
    bank = Path(os.environ["REPRO_CACHE"]) / key
    return build_controller([load_npz(bank / f"network_{i}.npz") for i in range(5)])


@pytest.mark.parametrize("bank", ["tiny", "paper"])
def test_controller_execute_batch(benchmark, tiny_system, bank):
    """End-to-end abstract controller execution over a 24-row wave whose
    rows select every network, out of network order (network 4 by one
    row): one batched Pre#, one stacked F# and one batched Post#. The
    commands equal the per-row ones, and the stacked F# scores equal
    each row's own network's ``output_bounds`` byte for byte."""
    boxes, _u = _wave_boxes(tiny_system, 24)
    commands = [(3 * i + 1) % 4 for i in range(len(boxes))]
    commands[7] = 4
    controller = tiny_system.controller if bank == "tiny" else _paper_controller()

    batch_out = benchmark(controller.execute_abstract_batch, boxes, commands)

    scalar_out = [
        controller.execute_abstract(b, c) for b, c in zip(boxes, commands)
    ]
    assert batch_out == scalar_out
    x_lo, x_hi = controller.pre.abstract_batch(
        np.stack([b.lo for b in boxes]), np.stack([b.hi for b in boxes])
    )
    out_lo, out_hi = controller.propagators[0].output_bounds_batch(
        x_lo, x_hi, controller.networks, commands
    )
    for r, network in enumerate(commands):
        s_lo, s_hi = controller.propagators[network].output_bounds(Box(x_lo[r], x_hi[r]))
        assert s_lo.tobytes() == out_lo[r].tobytes()
        assert s_hi.tobytes() == out_hi[r].tobytes()
    benchmark.extra_info["bank"] = bank
