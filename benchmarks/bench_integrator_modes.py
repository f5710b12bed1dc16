"""Ablation A4 — validated-simulation engines.

Compares the generic interval Taylor integrator (the DynIBEX-substitute
the procedure would use for an arbitrary plant) against the ACAS Xu
closed-form analytic flow, in runtime and enclosure tightness, over one
control period from a partition cell.
"""

import pytest

from repro.acasxu import ACASXU_ODE, AcasXuAnalyticFlow, initial_cell
from repro.intervals import Interval
from repro.ode import IntegratorSettings, MeanValueIntegrator, TaylorIntegrator


@pytest.fixture(scope="module")
def cell_and_command(tiny_system):
    box = initial_cell(Interval(0.35, 0.36), Interval(0.20, 0.21))
    return box, tiny_system.commands.value(4)


@pytest.mark.parametrize(
    "mode", ["analytic", "taylor-o3", "taylor-o5", "taylor-o8", "meanvalue-o5"]
)
def test_integrator_throughput(benchmark, cell_and_command, mode):
    box, u = cell_and_command
    if mode == "analytic":
        integrator = AcasXuAnalyticFlow()
    elif mode.startswith("meanvalue"):
        order = int(mode.split("-o")[1])
        integrator = MeanValueIntegrator(ACASXU_ODE, IntegratorSettings(order=order))
    else:
        order = int(mode.split("-o")[1])
        integrator = TaylorIntegrator(ACASXU_ODE, IntegratorSettings(order=order))

    pipe = benchmark(integrator.integrate, 0.0, 1.0, box, u, 10)
    hull = pipe.enclosure()
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["tube_xy_area_ft2"] = float(hull.widths[0] * hull.widths[1])
    benchmark.extra_info["end_max_width"] = float(pipe.end_box.max_width)


def test_integrators_mutually_consistent(benchmark, cell_and_command):
    """Both engines are sound, so their enclosures must overlap; the
    endpoint boxes must both contain the high-accuracy reference."""
    from scipy.integrate import solve_ivp

    from repro.acasxu import acasxu_rhs

    box, u = cell_and_command
    analytic = benchmark(AcasXuAnalyticFlow().integrate, 0.0, 1.0, box, u, 10)
    taylor = TaylorIntegrator(ACASXU_ODE, IntegratorSettings(order=5)).integrate(
        0.0, 1.0, box, u, 10
    )
    reference = solve_ivp(
        lambda t, s: acasxu_rhs(t, s, u),
        (0.0, 1.0),
        box.center,
        rtol=1e-11,
        atol=1e-12,
    ).y[:, -1]
    assert analytic.end_box.contains_point(reference)
    assert taylor.end_box.contains_point(reference)
    assert analytic.end_box.overlaps(taylor.end_box)
    meanvalue = MeanValueIntegrator(
        ACASXU_ODE, IntegratorSettings(order=5)
    ).integrate(0.0, 1.0, box, u, 10)
    assert meanvalue.end_box.contains_point(reference)
    # The mean-value form never does worse than the direct Taylor form.
    assert meanvalue.end_box.volume() <= taylor.end_box.volume() * (1 + 1e-9)
